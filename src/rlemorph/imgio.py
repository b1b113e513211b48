"""File codecs: portable bitmap (P1 ASCII / P4 binary) and a plain-text
run-length interchange format.  Both round-trip RLE images exactly.

PBM foreground is black (bit 1).  P4 packs bits MSB-first, rows padded to
byte boundaries.  The text format is one run per line, "y lx rx", sorted.
``read_image`` tells the two formats apart; every file reader goes
through it.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .rle import COORD_LIMIT, Rect, RleImage, _BLOCK_BYTES, _bit_runs, _packed, _paint, normalize


@dataclass(frozen=True)
class ImageFileMeta:
    width: int
    height: int


class PbmParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class PbmWriteError(ValueError):
    pass


class RleTextParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


_WS = b" \t\r\n\x0b\x0c"
_COMMENT = re.compile(rb"#[^\r\n]*")
# Header fields: whitespace and comments between them, then ASCII digits.
_GAP = re.compile(b"(?:[%s]|%s)*" % (re.escape(_WS), _COMMENT.pattern))
# Comments after the P4 height, each through its line break; the one
# whitespace byte before the raster comes after them.
_P4_COMMENTS = re.compile(rb"(?:%s[\r\n]?)*" % _COMMENT.pattern)
_DIGITS = re.compile(rb"[0-9]*")
# A P1 payload byte that is neither a digit nor whitespace.
_P1_BAD = re.compile(b"[^01%s]" % re.escape(_WS))


def _read_uint(data: bytes, pos: int, what: str) -> tuple[int, int]:
    start = _GAP.match(data, pos).end()
    end = _DIGITS.match(data, start).end()
    if end == start:
        raise PbmParseError(f"expected {what}", start)
    return int(data[start:end]), end


def _p1_bits(data: bytes, pos: int, width: int, height: int) -> np.ndarray:
    """The pixels of a P1 payload starting at pos, as P4 stores them:
    (height, ceil(width / 8)) MSB-first bit rows.

    Comments become whitespace; the first width*height digits are the
    pixels, and any other byte is an error only before the last of them.
    The digits are packed a block of rows at a time, at most _BLOCK_BYTES
    of them: slices of _BLOCK_BYTES payload bytes lose their whitespace to
    bytes.translate until the block's digits are in, and a byte of the
    block above "1" or below "0" is the first that is not a digit.
    """
    if data.find(b"#", pos) >= 0:  # same length, so the offsets stay
        data = data[:pos] + _COMMENT.sub(lambda m: b" " * len(m[0]), data[pos:])
    if len(data) - pos >= width * height:  # every digit takes a byte; else allocate nothing
        out = np.empty((height, (width + 7) // 8), dtype=np.uint8)
        rows = max(1, _BLOCK_BYTES // width)
        ink, p = b"", pos  # the payload's bytes before p, less whitespace and packed digits
        for t in range(0, height, rows):
            n = min(rows, height - t) * width
            while len(ink) < n and p < len(data):
                ink += data[p : p + _BLOCK_BYTES].translate(None, _WS)
                p += _BLOCK_BYTES
            bit = np.frombuffer(ink, dtype=np.uint8, count=min(n, len(ink))) - ord("0")
            if len(bit) < n or bit.max() > 1:  # any other byte wraps above 1
                break
            out[t : t + rows] = np.packbits(bit.reshape(-1, width), axis=1)
            ink = ink[n:]
        else:
            return out
    bad = _P1_BAD.search(data, pos)
    if bad:  # every byte before it is a digit or whitespace
        raise PbmParseError(f"unexpected byte {bad[0]!r} in P1 payload", bad.start())
    raise PbmParseError("truncated P1 payload", len(data))


def read_pbm(data: bytes) -> tuple[RleImage, ImageFileMeta]:
    if data[:2] not in (b"P1", b"P4"):
        raise PbmParseError(f"bad magic {data[:2]!r}", 0)
    pos = 2
    width, pos = _read_uint(data, pos, "width")
    height, pos = _read_uint(data, pos, "height")
    if width < 1 or height < 1:
        raise PbmParseError(f"bad dimensions {width}x{height}", pos)
    if data[:2] == b"P1":
        rows = _p1_bits(data, pos, width, height)
    else:
        pos = _P4_COMMENTS.match(data, pos).end()
        if pos >= len(data):
            raise PbmParseError("truncated P4 header", pos)
        if data[pos] not in _WS:
            raise PbmParseError("expected whitespace before the P4 raster", pos)
        pos += 1
        row_bytes = (width + 7) // 8
        need = row_bytes * height
        if len(data) - pos < need:
            raise PbmParseError("truncated P4 payload", len(data))
        rows = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos).reshape(height, row_bytes)
    return RleImage._built(_bit_runs(rows, width)), ImageFileMeta(width, height)


def write_pbm(img: RleImage, meta: ImageFileMeta, variant: str = "P1") -> bytes:
    if variant not in ("P1", "P4"):
        raise ValueError(f"unknown PBM variant {variant!r}")
    if meta.width < 1 or meta.height < 1:
        raise PbmWriteError(f"bad dimensions {meta.width}x{meta.height}: a PBM canvas is at least 1x1")
    lx, rx, y = img.array.T
    bad = np.flatnonzero((y < 0) | (y >= meta.height) | (lx < 0) | (rx >= meta.width))
    if bad.size:
        raise PbmWriteError(
            f"run {tuple(img.array[bad[0]].tolist())} outside the "
            f"{meta.width}x{meta.height} canvas at (0, 0)"
        )
    rect = Rect(0, meta.width - 1, 0, meta.height - 1)
    header = f"{variant}\n{meta.width} {meta.height}\n".encode()
    if variant == "P1":
        # Each pixel is a digit and a separator: a space, or a newline at
        # the end of the row.
        body = np.full((meta.height, 2 * meta.width), ord(" "), dtype=np.uint8)
        body[:, 0::2] = _paint(img, rect).view(np.uint8) + ord("0")
        body[:, -1] = ord("\n")
    else:
        body = _packed(img, rect)
    # One copy of the body, into the result.
    return b"".join((header, body))


def read_rle_text(text: str) -> RleImage:
    """Decode RLE text; runs may come in any order and may overlap or touch.

    Lines are those str.splitlines gives, numbered from 1.  A line with no
    tokens, or whose first token starts with '#', is skipped; every other
    line is three int() tokens 'y lx rx' with lx <= rx, each within
    +-COORD_LIMIT.  The first bad line raises RleTextParseError.
    """
    runs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 3:
            raise RleTextParseError(f"expected 'y lx rx', got {line!r}", lineno)
        try:
            y, lx, rx = map(int, parts)
        except ValueError:
            raise RleTextParseError(f"non-integer token in {line!r}", lineno) from None
        if lx > rx:
            raise RleTextParseError(f"lx > rx in {line!r}", lineno)
        if lx < -COORD_LIMIT or rx > COORD_LIMIT or abs(y) > COORD_LIMIT:
            raise RleTextParseError(f"coordinate beyond +-2**61 in {line!r}", lineno)
        runs += lx, rx, y
    a = np.array(runs, dtype=np.int64).reshape(-1, 3)
    try:
        return RleImage(a)
    except ValueError:  # unsorted, overlapping or touching runs
        return normalize(a)


def read_image(data: bytes) -> tuple[RleImage, ImageFileMeta | None]:
    """Decode file bytes of either format: PBM by its P1/P4 magic, else
    UTF-8 RLE text, which has no canvas and so no meta."""
    if data[:2] in (b"P1", b"P4"):
        return read_pbm(data)
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        # Lines are numbered as read_rle_text numbers them, by str.splitlines
        # of the text before the bad byte; the "x" stands for that byte.
        line = len((data[:exc.start].decode() + "x").splitlines())
        raise RleTextParseError(f"input is not valid UTF-8 RLE text: {exc.reason}", line) from exc
    return read_rle_text(text), None


def write_rle_text(img: RleImage) -> str:
    return "%d %d %d\n" * len(img) % tuple(img.array[:, [2, 0, 1]].ravel().tolist())
