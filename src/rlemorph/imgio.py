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

from .rle import Rect, RleImage, _paint, from_raster, normalize


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
_COMMENT = re.compile(rb"#[^\n]*")
# Header fields: whitespace and comments between them, then ASCII digits.
_GAP = re.compile(b"(?:[%s]|%s)*" % (re.escape(_WS), _COMMENT.pattern))
_DIGITS = re.compile(rb"[0-9]*")
# Byte classes in a P1 payload: 0 invalid, 1 whitespace, 2 digit 0, 3 digit 1.
_P1_KIND = np.zeros(256, dtype=np.uint8)
_P1_KIND[list(_WS)] = 1
_P1_KIND[ord("0")] = 2
_P1_KIND[ord("1")] = 3


def _read_uint(data: bytes, pos: int, what: str) -> tuple[int, int]:
    start = _GAP.match(data, pos).end()
    end = _DIGITS.match(data, start).end()
    if end == start:
        raise PbmParseError(f"expected {what}", start)
    return int(data[start:end]), end


def _p1_bits(data: bytes, pos: int, width: int, height: int) -> np.ndarray:
    """The (height, width) bit grid of a P1 payload starting at pos.

    Comments become whitespace; the first width*height digits are the
    pixels, and any other byte is an error only before the last of them.
    """
    payload = _COMMENT.sub(lambda m: b" " * len(m[0]), data[pos:])
    kind = _P1_KIND[np.frombuffer(payload, dtype=np.uint8)]
    digits = np.flatnonzero(kind >= 2)
    need = width * height
    end = digits[need - 1] + 1 if len(digits) >= need else len(kind)
    bad = np.flatnonzero(kind[:end] == 0)
    if bad.size:
        at = pos + int(bad[0])
        raise PbmParseError(f"unexpected byte {data[at : at + 1]!r} in P1 payload", at)
    if len(digits) < need:
        raise PbmParseError("truncated P1 payload", len(data))
    return (kind[digits[:need]] == 3).reshape(height, width)


def read_pbm(data: bytes) -> tuple[RleImage, ImageFileMeta]:
    if data[:2] not in (b"P1", b"P4"):
        raise PbmParseError(f"bad magic {data[:2]!r}", 0)
    pos = 2
    width, pos = _read_uint(data, pos, "width")
    height, pos = _read_uint(data, pos, "height")
    if width < 1 or height < 1:
        raise PbmParseError(f"bad dimensions {width}x{height}", pos)
    if data[:2] == b"P1":
        bits = _p1_bits(data, pos, width, height)
    else:
        if pos >= len(data):
            raise PbmParseError("truncated P4 header", pos)
        pos += 1  # exactly one whitespace byte after the header
        row_bytes = (width + 7) // 8
        need = row_bytes * height
        if len(data) - pos < need:
            raise PbmParseError("truncated P4 payload", len(data))
        raw = np.frombuffer(data[pos : pos + need], dtype=np.uint8)
        bits = np.unpackbits(raw.reshape(height, row_bytes), axis=1)[:, :width]
    return from_raster(bits), ImageFileMeta(width, height)


def write_pbm(img: RleImage, meta: ImageFileMeta, variant: str = "P1") -> bytes:
    if variant not in ("P1", "P4"):
        raise ValueError(f"unknown PBM variant {variant!r}")
    lx, rx, y = img.array.T
    bad = np.flatnonzero((y < 0) | (y >= meta.height) | (lx < 0) | (rx >= meta.width))
    if bad.size:
        raise PbmWriteError(
            f"run {tuple(img.array[bad[0]].tolist())} outside the "
            f"{meta.width}x{meta.height} canvas at (0, 0)"
        )
    grid = _paint(img, Rect(0, meta.width - 1, 0, meta.height - 1))
    header = f"{variant}\n{meta.width} {meta.height}\n".encode()
    if variant == "P1":
        # Each pixel is a digit and a separator: a space, or a newline at
        # the end of the row.
        body = np.full((meta.height, 2 * meta.width), ord(" "), dtype=np.uint8)
        body[:, 0::2] = grid.view(np.uint8) + ord("0")
        body[:, -1] = ord("\n")
        return header + body.tobytes()
    packed = np.packbits(grid, axis=1)
    return header + packed.tobytes()


def read_rle_text(text: str) -> RleImage:
    runs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise RleTextParseError(f"expected 'y lx rx', got {line!r}", lineno)
        try:
            y, lx, rx = (int(p) for p in parts)
        except ValueError:
            raise RleTextParseError(f"non-integer token in {line!r}", lineno) from None
        if lx > rx:
            raise RleTextParseError(f"lx > rx in {line!r}", lineno)
        runs.append((lx, rx, y))
    return normalize(runs)


def read_image(data: bytes) -> tuple[RleImage, ImageFileMeta | None]:
    """Decode file bytes of either format: PBM by its P1/P4 magic, else
    UTF-8 RLE text, which has no canvas and so no meta."""
    if data[:2] in (b"P1", b"P4"):
        return read_pbm(data)
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise RleTextParseError(f"input is not valid UTF-8 RLE text: {exc.reason}",
                                data.count(b"\n", 0, exc.start) + 1) from exc
    return read_rle_text(text), None


def write_rle_text(img: RleImage) -> str:
    return "%d %d %d\n" * len(img) % tuple(img.array[:, [2, 0, 1]].ravel().tolist())
