"""Run-length encoded binary images.

A binary image is a finite set of integer-coordinate foreground pixels.
We store it as one read-only ``(n, 3)`` int64 array of horizontal runs
``(lx, rx, y)`` in compact form: sorted by ``(y, lx)``, and within a row
consecutive runs neither overlap nor touch, so the representation of a
pixel set is unique and images compare with ``==``.  The constructor
checks runs a caller supplies in full; arrays the library builds in this
order itself are wrapped with only the coordinate bound check.

x grows rightward, y grows downward.  Negative coordinates are legal
(structuring elements usually straddle the origin).  All operations are
pure; images are immutable and safe to share.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np


class Point(NamedTuple):
    x: int
    y: int


class Run(NamedTuple):
    lx: int
    rx: int
    y: int

    @property
    def length(self) -> int:
        return self.rx - self.lx + 1


@dataclass(frozen=True)
class Rect:
    """Axis-aligned integer rectangle with inclusive bounds.

    The empty rectangle has no Rect value; functions that may produce one
    return None instead.
    """

    l: int
    r: int
    t: int
    b: int

    def __post_init__(self) -> None:
        if not all(_integer_type(type(c)) for c in (self.l, self.r, self.t, self.b)):
            raise ValueError(f"rectangle {self} has a non-integer bound")
        if self.l > self.r or self.t > self.b:
            raise ValueError(f"degenerate rectangle {self}")

    @property
    def width(self) -> int:
        return self.r - self.l + 1

    @property
    def height(self) -> int:
        return self.b - self.t + 1

    @property
    def area(self) -> int:
        return self.width * self.height

    def grown(self, dx: int, dy: int) -> "Rect":
        return Rect(self.l - dx, self.r + dx, self.t - dy, self.b + dy)


# Coordinates lie within +-COORD_LIMIT: every sum the library forms then fits
# int64, as does a coordinate plus an offset within +-2**62 (_offset).
COORD_LIMIT = 2**61


def _integer_type(t: type) -> bool:
    return issubclass(t, numbers.Integral) and t is not bool


def _offset(v: Point, has_runs: bool) -> tuple[int, int]:
    """v as two ints; ValueError unless they are integers and, if the image
    moved has runs, within +-2**62: beyond it every pixel would leave
    +-COORD_LIMIT, and within it no int64 sum wraps."""
    vx, vy = v
    if not (_integer_type(type(vx)) and _integer_type(type(vy))):
        raise ValueError(f"offset {v!r} is not a pair of integers")
    vx, vy = int(vx), int(vy)
    if has_runs and max(abs(vx), abs(vy)) > 2 * COORD_LIMIT:
        raise ValueError(f"offset {v!r} is beyond +-2**62")
    return vx, vy


def _as_runs(runs) -> np.ndarray:
    """The runs as a new (n, 3) int64 array; raises ValueError unless each
    is a row (lx, rx, y) of integers with lx <= rx and coordinates within
    COORD_LIMIT."""
    if isinstance(runs, np.ndarray) and runs.dtype.kind == "i":
        a = np.array(runs, dtype=np.int64, order="C")
    else:  # as Python objects, so that a float, string or bool is refused, not cast
        a = np.array(runs.tolist() if isinstance(runs, np.ndarray) else list(runs), dtype=object)
    if a.shape == (0,):
        a = a.reshape(0, 3)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"runs must be n rows of (lx, rx, y), got shape {a.shape}")
    if a.dtype == object and not all(map(_integer_type, set(map(type, a.flat)))):
        i = next(i for i, run in enumerate(a.tolist())
                 if not all(_integer_type(type(v)) for v in run))
        raise ValueError(f"run {Run(*a[i].tolist())} has a non-integer coordinate")
    if a.size and (a.min() < -COORD_LIMIT or a.max() > COORD_LIMIT):
        i = np.flatnonzero(((a < -COORD_LIMIT) | (a > COORD_LIMIT)).any(axis=1))[0]
        raise ValueError(f"run {Run(*a[i].tolist())} has a coordinate beyond +-2**61")
    a = a.astype(np.int64, copy=False)
    bad = np.flatnonzero(a[:, 0] > a[:, 1])
    if bad.size:
        raise ValueError(f"malformed run {Run(*a[bad[0]].tolist())}: lx > rx")
    return a


class RleImage:
    """Compact, sorted run-length image.  No runs is the empty image.

    ``array`` is the one stored thing: a read-only (n, 3) int64 array of
    (lx, rx, y) rows.  The constructor takes Runs, (lx, rx, y) tuples or
    such an array and checks its input: lx <= rx, sorted by (y, lx), no
    overlapping or touching runs in a row; otherwise ValueError.  Build
    arbitrary pixel sets through :func:`normalize` or :func:`from_raster`.
    ``runs`` and iteration give Run tuples for callers; the library itself
    reads ``array``.
    """

    __slots__ = ("array",)
    array: np.ndarray

    def __init__(self, runs: Iterable[tuple[int, int, int]] | np.ndarray = ()) -> None:
        a = _as_runs(runs)
        lx, rx, y = a.T
        same_row = y[1:] == y[:-1]
        unsorted = (y[1:] < y[:-1]) | (same_row & (lx[1:] <= lx[:-1]))
        bad = np.flatnonzero(unsorted | (same_row & (lx[1:] <= rx[:-1] + 1)))
        if bad.size:
            i = bad[0]
            prev, run = Run(*a[i].tolist()), Run(*a[i + 1].tolist())
            if unsorted[i]:
                raise ValueError(f"runs out of order: {prev} then {run}")
            raise ValueError(f"runs overlap or touch: {prev} and {run}")
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    @classmethod
    def _built(cls, a: np.ndarray) -> "RleImage":
        """Wrap an (n, 3) int64 array the library built in compact order,
        taking it over without a copy.  Only the coordinate bound is
        checked; beyond it the constructor names the run."""
        if a.size and (a.min() < -COORD_LIMIT or a.max() > COORD_LIMIT):
            return cls(a)
        a = np.ascontiguousarray(a, dtype=np.int64)
        a.flags.writeable = False
        img = object.__new__(cls)
        object.__setattr__(img, "array", a)
        return img

    def __setattr__(self, name, value) -> None:
        raise AttributeError("RleImage is immutable")

    def __reduce__(self):
        return RleImage, (self.array,)

    @property
    def runs(self) -> tuple[Run, ...]:
        return tuple(self)

    def __iter__(self) -> Iterator[Run]:
        return map(Run._make, self.array.tolist())

    def __len__(self) -> int:
        return len(self.array)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RleImage):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash(self.array.tobytes())

    def __repr__(self) -> str:
        return f"RleImage({self.runs!r})"

    @property
    def is_empty(self) -> bool:
        return not len(self.array)

    def pixel_count(self) -> int:
        return int((self.array[:, 1] - self.array[:, 0] + 1).sum())

    def pixels(self) -> Iterator[Point]:
        for lx, rx, y in self.array.tolist():
            for x in range(lx, rx + 1):
                yield Point(x, y)

    def pixel_set(self) -> set[Point]:
        return set(self.pixels())


EMPTY = RleImage()


def _cover(runs: np.ndarray, k: int) -> RleImage:
    """The pixels that the runs cover at least k >= 1 times.

    Each run adds 1 at lx and takes it back at rx + 1; the events, sorted
    by (y, x), are summed.  The last event at a (y, x) sets the level
    there, so touching runs do not split.  Every row ends at level 0.
    """
    xs = np.concatenate((runs[:, 0], runs[:, 1] + 1))
    ys = np.concatenate((runs[:, 2], runs[:, 2]))
    order = np.lexsort((xs, ys))
    xs, ys = xs[order], ys[order]
    level = np.cumsum(np.where(order < len(runs), 1, -1))
    last = np.ones(len(xs), dtype=bool)
    last[:-1] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    edge = np.flatnonzero(np.diff(level[last] >= k, prepend=False))
    xs, ys = xs[last], ys[last]
    return RleImage._built(np.column_stack((xs[edge[0::2]], xs[edge[1::2]] - 1, ys[edge[0::2]])))


def normalize(runs: Iterable[tuple[int, int, int]] | np.ndarray) -> RleImage:
    """Build the unique compact image covering the union of the given runs.

    Accepts unsorted, overlapping and adjacent runs; rejects lx > rx.
    """
    return _cover(_as_runs(runs), 1)


# The one temporary budget, in bytes: the codec's blocks of rows and the
# erosion scan's live x_cut runs, at least one each, are sized so that their
# largest temporary (bool per pixel, word per 64 pixels, int64 per cell) fits.
_BLOCK_BYTES = 1 << 18


def _bit_runs(packed: np.ndarray, width: int, top: int = 0) -> np.ndarray:
    """The runs (lx, rx, y), in compact order, of the pixels x < width of
    the bit rows packed[j], the ceil(width / 8) MSB-first bytes of row
    y = top + j.  Bits at x >= width are ignored.

    Each row is copied into big-endian 64-bit words followed by at least
    one zero byte, so that its last run ends inside them.  Bit x of a row
    differs from bit x - 1 (0 before the row) where the word w holding it
    has a 1 in w ^ (w >> 1) ^ (previous word << 63).  Only the bytes of the
    words that hold such an edge are looked at, and only their nonzero
    bytes are unpacked; the edges, in row order, pair up as (run start,
    end + 1).  Each edge's row and x come from one int64 per edge, so a
    block holds about 32 B per run besides its output.  Cost: O(payload
    words + runs).
    """
    h, row_bytes = packed.shape
    words = (width + 7) // 64 + 1
    rows = max(1, _BLOCK_BYTES // (8 * words))
    buf = np.zeros((min(rows, h), 8 * words), dtype=np.uint8)
    pad = 8 * row_bytes - width
    runs = [np.empty((0, 3), dtype=np.int64)]
    shift = (64 * words - 1).bit_length()
    mask = (1 << shift) - 1
    for t in range(0, h, rows):
        block = buf[: min(rows, h - t)]
        block[:, :row_bytes] = packed[t : t + rows]
        if pad:
            block[:, row_bytes - 1] &= 0xFF << pad & 0xFF
        w = block.view(">u8").astype(np.uint64)
        e = w >> 1
        e ^= w
        w <<= 63
        e[:, 1:] ^= w[:, :-1]
        e = e.reshape(-1)
        nz = np.flatnonzero(e != 0)
        eb = e[nz].astype(">u8").view(np.uint8)
        nb = np.flatnonzero(eb != 0)
        bit = np.flatnonzero(np.unpackbits(eb[nb]).view(bool))
        # The rows laid end to end, 2**shift bits apart: word nz[k] starts
        # at bit d[k] of them.  Byte nb[k] is byte nb[k] & 7 of word
        # nz[nb[k] >> 3], and bit i of the unpacked bytes lies in byte
        # i >> 3, at i + d[i >> 3] once d is taken per byte.
        d, col = np.divmod(nz, words)
        d <<= shift
        d |= col << 6
        d = d.take(nb >> 3)
        nb &= 7
        nb <<= 3
        d += nb
        d -= np.arange(0, 8 * len(nb), 8)
        del e, w, eb, nb  # the per-run arrays below are the largest
        start, end = bit[0::2], bit[1::2]
        out = np.empty((len(start), 3), dtype=np.int64)
        i = start >> 3
        at = d.take(i)
        at += start
        np.right_shift(at, shift, out=out[:, 2])
        np.bitwise_and(at, mask, out=out[:, 0])
        np.right_shift(end, 3, out=i)
        np.take(d, i, out=at, mode="clip")  # "raise" would buffer out
        at += end
        at -= 1
        np.bitwise_and(at, mask, out=out[:, 1])
        out[:, 2] += top + t
        runs.append(out)
    return runs[1] if len(runs) == 2 else np.concatenate(runs)


def from_raster(grid, origin: Point = Point(0, 0)) -> RleImage:
    """Convert a 2D boolean array (indexed [row][col]) to a compact image.

    grid[j][i] is foreground iff point (origin.x + i, origin.y + j) is in
    the image.  Any nonzero value counts as foreground.  origin must be a
    pair of integers, within +-2**62 unless the grid is all background.
    """
    g = np.asarray(grid)
    if g.ndim != 2:
        raise ValueError(f"grid must be 2-D, got shape {g.shape}")
    # Blocks of rows are packed to bits and decoded as a bitmap's rows are.
    h, w = g.shape
    rows = max(1, _BLOCK_BYTES // max(w, 1))
    runs = [np.empty((0, 3), dtype=np.int64)]
    for top in range(0, h, rows):
        block = g[top : top + rows]
        runs.append(_bit_runs(np.packbits(block if block.dtype == bool else block != 0, axis=1),
                              w, top))
    return translate(RleImage._built(runs[1] if len(runs) == 2 else np.concatenate(runs)), origin)


def _packed(img: RleImage, rect: Rect) -> np.ndarray:
    """The (rect.height, ceil(rect.width / 8)) bytes of img's pixels as
    MSB-first bit rows, padded with zero bits; the runs must lie inside
    rect.  Cost: O(runs + foreground bytes) plus the zeroed output.

    A run from x0 to x1 sets 0xFF >> (x0 & 7) in its first byte and every
    bit of the bytes after it up to its last byte, less 0xFF >> ((x1 & 7)
    + 1) there.  Runs are disjoint, so the parts that fall into one byte
    are too, and XOR adds them up.
    """
    row_bytes = (rect.width + 7) // 8
    out = np.zeros((rect.height, row_bytes), dtype=np.uint8)
    lx, rx, y = img.array.T
    base = (y - rect.t) * row_bytes
    x0, x1 = lx - rect.l, rx - rect.l
    first, last = base + (x0 >> 3), base + (x1 >> 3)
    # The k-th filled byte in run order lies k - (filled bytes of earlier
    # runs) bytes after its run's first byte.
    n = last - first
    flat = out.reshape(-1)
    flat[np.repeat(first + 1 - np.cumsum(n) + n, n) + np.arange(n.sum())] = 0xFF
    np.bitwise_xor.at(flat, first, (0xFF >> (x0 & 7)).astype(np.uint8))
    np.bitwise_xor.at(flat, last, (0xFF >> (x1 & 7) + 1).astype(np.uint8))
    return out


def _paint(img: RleImage, rect: Rect) -> np.ndarray:
    """The (rect.height, rect.width) boolean grid of img, whose runs must
    lie inside rect."""
    return np.unpackbits(_packed(img, rect), axis=1, count=rect.width).view(bool)


def to_raster(img: RleImage) -> tuple[np.ndarray, Point]:
    """Rasterize over the bounding box.  Round-trips exactly through
    from_raster.  The empty image yields a 0x0 grid at (0, 0)."""
    rect = bounding_rect(img)
    if rect is None:
        return np.zeros((0, 0), dtype=bool), Point(0, 0)
    return _paint(img, rect), Point(rect.l, rect.t)


def translate(img: RleImage, v: Point) -> RleImage:
    """{p + v : p in img}; v must be a pair of integers, within +-2**62
    unless img is empty."""
    vx, vy = _offset(v, not img.is_empty)
    if img.is_empty or vx == vy == 0:
        return img
    return RleImage._built(img.array + np.array((vx, vx, vy), dtype=np.int64))


def reflect(img: RleImage) -> RleImage:
    """Point reflection about the origin: {-p : p in img}."""
    # Reversed run order is already sorted for the negated coordinates.
    return RleImage._built(-img.array[::-1, [1, 0, 2]])


def union(a: RleImage, b: RleImage) -> RleImage:
    return _cover(np.concatenate((a.array, b.array)), 1)


def intersect(a: RleImage, b: RleImage) -> RleImage:
    return _cover(np.concatenate((a.array, b.array)), 2)


def complement_within(img: RleImage, rect: Rect) -> RleImage:
    """Pixel set rect \\ img, compact.  Pixels of img outside rect are
    ignored; rows of rect without runs become single full-width runs.

    The gaps of each row lie between its runs, so no sort is needed: the
    runs meeting rect take one slot each in (y, lx) order, and each row of
    rect gets one more slot after its runs.  A slot's gap runs from the
    previous run's rx + 1 (rect.l in a row's first slot) to its own run's
    lx - 1 (rect.r in a row's last slot).  A run that crosses rect's left
    or right edge is its row's first or last run there, so the gap beside
    it, beyond rect.l or rect.r, comes out empty without clipping.
    """
    a = img.array
    a = a[a[:, 2].searchsorted(rect.t):a[:, 2].searchsorted(rect.b, side="right")]
    a = a.compress((a[:, 1] >= rect.l) & (a[:, 0] <= rect.r), axis=0)
    y = a[:, 2] - rect.t
    slot = np.arange(len(a)) + y
    slots = len(a) + rect.height
    start, end = np.full(slots, rect.l, dtype=np.int64), np.full(slots, rect.r, dtype=np.int64)
    end[slot] = a[:, 0] - 1
    start[slot + 1] = a[:, 1] + 1
    ys = np.repeat(np.arange(rect.t, rect.b + 1), np.bincount(y, minlength=rect.height) + 1)
    keep = start <= end
    return RleImage._built(np.column_stack((start[keep], end[keep], ys[keep])))


def bounding_rect(img: RleImage) -> Optional[Rect]:
    """Smallest rectangle containing every pixel; None for the empty image."""
    if img.is_empty:
        return None
    a = img.array
    return Rect(l=int(a[:, 0].min()), r=int(a[:, 1].max()), t=int(a[0, 2]), b=int(a[-1, 2]))


def drop_short_runs(img: RleImage, min_length: int) -> RleImage:
    a = img.array
    return RleImage._built(a[a[:, 1] - a[:, 0] + 1 >= min_length])
