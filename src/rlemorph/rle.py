"""Run-length encoded binary images.

A binary image is a finite set of integer-coordinate foreground pixels.
We store it as one read-only ``(n, 3)`` int64 array of horizontal runs
``(lx, rx, y)`` in compact form: sorted by ``(y, lx)``, and within a row
consecutive runs neither overlap nor touch, so the representation of a
pixel set is unique and images compare with ``==``.  The constructor
checks its input.

x grows rightward, y grows downward.  Negative coordinates are legal
(structuring elements usually straddle the origin).  All operations are
pure; images are immutable and safe to share.
"""
from __future__ import annotations

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


def _as_runs(runs) -> np.ndarray:
    """The runs as a new (n, 3) int64 array; raises ValueError unless each
    is a row (lx, rx, y) with lx <= rx."""
    a = np.array(runs if isinstance(runs, np.ndarray) else list(runs),
                 dtype=np.int64, order="C")
    if a.shape == (0,):
        a = a.reshape(0, 3)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"runs must be n rows of (lx, rx, y), got shape {a.shape}")
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


def _cover(runs: np.ndarray, weights: np.ndarray, k: int) -> RleImage:
    """The pixels where the weighted runs cover at least k >= 1 times.

    Each run adds its weight at lx and takes it back at rx + 1; the events,
    sorted by (y, x), are summed.  The last event at a (y, x) sets the level
    there, so touching runs do not split.  Every row ends at level 0.
    """
    xs = np.concatenate((runs[:, 0], runs[:, 1] + 1))
    ys = np.concatenate((runs[:, 2], runs[:, 2]))
    order = np.lexsort((xs, ys))
    xs, ys = xs[order], ys[order]
    level = np.cumsum(np.concatenate((weights, -weights))[order])
    last = np.ones(len(xs), dtype=bool)
    last[:-1] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    edge = np.flatnonzero(np.diff(level[last] >= k, prepend=False))
    xs, ys = xs[last], ys[last]
    return RleImage(np.column_stack((xs[edge[0::2]], xs[edge[1::2]] - 1, ys[edge[0::2]])))


def normalize(runs: Iterable[tuple[int, int, int]] | np.ndarray) -> RleImage:
    """Build the unique compact image covering the union of the given runs.

    Accepts unsorted, overlapping and adjacent runs; rejects lx > rx.
    """
    a = _as_runs(runs)
    return _cover(a, np.ones(len(a), dtype=np.int64), 1)


def from_raster(grid, origin: Point = Point(0, 0)) -> RleImage:
    """Convert a 2D boolean array (indexed [row][col]) to a compact image.

    grid[j][i] is foreground iff point (origin.x + i, origin.y + j) is in
    the image.
    """
    g = np.asarray(grid, dtype=bool)
    if g.size == 0:
        return EMPTY
    # Run starts are +1 and run ends -1 in the padded rows' differences;
    # row-major order pairs each start with its end.
    zero = np.int8(0)
    ys, xs = np.nonzero(np.diff(g.view(np.int8), axis=1, prepend=zero, append=zero))
    return RleImage(np.column_stack((xs[0::2] + origin.x, xs[1::2] - 1 + origin.x,
                                     ys[0::2] + origin.y)))


def _paint(img: RleImage, rect: Rect) -> np.ndarray:
    """The (rect.height, rect.width) boolean grid of img, whose runs must
    lie inside rect."""
    lx, rx, y = img.array.T
    n = rx - lx + 1
    # The k-th pixel in run order lies k - (pixels of earlier runs) cells
    # after the first cell of its run.
    first = (y - rect.t) * rect.width + lx - rect.l
    grid = np.zeros((rect.height, rect.width), dtype=bool)
    grid.reshape(-1)[np.repeat(first - np.cumsum(n) + n, n) + np.arange(n.sum())] = True
    return grid


def to_raster(img: RleImage) -> tuple[np.ndarray, Point]:
    """Rasterize over the bounding box.  Round-trips exactly through
    from_raster.  The empty image yields a 0x0 grid at (0, 0)."""
    rect = bounding_rect(img)
    if rect is None:
        return np.zeros((0, 0), dtype=bool), Point(0, 0)
    return _paint(img, rect), Point(rect.l, rect.t)


def translate(img: RleImage, v: Point) -> RleImage:
    vx, vy = v
    return RleImage(img.array + (vx, vx, vy))


def reflect(img: RleImage) -> RleImage:
    """Point reflection about the origin: {-p : p in img}."""
    # Reversed run order is already sorted for the negated coordinates.
    return RleImage(-img.array[::-1, [1, 0, 2]])


def union(a: RleImage, b: RleImage) -> RleImage:
    return normalize(np.concatenate((a.array, b.array)))


def intersect(a: RleImage, b: RleImage) -> RleImage:
    both = np.concatenate((a.array, b.array))
    return _cover(both, np.ones(len(both), dtype=np.int64), 2)


def complement_within(img: RleImage, rect: Rect) -> RleImage:
    """Pixel set rect \\ img, compact.  Pixels of img outside rect are
    ignored; rows of rect without runs become single full-width runs."""
    ys = np.arange(rect.t, rect.b + 1)
    full = np.column_stack((np.full_like(ys, rect.l), np.full_like(ys, rect.r), ys))
    weights = np.concatenate((np.ones(len(ys), dtype=np.int64),
                              np.full(len(img), -1, dtype=np.int64)))
    return _cover(np.concatenate((full, img.array)), weights, 1)


def bounding_rect(img: RleImage) -> Optional[Rect]:
    """Smallest rectangle containing every pixel; None for the empty image."""
    if img.is_empty:
        return None
    a = img.array
    return Rect(l=int(a[:, 0].min()), r=int(a[:, 1].max()), t=int(a[0, 2]), b=int(a[-1, 2]))


def drop_short_runs(img: RleImage, min_length: int) -> RleImage:
    a = img.array
    return RleImage(a[a[:, 1] - a[:, 0] + 1 >= min_length])
