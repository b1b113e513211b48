"""Run-length encoded binary images.

A binary image is a finite set of integer-coordinate foreground pixels.
We store it as a sorted tuple of horizontal runs ``<lx, rx, y>`` in compact
form: within a row, consecutive runs neither overlap nor touch, so the
representation of a pixel set is unique and images compare with ``==``.

x grows rightward, y grows downward.  Negative coordinates are legal
(structuring elements usually straddle the origin).  All operations are
pure; images are immutable and safe to share.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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

    def contains(self, p: Point) -> bool:
        return self.l <= p.x <= self.r and self.t <= p.y <= self.b


@dataclass(frozen=True)
class RleImage:
    """Compact, sorted run-length image.  The empty tuple is the empty image.

    Construct arbitrary pixel sets through :func:`normalize` or
    :func:`from_raster`; the constructor trusts its input.
    """

    runs: tuple[Run, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.runs

    def pixel_count(self) -> int:
        return sum(r.length for r in self.runs)

    def pixels(self) -> Iterator[Point]:
        for r in self.runs:
            for x in range(r.lx, r.rx + 1):
                yield Point(x, r.y)

    def pixel_set(self) -> set[Point]:
        return set(self.pixels())

    def __iter__(self) -> Iterator[Run]:
        return iter(self.runs)


EMPTY = RleImage()


def normalize(runs: Iterable[tuple[int, int, int]]) -> RleImage:
    """Build the unique compact image covering the union of the given runs.

    Accepts unsorted, overlapping and adjacent runs; rejects lx > rx.
    """
    rs = []
    for raw in runs:
        run = Run(*raw)
        if run.lx > run.rx:
            raise ValueError(f"malformed run {run}: lx > rx")
        rs.append(run)
    rs.sort(key=lambda r: (r.y, r.lx))
    out: list[Run] = []
    for run in rs:
        if out and out[-1].y == run.y and run.lx <= out[-1].rx + 1:
            if run.rx > out[-1].rx:
                out[-1] = Run(out[-1].lx, run.rx, run.y)
        else:
            out.append(run)
    return RleImage(tuple(out))


def validate(img: RleImage) -> None:
    """Raise ValueError if the image violates the compact-form invariants."""
    for run in img.runs:
        if not isinstance(run, Run):
            raise ValueError(f"not a Run: {run!r}")
    to_array(img)


def to_array(img: RleImage) -> np.ndarray:
    """The runs as an (n, 3) int64 array of (lx, rx, y) rows.

    Raises ValueError unless the runs are in compact form: lx <= rx, sorted
    by (y, lx), and neither overlapping nor touching within a row.
    """
    n = len(img.runs)
    a = np.fromiter(chain.from_iterable(img.runs), dtype=np.int64, count=3 * n).reshape(n, 3)
    lx, rx, y = a.T
    bad = np.flatnonzero(lx > rx)
    if bad.size:
        raise ValueError(f"malformed run {img.runs[bad[0]]}: lx > rx")
    same_row = y[1:] == y[:-1]
    unsorted = (y[1:] < y[:-1]) | (same_row & (lx[1:] <= lx[:-1]))
    touching = same_row & (lx[1:] <= rx[:-1] + 1)
    bad = np.flatnonzero(unsorted | touching)
    if bad.size:
        i = bad[0]
        prev, run = img.runs[i], img.runs[i + 1]
        if unsorted[i]:
            raise ValueError(f"runs out of order: {prev} then {run}")
        raise ValueError(f"runs overlap or touch: {prev} and {run}")
    return a


def from_raster(grid, origin: Point = Point(0, 0)) -> RleImage:
    """Convert a 2D boolean array (indexed [row][col]) to a compact image.

    grid[j][i] is foreground iff point (origin.x + i, origin.y + j) is in
    the image.
    """
    g = np.asarray(grid, dtype=bool)
    if g.size == 0:
        return EMPTY
    runs: list[Run] = []
    for j in range(g.shape[0]):
        row = g[j].astype(np.int8)
        d = np.diff(np.concatenate(([0], row, [0])))
        starts = np.flatnonzero(d == 1)
        ends = np.flatnonzero(d == -1) - 1
        for s, e in zip(starts, ends):
            runs.append(Run(origin.x + int(s), origin.x + int(e), origin.y + j))
    return RleImage(tuple(runs))


def to_raster(img: RleImage) -> tuple[np.ndarray, Point]:
    """Rasterize over the bounding box.  Round-trips exactly through
    from_raster.  The empty image yields a 0x0 grid at (0, 0)."""
    rect = bounding_rect(img)
    if rect is None:
        return np.zeros((0, 0), dtype=bool), Point(0, 0)
    grid = np.zeros((rect.height, rect.width), dtype=bool)
    for run in img.runs:
        grid[run.y - rect.t, run.lx - rect.l : run.rx - rect.l + 1] = True
    return grid, Point(rect.l, rect.t)


def translate(img: RleImage, v: Point) -> RleImage:
    vx, vy = v
    return RleImage(tuple(Run(r.lx + vx, r.rx + vx, r.y + vy) for r in img.runs))


def reflect(img: RleImage) -> RleImage:
    """Point reflection about the origin: {-p : p in img}."""
    # Reversed run order is already sorted for the negated coordinates.
    return RleImage(tuple(Run(-r.rx, -r.lx, -r.y) for r in reversed(img.runs)))


def union(a: RleImage, b: RleImage) -> RleImage:
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    return normalize(list(a.runs) + list(b.runs))


def _rows(img: RleImage) -> dict[int, list[Run]]:
    rows: dict[int, list[Run]] = {}
    for run in img.runs:
        rows.setdefault(run.y, []).append(run)
    return rows


def intersect(a: RleImage, b: RleImage) -> RleImage:
    if a.is_empty or b.is_empty:
        return EMPTY
    brows = _rows(b)
    arows = _rows(a)
    out: list[Run] = []
    for y in sorted(set(arows) & set(brows)):
        ar, br = arows[y], brows[y]
        i = j = 0
        while i < len(ar) and j < len(br):
            lo = max(ar[i].lx, br[j].lx)
            hi = min(ar[i].rx, br[j].rx)
            if lo <= hi:
                out.append(Run(lo, hi, y))
            if ar[i].rx < br[j].rx:
                i += 1
            else:
                j += 1
    return RleImage(tuple(out))


def complement_within(img: RleImage, rect: Rect) -> RleImage:
    """Pixel set rect \\ img, compact.  Pixels of img outside rect are
    ignored; rows of rect without runs become single full-width runs."""
    rows = _rows(img)
    out: list[Run] = []
    for y in range(rect.t, rect.b + 1):
        cursor = rect.l
        for run in rows.get(y, ()):
            if run.rx < rect.l or run.lx > rect.r:
                continue
            lo = max(run.lx, rect.l)
            hi = min(run.rx, rect.r)
            if lo > cursor:
                out.append(Run(cursor, lo - 1, y))
            cursor = hi + 1
        if cursor <= rect.r:
            out.append(Run(cursor, rect.r, y))
    return RleImage(tuple(out))


def bounding_rect(img: RleImage) -> Optional[Rect]:
    """Smallest rectangle containing every pixel; None for the empty image."""
    if img.is_empty:
        return None
    return Rect(
        l=min(r.lx for r in img.runs),
        r=max(r.rx for r in img.runs),
        t=img.runs[0].y,
        b=img.runs[-1].y,
    )


def drop_short_runs(img: RleImage, min_length: int) -> RleImage:
    return RleImage(tuple(r for r in img.runs if r.length >= min_length))
