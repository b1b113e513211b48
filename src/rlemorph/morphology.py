"""Fast erosion and dilation on compact RLE images.

Erosion anchors the structuring element at the rightmost pixel of its
longest run, reduces it to a skeleton (one entry per run: the rightmost
pixel plus the run length), and scans only the trimmed input ``x_cut``
using left/right distance tables.  The tables are indexed by run, not by
pixel: inside a run the distances to its two ends follow from the run's
``lx`` and ``rx``, so the tables store those ends, row by row, and cost
O(runs + rows) whatever the width of the image.  A failed probe with
deficit k lets the scan jump k candidates to the right (jump on miss); a
successful probe yields the full eroded run from the minimum right
distance over the skeleton (jump on hit).  Dilation is erosion of the
complement with the reflected element, restricted to two exact
rectangles.

One kernel, ``_scan_kernel``, does the scan for traced and untraced
erosion alike: it counts probes and jumps, returns the counts with the
number of eroded runs, and records as many jumps as it is given room for.
It takes 1-D columns only.  With numba it is compiled and every column is
an int64 array (``BACKEND == "numba"``); without it the same source runs
on Python ints (``BACKEND == "python"``): it reads the ``x_cut`` and
skeleton columns as lists and the distance tables as zero-copy memoryviews.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .rle import (
    EMPTY,
    Point,
    Rect,
    RleImage,
    bounding_rect,
    complement_within,
    reflect,
)

# The horizontal jump set.  The left distance table is the erosion
# transform w.r.t. JUMP_SET, the right table w.r.t. its reflection.
JUMP_SET = (Point(-1, 0), Point(0, 0))


try:
    from numba import njit as _njit
except ImportError:  # pragma: no cover - numba is an optional accelerator
    _njit = None

# Which backend runs the scan kernel: "numba" (compiled) or "python".
BACKEND = "python" if _njit is None else "numba"


class EmptyStructuringElementError(ValueError):
    """Erosion/dilation by the empty set is not representable as a finite
    image."""


@dataclass(frozen=True)
class SkeletonTable:
    """Skeleton of the structuring element translated so that the rightmost
    pixel of its longest run sits at the origin.

    entries: (point, depth) per run of the translated element, where the
    point is the run's rightmost pixel and depth its length.
    """

    entries: tuple[tuple[Point, int], ...]
    l_min: int
    l_max: int
    anchor_q: Point


@dataclass(frozen=True)
class ErosionTables:
    """Run-indexed left/right distance tables plus the trimmed image x_cut.

    left and right hold lx and rx of every input run at least l_min long,
    in (y, lx) order.  The kept runs of row y are left[i] and right[i] for
    row_ptr[y - top] <= i < row_ptr[y - top + 1]; row_ptr has one entry per
    row of the input's bounding box plus one.  For the kept run that covers
    pixel x, the left distance is x - lx + 1 and the right distance
    rx - x + 1; both are 0 where no kept run covers x.
    """

    left: np.ndarray
    right: np.ndarray
    row_ptr: np.ndarray
    top: int
    x_cut: RleImage

    def distances(self, x: int, y: int) -> tuple[int, int]:
        """(left, right) distance at pixel (x, y)."""
        r = y - self.top
        if 0 <= r < len(self.row_ptr) - 1:
            lo, hi = self.row_ptr[r], self.row_ptr[r + 1]
            k = lo + int(np.searchsorted(self.right[lo:hi], x))
            if k < hi and self.left[k] <= x:
                return x - int(self.left[k]) + 1, int(self.right[k]) - x + 1
        return 0, 0


@dataclass
class ErodeTrace:
    """Optional instrumentation collected by erode().

    Coordinates are in the anchored (pre-final-translation) frame:
    a candidate h means the element translated by -anchor_q was probed at h.
    Every candidate ends in exactly one jump or one hit.
    """

    probes: int = 0
    # (x, y, k): probe at (x, y) missed with deficit k; (x..x+k-1, y) skipped.
    jumps: list[tuple[int, int, int]] = field(default_factory=list)
    # (x, y, n): hit at (x, y) emitted a run of length n.
    hits: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def candidates(self) -> int:
        return len(self.jumps) + len(self.hits)

    @property
    def candidate_positions(self) -> list[tuple[int, int]]:
        """(x, y) of every jump and hit, in (y, x) order."""
        return sorted(((x, y) for x, y, _ in self.jumps + self.hits), key=lambda p: (p[1], p[0]))


def generate_skeleton(se: RleImage) -> SkeletonTable:
    """Anchor the element and list one (rightmost pixel, run length) entry
    per run.  Among equally longest runs the first in (y, lx) order wins."""
    if se.is_empty:
        raise EmptyStructuringElementError("empty structuring element")
    a = se.array
    lengths = a[:, 1] - a[:, 0] + 1
    best = int(np.argmax(lengths))
    q = Point(int(a[best, 1]), int(a[best, 2]))
    entries = tuple((Point(rx - q.x, y - q.y), n)
                    for (_, rx, y), n in zip(a.tolist(), lengths.tolist()))
    return SkeletonTable(entries, int(lengths.min()), int(lengths.max()), q)


def build_tables(x: RleImage, l_min: int, l_max: int) -> ErosionTables:
    """Index the input's runs by row and trim the input.

    Runs shorter than l_min cannot contain any part of a hit and are left
    out of the tables; runs shorter than l_max vanish from x_cut, the
    survivors lose their first l_max - 1 pixels.
    """
    if not (1 <= l_min <= l_max):
        raise ValueError(f"need 1 <= l_min <= l_max, got {l_min}, {l_max}")
    runs = x.array
    lengths = runs[:, 1] - runs[:, 0] + 1
    kept = runs[lengths >= l_min]
    top, bottom = (int(runs[0, 2]), int(runs[-1, 2])) if len(runs) else (0, -1)
    row_ptr = np.searchsorted(kept[:, 2], np.arange(top, bottom + 2))
    cut = runs[lengths >= l_max]
    cut[:, 0] += l_max - 1
    return ErosionTables(kept[:, 0].copy(), kept[:, 1].copy(), row_ptr, top, RleImage(cut))


def erode_check_at(tables: ErosionTables, skel: SkeletonTable, h: Point) -> bool:
    """True iff the anchored element fits at h: the scan kernel run on h
    alone hits.  Probes off every kept run read as 0."""
    return len(_scan(replace(tables, x_cut=RleImage([(h.x, h.x, h.y)])), skel, None)) == 1


def _scan_kernel(left, right, row_ptr, top, cut_lx, cut_rx, cut_y, sx, sy, depth,
                 cur, end, cur_y, out_lx, out_rx, out_y, jump_x, jump_y, jump_k):
    """Jump scan of x_cut; returns (runs written, probes, jumps).

    Every argument but top is a 1-D column of ints: an int64 array under
    numba, a list or memoryview when interpreted.  x_cut's runs come as
    cut_lx, cut_rx and cut_y, the skeleton's entries as sx, sy (the offset
    of the run's rightmost pixel from the anchor) and depth (the run's
    length).

    Each skeleton entry keeps a cursor into the kept runs of the row it
    probes: cur is the first run whose rx is at or right of the probe, end
    the end of that row's runs, cur_y the x_cut row the cursor was set for.
    Within an x_cut row the probes of one entry only move right, so its
    cursor only moves forward; it is reset the first time the entry probes
    for a new row.  cur_y must start at a value no x_cut row has.

    Each pass probes the entries at x in turn.  One that misses by k jumps
    x by k and probes again until it fits or x leaves the run; the pass
    ends there, and the next skips that entry, ver, which verified the new
    x.  A pass in which every entry fits is a hit: it writes the run from x
    to the nearest right end of the kept runs probed, in the anchored
    frame, to out_lx, out_rx and out_y, and x moves past it.  Every
    candidate x the scan examines ends in exactly one jump or one hit.
    The first len(jump_x) jumps on miss go to jump_x, jump_y and jump_k as
    (x, y, k).
    """
    n_out = 0
    n_probe = 0
    n_jump = 0
    n_rec = len(jump_x)
    n_rows = len(row_ptr) - 1
    n_entries = len(sx)
    for ri in range(len(cut_lx)):
        lx0 = cut_lx[ri]
        rx0 = cut_rx[ri]
        y0 = cut_y[ri]
        x = lx0
        ver = -1  # no entry has verified x yet
        while x <= rx0:
            miss = False
            for idx in range(n_entries):
                if idx == ver:
                    continue
                if cur_y[idx] != y0:
                    cur_y[idx] = y0
                    r = y0 + sy[idx] - top
                    if 0 <= r < n_rows:
                        cur[idx] = row_ptr[r]
                        end[idx] = row_ptr[r + 1]
                    else:
                        cur[idx] = 0
                        end[idx] = 0
                c = cur[idx]
                e = end[idx]
                dx = sx[idx]
                d = depth[idx]
                while True:
                    px = x + dx
                    while c < e and right[c] < px:
                        c += 1
                    v = px - left[c] + 1 if c < e and left[c] <= px else 0
                    n_probe += 1
                    diff = d - v
                    if diff <= 0:
                        break
                    miss = True
                    if n_jump < n_rec:
                        jump_x[n_jump] = x
                        jump_y[n_jump] = y0
                        jump_k[n_jump] = diff
                    n_jump += 1
                    x += diff
                    if x > rx0:
                        break
                cur[idx] = c
                if miss:
                    ver = idx
                    break
            if not miss:
                # Every entry's cursor now sits on the run that covers its probe.
                min_dist = right[cur[0]] - x - sx[0] + 1
                for j in range(1, n_entries):
                    v = right[cur[j]] - x - sx[j] + 1
                    if v < min_dist:
                        min_dist = v
                out_lx[n_out] = x
                out_rx[n_out] = x + min_dist - 1
                out_y[n_out] = y0
                n_out += 1
                x += min_dist + 1
                ver = -1
    return n_out, n_probe, n_jump


if _njit is not None:
    _scan_kernel = _njit(cache=True)(_scan_kernel)
    _walked = _viewed = np.asarray
else:
    # The interpreted kernel reads Python ints, far cheaper to work with
    # than numpy scalars.  Columns it walks in full (x_cut, the skeleton,
    # the cursors) go in as lists, the cheapest to index; the tables, of
    # which it may read only a few runs, and the outputs, written once per
    # run or jump, go in as zero-copy memoryviews.
    _walked = np.ndarray.tolist
    _viewed = memoryview


def _scan(tables: ErosionTables, skel: SkeletonTable, trace: ErodeTrace | None) -> np.ndarray:
    """Jump scan of x_cut.  Returns the eroded runs in the anchored frame as
    (lx, rx, y) rows and adds the scan's counts and events to trace.  A
    traced scan runs twice: once to count the jumps, once to record them."""
    cut = tables.x_cut.array
    entries = np.array([(s.x, s.y, depth) for s, depth in skel.entries], dtype=np.int64).T
    # Each output run ends where some entry's probed run ends, and one
    # (entry, kept run) pair ends at most one output run.  Clipping each
    # x_cut run's pixel count to that bound keeps the sum from wrapping.
    cap = entries.shape[1] * len(tables.left)
    n_px = int(np.minimum(cut[:, 1] - cut[:, 0] + 1, cap).sum())
    out = np.empty((3, min(n_px, cap)), dtype=np.int64)
    w, v = _walked, _viewed

    def run(jump: np.ndarray) -> tuple[int, int, int]:
        cursors = np.zeros(entries.shape, dtype=np.int64)
        cursors[2] = cut[0, 2] - 1 if len(cut) else 0
        return _scan_kernel(
            v(tables.left), v(tables.right), v(tables.row_ptr), tables.top,
            *map(w, cut.T), *map(w, entries), *map(w, cursors), *map(v, out), *map(v, jump))

    n, n_probe, n_jump = run(np.empty((3, 0), dtype=np.int64))
    runs = out[:, :n].T
    if trace is not None:
        jump = np.empty((3, n_jump), dtype=np.int64)
        run(jump)
        trace.probes += n_probe
        trace.jumps.extend(zip(*jump.tolist()))
        trace.hits.extend((lx, y, rx - lx + 1) for lx, rx, y in runs.tolist())
    return runs


def erode(x: RleImage, se: RleImage, trace: ErodeTrace | None = None) -> RleImage:
    """Exact erosion of x by an arbitrary non-empty structuring element."""
    skel = generate_skeleton(se)
    tables = build_tables(x, skel.l_min, skel.l_max)
    q = skel.anchor_q
    return RleImage(_scan(tables, skel, trace) - (q.x, q.x, q.y))


def dilate(x: RleImage, se: RleImage) -> RleImage:
    """Exact dilation via duality: complement, erode by the reflected
    element, complement back.  The dilation lies in the box rb + sb; for h
    in it and b in se, h - b lies in rb grown by sb's size less one, so
    complementing x within that rectangle is exact."""
    if se.is_empty:
        raise EmptyStructuringElementError("empty structuring element")
    if x.is_empty:
        return EMPTY
    rb, sb = bounding_rect(x), bounding_rect(se)
    x_comp = complement_within(x, rb.grown(sb.width - 1, sb.height - 1))
    eroded = erode(x_comp, reflect(se))
    return complement_within(eroded, Rect(rb.l + sb.l, rb.r + sb.r, rb.t + sb.t, rb.b + sb.b))
