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
complement with the reflected element, restricted to finite rectangles.

One kernel, ``_scan_kernel``, does the scan for traced and untraced
erosion alike: it always counts candidates, probes, jumps and hits, and
records candidate positions and jumps only when asked.  With numba it is
compiled (``BACKEND == "numba"``); without it the same source runs on
memoryviews of the arrays, which read as Python ints
(``BACKEND == "python"``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rle import (
    EMPTY,
    Point,
    RleImage,
    bounding_rect,
    complement_within,
    reflect,
    translate,
)

# The horizontal jump set and its reflection.  The left distance table is
# the erosion transform w.r.t. JUMP_SET, the right table w.r.t. its
# reflection.
JUMP_SET = (Point(-1, 0), Point(0, 0))
JUMP_SET_REFLECTED = (Point(0, 0), Point(1, 0))


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
    """

    candidates: int = 0
    probes: int = 0
    # (x, y, k): probe at (x, y) missed with deficit k; (x..x+k-1, y) skipped.
    jumps: list[tuple[int, int, int]] = field(default_factory=list)
    # (x, y, n): hit at (x, y) emitted a run of length n.
    hits: list[tuple[int, int, int]] = field(default_factory=list)
    candidate_positions: list[tuple[int, int]] = field(default_factory=list)


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
    """True iff the anchored element fits at h, checked via skeleton probes
    against the left distances.  Probes off every kept run read as 0."""
    for (sx, sy), depth in skel.entries:
        if tables.distances(h.x + sx, h.y + sy)[0] < depth:
            return False
    return True


def _scan_kernel(left, right, row_ptr, top, cut, entries, cur, end, cur_y, out,
                 counts, record, cand_out, jump_out):
    """Jump scan of x_cut; returns the number of runs written to out.

    Each skeleton entry keeps a cursor into the kept runs of the row it
    probes: cur is the first run whose rx is at or right of the probe, end
    the end of that row's runs, cur_y the x_cut row the cursor was set for.
    Within an x_cut row the probes of one entry only move right, so its
    cursor only moves forward; it is reset the first time the entry probes
    for a new row.  cur_y must start at a value no x_cut row has.

    out receives the eroded runs as (lx, rx, y) rows in the anchored frame,
    counts receives [candidates, probes, jumps, hits].  When record is set,
    cand_out receives every candidate as (x, y) and jump_out every jump on
    miss as (x, y, k); each needs as many rows as x_cut has pixels.
    """
    n_out = 0
    n_cand = 0
    n_probe = 0
    n_jump = 0
    n_rows = row_ptr.shape[0] - 1
    n_entries = entries.shape[0]
    for ri in range(cut.shape[0]):
        lx0 = cut[ri, 0]
        rx0 = cut[ri, 1]
        y0 = cut[ri, 2]
        x = lx0
        # (index, x) of an entry already verified at x by a jump that landed
        # there; skipped when the entry pass restarts.
        ver_idx = -1
        ver_x = lx0 - 1
        # A jump counts its landing as a candidate, so only the start of a
        # run and the position after a hit are counted at the loop head.
        fresh = True
        while x <= rx0:
            if fresh:
                if record:
                    cand_out[n_cand, 0] = x
                    cand_out[n_cand, 1] = y0
                n_cand += 1
            miss = False
            diff = 0
            idx = 0
            for idx in range(n_entries):
                if idx == ver_idx and x == ver_x:
                    continue
                if cur_y[idx] != y0:
                    cur_y[idx] = y0
                    r = y0 + entries[idx, 1] - top
                    if 0 <= r < n_rows:
                        cur[idx] = row_ptr[r]
                        end[idx] = row_ptr[r + 1]
                    else:
                        cur[idx] = 0
                        end[idx] = 0
                c = cur[idx]
                e = end[idx]
                sx = entries[idx, 0]
                depth = entries[idx, 2]
                px = x + sx
                while c < e and right[c] < px:
                    c += 1
                v = px - left[c] + 1 if c < e and left[c] <= px else 0
                n_probe += 1
                diff = depth - v
                while diff > 0:
                    miss = True
                    if record:
                        jump_out[n_jump, 0] = x
                        jump_out[n_jump, 1] = y0
                        jump_out[n_jump, 2] = diff
                    n_jump += 1
                    x += diff
                    if x > rx0:
                        break
                    px = x + sx
                    while c < e and right[c] < px:
                        c += 1
                    v = px - left[c] + 1 if c < e and left[c] <= px else 0
                    n_probe += 1
                    if record:
                        cand_out[n_cand, 0] = x
                        cand_out[n_cand, 1] = y0
                    n_cand += 1
                    diff = depth - v
                cur[idx] = c
                if miss:
                    break
            if miss:
                fresh = False
                if x <= rx0 and diff <= 0:
                    ver_idx = idx
                    ver_x = x
            else:
                # Every entry's cursor now sits on the run that covers its probe.
                min_dist = 1 << 60
                for j in range(n_entries):
                    v = right[cur[j]] - x - entries[j, 0] + 1
                    if v < min_dist:
                        min_dist = v
                out[n_out, 0] = x
                out[n_out, 1] = x + min_dist - 1
                out[n_out, 2] = y0
                n_out += 1
                x += min_dist + 1
                fresh = True
    counts[0] = n_cand
    counts[1] = n_probe
    counts[2] = n_jump
    counts[3] = n_out
    return n_out


if _njit is not None:
    _scan_kernel = _njit(cache=True)(_scan_kernel)
    _kernel_arg = np.asarray
else:
    # The interpreted kernel reads memoryviews of the arrays: no copy, and
    # each read is a Python int, far cheaper to work with than a numpy scalar.
    _kernel_arg = memoryview


def _scan(tables: ErosionTables, skel: SkeletonTable, trace: ErodeTrace | None) -> np.ndarray:
    """Jump scan of x_cut.  Returns the eroded runs in the anchored frame as
    (lx, rx, y) rows and adds the scan's counts and events to trace."""
    cut = tables.x_cut.array
    entries = np.array([(s.x, s.y, depth) for s, depth in skel.entries], dtype=np.int64)
    n_entries = len(entries)
    n_px = int((cut[:, 1] - cut[:, 0] + 1).sum())
    n_rec = n_px if trace is not None else 0
    # Each output run ends where some entry's probed run ends, and one
    # (entry, kept run) pair ends at most one output run.
    out = np.empty((min(n_px, n_entries * len(tables.left)), 3), dtype=np.int64)
    counts = np.zeros(4, dtype=np.int64)
    cur = np.zeros(n_entries, dtype=np.int64)
    end = np.zeros(n_entries, dtype=np.int64)
    cur_y = np.full(n_entries, cut[0, 2] - 1 if len(cut) else 0, dtype=np.int64)
    cand_out = np.empty((n_rec, 2), dtype=np.int64)
    jump_out = np.empty((n_rec, 3), dtype=np.int64)
    a = _kernel_arg
    n = _scan_kernel(a(tables.left), a(tables.right), a(tables.row_ptr), tables.top,
                     a(cut), a(entries), a(cur), a(end), a(cur_y), a(out), a(counts),
                     trace is not None, a(cand_out), a(jump_out))
    runs = out[:n]
    if trace is not None:
        n_cand, n_probe, n_jump, _ = counts.tolist()
        trace.candidates += n_cand
        trace.probes += n_probe
        trace.candidate_positions.extend(map(tuple, cand_out[:n_cand].tolist()))
        trace.jumps.extend(map(tuple, jump_out[:n_jump].tolist()))
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
    element, complement back, all restricted to finite rectangles."""
    if se.is_empty:
        raise EmptyStructuringElementError("empty structuring element")
    if x.is_empty:
        return EMPTY
    sb = bounding_rect(se)
    # Shift the element so its box straddles the origin; dilation commutes
    # with SE translation, and the rectangle bounds below assume it.
    v = Point(-(sb.l + sb.r) // 2, -(sb.t + sb.b) // 2)
    se0 = translate(se, v)
    w, h = sb.width, sb.height
    rb = bounding_rect(x)
    rec_dil = rb.grown(w, h)
    rec_ero = rb.grown(2 * w, 2 * h)
    x_comp = complement_within(x, rec_ero)
    eroded = erode(x_comp, reflect(se0))
    out = complement_within(eroded, rec_dil)
    return translate(out, Point(-v.x, -v.y))
