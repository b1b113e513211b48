"""Fast erosion and dilation on compact RLE images.

Erosion anchors the structuring element at the rightmost pixel of its
longest run, reduces it to a skeleton (one entry per run: the rightmost
pixel plus the run length), and scans only the trimmed input ``x_cut``
using left/right distance tables.  A failed probe with deficit k lets the
scan jump k candidates to the right (jump on miss); a successful probe
yields the full eroded run from the minimum right distance over the
skeleton (jump on hit).  Dilation is erosion of the complement with the
reflected element, restricted to finite rectangles.

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
    Rect,
    RleImage,
    Run,
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
    """Left/right distance grids over the input's bounding box (1-cell zero
    margin) plus the trimmed image x_cut.

    Grid cell [gy, gx] holds the value at image point
    (offset.x + gx, offset.y + gy).  Probes outside the grid read as 0.
    """

    left: np.ndarray
    right: np.ndarray
    offset: Point
    x_cut: RleImage


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
    best = se.runs[0]
    for r in se.runs[1:]:
        if r.length > best.length:
            best = r
    q = Point(best.rx, best.y)
    entries = []
    l_min = l_max = se.runs[0].length
    for r in se.runs:
        entries.append((Point(r.rx - q.x, r.y - q.y), r.length))
        l_min = min(l_min, r.length)
        l_max = max(l_max, r.length)
    return SkeletonTable(tuple(entries), l_min, l_max, q)


def build_tables(x: RleImage, l_min: int, l_max: int) -> ErosionTables:
    """Fill the left/right distance grids and trim the input.

    Runs shorter than l_min cannot contain any part of a hit and are left
    zero in the tables; runs shorter than l_max vanish from x_cut, the
    survivors lose their first l_max - 1 pixels.
    """
    if not (1 <= l_min <= l_max):
        raise ValueError(f"need 1 <= l_min <= l_max, got {l_min}, {l_max}")
    rect = bounding_rect(x)
    if rect is None:
        z = np.zeros((0, 0), dtype=np.int32)
        return ErosionTables(z, z, Point(0, 0), EMPTY)
    h, w = rect.height + 2, rect.width + 2
    offset = Point(rect.l - 1, rect.t - 1)
    left = np.zeros((h, w), dtype=np.int32)
    right = np.zeros((h, w), dtype=np.int32)
    cut: list[Run] = []
    for run in x.runs:
        n = run.length
        if n < l_min:
            continue
        gy = run.y - offset.y
        gx = run.lx - offset.x
        left[gy, gx : gx + n] = np.arange(1, n + 1, dtype=np.int32)
        right[gy, gx : gx + n] = np.arange(n, 0, -1, dtype=np.int32)
        if n >= l_max:
            cut.append(Run(run.lx + l_max - 1, run.rx, run.y))
    return ErosionTables(left, right, offset, RleImage(tuple(cut)))


def erode_check_at(tables: ErosionTables, skel: SkeletonTable, h: Point) -> bool:
    """True iff the anchored element fits at h, checked via skeleton probes
    against the left table.  Out-of-grid probes read as 0."""
    left = tables.left
    rows, cols = left.shape
    ox, oy = tables.offset
    for (sx, sy), depth in skel.entries:
        gx = h.x + sx - ox
        gy = h.y + sy - oy
        v = int(left[gy, gx]) if 0 <= gy < rows and 0 <= gx < cols else 0
        if depth > v:
            return False
    return True


def _scan_kernel(left, right, ox, oy, cut, entries, out, counts, record,
                 cand_out, jump_out):
    """Jump scan of x_cut; returns the number of runs written to out.

    out receives the eroded runs as (lx, rx, y) rows in the anchored frame,
    counts receives [candidates, probes, jumps, hits].  When record is set,
    cand_out receives every candidate as (x, y) and jump_out every jump on
    miss as (x, y, k); each needs as many rows as x_cut has pixels.
    """
    n_out = 0
    n_cand = 0
    n_probe = 0
    n_jump = 0
    rows, cols = left.shape
    n_entries = entries.shape[0]
    for ri in range(cut.shape[0]):
        lx0 = cut[ri, 0]
        rx0 = cut[ri, 1]
        y0 = cut[ri, 2]
        gy_base = y0 - oy
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
                sx = entries[idx, 0]
                depth = entries[idx, 2]
                gy = gy_base + entries[idx, 1]
                row_in = 0 <= gy < rows
                gx = x + sx - ox
                v = left[gy, gx] if row_in and 0 <= gx < cols else 0
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
                    gx = x + sx - ox
                    v = left[gy, gx] if row_in and 0 <= gx < cols else 0
                    n_probe += 1
                    if record:
                        cand_out[n_cand, 0] = x
                        cand_out[n_cand, 1] = y0
                    n_cand += 1
                    diff = depth - v
                if miss:
                    break
            if miss:
                fresh = False
                if x <= rx0 and diff <= 0:
                    ver_idx = idx
                    ver_x = x
            else:
                min_dist = 1 << 60
                for j in range(n_entries):
                    gy = gy_base + entries[j, 1]
                    gx = x + entries[j, 0] - ox
                    v = right[gy, gx] if 0 <= gy < rows and 0 <= gx < cols else 0
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
    n_px = tables.x_cut.pixel_count()
    n_rec = n_px if trace is not None else 0
    cut = np.array(tables.x_cut.runs, dtype=np.int64).reshape(-1, 3)
    entries = np.array([(s.x, s.y, depth) for s, depth in skel.entries], dtype=np.int64)
    out = np.empty((n_px, 3), dtype=np.int64)
    counts = np.zeros(4, dtype=np.int64)
    cand_out = np.empty((n_rec, 2), dtype=np.int64)
    jump_out = np.empty((n_rec, 3), dtype=np.int64)
    a = _kernel_arg
    ox, oy = tables.offset
    n = _scan_kernel(a(tables.left), a(tables.right), ox, oy, a(cut), a(entries),
                     a(out), a(counts), trace is not None, a(cand_out), a(jump_out))
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
    runs = _scan(tables, skel, trace)
    q = skel.anchor_q
    runs -= (q.x, q.x, q.y)
    return RleImage(tuple(map(Run._make, runs.tolist())))


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
