"""Fast erosion and dilation on compact RLE images.

Erosion anchors the structuring element at the rightmost pixel of its
longest run, reduces it to a skeleton (one entry per run: the rightmost
pixel plus the run length), and scans only the trimmed input ``x_cut``
using left/right distance tables.  The tables are indexed by run, not by
pixel: inside a run the distances to its two ends follow from the run's
``lx`` and ``rx``, so the tables store those ends, grouped by the rows
that have kept runs, and cost O(runs) whatever the size of the image's
bounding box.  The input is trimmed three ways: runs shorter than the
element's shortest run leave the tables, runs shorter than its longest
run leave ``x_cut``, and, as the scan admits it, an ``x_cut`` run is
dropped unless every row its element probes holds kept runs, so each
probed row of a scanned run is found from the run's row alone.  A failed
probe with deficit k lets the scan jump k candidates to the right, never
past the end of the ``x_cut`` run (jump on miss); a successful probe
yields the full eroded run from the minimum right distance over the
skeleton (jump on hit).  Dilation is erosion of the complement with the
reflected element, restricted to two exact rectangles built where both
boxes are centred on the origin.

One scan, ``_scan``, serves traced and untraced erosion alike.  It moves
the ``x_cut`` runs forward in lockstep with numpy, at least one and as many
at once as keep each per-probe array within ``rle._BLOCK_BYTES``, the
codec's budget: each round probes every skeleton entry of every live run,
and each run then jumps by its largest deficit and, where that jump lands
on a position at which no entry misses, emits the hit there in the same
round.  A probe in a gap misses until the next kept run of its row is
deep enough, or past the row's last kept run to the end of the ``x_cut``
run, so a gap costs one probe, not one per pixel.

A rectangle skips the scan.  Its skeleton is a column, and ``x_cut`` is
already the erosion by its top row, so the column chain intersects
``x_cut`` with itself moved up 1, 2, 4, ... rows and then by the rest, in
ceil(log2 h) steps for height h (the logarithmic line decompositions of
van Herk and of Gil & Werman), each two ``searchsorted`` calls over the
runs keyed by row and x.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rle import (
    EMPTY,
    Point,
    Rect,
    RleImage,
    _BLOCK_BYTES,
    _as_runs,
    bounding_rect,
    complement_within,
    reflect,
    translate,
)

# What runs the scan: numpy array operations driven from Python.
BACKEND = "python"


class EmptyStructuringElementError(ValueError):
    """Erosion/dilation by the empty set is not representable as a finite
    image."""


@dataclass(frozen=True, eq=False)
class SkeletonTable:
    """Skeleton of the structuring element translated so that the rightmost
    pixel of its longest run sits at the origin.

    entries: read-only (E, 3) int64 array, one row (sx, sy, depth) per run
    in (y, lx) order: (sx, sy) is the run's rightmost pixel, depth its length.
    The scan derives the row blocks of its vertical trim from the sy column.
    Compared and hashed by identity, as an array has no single truth value.
    """

    entries: np.ndarray
    l_min: int
    l_max: int
    anchor_q: Point


@dataclass(frozen=True, eq=False)
class ErosionTables:
    """Run-indexed left/right distance tables plus the trimmed image x_cut,
    built for the skeleton skel.

    left and right hold lx and rx of every input run at least skel.l_min long,
    in (y, lx) order.  rows holds the distinct y of those kept runs, in order
    (x_cut's rows too when l_min == l_max), and the kept runs of row rows[r]
    are left[i] and right[i] for row_ptr[r] <= i < row_ptr[r + 1]; rows
    without kept runs take no space.  For the kept run that covers pixel x,
    the left distance is x - lx + 1 and the right distance rx - x + 1; both
    are 0 where no kept run covers x.  These are the erosion transforms
    w.r.t. the horizontal jump set {(-1, 0), (0, 0)} and its reflection.
    Compared and hashed by identity, as SkeletonTable is.
    """

    left: np.ndarray
    right: np.ndarray
    rows: np.ndarray
    row_ptr: np.ndarray
    x_cut: RleImage
    skel: SkeletonTable

    def distances(self, x: int, y: int) -> tuple[int, int]:
        """(left, right) distance at pixel (x, y)."""
        r = int(np.searchsorted(self.rows, y))
        if r < len(self.rows) and self.rows[r] == y:
            lo, hi = self.row_ptr[r], self.row_ptr[r + 1]
            k = lo + int(np.searchsorted(self.right[lo:hi], x))
            if k < hi and self.left[k] <= x:
                return x - int(self.left[k]) + 1, int(self.right[k]) - x + 1
        return 0, 0


@dataclass(eq=False)
class ErodeTrace:
    """Optional instrumentation collected by erode().

    Coordinates are in the anchored (pre-final-translation) frame:
    a candidate h means the element translated by -anchor_q was probed at h.
    Every candidate ends in exactly one jump or one hit; an x_cut run the
    vertical trim drops holds no candidate.  The column chain probes no
    candidate: its hits are its output runs.  jumps and hits are (n, 3)
    int64 arrays; each erode() call appends its rows to them.
    """

    # Skeleton entries probed, all of them at every candidate.
    probes: int = 0
    # Lockstep rounds of the scan; a round moves every live x_cut run by a
    # jump, a hit or both.  More runs than the budget holds take more rounds.
    rounds: int = 0
    # x_cut runs the vertical trim dropped as the scan admitted them: a row
    # the element probes holds no kept run, so none can hit.
    trimmed: int = 0
    # Erosions by a rectangle, done by the column chain, not the scan.  A
    # chain step counts a round, and a probe per run entering it; the
    # chain records its output runs as hits and no jumps.
    columns: int = 0
    # (x, y, k): the candidate at (x, y) missed, k its largest deficit over
    # the entries, cut at the end of its x_cut run; (x..x+k-1, y) skipped.
    jumps: np.ndarray = field(default_factory=lambda: np.empty((0, 3), dtype=np.int64))
    # (x, y, n): hit at (x, y) emitted a run of length n.
    hits: np.ndarray = field(default_factory=lambda: np.empty((0, 3), dtype=np.int64))

    @property
    def candidates(self) -> int:
        return len(self.jumps) + len(self.hits)


def generate_skeleton(se: RleImage) -> SkeletonTable:
    """Anchor the element and list one (rightmost pixel, run length) row
    per run.  Among equally longest runs the first in (y, lx) order wins."""
    if se.is_empty:
        raise EmptyStructuringElementError("empty structuring element")
    a = se.array
    lengths = a[:, 1] - a[:, 0] + 1
    best = int(np.argmax(lengths))
    q = Point(int(a[best, 1]), int(a[best, 2]))
    entries = np.column_stack((a[:, 1] - q.x, a[:, 2] - q.y, lengths))
    entries.flags.writeable = False
    return SkeletonTable(entries, int(lengths.min()), int(lengths.max()), q)


def build_tables(x: RleImage, skel: SkeletonTable) -> ErosionTables:
    """Index the input's runs by row and trim the input for skel.

    Runs shorter than l_min cannot contain any part of a hit and are left
    out of the tables; runs shorter than l_max vanish from x_cut, the
    survivors lose their first l_max - 1 pixels.
    """
    runs = x.array
    lengths = runs[:, 1] - runs[:, 0] + 1
    kept = runs.compress(lengths >= skel.l_min, axis=0)
    # Kept runs are in (y, lx) order, so each row's runs start where y changes.
    y = kept[:, 2]
    row_start = np.ones(len(y), dtype=bool)
    row_start[1:] = y[1:] != y[:-1]
    starts = np.flatnonzero(row_start)
    cut = runs.compress(lengths >= skel.l_max, axis=0)
    cut[:, 0] += skel.l_max - 1
    return ErosionTables(kept[:, 0].copy(), kept[:, 1].copy(), y[starts],
                         np.append(starts, len(y)), RleImage._built(cut), skel)


def erode_check_at(tables: ErosionTables, h: Point) -> bool:
    """True iff the anchored element fits at h: each skeleton entry (sx, sy, d)
    has a left distance >= d at h + (sx, sy).  ValueError unless h is a pixel within +-2**61."""
    hx, _, hy = _as_runs([(h.x, h.x, h.y)])[0].tolist()
    return all(tables.distances(hx + sx, hy + sy)[0] >= d
               for sx, sy, d in tables.skel.entries.tolist())


def _scan(tables: ErosionTables, trace: ErodeTrace | None) -> np.ndarray:
    """Trim and scan the x_cut runs in lockstep, at most step of them live,
    as many as keep each (entry x run) int64 array within _BLOCK_BYTES, at
    least one; returns their hits in (y, x) order.  When at most half of
    step are live, the next runs join, trimmed first, rather than wait for
    the busiest.  Every x_cut run is at least l_max >= l_min long, so it is
    a kept run in a row of rows.  The vertical trim scans a run at y0 only
    if every row y0 + sy its skeleton probes holds kept runs.  The entries,
    in sy order, split at each step of more than one row into blocks of
    gapless rows.  For a block with first and last rows a and b, rows is
    strictly increasing, so with
    r0 = rows.searchsorted(y0 + a) the rows y0 + a..y0 + b all do exactly
    when rows[r0 + b - a] == y0 + b, read only where that index exists.  r0
    holds one row of these indices per block, and an entry of block i
    probes rows[r0[i, j] + sy - a] from run j.  Trimmed runs leave no event.

    Every per-cell array is entry-major, (entries, runs), so reductions
    over a run's entries run along axis 0 and finished runs drop out along
    axis 1.  Each cell keeps a cursor c into the kept runs of the row its
    entry probes and the end e of that row's runs.
    A run's candidates only move right, so c only moves forward: each
    round moves it to the first kept run that ends at or right of the
    probe px = x + sx.  The entry's deficit is then left[c] + d - 1 - px,
    d its depth, whether px lies in that run or in the gap before it; past
    the row's last kept run it is rx0 - x + 1, rx0 the x_cut run's end.
    The entry fits where its deficit is at most 0, and otherwise misses at
    every position short of x plus the deficit.

    A run with a miss jumps by its largest deficit k; k is 0 where no
    entry misses.  The cursors stay put for any move of at most
    room = min(right[c] - px), so where k <= room the position x + k is a
    hit reaching x + room.  The round emits it, with or without the jump
    before it, and x moves past the hit and the miss that ends it.  A run
    with an entry past its row's last kept run has x + k > rx0 and only
    jumps, out of its run.  So a round handles one or two candidates of
    each run, and each candidate counts one probe per entry.  The trace
    records every jump cut at rx0 - x + 1, the positions left in its run,
    since a jump past the run's end ends the run either way.
    """
    left, right, rows = tables.left, tables.right, tables.rows
    sx, sy, depth = tables.skel.entries.T
    step = max(1, _BLOCK_BYTES // (8 * len(sy)))
    blocks = np.concatenate(([0], np.flatnonzero(sy[1:] - sy[:-1] > 1) + 1, [len(sy)]))
    a, b, size = sy[blocks[:-1]], sy[blocks[1:] - 1], np.diff(blocks)
    off = (sy - a.repeat(size))[:, None]  # each entry's sy - a, a of its block
    span, sx, d1 = (b - a)[:, None], sx[:, None], (depth - 1)[:, None]
    no_events = np.empty((4, 0), dtype=np.int64)
    hits, jumps, n_round, n_trimmed, seen, x = [no_events], [no_events], 0, 0, 0, no_events[0]
    while True:
        while 2 * len(x) <= step and seen < len(tables.x_cut):
            new = tables.x_cut.array[seen:seen + step - len(x)].T
            r0 = rows.searchsorted(np.add.outer(a, new[2]))
            full = ((r0 < len(rows) - span)
                    & (rows.take(r0 + span, mode="clip") == np.add.outer(b, new[2]))).all(axis=0)
            # Each cell's row index, then that row's first kept run and end.
            ci = r0.compress(full, axis=1).repeat(size, axis=0) + off
            joined = (*new.compress(full, axis=1), np.flatnonzero(full) + seen,
                      tables.row_ptr[:-1].take(ci), tables.row_ptr[1:].take(ci))
            if len(x):  # the live runs' cells lie along the last axis
                joined = [np.concatenate(p, axis=-1) for p in zip((x, rx0, y0, run, c, e), joined)]
            x, rx0, y0, run, c, e = joined
            n_trimmed += len(full) - int(full.sum())
            seen += len(full)
        if not len(x):
            break
        n_round += 1
        px = x + sx
        rc = right.take(c, mode="clip")
        late = np.flatnonzero((c < e) & (rc < px))
        if len(late):  # c and rc are contiguous: ravel() writes through
            moved = _lower_bound(right, c.take(late) + 1, e.take(late), px.take(late))
            c.ravel()[late] = moved
            rc.ravel()[late] = right.take(moved, mode="clip")
        # The largest deficit, or 0 where every entry fits.
        k = np.where(c < e, left.take(c, mode="clip") + d1 - px,
                     rx0 - x + 1).max(axis=0, initial=0)
        room = (rc - px).min(axis=0)
        hit = (k <= room) & (x + k <= rx0)
        if trace is not None:
            jumps.append(np.array([run, x, y0, np.minimum(k, rx0 - x + 1)]).compress(k > 0, axis=1))
        if hit.any():
            hits.append(np.array([run, x + k, x + room, y0]).compress(hit, axis=1))
        x = np.where(hit, x + room + 2, x + k)
        live = x <= rx0
        if not live.all():
            x, rx0, y0, run = x[live], rx0[live], y0[live], run[live]
            c, e = c.compress(live, axis=1), e.compress(live, axis=1)
    hits = np.concatenate(hits, axis=1)
    runs = hits[1:, np.argsort(hits[0], kind="stable")].T
    if trace is not None:
        jumps = np.concatenate(jumps, axis=1)
        trace.probes += len(sx) * (jumps.shape[1] + hits.shape[1])
        trace.trimmed += n_trimmed
        trace.rounds += n_round
        trace.jumps = np.concatenate((trace.jumps, jumps[1:, jumps[0].argsort(kind="stable")].T))
        _record_hits(trace, runs)
    return runs


def _record_hits(trace: ErodeTrace, runs: np.ndarray) -> None:
    """Append the anchored runs (lx, rx, y) to trace.hits as (lx, y, n)."""
    lx, rx, y = runs.T
    trace.hits = np.concatenate((trace.hits, np.column_stack((lx, y, rx - lx + 1))))


def _chain(tables: ErosionTables, trace: ErodeTrace | None) -> np.ndarray | None:
    """Erode by a column, or return None for the scan to erode.  The
    skeleton is a column when it has one entry at sx = 0 on each row
    0..h - 1 and l_min == l_max, a w x h rectangle.  x_cut is then already
    the erosion by its top row, and tables.rows its row index, so the
    result is the pixels of x_cut whose rows y..y + h - 1 all hold them.
    Each step intersects the runs covering c rows with themselves moved up
    s rows, covering c + s: s = c while 2c <= h, then s = h - c once.  On
    keys (y - y0) * W + (x - x0), W the x range plus 2, no row's keys reach
    the next row's, so the runs of row y + s that overlap (lx, rx, y) are
    those from the first whose end key is at least that of (lx, y + s) up
    to the last whose start key is at most that of (rx, y + s).  Each
    overlap is a run of the result, in (y, lx) order; returns them as
    (lx, rx, y) rows.  None also when the keys would not fit int64.  With
    no h consecutive rows nothing fits, and the chain takes no step."""
    sx, sy, _ = tables.skel.entries.T
    h = len(sy)
    if sx.any() or tables.skel.l_min != tables.skel.l_max or (sy != np.arange(h)).any():
        return None
    rows, cut = tables.rows, tables.x_cut.array
    x0, y0 = int(cut[:, 0].min()), int(rows[0])
    width = int(cut[:, 1].max()) - x0 + 2
    if (int(rows[-1]) - y0 + h + 1) * width >= 2**63:
        return None
    base = (cut[:, 2] - y0) * width - x0
    start, end = base + cut[:, 0], base + cut[:, 1]
    if len(rows) < h or (rows[h - 1:] - rows[:len(rows) - h + 1] != h - 1).all():
        start, end = start[:0], end[:0]
    c, n_steps, n_probes = 1, 0, 0
    while c < h and len(start):
        s = min(c, h - c)
        up = s * width
        lo = end.searchsorted(start + up)
        n = start.searchsorted(end + up, "right") - lo
        if n.max() > 1:  # a run with several partners: one output per pair
            i = np.repeat(np.arange(len(n)), n)
            j = np.arange(len(i)) - np.repeat(n.cumsum() - n - lo, n)
        else:
            i = np.flatnonzero(n)
            j = lo.take(i)
        c, n_steps, n_probes = c + s, n_steps + 1, n_probes + len(start)
        start = np.maximum(start.take(i), start.take(j) - up)
        end = np.minimum(end.take(i), end.take(j) - up)
    y = start // width
    base = y * width - x0
    runs = np.column_stack((start - base, end - base, y + y0))
    if trace is not None:
        trace.columns += 1
        trace.rounds += n_steps
        trace.probes += n_probes
        _record_hits(trace, runs)
    return runs


def _lower_bound(a: np.ndarray, lo: np.ndarray, hi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Elementwise first i in [lo, hi) with a[i] >= v, or hi; a is sorted.
    Each step adds a power of two to lo while a[lo + step - 1] < v."""
    step = 1 << int((hi - lo).max()).bit_length()
    while step > 1:
        step >>= 1
        last = lo + (step - 1)
        lo += step * ((last < hi) & (a.take(last, mode="clip") < v))
    return lo


def erode(x: RleImage, se: RleImage, trace: ErodeTrace | None = None) -> RleImage:
    """Exact erosion of x by an arbitrary non-empty structuring element: the
    column chain for a rectangle, else the trim and jump scan of x_cut;
    either adds its counts to trace."""
    skel = generate_skeleton(se)
    tables = build_tables(x, skel)
    if not len(tables.x_cut):  # with no x_cut run nothing fits
        return EMPTY
    runs = _chain(tables, trace)
    if runs is None:
        runs = _scan(tables, trace)
    q = skel.anchor_q
    return RleImage._built(runs - (q.x, q.x, q.y))


def dilate(x: RleImage, se: RleImage) -> RleImage:
    """Exact dilation via duality: complement, erode by the reflected
    element, complement back.  The dilation lies in the box rb + sb; for h
    in it and b in se, h - b lies in rb grown by sb's size less one, so
    complementing x within that rectangle is exact.  Both rectangles are
    built, nearest the origin, where the boxes of x and se are centred on
    it, so a dilation is refused only if its result leaves +-2**61 or half
    x's width or height plus the element's exceeds 2**61."""
    if se.is_empty:
        raise EmptyStructuringElementError("empty structuring element")
    if x.is_empty:
        return EMPTY
    u, v = (Point((r.l + r.r) // 2, (r.t + r.b) // 2) for r in map(bounding_rect, (x, se)))
    x, se = translate(x, Point(-u.x, -u.y)), translate(se, Point(-v.x, -v.y))
    rb, sb = bounding_rect(x), bounding_rect(se)
    x_comp = complement_within(x, rb.grown(sb.width - 1, sb.height - 1))
    eroded = erode(x_comp, reflect(se))
    out = complement_within(eroded, Rect(rb.l + sb.l, rb.r + sb.r, rb.t + sb.t, rb.b + sb.b))
    return translate(out, Point(u.x + v.x, u.y + v.y))
