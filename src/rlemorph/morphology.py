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
run leave ``x_cut``, and, once per erosion before the scan, an ``x_cut``
run is dropped unless every row of the element's band (its rows that run
without a gap through the anchor row) holds kept runs.  A failed probe
with deficit k lets the scan jump k candidates to the right, never past
the end of the ``x_cut`` run (jump on miss); a successful probe yields the
full eroded run from the minimum right distance over the skeleton (jump
on hit).  Dilation is erosion of the complement with the reflected
element, restricted to two exact rectangles built where both boxes are
centred on the origin.

One scan, ``_scan``, serves traced and untraced erosion alike.  It moves
every ``x_cut`` run forward in lockstep with numpy: each round probes
every skeleton entry of every unfinished run at once, and each run then
jumps by its largest deficit and, where that jump lands on a position at
which no entry misses, emits the hit there in the same round.  The
per-probe arrays are entry-major, (entries, runs), so a reduction over
each run's entries combines whole contiguous rows of runs, not short rows
of entries.  A probe in a gap misses until the next kept run of its row
is deep enough, or past the row's last kept run to the end of the
``x_cut`` run, so a gap costs one probe, not one per pixel.
"""
from __future__ import annotations

import bisect
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
    translate,
)

# What runs the scan: numpy array operations driven from Python.
BACKEND = "python"

# The scan holds (entry x run) arrays of at most this many cells at once,
# taking x_cut's runs in chunks, so its memory stays bounded by the runs.
_CHUNK_CELLS = 1 << 18


class EmptyStructuringElementError(ValueError):
    """Erosion/dilation by the empty set is not representable as a finite
    image."""


@dataclass(frozen=True, eq=False)
class SkeletonTable:
    """Skeleton of the structuring element translated so that the rightmost
    pixel of its longest run sits at the origin.

    entries: read-only (E, 3) int64 array, one row (sx, sy, depth) per run
    in (y, lx) order: (sx, sy) is the run's rightmost pixel, depth its length.
    band: the slice of entries whose rows sy run without a gap through the
    anchor row 0; an x_cut run in a row where one of the band's rows holds
    no kept run cannot hit.
    Compared and hashed by identity, as an array has no single truth value.
    """

    entries: np.ndarray
    l_min: int
    l_max: int
    anchor_q: Point
    band: slice


@dataclass(frozen=True, eq=False)
class ErosionTables:
    """Run-indexed left/right distance tables plus the trimmed image x_cut,
    built for the skeleton skel.

    left and right hold lx and rx of every input run at least skel.l_min long,
    in (y, lx) order.  rows holds the distinct y of those kept runs, in
    order, and the kept runs of row rows[r] are left[i] and right[i] for
    row_ptr[r] <= i < row_ptr[r + 1]; rows without kept runs take no
    space.  For the kept run that covers pixel x, the left distance is
    x - lx + 1 and the right distance rx - x + 1; both are 0 where no kept
    run covers x.  These are the erosion transforms w.r.t. the horizontal
    jump set {(-1, 0), (0, 0)} and its reflection.  Compared and hashed by
    identity, as SkeletonTable is.
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
    vertical trim drops holds no candidate.  jumps and hits are (n, 3)
    int64 arrays; each erode() call appends its rows to them.
    """

    # Skeleton entries probed, all of them at every candidate.
    probes: int = 0
    # Lockstep rounds of the scan, summed over its chunks; a round moves
    # every unfinished x_cut run of its chunk by a jump, a hit or both.
    rounds: int = 0
    # x_cut runs the vertical trim dropped before the scan: a row of the
    # element's band holds no kept run, so none of their positions can hit.
    trimmed: int = 0
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
    # Entries are in sy order; an entry a step of more than one row below
    # the one before it starts a new block of gapless rows, and the band is
    # the block holding the anchor.
    sy = entries[:, 1]
    starts = [0, *(np.flatnonzero(sy[1:] - sy[:-1] > 1) + 1).tolist(), len(sy)]
    i = bisect.bisect_right(starts, best)
    band = slice(starts[i - 1], starts[i])
    return SkeletonTable(entries, int(lengths.min()), int(lengths.max()), q, band)


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
    """True iff the anchored element of the tables' skeleton fits at h: the
    scan run on h alone hits.  Probes off every kept run read as 0."""
    return len(_scan(replace(tables, x_cut=RleImage([(h.x, h.x, h.y)])), None)) == 1


def _scan(tables: ErosionTables, trace: ErodeTrace | None) -> np.ndarray:
    """Jump scan of x_cut.  Returns the eroded runs in the anchored frame as
    (lx, rx, y) rows and adds the scan's counts and events to trace.

    First the vertical trim: a run at y0 is scanned only if the rows
    y0 + a..y0 + b of the skeleton's band all hold kept runs.  rows is
    strictly increasing, so with r0 = rows.searchsorted(y0 + a) they do
    exactly when rows[r0 + b - a] == y0 + b, read only where that index
    exists.  Trimmed runs leave no event.
    """
    rows = tables.rows
    if not len(tables.x_cut) or not len(rows):  # with no kept run nothing fits
        return EMPTY.array
    sy, band = tables.skel.entries[:, 1], tables.skel.band
    a, b = sy[band.start], sy[band.stop - 1]
    cut = tables.x_cut.array.T.copy()
    r0 = rows.searchsorted(cut[2] + a)
    full = (r0 < len(rows) - (b - a)) & (rows.take(r0 + (b - a), mode="clip") == cut[2] + b)
    if not full.all():
        cut, r0 = cut.compress(full, axis=1), r0.compress(full)
    step = max(1, _CHUNK_CELLS // len(sy))
    chunks = (_scan_chunk(tables, cut[:, i:i + step], r0[i:i + step], trace)
              for i in range(0, len(r0), step))
    runs = np.concatenate([EMPTY.array, *chunks])
    if trace is not None:
        lx, rx, y = runs.T
        trace.trimmed += len(full) - len(r0)
        trace.hits = np.concatenate((trace.hits, np.column_stack((lx, y, rx - lx + 1))))
    return runs


def _scan_chunk(tables: ErosionTables, cut: np.ndarray, r0: np.ndarray,
                trace: ErodeTrace | None) -> np.ndarray:
    """Scan some x_cut runs, given as the rows lx, rx and y of cut, in
    lockstep; returns their hits in (y, x) order.  Every band row of these
    runs is kept, the first at rows[r0].

    Every per-cell array is entry-major, (entries, runs), so reductions
    over a run's entries run along axis 0 and finished runs drop out along
    axis 1.  Each cell keeps a cursor c into the kept runs of the row its
    entry probes and the end e of that row's runs (c == e if it has none).
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
    left, right = tables.left, tables.right
    sx, _, depth = tables.skel.entries.T
    x, rx0, y0 = cut
    run = np.arange(len(x))
    c, e = _cursors(tables, y0, r0)
    sx, d1 = sx[:, None], (depth - 1)[:, None]
    hits, jumps, n_round = [np.empty((4, 0), dtype=np.int64)], [], 0
    while len(x):
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
    if trace is not None:
        jumps = np.concatenate(jumps, axis=1)
        trace.probes += len(sx) * (jumps.shape[1] + hits.shape[1])
        trace.rounds += n_round
        trace.jumps = np.concatenate((trace.jumps, jumps[1:, jumps[0].argsort(kind="stable")].T))
    return hits[1:, np.argsort(hits[0], kind="stable")].T


def _cursors(tables: ErosionTables, y0: np.ndarray, r0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, e), both (entries, runs): the kept runs of the row that entry i
    probes from the run at y0[j] are c[i, j] <= k < e[i, j].

    Every band row of these runs is kept, the first, y0 + a, at rows[r0],
    so on the band the probed row's index is exactly r0 + sy - a.  Off it
    that guess holds wherever the kept rows between are consecutive; every
    take clips the guess to an index of rows, so a guess past the last kept
    row reads that row and is kept only if it is the probed one.  Only
    off-band cells whose guess reads another row are searched; c and e are
    C-ordered, so their blocks of entry rows ravel() as views.
    """
    rows, row_ptr = tables.rows, tables.row_ptr
    sy, band = tables.skel.entries[:, 1], tables.skel.band
    r = np.add.outer(sy - sy[band.start], r0)
    c, e = row_ptr[:-1].take(r, mode="clip"), row_ptr[1:].take(r, mode="clip")
    for off in (slice(0, band.start), slice(band.stop, len(sy))):
        if off.start == off.stop:
            continue
        probed_y = y0 + sy[off, None]
        wrong = np.flatnonzero(rows.take(r[off], mode="clip") != probed_y)
        if len(wrong):
            y = probed_y.take(wrong)
            r_y = rows.searchsorted(y)
            c[off].ravel()[wrong] = row_ptr.take(r_y)
            e[off].ravel()[wrong] = row_ptr.take(r_y + (rows.take(r_y, mode="clip") == y))
    return c, e


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
    """Exact erosion of x by an arbitrary non-empty structuring element."""
    skel = generate_skeleton(se)
    q = skel.anchor_q
    return RleImage._built(_scan(build_tables(x, skel), trace) - (q.x, q.x, q.y))


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
