"""Slow, definitional reference implementations used as ground truth.

Everything here works on rasterized grids by looping over the probe
shape's pixels; none of it shares code with the jump-scan fast path
beyond the RLE container itself.  Performance is explicitly not a goal.
"""
from __future__ import annotations

import numpy as np

from .rle import (
    EMPTY,
    Point,
    RleImage,
    bounding_rect,
    from_raster,
    intersect,
    normalize,
    to_raster,
)
from .morphology import EmptyStructuringElementError


def erode_naive(x: RleImage, se: RleImage) -> RleImage:
    """Definitional erosion: p is kept iff every translated element pixel
    lands inside x.  Candidates outside the shrunken bounding box cannot
    qualify, which makes the quantifier finite."""
    if se.is_empty:
        raise EmptyStructuringElementError("empty structuring element")
    if x.is_empty:
        return EMPTY
    grid, off = to_raster(x)
    bpix = list(se.pixels())
    bxs = [p.x for p in bpix]
    bys = [p.y for p in bpix]
    # p + b must stay inside the bounding box for every element pixel b.
    h, w = grid.shape
    out_w = w - (max(bxs) - min(bxs))
    out_h = h - (max(bys) - min(bys))
    if out_w <= 0 or out_h <= 0:
        return EMPTY
    out_off = Point(off.x - min(bxs), off.y - min(bys))
    out = np.ones((out_h, out_w), dtype=bool)
    for bx, by in bpix:
        gy = by - min(bys)
        gx = bx - min(bxs)
        out &= grid[gy : gy + out_h, gx : gx + out_w]
    return from_raster(out, out_off)


def dilate_naive(x: RleImage, se: RleImage) -> RleImage:
    """Definitional dilation: the union of x translated by every element
    pixel."""
    if se.is_empty:
        raise EmptyStructuringElementError("empty structuring element")
    if x.is_empty:
        return EMPTY
    grid, off = to_raster(x)
    bpix = list(se.pixels())
    bxs = [p.x for p in bpix]
    bys = [p.y for p in bpix]
    h, w = grid.shape
    out = np.zeros((h + max(bys) - min(bys), w + max(bxs) - min(bxs)), dtype=bool)
    for bx, by in bpix:
        gy = by - min(bys)
        gx = bx - min(bxs)
        out[gy : gy + h, gx : gx + w] |= grid
    return from_raster(out, Point(off.x + min(bxs), off.y + min(bys)))


def erode_runs(x: RleImage, se: RleImage) -> RleImage:
    """Run-decomposition erosion: intersect over element runs of the union
    over image runs of the pairwise run erosions: each a shifted interval,
    or empty when the element run is longer, taken for all image runs at
    once."""
    if se.is_empty:
        raise EmptyStructuringElementError("empty structuring element")
    c, d, y = x.array.T
    result: RleImage | None = None
    for a, b, yb in se.array.tolist():
        keep = d - b >= c - a
        layer = normalize(np.column_stack((c - a, d - b, y - yb))[keep])
        result = layer if result is None else intersect(result, layer)
        if result.is_empty:
            return EMPTY
    return result


def erosion_transform_naive(x: RleImage, a: RleImage) -> dict[Point, int]:
    """Per-pixel count of successive erosions by a that the pixel survives;
    0 outside x.  Computed by iterating the n-fold erosion until empty."""
    if Point(0, 0) not in a.pixel_set():
        raise ValueError("jump set must contain the origin")
    if a.pixel_count() <= 1:
        raise ValueError("jump set must have more than one pixel")
    values: dict[Point, int] = {}
    current = x
    n = 1
    while not current.is_empty:
        for p in current.pixels():
            values[p] = n
        current = erode_naive(current, a)
        n += 1
    return values


def skeleton_naive(b: RleImage, a: RleImage) -> set[Point]:
    """All pixels of b whose transform value is a local maximum in the
    reflected-jump-set directions."""
    f = erosion_transform_naive(b, a)
    at = [Point(-p.x, -p.y) for p in a.pixels()]
    out = set()
    for p in b.pixels():
        if all(f.get(Point(p.x + e.x, p.y + e.y), 0) <= f[p] for e in at):
            out.add(p)
    return out
