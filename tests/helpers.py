"""Shared corpus generators for the randomized tests."""
from __future__ import annotations

import random

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rlemorph.morphology import build_tables, generate_skeleton
from rlemorph.rle import Point, Rect, RleImage, Run, from_raster


A = RleImage((Run(-1, 0, 0),))  # {(-1,0), (0,0)}


def img(*runs):
    return RleImage(runs)


def trimmed_tables(x, l_min, l_max):
    """x's tables trimmed by l_min and l_max: built for an element of two
    rows whose runs are that long."""
    return build_tables(x, generate_skeleton(img((0, l_max - 1, 0), (0, l_min - 1, 1))))


def random_rle_image(
    rng: random.Random,
    max_w: int = 64,
    max_h: int = 64,
    min_density: float = 0.05,
    max_density: float = 0.95,
    offset_range: int = 8,
) -> RleImage:
    w = rng.randint(1, max_w)
    h = rng.randint(1, max_h)
    density = rng.uniform(min_density, max_density)
    grid = np.array([[rng.random() < density for _ in range(w)] for _ in range(h)])
    off = Point(rng.randint(-offset_range, offset_range),
                rng.randint(-offset_range, offset_range))
    return from_raster(grid, off)


def random_se(rng: random.Random, max_side: int = 9) -> RleImage:
    """Non-empty element within max_side x max_side, origin somewhere inside
    the box.  Includes disconnected shapes, single runs and single pixels."""
    while True:
        w = rng.randint(1, max_side)
        h = rng.randint(1, max_side)
        density = rng.uniform(0.15, 1.0)
        grid = np.array([[rng.random() < density for _ in range(w)] for _ in range(h)])
        if grid.any():
            off = Point(-rng.randint(0, w - 1), -rng.randint(0, h - 1))
            return from_raster(grid, off)


# Hypothesis strategies: small images anywhere near the origin, and
# rectangles around and across them, from one pixel upwards.
grids = hnp.arrays(
    dtype=bool,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.booleans(),
)
points = st.builds(Point, st.integers(-10, 10), st.integers(-10, 10))
images = st.builds(from_raster, grids, points)
rects = st.builds(lambda l, w, t, h: Rect(l, l + w - 1, t, t + h - 1),
                  st.integers(-14, 24), st.integers(1, 20), st.integers(-14, 24), st.integers(1, 20))
