"""Structuring-element and synthetic test-image generators.

All generators are deterministic for a fixed seed.
"""
from __future__ import annotations

import numpy as np

from .rle import RleImage, from_raster


def square_se(size: int) -> RleImage:
    """Solid size x size block centered at the origin; size must be odd."""
    _check_size(size)
    r = (size - 1) // 2
    return RleImage([(-r, r, y) for y in range(-r, r + 1)])


def diamond_se(size: int) -> RleImage:
    """L1 ball of diameter size centered at the origin; size must be odd."""
    _check_size(size)
    r = (size - 1) // 2
    return RleImage([(abs(y) - r, r - abs(y), y) for y in range(-r, r + 1)])


def _check_size(size: int) -> None:
    if size < 1 or size % 2 == 0:
        raise ValueError(f"size must be a positive odd integer, got {size}")


def random_image(width: int, height: int, density: float, seed: int = 0) -> RleImage:
    """Each pixel independently foreground with the given probability."""
    if width < 1 or height < 1:
        raise ValueError("width and height must be >= 1")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    rng = np.random.default_rng(seed)
    return from_raster(rng.random((height, width)) < density)


def blob_image(
    width: int,
    height: int,
    blobs: int = 40,
    min_size: int = 8,
    max_size: int = 64,
    seed: int = 0,
) -> RleImage:
    """Union of random filled rectangles and discs, mimicking the long-run
    structure of document-style images."""
    if width < 1 or height < 1:
        raise ValueError("width and height must be >= 1")
    if blobs < 0 or min_size < 1 or max_size < min_size:
        raise ValueError("bad blob parameters")
    rng = np.random.default_rng(seed)
    grid = np.zeros((height, width), dtype=bool)
    for _ in range(blobs):
        cx = int(rng.integers(0, width))
        cy = int(rng.integers(0, height))
        s = int(rng.integers(min_size, max_size + 1))
        if rng.random() < 0.5:
            w2 = s // 2
            h2 = max(1, int(rng.integers(min_size, max_size + 1)) // 2)
            grid[max(0, cy - h2) : cy + h2 + 1, max(0, cx - w2) : cx + w2 + 1] = True
        else:
            r = s // 2
            y0, y1 = max(0, cy - r), min(height, cy + r + 1)
            x0, x1 = max(0, cx - r), min(width, cx + r + 1)
            ys, xs = np.ogrid[y0:y1, x0:x1]
            grid[y0:y1, x0:x1] |= (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r
    return from_raster(grid)
