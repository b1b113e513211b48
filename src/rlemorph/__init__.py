"""Fast erosion and dilation of run-length encoded binary images."""

from .rle import (
    EMPTY,
    Point,
    Rect,
    RleImage,
    Run,
    bounding_rect,
    complement_within,
    drop_short_runs,
    from_raster,
    intersect,
    normalize,
    reflect,
    to_raster,
    translate,
    union,
)
from .morphology import (
    EmptyStructuringElementError,
    ErodeTrace,
    ErosionTables,
    SkeletonTable,
    build_tables,
    dilate,
    erode,
    erode_check_at,
    generate_skeleton,
)

__all__ = [
    "EMPTY",
    "Point",
    "Rect",
    "RleImage",
    "Run",
    "bounding_rect",
    "complement_within",
    "drop_short_runs",
    "from_raster",
    "intersect",
    "normalize",
    "reflect",
    "to_raster",
    "translate",
    "union",
    "EmptyStructuringElementError",
    "ErodeTrace",
    "ErosionTables",
    "SkeletonTable",
    "build_tables",
    "dilate",
    "erode",
    "erode_check_at",
    "generate_skeleton",
]

__version__ = "0.1.0"
