"""Benchmark sweep over structuring elements and algorithm variants.

``run_bench`` takes ``rlemorph bench``'s option values as they are (the CLI
states the defaults) and refuses bad ones before anything is read.  The
image and every element are loaded once, before any timing; only the
operator call is timed.  One warm-up call per case is discarded, then the
mean over the given number of iterations is reported.  Failing cases get a
status note instead of aborting the sweep.  The rows are written as CSV
(``rows_to_csv``) or as an aligned table (``rows_to_table``).
"""
from __future__ import annotations

import csv
import io
import re
import time
from pathlib import Path
from typing import Callable, Sequence

from . import generate, morphology, oracle
from .imgio import ImageFileMeta, read_image
from .rle import RleImage, normalize

CSV_FIELDS = ["algorithm", "op", "se", "mean_ms", "runs_out", "pixels_out", "status"]

_OPERATORS: dict[str, Callable[[RleImage, RleImage], RleImage]] = {
    "fast-erode": morphology.erode,
    "fast-dilate": morphology.dilate,
    "naive-erode": oracle.erode_naive,
    "naive-dilate": oracle.dilate_naive,
    "runs-erode": oracle.erode_runs,
}

_SYNTH_RE = re.compile(
    r"^(random|blobs):(\d+)x(\d+)(?::density=([0-9.]+))?(?::seed=(\d+))?$"
)
# Images of one size parameter: the structuring elements, and images of a
# few runs whose bounding box grows with it, so a sweep over it shows
# whether a cost follows the runs or the box.
_SIZED_IMAGES = {
    **generate.ELEMENTS,
    # two 10x3 blocks at (0, 0) and (s, s)
    "sparse": lambda s: normalize([(dx, dx + 9, dx + y) for dx in (0, s) for y in range(3)]),
    # two rows w + 1 wide over a 6-wide row: gaps an erosion must cross
    "gap": lambda w: normalize([(0, w, 0), (0, w, 1), (0, 5, 2)]),
    # two 6-wide runs h rows apart
    "tall": lambda h: normalize([(0, 5, 0), (0, 5, h)]),
}
_SIZED_RE = re.compile(rf"^({'|'.join(_SIZED_IMAGES)}):(\d+)$")


def load_image_source(source: str) -> tuple[RleImage, ImageFileMeta | None]:
    """The image named by source, with its canvas as read_image gives it.

    source is a synthetic spec, 'random:WxH[:density=D][:seed=N]',
    'blobs:WxH[:seed=N]' (both on a W x H canvas), 'square:K', 'diamond:K',
    'sparse:S', 'gap:W' or 'tall:H'; anything else is read as a file path.
    """
    m = _SYNTH_RE.match(source)
    if m:
        kind, w, h, density, seed = m.groups()
        w, h = int(w), int(h)
        seed = int(seed) if seed else 0
        if kind == "random":
            image = generate.random_image(w, h, float(density or 0.5), seed)
        elif density is not None:
            raise ValueError(f"density applies to random images only: {source!r}")
        else:
            image = generate.blob_image(w, h, seed=seed)
        return image, ImageFileMeta(w, h)
    m = _SIZED_RE.match(source)
    if m:
        return _SIZED_IMAGES[m[1]](int(m[2])), None
    return read_image(Path(source).read_bytes())


def run_bench(image_source: str, elements: Sequence[str], algorithms: Sequence[str],
              iterations: int, clock: Callable[[], float] = time.perf_counter) -> list[dict]:
    """One row per element and algorithm, element-major.  The arguments are
    checked (ValueError) before anything is read, the image and the elements
    are read before any timing, and an operator's refusal is a row status."""
    if not elements:
        raise ValueError("elements must not be empty")
    if not algorithms:
        raise ValueError("algorithms must not be empty")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    for algo in algorithms:
        if algo not in _OPERATORS:
            raise ValueError(f"unknown algorithm {algo!r}")
    image, _ = load_image_source(image_source)
    loaded = [(spec, load_image_source(spec)[0]) for spec in elements]
    rows: list[dict] = []
    for spec, se in loaded:
        for algo in algorithms:
            fn = _OPERATORS[algo]
            kind, op = algo.split("-")
            row = dict.fromkeys(CSV_FIELDS, "")
            row.update(algorithm=kind, op=op, se=spec)
            try:
                fn(image, se)  # warm-up, not timed
                elapsed = []
                for _ in range(iterations):
                    t0 = clock()
                    result = fn(image, se)
                    t1 = clock()
                    elapsed.append(t1 - t0)
                row.update(mean_ms=sum(elapsed) / len(elapsed) * 1000.0,
                           runs_out=len(result), pixels_out=result.pixel_count(),
                           status="ok")
            except Exception as exc:
                row["status"] = f"error: {exc}"
            rows.append(row)
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def rows_to_table(rows: list[dict]) -> str:
    w = max(map(len, ["se", *(r["se"] for r in rows)]))
    lines = [f"{'algorithm':<10} {'op':<7} {'se':<{w}} {'mean_ms':>10} "
             f"{'runs':>8} {'pixels':>10}  status"]
    for r in rows:
        ms = f"{r['mean_ms']:.3f}" if r["mean_ms"] != "" else "-"
        lines.append(f"{r['algorithm']:<10} {r['op']:<7} {r['se']:<{w}} "
                     f"{ms:>10} {str(r['runs_out']):>8} "
                     f"{str(r['pixels_out']):>10}  {r['status']}")
    return "".join(line + "\n" for line in lines)
