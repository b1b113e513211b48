"""Benchmark sweep over structuring-element sizes and algorithm variants.

Only the operator call is timed; loading, generation and encoding stay
outside the timed section.  One warm-up call per case is discarded, then
the mean over the configured number of iterations is reported.  Failing
cases get a status note instead of aborting the sweep.  The rows are
written as CSV (``rows_to_csv``) or as an aligned table (``rows_to_table``).
"""
from __future__ import annotations

import csv
import io
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import generate, morphology, oracle
from .imgio import read_image
from .rle import RleImage

CSV_FIELDS = [
    "algorithm",
    "op",
    "se_shape",
    "se_size",
    "mean_ms",
    "runs_out",
    "pixels_out",
    "status",
]

_OPERATORS: dict[str, Callable[[RleImage, RleImage], RleImage]] = {
    "fast-erode": morphology.erode,
    "fast-dilate": morphology.dilate,
    "naive-erode": oracle.erode_naive,
    "naive-dilate": oracle.dilate_naive,
    "runs-erode": oracle.erode_runs,
}
ALGORITHMS = tuple(_OPERATORS)


class BenchConfigError(ValueError):
    pass


@dataclass
class BenchConfig:
    image_source: str
    se_shape: str = "square"  # square | diamond | file
    se_sizes: tuple[int, ...] = (3,)
    algorithms: tuple[str, ...] = ("fast-erode",)
    iterations: int = 3
    se_path: str | None = None

    def __post_init__(self) -> None:
        if not self.se_sizes:
            raise BenchConfigError("se_sizes must not be empty")
        if self.iterations < 1:
            raise BenchConfigError("iterations must be >= 1")
        if self.se_shape not in ("square", "diamond", "file"):
            raise BenchConfigError(f"unknown se_shape {self.se_shape!r}")
        if self.se_shape == "file" and not self.se_path:
            raise BenchConfigError("se_shape 'file' requires se_path")
        if self.se_shape == "file" and len(self.se_sizes) > 1:
            # The element comes whole from se_path; each size would time it again.
            raise BenchConfigError("se_shape 'file' takes a single se_sizes entry")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise BenchConfigError(f"unknown algorithm {algo!r}")


_SYNTH_RE = re.compile(
    r"^(random|blobs):(\d+)x(\d+)(?::density=([0-9.]+))?(?::seed=(\d+))?$"
)


def load_image_source(source: str) -> RleImage:
    """A file path, or a synthetic spec like 'blobs:1024x1024:seed=1' or
    'random:256x256:density=0.4:seed=7'."""
    m = _SYNTH_RE.match(source)
    if m:
        kind, w, h, density, seed = m.groups()
        w, h = int(w), int(h)
        seed = int(seed) if seed else 0
        if kind == "random":
            return generate.random_image(w, h, float(density or 0.5), seed)
        return generate.blob_image(w, h, seed=seed)
    return read_image(Path(source).read_bytes())[0]


def _make_se(config: BenchConfig, size: int) -> RleImage:
    if config.se_shape == "square":
        return generate.square_se(size)
    if config.se_shape == "diamond":
        return generate.diamond_se(size)
    return load_image_source(config.se_path)


def run_bench(
    config: BenchConfig, clock: Callable[[], float] = time.perf_counter
) -> list[dict]:
    image = load_image_source(config.image_source)
    rows: list[dict] = []
    for size in config.se_sizes:
        se = None
        for algo in config.algorithms:
            kind, op = algo.split("-")
            row = dict.fromkeys(CSV_FIELDS, "")
            row.update(algorithm=kind, op=op, se_shape=config.se_shape, se_size=size)
            try:
                if se is None:  # built once per size, or tried again after an error
                    se = _make_se(config, size)
                fn = _OPERATORS[algo]
                fn(image, se)  # warm-up, not timed
                elapsed = []
                for _ in range(config.iterations):
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
    lines = [f"{'algorithm':<10} {'op':<7} {'size':>5} {'mean_ms':>10} "
             f"{'runs':>8} {'pixels':>10}  status"]
    for r in rows:
        ms = f"{r['mean_ms']:.3f}" if r["mean_ms"] != "" else "-"
        lines.append(f"{r['algorithm']:<10} {r['op']:<7} {r['se_size']:>5} "
                     f"{ms:>10} {str(r['runs_out']):>8} "
                     f"{str(r['pixels_out']):>10}  {r['status']}")
    return "".join(line + "\n" for line in lines)
