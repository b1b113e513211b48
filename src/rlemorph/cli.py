"""Command-line front end.

Subcommands: erode, dilate, gen-se, gen-image, bench, convert.
Exit codes: 0 success, 1 usage error, 2 IO/parse error, 3 domain error.
"""
from __future__ import annotations

import sys
from pathlib import Path

import click

from . import generate, morphology
from .bench import BenchConfig, rows_to_csv, rows_to_table, run_bench
from .imgio import (
    ImageFileMeta,
    PbmParseError,
    PbmWriteError,
    RleTextParseError,
    read_image,
    write_pbm,
    write_rle_text,
)
from .rle import RleImage, bounding_rect

FORMATS = ("pbm1", "pbm4", "rle")


def _load(path: str) -> tuple[RleImage, ImageFileMeta | None]:
    return read_image(Path(path).read_bytes())


def _guess_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    suffix = Path(path).suffix.lower()
    if suffix == ".pbm":
        return "pbm1"
    return "rle"


def _save(img: RleImage, path: str, fmt: str, meta: ImageFileMeta | None) -> None:
    if fmt == "rle":
        Path(path).write_text(write_rle_text(img))
        return
    rect = bounding_rect(img)
    width = meta.width if meta else 1
    height = meta.height if meta else 1
    if rect is not None:
        width = max(width, rect.r + 1)
        height = max(height, rect.b + 1)
    out_meta = ImageFileMeta(width, height)
    Path(path).write_bytes(write_pbm(img, out_meta, "P1" if fmt == "pbm1" else "P4"))


@click.group()
def cli() -> None:
    """Fast morphology on run-length encoded binary images."""


_output_opt = click.option("-o", "--output", required=True, help="output image path")
_format_opt = click.option(
    "--format", "fmt", type=click.Choice(FORMATS), default=None, help="output format"
)


@cli.command("erode")
@click.argument("input_path", metavar="INPUT")
@click.argument("se_path", metavar="SE")
@_output_opt
@_format_opt
def cmd_erode(input_path: str, se_path: str, output: str, fmt: str | None) -> None:
    """Erode INPUT by the structuring element SE."""
    img, meta = _load(input_path)
    se, _ = _load(se_path)
    result = morphology.erode(img, se)
    _save(result, output, _guess_format(output, fmt), meta)
    click.echo(
        f"erode: {len(result)} runs, {result.pixel_count()} pixels", err=True
    )


@cli.command("dilate")
@click.argument("input_path", metavar="INPUT")
@click.argument("se_path", metavar="SE")
@_output_opt
@_format_opt
def cmd_dilate(input_path: str, se_path: str, output: str, fmt: str | None) -> None:
    """Dilate INPUT by the structuring element SE."""
    img, meta = _load(input_path)
    se, _ = _load(se_path)
    result = morphology.dilate(img, se)
    _save(result, output, _guess_format(output, fmt), meta)
    click.echo(
        f"dilate: {len(result)} runs, {result.pixel_count()} pixels", err=True
    )


@cli.command("gen-se")
@click.argument("shape", type=click.Choice(["square", "diamond"]))
@click.argument("size", type=int)
@_output_opt
def cmd_gen_se(shape: str, size: int, output: str) -> None:
    """Write a SIZE x SIZE origin-centered structuring element as RLE text."""
    maker = generate.square_se if shape == "square" else generate.diamond_se
    se = maker(size)
    Path(output).write_text(write_rle_text(se))


@cli.command("gen-image")
@click.argument("kind", type=click.Choice(["random", "blobs"]))
@click.option("--width", type=int, required=True)
@click.option("--height", type=int, required=True)
@click.option("--density", type=float, default=0.5, help="random kind only")
@click.option("--blobs", "blob_count", type=int, default=40, help="blobs kind only")
@click.option("--min-size", type=int, default=8)
@click.option("--max-size", type=int, default=64)
@click.option("--seed", type=int, default=0)
@_output_opt
@_format_opt
def cmd_gen_image(
    kind: str,
    width: int,
    height: int,
    density: float,
    blob_count: int,
    min_size: int,
    max_size: int,
    seed: int,
    output: str,
    fmt: str | None,
) -> None:
    """Generate a deterministic synthetic test image."""
    if kind == "random":
        img = generate.random_image(width, height, density, seed)
    else:
        img = generate.blob_image(width, height, blob_count, min_size, max_size, seed)
    _save(img, output, _guess_format(output, fmt), ImageFileMeta(width, height))


@cli.command("bench")
@click.option("--image", "image_source", required=True,
              help="input path or synthetic spec like blobs:1024x1024:seed=1")
@click.option("--se-shape", type=click.Choice(["square", "diamond", "file"]),
              default="square")
@click.option("--se-sizes", default="3", help="comma-separated odd sizes")
@click.option("--se-path", default=None, help="element file for --se-shape file")
@click.option("--algos", default="fast-erode", help="comma-separated algorithm list")
@click.option("--iterations", type=int, default=3)
@click.option("--csv", "csv_path", required=True, help="output CSV path")
def cmd_bench(
    image_source: str,
    se_shape: str,
    se_sizes: str,
    se_path: str | None,
    algos: str,
    iterations: int,
    csv_path: str,
) -> None:
    """Time operator calls over a structuring-element size sweep; write the
    rows to the CSV file and print them as a table."""
    try:
        sizes = tuple(int(s) for s in se_sizes.split(",") if s.strip())
    except ValueError:
        raise click.BadParameter(f"bad --se-sizes {se_sizes!r}")
    config = BenchConfig(
        image_source=image_source,
        se_shape=se_shape,
        se_sizes=sizes,
        algorithms=tuple(a.strip() for a in algos.split(",") if a.strip()),
        iterations=iterations,
        se_path=se_path,
    )
    rows = run_bench(config)
    Path(csv_path).write_text(rows_to_csv(rows))
    click.echo(f"wrote {len(rows)} rows to {csv_path}", err=True)
    click.echo(rows_to_table(rows), nl=False)


@cli.command("convert")
@click.argument("input_path", metavar="INPUT")
@_output_opt
@_format_opt
def cmd_convert(input_path: str, output: str, fmt: str | None) -> None:
    """Loss-free conversion between PBM and RLE text."""
    img, meta = _load(input_path)
    _save(img, output, _guess_format(output, fmt), meta)


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except (PbmParseError, RleTextParseError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except (morphology.EmptyStructuringElementError, PbmWriteError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except (click.UsageError, ValueError) as exc:
        # ValueError covers BenchConfigError and generator parameter checks
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
