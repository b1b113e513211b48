"""Command-line front end.

Subcommands: erode, dilate, convert, bench; every image argument is read
by bench.load_image_source, as a file path or a spec such as square:31.
Exit codes: 0 success, 1 usage error, 2 IO/parse error, 3 domain error.
"""
from __future__ import annotations

import sys
from pathlib import Path

import click

from . import morphology
from .bench import _OPERATORS, load_image_source, rows_to_csv, rows_to_table, run_bench
from .imgio import (
    ImageFileMeta,
    PbmParseError,
    PbmWriteError,
    RleTextParseError,
    write_pbm,
    write_rle_text,
)
from .rle import RleImage, bounding_rect

FORMATS = ("pbm1", "pbm4", "rle")


class _DomainError(Exception):
    """An operator refused its valid inputs: exit code 3."""


def _save(img: RleImage, path: str, fmt: str | None, meta: ImageFileMeta | None) -> None:
    """Write img to path as fmt; with no fmt, as P1 for a .pbm suffix and as
    RLE text otherwise."""
    fmt = fmt or ("pbm1" if Path(path).suffix.lower() == ".pbm" else "rle")
    if fmt == "rle":
        Path(path).write_text(write_rle_text(img))
        return
    rect = bounding_rect(img)
    width, height = (meta.width, meta.height) if meta else (1, 1)
    if rect is not None:
        width, height = max(width, rect.r + 1), max(height, rect.b + 1)
    out_meta = ImageFileMeta(width, height)
    Path(path).write_bytes(write_pbm(img, out_meta, "P1" if fmt == "pbm1" else "P4"))


@click.group()
def cli() -> None:
    """Fast morphology on run-length encoded binary images.

    An image argument is a file path or a spec: random:WxH[:density=D][:seed=N],
    blobs:WxH[:seed=N], square:K, diamond:K, sparse:S, gap:W or tall:H.
    """


_output_opt = click.option("-o", "--output", required=True, help="output image path")
_format_opt = click.option(
    "--format", "fmt", type=click.Choice(FORMATS), default=None, help="output format"
)


def _operator_command(name: str) -> None:
    """Register the subcommand that applies morphology.<name> to INPUT."""

    @cli.command(name, help=f"{name.capitalize()} INPUT by the structuring element SE.")
    @click.argument("input_path", metavar="INPUT")
    @click.argument("se_source", metavar="SE")
    @_output_opt
    @_format_opt
    def command(input_path: str, se_source: str, output: str, fmt: str | None) -> None:
        img, meta = load_image_source(input_path)
        se, _ = load_image_source(se_source)
        try:
            result = getattr(morphology, name)(img, se)
        except ValueError as exc:  # the empty element, or a result beyond +-2**61
            raise _DomainError(exc) from exc
        _save(result, output, fmt, meta)
        click.echo(f"{name}: {len(result)} runs, {result.pixel_count()} pixels", err=True)


_operator_command("erode")
_operator_command("dilate")


@cli.command("bench")
@click.option("--image", "image_source", required=True,
              help="input path or synthetic spec like blobs:1024x1024:seed=1 or gap:1000000")
@click.option("--se", "elements", multiple=True, default=["square:3"], show_default=True,
              help="element path or spec like diamond:11; repeat to sweep elements")
@click.option("--algo", "algorithms", multiple=True, default=["fast-erode"], show_default=True,
              help=f"one of {', '.join(_OPERATORS)}; repeat to compare algorithms")
@click.option("--iterations", type=int, default=3, show_default=True)
@click.option("--csv", "csv_path", required=True, help="output CSV path")
def cmd_bench(image_source: str, elements: tuple[str, ...], algorithms: tuple[str, ...],
              iterations: int, csv_path: str) -> None:
    """Time operator calls over a structuring-element sweep; write the rows
    to the CSV file and print them as a table."""
    rows = run_bench(image_source, elements, algorithms, iterations)
    Path(csv_path).write_text(rows_to_csv(rows))
    click.echo(f"wrote {len(rows)} rows to {csv_path}", err=True)
    click.echo(rows_to_table(rows), nl=False)


@cli.command("convert")
@click.argument("input_path", metavar="INPUT")
@_output_opt
@_format_opt
def cmd_convert(input_path: str, output: str, fmt: str | None) -> None:
    """Write INPUT, a file or a synthetic spec, as PBM or RLE text."""
    img, meta = load_image_source(input_path)
    _save(img, output, fmt, meta)


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except (PbmParseError, RleTextParseError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except (_DomainError, PbmWriteError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except (click.UsageError, ValueError) as exc:
        # ValueError covers run_bench's argument checks and bad image specs
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
