#!/usr/bin/env python3
"""Show the pixel-skipping behaviour of the jump scan on a small example.

Erodes an image by a structuring element while collecting the
instrumentation trace, then prints the backend of the scan, the
size of the run-indexed distance tables, how many candidate positions were
actually probed versus the total pixel count, the lockstep rounds of the
scan, the x_cut runs the vertical trim dropped, and the jump/hit events.
IMAGE and SE are file paths or specs as the rlemorph command line takes
them.

Usage:
    python3 scripts/trace_demo.py [IMAGE [SE]]
        (defaults: random:32x32:density=0.6:seed=7 square:3)
"""
import argparse
import sys

from rlemorph.bench import load_image_source
from rlemorph.morphology import BACKEND, ErodeTrace, build_tables, erode, generate_skeleton


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("image", metavar="IMAGE", nargs="?",
                    default="random:32x32:density=0.6:seed=7")
    ap.add_argument("se", metavar="SE", nargs="?", default="square:3")
    args = ap.parse_args(argv)

    image, _ = load_image_source(args.image)
    se, _ = load_image_source(args.se)
    skel = generate_skeleton(se)
    # Row blocks, as the scan's vertical trim derives them: a new one at
    # each step of more than one row between consecutive entries.
    sy = skel.entries[:, 1].tolist()
    n_blocks = 1 + sum(b - a > 1 for a, b in zip(sy, sy[1:]))

    tables = build_tables(image, skel)
    trace = ErodeTrace()
    result = erode(image, se, trace)

    total = image.pixel_count()
    print(f"backend: {BACKEND}")
    print(f"input: {total} pixels in {len(image)} runs")
    print(f"element: {args.se}, "
          f"{len(skel.entries)} skeleton entries in {n_blocks} row blocks, "
          f"l_min={skel.l_min}, l_max={skel.l_max}")
    print(f"output: {result.pixel_count()} pixels in {len(result)} runs")
    print(f"tables: {len(tables.left)} kept runs, left {tables.left.nbytes} B, "
          f"right {tables.right.nbytes} B, row_ptr {tables.row_ptr.nbytes} B, "
          f"{len(tables.x_cut)} x_cut runs")
    table_bytes = sum(a.nbytes for a in (tables.left, tables.right, tables.rows, tables.row_ptr))
    print(f"row index: {len(tables.rows)} kept rows, rows {tables.rows.nbytes} B, "
          f"{table_bytes} B in all")
    print()
    print(f"candidates examined : {trace.candidates:>6} "
          f"({trace.candidates / max(total, 1):.0%} of input pixels)")
    print(f"skeleton probes     : {trace.probes:>6}")
    print(f"lockstep rounds     : {trace.rounds:>6}")
    print(f"trimmed x_cut runs  : {trace.trimmed:>6} "
          f"(a row the element probes holds no kept run)")
    print(f"jump-on-miss events : {len(trace.jumps):>6} "
          f"(skipped {trace.jumps[:, 2].sum()} positions)")
    print(f"jump-on-hit events  : {len(trace.hits):>6} "
          f"(emitted {trace.hits[:, 2].sum()} pixels without per-pixel checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
