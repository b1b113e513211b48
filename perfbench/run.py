"""rlemorph benchmark: one entry point for every workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload blobs-erode --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py): blobs-erode, blobs-dilate, dense-open,
files-wide.  Each run imports the library from ``src/`` of the checkout,
builds its inputs from the seed, runs the cases in a fixed cyclic order in
a closed loop with one caller, and checks every timed output against the
dense oracle's result, computed after the timed phase.

``--trace 0`` reports the end-to-end metrics ops_per_s, op_ms_p50,
op_ms_p90, setup_s and peak_rss_mb.  error_rate is printed beside them and
is ``failed / attempted`` of the result; it is not a metric of the JSON
line because it is 0 on every correct run.  ``--trace 1`` times the same
operations once untraced and once with spans around the library's public
functions (tracing.py), and reports per-layer times and counters plus the
tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full result, with the
environment record, the per-case breakdown and, for traced runs, the
spans, is written to perfbench/out/.  The run exits with 2 and prints no
result when the checkout has no library source.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# p90 needs at least ten samples beyond it.
MIN_OPS = 100
SETUPS = 3
# The instrumented Python scan copies both distance tables into lists;
# larger tables would take gigabytes, so those calls are not counted.
MAX_INSTRUMENTED_CELLS = 5_000_000

clock = time.perf_counter


def import_library() -> float:
    """Import rlemorph from this checkout's src/ and return the seconds it
    took.  Raises ImportError when the checkout has no library source."""
    if not (SRC / "rlemorph" / "__init__.py").is_file():
        raise ImportError(f"no library source under {SRC}")
    sys.path.insert(0, str(SRC))
    start = clock()
    import rlemorph
    import rlemorph.generate
    import rlemorph.imgio
    import rlemorph.morphology
    import rlemorph.oracle  # noqa: F401

    took = clock() - start
    if not Path(rlemorph.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"rlemorph was imported from {rlemorph.__file__}")
    return took


class Checker:
    """Keeps each case's distinct outputs with their counts, so that every
    timed output is compared with the reference after timing ends."""

    def __init__(self, n_cases: int) -> None:
        self.seen = [[] for _ in range(n_cases)]

    def record(self, i: int, out) -> None:
        for entry in self.seen[i]:
            if entry[0] == out:
                entry[1] += 1
                return
        self.seen[i].append([out, 1])

    def failures(self, cases) -> int:
        failed = 0
        for case, seen in zip(cases, self.seen):
            if seen:
                ref = case.reference()
                failed += sum(n for out, n in seen if out != ref)
        return failed


def closed_loop(cases, checker, seconds=0.0, min_ops=0, cycles=None, tracer=None, phase=""):
    """Run whole cycles of the cases, one call at a time, until `cycles`
    cycles are done or, without it, until `seconds` have passed and at
    least `min_ops` ops were attempted.  Returns (latencies, errors,
    cycles, ops) where ops lists (op_id, case_index, latency) of each
    completed op."""
    ops, errors, done = [], 0, 0
    start = clock()
    while True:
        for i, case in enumerate(cases):
            op_id = (phase, done, i)
            if tracer is not None:
                tracer.op = op_id
            t0 = clock()
            try:
                out = case.op()
            except Exception as exc:  # counted in error_rate, never aborts
                errors += 1
                print(f"error in {case.name}: {exc!r}", file=sys.stderr)
                continue
            finally:
                if tracer is not None:
                    tracer.op = None
            ops.append((op_id, i, clock() - t0))
            checker.record(i, out)
        done += 1
        if cycles is not None:
            if done >= cycles:
                break
        elif clock() - start >= seconds and len(ops) + errors >= min_ops:
            break
    return [lat for _, _, lat in ops], errors, done, ops


def setup(build, seed, scale):
    """Build the inputs and make one warm-up call, which is enough to load
    a compiled scan kernel; returns (workload, s)."""
    start = clock()
    workload = build(seed, scale)
    workload.cases[0].op()
    return workload, clock() - start


def environment(workload) -> dict:
    import numpy
    from rlemorph import rle

    backend = "numba" if importlib.util.find_spec("numba") else "python"
    env = {
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "inputs": {},
    }
    if backend == "python":
        env["note"] = "numba is not importable: the interpreted fallback scan was measured"
    for name, img in workload.inputs.items():
        rect = rle.bounding_rect(img)
        env["inputs"][name] = {
            "runs": len(img.runs),
            "pixels": img.pixel_count(),
            "bbox_area": rect.area if rect else 0,
        }
    return env


def end_to_end(name, build, seed, seconds, scale, import_s):
    setups = []
    for _ in range(SETUPS):
        workload = None  # let the previous set-up's inputs be freed first
        workload, took = setup(build, seed, scale)
        setups.append(took)
    cases = workload.cases
    checker = Checker(len(cases))
    start = clock()
    lat, errors, _, _ = closed_loop(cases, checker, cycles=1)
    # Peak memory over the set-ups and one pass over every case.  Later
    # cycles repeat that work; the allocator's slow drift over them would
    # make the figure depend on how many cycles the machine's speed allowed.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    more, more_errors, cycles, _ = closed_loop(
        cases, checker, seconds - (clock() - start), MIN_OPS - len(lat) - errors)
    lat += more
    errors += more_errors
    cycles += 1
    attempted = len(lat) + errors
    failed = errors + checker.failures(cases)
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[0]
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "op_ms_p50": (statistics.median(lat) * 1000, "ms"),
        "op_ms_p90": (p90 * 1000, "ms"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    beyond = sum(x > p90 for x in lat)
    notes = {
        "op_ms_p50": f"n={len(lat)}",
        "op_ms_p90": f"n={len(lat)}, {beyond} beyond",
        "setup_s": f"import {import_s:.3f} s + median of {SETUPS} set-ups "
        + ", ".join(f"{s:.3f}" for s in setups),
    }
    print(f"{name}: {len(cases)} cases, {cycles} cycles, {attempted} ops in {sum(lat):.2f} s of calls")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<12} {value:12.4f} {unit:<6} {notes.get(key, '')}")
    print(f"  {'error_rate':<12} {failed / attempted:12.4f} fraction ({failed} of {attempted})")
    return workload, attempted, failed, metrics, {}


LAYER_TIMES = (
    "morphology.erode", "morphology.dilate", "morphology.generate_skeleton",
    "morphology.build_tables", "rle.complement_within", "rle.translate",
    "rle.reflect", "rle.bounding_rect", "rle.from_raster", "rle.normalize",
    "imgio.read_pbm", "imgio.write_pbm", "imgio.read_rle_text",
    "imgio.write_rle_text",
)
SELF_TIMES = ("morphology.erode", "morphology.dilate")
CALLS = ("morphology.erode", "morphology.dilate", "rle.complement_within")
COUNTS = (
    "morphology.build_tables.bytes", "morphology.build_tables.runs_in",
    "morphology.build_tables.runs_dropped", "morphology.build_tables.x_cut_runs",
    "morphology.build_tables.x_cut_pixels", "morphology.generate_skeleton.entries",
    "rle.complement_within.rows", "rle.complement_within.runs_out",
    "imgio.bytes_in", "imgio.bytes_out",
)
SCAN_METRICS = ("candidates", "probes", "jumps", "hits")
# skipped_px and x_cut_pixels are kept per case for skip_ratio.
SCAN_COUNTS = SCAN_METRICS + ("skipped_px", "x_cut_pixels")


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def instrumented_scans(tracer, cases):
    """Repeat each erode call of the capture cycle with an ErodeTrace, the
    instrumented Python scan, and check that it gives the output of the
    timed call.  Returns ({case: {count: total}}, {case: [op_id]},
    attempted, failed, skipped)."""
    from rlemorph import morphology, rle

    scan = defaultdict(lambda: defaultdict(float))
    scan_ops = defaultdict(list)
    attempted = failed = skipped = 0
    for i, case in enumerate(cases):
        for j, (x, se, expected) in enumerate(tracer.erode_calls[("capture", 0, i)]):
            rect = rle.bounding_rect(x)
            if rect and (rect.width + 2) * (rect.height + 2) > MAX_INSTRUMENTED_CELLS:
                skipped += 1
                continue
            trace = morphology.ErodeTrace()
            op_id = ("instrumented", j, i)
            attempted += 1
            tracer.op, tracer.counting = op_id, True
            try:
                got = morphology.erode(x, se, trace)
            except Exception as exc:  # counted as a failure, never aborts
                print(f"error in instrumented {case.name}: {exc!r}", file=sys.stderr)
                failed += 1
                continue
            finally:
                tracer.op, tracer.counting = None, False
            if got != expected:
                failed += 1
                print(f"instrumented scan differs from the timed one in {case.name}", file=sys.stderr)
            scan_ops[i].append(op_id)
            s = scan[i]
            s["candidates"] += trace.candidates
            s["probes"] += trace.probes
            s["jumps"] += len(trace.jumps)
            s["hits"] += len(trace.hits)
            s["skipped_px"] += sum(k for _, _, k in trace.jumps)
            s["x_cut_pixels"] += tracer.counts[op_id]["morphology.build_tables.x_cut_pixels"]
    return scan, scan_ops, attempted, failed, skipped


def traced(name, build, seed, seconds, scale, import_s):
    from tracing import Tracer, span_times

    tracer = Tracer()
    with tracer:
        tracer.op = ("setup",)
        workload = build(seed, scale)
        tracer.op = None
    cases = workload.cases
    cases[0].op()
    checker = Checker(len(cases))
    # The untraced and the traced phase run the same number of cycles; the
    # ratio of their times is the tracing overhead.  One capture cycle in
    # between records counters and the erode calls to instrument.
    lat0, err0, cycles, _ = closed_loop(cases, checker, seconds / 2)
    with tracer:
        tracer.counting = True
        lat_c, err_c, _, _ = closed_loop(cases, checker, cycles=1, tracer=tracer, phase="capture")
        tracer.counting = False
        lat1, err1, _, ops = closed_loop(cases, checker, cycles=cycles, tracer=tracer, phase="traced")
        scan, scan_ops, scan_attempted, scan_failed, skipped = instrumented_scans(tracer, cases)
    attempted = len(lat0) + len(lat_c) + len(lat1) + err0 + err_c + err1 + scan_attempted
    failed = err0 + err_c + err1 + scan_failed + checker.failures(cases)

    times = span_times(tracer.spans)
    per_case = defaultdict(lambda: defaultdict(list))
    for op_id, i, _ in ops:
        t = times[op_id]
        for layer in LAYER_TIMES:
            per_case[i][f"{layer}.ms"].append(t[layer][0] * 1000 if layer in t else 0.0)
        for layer in SELF_TIMES:
            per_case[i][f"{layer}.self_ms"].append(t[layer][1] * 1000 if layer in t else 0.0)
        for layer in CALLS:
            per_case[i][f"{layer}.calls"].append(t[layer][2] if layer in t else 0)
        per_case[i]["imgio.calls"].append(sum(
            t[layer][2] for layer in LAYER_TIMES if layer.startswith("imgio.") and layer in t
        ))
    table = {}
    for i, case in enumerate(cases):
        row = {key: _mean(values) for key, values in per_case[i].items()}
        counts = tracer.counts[("capture", 0, i)]
        row.update({key: counts.get(key, 0) for key in COUNTS})
        if scan_ops[i]:
            for key in SCAN_COUNTS:
                row[f"morphology.scan.{key}"] = scan[i][key]
            row["morphology.scan.instrumented_self_ms"] = sum(
                times[op_id]["morphology.erode"][1] for op_id in scan_ops[i]) * 1000
        table[case.name] = row

    rows = list(table.values())
    metrics = {}
    for key in rows[0]:
        if not key.startswith("morphology.scan."):
            unit = "ms" if key.endswith("ms") else "B" if "bytes" in key else "count"
            metrics[key] = (_mean([row[key] for row in rows]), unit)
    counted = [row for row in rows if "morphology.scan.candidates" in row]
    for key in SCAN_METRICS:
        metrics[f"morphology.scan.{key}"] = (
            _mean([row[f"morphology.scan.{key}"] for row in counted]), "count")
    total = lambda key: sum(row[f"morphology.scan.{key}"] for row in counted)  # noqa: E731
    metrics["morphology.scan.skip_ratio"] = (
        total("skipped_px") / total("x_cut_pixels") if counted and total("x_cut_pixels") else 0.0,
        "ratio")
    metrics["morphology.scan.hit_ratio"] = (
        total("hits") / total("candidates") if counted and total("candidates") else 0.0, "ratio")
    metrics["morphology.scan.instrumented_self_ms"] = (
        _mean([row["morphology.scan.instrumented_self_ms"] for row in counted]), "ms")
    metrics["morphology.scan.kernel_self_ms"] = (
        _mean([row["morphology.erode.self_ms"] for row in counted]), "ms")
    metrics["generate.setup_ms"] = (
        sum(v[0] for k, v in times[("setup",)].items() if k.startswith("generate.")) * 1000, "ms")
    metrics["trace.overhead_pct"] = ((sum(lat1) / sum(lat0) - 1) * 100, "%")
    metrics["trace.ops"] = (len(lat1), "count")

    print(f"{name}: traced {len(lat1)} ops against {len(lat0)} untraced; "
          f"{skipped} erode calls too large for the instrumented scan")
    print("  scan counts are from the instrumented Python scan (ErodeTrace), not the timed kernel")
    for case_name, row in table.items():
        top = sorted(
            ((k, v) for k, v in row.items() if k.endswith("self_ms") or k.endswith(".ms")),
            key=lambda kv: -kv[1])[:4]
        print(f"  {case_name}: " + ", ".join(f"{k} {v:.2f}" for k, v in top)
              + f", tables {row['morphology.build_tables.bytes'] / 2**20:.1f} MiB")
    spans = [[list(op), sid, parent, span_name, start, end]
             for op, sid, parent, span_name, start, end in tracer.spans]
    return workload, attempted, failed, metrics, {"cases": table, "spans": spans}


def main(argv=None, scale=1.0, out_dir=OUT) -> int:
    ap = argparse.ArgumentParser(description="rlemorph benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        import_s = import_library()
    except ImportError as exc:
        print(f"cannot import the library: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    run = traced if args.trace else end_to_end
    workload, attempted, failed, metrics, extra = run(
        args.workload, WORKLOADS[args.workload], args.seed, args.seconds, scale, import_s)

    env = environment(workload)
    print("environment: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "environment": env, **result, **extra}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
