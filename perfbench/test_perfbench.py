"""Tests of the benchmark itself: every workload at a tiny scale, both
modes, checked against the metric names and units in BENCHMARK.json."""
import json
import shutil
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(capsys, tmp_path, workload, trace):
    code = run.main(
        ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        scale=1 / 32,
        out_dir=tmp_path,
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("shape", ["square", "diamond"])
def test_reference_factors_add_up_to_the_element(shape):
    from rlemorph import oracle

    for size in range(1, 102, 2):
        el = workloads.element(shape, size)
        assert reduce(oracle.dilate_naive, el.factors) == el.se, el.name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics(capsys, tmp_path, workload):
    lines, result = _run(capsys, tmp_path, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    error_rate = [line.split() for line in lines if line.strip().startswith("error_rate")]
    assert error_rate and float(error_rate[0][1]) == 0.0
    env = json.loads(next(line for line in lines if line.startswith("environment: "))[13:])
    assert env["backend"] in ("numba", "python") and env["inputs"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_metrics(capsys, tmp_path, workload):
    from rlemorph import morphology, rle

    originals = (morphology.erode, morphology.complement_within, rle.normalize)
    _, result = _run(capsys, tmp_path, workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert (morphology.erode, morphology.complement_within, rle.normalize) == originals
    saved = json.loads((tmp_path / f"{workload}-seed0-trace1.json").read_text())
    assert saved["spans"] and saved["cases"]
    metrics = result["metrics"]
    if workload == "blobs-erode":
        assert metrics["rle.complement_within.calls"]["value"] == 0
        assert metrics["morphology.dilate.calls"]["value"] == 0
        assert metrics["imgio.calls"]["value"] == 0
        assert metrics["morphology.scan.candidates"]["value"] > 0
    if workload == "files-wide":
        sparse = [row for name, row in saved["cases"].items() if name.startswith("sparse")]
        table_bytes = [row["morphology.build_tables.bytes"] for row in sparse]
        assert len(table_bytes) == 3 and table_bytes == sorted(table_bytes)
        assert table_bytes[0] < table_bytes[-1]


def test_spans_nest_through_library_calls():
    from rlemorph import generate, morphology

    x = generate.blob_image(40, 40, seed=3)
    se = generate.square_se(3)
    tracer = tracing.Tracer()
    with tracer:
        tracer.op = "op"
        out = morphology.erode(x, se)
        tracer.op = None
    assert out == morphology.erode(x, se)
    names = {sid: name for _, sid, _, name, _, _ in tracer.spans}
    parents = {name: names.get(parent) for _, _, parent, name, _, _ in tracer.spans}
    assert parents["morphology.build_tables"] == "morphology.erode"
    assert parents["morphology.generate_skeleton"] == "morphology.erode"
    assert parents["morphology.erode"] is None
    times = tracing.span_times(tracer.spans)["op"]
    inclusive, self_time, calls = times["morphology.erode"]
    assert calls == 1 and 0 <= self_time <= inclusive


def test_fails_without_library_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "blobs-erode", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
