"""Self-test of the benchmark at a tiny size (a few seconds in all).

    python3 -m pytest perfbench/test_bench.py -q

Not part of the repository's test suite (``testpaths`` is ``tests``).
"""
import json
import shutil
import subprocess
import sys

import pytest

import run
import worker
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_end_to_end_metric_and_no_failures(name):
    result = worker.run(name, 5, 0.0, False, shape=workloads.TINY)
    values, extra = run.end_to_end(result, [result["setup_s"]])
    assert [m["name"] for m in SPEC["end_to_end"] if m["name"] not in values] == []
    assert result["attempted"] >= 1
    assert result["failed"] == 0, [it["failures"] for r in result["rounds"]
                                   for it in r["items"] if it["failures"]]
    assert extra["failed_share"] == 0.0
    assert all(values[m["name"]] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_per_layer_metric_and_accounting(name):
    result = worker.run(name, 5, 0.0, True, shape=workloads.TINY)
    values, detail = run.per_layer(result)
    assert [m["name"] for m in SPEC["per_layer"] if m["name"] not in values] == []
    assert result["failed"] == 0
    assert detail["traced_rounds"] == 1
    layers = sum(v for k, v in values.items() if k.startswith("layer."))
    assert layers + values["trace.untraced_s"] == pytest.approx(
        values["trace.wall_s"])
    assert values["trace.untraced_s"] < 0.5 * values["trace.wall_s"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_wrong_oracle_value_fails_items(name):
    result = worker.run(name, 5, 0.0, False, shape=workloads.TINY,
                        oracle_offset=1e-6)
    law_items = {"sweep": len(workloads.TINY.sweep_N),
                 "large_n": result["attempted"],
                 "dense": len(workloads.TINY.dense)}[name]
    assert result["failed"] == law_items
    failures = [f for r in result["rounds"] for it in r["items"]
                for f in it["failures"]]
    assert any("oracle" in f for f in failures)


def test_layer_map_names_only_benchmark_metrics():
    layer_map = json.loads((run.HERE / "layers.json").read_text())
    names = {m["name"] for m in SPEC["per_layer"]}
    mapped = {n for entry in layer_map["map"] for n in entry["metrics"]}
    assert mapped <= names
    assert set(layer_map["computed"]) <= names
    assert set(layer_map["workloads"]) == {w["name"] for w in SPEC["workloads"]}


def test_refuses_to_run_without_the_package():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=60)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
