"""The benchmark's own checks.

    python3 -m pytest perfbench -q

* the direct-execution reference every run checks its tables against
  equals the committed goldens at the golden point (scale 0.35, seed 11);
* one traced run per workload reads zero on every layer the
  workload is meant to bypass, so a "no change" prediction for that
  pairing is a real bypass and not a blind spot;
* outside a checkout the benchmark fails without printing a result.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark driver, imported as a module)

GOLDEN_DIR = run.ROOT / "benchmarks" / "golden"


def _reference(workload):
    bench = run.Run(workload, seed=11, scale=0.35, trace=False)
    try:
        return json.loads(bench.reference().read_text())
    finally:
        bench.close()


@pytest.mark.parametrize("workload", ["figs-event", "cells-jobs"])
def test_reference_equals_goldens_at_golden_point(workload):
    tables = _reference(workload)
    assert sorted(tables) == sorted(run.TABLES[run.WORKLOADS[workload]
                                               ["family"]])
    for name, table in tables.items():
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        assert (golden.pop("scale"), golden.pop("seed")) == (0.35, 11)
        assert table == golden, name


def _traced(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced():
    return {workload: _traced(workload) for workload in run.WORKLOADS}


def _layer(metrics, prefix):
    return {name: value for name, value in metrics.items()
            if name.startswith(prefix)}


@pytest.mark.parametrize("workload", ["figs-event", "cells-jobs"])
def test_oracle_and_vector_bypassed(traced, workload):
    for prefix in ("trace.oracle.", "trace.vector."):
        layer = _layer(traced[workload], prefix)
        assert layer and not any(layer.values()), (workload, layer)


@pytest.mark.parametrize("workload", ["figs-event", "figs-oracle"])
def test_runner_bypassed(traced, workload):
    layer = _layer(traced[workload], "evalx.runner.")
    assert layer and not any(layer.values()), (workload, layer)


def test_oracle_takes_events_off_the_hot_path(traced):
    event = traced["figs-event"]["trace.replay.events"]
    oracle = traced["figs-oracle"]["trace.replay.events"]
    assert event > 0 and oracle < 0.5 * event


def test_each_workload_loads_its_layers(traced):
    assert traced["figs-oracle"]["trace.oracle.scans"] > 0
    assert traced["cells-jobs"]["evalx.runner.cells"] == 19
    assert traced["figs-event"]["evalx.cells"] > 0


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "figs-event",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
