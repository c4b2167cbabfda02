"""A sweep cell subprocess imports only the code its cell runs.

Each journalled cell is a fresh interpreter, so every module it imports
is paid for once per cell.  These tests spawn the runner's real
``run-cell`` command (``runner._cell_command`` under ``runner._cell_env``)
through a probe that runs the same ``-m`` module and, at exit, prints the
child's ``sys.modules`` to its stderr: on a warm trace cache under the event engine, a cell must not load
NumPy, the columnar or oracle engines, the compiler/CPU front-end, the
execution machines, the protection/snapshot/cost models, or any other
cell experiment.  The payload must still equal an in-process
``runner.run_cell`` on every engine, and a cold cell must still record
its trace (loading the execution machine on demand).
"""

import json
import sys

import pytest

from repro.chaos import plane as chaos_plane
from repro.evalx import runner
from repro.trace import cache as trace_cache
from repro.trace.replay import ENV_ENGINE

SCALE = 0.2
SEED = 3

#: (experiment, key) of the cells under test
CELLS = [("table1", "GateSim"), ("compression", "GateSim/nsf-line1")]

#: runs ``-m <module> <args>`` as ``python -m`` would, then reports the
#: interpreter's final ``sys.modules`` on stderr
PROBE = """
import atexit, json, runpy, sys
atexit.register(lambda: print("MODULES " + json.dumps(sorted(sys.modules)),
                              file=sys.stderr))
module = sys.argv[2]
sys.argv = [module] + sys.argv[3:]
runpy.run_module(module, run_name="__main__", alter_sys=True)
"""

#: modules no warm event-engine cell may import
NEVER_IMPORTED = (
    "numpy",
    "repro.trace.columnar", "repro.trace.oracle", "repro.trace.vector",
    "repro.lang", "repro.cpu", "repro.isa", "repro.asm",
    "repro.activation", "repro.runtime",
    "repro.core.resilience", "repro.core.snapshot", "repro.core.costs",
    "repro.core.faults",
)


def _spawn_cell(experiment, key, cache_dir, engine=None):
    """Run one ``run-cell`` subprocess; returns ``(payload, modules)``."""
    command = runner._cell_command(experiment, key, SCALE, SEED, 0)
    assert command[0] == sys.executable
    assert command[1] == "-m"
    command = [command[0], "-c", PROBE] + command[1:]
    env = runner._cell_env()
    env[trace_cache.ENV_DIR] = str(cache_dir)
    env.pop(chaos_plane.ENV_SEED, None)
    env.pop(trace_cache.ENV_DISABLE, None)
    env.pop(ENV_ENGINE, None)
    if engine is not None:
        env[ENV_ENGINE] = engine
    code, stdout, stderr, timed_out = runner.watched_run(
        command, env=env, timeout=120)
    assert not timed_out and code == 0, stderr[-2000:]
    report = stderr.strip().splitlines()[-1]
    assert report.startswith("MODULES "), stderr[-2000:]
    modules = set(json.loads(report[len("MODULES "):]))
    payload = json.loads(stdout.strip().splitlines()[-1])
    return payload, modules


def _in_process(experiment, key, cache_dir, monkeypatch):
    monkeypatch.setenv(trace_cache.ENV_DIR, str(cache_dir))
    monkeypatch.delenv(ENV_ENGINE, raising=False)
    return runner.run_cell(experiment, key, scale=SCALE, seed=SEED)


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A private trace cache holding every trace the cells replay."""
    cache_dir = tmp_path_factory.mktemp("lean-cells-cache")
    for experiment, key in CELLS:
        _spawn_cell(experiment, key, cache_dir)
    return cache_dir


@pytest.mark.parametrize("experiment,key", CELLS)
def test_warm_event_cell_imports_only_its_code(warm_cache, experiment,
                                                key, monkeypatch):
    payload, modules = _spawn_cell(experiment, key, warm_cache)
    # the probe sees the cell's own imports
    assert {f"repro.evalx.{experiment}", "repro.trace.cache"} <= modules
    loaded = sorted(name for name in modules
                    if any(name == banned or name.startswith(banned + ".")
                           for banned in NEVER_IMPORTED))
    assert loaded == []
    others = sorted(f"repro.evalx.{name}"
                    for name in runner.CELL_EXPERIMENTS
                    if name != experiment)
    assert sorted(set(others) & modules) == []
    assert payload == _in_process(experiment, key, warm_cache,
                                  monkeypatch)


@pytest.mark.parametrize("experiment,key", CELLS)
def test_oracle_cell_payload_is_identical(warm_cache, experiment, key):
    event, _ = _spawn_cell(experiment, key, warm_cache)
    oracle, _ = _spawn_cell(experiment, key, warm_cache, engine="oracle")
    assert oracle == event


def test_cold_cell_records_and_loads_the_machine(tmp_path, monkeypatch):
    cold = tmp_path / "cold-cache"
    log = tmp_path / "cache.log"
    monkeypatch.setenv(trace_cache.ENV_LOG, str(log))
    payload, modules = _spawn_cell("table1", "GateSim", cold)
    assert "RECORD" in log.read_text()
    assert "repro.activation.machine" in modules
    assert payload == _in_process("table1", "GateSim", tmp_path / "other",
                                  monkeypatch)
