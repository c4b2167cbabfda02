"""The oracle's derived-results memo: one scan per trace and family.

The design-space tables of a cache-served trace are memoized under the
trace cache's content address and live exactly as long as the cache's
own memo entry.  These tests count :func:`repro.trace.oracle._family_tables`
calls (one per scan) to pin down that

* any number of interleaved traces keep their tables (no eviction);
* a figure sweep scans each shared trace once per design family, and
  each per-model trace (``trace_stable = False``) once, at its own
  capacity only — and the next figure over the same traces scans
  nothing;
* tables never outlive the bytes they were computed from;
* a per-model cell the tables serve is event-exact and sealed.

They run with and without NumPy: without it the LRU scans refuse, and
a refusal is memoized just like a table.
"""

import os

import pytest

from repro.errors import SealedModelError
from repro.evalx import fig11, fig12
from repro.evalx.common import (
    capacity_plan,
    make_nsf,
    make_segmented,
    run_workload,
)
from repro.trace import cache as trace_cache, columnar, oracle
from repro.trace.events import Trace, frame
from repro.trace.replay import replay
from repro.workloads import get_workload

SCALE = 0.1


@pytest.fixture(autouse=True)
def _fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(trace_cache.ENV_DIR, str(tmp_path / "cache"))
    monkeypatch.delenv(trace_cache.ENV_DISABLE, raising=False)
    monkeypatch.delenv(trace_cache.ENV_LOG, raising=False)
    monkeypatch.delenv(columnar.ENV_ENGINE, raising=False)
    trace_cache._memo.clear()
    yield
    trace_cache._memo.clear()


@pytest.fixture
def scans(monkeypatch):
    """Every scan as ``(trace file name, family, grid)``."""
    calls = []
    real = oracle._family_tables

    def counting(trace, family, caps):
        name = trace.cache_key[1] if trace.cache_key else None
        calls.append((name, family, tuple(caps)))
        return real(trace, family, caps)

    monkeypatch.setattr(oracle, "_family_tables", counting)
    return calls


def _oracle(monkeypatch):
    monkeypatch.setenv(columnar.ENV_ENGINE, "oracle")


def _models(workload, budget):
    """A design grid pure-Python scans serve (NumPy or not)."""
    return [make_nsf(workload, num_registers=budget, policy="fifo"),
            make_segmented(workload, num_registers=budget)]


def test_interleaved_traces_keep_their_tables(monkeypatch, scans):
    """Regression: a small FIFO memo evicted tables after 4 traces."""
    _oracle(monkeypatch)
    workload = get_workload("GateSim")
    budgets = [2 * workload.context_size, 4 * workload.context_size]
    seeds = range(1, 8)
    with capacity_plan(budgets):
        for seed in seeds:
            for budget in budgets:
                for model in _models(workload, budget):
                    run_workload(workload, model, scale=SCALE, seed=seed)
        first = len(scans)
        # one NSF scan and one segmented pair per trace
        assert first == 2 * len(seeds)
        for seed in seeds:
            for budget in budgets:
                for model in _models(workload, budget):
                    run_workload(workload, model, scale=SCALE, seed=seed)
    assert len(scans) == first


def test_figure_scans_once_per_trace_and_family(monkeypatch, scans):
    seq = get_workload(fig11.REPRESENTATIVE_SEQUENTIAL)
    par = get_workload(fig11.REPRESENTATIVE_PARALLEL)
    # warm the cache (Gamteb's per-model traces record through their
    # models on the cold run), then start from an empty process memo
    event_table = fig11.run(scale=SCALE).to_dict()
    trace_cache._memo.clear()
    assert not scans

    _oracle(monkeypatch)
    assert fig11.run(scale=SCALE).to_dict() == event_table
    prefix = f"{seq.name.lower()}-"
    shared = [call for call in scans if call[0].startswith(prefix)]
    per_model = [call for call in scans if not call[0].startswith(prefix)]
    assert sorted(family[0] for _, family, _ in shared) == ["nsf", "seg"]
    # every Gamteb cell (NSF and segmented, per frame count) has its
    # own trace and one scan of its own capacity
    cells = 2 * len(fig11.FRAME_SWEEP)
    assert len(per_model) == cells
    assert len({name for name, _, _ in per_model}) == cells
    assert all(name.startswith(f"{par.name.lower()}-")
               for name, _, _ in per_model)
    assert all(len(grid) == 1 for _, _, grid in per_model)

    before = len(scans)
    fig12.run(scale=SCALE)
    assert len(scans) == before


def test_rewritten_entry_drops_its_tables(monkeypatch, scans):
    workload = get_workload("GateSim")
    budget = 2 * workload.context_size
    stale = trace_cache.load_or_record(workload, scale=SCALE, seed=1)
    model = make_segmented(workload, num_registers=budget)
    assert oracle.serve_from_tables(stale, model, [budget])
    assert trace_cache.derived(stale)

    # another run's bytes land on the entry's file
    other = trace_cache.record_trace(workload, scale=SCALE, seed=2)
    path = trace_cache.trace_path(workload, SCALE, 1)
    path.write_bytes(frame(other.dumps_binary()))
    os.utime(path, ns=(1, 1))
    fresh = trace_cache.load_or_record(workload, scale=SCALE, seed=1)
    assert fresh is not stale and fresh == other
    assert trace_cache.derived(stale) is None

    served = make_segmented(workload, num_registers=budget)
    assert oracle.serve_from_tables(fresh, served, [budget])
    assert len(scans) == 2
    expected = replay(fresh, make_segmented(workload,
                                            num_registers=budget),
                      verify=False)
    assert served.stats.snapshot() == expected.stats.snapshot()

    trace_cache.clear()
    assert trace_cache.derived(fresh) is None


def test_hand_built_trace_is_not_memoized(scans):
    workload = get_workload("GateSim")
    cached = trace_cache.load_or_record(workload, scale=SCALE, seed=1)
    hand_built = Trace.loads_binary(cached.dumps_binary())
    assert hand_built.cache_key is None
    assert trace_cache.derived(hand_built) is None
    budget = 2 * workload.context_size
    for _ in range(2):
        model = make_segmented(workload, num_registers=budget)
        assert oracle.serve_from_tables(hand_built, model, [budget])
    assert len(scans) == 2


@pytest.mark.parametrize("kind", ["nsf", "segmented"])
def test_per_model_cell_served_at_own_capacity(monkeypatch, scans, kind):
    if kind == "nsf" and not columnar.numpy_available():
        pytest.skip("the NSF LRU scan needs the numpy perf extra")
    workload = get_workload("Gamteb")
    assert not workload.trace_stable
    make = make_nsf if kind == "nsf" else make_segmented
    budget = 3 * workload.context_size
    # cold run: direct execution through a recorder
    direct = run_workload(workload, make(workload, num_registers=budget),
                          scale=SCALE)
    assert not scans

    _oracle(monkeypatch)
    # outside any capacity plan: tabled at the model's own capacity
    served = run_workload(workload, make(workload, num_registers=budget),
                          scale=SCALE)
    assert served.stats.snapshot() == direct.stats.snapshot()
    assert served.backing.words_loaded == direct.backing.words_loaded
    assert served.backing.words_stored == direct.backing.words_stored
    for name in columnar.SEALED_METHODS:
        with pytest.raises(SealedModelError):
            getattr(served, name)()
    ((_, _, grid),) = scans
    assert len(grid) == 1
