"""Columnar synthesis is byte-identical to scalar replay, and sealed.

Synthesis may only differ from the event loop in speed: inside the
exactness boundary it must leave the *same statistics* as
``replay(trace, model, verify=False)``, and because it never builds the
model's internal state, the served model must refuse every further
access instead of reading stale state.  Outside the boundary it must
fall back to the event loop.
"""

import pytest

from repro.errors import SealedModelError
from repro.evalx.common import capacity_plan, make_nsf, run_workload
from repro.trace import cache as trace_cache, columnar, oracle
from repro.trace.events import (
    OP_BEGIN,
    OP_END,
    OP_FREE,
    OP_READ,
    OP_WRITE,
    Trace,
)
from repro.trace.recorder import TracingRegisterFile
from repro.trace.replay import _dispatch_table, replay

pytestmark = pytest.mark.skipif(
    not columnar.numpy_available(),
    reason="columnar synthesis needs the numpy perf extra",
)


#: one call per sealed method, with arguments a live model would accept
SEALED_CALLS = (
    ("read", (0, 1)),
    ("write", (0, 5, 1)),
    ("switch_to", (1,)),
    ("begin_context", ()),
    ("end_context", (1,)),
    ("free_register", (0, 1)),
    ("capture", ()),
    ("restore", ({},)),
)


def assert_sealed(model):
    """Every access to a served model raises, and the refused calls
    leave its statistics and word counters exactly as they were."""
    assert {name for name, _ in SEALED_CALLS} == set(columnar.SEALED_METHODS)
    stats = model.stats.snapshot()
    words = (model.backing.words_stored, model.backing.words_loaded)
    for name, args in SEALED_CALLS:
        with pytest.raises(SealedModelError):
            getattr(model, name)(*args)
    assert model.stats.snapshot() == stats, \
        "a sealed model's statistics changed after a refused access"
    assert (model.backing.words_stored, model.backing.words_loaded) \
        == words


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A cache-served GateSim trace (so it has a content address)."""
    from repro.workloads import GateSim

    workload = GateSim()
    trace = trace_cache.load_or_record(
        workload, scale=0.15, seed=1,
        directory=tmp_path_factory.mktemp("cache"))
    return workload, trace


def _pair(workload, trace, **kw):
    scalar = make_nsf(workload, **kw)
    fast = make_nsf(workload, **kw)
    replay(trace, scalar, verify=False)
    columnar.replay_columnar(trace, fast)
    return scalar, fast


def test_analysis_covers_recorded_workloads(recorded):
    _, trace = recorded
    analysis = columnar.analyze(trace)
    assert analysis is not None
    assert analysis.peak_lines > 0
    # memoized under the trace's content address
    assert columnar.analyze(trace) is analysis


@pytest.mark.parametrize("policy", ["lru", "fifo"])
def test_synthesis_equals_scalar_replay(recorded, policy):
    workload, trace = recorded
    scalar, fast = _pair(workload, trace, policy=policy)
    served = make_nsf(workload, policy=policy)
    assert columnar.apply_analysis(columnar.analyze(trace), served)
    assert fast.stats.snapshot() == scalar.stats.snapshot()
    assert served.stats.snapshot() == scalar.stats.snapshot()
    assert_sealed(fast)
    assert_sealed(served)
    # a served model is no longer pristine: serving it twice refuses
    assert not columnar.apply_analysis(columnar.analyze(trace), served)


def test_apply_table_seals_served_models(recorded):
    from repro.core import SegmentedRegisterFile

    workload, trace = recorded
    ctx = trace.context_size
    nsf_table = oracle.capacity_tables(trace, [2, 4], line_size=2)[4]
    seg_table = oracle.segmented_tables(trace, [1, 2])[2]
    for table, build in (
            (nsf_table, lambda: make_nsf(workload, num_registers=8,
                                         line_size=2)),
            (seg_table, lambda: SegmentedRegisterFile(
                num_registers=2 * ctx, context_size=ctx))):
        event = replay(trace, build(), verify=False)
        served = oracle.apply_table(table, build())
        assert served.stats.snapshot() == event.stats.snapshot()
        assert (served.backing.words_stored, served.backing.words_loaded) \
            == (event.backing.words_stored, event.backing.words_loaded)
        assert_sealed(served)


def test_peak_boundary_is_exact(recorded):
    workload, trace = recorded
    peak = columnar.analyze(trace).peak_lines
    # at exactly peak lines synthesis still applies...
    assert columnar.apply_analysis(
        columnar.analyze(trace),
        make_nsf(workload, num_registers=peak))
    # ...one below, an eviction would happen: refuse
    assert not columnar.apply_analysis(
        columnar.analyze(trace),
        make_nsf(workload, num_registers=peak - 1))
    # and the engine falls back to the exact loop, leaving a live model
    scalar, fast = _pair(workload, trace, num_registers=peak - 1)
    assert fast.stats.snapshot() == scalar.stats.snapshot()
    assert fast.capture() == scalar.capture()


def test_used_model_falls_back(recorded):
    workload, trace = recorded
    model = make_nsf(workload)
    model.begin_context(cid=901)
    model.write(0, 42, cid=901)
    assert not columnar.supported_model(model)
    assert not columnar.apply_analysis(columnar.analyze(trace), model)


def test_out_of_regime_models_fall_back(recorded):
    workload, trace = recorded
    for kw in ({"line_size": 2}, {"policy": "nmru"},
               {"fetch_on_write": True}, {"spill_watermark": 4}):
        assert not columnar.apply_analysis(
            columnar.analyze(trace), make_nsf(workload, **kw))
        scalar, fast = _pair(workload, trace, **kw)
        assert fast.stats.snapshot() == scalar.stats.snapshot()


def test_out_of_regime_traces_analyze_to_none():
    cold_read = Trace(context_size=4)
    cold_read.append(OP_BEGIN, 1)
    cold_read.append(OP_READ, 1, 0, 0)
    assert columnar.analyze(cold_read) is None

    freed = Trace(context_size=4)
    freed.append(OP_BEGIN, 1)
    freed.append(OP_WRITE, 1, 0, 5)
    freed.append(OP_FREE, 1, 0)
    assert columnar.analyze(freed) is None

    unbegun = Trace(context_size=4)
    unbegun.append(OP_WRITE, 7, 0, 5)
    assert columnar.analyze(unbegun) is None

    wide = Trace(context_size=4)
    wide.append(OP_BEGIN, 1)
    wide.append_wide(OP_WRITE, 1, 0, 1 << 90)
    assert columnar.analyze(wide) is None


def test_cid_reuse_is_synthesized_exactly():
    """Front-ends recycle cids; instances must keep lifetimes apart."""
    trace = Trace(context_size=4)
    for generation in range(3):
        trace.append(OP_BEGIN, 5)
        trace.append(OP_WRITE, 5, 0, generation)
        trace.append(OP_WRITE, 5, generation + 1, generation)
        trace.append(OP_READ, 5, 0, 0)
        trace.append(OP_END, 5)
    trace.append(OP_BEGIN, 5)
    trace.append(OP_WRITE, 5, 2, 99)

    analysis = columnar.analyze(trace)
    assert analysis is not None

    def fresh():
        from repro.core import NamedStateRegisterFile

        return NamedStateRegisterFile(num_registers=8, context_size=4,
                                      line_size=1)

    scalar, fast = fresh(), fresh()
    replay(trace, scalar, verify=False)
    columnar.replay_columnar(trace, fast)
    assert fast.stats.snapshot() == scalar.stats.snapshot()
    assert_sealed(fast)


def test_missing_numpy_degrades_to_scalar(recorded, monkeypatch):
    workload, trace = recorded
    monkeypatch.setattr(columnar, "_np", None)
    trace_cache.clear_derived()
    assert not columnar.numpy_available()
    assert columnar.analyze(trace) is None
    scalar, fast = _pair(workload, trace)
    assert fast.stats.snapshot() == scalar.stats.snapshot()
    assert fast.capture() == scalar.capture()


def test_selected_engine_parsing(monkeypatch):
    assert columnar.ENGINES == ("event", "oracle")
    monkeypatch.delenv(columnar.ENV_ENGINE, raising=False)
    assert columnar.selected_engine() == "event"
    monkeypatch.setenv(columnar.ENV_ENGINE, "Oracle ")
    assert columnar.selected_engine() == "oracle"
    # the retired engine name is no longer recognized: default
    monkeypatch.setenv(columnar.ENV_ENGINE, "columnar")
    assert columnar.selected_engine() == "event"
    assert columnar.selected_engine(default="oracle") == "oracle"
    monkeypatch.setenv(columnar.ENV_ENGINE, "oracel")  # typo: default
    assert columnar.selected_engine() == "event"


@pytest.mark.parametrize("engine", ["columnar", "oracle"])
def test_run_workload_honors_engine_env(tmp_path, monkeypatch, engine):
    from repro.workloads import GateSim

    monkeypatch.setenv(trace_cache.ENV_DIR, str(tmp_path / "cache"))
    monkeypatch.delenv(trace_cache.ENV_DISABLE, raising=False)
    trace_cache._memo.clear()

    workload = GateSim()
    monkeypatch.delenv(columnar.ENV_ENGINE, raising=False)
    event_model = run_workload(workload, make_nsf(workload), scale=0.1)
    monkeypatch.setenv(columnar.ENV_ENGINE, engine)
    fast_model = run_workload(workload, make_nsf(workload), scale=0.1)
    assert fast_model.stats.snapshot() == event_model.stats.snapshot()
    if engine == "columnar":
        # the retired name selects event replay: a live, exact model
        assert fast_model.capture() == event_model.capture()
        return
    assert_sealed(fast_model)
    # below peak, inside a capacity plan: served from the oracle tables
    monkeypatch.delenv(columnar.ENV_ENGINE)
    small = run_workload(workload, make_nsf(workload, num_registers=6),
                         scale=0.1)
    monkeypatch.setenv(columnar.ENV_ENGINE, engine)
    with capacity_plan([6, 12]):
        served = run_workload(workload,
                              make_nsf(workload, num_registers=6),
                              scale=0.1)
    assert served.stats.snapshot() == small.stats.snapshot()
    assert_sealed(served)


def test_dispatch_table_cached_per_model(recorded):
    workload, trace = recorded
    model = make_nsf(workload)
    table = _dispatch_table(model)
    assert _dispatch_table(model) is table


def test_recorder_never_inherits_inner_dispatch_table(recorded):
    workload, _ = recorded
    inner = make_nsf(workload)
    inner_table = _dispatch_table(inner)  # cached on the inner model
    recorder = TracingRegisterFile(inner)
    table = _dispatch_table(recorder)
    assert table is not inner_table
    # cold ops through the recorder's table must be recorded
    table[OP_BEGIN](301, 0)
    table[OP_END](301, 0)
    ops = [event[0] for event in recorder.trace]
    assert ops == ["B", "E"]
