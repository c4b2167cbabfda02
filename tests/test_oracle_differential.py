"""The stack-distance oracle equals event-exact replay, everywhere.

Three rings of evidence:

* **Golden workloads.** For every recorded workload trace the paper's
  sweeps replay, :func:`capacity_curves` must reproduce the hit /
  spill / reload counters of an event-exact replay at every capacity
  on a grid straddling the trace's peak demand — including the
  sub-peak region where real evictions happen.
* **Sweep parity.** :func:`oracle_sweep` returns byte-identical stats
  snapshots to :func:`repro.trace.replay.sweep` across capacities and
  policies, including configurations (NMRU, FIFO) it can only serve by
  falling back to event replay.
* **Random traces.** Hypothesis generates arbitrary BEGIN / END /
  read / write interleavings and the curves must match replay at every
  tiny capacity, plus hold the Mattson monotonicity invariant.

The LRU scan is the NumPy kernel in :mod:`repro.trace.vector`; without
NumPy it refuses every trace (callers replay event by event), so the
LRU checks skip and only the pure-Python FIFO and segmented scans run.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import NamedStateRegisterFile
from repro.evalx.common import make_nsf
from repro.trace import columnar, oracle
from repro.trace.events import (
    OP_BEGIN,
    OP_END,
    OP_FREE,
    OP_READ,
    OP_WRITE,
    Trace,
)
from repro.trace.recorder import TracingRegisterFile
from repro.trace.replay import replay, sweep

needs_numpy = pytest.mark.skipif(
    not columnar.numpy_available(),
    reason="the LRU scan needs the numpy perf extra",
)

#: the policies whose scan runs here (LRU needs NumPy)
POLICIES = ("lru", "fifo") if columnar.numpy_available() else ("fifo",)

#: capacity-dependent stat fields the oracle predicts exactly
CURVE_FIELDS = (
    "reads", "writes", "read_hits", "read_misses", "write_hits",
    "write_misses", "registers_spilled", "lines_spilled",
    "live_registers_spilled", "registers_reloaded", "lines_reloaded",
    "live_registers_reloaded", "active_registers_reloaded",
    "raw_bytes_spilled", "wire_bytes_spilled", "raw_bytes_reloaded",
    "wire_bytes_reloaded",
)

#: (workload name, recording scale) — the golden sweeps' workloads
GOLDEN_WORKLOADS = [
    ("CompiledSuite", 0.4),
    ("GateSim", 0.15),
    ("Gamteb", 0.1),
]


def _record(name, scale):
    from repro import workloads

    workload = getattr(workloads, name)()
    recorder = TracingRegisterFile(make_nsf(workload))
    workload.run(recorder, scale=scale, seed=1)
    return workload, recorder.trace


@pytest.fixture(scope="module", params=GOLDEN_WORKLOADS,
                ids=[name for name, _ in GOLDEN_WORKLOADS])
def recorded(request):
    return _record(*request.param)


def _capacity_grid(trace):
    """Capacities straddling the trace's peak register demand."""
    analysis = columnar.analyze(trace)
    peak = analysis.peak_lines if analysis else 40
    grid = {max(1, peak // 4), max(1, peak // 2), peak - 1, peak,
            peak + 1, peak + 25}
    return sorted(c for c in grid if c >= 1)


def _event_model(trace, capacity, **kw):
    model = NamedStateRegisterFile(
        num_registers=capacity, context_size=trace.context_size,
        line_size=1, **kw)
    replay(trace, model, verify=False)
    return model


@needs_numpy
def test_curves_match_event_replay_on_golden_workloads(recorded):
    _, trace = recorded
    grid = _capacity_grid(trace)
    curves = oracle.capacity_curves(trace, grid)
    for capacity in grid:
        model = _event_model(trace, capacity)
        stats = model.stats
        for field in CURVE_FIELDS:
            assert curves[capacity][field] == getattr(stats, field), (
                f"capacity {capacity}: {field}")
        assert curves[capacity]["words_stored"] == \
            model.backing.words_stored
        assert curves[capacity]["words_loaded"] == \
            model.backing.words_loaded


def test_curves_match_event_replay_across_line_sizes_and_policies(
        recorded):
    """The design-space scan: line sizes x policies on every golden.

    Capacities are in *lines*; the grid straddles the trace's peak so
    sub-peak evictions, partial-line write allocates and line-granular
    valid masks are all exercised.
    """
    _, trace = recorded
    ctx = trace.context_size
    base = _capacity_grid(trace)
    for line_size in (1, 2, 4):
        grid = sorted({max(1, c // line_size) for c in base} | {1, 3})
        for policy in POLICIES:
            curves = oracle.capacity_curves(
                trace, grid, line_size=line_size, policy=policy)
            for cap in grid:
                model = NamedStateRegisterFile(
                    num_registers=cap * line_size, context_size=ctx,
                    line_size=line_size, policy=policy)
                replay(trace, model, verify=False)
                for field in CURVE_FIELDS:
                    assert curves[cap][field] == \
                        getattr(model.stats, field), (
                            f"L={line_size} {policy} cap={cap}: "
                            f"{field}")
                assert curves[cap]["words_stored"] == \
                    model.backing.words_stored
                assert curves[cap]["words_loaded"] == \
                    model.backing.words_loaded


def test_tables_match_event_snapshots_on_golden_workloads(recorded):
    """Full-snapshot parity: every stats field, not just the curve."""
    _, trace = recorded
    ctx = trace.context_size
    grid = sorted({max(1, c // 2) for c in _capacity_grid(trace)})
    for policy in POLICIES:
        tables = oracle.capacity_tables(trace, grid, line_size=2,
                                        policy=policy)
        for cap in grid:
            model = NamedStateRegisterFile(
                num_registers=cap * 2, context_size=ctx,
                line_size=2, policy=policy)
            replay(trace, model, verify=False)
            synth = NamedStateRegisterFile(
                num_registers=cap * 2, context_size=ctx,
                line_size=2, policy=policy)
            oracle.apply_table(tables[cap], synth)
            assert synth.stats.snapshot() == model.stats.snapshot(), (
                f"{policy} cap={cap}")
            assert synth.backing.words_stored == \
                model.backing.words_stored
            assert synth.backing.words_loaded == \
                model.backing.words_loaded


def test_segmented_tables_match_event_replay(recorded):
    """The segmented-frame oracle across spill modes and policies."""
    from repro.core import SegmentedRegisterFile

    _, trace = recorded
    ctx = trace.context_size
    frames = [1, 2, 4, 8]
    for spill_mode in ("frame", "live"):
        for policy in ("lru", "fifo"):
            tables = oracle.segmented_tables(
                trace, frames, spill_mode=spill_mode, policy=policy)
            for nf in frames:
                model = SegmentedRegisterFile(
                    num_registers=nf * ctx, context_size=ctx,
                    spill_mode=spill_mode, policy=policy)
                replay(trace, model, verify=False)
                synth = SegmentedRegisterFile(
                    num_registers=nf * ctx, context_size=ctx,
                    spill_mode=spill_mode, policy=policy)
                oracle.apply_table(tables[nf], synth)
                assert synth.stats.snapshot() == \
                    model.stats.snapshot(), (
                        f"{spill_mode} {policy} frames={nf}")
                assert synth.backing.words_stored == \
                    model.backing.words_stored
                assert synth.backing.words_loaded == \
                    model.backing.words_loaded


def _assert_scan_matches_event_replay(trace, grid, line_size):
    """One ``vector.lru_scan`` over ``grid`` (capacities in lines)
    equals an event-exact replay at every capacity, field by field."""
    from repro.trace import vector

    shared, percap = vector.lru_scan(trace, grid, 4, line_size)
    for cap in grid:
        model = NamedStateRegisterFile(
            num_registers=cap * line_size,
            context_size=trace.context_size, line_size=line_size)
        replay(trace, model, verify=False)
        stats = model.stats
        for field in ("reads", "writes", "instructions",
                      "contexts_created", "contexts_ended",
                      "context_switches"):
            assert shared[field] == getattr(stats, field), (
                f"L={line_size} cap={cap}: {field}")
        for field, value in percap[cap].items():
            if field in ("words_stored", "words_loaded"):
                want = getattr(model.backing, field)
            else:
                want = getattr(stats, field)
            assert value == want, f"L={line_size} cap={cap}: {field}"


@needs_numpy
def test_vector_kernel_matches_event_replay(recorded):
    """The NumPy windowed-stack kernel — the only LRU scan — equals
    event-exact replay at every line size on every golden trace."""
    _, trace = recorded
    grid = _capacity_grid(trace)
    for line_size in (1, 2, 4):
        _assert_scan_matches_event_replay(trace, grid, line_size)


@needs_numpy
def test_curves_cost_one_pass_regardless_of_grid(recorded):
    _, trace = recorded
    few = oracle.capacity_curves(trace, [8, 40])
    many = oracle.capacity_curves(trace, range(1, 121))
    for capacity, point in few.items():
        assert many[capacity] == point


def test_oracle_sweep_matches_event_sweep(recorded):
    workload, trace = recorded
    analysis = columnar.analyze(trace)
    peak = analysis.peak_lines if analysis else 40
    ctx = trace.context_size

    def factory(num_registers, policy):
        return NamedStateRegisterFile(
            num_registers=num_registers, context_size=ctx,
            line_size=1, policy=policy, policy_seed=3)

    configurations = [
        {"num_registers": n, "policy": policy}
        for n in (max(2, peak // 2), peak, peak + 40)
        for policy in ("lru", "fifo", "nmru")
    ]
    expected = sweep(trace, factory, configurations, verify=False)
    got = oracle.oracle_sweep(trace, factory, configurations)
    assert [config for config, _ in got] == \
        [config for config, _ in expected]
    for (_, got_stats), (_, want_stats) in zip(got, expected):
        assert got_stats.snapshot() == want_stats.snapshot()


def test_unsupported_traces_raise():
    for policy in POLICIES:
        trace = Trace(context_size=4)
        trace.append(OP_BEGIN, 1)
        trace.append(OP_WRITE, 1, 0, 7)
        trace.append(OP_READ, 1, 1, 0)  # cold read: demand reloads
        with pytest.raises(oracle.OracleUnsupported):
            oracle.capacity_curves(trace, [4], policy=policy)

        wide = Trace(context_size=4)
        wide.append(OP_BEGIN, 1)
        wide.append_wide(OP_WRITE, 1, 0, 1 << 80)
        with pytest.raises(oracle.OracleUnsupported):
            oracle.capacity_curves(wide, [4], policy=policy)

        with pytest.raises(oracle.OracleUnsupported):
            oracle.capacity_curves(Trace(context_size=4), [],
                                   policy=policy)

        freed = Trace(context_size=4)
        freed.append(OP_BEGIN, 1)
        freed.append(OP_WRITE, 1, 0, 7)
        freed.append(OP_FREE, 1, 0)  # line-granular FREE diverges
        with pytest.raises(oracle.OracleUnsupported):
            oracle.capacity_curves(freed, [4], line_size=2,
                                   policy=policy)
        # ... but at line_size 1 a FREE is an exact deletion
        assert oracle.capacity_curves(
            freed, [4], policy=policy)[4]["write_misses"] == 1


def test_lru_scan_without_numpy_refuses(monkeypatch):
    """No NumPy, no LRU scan: the refusal routes callers to event
    replay, and oracle_sweep stays exact through it."""
    from repro.trace import vector

    monkeypatch.setattr(vector, "_np", None)
    trace = Trace(context_size=4)
    trace.append(OP_BEGIN, 1)
    trace.append(OP_WRITE, 1, 0, 7)
    trace.append(OP_READ, 1, 0, 0)
    trace.append(OP_END, 1)
    with pytest.raises(oracle.OracleUnsupported, match="NumPy"):
        oracle.capacity_tables(trace, [1, 2])

    def factory(num_registers):
        return NamedStateRegisterFile(num_registers=num_registers,
                                      context_size=4, line_size=1)

    configurations = [{"num_registers": 1}]
    expected = sweep(trace, factory, configurations, verify=False)
    got = oracle.oracle_sweep(trace, factory, configurations)
    assert got[0][1].snapshot() == expected[0][1].snapshot()


# -- hypothesis: random traces -------------------------------------------

CTX = 4


@st.composite
def random_traces(draw):
    """A valid BEGIN/END/read/write/FREE interleaving over a tiny
    space — END and ``rfree`` churn drives the deletions-as-holes
    paths of the stack scan."""
    trace = Trace(context_size=CTX)
    live = {}
    opened = []
    next_cid = 0
    for _ in range(draw(st.integers(2, 40))):
        kinds = ["begin"]
        if opened:
            kinds += ["write"] * 4 + ["end", "free"]
            if any(live[cid] for cid in opened):
                kinds += ["read"] * 4
        kind = draw(st.sampled_from(kinds))
        if kind == "begin":
            cid = next_cid
            next_cid += 1
            trace.append(OP_BEGIN, cid)
            live[cid] = set()
            opened.append(cid)
        elif kind == "write":
            cid = draw(st.sampled_from(opened))
            offset = draw(st.integers(0, CTX - 1))
            trace.append(OP_WRITE, cid, offset,
                         draw(st.integers(0, 99)))
            live[cid].add(offset)
        elif kind == "read":
            cid = draw(st.sampled_from(
                [c for c in opened if live[c]]))
            offset = draw(st.sampled_from(sorted(live[cid])))
            trace.append(OP_READ, cid, offset, 0)
        elif kind == "free":
            # freeing a never-written offset is a legal no-op
            cid = draw(st.sampled_from(opened))
            offset = draw(st.integers(0, CTX - 1))
            trace.append(OP_FREE, cid, offset)
            live[cid].discard(offset)
        else:
            cid = draw(st.sampled_from(opened))
            trace.append(OP_END, cid)
            opened.remove(cid)
            del live[cid]
    return trace


@settings(max_examples=80, deadline=None)
@given(random_traces())
def test_curves_match_replay_on_random_traces(trace):
    capacities = list(range(1, 10))
    for policy in POLICIES:
        curves = oracle.capacity_curves(trace, capacities, policy=policy)
        for capacity in capacities:
            stats = _event_model(trace, capacity, policy=policy).stats
            for field in CURVE_FIELDS:
                assert curves[capacity][field] == \
                    getattr(stats, field), (
                        f"{policy} capacity {capacity}: {field}")


@needs_numpy
@settings(max_examples=80, deadline=None)
@given(random_traces())
def test_vector_kernel_matches_event_replay_on_random_traces(trace):
    """FREE/END churn at every line size: the kernel equals event
    replay wherever it accepts the trace, and refuses FREE only where
    partial lines make the shared stack diverge (``line_size > 1``)."""
    has_free = any(event[0] == "F" for event in trace)
    for line_size in (1, 2, 4):
        if has_free and line_size > 1:
            with pytest.raises(oracle.OracleUnsupported):
                oracle.capacity_tables(trace, [1], line_size=line_size)
            continue
        _assert_scan_matches_event_replay(trace, list(range(1, 8)),
                                          line_size)


@needs_numpy
@settings(max_examples=80, deadline=None)
@given(random_traces())
def test_curves_are_monotone_in_capacity(trace):
    capacities = list(range(1, 12))
    curves = oracle.capacity_curves(trace, capacities)
    for small, big in zip(capacities, capacities[1:]):
        for field in ("read_misses", "write_misses",
                      "registers_spilled", "registers_reloaded"):
            assert curves[small][field] >= curves[big][field]


@settings(max_examples=40, deadline=None)
@given(random_traces())
def test_oracle_sweep_matches_replay_on_random_traces(trace):
    def factory(num_registers):
        return NamedStateRegisterFile(
            num_registers=num_registers, context_size=CTX, line_size=1)

    configurations = [{"num_registers": n} for n in (2, 5, 64)]
    expected = sweep(trace, factory, configurations, verify=False)
    got = oracle.oracle_sweep(trace, factory, configurations)
    for (_, got_stats), (_, want_stats) in zip(got, expected):
        assert got_stats.snapshot() == want_stats.snapshot()
