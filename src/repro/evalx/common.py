"""Shared configuration for the experiment harness.

The paper's §7 simulation setup:

* sequential programs: 20-register contexts, 80-register files;
* parallel programs: 32-register contexts, 128-register files;
* the segmented baseline has 4 equal frames;
* the NSF is organized with one register per line, LRU victims.

Execution engine: every sweep here is **replay-driven** by default.
The workload front-ends (activation machine, thread scheduler) are the
expensive part of a cell, and their event stream depends only on
``(workload, scale, seed)`` — so :func:`run_workload` fetches the
recorded trace from the content-addressed cache
(:mod:`repro.trace.cache`) and replays it onto the model under test,
exactly the paper's record-once/replay-many methodology.  The stats
are identical to direct execution by construction (pinned by
``tests/test_trace_crossvalidation.py`` and the golden tables); set
``REPRO_NO_TRACE_CACHE=1`` (or pass ``--no-trace-cache`` to the CLIs)
to force direct execution.
"""

from contextlib import contextmanager

from repro.core import NamedStateRegisterFile, SegmentedRegisterFile
from repro.trace import cache as trace_cache
from repro.trace.replay import replay, selected_engine

SEQ_REGISTERS = 80
PAR_REGISTERS = 128

#: the two representative applications of §7.2
REPRESENTATIVE_SEQUENTIAL = "GateSim"
REPRESENTATIVE_PARALLEL = "Gamteb"


def registers_for(workload):
    return SEQ_REGISTERS if workload.kind == "sequential" else PAR_REGISTERS


def make_nsf(workload, num_registers=None, line_size=1, **kw):
    """The paper's default NSF for a workload's register budget."""
    return NamedStateRegisterFile(
        num_registers=num_registers or registers_for(workload),
        context_size=workload.context_size,
        line_size=line_size,
        **kw,
    )


def make_segmented(workload, num_registers=None, **kw):
    """The paper's default segmented file (frames = context size)."""
    return SegmentedRegisterFile(
        num_registers=num_registers or registers_for(workload),
        context_size=workload.context_size,
        **kw,
    )


#: active :func:`capacity_plan` grids (innermost last)
_PLAN = []


@contextmanager
def capacity_plan(register_budgets):
    """Announce the register budgets the enclosed sweep will visit.

    Under ``--engine oracle`` every in-regime cell inside the block
    that replays a shared trace is served from the design-space tables
    of :mod:`repro.trace.oracle`: one stack-distance scan per (trace,
    design family) covers the *whole* announced grid, so each
    additional capacity point costs an O(1) table application instead
    of a replay.  (A per-model trace of a ``trace_stable = False``
    workload is valid for its one configuration and is tabled at that
    capacity alone, plan or no plan.)  Cells outside the oracle's
    exactness boundary (NMRU, line-scope reloads, wide-value traces)
    transparently fall back, and the other engines ignore the plan
    entirely — results are byte-identical across engines by
    construction.
    """
    _PLAN.append(tuple(int(b) for b in register_budgets))
    try:
        yield
    finally:
        _PLAN.pop()


def _replay(trace, model, budgets):
    """Replay through the engine ``REPRO_REPLAY_ENGINE`` selects.

    ``event`` (the default) is the scalar packed loop.  ``oracle``
    serves the cell from the trace's design-space tables over the
    register ``budgets`` grid unless that is ``None``, else
    synthesizes the statistics from the shared NumPy whole-trace
    analysis when the (trace, model) pair never evicts, and falls back
    to the scalar loop otherwise.  Both engines leave byte-identical
    statistics by construction; a model the oracle served is sealed
    (stats only, any access raises).  The oracle modules (and NumPy)
    load on the first oracle cell, so an event-engine sweep cell never
    imports them.
    """
    if selected_engine() == "oracle":
        from repro.trace.columnar import replay_columnar
        from repro.trace.oracle import serve_from_tables

        if budgets is not None and serve_from_tables(trace, model,
                                                     budgets):
            return model
        return replay_columnar(trace, model)
    return replay(trace, model, verify=False)


def run_workload(workload, model, scale=1.0, seed=1):
    """Drive ``model`` with ``workload``; returns the model.

    Replays the cached register-reference trace (recording it on first
    use) when the trace cache is enabled; falls back to executing the
    workload front-end directly when it is not.  Both paths leave
    byte-identical statistics on the model.

    Workloads whose stream is timing-sensitive (``trace_stable`` is
    False) get memoized execution instead of a shared trace: the cold
    run executes directly through a recorder, and only models with the
    identical configuration replay the cached stream.  Under
    ``oracle`` such a trace is tabled at the model's own capacity
    only, plan or no plan: it is valid for that one configuration.

    Degradation ladder: warm cache -> quarantine + re-record (inside
    the cache) -> on persistent storage failure, **direct execution**
    with the cache out of the loop — slower, but statistics identical
    by construction.  A cell therefore only ever surfaces an error in
    the journal when the computation itself fails, never because the
    disk lied.
    """
    if not trace_cache.enabled():
        workload.run(model, scale=scale, seed=seed)
        return model
    try:
        if workload.trace_stable:
            trace = trace_cache.load_or_record(workload, scale=scale,
                                               seed=seed)
            _replay(trace, model, _PLAN[-1] if _PLAN else None)
            return model
        trace = trace_cache.load_for_model(workload, model, scale=scale,
                                           seed=seed)
        if trace is not None:
            _replay(trace, model, ())
        else:
            trace_cache.record_through(workload, model, scale=scale,
                                       seed=seed)
        return model
    except OSError:
        # the cache's own retries/quarantine already failed: last rung
        workload.run(model, scale=scale, seed=seed)
        return model


def run_pair(workload, scale=1.0, seed=1, num_registers=None,
             nsf_kwargs=None, seg_kwargs=None):
    """Run one workload on a fresh NSF and segmented file; return stats.

    One recorded execution feeds both models (and every other cell that
    asks for the same ``(workload, scale, seed)``)."""
    nsf = make_nsf(workload, num_registers=num_registers,
                   **(nsf_kwargs or {}))
    seg = make_segmented(workload, num_registers=num_registers,
                         **(seg_kwargs or {}))
    run_workload(workload, nsf, scale=scale, seed=seed)
    run_workload(workload, seg, scale=scale, seed=seed)
    return nsf.stats, seg.stats
