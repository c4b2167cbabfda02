"""Columnar analysis of packed traces: no-eviction statistics synthesis.

The packed event array (four int64s per event, :mod:`repro.trace.events`)
is already columnar in spirit; this module finishes the job.  NumPy
views the flat ``array('q')`` buffer as an ``(n, 4)`` matrix and a
single global pass derives every statistic the scalar replay loop would
have accumulated one event at a time:

* context *instances* (the i-th ``BEGIN`` event; front-ends recycle
  context ids hundreds of times, so register lifetimes key on the
  instance, not the cid),
* per-register first-access positions (scatter stores over a dense
  ``instance * context_size + offset`` key space),
* the allocation / context-end timeline and its running line-usage
  curve (whose maximum is the trace's peak register demand),
* tick-weighted occupancy and resident-context integrals
  (``searchsorted`` of tick positions into the timeline),
* context-switch runs.

The analysis is **model independent** — it is computed once per trace
and memoized — and :func:`apply_analysis` then *synthesizes* the exact
replay statistics onto a concrete model in O(1).  This is the oracle
engine's per-model path (:func:`replay_columnar`) for cells no
capacity plan covers.

Exactness boundary
------------------

Synthesis reproduces the scalar replay's statistics byte for byte only
in the regime the analysis can prove from the trace alone:

* the model is a pristine (freshly built) ``NamedStateRegisterFile``
  with ``line_size=1``, an LRU-family policy (``lru``/``fifo``),
  write-allocate misses (``fetch_on_write=False``) and no dribble-back
  watermark;
* the trace never calls ``free_register``, carries no wide values,
  accesses contexts only between their ``BEGIN`` and ``END``, and every
  register's first access is a write (true of every recorder-produced
  trace whose workload ran strict);
* the peak number of simultaneously live registers fits in the file —
  i.e. **no eviction ever happens**.  Below that capacity the replay
  outcome depends on per-access stack depths; that is
  :mod:`repro.trace.oracle`'s job.

Anything outside the boundary degrades to the scalar fast path
(:func:`repro.trace.replay.replay`), which is exact by construction.
When NumPy is not installed every entry point degrades the same way,
so the ``perf`` extra is genuinely optional.

Sealed models
-------------

Synthesis writes statistics only; the model's lines, CAM, policy order
and contexts are never built.  :func:`seal` therefore turns every model
served this way (or from the oracle's tables) into a stats carrier:
``.stats`` and the backing store's word counters stay readable, and
any further access or checkpoint call raises
:class:`~repro.errors.SealedModelError` instead of reading stale state.
"""

from repro.core.backing import BackingStore
from repro.core.nsf import NamedStateRegisterFile
from repro.errors import SealedModelError
from repro.trace import cache as trace_cache
from repro.trace.events import (
    OP_BEGIN,
    OP_END,
    OP_FREE,
    OP_SWITCH,
    OP_TICK,
    OP_WRITE,
    Trace,
)
# the engine selection is re-exported for callers that read it here
from repro.trace.replay import (  # noqa: F401
    ENGINES,
    ENV_ENGINE,
    _replay_fast,
    replay as _event_replay,
    selected_engine,
)

try:  # pragma: no cover - exercised via the no-numpy CI leg
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: refuse to allocate dense scatter tables beyond this many keys
_MAX_KEY_SPACE = 1 << 20


def numpy_available():
    """True when the optional ``perf`` extra (NumPy) is importable."""
    return _np is not None


class TraceAnalysis:
    """Model-independent columnar digest of one packed trace."""

    __slots__ = (
        "n_reads", "n_writes", "n_keys", "instructions", "peak_lines",
        "contexts_created", "contexts_ended", "context_switches",
        "occupancy_weighted", "resident_contexts_weighted", "max_active",
        "max_resident",
    )


def _column_view(trace):
    """The packed buffer as an ``(n, 4)`` int64 matrix (zero copy)."""
    data, wide = trace.packed()
    if wide:
        return None
    if not len(data):
        return _np.empty((0, 4), dtype=_np.int64)
    return _np.frombuffer(data, dtype=_np.int64).reshape(-1, 4)


def analyze(trace):
    """Columnar analysis of ``trace``; ``None`` when out of regime.

    The result is memoized under a cache-served trace's content
    address (:func:`repro.trace.cache.derived`): a capacity sweep
    replays one trace against many models, and the analysis is the
    expensive (though vectorized) half of synthesis.
    """
    if _np is None or not isinstance(trace, Trace):
        return None
    memo = trace_cache.derived(trace)
    if memo is None:
        return _analyze_uncached(trace)
    if "analysis" not in memo:
        memo["analysis"] = _analyze_uncached(trace)
    return memo["analysis"]


def _analyze_uncached(trace):
    np = _np
    arr = _column_view(trace)
    if arr is None:
        return None
    ops = arr[:, 0]
    cids = arr[:, 1]
    offs = arr[:, 2]
    vals = arr[:, 3]

    if bool((ops == OP_FREE).any()):
        return None

    ctx = trace.context_size
    n_events = len(ops)
    acc_pos = np.flatnonzero(ops <= OP_WRITE)
    a = TraceAnalysis()

    # -- context instances --------------------------------------------------
    # Front-ends recycle context ids heavily (a call-depth-indexed cid
    # is begun and ended hundreds of times), so register lifetimes are
    # keyed by the *begin instance*, not the cid: instance i is the
    # i-th BEGIN event, and each access/END is attributed to the most
    # recent instance of its cid (vectorized searchsorted per cid).
    bg_pos = np.flatnonzero(ops == OP_BEGIN)
    bg_cids = cids[bg_pos]
    end_pos = np.flatnonzero(ops == OP_END)
    n_inst = len(bg_pos)
    if n_inst * ctx > _MAX_KEY_SPACE:
        return None
    acc_offs = offs[acc_pos]
    if len(acc_pos) and (int(acc_offs.min()) < 0
                         or int(acc_offs.max()) >= ctx):
        return None
    # One searchsorted over composite (cid, position) keys attributes
    # every access/END to the latest prior BEGIN of its cid: begins
    # sorted by (cid, pos) give strictly increasing keys, the query's
    # predecessor is the right instance iff its cid matches.
    if len(cids) and int(cids.min()) < 0:
        return None
    stride = n_events + 1
    max_cid = int(bg_cids.max()) if n_inst else 0
    if max_cid >= (1 << 62) // stride:
        return None  # composite key would overflow int64
    border = np.argsort(bg_cids, kind="stable")
    bkeys = bg_cids[border] * stride + bg_pos[border]

    def _attribute(q_pos):
        q_cids = cids[q_pos]
        g = np.searchsorted(bkeys, q_cids * stride + q_pos) - 1
        if not len(g):
            return g
        if int(g.min()) < 0:
            return None  # before the very first BEGIN in the trace
        inst = border[g]
        if not bool((bg_cids[inst] == q_cids).all()):
            return None  # access/END of a not-currently-begun context
        return inst

    acc_inst = _attribute(acc_pos)
    end_inst = _attribute(end_pos)
    if acc_inst is None or end_inst is None:
        return None

    # -- per-register first access ------------------------------------------
    if len(acc_pos):
        acc_keys = acc_inst * ctx + acc_offs
        first = np.full(n_inst * ctx, -1, dtype=np.int64)
        # scatter stores keep the *last* duplicate, so a reversed
        # scatter yields first occurrences
        first[acc_keys[::-1]] = acc_pos[::-1]
        used = np.flatnonzero(first >= 0)
        key_first = first[used]
        if not bool((ops[key_first] == OP_WRITE).all()):
            return None  # a cold read: demand reload, out of regime
        n_writes = int((ops[acc_pos] == OP_WRITE).sum())
        a.n_reads = int(len(acc_pos)) - n_writes
        a.n_writes = n_writes
        a.n_keys = int(len(used))
        key_inst = used // ctx
    else:
        key_first = key_inst = np.empty(0, dtype=np.int64)
        a.n_reads = a.n_writes = a.n_keys = 0

    # -- line-usage timeline ------------------------------------------------
    # +1 line at each first write, -k at each END freeing its context
    # instance's k lines (END spills nothing: nsf._on_end_context).
    inst_keys = np.bincount(key_inst, minlength=max(n_inst, 1))
    end_freed = inst_keys[end_inst] if len(end_pos) else end_inst
    alloc_sorted = np.sort(key_first)
    tl_pos = np.concatenate([alloc_sorted, end_pos])
    tl_delta = np.concatenate([
        np.ones(len(alloc_sorted), dtype=np.int64), -end_freed])
    usage = np.cumsum(tl_delta[np.argsort(tl_pos, kind="stable")])
    a.peak_lines = int(usage.max()) if len(usage) else 0

    # -- tick integrals -----------------------------------------------------
    tick_pos = np.flatnonzero(ops == OP_TICK)
    tick_ns = vals[tick_pos]
    a.instructions = int(tick_ns.sum()) if len(tick_pos) else 0
    if len(tick_pos):
        allocs_before = np.searchsorted(alloc_sorted, tick_pos)
        if len(end_pos):
            freed_cum = np.concatenate([[0], np.cumsum(end_freed)])
            freed_before = freed_cum[np.searchsorted(end_pos, tick_pos)]
            active = allocs_before - freed_before
        else:
            active = allocs_before
        a.occupancy_weighted = int(np.dot(active, tick_ns))
        a.max_active = int(active.max())
        # resident contexts: +1 at an instance's first allocation, -1
        # at its END (ENDs of instances that never wrote change nothing)
        inst_first = np.full(n_inst, n_events, dtype=np.int64)
        np.minimum.at(inst_first, key_inst, key_first)
        res_up = np.sort(inst_first[inst_first < n_events])
        res_down = end_pos[end_freed > 0] if len(end_pos) else end_pos
        resident = (np.searchsorted(res_up, tick_pos)
                    - np.searchsorted(res_down, tick_pos))
        a.resident_contexts_weighted = int(np.dot(resident, tick_ns))
        a.max_resident = int(resident.max())
    else:
        a.occupancy_weighted = a.resident_contexts_weighted = 0
        a.max_active = a.max_resident = 0

    a.context_switches = count_switches(ops, cids, end_pos)
    a.contexts_created = n_inst
    a.contexts_ended = int(len(end_pos))
    return a


def count_switches(ops, cids, end_pos):
    """The ``context_switches`` a replay of the columns would count.

    ``switch_to`` counts only actual changes of the current context,
    and an ``END`` of the current context clears it.  A sparse walk
    over the few hundred SWITCH/END events.
    """
    sw_pos = _np.flatnonzero(ops == OP_SWITCH)
    if not len(sw_pos):
        return 0
    order = _np.argsort(_np.concatenate([sw_pos, end_pos]), kind="stable")
    is_switch = (order < len(sw_pos)).tolist()
    seq = _np.concatenate([cids[sw_pos], cids[end_pos]])[order].tolist()
    current = None
    switches = 0
    for switch, cid in zip(is_switch, seq):
        if switch:
            if cid != current:
                switches += 1
                current = cid
        elif cid == current:
            current = None
    return switches


def pristine(model):
    """True when ``model`` has never been driven (nor served)."""
    s = model.stats
    return (s.reads == 0 and s.writes == 0 and s.instructions == 0
            and s.contexts_created == 0
            and not model._known_cids
            and model.current_cid is None
            and type(model.backing) is BackingStore
            and not model.backing.ctable._entries)


def supported_model(model):
    """True when ``model`` is a pristine NSF synthesis can target."""
    return (
        type(model) is NamedStateRegisterFile
        and model.line_size == 1
        and model._policy.name in ("lru", "fifo")
        and not model.fetch_on_write
        and not model.spill_watermark
        and not model._retired
        and not model._cam
        and model._active == 0
        and len(model._free) == model.num_lines
        and pristine(model)
    )


#: what a sealed model refuses: every access and checkpoint method
SEALED_METHODS = ("read", "write", "switch_to", "begin_context",
                  "end_context", "free_register", "capture", "restore")


def seal(model):
    """Make ``model`` a stats-only carrier; returns it.

    Shadows each of :data:`SEALED_METHODS` with an instance attribute
    that raises :class:`~repro.errors.SealedModelError`.  The model
    classes have no ``__slots__``, so models that are never sealed pay
    nothing for this.
    """
    owner = type(model).__name__
    for name in SEALED_METHODS:
        setattr(model, name, _refusal(owner, name))
    return model


def _refusal(owner, name):
    def refuse(*args, **kwargs):
        raise SealedModelError(owner, name)

    return refuse


def apply_analysis(analysis, model):
    """Synthesize the exact replay statistics onto ``model``.

    Returns False (model untouched) when the model is out of regime or
    the trace's peak register demand would force an eviction.  Returns
    True when ``model.stats`` now equals a scalar ``replay(trace,
    model, verify=False)``'s, O(1) per model; the model is then
    :func:`sealed <seal>`.
    """
    if analysis is None or not supported_model(model):
        return False
    if analysis.peak_lines > model.num_lines:
        return False  # evictions: per-access stack depth territory
    stats = model.stats
    stats.reads += analysis.n_reads
    stats.writes += analysis.n_writes
    stats.read_hits += analysis.n_reads
    stats.write_hits += analysis.n_writes - analysis.n_keys
    stats.write_misses += analysis.n_keys
    stats.instructions += analysis.instructions
    stats.occupancy_weighted += analysis.occupancy_weighted
    stats.resident_contexts_weighted += analysis.resident_contexts_weighted
    if analysis.max_active > stats.max_active_registers:
        stats.max_active_registers = analysis.max_active
    if analysis.max_resident > stats.max_resident_contexts:
        stats.max_resident_contexts = analysis.max_resident
    stats.contexts_created += analysis.contexts_created
    stats.contexts_ended += analysis.contexts_ended
    stats.context_switches += analysis.context_switches
    seal(model)
    return True


def replay_columnar(trace, model):
    """Single-model replay for the ``oracle`` engine.

    Synthesizes the statistics from the memoized whole-trace analysis
    when the (trace, model) pair is inside the no-eviction boundary
    (sealing the model), and falls back to the scalar packed loop
    otherwise.  Either way the statistics are byte-identical to
    ``replay(trace, model, verify=False)``.  Sweep drivers that know
    their capacity grid up front serve sub-peak cells from
    :func:`repro.trace.oracle.serve_from_tables` first.
    """
    if not isinstance(trace, Trace):
        return _event_replay(trace, model, verify=False)
    if model.context_size < trace.context_size:
        raise ValueError(
            f"model context_size {model.context_size} smaller than the "
            f"trace's {trace.context_size}"
        )
    # the model check is cheap; the analysis is not worth paying for
    # a cell certain to fall back
    if not (supported_model(model)
            and apply_analysis(analyze(trace), model)):
        _replay_fast(trace, model)
    return model
