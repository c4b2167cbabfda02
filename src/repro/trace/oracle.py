"""One-pass design-space oracle for register-file sweeps.

The paper's capacity studies (figs 9-14) replay the same trace against
many register-file configurations.  Mattson's classic observation is
that for stack algorithms (LRU) a single pass over the reference
stream yields the miss count of *every* capacity at once: keep the
references on a recency stack, record each re-reference's stack depth
in a histogram, and ``misses(C)`` is the histogram's suffix sum from
depth ``C``.

This module generalizes that pass into a full design-space oracle:

* **Deletions as holes.**  ``END`` (and, at ``line_size=1``, ``FREE``)
  frees registers with no spill traffic; in a capacity-``C`` file
  those lines enter the free list.  The oracle models each freed line
  as a *hole* left in place on the recency stack (same timestamp).  A
  hole above a re-referenced item is a free line in every file small
  enough to matter, so the re-reference consumes the topmost hole and
  leaves a new hole at its own old depth; a write-allocate of a fresh
  line likewise consumes the topmost hole.  An allocation evicts in
  file ``C`` only when ``C <= min(depth of topmost hole, stack size)``
  — i.e. when file ``C`` is full *and* has no free line.
* **Line granularity.**  For ``line_size`` L > 1 the stack keys are
  ``(context instance, line_no)`` and each line slot carries a
  *validity threshold*: the maximum stack depth the line has been
  re-referenced at since the slot was last touched.  Slot ``o`` of a
  line currently at depth ``p`` is valid exactly in files with
  ``C > max(threshold[o], p)`` — files small enough to have evicted
  the line since ``o``'s last touch hold a partially-valid reinstall.
  This yields, still in one walk, the exact per-capacity split between
  full-line read misses (line absent: fill + one-register demand
  reload) and replaced-slot misses (line resident, slot invalid:
  single-register reload, no fill), write-allocate partial lines
  (a write to any slot of an absent line rebinds the line with only
  that slot valid), and per-eviction live-register spill counts (a
  slot is spilled live in every file ``C <= max(threshold, depth)``,
  exactly once per validity span — a histogram, not a per-capacity
  walk).
* **Write-allocate.**  A write to a resident line always hits; a write
  to an absent line misses at every ``C <= depth`` and binds the line
  without a reload (``fetch_on_write=False``); only read misses fetch.
* **FIFO.**  FIFO lacks the stack inclusion property, so
  ``policy="fifo"`` runs a direct capacity-synchronized simulation:
  per-line residency bitmasks over the capacity grid and one lazy
  FIFO queue per capacity.  Hits cost O(1) (FIFO never reorders on a
  hit); per-capacity work is paid only on misses.
* **Segmented frames.**  :func:`segmented_tables` treats frames as
  lines of size ``frame_size`` with whole-frame or live-only spill
  costing (the shared :func:`repro.core.segmented.frame_transfer_cost`
  rule) and the segmented file's window-underflow reload semantics
  (only contexts that were ever evicted pay restore traffic).  One
  synchronized walk produces the exact snapshot for every frame count.

:func:`capacity_tables` / :func:`segmented_tables` return the *full*
:class:`~repro.core.stats.RegFileStats` snapshot per capacity —
occupancy and residency tick-integrals, tick-sampled maxima, context
lifecycle counts — so an in-regime sweep cell is an O(1) dictionary
lookup after one shared scan (:func:`oracle_sweep`,
:func:`serve_from_tables`); :func:`capacity_curves` projects the
tables onto the capacity-dependent counters.  A model served from a
table carries the statistics only, and is sealed
(:func:`repro.trace.columnar.seal`): any further access raises.

Exactness boundary (checked, ``OracleUnsupported`` otherwise): NSF
semantics with ``reload_scope="register"`` + ``fetch_on_write=False``,
LRU or FIFO, any ``line_size`` (``FREE`` ops only at ``line_size=1`` —
per-capacity partial-line divergence breaks the shared stack
otherwise), traces with no wide values and no cold reads; segmented
files with LRU or FIFO.  Everything else — NMRU's RNG draws,
``reload_scope="line"``, ``fetch_on_write=True`` (fig13's regime) —
falls back to event-exact replay per cell.

Positions are 0-based depths: the most recent entry is at depth 0, a
re-reference at depth ``p`` hits every file with ``C > p``.

The LRU pass runs on the NumPy kernel in :mod:`repro.trace.vector`
(batched composite-key searchsorted preprocessing feeding a windowed
recency stack).  Without NumPy it raises :class:`OracleUnsupported`,
and every caller falls back to event replay, the exactness reference.
The FIFO and segmented passes below are pure Python.
"""

from collections import OrderedDict, deque

from repro.core.nsf import NamedStateRegisterFile
from repro.core.segmented import SegmentedRegisterFile
from repro.trace import cache as trace_cache, vector
from repro.trace.columnar import (
    analyze,
    apply_analysis,
    pristine,
    seal,
)
from repro.trace.events import (
    OP_BEGIN,
    OP_END,
    OP_FREE,
    OP_READ,
    OP_SWITCH,
    OP_TICK,
    OP_WRITE,
    Trace,
)
from repro.trace.replay import replay as _event_replay

__all__ = [
    "OracleUnsupported",
    "capacity_curves",
    "capacity_tables",
    "segmented_tables",
    "classify_model",
    "apply_table",
    "tables_for_model",
    "serve_from_tables",
    "oracle_sweep",
]


class OracleUnsupported(ValueError):
    """The trace or model is outside the oracle's exactness boundary."""


def _suffix_sums(histogram):
    out = histogram[:]
    for i in range(len(out) - 2, -1, -1):
        out[i] += out[i + 1]
    return out


class _PerCap:
    """Per-capacity occupancy/residency integrals and tick maxima.

    ``RegFileStats.tick`` integrates ``active * n`` and folds the
    maxima *at tick time*, so a value held across zero ticks is never
    sampled.  This accumulator reproduces that exactly with O(1) ticks:
    the global tick counter only advances on TICK, and each
    per-capacity value is flushed lazily when it changes — if ticks
    elapsed while it was held, the hold is integrated and the held
    value folded into the max (at least one tick sampled it).
    """

    __slots__ = ("caps", "K", "gt", "active", "occ", "occ_mark",
                 "rc", "rcw", "rc_mark", "max_active", "max_rc",
                 "inst_lines")

    def __init__(self, caps):
        K = len(caps)
        self.caps = caps
        self.K = K
        self.gt = 0
        self.active = [0] * K
        self.occ = [0] * K
        self.occ_mark = [0] * K
        self.rc = [0] * K
        self.rcw = [0] * K
        self.rc_mark = [0] * K
        self.max_active = [0] * K
        self.max_rc = [0] * K
        self.inst_lines = {}  # instance -> per-capacity resident lines

    def tick(self, n):
        self.gt += n

    def add_active(self, ci, delta):
        gt = self.gt
        mark = self.occ_mark[ci]
        a = self.active[ci]
        if gt > mark:
            self.occ[ci] += a * (gt - mark)
            self.occ_mark[ci] = gt
            if a > self.max_active[ci]:
                self.max_active[ci] = a
        self.active[ci] = a + delta

    def _bump_rc(self, ci, delta):
        gt = self.gt
        mark = self.rc_mark[ci]
        r = self.rc[ci]
        if gt > mark:
            self.rcw[ci] += r * (gt - mark)
            self.rc_mark[ci] = gt
            if r > self.max_rc[ci]:
                self.max_rc[ci] = r
        self.rc[ci] = r + delta

    def line_in(self, inst, ci):
        lst = self.inst_lines[inst]
        lst[ci] += 1
        if lst[ci] == 1:
            self._bump_rc(ci, 1)

    def line_out(self, inst, ci):
        lst = self.inst_lines[inst]
        lst[ci] -= 1
        if lst[ci] == 0:
            self._bump_rc(ci, -1)

    def begin(self, inst):
        self.inst_lines[inst] = [0] * self.K

    def end(self, inst):
        del self.inst_lines[inst]

    def finalize(self):
        gt = self.gt
        for ci in range(self.K):
            mark = self.occ_mark[ci]
            if gt > mark:
                a = self.active[ci]
                self.occ[ci] += a * (gt - mark)
                if a > self.max_active[ci]:
                    self.max_active[ci] = a
                self.occ_mark[ci] = gt
            mark = self.rc_mark[ci]
            if gt > mark:
                r = self.rc[ci]
                self.rcw[ci] += r * (gt - mark)
                if r > self.max_rc[ci]:
                    self.max_rc[ci] = r
                self.rc_mark[ci] = gt


def _check_trace(trace, capacities):
    if not isinstance(trace, Trace):
        raise OracleUnsupported("oracle needs a packed Trace")
    data, wide = trace.packed()
    if wide:
        raise OracleUnsupported("trace carries wide values")
    capacities = sorted(set(int(c) for c in capacities))
    if not capacities or capacities[0] < 1:
        raise OracleUnsupported("capacities must be positive integers")
    return data, capacities


def _bits(mask):
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


def _scan_fifo(trace, capacities, word_bytes, line_size):
    """Capacity-synchronized FIFO simulation at line granularity.

    FIFO has no stack inclusion property, so every capacity is
    simulated directly — but synchronized on one walk, with per-line
    residency and per-slot validity as bitmasks over the capacity
    grid.  A hit changes no FIFO state, so the (dominant) all-valid
    case costs O(1); per-capacity work is paid only on misses.
    """
    data, caps = _check_trace(trace, capacities)
    L = line_size
    ctx = trace.context_size
    nlpc = (ctx - 1) // L + 1
    K = len(caps)
    full = (1 << K) - 1

    res = {}        # line key -> residency mask over the grid
    val = {}        # slot key -> validity mask (presence == written)
    gen = {}        # line key -> per-capacity install generation
    queues = [deque() for _ in range(K)]
    used = [0] * K
    cur_inst = {}
    inst_live = {}
    next_inst = 0
    reads = writes = 0
    n_begin = n_end = n_switch = 0
    cur_cid = None
    rm = [0] * K
    wm = [0] * K
    fills = [0] * K
    evs = [0] * K
    lvs = [0] * K
    per = _PerCap(caps)

    def evict_into(ci):
        """Free one line in file ``ci`` by FIFO eviction."""
        q = queues[ci]
        while True:
            vkey, g = q.popleft()
            glist = gen.get(vkey)
            if (glist is not None and glist[ci] == g
                    and (res.get(vkey, 0) >> ci) & 1):
                break
        evs[ci] += 1
        live = 0
        base = vkey * L
        bit = 1 << ci
        for s in range(L):
            okey = base + s
            v = val.get(okey)
            if v is not None and v & bit:
                val[okey] = v & ~bit
                live += 1
        lvs[ci] += live
        res[vkey] &= ~bit
        if live:
            per.add_active(ci, -live)
        per.line_out(vkey // nlpc, ci)

    def install(ci, lkey, inst):
        if used[ci] == caps[ci]:
            evict_into(ci)
        else:
            used[ci] += 1
        glist = gen.get(lkey)
        if glist is None:
            glist = gen[lkey] = [0] * K
        glist[ci] += 1
        queues[ci].append((lkey, glist[ci]))
        per.line_in(inst, ci)

    it = iter(data.tolist())
    for op, cid, offset, value in zip(it, it, it, it):
        if op <= OP_WRITE:
            inst = cur_inst.get(cid)
            if inst is None:
                raise OracleUnsupported(
                    f"access to context {cid} outside BEGIN/END")
            if L == 1:
                lkey = inst * nlpc + offset
                okey = lkey
            else:
                line_no, slot = divmod(offset, L)
                lkey = inst * nlpc + line_no
                okey = lkey * L + slot
            if op == OP_READ:
                reads += 1
                vmask = val.get(okey)
                if vmask is None:
                    raise OracleUnsupported(
                        f"cold read of ({cid}, {offset})")
                miss = full & ~vmask
                if not miss:
                    continue
                rmask = res.get(lkey, 0)
                for ci in _bits(miss):
                    rm[ci] += 1
                    if not (rmask >> ci) & 1:
                        fills[ci] += 1
                        install(ci, lkey, inst)
                    per.add_active(ci, 1)
                val[okey] = full
                res[lkey] = rmask | miss
            else:
                writes += 1
                rmask = res.get(lkey, 0)
                miss = full & ~rmask
                vmask = val.get(okey, 0)
                if miss:
                    for ci in _bits(miss):
                        wm[ci] += 1
                        install(ci, lkey, inst)
                    res[lkey] = full
                    inst_live[inst].add(lkey)
                newly = full & ~vmask
                if newly:
                    for ci in _bits(newly):
                        per.add_active(ci, 1)
                    val[okey] = full
        elif op == OP_TICK:
            per.tick(value)
        elif op == OP_SWITCH:
            if cid != cur_cid:
                n_switch += 1
                cur_cid = cid
        elif op == OP_BEGIN:
            cur_inst[cid] = next_inst
            inst_live[next_inst] = set()
            per.begin(next_inst)
            next_inst += 1
            n_begin += 1
        elif op == OP_END:
            inst = cur_inst.pop(cid, None)
            if inst is None:
                raise OracleUnsupported(f"END of unknown context {cid}")
            n_end += 1
            for lkey in inst_live.pop(inst):
                rmask = res.pop(lkey, 0)
                for ci in _bits(rmask):
                    used[ci] -= 1
                    per.line_out(inst, ci)
                gen.pop(lkey, None)
                base = lkey * L
                for s in range(L):
                    vmask = val.pop(base + s, None)
                    if vmask:
                        for ci in _bits(vmask):
                            per.add_active(ci, -1)
            per.end(inst)
            if cur_cid == cid:
                cur_cid = None
        elif op == OP_FREE:
            if L > 1:
                raise OracleUnsupported(
                    "FREE ops at line_size > 1 diverge per capacity")
            inst = cur_inst.get(cid)
            if inst is None:
                raise OracleUnsupported(
                    f"FREE in context {cid} outside BEGIN/END")
            lkey = inst * nlpc + offset
            vmask = val.pop(lkey, None)
            if vmask is None:
                continue  # never written / already freed: no traffic
            rmask = res.pop(lkey, 0)
            for ci in _bits(vmask):
                per.add_active(ci, -1)
            for ci in _bits(rmask):
                used[ci] -= 1
                per.line_out(inst, ci)
            # gen deliberately kept: a rewrite of this key must get a
            # fresh generation, or its queue entry would collide with
            # the stale one left by this free
            inst_live[inst].discard(lkey)

    per.finalize()
    shared = {
        "reads": reads, "writes": writes, "instructions": per.gt,
        "contexts_created": n_begin, "contexts_ended": n_end,
        "context_switches": n_switch,
    }
    percap = {}
    for ci, cap in enumerate(caps):
        entry = {
            "read_misses": rm[ci], "write_misses": wm[ci],
            "lines_reloaded": fills[ci], "lines_spilled": evs[ci],
            "registers_reloaded": rm[ci],
            "live_registers_reloaded": rm[ci],
            "active_registers_reloaded": rm[ci],
            "registers_spilled": lvs[ci],
            "live_registers_spilled": lvs[ci],
            "words_loaded": rm[ci], "words_stored": lvs[ci],
            "raw_bytes_reloaded": rm[ci] * word_bytes,
            "wire_bytes_reloaded": rm[ci] * word_bytes,
            "raw_bytes_spilled": lvs[ci] * word_bytes,
            "wire_bytes_spilled": lvs[ci] * word_bytes,
            "switch_misses": 0,
            "occupancy_weighted": per.occ[ci],
            "resident_contexts_weighted": per.rcw[ci],
            "max_active_registers": per.max_active[ci],
            "max_resident_contexts": per.max_rc[ci],
        }
        percap[cap] = entry
    return shared, percap


def _scan_segmented(trace, frame_counts, policy):
    """Synchronized segmented-file walk over every frame count.

    Frames are lines of size ``frame_size`` whose valid set, for a
    resident frame, always equals the context's global written-set
    (writes install the frame first in *every* file, and restores
    reload exactly the backed offsets — which frees also discard), so
    one shared valid set serves all frame counts.  The spill mode
    does not enter the walk at all: it only prices each transfer
    (whole frame vs live registers), so the returned per-capacity
    entries carry the mode-independent transfer counts and
    :func:`_seg_tables_pair` derives both costings from one scan via
    the model's own :func:`~repro.core.segmented.frame_transfer_cost`
    rule.  Only contexts that were ever evicted pay restore traffic
    (window-underflow semantics).
    """
    data, caps = _check_trace(trace, frame_counts)
    fsize = trace.context_size
    K = len(caps)
    full = (1 << K) - 1
    fifo = policy == "fifo"

    lives = set()
    vset = {}       # cid -> set of written (valid) offsets
    res = {}        # cid -> residency mask over the frame-count grid
    esp = {}        # cid -> ever-spilled mask
    pend = {}       # cid -> {offset: pending mask}
    used = [0] * K
    order = OrderedDict()           # shared LRU recency over cids
    queues = [deque() for _ in range(K)] if fifo else None
    gen = {} if fifo else None
    reads = writes = 0
    n_begin = n_end = n_switch = 0
    cur_cid = None
    rm = [0] * K
    wm = [0] * K
    sm = [0] * K    # switch misses (frame installs)
    evs = [0] * K   # frames spilled
    lvs = [0] * K   # live registers spilled
    lrl = [0] * K   # live registers reloaded
    frl = [0] * K   # frames reloaded (lines_reloaded)
    arl = [0] * K   # active (pending-flip) reloads
    per = _PerCap(caps)

    def evict_into(ci):
        bit = 1 << ci
        if fifo:
            q = queues[ci]
            while True:
                vcid, g = q.popleft()
                glist = gen.get(vcid)
                if (glist is not None and glist[ci] == g
                        and res.get(vcid, 0) & bit):
                    break
        else:
            vcid = next(c for c in order if res.get(c, 0) & bit)
        valid = vset[vcid]
        live = len(valid)
        evs[ci] += 1
        lvs[ci] += live
        res[vcid] &= ~bit
        esp[vcid] = esp.get(vcid, 0) | bit
        pmap = pend.get(vcid)
        if pmap:
            for o in list(pmap):
                nm = pmap[o] & ~bit
                if nm:
                    pmap[o] = nm
                else:
                    del pmap[o]
        if live:
            per.add_active(ci, -live)
        per.line_out(vcid, ci)

    def install(cid, ci):
        sm[ci] += 1
        if used[ci] == caps[ci]:
            evict_into(ci)
        else:
            used[ci] += 1
        bit = 1 << ci
        res[cid] = res.get(cid, 0) | bit
        if fifo:
            glist = gen.get(cid)
            if glist is None:
                glist = gen[cid] = [0] * K
            glist[ci] += 1
            queues[ci].append((cid, glist[ci]))
        if esp.get(cid, 0) & bit:
            # window underflow: restore the backed image (== the
            # context's current valid set; see the docstring proof)
            valid = vset[cid]
            live = len(valid)
            lrl[ci] += live
            frl[ci] += 1
            if live:
                pmap = pend.setdefault(cid, {})
                for o in valid:
                    pmap[o] = pmap.get(o, 0) | bit
                per.add_active(ci, live)
        per.line_in(cid, ci)

    def flip_pending(cid, offset):
        pmap = pend.get(cid)
        if pmap is None:
            return
        mask = pmap.pop(offset, 0)
        for ci in _bits(mask):
            arl[ci] += 1

    it = iter(data.tolist())
    for op, cid, offset, value in zip(it, it, it, it):
        if op <= OP_WRITE:
            if cid not in lives:
                raise OracleUnsupported(
                    f"access to context {cid} outside BEGIN/END")
            valid = vset[cid]
            rmask = res.get(cid, 0)
            miss = full & ~rmask
            if op == OP_READ:
                reads += 1
                if offset not in valid:
                    raise OracleUnsupported(
                        f"cold read of ({cid}, {offset})")
                if miss:
                    for ci in _bits(miss):
                        rm[ci] += 1
                        install(cid, ci)
            else:
                writes += 1
                if miss:
                    for ci in _bits(miss):
                        wm[ci] += 1
                        install(cid, ci)
                if offset not in valid:
                    valid.add(offset)
                    for ci in range(K):
                        per.add_active(ci, 1)
            flip_pending(cid, offset)
            if not fifo:
                order[cid] = True
                order.move_to_end(cid)
        elif op == OP_TICK:
            per.tick(value)
        elif op == OP_SWITCH:
            if cid == cur_cid:
                continue
            if cid not in lives:
                raise OracleUnsupported(f"SWITCH to unknown {cid}")
            n_switch += 1
            cur_cid = cid
            miss = full & ~res.get(cid, 0)
            for ci in _bits(miss):
                install(cid, ci)
            if not fifo:
                order[cid] = True
                order.move_to_end(cid)
        elif op == OP_BEGIN:
            lives.add(cid)
            vset[cid] = set()
            per.begin(cid)
            n_begin += 1
        elif op == OP_END:
            if cid not in lives:
                raise OracleUnsupported(f"END of unknown context {cid}")
            lives.discard(cid)
            n_end += 1
            valid = vset.pop(cid)
            rmask = res.pop(cid, 0)
            live = len(valid)
            for ci in _bits(rmask):
                used[ci] -= 1
                if live:
                    per.add_active(ci, -live)
                per.line_out(cid, ci)
            esp.pop(cid, None)
            pend.pop(cid, None)
            order.pop(cid, None)
            # gen deliberately kept: recycled cids must continue the
            # generation sequence past their stale queue entries
            per.end(cid)
            if cur_cid == cid:
                cur_cid = None
        elif op == OP_FREE:
            if cid not in lives:
                raise OracleUnsupported(
                    f"FREE in context {cid} outside BEGIN/END")
            valid = vset[cid]
            if offset not in valid:
                continue  # no resident copy anywhere: only the
                # backing copy is discarded, with no stats
            valid.discard(offset)
            rmask = res.get(cid, 0)
            for ci in _bits(rmask):
                per.add_active(ci, -1)
            pmap = pend.get(cid)
            if pmap:
                pmap.pop(offset, None)

    per.finalize()
    shared = {
        "reads": reads, "writes": writes, "instructions": per.gt,
        "contexts_created": n_begin, "contexts_ended": n_end,
        "context_switches": n_switch,
    }
    percap = {}
    for ci, cap in enumerate(caps):
        percap[cap] = {
            "read_misses": rm[ci], "write_misses": wm[ci],
            "switch_misses": sm[ci],
            "lines_spilled": evs[ci], "lines_reloaded": frl[ci],
            "live_registers_spilled": lvs[ci],
            "live_registers_reloaded": lrl[ci],
            "active_registers_reloaded": arl[ci],
            "words_stored": lvs[ci], "words_loaded": lrl[ci],
            "occupancy_weighted": per.occ[ci],
            "resident_contexts_weighted": per.rcw[ci],
            "max_active_registers": per.max_active[ci],
            "max_resident_contexts": per.max_rc[ci],
        }
    return shared, percap


# -- public curve / table entry points --------------------------------------


#: the capacity-dependent counters of :func:`capacity_curves`
CURVE_FIELDS = (
    "reads", "writes", "read_hits", "read_misses", "write_hits",
    "write_misses", "lines_reloaded", "lines_spilled",
    "registers_reloaded", "live_registers_reloaded",
    "active_registers_reloaded", "registers_spilled",
    "live_registers_spilled", "words_loaded", "words_stored",
    "raw_bytes_reloaded", "wire_bytes_reloaded", "raw_bytes_spilled",
    "wire_bytes_spilled",
)


def capacity_curves(trace, capacities, word_bytes=4, line_size=1,
                    policy="lru"):
    """Exact per-capacity miss/spill/reload counts from one pass.

    ``{capacity: {field: value}}`` over :data:`CURVE_FIELDS` (plus the
    backing store's word counters) for a pristine
    ``NamedStateRegisterFile(num_registers=C * line_size,
    line_size=line_size, policy=policy)`` per capacity ``C`` in lines:
    :func:`capacity_tables` projected onto the capacity-dependent
    counters.  Raises :class:`OracleUnsupported` where it does.
    """
    tables = capacity_tables(trace, capacities, word_bytes, line_size,
                             policy)
    return {cap: {field: row[field] for field in CURVE_FIELDS}
            for cap, row in tables.items()}


_ZERO_FIELDS = (
    "background_registers_spilled", "lines_retired",
    "backing_transient_faults", "backing_retries",
    "backing_exhaustions", "backing_backoff_cycles",
)


def _assemble_tables(shared, percap):
    """Merge shared counters into each per-capacity snapshot patch."""
    tables = {}
    reads = shared["reads"]
    writes = shared["writes"]
    for cap, entry in percap.items():
        patch = dict(entry)
        patch["reads"] = reads
        patch["writes"] = writes
        patch["read_hits"] = reads - entry["read_misses"]
        patch["write_hits"] = writes - entry["write_misses"]
        patch["instructions"] = shared["instructions"]
        patch["contexts_created"] = shared["contexts_created"]
        patch["contexts_ended"] = shared["contexts_ended"]
        patch["context_switches"] = shared["context_switches"]
        for field in _ZERO_FIELDS:
            patch[field] = 0
        tables[cap] = patch
    return tables


def capacity_tables(trace, capacities, word_bytes=4, line_size=1,
                    policy="lru"):
    """Full per-capacity NSF snapshots from one shared scan.

    Every :class:`~repro.core.stats.RegFileStats` field an event replay
    would leave on a pristine NSF of each capacity (in lines) — traffic,
    tick-integrated occupancy and residency, tick-sampled maxima,
    context lifecycle, the zero-by-construction fault and watermark
    counters — plus the backing store's word counters.  Feed one entry
    to :func:`apply_table`.

    ``policy="lru"`` runs the Mattson stack-with-holes pass (the
    :mod:`repro.trace.vector` kernel; needs NumPy);
    ``policy="fifo"`` the synchronized direct simulation.  Raises
    :class:`OracleUnsupported` outside the boundary (wide values, cold
    reads, ``FREE`` with ``line_size > 1``, unknown policy, LRU without
    NumPy).
    """
    if policy == "lru":
        shared, percap = vector.lru_scan(trace, capacities, word_bytes,
                                         line_size)
    elif policy == "fifo":
        shared, percap = _scan_fifo(trace, capacities, word_bytes,
                                    line_size)
    else:
        raise OracleUnsupported(f"no exact pass for policy {policy!r}")
    return _assemble_tables(shared, percap)


def _seg_tables_pair(trace, frame_counts, word_bytes, policy):
    """Both spill-mode segmented tables from **one** shared scan.

    The segmented walk's eviction dynamics never depend on the spill
    mode — the mode only prices each transfer, exactly the
    :func:`~repro.core.segmented.frame_transfer_cost` rule: ``frame``
    moves whole frames (registers = lines x frame size), ``live``
    moves only the valid registers.  Pricing both modes off the one
    scan's mode-independent counters halves the segmented half of a
    design-space sweep.  Returns ``{"frame": tables, "live":
    tables}``.
    """
    if policy not in ("lru", "fifo"):
        raise OracleUnsupported(f"no exact pass for policy {policy!r}")
    shared, percap = _scan_segmented(trace, frame_counts, policy)
    fsize = trace.context_size
    pair = {}
    for mode in ("frame", "live"):
        priced = {}
        for cap, entry in percap.items():
            if mode == "frame":
                rsp = entry["lines_spilled"] * fsize
                rrl = entry["lines_reloaded"] * fsize
            else:
                rsp = entry["live_registers_spilled"]
                rrl = entry["live_registers_reloaded"]
            priced[cap] = dict(
                entry,
                registers_spilled=rsp,
                registers_reloaded=rrl,
                raw_bytes_spilled=rsp * word_bytes,
                wire_bytes_spilled=rsp * word_bytes,
                raw_bytes_reloaded=rrl * word_bytes,
                wire_bytes_reloaded=rrl * word_bytes,
            )
        pair[mode] = _assemble_tables(shared, priced)
    return pair


def segmented_tables(trace, frame_counts, word_bytes=4,
                     spill_mode="frame", policy="lru"):
    """Full per-frame-count segmented-file snapshots from one scan."""
    if spill_mode not in ("frame", "live"):
        raise OracleUnsupported(f"unknown spill mode {spill_mode!r}")
    return _seg_tables_pair(trace, frame_counts, word_bytes,
                            policy)[spill_mode]


# -- model classification and table application -----------------------------


def classify_model(model):
    """Map ``model`` to its oracle family, or ``None`` if unsupported.

    Returns ``(family, capacity_units)`` where ``family`` is a
    hashable scan descriptor shared by every capacity point of the
    same design (used to group sweep cells onto one scan) and
    ``capacity_units`` is the model's capacity in that family's units
    (lines for the NSF, frames for the segmented file).
    """
    if type(model) is NamedStateRegisterFile:
        if (model._policy.name in ("lru", "fifo")
                and model.reload_scope == "register"
                and not model.fetch_on_write
                and not model.spill_watermark
                and not model._retired
                and not model._cam
                and model._active == 0
                and len(model._free) == model.num_lines
                and pristine(model)):
            family = ("nsf", model.line_size, model._policy.name,
                      model.backing.word_bytes)
            return family, model.num_lines
        return None
    if type(model) is SegmentedRegisterFile:
        if (model._policy.name in ("lru", "fifo")
                and not model._retired
                and not model._resident
                and model._active == 0
                and len(model._free) == model.num_frames
                and not model._ever_spilled
                and pristine(model)):
            family = ("seg", model.spill_mode, model._policy.name,
                      model.backing.word_bytes)
            return family, model.num_frames
        return None
    return None


def _family_tables(trace, family, caps):
    """Compute full tables for ``family`` over ``caps`` units.

    Returns ``{family: table}``.  A segmented scan yields **both**
    spill-mode sibling families at once (see
    :func:`_seg_tables_pair`), so callers should keep every returned
    entry, not just the one they asked for.
    """
    kind = family[0]
    if kind == "nsf":
        _, line_size, policy, wb = family
        return {family: capacity_tables(trace, caps, word_bytes=wb,
                                        line_size=line_size,
                                        policy=policy)}
    _, _, policy, wb = family
    pair = _seg_tables_pair(trace, caps, word_bytes=wb, policy=policy)
    return {("seg", mode, policy, wb): table
            for mode, table in pair.items()}


def apply_table(patch, model):
    """Write one capacity's synthesized snapshot onto ``model``.

    Sets every statistics field in ``patch`` on ``model.stats`` and
    the word counters on its backing store.  Like
    :func:`~repro.trace.columnar.apply_analysis` this is
    statistics-only: the model's internal line/frame state is *not*
    built, so the model is :func:`sealed <repro.trace.columnar.seal>`
    and any further access raises.
    """
    stats = model.stats
    backing = model.backing
    for field, value in patch.items():
        if field == "words_stored":
            backing.words_stored += value
        elif field == "words_loaded":
            backing.words_loaded += value
        else:
            setattr(stats, field, getattr(stats, field) + value)
    return seal(model)


# -- shared-table memo (sweep drivers and the evalx plan hook) --------------


def _scan_families(family):
    """Every family one scan of ``family`` prices: a segmented scan
    prices both spill modes (:func:`_seg_tables_pair`)."""
    if family[0] == "seg":
        return [("seg", mode, family[2], family[3])
                for mode in ("frame", "live")]
    return [family]


def tables_for_model(trace, model, capacities):
    """Memoized full tables covering ``model``'s family and grid.

    ``capacities`` is in the model's *register* budget units (the
    numbers experiment modules know); they are converted to the
    family's capacity units, and the model's own capacity is always
    included.  Returns ``(table, units)`` or ``None`` when the model
    is out of regime or the scan refuses the trace.

    The tables of a cache-served trace are memoized per design family
    under the trace's content address
    (:func:`repro.trace.cache.derived`), so every sweep cell, figure
    and later sweep over the same trace shares them.  One capacity's
    row never depends on the rest of the grid, so a cell whose
    capacity is already tabled costs no scan, and a miss scans only
    the grid points not yet tabled.  A hand-built trace has no content
    address: each call scans afresh.
    """
    classified = classify_model(model)
    if classified is None:
        return None
    family, units = classified
    if family[0] == "nsf":
        per_unit = model.line_size
    else:
        per_unit = model.frame_size
    memo = trace_cache.derived(trace)
    if memo is None:
        memo = {}
    key = ("tables", family)
    table = memo.get(key, {})
    if table is None:
        return None  # refused once: the trace always is
    if units in table:
        return table, units
    grid = {units}
    for regs in capacities:
        u = int(regs) // per_unit
        if u >= 1 and u not in table:
            grid.add(u)
    try:
        computed = _family_tables(trace, family, sorted(grid))
    except OracleUnsupported:
        for fam in _scan_families(family):
            memo[("tables", fam)] = None
        return None
    for fam, fam_table in computed.items():
        memo.setdefault(("tables", fam), {}).update(fam_table)
    return memo[key], units


def serve_from_tables(trace, model, capacities):
    """Serve one replay from the shared design-space tables.

    ``capacities`` announces the register budgets the surrounding
    sweep will visit (so one scan covers them all); an empty grid
    tables the model's own capacity only.  Returns True and
    patches ``model.stats`` when the cell is in regime; False leaves
    the model untouched for the caller's fallback engine.
    """
    if not isinstance(trace, Trace):
        return False
    served = tables_for_model(trace, model, capacities)
    if served is None:
        return False
    table, units = served
    patch = table.get(units)
    if patch is None:
        return False
    apply_table(patch, model)
    return True


def oracle_sweep(trace, model_factory, configurations):
    """Replay one trace over many configurations, oracle-accelerated.

    Drop-in for :func:`repro.trace.replay.sweep` (verify-off): builds
    ``model_factory(**config)`` per cell and returns ``(config,
    stats)`` pairs.  Cells whose capacity never forces an eviction get
    their statistics synthesized in O(1) from the shared columnar
    analysis (:func:`~repro.trace.columnar.apply_analysis`).  The
    remaining in-regime cells are grouped by design family (line size
    x policy for the NSF, spill mode x policy for the segmented file)
    and served from **one** full-table scan per family
    (:func:`capacity_tables` / :func:`segmented_tables`), an O(1)
    apply per cell.  Every other cell — NMRU's RNG draws, fig13's
    line-scope reloads, wide-value traces (the scans refuse them, so
    they degrade here rather than raising) — transparently falls back
    to event-exact replay, keeping the results byte-identical to
    :func:`~repro.trace.replay.sweep` by construction.
    """
    analysis = analyze(trace)
    cells = [(config, model_factory(**config))
             for config in configurations]
    pending = []
    for config, model in cells:
        if not apply_analysis(analysis, model):
            pending.append((config, model))
    if pending and isinstance(trace, Trace):
        grids = {}
        for config, model in pending:
            classified = classify_model(model)
            if classified is not None:
                family, units = classified
                # sibling seg spill modes come out of one scan: pool
                # their unit grids under the family that scans them
                scan = _scan_families(family)[0]
                grids.setdefault(scan, set()).add(units)
        tables = {}
        for family, units_set in grids.items():
            try:
                tables.update(_family_tables(trace, family,
                                             sorted(units_set)))
            except OracleUnsupported:
                pass  # the cells of every family it prices replay
        for config, model in pending:
            classified = classify_model(model)
            served = False
            if classified is not None:
                family, units = classified
                table = tables.get(family)
                if table is not None and units in table:
                    apply_table(table[units], model)
                    served = True
            if not served:
                _event_replay(trace, model, verify=False)
    elif pending:
        for config, model in pending:
            _event_replay(trace, model, verify=False)
    return [(config, model.stats) for config, model in cells]
