"""NumPy-accelerated Mattson kernel: the LRU capacity oracle's scan.

A direct per-event LRU stack walk spends most of its time in
interpreted bookkeeping: dict lookups keyed by ``(instance, line)``,
an order-statistic tree over recency timestamps, and presence /
first-touch state machines.  This kernel removes all of it in two
moves:

1. **Vectorized preprocessing.**  One batched composite-key
   ``searchsorted`` attributes every access, ``FREE`` and ``END`` to
   its context *begin instance* (the same idiom as
   :func:`repro.trace.columnar.analyze`, hardened with
   access-after-END validation), and a segmented cummax over the
   reference stream partitioned by register key — sorted once by
   ``(key, position)`` — classifies every event up front:
   first-touch vs re-reference, real free vs no-op, cold read
   (raises), and each instance's live-key set at its ``END``.  The
   surviving events compile into a compact integer program with
   switches stripped and tick runs coalesced.

2. **A windowed recency stack.**  The histograms are clamped at
   ``cmax + 1`` (every deeper reference lands in the overflow bin),
   so the walk only needs *exact* stack positions for the top
   ``cmax + 1`` entries.  Those live in one flat Python list —
   re-reference depth is a C-speed ``list.index``, the MRU move is a
   C-level ``del`` + ``insert``, holes are an interchangeable
   sentinel found by the same scan, and entries falling off the
   window are, by construction, exactly the clamped ones.  Every
   window operation is length-preserving (each hole consumed is paid
   for by a hole or entry pushed), so the window never under-covers
   the top of the stack; the stack total is tracked exactly until it
   exceeds the clamp, after which it can never matter again (it is
   non-decreasing).

This is the only LRU scan: event replay is its exactness reference
(``tests/test_oracle_differential.py``).  :func:`lru_scan` raises
:class:`~repro.trace.oracle.OracleUnsupported` without NumPy, for
trace shapes the vectorized attribution cannot key (composite-key
overflow, negative ids, out-of-range offsets), and outside the
oracle's boundary (cold reads, wide values, ``FREE`` at
``line_size > 1``, accesses outside ``BEGIN``/``END``); callers then
replay event by event.
"""

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

from bisect import bisect_right

from repro.trace.events import (
    OP_BEGIN,
    OP_END,
    OP_FREE,
    OP_READ,
    OP_TICK,
    OP_WRITE,
)

_HOLE = -1

# program opcodes (what survives preprocessing)
_P_READ, _P_WRITE, _P_FIRST, _P_FREE, _P_END, _P_TICK = range(6)


def _unsupported(msg):
    from repro.trace.oracle import OracleUnsupported

    raise OracleUnsupported(msg)


def _segmented_last_before(group, hit_pos, n):
    """Exclusive per-group running max of ``hit_pos``.

    ``group`` is sorted ascending; within each group, element ``i``
    receives the max ``hit_pos`` among elements strictly before it
    (-1 when none).  Vectorized with the offset trick: adding
    ``group * stride`` makes cross-group pollution impossible under a
    global ``maximum.accumulate``.
    """
    np = _np
    stride = n + 2
    lifted = hit_pos + group * stride
    incl = np.maximum.accumulate(lifted)
    excl = np.empty_like(incl)
    excl[0] = -1
    excl[1:] = incl[:-1]
    first_of_group = np.empty(len(group), dtype=bool)
    first_of_group[0] = True
    first_of_group[1:] = group[1:] != group[:-1]
    out = excl - group * stride
    out[first_of_group] = -1
    np.maximum(out, -1, out=out)
    return out


def _compile(trace, line_size):
    """Validate + compile ``trace`` into the kernel's integer program.

    Returns ``(program_columns, end_lists, n_reads, n_writes, n_keys,
    p0_reads, p0_writes, key_inst, n_inst, n_end, n_switch)``; the
    program interleaves coalesced ``TICK`` events (their value in the
    key column).  Raises ``OracleUnsupported`` for traces outside the
    oracle's boundary or beyond what the composite keying can
    represent.
    """
    np = _np
    from repro.trace.columnar import _column_view, count_switches

    arr = _column_view(trace)
    if arr is None:
        _unsupported("trace carries wide values")
    ops = arr[:, 0]
    cids = arr[:, 1]
    offs = arr[:, 2]
    n = len(ops)
    ctx = trace.context_size
    L = line_size

    free_mask = ops == OP_FREE
    if L > 1 and bool(free_mask.any()):
        _unsupported("FREE ops at line_size > 1 diverge per capacity")

    acc_mask = ops <= OP_WRITE
    key_mask = acc_mask | free_mask
    kpos = np.flatnonzero(key_mask)
    koffs = offs[kpos]
    if len(kpos) and (int(koffs.min()) < 0 or int(koffs.max()) >= ctx):
        _unsupported("register offset outside the context")

    # -- instance attribution (composite-key searchsorted) ------------------
    bg_pos = np.flatnonzero(ops == OP_BEGIN)
    bg_cids = cids[bg_pos]
    end_pos = np.flatnonzero(ops == OP_END)
    end_cids = cids[end_pos]
    n_inst = len(bg_pos)
    if len(cids) and int(cids.min()) < 0:
        _unsupported("negative context ids")
    stride = n + 1
    max_cid = int(bg_cids.max()) if n_inst else 0
    if max_cid >= (1 << 62) // stride:
        _unsupported("context ids overflow the composite int64 key")
    border = np.argsort(bg_cids, kind="stable")
    bkeys = bg_cids[border] * stride + bg_pos[border]

    def _attribute(q_cids, q_pos, what):
        g = np.searchsorted(bkeys, q_cids * stride + q_pos) - 1
        if not len(g):
            return g
        if int(g.min()) < 0:
            _unsupported(f"{what} outside BEGIN/END")
        inst = border[g]
        if not bool((bg_cids[inst] == q_cids).all()):
            _unsupported(f"{what} outside BEGIN/END")
        return inst

    kinst = _attribute(cids[kpos], kpos, "access")
    einst = _attribute(end_cids, end_pos, "END")
    if len(einst) != len(np.unique(einst)):
        _unsupported("END of unknown context")
    inst_end = np.full(n_inst if n_inst else 1, n, dtype=np.int64)
    inst_end[einst] = end_pos
    if len(kpos) and not bool((kpos < inst_end[kinst]).all()):
        _unsupported("access outside BEGIN/END")

    # -- per-key event classification (segmented cummax) --------------------
    nlpc = (ctx - 1) // L + 1
    if L == 1:
        raw_keys = kinst * nlpc + koffs
        slots = np.zeros(len(kpos), dtype=np.int64)
    else:
        line_no = koffs // L
        slots = koffs - line_no * L
        raw_keys = kinst * nlpc + line_no
    uniq, dense = (np.unique(raw_keys, return_inverse=True)
                   if len(kpos) else
                   (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64)))
    order = np.argsort(dense, kind="stable")  # (key, time) partition
    skey = dense[order]
    spos = kpos[order]
    sops = ops[kpos][order]
    is_w = sops == OP_WRITE
    is_f = sops == OP_FREE
    if len(order):
        prev_w = _segmented_last_before(
            skey, np.where(is_w, spos, -1), n)
        prev_f = _segmented_last_before(
            skey, np.where(is_f, spos, -1), n)
        present = prev_w > prev_f
        if bool(((sops == OP_READ) & ~present).any()):
            bad = int(spos[(sops == OP_READ) & ~present].min())
            _unsupported(
                f"cold read of ({int(cids[bad])}, {int(offs[bad])})")
        ptype = np.where(
            is_f, _P_FREE,
            np.where(is_w, np.where(present, _P_WRITE, _P_FIRST),
                     _P_READ))
        keep = ~(is_f & ~present)  # a FREE of an absent key is a no-op
        # final state per key: present after its last event
        last_of_key = np.empty(len(skey), dtype=bool)
        last_of_key[-1] = True
        last_of_key[:-1] = skey[1:] != skey[:-1]
        final_present = (is_w | (~is_f & present))[last_of_key]
        live_keys = np.flatnonzero(final_present)
    else:
        ptype = keep = spos = skey = order
        live_keys = np.empty(0, dtype=np.int64)

    # -- per-instance live-key lists at END ---------------------------------
    end_lists = {}
    if len(live_keys) and len(end_pos):
        live_inst = uniq[live_keys] // nlpc
        ended = np.zeros(n_inst, dtype=bool)
        ended[einst] = True
        sel = ended[live_inst]
        li = live_inst[sel]
        lk = live_keys[sel]
        lorder = np.argsort(li, kind="stable")
        li = li[lorder]
        lk = lk[lorder]
        bounds = np.searchsorted(li, einst)
        bounds_hi = np.searchsorted(li, einst, side="right")
        lk_list = lk.tolist()
        for inst, lo, hi in zip(einst.tolist(), bounds.tolist(),
                                bounds_hi.tolist()):
            end_lists[inst] = lk_list[lo:hi]

    # -- merge into one time-ordered program --------------------------------
    kept = np.flatnonzero(keep) if len(order) else order
    pos_parts = [spos[kept], end_pos]
    type_parts = [ptype[kept],
                  np.full(len(end_pos), _P_END, dtype=np.int64)]
    key_parts = [skey[kept], einst]
    slot_parts = [slots[order][kept],
                  np.zeros(len(end_pos), dtype=np.int64)]
    # the occupancy/residency integrals advance on TICK, so ticks join
    # the program (value in the key column)
    tick_pos = np.flatnonzero(ops == OP_TICK)
    pos_parts.append(tick_pos)
    type_parts.append(np.full(len(tick_pos), _P_TICK, dtype=np.int64))
    key_parts.append(arr[tick_pos, 3])
    slot_parts.append(np.zeros(len(tick_pos), dtype=np.int64))
    ev_pos = np.concatenate(pos_parts)
    ev_type = np.concatenate(type_parts)
    ev_key = np.concatenate(key_parts)
    ev_slot = np.concatenate(slot_parts)
    morder = np.argsort(ev_pos, kind="stable")
    mtype = ev_type[morder]
    mkey = ev_key[morder]
    mslot = ev_slot[morder]

    # -- strip depth-0 re-references ----------------------------------------
    # An access whose immediately preceding access (any key) touched
    # the same key *and slot* sits at stack depth 0 with no hole above
    # it: the MRU move is the identity, its slot threshold is already
    # 0, and every histogram contribution lands in bin 0.  Intervening
    # FREE / END events cannot disturb this (a FREE of the key itself
    # would reclassify the access as a first touch, and deletions of
    # other keys punch holes in place without reordering the stack).
    # They are counted here in bulk and dropped from the walk.
    p0_reads = p0_writes = 0
    acc = np.flatnonzero(mtype <= _P_FIRST)
    if len(acc) > 1:
        ak = mkey[acc]
        at = mtype[acc]
        rem = np.zeros(len(acc), dtype=bool)
        rem[1:] = (ak[1:] == ak[:-1]) & (at[1:] <= _P_WRITE)
        if L > 1:
            asl = mslot[acc]
            rem[1:] &= asl[1:] == asl[:-1]
        p0_reads = int((at[rem] == _P_READ).sum())
        p0_writes = int(rem.sum()) - p0_reads
        if p0_reads or p0_writes:
            keepm = np.ones(len(mtype), dtype=bool)
            keepm[acc[rem]] = False
            mtype = mtype[keepm]
            mkey = mkey[keepm]
            mslot = mslot[keepm]

    # coalesce tick runs (stripping depth-0 accesses above leaves many
    # adjacent): only the run head survives, carrying the sum
    tm = mtype == _P_TICK
    if bool(tm.any()):
        is_start = tm.copy()
        is_start[1:] &= ~tm[:-1]
        starts = np.flatnonzero(is_start)
        tick_idx = np.flatnonzero(tm)
        rid = np.searchsorted(starts, tick_idx, side="right") - 1
        sums = np.zeros(len(starts), dtype=np.int64)
        np.add.at(sums, rid, mkey[tick_idx])
        mkey = mkey.copy()
        mkey[starts] = sums
        keepm = ~tm
        keepm[starts] = True
        mtype = mtype[keepm]
        mkey = mkey[keepm]
        mslot = mslot[keepm]

    n_writes = int(is_w.sum()) if len(order) else 0
    n_reads = int((sops == OP_READ).sum()) if len(order) else 0
    key_inst = (uniq // nlpc).tolist()
    return ((mtype.tolist(), mkey.tolist(), mslot.tolist()),
            end_lists, n_reads, n_writes, len(uniq),
            p0_reads, p0_writes, key_inst, n_inst, len(end_pos),
            count_switches(ops, cids, end_pos))


def _walk_flat_tables(program, end_lists, nk, hists, clamp, caps, per,
                      kinst):
    """Windowed-stack walk specialized for ``line_size == 1``.

    With one register per line the slot validity threshold is always
    0 for a present register, so read depth, live-span close and
    stack depth coincide and no per-key threshold table is needed.
    ``nh`` counts the holes currently inside the window: while it is
    zero (the common case) the hole scan is skipped entirely.  While
    the stack has never exceeded the window (``total <= limit``) the
    window *is* the whole stack, so ``total`` is exact.

    The window is the top of the recency stack, so the eviction victim
    of file ``C`` on a depth-``eb`` insertion is simply
    ``window[C - 1]`` read against the pre-access window (always a
    real line: ``C <= eb`` bounds it above the topmost hole).  Every
    victim carries exactly one live register, and a line re-enters
    (and its register revalidates in) every file with ``C <= depth``,
    which feeds the per-capacity residency integrals.
    """
    read_hist, write_hist, fill_hist, evict_hist, live_hist = hists
    ev_type, ev_key, _ = program
    window = []
    windex = window.index
    winsert = window.insert
    elget = end_lists.get
    present = bytearray(nk)
    HOLE = _HOLE
    limit = clamp + 1
    total = 0
    frozen = False
    nh = 0
    K = len(caps)
    line_in = per.line_in
    line_out = per.line_out
    add_active = per.add_active

    for op, k in zip(ev_type, ev_key):
        if op <= _P_WRITE:  # re-reference of a present register
            try:
                p = windex(k)
            except ValueError:
                p = -1
            if p > 0:
                pc = p if p < clamp else clamp
                if op:
                    write_hist[pc] += 1
                else:
                    read_hist[pc] += 1
                    fill_hist[pc] += 1
                live_hist[pc] += 1
                if nh:
                    try:
                        h = windex(HOLE, 0, p)
                    except ValueError:
                        h = -1
                else:
                    h = -1
                eb = h if h >= 0 else p
                for ci in range(bisect_right(caps, eb)):
                    vkey = window[caps[ci] - 1]
                    add_active(ci, -1)
                    line_out(kinst[vkey], ci)
                inst = kinst[k]
                for ci in range(bisect_right(caps, p)):
                    line_in(inst, ci)
                    add_active(ci, 1)
                if h >= 0:
                    evict_hist[h] += 1
                    del window[h]
                    window[p - 1] = HOLE
                else:
                    evict_hist[pc] += 1
                    del window[p]
                winsert(0, k)
            elif p == 0:
                if op:
                    write_hist[0] += 1
                else:
                    read_hist[0] += 1
                    fill_hist[0] += 1
                evict_hist[0] += 1
            else:  # below the window: everything bins at the clamp
                if op:
                    write_hist[clamp] += 1
                else:
                    read_hist[clamp] += 1
                    fill_hist[clamp] += 1
                live_hist[clamp] += 1
                if nh:
                    h = windex(HOLE)
                    eb = h
                else:
                    h = -1
                    eb = clamp
                for ci in range(bisect_right(caps, eb)):
                    vkey = window[caps[ci] - 1]
                    add_active(ci, -1)
                    line_out(kinst[vkey], ci)
                inst = kinst[k]
                for ci in range(K):
                    line_in(inst, ci)
                    add_active(ci, 1)
                if h >= 0:
                    evict_hist[h] += 1
                    del window[h]
                    nh -= 1
                    winsert(0, k)
                else:
                    evict_hist[clamp] += 1
                    winsert(0, k)
                    if len(window) > limit:
                        del window[limit:]
        elif op == _P_FIRST:
            write_hist[clamp] += 1
            if nh:
                h = windex(HOLE)
                eb = h
            elif frozen:
                h = -1
                eb = clamp
            else:
                h = -1
                eb = total
            for ci in range(bisect_right(caps, eb)):
                vkey = window[caps[ci] - 1]
                add_active(ci, -1)
                line_out(kinst[vkey], ci)
            inst = kinst[k]
            for ci in range(K):
                line_in(inst, ci)
                add_active(ci, 1)
            if h >= 0:
                evict_hist[h] += 1
                del window[h]
                nh -= 1
            elif frozen:
                evict_hist[clamp] += 1
            else:
                evict_hist[total if total < clamp else clamp] += 1
                total += 1
                if total > limit:
                    frozen = True
            winsert(0, k)
            if len(window) > limit:
                del window[limit:]
            present[k] = 1
        elif op == _P_FREE:
            try:
                d = windex(k)
            except ValueError:
                live_hist[clamp] += 1
            else:
                window[d] = HOLE
                nh += 1
                if d:
                    live_hist[d if d < clamp else clamp] += 1
                inst = kinst[k]
                for ci in range(bisect_right(caps, d), K):
                    add_active(ci, -1)
                    line_out(inst, ci)
            present[k] = 0
        elif op == _P_END:
            for dk in elget(k, ()):
                try:
                    d = windex(dk)
                except ValueError:
                    live_hist[clamp] += 1
                else:
                    window[d] = HOLE
                    nh += 1
                    if d:
                        live_hist[d if d < clamp else clamp] += 1
                    for ci in range(bisect_right(caps, d), K):
                        add_active(ci, -1)
                        line_out(k, ci)
                present[dk] = 0
            per.end(k)
        else:  # TICK: value travels in the key column
            per.tick(k)

    if nk:
        at = {}
        for i, k in enumerate(window):
            if k != HOLE:
                at[k] = i
        get = at.get
        for k in range(nk):
            if present[k]:
                d = get(k, clamp)
                if d > 0:
                    live_hist[d if d < clamp else clamp] += 1


def _walk_lines_tables(program, end_lists, nk, L, hists, clamp, caps,
                       per, kinst):
    """Windowed-stack walk for ``line_size > 1``.

    Same stack mechanics as :func:`_walk_flat_tables` plus per-line
    slot validity thresholds: a slot is valid in file ``C`` iff
    ``C > max(threshold, line depth)``, thresholds are bumped to the
    line's depth on every non-zero-depth touch and reset to 0 for the
    touched slot.  Thresholds are clamped like every other depth —
    exact for all clamped outputs.  Victims come straight off the
    window; their live-register count in file ``C`` is the number of
    slots with threshold below ``C``.  A slot revalidates in every
    file with ``C <= max(threshold, depth)`` while the line itself
    re-enters files with ``C <= depth``.
    """
    read_hist, write_hist, fill_hist, evict_hist, live_hist = hists
    ev_type, ev_key, ev_slot = program
    window = []
    windex = window.index
    winsert = window.insert
    elget = end_lists.get
    inv = [None] * nk
    HOLE = _HOLE
    limit = clamp + 1
    total = 0
    frozen = False
    nh = 0
    K = len(caps)
    line_in = per.line_in
    line_out = per.line_out
    add_active = per.add_active

    def evict(eb):
        for ci in range(bisect_right(caps, eb)):
            cap = caps[ci]
            vkey = window[cap - 1]
            lv = 0
            for v in inv[vkey]:
                if v is not None and v < cap:
                    lv += 1
            if lv:
                add_active(ci, -lv)
            line_out(kinst[vkey], ci)

    for op, k, slot in zip(ev_type, ev_key, ev_slot):
        if op <= _P_WRITE:  # re-reference of a present line
            invs = inv[k]
            try:
                p = windex(k)
            except ValueError:
                p = clamp
                inwin = False
            else:
                inwin = True
            iv = invs[slot]
            if op:
                write_hist[p if p < clamp else clamp] += 1
                T = None if iv is None else (iv if iv > p else p)
            else:
                T = iv if iv > p else p
                read_hist[T if T < clamp else clamp] += 1
                fill_hist[p if p < clamp else clamp] += 1
            if iv is not None:
                M = iv if iv > p else p
                if M > 0:
                    live_hist[M if M < clamp else clamp] += 1
            inst = kinst[k]
            if inwin:
                if nh:
                    try:
                        h = windex(HOLE, 0, p)
                    except ValueError:
                        h = -1
                else:
                    h = -1
                evict(h if h >= 0 else p)
                for ci in range(bisect_right(caps, p)):
                    line_in(inst, ci)
                upto = K if T is None else bisect_right(caps, T)
                for ci in range(upto):
                    add_active(ci, 1)
                if h >= 0:
                    evict_hist[h] += 1
                    del window[h]
                    window[p - 1] = HOLE
                else:
                    evict_hist[p if p < clamp else clamp] += 1
                    if p:
                        del window[p]
                if p or h >= 0:
                    winsert(0, k)
            else:
                if nh:
                    h = windex(HOLE)
                    evict(h)
                else:
                    h = -1
                    evict(clamp)
                for ci in range(K):
                    line_in(inst, ci)
                    add_active(ci, 1)
                if h >= 0:
                    evict_hist[h] += 1
                    del window[h]
                    nh -= 1
                    winsert(0, k)
                else:
                    evict_hist[clamp] += 1
                    winsert(0, k)
                    if len(window) > limit:
                        del window[limit:]
            if p > 0:
                for s in range(L):
                    v = invs[s]
                    if v is not None and v < p:
                        invs[s] = p
            invs[slot] = 0
        elif op == _P_FIRST:
            write_hist[clamp] += 1
            if nh:
                h = windex(HOLE)
                eb = h
            elif frozen:
                h = -1
                eb = clamp
            else:
                h = -1
                eb = total
            evict(eb)
            inst = kinst[k]
            for ci in range(K):
                line_in(inst, ci)
                add_active(ci, 1)
            if h >= 0:
                evict_hist[h] += 1
                del window[h]
                nh -= 1
            elif frozen:
                evict_hist[clamp] += 1
            else:
                evict_hist[total if total < clamp else clamp] += 1
                total += 1
                if total > limit:
                    frozen = True
            winsert(0, k)
            if len(window) > limit:
                del window[limit:]
            invs = [None] * L
            invs[slot] = 0
            inv[k] = invs
        elif op == _P_END:  # FREE raises at L > 1 during compilation
            for dk in elget(k, ()):
                try:
                    d = windex(dk)
                except ValueError:
                    d = clamp
                else:
                    window[d] = HOLE
                    nh += 1
                for v in inv[dk]:
                    if v is None:
                        continue
                    M = v if v > d else d
                    if M > 0:
                        live_hist[M if M < clamp else clamp] += 1
                    for ci in range(bisect_right(caps, M), K):
                        add_active(ci, -1)
                for ci in range(bisect_right(caps, d), K):
                    line_out(k, ci)
                inv[dk] = None
            per.end(k)
        else:  # TICK: value travels in the key column
            per.tick(k)

    if nk:
        at = {}
        for i, k in enumerate(window):
            if k != HOLE:
                at[k] = i
        get = at.get
        for k in range(nk):
            invs = inv[k]
            if invs is None:
                continue
            d = get(k, clamp)
            for v in invs:
                if v is None:
                    continue
                M = v if v > d else d
                if M > 0:
                    live_hist[M if M < clamp else clamp] += 1


def lru_scan(trace, capacities, word_bytes, line_size):
    """Windowed-stack LRU pass over every capacity in one walk.

    Returns ``(shared, percap)``: trace-wide counters and a dict
    ``{capacity: field dict}`` of every per-capacity statistic
    (traffic, occupancy/residency integrals, tick maxima).  Raises
    :class:`~repro.trace.oracle.OracleUnsupported` when the trace is
    out of reach (see the module docstring).
    """
    if _np is None:
        _unsupported("the LRU scan needs NumPy")
    from repro.trace.oracle import _PerCap, _check_trace, _suffix_sums

    _, caps = _check_trace(trace, capacities)
    (program, end_lists, n_reads, n_writes, nk, p0_reads, p0_writes,
     key_inst, n_inst, n_end, n_switch) = _compile(trace, line_size)

    L = line_size
    cmax = caps[-1]
    clamp = cmax + 1
    read_hist = [0] * (clamp + 1)
    write_hist = [0] * (clamp + 1)
    fill_hist = [0] * (clamp + 1)
    evict_hist = [0] * (clamp + 1)
    live_hist = [0] * (clamp + 1)
    read_hist[0] = fill_hist[0] = p0_reads
    write_hist[0] = p0_writes
    evict_hist[0] = p0_reads + p0_writes
    hists = (read_hist, write_hist, fill_hist, evict_hist, live_hist)
    per = _PerCap(caps)
    # BEGIN only seeds the per-instance residency vector, so all
    # instances can be registered up front
    K = len(caps)
    per.inst_lines = {i: [0] * K for i in range(n_inst)}
    if L == 1:
        _walk_flat_tables(program, end_lists, nk, hists, clamp, caps, per,
                          key_inst)
    else:
        _walk_lines_tables(program, end_lists, nk, L, hists, clamp, caps,
                           per, key_inst)
    per.finalize()

    rm = _suffix_sums(read_hist)
    wm = _suffix_sums(write_hist)
    fills = _suffix_sums(fill_hist)
    evs = _suffix_sums(evict_hist)
    lvs = _suffix_sums(live_hist)
    shared = {
        "reads": n_reads, "writes": n_writes, "instructions": per.gt,
        "contexts_created": n_inst, "contexts_ended": n_end,
        "context_switches": n_switch,
    }
    percap = {}
    for ci, cap in enumerate(caps):
        percap[cap] = {
            "read_misses": rm[cap], "write_misses": wm[cap],
            "lines_reloaded": fills[cap], "lines_spilled": evs[cap],
            "registers_reloaded": rm[cap],
            "live_registers_reloaded": rm[cap],
            "active_registers_reloaded": rm[cap],
            "registers_spilled": lvs[cap],
            "live_registers_spilled": lvs[cap],
            "words_loaded": rm[cap], "words_stored": lvs[cap],
            "raw_bytes_reloaded": rm[cap] * word_bytes,
            "wire_bytes_reloaded": rm[cap] * word_bytes,
            "raw_bytes_spilled": lvs[cap] * word_bytes,
            "wire_bytes_spilled": lvs[cap] * word_bytes,
            "switch_misses": 0,
            "occupancy_weighted": per.occ[ci],
            "resident_contexts_weighted": per.rcw[ci],
            "max_active_registers": per.max_active[ci],
            "max_resident_contexts": per.max_rc[ci],
        }
    return shared, percap
