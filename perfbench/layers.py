"""Outside-in layer trace for the end-to-end benchmark.

Nothing here edits ``src/``: every counter and busy time comes from
wrapping a ``repro`` entry point *where it is looked up*.  Experiment
modules bind ``run_workload``, ``serve_from_tables`` and friends by name
at import time, and the ``repro.trace`` package re-exports a function
called ``replay`` that shadows its own submodule, so patching one module
attribute is not enough: :func:`rebind` replaces every module-level
binding of the original function object across the loaded ``repro``
modules.

Two levels:

* :meth:`LayerTrace.install_cell_clock` — the untraced runs.  Only the
  per-cell host time the end-to-end metrics need (one ``perf_counter``
  pair per ``run_workload`` call or per cell subprocess).
* :meth:`LayerTrace.install_layers` — the traced run.  Every layer's
  call counts and busy seconds; :func:`layer_metrics` turns the raw
  counters into the named per-layer metrics.
"""

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

EXPERIMENTS = (
    "table1", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
    "fig11", "fig12", "fig13", "fig14", "claims", "compression",
    "profile",
)

#: the experiments whose oracle family scans are reported on their own
SCAN_EXPERIMENTS = ("fig11", "fig12")

#: the modules that define the wrapped entry points.  Experiment
#: modules stay lazily imported, as under ``python -m repro.evalx``:
#: their by-name imports copy the binding that is current when they
#: load, which after :func:`rebind` is the wrapper
_MODULES = (
    "repro.evalx", "repro.evalx.common", "repro.evalx.runner",
    "repro.evalx.journal", "repro.trace.cache", "repro.trace.replay",
    "repro.trace.columnar", "repro.trace.oracle", "repro.trace.vector",
    "repro.workloads.base", "repro.workloads.compiled",
)


def import_layers():
    """Import the layer modules; returns ``sys.modules``."""
    for name in _MODULES:
        importlib.import_module(name)
    return sys.modules


def rebind(original, replacement):
    """Point every ``repro`` module-level name bound to ``original`` at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


class LayerTrace:
    """Counts (``n``) and busy seconds (``s``) per layer, in memory."""

    def __init__(self):
        self.n = Counter()
        self.s = defaultdict(float)
        self.cell_ms = []
        self._cell_depth = 0   # inside run_workload
        self._outer_depth = 0  # inside run_workload or a cache call
        self._front_depth = 0  # inside Workload.run

    # -- wrappers --------------------------------------------------------

    def _timed(self, fn, name, after=None):
        """Count calls of ``fn`` under ``name`` and add their seconds."""
        n, s, clock = self.n, self.s, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            s[name] += clock() - start
            n[name] += 1
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _outer(self, fn, name):
        """Like :meth:`_timed`, and time outside any nested cell or
        cache call feeds ``evalx.inner`` (subtracted for self time)."""
        n, s, clock = self.n, self.s, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._outer_depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._outer_depth -= 1
                s[name] += elapsed
                n[name] += 1
                if not self._outer_depth:
                    s["evalx.inner"] += elapsed

        return wrapper

    def _add_model_stats(self, model):
        stats = getattr(model, "stats", None)
        if stats is None:
            return
        self.n["core.sim_accesses"] += stats.reads + stats.writes
        self.n["core.sim_spills"] += stats.registers_spilled
        self.n["core.sim_reloads"] += stats.registers_reloaded

    def _cell(self, fn, layers):
        """``run_workload``: one sweep cell in-process."""
        cells, clock = self.cell_ms, time.perf_counter
        outer = self._outer(fn, "evalx.run_workload") if layers else fn

        @functools.wraps(fn)
        def run_workload(workload, model, *args, **kwargs):
            self._cell_depth += 1
            start = clock()
            try:
                return outer(workload, model, *args, **kwargs)
            finally:
                elapsed = clock() - start
                self._cell_depth -= 1
                cells.append(elapsed * 1e3)
                if layers:
                    self.s["core.cell_s"] += elapsed
                    self._add_model_stats(model)

        return run_workload

    def _watched(self, fn):
        """``runner.watched_run``: one cell subprocess attempt."""
        cells, clock = self.cell_ms, time.perf_counter

        @functools.wraps(fn)
        def watched_run(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cells.append((clock() - start) * 1e3)

        return watched_run

    # -- installation ----------------------------------------------------

    def install_cell_clock(self):
        """Per-cell timers only: what the untraced runs measure."""
        mods = import_layers()
        common = mods["repro.evalx.common"]
        runner = mods["repro.evalx.runner"]
        rebind(common.run_workload,
               self._cell(common.run_workload, layers=False))
        rebind(runner.watched_run, self._watched(runner.watched_run))

    def install_layers(self):
        """Every layer's counters and busy times (the traced run)."""
        mods = import_layers()
        common = mods["repro.evalx.common"]
        runner = mods["repro.evalx.runner"]
        journal = mods["repro.evalx.journal"]
        cache = mods["repro.trace.cache"]
        replay = mods["repro.trace.replay"]
        columnar = mods["repro.trace.columnar"]
        oracle = mods["repro.trace.oracle"]
        vector = mods["repro.trace.vector"]
        base = mods["repro.workloads.base"]
        compiled = mods["repro.workloads.compiled"]
        n = self.n

        rebind(common.run_workload,
               self._cell(common.run_workload, layers=True))
        rebind(runner.watched_run, self._watched(runner.watched_run))

        # trace cache: lookups (with the recordings they trigger) and
        # recordings; load_s = lookup time minus nested record_trace
        for name in ("load_or_record", "load_for_model"):
            rebind(getattr(cache, name),
                   self._outer(getattr(cache, name), "trace.cache.lookup"))
        rebind(cache.record_through,
               self._outer(cache.record_through, "trace.cache.through"))
        rebind(cache.record_trace,
               self._timed(cache.record_trace, "trace.cache.record"))

        # workload front-end: top-level runs only (a recording run
        # nests the model's own run inside the tracer's)
        for cls in (base.Workload, compiled.CompiledSuite):
            cls.run = self._front_end(cls.run)

        # event hot path: one binding serves replay(), the columnar
        # engine falls back through its own binding of the same loop
        event = self._timed(replay._replay_fast, "trace.replay",
                            after=self._count_events)
        rebind(replay._replay_fast, event)

        def fallback(trace, model):
            n["trace.columnar.fallbacks"] += 1
            return event(trace, model)

        columnar._replay_fast = fallback

        rebind(columnar.analyze,
               self._timed(columnar.analyze, "trace.columnar.analyze"))
        rebind(columnar.apply_analysis,
               self._timed(columnar.apply_analysis,
                           "trace.columnar.apply",
                           after=self._count_true("trace.columnar.synth")))

        rebind(oracle.serve_from_tables,
               self._timed(oracle.serve_from_tables, "trace.oracle.serve",
                           after=self._count_true("trace.oracle.served")))
        rebind(oracle.tables_for_model,
               self._timed(oracle.tables_for_model, "trace.oracle.tables"))
        rebind(oracle.capacity_tables,
               self._timed(oracle.capacity_tables, "trace.oracle.scan"))
        rebind(oracle._seg_tables_pair,
               self._timed(oracle._seg_tables_pair, "trace.oracle.scan"))
        rebind(vector.lru_scan,
               self._timed(vector.lru_scan, "trace.vector.lru_scan"))

        rebind(runner.assemble_table,
               self._timed(runner.assemble_table, "evalx.runner.assemble"))
        journal.Journal.append = self._timed(journal.Journal.append,
                                             "evalx.journal.append")

    def _front_end(self, run):
        n, s, clock = self.n, self.s, time.perf_counter

        @functools.wraps(run)
        def wrapper(workload, regfile, *args, **kwargs):
            if self._front_depth:
                return run(workload, regfile, *args, **kwargs)
            self._front_depth += 1
            start = clock()
            try:
                return run(workload, regfile, *args, **kwargs)
            finally:
                elapsed = clock() - start
                self._front_depth -= 1
                n["workloads.run"] += 1
                s["workloads.run"] += elapsed
                if not self._cell_depth and not self._outer_depth:
                    # a front-end run that is itself the cell (profile
                    # drives its tracer directly when the cache is off)
                    s["core.cell_s"] += elapsed
                    self._add_model_stats(regfile)

        return wrapper

    def _count_events(self, _result, args):
        self.n["trace.replay.events"] += len(args[0])

    def _count_true(self, name):
        def after(result, _args):
            if result:
                self.n[name] += 1
        return after

    # -- reporting -------------------------------------------------------

    def raw(self):
        """Plain counters for the driver (JSON-safe)."""
        cache = sys.modules.get("repro.trace.cache")
        counts = dict(self.n)
        if cache is not None:
            stats = cache.STATS
            for field in ("hits", "misses", "records", "quarantined"):
                counts[f"trace.cache.{field}"] = (
                    counts.get(f"trace.cache.{field}", 0)
                    + getattr(stats, field))
        return {"n": counts, "s": dict(self.s)}


def merge(*raws):
    """Sum raw counter dicts from several processes."""
    n, s = Counter(), defaultdict(float)
    for raw in raws:
        n.update(raw.get("n", {}))
        for key, value in raw.get("s", {}).items():
            s[key] += value
    return {"n": dict(n), "s": dict(s)}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(raw):
    """The named per-layer metrics from merged raw counters."""
    n = Counter(raw.get("n", {}))
    s = defaultdict(float, raw.get("s", {}))
    m = {}
    for name in EXPERIMENTS:
        m[f"evalx.{name}_s"] = (s[f"evalx.exp.{name}"], "s")
    experiments_s = sum(s[f"evalx.exp.{name}"] for name in EXPERIMENTS)
    m["evalx.self_s"] = (max(0.0, experiments_s - s["evalx.inner"]), "s")
    m["evalx.cells"] = (n["evalx.run_workload"], "count")
    m["evalx.wall_s"] = (s["evalx.wall"], "s")
    for field in ("hits", "misses", "records", "quarantined"):
        m[f"trace.cache.{field}"] = (n[f"trace.cache.{field}"], "count")
    record_s = s["trace.cache.record"] + s["trace.cache.through"]
    m["trace.cache.load_s"] = (
        max(0.0, s["trace.cache.lookup"] - s["trace.cache.record"]), "s")
    m["trace.cache.record_s"] = (record_s, "s")
    m["workloads.runs"] = (n["workloads.run"], "count")
    m["workloads.run_s"] = (s["workloads.run"], "s")
    m["trace.replay.calls"] = (n["trace.replay"], "count")
    m["trace.replay.s"] = (s["trace.replay"], "s")
    m["trace.replay.events"] = (n["trace.replay.events"], "count")
    m["trace.replay.ns_per_event"] = (
        _ratio(s["trace.replay"] * 1e9, n["trace.replay.events"]), "ns")
    m["trace.columnar.analyze_calls"] = (n["trace.columnar.analyze"],
                                         "count")
    m["trace.columnar.analyze_s"] = (s["trace.columnar.analyze"], "s")
    m["trace.columnar.synth_ratio"] = (
        _ratio(n["trace.columnar.synth"], n["trace.columnar.apply"]),
        "ratio")
    m["trace.columnar.fallbacks"] = (n["trace.columnar.fallbacks"],
                                     "count")
    m["trace.oracle.serve_calls"] = (n["trace.oracle.serve"], "count")
    m["trace.oracle.served_ratio"] = (
        _ratio(n["trace.oracle.served"], n["trace.oracle.serve"]), "ratio")
    m["trace.oracle.tables_s"] = (s["trace.oracle.tables"], "s")
    m["trace.oracle.scans"] = (n["trace.oracle.scan"], "count")
    for name in SCAN_EXPERIMENTS:
        m[f"trace.oracle.{name}_scans"] = (n[f"trace.oracle.scan.{name}"],
                                           "count")
    m["trace.vector.lru_scans"] = (n["trace.vector.lru_scan"], "count")
    m["trace.vector.lru_scan_s"] = (s["trace.vector.lru_scan"], "s")
    m["core.sim_accesses"] = (n["core.sim_accesses"], "count")
    m["core.sim_spills"] = (n["core.sim_spills"], "count")
    m["core.sim_reloads"] = (n["core.sim_reloads"], "count")
    m["core.host_ns_per_sim_access"] = (
        _ratio(s["core.cell_s"] * 1e9, n["core.sim_accesses"]), "ns")
    cell_wall = s["evalx.runner.cell_wall"]
    inproc = s["evalx.runner.inproc.table1"] + s[
        "evalx.runner.inproc.compression"]
    m["evalx.runner.cells"] = (n["evalx.runner.cells"], "count")
    m["evalx.runner.attempts"] = (n["evalx.runner.attempts"], "count")
    m["evalx.runner.cell_wall_s"] = (cell_wall, "s")
    m["evalx.runner.table1_inproc_s"] = (
        s["evalx.runner.inproc.table1"], "s")
    m["evalx.runner.compression_inproc_s"] = (
        s["evalx.runner.inproc.compression"], "s")
    m["evalx.runner.spawn_overhead_s"] = (
        cell_wall - inproc if cell_wall else 0.0, "s")
    m["evalx.runner.pool_busy_frac"] = (
        _ratio(cell_wall, s["evalx.runner.pool_capacity"]), "ratio")
    m["evalx.runner.assemble_s"] = (s["evalx.runner.assemble"], "s")
    m["evalx.journal.appends"] = (n["evalx.journal.append"], "count")
    m["evalx.journal.append_s"] = (s["evalx.journal.append"], "s")
    return m
