"""One fresh interpreter of the end-to-end benchmark.

``run.py`` starts every phase of a run as its own process, the way
``python -m repro.evalx`` starts, so the in-process memos (trace-cache
memo, columnar analyses, oracle tables) start empty and their fill cost
lands inside the timing::

    python3 perfbench/child.py reference CONFIG.json
    python3 perfbench/child.py setup CONFIG.json
    python3 perfbench/child.py pass CONFIG.json
    python3 perfbench/child.py cell TRACE_DIR run-cell EXPERIMENT KEY ...

``CONFIG.json`` names the workload, scale, seed, private directories and
the file the phase writes its JSON result to.  ``cell`` is the traced
stand-in for ``python -m repro.evalx.runner run-cell``: it installs the
layer trace, runs the cell, and leaves its counters in ``TRACE_DIR``.
"""

import json
import os
import pathlib
import resource
import sys
import time

import kernel
import layers

#: the journalled sweeps of the cells-jobs workload (README.md, "Why not
#: resilience")
SWEEPS = ("table1", "compression")

#: experiments whose cells replay cached traces and so need a warm cache
CACHE_FILL = {"figs": layers.EXPERIMENTS, "cells": SWEEPS}


def jsonable(table):
    """A table as the JSON round trip leaves it (tuples become lists)."""
    return json.loads(json.dumps(table.to_dict(), sort_keys=True))


def table_failure(payload, reference):
    """Why a produced table counts as a failed operation, or None."""
    if reference is None:
        return "no reference table"
    notes = payload.get("notes") or ""
    if "[PARTIAL" in notes or "[QUARANTINED" in notes:
        return f"partial table: {notes}"
    if payload != reference:
        return "differs from the direct-execution reference"
    return None


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


class RefClock:
    """Times the phases of a pass (an experiment, or a sweep) and rescales
    each to the reference host speed by a calibration timed just before
    and just after it; the calibration runs outside the phases it
    calibrates.  ``calibrate`` returns the calibration's time now, and
    ``ref_s`` is its time on the reference host."""

    def __init__(self, cell_ms, calibrate, ref_s):
        self.cell_ms = cell_ms  # the raw per-cell samples, appended to live
        self.calibrate = calibrate
        self.ref_s = ref_s
        self.wall_s = 0.0
        self.ref_wall_s = 0.0
        self.ref_cell_ms = []
        self.calibration_s = 0.0  # host time spent calibrating
        self._calibration = self._calibrate()

    def _calibrate(self):
        start = time.perf_counter()
        value = self.calibrate()
        self.calibration_s += time.perf_counter() - start
        return value

    def start(self):
        self._first = len(self.cell_ms)
        self._began = time.perf_counter()

    def stop(self):
        elapsed = time.perf_counter() - self._began
        now = self._calibrate()
        factor = self.ref_s / ((self._calibration + now) / 2)
        self._calibration = now
        self.wall_s += elapsed
        self.ref_wall_s += elapsed * factor
        self.ref_cell_ms.extend(ms * factor
                                for ms in self.cell_ms[self._first:])
        return elapsed


def run_reference(config):
    """Direct execution (trace cache off, event engine) of the tables."""
    from repro.evalx import run_experiment

    tables = {}
    for name in config["experiments"]:
        try:
            tables[name] = jsonable(run_experiment(
                name, scale=config["scale"], seed=config["seed"]))
        except Exception as exc:  # a reference that raises checks nothing
            tables[name] = {"error": repr(exc)}
    return {"tables": tables}


def run_setup(config):
    """Fill the private empty trace cache with every trace the pass
    replays, then create the journal directories.

    The workload's cells run with event replay stubbed out, so what is
    timed is exactly the cold-cache fill: each model-independent trace
    recorded once, and every per-model trace (Gamteb) recorded through
    its model.  The tables this produces are discarded.  Each experiment's
    fill is timed on a :class:`RefClock`, so the driver can rescale the
    whole set-up by their mean factor.
    """
    trace = layers.LayerTrace()
    mods = layers.import_layers()
    if config["trace"]:
        trace.install_layers()
    replay = mods["repro.trace.replay"]
    layers.rebind(replay.replay, lambda trace, model, verify=True: model)
    runner = mods["repro.evalx.runner"]
    scale, seed = config["scale"], config["seed"]
    clock = RefClock([], lambda: kernel.kernel_s(kernel.RUNS), kernel.REF_S)
    for name in CACHE_FILL[config["family"]]:
        clock.start()
        if config["family"] == "figs":
            mods["repro.evalx"].run_experiment(name, scale=scale, seed=seed)
        else:
            for key in runner.sweep_cells(name):
                runner.run_cell(name, key, scale=scale, seed=seed)
        clock.stop()
    pathlib.Path(config["journals"]).mkdir(parents=True, exist_ok=True)
    return {"raw": trace.raw(), "factor": clock.ref_wall_s / clock.wall_s,
            "calibration_s": clock.calibration_s}


def run_figs_pass(config, trace, reference):
    from repro.evalx import run_experiment

    scale, seed = config["scale"], config["seed"]
    tables = {}
    # 15 short timings: the experiments' errors average out in the sum
    clock = RefClock(trace.cell_ms, lambda: kernel.kernel_s(kernel.RUNS),
                     kernel.REF_S)
    for name in layers.EXPERIMENTS:
        scans_before = trace.n["trace.oracle.scan"]
        clock.start()
        try:
            payload = jsonable(run_experiment(name, scale=scale, seed=seed))
        except Exception as exc:
            tables[name] = f"raised {exc!r}"
        else:
            tables[name] = table_failure(payload, reference.get(name))
        trace.s[f"evalx.exp.{name}"] += clock.stop()
        if name in layers.SCAN_EXPERIMENTS:
            trace.n[f"trace.oracle.scan.{name}"] += (
                trace.n["trace.oracle.scan"] - scans_before)
    return clock, tables, peak_rss_mb()


def sweep_failure(runner, name, config, journals, trace, reference):
    """Run one journalled sweep; why its table failed, or None."""
    try:
        result = runner.run_sweep(
            name, scale=config["scale"], seed=config["seed"],
            journal_path=journals / f"{name}.journal.jsonl",
            out_path=journals / f"{name}-sweep.json", jobs=config["jobs"])
    except Exception as exc:
        return f"raised {exc!r}"
    trace.n["evalx.runner.cells"] += len(result.keys)
    if not result.ok or result.table is None:
        return (f"sweep not ok: dropped {result.dropped_keys}, "
                f"deviations {result.deviations}")
    return table_failure(jsonable(result.table), reference.get(name))


def run_cells_pass(config, trace, reference):
    mods = layers.import_layers()
    runner = mods["repro.evalx.runner"]
    if config["trace"]:
        cell_dir = pathlib.Path(config["work"]) / "cell-traces"
        cell_dir.mkdir(parents=True, exist_ok=True)
        plain = runner._cell_command

        def traced_cell_command(*args):
            command = plain(*args)
            # [python, -m, repro.evalx.runner, run-cell, ...] -> child.py
            return [command[0], os.path.abspath(__file__), "cell",
                    str(cell_dir)] + command[3:]

        runner._cell_command = traced_cell_command
    journals = pathlib.Path(config["journals"])
    journals.mkdir(parents=True, exist_ok=True)
    tables = {}
    # the cells are interpreter start-ups on every core, and so is their
    # calibration (README.md, "Host speed")
    clock = RefClock(
        trace.cell_ms,
        lambda: kernel.spawn_kernel_s(config["jobs"], kernel.SPAWN_RUNS),
        kernel.SPAWN_REF_S)
    for name in SWEEPS:
        clock.start()
        tables[name] = sweep_failure(runner, name, config, journals, trace,
                                     reference)
        trace.s["evalx.runner.pool_capacity"] += config["jobs"] * clock.stop()
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    trace.n["evalx.runner.attempts"] += len(clock.cell_ms)
    trace.s["evalx.runner.cell_wall"] += sum(clock.cell_ms) / 1e3
    if not config["trace"]:
        return clock, tables, rss, None
    cell_raws = [json.loads(path.read_text())
                 for path in sorted(cell_dir.glob("*.json"))]
    counted = layers.merge(trace.raw(), *cell_raws)
    # the same cells once in-process, for the spawn-overhead split;
    # timed only, so their counters do not enter the sweep's
    for name in SWEEPS:
        began = time.perf_counter()
        for key in runner.sweep_cells(name):
            runner.run_cell(name, key, scale=config["scale"],
                            seed=config["seed"])
        counted["s"][f"evalx.runner.inproc.{name}"] = (
            time.perf_counter() - began)
    return clock, tables, rss, counted


def run_pass(config):
    """One measured pass over the workload, tables checked as they land."""
    reference = json.loads(pathlib.Path(config["reference"]).read_text())
    trace = layers.LayerTrace()
    if config["trace"]:
        trace.install_layers()
    else:
        trace.install_cell_clock()
    if config["family"] == "figs":
        clock, tables, rss = run_figs_pass(config, trace, reference)
        raw = trace.raw()
    else:
        clock, tables, rss, raw = run_cells_pass(config, trace, reference)
    # cells timed after the clock stopped (the traced in-process reruns)
    # are not the pass's
    result = {"wall_s": clock.wall_s, "ref_wall_s": clock.ref_wall_s,
              "cell_ms": clock.cell_ms[:len(clock.ref_cell_ms)],
              "ref_cell_ms": clock.ref_cell_ms,
              "peak_rss_mb": rss, "tables": tables}
    if config["trace"]:
        raw["s"]["evalx.wall"] = clock.wall_s
        result["raw"] = raw
    return result


def run_traced_cell(argv):
    """Traced ``runner run-cell``: counters land in ``argv[0]``."""
    trace_dir, cell_argv = pathlib.Path(argv[0]), argv[1:]
    trace = layers.LayerTrace()
    trace.install_layers()
    runner = sys.modules["repro.evalx.runner"]
    code = runner.main(cell_argv)
    (trace_dir / f"{os.getpid()}.json").write_text(json.dumps(trace.raw()))
    return code


PHASES = {"reference": run_reference, "setup": run_setup,
          "pass": run_pass}


def main(argv):
    if argv[0] == "cell":
        return run_traced_cell(argv[1:])
    config = json.loads(pathlib.Path(argv[1]).read_text())
    result = PHASES[argv[0]](config)
    pathlib.Path(config["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
