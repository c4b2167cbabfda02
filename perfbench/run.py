"""End-to-end benchmark: regenerate the paper's tables, end to end.

    python3 perfbench/run.py --workload figs-oracle --seed 1 --seconds 24 \
        --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

Run from the root of a checkout (``src/repro`` must be there).  Each
workload is measured in three steps:

1. **Reference.**  Every table the workload produces, by direct
   execution (``REPRO_NO_TRACE_CACHE=1``, event engine), split over
   ``nproc`` fresh interpreters.  Not timed.
2. **Set-up** (``setup_s``).  A fresh interpreter fills a private empty
   trace cache with every trace the workload replays and creates the
   journal directories.  Repeated :data:`SETUPS` times, median
   reported; the last cache stays for the passes.
3. **Passes.**  Fresh interpreters run the workload on the warm cache,
   one after another: as many whole passes as fit in ``--seconds``, at
   least one.  Medians over the passes are reported.
   Each table is compared with the reference as it lands; a table that
   raises, comes back partial or differs is a failed operation.

Times of set-ups and passes are rescaled to the reference host speed by
a calibration kernel (``kernel.py``) timed between the experiments or
sweeps they run (``child.RefClock``); the raw host times are printed
alongside.

With ``--trace 1`` the set-up and a single pass run under the
outside-in layer trace (``layers.py``) and the per-layer metrics are
printed instead of the end-to-end ones.  The last line of standard
output is the JSON result.

Every run works in a private directory under ``.perfbench-run/`` in the
checkout (trace cache, journals, sweep outputs, temporary files) and
deletes it on exit, so the repository's ``.trace-cache/`` and
``benchmarks/results/`` are never touched.  Inherited ``REPRO_*``
variables are dropped, so a stray chaos seed or cell-failure hook
cannot change what a workload runs.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

import layers

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

#: workload seeds are the benchmark's; the scale is fixed so a run of
#: every workload (reference, three set-ups, one pass) stays well under
#: a minute on two cores
SCALE = 0.5
SETUPS = 3

#: a run that has not finished by then is killed and reported as failed
DEADLINE_S = 170.0

#: why each workload exists: which layers it loads and which it bypasses
WORKLOADS = {
    # event engine + register-file hot path do the work; no oracle code
    "figs-event": {"family": "figs", "engine": "event"},
    # oracle/vector/columnar tables serve most cells; event replay only
    # for the fallback cells (fig13, NMRU, compression)
    "figs-oracle": {"family": "figs", "engine": "oracle"},
    # journalled runner sweeps, one subprocess per cell, per-cell disk
    # loads of the trace cache
    "cells-jobs": {"family": "cells", "engine": "event"},
}

#: tables each workload family produces and checks
TABLES = {"figs": layers.EXPERIMENTS, "cells": ("table1", "compression")}

#: relative direct-execution cost, to balance the reference workers
_REFERENCE_COST = {
    "fig11": 6.5, "fig12": 5.4, "compression": 4.9,
    "claims": 2.2, "fig10": 2.0, "fig09": 1.6, "fig13": 1.6,
    "profile": 1.4, "table1": 1.1, "fig14": 1.1,
}

END_TO_END_UNITS = {"wall_ref_s": "s", "cell_ref_ms_p50": "ms",
                    "cell_ref_ms_p80": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed table)."""


def nproc():
    return len(os.sched_getaffinity(0))


class Run:
    """One invocation's private directory, environment and deadline."""

    def __init__(self, workload, seed, scale, trace):
        self.spec = WORKLOADS[workload]
        self.family = self.spec["family"]
        self.seed = seed
        self.scale = scale
        self.trace = trace
        self.jobs = nproc()
        self.deadline = time.monotonic() + DEADLINE_S
        base = ROOT / ".perfbench-run"
        base.mkdir(exist_ok=True)
        self.dir = base / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "tmp").mkdir(parents=True)
        self._serial = 0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass  # another run still works there

    def env(self, cache, **extra):
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(self.dir / "tmp"),
                   REPRO_REPLAY_ENGINE=self.spec["engine"],
                   REPRO_TRACE_CACHE=str(cache))
        env.update(extra)
        return env

    def config(self, **fields):
        self._serial += 1
        out = self.dir / f"result-{self._serial}.json"
        config = {"family": self.family, "scale": self.scale,
                  "seed": self.seed, "trace": self.trace, "jobs": self.jobs,
                  "out": str(out), **fields}
        path = self.dir / f"config-{self._serial}.json"
        path.write_text(json.dumps(config))
        return path, out

    def start(self, phase, config_path, env):
        return subprocess.Popen(
            [sys.executable, str(CHILD), phase, str(config_path)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)

    def finish(self, proc, phase, out):
        """Wait for a child within the run's deadline; its JSON result."""
        try:
            _, stderr = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{phase} did not finish before the deadline")
        if proc.returncode != 0:
            tail = " | ".join(stderr.strip().splitlines()[-5:])
            raise BenchError(f"{phase} exited {proc.returncode}: {tail}")
        return json.loads(out.read_text())

    def reference(self):
        """Direct-execution tables, split over ``nproc`` workers."""
        buckets = [[] for _ in range(min(self.jobs, len(TABLES[self.family])))]
        load = [0.0] * len(buckets)
        for name in sorted(TABLES[self.family],
                           key=lambda n: -_REFERENCE_COST.get(n, 0.01)):
            i = load.index(min(load))
            buckets[i].append(name)
            load[i] += _REFERENCE_COST.get(name, 0.01)
        env = self.env(self.dir / "reference-cache", REPRO_NO_TRACE_CACHE="1",
                       REPRO_REPLAY_ENGINE="event")
        running = []
        try:
            for bucket in buckets:
                config, out = self.config(experiments=bucket)
                running.append((self.start("reference", config, env), out))
            tables = {}
            for proc, out in running:
                tables.update(self.finish(proc, "reference", out)["tables"])
        finally:
            for proc, _ in running:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        path = self.dir / "reference.json"
        path.write_text(json.dumps(tables))
        return path

    def setup(self, index):
        """One cold set-up; returns ``(host s, reference-speed s, cache,
        journals, raw)``.  The calibration the child times between its
        fills is not set-up work: it is taken out before rescaling."""
        cache = self.dir / f"cache-{index}"
        journals = self.dir / f"journals-{index}"
        config, out = self.config(journals=str(journals))
        start = time.perf_counter()
        # the fill is engine-independent: event replay is the one the
        # set-up child stubs out, so no engine work is timed
        env = self.env(cache, REPRO_REPLAY_ENGINE="event")
        proc = self.start("setup", config, env)
        result = self.finish(proc, "setup", out)
        elapsed = time.perf_counter() - start - result["calibration_s"]
        return (elapsed, elapsed * result["factor"], cache, journals,
                result["raw"])

    def measured_pass(self, index, reference, cache, journals):
        work = self.dir / f"pass-{index}"
        work.mkdir()
        config, out = self.config(reference=str(reference),
                                  journals=str(journals / f"pass-{index}"),
                                  work=str(work))
        proc = self.start("pass", config, self.env(cache))
        return self.finish(proc, "pass", out)


def percentile(samples, fraction):
    """Inclusive linear-interpolation percentile."""
    if len(samples) == 1:
        return samples[0]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def count_failures(passes):
    attempted = failed = 0
    for one in passes:
        for name, failure in sorted(one["tables"].items()):
            attempted += 1
            if failure is not None:
                failed += 1
                print(f"FAILED {name}: {failure}", file=sys.stderr)
    return attempted, failed


def measure(workload, args):
    run = Run(workload, args.seed, SCALE, bool(args.trace))
    try:
        reference = run.reference()
        if args.trace:
            _, _, cache, journals, setup_raw = run.setup(0)
            passes = [run.measured_pass(0, reference, cache, journals)]
            # the set-up contributes only what it exists for: the cache
            # fill and the front-end runs that record it
            kept = {kind: {key: value
                           for key, value in setup_raw[kind].items()
                           if key.startswith(("trace.cache.", "workloads."))}
                    for kind in ("n", "s")}
            metrics = layers.layer_metrics(
                layers.merge(kept, passes[0]["raw"]))
        else:
            setups = [run.setup(i) for i in range(SETUPS)]
            _, _, cache, journals, _ = setups[-1]
            passes = []
            began = time.perf_counter()
            while True:  # as many whole passes as fit in --seconds
                passes.append(run.measured_pass(len(passes), reference,
                                                cache, journals))
                spent = time.perf_counter() - began
                if spent + spent / len(passes) > args.seconds:
                    break
            cells = [ms for one in passes for ms in one["ref_cell_ms"]]
            metrics = {
                "wall_ref_s": statistics.median(p["ref_wall_s"]
                                                for p in passes),
                "cell_ref_ms_p50": percentile(cells, 0.5),
                "cell_ref_ms_p80": percentile(cells, 0.8),
                "setup_s": statistics.median(s[1] for s in setups),
                "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            }
            metrics = {name: (value, END_TO_END_UNITS[name])
                       for name, value in metrics.items()}
            raw_cells = [ms for one in passes for ms in one["cell_ms"]]
            print(f"{workload}: {len(passes)} pass(es), "
                  f"{len(cells)} cell samples, {SETUPS} set-ups, "
                  f"scale {SCALE}, seed {args.seed}; host time: wall "
                  f"{statistics.median(p['wall_s'] for p in passes):.3f} s, "
                  f"cell p50 {percentile(raw_cells, 0.5):.1f} ms, set-up "
                  f"{statistics.median(s[0] for s in setups):.3f} s")
    finally:
        run.close()
    attempted, failed = count_failures(passes)
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn (metric "
                             "names then carry a '<workload>.' prefix)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="time budget for the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "evalx").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: measure(name, args) for name in workloads}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{workload}.{name}": metric
                        for workload, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
