"""Columnar synthesis + stack-distance oracle benchmark and gate.

Two committed contracts, each a same-box ratio (machine-independent,
safe to gate in CI):

* ``columnar_replay`` — one replay of a recorded trace through
  columnar synthesis (the oracle engine's per-model path) vs the
  scalar packed event loop.  The gated number
  is the *shared-analysis* replay (``speedup``): every consumer here
  (the sweep farm, ``oracle_sweep``, repeated ``run_workload`` cells)
  replays one trace against many models, and the whole-trace analysis
  is memoized per trace — so the marginal cost of a columnar replay
  is the O(registers) synthesis.  On the compiled-CPU trace that must
  hold **>= 10x**; ``cold_speedup`` (analysis inside the timed
  region, i.e. a trace replayed exactly once) is reported and
  baseline-gated.  The activation-machine trace (GateSim) is
  baseline-gated only — its larger register population makes
  synthesis a bigger fraction of a smaller total.
* ``oracle_sweep`` — a fig11-style 6-point capacity sweep served by
  :func:`repro.trace.oracle.oracle_sweep` (one shared analysis + one
  O(1) stats apply per cell) vs the cost of a *single* cold
  columnar scan.  The sweep must cost **<= 1.5x** the single scan —
  the "N-cell sweep for the price of one pass" contract.  All six
  capacities sit at or above the trace's peak register demand, which
  is exactly the regime the paper's fig11 grid occupies (the NSF
  rarely spills); for the sub-peak regime the same run reports
  ``curves_speedup``: one :func:`capacity_tables` scan (the NumPy LRU
  kernel, what the oracle engine runs for sub-peak cells) vs an
  event-exact replay per capacity, baseline-gated.

Usage::

    python benchmarks/bench_columnar.py                  # report
    python benchmarks/bench_columnar.py --write-baseline # refresh
    python benchmarks/bench_columnar.py --check          # CI gate

Results live under the ``columnar_replay`` and ``oracle_sweep`` keys
of BENCH_baseline.json; ``--write-baseline`` merges those two keys and
leaves every other benchmark's key untouched.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import NamedStateRegisterFile
from repro.evalx.common import make_nsf
from repro.trace import cache as trace_cache, columnar, oracle, replay
from repro.workloads import get_workload
from repro.workloads.compiled import CompiledSuite

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_baseline.json"

SEED = 11
REPEATS = 5
TOLERANCE = 1.5

#: hard floors/ceilings independent of the recorded baseline
MIN_COMPILED_SPEEDUP = 10.0
MAX_SWEEP_RATIO = 1.5

#: fig11-style capacity grid (frames x 20-register contexts), all at
#: or above the compiled trace's peak demand
SWEEP_CAPACITIES = (40, 80, 120, 160, 200, 240)


def _best_times(fns, repeats=REPEATS):
    """Minimum wall time per function over ``repeats`` interleaved runs
    (interleaved so background-load drift lands on both sides)."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def _record(workload):
    """``workload``'s trace, served by a private trace cache so the
    analysis is memoized under the trace's content address."""
    scale = 1.0 if workload.name == "CompiledSuite" else 0.35
    with tempfile.TemporaryDirectory() as directory:
        return trace_cache.load_or_record(workload, scale=scale,
                                          seed=SEED, directory=directory)


def _get_workload(name):
    return CompiledSuite() if name == "CompiledSuite" else get_workload(name)


def _replay_case(workload_name):
    workload = _get_workload(workload_name)
    trace = _record(workload)

    def scalar():
        replay(trace, make_nsf(workload), verify=False)

    def cold():
        trace_cache.clear_derived()
        columnar.replay_columnar(trace, make_nsf(workload))

    def warm():
        columnar.replay_columnar(trace, make_nsf(workload))

    scalar_t, cold_t = _best_times([scalar, cold])
    columnar.analyze(trace)  # prime the memo
    (warm_t,) = _best_times([warm])
    assert columnar.apply_analysis(columnar.analyze(trace),
                                   make_nsf(workload)), \
        "bench trace fell out of the synthesis regime"
    return {
        "workload": workload_name,
        "events": len(trace),
        "scalar_ms": round(scalar_t * 1e3, 3),
        "columnar_cold_ms": round(cold_t * 1e3, 3),
        "columnar_warm_ms": round(warm_t * 1e3, 3),
        "speedup": round(scalar_t / warm_t, 2),
        "cold_speedup": round(scalar_t / cold_t, 2),
    }


def run_columnar_replay():
    return {
        "compiled": _replay_case("CompiledSuite"),
        "gatesim": _replay_case("GateSim"),
    }


def run_oracle_sweep():
    workload = CompiledSuite()
    trace = _record(workload)
    ctx = trace.context_size
    peak = columnar.analyze(trace).peak_lines
    configurations = [{"num_registers": n} for n in SWEEP_CAPACITIES]

    def factory(num_registers):
        return NamedStateRegisterFile(
            num_registers=num_registers, context_size=ctx, line_size=1)

    def single_scan():
        trace_cache.clear_derived()
        columnar.replay_columnar(trace, factory(SWEEP_CAPACITIES[0]))

    def oracle_pass():
        trace_cache.clear_derived()
        oracle.oracle_sweep(trace, factory, configurations)

    def event_pass():
        for config in configurations:
            replay(trace, factory(**config), verify=False)

    scan_t, oracle_t, event_t = _best_times(
        [single_scan, oracle_pass, event_pass])

    # sub-peak regime: one full-table LRU scan vs one event-exact
    # replay per capacity point
    sub_grid = [max(1, peak * (i + 1) // 7) for i in range(6)]
    sub_grid = sorted(set(sub_grid))

    def curves_pass():
        oracle.capacity_tables(trace, sub_grid)

    def event_sub_pass():
        for capacity in sub_grid:
            replay(trace, factory(capacity), verify=False)

    curves_t, event_sub_t = _best_times([curves_pass, event_sub_pass])
    return {
        "workload": "CompiledSuite",
        "cells": len(configurations),
        "capacities": list(SWEEP_CAPACITIES),
        "peak_lines": peak,
        "single_scan_ms": round(scan_t * 1e3, 3),
        "oracle_sweep_ms": round(oracle_t * 1e3, 3),
        "event_sweep_ms": round(event_t * 1e3, 3),
        "sweep_vs_scan_ratio": round(oracle_t / scan_t, 3),
        "sweep_speedup_vs_event": round(event_t / oracle_t, 2),
        "subpeak_capacities": sub_grid,
        "curves_ms": round(curves_t * 1e3, 3),
        "event_subpeak_ms": round(event_sub_t * 1e3, 3),
        "curves_speedup": round(event_sub_t / curves_t, 2),
    }


def measure():
    return {
        "columnar_replay": run_columnar_replay(),
        "oracle_sweep": run_oracle_sweep(),
    }


def report(results, stream=sys.stdout):
    for name, row in results["columnar_replay"].items():
        stream.write(
            f"columnar/{name}: {row['events']:,} events, scalar "
            f"{row['scalar_ms']}ms vs columnar {row['columnar_warm_ms']}"
            f"ms shared-analysis / {row['columnar_cold_ms']}ms cold "
            f"({row['speedup']:.1f}x shared, {row['cold_speedup']:.1f}x"
            f" cold)\n")
    osw = results["oracle_sweep"]
    stream.write(
        f"oracle/sweep: {osw['cells']}-point capacity sweep "
        f"{osw['oracle_sweep_ms']}ms vs {osw['single_scan_ms']}ms "
        f"single columnar scan ({osw['sweep_vs_scan_ratio']:.2f}x the "
        f"scan; event sweep {osw['event_sweep_ms']}ms, "
        f"{osw['sweep_speedup_vs_event']:.1f}x faster)\n")
    stream.write(
        f"oracle/curves: sub-peak grid {osw['subpeak_capacities']} in "
        f"{osw['curves_ms']}ms one-pass vs {osw['event_subpeak_ms']}ms "
        f"event replays ({osw['curves_speedup']:.1f}x)\n")


def check(results, baseline, tolerance=TOLERANCE, stream=sys.stdout):
    """True when every ratio holds its floor/ceiling.

    Speedup floors are ``max(hard_floor, baseline / tolerance)``; the
    sweep-cost ceiling is ``min(hard_ceiling, baseline * tolerance)``
    — both contracts stay absolute even if the baseline drifts.
    """
    ok = True
    hard = {"compiled": MIN_COMPILED_SPEEDUP, "gatesim": 0.0}
    for name, base_row in baseline["columnar_replay"].items():
        for field, hard_floor in (("speedup", hard.get(name, 0.0)),
                                  ("cold_speedup", 0.0)):
            floor = max(hard_floor, base_row[field] / tolerance)
            got = results["columnar_replay"][name][field]
            verdict = "ok" if got >= floor else "REGRESSION"
            ok = ok and got >= floor
            stream.write(f"check columnar/{name}.{field}: {got:.1f}x "
                         f"(baseline {base_row[field]:.1f}x, floor "
                         f"{floor:.1f}x) {verdict}\n")

    base = baseline["oracle_sweep"]
    ceiling = min(MAX_SWEEP_RATIO,
                  base["sweep_vs_scan_ratio"] * tolerance)
    got = results["oracle_sweep"]["sweep_vs_scan_ratio"]
    verdict = "ok" if got <= ceiling else "REGRESSION"
    ok = ok and got <= ceiling
    stream.write(f"check oracle/sweep: {got:.2f}x the single scan "
                 f"(ceiling {ceiling:.2f}x) {verdict}\n")

    floor = base["curves_speedup"] / tolerance
    got = results["oracle_sweep"]["curves_speedup"]
    verdict = "ok" if got >= floor else "REGRESSION"
    ok = ok and got >= floor
    stream.write(f"check oracle/curves: {got:.1f}x (baseline "
                 f"{base['curves_speedup']:.1f}x, floor {floor:.1f}x) "
                 f"{verdict}\n")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the columnar replay engine and the "
                    "stack-distance oracle, gating against "
                    "BENCH_baseline.json.")
    parser.add_argument("--write-baseline", action="store_true",
                        help="measure and refresh the columnar_replay "
                             "and oracle_sweep keys")
    parser.add_argument("--check", action="store_true",
                        help="measure and fail on regression")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE,
                        help="allowed baseline/measured ratio drift")
    args = parser.parse_args(argv)

    if not columnar.numpy_available():
        print("numpy unavailable: columnar benchmarks skipped "
              "(install the perf extra)", file=sys.stderr)
        return 0

    results = measure()
    report(results)

    if args.write_baseline:
        merged = (json.loads(BASELINE_PATH.read_text())
                  if BASELINE_PATH.exists() else {})
        merged.update(results)
        BASELINE_PATH.write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n")
        print(f"baseline keys 'columnar_replay' + 'oracle_sweep' "
              f"written to {BASELINE_PATH}")
        return 0
    if args.check:
        baseline = (json.loads(BASELINE_PATH.read_text())
                    if BASELINE_PATH.exists() else {})
        missing = [key for key in ("columnar_replay", "oracle_sweep")
                   if key not in baseline]
        if missing:
            print(f"no {missing} keys in BENCH_baseline.json; run "
                  "--write-baseline first", file=sys.stderr)
            return 2
        if not check(results, baseline, tolerance=args.tolerance):
            print("perf regression vs BENCH_baseline.json",
                  file=sys.stderr)
            return 1
        print("bench-check ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
