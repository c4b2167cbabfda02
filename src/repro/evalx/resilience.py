"""Fault-injection campaign: the resilience layer leaves nothing silent.

Sweeps fault kind × trigger point × model × protection level, runs a
real verified workload under each combination, and classifies every run
by the highest rung of the recovery ladder it needed:

* ``corrected`` — SEC-DED fixed a single-bit error in place;
* ``reread``    — a transient glitch vanished on retry;
* ``reloaded``  — a clean register was demand-reloaded from backing;
* ``trapped``   — a dirty uncorrectable error raised a machine check;
* ``detected``  — another verification layer caught it (strict-mode
  read faults, deadlock detection, the runaway watchdog, ...);
* ``harmless``  — the fault landed but was never consumed;
* ``silent``    — the run finished with a *wrong answer* and no error.

The campaign's contract, asserted by ``assert_campaign_clean`` (and by
``make faults``): with ECC+parity on there are **zero silent
corruptions**; with protection off at least one kind corrupts silently
— proving the campaign can tell the difference.  All counts are
deterministic for a fixed seed.

CLI::

    python -m repro.evalx resilience            # print the table
    python -m repro.evalx.resilience --check    # assert the contract
"""

import functools
import random

from repro.core import NamedStateRegisterFile, SegmentedRegisterFile
from repro.core.faults import FAULT_KINDS, FaultyRegisterFile
from repro.core.resilience import ProtectedRegisterFile
from repro.errors import MachineCheckError, ReproError
from repro.evalx.tables import ExperimentTable

CAMPAIGN_MODELS = ("nsf", "segmented")
CAMPAIGN_PROTECTION = ("off", "ecc")
CAMPAIGN_WORKLOAD = "GateSim"
#: small files so spills/reloads (and therefore clean memory copies)
#: are plentiful — the regime the recovery ladder is built for
CAMPAIGN_NSF_REGISTERS = 24
CAMPAIGN_SEG_REGISTERS = 40
TRIGGERS_PER_CELL = 3

#: watchdog: a faulted run may issue this many times the register
#: operations of the fault-free run (same model, scale and seed) before
#: it is stopped and classified ``detected``.  Faulted runs that finish
#: stay within ~1% of the fault-free count; one whose corrupted values
#: derailed the workload's control flow would otherwise never end.
RUNAWAY_FACTOR = 4

OUTCOMES = ("corrected", "reread", "reloaded", "trapped", "detected",
            "harmless", "silent")


def make_campaign_model(model_kind, context_size=20):
    """A deliberately small register file for one campaign run."""
    if model_kind == "nsf":
        return NamedStateRegisterFile(
            num_registers=CAMPAIGN_NSF_REGISTERS,
            context_size=context_size, line_size=1,
        )
    if model_kind == "segmented":
        return SegmentedRegisterFile(
            num_registers=CAMPAIGN_SEG_REGISTERS,
            context_size=context_size,
        )
    raise ValueError(f"unknown campaign model {model_kind!r}")


@functools.lru_cache(maxsize=None)
def fault_free_operations(model_kind, scale, seed):
    """Register operations of the campaign workload with no fault."""
    from repro.workloads import get_workload

    probe = FaultyRegisterFile(make_campaign_model(model_kind),
                               FAULT_KINDS[0], trigger_at=float("inf"))
    get_workload(CAMPAIGN_WORKLOAD).run(probe, scale=scale, seed=seed,
                                        check=False, verify_values=False)
    return probe.operations


def run_single(kind, model_kind, protection, trigger, scale=0.25, seed=3,
               trap_unit=None):
    """One injected run; returns its classification record.

    The workload runs with ``check=False`` and ``verify_values=False``:
    the shadow checker would catch every corruption by construction,
    which is precisely the safety net a hardware protection layer must
    not depend on.  Detection must come from ECC/parity or not at all.
    A run that exceeds :data:`RUNAWAY_FACTOR` times the fault-free
    operation count is stopped by the watchdog and counts as
    ``detected``.
    """
    from repro.workloads import get_workload

    inner = make_campaign_model(model_kind)
    budget = RUNAWAY_FACTOR * fault_free_operations(model_kind, scale,
                                                    seed)
    faulty = FaultyRegisterFile(inner, kind, trigger_at=trigger,
                                max_operations=budget)
    if protection == "off":
        model = faulty
        rstats = None
    else:
        model = ProtectedRegisterFile(faulty, level=protection,
                                      trap_unit=trap_unit)
        rstats = model.rstats
    workload = get_workload(CAMPAIGN_WORKLOAD)
    outcome = None
    try:
        result = workload.run(model, scale=scale, seed=seed, check=False,
                              verify_values=False)
    except MachineCheckError:
        outcome = "trapped"
    except (ReproError, AssertionError):
        outcome = "detected"
    else:
        if not result.verified:
            outcome = "silent"
        elif rstats is not None and rstats.detected:
            # Highest rung the recovery actually needed.
            if rstats.reload_recoveries:
                outcome = "reloaded"
            elif rstats.reread_recoveries:
                outcome = "reread"
            else:
                outcome = "corrected"
        else:
            outcome = "harmless"
    return {
        "kind": kind,
        "model": model_kind,
        "protection": protection,
        "trigger": trigger,
        "outcome": outcome,
        "injected": faulty.injected,
        "rstats": rstats.snapshot() if rstats is not None else None,
        "retired": rstats.lines_retired if rstats is not None else 0,
    }


def campaign_triggers(seed, count=TRIGGERS_PER_CELL):
    """The deterministic trigger points every cell is swept over."""
    rng = random.Random(seed)
    return sorted(rng.randrange(150, 2600) for _ in range(count))


def run_campaign_cell(kind, model_kind, level, scale=1.0, seed=1):
    """One campaign cell: every trigger of one kind/model/protection."""
    triggers = campaign_triggers(seed)
    workload_scale = max(0.12, 0.25 * scale)
    counts = {outcome: 0 for outcome in OUTCOMES}
    injected = 0
    retired = 0
    for trigger in triggers:
        record = run_single(kind, model_kind, level, trigger,
                            scale=workload_scale, seed=seed)
        counts[record["outcome"]] += 1
        injected += int(record["injected"])
        retired += record["retired"]
    return {
        "kind": kind,
        "model": model_kind,
        "protection": level,
        "runs": len(triggers),
        "injected": injected,
        "retired": retired,
        **counts,
    }


def run_campaign(scale=1.0, seed=1, kinds=FAULT_KINDS,
                 models=CAMPAIGN_MODELS, protection=CAMPAIGN_PROTECTION):
    """Full sweep; returns one aggregate record per campaign cell."""
    return [
        run_campaign_cell(kind, model_kind, level, scale=scale, seed=seed)
        for kind in kinds
        for model_kind in models
        for level in protection
    ]


def _cell_row(cell):
    return [
        cell["kind"], cell["model"], cell["protection"], cell["runs"],
        cell["injected"], cell["corrected"], cell["reread"],
        cell["reloaded"], cell["trapped"], cell["retired"],
        cell["detected"], cell["harmless"], cell["silent"],
    ]


def table_skeleton(scale=1.0, seed=1):
    return ExperimentTable(
        experiment="Resilience",
        title="Fault-injection campaign: outcomes by kind, model, "
              "protection",
        headers=["Fault kind", "Model", "Protection", "Runs", "Injected",
                 "Corrected", "Reread", "Reloaded", "Trapped", "Retired",
                 "Detected", "Harmless", "Silent"],
        notes="0 silent with ECC on is the contract; silent>0 appears "
              "only with protection off (shadow checking disabled "
              "throughout)",
    )


def cell_keys():
    """Independent campaign cells (``kind/model/protection``)."""
    return [f"{kind}/{model_kind}/{level}"
            for kind in FAULT_KINDS
            for model_kind in CAMPAIGN_MODELS
            for level in CAMPAIGN_PROTECTION]


def run_cell_rows(key, scale=1.0, seed=1):
    kind, model_kind, level = key.split("/")
    cell = run_campaign_cell(kind, model_kind, level, scale=scale,
                             seed=seed)
    return [_cell_row(cell)]


def run(scale=1.0, seed=1):
    """The campaign as an experiment table (golden-locked)."""
    table = table_skeleton(scale=scale, seed=seed)
    for cell in run_campaign(scale=scale, seed=seed):
        table.add_row(*_cell_row(cell))
    return table


def assert_campaign_clean(scale=0.5, seed=11):
    """The campaign contract, as an assertion (used by ``make faults``).

    * zero silent corruptions in every protected cell;
    * at least one silent corruption somewhere with protection off
      (otherwise the campaign could not distinguish protection levels);
    * detection coverage: every protected cell that injected a fault
      shows a nonzero outcome other than silent/harmless.
    """
    cells = run_campaign(scale=scale, seed=seed)
    protected = [c for c in cells if c["protection"] != "off"]
    unprotected = [c for c in cells if c["protection"] == "off"]
    silent_protected = sum(c["silent"] for c in protected)
    assert silent_protected == 0, (
        f"{silent_protected} silent corruption(s) slipped past ECC: "
        f"{[c for c in protected if c['silent']]}"
    )
    assert sum(c["silent"] for c in unprotected) > 0, (
        "no unprotected run corrupted silently — the campaign cannot "
        "distinguish protection levels at this scale/seed"
    )
    for cell in protected:
        if cell["injected"]:
            caught = (cell["corrected"] + cell["reread"] + cell["reloaded"]
                      + cell["trapped"] + cell["detected"]
                      + cell["harmless"])
            assert caught > 0, f"injected but unaccounted: {cell}"
    return cells


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Run the fault-injection campaign."
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--check", action="store_true",
                        help="assert the zero-silent-corruption contract "
                             "instead of printing the table")
    args = parser.parse_args(argv)
    if args.check:
        cells = assert_campaign_clean(scale=args.scale, seed=args.seed)
        injected = sum(c["injected"] for c in cells)
        print(f"campaign clean: {injected} faults injected across "
              f"{len(cells)} cells, 0 silent corruptions with ECC on")
        return 0
    print(run(scale=args.scale, seed=args.seed).render())
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
