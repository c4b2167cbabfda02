"""Crash-safe, resumable sweep runner.

Runs an experiment *cell by cell*, each cell in its own subprocess
under a wall-clock watchdog, appending every result to a write-ahead
:class:`~repro.evalx.journal.Journal` before moving on.  Kill the
process at any point — SIGKILL included — and re-invoking with
``--resume`` picks up from the journal: completed cells are skipped,
failed or half-written ones re-run, and the final table is identical
to an uninterrupted run by construction (cells are independent and
seeded).

Experiments that export the cell-splitter trio (``table_skeleton`` /
``cell_keys`` / ``run_cell_rows``) sweep one cell per subprocess;
every other experiment degrades to a single whole-table cell — still
journalled, still resumable across the sweep boundary.

A cell that exhausts its retries is *dropped, loudly*: the sweep
finishes, prints an explicit ``N of M cell(s) dropped`` banner, marks
the table notes PARTIAL, and exits nonzero.  Silent truncation is the
one failure mode this harness refuses to have.

Independent cells run concurrently in a bounded pool of watched
subprocesses (``--jobs N``; the default is ``min(os.cpu_count(),
cells)``, ``--jobs 1`` restores the strictly sequential scheduler).
Parallelism never touches the contract: results are committed to the
write-ahead journal in deterministic *cell order* regardless of
completion order, so the journal, resume semantics, and the final
output file are byte-identical to a sequential run.

CLI::

    python -m repro.evalx.runner sweep compression --scale 0.35 \
        --seed 11 --resume --timeout 120 --jobs 4
    python -m repro.evalx.runner smoke --kills 3     # chaos self-test
"""

import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor

from repro.chaos import plane as _chaos
from repro.errors import JournalError
from repro.evalx.journal import Journal
from repro.evalx.tables import ExperimentTable
from repro.ioutil import atomic_write_text

#: pseudo-key for experiments without a cell splitter
GENERIC_CELL = "__table__"

#: test hooks (see tests/test_runner.py): "key:failcount,key2:n" makes
#: run-cell exit nonzero while attempt < n; a comma list of keys makes
#: run-cell hang until the watchdog fires
FAIL_CELLS_ENV = "REPRO_RUNNER_FAIL_CELLS"
HANG_CELLS_ENV = "REPRO_RUNNER_HANG_CELLS"


def _cell_modules():
    from repro.evalx import chaos, compression, resilience, table1

    return {
        "chaos": chaos,
        "compression": compression,
        "table1": table1,
        "resilience": resilience,
    }


def sweep_cells(experiment):
    """The independent cells of one experiment, in table order."""
    module = _cell_modules().get(experiment)
    if module is not None:
        return module.cell_keys()
    return [GENERIC_CELL]


def run_cell(experiment, key, scale=1.0, seed=1):
    """Run one cell in-process; returns its journal payload."""
    module = _cell_modules().get(experiment)
    if module is not None:
        rows = module.run_cell_rows(key, scale=scale, seed=seed)
        return {"rows": [list(row) for row in rows]}
    from repro.evalx import run_experiment

    table = run_experiment(experiment, scale=scale, seed=seed)
    return {"table": table.to_dict()}


def assemble_table(experiment, scale, seed, cells):
    """Build the sweep table from journalled cells.

    Returns ``(table, dropped_keys)``; ``table`` is None only for a
    generic experiment whose single cell never completed.
    """
    keys = sweep_cells(experiment)
    dropped = [key for key in keys
               if key not in cells or cells[key]["status"] != "ok"]
    module = _cell_modules().get(experiment)
    if module is None:
        record = cells.get(GENERIC_CELL)
        if record is None or record["status"] != "ok":
            return None, dropped
        return ExperimentTable(**record["payload"]["table"]), dropped
    table = module.table_skeleton(scale=scale, seed=seed)
    for key in keys:
        record = cells.get(key)
        if record is None or record["status"] != "ok":
            continue
        for row in record["payload"]["rows"]:
            table.add_row(*row)
    return table, dropped


def _cell_command(experiment, key, scale, seed, attempt):
    return [
        sys.executable, "-m", "repro.evalx.runner", "run-cell",
        experiment, key, "--scale", str(scale), "--seed", str(seed),
        "--attempt", str(attempt),
    ]


def _cell_env():
    """Child environment with this package's source tree importable.

    The trace-cache directory is pinned to an absolute path so every
    cell subprocess — including those running under ``--jobs N`` from a
    different working directory — shares one cache: the first cell to
    need a workload records it, every other cell replays it.
    """
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src if not existing
                         else src + os.pathsep + existing)
    from repro.trace import cache as trace_cache

    env[trace_cache.ENV_DIR] = str(
        pathlib.Path(trace_cache.cache_dir()).resolve()
    )
    return env


def _output_tail(data, limit=200):
    """Last ``limit`` chars of a subprocess's (partial) output.

    ``TimeoutExpired`` hands back whatever the pipe held when the
    watchdog killed the child — as bytes, even under ``text=True`` —
    so both types are accepted and newlines flattened for a one-line
    journal error field.
    """
    if not data:
        return ""
    if isinstance(data, bytes):
        data = data.decode("utf-8", "replace")
    return " | ".join(data.strip().splitlines())[-limit:]


def _signal_group(proc, signum):
    """Signal a child's whole process group (fall back to the child
    alone when the group is already gone or unreachable)."""
    try:
        os.killpg(os.getpgid(proc.pid), signum)
    except (ProcessLookupError, PermissionError, OSError):
        try:
            proc.send_signal(signum)
        except (ProcessLookupError, OSError):
            pass


def watched_run(command, env=None, timeout=None, grace=2.0):
    """Run ``command`` in its own process group under a wall-clock
    watchdog; returns ``(returncode, stdout, stderr, timed_out)``.

    On watchdog expiry the *entire group* is SIGTERMed, then — after
    ``grace`` seconds for signal-compliant children to flush and exit —
    SIGKILLed.  ``start_new_session`` puts the cell and everything it
    spawns into one group, so a cell whose children ignore SIGTERM (or
    that double-forks workers of its own) cannot outlive its sweep and
    keep writing into the trace cache.  Whatever the cell printed
    before dying is still captured and returned.
    """
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
        return proc.returncode, stdout, stderr, False
    except subprocess.TimeoutExpired:
        _signal_group(proc, signal.SIGTERM)
        try:
            stdout, stderr = proc.communicate(timeout=max(0.1, grace))
        except subprocess.TimeoutExpired:
            _signal_group(proc, signal.SIGKILL)
            stdout, stderr = proc.communicate()
        return proc.returncode, stdout, stderr, True
    except BaseException:
        _signal_group(proc, signal.SIGKILL)
        proc.communicate()
        raise


def failure_detail(stdout, stderr, limit=200):
    """Both output tails of a failed cell, labelled, for the journal.

    Every failure path — watchdog, crash, nonzero exit — journals the
    same shape, so a quarantine record always carries enough debris to
    diagnose the poison without re-running the cell.
    """
    parts = []
    stderr_tail = _output_tail(stderr, limit)
    stdout_tail = _output_tail(stdout, limit)
    if stderr_tail:
        parts.append(f"stderr: {stderr_tail}")
    if stdout_tail:
        parts.append(f"stdout: {stdout_tail}")
    return "; ".join(parts)


def _run_cell_subprocess(experiment, key, scale, seed, attempt, timeout):
    """One watched attempt; returns ``(payload, error_or_None)``."""
    command = _cell_command(experiment, key, scale, seed, attempt)
    returncode, stdout, stderr, timed_out = watched_run(
        command, env=_cell_env(), timeout=timeout)
    if timed_out:
        error = f"watchdog: cell exceeded {timeout}s wall clock"
        detail = failure_detail(stdout, stderr)
        if detail:
            error += f"; partial output: {detail}"
        return None, error
    if returncode != 0:
        detail = failure_detail(stdout, stderr)
        return None, (f"exit status {returncode}"
                      + (f": {detail}" if detail else ""))
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            return json.loads(line), None
        except json.JSONDecodeError:
            return None, f"unparsable cell output: {line[:200]!r}"
    return None, "cell produced no output"


def resolve_jobs(jobs, cell_count):
    """Concurrency for a sweep: explicit ``jobs`` wins, else one watched
    subprocess per core, never more than there are cells to run."""
    if jobs is None:
        jobs = min(os.cpu_count() or 1, max(1, cell_count))
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, max(1, cell_count))


def retry_jitter(seed, key, attempt):
    """Deterministic de-stampeding factor in ``[0.5, 1.0]``.

    Seed-derived (never wall clock or ``random``), so a sweep replays
    the identical schedule — but *different* cells retrying the same
    flaky resource back off by different amounts, so ``--jobs N``
    workers cannot hammer it in lockstep.
    """
    digest = zlib.crc32(f"{seed}|{key}|{attempt}".encode())
    return 0.5 + (digest / 0xFFFFFFFF) / 2


def retry_delay(backoff, attempt, seed, key):
    """One cell's jittered exponential backoff before retry ``attempt``."""
    return backoff * (2 ** attempt) * retry_jitter(seed, key, attempt)


def _attempt_cell(experiment, key, scale, seed, timeout, retries,
                  backoff, say):
    """All watched attempts for one cell; returns
    ``(payload, error_or_None, attempts)``."""
    payload = None
    error = None
    attempts = 0
    for attempt in range(retries + 1):
        attempts = attempt + 1
        payload, error = _run_cell_subprocess(
            experiment, key, scale, seed, attempt, timeout)
        if error is None:
            break
        say(f"cell {key}: attempt {attempts} failed ({error})")
        if attempt < retries and backoff > 0:
            # deterministic exponential schedule with seeded jitter
            time.sleep(retry_delay(backoff, attempt, seed, key))
    return payload, error, attempts


class SweepResult:
    """What one (possibly resumed) sweep invocation did."""

    def __init__(self, experiment, scale, seed, table, keys, ran,
                 skipped, dropped_keys, journal_dropped, out_path,
                 deviations):
        self.experiment = experiment
        self.scale = scale
        self.seed = seed
        self.table = table
        self.keys = keys
        self.ran = ran
        self.skipped = skipped
        self.dropped_keys = dropped_keys
        self.journal_dropped = journal_dropped
        self.out_path = out_path
        self.deviations = deviations

    @property
    def ok(self):
        return not self.dropped_keys and not self.deviations


def run_sweep(experiment, scale=1.0, seed=1, journal_path=None,
              out_path=None, resume=False, timeout=None, retries=1,
              backoff=0.0, check=False, stream=None, jobs=None,
              farm=False):
    """Run (or resume) one journalled sweep; returns a SweepResult.

    ``jobs`` bounds the pool of concurrent cell subprocesses (None =
    one per core, capped at the cell count).  Whatever the pool size,
    journal records are committed in cell order and the output file is
    byte-identical to a ``jobs=1`` run.

    ``farm=True`` delegates the whole sweep to the crash-tolerant farm
    service (:mod:`repro.farm`): a durable work queue, lease-based
    work-stealing worker processes and a supervising daemon, with
    ``jobs`` as the worker count.  The output file stays byte-identical
    to this direct scheduler's.
    """
    if farm:
        from repro.farm import run_farm_sweep

        return run_farm_sweep(
            experiment, scale=scale, seed=seed,
            journal_path=journal_path, out_path=out_path, resume=resume,
            timeout=timeout, max_attempts=retries + 1, backoff=backoff,
            check=check, stream=stream, workers=jobs,
        )

    say_lock = threading.Lock()

    def say(message):
        if stream is not None:
            with say_lock:
                stream.write(message + "\n")

    if journal_path is None:
        journal_path = pathlib.Path(
            "benchmarks", "results", f"{experiment}.journal.jsonl")
    if out_path is None:
        out_path = pathlib.Path(
            "benchmarks", "results", f"{experiment}-sweep.json")
    journal = Journal(journal_path)
    journal_dropped = 0
    if journal.exists():
        if not resume:
            raise JournalError(
                f"{journal.path} already exists; pass resume "
                "(--resume) to continue it, or delete it to start over"
            )
        trimmed = journal.recover_tail()
        if trimmed:
            say(f"journal: truncated {trimmed} byte(s) of torn tail")
        if journal.path.stat().st_size == 0:
            # every record was torn away: start clean, don't refuse
            journal.write_header(experiment, scale, seed)
            cells = {}
        else:
            cells, journal_dropped = journal.check_header(
                experiment, scale, seed)
        if journal_dropped:
            say(f"journal: dropped {journal_dropped} corrupt/truncated "
                "record(s); their cells will re-run")
    else:
        journal.write_header(experiment, scale, seed)
        cells = {}

    keys = sweep_cells(experiment)
    pending = [key for key in keys
               if not (key in cells and cells[key]["status"] == "ok")]
    skipped = len(keys) - len(pending)
    ran = 0

    def commit(key, payload, error, attempts):
        if error is None:
            cells[key] = journal.append_cell(key, "ok", payload=payload,
                                             attempts=attempts)
        else:
            cells[key] = journal.append_cell(key, "failed",
                                             attempts=attempts,
                                             error=error)

    workers = resolve_jobs(jobs, len(pending))
    if workers <= 1:
        for key in pending:
            payload, error, attempts = _attempt_cell(
                experiment, key, scale, seed, timeout, retries, backoff,
                say)
            ran += 1
            commit(key, payload, error, attempts)
    elif pending:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                key: pool.submit(_attempt_cell, experiment, key, scale,
                                 seed, timeout, retries, backoff, say)
                for key in pending
            }
            # Journal commits happen here, in deterministic cell order:
            # a cell that finishes early waits (buffered in its future)
            # until every earlier cell has been committed, so the
            # journal an interrupted run leaves behind is always an
            # order-prefix of the sequential run's journal.
            for key in pending:
                payload, error, attempts = futures[key].result()
                ran += 1
                commit(key, payload, error, attempts)

    table, dropped_keys = assemble_table(experiment, scale, seed, cells)
    if dropped_keys:
        say(f"WARNING: {len(dropped_keys)} of {len(keys)} cell(s) "
            f"dropped after {retries + 1} attempt(s) each: "
            + ", ".join(dropped_keys))
        if table is not None:
            table.notes = (table.notes + " " if table.notes else "") + (
                f"[PARTIAL: {len(dropped_keys)} of {len(keys)} "
                "cell(s) dropped]")
    deviations = []
    if check and table is not None:
        from repro.evalx.golden import compare_table

        deviations = compare_table(experiment, table, scale=scale,
                                   seed=seed)
        for deviation in deviations:
            say(f"DEVIATION: {deviation}")
    if table is not None:
        out_payload = {
            "experiment": experiment,
            "scale": scale,
            "seed": seed,
            **table.to_dict(),
        }
        # read-back verification: the output file is the one artifact
        # nothing downstream re-validates, so a torn rename or bit
        # flip here is converted into a retryable EIO instead of a
        # silently wrong number
        atomic_write_text(pathlib.Path(out_path),
                          json.dumps(out_payload, indent=1,
                                     sort_keys=True),
                          site="results.write", attempts=3,
                          verify=True)
        say(f"sweep {experiment}: {ran} cell(s) ran, {skipped} resumed "
            f"from journal -> {out_path}")
    return SweepResult(experiment, scale, seed, table, keys, ran,
                       skipped, dropped_keys, journal_dropped,
                       pathlib.Path(out_path), deviations)


# -- chaos self-test -------------------------------------------------------


def _journal_records(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return sum(1 for line in handle if line.strip())
    except FileNotFoundError:
        return 0


def _sweep_command(experiment, scale, seed, journal, out, jobs=None):
    command = [
        sys.executable, "-m", "repro.evalx.runner", "sweep", experiment,
        "--scale", str(scale), "--seed", str(seed), "--resume",
        "--journal", str(journal), "--out", str(out),
    ]
    if jobs is not None:
        command += ["--jobs", str(jobs)]
    return command


def smoke(experiment="compression", scale=0.2, seed=7, kills=3,
          check=False, workdir=None, stream=None, jobs=None,
          chaos_seed=None):
    """Kill-and-resume chaos test; returns 0 iff resumption is exact.

    Runs the sweep once uninterrupted, then again while SIGKILLing the
    sweep process at ``kills`` seeded journal-growth boundaries and
    resuming each time.  The two output files must be byte-identical —
    the resumable path may not perturb a single stat.

    ``chaos_seed`` additionally arms a :class:`repro.chaos.FaultPlane`
    (via ``REPRO_CHAOS_SEED``) inside the killed-and-resumed sweep —
    torn renames, bit flips, disk-full and worker crashes land *on top
    of* the SIGKILLs, and the output must still match the fault-free
    reference byte for byte.  The chaos sweep gets a private
    trace-cache directory so injected corruption never dirties the
    shared cache.
    """

    def say(message):
        if stream is not None:
            stream.write(message + "\n")

    if check:
        from repro.evalx.golden import GOLDEN_SCALE, GOLDEN_SEED

        scale, seed = GOLDEN_SCALE, GOLDEN_SEED
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="resume-smoke-")
    workdir = pathlib.Path(workdir)
    ref_out = workdir / "reference.json"
    chaos_out = workdir / "chaos.json"
    chaos_journal = workdir / "chaos.journal.jsonl"

    say(f"reference sweep ({experiment}, scale={scale}, seed={seed}, "
        f"jobs={jobs if jobs is not None else 'auto'})")
    reference = run_sweep(experiment, scale=scale, seed=seed,
                          journal_path=workdir / "reference.jsonl",
                          out_path=ref_out, stream=stream, jobs=jobs)
    if reference.dropped_keys:
        say("FAIL: reference sweep dropped cells")
        return 1

    chaos_env = _cell_env()
    if chaos_seed is not None:
        from repro.trace import cache as trace_cache

        chaos_env[_chaos.ENV_SEED] = str(chaos_seed)
        private_cache = workdir / "chaos-trace-cache"
        private_cache.mkdir(parents=True, exist_ok=True)
        chaos_env[trace_cache.ENV_DIR] = str(private_cache.resolve())
        say(f"fault plane armed: {_chaos.ENV_SEED}={chaos_seed} "
            "(private trace cache)")

    cell_count = len(sweep_cells(experiment))
    rng = random.Random(seed)
    population = list(range(1, max(2, cell_count)))
    targets = sorted(rng.sample(population,
                                min(kills, len(population))))
    say(f"chaos sweep: SIGKILL after journal reaches "
        f"{targets} cell record(s)")
    kills_done = 0
    for launch in range(len(targets) + kills + 2):
        target = targets[kills_done] if kills_done < len(targets) else None
        proc = subprocess.Popen(
            _sweep_command(experiment, scale, seed, chaos_journal,
                           chaos_out, jobs=jobs),
            env=chaos_env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        while True:
            if proc.poll() is not None:
                break
            # header line + completed cell records
            if (target is not None
                    and _journal_records(chaos_journal) > target):
                proc.send_signal(signal.SIGKILL)
                proc.wait()
                kills_done += 1
                say(f"  kill {kills_done}: SIGKILL at "
                    f"{_journal_records(chaos_journal)} journal "
                    "record(s); resuming")
                break
            time.sleep(0.01)
        if proc.returncode == 0:
            break
    else:
        say("FAIL: chaos sweep never completed")
        return 1

    if kills_done < min(kills, len(targets)):
        say(f"FAIL: only {kills_done} kill(s) landed before the sweep "
            "finished; shrink --scale or raise --kills")
        return 1
    ref_bytes = ref_out.read_bytes()
    chaos_bytes = chaos_out.read_bytes()
    if ref_bytes != chaos_bytes:
        say("FAIL: resumed sweep output differs from the "
            "uninterrupted run")
        return 1
    say(f"resume smoke clean: {kills_done} SIGKILL(s), resumed output "
        "byte-identical to the uninterrupted sweep")
    if check:
        from repro.evalx.golden import compare_table

        deviations = compare_table(experiment, reference.table,
                                   scale=scale, seed=seed)
        if deviations:
            for deviation in deviations:
                say(f"DEVIATION: {deviation}")
            return 1
        say(f"golden check clean: sweep matches the {experiment} golden")
    return 0


# -- CLI -------------------------------------------------------------------


def _maybe_hook_failures(experiment, key, attempt):
    """Honour the fail/hang test hooks and the chaos fault plane;
    returns an exit code or None."""
    fail_spec = os.environ.get(FAIL_CELLS_ENV, "")
    for part in filter(None, (p.strip() for p in fail_spec.split(","))):
        hook_key, _, count = part.rpartition(":")
        if hook_key == key and attempt < int(count):
            print(f"injected failure for cell {key!r} "
                  f"(attempt {attempt})", file=sys.stderr)
            return 1
    hang_spec = os.environ.get(HANG_CELLS_ENV, "")
    if key in [p.strip() for p in hang_spec.split(",") if p.strip()]:
        # flushed before parking so the watchdog's partial-output
        # capture has a tail to journal
        print(f"injected hang for cell {key!r}; parking", flush=True)
        while True:  # parked until the watchdog kills us
            time.sleep(60)
    plane = _chaos.ACTIVE
    if plane is not None:
        kind = plane.process_fault(f"{experiment}/{key}", attempt)
        if kind == "crash":
            print(f"chaos[crash]: injected worker crash for cell "
                  f"{key!r}", file=sys.stderr)
            return 1
        if kind == "hang":
            print(f"chaos[hang]: parking cell {key!r} until the "
                  "watchdog fires", flush=True)
            while True:
                time.sleep(60)
        if kind == "slow":
            time.sleep(plane.slow_delay)
    return None


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Crash-safe, resumable experiment sweeps."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_p = sub.add_parser("sweep", help="run or resume a sweep")
    sweep_p.add_argument("experiment")
    sweep_p.add_argument("--scale", type=float, default=1.0)
    sweep_p.add_argument("--seed", type=int, default=1)
    sweep_p.add_argument("--journal", default=None)
    sweep_p.add_argument("--out", default=None)
    sweep_p.add_argument("--resume", action="store_true",
                         help="continue an existing journal")
    sweep_p.add_argument("--timeout", type=float, default=None,
                         help="wall-clock watchdog per cell (seconds)")
    sweep_p.add_argument("--retries", type=int, default=1)
    sweep_p.add_argument("--backoff", type=float, default=0.0,
                         help="base of the exponential retry delay")
    sweep_p.add_argument("--check", action="store_true",
                         help="diff the assembled table vs its golden")
    sweep_p.add_argument("--jobs", type=int, default=None,
                         help="parallel cell workers (default "
                              "min(cpu_count, cells); 1 = sequential)")
    sweep_p.add_argument("--farm", action="store_true",
                         help="delegate to the crash-tolerant sweep "
                              "farm (durable queue + lease-based "
                              "work-stealing workers; --jobs sets the "
                              "worker count)")
    sweep_p.add_argument("--engine", choices=("event", "oracle"),
                         default=None,
                         help="replay engine for every cell (exported "
                              "as REPRO_REPLAY_ENGINE to cell "
                              "subprocesses; default: inherited env "
                              "or event replay)")

    cell_p = sub.add_parser("run-cell",
                            help="run one sweep cell (internal)")
    cell_p.add_argument("experiment")
    cell_p.add_argument("key")
    cell_p.add_argument("--scale", type=float, default=1.0)
    cell_p.add_argument("--seed", type=int, default=1)
    cell_p.add_argument("--attempt", type=int, default=0)

    smoke_p = sub.add_parser("smoke",
                             help="kill-and-resume chaos self-test")
    smoke_p.add_argument("--experiment", default="compression")
    smoke_p.add_argument("--scale", type=float, default=0.2)
    smoke_p.add_argument("--seed", type=int, default=7)
    smoke_p.add_argument("--kills", type=int, default=3)
    smoke_p.add_argument("--check", action="store_true",
                         help="also diff the sweep vs its golden "
                              "(forces golden scale/seed)")
    smoke_p.add_argument("--workdir", default=None)
    smoke_p.add_argument("--jobs", type=int, default=None,
                         help="parallel cell workers for both the "
                              "reference and the chaos-killed sweeps")
    smoke_p.add_argument("--chaos-seed", type=int, default=None,
                         help="arm the storage/process fault plane "
                              "(REPRO_CHAOS_SEED) inside the killed "
                              "sweep")

    args = parser.parse_args(argv)
    if getattr(args, "engine", None):
        # _cell_env() copies os.environ, so the selector reaches every
        # cell subprocess (and farm worker) automatically
        from repro.trace.columnar import ENV_ENGINE

        os.environ[ENV_ENGINE] = args.engine
    if args.command == "run-cell":
        hooked = _maybe_hook_failures(args.experiment, args.key,
                                      args.attempt)
        if hooked is not None:
            return hooked
        payload = run_cell(args.experiment, args.key, scale=args.scale,
                           seed=args.seed)
        print(json.dumps(payload, sort_keys=True,
                         separators=(",", ":")))
        return 0
    if args.command == "smoke":
        return smoke(experiment=args.experiment, scale=args.scale,
                     seed=args.seed, kills=args.kills, check=args.check,
                     workdir=args.workdir, stream=sys.stdout,
                     jobs=args.jobs, chaos_seed=args.chaos_seed)
    result = run_sweep(
        args.experiment, scale=args.scale, seed=args.seed,
        journal_path=args.journal, out_path=args.out,
        resume=args.resume, timeout=args.timeout, retries=args.retries,
        backoff=args.backoff, check=args.check, stream=sys.stdout,
        jobs=args.jobs, farm=args.farm,
    )
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
