"""repro.farm: the crash-tolerant sweep execution service.

``run_sweep(..., farm=True)`` delegates here.  The farm decomposes the
sweep into four durable pieces so that *any* process in it can be
SIGKILLed at any instruction and the sweep still converges on output
byte-identical to the sequential runner's:

* :mod:`repro.farm.queue`      — durable work queue on the sha256
  write-ahead journal (enqueue / claim / commit records);
* :mod:`repro.farm.lease`      — TTL lease files; breaking a stale
  lease is the work-stealing path that rescues dead workers' cells;
* :mod:`repro.farm.worker`     — stateless lease-claiming workers, one
  watched cell subprocess at a time;
* :mod:`repro.farm.supervisor` — spawn/reap/respawn, in-order commit,
  the poison-cell circuit breaker and watchdog escalation.

:func:`smoke` is the service-grade chaos harness: it drives the farm
through worker kills, supervisor kills, heartbeat stalls and planted
stale leases — injected *and* external — and insists the output stays
byte-identical to an uninterrupted sequential sweep every time.
"""

import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

from repro.chaos import plane as _chaos
from repro.evalx import runner as _runner
from repro.farm import lease as lease_mod
from repro.farm import worker as worker_mod
from repro.farm.supervisor import FarmSupervisor, default_state_dir

__all__ = ["run_farm_sweep", "smoke", "FarmSupervisor",
           "default_state_dir"]


def run_farm_sweep(experiment, scale=1.0, seed=1, journal_path=None,
                   out_path=None, resume=False, timeout=None,
                   max_attempts=2, backoff=0.05, check=False,
                   stream=None, workers=None, lease_ttl=5.0,
                   state_dir=None, tick=0.02, watchdog=None,
                   worker_output=False, engine=None):
    """Run (or resume) one sweep on the farm; returns a SweepResult.

    The signature mirrors :func:`repro.evalx.runner.run_sweep` (with
    ``max_attempts`` in place of ``retries`` and ``workers`` in place
    of ``jobs``).  ``journal_path``, when given, anchors the farm's
    state directory next to it (``<journal>.farm/``); the queue journal
    itself always lives at ``<state_dir>/queue.jsonl``.  ``engine``
    selects the replay engine for every cell: it is exported as
    ``REPRO_REPLAY_ENGINE``, which ``_cell_env()`` copies into each
    worker and from there into each cell subprocess.
    """
    if engine:
        from repro.trace.replay import ENV_ENGINE

        os.environ[ENV_ENGINE] = engine
    if state_dir is None:
        if journal_path is not None:
            journal_path = pathlib.Path(journal_path)
            state_dir = journal_path.parent / (journal_path.name
                                               + ".farm")
        else:
            state_dir = default_state_dir(experiment)
    supervisor = FarmSupervisor(
        experiment, scale=scale, seed=seed, state_dir=state_dir,
        out_path=out_path, resume=resume, workers=workers,
        lease_ttl=lease_ttl, timeout=timeout, max_attempts=max_attempts,
        backoff=backoff, check=check, stream=stream, tick=tick,
        watchdog=watchdog, worker_output=worker_output)
    return supervisor.run()


# -- service-grade chaos smoke ---------------------------------------------


def _farm_command(experiment, scale, seed, state_dir, out, jobs,
                  lease_ttl):
    return [
        sys.executable, "-m", "repro.farm", "sweep", experiment,
        "--scale", str(scale), "--seed", str(seed), "--resume",
        "--state-dir", str(state_dir), "--out", str(out),
        "--jobs", str(jobs), "--lease-ttl", str(lease_ttl),
    ]


def _launch_until_done(command, env, max_launches, say, on_launch=None):
    """Relaunch ``command`` (which always passes ``--resume``) until it
    exits 0; returns (launches, kills_observed) or None on failure.

    ``on_launch(proc)`` may harass the running process (kill workers,
    kill the supervisor); it returns the number of kills it landed.
    """
    kills = 0
    for launch in range(1, max_launches + 1):
        proc = subprocess.Popen(command, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        if on_launch is not None:
            kills += on_launch(proc)
        proc.wait()
        if proc.returncode == 0:
            return launch, kills
        say(f"  launch {launch}: farm exited "
            f"{proc.returncode}; resuming")
    return None


SCENARIOS = ("fault-free", "worker_kill", "daemon_kill",
             "heartbeat_stall", "stale_lease", "external-kill")


def smoke(experiment="compression", scale=0.2, seed=7, check=False,
          workdir=None, stream=None, jobs=2, chaos_seed=1,
          lease_ttl=1.0, only=None, engine=None):
    """Farm chaos smoke; returns 0 iff every scenario is byte-exact.

    Reference: one uninterrupted sequential ``run_sweep`` (jobs=1).
    Then the same sweep runs on the farm under each failure mode —

    * fault-free farm (the baseline delegation path);
    * ``worker_kill``     — a chaos-armed worker SIGKILLs itself (and
      its cell's process group) mid-cell;
    * ``daemon_kill``     — the supervisor SIGKILLs itself mid-sweep
      and is relaunched with ``--resume``;
    * ``heartbeat_stall`` — a worker's lease renewals go silent for two
      TTLs, forcing expiry-steal under a still-running worker;
    * ``stale_lease``     — claim paths find a planted dead peer's
      lease they must break;
    * external SIGKILLs   — this harness kills a worker (pid lifted
      from its lease file) and then the supervisor itself, mid-sweep,
      from the outside.

    Every scenario's output file must be byte-identical to the
    reference.  ``check`` additionally pins the golden operating point
    and compares against the committed golden table.  ``only`` (an
    iterable of :data:`SCENARIOS` names) restricts the campaign — e.g.
    ``make resume-smoke`` runs just ``external-kill``.
    """

    def say(message):
        if stream is not None:
            stream.write(message + "\n")
            stream.flush()

    if engine:
        # reaches the reference sweep, the in-process farm scenario and
        # every relaunched farm subprocess (all envs derive from
        # _cell_env(), which copies os.environ)
        from repro.trace.replay import ENV_ENGINE

        os.environ[ENV_ENGINE] = engine
    if check:
        from repro.evalx.golden import GOLDEN_SCALE, GOLDEN_SEED

        scale, seed = GOLDEN_SCALE, GOLDEN_SEED
    if only is None:
        only = SCENARIOS
    else:
        only = tuple(only)
        unknown = sorted(set(only) - set(SCENARIOS))
        if unknown:
            say(f"FAIL: unknown scenario(s) {unknown}; expected a "
                f"subset of {list(SCENARIOS)}")
            return 1
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="farm-smoke-")
    workdir = pathlib.Path(workdir)
    cell_count = len(_runner.sweep_cells(experiment))
    max_launches = cell_count + 6

    say(f"reference sweep ({experiment}, scale={scale}, seed={seed}, "
        "sequential)")
    ref_out = workdir / "reference.json"
    reference = _runner.run_sweep(
        experiment, scale=scale, seed=seed,
        journal_path=workdir / "reference.jsonl", out_path=ref_out,
        stream=stream, jobs=1)
    if reference.dropped_keys:
        say("FAIL: reference sweep dropped cells")
        return 1
    ref_bytes = ref_out.read_bytes()

    failures = 0

    def verdict(name, out, extra=""):
        nonlocal failures
        try:
            match = out.read_bytes() == ref_bytes
        except OSError:
            match = False
        if match:
            say(f"  OK {name}: output byte-identical to the "
                f"sequential sweep{extra}")
        else:
            failures += 1
            say(f"  FAIL {name}: output differs from the sequential "
                "sweep (or is missing)")

    # 1. fault-free farm, in process: the plain delegation path
    if "fault-free" in only:
        say(f"scenario fault-free: farm sweep, {jobs} worker(s)")
        out = workdir / "fault-free.json"
        result = run_farm_sweep(
            experiment, scale=scale, seed=seed,
            state_dir=workdir / "fault-free.farm", out_path=out,
            workers=jobs, lease_ttl=lease_ttl, stream=stream)
        if not result.ok:
            failures += 1
            say("  FAIL fault-free: farm sweep dropped cells or "
                "deviated")
        else:
            verdict("fault-free", out)

    # 2-5. injected service faults, one kind at a time, each in a
    # fresh farm subprocess armed through the chaos env contract
    for kind, site in (("worker_kill", "worker.spawn"),
                       ("daemon_kill", "queue.claim"),
                       ("heartbeat_stall", "lease.renew"),
                       ("stale_lease", "lease.acquire")):
        if kind not in only:
            continue
        say(f"scenario {kind}: chaos at site {site} "
            f"({_chaos.ENV_SEED}={chaos_seed})")
        state_dir = workdir / f"{kind}.farm"
        out = workdir / f"{kind}.json"
        env = _runner._cell_env()
        env[_chaos.ENV_SEED] = str(chaos_seed)
        env[_chaos.ENV_KINDS] = kind
        env[_chaos.ENV_SITES] = site
        done = _launch_until_done(
            _farm_command(experiment, scale, seed, state_dir, out,
                          jobs, lease_ttl),
            env, max_launches, say)
        if done is None:
            failures += 1
            say(f"  FAIL {kind}: farm never completed within "
                f"{max_launches} launches")
            continue
        launches, _ = done
        verdict(kind, out, extra=f" ({launches} launch(es))")

    # 6. external SIGKILLs: a worker first, then the supervisor
    if "external-kill" in only:
        say("scenario external-kill: SIGKILL a worker, then the "
            "supervisor, mid-sweep")
        state_dir = workdir / "external.farm"
        out = workdir / "external.json"
        queue_file = worker_mod.queue_path(state_dir)
        lease_directory = worker_mod.lease_dir(state_dir)

        def assassin(proc):
            kills = 0
            deadline = time.monotonic() + 60.0
            # first: a worker, via the pid its lease file advertises
            while time.monotonic() < deadline and proc.poll() is None:
                leases = (sorted(lease_directory.glob("*.lease"))
                          if lease_directory.is_dir() else [])
                info = (lease_mod.read_lease(leases[0]) if leases
                        else None)
                if info and info.get("pid"):
                    try:
                        os.kill(int(info["pid"]), signal.SIGKILL)
                        kills += 1
                        say(f"  SIGKILLed worker pid {info['pid']} "
                            f"(from {leases[0].name})")
                    except (OSError, ValueError):
                        pass
                    break
                time.sleep(0.01)
            # then: the supervisor, once the journal shows progress
            while time.monotonic() < deadline and proc.poll() is None:
                if _runner._journal_records(queue_file) > 2:
                    proc.send_signal(signal.SIGKILL)
                    proc.wait()
                    kills += 1
                    say("  SIGKILLed the supervisor mid-sweep; "
                        "resuming")
                    break
                time.sleep(0.01)
            return kills

        first = [True]

        def on_launch(proc):
            if first[0]:
                first[0] = False
                return assassin(proc)
            return 0

        done = _launch_until_done(
            _farm_command(experiment, scale, seed, state_dir, out,
                          jobs, lease_ttl),
            _runner._cell_env(), max_launches, say,
            on_launch=on_launch)
        if done is None:
            failures += 1
            say("  FAIL external-kill: farm never completed within "
                f"{max_launches} launches")
        else:
            launches, kills = done
            if kills < 2:
                failures += 1
                say(f"  FAIL external-kill: only {kills} kill(s) "
                    "landed before the sweep finished; shrink --scale")
            else:
                verdict("external-kill", out,
                        extra=f" ({kills} kill(s), "
                              f"{launches} launch(es))")

    if failures:
        say(f"farm smoke: {failures} scenario(s) FAILED")
        return 1
    say("farm smoke clean: every failure mode converged to the "
        "sequential sweep's bytes")
    if check:
        from repro.evalx.golden import compare_table

        deviations = compare_table(experiment, reference.table,
                                   scale=scale, seed=seed)
        if deviations:
            for deviation in deviations:
                say(f"DEVIATION: {deviation}")
            return 1
        say(f"golden check clean: sweep matches the {experiment} "
            "golden")
    return 0
