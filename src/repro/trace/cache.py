"""Content-addressed disk cache of recorded workload traces.

The expensive half of every sweep is executing a workload front-end
(the activation machine or thread scheduler); for every workload with
``trace_stable = True`` the event stream it produces depends only on
``(workload, scale, seed)`` — never on the register-file model
underneath (pinned by ``tests/test_trace_crossvalidation.py``).  This
cache therefore lets such a workload execute **once**: the first
request records the trace and atomically publishes it
(write-then-rename via :mod:`repro.ioutil`, so concurrent sweep cells
racing on the same key are safe — both write identical bytes and the
rename is atomic); every later cell, model variant, codec and
line-size configuration replays the packed binary trace instead of
re-running the program.

Timing-sensitive workloads (``trace_stable = False``, e.g. Gamteb,
whose thread wake-up order races the model-dependent stall cycles of
spills and reloads) cannot share one stream across models.  For those
the cache degrades gracefully to *memoized execution*: the trace is
additionally keyed by the target model's configuration fingerprint
(:func:`model_fingerprint`), recorded straight through the target
model on the cold run (:func:`record_through` — so the cold run IS a
direct run, exact by construction) and replayed only onto models of
the identical configuration afterwards.

Keying is content-addressed: ``(workload name, context size, scale,
seed)`` plus a fingerprint of the recorder/format implementation
(sha256 of this package's sources and a schema version), so any change
to recording semantics invalidates every stale entry automatically —
old files are simply never looked up again.

Storage-fault hardening (PR 6) — the cache assumes the disk lies:

* every entry is published inside a CRC-32 integrity frame
  (``NSFC``, :func:`repro.trace.events.frame`); a cold load whose
  checksum disagrees **quarantines** the file — moved into
  ``<cache>/quarantine/`` beside a ``.reason`` file — and re-records
  transparently, so bit rot can never replay as a wrong number;
* in-process memo hits are re-validated against the disk file's
  ``(size, mtime_ns)`` signature, so an entry corrupted *after* it was
  memoized cannot keep serving from memory while cold readers see
  garbage;
* cold recordings take a pid-stamped single-flight lock
  (``<entry>.trace.lock``); stale locks (dead pid, or older than
  ``LOCK_STALE_SECONDS``) are broken, and lock starvation degrades to
  lock-less recording — duplicate publishes are safe by construction;
* reads and publishes retry transient ``EIO``/``ENOSPC`` with bounded
  deterministic backoff; when publishing keeps failing the cache drops
  one rung down the degradation ladder — recordings stay usable
  in-process but publishing is disabled (``NOPUBLISH``) until
  :func:`reset_degradation`, so a full disk degrades throughput,
  never correctness.

Environment knobs:

* ``REPRO_TRACE_CACHE``     — cache directory (default:
  ``.trace-cache/`` at the repo root);
* ``REPRO_NO_TRACE_CACHE``  — any non-empty value disables the cache
  (sweeps fall back to direct execution);
* ``REPRO_TRACE_CACHE_LOG`` — append one ``HIT``/``MISS``/``RECORD``/
  ``QUARANTINE``/``PUBFAIL``/``NOPUBLISH`` line per event to this file
  (used by CI to assert a warm second sweep actually replays).

CLI::

    python -m repro.trace.cache info     # entries, sizes, quarantine
    python -m repro.trace.cache clear    # delete every cached trace
"""

import hashlib
import os
import pathlib
import sys
import time

from repro.chaos import plane as _chaos
from repro.ioutil import TRANSIENT_ERRNOS, atomic_write_bytes
from repro.trace import events as _events
from repro.trace.events import Trace, TraceFormatError
from repro.trace.recorder import TracingRegisterFile

ENV_DIR = "REPRO_TRACE_CACHE"
ENV_DISABLE = "REPRO_NO_TRACE_CACHE"
ENV_LOG = "REPRO_TRACE_CACHE_LOG"

#: bump to invalidate every cached trace on a semantic change that the
#: source fingerprint cannot see (e.g. a workload build() change)
SCHEMA_VERSION = 1

#: default location: ``<repo root>/.trace-cache`` (gitignored)
DEFAULT_DIR = pathlib.Path(__file__).resolve().parents[3] / ".trace-cache"

#: a recording lock older than this is debris from a crashed recorder
LOCK_STALE_SECONDS = 60.0

#: bounded waits before recording lock-less (duplicates are safe)
_LOCK_WAITS = 3

#: consecutive publish failures before the ladder disables publishing
PUBLISH_FAILURE_LIMIT = 2


class CacheStats:
    """Process-local hit/miss/quarantine accounting."""

    __slots__ = ("hits", "misses", "records", "quarantined")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.records = 0
        self.quarantined = 0

    def reset(self):
        self.hits = self.misses = self.records = self.quarantined = 0

    def __repr__(self):
        return (f"CacheStats(hits={self.hits}, misses={self.misses}, "
                f"records={self.records}, "
                f"quarantined={self.quarantined})")


STATS = CacheStats()

#: traces already loaded in this process, keyed by (directory, key);
#: each entry is ``(trace, stat_sig, derived)`` where ``stat_sig`` is
#: the disk file's (size, mtime_ns) at memoization time — ``None``
#: marks a memory-only entry (publish failed or disabled) with no disk
#: copy to re-validate against — and ``derived`` is the entry's memo
#: of results computed from the trace (:func:`derived`), dropped with
#: the entry
_memo = {}

#: the degradation ladder's process-local rung state
_degraded = {"publish_failures": 0, "publish_disabled": False}

_fingerprint = None


def enabled():
    """True unless ``REPRO_NO_TRACE_CACHE`` is set (to anything)."""
    return not os.environ.get(ENV_DISABLE)


def cache_dir():
    """The active cache directory (env override or repo default)."""
    configured = os.environ.get(ENV_DIR)
    return pathlib.Path(configured) if configured else DEFAULT_DIR


def recorder_fingerprint():
    """sha256 over the trace package's sources + schema version.

    Any edit to the event format, the recorder or the cache itself
    yields new keys, so stale entries can never be replayed.
    """
    global _fingerprint
    if _fingerprint is None:
        digest = hashlib.sha256(f"schema={SCHEMA_VERSION}".encode())
        package = pathlib.Path(__file__).resolve().parent
        for name in ("events.py", "recorder.py", "cache.py"):
            digest.update(name.encode())
            digest.update((package / name).read_bytes())
        _fingerprint = digest.hexdigest()[:16]
    return _fingerprint


def model_fingerprint(model):
    """Stable digest of a register-file model's configuration.

    Derived from the snapshot protocol's ``kind`` and ``config``
    (construction parameters only, no mutable state), so two freshly
    built models compare equal exactly when direct execution over them
    is guaranteed to produce the same event stream.  Returns ``None``
    for objects outside the snapshot protocol.
    """
    capture = getattr(model, "capture", None)
    if capture is None:
        return None
    try:
        state = capture()
        kind = state["kind"]
        config = sorted(state["config"].items())
    except (TypeError, KeyError, AttributeError):
        return None
    digest = hashlib.sha256(repr((kind, config)).encode())
    return digest.hexdigest()[:16]


def trace_key(workload_name, context_size, scale, seed, model_fp=None):
    """Content-addressed key for one recorded execution."""
    canonical = (f"{workload_name}|ctx={context_size}|scale={scale!r}"
                 f"|seed={seed!r}|{recorder_fingerprint()}")
    if model_fp is not None:
        canonical += f"|model={model_fp}"
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def trace_path(workload, scale, seed, directory=None, model_fp=None):
    """Where the cached trace for one execution lives."""
    directory = pathlib.Path(directory) if directory else cache_dir()
    key = trace_key(workload.name, workload.context_size, scale, seed,
                    model_fp=model_fp)
    return directory / f"{workload.name.lower()}-{key}.trace"


def _log(outcome, workload, path):
    log_path = os.environ.get(ENV_LOG)
    if not log_path:
        return
    try:
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write(f"{outcome} {workload.name} {path.name}\n")
    except OSError:
        pass


def record_trace(workload, scale=1.0, seed=1):
    """Execute ``workload`` once over a recording register file.

    The inner model is immaterial (the stream is model-independent);
    a generously-sized NSF keeps recording fast by avoiding spills.
    """
    from repro.core import NamedStateRegisterFile

    tracer = TracingRegisterFile(NamedStateRegisterFile(
        num_registers=4 * workload.context_size,
        context_size=workload.context_size,
    ))
    workload.run(tracer, scale=scale, seed=seed)
    STATS.records += 1
    return tracer.trace


# -- degradation ladder ------------------------------------------------------


def publishing_enabled():
    """False once repeated publish failures disabled cache writes."""
    return not _degraded["publish_disabled"]


def publish_failures():
    return _degraded["publish_failures"]


def reset_degradation():
    """Re-arm cache publishing after the operator fixed the disk."""
    _degraded["publish_failures"] = 0
    _degraded["publish_disabled"] = False


# -- quarantine --------------------------------------------------------------


def quarantine_dir(directory=None):
    """Where corrupt entries of ``directory`` are moved aside."""
    directory = pathlib.Path(directory) if directory else cache_dir()
    return directory / "quarantine"


def _quarantine(workload, path, reason):
    """Move a corrupt entry aside (with a ``.reason`` file) so it can
    be inspected, and the key transparently re-recorded."""
    qdir = quarantine_dir(path.parent)
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        dest = qdir / path.name
        suffix = 0
        while dest.exists():
            suffix += 1
            dest = qdir / f"{path.name}.{suffix}"
        os.replace(path, dest)
        with open(f"{dest}.reason", "w", encoding="utf-8") as handle:
            handle.write(reason + "\n")
    except OSError:
        # quarantine dir unwritable: at minimum get the corrupt entry
        # out of the lookup path
        try:
            path.unlink()
        except OSError:
            pass
    STATS.quarantined += 1
    _log("QUARANTINE", workload, path)


def quarantine_entries(directory=None):
    """``(path, reason)`` of every quarantined entry, sorted by name."""
    qdir = quarantine_dir(directory)
    if not qdir.is_dir():
        return []
    listing = []
    for path in sorted(qdir.iterdir()):
        if path.name.endswith(".reason"):
            continue
        reason_path = qdir / f"{path.name}.reason"
        try:
            reason = reason_path.read_text(encoding="utf-8").strip()
        except OSError:
            reason = "(no reason file)"
        listing.append((path, reason))
    return listing


def clear_quarantine(directory=None):
    """Delete every quarantined entry; returns the number removed."""
    qdir = quarantine_dir(directory)
    removed = 0
    if qdir.is_dir():
        for path in sorted(qdir.iterdir()):
            try:
                path.unlink()
            except OSError:
                continue
            if not path.name.endswith(".reason"):
                removed += 1
    return removed


# -- disk access -------------------------------------------------------------


def _stat_sig(path):
    """``(size, mtime_ns)`` of the disk file, or ``None`` if absent."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_size, st.st_mtime_ns)


def _read_bytes(path, attempts=3, backoff=0.005):
    """Read a cache entry, retrying transient (injected) ``EIO``."""
    for attempt in range(attempts):
        try:
            if _chaos.ACTIVE is not None:
                token = _chaos.ACTIVE.storage_fault("cache.load")
                if token is not None and token[0] == "eio":
                    raise _chaos.oserror("eio", path)
            with open(path, "rb") as handle:
                return handle.read()
        except OSError as exc:
            if (exc.errno not in TRANSIENT_ERRNOS
                    or attempt >= attempts - 1):
                raise
            time.sleep(backoff * (2 ** attempt))
    raise AssertionError("unreachable")  # pragma: no cover


def _parse_entry(blob):
    """Decode one on-disk entry (framed, bare binary, or legacy text)."""
    if blob.startswith(_events.FRAME_MAGIC):
        blob = _events.unframe(blob)
    if blob.startswith(b"NSFT"):
        return Trace.loads_binary(blob)
    try:
        return Trace.loads(blob.decode("utf-8"))
    except UnicodeDecodeError:
        raise TraceFormatError(
            "neither a framed, binary nor text nsf-trace") from None


def _lookup(workload, path):
    """Memo-then-disk lookup; returns the trace or ``None`` on a miss.

    Memo hits are re-validated against the disk file's stat signature:
    if the file changed (or vanished) since memoization the entry is
    invalidated, so a poisoned memo can never outlive the bytes it
    mirrors.  Corrupt or truncated disk entries (torn copy, bit rot —
    the CRC frame catches both) are quarantined and treated as misses,
    so callers transparently re-record them.
    """
    memo_key = (str(path.parent), path.name)
    entry = _memo.get(memo_key)
    if entry is not None:
        trace, sig, _ = entry
        if sig is None or sig == _stat_sig(path):
            STATS.hits += 1
            _log("HIT", workload, path)
            return trace
        del _memo[memo_key]
    trace = None
    if path.exists():
        try:
            trace = _parse_entry(_read_bytes(path))
        except TraceFormatError as exc:
            _quarantine(workload, path, str(exc))
        except OSError:
            trace = None
        if trace is not None:
            _memoize(memo_key, trace, _stat_sig(path))
    if trace is not None:
        STATS.hits += 1
        _log("HIT", workload, path)
        return trace
    STATS.misses += 1
    _log("MISS", workload, path)
    return None


def _memoize(memo_key, trace, sig):
    """Memoize ``trace`` under its content address, with an empty
    derived-results memo (any previous entry's is dropped)."""
    trace.cache_key = memo_key
    _memo[memo_key] = (trace, sig, {})


def derived(trace):
    """The derived-results memo of a cache-served ``trace``, or ``None``.

    A dict the engines keep results computed from the trace in
    (columnar analysis, oracle tables), keyed by the trace's content
    address and owned by its memo entry: whatever drops the entry —
    stat-signature invalidation, quarantine and re-record,
    :func:`clear` — drops the derived results with it, so they can
    never outlive the bytes they were computed from.  ``None`` for a
    hand-built trace or one whose entry was since replaced: the caller
    computes without memoizing.
    """
    entry = _memo.get(trace.cache_key)
    if entry is None or entry[0] is not trace:
        return None
    return entry[2]


def clear_derived():
    """Empty every derived-results memo; the traces stay memoized."""
    for _, _, memo in _memo.values():
        memo.clear()


# -- single-flight recording lock --------------------------------------------


def _lock_is_stale(lock_path):
    try:
        st = os.stat(lock_path)
    except OSError:
        return False  # vanished; the next open attempt decides
    if time.time() - st.st_mtime > LOCK_STALE_SECONDS:
        return True
    try:
        with open(lock_path, "r", encoding="utf-8") as handle:
            pid = int(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        return True
    if pid == os.getpid():
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        return False
    return False


def _acquire_record_lock(path):
    """Take the single-flight recording lock for one cache entry.

    Returns ``(lock_path_or_None, contended)``.  Stale locks — a dead
    pid, or debris older than :data:`LOCK_STALE_SECONDS` — are broken.
    After :data:`_LOCK_WAITS` bounded waits the caller proceeds
    lock-less: a duplicate recording publishes identical bytes through
    an atomic rename, so starvation costs time, never correctness.
    """
    lock_path = path.with_name(path.name + ".lock")
    if _chaos.ACTIVE is not None:
        token = _chaos.ACTIVE.storage_fault("cache.lock")
        if token is not None and token[0] == "stale_lock":
            _chaos.ACTIVE.plant_stale_lock(lock_path)
    contended = False
    for attempt in range(_LOCK_WAITS + 1):
        try:
            fd = os.open(lock_path,
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            contended = True
            if _lock_is_stale(lock_path):
                try:
                    os.unlink(lock_path)
                except OSError:
                    pass
                continue
            time.sleep(0.01 * (2 ** attempt))
            continue
        except OSError:
            return None, contended  # lock dir unwritable: go lock-less
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return lock_path, contended
    return None, contended


def _release_record_lock(lock_path):
    if lock_path is None:
        return
    try:
        os.unlink(lock_path)
    except OSError:
        pass


# -- publishing --------------------------------------------------------------


def _publish(workload, path, trace):
    """Atomically write ``trace`` (CRC-framed) to ``path``; memoize.

    Transient write failures retry with deterministic backoff; when
    failures persist past :data:`PUBLISH_FAILURE_LIMIT` the ladder
    disables publishing for this process — recordings remain usable
    in-memory (``stat_sig=None`` memo entries), results stay exact,
    only warm-start reuse is lost.
    """
    memo_key = (str(path.parent), path.name)
    if publishing_enabled():
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(path, _events.frame(trace.dumps_binary()),
                               site="cache.publish", attempts=3)
        except OSError:
            _degraded["publish_failures"] += 1
            if _degraded["publish_failures"] >= PUBLISH_FAILURE_LIMIT:
                _degraded["publish_disabled"] = True
            _log("PUBFAIL", workload, path)
        else:
            _log("RECORD", workload, path)
            _memoize(memo_key, trace, _stat_sig(path))
            return
    else:
        _log("NOPUBLISH", workload, path)
    _memoize(memo_key, trace, None)


def load_or_record(workload, scale=1.0, seed=1, directory=None):
    """Return the trace for ``(workload, scale, seed)``, recording once.

    The model-independent entry point — only correct for workloads with
    ``trace_stable = True``; timing-sensitive workloads go through
    :func:`load_for_model` / :func:`record_through` instead.
    """
    path = trace_path(workload, scale, seed, directory=directory)
    trace = _lookup(workload, path)
    if trace is None:
        lock_path, contended = _acquire_record_lock(path)
        try:
            if contended:
                # a concurrent recorder may have published while we
                # waited on its lock
                trace = _lookup(workload, path)
            if trace is None:
                trace = record_trace(workload, scale=scale, seed=seed)
                _publish(workload, path, trace)
        finally:
            _release_record_lock(lock_path)
    return trace


def load_for_model(workload, model, scale=1.0, seed=1, directory=None):
    """Cached trace for this exact model configuration, or ``None``.

    The lookup path for timing-sensitive workloads: a hit may only be
    replayed onto a model whose configuration fingerprint matches the
    one it was recorded through.  A ``None`` return (miss, or a model
    outside the snapshot protocol) means the caller must execute the
    workload directly — ideally via :func:`record_through` so the next
    run hits.
    """
    fp = model_fingerprint(model)
    if fp is None:
        return None
    path = trace_path(workload, scale, seed, directory=directory,
                      model_fp=fp)
    return _lookup(workload, path)


def record_through(workload, model, scale=1.0, seed=1, directory=None):
    """Execute ``workload`` directly over ``model``, recording as it runs.

    The cold-run path for timing-sensitive workloads: the model ends up
    with genuine direct-execution statistics (no replay involved), and
    the recorded stream is published under the model-keyed entry so
    future runs on the same configuration replay instead.
    """
    tracer = TracingRegisterFile(model)
    workload.run(tracer, scale=scale, seed=seed)
    STATS.records += 1
    fp = model_fingerprint(model)
    if fp is not None:
        path = trace_path(workload, scale, seed, directory=directory,
                          model_fp=fp)
        _publish(workload, path, tracer.trace)
    return tracer.trace


def clear(directory=None):
    """Delete every cached trace (and lock debris); returns the number
    of traces removed.  Quarantined entries are kept for inspection —
    see :func:`clear_quarantine`."""
    directory = pathlib.Path(directory) if directory else cache_dir()
    removed = 0
    if directory.is_dir():
        for path in directory.glob("*.trace"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in directory.glob("*.trace.lock"):
            try:
                path.unlink()
            except OSError:
                pass
    _memo.clear()
    return removed


def entries(directory=None):
    """``(path, size_bytes)`` of every cached trace, sorted by name."""
    directory = pathlib.Path(directory) if directory else cache_dir()
    if not directory.is_dir():
        return []
    return sorted((path, path.stat().st_size)
                  for path in directory.glob("*.trace"))


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Inspect or clear the content-addressed trace cache."
    )
    parser.add_argument("command", choices=["info", "clear"],
                        help="info: list entries; clear: delete them")
    parser.add_argument("--dir", default=None,
                        help="cache directory (default: "
                             f"$" + ENV_DIR + " or .trace-cache)")
    args = parser.parse_args(argv)
    directory = pathlib.Path(args.dir) if args.dir else cache_dir()
    if args.command == "clear":
        removed = clear(directory)
        print(f"removed {removed} cached trace(s) from {directory}")
        return 0
    listing = entries(directory)
    total = sum(size for _, size in listing)
    print(f"trace cache: {directory}"
          + ("" if enabled() else "  [DISABLED via $" + ENV_DISABLE + "]"))
    for path, size in listing:
        print(f"  {path.name}  {size:,} B")
    print(f"{len(listing)} entr{'y' if len(listing) == 1 else 'ies'}, "
          f"{total:,} B")
    quarantined = quarantine_entries(directory)
    if quarantined:
        print(f"quarantine: {len(quarantined)} entr"
              f"{'y' if len(quarantined) == 1 else 'ies'}")
        for path, reason in quarantined:
            print(f"  {path.name}  [{reason}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
