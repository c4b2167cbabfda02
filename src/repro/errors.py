"""Exception hierarchy for the NSF reproduction library."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class RegisterFileError(ReproError):
    """Base class for register-file model errors."""


class UnknownContextError(RegisterFileError):
    """An operation referenced a context id that was never created."""

    def __init__(self, cid):
        super().__init__(f"unknown context id: {cid!r}")
        self.cid = cid


class DuplicateContextError(RegisterFileError):
    """A context id was created twice without being destroyed."""

    def __init__(self, cid):
        super().__init__(f"context id already exists: {cid!r}")
        self.cid = cid


class NoCurrentContextError(RegisterFileError):
    """A register access happened before any context was made current."""

    def __init__(self):
        super().__init__("no current context: call switch_to() first")


class ReadBeforeWriteError(RegisterFileError):
    """A register was read before it was ever written (strict mode only)."""

    def __init__(self, cid, offset):
        super().__init__(
            f"register r{offset} of context {cid!r} read before first write"
        )
        self.cid = cid
        self.offset = offset


class RegisterRangeError(RegisterFileError):
    """A register offset fell outside the context's register set."""

    def __init__(self, offset, context_size):
        super().__init__(
            f"register offset {offset} out of range for a "
            f"{context_size}-register context"
        )
        self.offset = offset
        self.context_size = context_size


class CapacityError(RegisterFileError):
    """A configuration cannot hold even a single context or line."""


class MachineCheckError(RegisterFileError):
    """An uncorrectable register error on *dirty* data: no clean copy
    exists anywhere, so the hardware raises a machine-check trap and
    software must recover (restart the activation, kill the thread...).

    Clean-register errors never reach this point — the resilience layer
    recovers them by invalidating the line and demand-reloading from the
    backing store.
    """

    def __init__(self, cid, offset, observed=None, detail=""):
        message = (
            f"uncorrectable error in register r{offset} of context "
            f"{cid!r} with no clean backing copy"
        )
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.cid = cid
        self.offset = offset
        self.observed = observed
        self.detail = detail


class BackingStoreFaultError(RegisterFileError):
    """A backing-store access kept failing after bounded retries."""

    def __init__(self, op, cid, offset, attempts):
        super().__init__(
            f"backing-store {op} of (cid={cid!r}, r{offset}) still "
            f"failing after {attempts} attempts"
        )
        self.op = op
        self.cid = cid
        self.offset = offset
        self.attempts = attempts


class CompressionIntegrityError(RegisterFileError):
    """A spill-path codec failed to round-trip a transfer unit."""

    def __init__(self, codec, sent, received):
        super().__init__(
            f"codec {codec!r} corrupted a spill unit: sent {sent!r}, "
            f"decoded {received!r}"
        )
        self.codec = codec
        self.sent = sent
        self.received = received


class SealedModelError(ReproError):
    """An access to a model whose statistics were synthesized rather
    than replayed (served from the oracle's tables or the columnar
    analysis).  Only ``.stats`` and the backing store's word counters
    are meaningful on such a model; its lines, frames and contexts were
    never built, so any further access would read stale state."""

    def __init__(self, model, method):
        super().__init__(
            f"{model}.{method}() on a sealed stats-only model: its "
            f"statistics were synthesized, its internal state was never "
            f"built; read .stats, or replay onto a fresh model"
        )
        self.model = model
        self.method = method


class SnapshotError(ReproError):
    """A checkpoint could not be captured or restored.

    Raised for structural problems: capturing a non-quiescent machine,
    restoring a snapshot into an incompatibly-configured object, or
    serializing a value outside the canonical-encoding domain.
    """


class SnapshotIntegrityError(SnapshotError):
    """A serialized snapshot failed its integrity hash (corrupt or
    truncated bytes)."""


class SnapshotVersionError(SnapshotError):
    """A serialized snapshot was written by an incompatible protocol
    version."""

    def __init__(self, found, expected):
        super().__init__(
            f"snapshot protocol version {found} is not supported "
            f"(this build reads version {expected})"
        )
        self.found = found
        self.expected = expected


class JournalError(ReproError):
    """A sweep journal is unusable for the requested resume (wrong
    experiment, scale, or seed — resuming would silently mix results)."""


class AssemblerError(ReproError):
    """Raised for malformed assembly input."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CompileError(ReproError):
    """Raised for errors in mini-language source programs."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MachineError(ReproError):
    """Raised for run-time faults in the CPU simulator."""


class RuntimeModelError(ReproError):
    """Raised for misuse of the threaded runtime (e.g. joining twice)."""


class DeadlockError(RuntimeModelError):
    """The thread scheduler found runnable work impossible to make progress.

    ``wait_graph`` maps each stuck thread's name to a description of
    what it is blocked on, so post-mortems see the cycle, not just a
    count.
    """

    def __init__(self, message, wait_graph=None):
        if wait_graph:
            lines = "; ".join(
                f"{thread} -> {waiting_on}"
                for thread, waiting_on in sorted(wait_graph.items())
            )
            message = f"{message} [wait graph: {lines}]"
        super().__init__(message)
        self.wait_graph = wait_graph or {}
