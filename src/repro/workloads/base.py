"""Workload framework: the paper's nine benchmarks share this harness.

Each benchmark is a *real program* (Table 1 of the paper) executed
through the activation-trace machine, so every local-variable access
goes through the register-file model under test.  A workload:

* ``build(seed, scale)`` — generate its input deterministically;
* ``execute(machine, spec)`` — run the guest program;
* ``reference(spec)`` — compute the expected output in plain Python.

``run`` wires those together over any register-file model and *verifies
the output*: a register file that mis-spills a single value produces a
wrong checksum and raises :class:`WorkloadVerificationError`.

Sequential benchmarks allocate a 20-register context per procedure
activation; parallel benchmarks a 32-register context per thread
(paper §7).  Parallel thread bodies deliberately keep many locals live
(~18–22), mirroring the paper's note that the TAM translator "folds
hundreds of thread local variables into a context's registers, without
regard to variable lifetime".
"""

import dis
import inspect
import sys
from dataclasses import dataclass, field

from repro.errors import ReproError

SEQUENTIAL_CONTEXT = 20
PARALLEL_CONTEXT = 32


class WorkloadVerificationError(ReproError):
    """A benchmark produced the wrong answer under a register-file model."""

    def __init__(self, name, expected, actual):
        super().__init__(
            f"workload {name!r} produced {actual!r}, expected {expected!r} "
            "— register-file model corrupted live data"
        )
        self.expected = expected
        self.actual = actual


@dataclass
class WorkloadResult:
    """Outcome of one benchmark run over one register-file model."""

    name: str
    kind: str
    output: object
    expected: object
    machine: object
    regfile: object
    scale: float
    seed: int

    @property
    def stats(self):
        return self.regfile.stats

    @property
    def verified(self):
        return self.output == self.expected

    def summary(self):
        s = self.stats
        return {
            "name": self.name,
            "kind": self.kind,
            "model": self.regfile.kind,
            "instructions": s.instructions,
            "context_switches": s.context_switches,
            "instr_per_switch": s.instructions_per_switch,
            "reloads_per_instr": s.reloads_per_instruction,
            "utilization_avg": s.utilization_avg,
            "verified": self.verified,
        }


class Workload:
    """Base class for the nine benchmarks."""

    name = "abstract"
    kind = "sequential"  # or "parallel"
    #: short description shown in Table 1
    description = ""
    #: True when the register-reference event stream this workload
    #: generates is independent of the register-file model underneath.
    #: Sequential benchmarks are stable by construction (straight-line
    #: control flow never consults the clock).  Parallel benchmarks are
    #: stable as long as thread wake-up order never races the cycle
    #: counter, which spill/reload stalls advance model-dependently —
    #: a benchmark that parks threads on timed ``remote()`` accesses
    #: must set this False (see Gamteb).  The trace cache shares one
    #: canonical recording across all models only when this is True;
    #: otherwise it keys recordings by the target model configuration.
    trace_stable = True

    @property
    def context_size(self):
        return SEQUENTIAL_CONTEXT if self.kind == "sequential" else PARALLEL_CONTEXT

    # -- to implement -------------------------------------------------------

    def build(self, seed, scale):
        raise NotImplementedError

    def execute(self, machine, spec):
        raise NotImplementedError

    def reference(self, spec):
        raise NotImplementedError

    # -- harness -----------------------------------------------------------------

    def make_machine(self, regfile, remote_latency=100, verify_values=True,
                     eager_switch=False):
        # imported here: only a cold recording or a direct run executes
        # the front-end, so a cell replaying a cached trace skips them
        if self.kind == "sequential":
            from repro.activation import SequentialMachine

            return SequentialMachine(regfile,
                                     context_size=self.context_size,
                                     verify_values=verify_values)
        from repro.runtime import ThreadMachine

        return ThreadMachine(regfile, context_size=self.context_size,
                             remote_latency=remote_latency,
                             verify_values=verify_values,
                             eager_switch=eager_switch)

    def run(self, regfile, scale=1.0, seed=1, remote_latency=100,
            check=True, verify_values=True, eager_switch=False):
        """Run the benchmark over ``regfile`` and verify its output."""
        spec = self.build(seed, scale)
        machine = self.make_machine(regfile, remote_latency=remote_latency,
                                    verify_values=verify_values,
                                    eager_switch=eager_switch)
        output = self.execute(machine, spec)
        expected = self.reference(spec)
        result = WorkloadResult(
            name=self.name, kind=self.kind, output=output,
            expected=expected, machine=machine, regfile=regfile,
            scale=scale, seed=seed,
        )
        if check and not result.verified:
            raise WorkloadVerificationError(self.name, expected, output)
        return result

    # -- Table 1 static metrics ---------------------------------------------------

    def static_metrics(self):
        """Source lines and static instruction proxy for Table 1.

        The paper counts lines of C/Id source and static instructions of
        the translated program; we count the benchmark module's source
        lines and the Python bytecode instructions of its functions (the
        "translated program").
        """
        module = sys.modules[type(self).__module__]
        try:
            source = inspect.getsource(module)
            source_lines = len(
                [ln for ln in source.splitlines() if ln.strip()
                 and not ln.strip().startswith("#")]
            )
        except OSError:
            source_lines = 0
        static_instructions = 0
        seen = set()
        for obj in vars(module).values():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                for fn in _functions_within(obj, seen):
                    static_instructions += len(list(dis.get_instructions(fn)))
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                for obj in vars(cls).values():
                    if inspect.isfunction(obj):
                        for fn in _functions_within(obj, seen):
                            static_instructions += len(
                                list(dis.get_instructions(fn))
                            )
        return {"source_lines": source_lines,
                "static_instructions": static_instructions}


def _functions_within(fn, seen):
    """Yield ``fn`` and every nested code object, once each."""
    code = fn.__code__
    stack = [code]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        yield current
        for const in current.co_consts:
            if hasattr(const, "co_code"):
                stack.append(const)
