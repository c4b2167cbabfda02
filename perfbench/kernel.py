"""The benchmark's calibration kernel.

A fixed pure-Python workload that runs no ``repro`` code: a toy
register file (fully associative, LRU, write-back) replaying a seeded
reference stream.  It exercises what the simulator exercises (method
calls, dict lookups, small objects) so its time follows the host's speed
for that kind of code; a tight arithmetic loop does not (README.md,
"Host speed").  A change to the program cannot move it.

    python3 perfbench/kernel.py RUNS     # RUNS kernels in a fresh interpreter
"""

import random
import subprocess
import sys
import time

REGISTERS = 128
STREAM_LENGTH = 40_000

#: kernels per calibration in a pass process, and their mean time on the
#: reference host (two-core sandbox)
RUNS = 4
REF_S = 0.035
#: kernels per interpreter of :func:`spawn_kernel_s`, and its wall time
#: on the reference host with two interpreters
SPAWN_RUNS = 5
SPAWN_REF_S = 0.32


def _stream():
    rng = random.Random(3)
    return [(rng.randrange(300) if rng.random() < 0.8
             else rng.randrange(20_000), rng.random() < 0.3)
            for _ in range(STREAM_LENGTH)]


STREAM = _stream()


class Register:
    __slots__ = ("name", "dirty", "uses")

    def __init__(self, name):
        self.name = name
        self.dirty = False
        self.uses = 0


class ToyFile:
    def __init__(self, size):
        self.size = size
        self.registers = {}  # in LRU order, oldest first
        self.spills = 0

    def access(self, name, write):
        register = self.registers.pop(name, None)
        if register is None:
            if len(self.registers) >= self.size:
                self.evict()
            register = Register(name)
        self.registers[name] = register
        register.uses += 1
        if write:
            register.dirty = True

    def evict(self):
        victim = self.registers.pop(next(iter(self.registers)))
        if victim.dirty:
            self.spills += 1


def kernel():
    """Replay the stream once; returns the spill count."""
    regfile = ToyFile(REGISTERS)
    for name, write in STREAM:
        regfile.access(name, write)
    return regfile.spills


def kernel_s(runs):
    """Mean time of ``runs`` kernels in this process."""
    start = time.perf_counter()
    for _ in range(runs):
        kernel()
    return (time.perf_counter() - start) / runs


def spawn_kernel_s(jobs, runs):
    """Wall time of ``jobs`` fresh interpreters running ``runs`` kernels
    each, all at once: an interpreter start-up on every core, as a
    sweep's cell subprocesses pay, without any ``repro`` code."""
    start = time.perf_counter()
    procs = [subprocess.Popen([sys.executable, __file__, str(runs)])
             for _ in range(jobs)]
    for proc in procs:
        proc.wait()
    return time.perf_counter() - start


if __name__ == "__main__":
    for _ in range(int(sys.argv[1])):
        kernel()
