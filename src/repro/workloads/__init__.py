"""The paper's nine benchmarks (Table 1), implemented as real programs.

Sequential: GateSim, RTLSim, ZipFile (20-register contexts).
Parallel: AS, DTW, Gamteb, Paraffins, Quicksort, Wavefront
(32-register contexts, block multithreading).

``CompiledSuite`` (the compiler/CPU front-end) resolves on first use,
so a sweep cell that only replays the nine benchmarks' traces never
loads the compiler, the ISA or the CPU.
"""

from repro._lazy import lazy_exports
from repro.workloads.as_search import AssociativeSearch
from repro.workloads.base import (
    PARALLEL_CONTEXT,
    SEQUENTIAL_CONTEXT,
    Workload,
    WorkloadResult,
    WorkloadVerificationError,
)
from repro.workloads.dtw import DTW
from repro.workloads.gamteb import Gamteb
from repro.workloads.gatesim import GateSim
from repro.workloads.paraffins import Paraffins
from repro.workloads.quicksort import Quicksort
from repro.workloads.rtlsim import RTLSim
from repro.workloads.wavefront import Wavefront
from repro.workloads.zipfile_bench import ZipFile

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.workloads.compiled": ("CompiledSuite",),
})

#: Table-1 order
ALL_WORKLOADS = (
    GateSim,
    RTLSim,
    ZipFile,
    AssociativeSearch,
    DTW,
    Gamteb,
    Paraffins,
    Quicksort,
    Wavefront,
)

SEQUENTIAL_WORKLOADS = tuple(w for w in ALL_WORKLOADS
                             if w.kind == "sequential")
PARALLEL_WORKLOADS = tuple(w for w in ALL_WORKLOADS if w.kind == "parallel")

_BY_NAME = {w.name: w for w in ALL_WORKLOADS}


def get_workload(name):
    """Instantiate a benchmark by its Table-1 name (case-insensitive)."""
    for key, cls in _BY_NAME.items():
        if key.lower() == name.lower():
            return cls()
    raise KeyError(
        f"unknown workload {name!r}; expected one of {sorted(_BY_NAME)}"
    )


def workload_names():
    return [w.name for w in ALL_WORKLOADS]


__all__ = [
    "ALL_WORKLOADS",
    "AssociativeSearch",
    "CompiledSuite",
    "DTW",
    "Gamteb",
    "GateSim",
    "PARALLEL_CONTEXT",
    "PARALLEL_WORKLOADS",
    "Paraffins",
    "Quicksort",
    "RTLSim",
    "SEQUENTIAL_CONTEXT",
    "SEQUENTIAL_WORKLOADS",
    "Wavefront",
    "Workload",
    "WorkloadResult",
    "WorkloadVerificationError",
    "ZipFile",
    "get_workload",
    "workload_names",
]
