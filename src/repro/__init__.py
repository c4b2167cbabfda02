"""repro — a reproduction of the Named-State Register File (HPCA 1995).

The package implements Nuth & Dally's fully-associative Named-State
Register File (NSF), the segmented and conventional register files it is
compared against, a block-multithreaded runtime, an activation-trace
machine, a small RISC ISA with compiler and cycle-level CPU simulator,
the paper's nine benchmarks, analytic chip timing/area models, and an
evaluation harness that regenerates every table and figure.

Quickstart::

    from repro import NamedStateRegisterFile

    nsf = NamedStateRegisterFile(num_registers=16, context_size=8)
    a = nsf.begin_context()
    nsf.switch_to(a)
    nsf.write(0, 42)
    value, access = nsf.read(0)
    assert value == 42 and access.hit

See ``examples/`` for complete programs and ``DESIGN.md`` for the
system inventory.
"""

from repro._lazy import lazy_exports
from repro.errors import ReproError

# the register-file models resolve on first use: importing ``repro``
# (as every sweep-cell subprocess does) must not load them all
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core": (
        "AccessResult", "BackingStore", "ConventionalRegisterFile",
        "CostModel", "Ctable", "NSF_COSTS", "NamedStateRegisterFile",
        "RegFileStats", "RegisterFile", "SEGMENT_HW_COSTS",
        "SEGMENT_SW_COSTS", "SegmentedRegisterFile", "speedup",
    ),
})

__version__ = "1.0.0"

__all__ = [
    "AccessResult",
    "BackingStore",
    "ConventionalRegisterFile",
    "CostModel",
    "Ctable",
    "NSF_COSTS",
    "NamedStateRegisterFile",
    "RegFileStats",
    "RegisterFile",
    "ReproError",
    "SEGMENT_HW_COSTS",
    "SEGMENT_SW_COSTS",
    "SegmentedRegisterFile",
    "__version__",
    "speedup",
]
