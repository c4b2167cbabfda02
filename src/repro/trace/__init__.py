"""Register-reference traces: record once, replay across configurations.

The event format, recorder and event replay load with the package; the
NumPy-backed columnar analysis and the design-space oracle resolve on
first use, so a sweep cell on the event engine never imports them (or
NumPy).  ``replay`` is bound eagerly on purpose: importing the
``repro.trace.replay`` submodule would otherwise leave the package
attribute pointing at the module instead of the function.
"""

from repro._lazy import lazy_exports
from repro.trace.events import Trace, TraceFormatError
from repro.trace.recorder import TracingRegisterFile
from repro.trace.replay import (
    ENGINES,
    ReplayDivergenceError,
    replay,
    selected_engine,
    sweep,
)

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.trace.columnar": ("numpy_available", "replay_columnar"),
    "repro.trace.oracle": ("OracleUnsupported", "capacity_curves",
                           "oracle_sweep"),
})

__all__ = [
    "ENGINES",
    "OracleUnsupported",
    "ReplayDivergenceError",
    "Trace",
    "TraceFormatError",
    "TracingRegisterFile",
    "capacity_curves",
    "numpy_available",
    "oracle_sweep",
    "replay",
    "replay_columnar",
    "selected_engine",
    "sweep",
]
