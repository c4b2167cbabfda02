"""Register-reference traces: record once, replay across configurations."""

from repro.trace.columnar import (
    ENGINES,
    numpy_available,
    replay_columnar,
    selected_engine,
)
from repro.trace.events import Trace, TraceFormatError
from repro.trace.oracle import (
    OracleUnsupported,
    capacity_curves,
    oracle_sweep,
)
from repro.trace.recorder import TracingRegisterFile
from repro.trace.replay import ReplayDivergenceError, replay, sweep

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
