"""The allocator gauntlet: adversarial traces replayed against the
shared pool's first-fit arena.

See :mod:`repro.mem.arena.traces` for the traces and
:mod:`repro.mem.arena.gauntlet` for the scored replay.
"""

from repro.mem.arena.gauntlet import Gauntlet, GauntletReport, run_gauntlet
from repro.mem.arena.traces import TRACES, TraceOp, make_trace, trace_names

__all__ = [
    "Gauntlet",
    "GauntletReport",
    "TRACES",
    "TraceOp",
    "make_trace",
    "run_gauntlet",
    "trace_names",
]
