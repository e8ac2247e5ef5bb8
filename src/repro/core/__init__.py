"""The paper's contribution: the logical memory pool and its runtime.

Layering (bottom-up):

* :mod:`repro.core.regions` — each server's private/shared/coherent
  split, dynamically resizable (§3.2, §4.5),
* :mod:`repro.core.addressing` — the two-step translation scheme (§5),
* :mod:`repro.core.buffer` — migration-stable buffer handles,
* :mod:`repro.core.pool` — :class:`LogicalMemoryPool` and the
  :class:`PhysicalMemoryPool` baselines (§4.1),
* :mod:`repro.core.profiling` / :mod:`repro.core.migration` — access
  profiling and locality balancing (§5),
* :mod:`repro.core.sizing` — shared-region sizing policies (§5),
* :mod:`repro.core.compute` — near-memory compute shipping (§4.4),
* :mod:`repro.core.coherence` — the small coherent region: directory
  protocol, inclusive snoop filter with back-invalidation, and
  synchronization primitives built on it (§3.2, §5),
* :mod:`repro.core.failures` — crash handling: replication, erasure
  coding, failure reporting (§5),
* :mod:`repro.core.runtime` / :mod:`repro.core.api` — the per-server
  runtime and the application library (§3.2).
"""

from repro.core.api import LmpSession
from repro.core.buffer import Buffer
from repro.core.pool import (
    LogicalMemoryPool,
    MemoryPool,
    PhysicalMemoryPool,
)
from repro.core.runtime import LmpRuntime

__all__ = [
    "Buffer",
    "LmpRuntime",
    "LmpSession",
    "LogicalMemoryPool",
    "MemoryPool",
    "PhysicalMemoryPool",
]
