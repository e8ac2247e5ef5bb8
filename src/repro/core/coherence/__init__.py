"""The coherent region (§3.2, §5 "Cache coherence").

"LMPs do not assume cache coherence for all shared memory.  Instead, it
provides a small amount (a few GBs) of coherent memory that can be used
for coordination and synchronization."

* :mod:`repro.core.coherence.protocol` — a directory-based MSI protocol
  over the fabric, with real data values so synchronization primitives
  are functionally correct, and full timing so coherence traffic is
  measurable.
* :mod:`repro.core.coherence.snoop_filter` — the inclusive snoop filter
  whose capacity pressure causes back-invalidations (the reason the
  coherent region must stay small).
* :mod:`repro.core.coherence.sync` — spinlocks, ticket locks and
  NUMA-aware cohort locks built on the protocol, mirroring the
  NUMA-aware coordination work the paper cites.
"""

from repro.core.coherence.protocol import CoherenceDirectory, CoherenceStats
from repro.core.coherence.snoop_filter import SnoopFilter
from repro.core.coherence.sync import CohortLock, SpinLock, TicketLock

__all__ = [
    "CoherenceDirectory",
    "CoherenceStats",
    "CohortLock",
    "SnoopFilter",
    "SpinLock",
    "TicketLock",
]
