"""Exception hierarchy for the LMP reproduction.

All library errors derive from :class:`ReproError` so applications can
catch everything from this package with one ``except`` clause.  The
failure-domain errors (§5 of the paper: "failure reporting to application
through exceptions") live here too so the public API can raise them
without importing the failures subpackage.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly or reached an invalid state."""


class CapacityError(ReproError):
    """An allocation cannot be satisfied by the available memory.

    Raised, for example, when the 96 GB vector of Figure 5 is placed on a
    physical pool whose pooled capacity is only 64 GB.
    """


class AllocationError(CapacityError):
    """An allocator could not find a suitable free range despite capacity."""


class UnknownHandleError(AllocationError):
    """A free/resolve used a handle the allocator never granted (an
    offset outside the managed range, misaligned, or pointing into the
    middle of a live block)."""


class StaleHandleError(AllocationError):
    """A handle refers to a block that compaction has since relocated.

    The error message carries the block's new offset; callers holding
    plain integer offsets across a compaction pass must re-resolve them
    from the :class:`~repro.core.migration.CompactionReport` move map.
    """


class AddressError(ReproError):
    """A logical or physical address is invalid or cannot be translated."""


class ProtectionError(AddressError):
    """An access violates a region's protection (e.g. writing another
    server's private region)."""


class MigrationError(ReproError):
    """A buffer migration could not be started or completed."""


class CoherenceError(ReproError):
    """The coherence protocol was driven into an illegal transition."""


class MemoryFailureError(ReproError):
    """An access touched memory lost to a server crash and no redundancy
    scheme could mask the failure (§5, "failure reporting to application
    through exceptions")."""

    def __init__(self, message: str, *, server_id: int | None = None) -> None:
        super().__init__(message)
        self.server_id = server_id


class RecoveryError(ReproError):
    """Redundant data exists but reconstruction failed (e.g. too many
    erasures for the Reed-Solomon code parameters)."""


class InfeasibleWorkloadError(CapacityError):
    """A workload cannot run on a deployment at all (Figure 5's physical
    pool with the 96 GB vector)."""


class ClusterError(ReproError):
    """Base class for errors raised by the ``repro.cluster`` control
    plane (admission, leases, tenant lifecycle)."""


class AdmissionError(ClusterError, CapacityError):
    """The control plane declined an allocation request.

    Also a :class:`CapacityError` so tenants written against the plain
    pool API handle cluster rejections with the same guard."""


class QuotaExceededError(AdmissionError):
    """A request would push a tenant past its capacity quota."""


class TenantRevokedError(ClusterError):
    """An operation was attempted by (or on behalf of) a tenant whose
    leases have been revoked."""


class LeaseError(ClusterError):
    """A lease was used incorrectly (unknown, already released, or
    owned by a different tenant)."""


class ObservabilityError(ReproError):
    """The ``repro.obs`` subsystem was misused (double-install, another
    observer already installed, or an export asked of an empty
    recorder)."""


class SanitizerError(ReproError):
    """Base class for every error raised by the ``repro.check`` runtime
    sanitizers (the substitute for silicon validation: we have no
    hardware to cross-check the models against, so the sanitizers
    enforce the invariants a real memory system would)."""


class DoubleFreeError(SanitizerError, AllocationError):
    """A range was freed twice.

    Also an :class:`AllocationError` so callers that guard plain
    allocator misuse keep working when the sanitizer is installed.
    """


class UseAfterFreeError(SanitizerError, AddressError):
    """An access touched a range after it was returned to the allocator."""


class MemoryLeakError(SanitizerError):
    """Live allocations remained at scenario teardown."""


class OverlapError(SanitizerError):
    """An allocator granted a range overlapping a live allocation."""


class CoherenceInvariantError(SanitizerError, CoherenceError):
    """A coherence transition left the directory in a state violating a
    MESI-style invariant (two Modified owners, Shared copies coexisting
    with Modified, or a snoop filter out of sync with the sharer sets)."""


class DeterminismError(SanitizerError):
    """Two runs of the same scenario with the same seed produced
    different event streams."""


class DeadlockError(SimulationError, SanitizerError):
    """The event loop ran dry while processes were still waiting.

    Also a :class:`SanitizerError`: with the ``repro.check.races``
    deadlock detector installed the message carries the wait-for cycle
    (who waits on whom, and through which semaphore or process)."""


class ModelCheckError(SanitizerError):
    """The explicit-state model checker (``repro.check.model``) was
    misused — unknown spec or scope, a malformed trace handed to a
    replay adapter, or an exploration budget that cannot be satisfied.

    Protocol *violations* are not exceptions: the explorer reports them
    as counterexamples so the runner can render and replay them."""


class DataRaceError(SanitizerError):
    """Two accesses to the same shared frame — at least one a write —
    were not ordered by happens-before (no coherence transition, sync
    primitive, resource handoff, or fork/join edge between them)."""


class LocksetError(SanitizerError):
    """Eraser-style lockset violation: a frame was accessed by multiple
    processes with a write, and the intersection of the resources held
    across those accesses is empty (no single lock protects it)."""
