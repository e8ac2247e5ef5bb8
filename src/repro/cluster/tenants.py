"""The multi-tenant model: who is allowed how much, at what priority.

One rack serves many applications at once; the control plane tracks
each as a *tenant* with a home server, a capacity quota, and a priority
class.  Quota accounting is charged in extent-granular footprints (what
the rack actually loses to a grant), and the ledger enforces the two
invariants the property tests pin down: usage never goes negative and
never exceeds the quota.
"""

from __future__ import annotations

import dataclasses
import enum
import typing as _t

from repro.errors import ClusterError, ConfigError, QuotaExceededError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.leases import Lease
    from repro.core.api import LmpSession


class PriorityClass(enum.IntEnum):
    """Admission behavior when the pool is full.

    ``GUARANTEED`` and ``STANDARD`` tenants queue (guaranteed ahead of
    standard); ``BEST_EFFORT`` tenants are rejected outright — the
    classic spot-versus-reserved split.
    """

    BEST_EFFORT = 0
    STANDARD = 1
    GUARANTEED = 2

    @property
    def may_queue(self) -> bool:
        return self is not PriorityClass.BEST_EFFORT


@dataclasses.dataclass(frozen=True)
class TenantSpec:
    """Declarative description of one tenant."""

    tenant_id: str
    home_server: int
    quota_bytes: int
    priority: PriorityClass = PriorityClass.STANDARD

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ConfigError("tenant_id must be non-empty")
        if self.quota_bytes <= 0:
            raise ConfigError(f"quota must be positive, got {self.quota_bytes}")


class TenantState:
    """One registered tenant's live accounting."""

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.used_bytes = 0
        self.revoked = False
        self.revoke_reason = ""
        #: lease id -> live lease
        self.leases: dict[int, "Lease"] = {}
        #: sessions opened on behalf of this tenant
        self.sessions: list["LmpSession"] = []
        # lifetime counters for the per-tenant report
        self.granted = 0
        self.rejected_quota = 0
        self.rejected_capacity = 0
        self.rejected_revoked = 0
        self.queued = 0
        self.ops_completed = 0

    @property
    def tenant_id(self) -> str:
        return self.spec.tenant_id

    @property
    def rejected(self) -> int:
        """Every refusal handed to this tenant, whatever its reason."""
        return self.rejected_quota + self.rejected_capacity + self.rejected_revoked

    @property
    def quota_remaining(self) -> int:
        return self.spec.quota_bytes - self.used_bytes

    # -- the quota ledger ---------------------------------------------------

    def charge(self, nbytes: int) -> None:
        """Debit *nbytes* from the quota; raises rather than overdraws."""
        if nbytes < 0:
            raise ClusterError(f"cannot charge a negative amount ({nbytes})")
        if self.used_bytes + nbytes > self.spec.quota_bytes:
            raise QuotaExceededError(
                f"tenant {self.tenant_id}: {nbytes} bytes would exceed quota "
                f"({self.used_bytes} used of {self.spec.quota_bytes})"
            )
        self.used_bytes += nbytes

    def refund(self, nbytes: int) -> None:
        """Credit *nbytes* back; the balance can never go negative."""
        if nbytes < 0:
            raise ClusterError(f"cannot refund a negative amount ({nbytes})")
        if nbytes > self.used_bytes:
            raise ClusterError(
                f"tenant {self.tenant_id}: refund of {nbytes} exceeds "
                f"{self.used_bytes} bytes in use (accounting corrupted)"
            )
        self.used_bytes -= nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "revoked" if self.revoked else "active"
        return (
            f"<Tenant {self.tenant_id} {status} "
            f"{self.used_bytes}/{self.spec.quota_bytes}B {len(self.leases)} leases>"
        )
