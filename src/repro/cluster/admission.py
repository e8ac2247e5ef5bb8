"""Admission control: the rack's front door.

Every capacity request is classified before any memory moves:

* ``GRANT`` — the pool can hold it and the tenant's quota covers it.
* ``QUEUE`` — the pool is momentarily full but the tenant's priority
  class entitles it to wait for capacity to free up.
* ``REJECT`` — over quota, best-effort under pressure, queue overflow,
  or the tenant has been revoked.

The controller is a pure decision function over explicit inputs (tenant
state, request size, free capacity, queue depth), so policies unit-test
without a simulator — mirroring how placement policies are structured.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.cluster.tenants import TenantState
from repro.errors import ConfigError


class Decision(enum.Enum):
    GRANT = "grant"
    QUEUE = "queue"
    REJECT_QUOTA = "reject-quota"
    REJECT_CAPACITY = "reject-capacity"
    REJECT_REVOKED = "reject-revoked"


@dataclasses.dataclass(frozen=True)
class Verdict:
    """A decision plus the reason rendered for the tenant."""

    decision: Decision
    reason: str = ""


class AdmissionController:
    """Quota + priority + queue-depth admission policy."""

    def __init__(self, max_queue_depth: int = 64) -> None:
        if max_queue_depth < 0:
            raise ConfigError(f"max_queue_depth must be >= 0, got {max_queue_depth}")
        self.max_queue_depth = max_queue_depth

    def decide(
        self,
        tenant: TenantState,
        footprint_bytes: int,
        pool_free_bytes: int,
        queue_depth: int,
    ) -> Verdict:
        """Classify one request for *footprint_bytes* of pool capacity."""
        if tenant.revoked:
            return Verdict(
                Decision.REJECT_REVOKED,
                f"tenant {tenant.tenant_id} was revoked: {tenant.revoke_reason}",
            )
        if footprint_bytes > tenant.quota_remaining:
            return Verdict(
                Decision.REJECT_QUOTA,
                f"{footprint_bytes}B request exceeds remaining quota "
                f"{tenant.quota_remaining}B",
            )
        if footprint_bytes <= pool_free_bytes:
            return Verdict(Decision.GRANT)
        if not tenant.spec.priority.may_queue:
            return Verdict(
                Decision.REJECT_CAPACITY,
                f"pool has {pool_free_bytes}B free; best-effort tenants do not queue",
            )
        if queue_depth >= self.max_queue_depth:
            return Verdict(
                Decision.REJECT_CAPACITY,
                f"admission queue full ({queue_depth}/{self.max_queue_depth})",
            )
        return Verdict(Decision.QUEUE, f"pool has {pool_free_bytes}B free; waiting")
