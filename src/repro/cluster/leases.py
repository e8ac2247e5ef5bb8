"""Lease-based ownership of pooled memory.

Every grant the :class:`~repro.cluster.manager.PoolManager` makes is a
*lease*: the tenant holds the backing frames only while the lease is
live.  Leases make reclamation after a crash mechanical — the failure
path never chases raw buffers around, it revokes a tenant's leases and
each one knows exactly which buffer (and therefore which frames, via
the pool's page tables) to give back.

A lease given a deadline
(:meth:`~repro.cluster.manager.PoolManager.expire_after`) carries it
in ``expires_at``, and the manager frees the lease at that instant
whatever its holder does: a tenant that silently dies cannot keep the
capacity.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

from repro.errors import LeaseError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.buffer import Buffer


def _buffer_key(buffer: _t.Any) -> int:
    """Index key for a buffer: its unique base address, or object
    identity for the bare stand-ins unit tests pass in."""
    base = getattr(buffer, "base", None)
    return id(buffer) if base is None else int(base.value)


@dataclasses.dataclass
class Lease:
    """One tenant's claim on one pooled buffer."""

    lease_id: int
    tenant_id: str
    buffer: "Buffer"
    footprint_bytes: int  # extent-granular bytes charged against the quota
    granted_at: float
    expires_at: float = math.inf

    @property
    def size(self) -> int:
        return self.buffer.size


class LeaseTable:
    """The rack-wide registry of live leases."""

    def __init__(self) -> None:
        self._by_id: dict[int, Lease] = {}
        #: base-address -> lease index: every alloc/free path resolves a
        #: buffer to its lease, so at 10k-tenant scale this lookup must
        #: not scan the table (a live buffer's base address is unique)
        self._by_buffer: dict[int, Lease] = {}
        self._next_id = 1

    def __len__(self) -> int:
        return len(self._by_id)

    def grant(
        self,
        tenant_id: str,
        buffer: "Buffer",
        footprint_bytes: int,
        now: float,
    ) -> Lease:
        lease = Lease(
            lease_id=self._next_id,
            tenant_id=tenant_id,
            buffer=buffer,
            footprint_bytes=footprint_bytes,
            granted_at=now,
        )
        self._next_id += 1
        self._by_id[lease.lease_id] = lease
        self._by_buffer[_buffer_key(buffer)] = lease
        return lease

    def release(self, lease: Lease) -> None:
        if self._by_id.pop(lease.lease_id, None) is None:
            raise LeaseError(
                f"lease {lease.lease_id} ({lease.tenant_id}) is not live; "
                "already released or revoked?"
            )
        key = _buffer_key(lease.buffer)
        if self._by_buffer.get(key) is lease:
            del self._by_buffer[key]

    def is_live(self, lease_id: int) -> bool:
        return lease_id in self._by_id

    def lookup(self, lease_id: int) -> Lease:
        try:
            return self._by_id[lease_id]
        except KeyError:
            raise LeaseError(f"no live lease {lease_id}") from None

    def find_by_buffer(self, buffer: "Buffer") -> Lease | None:
        """The live lease backing *buffer*, if any — O(1) through the
        base-address index (this runs on every alloc and free)."""
        lease = self._by_buffer.get(_buffer_key(buffer))
        if lease is not None and lease.buffer is buffer:
            return lease
        return None

    def live_bytes(self) -> int:
        """Extent-granular footprint of every live lease."""
        return sum(lease.footprint_bytes for lease in self._by_id.values())
