"""Placement policies: where a new allocation's extents land.

"Logical pools support near-memory computations on disaggregated memory
through three mechanisms: data placement, data migration ... and compute
shipping" (§1).  Placement is the first mechanism: when a buffer is
allocated, the policy decides which servers' shared regions back each
extent.

Policies receive the per-server free capacity and return an ordered
server choice per extent.  They are pure decision functions — the pool
does the actual carving — so they unit-test without a simulator.
"""

from __future__ import annotations

import abc
import typing as _t

from repro.errors import CapacityError


class PlacementPolicy(abc.ABC):
    """Strategy interface for spreading extents across servers."""

    name: str = "abstract"

    @abc.abstractmethod
    def place(
        self,
        extent_count: int,
        extent_bytes: int,
        free_bytes: _t.Mapping[int, int],
        requester_id: int | None,
    ) -> list[int]:
        """Return the owning server id for each of *extent_count* extents.

        *free_bytes* maps server id -> free shared capacity.  It is the
        pool's live ledger, read-only, so a policy copies what it counts
        down.  The policy must not overcommit any server.
        *requester_id* is the server performing the allocation (None for
        an external client).
        """

    @staticmethod
    def _capacity_in_extents(
        free_bytes: _t.Mapping[int, int], extent_bytes: int
    ) -> dict[int, int]:
        return {sid: free // extent_bytes for sid, free in free_bytes.items()}

    @staticmethod
    def _check_feasible(extent_count: int, slots: dict[int, int]) -> None:
        total = sum(slots.values())
        if total < extent_count:
            raise CapacityError(
                f"placement needs {extent_count} extents but the pool has "
                f"room for only {total}"
            )


class LocalFirstPlacement(PlacementPolicy):
    """Fill the requester's own shared region first, then spill to the
    remaining servers in round-robin order.

    This is the placement the paper's §4.3 analysis assumes: the 64 GB
    vector lands 24 GB local / 40 GB remote, so the accessing server
    reads 3/8 of it at local speed.
    """

    name = "local-first"

    def place(
        self,
        extent_count: int,
        extent_bytes: int,
        free_bytes: _t.Mapping[int, int],
        requester_id: int | None,
    ) -> list[int]:
        slots = self._capacity_in_extents(free_bytes, extent_bytes)
        self._check_feasible(extent_count, slots)
        placement: list[int] = []
        if requester_id is not None and requester_id in slots:
            while slots[requester_id] > 0 and len(placement) < extent_count:
                slots[requester_id] -= 1
                placement.append(requester_id)
        spill = sorted(sid for sid in slots if sid != requester_id and slots[sid] > 0)
        i = 0
        while len(placement) < extent_count:
            if not spill:
                raise CapacityError("placement ran out of spill capacity")
            sid = spill[i % len(spill)]
            if slots[sid] > 0:
                slots[sid] -= 1
                placement.append(sid)
                i += 1
            else:
                spill.remove(sid)
        return placement


class RoundRobinPlacement(PlacementPolicy):
    """Spread extents evenly across all servers with room.

    The right default when the consumer is *distributed* (near-memory
    compute sums shards on every server, §4.4) or unknown.
    """

    name = "round-robin"

    def place(
        self,
        extent_count: int,
        extent_bytes: int,
        free_bytes: _t.Mapping[int, int],
        requester_id: int | None,
    ) -> list[int]:
        slots = self._capacity_in_extents(free_bytes, extent_bytes)
        self._check_feasible(extent_count, slots)
        ring = sorted(sid for sid in slots if slots[sid] > 0)
        placement: list[int] = []
        i = 0
        while len(placement) < extent_count:
            if not ring:
                raise CapacityError("round-robin ran out of capacity")
            sid = ring[i % len(ring)]
            if slots[sid] > 0:
                slots[sid] -= 1
                placement.append(sid)
                i += 1
            else:
                ring.remove(sid)
        return placement


class CapacityWeightedPlacement(PlacementPolicy):
    """Place proportionally to free capacity, keeping utilization even
    when servers contribute different shared-region sizes (the
    ratio-flexible deployments of §4.5)."""

    name = "capacity-weighted"

    def place(
        self,
        extent_count: int,
        extent_bytes: int,
        free_bytes: _t.Mapping[int, int],
        requester_id: int | None,
    ) -> list[int]:
        slots = self._capacity_in_extents(free_bytes, extent_bytes)
        self._check_feasible(extent_count, slots)
        placement: list[int] = []
        remaining = dict(slots)
        for _ in range(extent_count):
            sid = max(
                (s for s in remaining if remaining[s] > 0),
                key=lambda s: (remaining[s], -s),
            )
            remaining[sid] -= 1
            placement.append(sid)
        return placement


class PinnedPlacement(PlacementPolicy):
    """Place every extent on one designated server.

    Used by the redundancy schemes (§5 "Failure domains"): replica and
    parity shards must live on *distinct* servers or a single host crash
    takes out multiple shards and the scheme protects nothing.
    """

    name = "pinned"

    def __init__(self, server_id: int) -> None:
        self.server_id = server_id

    def place(
        self,
        extent_count: int,
        extent_bytes: int,
        free_bytes: _t.Mapping[int, int],
        requester_id: int | None,
    ) -> list[int]:
        if self.server_id not in free_bytes:
            raise CapacityError(f"pinned server {self.server_id} is not in the pool")
        slots = free_bytes[self.server_id] // extent_bytes
        if slots < extent_count:
            raise CapacityError(
                f"server {self.server_id} has room for {slots} extents, "
                f"need {extent_count}"
            )
        return [self.server_id] * extent_count


POLICIES: dict[str, type[PlacementPolicy]] = {
    LocalFirstPlacement.name: LocalFirstPlacement,
    PinnedPlacement.name: PinnedPlacement,
    RoundRobinPlacement.name: RoundRobinPlacement,
    CapacityWeightedPlacement.name: CapacityWeightedPlacement,
}
