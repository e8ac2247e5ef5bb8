"""Rack-level placement schedulers.

The cluster control plane chooses which servers' shared regions back
each grant.  Schedulers are ordinary
:class:`~repro.mem.interleave.PlacementPolicy` objects — the pool's
extent-carving machinery is reused unchanged — so two of the three
ship straight from :mod:`repro.mem.interleave` and one, first-fit, is
new.

Adding a scheduler is three steps: subclass ``PlacementPolicy``, give
it a unique ``name``, and register a zero-argument factory in
:data:`CLUSTER_POLICIES` (see ``docs/cluster.md``).
"""

from __future__ import annotations

import typing as _t

from repro.errors import ConfigError
from repro.mem.interleave import (
    CapacityWeightedPlacement,
    LocalFirstPlacement,
    PlacementPolicy,
)


class FirstFitPlacement(PlacementPolicy):
    """Fill the lowest-numbered server with room, then the next.

    The simplest admission-friendly policy: it concentrates load so the
    high-numbered servers keep large unbroken free regions, at the cost
    of hammering server 0's DRAM bandwidth.
    """

    name = "first-fit"

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
        for sid in sorted(slots):
            while slots[sid] > 0 and len(placement) < extent_count:
                slots[sid] -= 1
                placement.append(sid)
        return placement


#: scheduler name -> zero-argument factory; ``locality-first`` and
#: ``capacity-balanced`` reuse the pool's own policies unchanged
CLUSTER_POLICIES: dict[str, _t.Callable[[], PlacementPolicy]] = {
    FirstFitPlacement.name: FirstFitPlacement,
    "locality-first": LocalFirstPlacement,
    "capacity-balanced": CapacityWeightedPlacement,
}


def make_policy(policy: str | PlacementPolicy) -> PlacementPolicy:
    """Resolve a CLI/scheduler name (or pass a policy through)."""
    if isinstance(policy, PlacementPolicy):
        return policy
    try:
        return CLUSTER_POLICIES[policy]()
    except KeyError:
        known = ", ".join(sorted(CLUSTER_POLICIES))
        raise ConfigError(f"unknown cluster policy {policy!r}; known: {known}") from None
