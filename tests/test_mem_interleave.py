"""Tests for placement policies."""

from __future__ import annotations

from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CapacityError
from repro.mem.interleave import (
    CapacityWeightedPlacement,
    LocalFirstPlacement,
    PinnedPlacement,
    POLICIES,
    RoundRobinPlacement,
)

FREE = {0: 8, 1: 8, 2: 8, 3: 8}  # extents of capacity 1


def place(policy, count, free=None, requester=0):
    return policy.place(count, 1, dict(free or FREE), requester)


def test_local_first_fills_requester():
    assert place(LocalFirstPlacement(), 8) == [0] * 8


def test_local_first_spills_round_robin():
    placement = place(LocalFirstPlacement(), 11)
    assert placement[:8] == [0] * 8
    assert placement[8:] == [1, 2, 3]


def test_local_first_without_requester_is_deterministic():
    a = place(LocalFirstPlacement(), 6, requester=None)
    b = place(LocalFirstPlacement(), 6, requester=None)
    assert a == b


def test_round_robin_spreads_evenly():
    placement = place(RoundRobinPlacement(), 8)
    assert placement == [0, 1, 2, 3, 0, 1, 2, 3]


def test_round_robin_skips_full_servers():
    placement = place(RoundRobinPlacement(), 4, free={0: 0, 1: 2, 2: 2, 3: 0})
    assert placement == [1, 2, 1, 2]


def test_capacity_weighted_follows_free_space():
    placement = place(CapacityWeightedPlacement(), 6, free={0: 9, 1: 3, 2: 3, 3: 3})
    assert placement.count(0) > placement.count(1)


def test_pinned_places_everything_on_target():
    assert place(PinnedPlacement(2), 5) == [2] * 5


def test_pinned_respects_capacity():
    with pytest.raises(CapacityError):
        place(PinnedPlacement(2), 9)
    with pytest.raises(CapacityError):
        place(PinnedPlacement(7), 1)


def test_infeasible_total_raises():
    for policy in (LocalFirstPlacement(), RoundRobinPlacement()):
        with pytest.raises(CapacityError):
            place(policy, 33)


def test_policy_registry_complete():
    assert set(POLICIES) == {
        "local-first",
        "round-robin",
        "capacity-weighted",
        "pinned",
    }


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(1, 30),
    free=st.dictionaries(st.integers(0, 5), st.integers(0, 10), min_size=1, max_size=6),
    policy_name=st.sampled_from(["local-first", "round-robin", "capacity-weighted"]),
)
def test_placements_never_overcommit(count, free, policy_name):
    """Whatever the policy, per-server placements fit the free space and
    infeasible demands raise instead of silently truncating."""
    policy = POLICIES[policy_name]()
    requester = min(free)
    try:
        placement = policy.place(count, 1, dict(free), requester)
    except CapacityError:
        assert sum(free.values()) < count or all(v == 0 for v in free.values())
        return
    assert len(placement) == count
    for sid in set(placement):
        assert placement.count(sid) <= free[sid]


def _every_policy():
    from repro.cluster.placement import CLUSTER_POLICIES

    named = {name: factory for name, factory in POLICIES.items() if name != "pinned"}
    named.update(CLUSTER_POLICIES)
    return sorted(named.items()) + [("pinned", lambda: PinnedPlacement(1))]


@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(1, 30),
    free=st.dictionaries(st.integers(0, 5), st.integers(0, 10), min_size=1, max_size=6),
    extent_bytes=st.sampled_from([1, 3]),
)
def test_every_policy_leaves_free_bytes_unchanged(count, free, extent_bytes):
    """The pool hands placement its live ledger behind a read-only view:
    no policy, granting or refusing, may change the numbers it reads."""
    for name, factory in _every_policy():
        ledger = dict(free)
        view = MappingProxyType(ledger)
        try:
            factory().place(count, extent_bytes, view, min(free))
        except CapacityError:
            pass
        assert ledger == free, name
        # and a plain dict handed over directly comes back untouched too
        plain = dict(free)
        try:
            factory().place(count, extent_bytes, plain, min(free))
        except CapacityError:
            pass
        assert plain == free, name
