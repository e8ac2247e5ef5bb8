"""Stateful property test of the shared-pool allocator contract.

:class:`AllocatorMachine` drives the first-fit
:class:`~repro.mem.allocator.FreeListAllocator` through random
allocate/free/misuse/compaction interleavings and checks, after every
step, the contract its callers rely on:

* granted ranges never overlap a live grant;
* byte accounting conserves — ``bytes_allocated`` equals the sum of
  granted sizes, and ``check_invariants`` (sorted, disjoint, coalesced
  holes) holds;
* misuse raises typed :class:`~repro.errors.AllocationError`
  subclasses, never corrupts state;
* draining every live block returns the arena to one maximal hole.
"""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.migration import ArenaCompactor
from repro.errors import AllocationError
from repro.mem.allocator import Allocation, FreeListAllocator

CAPACITY = 1 << 16


class AllocatorMachine(RuleBasedStateMachine):
    """Random op sequences against the first-fit arena, contract-checked."""

    @initialize()
    def setup(self) -> None:
        self.allocator = FreeListAllocator(CAPACITY)
        self.live: list[Allocation] = []

    # -- rules ----------------------------------------------------------------

    @rule(size=st.integers(1, 3000))
    def allocate(self, size: int) -> None:
        try:
            grant = self.allocator.allocate(size)
        except AllocationError:
            return
        assert grant.size >= size, "granted less than requested"
        assert 0 <= grant.offset and grant.end <= CAPACITY, "grant out of range"
        self.live.append(grant)

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, 10))
    def free(self, index: int) -> None:
        grant = self.live.pop(index % len(self.live))
        self.allocator.free(grant)

    @rule()
    def free_unknown_is_typed_and_harmless(self) -> None:
        before = self.allocator.bytes_allocated
        with pytest.raises(AllocationError):
            self.allocator.free(CAPACITY + 64)
        assert self.allocator.bytes_allocated == before

    @rule()
    def nonpositive_alloc_rejected(self) -> None:
        with pytest.raises(AllocationError):
            self.allocator.allocate(0)

    @precondition(lambda self: self.live)
    @rule()
    def compact(self) -> None:
        """A full compaction pass must preserve every live block under a
        remapped handle and never increase fragmentation."""
        frag_before = self.allocator.fragmentation()
        report = ArenaCompactor(threshold=0.01).compact(self.allocator)
        assert report.fragmentation_after <= frag_before + 1e-9
        self.live = [
            Allocation(report.moves.get(a.offset, a.offset), a.size)
            for a in self.live
        ]

    # -- invariants ------------------------------------------------------------

    @invariant()
    def contract_holds(self) -> None:
        self.allocator.check_invariants()
        assert self.allocator.bytes_allocated == sum(a.size for a in self.live), (
            "byte conservation against the caller's view"
        )
        spans = sorted((a.offset, a.end) for a in self.live)
        for (_s0, e0), (s1, _e1) in zip(spans, spans[1:]):
            assert e0 <= s1, "granted ranges overlap"
        assert 0.0 <= self.allocator.fragmentation() <= 1.0

    def teardown(self) -> None:
        # drain: caller bytes must reach zero and coalescing must
        # restore one maximal hole
        for grant in self.live:
            self.allocator.free(grant)
        self.live = []
        self.allocator.check_invariants()
        assert self.allocator.bytes_allocated == 0, "drain left live bytes"
        assert self.allocator.largest_hole == CAPACITY, (
            "full drain did not coalesce back to one hole"
        )
        super().teardown()


AllocatorMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
TestArenaFirstFit = AllocatorMachine.TestCase
