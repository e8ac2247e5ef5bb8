"""Tests for per-server private/shared region management."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.regions import RegionManager
from repro.errors import AllocationError, CapacityError
from repro.hw.link import LINK_PRESETS
from repro.hw.server import Server
from repro.mem.layout import PageGeometry, RegionKind
from repro.sim.engine import Engine
from repro.sim.fluid import FluidModel
from repro.units import gib, mib

GEO = PageGeometry(page_bytes=mib(2), extent_bytes=mib(256))


def make_manager(dram=gib(1), shared=mib(512), coherent=0) -> RegionManager:
    engine = Engine()
    server = Server(engine, FluidModel(engine), 0, dram, LINK_PRESETS["link0"])
    return RegionManager(server, GEO, shared_bytes=shared, coherent_bytes=coherent)


def test_initial_split():
    manager = make_manager()
    assert manager.shared_bytes == mib(512)
    assert manager.private_bytes == gib(1) - mib(512)
    assert manager.shared_free_bytes == mib(512)


def test_regions_descriptor_covers_layout():
    manager = make_manager(coherent=mib(64))
    regions = manager.regions()
    kinds = [r.kind for r in regions]
    assert kinds == [RegionKind.PRIVATE, RegionKind.COHERENT, RegionKind.SHARED]
    assert regions[0].start == 0
    assert regions[-1].end == manager.capacity_bytes
    # contiguous, non-overlapping
    for left, right in zip(regions, regions[1:]):
        assert left.end == right.start


def test_frame_allocation_round_trip():
    manager = make_manager()
    frames = manager.allocate_frames(4)
    assert len(set(frames)) == 4
    assert all(f % mib(2) == 0 for f in frames)
    assert manager.shared_used_bytes == mib(8)
    manager.free_frames(frames)
    assert manager.shared_used_bytes == 0


def test_frame_exhaustion():
    manager = make_manager(shared=mib(4))
    manager.allocate_frames(2)
    with pytest.raises(AllocationError):
        manager.allocate_frames(1)


def test_free_unknown_frame_rejected():
    manager = make_manager()
    with pytest.raises(AllocationError):
        manager.free_frames([0])


def test_frames_come_back_in_order_after_mixed_takes():
    """Compaction takes the top frames and frees append out of order;
    the next lowest-first take still hands out each free frame once, in
    ascending order, and the highest-first take in descending order."""
    manager = make_manager(shared=mib(16))  # 8 frames
    top = manager.allocate_frames(2, highest=True)
    assert top == sorted(top, reverse=True)
    low = manager.allocate_frames(3)
    manager.free_frames(top[::-1] + low[1:])
    frames = manager.allocate_frames(7)
    assert len(set(frames)) == 7
    assert frames == sorted(frames)  # lowest first
    assert low[0] not in frames
    assert manager.shared_free_bytes == 0


def test_free_stops_at_a_frame_named_twice():
    manager = make_manager(shared=mib(16))
    frames = manager.allocate_frames(4)
    with pytest.raises(AllocationError):
        manager.free_frames([frames[0], frames[1], frames[0], frames[2]])
    # the frames before the bad one stay freed; the rest stay in use
    assert manager.shared_used_bytes == mib(4)
    manager.free_frames(frames[2:])
    assert manager.shared_used_bytes == 0


def test_grow_converts_private_to_shared():
    manager = make_manager()
    manager.grow_shared(mib(256))
    assert manager.shared_bytes == mib(768)
    assert manager.shared_free_bytes == mib(768)
    assert manager.resize_events == 1


def test_grow_beyond_private_rejected():
    manager = make_manager(dram=gib(1), shared=mib(512))
    with pytest.raises(CapacityError):
        manager.grow_shared(gib(1))


def test_shrink_requires_free_frames():
    manager = make_manager()
    frames = manager.allocate_frames(1)  # occupies the lowest shared frame
    with pytest.raises(CapacityError, match="occupied frames"):
        manager.shrink_shared(mib(2))
    assert manager.frames_blocking_shrink(mib(2)) == frames
    manager.free_frames(frames)
    manager.shrink_shared(mib(2))
    assert manager.shared_bytes == mib(510)


def test_set_shared_target_grows():
    manager = make_manager()
    achieved = manager.set_shared_target(mib(600))
    assert achieved == mib(600)


def test_set_shared_target_shrinks_up_to_blocker():
    manager = make_manager()
    frames = manager.allocate_frames(2)  # two lowest frames occupied
    achieved = manager.set_shared_target(mib(100))
    # cannot shrink past the occupied frames
    assert achieved == mib(512)
    manager.free_frames(frames)
    achieved = manager.set_shared_target(mib(100))
    assert achieved == mib(100)


def test_full_flex_to_all_shared():
    """Figure 5's enabler: a server can contribute everything."""
    manager = make_manager(dram=gib(1), shared=0 or mib(2))
    manager.set_shared_target(gib(1))
    assert manager.private_bytes == 0
    assert manager.shared_bytes == gib(1)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["grow", "shrink", "alloc", "free"]), st.integers(1, 64)),
        max_size=40,
    )
)
def test_region_conservation_under_random_ops(ops):
    """shared + private == capacity, and used + free == shared, always."""
    manager = make_manager(dram=mib(512), shared=mib(256))
    live: list[list[int]] = []
    for op, amount in ops:
        try:
            if op == "grow":
                manager.grow_shared(amount * mib(2))
            elif op == "shrink":
                manager.shrink_shared(amount * mib(2))
            elif op == "alloc":
                live.append(manager.allocate_frames(amount))
            elif live:
                manager.free_frames(live.pop())
        except (CapacityError, AllocationError):
            pass
        assert (
            manager.private_bytes + manager.coherent_bytes + manager.shared_bytes
            == manager.capacity_bytes
        )
        assert manager.shared_used_bytes + manager.shared_free_bytes == manager.shared_bytes
