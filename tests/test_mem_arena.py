"""Unit tests for the allocator arena: typed misuse errors of the
first-fit allocator, live compaction, traces, and the gauntlet harness.

The typed-error tests pin the contract DESIGN promises callers: a free
of an already-free range is a :class:`~repro.errors.DoubleFreeError`, a
handle the allocator never granted is an
:class:`~repro.errors.UnknownHandleError`, and a handle whose block
compaction relocated is a :class:`~repro.errors.StaleHandleError`
carrying the forwarding offset.  The stale-handle tests briefly pause
the suite-wide :class:`~repro.check.sanitizers.AllocSanitizer`: its
shadow view (correctly) reports the old range as freed, but here we are
testing the *allocator's own* finer-grained diagnosis underneath.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.core.migration import ArenaCompactor
from repro.core.pool import PhysicalMemoryPool
from repro.errors import (
    ConfigError,
    DoubleFreeError,
    StaleHandleError,
    UnknownHandleError,
)
from repro.mem.allocator import FreeListAllocator, classify_bad_free
from repro.mem.arena import Gauntlet, make_trace, run_gauntlet, trace_names
from repro.topology.builder import build_physical
from repro.units import mib

CAP = 1 << 16


@contextlib.contextmanager
def _sanitizer_paused(sanitizer):
    """Run a block against the bare allocator classes."""
    sanitizer.uninstall()
    try:
        yield
    finally:
        sanitizer.install()


# --- typed misuse errors ---------------------------------------------------------


def test_double_free_is_typed():
    allocator = FreeListAllocator(CAP)
    grant = allocator.allocate(100)
    allocator.free(grant)
    with pytest.raises(DoubleFreeError):
        allocator.free(grant)


def test_free_outside_the_range_is_unknown_handle():
    allocator = FreeListAllocator(CAP)
    with pytest.raises(UnknownHandleError):
        allocator.free(2 * CAP)
    with pytest.raises(UnknownHandleError):
        allocator.free(-64)


def test_free_mid_block_is_unknown_handle():
    allocator = FreeListAllocator(CAP)
    grant = allocator.allocate(256)
    with pytest.raises(UnknownHandleError):
        allocator.free(grant.offset + 64)
    allocator.free(grant)  # the real handle still works


def test_classify_bad_free_prefers_stale_then_range_then_hole():
    stale = {512: 0}
    holes = [(0, 256)]
    assert isinstance(classify_bad_free(512, 1024, holes, stale), StaleHandleError)
    assert isinstance(classify_bad_free(4096, 1024, holes, {}), UnknownHandleError)
    assert isinstance(classify_bad_free(128, 1024, holes, {}), DoubleFreeError)
    assert isinstance(classify_bad_free(300, 1024, holes, {}), UnknownHandleError)


def test_free_after_relocation_is_stale_with_forwarding_offset(alloc_sanitizer):
    with _sanitizer_paused(alloc_sanitizer):
        allocator = FreeListAllocator(CAP)
        a = allocator.allocate(128)
        b = allocator.allocate(128)
        allocator.free(a)
        moved = allocator.relocate(b)
        assert moved.offset == a.offset  # left slide into the hole
        with pytest.raises(StaleHandleError) as exc:
            allocator.free(b.offset)
        assert str(moved.offset) in str(exc.value)  # forwarding address
        allocator.free(moved)
        assert allocator.bytes_allocated == 0


def test_free_after_compaction_pass_is_stale(alloc_sanitizer):
    with _sanitizer_paused(alloc_sanitizer):
        allocator = FreeListAllocator(CAP)
        blocks = [allocator.allocate(1024) for _ in range(16)]
        for block in blocks[::2]:
            allocator.free(block)
        report = ArenaCompactor(threshold=0.01).compact(allocator)
        assert report.blocks_moved > 0
        # the highest moved block: its old offset lies beyond the packed
        # region, so nothing re-occupies it and the handle stays stale
        # (a re-occupied offset is a fresh grant — see the test below)
        survivor = blocks[-1]
        assert survivor.offset in report.moves
        with pytest.raises(StaleHandleError):
            allocator.free(survivor.offset)
        # the move map is the documented recovery path
        allocator.free(report.moves[survivor.offset])


def test_reallocation_retires_the_stale_mapping():
    allocator = FreeListAllocator(CAP)
    a = allocator.allocate(128)
    b = allocator.allocate(128)
    allocator.free(a)
    allocator.relocate(b)  # b now lives at a's old offset
    c = allocator.allocate(128)  # lands exactly on b's old offset
    assert c.offset == b.offset
    allocator.free(c.offset)  # a legitimate free again, not stale
    assert allocator.bytes_allocated == 128


# --- compaction ------------------------------------------------------------------


def test_compactor_config_validation():
    with pytest.raises(ConfigError):
        ArenaCompactor(threshold=0.0)
    with pytest.raises(ConfigError):
        ArenaCompactor(threshold=1.5)
    with pytest.raises(ConfigError):
        ArenaCompactor(copy_bytes_per_ns=0)


def test_should_compact_respects_capability_and_threshold():
    compactor = ArenaCompactor(threshold=0.3)
    fragmented = FreeListAllocator(CAP)
    # fill the whole arena, then shred it into alternating 1 KiB holes
    blocks = [fragmented.allocate(1024) for _ in range(CAP // 1024)]
    for block in blocks[::2]:
        fragmented.free(block)
    assert fragmented.fragmentation() > 0.3
    assert compactor.should_compact(fragmented)
    # calm: one hole, under the threshold
    assert not compactor.should_compact(FreeListAllocator(CAP))


def test_compact_packs_live_blocks_into_one_hole():
    allocator = FreeListAllocator(CAP)
    blocks = [allocator.allocate(1024) for _ in range(16)]
    for block in blocks[::2]:
        allocator.free(block)
    compactor = ArenaCompactor(threshold=0.1, copy_bytes_per_ns=8.0)
    report = compactor.compact(allocator)
    assert allocator.fragmentation() == 0.0
    assert allocator.largest_hole == allocator.bytes_free
    assert report.fragmentation_after == 0.0
    assert report.largest_hole_after > report.largest_hole_before
    assert report.bytes_moved == report.blocks_moved * 1024
    assert report.cost_ns == int(report.bytes_moved / 8.0)
    assert compactor.total_bytes_moved == report.bytes_moved
    # every live block survived, at its mapped offset
    survivors = {a.offset for a in allocator.live_allocations()}
    for block in blocks[1::2]:
        assert report.moves.get(block.offset, block.offset) in survivors


# --- traces ----------------------------------------------------------------------


def test_trace_registry_and_determinism():
    assert trace_names() == ["bimodal", "churn", "pinning", "zipf"]
    for name in trace_names():
        assert make_trace(name, ops=500, seed=3) == make_trace(name, ops=500, seed=3)
    assert make_trace("churn", ops=500, seed=3) != make_trace("churn", ops=500, seed=4)


@pytest.mark.parametrize("name", ["bimodal", "churn", "pinning", "zipf"])
def test_trace_slot_discipline(name):
    """Frees only release slots a prior alloc bound, exactly once."""
    live: set[int] = set()
    for op in make_trace(name, ops=2000, seed=1):
        if op.kind == "alloc":
            assert op.slot not in live and op.size > 0
            live.add(op.slot)
        else:
            assert op.slot in live
            live.discard(op.slot)


# --- gauntlet --------------------------------------------------------------------


def test_gauntlet_replay_is_deterministic():
    gauntlet = Gauntlet(capacity=1 << 20)
    first = gauntlet.replay("bimodal", ops=2000, seed=5)
    second = gauntlet.replay("bimodal", ops=2000, seed=5)
    assert first == second


def test_gauntlet_scores_every_trace():
    reports = run_gauntlet(trace_names(), capacity=1 << 20, ops=1500, seed=2)
    assert [r.trace for r in reports] == trace_names()
    for report in reports:
        assert report.ops == 1500
        # frees of failure-orphaned slots are dropped, so <= not ==
        assert report.ops // 2 <= report.allocs + report.frees + report.failures <= report.ops
        assert report.allocs >= report.frees > 0
        assert 0.0 <= report.internal_fragmentation < 1.0
        assert 0.0 <= report.ext_frag_mean <= report.ext_frag_max <= 1.0
        assert 0.0 < report.largest_hole_min_ratio <= 1.0


def test_gauntlet_compaction_triggers_and_is_charged():
    compactor = ArenaCompactor(threshold=0.2)
    gauntlet = Gauntlet(capacity=1 << 20, compactor=compactor)
    report = gauntlet.replay("churn", ops=8000, seed=7)
    assert report.compactions > 0
    assert report.compaction_bytes_moved > 0
    assert report.compaction_cost_ns > 0
    baseline = Gauntlet(capacity=1 << 20).replay("churn", ops=8000, seed=7)
    assert report.ext_frag_mean < baseline.ext_frag_mean


def test_gauntlet_des_replay_matches_pure_replay(engine):
    pure = Gauntlet(capacity=1 << 20).replay("churn", ops=2000, seed=3)
    des = Gauntlet(capacity=1 << 20)
    proc = des.replay_process(engine, "churn", ops=2000, seed=3)
    engine.run()
    assert proc.value == pure  # same scores, now with a simulated clock
    assert engine.now >= 2000 * des.op_cost_ns


# --- integration: pools, experiment, scenario ------------------------------------


def test_physical_pool_carves_its_box_in_pages():
    deployment = build_physical("link0", cache=False, seed=1)
    pool = PhysicalMemoryPool(deployment)
    arena = pool._allocator
    assert arena.align == pool.geometry.page_bytes
    first = pool.allocate(1, requester_id=0, name="b0")
    second = pool.allocate(mib(64), requester_id=0, name="b1")
    # a one-byte buffer still takes a whole page of the box
    assert [a.size for a in arena.live_allocations()] == [
        pool.geometry.page_bytes,
        mib(64),
    ]
    pool.free(first)
    pool.free(second)
    assert arena.bytes_allocated == 0
    assert arena.largest_hole == pool.pooled_bytes


def test_alloc_experiment_renders_two_tables():
    from repro.experiments import alloc

    result = alloc.run(ops=1200, ablation_ops=1200, seed=3)
    rendered = result.render()
    assert "A10 gauntlet: first-fit" in rendered
    assert "compaction ablation" in rendered
    assert len(result.gauntlet) == len(trace_names())
    assert [r.compaction for r in result.ablation] == [False, True]


def test_alloc_registered_everywhere():
    from repro.check.determinism import SCENARIOS
    from repro.cli import EXPERIMENTS

    assert "alloc" in SCENARIOS
    assert "alloc" in EXPERIMENTS
