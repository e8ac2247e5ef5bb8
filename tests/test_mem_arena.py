"""Unit tests for the allocator arena: registry, strategies, typed
misuse errors, live compaction, traces, and the gauntlet harness.

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
    AllocationError,
    ConfigError,
    DoubleFreeError,
    StaleHandleError,
    UnknownHandleError,
)
from repro.mem.allocator import classify_bad_free
from repro.mem.arena import (
    AllocatorProtocol,
    Gauntlet,
    RelocatableAllocator,
    SlabAllocator,
    TenantArenaAllocator,
    TenantAwareAllocator,
    allocator_names,
    make_allocator,
    make_trace,
    run_gauntlet,
    trace_names,
)
from repro.mem.arena.slab import size_classes
from repro.sim.engine import Engine
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


# --- registry and protocol ------------------------------------------------------


def test_registry_lists_the_five_strategies():
    assert allocator_names() == [
        "best-fit",
        "buddy",
        "first-fit",
        "slab",
        "tenant-arena",
    ]


def test_make_allocator_unknown_name_raises():
    with pytest.raises(ConfigError, match="unknown allocator"):
        make_allocator("worst-fit", CAP)


def test_every_strategy_satisfies_the_protocol():
    for name in allocator_names():
        allocator = make_allocator(name, CAP)
        assert isinstance(allocator, AllocatorProtocol), name
        assert allocator.capacity >= CAP // 2  # buddy rounds down
        assert isinstance(allocator, RelocatableAllocator) == (
            allocator.supports_compaction
        ), name
    assert isinstance(make_allocator("tenant-arena", CAP), TenantAwareAllocator)
    assert not isinstance(make_allocator("buddy", CAP), TenantAwareAllocator)


def test_factories_map_align_onto_each_strategys_granularity():
    assert make_allocator("buddy", CAP, align=4096).min_block == 4096
    slab = make_allocator("slab", 1 << 20, align=4096)
    assert slab.quantum == 4096 and slab.slab_bytes == 4096 * 16
    tenant = make_allocator("tenant-arena", 1 << 20, align=4096)
    assert tenant.central.quantum == 4096
    assert make_allocator("first-fit", CAP, align=4096).align == 4096


# --- slab ------------------------------------------------------------------------


def test_size_class_ladder_shape():
    classes = size_classes(64, 4096)
    assert classes == sorted(set(classes))
    assert classes[0] == 64 and classes[-1] <= 4096
    # jemalloc spacing: beyond the quantum ladder, steps are <= 25%
    for small, big in zip(classes, classes[1:]):
        if small >= 256:
            assert big - small <= small // 4


def test_slab_class_for_picks_smallest_adequate_class():
    slab = SlabAllocator(CAP)
    assert slab.classes[slab.class_for(1)] == 64
    assert slab.classes[slab.class_for(64)] == 64
    assert slab.classes[slab.class_for(65)] == 128
    assert slab.class_for(slab.classes[-1] + 1) is None


def test_slab_same_class_blocks_pack_one_slab_and_retire_together():
    slab = SlabAllocator(CAP)
    blocks = [slab.allocate(100) for _ in range(8)]
    assert len({b.offset // slab.slab_bytes for b in blocks}) == 1
    assert slab.slabs_carved == 1
    for block in blocks:
        slab.free(block)
    assert slab.slabs_retired == 1
    assert slab.largest_hole == CAP  # run returned to the backing range
    slab.check_invariants()


def test_slab_large_requests_bypass_the_bins():
    slab = SlabAllocator(CAP)
    grant = slab.allocate(8000)  # > largest class (4096)
    assert grant.size >= 8000
    assert slab.slabs_carved == 0
    slab.free(grant)
    assert slab.bytes_allocated == 0


def test_slab_fragmentation_counts_stranded_intra_slab_bytes():
    slab = SlabAllocator(CAP)
    block = slab.allocate(64)
    # one 64B block pins a whole slab run against large allocations
    assert slab.largest_hole == CAP - slab.slab_bytes
    assert slab.fragmentation() > 0.0
    slab.free(block)
    assert slab.fragmentation() == 0.0


# --- tenant arena ----------------------------------------------------------------


def test_tenant_magazine_hits_after_batch_refill():
    arena = TenantArenaAllocator(1 << 20, magazine_size=4)
    first = arena.allocate_for("t0", 100)
    assert arena.central_refills == 1 and arena.magazine_hits == 0
    second = arena.allocate_for("t0", 100)
    assert arena.magazine_hits == 1  # served from the cached batch
    assert first.offset != second.offset
    assert arena.magazine_depth("t0") == 2  # 4 refilled, 2 handed out
    arena.check_invariants()


def test_tenant_magazines_flush_instead_of_hoarding():
    arena = TenantArenaAllocator(1 << 20, magazine_size=4)
    blocks = [arena.allocate_for("t0", 100) for _ in range(12)]
    for block in blocks:
        arena.free(block)
    assert arena.magazine_flushes >= 1
    assert arena.magazine_depth("t0") <= 2 * arena.magazine_size
    arena.check_invariants()


def test_tenant_plain_allocate_charges_the_default_tenant():
    arena = TenantArenaAllocator(1 << 20)
    grant = arena.allocate(100)
    assert arena.tenants() == ["default"]
    arena.free(grant)
    assert arena.bytes_allocated == 0


def test_tenant_magazines_are_isolated_per_tenant():
    arena = TenantArenaAllocator(1 << 20, magazine_size=4)
    a = arena.allocate_for("t0", 100)
    b = arena.allocate_for("t1", 100)
    assert arena.tenants() == ["t0", "t1"]
    assert arena.magazine_depth("t0") == arena.magazine_depth("t1") == 3
    arena.free(a)
    assert arena.magazine_depth("t0") == 4  # came home to its owner
    assert arena.magazine_depth("t1") == 3
    arena.free(b)


# --- typed misuse errors ---------------------------------------------------------


@pytest.mark.parametrize("name", allocator_names())
def test_double_free_is_typed(name):
    allocator = make_allocator(name, CAP)
    grant = allocator.allocate(100)
    allocator.free(grant)
    with pytest.raises(DoubleFreeError):
        allocator.free(grant)


@pytest.mark.parametrize("name", allocator_names())
def test_free_outside_the_range_is_unknown_handle(name):
    allocator = make_allocator(name, CAP)
    with pytest.raises(UnknownHandleError):
        allocator.free(2 * CAP)
    with pytest.raises(UnknownHandleError):
        allocator.free(-64)


@pytest.mark.parametrize("name", allocator_names())
def test_free_mid_block_is_unknown_handle(name):
    allocator = make_allocator(name, CAP)
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


@pytest.mark.parametrize("name", ["first-fit", "best-fit"])
def test_free_after_relocation_is_stale_with_forwarding_offset(name, alloc_sanitizer):
    with _sanitizer_paused(alloc_sanitizer):
        allocator = make_allocator(name, CAP)
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


@pytest.mark.parametrize("name", ["first-fit", "best-fit"])
def test_free_after_compaction_pass_is_stale(name, alloc_sanitizer):
    with _sanitizer_paused(alloc_sanitizer):
        allocator = make_allocator(name, CAP)
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
    allocator = make_allocator("first-fit", CAP)
    a = allocator.allocate(128)
    b = allocator.allocate(128)
    allocator.free(a)
    allocator.relocate(b)  # b now lives at a's old offset
    c = allocator.allocate(128)  # lands exactly on b's old offset
    assert c.offset == b.offset
    allocator.free(c.offset)  # a legitimate free again, not stale
    assert allocator.bytes_allocated == 128


def test_tenant_double_free_names_the_caching_magazine():
    arena = TenantArenaAllocator(1 << 20, magazine_size=4)
    grant = arena.allocate_for("t7", 100)
    arena.free(grant)  # parked in t7's magazine, not returned to heap
    error = arena._classify_bad_free(grant.offset)
    assert isinstance(error, DoubleFreeError)
    assert "t7" in str(error)


def test_slab_double_free_of_large_carve_is_typed():
    slab = SlabAllocator(CAP)
    grant = slab.allocate(8000)
    slab.free(grant)
    error = slab._classify_bad_free(grant.offset)
    assert isinstance(error, (DoubleFreeError, UnknownHandleError))


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
    fragmented = make_allocator("first-fit", CAP)
    # fill the whole arena, then shred it into alternating 1 KiB holes
    blocks = [fragmented.allocate(1024) for _ in range(CAP // 1024)]
    for block in blocks[::2]:
        fragmented.free(block)
    assert fragmented.fragmentation() > 0.3
    assert compactor.should_compact(fragmented)
    # same fragmentation shape, but the strategy cannot relocate
    assert not compactor.should_compact(make_allocator("buddy", CAP))
    assert not compactor.should_compact(make_allocator("slab", CAP))
    # relocatable but calm: under the threshold
    assert not compactor.should_compact(make_allocator("best-fit", CAP))


def test_compact_packs_live_blocks_into_one_hole():
    allocator = make_allocator("best-fit", CAP)
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


def test_zipf_trace_spreads_over_tenants():
    tenants = {op.tenant for op in make_trace("zipf", ops=2000, seed=1)}
    assert len(tenants) > 1 and "t0" in tenants


# --- gauntlet --------------------------------------------------------------------


def test_gauntlet_replay_is_deterministic():
    gauntlet = Gauntlet(capacity=1 << 20)
    first = gauntlet.replay("slab", "bimodal", ops=2000, seed=5)
    second = gauntlet.replay("slab", "bimodal", ops=2000, seed=5)
    assert first == second


def test_gauntlet_scores_every_pair():
    reports = run_gauntlet(
        allocator_names(), ["churn"], capacity=1 << 20, ops=1500, seed=2
    )
    assert [r.allocator for r in reports] == allocator_names()
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
    report = gauntlet.replay("first-fit", "churn", ops=8000, seed=7)
    assert report.compactions > 0
    assert report.compaction_bytes_moved > 0
    assert report.compaction_cost_ns > 0
    baseline = Gauntlet(capacity=1 << 20).replay("first-fit", "churn", ops=8000, seed=7)
    assert report.ext_frag_mean < baseline.ext_frag_mean


def test_gauntlet_des_replay_matches_pure_replay(engine):
    pure = Gauntlet(capacity=1 << 20).replay("best-fit", "churn", ops=2000, seed=3)
    des = Gauntlet(capacity=1 << 20)
    proc = des.replay_process(engine, "best-fit", "churn", ops=2000, seed=3)
    engine.run()
    assert proc.value == pure  # same scores, now with a simulated clock
    assert engine.now >= 2000 * des.op_cost_ns


def test_gauntlet_tenant_trace_routes_through_allocate_for():
    report = Gauntlet(capacity=1 << 20).replay("tenant-arena", "zipf", ops=2000, seed=3)
    assert report.allocs > 0 and report.frees > 0


# --- integration: pools, experiment, scenario ------------------------------------


@pytest.mark.parametrize("name", allocator_names())
def test_physical_pool_selects_allocator_by_name(name):
    deployment = build_physical("link0", cache=False, seed=1)
    pool = PhysicalMemoryPool(deployment, allocator=name)
    assert pool.allocator_name == name
    buffer = pool.allocate(mib(64), requester_id=0, name="b0")
    pool.free(buffer)
    assert pool._allocator.bytes_allocated == 0


def test_physical_pool_rejects_unknown_allocator():
    deployment = build_physical("link0", cache=False, seed=1)
    with pytest.raises(ConfigError, match="unknown allocator"):
        PhysicalMemoryPool(deployment, allocator="worst-fit")


def test_alloc_experiment_renders_three_tables():
    from repro.experiments import alloc

    result = alloc.run(ops=1200, ablation_ops=1200, seed=3)
    rendered = result.render()
    assert "A10 gauntlet" in rendered
    assert "compaction ablation" in rendered
    assert "per-pool selection" in rendered
    assert len(result.gauntlet) == len(allocator_names()) * len(trace_names())
    assert len(result.pools) == len(allocator_names())


def test_alloc_registered_everywhere():
    from repro.check.determinism import SCENARIOS
    from repro.cli import EXPERIMENTS

    assert "alloc" in SCENARIOS
    assert "alloc" in EXPERIMENTS
