"""Tests for the multi-tenant rack control plane (repro.cluster)."""

from __future__ import annotations

import pytest

from repro.cluster.admission import AdmissionController, Decision
from repro.cluster.driver import ClusterDriver, WorkloadMix, tolerated_fault
from repro.cluster.fairness import jain_index
from repro.cluster.leases import LeaseTable
from repro.cluster.manager import PoolManager
from repro.cluster.placement import CLUSTER_POLICIES, FirstFitPlacement, make_policy
from repro.cluster.tenants import PriorityClass, TenantSpec, TenantState
from repro.core.failures.detector import FailureDetector
from repro.core.runtime import LmpRuntime
from repro.errors import (
    AddressError,
    AdmissionError,
    ClusterError,
    ConfigError,
    LeaseError,
    QuotaExceededError,
    TenantRevokedError,
)
from repro.mem.layout import PageGeometry
from repro.obs import Observability
from repro.topology.builder import build_logical
from repro.units import kib, mib, us

EXTENT = kib(64)


def small_manager(policy: str = "first-fit", server_count: int = 3, **kwargs) -> PoolManager:
    deployment = build_logical(
        "link0", server_count=server_count, server_dram_bytes=mib(2)
    )
    runtime = LmpRuntime(
        deployment,
        geometry=PageGeometry(page_bytes=kib(16), extent_bytes=EXTENT),
        coherent_bytes=kib(64),
        snoop_filter_lines=64,
    )
    return PoolManager(runtime, policy=policy, **kwargs)


def spec(tid: str = "t0", home: int = 0, quota: int = mib(1), **kwargs) -> TenantSpec:
    return TenantSpec(tenant_id=tid, home_server=home, quota_bytes=quota, **kwargs)


# --- fairness ----------------------------------------------------------------


def test_jain_even_split_is_one():
    assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)


def test_jain_monopoly_is_one_over_n():
    assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


def test_jain_degenerate_populations():
    assert jain_index([]) == 1.0
    assert jain_index([0.0, 0.0]) == 1.0


# --- tenants -----------------------------------------------------------------


def test_tenant_spec_validation():
    with pytest.raises(ConfigError):
        TenantSpec(tenant_id="", home_server=0, quota_bytes=1)
    with pytest.raises(ConfigError):
        TenantSpec(tenant_id="x", home_server=0, quota_bytes=0)


def test_quota_ledger_charges_and_refunds():
    tenant = TenantState(spec(quota=100))
    tenant.charge(60)
    assert tenant.quota_remaining == 40
    with pytest.raises(QuotaExceededError):
        tenant.charge(41)
    tenant.refund(60)
    with pytest.raises(ClusterError):
        tenant.refund(1)  # balance can never go negative


def test_best_effort_does_not_queue():
    assert not PriorityClass.BEST_EFFORT.may_queue
    assert PriorityClass.STANDARD.may_queue
    assert PriorityClass.GUARANTEED.may_queue


# --- admission ---------------------------------------------------------------


def test_admission_grants_within_quota_and_capacity():
    verdict = AdmissionController().decide(
        TenantState(spec(quota=mib(1))), kib(64), pool_free_bytes=mib(1), queue_depth=0
    )
    assert verdict.decision is Decision.GRANT


def test_admission_rejects_over_quota():
    tenant = TenantState(spec(quota=kib(64)))
    tenant.charge(kib(64))
    verdict = AdmissionController().decide(tenant, kib(64), mib(1), 0)
    assert verdict.decision is Decision.REJECT_QUOTA


def test_admission_queues_standard_but_rejects_best_effort():
    standard = TenantState(spec(quota=mib(1)))
    best_effort = TenantState(spec(quota=mib(1), priority=PriorityClass.BEST_EFFORT))
    assert (
        AdmissionController().decide(standard, kib(64), 0, 0).decision is Decision.QUEUE
    )
    assert (
        AdmissionController().decide(best_effort, kib(64), 0, 0).decision
        is Decision.REJECT_CAPACITY
    )


def test_admission_rejects_when_queue_full():
    tenant = TenantState(spec(quota=mib(1)))
    controller = AdmissionController(max_queue_depth=2)
    assert tenant.spec.priority.may_queue
    verdict = controller.decide(tenant, kib(64), 0, queue_depth=2)
    assert verdict.decision is Decision.REJECT_CAPACITY


def test_admission_rejects_revoked_tenants():
    tenant = TenantState(spec())
    tenant.revoked = True
    verdict = AdmissionController().decide(tenant, kib(64), mib(1), 0)
    assert verdict.decision is Decision.REJECT_REVOKED


# --- placement ---------------------------------------------------------------


def test_first_fit_fills_lowest_server_first():
    placement = FirstFitPlacement().place(
        3, EXTENT, {0: 2 * EXTENT, 1: 4 * EXTENT, 2: 4 * EXTENT}, requester_id=2
    )
    assert placement == [0, 0, 1]


def test_make_policy_resolves_all_registered_names():
    assert set(CLUSTER_POLICIES) == {"first-fit", "locality-first", "capacity-balanced"}
    for name in sorted(CLUSTER_POLICIES):
        assert make_policy(name).name  # constructs and carries a name
    with pytest.raises(ConfigError):
        make_policy("round-robin-nope")


# --- leases ------------------------------------------------------------------


def test_lease_table_grant_release_cycle():
    table = LeaseTable()
    lease = table.grant("a", buffer=object(), footprint_bytes=EXTENT, now=0.0)
    assert table.lookup(lease.lease_id) is lease
    assert table.live_bytes() == EXTENT
    table.release(lease)
    assert len(table) == 0
    with pytest.raises(LeaseError):
        table.release(lease)  # double release


# --- manager: grants, quotas, queueing ---------------------------------------


def test_manager_acquire_grants_a_lease():
    manager = small_manager()
    manager.register_tenant(spec("t0", quota=mib(1)))
    lease = manager.engine.run(manager.acquire("t0", kib(100), name="b"))
    assert lease.tenant_id == "t0"
    assert lease.footprint_bytes == 2 * EXTENT  # rounded up to extents
    assert manager.tenant("t0").used_bytes == 2 * EXTENT
    assert len(manager.leases) == 1
    manager.release(lease)
    assert manager.tenant("t0").used_bytes == 0
    assert len(manager.leases) == 0


def test_manager_rejects_duplicate_and_unknown_tenants():
    manager = small_manager()
    manager.register_tenant(spec("t0"))
    with pytest.raises(ConfigError):
        manager.register_tenant(spec("t0"))
    with pytest.raises(ConfigError):
        manager.tenant("nobody")
    with pytest.raises(ConfigError):
        manager.register_tenant(spec("t9", home=99))


def test_manager_enforces_quota_on_acquire():
    manager = small_manager()
    manager.register_tenant(spec("t0", quota=EXTENT))
    with pytest.raises(QuotaExceededError):
        manager.engine.run(manager.acquire("t0", 2 * EXTENT))
    assert manager.tenant("t0").rejected_quota == 1
    assert manager.rejection_rate() == 1.0


def test_direct_session_alloc_is_metered_too():
    """The observer meters session.alloc even without the admission queue."""
    manager = small_manager()
    manager.register_tenant(spec("t0", quota=2 * EXTENT))
    session = manager.open_session("t0")
    buffer = session.alloc(EXTENT)
    assert manager.tenant("t0").used_bytes == EXTENT
    assert len(manager.leases) == 1  # leased automatically
    with pytest.raises(QuotaExceededError):
        session.alloc(4 * EXTENT)  # would blow the quota
    session.free(buffer)
    assert manager.tenant("t0").used_bytes == 0
    assert len(manager.leases) == 0


def test_best_effort_capacity_rejection():
    manager = small_manager()
    manager.register_tenant(
        spec("spot", quota=mib(64), priority=PriorityClass.BEST_EFFORT)
    )
    free = manager.pool_free_bytes() // EXTENT * EXTENT
    lease = manager.engine.run(manager.acquire("spot", free))
    with pytest.raises(AdmissionError):
        manager.engine.run(manager.acquire("spot", EXTENT))
    assert manager.tenant("spot").rejected_capacity == 1
    assert 0.0 < manager.rejection_rate() < 1.0
    manager.release(lease)


def test_standard_tenant_queues_until_capacity_frees():
    manager = small_manager()
    manager.register_tenant(spec("big", quota=mib(64)))
    manager.register_tenant(spec("waiter", quota=mib(64)))
    free = manager.pool_free_bytes() // EXTENT * EXTENT
    big = manager.engine.run(manager.acquire("big", free))
    waiting = manager.acquire("waiter", EXTENT)
    manager.engine.run(manager.engine.timeout(us(1)))
    assert manager.queue_depth == 1  # parked, not rejected
    manager.release(big)  # freeing services the queue
    lease = manager.engine.run(waiting)
    assert lease.tenant_id == "waiter"
    assert manager.queue_depth == 0
    manager.release(lease)


def test_guaranteed_class_served_before_standard():
    manager = small_manager()
    manager.register_tenant(spec("big", quota=mib(64)))
    manager.register_tenant(spec("std", quota=mib(64)))
    manager.register_tenant(
        spec("gold", quota=mib(64), priority=PriorityClass.GUARANTEED)
    )
    free = manager.pool_free_bytes() // EXTENT * EXTENT
    big = manager.engine.run(manager.acquire("big", free))
    std_proc = manager.acquire("std", EXTENT)
    gold_proc = manager.acquire("gold", EXTENT)  # arrives later, higher class
    manager.engine.run(manager.engine.timeout(us(1)))
    assert manager.queue_depth == 2
    manager.release(big)
    gold = manager.engine.run(gold_proc)
    std = manager.engine.run(std_proc)
    assert gold.lease_id < std.lease_id  # guaranteed was granted first
    manager.release(gold)
    manager.release(std)


# --- admission decided at the call -------------------------------------------


def test_acquire_grants_and_rejections_conclude_at_the_call():
    manager = small_manager()
    engine = manager.engine
    manager.register_tenant(spec("t0", quota=2 * EXTENT))
    manager.register_tenant(
        spec("spot", quota=mib(64), priority=PriorityClass.BEST_EFFORT)
    )
    manager.register_tenant(spec("gone", quota=mib(1)))
    manager.revoke_tenant("gone")
    dispatched = engine.events_processed

    grant = manager.acquire("t0", EXTENT)
    over_quota = manager.acquire("t0", 2 * EXTENT)
    revoked = manager.acquire("gone", EXTENT)
    spot = manager.acquire("spot", manager.pool_free_bytes() // EXTENT * EXTENT)
    full = manager.acquire("spot", EXTENT)
    # every verdict is in before the engine has run a single event
    assert engine.events_processed == dispatched and engine.now == 0.0
    assert grant.triggered and grant.ok and grant.value.tenant_id == "t0"
    assert spot.triggered and spot.ok
    rejections = (
        (over_quota, QuotaExceededError),
        (revoked, TenantRevokedError),
        (full, AdmissionError),
    )
    for event, kind in rejections:
        assert event.triggered and not event.ok
        assert type(event.value) is kind
    assert manager.tenant("t0").rejected_quota == 1
    assert manager.tenant("spot").rejected_capacity == 1
    assert manager.stats.counter("rejected.quota").value == 1
    assert manager.stats.counter("rejected.capacity").value == 1
    assert manager.stats.counter("granted").value == 2
    assert len(manager.stats.histogram("wait_ns")) == 2
    # a process yielding them sees the same lease and the same exceptions
    assert engine.run(grant) is grant.value
    for event, kind in rejections:
        with pytest.raises(kind):
            engine.run(event)


def test_queued_acquire_concludes_when_served_and_records_its_wait():
    obs = Observability()
    with obs.activated():
        # built inside the block: an engine is observed only if it is
        # built while obs is installed
        manager = small_manager()
        engine = manager.engine
        manager.register_tenant(spec("big", quota=mib(64)))
        manager.register_tenant(spec("waiter", quota=mib(64)))
        big = engine.run(
            manager.acquire("big", manager.pool_free_bytes() // EXTENT * EXTENT)
        )

        def requester():
            request = obs.recorder.open("request", "request", engine)
            waiting = manager.acquire("waiter", EXTENT)
            assert not waiting.triggered and manager.queue_depth == 1
            lease = yield waiting
            obs.recorder.finish(request, engine.now)
            return request, lease

        def releaser():
            yield engine.timeout(us(3))
            assert manager.queue_depth == 1  # still parked, not rejected
            manager.release(big)  # the free's queue pass grants the waiter

        served = engine.process(requester())
        engine.run(engine.all_of([served, engine.process(releaser())]))
    request, lease = served.value
    assert lease.tenant_id == "waiter" and manager.queue_depth == 0
    waits = manager.stats.histogram("wait_ns")
    assert waits.minimum() == 0.0 and waits.maximum() == us(3)
    # the queueing time lands on the requester's span, not the releaser's
    assert request.attrs["cat_queue_ns"] == us(3)
    assert sum(s.attrs.get("cat_queue_ns", 0.0) for s in obs.recorder.spans) == us(3)


def test_grant_capacity_race_fails_the_returned_event():
    manager = small_manager()
    engine = manager.engine
    manager.register_tenant(spec("t0", quota=mib(64)))
    engine.run(manager.acquire("t0", manager.pool_free_bytes() // EXTENT * EXTENT))
    # admission sees room that placement then cannot find
    manager.pool_free_bytes = lambda: mib(64)
    raced = manager.acquire("t0", EXTENT)  # does not raise out of the call
    assert raced.triggered and not raced.ok
    assert type(raced.value) is AdmissionError
    assert manager.tenant("t0").rejected_capacity == 1
    assert manager.stats.counter("rejected.capacity").value == 1
    with pytest.raises(AdmissionError):
        engine.run(raced)


def test_scattered_free_bytes_pass_admission_then_fail_placement():
    """Admission decides on pool-wide free bytes; placement needs a whole
    free extent on one server.  Free space scattered in sub-extent
    pieces passes the first and fails the second, which the manager
    counts as a capacity rejection.  On a frozen split this is how
    every ``rejected.capacity`` of S1's flash crowd comes about."""
    manager = small_manager(policy="capacity-balanced")
    manager.register_tenant(spec("t0", quota=mib(64)))
    for region in manager.pool.regions.values():
        region.flex_on_demand = False
        region.shrink_shared(region.shared_bytes - EXTENT // 2)
    assert manager.pool_free_bytes() == 3 * EXTENT // 2  # room, in pieces
    verdict = manager.admission.decide(
        manager.tenant("t0"), EXTENT, manager.pool_free_bytes(), manager.queue_depth
    )
    assert verdict.decision is Decision.GRANT
    rejected = manager.acquire("t0", EXTENT)
    assert rejected.triggered and not rejected.ok
    assert type(rejected.value) is AdmissionError
    assert "room for only 0" in str(rejected.value)
    assert manager.tenant("t0").rejected_capacity == 1
    assert manager.stats.counter("rejected.capacity").value == 1
    assert manager.stats.counter("granted").value == 0
    assert manager.pool_free_bytes() == 3 * EXTENT // 2  # nothing was carved


# --- revocation and crash reclamation ----------------------------------------


def test_revoke_tenant_reclaims_every_frame(alloc_sanitizer):
    manager = small_manager()
    manager.register_tenant(spec("victim", quota=mib(1)))
    manager.register_tenant(spec("other", home=1, quota=mib(1)))
    for _ in range(3):
        manager.engine.run(manager.acquire("victim", EXTENT))
    survivor = manager.engine.run(manager.acquire("other", EXTENT))

    report = manager.revoke_tenant("victim", reason="test")
    assert report.leases_revoked == 3
    assert report.frames_reclaimed == 3 * EXTENT // kib(16)
    victim = manager.tenant("victim")
    assert victim.used_bytes == 0 and victim.leases == {}
    with pytest.raises(TenantRevokedError):
        manager.engine.run(manager.acquire("victim", EXTENT))

    # the survivor is untouched; after it releases, the sanitizer's
    # shadow state proves zero leaked frames on every region
    assert manager.tenant("other").used_bytes == EXTENT
    manager.release(survivor)
    for sid in sorted(manager.pool.regions):
        alloc_sanitizer.assert_no_leaks(manager.pool.regions[sid])


def test_revoking_several_leases_serves_the_queue_in_one_pass():
    manager = small_manager()
    engine = manager.engine
    manager.register_tenant(spec("victim", quota=mib(64)))
    manager.register_tenant(spec("waiter", quota=mib(64)))
    free = manager.pool_free_bytes() // EXTENT * EXTENT
    for size in (EXTENT, EXTENT, free - 2 * EXTENT):
        engine.run(manager.acquire("victim", size))
    waiting = manager.acquire("waiter", 2 * EXTENT)
    assert manager.queue_depth == 1
    passes = []
    service_queue = manager._service_queue

    def counted():
        passes.append(manager.queue_depth)
        service_queue()

    manager._service_queue = counted
    report = manager.revoke_tenant("victim")
    assert report.leases_revoked == 3
    assert passes == [1]  # one pass, after every lease is freed
    lease = engine.run(waiting)
    assert lease.tenant_id == "waiter"
    manager.release(lease)


def test_revocation_fails_queued_requests():
    manager = small_manager()
    manager.register_tenant(spec("big", quota=mib(64)))
    manager.register_tenant(spec("doomed", quota=mib(64)))
    free = manager.pool_free_bytes() // EXTENT * EXTENT
    big = manager.engine.run(manager.acquire("big", free))
    doomed_proc = manager.acquire("doomed", EXTENT)
    manager.engine.run(manager.engine.timeout(us(1)))
    report = manager.revoke_tenant("doomed", reason="bye")
    assert report.queued_requests_failed == 1
    with pytest.raises(TenantRevokedError):
        manager.engine.run(doomed_proc)
    manager.release(big)


def test_every_refusal_of_a_revoked_tenant_is_on_its_ledger():
    manager = small_manager()
    engine = manager.engine
    manager.register_tenant(spec("big", quota=mib(64)))
    doomed = manager.register_tenant(spec("doomed", quota=mib(64)))
    big = engine.run(manager.acquire("big", manager.pool_free_bytes() // EXTENT * EXTENT))
    waiting = manager.acquire("doomed", EXTENT)
    assert manager.queue_depth == 1 and doomed.rejected == 0
    manager.revoke_tenant("doomed")  # fails the queued waiter
    assert doomed.rejected_revoked == doomed.rejected == 1
    with pytest.raises(TenantRevokedError):
        engine.run(waiting)
    with pytest.raises(TenantRevokedError):
        engine.run(manager.acquire("doomed", EXTENT))  # refused at the call
    assert doomed.rejected_revoked == doomed.rejected == 2
    # the rack-wide counters keep their two reasons
    stats = manager.stats
    assert stats.counter("rejected.quota").value == 0
    assert stats.counter("rejected.capacity").value == 0
    manager.release(big)


def test_revoked_refusals_raise_the_rejection_rate():
    manager = small_manager()
    engine = manager.engine
    manager.register_tenant(spec("live", quota=mib(1)))
    manager.register_tenant(spec("gone", quota=mib(1)))
    lease = engine.run(manager.acquire("live", EXTENT))
    assert manager.rejection_rate() == 0.0
    manager.revoke_tenant("gone")
    with pytest.raises(TenantRevokedError):
        engine.run(manager.acquire("gone", EXTENT))
    # one grant, one revoked refusal: the rate counts what the ledger does
    assert manager.rejection_rate() == 0.5
    manager.release(lease)


def test_fault_rule_reraises_only_a_live_tenants_addressing_error():
    tenant = TenantState(spec())
    assert not tolerated_fault(AddressError("stray"), tenant)
    assert tolerated_fault(ClusterError("dead server"), tenant)
    tenant.revoked = True  # revocation freed the buffer under the op
    assert tolerated_fault(AddressError("freed"), tenant)


def test_detector_crash_revokes_homed_tenants(alloc_sanitizer):
    manager = small_manager(policy="locality-first")
    engine = manager.engine
    detector = FailureDetector(
        manager.runtime.deployment, interval=us(1), miss_threshold=1
    )
    manager.attach_detector(detector)
    manager.register_tenant(spec("on2", home=2, quota=mib(1)))
    manager.register_tenant(spec("on0", home=0, quota=mib(1)))
    engine.run(manager.acquire("on2", 2 * EXTENT))
    keeper = engine.run(manager.acquire("on0", EXTENT))

    manager.runtime.deployment.server(2).crash()
    engine.run(detector.monitor(us(10)))

    assert manager.tenant("on2").revoked
    assert manager.tenant("on2").used_bytes == 0
    assert not manager.tenant("on0").revoked
    assert [r.tenant_id for r in manager.reclaim_reports] == ["on2"]
    assert manager.reclaim_reports[0].frames_reclaimed == 2 * EXTENT // kib(16)
    manager.release(keeper)
    for sid in sorted(manager.pool.regions):
        alloc_sanitizer.assert_no_leaks(manager.pool.regions[sid])


def test_expire_after_frees_at_the_deadline_and_wakes_one_waiter_in_one_pass():
    manager = small_manager()
    engine = manager.engine
    manager.register_tenant(spec("holder", quota=mib(64)))
    manager.register_tenant(spec("waiter", quota=mib(64)))
    free = manager.pool_free_bytes() // EXTENT * EXTENT
    held = engine.run(manager.acquire("holder", free))
    waiting = manager.acquire("waiter", EXTENT)
    assert manager.queue_depth == 1
    passes = []
    service_queue = manager._service_queue

    def counted():
        passes.append(engine.now)
        service_queue()

    manager._service_queue = counted
    deadline = engine.now + us(10)
    manager.expire_after(held, us(10))
    assert held.expires_at == deadline
    engine.run(deadline - 1.0)
    assert manager.leases.is_live(held.lease_id) and manager.queue_depth == 1
    engine.run(deadline)
    assert not manager.leases.is_live(held.lease_id)
    assert manager.expired == 1
    assert manager.tenant("holder").used_bytes == 0
    assert passes == [deadline]  # one queue pass granted the waiter
    lease = engine.run(waiting)
    assert lease.tenant_id == "waiter" and lease.granted_at == deadline
    manager.release(lease)


# --- the workload driver -----------------------------------------------------


def test_driver_run_is_fair_and_leak_free(alloc_sanitizer):
    manager = small_manager(policy="capacity-balanced")
    driver = ClusterDriver(
        manager, mix=WorkloadMix(alloc_bytes=2 * EXTENT, access_bytes=kib(4))
    )
    specs = [spec(f"t{i}", home=i % 3, quota=mib(1)) for i in range(3)]
    report = driver.run(specs, ops_per_tenant=12)
    assert report.total_ops == 36
    assert report.fairness >= 0.8  # equal-priority tenants share evenly
    assert report.leases_leaked == 0
    assert report.rejection_rate == 0.0
    assert len(report.merged_latency()) == sum(len(t.latency) for t in report.tenants)
    assert report.p99_ns > 0.0
    for sid in sorted(manager.pool.regions):
        alloc_sanitizer.assert_no_leaks(manager.pool.regions[sid])


def test_driver_mix_validation():
    with pytest.raises(ConfigError):
        WorkloadMix(alloc_fraction=0.6, free_fraction=0.5)


# --- the experiment ----------------------------------------------------------


def test_cluster_experiment_reduced():
    from repro.experiments import cluster

    result = cluster.run(
        policies=("first-fit", "locality-first", "capacity-balanced"),
        tenant_count=4,
        ops_per_tenant=10,
        sweep_tenant_counts=(16,),
        sweep_shared_fractions=(0.5,),
    )
    assert len(result.policies) == 3
    for outcome in result.policies:
        assert outcome.total_ops == 40
        assert outcome.fairness >= 0.8
    # oversubscription: a 16-tenant herd on a tiny rack must see rejections
    assert any(point.rejected > 0 for point in result.sweep)
    # crash reclamation is total
    assert result.reclaim.revoked_bytes_outstanding == 0
    assert result.reclaim.leases_leaked == 0
    assert result.reclaim.frames_reclaimed > 0
    rendered = result.render()
    assert "placement schedulers" in rendered
    assert "capacity-balanced" in rendered
    assert "oversubscription" in rendered


def test_cluster_experiment_rejects_unknown_policy():
    from repro.experiments import cluster

    with pytest.raises(ConfigError):
        cluster.run(policies=("warp-drive",))
