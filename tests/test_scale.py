"""Tests for the population-scale subsystem (repro.scale).

Covers the open-loop traffic engine, the slotted 10k-tenant driver, the
re-flex autoscaler seam, and the honesty of migration costs: shrinking
under live allocations, growing against queued admissions, and the
transport-ledger conservation law (bytes charged == bytes moved).
"""

from __future__ import annotations

import bisect
import hashlib
import math
import struct
import time
import typing as _t

import pytest

from repro.check.determinism import SCENARIOS
from repro.cluster.leases import Lease
from repro.cluster.manager import PoolManager
from repro.cluster.tenants import TenantSpec
from repro.core.api import LmpSession
from repro.core.failures.detector import FailureDetector
from repro.core.runtime import LmpRuntime
from repro.errors import AddressError, ConfigError, MemoryFailureError
from repro.mem.layout import PageGeometry
from repro.obs.export import prometheus_text
from repro.scale import (
    Arrival,
    AutoscalerConfig,
    BurstModel,
    DiurnalCycle,
    FlashCrowd,
    OpenLoopTraffic,
    ReflexAutoscaler,
    ScaleDriver,
    TrafficSpec,
    build_report,
)
from repro.sim.rng import RngStreams
from repro.topology.builder import build_logical
from repro.units import kib, mib, us
from repro.workloads.generators import mmpp_timeline

EXTENT = kib(64)
PAGE = kib(16)

#: the open-loop streams' golden digests (see :func:`stream_digest`)
S1_SEED0_DIGEST = "8dc85341b1d5609c9a2b4bc51db542f6e0f48bf5b559287b5c97ef3eff650ea6"
SMALL_SPEC_GOLDEN = [
    (7, 2_291, "f4e1e5230f42061d4fea3b20a53c11f1b76459de7cabda51dccb7f51f04b86c1"),
    (8, 3_353, "31619c386a4d50e2cf21f7e8af90266300e03929600587848930457a4d6d7716"),
]


def scale_manager(server_count: int = 3, shared_fraction: float = 0.5) -> PoolManager:
    """A small frozen-split manager: the boundary moves only by reflex."""
    deployment = build_logical(
        "link0", server_count=server_count, server_dram_bytes=mib(2)
    )
    runtime = LmpRuntime(
        deployment,
        geometry=PageGeometry(page_bytes=PAGE, extent_bytes=EXTENT),
        shared_fraction=shared_fraction,
        coherent_bytes=kib(64),
        snoop_filter_lines=64,
    )
    manager = PoolManager(runtime)
    for region in manager.pool.regions.values():
        region.flex_on_demand = False
    return manager


def small_spec(**overrides) -> TrafficSpec:
    defaults = dict(
        tenants=50,
        base_rate_ops_s=0.05e9,  # 0.05 arrivals/ns
        duration_ns=us(40),
        diurnal=DiurnalCycle(period_ns=us(20), amplitude=0.4),
        bursts=BurstModel(multiplier=2.0, mean_on_ns=us(4), mean_off_ns=us(8)),
        alloc_bytes=EXTENT,
        hold_mean_ns=us(2),
    )
    defaults.update(overrides)
    return TrafficSpec(**defaults)


# --- traffic: validation ------------------------------------------------------


def test_traffic_spec_validation():
    with pytest.raises(ConfigError):
        small_spec(tenants=0)
    with pytest.raises(ConfigError):
        small_spec(base_rate_ops_s=0.0)
    with pytest.raises(ConfigError):
        small_spec(write_fraction=1.5)
    with pytest.raises(ConfigError):
        FlashCrowd(start_ns=0.0, duration_ns=0.0)
    with pytest.raises(ConfigError):
        FlashCrowd(start_ns=0.0, duration_ns=1.0, first_slot=5, last_slot=2)
    with pytest.raises(ConfigError):  # crowd span exceeds the population
        small_spec(
            flash_crowds=(
                FlashCrowd(start_ns=0.0, duration_ns=1.0, first_slot=0, last_slot=99),
            )
        )


# --- traffic: determinism and shape -------------------------------------------


def test_traffic_same_seed_is_byte_identical():
    spec = small_spec()
    first = list(OpenLoopTraffic(spec, RngStreams(7)).arrivals())
    second = list(OpenLoopTraffic(spec, RngStreams(7)).arrivals())
    assert first == second
    assert first != list(OpenLoopTraffic(spec, RngStreams(8)).arrivals())


def test_traffic_rate_composition_bounded_by_peak():
    spec = small_spec(
        flash_crowds=(FlashCrowd(start_ns=us(10), duration_ns=us(10), multiplier=4.0),)
    )
    traffic = OpenLoopTraffic(spec, RngStreams(0))
    for i in range(200):
        t = spec.duration_ns * i / 200.0
        assert traffic.rate_per_ns(t) <= traffic.peak_rate_per_ns


def s1_flash_spec() -> TrafficSpec:
    """S1's open-loop demand (``repro run scale``, lmpbench ``Flash``)."""
    tenants, duration = 10_000, us(4_000)
    return TrafficSpec(
        tenants=tenants,
        base_rate_ops_s=1.25e6,
        duration_ns=duration,
        zipf_theta=0.99,
        diurnal=DiurnalCycle(period_ns=duration / 2.0, amplitude=0.4),
        bursts=BurstModel(multiplier=3.0, mean_on_ns=us(40), mean_off_ns=us(160)),
        flash_crowds=(
            FlashCrowd(
                start_ns=0.4 * duration,
                duration_ns=0.2 * duration,
                multiplier=8.0,
                first_slot=6_000,
                last_slot=7_000,
                focus=0.8,
            ),
        ),
        alloc_bytes=EXTENT,
        hold_mean_ns=us(80),
        access_fraction=0.25,
        access_bytes=kib(4),
        write_fraction=0.3,
    )


def stream_digest(arrivals: list[Arrival]) -> str:
    """sha256 over every arrival's exact (when, slot, hold, access, write)."""
    digest = hashlib.sha256()
    for a in arrivals:
        digest.update(struct.pack("<dqd??", a.when_ns, a.slot, a.hold_ns, a.access, a.write))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def s1_trace() -> tuple[list[Arrival], int]:
    """S1's seed-0 arrivals, and how many times the stream evaluated
    the composed rate to produce them."""
    traffic = OpenLoopTraffic(s1_flash_spec(), RngStreams(0))
    exact = traffic.rate_per_ns
    calls = 0

    def counted(t_ns: float) -> float:
        nonlocal calls
        calls += 1
        return exact(t_ns)

    traffic.rate_per_ns = counted  # type: ignore[method-assign]
    return list(traffic.arrivals()), calls


def test_s1_seed0_arrival_stream_is_pinned(s1_trace):
    arrivals, _calls = s1_trace
    assert len(arrivals) == 17_460
    assert stream_digest(arrivals) == S1_SEED0_DIGEST


@pytest.mark.parametrize(
    ("seed", "count", "digest"),
    SMALL_SPEC_GOLDEN,
    ids=[f"seed{seed}" for seed, _count, _digest in SMALL_SPEC_GOLDEN],
)
def test_small_spec_arrival_streams_are_pinned(seed, count, digest):
    arrivals = list(OpenLoopTraffic(small_spec(), RngStreams(seed)).arrivals())
    assert len(arrivals) == count
    assert stream_digest(arrivals) == digest


def test_squeeze_evaluates_the_rate_at_most_twice_per_arrival(s1_trace):
    """Plain thinning evaluates the rate for all 168,241 candidates,
    9.6 per arrival, against a peak 33.6x the base rate."""
    arrivals, calls = s1_trace
    assert calls <= 2 * len(arrivals)


def _mmpp_breakpoint() -> float:
    """A burst-state change of ``small_spec``'s seed-0 MMPP timeline."""
    spec = small_spec()
    assert spec.bursts is not None
    timeline = mmpp_timeline(
        spec.duration_ns,
        spec.bursts.multiplier,
        spec.bursts.mean_on_ns,
        spec.bursts.mean_off_ns,
        RngStreams(0).stream("scale.traffic.bursts"),
    )
    return timeline[2][0]


def _envelope_specs() -> list[_t.Any]:
    crowd = FlashCrowd(start_ns=us(10), duration_ns=us(10), multiplier=4.0)
    cases = []
    for diurnal in (False, True):
        for bursts in (False, True):
            for crowds in (False, True):
                name = "-".join(
                    part
                    for part, on in (("diurnal", diurnal), ("bursts", bursts), ("crowd", crowds))
                    if on
                )
                spec = small_spec(
                    diurnal=small_spec().diurnal if diurnal else None,
                    bursts=small_spec().bursts if bursts else None,
                    flash_crowds=(crowd,) if crowds else (),
                )
                cases.append(pytest.param(spec, id=name or "flat"))
    overlapping = (
        FlashCrowd(start_ns=us(8), duration_ns=us(12), multiplier=3.0),
        FlashCrowd(start_ns=us(14), duration_ns=us(16), multiplier=5.0),
    )
    cases.append(pytest.param(small_spec(flash_crowds=overlapping), id="overlapping-crowds"))
    on_mmpp = FlashCrowd(start_ns=_mmpp_breakpoint(), duration_ns=us(7), multiplier=6.0)
    cases.append(pytest.param(small_spec(flash_crowds=(on_mmpp,)), id="crowd-on-mmpp-breakpoint"))
    to_end = FlashCrowd(start_ns=us(30), duration_ns=us(10), multiplier=8.0)
    assert to_end.end_ns == small_spec().duration_ns
    cases.append(pytest.param(small_spec(flash_crowds=(to_end,)), id="crowd-ends-at-duration"))
    return cases


@pytest.mark.parametrize("spec", _envelope_specs())
def test_rate_envelope_bounds_the_rate_exactly(spec):
    traffic = OpenLoopTraffic(spec, RngStreams(0))
    steps = traffic.rate_envelope()
    starts = [start for start, _ in steps]
    assert starts[0] == 0.0 and starts == sorted(set(starts))
    assert max(bound for _, bound in steps) <= traffic.peak_rate_per_ns

    def upper(t_ns: float) -> float:
        return steps[bisect.bisect_right(starts, t_ns) - 1][1]

    probes = [spec.duration_ns * i / 4_000.0 for i in range(4_000)]
    probes += starts + [math.nextafter(start, 0.0) for start in starts[1:]]
    for crowd in spec.flash_crowds:
        for edge in (crowd.start_ns, crowd.end_ns):
            assert edge in starts or edge >= spec.duration_ns
    for t in probes:
        assert traffic.rate_per_ns(t) <= upper(t), f"rate above envelope at {t!r}"


def test_flash_crowd_raises_rate_and_focuses_slots():
    crowd = FlashCrowd(
        start_ns=us(10),
        duration_ns=us(20),
        multiplier=6.0,
        first_slot=30,
        last_slot=40,
        focus=0.9,
    )
    spec = small_spec(duration_ns=us(40), flash_crowds=(crowd,))
    arrivals = list(OpenLoopTraffic(spec, RngStreams(3)).arrivals())
    inside = [a for a in arrivals if crowd.active(a.when_ns)]
    outside = [a for a in arrivals if not a.when_ns >= crowd.start_ns]
    # surge: the 20us window must out-arrive the 10us quiet lead-in by
    # far more than its 2x length alone explains
    assert len(inside) > 3 * len(outside)
    focused = sum(1 for a in inside if 30 <= a.slot < 40)
    assert focused / len(inside) > 0.7
    # outside the window the focus slice is as cold as Zipf leaves it
    cold = sum(1 for a in outside if 30 <= a.slot < 40)
    assert cold / max(1, len(outside)) < 0.4


def test_zipf_popularity_skews_head():
    arrivals = list(OpenLoopTraffic(small_spec(), RngStreams(1)).arrivals())
    head = sum(1 for a in arrivals if a.slot < 5)
    assert head / len(arrivals) > 0.3  # 10% of slots, far more of the traffic


# --- driver: construction scales ---------------------------------------------


def test_ten_thousand_tenant_construction_under_a_second():
    manager = scale_manager(server_count=4)
    spec = small_spec(tenants=10_000)
    traffic = OpenLoopTraffic(spec, manager.engine.rng)
    started = time.perf_counter()
    driver = ScaleDriver(manager, traffic, quota_bytes=mib(1))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"10k-tenant construction took {elapsed:.2f}s"
    assert len(manager.tenants) == 10_000
    # tenants spread across every server, lazily — no RNG spawned yet
    assert len({t.spec.home_server for t in manager.tenants.values()}) == 4
    assert driver._slot_rng == {}


# --- reflex: shrink under live allocations ------------------------------------


def test_reflex_shrink_while_allocated_pays_and_preserves():
    manager = scale_manager()
    engine = manager.engine
    pool = manager.pool
    manager.register_tenant(
        TenantSpec(tenant_id="t0", home_server=0, quota_bytes=mib(1))
    )
    leases = [engine.run(manager.acquire("t0", EXTENT)) for _ in range(6)]
    patterns = {}
    for i, lease in enumerate(leases):
        patterns[lease.lease_id] = bytes([0x41 + i]) * 16
        engine.run(pool.write(0, lease.buffer, 128, patterns[lease.lease_id]))

    before_shared = pool.regions[0].shared_bytes
    report = engine.run(manager.reflex(0, 4 * EXTENT))
    assert pool.regions[0].shared_bytes < before_shared
    # the shrink squeezed live extents out: someone paid migration bytes
    assert report.bytes_evacuated > 0
    assert report.bytes_evacuated % EXTENT == 0
    # every lease survived with its data intact and addressable
    for lease in leases:
        assert manager.leases.is_live(lease.lease_id)
        data = engine.run(pool.read(0, lease.buffer, 128, 16))
        assert data == patterns[lease.lease_id]
    manager.release(leases[0])  # still releasable


def test_reflex_shrink_conserves_transport_bytes():
    """The conservation law: bytes the reflex charges == bytes the
    transport actually copied (quiesced, so no dirty-page recopies)."""
    manager = scale_manager()
    engine = manager.engine
    pool = manager.pool
    transport = manager.runtime.deployment.transport
    manager.register_tenant(
        TenantSpec(tenant_id="t0", home_server=0, quota_bytes=mib(1))
    )
    leases = [engine.run(manager.acquire("t0", EXTENT)) for _ in range(6)]
    for lease in leases:
        engine.run(pool.write(0, lease.buffer, 0, b"paid-for"))

    copied_before = transport.bytes_copied
    time_before = engine.now
    report = engine.run(manager.reflex(0, 2 * EXTENT))
    moved = report.bytes_evacuated + report.bytes_relocated
    assert moved > 0
    assert transport.bytes_copied - copied_before == moved
    assert engine.now > time_before  # the copies took simulated time
    for lease in leases:
        assert engine.run(pool.read(0, lease.buffer, 0, 8)) == b"paid-for"


# --- reflex: grow races admission --------------------------------------------


def test_reflex_grow_unblocks_queued_admission():
    manager = scale_manager(server_count=2)
    engine = manager.engine
    manager.register_tenant(
        TenantSpec(tenant_id="t0", home_server=0, quota_bytes=mib(4))
    )
    # fill the whole frozen pool so the next request must queue
    free = sum(manager.pool.potential_free_by_server().values())
    for _ in range(free // EXTENT):
        engine.run(manager.acquire("t0", EXTENT))
    assert sum(manager.pool.potential_free_by_server().values()) < EXTENT

    waiter = manager.acquire("t0", EXTENT)
    engine.run(engine.timeout(10.0))
    assert not waiter.triggered
    assert manager.queue_depth == 1

    grown = manager.pool.regions[0].shared_bytes + 2 * EXTENT
    report = engine.run(manager.reflex(0, grown))
    assert report.shared_after == grown
    lease = engine.run(waiter)  # the reflex's queue pass granted it
    assert manager.leases.is_live(lease.lease_id)
    assert manager.queue_depth == 0


# --- end to end: reduced elastic vs static -----------------------------------


def test_elastic_beats_static_on_flash_rejects(monkeypatch):
    from repro.experiments import scale

    built: list[PoolManager] = []
    build = scale._build_manager

    def keep(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(scale, "_build_manager", keep)
    result = scale.run(tenants=2000, duration_us=1500.0, base_rate_ops_us=1.0)
    assert result.static.arrivals == result.elastic.arrivals  # same trace
    assert result.static.flash_reject_rate > 0  # the crowd actually hurt
    assert result.elastic_wins_flash
    # the win is honestly billed: every migrated byte went over the wire
    assert 0 < result.elastic.bytes_migrated <= result.elastic.transport_bytes_copied
    assert "elastic wins" in result.render()
    # the autoscaler's windowed timeline reached the exporters
    assert result.registry.series
    assert "repro_scale_shared_bytes" in prometheus_text(result.registry)
    # once the elastic run settles no mover still holds an extent, though
    # lease expiries raced the shrinks' moves
    elastic_pool = built[-1].pool
    assert not elastic_pool._pinned_extents and not elastic_pool._doomed_extents


def test_scale_report_quantiles_include_p999():
    manager = scale_manager()
    spec = small_spec(tenants=20)
    driver = ScaleDriver(manager, OpenLoopTraffic(spec, manager.engine.rng), mib(1))
    driver.run()
    report = build_report("smoke", driver)
    assert {"p50", "p99", "p99.9", "mean", "max"} <= set(report.latency)
    assert report.arrivals == driver.arrivals_seen
    assert report.granted + report.rejected == report.arrivals


def test_scale_report_reads_the_managers_ledger():
    """Granted, rejected and grant latency come from the manager: its
    tenant ledger accounts for every arrival, and the latency tails are
    its ``wait_ns`` histogram's."""
    manager = scale_manager()
    driver = ScaleDriver(manager, OpenLoopTraffic(small_spec(), manager.engine.rng), mib(1))
    driver.run()
    report = build_report("ledger", driver)
    assert report.rejected > 0 and manager.stats.counter("queued").value > 0
    assert report.granted + report.rejected == report.arrivals == driver.arrivals_seen
    wait = manager.stats.histogram("wait_ns")
    assert len(wait) == report.granted
    assert report.latency["p99"] == wait.quantile(0.99) > 0.0
    assert report.latency["p99.9"] == wait.quantile(0.999)


def test_live_tenants_addressing_error_is_not_swallowed(monkeypatch):
    """A data op by a tenant that was never revoked has no revocation to
    blame: its AddressError is a bug, and it ends the run."""

    def stray_read(session, vaddr, size, write):
        raise AddressError(f"stray read at {vaddr:#x}")

    monkeypatch.setattr(LmpSession, "timed_v", stray_read)
    manager = scale_manager()
    arrivals = [
        Arrival(when_ns=0.0, slot=0, size=EXTENT, hold_ns=us(1), access=True, write=False)
    ]
    driver = ScaleDriver(manager, _ScriptedTraffic(small_spec(tenants=4), arrivals), mib(1))
    with pytest.raises(AddressError, match="stray read"):
        driver.run()
    assert not manager.tenant("t0").revoked


def test_autoscaler_config_validation():
    with pytest.raises(ConfigError):
        AutoscalerConfig(period_ns=0.0)
    with pytest.raises(ConfigError):
        AutoscalerConfig(low_watermark=0.9, high_watermark=0.8)
    with pytest.raises(ConfigError):
        AutoscalerConfig(grow_step=0.0)
    with pytest.raises(ConfigError):
        AutoscalerConfig(max_shared_fraction=1.5)


def test_autoscaler_grows_under_pressure_and_shrinks_after():
    manager = scale_manager(server_count=2)
    engine = manager.engine
    spec = small_spec(
        tenants=100,
        base_rate_ops_s=0.08e9,
        duration_ns=us(60),
        hold_mean_ns=us(4),
    )
    driver = ScaleDriver(manager, OpenLoopTraffic(spec, engine.rng), mib(1))
    scaler = ReflexAutoscaler(
        manager,
        AutoscalerConfig(period_ns=us(2), min_shared_bytes=mib(1)),
    )
    procs = driver.processes()
    procs.append(scaler.run(spec.duration_ns + driver.drain_grace_ns))
    engine.run(engine.all_of(procs))
    kinds = {action.kind for action in scaler.actions}
    assert "grow" in kinds
    assert "pressure" in {action.trigger for action in scaler.actions}
    for action in scaler.actions:
        _assert_trigger_matches(action, scaler.config)
    report = build_report("scaled", driver, scaler)
    assert report.reflex_actions == len(scaler.actions)
    assert report.bytes_migrated == scaler.bytes_migrated


def _assert_trigger_matches(action, config: AutoscalerConfig) -> None:
    """The recorded inputs of one flex agree with its trigger and kind."""
    assert 0.0 <= action.utilization <= 1.0
    if action.trigger == "pressure":
        assert action.pressured and action.kind == "grow"
    elif action.trigger == "high_watermark":
        assert not action.pressured and action.kind == "grow"
        assert action.utilization >= config.high_watermark
    else:
        assert action.trigger == "low_watermark"
        assert not action.pressured and action.kind == "shrink"
        assert action.utilization < config.low_watermark


def test_autoscaler_actions_record_the_signal_that_fired():
    """On a short elastic S1 run every flex carries the utilization and
    pressure flag it read, and a trigger they and its kind agree with."""
    from repro.experiments.scale import run

    result = run(tenants=1000, duration_us=600.0, base_rate_ops_us=1.0)
    assert {action.trigger for action in result.actions} == {
        "high_watermark",
        "low_watermark",
    }
    for action in result.actions:
        _assert_trigger_matches(action, AutoscalerConfig())


# --- lease expiry: one armed timer, no reaper process -------------------------


class _ScriptedTraffic:
    """A hand-written arrival list in :class:`OpenLoopTraffic`'s shape."""

    def __init__(self, spec: TrafficSpec, arrivals: list[Arrival]) -> None:
        self.spec = spec
        self._arrivals = arrivals

    def arrivals(self):
        return iter(self._arrivals)


def _record_releases(manager: PoolManager) -> list[tuple[float, Lease]]:
    """Log ``(engine.now, lease)`` for every lease the manager frees."""
    released: list[tuple[float, Lease]] = []
    release = manager.release

    def logged(lease):
        released.append((manager.engine.now, lease))
        release(lease)

    manager.release = logged
    return released


def test_every_lease_released_at_its_due_instant():
    """A short hold granted after a longer one re-arms the timer earlier;
    the superseded timer still fires at the long hold's due instant and
    must be ignored there, leaving the re-armed one to free the lease."""
    manager = scale_manager()
    holds = {0: us(10), 1: us(2), 2: us(5), 3: us(1)}
    starts = {0: 0.0, 1: us(1), 2: us(2), 3: us(2)}
    arrivals = [
        Arrival(when_ns=starts[slot], slot=slot, size=EXTENT, hold_ns=holds[slot],
                access=False, write=False)
        for slot in sorted(holds)
    ]
    traffic = _ScriptedTraffic(small_spec(tenants=4), arrivals)
    driver = ScaleDriver(manager, traffic, mib(1))
    released = _record_releases(manager)
    batches = []
    release_many = manager.release_many

    def logged_many(leases):
        batches.append(manager.engine.now)
        return release_many(leases)

    manager.release_many = logged_many
    driver.run()
    # slot 3 falls due at 3 us, the instant slot 1's timer was armed
    # for: one batch frees both
    assert batches == [us(3), us(7), us(10)]
    assert len(released) == manager.expired == 4
    for when, lease in released:
        slot = int(lease.tenant_id[1:])
        assert lease.granted_at == starts[slot]
        assert when == lease.expires_at == starts[slot] + holds[slot]
    assert manager._timer is None  # nothing left armed


def test_lease_revoked_while_pending_expiry_is_skipped_and_timer_rearms():
    manager = scale_manager()
    engine = manager.engine
    detector = FailureDetector(manager.runtime.deployment, interval=us(1), miss_threshold=1)
    manager.attach_detector(detector)
    manager.register_tenant(TenantSpec(tenant_id="doomed", home_server=0, quota_bytes=mib(1)))
    manager.register_tenant(TenantSpec(tenant_id="live", home_server=1, quota_bytes=mib(1)))
    doomed = engine.run(manager.acquire("doomed", EXTENT))
    live = engine.run(manager.acquire("live", EXTENT))
    manager.expire_after(doomed, us(5))
    manager.expire_after(live, us(8))
    released = _record_releases(manager)
    manager.runtime.deployment.server(0).crash()
    engine.run(detector.monitor(us(2)))  # the crash revokes the pending lease
    assert manager.tenant("doomed").revoked
    assert not manager.leases.is_live(doomed.lease_id)
    engine.run(doomed.expires_at)
    # the dead lease is skipped, not freed twice, and the timer re-arms
    # for the next live deadline
    assert released == [] and manager.expired == 0
    assert manager._timer_due == live.expires_at
    engine.run(live.expires_at)
    assert released == [(live.expires_at, live)] and manager.expired == 1
    assert manager._timer is None and len(manager.leases) == 0


def test_run_releases_every_grant_once_and_settles():
    manager = scale_manager()
    engine = manager.engine
    driver = ScaleDriver(manager, OpenLoopTraffic(small_spec(), engine.rng), mib(1))
    released = _record_releases(manager)
    procs = driver.processes()
    engine.run(engine.all_of(procs))
    assert manager.stats.counter("queued").value > 0  # the queue was exercised
    granted = sum(tenant.granted for tenant in manager.tenants.values())
    ids = [lease.lease_id for _, lease in released]
    assert len(ids) == len(set(ids)) == granted == manager.expired > 0
    assert len(manager.leases) == 0  # no lease left live
    assert all(not tenant.leases for tenant in manager.tenants.values())
    assert manager.queue_depth == 0  # no admission waiter left queued
    assert procs[1].value == manager.expired


def test_open_loop_events_per_arrival_bounded():
    """Expiry and admission cost no engine events of their own: a
    reduced trace dispatched 8.14 events per arrival with a reaper
    process and a process per acquire, 5.56 without them."""
    manager = scale_manager()
    engine = manager.engine
    driver = ScaleDriver(manager, OpenLoopTraffic(small_spec(), engine.rng), mib(1))
    driver.run()
    assert driver.arrivals_seen > 2_000
    assert engine.events_processed / driver.arrivals_seen < 6.5


# --- the open-loop race the movers must survive -------------------------------


@pytest.mark.parametrize("dst", [2, 0], ids=["remote", "local"])
def test_free_during_migration_aborts_without_leaking(
    logical_pool, logical_deployment, dst
):
    """An open-loop lease expiring mid-move dooms the extent: the mover
    must abort, tear the extent down, and leak no frames on either end
    (the suite-wide alloc sanitizer verifies no double free).  A move to
    the owner takes the same abort path as a move to another server."""
    engine = logical_deployment.engine
    free_before = {
        sid: region.shared_free_bytes for sid, region in logical_pool.regions.items()
    }
    buffer = logical_pool.allocate(mib(256), requester_id=0)
    extent = buffer.geometry.extent_index(buffer.base)
    migration = logical_pool.migrate_extent(extent, dst)

    def assassin():
        yield engine.timeout(1000.0)  # well inside the bulk-copy phase
        logical_pool.free(buffer)

    racer = engine.process(assassin())
    engine.run(engine.all_of([migration, racer]))
    assert migration.value == 0  # nothing committed
    tables = logical_pool.translator.page_tables.values()
    assert all(extent not in table.extents() for table in tables)
    assert {
        sid: region.shared_free_bytes for sid, region in logical_pool.regions.items()
    } == free_before
    assert not logical_pool._pinned_extents and not logical_pool._doomed_extents


def test_crash_during_a_local_move_loses_the_extent(logical_pool, logical_deployment):
    """A local move's source and destination are one server: when it
    crashes mid-copy the extent's bytes are gone, so the move raises
    :class:`MemoryFailureError` rather than a retryable migration abort,
    and hands back the frames it took."""
    engine = logical_deployment.engine
    buffer = logical_pool.allocate(mib(256), requester_id=0)
    extent = buffer.geometry.extent_index(buffer.base)
    free_before = logical_pool.regions[0].shared_free_bytes
    migration = logical_pool.migrate_extent(extent, 0)

    def crasher():
        yield engine.timeout(1000.0)
        logical_deployment.servers[0].crash()

    engine.process(crasher())
    with pytest.raises(MemoryFailureError, match="lost"):
        engine.run(migration)
    assert logical_pool.regions[0].shared_free_bytes == free_before
    assert not logical_pool._pinned_extents and not logical_pool._doomed_extents


# --- determinism wiring -------------------------------------------------------


def test_scale_scenario_registered_for_determinism_and_races():
    assert "scale" in SCENARIOS
