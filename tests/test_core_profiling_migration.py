"""Tests for access profiling and the locality balancer policy."""

from __future__ import annotations

import pytest

from repro.core.migration import LocalityBalancer
from repro.core.pool import LogicalMemoryPool
from repro.core.profiling import AccessProfiler, dominant
from repro.errors import ConfigError
from repro.units import gib, mib


# --- profiler ----------------------------------------------------------------


def test_record_splits_local_remote():
    profiler = AccessProfiler()
    profiler.record(0, extent_index=5, nbytes=100, remote=False)
    profiler.record(1, extent_index=5, nbytes=300, remote=True)
    assert profiler.locality_ratio() == pytest.approx(0.25)
    assert profiler.locality_ratio(requester_id=0) == 1.0
    by_extent = profiler.remote_bytes_by_extent()
    assert by_extent == {5: {1: 300.0}}


def test_sampling_unbiases_weights():
    profiler = AccessProfiler(sample_period=4)
    for _ in range(8):
        profiler.record(0, extent_index=1, nbytes=100, remote=True)
    # 2 samples taken, each weighted x4 -> 800 total
    assert profiler.samples_taken == 2
    assert profiler.remote_bytes_by_extent()[1][0] == pytest.approx(800.0)


def test_dominant_consumer():
    profiler = AccessProfiler()
    profiler.record(1, extent_index=2, nbytes=900, remote=True)
    profiler.record(3, extent_index=2, nbytes=100, remote=True)
    winner, share = dominant(profiler.remote_bytes_by_extent()[2])
    assert winner == 1
    assert share == pytest.approx(0.9)
    assert dominant({}) == (None, 0.0)


def test_epoch_aging_decays_and_expires():
    profiler = AccessProfiler(decay=0.5)
    profiler.record(0, extent_index=1, nbytes=8, remote=True)
    profiler.advance_epoch()
    assert profiler.remote_bytes_by_extent()[1][0] == pytest.approx(4.0)
    for _ in range(4):
        profiler.advance_epoch()  # decays below 1 byte -> dropped
    assert profiler.remote_bytes_by_extent() == {}


def test_profiler_config_validation():
    with pytest.raises(ConfigError):
        AccessProfiler(sample_period=0)
    with pytest.raises(ConfigError):
        AccessProfiler(decay=1.5)


# --- balancer policy -----------------------------------------------------------


def make_balancer(logical_deployment, **kwargs):
    pool = LogicalMemoryPool(logical_deployment)
    profiler = AccessProfiler(decay=1.0)
    return pool, profiler, LocalityBalancer(pool, profiler, **kwargs)


def test_plan_targets_dominant_consumer(logical_deployment):
    pool, profiler, balancer = make_balancer(logical_deployment)
    buffer = pool.allocate(mib(256), requester_id=0)
    extent = buffer.geometry.extent_index(buffer.base)
    profiler.record(2, extent, 3 * mib(256), remote=True)
    decisions = balancer.plan()
    assert len(decisions) == 1
    assert decisions[0].extent_index == extent
    assert decisions[0].dst_server_id == 2
    assert decisions[0].src_server_id == 0


def test_plan_skips_low_gain(logical_deployment):
    pool, profiler, balancer = make_balancer(logical_deployment, gain_threshold=2.0)
    buffer = pool.allocate(mib(256), requester_id=0)
    extent = buffer.geometry.extent_index(buffer.base)
    profiler.record(2, extent, mib(256), remote=True)  # read once: not worth it
    assert balancer.plan() == []


def test_plan_skips_contended_extents(logical_deployment):
    """No dominant consumer -> leave it where it is."""
    pool, profiler, balancer = make_balancer(logical_deployment, min_dominance=0.6)
    buffer = pool.allocate(mib(256), requester_id=0)
    extent = buffer.geometry.extent_index(buffer.base)
    profiler.record(1, extent, gib(1), remote=True)
    profiler.record(2, extent, gib(1), remote=True)
    assert balancer.plan() == []


def test_plan_respects_budget(logical_deployment):
    pool, profiler, balancer = make_balancer(
        logical_deployment, epoch_budget_bytes=mib(512)
    )
    buffer = pool.allocate(gib(1), requester_id=0)  # 4 extents
    for extent in buffer.geometry.extents_covering(buffer.base, buffer.size):
        profiler.record(1, extent, gib(1), remote=True)
    decisions = balancer.plan()
    assert len(decisions) == 2  # 512 MiB budget / 256 MiB extents


def test_plan_respects_destination_space(logical_deployment):
    pool, profiler, balancer = make_balancer(logical_deployment)
    # fill server 1 completely
    filler = pool.allocate(gib(24), requester_id=1)
    buffer = pool.allocate(mib(256), requester_id=0)
    extent = buffer.geometry.extent_index(buffer.base)
    profiler.record(1, extent, gib(2), remote=True)
    decisions = balancer.plan()
    assert decisions == []
    pool.free(filler)
    assert len(balancer.plan()) == 1


def test_run_epoch_executes_and_reports(logical_deployment):
    pool, profiler, balancer = make_balancer(logical_deployment)
    buffer = pool.allocate(mib(512), requester_id=0)
    for _ in range(4):
        pool.access_segments(3, buffer)
    report = logical_deployment.run(balancer.run_epoch())
    assert report.bytes_moved == mib(512)
    assert pool.locality_fraction(3, buffer) == 1.0
    assert balancer.total_bytes_moved == mib(512)
    assert len(report.migrations) == 2


def test_balancer_config_validation(logical_deployment):
    pool = LogicalMemoryPool(logical_deployment)
    profiler = AccessProfiler()
    with pytest.raises(ConfigError):
        LocalityBalancer(pool, profiler, gain_threshold=0)
    with pytest.raises(ConfigError):
        LocalityBalancer(pool, profiler, epoch_budget_bytes=0)
    with pytest.raises(ConfigError):
        LocalityBalancer(pool, profiler, min_dominance=2.0)
