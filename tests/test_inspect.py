"""Tests for the pool introspection module."""

from __future__ import annotations

import pytest

from repro.core.inspect import describe_pool, render_pool
from repro.units import gib


def test_snapshot_reflects_allocations(logical_pool):
    empty = describe_pool(logical_pool)
    assert empty.buffer_count == 0
    assert empty.pool_utilization == 0.0

    buffer = logical_pool.allocate(gib(8), requester_id=1, name="x")
    snapshot = describe_pool(logical_pool)
    assert snapshot.buffer_count == 1
    assert snapshot.buffer_bytes == gib(8)
    assert snapshot.pool_utilization == pytest.approx(
        gib(8) / snapshot.pooled_bytes
    )
    by_id = {s.server_id: s for s in snapshot.servers}
    assert by_id[1].extents_owned == 32  # 8 GiB / 256 MiB
    assert by_id[0].extents_owned == 0
    logical_pool.free(buffer)


def test_snapshot_tracks_migration_generation(logical_pool, logical_deployment):
    buffer = logical_pool.allocate(gib(1), requester_id=0)
    before = describe_pool(logical_pool)
    extent = buffer.geometry.extent_index(buffer.base)
    logical_deployment.run(logical_pool.migrate_extent(extent, 2))
    after = describe_pool(logical_pool)
    assert after.map_generation > before.map_generation


def test_imbalance_metric(logical_pool):
    assert describe_pool(logical_pool).imbalance() == 1.0
    logical_pool.allocate(gib(16), requester_id=0)  # all on one server
    assert describe_pool(logical_pool).imbalance() == pytest.approx(4.0)


def test_snapshot_marks_dead_servers(logical_pool, logical_deployment):
    logical_deployment.servers[2].crash()
    snapshot = describe_pool(logical_pool)
    assert not snapshot.servers[2].alive
    assert "(DOWN)" in render_pool(logical_pool)


def test_render_contains_the_dashboard(logical_pool):
    logical_pool.allocate(gib(4), requester_id=3, name="tenant")
    text = render_pool(logical_pool, title="dash")
    assert text.startswith("dash")
    assert "server3" in text
    assert "buffers: 1" in text
    assert "imbalance" in text
