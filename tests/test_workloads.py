"""Tests for the workloads: vector sum, generators, KV store, graph."""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest

from repro.core.compute import ComputeRuntime
from repro.core.pool import LogicalMemoryPool
from repro.errors import CapacityError, ConfigError
from repro.mem.interleave import RoundRobinPlacement
from repro.topology.builder import build_logical
from repro.units import gib, mib
from repro.workloads.generators import thinned_poisson, uniform_trace
from repro.workloads.graph import PooledGraph, random_graph
from repro.workloads.kvstore import PooledKVStore, run_ycsb
from repro.workloads.vector_sum import run_vector_sum


# --- vector sum ---------------------------------------------------------------


def test_logical_fit_runs_at_local_speed(logical_pool):
    result = run_vector_sum(logical_pool, gib(8), repetitions=2)
    assert result.feasible
    assert result.locality == 1.0
    assert result.bandwidth_gbps == pytest.approx(97.0, rel=0.02)
    assert len(result.per_rep_gbps) == 2


def test_physical_nocache_runs_at_link_speed(physical_nocache_pool):
    result = run_vector_sum(
        physical_nocache_pool, gib(8), repetitions=2
    )
    assert result.bandwidth_gbps == pytest.approx(34.5, rel=0.02)
    assert result.locality == 0.0


def test_infeasible_returns_datapoint(physical_nocache_pool):
    result = run_vector_sum(physical_nocache_pool, gib(96), repetitions=2)
    assert not result.feasible
    assert result.bandwidth_gbps == 0.0
    assert "does not fit" in result.infeasible_reason


def test_speedup_over_infeasible_is_infinite(logical_pool, physical_nocache_pool):
    logical = run_vector_sum(logical_pool, gib(8), repetitions=1)
    blocked = run_vector_sum(physical_nocache_pool, gib(96), repetitions=1)
    assert logical.speedup_over(blocked) == float("inf")


def test_vector_sum_frees_buffer(logical_pool):
    before = logical_pool.pooled_free_bytes
    run_vector_sum(logical_pool, gib(8), repetitions=1)
    assert logical_pool.pooled_free_bytes == before


# --- compute shipping -----------------------------------------------------------


def test_shipped_scan_aggregates_all_sockets():
    deployment = build_logical("link0")
    pool = LogicalMemoryPool(deployment, placement=RoundRobinPlacement())
    buffer = pool.allocate(gib(8), requester_id=0)
    compute = ComputeRuntime(pool)
    result = deployment.run(compute.shipped_scan(buffer))
    assert result.aggregate_gbps == pytest.approx(4 * 97.0, rel=0.05)
    assert result.result_messages == 3
    assert sum(result.bytes_by_server.values()) == gib(8)


def test_shipped_scan_rejected_on_physical(physical_cache_pool):
    with pytest.raises(ConfigError):
        ComputeRuntime(physical_cache_pool)  # type: ignore[arg-type]


def test_map_reduce_equals_local_compute(logical_pool, logical_deployment):
    buffer = logical_pool.allocate(mib(4), requester_id=0)
    payload = bytes(range(256)) * 16
    logical_deployment.run(logical_pool.write(0, buffer, 0, payload))
    compute = ComputeRuntime(logical_pool)
    total = logical_deployment.run(
        compute.map_reduce(buffer, mapper=sum, reducer=sum)
    )
    assert total == sum(payload)  # rest of the buffer reads as zeros


# --- generators --------------------------------------------------------------


def test_uniform_within_bounds():
    rng = random.Random(1)
    for offset, size in uniform_trace(1000, 100, 50, rng):
        assert 0 <= offset <= 900
        assert size == 100


def test_generators_validate_inputs():
    rng = random.Random(0)
    with pytest.raises(ConfigError):
        list(uniform_trace(10, 20, 1, rng))
    with pytest.raises(ConfigError):
        list(uniform_trace(100, 10, -1, rng))


def test_generators_are_deterministic():
    a = list(uniform_trace(1000, 10, 20, random.Random(9)))
    b = list(uniform_trace(1000, 10, 20, random.Random(9)))
    assert a == b


def plain_thinning(rate_fn, peak, duration_ns, rng):
    """Lewis thinning without a squeeze: the rate for every candidate."""
    t = 0.0
    while True:
        t += rng.expovariate(peak)
        if t >= duration_ns:
            return
        if rng.random() * peak <= rate_fn(t):
            yield t


def wavy_rate(t_ns: float) -> float:
    """A swing around 0.01/ns, 4x higher in [300, 600); at most 0.015
    and 0.06/ns, so the envelopes below bound it with room to spare."""
    return (1.0 + 0.5 * math.sin(t_ns / 37.0)) * (0.04 if 300.0 <= t_ns < 600.0 else 0.01)


@pytest.mark.parametrize(
    "envelope",
    [
        [(0.0, 0.016), (300.0, 0.064), (600.0, 0.016)],  # one step per level
        [(0.0, 0.064)],  # one flat step over the whole run
        [(0.0, 0.016), (150.0, 0.016), (300.0, 0.064), (600.0, 0.02), (800.0, 0.016)],
    ],
)
def test_squeezed_thinning_matches_the_plain_loop(envelope):
    for seed in range(5):
        squeezed = list(thinned_poisson(wavy_rate, 0.1, 1000.0, random.Random(seed), envelope))
        assert squeezed == list(plain_thinning(wavy_rate, 0.1, 1000.0, random.Random(seed)))
        assert squeezed


def test_thinning_squeeze_skips_the_rate_below_the_envelope():
    calls = []

    def rate(t_ns: float) -> float:
        calls.append(t_ns)
        return wavy_rate(t_ns)

    envelope = [(0.0, 0.016), (300.0, 0.064), (600.0, 0.016)]
    arrivals = list(thinned_poisson(rate, 0.1, 1000.0, random.Random(3), envelope))
    # about 100 candidates at the peak, of which about 30 land under the
    # envelope (its mean is 0.0304 of the 0.1 peak)
    assert len(arrivals) <= len(calls) < 40


def test_thinning_loses_arrivals_where_the_envelope_is_violated():
    """The contract: a bound below the rate silently drops arrivals."""
    low = [(0.0, 0.015), (300.0, 0.015), (600.0, 0.015)]
    squeezed = list(thinned_poisson(wavy_rate, 0.1, 1000.0, random.Random(3), low))
    plain = list(plain_thinning(wavy_rate, 0.1, 1000.0, random.Random(3)))
    assert set(squeezed) < set(plain)


def test_thinning_validates_the_envelope():
    with pytest.raises(ConfigError):
        list(thinned_poisson(wavy_rate, 0.1, 1000.0, random.Random(0), []))
    with pytest.raises(ConfigError):  # nothing bounds [0, 10)
        list(thinned_poisson(wavy_rate, 0.1, 1000.0, random.Random(0), [(10.0, 0.1)]))


# --- kv store ----------------------------------------------------------------


def test_kv_put_get_round_trip(logical_pool, logical_deployment):
    store = PooledKVStore(logical_pool, capacity_bytes=mib(16))
    logical_deployment.run(store.put(0, b"key", b"value-bytes"))
    assert logical_deployment.run(store.get(1, b"key")) == b"value-bytes"
    assert len(store) == 1


def test_kv_missing_key_returns_none(logical_pool, logical_deployment):
    store = PooledKVStore(logical_pool, capacity_bytes=mib(16))
    assert logical_deployment.run(store.get(0, b"ghost")) is None
    assert store.misses == 1


def test_kv_overwrite_points_to_new_value(logical_pool, logical_deployment):
    store = PooledKVStore(logical_pool, capacity_bytes=mib(16))
    logical_deployment.run(store.put(0, b"k", b"old"))
    logical_deployment.run(store.put(0, b"k", b"new"))
    assert logical_deployment.run(store.get(0, b"k")) == b"new"
    assert store.bytes_used == 6  # log-structured: both versions consumed space


def test_kv_log_capacity_enforced(logical_pool, logical_deployment):
    store = PooledKVStore(logical_pool, capacity_bytes=mib(2))
    logical_deployment.run(store.put(0, b"a", bytes(mib(2) - 10)))
    with pytest.raises(CapacityError):
        store.put(0, b"b", bytes(100))


def test_kv_rejects_empty_keys(logical_pool):
    store = PooledKVStore(logical_pool, capacity_bytes=mib(2))
    with pytest.raises(ConfigError):
        store.put(0, b"", b"v")


def test_ycsb_local_store_is_fast_and_local(logical_pool):
    store = PooledKVStore(logical_pool, capacity_bytes=mib(16), home_server=0)
    result = run_ycsb(store, server_id=0, rng=random.Random(1), operations=60, key_count=20)
    assert result.operations == 60
    assert result.local_ratio == 1.0
    assert result.ops_per_second > 0
    assert result.p99_latency_ns >= result.mean_latency_ns


def test_ycsb_remote_store_pays_latency(logical_pool):
    local_store = PooledKVStore(logical_pool, capacity_bytes=mib(16), home_server=0, name="l")
    remote_store = PooledKVStore(logical_pool, capacity_bytes=mib(16), home_server=3, name="r")
    local = run_ycsb(local_store, 0, random.Random(1), operations=60, key_count=20)
    remote = run_ycsb(remote_store, 0, random.Random(1), operations=60, key_count=20)
    assert remote.mean_latency_ns > local.mean_latency_ns
    assert remote.local_ratio == 0.0


# --- graph ------------------------------------------------------------------


def test_bfs_visits_the_connected_component(logical_pool, logical_deployment):
    graph = random_graph(nodes=60, degree=3, seed=1)
    pooled = PooledGraph(logical_pool, graph, home_server=0)
    result = logical_deployment.run(pooled.bfs(0, source=0))
    expected = len(nx.node_connected_component(graph, 0))
    assert result.visited == expected
    assert result.reads > 0
    pooled.release()


def test_bfs_remote_is_slower_than_local(logical_pool, logical_deployment):
    graph = random_graph(nodes=60, degree=3, seed=2)
    pooled = PooledGraph(logical_pool, graph, home_server=2)
    local = logical_deployment.run(pooled.bfs(2, source=0))
    remote = logical_deployment.run(pooled.bfs(0, source=0))
    assert remote.duration_ns > local.duration_ns
    assert remote.visited == local.visited


def test_graph_requires_normalized_labels(logical_pool):
    graph = nx.Graph()
    graph.add_edge("a", "b")
    with pytest.raises(ConfigError):
        PooledGraph(logical_pool, graph)


def test_graph_rejects_empty(logical_pool):
    with pytest.raises(ConfigError):
        PooledGraph(logical_pool, nx.Graph())


def test_bfs_source_bounds(logical_pool):
    graph = random_graph(nodes=10, degree=2, seed=0)
    pooled = PooledGraph(logical_pool, graph)
    with pytest.raises(ConfigError):
        pooled.bfs(0, source=10)


def test_kv_garbage_ratio_tracks_overwrites(logical_pool, logical_deployment):
    store = PooledKVStore(logical_pool, capacity_bytes=mib(16))
    logical_deployment.run(store.put(0, b"k", b"a" * 1000))
    assert store.garbage_ratio() == 0.0
    logical_deployment.run(store.put(0, b"k", b"b" * 1000))
    assert store.garbage_ratio() == pytest.approx(0.5)


def test_kv_compaction_reclaims_dead_space(logical_pool, logical_deployment):
    store = PooledKVStore(logical_pool, capacity_bytes=mib(16))
    engine = logical_deployment.engine
    for round_no in range(4):
        engine.run(store.put(0, b"hot", bytes([round_no]) * 2048))
    engine.run(store.put(0, b"steady", b"s" * 512))
    used_before = store.bytes_used
    reclaimed = engine.run(store.compact(0))
    assert reclaimed == used_before - store.bytes_used
    assert store.bytes_used == store.bytes_live == 2048 + 512
    assert store.garbage_ratio() == 0.0
    # values survive compaction bit-exactly
    assert engine.run(store.get(1, b"hot")) == bytes([3]) * 2048
    assert engine.run(store.get(1, b"steady")) == b"s" * 512


def test_kv_compaction_enables_further_puts(logical_pool, logical_deployment):
    """The log fills with dead versions; compaction makes room."""
    store = PooledKVStore(logical_pool, capacity_bytes=mib(2))
    engine = logical_deployment.engine
    chunk = bytes(mib(2) // 4)
    for _ in range(4):  # fills the log with versions of one key
        engine.run(store.put(0, b"k", chunk))
    with pytest.raises(CapacityError):
        engine.run(store.put(0, b"k", chunk))
    engine.run(store.compact(0))
    engine.run(store.put(0, b"k", chunk))  # fits again
    assert len(store) == 1
