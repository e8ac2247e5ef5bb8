"""Tests for erasure coding, replication, detection, and recovery."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.failures.detector import FailureDetector
from repro.core.failures.erasure import ReedSolomon, gf_inv, gf_mul_bytes
from repro.core.failures.recovery import RecoveryManager
from repro.core.failures.replication import ErasureCodedBuffer, ReplicatedBuffer
from repro.errors import (
    ConfigError,
    MemoryFailureError,
    RecoveryError,
)
from repro.units import mib, ms


# --- GF(256) field ----------------------------------------------------------


def gf_mul(a: int, b: int) -> int:
    """One product read from the multiplication table the codec uses."""
    return int(gf_mul_bytes(a, np.array([b], dtype=np.uint8))[0])


def test_field_inverses():
    for a in range(1, 256):
        assert gf_mul(a, gf_inv(a)) == 1


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_field_axioms(a, b, c):
    assert gf_mul(a, b) == gf_mul(b, a)  # commutative
    assert gf_mul(a, gf_mul(b, c)) == gf_mul(gf_mul(a, b), c)  # associative
    assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)  # distributive
    assert gf_mul(a, 1) == a  # identity
    assert gf_mul(a, 0) == 0  # annihilator


# --- Reed-Solomon --------------------------------------------------------------


def test_encode_shapes():
    rs = ReedSolomon(4, 2)
    shards = rs.encode(b"x" * 100)
    assert len(shards) == 6
    assert all(len(s) == 25 for s in shards)
    assert rs.storage_overhead == pytest.approx(0.5)


def test_systematic_data_shards_are_plain_data():
    rs = ReedSolomon(2, 1)
    data = b"ABCDEFGH"
    shards = rs.encode(data)
    assert shards[0] + shards[1] == data


def test_decode_fast_path_all_data_shards():
    rs = ReedSolomon(3, 2)
    data = bytes(range(90))
    shards = rs.encode(data)
    assert rs.decode({0: shards[0], 1: shards[1], 2: shards[2]}, 90) == data


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 6),
    m=st.integers(0, 4),
    payload=st.binary(min_size=1, max_size=500),
    seed=st.integers(0, 2**16),
)
def test_any_k_shards_decode(k, m, payload, seed):
    rs = ReedSolomon(k, m)
    shards = rs.encode(payload)
    rng = random.Random(seed)
    keep = rng.sample(range(k + m), k)
    assert rs.decode({i: shards[i] for i in keep}, len(payload)) == payload


def test_too_many_erasures_detected():
    rs = ReedSolomon(4, 2)
    shards = rs.encode(b"payload-payload")
    with pytest.raises(RecoveryError, match="too many erasures"):
        rs.decode({0: shards[0], 1: shards[1], 2: shards[2]}, 15)


def test_decode_validates_shards():
    rs = ReedSolomon(2, 1)
    shards = rs.encode(b"abcdef")
    with pytest.raises(RecoveryError, match="length mismatch"):
        rs.decode({0: shards[0], 1: shards[1][:-1]}, 6)
    with pytest.raises(RecoveryError, match="out of range"):
        rs.decode({0: shards[0], 9: shards[1]}, 6)


def test_reconstruct_single_shard():
    rs = ReedSolomon(3, 2)
    data = bytes(range(120))
    shards = rs.encode(data)
    # recovery decodes the survivors and re-encodes the lost shard
    data_back = rs.decode({0: shards[0], 2: shards[2], 3: shards[3]}, 120)
    assert rs.encode(data_back)[1] == shards[1]


def test_rs_config_validation():
    with pytest.raises(ConfigError):
        ReedSolomon(0, 1)
    with pytest.raises(ConfigError):
        ReedSolomon(200, 100)


# --- replicated buffers ----------------------------------------------------------


def test_replicas_on_distinct_servers(logical_pool):
    replicated = ReplicatedBuffer(logical_pool, mib(4), copies=3, home_server=1)
    assert len(set(replicated.replica_servers)) == 3
    assert replicated.replica_servers[0] == 1
    assert replicated.storage_overhead == 2.0


def test_replicated_write_updates_all(logical_pool, logical_deployment):
    replicated = ReplicatedBuffer(logical_pool, mib(4), copies=2)
    payload = bytearray(b"everywhere")
    write = replicated.write(0, 10, payload)
    payload[:] = b"overwrites"  # the payload was fixed at the call
    logical_deployment.run(write)
    for replica in replicated.replicas:
        data = logical_deployment.run(logical_pool.read(0, replica, 10, 10))
        assert data == b"everywhere"


def test_replicated_read_survives_crash(logical_pool, logical_deployment):
    replicated = ReplicatedBuffer(logical_pool, mib(4), copies=2, home_server=0)
    logical_deployment.run(replicated.write(0, 0, b"durable"))
    logical_deployment.servers[0].crash()
    assert replicated.degraded()
    data = logical_deployment.run(replicated.read(1, 0, 7))
    assert data == b"durable"


def test_replicated_repair_restores_redundancy(logical_pool, logical_deployment):
    replicated = ReplicatedBuffer(logical_pool, mib(4), copies=2, home_server=0)
    logical_deployment.run(replicated.write(1, 0, b"fixme"))
    logical_deployment.servers[0].crash()
    rebuilt = logical_deployment.run(replicated.repair(1))
    assert rebuilt == 1
    assert not replicated.degraded()
    assert 0 not in replicated.replica_servers
    data = logical_deployment.run(replicated.read(1, 0, 5))
    assert data == b"fixme"


def test_all_replicas_down_raises(logical_pool, logical_deployment):
    replicated = ReplicatedBuffer(logical_pool, mib(4), copies=2, home_server=0)
    logical_deployment.servers[replicated.replica_servers[0]].crash()
    logical_deployment.servers[replicated.replica_servers[1]].crash()
    with pytest.raises(MemoryFailureError):
        logical_deployment.run(replicated.read(2, 0, 4))


def test_replication_config(logical_pool):
    with pytest.raises(ConfigError):
        ReplicatedBuffer(logical_pool, mib(1), copies=1)
    with pytest.raises(ConfigError):
        ReplicatedBuffer(logical_pool, mib(1), copies=5)  # only 4 servers


# --- erasure-coded buffers ----------------------------------------------------


def test_coded_buffer_round_trip(logical_pool, logical_deployment):
    payload = random.Random(3).randbytes(5000)
    coded = ErasureCodedBuffer(logical_pool, 5000, data_shards=2, parity_shards=1)
    reused = bytearray(payload)
    put = coded.put(0, reused)
    reused[:] = bytes(5000)  # the payload was fixed at the call
    logical_deployment.run(put)
    assert logical_deployment.run(coded.get(0)) == payload
    assert coded.storage_overhead == pytest.approx(0.5)


def test_coded_buffer_degraded_read(logical_pool, logical_deployment):
    payload = random.Random(4).randbytes(4096)
    coded = ErasureCodedBuffer(logical_pool, 4096, data_shards=2, parity_shards=1)
    logical_deployment.run(coded.put(0, payload))
    logical_deployment.servers[coded.shard_servers[0]].crash()
    assert coded.degraded()
    assert logical_deployment.run(coded.get(1)) == payload


def test_coded_buffer_repair(logical_pool, logical_deployment):
    payload = bytes(range(256)) * 8
    coded = ErasureCodedBuffer(logical_pool, len(payload), data_shards=2, parity_shards=1)
    logical_deployment.run(coded.put(0, payload))
    victim = coded.shard_servers[1]
    logical_deployment.servers[victim].crash()
    rebuilt = logical_deployment.run(coded.repair(0))
    assert rebuilt == 1
    assert not coded.degraded()
    assert victim not in coded.shard_servers
    assert logical_deployment.run(coded.get(0)) == payload


def test_coded_buffer_too_many_failures(logical_pool, logical_deployment):
    coded = ErasureCodedBuffer(logical_pool, 1000, data_shards=2, parity_shards=1)
    logical_deployment.run(coded.put(0, bytes(1000)))
    logical_deployment.servers[coded.shard_servers[0]].crash()
    logical_deployment.servers[coded.shard_servers[1]].crash()
    with pytest.raises(MemoryFailureError):
        logical_deployment.run(coded.get(3))


def test_coded_buffer_needs_enough_servers(logical_pool):
    with pytest.raises(ConfigError):
        ErasureCodedBuffer(logical_pool, 1000, data_shards=4, parity_shards=2)


def test_coded_buffer_exact_length_enforced(logical_pool):
    coded = ErasureCodedBuffer(logical_pool, 1000, 2, 1)
    with pytest.raises(ConfigError):
        coded.put(0, bytes(999))


# --- detector ----------------------------------------------------------------


def test_detector_confirms_after_threshold(logical_deployment):
    detector = FailureDetector(logical_deployment, interval=ms(10), miss_threshold=3)
    crash_time = logical_deployment.engine.now
    logical_deployment.servers[2].crash()
    found = logical_deployment.run(detector.monitor(ms(100)))
    assert [d.server_id for d in found] == [2]
    assert detector.detection_latency(2, crash_time) == pytest.approx(ms(30))


def test_detector_ignores_healthy_servers(logical_deployment):
    detector = FailureDetector(logical_deployment, interval=ms(10))
    found = logical_deployment.run(detector.monitor(ms(50)))
    assert found == []
    with pytest.raises(ConfigError):
        detector.detection_latency(0, 0.0)


def test_detector_fires_callbacks(logical_deployment):
    detector = FailureDetector(logical_deployment, interval=ms(5), miss_threshold=2)
    seen: list[int] = []
    detector.on_failure(lambda d: seen.append(d.server_id))
    logical_deployment.servers[1].crash()
    logical_deployment.run(detector.monitor(ms(50)))
    assert seen == [1]


# --- recovery manager ---------------------------------------------------------


def test_recovery_repairs_and_reports_losses(logical_pool, logical_deployment):
    engine = logical_deployment.engine
    replicated = ReplicatedBuffer(logical_pool, mib(2), copies=2, home_server=1, name="r")
    engine.run(replicated.write(0, 0, b"keep"))
    plain = logical_pool.allocate(mib(2), requester_id=1, name="gone")
    manager = RecoveryManager(logical_pool)
    manager.register(replicated)
    manager.register_unprotected(plain)
    logical_deployment.servers[1].crash()
    report = engine.run(manager.handle_crash(1))
    assert report.objects_repaired == 1
    assert report.lost_buffers == ["gone"]
    assert report.per_object["r"].bytes_reconstructed == mib(2)


def test_recovery_coordinator_fails_over(logical_pool, logical_deployment):
    manager = RecoveryManager(logical_pool, coordinator_id=0)
    logical_deployment.servers[0].crash()
    report = logical_deployment.run(manager.handle_crash(0))
    assert report.lost_buffers == []  # nothing was registered


def test_recovery_untouched_objects_not_repaired(logical_pool, logical_deployment):
    replicated = ReplicatedBuffer(logical_pool, mib(2), copies=2, home_server=2, name="safe")
    manager = RecoveryManager(logical_pool)
    manager.register(replicated)
    logical_deployment.servers[1].crash()  # not a replica holder? replicas at 2,3
    report = logical_deployment.run(manager.handle_crash(1))
    assert report.objects_repaired == 0
