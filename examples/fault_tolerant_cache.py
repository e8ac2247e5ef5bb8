#!/usr/bin/env python3
"""Failure domains (§5): surviving a host crash.

A logical pool's failure domain is each server: when a host dies, its
slice of the pool dies with it.  This example stores the same session
cache three ways — unprotected, mirrored, and Reed–Solomon coded —
crashes a server, and walks through detection, recovery, and what each
scheme saved.

    $ python examples/fault_tolerant_cache.py
"""

import random

from repro.core.failures.detector import FailureDetector
from repro.core.failures.recovery import RecoveryManager
from repro.core.failures.replication import ErasureCodedBuffer, ReplicatedBuffer
from repro.core.pool import LogicalMemoryPool
from repro.errors import MemoryFailureError
from repro.topology.builder import build_logical
from repro.units import mib, ms

VICTIM = 1
OBJECT_BYTES = mib(8)


def main() -> None:
    deployment = build_logical("link0")
    engine = deployment.engine
    pool = LogicalMemoryPool(deployment)
    payload = random.Random(0).randbytes(OBJECT_BYTES)

    print("storing an 8 MiB session cache three ways...")
    plain = pool.allocate(OBJECT_BYTES, requester_id=VICTIM, name="plain")
    engine.run(pool.write(VICTIM, plain, 0, payload))

    mirrored = ReplicatedBuffer(pool, OBJECT_BYTES, copies=2, home_server=VICTIM, name="mirror")
    engine.run(mirrored.write(0, 0, payload))

    coded = ErasureCodedBuffer(pool, OBJECT_BYTES, data_shards=2, parity_shards=1, name="rs")
    engine.run(coded.put(0, payload))
    print(
        f"  unprotected: 1.0x storage | mirror: {1 + mirrored.storage_overhead:.1f}x "
        f"| RS(2,1): {1 + coded.storage_overhead:.1f}x"
    )

    manager = RecoveryManager(pool)
    manager.register(mirrored)
    manager.register(coded)
    manager.register_unprotected(plain)

    detector = FailureDetector(deployment, interval=ms(10))
    detector.on_failure(lambda d: print(f"  detector: server{d.server_id} confirmed dead"))

    print(f"\ncrashing server{VICTIM}...")
    crash_time = engine.now
    deployment.server(VICTIM).crash()
    engine.run(detector.monitor(ms(100)))
    print(f"  detection latency: {detector.detection_latency(VICTIM, crash_time) / 1e6:.0f} ms")

    report = engine.run(manager.handle_crash(VICTIM))
    print(
        f"  recovery: {report.objects_repaired} objects repaired, "
        f"{report.bytes_reconstructed / 2**20:.0f} MiB reconstructed in "
        f"{report.duration_ns / 1e6:.1f} ms"
    )

    print("\nafter recovery:")
    data = engine.run(mirrored.read(0, 0, OBJECT_BYTES))
    print(f"  mirror     : intact == {data == payload}, replicas on {mirrored.replica_servers}")
    data = engine.run(coded.get(0))
    print(f"  RS(2,1)    : intact == {data == payload}, shards on {coded.shard_servers}")
    try:
        engine.run(pool.read(0, plain, 0, 64))
    except MemoryFailureError as exc:
        print(f"  unprotected: LOST — {exc}")


if __name__ == "__main__":
    main()
