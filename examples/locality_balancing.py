#!/usr/bin/env python3
"""Locality balancing (§5): the runtime migrates hot data to its consumer.

A 4 GiB feature table is allocated by a loader on server 0.  Then an
inference service on server 2 becomes its only reader.  Each epoch the
LMP runtime samples the access counters, migrates the hottest remote
extents toward their dominant consumer, and (second background task)
trims idle shared regions back to private use.

Watch the scan bandwidth climb from fabric speed to local-DRAM speed —
without the reader's buffer handle or addresses ever changing.

    $ python examples/locality_balancing.py
"""

from repro.core.api import LmpSession
from repro.core.runtime import LmpRuntime
from repro.topology.builder import build_logical
from repro.units import gib

LINK = "link1"
TABLE = gib(4)


def main() -> None:
    deployment = build_logical(LINK)
    engine = deployment.engine
    runtime = LmpRuntime(deployment, shared_fraction=0.9)

    loader = LmpSession(runtime, 0)
    service = LmpSession(runtime, 2)

    table = loader.alloc(TABLE, name="features")
    engine.run(loader.write_v(loader.map(table).vaddr, b"\x2a" * 4096))
    print(
        f"features table allocated: {TABLE / 2**30:.0f} GiB on server0 "
        f"(locality for the service: {runtime.pool.locality_fraction(2, table):.0%})\n"
    )

    print(f"{'epoch':>5}  {'scan GB/s':>10}  {'locality':>9}  {'migrated':>9}")
    for epoch in range(4):
        # the service scans twice per epoch (re-reads are what make
        # migration pay for itself)
        bandwidth = 0.0
        for _ in range(2):
            bandwidth = engine.run(service.scan(table))
        report = engine.run(runtime.background_epoch())
        print(
            f"{epoch:>5}  {bandwidth:>10.1f}  "
            f"{runtime.pool.locality_fraction(2, table):>9.0%}  "
            f"{report.balancer.bytes_moved / 2**30:>8.1f}G"
        )

    # the handle still works, contents intact, addresses unchanged: the
    # service reads through its own virtual mapping of the same buffer
    data = engine.run(service.read_v(service.map(table).vaddr, 4))
    print(f"\ncontents after migration: {data!r} (handle survived, as §3.2 requires)")
    total_moved = runtime.balancer.total_bytes_moved
    print(f"total bytes migrated: {total_moved / 2**30:.0f} GiB")


if __name__ == "__main__":
    main()
