"""B3 — §4.4 Benefit 3: near-memory computing.

"If we distribute the sum across LMP servers, then each server could
access different parts of the vector locally. ... The end result is an
even larger performance improvement than reported above (not shown)."

We show it: the same vector, placed round-robin, summed two ways —

* **pull**: one server streams the whole vector to itself (what a
  physical pool forces),
* **ship**: every server sums its local shard and sends back one cache
  line (compute shipping).

The shipped variant scales with the number of servers because every
byte moves at local-DRAM speed.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.report import format_table
from repro.core.compute import ComputeRuntime
from repro.core.pool import LogicalMemoryPool
from repro.mem.interleave import RoundRobinPlacement
from repro.topology.builder import build_logical
from repro.units import gib
from repro.workloads.vector_sum import run_vector_sum


@dataclasses.dataclass(frozen=True)
class NearMemoryResult:
    link: str
    vector_gib: int
    pull_gbps: float
    shipped_gbps: float
    result_messages: int

    @property
    def speedup(self) -> float:
        return self.shipped_gbps / self.pull_gbps if self.pull_gbps else 0.0

    def render(self) -> str:
        return format_table(
            ["strategy", "aggregate GB/s"],
            [
                ("single-server pull", self.pull_gbps),
                ("compute shipping", self.shipped_gbps),
            ],
            title=(
                f"S4.4 near-memory computing: {self.vector_gib} GiB vector on {self.link} "
                f"(shipping is {self.speedup:.1f}x faster, "
                f"{self.result_messages} result messages crossed the fabric)"
            ),
        )


def run(link: str = "link1", vector_gib: int = 64) -> NearMemoryResult:
    """Pull vs ship on the same round-robin-placed vector."""
    # pull: one server reads a round-robin vector
    deployment = build_logical(link)
    pool = LogicalMemoryPool(deployment, placement=RoundRobinPlacement())
    pull = run_vector_sum(pool, gib(vector_gib), repetitions=3, label="pull")

    # ship: every server scans its own shard
    deployment = build_logical(link)
    pool = LogicalMemoryPool(deployment, placement=RoundRobinPlacement())
    buffer = pool.allocate(gib(vector_gib), requester_id=0, name="vector")
    compute = ComputeRuntime(pool)
    shipped = deployment.run(compute.shipped_scan(buffer, requester_id=0))

    return NearMemoryResult(
        link=link,
        vector_gib=vector_gib,
        pull_gbps=pull.bandwidth_gbps,
        shipped_gbps=shipped.aggregate_gbps,
        result_messages=shipped.result_messages,
    )
