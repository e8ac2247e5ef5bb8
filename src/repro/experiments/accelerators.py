"""A8 — near-memory compute engines: CPU cores vs Type-2 accelerators.

§1 points out that logical pools get near-memory computing "without
extra hardware" because servers already have "not only CPUs, but
possibly GPUs and other accelerators."  This experiment ships the same
distributed scan to both engine kinds and reports the honest trade:

* aggregate bandwidth is DRAM-bound either way (~identical),
* the accelerator path consumes **zero CPU core-time** — the paper's
  14 cores per server stay available to applications — at the price of
  a kernel-launch overhead that penalizes tiny shards.

A physical pool, by contrast, offers neither engine at the memory:
"computation shipping either is infeasible or requires additional
processing hardware, exacerbating its cost" (§4.4).
"""

from __future__ import annotations

import dataclasses

from repro.analysis.report import format_table
from repro.core.compute import ComputeRuntime
from repro.core.pool import LogicalMemoryPool
from repro.hw.accelerator import Accelerator
from repro.mem.interleave import RoundRobinPlacement
from repro.topology.builder import build_logical
from repro.units import gib


@dataclasses.dataclass(frozen=True)
class EnginePoint:
    engine_kind: str
    vector_gib: float
    aggregate_gbps: float
    cpu_core_ms: float
    kernel_launches: int


@dataclasses.dataclass(frozen=True)
class AcceleratorResult:
    link: str
    points: tuple[EnginePoint, ...]

    def render(self) -> str:
        return format_table(
            ["engine", "vector GiB", "aggregate GB/s", "CPU core-ms", "kernels"],
            [
                (p.engine_kind, p.vector_gib, p.aggregate_gbps, p.cpu_core_ms, p.kernel_launches)
                for p in self.points
            ],
            title=(
                f"A8 near-memory engines on {self.link}: same DRAM-bound "
                "bandwidth, accelerators free the CPUs"
            ),
        )


def _run_one(link: str, vector_gib: float, use_accelerators: bool) -> EnginePoint:
    deployment = build_logical(link)
    pool = LogicalMemoryPool(deployment, placement=RoundRobinPlacement())
    buffer = pool.allocate(int(vector_gib * gib(1)), requester_id=0, name="data")
    compute = ComputeRuntime(pool)
    launches = 0
    accelerators = []
    if use_accelerators:
        for server in deployment.servers:
            accelerator = Accelerator(deployment.engine, deployment.fluid, server)
            compute.attach_accelerator(server.server_id, accelerator)
            accelerators.append(accelerator)
    result = deployment.run(
        compute.shipped_scan(buffer, requester_id=0, use_accelerators=use_accelerators)
    )
    if use_accelerators:
        launches = sum(a.kernels_launched for a in accelerators)
    return EnginePoint(
        engine_kind=result.engine_kind,
        vector_gib=vector_gib,
        aggregate_gbps=result.aggregate_gbps,
        cpu_core_ms=result.cpu_core_ns / 1e6,
        kernel_launches=launches,
    )


def run(link: str = "link1") -> AcceleratorResult:
    """CPU vs accelerator shipping for a big and a small scan."""
    points = []
    for vector_gib in (32.0, 0.5):
        points.append(_run_one(link, vector_gib, use_accelerators=False))
        points.append(_run_one(link, vector_gib, use_accelerators=True))
    return AcceleratorResult(link=link, points=tuple(points))
