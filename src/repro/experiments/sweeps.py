"""A6 — parameter sweeps generalizing Figures 2–5 into curves.

Two sweeps the paper's methodology implies but its four bar charts only
sample:

* **Slowdown sweep** — "we parameterize our experiments based on a
  slowdown of the disaggregated memory relative to local memory"
  (§4.1).  We sweep that slowdown from 2x to 16x for the 64 GB vector
  and watch the Logical advantage grow: "the slower the remote link,
  the better the performance of LMPs relative to physical pools"
  (§4.3), as a curve instead of two points.

* **Working-set sweep** — vector sizes from 4 to 96 GB on one link.
  This traces where the regimes change: all-local (<= 24 GB), partial
  locality (24–96 GB), and the physical pool's feasibility cliff at
  64 GB — the crossovers Figures 2–5 sample at four points.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.report import format_table
from repro.core.pool import LogicalMemoryPool, PhysicalMemoryPool
from repro.hw.link import register_scaled_link
from repro.hw.specs import LOCAL_DDR4
from repro.topology.builder import build_logical, build_physical
from repro.units import gib
from repro.workloads.vector_sum import run_vector_sum


@dataclasses.dataclass(frozen=True)
class SlowdownPoint:
    slowdown: float
    logical_gbps: float
    nocache_gbps: float

    @property
    def advantage(self) -> float:
        return self.logical_gbps / self.nocache_gbps if self.nocache_gbps else 0.0


@dataclasses.dataclass(frozen=True)
class SizePoint:
    vector_gib: int
    logical_gbps: float
    cache_gbps: float
    nocache_gbps: float
    physical_feasible: bool
    locality: float


@dataclasses.dataclass(frozen=True)
class SweepResult:
    slowdown_points: tuple[SlowdownPoint, ...]
    size_points: tuple[SizePoint, ...]
    size_sweep_link: str

    def render(self) -> str:
        slowdown = format_table(
            ["remote slowdown", "Logical GB/s", "Physical no-cache GB/s", "advantage"],
            [
                (f"{p.slowdown:.0f}x", p.logical_gbps, p.nocache_gbps, f"{p.advantage:.2f}x")
                for p in self.slowdown_points
            ],
            title="A6a slowdown sweep: 64 GB vector, the paper's parameterization knob",
        )
        size = format_table(
            ["vector GiB", "Logical", "Phys cache", "Phys no-cache", "locality"],
            [
                (
                    p.vector_gib,
                    p.logical_gbps,
                    p.cache_gbps if p.physical_feasible else "infeasible",
                    p.nocache_gbps if p.physical_feasible else "infeasible",
                    f"{p.locality:.0%}",
                )
                for p in self.size_points
            ],
            title=f"A6b working-set sweep on {self.size_sweep_link} (GB/s)",
        )
        return slowdown + "\n\n" + size


def sweep_slowdown(
    slowdowns: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0),
    vector_gib: int = 64,
    repetitions: int = 2,
) -> tuple[SlowdownPoint, ...]:
    """Logical vs Physical no-cache as the fabric degrades."""
    points = []
    for slowdown in slowdowns:
        link = register_scaled_link(f"slow{slowdown:g}x", LOCAL_DDR4, slowdown)
        logical = run_vector_sum(
            LogicalMemoryPool(build_logical(link)),
            gib(vector_gib),
            repetitions=repetitions,
        )
        nocache = run_vector_sum(
            PhysicalMemoryPool(build_physical(link, cache=False)),
            gib(vector_gib),
            repetitions=repetitions,
        )
        points.append(
            SlowdownPoint(
                slowdown=slowdown,
                logical_gbps=logical.bandwidth_gbps,
                nocache_gbps=nocache.bandwidth_gbps,
            )
        )
    return tuple(points)


def sweep_vector_size(
    link: str = "link1",
    sizes_gib: tuple[int, ...] = (4, 8, 16, 24, 32, 48, 64, 80, 96),
    repetitions: int = 2,
) -> tuple[SizePoint, ...]:
    """The full working-set curve behind Figures 2–5."""
    points = []
    for vector_gib in sizes_gib:
        logical = run_vector_sum(
            LogicalMemoryPool(build_logical(link)),
            gib(vector_gib),
            repetitions=repetitions,
        )
        cache = run_vector_sum(
            PhysicalMemoryPool(build_physical(link, cache=True)),
            gib(vector_gib),
            repetitions=repetitions,
        )
        nocache = run_vector_sum(
            PhysicalMemoryPool(build_physical(link, cache=False)),
            gib(vector_gib),
            repetitions=repetitions,
        )
        points.append(
            SizePoint(
                vector_gib=vector_gib,
                logical_gbps=logical.bandwidth_gbps,
                cache_gbps=cache.bandwidth_gbps,
                nocache_gbps=nocache.bandwidth_gbps,
                physical_feasible=nocache.feasible,
                locality=logical.locality,
            )
        )
    return tuple(points)


def run(link: str = "link1") -> SweepResult:
    """Both sweeps."""
    return SweepResult(
        slowdown_points=sweep_slowdown(),
        size_points=sweep_vector_size(link),
        size_sweep_link=link,
    )
