"""F2–F5 — Figures 2, 3, 4, 5: the §4 microbenchmark bar charts.

Each figure is the same experiment at one vector size (8, 24, 64,
96 GB), across the three §4.1 pool configurations and both emulated
links.  Figure 5's physical bars are "cannot run the workload" — an
infeasibility datapoint, not a zero.

The paper's headline claims, checked by tests/test_experiments.py:

* F2/F3: Logical up to ~4.7x over Physical no-cache (Link1),
* F3: Logical ~3.4x over Physical cache (cache thrashes at 24 GB),
* F4: Logical beats Physical cache on Link1 (paper: +42%) with 3/8 of
  the vector local,
* F5: only Logical can run the 96 GB vector.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.analysis.report import format_barchart, format_table
from repro.core.pool import LogicalMemoryPool, PhysicalMemoryPool
from repro.topology.builder import build, build_logical, build_physical
from repro.units import gib
from repro.workloads.vector_sum import VectorSumResult, run_vector_sum

#: the paper's four vector sizes, GiB
FIGURE_SIZES: dict[str, int] = {
    "figure2": 8,
    "figure3": 24,
    "figure4": 64,
    "figure5": 96,
}

CONFIG_LABELS = ("Logical", "Physical cache", "Physical no-cache")


@dataclasses.dataclass(frozen=True)
class FigureResult:
    """One figure: config x link -> microbenchmark result."""

    figure: str
    vector_gib: int
    results: dict[tuple[str, str], VectorSumResult]

    def bandwidth(self, config: str, link: str) -> float:
        return self.results[(config, link)].bandwidth_gbps

    def feasible(self, config: str, link: str) -> bool:
        return self.results[(config, link)].feasible

    def speedup(self, link: str, over: str) -> float:
        return self.results[("Logical", link)].speedup_over(self.results[(over, link)])

    def render(self) -> str:
        blocks = [
            f"{self.figure}: {self.vector_gib} GB vector, 4 servers, 96 GB budget"
        ]
        for link in ("link0", "link1"):
            series = {}
            infeasible = []
            for config in CONFIG_LABELS:
                result = self.results[(config, link)]
                if result.feasible:
                    series[config] = result.bandwidth_gbps
                else:
                    series[config] = 0.0
                    infeasible.append(config)
            blocks.append(
                format_barchart(series, title=f"[{link}]", unit=" GB/s", infeasible=infeasible)
            )
        rows = []
        for link in ("link0", "link1"):
            nocache = self.results[("Physical no-cache", link)]
            cache = self.results[("Physical cache", link)]
            if nocache.feasible:
                rows.append(
                    (
                        link,
                        f"{self.speedup(link, 'Physical no-cache'):.2f}x",
                        f"{self.speedup(link, 'Physical cache'):.2f}x",
                    )
                )
        if rows:
            blocks.append(
                format_table(
                    ["link", "Logical/no-cache", "Logical/cache"], rows, title="speedups"
                )
            )
        return "\n\n".join(blocks)


def run_figure(
    figure: str,
    links: _t.Sequence[str] = ("link0", "link1"),
    repetitions: int = 10,
) -> FigureResult:
    """Run one of figures 2–5 across configurations and links."""
    vector_gib = FIGURE_SIZES[figure]
    results: dict[tuple[str, str], VectorSumResult] = {}
    for link in links:
        deployment = build_logical(link)
        results[("Logical", link)] = run_vector_sum(
            LogicalMemoryPool(deployment),
            gib(vector_gib),
            repetitions=repetitions,
            label="Logical",
        )
        deployment = build_physical(link, cache=True)
        results[("Physical cache", link)] = run_vector_sum(
            PhysicalMemoryPool(deployment),
            gib(vector_gib),
            repetitions=repetitions,
            label="Physical cache",
        )
        deployment = build_physical(link, cache=False)
        results[("Physical no-cache", link)] = run_vector_sum(
            PhysicalMemoryPool(deployment),
            gib(vector_gib),
            repetitions=repetitions,
            label="Physical no-cache",
        )
    return FigureResult(figure=figure, vector_gib=vector_gib, results=results)
