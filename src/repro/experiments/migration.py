"""A3 — locality-balancing ablation (§5 "Locality balancing").

A consumer on server 1 repeatedly scans a working set that was placed
on server 0 (the allocation-time guess was wrong — the normal case the
balancer exists for).  We run epochs with the balancer on and off and
track per-epoch scan bandwidth and locality.

With balancing on, hot extents migrate to the consumer and scans reach
local-DRAM bandwidth; off, every scan stays at link speed forever.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.report import format_table
from repro.core.migration import LocalityBalancer
from repro.core.pool import LogicalMemoryPool
from repro.core.profiling import AccessProfiler
from repro.topology.builder import build_logical
from repro.units import gib, mib


@dataclasses.dataclass(frozen=True)
class EpochPoint:
    epoch: int
    bandwidth_gbps: float
    locality: float
    bytes_migrated: int


@dataclasses.dataclass(frozen=True)
class MigrationResult:
    link: str
    working_set_gib: float
    with_balancer: tuple[EpochPoint, ...]
    without_balancer: tuple[EpochPoint, ...]

    @property
    def final_speedup(self) -> float:
        on = self.with_balancer[-1].bandwidth_gbps
        off = self.without_balancer[-1].bandwidth_gbps
        return on / off if off else 0.0

    def render(self) -> str:
        rows = []
        for on, off in zip(self.with_balancer, self.without_balancer):
            rows.append(
                (
                    on.epoch,
                    on.bandwidth_gbps,
                    f"{on.locality:.2f}",
                    on.bytes_migrated / mib(1),
                    off.bandwidth_gbps,
                )
            )
        return format_table(
            ["epoch", "GB/s (balancer)", "locality", "migrated MiB", "GB/s (static)"],
            rows,
            title=(
                f"A3 locality balancing on {self.link}: {self.working_set_gib:.0f} GiB "
                f"working set, final speedup {self.final_speedup:.1f}x"
            ),
        )


def _run_epochs(link: str, working_set: int, epochs: int, balance: bool) -> list[EpochPoint]:
    deployment = build_logical(link)
    pool = LogicalMemoryPool(deployment)
    profiler = AccessProfiler()
    balancer = LocalityBalancer(pool, profiler, epoch_budget_bytes=gib(8))
    # data "accidentally" placed on server 0; the consumer lives on server 1
    buffer = pool.allocate(working_set, requester_id=0, name="working-set")
    consumer = deployment.server(1)
    points: list[EpochPoint] = []
    engine = deployment.engine
    scans_per_epoch = 2  # re-reads are what make migration pay for itself
    for epoch in range(epochs):
        shards = buffer.shards(consumer.socket.core_count)
        started = engine.now
        for _scan in range(scans_per_epoch):
            plans = [
                pool.access_segments(1, buffer, offset, length)
                for offset, length in shards
            ]
            procs = consumer.socket.parallel_stream(plans)
            engine.run(engine.all_of(procs))
        bandwidth = scans_per_epoch * buffer.size / (engine.now - started)
        migrated = 0
        if balance:
            report = engine.run(balancer.run_epoch())
            migrated = report.bytes_moved
        points.append(
            EpochPoint(
                epoch=epoch,
                bandwidth_gbps=bandwidth,
                locality=pool.locality_fraction(1, buffer),
                bytes_migrated=migrated,
            )
        )
    return points


def run(link: str = "link1", working_set_gib: float = 4.0, epochs: int = 5) -> MigrationResult:
    """The on/off comparison."""
    working_set = int(working_set_gib * gib(1))
    return MigrationResult(
        link=link,
        working_set_gib=working_set_gib,
        with_balancer=tuple(_run_epochs(link, working_set, epochs, balance=True)),
        without_balancer=tuple(_run_epochs(link, working_set, epochs, balance=False)),
    )
