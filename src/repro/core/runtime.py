"""The LMP runtime: one object tying the whole system together.

§3.2: "Implementing LMPs requires a per-server runtime and an
application library for allocating, controlling, and setting up
disaggregated memory access ... Furthermore, the runtime must execute
at least two background tasks: one for adjusting the size of shared
regions to minimize remote accesses, and another to find opportunities
for buffer migration."

:class:`LmpRuntime` owns the pool, the profiler, the locality balancer,
the coherent region, the compute-shipping runtime, and
:meth:`~LmpRuntime.background_epoch`, one period of both §3.2 tasks.
Applications talk to it
through :class:`~repro.core.api.LmpSession`.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.coherence.protocol import CoherenceDirectory
from repro.core.compute import ComputeRuntime
from repro.core.migration import BalancerReport, LocalityBalancer, PressureEvictor
from repro.core.pool import LogicalMemoryPool
from repro.core.profiling import AccessProfiler
from repro.errors import ConfigError
from repro.mem.interleave import PlacementPolicy
from repro.mem.layout import PageGeometry
from repro.topology.builder import Deployment
from repro.units import mib

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.process import Process


@dataclasses.dataclass
class EpochReport:
    """One background period's work."""

    epoch: int
    balancer: BalancerReport
    shared_bytes: dict[int, int]
    locality_ratio: float


class LmpRuntime:
    """Everything a logical-pool deployment runs."""

    def __init__(
        self,
        deployment: Deployment,
        geometry: PageGeometry | None = None,
        placement: PlacementPolicy | None = None,
        shared_fraction: float = 1.0,
        coherent_bytes: int = mib(64),
        snoop_filter_lines: int = 4096,
        sizing_headroom: float = 0.25,
        profiler: AccessProfiler | None = None,
        balancer_gain_threshold: float = 2.0,
    ) -> None:
        if sizing_headroom < 0:
            raise ConfigError(f"sizing_headroom must be >= 0, got {sizing_headroom}")
        self.deployment = deployment
        self.engine = deployment.engine
        self.pool = LogicalMemoryPool(
            deployment,
            geometry=geometry,
            placement=placement,
            shared_fraction=shared_fraction,
            coherent_bytes=coherent_bytes,
        )
        self.profiler = profiler or AccessProfiler()
        # gain_threshold is in units of extent re-reads per epoch;
        # bandwidth-bound tenants keep the default (a move must pay for
        # its copy), latency-bound tenants set it near zero so small hot
        # objects migrate toward their readers
        self.balancer = LocalityBalancer(
            self.pool, self.profiler, gain_threshold=balancer_gain_threshold
        )
        self.coherence = CoherenceDirectory(
            deployment,
            region_bytes=coherent_bytes,
            snoop_filter_lines=snoop_filter_lines,
        )
        self.compute = ComputeRuntime(self.pool)
        self.evictor = PressureEvictor(self.pool, self.profiler)
        self.sizing_headroom = sizing_headroom
        self._next_coherent_line = 0
        self.epoch_reports: list[EpochReport] = []

    def session(self, server_id: int, observer: _t.Any = None) -> "_t.Any":
        """Open an :class:`~repro.core.api.LmpSession` homed on
        *server_id*; *observer* is a
        :class:`~repro.core.api.SessionObserver` a control plane uses to
        meter the session (lease and quota accounting)."""
        from repro.core.api import LmpSession

        return LmpSession(self, server_id, observer=observer)

    # -- coherent-line allocation (for the sync primitives) -----------------------

    def allocate_coherent_lines(self, count: int) -> int:
        """Reserve *count* consecutive coherent lines; returns the first."""
        if count < 1:
            raise ConfigError(f"need >= 1 lines, got {count}")
        first = self._next_coherent_line
        if first + count > self.coherence.line_count:
            raise ConfigError(
                f"coherent region exhausted: {self.coherence.line_count} lines, "
                f"{first} used, {count} requested"
            )
        self._next_coherent_line += count
        return first

    def reclaim_private(self, server_id: int, nbytes: int) -> "Process":
        """Give *server_id* back *nbytes* of private memory, evicting or
        compacting shared extents as needed (§5: local memory must not
        stay "monopolized by remote servers").  The process returns a
        :class:`~repro.core.migration.ReclaimReport`."""
        return self.evictor.reclaim(server_id, nbytes)

    # -- the §3.2 background tasks ---------------------------------------------

    def background_epoch(self) -> "Process":
        """One period of both background tasks: locality balancing, then
        shared-region resizing toward observed demand.  The process
        returns an :class:`EpochReport`."""
        return self.engine.process(self._epoch_body(), name="runtime.epoch")

    def _epoch_body(self):
        locality = self.profiler.locality_ratio()
        balancer_report = yield self.balancer.run_epoch()
        # Task 2: trim each server's shared region toward what is
        # actually used, with headroom — releasing memory to private use
        # without stranding pool demand.
        shared_after: dict[int, int] = {}
        for sid, region in self.pool.regions.items():
            used = region.shared_used_bytes
            target = int(used * (1.0 + self.sizing_headroom))
            shared_after[sid] = region.set_shared_target(max(target, used))
        report = EpochReport(
            epoch=balancer_report.epoch,
            balancer=balancer_report,
            shared_bytes=shared_after,
            locality_ratio=locality,
        )
        self.epoch_reports.append(report)
        return report
