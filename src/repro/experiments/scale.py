"""S1 — population-scale serving: elastic re-flex vs a static split.

The paper's §4.5 lets a server's private/shared boundary flex on
demand; its evaluation never stresses the *policy* question hiding in
that mechanism: when ten thousand tenants with Zipf popularity, diurnal
swell, MMPP bursts, and a scheduled flash crowd share a multi-rack
pool, who decides how much of each server's DRAM is pooled, and what do
the decisions cost?

Two runs over the byte-identical arrival trace (same seed, same
:class:`~repro.scale.traffic.OpenLoopTraffic` streams):

* **static** — every region frozen at the initial shared fraction
  (``flex_on_demand`` off, no controller).  The flash crowd overflows
  the fixed pool and admission rejects.
* **elastic** — same frozen regions, but a
  :class:`~repro.scale.autoscaler.ReflexAutoscaler` observes demand
  through metrics windows and re-flexes splits explicitly, paying
  honest migration costs (evacuated extents move through
  :class:`~repro.core.migration.PressureEvictor` and the transport's
  byte ledger) when it shrinks.

Headline: the elastic run's reject rate inside the flash-crowd window,
against static, with the bytes-migrated bill printed next to it.  The
per-tick metrics snapshots are a time series the PR-4 exporters dump
(``--export DIR`` writes Prometheus text + CSV/JSON series).
"""

from __future__ import annotations

import dataclasses
import pathlib
import typing as _t

from repro.cluster.manager import PoolManager
from repro.core.runtime import LmpRuntime
from repro.errors import ConfigError
from repro.mem.layout import PageGeometry
from repro.obs.export import prometheus_text, timeseries_csv, timeseries_json
from repro.obs.metrics import MetricsRegistry
from repro.scale.autoscaler import AutoscalerConfig, ReflexAction, ReflexAutoscaler
from repro.scale.driver import ScaleDriver
from repro.scale.report import ScaleReport, build_report, comparison_table, crowd_table
from repro.scale.traffic import (
    BurstModel,
    DiurnalCycle,
    FlashCrowd,
    OpenLoopTraffic,
    TrafficSpec,
)
from repro.topology.multirack import MultiRackSpec, build_multirack_deployment
from repro.units import kib, mib, us

#: scaled-down geometry, matching the cluster experiment's
_PAGE = kib(16)
_EXTENT = kib(64)


@dataclasses.dataclass
class ScaleResult:
    """Both runs plus the elastic run's metrics timeline."""

    tenants: int
    racks: int
    servers_per_rack: int
    static: ScaleReport
    elastic: ScaleReport
    registry: MetricsRegistry  # the elastic run's windowed snapshots
    actions: list[ReflexAction]  # the elastic run's flexes and what fired each

    @property
    def elastic_wins_flash(self) -> bool:
        """The acceptance headline: fewer flash-window rejects."""
        return self.elastic.flash_reject_rate < self.static.flash_reject_rate

    def render(self) -> str:
        parts = [
            comparison_table([self.static, self.elastic]),
            crowd_table(self.static),
            crowd_table(self.elastic),
            (
                f"elastic re-flex: {self.elastic.reflex_actions} actions, "
                f"{self.elastic.bytes_migrated / 1024.0:.0f} KiB moved by "
                f"shrinks (evacuations + compaction; transport copied "
                f"{self.elastic.transport_bytes_copied / 1024.0:.0f} KiB "
                f"total), {self.elastic.resize_events} region resizes"
            ),
            (
                "flash-window verdict: elastic "
                f"{100.0 * self.elastic.flash_reject_rate:.2f}% vs static "
                f"{100.0 * self.static.flash_reject_rate:.2f}% rejects "
                f"({'elastic wins' if self.elastic_wins_flash else 'no win'})"
            ),
        ]
        return "\n\n".join(parts)


def _traffic_spec(
    tenants: int,
    duration_ns: float,
    base_rate_ops_s: float,
    hold_mean_ns: float,
    flash_multiplier: float,
) -> TrafficSpec:
    # the crowd lands on a normally-cold slice (ranks 60%..70% of the
    # Zipf tail) for the middle fifth of the run
    return TrafficSpec(
        tenants=tenants,
        base_rate_ops_s=base_rate_ops_s,
        duration_ns=duration_ns,
        zipf_theta=0.99,
        diurnal=DiurnalCycle(period_ns=duration_ns / 2.0, amplitude=0.4),
        bursts=BurstModel(multiplier=3.0, mean_on_ns=us(40), mean_off_ns=us(160)),
        flash_crowds=(
            FlashCrowd(
                start_ns=0.4 * duration_ns,
                duration_ns=0.2 * duration_ns,
                multiplier=flash_multiplier,
                first_slot=int(0.6 * tenants),
                last_slot=max(int(0.6 * tenants) + 1, int(0.7 * tenants)),
                focus=0.8,
            ),
        ),
        alloc_bytes=_EXTENT,
        hold_mean_ns=hold_mean_ns,
        access_fraction=0.25,
        access_bytes=kib(4),
        write_fraction=0.3,
    )


def _build_manager(
    racks: int,
    servers_per_rack: int,
    server_dram_bytes: int,
    shared_fraction: float,
    policy: str,
    seed: int,
) -> PoolManager:
    pod = MultiRackSpec(
        racks=racks,
        servers_per_rack=servers_per_rack,
        server_dram_bytes=server_dram_bytes,
        link="link0",
        trunk_width=4.0,
    )
    deployment = build_multirack_deployment(pod, seed=seed)
    runtime = LmpRuntime(
        deployment,
        geometry=PageGeometry(page_bytes=_PAGE, extent_bytes=_EXTENT),
        shared_fraction=shared_fraction,
        coherent_bytes=kib(64),
        snoop_filter_lines=256,
    )
    manager = PoolManager(runtime, policy=policy)
    # both policies run frozen: splits move only when a controller says
    # so, never implicitly inside pool.allocate
    for region in manager.pool.regions.values():
        region.flex_on_demand = False
    return manager


def _run_one(
    spec: TrafficSpec,
    manager: PoolManager,
    quota_bytes: int,
    autoscaler: ReflexAutoscaler | None,
    label: str,
) -> ScaleReport:
    traffic = OpenLoopTraffic(spec, manager.engine.rng)
    driver = ScaleDriver(manager, traffic, quota_bytes=quota_bytes)
    procs = driver.processes()
    if autoscaler is not None:
        # run the controller past the trace so post-crowd shrinks (and
        # their migration bills) land inside the measured run
        procs.append(autoscaler.run(spec.duration_ns + driver.drain_grace_ns))
    manager.engine.run(manager.engine.all_of(procs))
    return build_report(label, driver, autoscaler)


def run(
    tenants: int = 10_000,
    racks: int = 4,
    servers_per_rack: int = 4,
    server_dram_mib: int = 8,
    shared_fraction: float = 0.35,
    base_rate_ops_us: float = 1.25,
    duration_us: float = 4_000.0,
    hold_mean_us: float = 80.0,
    flash_multiplier: float = 8.0,
    quota_bytes: int = mib(4),
    policy: str = "capacity-balanced",
    seed: int = 0,
    export_dir: _t.Any = None,
) -> ScaleResult:
    """Elastic vs static under the identical 10k-tenant trace."""
    if tenants < 1:
        raise ConfigError(f"need at least one tenant, got {tenants}")
    spec = _traffic_spec(
        tenants=tenants,
        duration_ns=us(duration_us),
        base_rate_ops_s=base_rate_ops_us * 1e6,
        hold_mean_ns=us(hold_mean_us),
        flash_multiplier=flash_multiplier,
    )
    dram = mib(server_dram_mib)

    static_manager = _build_manager(
        racks, servers_per_rack, dram, shared_fraction, policy, seed
    )
    static = _run_one(spec, static_manager, quota_bytes, None, "static")

    elastic_manager = _build_manager(
        racks, servers_per_rack, dram, shared_fraction, policy, seed
    )
    registry = MetricsRegistry()
    registry.add_transport(elastic_manager.runtime.deployment.transport)
    autoscaler = ReflexAutoscaler(
        elastic_manager,
        AutoscalerConfig(
            period_ns=us(50),
            high_watermark=0.80,
            low_watermark=0.40,
            grow_step=0.5,
            max_shared_fraction=0.90,
            # never flex below the static baseline: elastic adds headroom
            # on top of the same floor, it does not gamble the floor away
            min_shared_bytes=int(dram * shared_fraction),
            shrink_headroom=0.25,
        ),
        registry=registry,
    )
    elastic = _run_one(spec, elastic_manager, quota_bytes, autoscaler, "elastic")

    if export_dir is not None:
        out = pathlib.Path(export_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "scale_metrics.prom").write_text(prometheus_text(registry))
        (out / "scale_timeseries.csv").write_text(timeseries_csv(registry))
        (out / "scale_timeseries.json").write_text(timeseries_json(registry))

    return ScaleResult(
        tenants=tenants,
        racks=racks,
        servers_per_rack=servers_per_rack,
        static=static,
        elastic=elastic,
        registry=registry,
        actions=autoscaler.actions,
    )
