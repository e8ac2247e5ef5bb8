"""The elastic re-flex autoscaler (§4.5 closed into a control loop).

The paper's re-flexing is demand-driven and implicit: ``pool.allocate``
converts private headroom the instant a grant needs it.  That policy is
always maximally generous and never gives memory *back* — a server that
absorbed one burst keeps its DRAM flexed shared forever.  This module
makes the policy explicit: servers run with ``flex_on_demand`` off
(frozen splits) and a :class:`ReflexAutoscaler` observes demand through
:mod:`repro.obs` metrics windows, growing a server's shared region when
utilization or admission pressure is high and shrinking it back — with
honest migration costs through
:meth:`~repro.cluster.manager.PoolManager.reflex` — when demand fades.

The controller is deliberately simple (watermarks + proportional step):
the experiment's point is the *seam* — split decisions observable,
costed, and replayable — not controller sophistication.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigError
from repro.units import us

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.manager import PoolManager
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.process import Process


@dataclasses.dataclass(frozen=True)
class AutoscalerConfig:
    """Watermark controller knobs."""

    period_ns: float = us(50)
    high_watermark: float = 0.80  # shared utilization that triggers a grow
    low_watermark: float = 0.40  # shared utilization that allows a shrink
    grow_step: float = 0.5  # fraction of remaining headroom taken per grow
    max_shared_fraction: float = 0.90  # never flex past this much of DRAM
    min_shared_bytes: int = 0
    shrink_headroom: float = 0.25  # keep used*(1+this) shared when shrinking

    def __post_init__(self) -> None:
        if self.period_ns <= 0:
            raise ConfigError(f"period must be positive, got {self.period_ns}")
        if not 0.0 < self.low_watermark < self.high_watermark <= 1.0:
            raise ConfigError(
                "need 0 < low_watermark < high_watermark <= 1, got "
                f"{self.low_watermark}/{self.high_watermark}"
            )
        if not 0.0 < self.grow_step <= 1.0:
            raise ConfigError(f"grow_step must be in (0, 1], got {self.grow_step}")
        if not 0.0 < self.max_shared_fraction <= 1.0:
            raise ConfigError(
                f"max_shared_fraction must be in (0, 1], got {self.max_shared_fraction}"
            )
        if self.min_shared_bytes < 0:
            raise ConfigError("min_shared_bytes cannot be negative")
        if self.shrink_headroom < 0:
            raise ConfigError("shrink_headroom cannot be negative")


@dataclasses.dataclass(frozen=True)
class ReflexAction:
    """One autoscaler decision: what it saw, what it did and what that
    cost."""

    when_ns: float
    server_id: int
    kind: str  # "grow" | "shrink"
    target_shared_bytes: int
    shared_before: int
    shared_after: int
    bytes_evacuated: int
    bytes_relocated: int
    utilization: float  # the server's shared utilization at decision time
    pressured: bool  # admission rejected or queued since the last tick
    trigger: str  # "pressure" | "high_watermark" | "low_watermark"


class _Decision(_t.NamedTuple):
    server_id: int
    target_shared_bytes: int
    kind: str
    utilization: float
    trigger: str


class ReflexAutoscaler:
    """Watermark control loop over :meth:`PoolManager.reflex`.

    Each tick it reads two signals: per-server shared utilization and
    rack-level admission pressure (capacity rejections or a non-empty
    queue since the last tick).  Pressure grows the most-utilized
    servers even below the watermark — rejected tenants are demand the
    utilization gauge cannot see.  Every action's migration bytes are
    accumulated in :attr:`bytes_migrated`, the experiment's honesty
    ledger."""

    def __init__(
        self,
        manager: "PoolManager",
        config: AutoscalerConfig | None = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self.manager = manager
        self.engine = manager.engine
        self.config = config or AutoscalerConfig()
        self.registry = registry
        self.actions: list[ReflexAction] = []
        self.bytes_migrated = 0
        self.ticks = 0
        self._last_rejected = self._rejected_now()
        if registry is not None:
            registry.add_statset("cluster", manager.stats, self.engine)
            registry.register_source(self._scrape_regions)

    # -- observability -------------------------------------------------------

    def _scrape_regions(self) -> _t.Iterator[tuple[str, dict[str, str], float]]:
        pool = self.manager.pool
        for sid in sorted(pool.regions):
            region = pool.regions[sid]
            labels = {"server": str(sid)}
            yield "repro_scale_shared_bytes", labels, float(region.shared_bytes)
            yield "repro_scale_shared_used_bytes", labels, float(region.shared_used_bytes)
            yield "repro_scale_shared_utilization", labels, region.shared_utilization
        yield "repro_scale_autoscaler_actions_total", {}, float(len(self.actions))
        yield "repro_scale_autoscaler_bytes_migrated_total", {}, float(self.bytes_migrated)

    def _rejected_now(self) -> float:
        return self.manager.stats.counter("rejected.capacity").value

    # -- the control loop ----------------------------------------------------

    def run(self, duration_ns: float) -> "Process":
        """Drive the loop for *duration_ns*; the process returns the
        list of :class:`ReflexAction` records it took."""
        if duration_ns <= 0:
            raise ConfigError(f"duration must be positive, got {duration_ns}")
        return self.engine.process(self._body(duration_ns), name="scale.autoscaler")

    def _body(self, duration_ns: float):
        cfg = self.config
        ticks = max(1, int(duration_ns // cfg.period_ns))
        for _tick in range(ticks):
            yield self.engine.timeout(cfg.period_ns)
            self.ticks += 1
            rejected = self._rejected_now()
            pressured = (
                rejected > self._last_rejected or self.manager.queue_depth > 0
            )
            self._last_rejected = rejected
            for decision in self._decide(pressured):
                server_id = decision.server_id
                before = self.manager.pool.regions[server_id].shared_bytes
                report = yield self.manager.reflex(server_id, decision.target_shared_bytes)
                self.bytes_migrated += report.bytes_evacuated + report.bytes_relocated
                self.actions.append(
                    ReflexAction(
                        when_ns=self.engine.now,
                        server_id=server_id,
                        kind=decision.kind,
                        target_shared_bytes=decision.target_shared_bytes,
                        shared_before=before,
                        shared_after=report.shared_after,
                        bytes_evacuated=report.bytes_evacuated,
                        bytes_relocated=report.bytes_relocated,
                        utilization=decision.utilization,
                        pressured=pressured,
                        trigger=decision.trigger,
                    )
                )
            if self.registry is not None:
                # windowed sample: the flash-crowd timeline the exporters dump
                self.registry.snapshot(0, self.engine.now)
        return self.actions

    def _decide(self, pressured: bool) -> list[_Decision]:
        """This tick's decisions, each with the utilization it read and
        the signal that fired it."""
        cfg = self.config
        pool = self.manager.pool
        decisions: list[_Decision] = []
        for sid in sorted(pool.regions):
            region = pool.regions[sid]
            if not self.manager.runtime.deployment.server(sid).alive:
                continue
            page = region.page_bytes
            cap = int(region.capacity_bytes * cfg.max_shared_fraction) // page * page
            shared = region.shared_bytes
            util = region.shared_utilization
            if pressured and shared < cap:
                # admission is rejecting/queueing: demand already outran
                # the pool, so skip the ramp and flex straight to the cap
                decisions.append(_Decision(sid, cap, "grow", util, "pressure"))
            elif util >= cfg.high_watermark and shared < cap:
                step = max(page, int((cap - shared) * cfg.grow_step) // page * page)
                target = min(cap, shared + step)
                decisions.append(_Decision(sid, target, "grow", util, "high_watermark"))
            elif util < cfg.low_watermark and not pressured:
                keep = int(region.shared_used_bytes * (1.0 + cfg.shrink_headroom))
                target = max(cfg.min_shared_bytes, -(-keep // page) * page)
                if target <= shared - page:
                    decisions.append(_Decision(sid, target, "shrink", util, "low_watermark"))
        return decisions
