"""Roll-up and rendering for open-loop scale runs.

One :class:`ScaleReport` per policy run (static split, elastic), with
the headline numbers the experiment compares: reject rate overall and
inside each flash-crowd window, Jain fairness over per-tenant grants,
grant-latency tails (p50/p99/p99.9) — all read from the manager's
tenant ledger and its ``wait_ns`` histogram — and the honesty ledger:
bytes the autoscaler's re-flexing migrated, cross-checked against the
transport's independent copy counters.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster.fairness import jain_index
from repro.analysis.report import format_table

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scale.autoscaler import ReflexAutoscaler
    from repro.scale.driver import ScaleDriver


@dataclasses.dataclass(frozen=True)
class CrowdWindow:
    """Outcome inside one flash-crowd window."""

    start_ns: float
    end_ns: float
    arrivals: int
    rejected: int

    @property
    def reject_rate(self) -> float:
        return self.rejected / self.arrivals if self.arrivals else 0.0


@dataclasses.dataclass(frozen=True)
class ScaleReport:
    """One run's headline numbers."""

    label: str
    tenants: int
    duration_ns: float
    arrivals: int
    granted: int
    rejected: int
    drained: int
    fairness: float
    latency: dict[str, float]  # Histogram.summary() of grant latency, ns
    crowd_windows: tuple[CrowdWindow, ...]
    bytes_migrated: int
    reflex_actions: int
    resize_events: int
    transport_bytes_copied: int

    @property
    def reject_rate(self) -> float:
        concluded = self.granted + self.rejected
        return self.rejected / concluded if concluded else 0.0

    @property
    def flash_reject_rate(self) -> float:
        """Worst reject rate across flash-crowd windows (the headline)."""
        return max((w.reject_rate for w in self.crowd_windows), default=0.0)


def build_report(
    label: str,
    driver: "ScaleDriver",
    autoscaler: "ReflexAutoscaler | None" = None,
) -> ScaleReport:
    """Roll one finished driver (and its optional autoscaler) up."""
    manager = driver.manager
    spec = driver.traffic.spec
    # the driver registered its tenants in slot order, so this sums in
    # slot order too
    tenants = list(manager.tenants.values())
    # fairness over tenants that asked for anything: a tenant that never
    # arrived was not treated unfairly, it was idle
    active = [float(t.granted) for t in tenants if t.granted or t.rejected]
    windows = tuple(
        CrowdWindow(
            start_ns=crowd.start_ns,
            end_ns=crowd.end_ns,
            arrivals=driver.crowd_arrivals[index],
            rejected=driver.crowd_rejects[index],
        )
        for index, crowd in enumerate(spec.flash_crowds)
    )
    return ScaleReport(
        label=label,
        tenants=spec.tenants,
        duration_ns=driver.engine.now,
        arrivals=driver.arrivals_seen,
        granted=sum(t.granted for t in tenants),
        rejected=sum(t.rejected for t in tenants),
        drained=driver.drained,
        fairness=jain_index(active),
        # every grant records its admission wait, zero when immediate
        latency=manager.stats.histogram("wait_ns").summary(),
        crowd_windows=windows,
        bytes_migrated=autoscaler.bytes_migrated if autoscaler is not None else 0,
        reflex_actions=len(autoscaler.actions) if autoscaler is not None else 0,
        resize_events=sum(
            region.resize_events for region in manager.pool.regions.values()
        ),
        transport_bytes_copied=manager.runtime.deployment.transport.bytes_copied,
    )


def comparison_table(reports: _t.Sequence[ScaleReport]) -> str:
    """The elastic-versus-static table the experiment prints."""
    rows = []
    for r in reports:
        rows.append(
            [
                r.label,
                r.arrivals,
                r.granted,
                f"{100.0 * r.reject_rate:.2f}",
                f"{100.0 * r.flash_reject_rate:.2f}",
                f"{r.fairness:.3f}",
                f"{r.latency.get('p99', 0.0) / 1e3:.2f}",
                f"{r.latency.get('p99.9', 0.0) / 1e3:.2f}",
                f"{r.bytes_migrated / 1024.0:.0f}",
            ]
        )
    return format_table(
        [
            "run",
            "arrivals",
            "granted",
            "reject %",
            "flash reject %",
            "Jain",
            "p99 us",
            "p99.9 us",
            "migrated KiB",
        ],
        rows,
        title="open-loop serving: elastic re-flex vs static split",
    )


def crowd_table(report: ScaleReport) -> str:
    """Per-flash-crowd window breakdown for one run."""
    rows = [
        [
            f"{w.start_ns / 1e3:.0f}..{w.end_ns / 1e3:.0f}us",
            w.arrivals,
            w.rejected,
            f"{100.0 * w.reject_rate:.2f}",
        ]
        for w in report.crowd_windows
    ]
    return format_table(
        ["window", "arrivals", "rejected", "reject %"],
        rows,
        title=f"flash-crowd windows ({report.label})",
    )
