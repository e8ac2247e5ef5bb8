"""Seed-determinism harness: run a scenario twice, diff its event streams.

The evaluation's ratios are only trustworthy if reruns reproduce
bit-identical traces (DESIGN.md).  The harness adds an event sink to
the defaults every new :class:`~repro.sim.engine.Engine` takes
(:data:`repro.sim.engine.DEFAULTS`) — so it sees every engine a
scenario builds internally — renders each dispatched event as one
text line, and compares the two streams byte for byte, reporting the
first divergent event.
"""

from __future__ import annotations

import contextlib
import dataclasses
import typing as _t

from repro.errors import DeterminismError
from repro.sim.engine import DEFAULTS, Engine


def format_dispatch(when: float, seq: int, event: _t.Any) -> str:
    """One dispatched event as the text line the two runs compare."""
    return (
        f"[{when:14.1f}ns] {'engine':<24} {'engine.step':<20} "
        f"event={type(event).__name__} name={getattr(event, 'name', '')} seq={seq}"
    )


def _scenario_figure2() -> _t.Any:
    from repro.experiments.figures import run_figure

    return run_figure("figure2", links=("link0",), repetitions=2)


def _scenario_incast() -> _t.Any:
    from repro.experiments import incast

    return incast.run()


def _scenario_migration() -> _t.Any:
    from repro.experiments import migration

    return migration.run()


def _scenario_cluster() -> _t.Any:
    from repro.experiments import cluster

    return cluster.run(
        policies=("first-fit", "capacity-balanced"),
        tenant_count=4,
        ops_per_tenant=10,
        sweep_tenant_counts=(4, 8),
        sweep_shared_fractions=(0.5,),
    )


def _scenario_obs() -> _t.Any:
    """A cluster run with :mod:`repro.obs` fully installed.

    Beyond the harness's engine-stream diff, the scenario itself runs
    the workload twice with fresh recorders and insists the exported
    Chrome trace JSON is byte-identical — span ids, parenting, and
    every attribute must be functions of the seed alone.
    """
    from repro.cluster.driver import ClusterDriver, WorkloadMix
    from repro.cluster.tenants import PriorityClass
    from repro.experiments.cluster import _manager, _specs
    from repro.obs import Observability, chrome_trace
    from repro.units import kib, mib

    def one_run() -> str:
        obs = Observability()
        with obs.activated():
            manager = _manager(
                "first-fit",
                server_count=2,
                server_dram_bytes=mib(8),
                shared_fraction=0.75,
                seed=0,
            )
            mix = WorkloadMix(
                alloc_bytes=kib(192), access_bytes=kib(4), lock_fraction=0.25
            )
            driver = ClusterDriver(manager, mix=mix)
            specs = _specs(
                4, 2, quota_bytes=mib(8), priority=PriorityClass.STANDARD
            )
            driver.run(specs, ops_per_tenant=8)
        return chrome_trace(obs)

    first = one_run()
    second = one_run()
    if first != second:
        raise DeterminismError(
            "obs: exported Chrome traces differ between two same-seed runs"
        )
    return first


def _scenario_scale() -> _t.Any:
    """A reduced open-loop serving run (elastic vs static), twice.

    The engine-stream diff covers the 10k-tenant machinery end to end
    (open-loop traffic, slotted driver, autoscaler reflexes); rendering
    the report twice additionally pins every derived number — reject
    rates, Jain index, migration bytes — to the seed."""
    from repro.experiments import scale

    def one_run() -> str:
        return scale.run(
            tenants=300,
            racks=2,
            servers_per_rack=2,
            duration_us=300.0,
            base_rate_ops_us=0.8,
        ).render()

    first = one_run()
    second = one_run()
    if first != second:
        raise DeterminismError(
            "scale: rendered reports differ between two same-seed runs"
        )
    return first


def _scenario_alloc() -> _t.Any:
    """A reduced allocator-gauntlet run, compared at two levels.

    The harness's engine-stream diff covers the DES compaction replays;
    on top of that the scenario renders the full experiment twice and
    insists the report text — every fragmentation score, every
    compaction byte count — is byte-identical."""
    from repro.experiments import alloc

    first = alloc.run(ops=2000, ablation_ops=4000).render()
    second = alloc.run(ops=2000, ablation_ops=4000).render()
    if first != second:
        raise DeterminismError(
            "alloc: rendered gauntlet reports differ between two same-seed runs"
        )
    return first


#: scenario name -> zero-argument callable; reduced sizes keep reruns cheap
SCENARIOS: dict[str, _t.Callable[[], _t.Any]] = {
    "figure2": _scenario_figure2,
    "incast": _scenario_incast,
    "migration": _scenario_migration,
    "cluster": _scenario_cluster,
    "obs": _scenario_obs,
    "alloc": _scenario_alloc,
    "scale": _scenario_scale,
}


@dataclasses.dataclass(frozen=True)
class DeterminismReport:
    """Outcome of one twice-run scenario comparison."""

    scenario: str
    events_first: int
    events_second: int
    first_divergence: int | None  # index of the first differing event
    line_first: str | None
    line_second: str | None

    @property
    def identical(self) -> bool:
        return (
            self.first_divergence is None and self.events_first == self.events_second
        )

    def render(self) -> str:
        if self.identical:
            return (
                f"{self.scenario}: deterministic "
                f"({self.events_first} events, byte-identical)"
            )
        lines = [
            f"{self.scenario}: NONDETERMINISTIC "
            f"({self.events_first} vs {self.events_second} events)"
        ]
        if self.first_divergence is not None:
            lines.append(f"  first divergence at event #{self.first_divergence}:")
            lines.append(f"    run 1: {self.line_first or '<stream ended>'}")
            lines.append(f"    run 2: {self.line_second or '<stream ended>'}")
        return "\n".join(lines)

    def raise_on_divergence(self) -> None:
        if not self.identical:
            raise DeterminismError(self.render())


class DeterminismHarness:
    """Runs scenarios twice and diffs the engines' dispatch streams."""

    def __init__(
        self, scenarios: _t.Mapping[str, _t.Callable[[], _t.Any]] | None = None
    ) -> None:
        self.scenarios = dict(SCENARIOS if scenarios is None else scenarios)

    @contextlib.contextmanager
    def _capture(self) -> _t.Iterator[list[str]]:
        """Append one formatted line per dispatch, from every engine
        built inside the block."""
        lines: list[str] = []

        def sink(_engine: Engine, when: float, seq: int, event: _t.Any) -> None:
            lines.append(format_dispatch(when, seq, event))

        DEFAULTS.sinks.append(sink)
        try:
            yield lines
        finally:
            DEFAULTS.sinks.remove(sink)

    def capture(self, scenario: _t.Callable[[], _t.Any]) -> list[str]:
        """One run's event stream, one formatted line per dispatch."""
        with self._capture() as lines:
            scenario()
        return lines

    def run(self, name: str) -> DeterminismReport:
        """Run scenario *name* twice; compare the streams."""
        try:
            scenario = self.scenarios[name]
        except KeyError:
            raise DeterminismError(
                f"unknown determinism scenario {name!r}; "
                f"known: {', '.join(sorted(self.scenarios))}"
            ) from None
        first = self.capture(scenario)
        second = self.capture(scenario)
        divergence: int | None = None
        line_first: str | None = None
        line_second: str | None = None
        for i, (a, b) in enumerate(zip(first, second)):
            if a != b:
                divergence, line_first, line_second = i, a, b
                break
        if divergence is None and len(first) != len(second):
            divergence = min(len(first), len(second))
            line_first = first[divergence] if divergence < len(first) else None
            line_second = second[divergence] if divergence < len(second) else None
        return DeterminismReport(
            scenario=name,
            events_first=len(first),
            events_second=len(second),
            first_divergence=divergence,
            line_first=line_first,
            line_second=line_second,
        )

    def run_all(self) -> list[DeterminismReport]:
        return [self.run(name) for name in sorted(self.scenarios)]
