"""The four lmpbench workloads.

Each workload builds its inputs from the seed, runs passes whose timed
phase is the simulation itself, and checks its own outputs.  Every layer
is driven through public ``repro`` objects; the one exception is
:meth:`_TimedScaleDriver._request_body` (see its docstring).

A pass returns a :class:`PassResult`.  ``sim`` holds the simulated
outcomes, which repeat bit-for-bit for a given seed; ``counts`` holds
exact per-layer counts read from the pass's objects afterwards.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import math
import pathlib
import time
import typing as _t

from repro.cluster.driver import ClusterDriver, WorkloadMix
from repro.cluster.manager import PoolManager
from repro.cluster.tenants import TenantSpec
from repro.core.pool import LogicalMemoryPool, PhysicalMemoryPool
from repro.core.runtime import LmpRuntime
from repro.errors import AdmissionError, TenantRevokedError
from repro.experiments.figures import FIGURE_SIZES, run_figure
from repro.mem.layout import PageGeometry
from repro.obs.metrics import MetricsRegistry
from repro.scale import (
    AutoscalerConfig,
    BurstModel,
    DiurnalCycle,
    FlashCrowd,
    OpenLoopTraffic,
    ReflexAutoscaler,
    ScaleDriver,
    TrafficSpec,
)
from repro.scale.report import build_report, comparison_table
from repro.sim.rng import RngStreams
from repro.sim.stats import Histogram
from repro.topology.builder import build_logical, build_physical
from repro.topology.multirack import MultiRackSpec, build_multirack_deployment
from repro.units import kib, mib, us

#: committed experiment outputs the full-size runs must reproduce
RESULTS_DIR = pathlib.Path(__file__).resolve().parents[1] / "results"

LINKS = ("link0", "link1")

#: simulated outcomes every workload reports (0 where one does not apply),
#: with their units
SIMULATED = {
    "model.gbps": "GB/s",
    "model.latency_p50": "sim-us",
    "model.latency_p99": "sim-us",
    "model.reject_pct": "%",
    "model.flash_reject_pct": "%",
    "model.migrated_mib": "MiB",
    "model.paper_err_pct": "%",
}

#: exact per-layer counts every workload reports (0 where one does not apply)
COUNT_KEYS = (
    "cluster.admission.grants",
    "cluster.admission.rejects",
    "cluster.admission.grant_ratio",
    "cluster.admission.grant_p99_us",
    "core.migration.bytes",
    "core.regions.resizes",
    "scale.traffic.arrivals",
    "scale.autoscaler.actions",
    "scale.pump.max_lag_ns",
)

#: paper points the model was not tuned on: (figure, link, baseline, speedup)
PAPER_POINTS = (
    ("figure2", "link1", "Physical no-cache", 4.7),
    ("figure3", "link0", "Physical cache", 3.4),
    ("figure4", "link1", "Physical cache", 1.42),
)


class Phase:
    """Times the phase a pass measures, optionally under a profiler.

    Setup (building the rack and the driver) stays outside it.  ``wall_s``
    is read on *clock*; ``raw_s`` always on ``time.perf_counter``."""

    def __init__(self, clock: _t.Callable[[], float] = time.perf_counter,
                 profiler: _t.Any = None) -> None:
        self.clock = clock
        self.profiler = profiler
        self.wall_s = 0.0
        self.raw_s = 0.0
        self._started = (0.0, 0.0)

    def __enter__(self) -> "Phase":
        if self.profiler is not None:
            self.profiler.enable()
        self._started = (self.clock(), time.perf_counter())
        return self

    def __exit__(self, *exc: _t.Any) -> None:
        self.raw_s += time.perf_counter() - self._started[1]
        self.wall_s += self.clock() - self._started[0]
        if self.profiler is not None:
            self.profiler.disable()


@dataclasses.dataclass
class PassResult:
    wall_s: float
    raw_s: float
    attempted: int
    sim: dict[str, float]
    counts: dict[str, float]
    failed_ops: int = 0  # data ops that raised
    failures: list[str] = dataclasses.field(default_factory=list)


def _filled(keys: _t.Sequence[str], values: dict[str, float] | None = None) -> dict[str, float]:
    """*values* over a zero for every key in *keys*."""
    out = {key: 0.0 for key in keys}
    for key, value in (values or {}).items():
        if key not in out:
            raise KeyError(key)
        out[key] = float(value)
    return out


def _manager_counts(stat_sets: _t.Sequence[_t.Any], resizes: float) -> dict[str, float]:
    """Admission counts summed over the managers' ``stats``."""
    grants = rejects = 0.0
    waits = Histogram()
    for stats in stat_sets:
        grants += stats.counter("granted").value
        rejects += stats.counter("rejected.quota").value + stats.counter("rejected.capacity").value
        waits.merge(stats.histogram("wait_ns"))
    return {
        "cluster.admission.grants": grants,
        "cluster.admission.rejects": rejects,
        "cluster.admission.grant_ratio": grants / (grants + rejects) if grants + rejects else 0.0,
        "cluster.admission.grant_p99_us": waits.quantile(0.99) / 1e3 if len(waits) else 0.0,
        "core.regions.resizes": float(resizes),
    }


# -- figures -------------------------------------------------------------------


class Figures:
    """Figures 2-5 through ``run_figure``: the paper's own numbers.

    Closed loop and seed-free: the model has no random inputs, so the
    seed is accepted and unused."""

    name = "figures"

    def __init__(self, seed: int, quick: bool, figures: tuple[str, ...] = ()) -> None:
        self.seed = seed
        self.quick = quick
        self.figures = figures or (("figure2", "figure5") if quick else tuple(FIGURE_SIZES))
        self.repetitions = 1 if quick else 10

    def split_source(self) -> "Figures":
        """What the traced run replays under ``repro.obs``: the whole
        sweep takes twice as long there, so figures 2 and 3 stand in."""
        return Figures(self.seed, self.quick, ("figure2",) if self.quick else ("figure2", "figure3"))

    def setup(self) -> None:
        """What one ``run_figure`` call constructs: three pools per link."""
        for link in LINKS:
            LogicalMemoryPool(build_logical(link))
            PhysicalMemoryPool(build_physical(link, cache=True))
            PhysicalMemoryPool(build_physical(link, cache=False))

    def run_pass(self, phase: Phase) -> PassResult:
        # run_figure builds its own racks, so construction is inside the phase
        with phase:
            results = {f: run_figure(f, repetitions=self.repetitions) for f in self.figures}
        logical = [
            r.bandwidth("Logical", link)
            for f, r in results.items()
            if f != "figure5"
            for link in LINKS
        ]
        errors = [
            abs(results[f].speedup(link, over) / paper - 1.0)
            for f, link, over, paper in PAPER_POINTS
            if f in results
        ]
        return PassResult(
            wall_s=phase.wall_s,
            raw_s=phase.raw_s,
            attempted=sum(len(r.results) for r in results.values()),
            sim=_filled(
                SIMULATED,
                {
                    "model.gbps": math.exp(sum(map(math.log, logical)) / len(logical)),
                    "model.paper_err_pct": 100.0 * sum(errors) / len(errors),
                },
            ),
            counts=_filled(COUNT_KEYS),
            failures=self._check(results),
        )

    def _check(self, results: dict[str, _t.Any]) -> list[str]:
        failures = []
        speedup = results["figure2"].speedup("link1", "Physical no-cache")
        if abs(speedup - 4.6) > 0.3:
            failures.append(f"figure2 link1 Logical/no-cache is {speedup:.2f}x, not 4.6 +- 0.3x")
        for link in LINKS if "figure5" in results else ():
            fig5 = results["figure5"]
            if not fig5.feasible("Logical", link):
                failures.append(f"figure5 {link}: Logical cannot run the 96 GB vector")
            for config in ("Physical cache", "Physical no-cache"):
                if fig5.feasible(config, link):
                    failures.append(f"figure5 {link}: {config} ran a 96 GB vector")
        if not self.quick:
            for figure, result in results.items():
                committed = (RESULTS_DIR / f"{figure}.txt").read_text()
                if result.render() + "\n" != committed:
                    failures.append(f"{figure} differs from benchmarks/results/{figure}.txt")
        return failures


# -- dense ---------------------------------------------------------------------


class Dense:
    """A saturated closed loop: ``bench_engine.cluster_dense``'s shape,
    twice the ops, on the hybrid fluid path."""

    name = "dense"

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.tenants, self.ops = (64, 4) if quick else (1024, 24)

    def split_source(self) -> "Dense":
        return self

    def setup(self) -> tuple[ClusterDriver, list[TenantSpec]]:
        deployment = build_logical(
            "link0",
            seed=self.seed,
            server_count=4,
            server_dram_bytes=mib(512),
            hybrid_fluid=True,
        )
        runtime = LmpRuntime(
            deployment,
            geometry=PageGeometry(page_bytes=kib(256), extent_bytes=mib(1)),
            coherent_bytes=kib(64),
            snoop_filter_lines=256,
        )
        driver = ClusterDriver(
            PoolManager(runtime, policy="capacity-balanced"),
            mix=WorkloadMix(
                alloc_fraction=0.05,
                free_fraction=0.02,
                alloc_bytes=kib(512),
                access_bytes=kib(256),
            ),
        )
        specs = [
            TenantSpec(tenant_id=f"t{i:04d}", home_server=i % 4, quota_bytes=mib(1))
            for i in range(self.tenants)
        ]
        return driver, specs

    def run_pass(self, phase: Phase) -> PassResult:
        driver, specs = self.setup()
        with phase:
            report = driver.run(specs, self.ops)
        manager = driver.manager
        transport = manager.runtime.deployment.transport
        latency = report.latency_summary()
        attempted = self.tenants * self.ops
        killed = sum(1 for tenant in report.tenants if tenant.killed)
        resizes = sum(region.resize_events for region in manager.pool.regions.values())
        counts = _filled(COUNT_KEYS, _manager_counts([manager.stats], resizes))
        failures = []
        if report.leases_leaked:
            failures.append(f"{report.leases_leaked} leases leaked")
        concluded = report.total_ops + counts["cluster.admission.rejects"]
        if not killed and concluded != attempted:
            failures.append(f"{concluded:.0f} ops concluded of {attempted} attempted")
        return PassResult(
            wall_s=phase.wall_s,
            raw_s=phase.raw_s,
            attempted=attempted,
            sim=_filled(
                SIMULATED,
                {
                    "model.gbps": (transport.bytes_read + transport.bytes_written)
                    / report.duration_ns,
                    "model.latency_p50": latency["p50"] / 1e3,
                    "model.latency_p99": latency["p99"] / 1e3,
                    "model.reject_pct": 100.0 * report.rejection_rate,
                },
            ),
            counts=counts,
            failed_ops=killed,
            failures=failures,
        )


# -- flash ---------------------------------------------------------------------

if not hasattr(ScaleDriver, "_request_body"):
    raise RuntimeError(
        "ScaleDriver._request_body is gone: the flash workloads' "
        "arrival-to-completion hook needs a replacement"
    )


class _TimedScaleDriver(ScaleDriver):
    """ScaleDriver that times each request from arrival to data-op completion.

    Arrival-to-completion latency has no public surface yet, so this
    overrides ``ScaleDriver._request_body``, the one non-public name the
    benchmark touches.  It steps the original body by hand rather than
    with ``yield from`` so it sees what is thrown into it: an admission
    refusal at the first yield, or a data-op error the body absorbs."""

    def __init__(self, *args: _t.Any, **kwargs: _t.Any) -> None:
        super().__init__(*args, **kwargs)
        self.latency = Histogram()
        self.requests = 0
        self.refused = 0
        self.failed_data_ops = 0
        self.max_lag_ns = 0.0

    def _request_body(self, arrival: _t.Any) -> _t.Generator[_t.Any, _t.Any, None]:
        engine = self.engine
        lag = engine.now - arrival.when_ns
        if lag > self.max_lag_ns:
            self.max_lag_ns = lag
        body = super()._request_body(arrival)
        step, value = body.send, None
        yields, outcome = 0, "ok"
        while True:
            try:
                target = step(value)
            except StopIteration:
                break
            yields += 1
            try:
                value, step = (yield target), body.send
            except BaseException as exc:  # forwarded: the body decides what it absorbs
                refusal = yields == 1 and isinstance(exc, (AdmissionError, TenantRevokedError))
                outcome = "refused" if refusal else "failed"
                value, step = exc, body.throw
        self.requests += 1
        if outcome == "refused":
            self.refused += 1
        elif outcome == "failed":
            self.failed_data_ops += 1
        elif arrival.access:
            self.latency.record(engine.now - arrival.when_ns)


class _TrafficStreams:
    """The RNG streams ``OpenLoopTraffic`` draws from.

    Arrival instants and the MMPP burst timeline come from the reference
    seed 0, so every trace offers S1's load; tenant picks and request
    shapes (hold time, data op, read/write) come from the trace's seed.
    With the whole trace seeded, arrivals range from 14k to 20k per
    trace across seeds and host time follows them."""

    FIXED = ("scale.traffic.arrivals", "scale.traffic.bursts")
    SEEDED = ("scale.traffic.tenants", "scale.traffic.shape")

    def __init__(self, seed: int) -> None:
        self._fixed = RngStreams(0)
        self._seeded = RngStreams(seed)

    def stream(self, name: str) -> _t.Any:
        if name in self.FIXED:
            return self._fixed.stream(name)
        if name in self.SEEDED:
            return self._seeded.stream(name)
        raise RuntimeError(f"OpenLoopTraffic asked for unknown stream {name!r}")


class Flash:
    """S1's open loop, built as ``repro run scale`` builds it, static or elastic.

    A pass replays ``traces`` traces; trace ``i`` of seed ``s`` is seeded
    ``s * traces + i``, so seed 0's first trace is S1's own.  One trace
    is not enough: per trace, the elastic autoscaler settles at either
    about 4.4% or 6.8% rejects, and host time follows."""

    def __init__(self, seed: int, quick: bool, elastic: bool) -> None:
        self.name = "flash_elastic" if elastic else "flash_static"
        self.label = "elastic" if elastic else "static"
        self.seed = seed
        self.quick = quick
        self.elastic = elastic
        self.traces = 2 if quick else 4
        self.tenants = 1_000 if quick else 10_000
        self.server_dram = mib(8)
        self.shared_fraction = 0.35
        duration = us(400.0 if quick else 4_000.0)
        self.spec = TrafficSpec(
            tenants=self.tenants,
            base_rate_ops_s=1.25e6,  # 1.25 arrivals per simulated us
            duration_ns=duration,
            zipf_theta=0.99,
            diurnal=DiurnalCycle(period_ns=duration / 2.0, amplitude=0.4),
            bursts=BurstModel(multiplier=3.0, mean_on_ns=us(40), mean_off_ns=us(160)),
            flash_crowds=(
                FlashCrowd(
                    start_ns=0.4 * duration,
                    duration_ns=0.2 * duration,
                    multiplier=8.0,
                    first_slot=int(0.6 * self.tenants),
                    last_slot=max(int(0.6 * self.tenants) + 1, int(0.7 * self.tenants)),
                    focus=0.8,
                ),
            ),
            alloc_bytes=kib(64),
            hold_mean_ns=us(80.0),
            access_fraction=0.25,
            access_bytes=kib(4),
            write_fraction=0.3,
        )

    def split_source(self) -> None:
        """No model split: ``ScaleDriver._obs`` is not wired yet."""
        return None

    def trace_seeds(self) -> range:
        return range(self.seed * self.traces, (self.seed + 1) * self.traces)

    def traffic(self, trace_seed: int) -> OpenLoopTraffic:
        return OpenLoopTraffic(self.spec, _TrafficStreams(trace_seed))

    def setup(
        self, trace_seed: int | None = None
    ) -> tuple[PoolManager, _TimedScaleDriver, ReflexAutoscaler | None, list]:
        if trace_seed is None:
            trace_seed = self.trace_seeds()[0]
        pod = MultiRackSpec(
            racks=4,
            servers_per_rack=4,
            server_dram_bytes=self.server_dram,
            link="link0",
            trunk_width=4.0,
        )
        deployment = build_multirack_deployment(pod, seed=trace_seed, hybrid_fluid=True)
        runtime = LmpRuntime(
            deployment,
            geometry=PageGeometry(page_bytes=kib(16), extent_bytes=kib(64)),
            shared_fraction=self.shared_fraction,
            coherent_bytes=kib(64),
            snoop_filter_lines=256,
        )
        manager = PoolManager(runtime, policy="capacity-balanced")
        for region in manager.pool.regions.values():
            region.flex_on_demand = False
        driver = _TimedScaleDriver(manager, self.traffic(trace_seed), quota_bytes=mib(4))
        procs = driver.processes()
        autoscaler = None
        if self.elastic:
            registry = MetricsRegistry()
            registry.add_transport(deployment.transport)
            autoscaler = ReflexAutoscaler(
                manager,
                AutoscalerConfig(
                    period_ns=us(50),
                    high_watermark=0.80,
                    low_watermark=0.40,
                    grow_step=0.5,
                    max_shared_fraction=0.90,
                    min_shared_bytes=int(self.server_dram * self.shared_fraction),
                    shrink_headroom=0.25,
                ),
                registry=registry,
            )
            procs.append(autoscaler.run(self.spec.duration_ns + driver.drain_grace_ns))
        return manager, driver, autoscaler, procs

    def run_pass(self, phase: Phase) -> PassResult:
        stat_sets, failures = [], []
        latency = Histogram()
        total: collections.Counter[str] = collections.Counter()
        max_lag = 0.0
        for trace_seed in self.trace_seeds():
            gc.collect()  # the previous trace's rack is garbage by now
            manager, driver, autoscaler, procs = self.setup(trace_seed)
            engine = manager.engine
            with phase:
                engine.run(engine.all_of(procs))
            report = build_report(self.label, driver, autoscaler)
            transport = manager.runtime.deployment.transport
            stat_sets.append(manager.stats)
            latency.merge(driver.latency)
            max_lag = max(max_lag, driver.max_lag_ns)
            total.update(
                {
                    "arrivals": report.arrivals,
                    "granted": report.granted,
                    "rejected": report.rejected,
                    "crowd_arrivals": sum(w.arrivals for w in report.crowd_windows),
                    "crowd_rejected": sum(w.rejected for w in report.crowd_windows),
                    "bytes": transport.bytes_read + transport.bytes_written,
                    "sim_ns": engine.now,
                    "migrated": report.bytes_migrated,
                    "actions": report.reflex_actions,
                    "resizes": report.resize_events,
                    "failed_data_ops": driver.failed_data_ops,
                }
            )
            failures += self._check(manager, driver, autoscaler, report, trace_seed)
        p50, p99 = latency.percentile_many((0.5, 0.99))
        counts = {
            **_manager_counts(stat_sets, total["resizes"]),
            "core.migration.bytes": total["migrated"],
            "scale.traffic.arrivals": total["arrivals"],
            "scale.autoscaler.actions": total["actions"],
            "scale.pump.max_lag_ns": max_lag,
        }
        return PassResult(
            wall_s=phase.wall_s,
            raw_s=phase.raw_s,
            attempted=total["arrivals"],
            sim=_filled(
                SIMULATED,
                {
                    "model.gbps": total["bytes"] / total["sim_ns"],
                    "model.latency_p50": p50 / 1e3,
                    "model.latency_p99": p99 / 1e3,
                    "model.reject_pct": 100.0 * total["rejected"] / (total["granted"] + total["rejected"]),
                    "model.flash_reject_pct": 100.0 * total["crowd_rejected"] / total["crowd_arrivals"],
                    "model.migrated_mib": total["migrated"] / self.traces / mib(1),
                },
            ),
            counts=_filled(COUNT_KEYS, counts),
            failed_ops=total["failed_data_ops"],
            failures=failures,
        )

    def _check(
        self,
        manager: PoolManager,
        driver: _TimedScaleDriver,
        autoscaler: ReflexAutoscaler | None,
        report: _t.Any,
        trace_seed: int,
    ) -> list[str]:
        failures = []
        if driver.requests != report.arrivals:
            failures.append(f"latency hook saw {driver.requests} of {report.arrivals} requests")
        # drained waiters are failed through admission, so they are among the rejected
        if report.granted + report.rejected != report.arrivals or report.drained > report.rejected:
            failures.append(
                f"granted {report.granted} + rejected {report.rejected} "
                f"(drained {report.drained}) != arrivals {report.arrivals}"
            )
        if driver.refused != report.rejected:
            failures.append(f"{driver.refused} refusals seen, driver counted {report.rejected}")
        if driver.max_lag_ns != 0.0:
            failures.append(f"the pump ran {driver.max_lag_ns} ns late")
        if autoscaler is not None:
            stats = manager.stats
            charged = (
                stats.counter("reflex.bytes_evacuated").value
                + stats.counter("reflex.bytes_relocated").value
            )
            if charged != autoscaler.bytes_migrated:
                failures.append(
                    f"manager charged {charged:.0f} B, autoscaler {autoscaler.bytes_migrated} B"
                )
            # copies a mover aborts are paid but not charged, so >= under churn
            copied = manager.runtime.deployment.transport.bytes_copied
            if copied < autoscaler.bytes_migrated:
                failures.append(f"transport copied {copied} B < {autoscaler.bytes_migrated} B migrated")
        if trace_seed == 0 and not self.quick:
            failures += self._cross_check(report)
        return failures

    def _cross_check(self, report: _t.Any) -> list[str]:
        """Seed 0 replays ``repro run scale``'s trace: match its committed row."""
        committed = _row(
            (RESULTS_DIR / "scale.txt").read_text(), self.label
        )
        mine = _row(comparison_table([report]), self.label)
        if committed != mine:
            return [f"S1 {self.label} row {mine} != benchmarks/results/scale.txt {committed}"]
        return []


def _row(table: str, label: str) -> list[str]:
    for line in table.splitlines():
        tokens = line.split()
        if tokens and tokens[0] == label:
            return tokens
    return []


def make(name: str, seed: int, quick: bool) -> _t.Any:
    if name == "figures":
        return Figures(seed, quick)
    if name == "dense":
        return Dense(seed, quick)
    if name in ("flash_static", "flash_elastic"):
        return Flash(seed, quick, elastic=name == "flash_elastic")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("figures", "dense", "flash_static", "flash_elastic")
