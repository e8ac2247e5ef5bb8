"""E2 — DES core throughput: the engine's events/sec trajectory.

Five workloads:

* ``event_churn`` — callback chains rescheduling bare timeouts: the
  dispatch loop and timeout pool with nothing else in the way.
* ``timeout_storm`` — hundreds of generator processes yielding
  timeouts: adds process resume/suspend to every event.
* ``cluster_slice`` — a 32-tenant data-heavy run of the real cluster
  driver on the paper's logical rack: the end-to-end number ROADMAP
  item 1 (10k-tenant serving) actually gates on.
* ``cluster_dense`` — the bandwidth-saturated steady state: 1024
  tenants streaming 256 KiB reads through the shared fabric, keeping
  ~1000 flows in flight.  This is the regime the transition-driven
  fluid solver exists for — the seed engine pays O(#flows) per event
  here, the solver pays nothing between rate changes — and it is the
  configuration the headline speedup-vs-seed is measured on.
* ``figure_stream`` — the paper's 14-core vector sum on one
  Physical-cache pool (Figure 3's 24 GB vector, link0): every core
  chunk is a rate-capped flow, so this gates the solver's capped
  (path, cap) groups, the regime Figures 2–5 live in.

Standalone (the CI engine-bench job)::

    PYTHONPATH=src python benchmarks/bench_engine.py --smoke

writes ``BENCH_engine.json`` and exits non-zero if the committed
baseline ``benchmarks/baselines/BENCH_engine_baseline.json`` is missing
or any configuration's events/sec drops more than 20% below it.  The
JSON also carries each configuration's speedup over the seed engine
(the revision before the fast DES core landed), measured with this same
script — see ``docs/performance.md`` for how to read it.

The script runs unmodified against the seed engine; ``--capture``
measures and writes the JSON without the gate, which is how both the
seed column and the baseline floors are recorded.
"""

from __future__ import annotations

import gc
import json
import pathlib
import time
import typing as _t

import pytest

from repro.sim.engine import Engine

#: committed baseline: events/sec floors per configuration (regression
#: gate) plus the seed engine's rates measured with `--capture` on a
#: checkout of the pre-fast-core revision (speedup column)
_BASELINE_PATH = pathlib.Path(__file__).parent / "baselines" / "BENCH_engine_baseline.json"

#: allowed events/sec drop vs. the committed baseline before CI fails
REGRESSION_TOLERANCE = 0.20


def _calibrate() -> float:
    """Machine-speed probe: a fixed engine-independent heap workload.

    The committed floors were measured on one machine; a CI runner (or a
    loaded box) is legitimately slower at *everything*, not just at this
    benchmark.  The gate scales the floors by the ratio of this probe's
    throughput to the value recorded alongside the baseline — capped at
    1.0 so a faster machine never loosens the gate — making the floors
    portable without letting an engine regression mask itself (the probe
    never touches repro code)."""
    from heapq import heappop, heappush

    best = 0.0
    for _ in range(3):
        gc.collect()
        started = time.perf_counter()
        heap: list[tuple[int, int]] = []
        n = 200_000
        for i in range(n):
            heappush(heap, ((i * 2654435761) % 1000003, i))
        while heap:
            heappop(heap)
        secs = time.perf_counter() - started
        best = max(best, (2 * n) / secs)
    return best


# -- workload 1: event churn ------------------------------------------------


def event_churn(total_events: int = 200_000) -> tuple[int, float]:
    """Callback chains rescheduling timeouts; no processes, no fluid."""
    eng = Engine(seed=1)
    chains = 64
    per_chain = total_events // chains

    def start_chain(i: int) -> None:
        rng = eng.rng.stream(f"churn.{i}")
        delays = [rng.random() * 100.0 for _ in range(256)]
        left = [per_chain]

        def fire(_ev: _t.Any) -> None:
            n = left[0]
            if n:
                left[0] = n - 1
                eng.timeout(delays[n & 255]).callbacks.append(fire)

        fire(None)

    for i in range(chains):
        start_chain(i)
    started = time.perf_counter()
    eng.run()
    elapsed = time.perf_counter() - started
    return eng.events_processed, elapsed


# -- workload 2: timeout storm ----------------------------------------------


def timeout_storm(procs: int = 200, ops: int = 500) -> tuple[int, float]:
    """Generator processes yielding timeouts: resume/suspend on every event."""
    eng = Engine(seed=2)

    def body(delays: list[float]):
        for i in range(ops):
            yield eng.timeout(delays[i & 255])

    for p in range(procs):
        rng = eng.rng.stream(f"storm.{p}")
        delays = [rng.random() * 50.0 + 1.0 for _ in range(256)]
        eng.process(body(delays), name=f"storm.{p}")
    started = time.perf_counter()
    eng.run()
    elapsed = time.perf_counter() - started
    return eng.events_processed, elapsed


# -- workload 3: cluster-driver slice ---------------------------------------


def cluster_slice(tenants: int = 32, ops_per_tenant: int = 150) -> tuple[int, float, int]:
    """The real multi-tenant driver on the paper's logical rack,
    data-heavy mix (the regime ROADMAP's 10k-tenant item lives in).

    Returns (events, wall_seconds, completed_ops)."""
    from repro.cluster.driver import ClusterDriver, WorkloadMix
    from repro.cluster.manager import PoolManager
    from repro.cluster.tenants import TenantSpec
    from repro.core.runtime import LmpRuntime
    from repro.mem.layout import PageGeometry
    from repro.topology.builder import build_logical
    from repro.units import kib, mib

    deployment = build_logical("link0", server_count=4, server_dram_bytes=mib(32))
    runtime = LmpRuntime(
        deployment,
        geometry=PageGeometry(page_bytes=kib(16), extent_bytes=kib(64)),
        coherent_bytes=kib(64),
        snoop_filter_lines=256,
    )
    driver = ClusterDriver(
        PoolManager(runtime, policy="capacity-balanced"),
        mix=WorkloadMix(
            alloc_fraction=0.05,
            free_fraction=0.02,
            alloc_bytes=kib(192),
            access_bytes=kib(4),
        ),
    )
    specs = [
        TenantSpec(tenant_id=f"t{i:02d}", home_server=i % 4, quota_bytes=mib(8))
        for i in range(tenants)
    ]
    started = time.perf_counter()
    report = driver.run(specs, ops_per_tenant)
    elapsed = time.perf_counter() - started
    return deployment.engine.events_processed, elapsed, report.total_ops


def cluster_dense(tenants: int = 1024, ops_per_tenant: int = 12) -> tuple[int, float, int]:
    """The bandwidth-saturated steady state: every tenant keeps a
    256 KiB read in flight, so ~#tenants flows share the fabric at all
    times.  Large pages make each access a single long-lived flow, and
    the rack DRAM is sized so the aggregate working set fits (an
    over-committed rack deadlocks admission on the seed engine too).

    Returns (events, wall_seconds, completed_ops)."""
    from repro.cluster.driver import ClusterDriver, WorkloadMix
    from repro.cluster.manager import PoolManager
    from repro.cluster.tenants import TenantSpec
    from repro.core.runtime import LmpRuntime
    from repro.mem.layout import PageGeometry
    from repro.topology.builder import build_logical
    from repro.units import kib, mib

    deployment = build_logical("link0", server_count=4, server_dram_bytes=mib(512))
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
        for i in range(tenants)
    ]
    started = time.perf_counter()
    report = driver.run(specs, ops_per_tenant)
    elapsed = time.perf_counter() - started
    return deployment.engine.events_processed, elapsed, report.total_ops


# -- workload 5: capped figure stream -----------------------------------------


def figure_stream(repetitions: int = 10) -> tuple[int, float]:
    """Figure 3's vector sum on a Physical-cache pool over link0: 14
    cores, each streaming its shard as rate-capped chunk flows.

    Returns (events, wall_seconds)."""
    from repro.core.pool import PhysicalMemoryPool
    from repro.experiments.figures import FIGURE_SIZES
    from repro.topology.builder import build_physical
    from repro.units import gib
    from repro.workloads.vector_sum import run_vector_sum

    deployment = build_physical("link0", cache=True)
    pool = PhysicalMemoryPool(deployment)
    started = time.perf_counter()
    run_vector_sum(pool, gib(FIGURE_SIZES["figure3"]), repetitions=repetitions)
    elapsed = time.perf_counter() - started
    return deployment.engine.events_processed, elapsed


# -- pytest-benchmark entry points ------------------------------------------


@pytest.mark.benchmark(group="engine")
def test_e2_event_churn(benchmark):
    events, _ = benchmark.pedantic(event_churn, args=(200_000,), rounds=1, iterations=1)
    assert events >= 200_000

@pytest.mark.benchmark(group="engine")
def test_e2_timeout_storm(benchmark):
    events, _ = benchmark.pedantic(timeout_storm, args=(200, 500), rounds=1, iterations=1)
    assert events >= 200 * 500

@pytest.mark.benchmark(group="engine")
def test_e2_cluster_slice(benchmark):
    events, _, ops = benchmark.pedantic(cluster_slice, args=(8, 30), rounds=1, iterations=1)
    assert ops == 8 * 30
    assert events > 0

@pytest.mark.benchmark(group="engine")
def test_e2_figure_stream(benchmark):
    events, _ = benchmark.pedantic(figure_stream, args=(1,), rounds=1, iterations=1)
    assert events > 0


# -- standalone smoke mode (CI: BENCH_engine.json + regression gate) --------


def _configs() -> list[tuple[str, _t.Callable[[], dict[str, float]]]]:
    def timed(workload: _t.Callable[[], tuple]) -> _t.Callable[[], dict[str, float]]:
        def run() -> dict[str, float]:
            events, secs, *ops = workload()
            result = {"events": events, "seconds": round(secs, 4),
                      "events_per_sec": round(events / secs, 1)}
            if ops:
                result["ops"] = ops[0]
                result["ops_per_sec"] = round(ops[0] / secs, 1)
            return result
        return run

    return [
        ("event_churn", timed(lambda: event_churn(200_000))),
        ("timeout_storm", timed(lambda: timeout_storm(200, 500))),
        ("cluster_slice", timed(lambda: cluster_slice(32, 150))),
        ("cluster_dense", timed(lambda: cluster_dense(1024, 12))),
        ("figure_stream", timed(lambda: figure_stream(10))),
    ]


def smoke(
    out: str = "BENCH_engine.json",
    rounds: int = 2,
    capture: bool = False,
) -> None:
    """Time every configuration, keeping the best of *rounds* runs per
    configuration — throughput noise on a shared machine is one-sided
    (external load only ever slows a run down), so best-of-N is the
    stable estimator the 20% regression gate needs.

    Exits non-zero before measuring anything when the baseline is
    missing, unless *capture* (measure and write only, no gate)."""
    baseline: dict[str, _t.Any] = {}
    if _BASELINE_PATH.exists():
        baseline = json.loads(_BASELINE_PATH.read_text())
    elif not capture:
        raise SystemExit(
            f"engine bench: no committed baseline at {_BASELINE_PATH}; "
            "the regression gate cannot run (record one with --capture)"
        )

    # warm-up: imports, bytecode, and allocator pools out of the timing
    event_churn(20_000)
    timeout_storm(20, 50)
    cluster_slice(4, 20)
    cluster_dense(64, 4)
    figure_stream(1)

    results: dict[str, dict[str, float]] = {}
    for name, run in _configs():
        best: dict[str, float] | None = None
        for _ in range(max(1, rounds)):
            # drop the previous run's garbage (engines are webs of
            # event<->callback cycles) so collector pauses don't bleed
            # into the next measurement
            gc.collect()
            result = run()
            if best is None or result["events_per_sec"] > best["events_per_sec"]:
                best = result
        assert best is not None
        results[name] = best
        line = f"{name:28s}: {results[name]['events_per_sec']:>12,.0f} events/s"
        if "ops_per_sec" in results[name]:
            line += f"  ({results[name]['ops_per_sec']:,.0f} ops/s)"
        print(line)

    seed_rates: dict[str, float] = baseline.get("seed_events_per_sec", {})
    for name, result in results.items():
        seed_rate = seed_rates.get(name)
        if seed_rate:
            result["speedup_vs_seed"] = round(result["events_per_sec"] / seed_rate, 2)
    headline = results["cluster_dense"]
    if "speedup_vs_seed" in headline:
        print(f"cluster-driver dense slice speedup vs seed engine: "
              f"{headline['speedup_vs_seed']:.2f}x")

    calibration = _calibrate()
    path = pathlib.Path(out)
    path.write_text(
        json.dumps(
            {"results": results, "calibration_ops_per_sec": round(calibration, 1)},
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {path}")
    if capture:
        print("regression gate: skipped (--capture)")
        return

    # regression gate: >20% events/sec drop vs the committed baseline
    # fails, with the floors scaled down on machines the calibration
    # probe proves are slower than the one that recorded them
    base_cal = baseline.get("calibration_ops_per_sec", 0.0)
    scale = min(1.0, calibration / base_cal) if base_cal else 1.0
    if scale < 1.0:
        print(
            f"machine calibration: {calibration:,.0f} probe ops/s vs "
            f"{base_cal:,.0f} at baseline capture — floors scaled x{scale:.2f}"
        )
    failures: list[str] = []
    for name, committed in baseline.get("results", {}).items():
        current = results.get(name)
        if current is None:
            failures.append(f"{name}: configuration missing from this run")
            continue
        floor = committed["events_per_sec"] * (1.0 - REGRESSION_TOLERANCE) * scale
        if current["events_per_sec"] < floor:
            failures.append(
                f"{name}: {current['events_per_sec']:,.0f} events/s is >"
                f"{REGRESSION_TOLERANCE:.0%} below committed baseline "
                f"{committed['events_per_sec']:,.0f}"
                + (f" (floor scaled x{scale:.2f} for this machine)" if scale < 1.0 else "")
            )
    if failures:
        raise SystemExit("engine bench regression:\n  " + "\n  ".join(failures))
    print(f"regression gate: all configurations within "
          f"{REGRESSION_TOLERANCE:.0%} of committed baseline — OK")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fast no-pytest smoke: BENCH_engine.json + regression gate",
    )
    parser.add_argument("--out", default="BENCH_engine.json")
    parser.add_argument(
        "--capture",
        action="store_true",
        help="measure and write --out without the gate (baseline / seed capture)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=2,
        help="timed rounds per configuration; the best one is reported",
    )
    cli_args = parser.parse_args()
    if not cli_args.smoke:
        parser.error("pass --smoke (benchmark mode runs under pytest-benchmark)")
    smoke(
        out=cli_args.out,
        rounds=cli_args.rounds,
        capture=cli_args.capture,
    )
