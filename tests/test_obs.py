"""repro.obs — spans, metrics, exporters, and the zero-cost seams.

The load-bearing claims: (1) a tenant request with a locked data op
yields one *connected* causal tree spanning at least four layers;
(2) two same-seed runs export byte-identical Chrome trace JSON;
(3) every seam defaults to ``None`` and ``uninstall()`` restores it;
(4) the exporters render valid, loadable formats.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.cluster.driver import ClusterDriver, WorkloadMix
from repro.cluster.manager import PoolManager
from repro.cluster.tenants import TenantSpec
from repro.core.runtime import LmpRuntime
from repro.errors import ObservabilityError
from repro.mem.layout import PageGeometry
from repro.obs import (
    MetricsRegistry,
    Observability,
    chrome_trace,
    latency_breakdown,
    prometheus_text,
    render_breakdown,
    spans_json,
    summarize_dump,
)
from repro.obs.export import timeseries_csv, timeseries_json
from repro.obs.report import iter_dump_dirs, load_spans
from repro.sim.engine import Engine
from repro.sim.stats import Histogram
from repro.topology.builder import build_logical
from repro.units import kib, mib

# --- helpers ---------------------------------------------------------------------


def _drive(lock_fraction: float = 0.5, tenants: int = 3, ops: int = 10):
    """A small multi-tenant run; returns (obs, report)."""
    deployment = build_logical("link0", server_count=2, server_dram_bytes=mib(8))
    runtime = LmpRuntime(
        deployment,
        geometry=PageGeometry(page_bytes=kib(16), extent_bytes=kib(64)),
        coherent_bytes=kib(64),
        snoop_filter_lines=256,
    )
    driver = ClusterDriver(
        PoolManager(runtime, policy="first-fit"),
        mix=WorkloadMix(
            alloc_bytes=kib(192), access_bytes=kib(4), lock_fraction=lock_fraction
        ),
    )
    specs = [
        TenantSpec(tenant_id=f"t{i:02d}", home_server=i % 2, quota_bytes=mib(8))
        for i in range(tenants)
    ]
    obs = Observability()
    with obs.activated():
        report = driver.run(specs, ops)
    return obs, report


def _children(spans):
    kids: dict[int, list] = {}
    for span in spans:
        if span.parent_id is not None:
            kids.setdefault(span.parent_id, []).append(span)
    return kids


def _subtree_depth(span, kids) -> int:
    """Levels in the tree rooted at *span* (1 = just the span itself)."""
    below = kids.get(span.span_id, ())
    return 1 + max((_subtree_depth(child, kids) for child in below), default=0)


# --- seams -----------------------------------------------------------------------


def _seam_values():
    from repro.obs.tracing import seam_targets

    return {
        f"{target.__name__}.{attr}": getattr(target, attr)
        for target, attr in seam_targets()
    }


def test_seams_default_none_and_uninstall_restores():
    assert all(v is None for v in _seam_values().values())
    obs = Observability()
    obs.install()
    try:
        assert all(v is obs for v in _seam_values().values())
        with pytest.raises(ObservabilityError):
            obs.install()  # double-install
        other = Observability()
        with pytest.raises(ObservabilityError):
            other.install()  # seams busy
    finally:
        obs.uninstall()
    assert all(v is None for v in _seam_values().values())
    obs.uninstall()  # idempotent


def test_activated_restores_on_exception():
    obs = Observability()
    with pytest.raises(RuntimeError):
        with obs.activated():
            raise RuntimeError("boom")
    assert all(v is None for v in _seam_values().values())


def test_window_must_be_positive():
    with pytest.raises(ObservabilityError):
        Observability(window_ns=0)


# --- the causal tree -------------------------------------------------------------


def test_request_span_tree_spans_four_layers():
    obs, report = _drive(lock_fraction=1.0)
    assert report.total_ops > 0
    spans = obs.recorder.spans
    by_id = {s.span_id: s for s in spans}

    requests = [s for s in spans if s.component == "request"]
    assert requests, "no request spans recorded"
    locked = [s for s in requests if str(s.attrs.get("op", "")).startswith("locked_")]
    assert locked, "lock_fraction=1.0 must produce locked data ops"

    # every span is closed and parented consistently
    for span in spans:
        assert span.end_ns is not None
        assert span.end_ns >= span.start_ns
        if span.parent_id is not None and span.parent_id in by_id:
            assert by_id[span.parent_id].start_ns <= span.start_ns

    kids = _children(spans)
    locked_depths = [_subtree_depth(s, kids) for s in locked]
    assert max(locked_depths) >= 4, (
        f"expected a >=4-layer causal tree under a locked request, "
        f"got depths {sorted(set(locked_depths))}"
    )

    # the deepest tree reaches the session and data-path layers
    def subtree_components(root):
        out, stack = set(), [root]
        while stack:
            s = stack.pop()
            out.add(s.component)
            stack.extend(kids.get(s.span_id, ()))
        return out

    best = max(locked, key=lambda s: _subtree_depth(s, kids))
    assert {"request", "session", "process"} <= subtree_components(best)

    # instrumented layers charged latency categories somewhere in the run
    charged = set()
    for span in spans:
        charged.update(k for k in span.attrs if k.startswith("cat_"))
    assert "cat_link_ns" in charged
    assert "cat_dram_ns" in charged


def test_same_seed_runs_export_identical_chrome_trace():
    obs_a, _ = _drive()
    obs_b, _ = _drive()
    trace_a = chrome_trace(obs_a)
    assert trace_a == chrome_trace(obs_b)

    doc = json.loads(trace_a)
    assert doc["displayTimeUnit"] == "ns"
    events = doc["traceEvents"]
    phases = {e["ph"] for e in events}
    assert phases == {"M", "X"}
    for event in events:
        if event["ph"] != "X":
            continue
        assert event["dur"] >= 0
        assert isinstance(event["args"]["span_id"], int)
    # spans.json is deterministic too
    assert spans_json(obs_a) == spans_json(obs_b)


def test_vector_sum_rep_spans():
    from repro.core.pool import LogicalMemoryPool
    from repro.workloads.vector_sum import run_vector_sum

    obs = Observability()
    with obs.activated():
        deployment = build_logical("link0")
        pool = LogicalMemoryPool(deployment)
        result = run_vector_sum(pool, mib(64), repetitions=2)
    assert result.feasible
    reps = [s for s in obs.recorder.spans if s.name == "vector_sum.rep"]
    assert len(reps) == 2
    assert all(s.end_ns is not None and s.duration_ns > 0 for s in reps)
    rows = latency_breakdown(obs.recorder.spans)
    assert rows and rows[0].requests == 2


# --- metrics ---------------------------------------------------------------------


def test_metrics_registry_basics():
    registry = MetricsRegistry()
    registry.inc("ops_total", 2.0, kind="read")
    registry.inc("ops_total", 1.0, kind="read")
    registry.inc("ops_total", 5.0, kind="write")
    registry.set_gauge("depth", 3.0)
    registry.observe("latency_ns", 10.0)
    registry.observe("latency_ns", 30.0)

    rows = registry.collect()
    values = {(name, labels): v for _type, name, labels, v in rows}
    assert values[("ops_total", (("kind", "read"),))] == 3.0
    assert values[("ops_total", (("kind", "write"),))] == 5.0
    assert values[("depth", ())] == 3.0

    with pytest.raises(ObservabilityError):
        registry.inc("ops_total", -1.0)


def test_prometheus_text_rendering():
    registry = MetricsRegistry()
    registry.inc("repro_requests_total", 4.0, op="read", outcome="ok")
    registry.set_gauge("repro_fairness", 0.5)
    for v in (1.0, 2.0, 3.0, 4.0):
        registry.observe("repro_latency_ns", v)
    text = prometheus_text(registry)
    assert "# TYPE repro_requests_total counter" in text
    assert 'repro_requests_total{op="read",outcome="ok"} 4' in text
    assert "# TYPE repro_latency_ns summary" in text
    assert 'repro_latency_ns{quantile="0.5"}' in text
    assert "repro_latency_ns_count 4" in text
    assert "repro_latency_ns_sum 10" in text
    assert text.endswith("\n")


def test_windowed_snapshots_and_timeseries():
    obs = Observability(window_ns=100.0)
    with obs.activated():
        engine = Engine(seed=1)

        def ticker():
            for _ in range(10):
                yield engine.timeout(50.0)

        engine.process(ticker(), name="ticker")
        engine.run()
    obs.final_snapshot()
    assert obs.metrics.series, "window crossings must snapshot the registry"
    csv = timeseries_csv(obs.metrics)
    assert csv.startswith("engine,time_ns,name,labels,value")
    rows = json.loads(timeseries_json(obs.metrics))
    assert rows and all("time_ns" in r for r in rows)
    times = [r["time_ns"] for r in rows if r["name"] == "repro_engine_events_total"]
    assert times == sorted(times)


def test_driver_report_federated_into_metrics():
    obs, report = _drive()
    text = prometheus_text(obs.metrics)
    assert "repro_cluster_fairness_jain" in text
    assert "repro_requests_total" in text
    assert "repro_spans_total" in text
    summary = report.latency_summary()
    assert set(summary) == {"p50", "p90", "p99", "p99.9", "mean", "max"}
    assert summary["p50"] <= summary["p99"] <= summary["p99.9"] <= summary["max"]


# --- breakdown + CLI -------------------------------------------------------------


def test_latency_breakdown_percentages():
    obs, _ = _drive(lock_fraction=1.0)
    rows = latency_breakdown(obs.recorder.spans)
    assert rows
    for row in rows:
        total = sum(row.percent(c) for c in ("cache", "link", "fabric", "dram", "queue"))
        total += row.percent("other")
        assert total == pytest.approx(100.0) or total == 0.0
    rendered = render_breakdown(rows)
    assert "op" in rendered and "other%" in rendered
    assert render_breakdown([]).startswith("no request spans")


def test_dump_roundtrip_and_cli(tmp_path):
    obs, _ = _drive()
    paths = obs.dump(tmp_path / "run")
    assert {p.rsplit("/", 1)[-1] for p in paths} == {
        "trace.json", "metrics.prom", "timeseries.csv", "timeseries.json", "spans.json"
    }
    spans = load_spans(tmp_path / "run")
    assert spans and all("span_id" in s for s in spans)
    assert iter_dump_dirs(tmp_path) == [tmp_path / "run"]
    assert "spans" in summarize_dump(tmp_path / "run")

    import io

    from repro.cli import summarize_obs

    stream = io.StringIO()
    assert summarize_obs([tmp_path], stream=stream) == 0
    assert "latency breakdown" in stream.getvalue()
    assert summarize_obs([tmp_path / "missing"], stream=io.StringIO()) == 2
    with pytest.raises(ObservabilityError):
        load_spans(tmp_path / "missing")


def test_observability_leaves_simulation_untouched():
    """Same seed, with and without obs: identical simulation outcome."""
    _, with_obs = _drive()

    deployment = build_logical("link0", server_count=2, server_dram_bytes=mib(8))
    runtime = LmpRuntime(
        deployment,
        geometry=PageGeometry(page_bytes=kib(16), extent_bytes=kib(64)),
        coherent_bytes=kib(64),
        snoop_filter_lines=256,
    )
    driver = ClusterDriver(
        PoolManager(runtime, policy="first-fit"),
        mix=WorkloadMix(alloc_bytes=kib(192), access_bytes=kib(4), lock_fraction=0.5),
    )
    specs = [
        TenantSpec(tenant_id=f"t{i:02d}", home_server=i % 2, quota_bytes=mib(8))
        for i in range(3)
    ]
    without_obs = driver.run(specs, 10)
    assert without_obs.total_ops == with_obs.total_ops
    assert without_obs.duration_ns == with_obs.duration_ns
    assert without_obs.fairness == pytest.approx(with_obs.fairness)


# --- percentile_many (S1) --------------------------------------------------------


def test_percentile_many_empty():
    hist = Histogram()
    values = hist.percentile_many((0.5, 0.99))
    assert len(values) == 2 and all(math.isnan(v) for v in values)


def test_percentile_many_single_sample_and_bounds():
    hist = Histogram()
    hist.record(7.0)
    assert hist.percentile_many((0.0, 0.5, 1.0)) == [7.0, 7.0, 7.0]


def test_percentile_many_matches_quantile():
    hist = Histogram()
    for v in (5.0, 1.0, 9.0, 3.0, 7.0):
        hist.record(v)
    qs = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
    assert hist.percentile_many(qs) == [hist.quantile(q) for q in qs]


def test_percentile_many_rejects_out_of_range():
    hist = Histogram()
    hist.record(1.0)
    with pytest.raises(ValueError):
        hist.percentile_many((0.5, 1.5))

