"""The engine and scale benches' regression gates must run, and fail
loudly when their committed baselines, or any floor in them, are
missing instead of skipping."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
BASELINE = BENCHMARKS / "baselines" / "BENCH_engine_baseline.json"

CONFIGS = {
    "event_churn",
    "timeout_storm",
    "cluster_slice",
    "cluster_dense",
    "figure_stream",
    "alloc_free",
}


def load_bench(stem: str, monkeypatch: pytest.MonkeyPatch):
    # both benches import benchmarks/_harness.py by module name
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    name = f"{stem}_under_test"
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{stem}.py")
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
    return module


def test_engine_baseline_is_committed_for_every_configuration(monkeypatch):
    bench_engine = load_bench("bench_engine", monkeypatch)
    baseline = json.loads(BASELINE.read_text())
    rates = {name: rate for name, rate, _run in bench_engine._configs()}
    assert set(baseline["results"]) == set(rates) == CONFIGS
    assert rates["figure_stream"] == "bytes_per_sec"
    assert rates["alloc_free"] == "pages_per_sec"
    assert all(baseline["results"][name][rate] > 0 for name, rate in rates.items())


def test_smoke_fails_when_a_floor_is_in_another_unit(tmp_path, monkeypatch):
    bench_engine = load_bench("bench_engine", monkeypatch)
    baseline = json.loads(BASELINE.read_text())
    baseline["results"]["figure_stream"] = {"events_per_sec": 90473.2}
    stale = tmp_path / "baseline.json"
    stale.write_text(json.dumps(baseline))
    monkeypatch.setattr(bench_engine, "_BASELINE_PATH", stale)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit, match="figure_stream: committed floor has no bytes_per_sec"):
        bench_engine.smoke(out=str(out))
    assert not out.exists()  # failed before measuring anything


def test_engine_smoke_fails_without_baseline(tmp_path, monkeypatch):
    bench_engine = load_bench("bench_engine", monkeypatch)
    assert bench_engine._BASELINE_PATH == BASELINE
    monkeypatch.setattr(bench_engine, "_BASELINE_PATH", tmp_path / "missing.json")
    out = tmp_path / "BENCH_engine.json"
    with pytest.raises(SystemExit, match="no committed baseline"):
        bench_engine.smoke(out=str(out))
    assert not out.exists()  # failed before measuring anything


def test_scale_smoke_fails_without_baseline(tmp_path, monkeypatch):
    bench_scale = load_bench("bench_scale", monkeypatch)
    assert bench_scale._BASELINE_PATH == BENCHMARKS / "baselines" / "BENCH_scale_baseline.json"
    monkeypatch.setattr(bench_scale, "_BASELINE_PATH", tmp_path / "missing.json")
    out = tmp_path / "BENCH_scale.json"
    with pytest.raises(SystemExit, match="no committed baseline"):
        bench_scale.smoke(out=str(out))
    assert not out.exists()  # failed before measuring anything


@pytest.mark.parametrize(
    ("stem", "dropped"), [("bench_engine", "figure_stream"), ("bench_scale", "elastic_slice")]
)
def test_smoke_fails_when_a_floor_is_missing(tmp_path, monkeypatch, stem, dropped):
    bench = load_bench(stem, monkeypatch)
    baseline = json.loads(bench._BASELINE_PATH.read_text())
    del baseline["results"][dropped]
    partial = tmp_path / "baseline.json"
    partial.write_text(json.dumps(baseline))
    monkeypatch.setattr(bench, "_BASELINE_PATH", partial)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit, match=f"{dropped}: measured but has no committed floor"):
        bench.smoke(out=str(out))
    assert not out.exists()  # failed before measuring anything


@pytest.mark.parametrize("stem", ["bench_engine", "bench_scale"])
def test_smoke_fails_when_a_floor_names_no_configuration(tmp_path, monkeypatch, stem):
    bench = load_bench(stem, monkeypatch)
    baseline = json.loads(bench._BASELINE_PATH.read_text())
    baseline["results"]["retired_config"] = {"events_per_sec": 1.0}
    extra = tmp_path / "baseline.json"
    extra.write_text(json.dumps(baseline))
    monkeypatch.setattr(bench, "_BASELINE_PATH", extra)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit, match="retired_config: committed floor but no such configuration"):
        bench.smoke(out=str(out))
    assert not out.exists()  # failed before measuring anything
