"""The engine bench's regression gate must run, and fail loudly when its
committed baseline is missing instead of skipping."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks" / "bench_engine.py"
BASELINE = ROOT / "benchmarks" / "baselines" / "BENCH_engine_baseline.json"

CONFIGS = {"event_churn", "timeout_storm", "cluster_slice", "cluster_dense"}


def load_bench_engine():
    name = "bench_engine_under_test"
    spec = importlib.util.spec_from_file_location(name, BENCH)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
    return module


def test_engine_baseline_is_committed_for_every_configuration():
    baseline = json.loads(BASELINE.read_text())
    assert set(baseline["results"]) == CONFIGS
    assert baseline["calibration_ops_per_sec"] > 0
    assert all(r["events_per_sec"] > 0 for r in baseline["results"].values())


def test_engine_smoke_fails_without_baseline(tmp_path, monkeypatch):
    bench_engine = load_bench_engine()
    assert bench_engine._BASELINE_PATH == BASELINE
    monkeypatch.setattr(bench_engine, "_BASELINE_PATH", tmp_path / "missing.json")
    out = tmp_path / "BENCH_engine.json"
    with pytest.raises(SystemExit, match="no committed baseline"):
        bench_engine.smoke(out=str(out))
    assert not out.exists()  # failed before measuring anything
