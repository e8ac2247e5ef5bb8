"""Tests for the analytic model and the report renderers — including the
DES-vs-closed-form cross-validation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.bandwidth import AnalyticInputs, analytic_vector_sum
from repro.analysis.report import format_barchart, format_ratio, format_table
from repro.core.pool import LogicalMemoryPool, PhysicalMemoryPool
from repro.errors import ConfigError
from repro.topology.builder import build_logical, build_physical
from repro.units import gib
from repro.workloads.vector_sum import run_vector_sum


# --- closed forms ---------------------------------------------------------------


def test_nocache_is_link_bandwidth():
    inputs = AnalyticInputs(vector_bytes=gib(8), local_gbps=97.0, remote_gbps=21.0)
    assert analytic_vector_sum("physical-nocache", inputs) == 21.0


def test_logical_all_local_is_local_bandwidth():
    inputs = AnalyticInputs(
        vector_bytes=gib(8), local_gbps=97.0, remote_gbps=21.0, local_fraction=1.0
    )
    assert analytic_vector_sum("logical", inputs) == 97.0


def test_cache_fit_approaches_local_over_reps():
    inputs = AnalyticInputs(
        vector_bytes=gib(8),
        local_gbps=97.0,
        remote_gbps=21.0,
        cache_bytes=gib(8),
        repetitions=10,
    )
    bandwidth = analytic_vector_sum("physical-cache", inputs)
    assert 21.0 < bandwidth < 97.0
    more_reps = AnalyticInputs(
        vector_bytes=gib(8),
        local_gbps=97.0,
        remote_gbps=21.0,
        cache_bytes=gib(8),
        repetitions=100,
    )
    assert analytic_vector_sum("physical-cache", more_reps) > bandwidth


def test_cache_thrash_is_harmonic():
    inputs = AnalyticInputs(
        vector_bytes=gib(24),
        local_gbps=97.0,
        remote_gbps=21.0,
        cache_bytes=gib(8),
    )
    expected = 1.0 / (1.0 / 21.0 + 1.0 / 97.0)
    assert analytic_vector_sum("physical-cache", inputs) == pytest.approx(expected)


def test_unknown_config_rejected():
    with pytest.raises(ConfigError):
        analytic_vector_sum("hybrid", AnalyticInputs(1.0, 1.0, 1.0))
    with pytest.raises(ConfigError):
        analytic_vector_sum("logical", AnalyticInputs(-1.0, 1.0, 1.0))


# --- DES cross-validation --------------------------------------------------------


@pytest.mark.parametrize("link,remote_gbps", [("link0", 34.5), ("link1", 21.0)])
def test_des_matches_analytic_nocache(link, remote_gbps):
    pool = PhysicalMemoryPool(build_physical(link, cache=False))
    measured = run_vector_sum(pool, gib(8), repetitions=2)
    inputs = AnalyticInputs(gib(8), 97.0, remote_gbps)
    predicted = analytic_vector_sum("physical-nocache", inputs)
    assert measured.bandwidth_gbps == pytest.approx(predicted, rel=0.03)


def test_des_matches_analytic_logical_mixed():
    pool = LogicalMemoryPool(build_logical("link1"))
    measured = run_vector_sum(pool, gib(64), repetitions=2)
    inputs = AnalyticInputs(
        gib(64), 97.0, 21.0, local_fraction=measured.locality
    )
    predicted = analytic_vector_sum("logical", inputs)
    assert measured.bandwidth_gbps == pytest.approx(predicted, rel=0.10)


def test_des_matches_analytic_cache_thrash():
    pool = PhysicalMemoryPool(build_physical("link1", cache=True))
    measured = run_vector_sum(pool, gib(24), repetitions=2)
    inputs = AnalyticInputs(gib(24), 97.0, 21.0, cache_bytes=gib(8), repetitions=2)
    predicted = analytic_vector_sum("physical-cache", inputs)
    assert measured.bandwidth_gbps == pytest.approx(predicted, rel=0.05)


@settings(max_examples=10, deadline=None)
@given(local_fraction=st.sampled_from([0.25, 0.375, 0.5, 0.75]))
def test_logical_closed_form_bounded(local_fraction):
    inputs = AnalyticInputs(
        gib(32), 97.0, 21.0, local_fraction=local_fraction
    )
    bandwidth = analytic_vector_sum("logical", inputs)
    assert 21.0 <= bandwidth <= 97.0


# --- report rendering ------------------------------------------------------------


def test_table_alignment_and_rows():
    text = format_table(
        ["name", "value"], [("alpha", 1.0), ("b", 22.5)], title="t"
    )
    lines = text.splitlines()
    assert lines[0] == "t"  # title, then headers, then a rule, then rows
    assert "alpha" in lines[3]
    assert "22.5" in lines[4]


def test_table_rejects_ragged_rows():
    with pytest.raises(ConfigError):
        format_table(["a", "b"], [(1,)])


def test_barchart_marks_infeasible():
    text = format_barchart(
        {"Logical": 46.0, "Physical": 0.0},
        infeasible=["Physical"],
        unit=" GB/s",
    )
    assert "cannot run the workload" in text
    assert "46.0 GB/s" in text


def test_barchart_scales_to_peak():
    text = format_barchart({"a": 10.0, "b": 5.0}, width=10)
    bars = {line.split("|")[0].strip(): line.count("█") for line in text.splitlines()}
    assert bars["a"] == 10
    assert bars["b"] == 5


def test_format_ratio():
    assert format_ratio(97.0, 21.0) == "4.6x"
    assert format_ratio(1.0, 0.0) == "inf"
