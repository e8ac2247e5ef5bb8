"""Tests for RNG streams, statistics collectors, and tracing."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.rng import RngStreams
from repro.sim.stats import Counter, Histogram, StatSet, TimeWeighted


# --- rng ----------------------------------------------------------------------


def test_same_seed_same_stream():
    a = RngStreams(7).stream("x")
    b = RngStreams(7).stream("x")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_are_independent():
    streams = RngStreams(7)
    a = [streams.stream("a").random() for _ in range(5)]
    b = [streams.stream("b").random() for _ in range(5)]
    assert a != b


def test_stream_is_cached():
    streams = RngStreams(0)
    assert streams.stream("x") is streams["x"]


# --- counters / gauges -----------------------------------------------------------


def test_counter_accumulates():
    counter = Counter()
    counter.add(3)
    counter.add()
    assert counter.value == 4.0


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter().add(-1)


def test_time_weighted_mean():
    gauge = TimeWeighted(initial=0.0, start_time=0.0)
    gauge.update(10.0, now=5.0)  # 0 for 5ns
    gauge.update(0.0, now=15.0)  # 10 for 10ns
    assert gauge.mean(now=20.0) == pytest.approx((0 * 5 + 10 * 10 + 0 * 5) / 20)
    assert gauge.maximum() == 10.0
    assert gauge.current == 0.0


def test_time_weighted_rejects_time_travel():
    gauge = TimeWeighted()
    gauge.update(1.0, now=10.0)
    with pytest.raises(ValueError):
        gauge.update(2.0, now=5.0)


# --- histogram ---------------------------------------------------------------


def test_histogram_basic_stats():
    hist = Histogram()
    for v in (1.0, 2.0, 3.0, 4.0):
        hist.record(v)
    assert hist.mean() == 2.5
    assert hist.minimum() == 1.0
    assert hist.maximum() == 4.0
    assert hist.quantile(0.5) == pytest.approx(2.5)


def test_histogram_empty_is_nan():
    hist = Histogram()
    assert math.isnan(hist.mean())
    assert math.isnan(hist.quantile(0.5))


def test_histogram_quantile_bounds():
    hist = Histogram()
    hist.record(1.0)
    with pytest.raises(ValueError):
        hist.quantile(1.5)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
def test_histogram_quantiles_monotone(values):
    hist = Histogram()
    for v in values:
        hist.record(v)
    quantiles = [hist.quantile(q / 10) for q in range(11)]
    assert quantiles == sorted(quantiles)
    assert quantiles[0] == min(values)
    assert quantiles[-1] == max(values)


def test_histogram_merge_quantiles_exact():
    """Merging must give quantiles identical to one combined histogram."""
    a, b, combined = Histogram(), Histogram(), Histogram()
    for v in (5.0, 1.0, 3.0):
        a.record(v)
        combined.record(v)
    for v in (4.0, 2.0, 6.0):
        b.record(v)
        combined.record(v)
    a.merge(b)
    assert len(a) == 6
    for q in (0.0, 0.25, 0.5, 0.75, 0.99, 1.0):
        assert a.quantile(q) == combined.quantile(q)


def test_histogram_merge_returns_self_and_keeps_other():
    a, b = Histogram(), Histogram()
    a.record(1.0)
    b.record(2.0)
    assert a.merge(b) is a
    assert len(b) == 1  # the source histogram is untouched
    assert b.quantile(0.5) == 2.0


def test_histogram_merge_empty_cases():
    a, b = Histogram(), Histogram()
    b.record(3.0)
    assert len(a.merge(b)) == 1  # empty <- full
    assert a.quantile(0.5) == 3.0
    assert len(a.merge(Histogram())) == 1  # full <- empty
    assert a.quantile(1.0) == 3.0


def test_histogram_merge_self_rejected():
    hist = Histogram()
    hist.record(1.0)
    with pytest.raises(ValueError):
        hist.merge(hist)


def test_histogram_merge_preserves_sortedness_fast_path():
    """Sorted + appended-after-tail stays sorted without a re-sort."""
    a, b = Histogram(), Histogram()
    for v in (1.0, 2.0):
        a.record(v)
    for v in (2.0, 5.0):
        b.record(v)
    a.merge(b)
    assert a._sorted  # tail-append fast path
    assert a.quantile(1.0) == 5.0


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=80),
    st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=80),
)
def test_histogram_merge_matches_single_collector(xs, ys):
    merged, single = Histogram(), Histogram()
    other = Histogram()
    for v in xs:
        merged.record(v)
        single.record(v)
    for v in ys:
        other.record(v)
        single.record(v)
    merged.merge(other)
    assert len(merged) == len(single)
    for q in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert merged.quantile(q) == single.quantile(q)


# --- stat set ----------------------------------------------------------------


def test_statset_flattens_collectors():
    stats = StatSet("dev")
    stats.counter("bytes").add(100)
    stats.gauge("depth").update(3.0, now=10.0)
    stats.histogram("lat").record(5.0)
    flat = stats.as_dict(now=20.0)
    assert flat["bytes"] == 100
    assert flat["depth.max"] == 3.0
    assert flat["lat.count"] == 1.0


def test_statset_reuses_collectors():
    stats = StatSet()
    assert stats.counter("x") is stats.counter("x")
