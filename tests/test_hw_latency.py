"""Tests for the loaded-latency curves and MLP arithmetic."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.hw.latency import LatencyModel
from repro.hw.specs import LINK0, LINK1, LOCAL_DDR4
from repro.sim.fluid import LoadCap


def test_curve_hits_published_endpoints():
    model = LINK0.latency_model()
    assert model.latency(0.0) == pytest.approx(163.0)
    assert model.latency(1.0) == pytest.approx(418.0)


def test_curve_is_monotone_convex_shape():
    model = LINK1.latency_model()
    samples = [model.latency(u / 20) for u in range(21)]
    assert samples == sorted(samples)
    # convex-ish: the last step is the largest
    steps = [b - a for a, b in zip(samples, samples[1:])]
    assert steps[-1] == max(steps)


def test_latency_clamps_out_of_range_utilization():
    model = LINK0.latency_model()
    assert model.latency(-0.5) == model.latency(0.0)
    assert model.latency(1.5) == model.latency(1.0)
    assert model.latency(float("nan")) == model.latency(0.0)


def test_invalid_bounds_rejected():
    with pytest.raises(ConfigError):
        LatencyModel(-1.0, 10.0)
    with pytest.raises(ConfigError):
        LatencyModel(10.0, 5.0)
    with pytest.raises(ConfigError):
        LatencyModel(1.0, 2.0, rho=1.0)
    with pytest.raises(ConfigError):
        LatencyModel(1.0, 2.0, offset_ns=-1.0)


def test_mlp_rate_cap_is_littles_law():
    # 24 lines x 64 B / 82 ns, at any load on a flat curve
    cap = LoadCap(LatencyModel(82.0, 82.0), 24 * 64)
    assert cap.at(0.0) == cap.at(1.0) == pytest.approx(24 * 64 / 82.0)


@pytest.mark.parametrize("offset", [0.0, 50.0, 1.0 / 3.0])
def test_load_cap_is_mlp_over_the_curve_bit_for_bit(offset):
    """``LoadCap.at`` inlines the curve: the same clamp and arithmetic
    in the same order, so the cap equals ``mlp / curve(u)`` exactly (an
    offset with no exact binary form shows a change of order)."""
    curve = LINK0.latency_model()
    if offset:
        curve = curve.shifted(offset)
    cap = LoadCap(curve, 24 * 64)
    for u in (-0.5, 0.0, 0.25, 0.95, 1.0, 1.5):
        assert cap.at(u) == 24 * 64 / curve(u)


def test_offset_curve_is_the_base_curve_plus_a_constant_bit_for_bit():
    base = LINK1.latency_model()
    shifted = base.shifted(1.0 / 3.0)
    for u in (-0.5, 0.0, 0.25, 0.95, 1.0, 1.5):
        assert shifted(u) == base(u) + 1.0 / 3.0


def test_mlp_rate_cap_zero_latency_unbounded():
    assert LoadCap(LatencyModel(0.0, 0.0), 10 * 64).at(0.5) == float("inf")


def test_one_core_cannot_saturate_local_memory():
    """The reason the paper needs 14 cores."""
    single = LoadCap(LOCAL_DDR4.latency_model(), 24 * 64).at(1.0)
    assert single < LOCAL_DDR4.bandwidth
    assert 14 * single > LOCAL_DDR4.bandwidth
