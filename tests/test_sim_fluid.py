"""Tests for the max-min fair fluid bandwidth model.

The fluid solver is the reproduction's measurement substrate, so these
tests pin its arithmetic exactly: completion times of known scenarios,
max-min fairness across bottlenecks, rate caps, and agreement with
closed-form math on randomized cases (hypothesis).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.fluid import Capacity, FluidModel


def make() -> tuple[Engine, FluidModel]:
    engine = Engine()
    return engine, FluidModel(engine)


def test_single_flow_runs_at_capacity():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    done = fluid.transfer([link], 1000.0)
    engine.run(done)
    assert engine.now == pytest.approx(100.0)


def test_flow_rate_cap_binds_below_capacity():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    done = fluid.transfer([link], 1000.0, rate_cap=2.0)
    engine.run(done)
    assert engine.now == pytest.approx(500.0)


def test_two_equal_flows_share_fairly():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    a = fluid.transfer([link], 500.0)
    b = fluid.transfer([link], 500.0)
    engine.run(engine.all_of([a, b]))
    # each gets 5.0 -> both finish at t=100
    assert engine.now == pytest.approx(100.0)


def test_short_flow_finishing_frees_bandwidth():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    short = fluid.transfer([link], 100.0)  # finishes at t=20 at rate 5
    long = fluid.transfer([link], 1000.0)
    engine.run(short)
    assert engine.now == pytest.approx(20.0)
    engine.run(long)
    # long moved 100 bytes by t=20, then 900 more at rate 10
    assert engine.now == pytest.approx(20.0 + 90.0)


def test_capped_flow_leaves_residual_to_others():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    capped = fluid.transfer([link], 300.0, rate_cap=3.0)
    greedy = fluid.transfer([link], 700.0)
    engine.run(engine.all_of([capped, greedy]))
    # capped runs at 3, greedy at 7 -> both finish at t=100
    assert engine.now == pytest.approx(100.0)


def test_multi_bottleneck_max_min_allocation():
    engine, fluid = make()
    # classic: flow A crosses both links, B only link1, C only link2
    link1 = Capacity("l1", 10.0)
    link2 = Capacity("l2", 10.0)
    a = fluid.transfer([link1, link2], 5000.0)
    b = fluid.transfer([link1], 5000.0)
    c = fluid.transfer([link2], 5000.0)
    # max-min: a=5, b=5, c=5 -> all finish at t=1000
    engine.run(engine.all_of([a, b, c]))
    assert engine.now == pytest.approx(1000.0)


def test_asymmetric_bottlenecks():
    engine, fluid = make()
    narrow = Capacity("narrow", 2.0)
    wide = Capacity("wide", 100.0)
    through = fluid.transfer([narrow, wide], 200.0)  # rate 2
    local = fluid.transfer([wide], 9800.0)  # rate 98
    engine.run(engine.all_of([through, local]))
    assert engine.now == pytest.approx(100.0)


def test_zero_byte_transfer_completes_instantly():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    done = fluid.transfer([link], 0.0)
    assert done.triggered
    assert engine.run(done) == 0.0


def test_empty_path_completes_instantly():
    engine, fluid = make()
    done = fluid.transfer([], 1000.0)
    assert done.triggered


def test_negative_size_rejected():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    with pytest.raises(SimulationError):
        fluid.transfer([link], -1.0)


def test_nonpositive_rate_cap_rejected():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    with pytest.raises(SimulationError):
        fluid.transfer([link], 10.0, rate_cap=0.0)


def test_capacity_requires_positive_rate():
    with pytest.raises(SimulationError):
        Capacity("bad", 0.0)
    with pytest.raises(SimulationError):
        Capacity("bad", math.inf)


def test_transfer_event_value_is_duration():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    done = fluid.transfer([link], 500.0)
    assert engine.run(done) == pytest.approx(50.0)


def test_utilization_tracks_active_flows():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    fluid.transfer([link], 1000.0, rate_cap=4.0)
    assert link.utilization == pytest.approx(0.4)
    fluid.transfer([link], 1000.0, rate_cap=4.0)
    assert link.utilization == pytest.approx(0.8)
    engine.run()
    assert link.utilization == 0.0  # idle again after completion


def test_bytes_counter_accumulates():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    engine.run(fluid.transfer([link], 123.0))
    engine.run(fluid.transfer([link], 877.0))
    assert link.stats.counter("bytes").value == pytest.approx(1000.0)


def test_mid_transfer_join_is_exact():
    """A flow joining halfway perturbs the first flow's finish time in
    the exact fluid way."""
    engine, fluid = make()
    link = Capacity("link", 10.0)
    first = fluid.transfer([link], 1000.0)

    def joiner():
        yield engine.timeout(50.0)  # first has 500 left
        second = fluid.transfer([link], 500.0)
        yield second

    join_proc = engine.process(joiner())
    engine.run(first)
    # after t=50 both run at 5: each has 500 left -> both end at t=150
    assert engine.now == pytest.approx(150.0)
    engine.run(join_proc)
    assert engine.now == pytest.approx(150.0)


def test_many_flows_conserve_capacity():
    engine, fluid = make()
    link = Capacity("link", 34.5)
    flows = [fluid.transfer([link], 34.5e6) for _ in range(14)]
    engine.run(engine.all_of(flows))
    # 14 x 34.5e6 bytes through 34.5 B/ns = 14e6 ns
    assert engine.now == pytest.approx(14e6, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.floats(1.0, 1e6), min_size=1, max_size=6),
    rate=st.floats(0.5, 100.0),
)
def test_aggregate_throughput_equals_capacity(sizes, rate):
    """However flows share one link, total bytes / makespan == capacity
    while the link is saturated; the makespan is bounded by the fluid
    optimum and by serial execution."""
    engine = Engine()
    fluid = FluidModel(engine)
    link = Capacity("link", rate)
    flows = [fluid.transfer([link], size) for size in sizes]
    engine.run(engine.all_of(flows))
    optimum = sum(sizes) / rate
    assert engine.now == pytest.approx(optimum, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    size=st.floats(64.0, 1e7),
    cap=st.floats(0.1, 5.0),
    rate=st.floats(5.0, 200.0),
)
def test_single_capped_flow_matches_closed_form(size, cap, rate):
    engine = Engine()
    fluid = FluidModel(engine)
    link = Capacity("link", rate)
    engine.run(fluid.transfer([link], size, rate_cap=cap))
    assert engine.now == pytest.approx(size / min(cap, rate), rel=1e-6)


# -- transitions, path groups, and the two waterfill passes --------------------
#
# Progress is advanced only at rate transitions, and at
# >= _GROUPED_RECOMPUTE_MIN uncapped flows the solver waterfills per
# distinct path instead of per flow.  These tests pin both against
# hand-computed max-min schedules.  (The ``test_hybrid_`` prefix dates
# from when this solver was an opt-in "hybrid" mode.)


def test_hybrid_single_flow_matches_default(monkeypatch):
    """A lone flow finishes at size/rate whichever waterfill pass runs:
    the default selection (per-flow, one flow is below the grouped
    threshold) or the grouped pass forced on from one flow."""

    def finish() -> tuple[float, bool]:
        engine, fluid = make()
        link = Capacity("link", 10.0)
        done = fluid.transfer([link], 1000.0)
        grouped = fluid._virtualized
        engine.run(done)
        return engine.now, grouped

    default_time, grouped = finish()
    assert not grouped
    monkeypatch.setattr("repro.sim.fluid._GROUPED_RECOMPUTE_MIN", 1)
    forced_time, grouped = finish()
    assert grouped
    assert default_time == pytest.approx(100.0)
    assert forced_time == pytest.approx(default_time, rel=1e-12)


def test_staggered_join_drain_capped_completion_times():
    """Joins, drains, and a rate-capped flow, against the max-min
    schedule worked by hand.

    t=0:   A=[link,wide] 400 B, B=[link] 900 B capped at 3.
           link: B binds at its cap 3, A takes the other 7.
    t=25:  A has 225 B left, B 825.  C=[wide] 2000 B joins; the link
           still bottlenecks A at 7, so C takes wide's other 33.
    t=400/7: A drains.  C had 6575/7 B left and now gets all 40 of wide.
    t=80.625: C drains.  B ran at its cap throughout: 900/3 = 300.
    """
    engine, fluid = make()
    link = Capacity("link", 10.0)
    wide = Capacity("wide", 40.0)
    finished: dict[str, float] = {}

    def launcher():
        flows = {
            "A": fluid.transfer([link, wide], 400.0),
            "B": fluid.transfer([link], 900.0, rate_cap=3.0),
        }
        yield engine.timeout(25.0)
        flows["C"] = fluid.transfer([wide], 2000.0)
        for name, flow in flows.items():
            flow.callbacks.append(lambda _e, n=name: finished.setdefault(n, engine.now))
        yield engine.all_of(list(flows.values()))

    engine.run(engine.process(launcher()))
    assert finished == pytest.approx({"A": 400.0 / 7.0, "B": 300.0, "C": 80.625}, rel=1e-12)
    assert list(finished) == ["A", "C", "B"]


def _mixed_path_completions() -> tuple[dict[int, float], bool]:
    """Twelve uncapped flows over three overlapping paths; returns each
    flow's completion time and whether the grouped pass ever engaged."""
    engine, fluid = make()
    up = Capacity("up", 34.5)
    down = Capacity("down", 34.5)
    chan = Capacity("chan", 97.0)
    paths = ([up, down], [chan, up], [chan])
    finished: dict[int, float] = {}
    grouped = False

    def launcher():
        nonlocal grouped
        flows = []
        for i in range(12):
            flow = fluid.transfer(paths[i % 3], 1000.0 * (1 + i % 5))
            flow.callbacks.append(lambda _e, i=i: finished.setdefault(i, engine.now))
            flows.append(flow)
            grouped = grouped or fluid._virtualized
            yield engine.timeout(3.0)
        yield engine.all_of(flows)

    engine.run(engine.process(launcher()))
    return finished, grouped


def test_grouped_waterfill_matches_per_flow_waterfill(monkeypatch):
    grouped, used_groups = _mixed_path_completions()
    assert used_groups
    monkeypatch.setattr("repro.sim.fluid._GROUPED_RECOMPUTE_MIN", 10**9)
    per_flow, used_groups = _mixed_path_completions()
    assert not used_groups
    assert list(grouped) == list(per_flow)
    assert grouped == pytest.approx(per_flow, rel=1e-9)


def test_hybrid_grouped_solver_virtualizes_large_flow_sets():
    """>= _GROUPED_RECOMPUTE_MIN same-path flows flip the model into
    virtual-service accounting; completions still match the closed form
    (n identical flows through one link finish together at n*size/rate)."""
    engine, fluid = make()
    link = Capacity("link", 8.0)
    flows = [fluid.transfer([link], 160.0) for _ in range(12)]
    assert fluid._virtualized  # grouped path engaged
    engine.run(engine.all_of(flows))
    assert engine.now == pytest.approx(12 * 160.0 / 8.0)
    assert fluid.active_transfers == 0
    assert not fluid._virtualized


def test_hybrid_capped_join_materializes_virtual_state():
    """A rate-capped flow joining a virtualized group forces the solver
    back to per-flow accounting without losing progress."""
    engine, fluid = make()
    link = Capacity("link", 10.0)
    flows = [fluid.transfer([link], 500.0) for _ in range(10)]
    assert fluid._virtualized

    def join_capped():
        yield engine.timeout(100.0)  # each flow has moved 100 bytes
        capped = fluid.transfer([link], 330.0, rate_cap=0.5)
        assert not fluid._virtualized
        yield capped

    joiner = engine.process(join_capped())
    engine.run(engine.all_of(flows))
    # materialized progress intact: the ten had 400 left at t=100 and
    # share 10 - 0.5 from then on -> 0.95 each
    assert engine.now == pytest.approx(100.0 + 400.0 / 0.95)
    engine.run(joiner)
    # the cap binds the whole time: 330 bytes at 0.5 from t=100
    assert engine.now == pytest.approx(100.0 + 330.0 / 0.5)


def test_hybrid_settle_exposes_midflight_progress():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    done = fluid.transfer([link], 1000.0)
    engine.run(until=40.0)
    fluid.settle()
    assert link.stats.counter("bytes").value == pytest.approx(400.0)
    assert link.utilization == pytest.approx(1.0)
    engine.run(done)
    assert engine.now == pytest.approx(100.0)


def test_hybrid_aggregate_bytes_match_per_flow_accounting():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    flows = [fluid.transfer([link], 123.0), fluid.transfer([link], 877.0)]
    engine.run(engine.all_of(flows))
    assert link.stats.counter("bytes").value == pytest.approx(1000.0)


def test_hybrid_tiny_transfer_completes():
    engine, fluid = make()
    link = Capacity("link", 10.0)
    done = fluid.transfer([link], 1e-6)  # below COMPLETION_EPSILON
    engine.run(done)
    assert done.triggered


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.floats(1.0, 1e6), min_size=1, max_size=12),
    rate=st.floats(0.5, 100.0),
)
def test_hybrid_aggregate_throughput_equals_capacity(sizes, rate):
    """The solver conserves work: total bytes / makespan equals
    the link rate, whether or not the flow count crosses the grouped
    (virtual-service) threshold."""
    engine, fluid = make()
    link = Capacity("link", rate)
    flows = [fluid.transfer([link], size) for size in sizes]
    engine.run(engine.all_of(flows))
    assert engine.now == pytest.approx(sum(sizes) / rate, rel=1e-6)
