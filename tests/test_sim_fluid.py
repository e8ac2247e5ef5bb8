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


def test_sequential_transfers_each_cost_an_event():
    """1000 back-to-back chunk transfers through one capacity: each
    completion is an engine event, none is folded away."""
    engine, fluid = make()
    link = Capacity("link", 34.5)

    def body():
        for _ in range(1000):
            yield fluid.transfer([link], 4 * 1024 * 1024)

    engine.run(engine.process(body()))
    assert engine.events_processed >= 1000
    assert link.stats.counter("bytes").value == pytest.approx(1000 * 4 * 1024 * 1024)


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


# -- transitions and (path, cap) groups -----------------------------------------
#
# Progress is advanced only at rate transitions, and the solver
# waterfills per distinct (path, rate cap) group instead of per flow.
# These tests pin it against hand-computed max-min schedules and against
# a per-flow reference waterfill.  (The ``test_hybrid_`` prefix dates
# from when this solver was an opt-in "hybrid" mode.)


def test_hybrid_single_flow_matches_default():
    """A lone flow finishes at the closed form: size over its bottleneck
    (the link, or its own cap), and a path that crosses one node twice
    charges the flow twice there (half the node's rate)."""

    def finish(route: str, rate_cap: float = math.inf) -> float:
        engine, fluid = make()
        nodes = {"l": Capacity("link", 10.0), "w": Capacity("wide", 40.0)}
        engine.run(fluid.transfer([nodes[c] for c in route], 1000.0, rate_cap=rate_cap))
        return engine.now

    assert finish("l") == pytest.approx(100.0, rel=1e-12)
    assert finish("wl", rate_cap=4.0) == pytest.approx(250.0, rel=1e-12)
    assert finish("lwl") == pytest.approx(200.0, rel=1e-12)


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


def _reference_rates(
    paths: list[tuple[int, ...]], caps: list[float], rates: tuple[float, ...]
) -> list[float]:
    """Per-flow max-min water-fill: each round, every flow whose cap is
    at or below the bottleneck share freezes at its cap; otherwise the
    flows through the bottleneck freeze at its share.  A path listing a
    node twice counts against it twice."""
    share_of = [0.0] * len(paths)
    left = list(rates)
    unfrozen = set(range(len(paths)))
    while unfrozen:
        crossings = [0] * len(rates)
        for i in unfrozen:
            for node in paths[i]:
                crossings[node] += 1
        share, bottleneck = min(
            (left[node] / k, node) for node, k in enumerate(crossings) if k
        )
        capped = {i for i in unfrozen if caps[i] <= share}
        frozen = capped or {i for i in unfrozen if bottleneck in paths[i]}
        for i in frozen:
            share_of[i] = caps[i] if capped else share
            for node in paths[i]:
                left[node] -= share_of[i]
        unfrozen -= frozen
    return share_of


def _reference_completions(
    specs: list[tuple[float, tuple[int, ...], float, float]], rates: tuple[float, ...]
) -> dict[int, float]:
    """Event-by-event fluid schedule of *specs* (start, path, cap, size),
    re-solving :func:`_reference_rates` at every start and completion."""
    now = 0.0
    left: dict[int, float] = {}
    done: dict[int, float] = {}
    pending = list(range(len(specs)))
    while pending or left:
        active = list(left)
        shares = _reference_rates([specs[i][1] for i in active], [specs[i][2] for i in active], rates)
        finish_at = {i: now + left[i] / r for i, r in zip(active, shares)}
        step = min(finish_at.values(), default=math.inf)
        if pending:
            step = min(step, specs[pending[0]][0])
        for i, r in zip(active, shares):
            if finish_at[i] <= step * (1 + 1e-12):
                del left[i]
                done[i] = step
            else:
                left[i] -= r * (step - now)
        now = step
        while pending and specs[pending[0]][0] <= now:
            i = pending.pop(0)
            left[i] = specs[i][3]
    return done


#: three capacities, and paths over them (the last crosses node 2 twice)
_REF_RATES = (10.0, 7.0, 13.0)
_REF_PATHS = ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (0, 1, 2), (2, 0, 2))


@settings(max_examples=60, deadline=None)
@given(
    flows=st.lists(
        st.tuples(
            st.floats(0.0, 1e8),
            st.sampled_from(_REF_PATHS),
            st.sampled_from((1.5, 3.0, math.inf)),
            st.floats(1e7, 1e9),
        ),
        min_size=1,
        max_size=14,
    )
)
def test_grouped_waterfill_matches_per_flow_waterfill(flows):
    """The (path, cap)-grouped solver reproduces a per-flow max-min
    reference: same completion order, same completion times.  (Sizes
    are large enough that COMPLETION_EPSILON's early finish of a
    sub-epsilon residue stays below the tolerance.)"""
    specs = []
    start = 0.0
    for gap, path, cap, size in flows:
        start += gap
        specs.append((start, path, cap, size))
    expected = _reference_completions(specs, _REF_RATES)

    engine, fluid = make()
    nodes = [Capacity(f"c{k}", rate) for k, rate in enumerate(_REF_RATES)]
    finished: dict[int, float] = {}

    def launcher():
        for i, (at, path, cap, size) in enumerate(specs):
            if at > engine.now:
                yield engine.timeout(at - engine.now)
            done = fluid.transfer([nodes[k] for k in path], size, rate_cap=cap)
            done.callbacks.append(lambda _e, i=i: finished.setdefault(i, engine.now))

    engine.process(launcher())
    engine.run()
    assert finished == pytest.approx(expected, rel=1e-9)
    # completion order: each callback fires no earlier than its
    # predecessor in the reference schedule (to within float ties)
    order = list(finished)
    for before, after in zip(order, order[1:]):
        assert expected[before] <= expected[after] * (1 + 1e-9)


def test_hybrid_grouped_solver_virtualizes_large_flow_sets():
    """n identical flows through one link form one group and finish
    together at n*size/rate."""
    engine, fluid = make()
    link = Capacity("link", 8.0)
    flows = [fluid.transfer([link], 160.0) for _ in range(12)]
    assert len(fluid._groups) == 1
    finished: list[float] = []
    for flow in flows:
        flow.callbacks.append(lambda _e: finished.append(engine.now))
    engine.run(engine.all_of(flows))
    assert finished == [pytest.approx(12 * 160.0 / 8.0, rel=1e-12)] * 12
    assert fluid.active_transfers == 0
    assert not fluid._groups


def test_hybrid_capped_join_materializes_virtual_state():
    """A rate-capped flow joining a large uncapped group mid-flight
    starts its own group without losing the others' progress."""
    engine, fluid = make()
    link = Capacity("link", 10.0)
    flows = [fluid.transfer([link], 500.0) for _ in range(10)]

    def join_capped():
        yield engine.timeout(100.0)  # each flow has moved 100 bytes
        capped = fluid.transfer([link], 330.0, rate_cap=0.5)
        assert len(fluid._groups) == 2
        yield capped

    joiner = engine.process(join_capped())
    engine.run(engine.all_of(flows))
    # progress intact: the ten had 400 left at t=100 and share
    # 10 - 0.5 from then on -> 0.95 each
    assert engine.now == pytest.approx(100.0 + 400.0 / 0.95)
    engine.run(joiner)
    # the cap binds the whole time: 330 bytes at 0.5 from t=100
    assert engine.now == pytest.approx(100.0 + 330.0 / 0.5)


def test_equal_instant_completions_fire_in_transfer_start_order():
    """Flows in different groups that drain at the same instant complete
    in the order their transfers started, not in group order.

    A=[x] 1000 B starts x's group; D=[y] 100 B then E=[x] 50 B.  x splits
    5/5 between A and E, y gives D all 10: D and E both drain at t=10,
    and x's group (holding E) was formed before y's (holding D)."""
    engine, fluid = make()
    x = Capacity("x", 10.0)
    y = Capacity("y", 10.0)
    order: list[str] = []
    for name, path, size in (("A", [x], 1000.0), ("D", [y], 100.0), ("E", [x], 50.0)):
        done = fluid.transfer(path, size)
        done.callbacks.append(lambda _e, n=name: order.append(n))
    engine.run(until=10.0 + 1e-9)
    assert order == ["D", "E"]
    assert engine.now == pytest.approx(10.0)


def test_capped_groups_on_one_path_match_max_min_schedule():
    """14 flows on one 14 B/ns link in three cap groups.

    t=0:  the fair share is 1.  A (4 flows, cap 0.5) binds first and
          takes 2; the share of the other ten is 1.2, so B (5 flows,
          cap 1) binds and takes 5; C (5 flows, cap 3) splits the other
          7 at 1.4 each — its cap does not bind yet.
    t=10: B (10 B each) and C's two 14 B flows drain.  The three long
          C flows would now get (14 - 2) / 3 = 4 each, so their cap
          binds at 3: 44 - 14 = 30 B left takes until t=20.
    t=30: A, capped at 0.5 throughout, drains its 15 B.
    """
    engine, fluid = make()
    link = Capacity("link", 14.0)
    specs = (
        [("A", 0.5, 15.0)] * 4
        + [("B", 1.0, 10.0)] * 5
        + [("C", 3.0, 14.0)] * 2
        + [("C", 3.0, 44.0)] * 3
    )
    finished: list[tuple[str, float]] = []
    flows = []
    for name, cap, size in specs:
        flow = fluid.transfer([link], size, rate_cap=cap)
        flow.callbacks.append(lambda _e, n=name: finished.append((n, engine.now)))
        flows.append(flow)
    assert len(fluid._groups) == 3
    assert link.used_rate == pytest.approx(14.0)
    engine.run(until=15.0)
    assert link.used_rate == pytest.approx(2.0 + 9.0)
    engine.run(engine.all_of(flows))
    assert [n for n, _ in finished] == ["B"] * 5 + ["C"] * 5 + ["A"] * 4
    assert [t for _, t in finished] == pytest.approx([10.0] * 7 + [20.0] * 3 + [30.0] * 4, rel=1e-12)


def test_settle_writes_back_per_flow_remaining():
    """After settle(), every in-flight flow's `remaining` and `rate` are
    current: 800 B uncapped and 600 B capped at 2 on a 10 B/ns link run
    at 8 and 2, so at t=50 they have 400 and 500 B left."""
    engine, fluid = make()
    link = Capacity("link", 10.0)
    fluid.transfer([link], 800.0)
    fluid.transfer([link], 600.0, rate_cap=2.0)
    engine.run(until=50.0)
    fluid.settle()
    greedy, capped = fluid._transfers
    assert (greedy.remaining, greedy.rate) == (pytest.approx(400.0), pytest.approx(8.0))
    assert (capped.remaining, capped.rate) == (pytest.approx(500.0), pytest.approx(2.0))
    engine.run()
    assert engine.now == pytest.approx(100.0 + 400.0 / 2.0)


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


def test_settle_completes_tiny_transfer_at_once():
    """A transfer below COMPLETION_EPSILON is done the moment it starts:
    settle() at the same instant retires it."""
    engine, fluid = make()
    link = Capacity("link", 10.0)
    done = fluid.transfer([link], 1e-6)
    fluid.settle()
    assert done.triggered
    assert fluid.active_transfers == 0


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.floats(1.0, 1e6), min_size=1, max_size=12),
    rate=st.floats(0.5, 100.0),
)
def test_hybrid_aggregate_throughput_equals_capacity(sizes, rate):
    """The solver conserves work: total bytes / makespan equals
    the link rate, however many flows share the link's one group."""
    engine, fluid = make()
    link = Capacity("link", rate)
    flows = [fluid.transfer([link], size) for size in sizes]
    engine.run(engine.all_of(flows))
    assert engine.now == pytest.approx(sum(sizes) / rate, rel=1e-6)
