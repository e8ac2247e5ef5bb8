"""Tests for the max-min fair fluid bandwidth model.

The fluid solver is the reproduction's measurement substrate, so these
tests pin its arithmetic exactly: completion times of known scenarios,
max-min fairness across bottlenecks, rate caps, and agreement with
closed-form math on randomized cases (hypothesis).
"""

from __future__ import annotations

import math
import typing as _t
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.hw.latency import LatencyModel
from repro.sim import fluid as fluid_module
from repro.sim.fluid import Capacity, FluidModel, LoadCap, _utilization_root


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
    assert link.utilization * link.rate == pytest.approx(14.0)
    engine.run(until=15.0)
    assert link.utilization * link.rate == pytest.approx(2.0 + 9.0)
    engine.run(engine.all_of(flows))
    assert [n for n, _ in finished] == ["B"] * 5 + ["C"] * 5 + ["A"] * 4
    assert [t for _, t in finished] == pytest.approx([10.0] * 7 + [20.0] * 3 + [30.0] * 4, rel=1e-12)


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
    the link rate, however many flows share the link's one group."""
    engine, fluid = make()
    link = Capacity("link", rate)
    flows = [fluid.transfer([link], size) for size in sizes]
    engine.run(engine.all_of(flows))
    assert engine.now == pytest.approx(sum(sizes) / rate, rel=1e-6)


# -- load-dependent caps: the MLP fixed point ------------------------------------

#: one DDR4 channel (Table 1) and a core's 24 x 64 B in flight
_DDR4 = LatencyModel(82.0, 148.0)
_MLP = 24 * 64


def _bisect(f, lo: float = 0.0, hi: float = 1.0) -> float:
    """Root of a decreasing *f* on [lo, hi] by plain bisection."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _excess(rate: float, other: float, terms) -> _t.Callable[[float], float]:
    """A capacity's load balance: what it carries minus ``u * rate``,
    summed in the solver's order so the sign at full load agrees."""

    def excess(u: float) -> float:
        total = other
        for n, cap in terms:
            total += n * cap.at(u)
        return total - u * rate

    return excess


def _curve_shapes(shape: str):
    """A curve whose linear-fractional numerator ``a + b u`` rises
    (``b > 0``), falls (``b < 0``) or is flat (``lat_max == lat_min``,
    ``b == -rho * lat_min``)."""
    slope = {"rising": st.floats(1.01, 50.0), "falling": st.floats(0.0, 0.99)}

    @st.composite
    def curve(draw):
        lat_min = draw(st.floats(20.0, 500.0))
        rho = draw(st.floats(0.05, 0.99))
        if shape == "flat":
            return LatencyModel(lat_min, lat_min, rho)
        offset = draw(st.floats(0.0, 200.0))
        norm = 1.0 / (1.0 - rho) - 1.0
        # spread = k * norm * a gives b = rho * a * (k - 1)
        spread = draw(slope[shape]) * norm * (lat_min + offset)
        return LatencyModel(lat_min, lat_min + spread, rho, offset_ns=offset)

    return curve()


_terms = st.lists(st.tuples(st.integers(1, 8), st.floats(64.0, 2048.0)), min_size=1, max_size=4)


def _root_paths(rate: float, other: float, terms) -> tuple[float, int]:
    """``_utilization_root``'s answer and how many Illinois searches it ran."""
    with mock.patch.object(
        fluid_module, "_falling_root", wraps=fluid_module._falling_root
    ) as falling:
        u = _utilization_root(rate, other, terms)
    return u, falling.call_count


@pytest.mark.parametrize("shape", ["rising", "falling", "flat"])
@settings(max_examples=150, deadline=None)
@given(data=st.data(), rate=st.floats(1.0, 200.0), load=st.floats(0.0, 0.95), terms=_terms)
def test_utilization_root_on_one_curve_matches_bisection(shape, data, rate, load, terms):
    """One curve: the closed-form root agrees with 200 bisection steps
    of the balance itself, with no Illinois search."""
    curve = data.draw(_curve_shapes(shape))
    a = curve.lat_min + curve.offset_ns
    b = curve.rho * ((curve.lat_max - curve.lat_min) / curve.norm - a)
    assert b > 0 if shape == "rising" else b < 0
    caps = [(n, LoadCap(curve, mlp)) for n, mlp in terms]
    other = load * rate
    excess = _excess(rate, other, caps)
    u, searches = _root_paths(rate, other, caps)
    assert searches == 0
    if excess(1.0) >= 0.0:
        assert u == 1.0
    else:
        assert u == pytest.approx(_bisect(excess), rel=1e-12)


@given(curve=_curve_shapes("falling"), rate=st.floats(1.0, 200.0), terms=_terms)
def test_utilization_root_is_one_when_full_load_still_saturates(curve, rate, terms):
    caps = [(n, LoadCap(curve, mlp)) for n, mlp in terms]
    # whatever the caps add at full load, the rest alone fills the capacity
    assert _root_paths(rate, rate, caps) == (1.0, 0)
    # at the edge and just below it the balance at full load decides
    edge = max(0.0, rate - sum(n * cap.at(1.0) for n, cap in caps))
    for other in (edge * (1.0 - 1e-9), edge):
        excess = _excess(rate, other, caps)
        u, searches = _root_paths(rate, other, caps)
        assert searches == 0
        assert u == 1.0 if excess(1.0) >= 0.0 else u == pytest.approx(_bisect(excess), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    curves=st.tuples(_curve_shapes("falling"), _curve_shapes("rising")),
    rate=st.floats(1.0, 200.0),
    load=st.floats(0.0, 0.95),
    terms=_terms,
)
def test_utilization_root_on_several_curves_searches(curves, rate, load, terms):
    """Caps on different curves take the Illinois search, which agrees
    with bisection too."""
    caps = [(n, LoadCap(curves[k % 2], mlp)) for k, (n, mlp) in enumerate(terms + [(1, 64.0)])]
    other = load * rate
    excess = _excess(rate, other, caps)
    u, searches = _root_paths(rate, other, caps)
    if excess(1.0) >= 0.0:
        assert (u, searches) == (1.0, 0)
    else:
        assert searches == 1
        assert u == pytest.approx(_bisect(excess), rel=1e-12)


def _group_rates(fluid: FluidModel) -> dict[tuple, float]:
    return {key: group.rate for key, group in fluid._groups.items()}


@pytest.mark.parametrize("n", [1, 2, 4, 8, 14])
def test_load_capped_flows_match_closed_form(n):
    """n flows capped at m / L(u) on one channel run at min(B, n m / L(u*))
    with u* = n m / (B L(u*)): each flow's own load counts in its cap."""
    engine, fluid = make()
    bandwidth = 97.0
    chan = Capacity("chan", bandwidth)
    cap = LoadCap(_DDR4, _MLP)
    for _ in range(n):
        fluid.transfer([chan], 1e12, rate_cap=cap)
    assert len(fluid._groups) == 1  # equal caps share one group
    u_star = _bisect(lambda u: n * _MLP / (bandwidth * _DDR4(u)) - u)
    expected = min(bandwidth, n * _MLP / _DDR4(u_star))
    assert chan._used_rate == pytest.approx(expected, rel=1e-9)
    (group,) = fluid._groups.values()
    assert group.rate == pytest.approx(expected / n, rel=1e-9)


def _two_owner_brute_force(n_a, curve_a, n_b, curve_b, down_rate) -> tuple[float, float]:
    """Rates of two groups whose hottest capacity is one shared
    downlink: max-min on that link at caps m / L(u), with u bisected
    until it is the utilization the rates produce."""

    def rates(u: float) -> tuple[float, float]:
        cap_a, cap_b = _MLP / curve_a(u), _MLP / curve_b(u)
        share = down_rate / (n_a + n_b)
        if cap_a <= share and cap_b <= share:
            return cap_a, cap_b
        if cap_a <= share:
            return cap_a, min(cap_b, (down_rate - n_a * cap_a) / n_b)
        if cap_b <= share:
            return min(cap_a, (down_rate - n_b * cap_b) / n_a), cap_b
        return share, share

    def excess(u: float) -> float:
        r_a, r_b = rates(u)
        return (n_a * r_a + n_b * r_b) / down_rate - u

    u = 1.0 if excess(1.0) >= 0.0 else _bisect(excess)
    return rates(u)


@pytest.mark.parametrize(("n_a", "n_b"), [(1, 1), (3, 4), (8, 2), (6, 8)])
def test_two_owners_sharing_a_downlink_match_brute_force(n_a, n_b):
    """A requester streams from two owners over different link curves;
    both groups' hottest capacity is the requester's downlink."""
    engine, fluid = make()
    link0, link1 = LatencyModel(163.0, 418.0), LatencyModel(261.0, 527.0)
    down = Capacity("req.down", 34.5)
    path_a = (Capacity("a.chan", 97.0), Capacity("a.up", 34.5), down)
    path_b = (Capacity("b.chan", 97.0), Capacity("b.up", 34.5), down)
    for _ in range(n_a):
        fluid.transfer(path_a, 1e12, rate_cap=LoadCap(link0, _MLP))
    for _ in range(n_b):
        fluid.transfer(path_b, 1e12, rate_cap=LoadCap(link1, _MLP))
    expected_a, expected_b = _two_owner_brute_force(n_a, link0, n_b, link1, 34.5)
    rates = _group_rates(fluid)
    assert rates[(path_a, LoadCap(link0, _MLP))] == pytest.approx(expected_a, rel=1e-9)
    assert rates[(path_b, LoadCap(link1, _MLP))] == pytest.approx(expected_b, rel=1e-9)


def _assert_fixed_point(fluid: FluidModel, rates: tuple[float, ...], nodes) -> None:
    """Every group's rate is the max-min share under caps re-evaluated
    at the utilizations those rates produce, and no capacity is
    over-subscribed."""
    groups = list(fluid._groups.values())
    index = {cap: k for k, cap in enumerate(nodes)}
    paths, caps, owners = [], [], []
    for group in groups:
        cap = group.cap
        if type(cap) is LoadCap:
            cap = cap.at(min(1.0, max(c._used_rate / c.rate for c in group.path)))
        for _ in group.members:
            paths.append(tuple(index[c] for c in group.path))
            caps.append(cap)
            owners.append(group)
    expected = _reference_rates(paths, caps, rates)
    for group, share in zip(owners, expected):
        assert group.rate == pytest.approx(share, rel=1e-9)
    for node in nodes:
        assert node._used_rate <= node.rate * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    flows=st.lists(
        st.tuples(
            st.floats(0.0, 1e8),
            st.sampled_from(_REF_PATHS),
            st.sampled_from(("slow", "fast", 3.0, math.inf)),
            st.floats(1e7, 1e9),
        ),
        min_size=1,
        max_size=14,
    )
)
def test_load_caps_are_a_fixed_point_after_every_recompute(flows):
    """Mixed load-capped, float-capped and uncapped flows over shared
    capacities: after each recompute the load caps are consistent with
    the load they produce."""
    curves = {"slow": LoadCap(LatencyModel(100.0, 400.0), 300.0),
              "fast": LoadCap(LatencyModel(50.0, 200.0), 400.0)}
    engine, fluid = make()
    nodes = [Capacity(f"c{k}", rate) for k, rate in enumerate(_REF_RATES)]
    recompute = fluid._recompute
    checked = [0]

    def checked_recompute(touched) -> None:
        recompute(touched)
        _assert_fixed_point(fluid, _REF_RATES, nodes)
        checked[0] += 1

    fluid._recompute = checked_recompute

    def launcher():
        for gap, path, cap, size in flows:
            if gap:
                yield engine.timeout(gap)
            fluid.transfer([nodes[k] for k in path], size, rate_cap=curves.get(cap, cap))

    engine.process(launcher())
    engine.run()
    assert checked[0] >= len(flows)
    assert not fluid._groups and not fluid._load_capped


def _parent_waterfill(groups: list) -> dict:
    """The grouped waterfill as it stood before load caps: a fixed copy
    of its arithmetic, run over (path, cap, n) groups in the solver's
    group order."""
    inf = math.inf
    remaining: dict = {}
    unfrozen_at: dict = {}
    capped = []
    for group in groups:
        path, cap, n = group
        if cap != inf:
            capped.append(group)
        for node in path:
            remaining[node] = node.rate
            unfrozen_at[node] = unfrozen_at.get(node, 0) + n
    used = dict.fromkeys(remaining, 0.0)
    rate_of = {}
    unfrozen = {group: group[0] for group in groups}
    while unfrozen:
        best_share = inf
        best_cap = None
        for node, rem in remaining.items():
            n = unfrozen_at[node]
            if n <= 0:
                continue
            share = rem / n
            if share < best_share:
                best_share = share
                best_cap = node
        freeze = [(g, g[1]) for g in capped if g[1] <= best_share]
        if not freeze:
            share = remaining[best_cap] / unfrozen_at[best_cap]
            freeze = [(g, share) for g, path in unfrozen.items() if best_cap in path]
        for group, rate in freeze:
            rate_of[group] = rate
            del unfrozen[group]
            total = rate * group[2]
            for node in group[0]:
                remaining[node] -= total
                unfrozen_at[node] -= group[2]
                used[node] += total
        if capped:
            capped = [g for g in capped if g in unfrozen]
    return {(g[0], g[1]): r for g, r in rate_of.items()}, used


@settings(max_examples=60, deadline=None)
@given(
    flows=st.lists(
        st.tuples(
            st.floats(0.0, 1e8),
            st.sampled_from(_REF_PATHS),
            st.sampled_from((1.5, 3.0, 0.7, math.inf)),
            st.floats(1e7, 1e9),
        ),
        min_size=1,
        max_size=14,
    )
)
def test_float_caps_keep_the_parent_waterfill_bit_for_bit(flows):
    """With no load cap present, the solver is the plain waterfill:
    every group rate and capacity usage is bit-identical to it."""
    engine, fluid = make()
    nodes = [Capacity(f"c{k}", rate) for k, rate in enumerate(_REF_RATES)]
    recompute = fluid._recompute

    def checked_recompute(touched) -> None:
        recompute(touched)
        assert not fluid._load_capped
        groups = [(g.path, g.cap, len(g.members)) for g in fluid._groups.values()]
        rates, used = _parent_waterfill(groups)
        assert _group_rates(fluid) == rates
        assert {node: node._used_rate for node in used} == used

    fluid._recompute = checked_recompute

    def launcher():
        for gap, path, cap, size in flows:
            if gap:
                yield engine.timeout(gap)
            fluid.transfer([nodes[k] for k in path], size, rate_cap=cap)

    engine.process(launcher())
    engine.run()


#: two capacity regions that share no capacity: 0-2 and 3-4
_SPLIT_RATES = (10.0, 7.0, 13.0, 5.0, 11.0)
_SPLIT_PATHS = _REF_PATHS + ((3,), (4,), (3, 4), (4, 3, 4))


@settings(max_examples=80, deadline=None)
@given(
    flows=st.lists(
        st.tuples(
            st.floats(0.0, 1e8),
            st.sampled_from(_SPLIT_PATHS),
            st.floats(1e7, 1e9),
        ),
        min_size=1,
        max_size=16,
    )
)
def test_component_resolve_is_the_full_waterfill_bit_for_bit(flows):
    """Uncapped flows over two regions that share no capacity: after
    every transition, each group's rate and each crossed capacity's
    usage equal the waterfill over all groups, bit for bit, though a
    transition re-solves only the component it touches."""
    engine, fluid = make()
    nodes = [Capacity(f"c{k}", rate) for k, rate in enumerate(_SPLIT_RATES)]
    recompute = fluid._recompute

    def checked_recompute(touched) -> None:
        recompute(touched)
        groups = [(g.path, g.cap, len(g.members)) for g in fluid._groups.values()]
        rates, used = _parent_waterfill(groups)
        assert _group_rates(fluid) == rates
        assert {node: node._used_rate for node in used} == used

    fluid._recompute = checked_recompute

    def launcher():
        for gap, path, size in flows:
            if gap:
                yield engine.timeout(gap)
            fluid.transfer([nodes[k] for k in path], size)

    engine.process(launcher())
    engine.run()
    assert not fluid._groups and not fluid._cap_groups
    assert all(node._used_rate == 0.0 for node in nodes)


@pytest.mark.parametrize("cap", [2.0, LoadCap(_DDR4, _MLP)], ids=["float", "load"])
def test_a_capped_group_anywhere_makes_the_solve_global(cap):
    """A transition in one region re-solves every group while a capped
    group flows in another region, and only its own region after."""
    engine, fluid = make()
    a, b = Capacity("a", 10.0), Capacity("b", 10.0)
    fluid.transfer([a], 1e6)
    capped = fluid.transfer([b], 1e3, rate_cap=cap)
    solved: list[set] = []
    waterfill = fluid._waterfill

    def spy(groups=None):
        solved.append({g.path for g in (fluid._groups.values() if groups is None else groups)})
        return waterfill(groups)

    fluid._waterfill = spy
    fluid.transfer([a], 1e6)
    assert solved and all(paths == {(a,), (b,)} for paths in solved)
    engine.run(capped)
    solved.clear()
    fluid.transfer([a], 1e6)
    assert solved == [{(a,)}]


def test_load_caps_that_cannot_settle_raise():
    engine, fluid = make()
    chan = Capacity("chan", 97.0)
    fluid.MAX_CAP_ROUNDS = 1  # the knee needs a second waterfill
    with pytest.raises(SimulationError, match="did not settle"):
        for _ in range(4):
            fluid.transfer([chan], 1e9, rate_cap=LoadCap(_DDR4, _MLP))


def test_load_cap_needs_bytes_in_flight():
    with pytest.raises(SimulationError):
        LoadCap(_DDR4, 0)


def test_uncapped_flow_beside_load_capped_ones_saturates_the_path():
    """A flow below its cap takes what the load-capped group leaves, so
    the path runs full and the capped flows see the fully loaded curve."""
    engine, fluid = make()
    link = Capacity("link", 34.5)
    curve = LatencyModel(163.0, 418.0)
    for _ in range(2):
        fluid.transfer([link], 1e12, rate_cap=LoadCap(curve, _MLP))
    fluid.transfer([link], 1e12)
    rates = _group_rates(fluid)
    assert rates[((link,), LoadCap(curve, _MLP))] == pytest.approx(_MLP / curve(1.0), rel=1e-12)
    assert link._used_rate == pytest.approx(34.5, rel=1e-12)
