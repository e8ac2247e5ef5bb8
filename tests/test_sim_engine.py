"""Unit tests for the event engine, events, and processes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import Engine
from repro.sim.events import Event


def test_clock_starts_at_zero(engine):
    assert engine.now == 0.0


def test_timeout_advances_clock(engine):
    done = engine.timeout(125.0)
    engine.run(done)
    assert engine.now == 125.0


def test_timeout_carries_value(engine):
    assert engine.run(engine.timeout(1.0, value="payload")) == "payload"


def test_negative_timeout_rejected(engine):
    with pytest.raises(SimulationError):
        engine.timeout(-1.0)


def test_events_fire_in_time_order(engine):
    order: list[int] = []
    for delay, tag in ((30.0, 3), (10.0, 1), (20.0, 2)):
        event = engine.timeout(delay)
        event.callbacks.append(lambda _e, t=tag: order.append(t))
    engine.run()
    assert order == [1, 2, 3]


def test_ties_break_by_schedule_order(engine):
    order: list[str] = []
    for tag in "abc":
        event = engine.timeout(5.0)
        event.callbacks.append(lambda _e, t=tag: order.append(t))
    engine.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_stops_exactly(engine):
    fired: list[float] = []
    for delay in (10.0, 20.0, 30.0):
        engine.timeout(delay).callbacks.append(lambda _e: fired.append(engine.now))
    engine.run(until=20.0)
    assert fired == [10.0, 20.0]
    assert engine.now == 20.0


def test_run_until_past_deadline_rejected(engine):
    engine.run(until=50.0)
    with pytest.raises(SimulationError):
        engine.run(until=10.0)


def test_event_cannot_trigger_twice(engine):
    event = engine.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_raises(engine):
    event = engine.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_failed_event_without_waiter_crashes_run(engine):
    event = engine.event()
    event.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        engine.run()


def test_defused_failed_event_is_silent(engine):
    event = engine.event()
    event.fail(ValueError("boom"))
    event.defuse()
    engine.run()  # does not raise


def test_process_returns_value(engine):
    def body():
        yield engine.timeout(10.0)
        return 99

    proc = engine.process(body())
    assert engine.run(proc) == 99


def test_process_sees_event_values(engine):
    def body():
        first = yield engine.timeout(1.0, value="a")
        second = yield engine.timeout(1.0, value="b")
        return first + second

    assert engine.run(engine.process(body())) == "ab"


def test_process_exception_propagates_to_waiter(engine):
    def failing():
        yield engine.timeout(1.0)
        raise RuntimeError("inner")

    def waiter():
        try:
            yield engine.process(failing())
        except RuntimeError as exc:
            return f"caught {exc}"

    assert engine.run(engine.process(waiter())) == "caught inner"


def test_process_must_yield_events(engine):
    def bad():
        yield 42  # not an Event

    with pytest.raises(SimulationError, match="must yield Events"):
        engine.run(engine.process(bad()))


def test_process_recovers_from_a_bad_yield(engine):
    """The error thrown into a body that yielded a non-Event is an
    ordinary resume: the body may catch it and wait on a real event."""

    def forgiving():
        try:
            yield 42  # not an Event
        except SimulationError:
            yield engine.timeout(5.0)
        return "done"

    assert engine.run(engine.process(forgiving())) == "done"
    assert engine.now == 5.0


def test_process_requires_generator(engine):
    with pytest.raises(SimulationError, match="generator"):
        engine.process(lambda: None)  # type: ignore[arg-type]


def test_processes_wait_on_each_other(engine):
    def producer():
        yield engine.timeout(10.0)
        return "made"

    def consumer(prod):
        value = yield prod
        return f"got {value}"

    prod = engine.process(producer())
    cons = engine.process(consumer(prod))
    assert engine.run(cons) == "got made"
    assert engine.now == 10.0


def test_waiting_on_already_processed_event(engine):
    done = engine.timeout(5.0)
    engine.run()

    def late():
        value = yield done
        return value

    # waiting on a processed event resumes immediately (next tick)
    assert engine.run(engine.process(late())) is None
    assert engine.now == 5.0


def test_all_of_waits_for_every_event(engine):
    a = engine.timeout(10.0, value=1)
    b = engine.timeout(30.0, value=2)
    result = engine.run(engine.all_of([a, b]))
    assert result == {a: 1, b: 2}
    assert engine.now == 30.0


def test_all_of_fails_fast_on_error(engine):
    def failing():
        yield engine.timeout(5.0)
        raise KeyError("dead")

    ok = engine.timeout(50.0)
    bad = engine.process(failing())
    with pytest.raises(KeyError):
        engine.run(engine.all_of([ok, bad]))


def test_condition_rejects_foreign_engine(engine):
    other = Engine()
    with pytest.raises(SimulationError):
        engine.all_of([other.timeout(1.0)])


def test_run_until_event_deadlock_detected(engine):
    never = engine.event()
    with pytest.raises(DeadlockError):
        engine.run(never)


def test_step_on_empty_heap_raises(engine):
    with pytest.raises(DeadlockError):
        engine.step()


def test_determinism_two_identical_runs():
    def simulate() -> list[float]:
        engine = Engine(seed=7)
        times: list[float] = []

        def body(name: str, delay: float):
            for _ in range(3):
                yield engine.timeout(delay)
                times.append(engine.now)

        engine.process(body("a", 3.0))
        engine.process(body("b", 5.0))
        engine.run()
        return times

    assert simulate() == simulate()


def test_peek_reports_next_event_time(engine):
    assert engine.peek() == float("inf")
    engine.timeout(42.0)
    assert engine.peek() == 42.0


def test_events_processed_counts_every_dispatch(engine):
    for delay in (1.0, 2.0, 3.0):
        engine.timeout(delay)
    engine.run()
    assert engine.events_processed == 3


def test_events_processed_counts_event_whose_callback_raises(engine):
    """The counter moves at pop, before callbacks run: an event whose
    callback blows up is still a processed event."""
    engine.timeout(1.0)
    bad = engine.timeout(2.0)
    bad.callbacks.append(lambda _e: (_ for _ in ()).throw(RuntimeError("boom")))
    with pytest.raises(RuntimeError, match="boom"):
        engine.run()
    assert engine.events_processed == 2


def test_run_until_deadline_tie_semantics(engine):
    """``run(until=t)`` processes every event with ``when <= t`` — in
    ``(when, seq)`` order, including events that deadline-time events
    schedule at exactly the deadline — then parks the clock at ``t``."""
    fired: list[str] = []
    engine.timeout(50.0).callbacks.append(lambda _e: fired.append("early"))
    at_deadline = engine.timeout(100.0)
    at_deadline.callbacks.append(lambda _e: fired.append("edge"))

    def spawn_more(_e):
        # zero-delay from t=100: lands exactly on the deadline, must run
        engine.timeout(0.0).callbacks.append(lambda _e: fired.append("edge-child"))
        engine.timeout(0.5).callbacks.append(lambda _e: fired.append("late"))

    at_deadline.callbacks.append(spawn_more)
    engine.timeout(100.0).callbacks.append(lambda _e: fired.append("edge-tie"))

    engine.run(until=100.0)
    assert fired == ["early", "edge", "edge-tie", "edge-child"]
    assert engine.now == 100.0
    # the event past the deadline survives for the next run
    engine.run()
    assert fired[-1] == "late"
    assert engine.now == pytest.approx(100.5)


# -- run() against the step() reference ----------------------------------------

_PROGRAM = st.lists(
    st.tuples(
        st.floats(0.0, 500.0, allow_nan=False),
        st.sampled_from(["plain", "chain", "succeed", "fail"]),
        st.floats(0.0, 50.0, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


def _dispatch_trace(program, drive) -> tuple[list, float, int]:
    """Build one engine from *program*, run it with *drive*, and record
    every dispatch.

    Each instruction arms a timeout; its callback may chain another
    timeout, succeed a bare event, or fail one (defused, so the run
    survives) — every way user code perturbs the queue mid-dispatch.
    """
    engine = Engine(seed=3)
    trace: list[tuple[float, str]] = []

    def record(tag: str):
        return lambda _e: trace.append((engine.now, tag))

    for i, (delay, action, extra) in enumerate(program):
        timeout = engine.timeout(delay)
        timeout.callbacks.append(record(f"t{i}"))
        if action == "chain":
            def chain(_e, i=i, extra=extra):
                inner = engine.timeout(extra)
                inner.callbacks.append(record(f"t{i}.chain"))
            timeout.callbacks.append(chain)
        elif action == "succeed":
            target = engine.event(f"ev{i}")
            target.callbacks.append(record(f"ev{i}.ok"))
            timeout.callbacks.append(lambda _e, t=target, i=i: t.succeed(i))
        elif action == "fail":
            target = engine.event(f"ev{i}")
            target.callbacks.append(record(f"ev{i}.err"))
            target.defuse()
            timeout.callbacks.append(
                lambda _e, t=target: t.fail(RuntimeError("injected"))
            )
    drive(engine)
    return trace, engine.now, engine.events_processed


def _step_until_dry(engine: Engine) -> None:
    while engine.peek() != float("inf"):
        engine.step()


def _run_with_sink(engine: Engine) -> None:
    def sink(*_args) -> None:
        pass

    engine.sinks.append(sink)
    engine.run()


@settings(max_examples=60, deadline=None)
@given(program=_PROGRAM)
def test_run_dispatch_matches_step_reference(program):
    """``step()`` is the documented reference dispatch: ``run()``'s loop,
    with timeout recycling, must produce the same dispatch trace, final
    clock, and event count with and without an event sink installed."""
    reference = _dispatch_trace(program, _step_until_dry)
    assert _dispatch_trace(program, Engine.run) == reference
    assert _dispatch_trace(program, _run_with_sink) == reference


# -- event sinks and timeout recycling -------------------------------------------


def test_sink_changes_inside_a_callback_apply_to_the_next_dispatch(engine):
    seen: list[float] = []

    def sink(_engine, when, _seq, _event) -> None:
        seen.append(when)

    engine.timeout(1.0).callbacks.append(lambda _e: engine.sinks.append(sink))
    engine.timeout(2.0).callbacks.append(lambda _e: engine.sinks.remove(sink))
    engine.timeout(3.0)
    engine.run()
    # added at t=1: sees t=2 (sinks run before callbacks); removed at t=2
    assert seen == [2.0]


def test_timeout_dispatched_under_a_sink_is_recycled(engine):
    seen: list[float] = []

    def sink(_engine, when, _seq, _event) -> None:
        seen.append(when)

    engine.sinks.append(sink)
    engine.timeout(1.0)
    engine.run()
    pooled = list(engine._timeout_pool)
    assert len(pooled) == 1
    again = engine.timeout(2.0, value="v")
    assert again is pooled[0]
    assert again.delay == 2.0 and again.callbacks == [] and not again.processed
    assert engine.run(again) == "v"
    assert seen == [1.0, 3.0]
    assert engine.now == 3.0
