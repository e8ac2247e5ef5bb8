"""The determinism harness: same seed, byte-identical event streams.

The acceptance criterion for this subsystem: at least two seed
scenarios (figure2 and incast) rerun with identical traces, and a
deliberately nondeterministic scenario is caught with a precise report.
"""

from __future__ import annotations

import random

import pytest

from repro.check.determinism import SCENARIOS, DeterminismHarness, format_dispatch
from repro.errors import DeterminismError
from repro.sim.engine import DEFAULTS, Engine


def test_figure2_is_deterministic():
    report = DeterminismHarness().run("figure2")
    assert report.identical, report.render()
    assert report.events_first > 0


def test_incast_is_deterministic():
    report = DeterminismHarness().run("incast")
    assert report.identical, report.render()
    assert report.events_first > 0


def test_report_renders_event_counts():
    report = DeterminismHarness().run("figure2")
    assert "byte-identical" in report.render()
    report.raise_on_divergence()  # must not raise


def test_builtin_scenarios_registered():
    assert {"figure2", "incast"} <= set(SCENARIOS)


def test_unknown_scenario_rejected():
    with pytest.raises(DeterminismError):
        DeterminismHarness().run("no-such-scenario")


def test_nondeterministic_scenario_caught():
    # wall-clock-free but seeded differently every call: the harness
    # must flag the divergence and point at the first differing event
    def unseeded() -> None:
        rng = random.Random()  # OS entropy: differs run to run
        engine = Engine(seed=0)

        def worker(eng):
            for _ in range(5):
                yield eng.timeout(rng.uniform(1.0, 100.0))

        engine.process(worker(engine), name="jitter")
        engine.run()

    harness = DeterminismHarness(scenarios={"jitter": unseeded})
    report = harness.run("jitter")
    assert not report.identical
    assert report.first_divergence is not None
    with pytest.raises(DeterminismError):
        report.raise_on_divergence()


def test_capture_isolates_runs():
    harness = DeterminismHarness()

    def tiny() -> None:
        engine = Engine(seed=3)

        def body(eng):
            yield eng.timeout(1.0)

        engine.process(body(engine), name="t")
        engine.run()

    first = harness.capture(tiny)
    second = harness.capture(tiny)
    assert first == second
    assert first  # events were actually recorded
    # no sink leaks: an engine built after the captures has no sink
    assert not DEFAULTS.sinks
    assert not Engine(seed=3).sinks


def test_dispatch_line_format():
    class Tick:
        name = "tick"

    assert format_dispatch(12.5, 3, Tick()) == (
        "[          12.5ns] engine                   engine.step          "
        "event=Tick name=tick seq=3"
    )
    # events without a name render an empty one
    assert format_dispatch(0.0, 1, object()).endswith("event=object name= seq=1")
