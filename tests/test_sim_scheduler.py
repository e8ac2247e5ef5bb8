"""Tests for the engine's future-event set.

The engine keeps one ``heapq`` list of ``(when, seq, event)`` entries and
promises one total order — ``(when, seq)``.  These tests pin that order
and the ``peek()`` view of the set directly, below the event API that
``tests/test_sim_engine.py`` exercises.  The ``calendar`` test name is
kept from the removed calendar-queue scheduler; the property it pins is
the same.
"""

from __future__ import annotations

import math

from repro.sim.engine import Engine


def test_calendar_ties_pop_in_seq_order():
    """Events at the same instant dispatch in the order they were
    scheduled, even when earlier and later events interleaved with them
    force the heap to rearrange its entries."""
    engine = Engine()
    delays = [7.5, 9.0, 7.5, 1.0, 7.5, 3.0, 7.5, 7.5]
    seen: list[tuple[float, int]] = []
    for index, delay in enumerate(delays):
        engine.timeout(delay).callbacks.append(
            lambda _e, i=index: seen.append((engine.now, i))
        )
    assert len(engine._heap) == len(delays)
    engine.run()
    ties = [i for when, i in seen if when == 7.5]
    assert ties == [0, 2, 4, 6, 7]
    assert [when for when, _i in seen] == sorted(delays)


def test_peek_when_empty_is_inf():
    engine = Engine()
    assert engine.peek() == math.inf
    engine.timeout(3.0)
    engine.run()
    assert engine.peek() == math.inf


def test_peek_when_reports_minimum_without_removing():
    engine = Engine()
    late = engine.timeout(90.0)
    early = engine.timeout(10.0)
    assert engine.peek() == 10.0
    assert len(engine._heap) == 2
    assert engine.peek() == 10.0
    engine.step()
    assert engine.now == 10.0
    assert early.processed and not late.processed
    assert engine.peek() == 90.0
