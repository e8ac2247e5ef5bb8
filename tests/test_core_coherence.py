"""Tests for the coherence protocol, snoop filter, and sync primitives."""

from __future__ import annotations

import random

import pytest

from repro.core.coherence.protocol import CoherenceDirectory
from repro.core.coherence.snoop_filter import SnoopFilter
from repro.core.coherence.sync import CohortLock, SpinLock, TicketLock
from repro.errors import CoherenceError, ConfigError
from repro.units import mib


@pytest.fixture
def directory(logical_deployment) -> CoherenceDirectory:
    return CoherenceDirectory(logical_deployment, region_bytes=mib(1))


# --- snoop filter -------------------------------------------------------------


def test_filter_tracks_and_hits():
    sf = SnoopFilter(capacity_lines=4)
    assert sf.track(1, host=0) == []
    assert sf.track(1, host=2) == []
    assert sf.sharers(1) == {0, 2}
    assert sf.hits == 1 and sf.insertions == 1


def test_filter_overflow_back_invalidates_lru():
    sf = SnoopFilter(capacity_lines=2)
    sf.track(1, 0)
    sf.track(2, 0)
    sf.track(1, 1)  # refresh line 1 -> line 2 is LRU
    victims = sf.track(3, 0)
    assert victims == [(2, {0})]
    assert sf.back_invalidations == 1
    assert sf.back_invalidation_messages == 1
    assert not sf.sharers(2)


def test_filter_untrack_clears_empty_entries():
    sf = SnoopFilter(capacity_lines=4)
    sf.track(1, 0)
    sf.untrack(1, 0)
    assert not sf._entries
    sf.untrack(9, 0)  # unknown: no-op


def test_filter_pressure_metric():
    sf = SnoopFilter(capacity_lines=1)
    sf.track(1, 0)
    sf.track(2, 0)
    sf.track(3, 0)
    assert sf.pressure() == pytest.approx(2 / 3)


def test_filter_config():
    with pytest.raises(ConfigError):
        SnoopFilter(0)


# --- protocol ----------------------------------------------------------------


def test_load_returns_stored_value(directory, logical_deployment):
    engine = logical_deployment.engine
    engine.run(directory.store(0, 5, 42))
    assert engine.run(directory.load(1, 5)) == 42
    assert directory.peek(5) == 42


def test_load_hit_is_cheap(directory, logical_deployment):
    engine = logical_deployment.engine
    engine.run(directory.load(0, 5))
    before = engine.now
    engine.run(directory.load(0, 5))
    assert engine.now - before == pytest.approx(1.0)
    assert directory.stats.cache_hits == 1


def test_store_invalidates_sharers(directory, logical_deployment):
    engine = logical_deployment.engine
    for host in (0, 1, 2):
        engine.run(directory.load(host, 7))
    engine.run(directory.store(3, 7, 9))
    assert directory.state_of(7, 3) == "M"
    for host in (0, 1, 2):
        assert directory.state_of(7, host) == "I"
    assert directory.stats.invalidation_messages >= 3


def test_load_downgrades_modified_owner(directory, logical_deployment):
    engine = logical_deployment.engine
    engine.run(directory.store(0, 3, 11))
    assert directory.state_of(3, 0) == "M"
    assert engine.run(directory.load(1, 3)) == 11
    assert directory.state_of(3, 0) == "I"  # writeback + downgrade
    assert directory.stats.writebacks >= 1


def test_rmw_is_atomic_at_home(directory, logical_deployment):
    engine = logical_deployment.engine
    procs = [
        engine.process(incr_body(directory, host))
        for host in range(4)
    ]
    engine.run(engine.all_of(procs))
    assert directory.peek(0) == 4 * 25


def incr_body(directory, host):
    for _ in range(25):
        yield directory.atomic_rmw(host, 0, lambda v: v + 1)


def test_remote_ops_slower_than_local(directory, logical_deployment):
    """The LMP latency advantage applies to coherence traffic too."""
    engine = logical_deployment.engine
    start = engine.now
    engine.run(directory.load(0, 0))  # line 0 homes at server 0: local
    local_time = engine.now - start
    start = engine.now
    engine.run(directory.load(2, 1))  # line 1 homes at server 1: remote for 2
    remote_time = engine.now - start
    assert remote_time > local_time


def test_swmr_invariant_under_random_ops(directory, logical_deployment):
    engine = logical_deployment.engine
    rng = random.Random(7)

    def chaos(host):
        for _ in range(40):
            line = rng.randrange(16)
            op = rng.random()
            if op < 0.5:
                yield directory.load(host, line)
            elif op < 0.8:
                yield directory.store(host, line, rng.randrange(100))
            else:
                yield directory.atomic_rmw(host, line, lambda v: v + 1)
            directory.check_invariants()

    procs = [engine.process(chaos(h)) for h in range(4)]
    engine.run(engine.all_of(procs))
    directory.check_invariants()


def test_line_bounds_checked(directory):
    with pytest.raises(CoherenceError):
        directory.home_of(directory.line_count)


def test_snoop_overflow_invalidates_caches(logical_deployment):
    directory = CoherenceDirectory(
        logical_deployment, region_bytes=mib(1), snoop_filter_lines=2
    )
    engine = logical_deployment.engine
    # host 0 loads many lines homed at server 0 (lines 0, 4, 8, ...)
    for line in (0, 4, 8, 12):
        engine.run(directory.load(0, line))
    assert len(directory.cached_lines(0)) <= 3  # back-invalidated down
    assert directory.snoop_filters[0].back_invalidations >= 1


# --- locks ------------------------------------------------------------------


def run_mutual_exclusion(lock, engine, hosts, rounds=5):
    state = {"count": 0, "inside": 0, "max_inside": 0}

    def worker(host):
        for _ in range(rounds):
            yield lock.acquire(host)
            state["inside"] += 1
            state["max_inside"] = max(state["max_inside"], state["inside"])
            yield engine.timeout(50.0)
            state["count"] += 1
            state["inside"] -= 1
            yield lock.release(host)

    procs = [engine.process(worker(h)) for h in hosts]
    engine.run(engine.all_of(procs))
    return state


def test_spinlock_mutual_exclusion(directory, logical_deployment):
    lock = SpinLock(directory, 0)
    state = run_mutual_exclusion(lock, logical_deployment.engine, range(4))
    assert state["count"] == 20
    assert state["max_inside"] == 1
    assert lock.acquisitions == 20


def test_spinlock_release_when_free_rejected(directory, logical_deployment):
    lock = SpinLock(directory, 0)
    with pytest.raises(CoherenceError):
        logical_deployment.run(lock.release(0))


def test_ticket_lock_mutual_exclusion_and_fifo(directory, logical_deployment):
    lock = TicketLock(directory, 0, 1)
    state = run_mutual_exclusion(lock, logical_deployment.engine, range(4))
    assert state["count"] == 20
    assert state["max_inside"] == 1


def test_ticket_lock_needs_two_lines(directory):
    with pytest.raises(ConfigError):
        TicketLock(directory, 3, 3)


def test_cohort_lock_mutual_exclusion(directory, logical_deployment):
    lock = CohortLock(directory, 0, [0, 1, 2, 3], cohort_limit=3)
    engine = logical_deployment.engine
    # 3 threads per host: cohorts actually form
    state = {"count": 0, "inside": 0, "max_inside": 0}

    def worker(host):
        for _ in range(4):
            yield lock.acquire(host)
            state["inside"] += 1
            state["max_inside"] = max(state["max_inside"], state["inside"])
            yield engine.timeout(50.0)
            state["count"] += 1
            state["inside"] -= 1
            yield lock.release(host)

    procs = [engine.process(worker(h)) for h in (0, 0, 0, 1, 1, 1)]
    engine.run(engine.all_of(procs))
    assert state["count"] == 24
    assert state["max_inside"] == 1
    assert lock.local_handoffs > 0


def test_cohort_limit_bounds_streaks(directory, logical_deployment):
    lock = CohortLock(directory, 0, [0, 1, 2, 3], cohort_limit=2)
    engine = logical_deployment.engine

    def worker(host):
        for _ in range(6):
            yield lock.acquire(host)
            yield engine.timeout(10.0)
            yield lock.release(host)

    procs = [engine.process(worker(h)) for h in (0, 0, 1, 1)]
    engine.run(engine.all_of(procs))
    # with limit 2, the global lock changed hands at least 24/2 times... at
    # minimum both cohorts won it once
    assert lock.global_acquisitions >= 2


def test_cohort_config(directory):
    with pytest.raises(ConfigError):
        CohortLock(directory, 0, [0, 1], cohort_limit=0)
