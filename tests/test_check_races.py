"""Tests for repro.check.races: happens-before, lockset, deadlock.

The seeded-bug test is the detector's acceptance gate: two tenant
processes write one shared frame with no sync edge between them, and
the report must carry the complete happens-before evidence chain (both
vector clocks, the epoch, and the failing clock comparison).  The
control tests are the other half of the contract: the same access
pattern under a mutex, a coherence spinlock, or a store handoff must
come out race-free.
"""

from __future__ import annotations

import pytest

from repro.check.races import RaceSanitizer
from repro.core.api import LmpSession
from repro.core.runtime import LmpRuntime
from repro.errors import DataRaceError, DeadlockError, LocksetError, SanitizerError, SimulationError
from repro.sim.engine import DEFAULTS, Engine
from repro.sim.resources import Mutex, Semaphore, Store
from repro.units import mib


def _two_tenants(detector_installed_engine=None):
    """A logical deployment with two sessions sharing one buffer."""
    from repro.topology.builder import build_logical

    dep = build_logical("link0")
    runtime = LmpRuntime(dep)
    s0 = LmpSession(runtime, server_id=0)
    s1 = LmpSession(runtime, server_id=1)
    buf = s0.alloc(mib(4), name="shared")
    return dep, s0, s1, buf


# --- the seeded bug: unsynchronized writers --------------------------------------


def test_unsynchronized_writers_race_with_evidence(race_sanitizer):
    dep, s0, s1, buf = _two_tenants()
    eng = dep.engine

    def tenant(session, payload):
        yield session.write(buf, 0, payload)

    eng.process(tenant(s0, b"a" * 64), name="tenant.a")
    eng.process(tenant(s1, b"b" * 64), name="tenant.b")
    eng.run()

    assert not race_sanitizer.clean
    kinds = {r.kind for r in race_sanitizer.races}
    assert "write-write" in kinds
    report = next(r for r in race_sanitizer.races if r.kind == "write-write")

    # full evidence chain: distinct processes, both clocks, the epoch,
    # and the clock component that fails the FastTrack comparison
    assert report.earlier.pid != report.later.pid
    assert report.earlier.op == "write" and report.later.op == "write"
    assert report.earlier.epoch == report.earlier.clock[report.earlier.pid]
    assert report.later.clock.get(report.earlier.pid, 0) < report.earlier.epoch
    rendered = report.render()
    assert "no happens-before path" in rendered
    assert "pool#" in report.frame
    assert "shared" in rendered  # buffer name in the evidence
    for access in (report.earlier, report.later):
        assert access.process in ("tenant.a", "tenant.b")

    # the lockset pass independently flags the frame: nobody held anything
    assert race_sanitizer.lockset_reports
    lockset = race_sanitizer.lockset_reports[0]
    assert lockset.access.locks == frozenset()

    # and assert_clean raises the race first, with the rendering inside
    with pytest.raises(DataRaceError, match="no happens-before path"):
        race_sanitizer.assert_clean()


def test_write_read_race_detected(race_sanitizer):
    dep, s0, s1, buf = _two_tenants()
    eng = dep.engine

    def writer(session):
        yield session.write(buf, 0, b"w" * 64)

    def reader(session):
        yield session.read(buf, 0, 64)

    eng.process(writer(s0), name="tenant.w")
    eng.process(reader(s1), name="tenant.r")
    eng.run()

    assert {r.kind for r in race_sanitizer.races} & {"write-read", "read-write"}


def test_json_report_shape(race_sanitizer):
    dep, s0, s1, buf = _two_tenants()
    eng = dep.engine

    def tenant(session, payload):
        yield session.write(buf, 0, payload)

    eng.process(tenant(s0, b"x" * 8), name="tenant.a")
    eng.process(tenant(s1, b"y" * 8), name="tenant.b")
    eng.run()
    assert race_sanitizer.races
    blob = race_sanitizer.races[0].to_json()
    assert blob["kind"] == "write-write"
    assert set(blob["earlier"]) >= {"pid", "process", "op", "clock", "epoch", "locks"}
    # clocks serialize with string keys (JSON object keys)
    assert all(isinstance(k, str) for k in blob["earlier"]["clock"])


# --- controls: properly synchronized access is clean ----------------------------


def test_mutex_synchronized_writers_clean(race_sanitizer):
    dep, s0, s1, buf = _two_tenants()
    eng = dep.engine
    mutex = Mutex(eng)

    def tenant(session, payload):
        yield mutex.acquire()
        yield session.write(buf, 0, payload)
        mutex.release()

    eng.process(tenant(s0, b"a" * 64), name="tenant.a")
    eng.process(tenant(s1, b"b" * 64), name="tenant.b")
    eng.run()

    assert race_sanitizer.clean, [r.render() for r in race_sanitizer.races] + [
        r.render() for r in race_sanitizer.lockset_reports
    ]


def test_spinlock_synchronized_writers_clean(race_sanitizer):
    """The coherence-line load/store/rmw edges alone must order these."""
    dep, s0, s1, buf = _two_tenants()
    eng = dep.engine
    lock = s0.spinlock()

    def tenant(session, payload):
        yield lock.acquire(session.server_id)
        yield session.write(buf, 0, payload)
        yield lock.release(session.server_id)

    eng.process(tenant(s0, b"a" * 64), name="tenant.a")
    eng.process(tenant(s1, b"b" * 64), name="tenant.b")
    eng.run()

    assert not race_sanitizer.races, [r.render() for r in race_sanitizer.races]


def test_fork_join_edges_order_sequential_phases(race_sanitizer):
    """Parent writes, then forks a child that writes the same frame:
    fork edge orders them.  Child result joined back: also ordered."""
    dep, s0, s1, buf = _two_tenants()
    eng = dep.engine

    def child(session):
        yield session.write(buf, 0, b"c" * 64)

    def parent(session):
        yield session.write(buf, 0, b"p" * 64)
        yield eng.process(child(s1), name="child")
        yield session.write(buf, 0, b"q" * 64)

    eng.process(parent(s0), name="parent")
    eng.run()
    assert not race_sanitizer.races, [r.render() for r in race_sanitizer.races]


def test_store_handoff_is_clean_for_hb_but_flagged_by_lockset(race_sanitizer):
    """A put→get token pass orders the writes (no race), but no common
    lock protects the frame — exactly the case Eraser exists for."""
    dep, s0, s1, buf = _two_tenants()
    eng = dep.engine
    channel = Store(eng)

    def first(session):
        yield session.write(buf, 0, b"1" * 64)
        channel.put("token")

    def second(session):
        yield channel.get()
        yield session.write(buf, 0, b"2" * 64)

    eng.process(second(s1), name="tenant.second")
    eng.process(first(s0), name="tenant.first")
    eng.run()

    assert not race_sanitizer.races, [r.render() for r in race_sanitizer.races]
    assert race_sanitizer.lockset_reports
    report = race_sanitizer.lockset_reports[0]
    assert "no single lock protects" in report.render()
    history_procs = {process for process, _op, _locks in report.history}
    assert history_procs == {"tenant.first", "tenant.second"}
    with pytest.raises(LocksetError):
        race_sanitizer.assert_clean()


def test_disjoint_frames_do_not_conflict(race_sanitizer):
    dep, s0, s1, buf = _two_tenants()
    eng = dep.engine
    page = s0.runtime.pool.geometry.page_bytes

    def tenant(session, offset):
        yield session.write(buf, offset, b"z" * 16)

    eng.process(tenant(s0, 0), name="tenant.a")
    eng.process(tenant(s1, page), name="tenant.b")
    eng.run()
    assert not race_sanitizer.races


# --- deadlock detection ----------------------------------------------------------


def test_abba_deadlock_raises_with_cycle(race_sanitizer):
    eng = Engine(seed=1)
    a, b = Mutex(eng), Mutex(eng)

    def phil(first, second):
        yield first.acquire()
        yield eng.timeout(5.0)
        yield second.acquire()
        second.release()
        first.release()

    eng.process(phil(a, b), name="phil.x")
    eng.process(phil(b, a), name="phil.y")
    with pytest.raises(DeadlockError) as exc_info:
        eng.run()
    message = str(exc_info.value)
    assert "wait-for cycle" in message
    assert "phil.x" in message and "phil.y" in message
    assert "mutex#" in message  # which resource each edge waits on


def test_deadlock_error_is_a_sanitizer_error(race_sanitizer):
    assert issubclass(DeadlockError, SanitizerError)
    assert issubclass(DeadlockError, SimulationError)


def test_no_deadlock_on_clean_drain(race_sanitizer):
    eng = Engine(seed=2)

    def worker():
        yield eng.timeout(1.0)

    eng.process(worker(), name="w")
    eng.run()  # no DeadlockError


def test_deadlock_detection_can_be_disabled():
    detector = RaceSanitizer(deadlock=False)
    with detector.installed():
        eng = Engine(seed=1)
        a, b = Mutex(eng), Mutex(eng)

        def phil(first, second):
            yield first.acquire()
            yield eng.timeout(5.0)
            yield second.acquire()

        eng.process(phil(a, b), name="x")
        eng.process(phil(b, a), name="y")
        eng.run()  # drains with blocked processes, silently


# --- install / uninstall hygiene --------------------------------------------------


def test_install_is_exclusive_and_uninstall_restores_everything():
    orig_acquire = Semaphore.acquire
    orig_release = Semaphore.release
    before = Engine(seed=0)
    detector = RaceSanitizer()
    with detector.installed():
        assert DEFAULTS.monitor is detector
        assert Engine(seed=0).monitor is detector
        assert before.monitor is None  # built before install(): stays cold
        assert Semaphore.acquire is not orig_acquire
        with pytest.raises(SimulationError):
            RaceSanitizer().install()
    # the default and the patched resources are back to None / originals
    assert DEFAULTS.monitor is None
    assert Engine(seed=0).monitor is None
    assert Semaphore.acquire is orig_acquire
    assert Semaphore.release is orig_release
    with pytest.raises(SimulationError):
        detector.uninstall()  # double uninstall


def test_reports_survive_uninstall():
    detector = RaceSanitizer()
    with detector.installed():
        dep, s0, s1, buf = _two_tenants()
        eng = dep.engine

        def tenant(session, payload):
            yield session.write(buf, 0, payload)

        eng.process(tenant(s0, b"x" * 8), name="a")
        eng.process(tenant(s1, b"y" * 8), name="b")
        eng.run()
    assert detector.races  # kept for post-run inspection
    assert not detector._procs  # shadow refs dropped


def test_engine_built_while_installed_reports_nothing_after_uninstall():
    """Its monitor is fixed at construction, but once uninstalled the
    sync resources are no longer patched: a mutex-ordered pair of
    writers must not read as a race."""
    detector = RaceSanitizer()
    with detector.installed():
        dep, s0, s1, buf = _two_tenants()
        eng = dep.engine
    assert eng.monitor is detector
    mutex = Mutex(eng)

    def tenant(session, payload):
        yield mutex.acquire()
        yield session.write(buf, 0, payload)
        mutex.release()

    eng.process(tenant(s0, b"a" * 64), name="tenant.a")
    eng.process(tenant(s1, b"b" * 64), name="tenant.b")
    eng.run()
    assert detector.clean and detector.accesses_seen == 0


# --- conftest marker plumbing -----------------------------------------------------


@pytest.mark.races
def test_races_marker_runs_clean_scenario():
    eng = Engine(seed=7)
    mutex = Mutex(eng)

    def worker():
        yield mutex.acquire()
        yield eng.timeout(1.0)
        mutex.release()

    eng.process(worker(), name="w1")
    eng.process(worker(), name="w2")
    eng.run()
    assert RaceSanitizer._active is not None  # marker installed a detector


@pytest.mark.races
@pytest.mark.no_races
def test_no_races_marker_opts_out():
    assert RaceSanitizer._active is None
