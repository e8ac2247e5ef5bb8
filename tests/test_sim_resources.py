"""Tests for semaphores, mutexes, and FIFO service centers."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.resources import FifoQueue, Mutex, Semaphore


def test_semaphore_grants_up_to_capacity(engine):
    sem = Semaphore(engine, capacity=2)
    a = sem.acquire()
    b = sem.acquire()
    c = sem.acquire()
    assert a.triggered and b.triggered
    assert not c.triggered


def test_semaphore_fifo_wakeup(engine):
    sem = Semaphore(engine, capacity=1)
    order: list[str] = []

    def holder():
        grant = sem.acquire()
        yield grant
        yield engine.timeout(10.0)
        sem.release()

    def waiter(tag: str):
        yield sem.acquire()
        order.append(tag)
        sem.release()

    engine.process(holder())
    engine.process(waiter("first"))
    engine.process(waiter("second"))
    engine.run()
    assert order == ["first", "second"]


def test_semaphore_release_without_acquire(engine):
    sem = Semaphore(engine)
    with pytest.raises(SimulationError):
        sem.release()


def test_semaphore_rejects_bad_capacity(engine):
    with pytest.raises(SimulationError):
        Semaphore(engine, capacity=0)


def test_mutex_excludes(engine):
    mutex = Mutex(engine)
    trace: list[tuple[str, float]] = []

    def critical(tag: str, hold: float):
        yield mutex.acquire()
        trace.append((f"{tag}+", engine.now))
        yield engine.timeout(hold)
        trace.append((f"{tag}-", engine.now))
        mutex.release()

    engine.process(critical("a", 10.0))
    engine.process(critical("b", 10.0))
    engine.run()
    # b enters only after a leaves
    assert [t[0] for t in trace] == ["a+", "a-", "b+", "b-"]


def test_fifo_queue_serializes_jobs(engine):
    queue = FifoQueue(engine, service_time=10.0)
    first = queue.submit()
    second = queue.submit()
    engine.run(first)
    assert engine.now == pytest.approx(10.0)
    engine.run(second)
    assert engine.now == pytest.approx(20.0)
    assert queue.jobs_served == 2


def test_fifo_queue_idles_between_bursts(engine):
    queue = FifoQueue(engine, service_time=10.0)
    engine.run(queue.submit())

    def later():
        yield engine.timeout(90.0)
        yield queue.submit()

    engine.run(engine.process(later()))
    assert engine.now == pytest.approx(110.0)  # no queueing after the gap


def test_fifo_queue_custom_service_time(engine):
    queue = FifoQueue(engine, service_time=10.0)
    engine.run(queue.submit(service_time=3.0))
    assert engine.now == pytest.approx(3.0)


def test_fifo_queue_rejects_negative_service(engine):
    with pytest.raises(SimulationError):
        FifoQueue(engine, service_time=-1.0)
