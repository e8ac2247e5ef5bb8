"""Discrete-event simulation kernel.

A small, dependency-free simulation core in the style of SimPy:

* :class:`~repro.sim.engine.Engine` — the event loop and virtual clock.
* :class:`~repro.sim.events.Event` — one-shot events with callbacks.
* :class:`~repro.sim.process.Process` — generator-based processes that
  ``yield`` events to wait on them.
* :class:`~repro.sim.resources` — semaphores, mutexes and FIFO queues for
  modeling contended resources.
* :class:`~repro.sim.fluid` — a max-min fair fluid bandwidth model used
  for all data transfers (memory channels, fabric links).
* :class:`~repro.sim.rng` — named deterministic random streams.
* :class:`~repro.sim.stats` — counters, time-weighted gauges, histograms.

Everything in the reproduction that "takes time" runs on this kernel.
"""

from repro.sim.engine import Engine
from repro.sim.events import AllOf, Event, Timeout
from repro.sim.fluid import Capacity, FluidModel, Transfer
from repro.sim.process import Process
from repro.sim.resources import FifoQueue, Mutex, Semaphore
from repro.sim.rng import RngStreams
from repro.sim.stats import Counter, Histogram, StatSet, TimeWeighted

__all__ = [
    "AllOf",
    "Capacity",
    "Counter",
    "Engine",
    "Event",
    "FifoQueue",
    "FluidModel",
    "Histogram",
    "Mutex",
    "Process",
    "RngStreams",
    "Semaphore",
    "StatSet",
    "TimeWeighted",
    "Timeout",
    "Transfer",
]
