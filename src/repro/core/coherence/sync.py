"""Synchronization primitives on coherent memory.

The coherent region exists "for coordination and synchronization"
(§3.2), and the paper points at NUMA-aware coordination work (cohort
locks, compact NUMA-aware locks) as the way to keep coherence traffic
down (§5).  We build the classic ladder:

* :class:`SpinLock` — test-and-set with exponential backoff.  Simple,
  but every contended attempt is an atomic at the home: maximum
  coherence traffic.
* :class:`TicketLock` — FIFO-fair; waiters spin on a *read-shared*
  now-serving line, so waiting costs S-state hits instead of atomics.
* :class:`CohortLock` — NUMA-aware (Dice et al.): a per-server local
  ticket lock plus a global grant line; the lock prefers handing off
  within the holder's server, amortizing one fabric-crossing global
  acquisition over up to ``cohort_limit`` local critical sections.

All primitives are *functional* (they really exclude / really release)
and *measured* (every wait and protocol action runs on the simulated
clock through :class:`~repro.core.coherence.protocol.CoherenceDirectory`),
so the A4 ablation can compare their coherence traffic under identical
contention.
"""

from __future__ import annotations

import typing as _t

from repro.core.coherence.protocol import CoherenceDirectory
from repro.errors import CoherenceError, ConfigError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.process import Process

_BACKOFF_START = 50.0  # ns
_BACKOFF_CAP = 3200.0  # ns


class _CoherentLock:
    """The acquire/release every lock here shares.

    Each call runs the lock's protocol body as a process named
    ``{_name}.acq`` / ``{_name}.rel`` and reports it to the engine's
    ``monitor`` (the race detector's lock-handoff edges): the acquire
    process as a pending grant, the release before its body runs.
    ``None`` means off.
    """

    directory: CoherenceDirectory
    #: process-name stem, e.g. ``spinlock3``
    _name: str
    _acquire_body: _t.Callable[[int], _t.Generator]
    _release_body: _t.Callable[[int], _t.Generator]

    def acquire(self, host: int) -> "Process":
        engine = self.directory.engine
        proc = engine.process(self._acquire_body(host), name=f"{self._name}.acq")
        monitor = engine.monitor
        if monitor is not None:
            monitor.on_acquire(self, proc)
        return proc

    def release(self, host: int) -> "Process":
        engine = self.directory.engine
        monitor = engine.monitor
        if monitor is not None:
            monitor.on_release(self)
        return engine.process(self._release_body(host), name=f"{self._name}.rel")


class SpinLock(_CoherentLock):
    """Test-and-set lock with exponential backoff."""

    def __init__(self, directory: CoherenceDirectory, line: int) -> None:
        self.directory = directory
        self.line = line
        self._name = f"spinlock{line}"
        self.acquisitions = 0
        self.failed_attempts = 0

    def _acquire_body(self, host: int):
        backoff = _BACKOFF_START
        while True:
            old, _new = yield self.directory.atomic_rmw(host, self.line, lambda v: 1)
            if old == 0:
                self.acquisitions += 1
                return True
            self.failed_attempts += 1
            yield self.directory.engine.timeout(backoff)
            backoff = min(backoff * 2.0, _BACKOFF_CAP)

    def _release_body(self, host: int):
        old, _new = yield self.directory.atomic_rmw(host, self.line, lambda _v: 0)
        if old == 0:
            raise CoherenceError(f"spinlock line {self.line} released while free")
        return True


class TicketLock(_CoherentLock):
    """FIFO ticket lock: one atomic to enter, shared-read spinning."""

    def __init__(self, directory: CoherenceDirectory, ticket_line: int, serving_line: int) -> None:
        if ticket_line == serving_line:
            raise ConfigError("ticket and now-serving lines must differ")
        self.directory = directory
        self.ticket_line = ticket_line
        self.serving_line = serving_line
        self._name = f"ticket{ticket_line}"
        self.acquisitions = 0

    def _acquire_body(self, host: int):
        my_ticket, _ = yield self.directory.atomic_rmw(
            host, self.ticket_line, lambda v: v + 1
        )
        backoff = _BACKOFF_START
        while True:
            serving = yield self.directory.load(host, self.serving_line)
            if serving == my_ticket:
                self.acquisitions += 1
                return my_ticket
            # proportional backoff: the further back in line, the longer
            # the nap — the classic ticket-lock optimization
            distance = max(1, my_ticket - serving)
            yield self.directory.engine.timeout(min(backoff * distance, _BACKOFF_CAP * 4))
            backoff = min(backoff * 1.5, _BACKOFF_CAP)

    def _release_body(self, host: int):
        _old, new = yield self.directory.atomic_rmw(
            host, self.serving_line, lambda v: v + 1
        )
        return new


class CohortLock(_CoherentLock):
    """NUMA-aware lock: per-server local ticket locks + a global owner line.

    A thread first wins its server's local lock, then checks the global
    line: if its server already holds the global lock (a *cohort
    handoff* left it there), it enters immediately — no fabric traffic.
    Otherwise it acquires the global line with atomics.  On release, if
    local waiters exist and the cohort budget isn't exhausted, the
    global lock stays with the server (handoff); otherwise it is
    released globally.
    """

    #: global-line values: 0 free, server_id+1 held by that server's cohort
    def __init__(
        self,
        directory: CoherenceDirectory,
        base_line: int,
        server_ids: _t.Sequence[int],
        cohort_limit: int = 8,
    ) -> None:
        if cohort_limit < 1:
            raise ConfigError(f"cohort_limit must be >= 1, got {cohort_limit}")
        self.directory = directory
        self.global_line = base_line
        self._name = f"cohort{base_line}"
        self.cohort_limit = cohort_limit
        self.server_ids = list(server_ids)
        # Per-server local ticket/serving lines, chosen so each server's
        # lines are *homed on that server* (lines stripe round-robin in
        # the directory): a cohort handoff then costs only local-latency
        # coherence ops — the whole point of NUMA-aware locking.
        self._local: dict[int, TicketLock] = {}
        n = len(self.server_ids)
        block = list(range(base_line + 1, base_line + 1 + 2 * n))
        for index, sid in enumerate(self.server_ids):
            mine = [line for line in block if line % n == index]
            if len(mine) < 2:  # block misalignment: fall back to any two
                mine = block[2 * index : 2 * index + 2]
            self._local[sid] = TicketLock(directory, mine[0], mine[1])
        self.lines_used = 1 + 2 * n
        #: per-server consecutive local handoffs
        self._streak: dict[int, int] = {sid: 0 for sid in self.server_ids}
        self._local_waiters: dict[int, int] = {sid: 0 for sid in self.server_ids}
        self.global_acquisitions = 0
        self.local_handoffs = 0

    def _acquire_body(self, host: int):
        self._local_waiters[host] += 1
        yield self._local[host].acquire(host)
        self._local_waiters[host] -= 1
        token = host + 1
        current = yield self.directory.load(host, self.global_line)
        if current == token:
            # cohort handoff: the global lock never left our server
            self.local_handoffs += 1
            return True
        backoff = _BACKOFF_START
        while True:
            old, _new = yield self.directory.atomic_rmw(
                host, self.global_line, lambda v, t=token: t if v == 0 else v
            )
            if old == 0:
                self.global_acquisitions += 1
                return True
            yield self.directory.engine.timeout(backoff)
            backoff = min(backoff * 2.0, _BACKOFF_CAP)

    def _release_body(self, host: int):
        keep = (
            self._local_waiters[host] > 0
            and self._streak[host] + 1 < self.cohort_limit
        )
        if keep:
            self._streak[host] += 1
            # leave the global line owned by our cohort
        else:
            self._streak[host] = 0
            yield self.directory.atomic_rmw(host, self.global_line, lambda _v: 0)
        yield self._local[host].release(host)
        return keep
