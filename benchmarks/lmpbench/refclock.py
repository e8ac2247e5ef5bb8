"""A clock that runs at a fixed reference host speed.

Shared hosts of the kind this benchmark runs on switch between speeds
up to 2.7x apart every few seconds, for every process alike, so the
same pass can take 2.2 s or 5 s of host time.  More passes do not
average that away when a slow spell lasts longer than a pass.

While a :class:`ReferenceClock` is installed, a ``SIGALRM`` handler
times a small fixed loop every :data:`PERIOD_S`.  The clock advances at
``REFERENCE_LOOP_S / (the loop's recent time)`` per host second, so an
interval timed on it reads what it would on the host at the reference
speed.  The handler's own time is left out.  The loop touches no
simulator code, so a slower simulator still reads slower.
"""

from __future__ import annotations

import collections
import signal
import time
import typing as _t

#: host seconds between speed samples
PERIOD_S = 0.02
#: the sample loop's time at the reference speed (the fast mode of the
#: 2-vCPU host the committed results were taken on)
REFERENCE_LOOP_S = 64e-6


def _ticks() -> _t.Iterator[int]:
    count = 0
    while True:
        count += 1
        yield count


class ReferenceClock:
    """``with ReferenceClock() as clock: ... clock.now() ...``"""

    def __init__(self) -> None:
        #: host speed relative to the reference, one entry per sample
        self.speeds: list[float] = []
        self._recent: collections.deque[float] = collections.deque(maxlen=3)
        self._ticks = _ticks()
        self._table = dict.fromkeys(range(512), 0)
        #: (reference seconds so far, host time of the last sample, speed);
        #: replaced whole so a read never mixes two samples
        self._state = (0.0, time.perf_counter(), 1.0)
        self._previous: _t.Any = None
        self._sampling = False

    def now(self) -> float:
        elapsed, since, speed = self._state
        return elapsed + (time.perf_counter() - since) * speed

    def _loop(self) -> None:
        """Generator resumes and dict stores, the simulator's commonest
        work.  It creates no object the cyclic collector tracks, so it
        never pays for collecting the simulator's garbage."""
        ticks, table = self._ticks, self._table
        total = 0
        for _ in range(640):
            total += next(ticks)
        for key in range(512):
            table[key] = total

    def _sample(self, *_signal: _t.Any) -> None:
        # Python runs a handler again if the next tick lands while it runs
        # (a host stall longer than PERIOD_S); that tick is skipped
        if self._sampling:
            return
        self._sampling = True
        try:
            elapsed, since, speed = self._state
            started = time.perf_counter()
            self._loop()
            ended = time.perf_counter()
            self._recent.append(ended - started)
            # the median of the last three damps one interrupted sample
            recent = sorted(self._recent)[len(self._recent) // 2]
            self.speeds.append(REFERENCE_LOOP_S / recent)
            self._state = (elapsed + (started - since) * speed, ended, self.speeds[-1])
        finally:
            self._sampling = False

    def __enter__(self) -> "ReferenceClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: _t.Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
