"""Synthetic access-pattern and arrival-process generators.

:func:`uniform_trace` draws (byte offset, size) accesses for the
cluster driver from an explicit :class:`random.Random` stream (see
:mod:`repro.sim.rng`).

The rest of the module is *time*: open-loop arrival processes
for the 10k-tenant serving scenario (:mod:`repro.scale`) — Zipf tenant
popularity, diurnal sinusoids, two-state MMPP burst modulation, and
non-homogeneous Poisson arrivals via Lewis thinning with a squeeze
against a piecewise-constant rate envelope.  All of it is
pure-functional over explicit RNG streams, so composed scenarios stay
byte-identical per seed.
"""

from __future__ import annotations

import bisect
import math
import random
import typing as _t

from repro.errors import ConfigError


def uniform_trace(
    total_bytes: int,
    access_bytes: int,
    count: int,
    rng: random.Random,
) -> _t.Iterator[tuple[int, int]]:
    """Uniformly random accesses across the range."""
    _check(total_bytes, access_bytes, count)
    span = total_bytes - access_bytes
    for _ in range(count):
        yield rng.randrange(0, span + 1), access_bytes


def zipf_cumulative(n: int, theta: float) -> list[float]:
    """Cumulative Zipf weights over ranks ``0..n-1``.

    Rank *k*'s weight is ``1/(k+1)**theta`` (YCSB's skew law), so a
    tenant *population* can be sampled with one uniform draw plus a
    :func:`zipf_pick` bisect (O(log n) per arrival, O(n) once)."""
    if n < 1:
        raise ConfigError(f"need at least one rank, got {n}")
    if theta <= 0:
        raise ConfigError(f"theta must be positive, got {theta}")
    cumulative: list[float] = []
    acc = 0.0
    for k in range(n):
        acc += 1.0 / (k + 1) ** theta
        cumulative.append(acc)
    return cumulative


def zipf_pick(cumulative: _t.Sequence[float], rng: random.Random) -> int:
    """Draw one rank from :func:`zipf_cumulative` weights."""
    r = rng.random() * cumulative[-1]
    return min(bisect.bisect_left(cumulative, r), len(cumulative) - 1)


def diurnal_multiplier(
    t_ns: float, period_ns: float, amplitude: float, phase: float = 0.0
) -> float:
    """``1 + amplitude * sin(2*pi*t/period + phase)``: the day/night
    swing around a base arrival rate."""
    if period_ns <= 0:
        raise ConfigError(f"period must be positive, got {period_ns}")
    if not 0.0 <= amplitude <= 1.0:
        raise ConfigError(f"amplitude must be in [0, 1], got {amplitude}")
    return 1.0 + amplitude * math.sin(2.0 * math.pi * (t_ns / period_ns) + phase)


def mmpp_timeline(
    duration_ns: float,
    burst_multiplier: float,
    mean_on_ns: float,
    mean_off_ns: float,
    rng: random.Random,
) -> list[tuple[float, float]]:
    """A two-state MMPP's rate-multiplier timeline.

    Alternates quiet (multiplier 1.0) and burst (*burst_multiplier*)
    states with exponentially distributed holding times, starting
    quiet; returns piecewise-constant ``(start_ns, multiplier)``
    breakpoints covering ``[0, duration_ns)``.  Generated eagerly from
    its own stream so the timeline never depends on how the consumer
    interleaves other draws."""
    if duration_ns <= 0:
        raise ConfigError(f"duration must be positive, got {duration_ns}")
    if burst_multiplier < 1.0:
        raise ConfigError(f"burst multiplier must be >= 1, got {burst_multiplier}")
    if mean_on_ns <= 0 or mean_off_ns <= 0:
        raise ConfigError("MMPP holding times must be positive")
    timeline: list[tuple[float, float]] = [(0.0, 1.0)]
    t = 0.0
    burst = False
    while True:
        t += rng.expovariate(1.0 / (mean_on_ns if burst else mean_off_ns))
        if t >= duration_ns:
            return timeline
        burst = not burst
        timeline.append((t, burst_multiplier if burst else 1.0))


class PiecewiseRate:
    """O(log n) lookup over piecewise-constant ``(start, value)`` breakpoints."""

    def __init__(self, timeline: _t.Sequence[tuple[float, float]]) -> None:
        if not timeline:
            raise ConfigError("timeline must have at least one breakpoint")
        self._starts = [start for start, _ in timeline]
        self._values = [value for _, value in timeline]

    def value_at(self, t_ns: float) -> float:
        index = bisect.bisect_right(self._starts, t_ns) - 1
        return self._values[max(index, 0)]


def thinned_poisson(
    rate_fn: _t.Callable[[float], float],
    peak_rate_per_ns: float,
    duration_ns: float,
    rng: random.Random,
    envelope: _t.Sequence[tuple[float, float]],
) -> _t.Iterator[float]:
    """Non-homogeneous Poisson arrival times by Lewis thinning, squeezed.

    Candidate arrivals come from a homogeneous process at
    *peak_rate_per_ns*; each draws one uniform ``u`` and is accepted
    when ``u * peak <= rate_fn(t)``.  *envelope* is a piecewise-constant
    upper bound on *rate_fn*: ``(start_ns, bound)`` steps in increasing
    order, the first starting at 0.  A candidate with ``u * peak`` above
    its step's bound is rejected without calling *rate_fn*, so the rate
    is evaluated only for candidates the bound cannot settle.

    The envelope must bound *rate_fn* everywhere, exactly in floats:
    where ``rate_fn(t)`` exceeds it, arrivals are silently lost.  So
    are arrivals where *rate_fn* exceeds the peak, since the candidate
    stream itself runs at the peak."""
    if peak_rate_per_ns <= 0:
        raise ConfigError(f"peak rate must be positive, got {peak_rate_per_ns}")
    if duration_ns <= 0:
        raise ConfigError(f"duration must be positive, got {duration_ns}")
    if not envelope or envelope[0][0] > 0.0:
        raise ConfigError("the rate envelope must have a step starting at 0")
    # step i bounds [ends[i-1], ends[i]); candidates only move forward
    # in time, so a pointer walks the steps
    ends = [start for start, _ in envelope[1:]] + [math.inf]
    bounds = [bound for _, bound in envelope]
    step = 0
    end, bound = ends[0], bounds[0]
    expovariate, uniform = rng.expovariate, rng.random
    t = 0.0
    while True:
        t += expovariate(peak_rate_per_ns)
        if t >= duration_ns:
            return
        while t >= end:
            step += 1
            end, bound = ends[step], bounds[step]
        u = uniform() * peak_rate_per_ns
        if u <= bound and u <= rate_fn(t):
            yield t


def _check(total_bytes: int, access_bytes: int, count: int) -> None:
    if access_bytes <= 0 or total_bytes < access_bytes:
        raise ConfigError(
            f"need 0 < access_bytes <= total_bytes, got {access_bytes}/{total_bytes}"
        )
    if count < 0:
        raise ConfigError(f"negative trace length {count}")
