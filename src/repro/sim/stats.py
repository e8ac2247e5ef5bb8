"""Statistics collection for simulation models.

Three collector flavors cover everything the experiments need:

* :class:`Counter` — monotonically increasing tallies (bytes moved,
  cache misses, back-invalidations).
* :class:`TimeWeighted` — a gauge averaged over simulated time
  (queue depth, utilization).
* :class:`Histogram` — sampled values with quantiles (request latency).

A :class:`StatSet` groups named collectors for one component and renders
them into plain dictionaries for reports.
"""

from __future__ import annotations

import math
import typing as _t


class Counter:
    """A monotonically-increasing tally."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"Counter.add() takes non-negative amounts, got {amount}")
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class TimeWeighted:
    """A gauge whose average is weighted by how long each value held."""

    __slots__ = ("_value", "_last_time", "_area", "_start", "_max")

    def __init__(self, initial: float = 0.0, start_time: float = 0.0) -> None:
        self._value = initial
        self._last_time = start_time
        self._start = start_time
        self._area = 0.0
        self._max = initial

    @property
    def current(self) -> float:
        return self._value

    def update(self, value: float, now: float) -> None:
        """Record that the gauge changed to *value* at time *now*."""
        if now < self._last_time:
            raise ValueError(f"time went backwards: {now} < {self._last_time}")
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = value
        if value > self._max:
            self._max = value

    def mean(self, now: float) -> float:
        """Time-weighted mean over [start, now]."""
        elapsed = now - self._start
        if elapsed <= 0:
            return self._value
        area = self._area + self._value * (now - self._last_time)
        return area / elapsed

    def maximum(self) -> float:
        return self._max


class Histogram:
    """Sampled values with mean / quantiles.

    Keeps every sample (experiments here record at most a few hundred
    thousand); values are sorted lazily on first quantile query.
    """

    __slots__ = ("_samples", "_sorted")

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._sorted = True

    def record(self, value: float) -> None:
        if self._samples and value < self._samples[-1]:
            self._sorted = False
        self._samples.append(value)

    def __len__(self) -> int:
        return len(self._samples)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    def mean(self) -> float:
        if not self._samples:
            return math.nan
        return sum(self._samples) / len(self._samples)

    def minimum(self) -> float:
        if not self._samples:
            return math.nan
        self._ensure_sorted()
        return self._samples[0]

    def maximum(self) -> float:
        if not self._samples:
            return math.nan
        self._ensure_sorted()
        return self._samples[-1]

    def _interpolate(self, q: float) -> float:
        """Linear interpolation into the (already sorted) samples."""
        pos = q * (len(self._samples) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(self._samples) - 1)
        frac = pos - lo
        lo_val = self._samples[lo]
        # delta form is exact when neighbors are equal (no float drift)
        return lo_val + (self._samples[hi] - lo_val) * frac

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile, q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self._samples:
            return math.nan
        self._ensure_sorted()
        return self._interpolate(q)

    def percentile_many(self, qs: _t.Sequence[float]) -> list[float]:
        """Many quantiles from one sort pass.

        Equivalent to ``[h.quantile(q) for q in qs]`` but pays the sort
        (and its lazy-dirty check) once, which matters when reports ask
        for p50/p90/p99/max in a row over large sample sets.
        """
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"quantile {q} outside [0, 1]")
        if not self._samples:
            return [math.nan] * len(qs)
        self._ensure_sorted()
        return [self._interpolate(q) for q in qs]

    def summary(self) -> dict[str, float]:
        """The report quantiles (p50/p90/p99/p99.9) plus mean and max,
        from one sort pass; empty when nothing was recorded."""
        if not self._samples:
            return {}
        p50, p90, p99, p999 = self.percentile_many((0.5, 0.9, 0.99, 0.999))
        return {
            "p50": p50,
            "p90": p90,
            "p99": p99,
            "p99.9": p999,
            "mean": self.mean(),
            "max": self.maximum(),
        }

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other*'s samples into this histogram and return self.

        Quantiles after a merge are exact — identical to recording every
        sample into one histogram — because both collectors keep raw
        samples.  *other* is left untouched, so per-tenant histograms can
        be combined into rack-level percentiles and still be reported
        individually.
        """
        if other is self:
            raise ValueError("cannot merge a histogram into itself")
        if other._samples:
            if not self._samples:
                self._sorted = other._sorted
            elif not (
                self._sorted and other._sorted and other._samples[0] >= self._samples[-1]
            ):
                self._sorted = False
            self._samples.extend(other._samples)
        return self


class StatSet:
    """Named collectors for one simulated component."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._collectors: dict[str, _t.Any] = {}

    def counter(self, name: str) -> Counter:
        return self._collectors.setdefault(name, Counter())

    def gauge(self, name: str, initial: float = 0.0, now: float = 0.0) -> TimeWeighted:
        return self._collectors.setdefault(name, TimeWeighted(initial, now))

    def histogram(self, name: str) -> Histogram:
        return self._collectors.setdefault(name, Histogram())

    def as_dict(self, now: float) -> dict[str, float]:
        """Flatten every collector into scalar summary statistics."""
        out: dict[str, float] = {}
        for key, collector in self._collectors.items():
            if isinstance(collector, Counter):
                out[key] = collector.value
            elif isinstance(collector, TimeWeighted):
                out[f"{key}.mean"] = collector.mean(now)
                out[f"{key}.max"] = collector.maximum()
                out[f"{key}.last"] = collector.current
            elif isinstance(collector, Histogram):
                if len(collector):
                    p50, p99 = collector.percentile_many((0.5, 0.99))
                    out[f"{key}.mean"] = collector.mean()
                    out[f"{key}.min"] = collector.minimum()
                    out[f"{key}.p50"] = p50
                    out[f"{key}.p99"] = p99
                    out[f"{key}.max"] = collector.maximum()
                    out[f"{key}.count"] = float(len(collector))
        return out
