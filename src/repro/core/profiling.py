"""Access profiling: the measurement half of locality balancing (§5).

"We need new mechanisms to identify slow accesses (NUMA systems unmap
memory to cause page faults, but this is too slow for LMPs) ... a
simple solution is to use performance counters to profile accesses."

We model per-server performance counters that the data path feeds on
every planned access: bytes per (requester, extent), split local/remote.
Counters are *sampled* (1-in-N accounting, like real PMU sampling) so
the profiler itself stays cheap, and they age by epoch so the balancer
reacts to recent behaviour rather than all of history.

Counters are also indexed by extent, so the per-extent questions that
eviction and rebalancing ask on every decision (how hot is this extent,
who reads it most) cost O(requesters of that extent), not a scan of
every counter.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigError


@dataclasses.dataclass
class ExtentStats:
    """Aged access counters for one (requester, extent) pair."""

    local_bytes: float = 0.0
    remote_bytes: float = 0.0

    @property
    def total_bytes(self) -> float:
        return self.local_bytes + self.remote_bytes

    def age(self, decay: float) -> None:
        self.local_bytes *= decay
        self.remote_bytes *= decay


def dominant(consumers: dict[int, float]) -> tuple[int | None, float]:
    """The requester with the most bytes in *consumers* (ties go to the
    lower id) and its share of the total."""
    if not consumers:
        return None, 0.0
    winner = max(consumers, key=lambda r: (consumers[r], -r))
    return winner, consumers[winner] / sum(consumers.values())


class AccessProfiler:
    """Sampled, epoch-aged access counters."""

    def __init__(self, sample_period: int = 1, decay: float = 0.5) -> None:
        if sample_period < 1:
            raise ConfigError(f"sample_period must be >= 1, got {sample_period}")
        if not 0.0 <= decay <= 1.0:
            raise ConfigError(f"decay must be in [0, 1], got {decay}")
        self.sample_period = sample_period
        self.decay = decay
        self._counter = 0
        #: (requester_id, extent_index) -> stats
        self._stats: dict[tuple[int, int], ExtentStats] = {}
        #: extent_index -> {requester_id -> stats}: the same objects as
        #: ``_stats``, inserted and deleted in step with it, so each inner
        #: dict iterates in the order a filtered scan of ``_stats`` would
        self._by_extent: dict[int, dict[int, ExtentStats]] = {}
        self.epoch = 0
        self.samples_taken = 0

    # -- data-path hook -----------------------------------------------------------

    def record(self, requester_id: int, extent_index: int, nbytes: int, remote: bool) -> None:
        """Called by the pool's access planner for every planned access."""
        self._counter += 1
        if self._counter % self.sample_period:
            return
        self.samples_taken += 1
        weight = float(nbytes * self.sample_period)  # unbias the sampling
        key = (requester_id, extent_index)
        stats = self._stats.get(key)
        if stats is None:
            stats = self._stats[key] = ExtentStats()
            self._by_extent.setdefault(extent_index, {})[requester_id] = stats
        if remote:
            stats.remote_bytes += weight
        else:
            stats.local_bytes += weight

    # -- epoching ---------------------------------------------------------------

    def advance_epoch(self) -> None:
        """Age every counter; the balancer calls this once per period."""
        self.epoch += 1
        dead: list[tuple[int, int]] = []
        for key, stats in self._stats.items():
            stats.age(self.decay)
            if stats.total_bytes < 1.0:
                dead.append(key)
        for key in dead:
            del self._stats[key]
            requester_id, extent_index = key
            requesters = self._by_extent[extent_index]
            del requesters[requester_id]
            if not requesters:
                del self._by_extent[extent_index]

    # -- queries the balancer asks ------------------------------------------------

    def remote_bytes_by_extent(self) -> dict[int, dict[int, float]]:
        """extent -> {requester -> remote bytes} for extents with remote
        traffic (the migration candidates)."""
        out: dict[int, dict[int, float]] = {}
        for (requester_id, extent_index), stats in self._stats.items():
            if stats.remote_bytes > 0:
                out.setdefault(extent_index, {})[requester_id] = stats.remote_bytes
        return out

    def extent_heat(self, extent_index: int) -> float:
        """Total profiled bytes (local + remote, every requester) on one
        extent — the coldness key eviction and rebalancing sort by."""
        total = 0.0
        for stats in self._by_extent.get(extent_index, {}).values():
            total += stats.total_bytes
        return total

    def locality_ratio(self, requester_id: int | None = None) -> float:
        """Fraction of profiled bytes that resolved locally."""
        local = remote = 0.0
        for (rid, _extent), stats in self._stats.items():
            if requester_id is not None and rid != requester_id:
                continue
            local += stats.local_bytes
            remote += stats.remote_bytes
        total = local + remote
        return local / total if total else 1.0
