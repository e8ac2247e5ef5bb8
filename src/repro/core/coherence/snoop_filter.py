"""Inclusive snoop filter with back-invalidation.

CXL implements multi-host coherence "via an Inclusive Snoop Filter and
a Back-Invalidation protocol" (§2.2).  Inclusivity means every line any
host caches must have a filter entry at the home; when the filter is
full, inserting a new line evicts a victim entry and *back-invalidates*
its cached copies everywhere.

This is the mechanism that makes large coherent regions expensive —
"limiting the amount of coherent memory lessens the likelihood of
filling CXL's Inclusive Snoop Filter" (§3.2) — and the knob the A4
ablation turns.
"""

from __future__ import annotations

import collections

from repro.errors import ConfigError


class SnoopFilter:
    """Bounded, LRU-evicting tracker of which hosts cache which lines."""

    def __init__(self, capacity_lines: int, name: str = "snoopfilter") -> None:
        if capacity_lines < 1:
            raise ConfigError(f"snoop filter needs capacity >= 1, got {capacity_lines}")
        self.capacity_lines = capacity_lines
        self.name = name
        #: line -> sharer set; ordered dict gives LRU order
        self._entries: collections.OrderedDict[int, set[int]] = collections.OrderedDict()
        self.insertions = 0
        self.hits = 0
        self.back_invalidations = 0  # evicted entries (one per victim line)
        self.back_invalidation_messages = 0  # per-sharer messages sent

    def sharers(self, line: int) -> set[int]:
        """Hosts currently caching *line* (empty set if untracked)."""
        entry = self._entries.get(line)
        return set(entry) if entry else set()

    def track(self, line: int, host: int) -> list[tuple[int, set[int]]]:
        """Record that *host* now caches *line*.

        Returns the victims evicted to make room: a list of
        ``(victim_line, victim_sharers)`` the caller must
        back-invalidate.  Usually empty; never contains *line* itself.
        """
        victims: list[tuple[int, set[int]]] = []
        entry = self._entries.get(line)
        if entry is not None:
            self.hits += 1
            entry.add(host)
            self._entries.move_to_end(line)
            return victims
        while len(self._entries) >= self.capacity_lines:
            victim_line, victim_sharers = self._entries.popitem(last=False)
            self.back_invalidations += 1
            self.back_invalidation_messages += len(victim_sharers)
            victims.append((victim_line, victim_sharers))
        self._entries[line] = {host}
        self.insertions += 1
        return victims

    def untrack(self, line: int, host: int) -> None:
        """Host dropped its copy (invalidation ack, cache replacement)."""
        entry = self._entries.get(line)
        if entry is None:
            return
        entry.discard(host)
        if not entry:
            del self._entries[line]

    def tracked_lines(self) -> tuple[int, ...]:
        """Every line with a filter entry, in LRU order (oldest first).

        Used by :class:`repro.check.CoherenceSanitizer` to verify the
        filter stays consistent with the directory's sharer sets.
        """
        return tuple(self._entries)

    def pressure(self) -> float:
        """Back-invalidations per insertion — the ablation's y-axis."""
        return self.back_invalidations / self.insertions if self.insertions else 0.0
