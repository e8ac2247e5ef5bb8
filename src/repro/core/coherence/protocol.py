"""Directory-based MSI coherence over the fabric.

The coherent region's lines are striped across the participating
servers; each line has a *home* that holds its directory entry, its
snoop-filter slot, and its authoritative value.  Hosts keep private
caches of lines in state S (shared, read-only) or M (modified,
exclusive).  The protocol:

* **load** — cache hit serves locally; miss goes to the home, which
  downgrades an M owner (writeback) if needed, adds the requester as a
  sharer, and returns the value.
* **store** — M hit serves locally; otherwise the home invalidates all
  other copies (back-invalidation round trips), grants M, and the value
  is updated.
* **atomic_rmw** — fetch-and-φ executed *at the home*, serialized by
  the home's directory queue; everyone's cached copies are invalidated.
  This is what the synchronization primitives build on.

Timing: a home access pays the fabric's loaded latency (local-latency
when the requester is the home — the LMP advantage applies to coherence
too), a directory service time, and one invalidation round trip to the
farthest sharer when copies must die.  Every protocol message is also
counted, because the A4 ablation's metric is coherence traffic.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.coherence.snoop_filter import SnoopFilter
from repro.errors import CoherenceError, ConfigError
from repro.sim.resources import FifoQueue, Mutex

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.check.sanitizers import CoherenceSanitizer
    from repro.sim.process import Process
    from repro.topology.builder import Deployment


@dataclasses.dataclass
class CoherenceStats:
    """Protocol traffic counters."""

    loads: int = 0
    stores: int = 0
    rmws: int = 0
    cache_hits: int = 0
    directory_messages: int = 0
    remote_directory_messages: int = 0  # requester != home: crossed the fabric
    invalidation_messages: int = 0
    remote_invalidation_messages: int = 0  # victim != home: crossed the fabric
    writebacks: int = 0


@dataclasses.dataclass
class _DirEntry:
    """Directory state for one line."""

    owner: int | None = None  # host holding M, if any
    sharers: set[int] = dataclasses.field(default_factory=set)


class CoherenceDirectory:
    """The coherent region: directory + snoop filters + values + caches."""

    LINE_BYTES = 64

    #: installed by repro.check.CoherenceSanitizer to re-verify MESI
    #: invariants after every transition (None = checks disabled)
    _sanitizer: _t.ClassVar["CoherenceSanitizer | None"] = None

    def __init__(
        self,
        deployment: "Deployment",
        region_bytes: int,
        snoop_filter_lines: int = 4096,
        directory_service_ns: float = 20.0,
    ) -> None:
        if region_bytes < self.LINE_BYTES:
            raise ConfigError(f"coherent region smaller than one line: {region_bytes}")
        self.deployment = deployment
        self.engine = deployment.engine
        self.switch = deployment.switch
        self.fluid = deployment.fluid
        self.region_bytes = region_bytes
        self.line_count = region_bytes // self.LINE_BYTES
        self.server_ids = [s.server_id for s in deployment.servers]
        self.stats = CoherenceStats()
        #: per-home directory service queues and snoop filters
        self._queues: dict[int, FifoQueue] = {
            sid: FifoQueue(self.engine, directory_service_ns, name=f"dir{sid}")
            for sid in self.server_ids
        }
        self.snoop_filters: dict[int, SnoopFilter] = {
            sid: SnoopFilter(snoop_filter_lines, name=f"sf{sid}")
            for sid in self.server_ids
        }
        self._entries: dict[int, _DirEntry] = {}
        self._values: dict[int, int] = {}
        #: per-line transition locks: the home processes one coherence
        #: transition per line at a time, like a real directory's
        #: transient-state blocking
        self._line_locks: dict[int, Mutex] = {}
        #: host -> set of lines cached (S or M — M iff entry.owner == host)
        self._caches: dict[int, set[int]] = {sid: set() for sid in self.server_ids}

    # -- geometry ------------------------------------------------------------

    def home_of(self, line: int) -> int:
        """Lines stripe round-robin across the participating servers."""
        self._check_line(line)
        return self.server_ids[line % len(self.server_ids)]

    def _check_line(self, line: int) -> None:
        if not 0 <= line < self.line_count:
            raise CoherenceError(
                f"line {line} outside coherent region of {self.line_count} lines"
            )

    def _entry(self, line: int) -> _DirEntry:
        return self._entries.setdefault(line, _DirEntry())

    def _line_lock(self, line: int) -> Mutex:
        lock = self._line_locks.get(line)
        if lock is None:
            lock = Mutex(self.engine)
            self._line_locks[line] = lock
        return lock

    def _after_transition(self, line: int, op: str = "", host: int | None = None) -> None:
        """Sanitizer hook: verify *line*'s invariants post-transition and
        feed the race detector's per-line vector clocks."""
        sanitizer = type(self)._sanitizer
        if sanitizer is not None:
            sanitizer.verify_line(self, line)
        # the engine's race detector takes every completed load / store /
        # rmw: loads are acquire edges, stores release edges, rmws both,
        # which gives the sync primitives (and any protocol built on
        # coherent lines) their happens-before ordering
        monitor = self.engine.monitor
        if monitor is not None and op:
            monitor.on_line_op(self, op, host, line)

    def _latency(self, requester: int, target: int) -> float:
        """Loaded latency requester -> target (local curve when equal)."""
        req = self.deployment.server(requester)
        tgt = self.deployment.server(target)
        return self.switch.read_route(req.name, tgt.name).loaded_latency()

    # -- peeks (test support; no timing) ------------------------------------------

    def peek(self, line: int) -> int:
        """Authoritative value without protocol actions."""
        self._check_line(line)
        return self._values.get(line, 0)

    def cached_lines(self, host: int) -> set[int]:
        return set(self._caches[host])

    def entry_view(self, line: int) -> tuple[int | None, tuple[int, ...]]:
        """Canonical ``(owner, sorted sharers)`` directory view.

        The adapter seam for ``repro.check.model``: the model checker's
        coherence spec cross-checks its abstract directory against this
        after every replayed transition, so model and implementation
        cannot drift silently.
        """
        self._check_line(line)
        entry = self._entries.get(line)
        if entry is None:
            return (None, ())
        return (entry.owner, tuple(sorted(entry.sharers)))

    def state_of(self, line: int, host: int) -> str:
        """'M', 'S', or 'I' — for protocol invariant checks."""
        entry = self._entries.get(line)
        if entry is None or line not in self._caches[host]:
            return "I"
        if entry.owner == host:
            return "M"
        return "S"

    def check_invariants(self) -> None:
        """SWMR: at most one M holder, and M excludes other sharers."""
        for line, entry in self._entries.items():
            holders = [h for h in self.server_ids if line in self._caches[h]]
            if entry.owner is not None:
                assert holders == [entry.owner] or set(holders) == {entry.owner}, (
                    f"line {line}: M owner {entry.owner} coexists with {holders}"
                )
            for h in holders:
                assert h in entry.sharers or h == entry.owner, (
                    f"line {line}: host {h} cached but not tracked"
                )

    # -- protocol operations -----------------------------------------------------

    def load(self, host: int, line: int) -> "Process":
        """Coherent load; the process returns the line's value."""
        return self.engine.process(self._load_body(host, line), name=f"coh.load{line}")

    def _load_body(self, host: int, line: int):
        self._check_line(line)
        self.stats.loads += 1
        obs = self.engine.obs
        entry = self._entry(line)
        if line in self._caches[host] and entry.owner in (None, host):
            self.stats.cache_hits += 1
            if obs is not None:
                obs.coherence_op(self, "load", host, line, hit=True)
                obs.add("cat_cache_ns", 1.0)
            yield self.engine.timeout(1.0)  # L1 hit
            self._after_transition(line, "load", host)
            return self._values.get(line, 0)

        home = self.home_of(line)
        home_latency = self._latency(host, home)
        if obs is not None:
            obs.coherence_op(self, "load", host, line, hit=False)
            obs.add("cat_link_ns", home_latency)
        yield self.engine.timeout(home_latency)
        entered = self.engine.now
        yield self._line_lock(line).acquire()
        try:
            yield self._queues[home].submit()
            if obs is not None:
                obs.add("cat_queue_ns", self.engine.now - entered)
            self.stats.directory_messages += 1
            if home != host:
                self.stats.remote_directory_messages += 1

            owner = entry.owner
            if owner is not None and owner != host:
                # downgrade M -> S with writeback
                downgrade = self._latency(home, owner)
                if obs is not None:
                    obs.add("cat_link_ns", downgrade)
                yield self.engine.timeout(downgrade)
                self._caches[owner].discard(line)
                entry.sharers.discard(owner)
                self.snoop_filters[home].untrack(line, owner)
                entry.owner = None
                self.stats.writebacks += 1
                self.stats.invalidation_messages += 1

            entry.sharers.add(host)
            self._caches[host].add(line)
            yield from self._track(home, line, host)
            self._after_transition(line, "load", host)
            return self._values.get(line, 0)
        finally:
            self._line_lock(line).release()

    def store(self, host: int, line: int, value: int) -> "Process":
        """Coherent store; the process returns the stored value."""
        return self.engine.process(
            self._store_body(host, line, value), name=f"coh.store{line}"
        )

    def _store_body(self, host: int, line: int, value: int):
        self._check_line(line)
        self.stats.stores += 1
        obs = self.engine.obs
        entry = self._entry(line)
        if entry.owner == host:
            self.stats.cache_hits += 1
            if obs is not None:
                obs.coherence_op(self, "store", host, line, hit=True)
                obs.add("cat_cache_ns", 1.0)
            yield self.engine.timeout(1.0)
            self._values[line] = value
            self._after_transition(line, "store", host)
            return value

        home = self.home_of(line)
        home_latency = self._latency(host, home)
        if obs is not None:
            obs.coherence_op(self, "store", host, line, hit=False)
            obs.add("cat_link_ns", home_latency)
        yield self.engine.timeout(home_latency)
        entered = self.engine.now
        yield self._line_lock(line).acquire()
        try:
            yield self._queues[home].submit()
            if obs is not None:
                obs.add("cat_queue_ns", self.engine.now - entered)
            self.stats.directory_messages += 1
            if home != host:
                self.stats.remote_directory_messages += 1
            yield from self._invalidate_others(home, line, keep=host)
            entry.owner = host
            entry.sharers = {host}
            self._caches[host].add(line)
            yield from self._track(home, line, host)
            self._values[line] = value
            self._after_transition(line, "store", host)
            return value
        finally:
            self._line_lock(line).release()

    def atomic_rmw(
        self, host: int, line: int, fn: _t.Callable[[int], int]
    ) -> "Process":
        """Atomic read-modify-write at the home; the process returns
        (old_value, new_value)."""
        return self.engine.process(
            self._rmw_body(host, line, fn), name=f"coh.rmw{line}"
        )

    def _rmw_body(self, host: int, line: int, fn: _t.Callable[[int], int]):
        self._check_line(line)
        self.stats.rmws += 1
        obs = self.engine.obs
        home = self.home_of(line)
        home_latency = self._latency(host, home)
        if obs is not None:
            obs.coherence_op(self, "rmw", host, line, hit=False)
            obs.add("cat_link_ns", home_latency)
        yield self.engine.timeout(home_latency)
        entered = self.engine.now
        yield self._line_lock(line).acquire()
        try:
            yield self._queues[home].submit()
            if obs is not None:
                obs.add("cat_queue_ns", self.engine.now - entered)
            self.stats.directory_messages += 1
            if home != host:
                self.stats.remote_directory_messages += 1
            # atomics execute at the home: every cached copy dies
            yield from self._invalidate_others(home, line, keep=None)
            entry = self._entry(line)
            entry.owner = None
            entry.sharers = set()
            old = self._values.get(line, 0)
            new = fn(old)
            self._values[line] = new
            self._after_transition(line, "rmw", host)
            return old, new
        finally:
            self._line_lock(line).release()

    def evict(self, host: int, line: int) -> "Process":
        """Voluntarily drop *host*'s cached copy (a capacity eviction);
        the process returns True when a copy was actually dropped.

        Snoop-filter overflow performs the same transition implicitly;
        exposing it as an explicit operation gives tests and the model
        checker's coherence spec a way to drive evictions directly.
        """
        return self.engine.process(
            self._evict_body(host, line), name=f"coh.evict{line}"
        )

    def _evict_body(self, host: int, line: int):
        self._check_line(line)
        yield self._line_lock(line).acquire()
        try:
            if line not in self._caches[host]:
                return False
            entry = self._entry(line)
            self._caches[host].discard(line)
            entry.sharers.discard(host)
            self.snoop_filters[self.home_of(line)].untrack(line, host)
            if entry.owner == host:
                entry.owner = None
                self.stats.writebacks += 1
            self.stats.invalidation_messages += 1
            self._after_transition(line)
            return True
        finally:
            self._line_lock(line).release()

    # -- shared sub-flows --------------------------------------------------------

    def _invalidate_others(self, home: int, line: int, keep: int | None):
        """Invalidate every cached copy except *keep*'s; one round trip
        to the farthest victim (invalidations go out in parallel)."""
        entry = self._entry(line)
        victims = {h for h in entry.sharers if h != keep}
        if entry.owner is not None and entry.owner != keep:
            victims.add(entry.owner)
            self.stats.writebacks += 1
        if not victims:
            return
        worst = max(self._latency(home, v) for v in victims)
        obs = self.engine.obs
        if obs is not None:
            obs.add("cat_link_ns", worst)
        yield self.engine.timeout(worst)
        for victim in sorted(victims):
            self._caches[victim].discard(line)
            entry.sharers.discard(victim)
            self.snoop_filters[home].untrack(line, victim)
            self.stats.invalidation_messages += 1
            if victim != home:
                self.stats.remote_invalidation_messages += 1
        if entry.owner in victims:
            entry.owner = None

    def _track(self, home: int, line: int, host: int):
        """Insert into the home's snoop filter, back-invalidating victims
        if the filter overflows."""
        victims = self.snoop_filters[home].track(line, host)
        obs = self.engine.obs
        for victim_line, victim_sharers in victims:
            if not victim_sharers:
                continue
            worst = max(self._latency(home, v) for v in victim_sharers)
            if obs is not None:
                obs.add("cat_link_ns", worst)
            yield self.engine.timeout(worst)
            victim_entry = self._entries.get(victim_line)
            for sharer in sorted(victim_sharers):
                self._caches[sharer].discard(victim_line)
                self.stats.invalidation_messages += 1
                if victim_entry is not None:
                    victim_entry.sharers.discard(sharer)
                    if victim_entry.owner == sharer:
                        victim_entry.owner = None
                        self.stats.writebacks += 1
