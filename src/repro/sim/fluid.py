"""Max-min fair fluid bandwidth model.

Every data transfer in the reproduction (a core streaming a chunk from
DRAM, a page migration crossing the fabric, a cache fill from the
physical pool) is a *flow* over a *path* of :class:`Capacity` nodes
(memory channels, fabric ports, switch links).  At any instant each flow
has a rate; rates are the max-min fair allocation subject to

* every capacity node's aggregate rate limit, and
* each flow's own rate cap (e.g. a single core's streaming ceiling).

The allocation is recomputed with the Bertsekas–Gallager water-filling
algorithm whenever a flow starts or finishes.  Between recomputations
flow progress is linear, so the model is exact — not a discretized
approximation — while remaining event-driven and fast: the number of
events is O(#flows), independent of transfer sizes.

The solver is *transition-driven*: flow progress is drained and
completed only at rate transitions — a flow start (:meth:`FluidModel
.transfer`) and the solver's own completion tick.  Between transitions
every rate is constant, so one linear drain per transition is exact and
event dispatch costs the fluid model nothing.  Flows are water-filled per distinct
``(path, rate cap)`` pair rather than per flow (:class:`_PathGroup`).

This is the standard technique for simulating bandwidth-bound systems at
scale (flow-level network simulation), and it is the reason we can "run"
96 GB scans in milliseconds of wall-clock time.
"""

from __future__ import annotations

import math
import typing as _t
from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.sim.events import Event, lazy_event
from repro.sim.stats import StatSet

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


class Capacity:
    """A bandwidth-limited element: memory channel, fabric port, or link."""

    __slots__ = (
        "name",
        "rate",
        "stats",
        "_used_rate",
        "_util_gauge",
        "_bytes_counter",
    )

    def __init__(self, name: str, rate: float) -> None:
        if rate <= 0 or not math.isfinite(rate):
            raise SimulationError(f"capacity {name!r} needs a positive finite rate, got {rate}")
        self.name = name
        #: peak rate in bytes/ns (== GB/s)
        self.rate = rate
        self.stats = StatSet(name)
        self._used_rate = 0.0
        #: the "utilization" gauge, cached at first recompute (setdefault
        #: in StatSet.gauge always hands back this same object)
        self._util_gauge: _t.Any = None
        #: the "bytes" counter, cached at the first drain through this
        #: capacity
        self._bytes_counter: _t.Any = None

    @property
    def utilization(self) -> float:
        """Instantaneous utilization in [0, 1]."""
        return min(1.0, self._used_rate / self.rate)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Capacity {self.name} {self.rate:.1f}B/ns>"


class Transfer:
    """One in-flight flow: *size* bytes over *path*, optionally rate-capped.

    ``remaining`` holds the full size until the flow completes: in
    flight, progress lives in the flow's :class:`_PathGroup`."""

    __slots__ = (
        "path",
        "remaining",
        "rate_cap",
        "done",
        "started_at",
        "size",
        "tag",
        "_vtarget",
    )

    def __init__(
        self,
        path: tuple[Capacity, ...],
        size: float,
        rate_cap: float,
        done: Event,
        started_at: float,
        tag: str = "",
    ) -> None:
        self.path = path
        self.size = size
        self.remaining = float(size)
        self.rate_cap = rate_cap
        self.done = done
        self.started_at = started_at
        self.tag = tag
        #: virtual-service completion target: the group's cumulative
        #: per-member service at which this flow drains
        self._vtarget = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = "->".join(c.name for c in self.path)
        return f"<Transfer {self.tag or 'flow'} {self.remaining:.0f}B left via {names}>"


class _PathGroup:
    """Flows sharing one exact capacity path and one rate cap.

    Max-min fairness gives every flow with the same path and the same
    cap the same rate, so the group advances in *virtual service*:
    ``service`` is the cumulative bytes drained per member since the
    group formed.  A member joining at service S with ``size`` bytes
    completes when service reaches ``S + size`` — its *target* — so
    draining the whole group costs one multiply, and completions pop off
    a heap of targets instead of scanning every flow.
    """

    __slots__ = ("path", "cap", "members", "rate", "service", "heap")

    def __init__(self, path: tuple[Capacity, ...], cap: float) -> None:
        self.path = path
        #: the members' common rate cap (inf when uncapped)
        self.cap = cap
        #: insertion-ordered (dict-as-set) for deterministic iteration
        self.members: dict[Transfer, None] = {}
        #: current per-member max-min share (set by the waterfill)
        self.rate = 0.0
        #: cumulative per-member service in bytes
        self.service = 0.0
        #: (target, seq, flow) min-heap of pending completions; seq is a
        #: model-wide start counter so equal targets pop in start order
        self.heap: list[tuple[float, int, Transfer]] = []


def _start_order(entry: tuple[float, int, Transfer]) -> int:
    return entry[1]


class FluidModel:
    """Shared fluid solver attached to one :class:`Engine`.

    Components create one model per simulation and call :meth:`transfer`
    to move bytes.  The returned event fires when the last byte arrives;
    its value is the transfer duration in nanoseconds.
    """

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        #: insertion-ordered (dict-as-set) for deterministic iteration
        self._transfers: dict[Transfer, None] = {}
        self._last_advance = engine.now
        self._tick_generation = 0
        #: bookkeeping maintained incrementally at flow start/finish so
        #: each recompute and drain costs O(#groups + #capacities)
        #: instead of O(#flows x path length): flows keyed by identical
        #: (path, rate cap) — the solver's input — and per-capacity flow
        #: crossing refcounts (the drain's byte-accounting input)
        self._groups: dict[tuple[tuple[Capacity, ...], float], _PathGroup] = {}
        self._caps: dict[Capacity, int] = {}
        #: monotonic flow-start counter: the tie-break for equal
        #: completion targets and the retirement order of completions
        self._flow_seq = 0

    # -- public API ------------------------------------------------------------

    def transfer(
        self,
        path: _t.Sequence[Capacity],
        size: float,
        rate_cap: float = math.inf,
        tag: str = "",
        on_complete: _t.Callable[[Event], None] | None = None,
    ) -> Event:
        """Start moving *size* bytes along *path*; returns the completion event.

        *on_complete*, when given, is attached as the completion event's
        first callback — the callback-driven consumption style:
        the caller hands the wait over to the fluid model instead of
        suspending a process on the returned event.  ``repro check``
        (LMP014) recognizes this form as a consumed wait.
        """
        if size < 0:
            raise SimulationError(f"negative transfer size {size}")
        if rate_cap <= 0:
            raise SimulationError(f"transfer rate cap must be positive, got {rate_cap}")
        done = lazy_event(self.engine, "transfer", tag)
        if on_complete is not None:
            done.callbacks.append(on_complete)
        if size == 0 or not path:
            done.succeed(0.0)
            return done
        flow = Transfer(tuple(path), size, rate_cap, done, self.engine.now, tag=tag)
        finished = self._advance()
        self._transfers[flow] = None
        caps = self._caps
        for cap in flow.path:  # a duplicated node counts per crossing
            caps[cap] = caps.get(cap, 0) + 1
        key = (flow.path, rate_cap)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _PathGroup(flow.path, rate_cap)
        group.members[flow] = None
        self._flow_seq += 1
        flow._vtarget = group.service + flow.remaining
        heappush(group.heap, (flow._vtarget, self._flow_seq, flow))
        if finished is not None:
            # Completions pop off the group heaps exactly once, so they
            # must be retired here rather than rediscovered by a later
            # drain.  _finish recomputes with the new flow already in place.
            self._finish(finished)
        else:
            self._recompute()
        return done

    # -- internals ---------------------------------------------------------

    def _advance(self) -> list[Transfer] | None:
        """Drain bytes according to current rates up to the current time.

        Returns the flows that reached completion during this drain (in
        transfer-start order), or None when none did.
        """
        now = self.engine.now
        dt = now - self._last_advance
        if dt <= 0:
            return None
        self._last_advance = now
        if not self._transfers:
            return None
        # Aggregate byte accounting: rates are constant over the whole
        # interval, so each capacity's byte total grows by exactly
        # used_rate * dt — one counter add per capacity instead of one
        # per flow crossing.
        for cap in self._caps:
            used = cap._used_rate
            if used > 0.0:
                counter = cap._bytes_counter
                if counter is None:
                    counter = cap._bytes_counter = cap.stats.counter("bytes")
                counter.add(used * dt)
        return self._drain(dt)

    #: transfers with less than this many bytes left are complete; residues
    #: of this size are float error from rate*dt accumulation, and letting
    #: them linger deadlocks once dt underflows the clock's ulp
    COMPLETION_EPSILON = 1e-3

    def _drain(self, dt: float) -> list[Transfer] | None:
        """Virtual-service drain: advance every group's service by
        ``rate * dt`` (one multiply advances all its members), then pop
        every flow whose target the service has reached, in
        transfer-start order (so equal-instant completions in different
        groups fire in the order their transfers began)."""
        epsilon = self.COMPLETION_EPSILON
        drained: list[tuple[float, int, Transfer]] | None = None
        for group in self._groups.values():
            rate = group.rate
            if rate > 0.0:
                group.service = service = group.service + rate * dt
            else:
                service = group.service
            heap = group.heap
            limit = service + epsilon
            while heap and heap[0][0] <= limit:
                if drained is None:
                    drained = []
                drained.append(heappop(heap))
        if drained is None:
            return None
        if len(drained) > 1:
            drained.sort(key=_start_order)
        finished = []
        for entry in drained:
            flow = entry[2]
            flow.remaining = 0.0
            finished.append(flow)
        return finished

    def _finish(self, finished: list[Transfer]) -> None:
        """Retire *finished* flows (already popped off their group heaps)."""
        caps = self._caps
        groups = self._groups
        now = self.engine.now
        for flow in finished:
            del self._transfers[flow]
            key = (flow.path, flow.rate_cap)
            group = groups[key]
            del group.members[flow]
            if not group.members:
                del groups[key]
            for cap in flow.path:
                n = caps[cap] - 1
                if n:
                    caps[cap] = n
                else:
                    del caps[cap]
            if not flow.done.triggered:
                flow.done.succeed(now - flow.started_at)
        self._recompute()
        # Capacities that just lost their last flow are absent from the
        # recompute set; refresh them so utilization reads as idle.
        for flow in finished:
            for cap in flow.path:
                if cap not in caps:
                    cap._used_rate = 0.0
                    gauge = cap._util_gauge
                    if gauge is None:
                        gauge = cap._util_gauge = cap.stats.gauge("utilization", 0.0, 0.0)
                    gauge.update(0.0, now)

    def _recompute(self) -> None:
        """Water-filling max-min allocation (Bertsekas–Gallager), one
        unknown per ``(path, rate cap)`` group.

        Max-min fairness never distinguishes flows that cross the
        identical capacity path under the identical cap: water-filling
        freezes them together on every iteration.  The groups are
        maintained incrementally at flow start/finish, so the waterfill
        runs over O(#groups) — on a rack topology a small constant —
        instead of O(#flows).  Per-capacity usage is summed from the
        frozen group rates (``rate * n`` per crossing), so nothing here
        rescans the flow set.
        """
        groups = self._groups
        inf = math.inf
        # `remaining` doubles as the (insertion-ordered) capacity set, so
        # bottleneck tie-breaks are reproducible across runs.
        remaining: dict[Capacity, float] = {}
        unfrozen_at: dict[Capacity, int] = {}
        capped: list[_PathGroup] = []
        for group in groups.values():
            n = len(group.members)
            if group.cap != inf:
                capped.append(group)
            for cap in group.path:  # a duplicated node counts once per crossing
                remaining[cap] = cap.rate
                unfrozen_at[cap] = unfrozen_at.get(cap, 0) + n
        used = dict.fromkeys(remaining, 0.0)

        unfrozen = {group: group.path for group in groups.values()}
        while unfrozen:
            # Bottleneck share among capacity nodes.
            best_share = inf
            best_cap: Capacity | None = None
            for cap, rem in remaining.items():
                n = unfrozen_at[cap]
                if n <= 0:
                    continue
                share = rem / n
                if share < best_share:
                    best_share = share
                    best_cap = cap
            # A rate cap is a per-group pseudo-capacity: every group whose
            # cap binds at or below the bottleneck share freezes at it
            # first.  An uncapped group never satisfies `cap <= best_share`
            # (best_share is finite while any group is unfrozen).
            freeze = [(g, g.cap) for g in capped if g.cap <= best_share]
            if not freeze:
                if best_cap is None:
                    # No capacity constrains the rest and no cap binds:
                    # flows over an empty path, which transfer() excludes.
                    raise SimulationError("water-filling found flows with no constraints")
                share = remaining[best_cap] / unfrozen_at[best_cap]
                freeze = [(g, share) for g, path in unfrozen.items() if best_cap in path]
            for group, rate in freeze:
                # charge the members to every capacity they cross (a
                # duplicated node once per crossing)
                group.rate = rate
                del unfrozen[group]
                n = len(group.members)
                total = rate * n
                for cap in group.path:
                    remaining[cap] -= total
                    unfrozen_at[cap] -= n
                    used[cap] += total
            if capped:
                capped = [g for g in capped if g in unfrozen]

        now = self.engine.now
        for cap, rate in used.items():
            cap._used_rate = rate
            gauge = cap._util_gauge
            if gauge is None:
                gauge = cap._util_gauge = cap.stats.gauge("utilization", 0.0, 0.0)
            gauge.update(rate / cap.rate, now)
        self._schedule_next_tick()

    def _horizon(self) -> float:
        """Time until the earliest pending completion: each group's heap
        top against its service and rate."""
        horizon = math.inf
        for group in self._groups.values():
            rate = group.rate
            if rate > 0.0 and group.heap:
                h = (group.heap[0][0] - group.service) / rate
                if h < horizon:
                    horizon = h
        return horizon

    def _schedule_next_tick(self) -> None:
        """Wake the engine when the earliest flow will drain."""
        self._tick_generation += 1
        generation = self._tick_generation
        horizon = self._horizon()
        if not math.isfinite(horizon):
            return
        # The clock's resolution shrinks as it grows; a horizon below one
        # ulp would fire "now", advance by dt == 0, and drain nothing.
        horizon = max(horizon, 4.0 * math.ulp(self.engine.now))

        tick = Event(self.engine, name="fluid.tick")
        tick._value = None
        tick._ok = True

        def _fire(_ev: Event, gen: int = generation) -> None:
            if gen != self._tick_generation:
                return  # a newer recompute superseded this tick
            # The drain pops every flow due by now, sub-epsilon transfers
            # included: the horizon is at least 4 ulps, so a live tick
            # drains a positive interval.
            finished = self._advance()
            if finished is not None:
                self._finish(finished)
            if gen == self._tick_generation and self._transfers:
                # Nothing finished (so nothing rescheduled): keep ticking.
                self._schedule_next_tick()

        tick.callbacks.append(_fire)
        self.engine._schedule(tick, delay=horizon)
