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
.transfer`), the solver's own completion tick, and explicit
:meth:`FluidModel.settle` calls.  Between transitions every rate is
constant, so one linear drain per transition is exact and event dispatch
costs the fluid model nothing.  Large uncapped flow sets are re-solved
per distinct capacity path rather than per flow (:class:`_PathGroup`).

This is the standard technique for simulating bandwidth-bound systems at
scale (flow-level network simulation), and it is the reason we can "run"
96 GB scans in milliseconds of wall-clock time.
"""

from __future__ import annotations

import math
import typing as _t
from heapq import heapify, heappop, heappush

from repro.errors import SimulationError
from repro.sim.events import Event, lazy_event
from repro.sim.stats import StatSet

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

#: flow count at which the solver switches to the path-grouped
#: water-filling pass (below it, grouping overhead loses)
_GROUPED_RECOMPUTE_MIN = 8


class Capacity:
    """A bandwidth-limited element: memory channel, fabric port, or link."""

    __slots__ = (
        "name",
        "rate",
        "stats",
        "_flows",
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
        #: insertion-ordered (dict-as-set): iteration order must not
        #: depend on object hashes or reruns stop being reproducible
        self._flows: dict["Transfer", None] = {}
        self._used_rate = 0.0
        #: the "utilization" gauge, cached at first recompute (setdefault
        #: in StatSet.gauge always hands back this same object)
        self._util_gauge: _t.Any = None
        #: the "bytes" counter, cached at the first drain through this
        #: capacity
        self._bytes_counter: _t.Any = None

    @property
    def used_rate(self) -> float:
        """Aggregate instantaneous rate of flows crossing this element."""
        return self._used_rate

    @property
    def utilization(self) -> float:
        """Instantaneous utilization in [0, 1]."""
        return min(1.0, self._used_rate / self.rate)

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Capacity {self.name} {self.rate:.1f}B/ns {len(self._flows)} flows>"


class Transfer:
    """One in-flight flow: *size* bytes over *path*, optionally rate-capped."""

    __slots__ = (
        "path",
        "remaining",
        "rate_cap",
        "rate",
        "done",
        "started_at",
        "size",
        "tag",
        "_simple_path",
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
        self.rate = 0.0
        self.done = done
        self.started_at = started_at
        self.tag = tag
        #: True when the path visits each capacity at most once (lets the
        #: solver take the single-flow fast path; a duplicated node makes
        #: the flow count against it twice, which needs the general pass)
        self._simple_path = len(set(path)) == len(path)
        #: virtual-service completion target while virtualized: the
        #: group's cumulative per-member service at which this flow drains
        self._vtarget = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = "->".join(c.name for c in self.path)
        return f"<Transfer {self.tag or 'flow'} {self.remaining:.0f}B left via {names}>"


class _PathGroup:
    """Flows sharing one exact capacity path.

    Max-min fairness gives every uncapped flow on the same path the same
    rate, so the group advances in *virtual service*: ``service`` is the
    cumulative bytes drained per member since the group entered
    virtualized accounting.  A member joining at service S with ``size``
    bytes completes when service reaches ``S + size`` — its *target* —
    so draining the whole group costs one multiply, and completions pop
    off a heap of targets instead of scanning every flow.
    """

    __slots__ = ("path", "members", "rate", "service", "heap")

    def __init__(self, path: tuple[Capacity, ...]) -> None:
        self.path = path
        #: insertion-ordered (dict-as-set) for deterministic iteration
        self.members: dict[Transfer, None] = {}
        #: current per-member max-min share (set by the grouped waterfill)
        self.rate = 0.0
        #: cumulative per-member service in bytes while virtualized
        self.service = 0.0
        #: (target, seq, flow) min-heap of pending completions; seq is a
        #: model-wide start counter so equal targets pop in start order
        self.heap: list[tuple[float, int, Transfer]] = []


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
        #: a transfer no larger than COMPLETION_EPSILON is complete the
        #: moment it starts; this flag makes the next tick's completion
        #: scan unconditional so such a flow can never linger
        self._tiny_pending = False
        #: bookkeeping maintained incrementally at flow start/finish so
        #: each recompute and drain costs O(#path groups + #capacities)
        #: instead of O(#flows x path length): flows keyed by
        #: identical path (the grouped solver's input), per-capacity flow
        #: crossing refcounts (the drain's byte-accounting input), and the
        #: number of rate-capped flows (gates the grouped pass in O(1))
        self._groups: dict[tuple[Capacity, ...], _PathGroup] = {}
        self._caps: dict[Capacity, int] = {}
        self._capped_count = 0
        #: True while flow progress lives in the groups' virtual-service
        #: accounts (per-flow `remaining` is stale until _materialize)
        self._virtualized = False
        #: monotonic flow-start counter: the heap tie-break for equal
        #: completion targets, preserving transfer-start order
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
        suspending a process on the returned event.  ``repro check
        --flow`` (LMP014) recognizes this form as a consumed wait.
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
        for cap in flow.path:
            cap._flows[flow] = None
        group = self._groups.get(flow.path)
        if group is None:
            group = self._groups[flow.path] = _PathGroup(flow.path)
        group.members[flow] = None
        if self._virtualized:
            self._flow_seq += 1
            flow._vtarget = group.service + flow.remaining
            heappush(group.heap, (flow._vtarget, self._flow_seq, flow))
        caps = self._caps
        for cap in flow.path:  # a duplicated node counts per crossing
            caps[cap] = caps.get(cap, 0) + 1
        if rate_cap != math.inf:
            self._capped_count += 1
        if size <= self.COMPLETION_EPSILON:
            self._tiny_pending = True
        if finished is not None:
            # Virtualized completions pop off the group heaps exactly
            # once, so they must be retired here rather than rediscovered
            # by a later drain.  _finish recomputes with the new flow
            # already in place.
            self._finish(finished)
        else:
            self._recompute()
        return done

    @property
    def active_transfers(self) -> int:
        return len(self._transfers)

    def settle(self) -> None:
        """Bring flow progress up to the current time and complete any
        drained flows.  Progress otherwise moves only at rate
        transitions, so call this before reading per-flow ``remaining``
        or the capacities' byte counters mid-flight."""
        finished = self._advance()
        if finished is not None:
            self._finish(finished)
        self._complete_finished()

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
        epsilon = self.COMPLETION_EPSILON
        finished: list[Transfer] | None = None
        # Aggregate byte accounting: rates are constant over the whole
        # interval, so each capacity's byte total grows by exactly
        # used_rate * dt — one counter add per capacity instead of one
        # per flow crossing.  (At a completion tick a per-flow drain
        # would clamp float dust at the finishing flow; the aggregate
        # add carries that dust, a few ulps of the interval's bytes.)
        for cap in self._caps:
            used = cap._used_rate
            if used > 0.0:
                counter = cap._bytes_counter
                if counter is None:
                    counter = cap._bytes_counter = cap.stats.counter("bytes")
                counter.add(used * dt)
        if self._virtualized:
            # Virtual-service drain: one multiply per group advances
            # every member; completions pop off the target heap.
            for group in self._groups.values():
                rate = group.rate
                if rate > 0.0:
                    group.service = service = group.service + rate * dt
                else:
                    service = group.service
                heap = group.heap
                limit = service + epsilon
                while heap and heap[0][0] <= limit:
                    flow = heappop(heap)[2]
                    flow.remaining = 0.0
                    if finished is None:
                        finished = []
                    finished.append(flow)
            return finished
        for flow in self._transfers:
            rate = flow.rate
            if rate > 0:
                moved = rate * dt
                if moved > flow.remaining:
                    moved = flow.remaining
                flow.remaining -= moved
                if flow.remaining <= epsilon:
                    if finished is None:
                        finished = []
                    finished.append(flow)
        return finished

    #: transfers with less than this many bytes left are complete; residues
    #: of this size are float error from rate*dt accumulation, and letting
    #: them linger deadlocks once dt underflows the clock's ulp
    COMPLETION_EPSILON = 1e-3

    def _complete_finished(self) -> None:
        self._tiny_pending = False
        if self._virtualized:
            # Per-flow `remaining` is stale while virtualized; the group
            # heaps know exactly which targets the service has reached.
            finished: list[Transfer] = []
            epsilon = self.COMPLETION_EPSILON
            for group in self._groups.values():
                heap = group.heap
                limit = group.service + epsilon
                while heap and heap[0][0] <= limit:
                    flow = heappop(heap)[2]
                    flow.remaining = 0.0
                    finished.append(flow)
            if finished:
                self._finish(finished)
            return
        finished = [f for f in self._transfers if f.remaining <= self.COMPLETION_EPSILON]
        if not finished:
            return
        self._finish(finished)

    def _finish(self, finished: list[Transfer]) -> None:
        """Retire *finished* flows (already known to be drained)."""
        self._tiny_pending = False
        caps = self._caps
        for flow in finished:
            if flow in self._transfers:
                del self._transfers[flow]
                group = self._groups.get(flow.path)
                if group is not None:
                    group.members.pop(flow, None)
                    if not group.members:
                        del self._groups[flow.path]
                for cap in flow.path:
                    n = caps.get(cap, 0) - 1
                    if n <= 0:
                        caps.pop(cap, None)
                    else:
                        caps[cap] = n
                if flow.rate_cap != math.inf:
                    self._capped_count -= 1
            for cap in flow.path:
                cap._flows.pop(flow, None)
            if not flow.done.triggered:
                flow.done.succeed(self.engine.now - flow.started_at)
        self._recompute()
        # Capacities that just lost their last flow are absent from the
        # recompute set; refresh them so utilization reads as idle.
        now = self.engine.now
        for flow in finished:
            for cap in flow.path:
                if not cap._flows:
                    cap._used_rate = 0.0
                    gauge = cap._util_gauge
                    if gauge is None:
                        gauge = cap._util_gauge = cap.stats.gauge("utilization", 0.0, 0.0)
                    gauge.update(0.0, now)

    def _materialize(self) -> None:
        """Leave virtualized accounting: write every flow's true
        `remaining` (and current rate) back from its group's service
        account so the per-flow solver paths can take over."""
        for group in self._groups.values():
            service = group.service
            rate = group.rate
            for flow in group.members:
                rem = flow._vtarget - service
                flow.remaining = rem if rem > 0.0 else 0.0
                flow.rate = rate
            group.heap = []
            group.service = 0.0
        self._virtualized = False

    def _recompute_grouped(self, now: float) -> None:
        """Path-grouped water-filling.

        Max-min fairness never distinguishes uncapped flows that cross the
        identical capacity path: the per-flow pass freezes them together at
        the same bottleneck share on every iteration.  The groups are
        maintained incrementally at flow start/finish, so the waterfill
        runs over O(#distinct paths) — on a rack topology a small constant
        — instead of O(#flows), which is what makes dense steady states
        (ROADMAP item 1's serving regime) cheap to re-solve at every flow
        start/finish.  The next-completion horizon is folded into the rate
        assignment loop, and per-capacity usage falls out of the waterfill
        residue, so nothing here rescans the flow set.

        The shares are computed by the same formula in the same bottleneck
        order as the per-flow pass; only the subtraction `n * share` vs.
        `share` repeated n times differs, so rates can drift from the
        per-flow pass by float associativity (ulps).  Below
        ``_GROUPED_RECOMPUTE_MIN`` flows the per-flow pass runs instead.

        The caller must rule out rate-capped flows first (via the O(1)
        ``_capped_count`` gate): caps are per-flow constraints the group
        quotient cannot express.
        """
        inf = math.inf
        groups = self._groups
        if not self._virtualized:
            # Enter virtualized accounting: seed each group's service at
            # zero and heapify the members' completion targets.  Members
            # are visited in insertion (= transfer-start) order, so equal
            # targets keep start-order sequence numbers.
            for group in groups.values():
                group.service = 0.0
                heap = []
                for flow in group.members:
                    self._flow_seq += 1
                    flow._vtarget = flow.remaining
                    heap.append((flow._vtarget, self._flow_seq, flow))
                heapify(heap)
                group.heap = heap
            self._virtualized = True

        remaining: dict[Capacity, float] = {}
        unfrozen_at: dict[Capacity, int] = {}
        for path, group in groups.items():
            n = len(group.members)
            for cap in path:  # a duplicated node counts once per crossing
                remaining[cap] = cap.rate
                unfrozen_at[cap] = unfrozen_at.get(cap, 0) + n

        horizon = inf
        unfrozen = dict.fromkeys(groups)
        while unfrozen:
            best_share = inf
            best_cap: Capacity | None = None
            for cap, rem in remaining.items():  # noqa: LMP003 - insertion order is deterministic
                n = unfrozen_at[cap]
                if n <= 0:
                    continue
                share = rem / n
                if share < best_share:
                    best_share = share
                    best_cap = cap
            if best_cap is None:
                raise SimulationError("water-filling found flows with no constraints")
            share = remaining[best_cap] / unfrozen_at[best_cap]
            bottlenecked = [p for p in unfrozen if best_cap in p]
            for path in bottlenecked:
                group = groups[path]
                n = len(group.members)
                group.rate = share
                if share > 0.0 and group.heap:
                    h = (group.heap[0][0] - group.service) / share
                    if h < horizon:
                        horizon = h
                unfrozen.pop(path, None)
                for cap in path:
                    remaining[cap] -= share * n
                    unfrozen_at[cap] -= n

        # The waterfill residue IS the unused rate: every group froze, so
        # cap.rate - remaining[cap] equals the sum of its flows' rates (up
        # to subtraction dust, the same ulps the shares carry).
        for cap, rem in remaining.items():  # noqa: LMP003 - stats refresh over the same deterministic order
            used = cap.rate - rem
            if used < 0.0:
                used = 0.0
            cap._used_rate = used
            gauge = cap._util_gauge
            if gauge is None:
                gauge = cap._util_gauge = cap.stats.gauge("utilization", 0.0, 0.0)
            gauge.update(used / cap.rate, now)
        self._schedule_next_tick(horizon)

    def _recompute(self) -> None:
        """Water-filling max-min allocation (Bertsekas–Gallager)."""
        now = self.engine.now
        if not self._capped_count and len(self._transfers) >= _GROUPED_RECOMPUTE_MIN:
            self._recompute_grouped(now)
            return
        if self._virtualized:
            # A per-flow solver path is about to run (small flow set, a
            # rate-capped flow, or emptiness): restore true per-flow
            # remaining/rate first.
            self._materialize()
        if not self._transfers:
            # the general pass would touch nothing; _schedule_next_tick
            # would bump the generation and find an infinite horizon
            self._tick_generation += 1
            return
        if len(self._transfers) == 1:
            # One flow: its max-min rate is min(rate_cap, bottleneck cap
            # rate) — exactly what one round of water-filling yields when
            # every capacity carries the flow once.  (A duplicated path
            # node counts the flow twice against that node, so those rare
            # flows take the general pass.)
            (flow,) = self._transfers
            if flow._simple_path:
                rate = flow.rate_cap
                for cap in flow.path:
                    if cap.rate < rate:
                        rate = cap.rate
                flow.rate = rate
                for cap in flow.path:
                    cap._used_rate = rate
                    gauge = cap._util_gauge
                    if gauge is None:
                        gauge = cap._util_gauge = cap.stats.gauge("utilization", 0.0, 0.0)
                    gauge.update(rate / cap.rate, now)
                self._schedule_next_tick()
                return
        flows = list(self._transfers)
        for flow in flows:
            flow.rate = 0.0

        # `remaining` doubles as the (insertion-ordered) capacity set, so
        # bottleneck tie-breaks are reproducible across runs.
        remaining: dict[Capacity, float] = {}
        unfrozen_at: dict[Capacity, int] = {}
        inf = math.inf
        # Flow rate caps act as single-flow pseudo-capacities, but almost
        # every flow is uncapped (rate_cap == inf): track the capped ones
        # separately so the common case skips that scan entirely.  An
        # uncapped flow can never satisfy `rate_cap <= best_share`
        # (best_share is finite whenever any flow is unfrozen), so the
        # filtered scan selects exactly the flows the full scan would.
        capped_flows: dict[Transfer, None] = {}
        for flow in flows:
            if flow.rate_cap != inf:
                capped_flows[flow] = None
            for cap in flow.path:
                remaining[cap] = cap.rate
                unfrozen_at[cap] = unfrozen_at.get(cap, 0) + 1

        unfrozen = dict.fromkeys(flows)
        while unfrozen:
            # Bottleneck share among capacity nodes.
            best_share = inf
            best_cap: Capacity | None = None
            for cap, rem in remaining.items():  # noqa: LMP003 - insertion order is the deterministic flow order; Capacity is unsortable
                n = unfrozen_at[cap]
                if n <= 0:
                    continue
                share = rem / n
                if share < best_share:
                    best_share = share
                    best_cap = cap
            if capped_flows:
                capped = [f for f in capped_flows if f.rate_cap <= best_share]
                if capped:
                    for flow in capped:
                        flow.rate = flow.rate_cap
                        unfrozen.pop(flow, None)
                        capped_flows.pop(flow, None)
                        for cap in flow.path:
                            remaining[cap] -= flow.rate
                            unfrozen_at[cap] -= 1
                    continue
            if best_cap is None:
                # No capacity constrains the rest; only flow caps do, and
                # none bind below best_share (inf) -> flows are uncapped
                # over an empty path, which transfer() already excludes.
                raise SimulationError("water-filling found flows with no constraints")
            share = remaining[best_cap] / unfrozen_at[best_cap]
            # best_cap._flows and self._transfers are inserted into and
            # emptied together, so iterating the (much smaller) per-cap
            # set yields the bottlenecked flows in the same global
            # transfer-start order as filtering `unfrozen` would.
            bottlenecked = [f for f in best_cap._flows if f in unfrozen]
            for flow in bottlenecked:
                flow.rate = share
                unfrozen.pop(flow, None)
                if capped_flows:
                    capped_flows.pop(flow, None)
                for cap in flow.path:
                    remaining[cap] -= share
                    unfrozen_at[cap] -= 1

        # Refresh per-capacity usage and utilization stats.
        for cap in remaining:  # noqa: LMP003 - stats refresh over the same deterministic capacity order
            used = sum(f.rate for f in cap._flows)
            cap._used_rate = used
            gauge = cap._util_gauge
            if gauge is None:
                gauge = cap._util_gauge = cap.stats.gauge("utilization", 0.0, 0.0)
            gauge.update(used / cap.rate, now)
        # Capacities that just lost their last flow need a zero sample too.
        self._schedule_next_tick()

    def _schedule_next_tick(self, horizon: float | None = None) -> None:
        """Wake the engine when the earliest flow will drain.

        *horizon* short-circuits the flow scan when the caller already
        knows the earliest completion (the grouped solver folds it into
        its rate-assignment loop).
        """
        self._tick_generation += 1
        generation = self._tick_generation
        if horizon is None:
            horizon = math.inf
            for flow in self._transfers:
                rate = flow.rate
                if rate > 0:
                    h = flow.remaining / rate
                    if h < horizon:
                        horizon = h
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
            # The drain reports what it finished, so the full O(#flows)
            # completion scan only runs for the tiny-transfer corner the
            # drain pass cannot see.
            finished = self._advance()
            if finished is not None:
                self._finish(finished)
            elif self._tiny_pending:
                self._complete_finished()
            if gen == self._tick_generation and self._transfers:
                # Nothing finished (so nothing rescheduled): keep ticking.
                self._schedule_next_tick()

        tick.callbacks.append(_fire)
        self.engine._schedule(tick, delay=horizon)
