"""Max-min fair fluid bandwidth model.

Every data transfer in the reproduction (a core streaming a segment from
DRAM, a page migration crossing the fabric, a cache fill from the
physical pool) is a *flow* over a *path* of :class:`Capacity` nodes
(memory channels, fabric ports, switch links).  At any instant each flow
has a rate; rates are the max-min fair allocation subject to

* every capacity node's aggregate rate limit, and
* each flow's own rate cap: a fixed rate (an accelerator's DMA
  ceiling), or a :class:`LoadCap` that falls as its path's load rises
  (a core's memory-level-parallelism ceiling against the *loaded*
  latency).

The allocation is recomputed with the Bertsekas–Gallager water-filling
algorithm at every flow start and finish.  While no flow in the model
has a rate cap, the recompute re-solves only the *component* the
transition touches: the groups connected, through shared capacities, to
the started flow's path and to the capacities of the flows that
finished (:meth:`FluidModel._component`).  Uncapped max-min rates split
exactly over the connected components of the group–capacity graph, and
the waterfill over one component performs the same float operations in
the same order as over all of them, so every other component's rates
stand bit for bit.  A cap breaks that: capped groups freeze in batches
set by the global bottleneck order, which couples components at the ulp
level, so while any group anywhere is capped every recompute solves all
groups.  Load-dependent caps are solved inside that global recompute,
as the fixed point at which every such cap equals its value at the
utilization the resulting rates produce
(:meth:`FluidModel._solve_load_caps`).  Between recomputations flow
progress is linear, so the model is exact — not a discretized
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

import dataclasses
import math
import typing as _t
from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.sim.events import Event, lazy_event
from repro.sim.stats import StatSet

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.latency import LatencyModel
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


def path_utilization(path: _t.Iterable[Capacity]) -> float:
    """Utilization of the hottest capacity on *path*: where the queue that
    sets a loaded latency actually forms."""
    return max(cap.utilization for cap in path)


@dataclasses.dataclass(frozen=True, slots=True)
class LoadCap:
    """A rate cap that depends on load: ``mlp_bytes / curve(u)``, where
    ``u`` is the utilization of the hottest capacity on the flow's path.

    This is Little's law for a core streaming with *mlp_bytes* of
    requests in flight against a round trip that lengthens as the path
    fills.  Caps compare by value, with the curve compared by identity,
    so every core streaming one route under one curve joins one
    :class:`_PathGroup`.  The curve is linear-fractional in ``u``
    (:mod:`repro.hw.latency`), and so is the cap: the solver balances a
    capacity whose load-capped flows share one curve in closed form
    (:func:`_utilization_root`).
    """

    curve: LatencyModel
    mlp_bytes: float

    def __post_init__(self) -> None:
        if self.mlp_bytes <= 0:
            raise SimulationError(f"load cap needs positive bytes in flight, got {self.mlp_bytes}")

    def at(self, utilization: float) -> float:
        """The cap in bytes/ns at *utilization* (unbounded at zero latency).

        The solver's inner loop: the curve's own clamp and arithmetic,
        in its order, inline, so the cap is ``mlp_bytes / curve(u)`` bit
        for bit in one frame."""
        curve = self.curve
        u = utilization
        if u > 1.0:
            u = 1.0
        elif not u >= 0.0:
            u = 0.0
        g = (1.0 / (1.0 - curve.rho * u) - 1.0) / curve.norm
        latency = curve.lat_min + (curve.lat_max - curve.lat_min) * g + curve.offset_ns
        if latency <= 0:
            return math.inf
        return self.mlp_bytes / latency


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
        rate_cap: "float | LoadCap",
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

    __slots__ = ("path", "cap", "limit", "u", "members", "rate", "service", "heap", "seq")

    def __init__(self, path: tuple[Capacity, ...], cap: "float | LoadCap", seq: int) -> None:
        self.path = path
        #: the members' common rate cap (inf when uncapped)
        self.cap = cap
        #: the cap the waterfill applies: *cap* itself, or a load cap's
        #: value at ``u``
        self.limit = cap if type(cap) is not LoadCap else math.inf
        #: a load cap's utilization estimate: the fixed point's last
        #: solution, so the next recompute starts from it
        self.u = 0.0
        #: insertion-ordered (dict-as-set) for deterministic iteration
        self.members: dict[Transfer, None] = {}
        #: current per-member max-min share (set by the waterfill)
        self.rate = 0.0
        #: cumulative per-member service in bytes
        self.service = 0.0
        #: (target, seq, flow) min-heap of pending completions; seq is a
        #: model-wide start counter so equal targets pop in start order
        self.heap: list[tuple[float, int, Transfer]] = []
        #: model-wide creation counter: the group's place in
        #: ``FluidModel._groups``, which orders every waterfill
        self.seq = seq


def _start_order(entry: tuple[float, int, Transfer]) -> int:
    return entry[1]


def _creation_order(group: _PathGroup) -> int:
    return group.seq


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
        #: bookkeeping maintained incrementally at group creation and
        #: retirement, so each recompute and drain costs O(#groups +
        #: #capacities) instead of O(#flows x path length): flows keyed
        #: by identical (path, rate cap) — the solver's input — and, per
        #: crossed capacity, the groups that cross it (the component
        #: search's graph and the drain's byte-accounting input)
        self._groups: dict[tuple[tuple[Capacity, ...], float | LoadCap], _PathGroup] = {}
        self._cap_groups: dict[Capacity, dict[_PathGroup, None]] = {}
        self._group_seq = 0
        #: the groups whose cap is a LoadCap, in creation order: only a
        #: recompute with one of these present solves a fixed point
        self._load_capped: dict[_PathGroup, None] = {}
        #: how many groups have a finite float cap: with these or a load
        #: cap present, every recompute solves all groups
        self._float_capped = 0
        #: monotonic flow-start counter: the tie-break for equal
        #: completion targets and the retirement order of completions
        self._flow_seq = 0

    # -- public API ------------------------------------------------------------

    def transfer(
        self,
        path: _t.Sequence[Capacity],
        size: float,
        rate_cap: "float | LoadCap" = math.inf,
        tag: str = "",
        on_complete: _t.Callable[[Event], None] | None = None,
    ) -> Event:
        """Start moving *size* bytes along *path*; returns the completion event.

        *rate_cap* bounds the flow's rate: a number of bytes/ns, or a
        :class:`LoadCap` solved against the load the flows produce.

        *on_complete*, when given, is attached as the completion event's
        first callback — the callback-driven consumption style:
        the caller hands the wait over to the fluid model instead of
        suspending a process on the returned event.  ``repro check``
        (LMP014) recognizes this form as a consumed wait.
        """
        if size < 0:
            raise SimulationError(f"negative transfer size {size}")
        if type(rate_cap) is not LoadCap and rate_cap <= 0:
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
        key = (flow.path, rate_cap)
        group = self._groups.get(key)
        if group is None:
            group = self._new_group(key)
        group.members[flow] = None
        self._flow_seq += 1
        flow._vtarget = group.service + flow.remaining
        heappush(group.heap, (flow._vtarget, self._flow_seq, flow))
        if finished is not None:
            # Completions pop off the group heaps exactly once, so they
            # must be retired here rather than rediscovered by a later
            # drain.  _finish recomputes with the new flow already in place.
            self._finish(finished, flow.path)
        else:
            self._recompute(flow.path)
        return done

    # -- internals ---------------------------------------------------------

    def _new_group(self, key: tuple[tuple[Capacity, ...], "float | LoadCap"]) -> _PathGroup:
        path, rate_cap = key
        self._group_seq += 1
        group = self._groups[key] = _PathGroup(path, rate_cap, self._group_seq)
        cap_groups = self._cap_groups
        for cap in path:
            crossing = cap_groups.get(cap)
            if crossing is None:
                crossing = cap_groups[cap] = {}
            crossing[group] = None
        if type(rate_cap) is LoadCap:
            group.u = path_utilization(path)
            self._load_capped[group] = None
        elif rate_cap != math.inf:
            self._float_capped += 1
        return group

    def _retire_group(self, key: tuple[tuple[Capacity, ...], "float | LoadCap"]) -> None:
        group = self._groups.pop(key)
        cap_groups = self._cap_groups
        for cap in group.path:
            crossing = cap_groups.get(cap)
            if crossing is not None:  # None: a duplicated node, already cleared
                crossing.pop(group, None)
                if not crossing:
                    del cap_groups[cap]
        if type(group.cap) is LoadCap:
            del self._load_capped[group]
        elif group.cap != math.inf:
            self._float_capped -= 1

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
        for cap in self._cap_groups:
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

    def _finish(self, finished: list[Transfer], started: tuple[Capacity, ...] = ()) -> None:
        """Retire *finished* flows (already popped off their group heaps);
        *started* is the path of a flow that started at this transition."""
        groups = self._groups
        now = self.engine.now
        touched = list(started)
        for flow in finished:
            del self._transfers[flow]
            key = (flow.path, flow.rate_cap)
            group = groups[key]
            del group.members[flow]
            if not group.members:
                self._retire_group(key)
            touched.extend(flow.path)
            if not flow.done.triggered:
                flow.done.succeed(now - flow.started_at)
        self._recompute(touched)
        # Capacities that just lost their last flow are absent from the
        # recompute set; refresh them so utilization reads as idle.
        caps = self._cap_groups
        for flow in finished:
            for cap in flow.path:
                if cap not in caps:
                    cap._used_rate = 0.0
                    gauge = cap._util_gauge
                    if gauge is None:
                        gauge = cap._util_gauge = cap.stats.gauge("utilization", 0.0, 0.0)
                    gauge.update(0.0, now)

    def _recompute(self, touched: _t.Iterable[Capacity]) -> None:
        """Re-solve the rates a transition on the *touched* capacities
        can change and publish those capacities' usage: the touched
        component's groups while no group is capped, else every group."""
        if self._load_capped:
            used = self._solve_load_caps()
        elif self._float_capped:
            used = self._waterfill()
        else:
            used = self._waterfill(self._component(touched))
        now = self.engine.now
        for cap, rate in used.items():
            cap._used_rate = rate
            gauge = cap._util_gauge
            if gauge is None:
                gauge = cap._util_gauge = cap.stats.gauge("utilization", 0.0, 0.0)
            gauge.update(rate / cap.rate, now)
        self._schedule_next_tick()

    def _component(self, touched: _t.Iterable[Capacity]) -> _t.Collection[_PathGroup]:
        """The groups connected to the *touched* capacities through
        shared capacities, in ``_groups`` order: the waterfill over them
        alone is the waterfill over all groups, restricted to them, when
        no group is capped.  A lone group needs no search: re-solving it
        untouched gives it the rate it has."""
        if len(self._groups) <= 1:
            return self._groups.values()
        cap_groups = self._cap_groups
        found: dict[_PathGroup, None] = {}
        seen = set(touched)
        frontier = list(seen)
        for cap in frontier:  # grows as the search reaches further capacities
            for group in cap_groups.get(cap, ()):
                if group not in found:
                    found[group] = None
                    for other in group.path:
                        if other not in seen:
                            seen.add(other)
                            frontier.append(other)
        if len(found) == len(self._groups):
            return self._groups.values()
        if len(found) > 1:
            return sorted(found, key=_creation_order)
        return found

    def _waterfill(self, groups: _t.Collection[_PathGroup] | None = None) -> dict[Capacity, float]:
        """Water-filling max-min allocation (Bertsekas–Gallager), one
        unknown per ``(path, rate cap)`` group, each capped at its
        ``limit``; returns each crossed capacity's used rate.  It solves
        *groups*, in ``_groups`` order, or all of them.

        Max-min fairness never distinguishes flows that cross the
        identical capacity path under the identical cap: water-filling
        freezes them together on every iteration.  The groups are
        maintained incrementally at flow start/finish, so the waterfill
        runs over O(#groups) — on a rack topology a small constant —
        instead of O(#flows).  Per-capacity usage is summed from the
        frozen group rates (``rate * n`` per crossing), so nothing here
        rescans the flow set.
        """
        if groups is None:
            groups = self._groups.values()
        inf = math.inf
        # `remaining` doubles as the (insertion-ordered) capacity set, so
        # bottleneck tie-breaks are reproducible across runs.
        remaining: dict[Capacity, float] = {}
        unfrozen_at: dict[Capacity, int] = {}
        capped: list[_PathGroup] = []
        unfrozen: dict[_PathGroup, tuple[Capacity, ...]] = {}
        for group in groups:
            n = len(group.members)
            unfrozen[group] = path = group.path
            if group.limit != inf:
                capped.append(group)
            for cap in path:  # a duplicated node counts once per crossing
                remaining[cap] = cap.rate
                unfrozen_at[cap] = unfrozen_at.get(cap, 0) + n
        used = dict.fromkeys(remaining, 0.0)

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
            # first.  An uncapped group never satisfies `limit <= best_share`
            # (best_share is finite while any group is unfrozen).
            freeze = [(g, g.limit) for g in capped if g.limit <= best_share] if capped else None
            if not freeze:
                if best_cap is None:
                    # No capacity constrains the rest and no cap binds:
                    # flows over an empty path, which transfer() excludes.
                    raise SimulationError("water-filling found flows with no constraints")
                freeze = [(g, best_share) for g, path in unfrozen.items() if best_cap in path]
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
        return used

    #: relative tolerance to which load-dependent caps must be stable
    CAP_TOLERANCE = 1e-12
    #: rounds one recompute may spend on the load caps, and Newton
    #: iterations within one joint solve, before the solver gives up
    MAX_CAP_ROUNDS = 64

    def _solve_load_caps(self) -> dict[Capacity, float]:
        """The waterfill at which every load-capped group's rate is
        ``min(max-min share, cap(u))`` at the utilization ``u`` of the
        hottest capacity on its path that those same rates produce.

        Only the groups frozen at their caps are solved.  A group frozen
        below its cap by a bottleneck is consistent with any cap at or
        above its rate.  The groups left over are grouped by the hottest
        capacity on their path, one unknown utilization per capacity,
        and the first round moves each such capacity to its load
        balance (:meth:`_settle`).  If a later round still finds a group
        out of balance, the groups are settled together
        (:meth:`_settle_jointly`).  Rounds repeat until every cap is
        stable to :data:`CAP_TOLERANCE`.  Each load cap's
        estimate ``u`` carries over to the next recompute, so a
        transition that leaves a group's load alone costs it nothing.
        Raises :class:`SimulationError` past :data:`MAX_CAP_ROUNDS`.
        """
        loaded = list(self._load_capped)
        for group in loaded:
            group.limit = group.cap.at(group.u)
        used = self._waterfill()
        for round_ in range(self.MAX_CAP_ROUNDS):
            hot, unsettled = self._unsettled(loaded, used)
            if not unsettled:
                return used
            if round_ == 0:
                for cap in unsettled:
                    used = self._settle(cap, hot[cap], used)
            else:
                # the first trial did not hold: flows below their caps
                # took up what the capped ones freed, or capacities are
                # coupled through flows that cross several of them
                used = self._settle_jointly(
                    [group for binding in hot.values() for group in binding], used
                )
        raise SimulationError(
            f"load-dependent rate caps did not settle in {self.MAX_CAP_ROUNDS} rounds "
            f"({len(loaded)} load-capped groups)"
        )

    def _unsettled(
        self, loaded: list[_PathGroup], used: dict[Capacity, float]
    ) -> tuple[dict[Capacity, list[_PathGroup]], list[Capacity]]:
        """Check every load-capped group against the utilization *used*
        puts on the hottest capacity of its path.  Returns each hottest
        capacity with the groups frozen at, or over, their caps there,
        and the capacities among them with a group out of balance; the
        fixed point holds when that list is empty."""
        tol = self.CAP_TOLERANCE
        hot: dict[Capacity, list[_PathGroup]] = {}
        unsettled: list[Capacity] = []
        for group in loaded:
            hottest = group.path[0]
            u = -1.0
            for cap in group.path:
                x = _loaded(used[cap], cap.rate)
                if x > u:
                    u = x
                    hottest = cap
            target = group.cap.at(u)
            limit = group.limit
            if group.rate < limit:
                # below its cap: any cap >= its rate allocates the same
                if group.rate <= target * (1.0 + tol):
                    group.u = u
                    continue
                settled = False
            else:
                settled = abs(target - limit) <= tol * limit
            hot.setdefault(hottest, []).append(group)
            if not settled and hottest not in unsettled:
                unsettled.append(hottest)
        return hot, unsettled

    def _settle(
        self, cap: Capacity, binding: list[_PathGroup], used: dict[Capacity, float]
    ) -> dict[Capacity, float]:
        """Move every group in *binding* to the utilization at which
        *cap* balances with each of them at its load cap and every other
        flow held at its current rate; returns that waterfill's usage.

        That is exact unless the other flows' rates shift too (flows
        below their own caps grow into the bandwidth *binding* frees).
        The next round's check catches that case, and
        :meth:`_settle_jointly` finishes it.
        """
        other = used[cap]
        terms: list[tuple[int, LoadCap]] = []
        for group in binding:
            n = len(group.members) * group.path.count(cap)
            other -= group.rate * n
            terms.append((n, group.cap))
        u = _utilization_root(cap.rate, max(other, 0.0), terms)
        for group in binding:
            group.u = u
            group.limit = group.cap.at(u)
        return self._waterfill()

    def _settle_jointly(
        self, groups: list[_PathGroup], used: dict[Capacity, float]
    ) -> dict[Capacity, float]:
        """Settle *groups* together, driving each one's estimate ``u``
        to the utilization of the hottest capacity on its path; returns
        the last waterfill's usage, and the caller re-checks every group.

        Each iteration first tries a Newton step, with a
        forward-difference Jacobian (one waterfill per group) and the
        step halved a few times until the residual shrinks.  Max-min
        rates are piecewise linear in the caps, so within one pattern of
        saturated capacities Newton converges fast, and it reaches a
        corner where several capacities saturate together in one step.
        Where a kink defeats it, a Gauss–Seidel sweep settles one group
        at a time instead (:meth:`_settle_one`), which always makes
        progress.  The unknowns are per group, not per capacity, because
        which capacity is hottest may change on the way.
        """
        tol = self.CAP_TOLERANCE
        us = [group.u for group in groups]
        used, residual = self._residuals(groups, us)
        for _iteration in range(self.MAX_CAP_ROUNDS):
            if all(
                abs(group.cap.at(u + r) - group.limit) <= tol * group.limit
                for group, u, r in zip(groups, us, residual)
            ):
                return used
            # a difference step well below the residual, so that it
            # rarely straddles a kink (a change of hottest capacity or of
            # bottleneck) between here and the root
            size = min(1e-7, max(1e-11, 0.01 * max(abs(r) for r in residual)))
            columns = []
            for j, u in enumerate(us):
                h = -size if u > 0.5 else size
                probe = list(us)
                probe[j] = u + h
                moved = self._residuals(groups, probe)[1]
                columns.append([(m - r) / h for m, r in zip(moved, residual)])
            step = _solve_linear(columns, [-r for r in residual])
            norm = sum(r * r for r in residual)
            t = 1.0
            while step is not None and t >= 1.0 / 16:
                trial = [min(1.0, max(0.0, u + t * d)) for u, d in zip(us, step)]
                trial_used, trial_residual = self._residuals(groups, trial)
                if sum(r * r for r in trial_residual) <= (1.0 - 0.25 * t) * norm:
                    us, used, residual = trial, trial_used, trial_residual
                    break
                t *= 0.5
            else:
                for j in range(len(groups)):
                    used, residual = self._settle_one(groups, us, j, residual)
        return used

    def _residuals(
        self, groups: list[_PathGroup], us: list[float]
    ) -> tuple[dict[Capacity, float], list[float]]:
        """Waterfill with each of *groups* capped at its load cap at the
        matching entry of *us*; returns the usage and, per group, the
        utilization of its hottest capacity minus its estimate."""
        for group, u in zip(groups, us):
            group.u = u
            group.limit = group.cap.at(u)
        used = self._waterfill()
        return used, [
            max(_loaded(used[cap], cap.rate) for cap in group.path) - u
            for group, u in zip(groups, us)
        ]

    def _settle_one(
        self, groups: list[_PathGroup], us: list[float], j: int, residual: list[float]
    ) -> tuple[dict[Capacity, float], list[float]]:
        """Settle ``groups[j]`` alone, the others held at *us*: a root of
        its residual in its own estimate, updating ``us[j]`` in place.
        The utilization its path shows falls as its estimate rises, so
        :func:`_falling_root` keeps the root bracketed in [0, 1], where
        iterating on the cap directly would oscillate on the steep knee
        of the latency curve."""
        tol = self.CAP_TOLERANCE
        group = groups[j]
        used: dict[Capacity, float] | None = None

        def residual_at(u: float) -> float:
            nonlocal used, residual
            us[j] = u
            used, residual = self._residuals(groups, us)
            return residual[j]

        def settled(u: float, f: float) -> bool:
            limit = group.cap.at(u)
            return abs(group.cap.at(u + f) - limit) <= tol * limit

        _falling_root(residual_at, us[j], residual[j], settled)
        if used is None:
            used, residual = self._residuals(groups, us)
        return used, residual

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

        self.engine.timeout(horizon).callbacks.append(_fire)


#: utilization this close to 1 is a saturated capacity: the waterfill's
#: sums leave it a few ulps short, and the knee of a latency curve
#: magnifies that noise past the load caps' tolerance
_SATURATED = 1.0 - 1e-12


def _loaded(used: float, rate: float) -> float:
    """Utilization of a capacity of *rate* carrying *used* bytes/ns, as
    the load caps read it: 1.0 when saturated."""
    u = used / rate
    return 1.0 if u >= _SATURATED else u


def _utilization_root(rate: float, other: float, terms: list[tuple[int, LoadCap]]) -> float:
    """The utilization ``u`` in [0, 1] of a capacity of *rate* that
    carries *other* bytes/ns plus ``n`` flows at ``cap.at(u)`` for each
    ``(n, cap)`` in *terms*; 1.0 when even the caps at full load
    saturate it.

    When every cap shares one curve ``lat(u) = (a + b u) / (1 - rho u)``
    (:mod:`repro.hw.latency`), the balance ``other + M / lat(u) = u B``
    with ``M = sum(n * mlp_bytes)`` is, times ``a + b u > 0``, the
    quadratic ``(other - u B)(a + b u) + M (1 - rho u) = 0``.  It is
    positive at 0 and negative at 1, so exactly one root lies between,
    taken in the cancellation-safe form.  Caps on several curves fall
    back to :func:`_falling_root`."""

    def excess(u: float) -> float:
        total = other
        for n, cap in terms:
            total += n * cap.at(u)
        return total - u * rate

    f_full = excess(1.0)
    if f_full >= 0.0:
        return 1.0
    curve = terms[0][1].curve
    in_flight = 0.0
    for n, cap in terms:
        if cap.curve is not curve:
            return _falling_root(excess, 1.0, f_full, lambda _u, f: f == 0.0)
        in_flight += n * cap.mlp_bytes
    rho = curve.rho
    a = curve.lat_min + curve.offset_ns
    b = rho * ((curve.lat_max - curve.lat_min) / curve.norm - a)
    # quad u^2 + beta u + gamma = 0 with gamma > 0.  When q > 0 the root
    # in [0, 1] is gamma / q, the other being negative or past 1; q < 0
    # needs beta > 0, hence b > 0 and quad < 0, and the root is q / quad
    quad = -b * rate
    beta = other * b - a * rate - in_flight * rho
    gamma = other * a + in_flight
    q = -0.5 * (beta + math.copysign(math.sqrt(max(0.0, beta * beta - 4.0 * quad * gamma)), beta))
    return min(1.0, max(0.0, gamma / q if q > 0.0 else q / quad))


def _falling_root(
    f: _t.Callable[[float], float],
    u: float,
    f_u: float,
    settled: _t.Callable[[float, float], bool],
) -> float:
    """A root in [0, 1] of *f*, which falls as its argument rises, so
    ``f(0) >= 0 >= f(1)`` brackets it; the search starts from ``f(u) ==
    f_u`` and returns the last point it evaluated.  It stops once
    ``settled(u, f(u))``, or once the bracket closes (at 0 or 1 when the
    root lies at an end).

    Illinois-safeguarded regula falsi: the root stays bracketed, and
    halving the stale end's value keeps both ends moving."""
    lo, hi = 0.0, 1.0
    f_lo: float | None = None
    f_hi: float | None = None
    side = 0
    for _trial in range(200):
        if settled(u, f_u):
            break
        if f_u > 0.0:
            lo, f_lo = u, f_u
            if side > 0 and f_hi is not None:
                f_hi *= 0.5
            side = 1
        else:
            hi, f_hi = u, f_u
            if side < 0 and f_lo is not None:
                f_lo *= 0.5
            side = -1
        if hi - lo <= 4.0 * math.ulp(hi):
            break
        if f_lo is None:
            u = lo
        elif f_hi is None:
            u = hi
        else:
            u = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            if not lo < u < hi:
                u = 0.5 * (lo + hi)
        f_u = f(u)
    return u


def _solve_linear(columns: list[list[float]], rhs: list[float]) -> list[float] | None:
    """Solve ``A x = rhs`` for the square matrix given by its *columns*,
    by Gaussian elimination with partial pivoting; None if singular."""
    n = len(rhs)
    rows = [[columns[j][i] for j in range(n)] + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda i: abs(rows[i][col]))
        if rows[pivot][col] == 0.0:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(col + 1, n):
            factor = rows[i][col] / rows[col][col]
            for j in range(col, n + 1):
                rows[i][j] -= factor * rows[col][j]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        x[i] = (rows[i][n] - sum(rows[i][j] * x[j] for j in range(i + 1, n))) / rows[i][i]
    return x
