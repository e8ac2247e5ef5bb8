"""Spec 3: admission control — grant / queue / reject against quotas.

This spec is the tightest adapter seam of the four: its next-state
function calls the **production**
:meth:`~repro.cluster.admission.AdmissionController.decide` (a pure
function over explicit inputs) on a :class:`TenantState` reconstructed
from the abstract configuration, then mirrors the
:class:`~repro.cluster.manager.PoolManager` grant / park / reject /
head-of-line service machinery around the verdict.  One capacity unit
stands for one extent; the replay adapter scales by the real extent and
burns the pool down with pinned ballast so concrete free capacity
matches the model's unit ledger byte for byte.

Checked invariants:

* **no-overcommit** — granted units never exceed capacity; free never
  goes negative; per-tenant usage equals the grants held.
* **quota bound** — no tenant is granted past its quota.
* **no lost wakeup** — whenever the system is quiescent, a waiter at
  the head of the queue does not fit (``head.size > free``); a fitting
  head would mean a release forgot to service the queue.
* **queue well-formed** — sorted by (priority, arrival), within the
  depth bound, and free of revoked waiters.

Terminal states additionally satisfy **no stranded waiter** (the queue
drains).  All actions consume a bounded budget, so the reachable graph
is a DAG and no liveness search is needed.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.check.model.replay import ReplayRecorder, ReplayResult
from repro.check.model.spec import Action, Invariant, ModelSpec, State
from repro.cluster.admission import AdmissionController, Decision
from repro.cluster.tenants import PriorityClass, TenantSpec, TenantState
from repro.errors import (
    AdmissionError,
    ModelCheckError,
    QuotaExceededError,
    TenantRevokedError,
)

#: waiter tuple: (-priority, arrival seq, tenant, size) — the sort key
#: mirrors the manager's ``_Waiter.order``
Waiter = tuple[int, int, int, int]


@dataclasses.dataclass(frozen=True)
class AdmissionModelState:
    """Canonical admission-control configuration (sizes in units)."""

    free: int
    used: tuple[int, ...]
    #: per tenant: sorted multiset of granted sizes
    grants: tuple[tuple[int, ...], ...]
    revoked: tuple[bool, ...]
    queue: tuple[Waiter, ...]
    seq: int
    #: per tenant: requests it may still issue
    budget: tuple[int, ...]
    revokes_left: int


class AdmissionSpec(ModelSpec):
    """Model of request / release / revoke around the real ``decide``."""

    name = "admission"
    description = "admission control: overcommit, quota, lost wakeups"

    #: mutant hooks — the base spec mirrors the implementation
    enforce_quota: _t.ClassVar[bool] = True
    service_queue_on_release: _t.ClassVar[bool] = True

    def __init__(
        self,
        capacity: int = 3,
        quota: int = 2,
        request_budget: int = 2,
        max_queue_depth: int = 1,
        revoke_budget: int = 1,
        priorities: tuple[PriorityClass, ...] = (
            PriorityClass.GUARANTEED,
            PriorityClass.STANDARD,
        ),
        sizes: tuple[int, ...] = (1, 2),
    ) -> None:
        if min(capacity, quota, request_budget) < 1 or min(sizes) < 1:
            raise ModelCheckError("admission scope parameters must be positive")
        self.capacity = capacity
        self.quota = quota
        self.request_budget = request_budget
        self.max_queue_depth = max_queue_depth
        self.revoke_budget = revoke_budget
        self.priorities = priorities
        self.sizes = sizes
        self.tenants = len(priorities)
        self.controller = AdmissionController(max_queue_depth=max_queue_depth)

    @classmethod
    def at_scope(cls, scope: str) -> "AdmissionSpec":
        if scope == "smoke":
            return cls()
        if scope == "deep":
            return cls(request_budget=3, max_queue_depth=2, revoke_budget=2)
        raise ModelCheckError(f"unknown scope {scope!r} (known: smoke, deep)")

    # -- the real decision function on abstract state -------------------------

    def _tenant_state(self, s: AdmissionModelState, tenant: int) -> TenantState:
        spec = TenantSpec(
            tenant_id=f"t{tenant}",
            home_server=0,
            quota_bytes=self.quota,
            priority=self.priorities[tenant],
        )
        state = TenantState(spec)
        state.used_bytes = s.used[tenant]
        if s.revoked[tenant]:
            state.revoked = True
            state.revoke_reason = "modeled revocation"
        return state

    def _decide(self, s: AdmissionModelState, tenant: int, size: int) -> Decision:
        verdict = self.controller.decide(
            self._tenant_state(s, tenant), size, s.free, len(s.queue)
        )
        decision = verdict.decision
        if decision is Decision.REJECT_QUOTA and not self.enforce_quota:
            # mutant hook: an admission policy that forgets the quota check
            if size <= s.free:
                decision = Decision.GRANT
            elif (
                self.priorities[tenant].may_queue
                and len(s.queue) < self.max_queue_depth
            ):
                decision = Decision.QUEUE
            else:
                decision = Decision.REJECT_CAPACITY
        return decision

    # -- the state machine ---------------------------------------------------

    def initial_states(self) -> _t.Sequence[State]:
        n = self.tenants
        return [
            AdmissionModelState(
                free=self.capacity,
                used=(0,) * n,
                grants=((),) * n,
                revoked=(False,) * n,
                queue=(),
                seq=0,
                budget=(self.request_budget,) * n,
                revokes_left=self.revoke_budget,
            )
        ]

    def enabled(self, state: State) -> _t.Sequence[Action]:
        s = _t.cast(AdmissionModelState, state)
        actions: list[Action] = []
        for tenant in range(self.tenants):
            if s.budget[tenant] > 0:
                for size in self.sizes:
                    actions.append(Action("request", (tenant, size)))
            for size in sorted(set(s.grants[tenant])):
                actions.append(Action("release", (tenant, size)))
            if not s.revoked[tenant] and s.revokes_left > 0:
                actions.append(Action("revoke", (tenant,)))
        return actions

    def apply(self, state: State, action: Action) -> State:
        s = _t.cast(AdmissionModelState, state)
        if action.kind == "request":
            return self._apply_request(s, int(action.payload[0]), int(action.payload[1]))
        if action.kind == "release":
            return self._apply_release(s, int(action.payload[0]), int(action.payload[1]))
        if action.kind == "revoke":
            return self._apply_revoke(s, int(action.payload[0]))
        raise ModelCheckError(f"admission: unknown action {action.render()}")

    def _apply_request(
        self, s: AdmissionModelState, tenant: int, size: int
    ) -> AdmissionModelState:
        s = dataclasses.replace(s, budget=_bump(s.budget, tenant, -1))
        decision = self._decide(s, tenant, size)
        if decision is Decision.GRANT:
            return dataclasses.replace(
                s,
                free=s.free - size,
                used=_bump(s.used, tenant, size),
                grants=_grant(s.grants, tenant, size),
            )
        if decision is Decision.QUEUE:
            waiter: Waiter = (-int(self.priorities[tenant]), s.seq, tenant, size)
            return dataclasses.replace(
                s, queue=tuple(sorted(s.queue + (waiter,))), seq=s.seq + 1
            )
        return s  # a rejection leaves the ledger untouched

    def _apply_release(
        self, s: AdmissionModelState, tenant: int, size: int
    ) -> AdmissionModelState:
        s = dataclasses.replace(
            s,
            free=s.free + size,
            used=_bump(s.used, tenant, -size),
            grants=_ungrant(s.grants, tenant, size),
        )
        if self.service_queue_on_release:
            s = self._service(s)  # the wakeup a release owes the queue
        return s

    def _apply_revoke(self, s: AdmissionModelState, tenant: int) -> AdmissionModelState:
        reclaimed = sum(s.grants[tenant])
        s = dataclasses.replace(
            s,
            free=s.free + reclaimed,
            used=_bump(s.used, tenant, -s.used[tenant]),
            grants=tuple(
                () if i == tenant else row for i, row in enumerate(s.grants)
            ),
            revoked=tuple(
                True if i == tenant else flag for i, flag in enumerate(s.revoked)
            ),
            queue=tuple(w for w in s.queue if w[2] != tenant),
            revokes_left=s.revokes_left - 1,
        )
        return self._service(s)

    def _service(self, s: AdmissionModelState) -> AdmissionModelState:
        """Mirror of ``PoolManager._service_queue``: head-of-line, pop
        revoked waiters, fail over-quota heads, stop when the head does
        not fit."""
        queue = list(s.queue)
        free = s.free
        used = list(s.used)
        grants = [list(row) for row in s.grants]
        while queue:
            _prio, _seq, tenant, size = queue[0]
            if s.revoked[tenant]:
                queue.pop(0)
                continue
            if size > free:
                break
            queue.pop(0)
            if size > self.quota - used[tenant]:
                continue  # _grant raises QuotaExceededError; the waiter fails
            free -= size
            used[tenant] += size
            grants[tenant] = sorted(grants[tenant] + [size])
        return dataclasses.replace(
            s,
            queue=tuple(queue),
            free=free,
            used=tuple(used),
            grants=tuple(tuple(row) for row in grants),
        )

    # -- properties ----------------------------------------------------------

    def invariants(self) -> _t.Sequence[Invariant]:
        return (
            Invariant("no-overcommit", self._check_conservation),
            Invariant("quota-bound", self._check_quota),
            Invariant("no-lost-wakeup", self._check_wakeup),
            Invariant("queue-well-formed", self._check_queue),
        )

    def _check_conservation(self, state: State) -> str | None:
        s = _t.cast(AdmissionModelState, state)
        if s.free < 0:
            return f"free capacity is negative ({s.free})"
        if s.free + sum(s.used) != self.capacity:
            return (
                f"{sum(s.used)} unit(s) granted with {s.free} free on a "
                f"{self.capacity}-unit pool — capacity overcommitted or leaked"
            )
        for tenant in range(self.tenants):
            if s.used[tenant] != sum(s.grants[tenant]):
                return (
                    f"tenant {tenant}: ledger {s.used[tenant]} != grants "
                    f"{sum(s.grants[tenant])}"
                )
        return None

    def _check_quota(self, state: State) -> str | None:
        s = _t.cast(AdmissionModelState, state)
        for tenant in range(self.tenants):
            if s.used[tenant] > self.quota:
                return (
                    f"tenant {tenant} granted {s.used[tenant]} unit(s), "
                    f"quota is {self.quota}"
                )
        return None

    def _check_wakeup(self, state: State) -> str | None:
        s = _t.cast(AdmissionModelState, state)
        if s.queue and s.queue[0][3] <= s.free:
            _prio, _seq, tenant, size = s.queue[0]
            return (
                f"waiter (tenant {tenant}, {size} unit(s)) fits in {s.free} "
                "free unit(s) but was never woken — lost wakeup"
            )
        return None

    def _check_queue(self, state: State) -> str | None:
        s = _t.cast(AdmissionModelState, state)
        if list(s.queue) != sorted(s.queue):
            return "queue is not in (priority, arrival) order"
        if len(s.queue) > self.max_queue_depth:
            return f"queue depth {len(s.queue)} exceeds bound {self.max_queue_depth}"
        for _prio, _seq, tenant, _size in s.queue:
            if s.revoked[tenant]:
                return f"revoked tenant {tenant} still has a queued waiter"
        return None

    def final_invariants(self) -> _t.Sequence[Invariant]:
        def no_stranded_waiter(state: State) -> str | None:
            s = _t.cast(AdmissionModelState, state)
            if s.queue:
                return f"{len(s.queue)} waiter(s) stranded at termination"
            return None

        return (Invariant("no-stranded-waiter", no_stranded_waiter),)

    def describe_state(self, state: State) -> str:
        s = _t.cast(AdmissionModelState, state)
        queue = " ".join(f"(t{t},{sz}u)" for _p, _q, t, sz in s.queue)
        return (
            f"free={s.free} used={s.used} grants={s.grants} queue=[{queue}] "
            f"revoked={s.revoked} budget={s.budget}"
        )

    # -- replay through the real control plane ---------------------------------

    def replay(self, trace: _t.Sequence[Action]) -> ReplayResult:
        from repro.cluster.manager import PoolManager
        from repro.core.runtime import LmpRuntime
        from repro.mem.interleave import PinnedPlacement
        from repro.mem.layout import PageGeometry
        from repro.topology.builder import build_logical
        from repro.units import kib, mib

        extent = kib(64)
        deployment = build_logical("link0", server_count=2, server_dram_bytes=mib(2))
        runtime = LmpRuntime(
            deployment,
            geometry=PageGeometry(page_bytes=kib(16), extent_bytes=extent),
            coherent_bytes=kib(64),
            snoop_filter_lines=64,
        )
        engine = runtime.engine
        manager = PoolManager(
            runtime,
            admission=AdmissionController(max_queue_depth=self.max_queue_depth),
        )
        for tenant in range(self.tenants):
            manager.register_tenant(
                TenantSpec(
                    tenant_id=f"t{tenant}",
                    home_server=0,
                    quota_bytes=self.quota * extent,
                    priority=self.priorities[tenant],
                )
            )
        recorder = ReplayRecorder(self.name)
        # burn the pool down so exactly `capacity` extents stay free: the
        # model's unit ledger then matches concrete bytes with zero slack
        potential = runtime.pool.potential_free_by_server()
        for sid in sorted(potential):
            leave = self.capacity * extent if sid == 0 else 0
            ballast = ((potential[sid] - leave) // extent) * extent
            if ballast > 0:
                runtime.pool.allocate(
                    ballast,
                    requester_id=sid,
                    name=f"ballast{sid}",
                    placement=PinnedPlacement(sid),
                )
        slack = manager.pool_free_bytes() - self.capacity * extent
        recorder.expect(
            0 <= slack < extent,
            f"ballast left {slack}B of slack (needs [0, {extent})B)",
        )
        # replay-side ledgers: held leases per (tenant, size) and parked waiters
        held: dict[tuple[int, int], list[_t.Any]] = {}
        parked: list[tuple[int, int, _t.Any]] = []  # (tenant, size, request)
        state = _t.cast(AdmissionModelState, self.initial_states()[0])
        for action in trace:
            if action not in self.enabled(state):
                raise ModelCheckError(
                    f"admission replay: {action.render()} is not enabled in "
                    f"the model at {self.describe_state(state)}"
                )
            succ = _t.cast(AdmissionModelState, self.apply(state, action))
            if action.kind == "request":
                tenant, size = int(action.payload[0]), int(action.payload[1])
                decision = self._decide(
                    dataclasses.replace(state, budget=_bump(state.budget, tenant, -1)),
                    tenant,
                    size,
                )
                request = manager.acquire(f"t{tenant}", size * extent)
                request.defuse()  # we inspect failures ourselves
                if decision is Decision.QUEUE:
                    engine.run(None)
                    recorder.expect(
                        not request.triggered,
                        f"t{tenant} request parked in the model but "
                        "concluded in the implementation",
                    )
                    parked.append((tenant, size, request))
                elif decision is Decision.GRANT:
                    try:
                        lease = engine.run(request)
                    except (AdmissionError, TenantRevokedError) as exc:
                        recorder.mismatch(
                            f"model grants t{tenant} {size}u but the "
                            f"implementation rejected: {type(exc).__name__}"
                        )
                    else:
                        held.setdefault((tenant, size), []).append(lease)
                else:
                    self._expect_rejection(engine, request, decision, recorder)
            elif action.kind == "release":
                tenant, size = int(action.payload[0]), int(action.payload[1])
                lease = held[(tenant, size)].pop()
                manager.release(lease)
                engine.run(None)
            elif action.kind == "revoke":
                tenant = int(action.payload[0])
                manager.revoke_tenant(f"t{tenant}", reason="modeled revocation")
                engine.run(None)
            parked = self._settle_waiters(parked, succ, held, recorder)
            self._cross_check(manager, succ, recorder, extent, slack)
            recorder.commit(action)
            if recorder.steps[-1].ok is False:
                break
            state = succ
        return recorder.result()

    def _expect_rejection(
        self,
        engine: _t.Any,
        request: _t.Any,
        decision: Decision,
        recorder: ReplayRecorder,
    ) -> None:
        expected = {
            Decision.REJECT_QUOTA: QuotaExceededError,
            Decision.REJECT_REVOKED: TenantRevokedError,
            Decision.REJECT_CAPACITY: AdmissionError,
        }[decision]
        try:
            engine.run(request)
        except AdmissionError as exc:
            if decision is Decision.REJECT_CAPACITY and isinstance(
                exc, QuotaExceededError
            ):
                recorder.mismatch("capacity rejection surfaced as a quota error")
            elif not isinstance(exc, expected):
                recorder.mismatch(
                    f"rejection raised {type(exc).__name__}, model says "
                    f"{decision.value}"
                )
        except TenantRevokedError as exc:
            if not isinstance(exc, expected):
                recorder.mismatch(
                    f"rejection raised {type(exc).__name__}, model says "
                    f"{decision.value}"
                )
        else:
            recorder.mismatch(
                f"request succeeded, model says {decision.value}"
            )

    def _settle_waiters(
        self,
        parked: list[tuple[int, int, _t.Any]],
        succ: AdmissionModelState,
        held: dict[tuple[int, int], list[_t.Any]],
        recorder: ReplayRecorder,
    ) -> list[tuple[int, int, _t.Any]]:
        """Reconcile parked acquire events against the model's queue."""
        queued = [(w[2], w[3]) for w in succ.queue]
        still_parked: list[tuple[int, int, _t.Any]] = []
        for tenant, size, request in parked:
            if not request.triggered:
                if (tenant, size) in queued:
                    queued.remove((tenant, size))
                    still_parked.append((tenant, size, request))
                else:
                    recorder.mismatch(
                        f"t{tenant} waiter ({size}u) still parked; the model "
                        "has concluded it"
                    )
                continue
            if (tenant, size) in queued:
                recorder.mismatch(
                    f"t{tenant} waiter ({size}u) concluded; the model still "
                    "queues it"
                )
                continue
            if request.ok:
                held.setdefault((tenant, size), []).append(request.value)
        recorder.expect(
            not queued,
            f"model queues {queued} with no matching parked request",
        )
        return still_parked

    def _cross_check(
        self,
        manager: _t.Any,
        s: AdmissionModelState,
        recorder: ReplayRecorder,
        extent: int,
        slack: int,
    ) -> None:
        free = manager.pool_free_bytes() - slack
        recorder.expect(
            free == s.free * extent,
            f"pool has {free}B free (net of ballast), model says "
            f"{s.free * extent}B",
        )
        recorder.expect(
            manager.queue_depth == len(s.queue),
            f"queue depth {manager.queue_depth}, model says {len(s.queue)}",
        )
        for tenant in range(self.tenants):
            tid = f"t{tenant}"
            used = manager.tenant(tid).used_bytes
            recorder.expect(
                used == s.used[tenant] * extent,
                f"{tid}: ledger {used}B, model says {s.used[tenant] * extent}B",
            )
            recorder.expect(
                manager.tenant(tid).revoked == s.revoked[tenant],
                f"{tid}: revoked={manager.tenant(tid).revoked}, model says "
                f"{s.revoked[tenant]}",
            )


def _bump(row: tuple[int, ...], index: int, delta: int) -> tuple[int, ...]:
    return tuple(v + delta if i == index else v for i, v in enumerate(row))


def _grant(
    grants: tuple[tuple[int, ...], ...], tenant: int, size: int
) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(sorted(row + (size,))) if i == tenant else row
        for i, row in enumerate(grants)
    )


def _ungrant(
    grants: tuple[tuple[int, ...], ...], tenant: int, size: int
) -> tuple[tuple[int, ...], ...]:
    out = []
    for i, row in enumerate(grants):
        if i == tenant:
            items = list(row)
            items.remove(size)
            out.append(tuple(items))
        else:
            out.append(row)
    return tuple(out)
