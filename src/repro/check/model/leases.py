"""Spec 2: lease expiry at the deadline × crash-driven revocation.

Abstracts :class:`~repro.cluster.leases.LeaseTable` plus the
:class:`~repro.cluster.manager.PoolManager`'s expiry heap
(:meth:`~repro.cluster.manager.PoolManager.expire_after`, the one lease
expiry the S1 open loop runs) and the detector-driven revocation path.
Time is a bounded integer clock: a grant is an acquire whose lease is
handed to ``expire_after(ttl)``, and each ``tick`` advances the clock
and frees every lease that falls due.  Every lease footprint is one
quota unit, and each tenant keeps a *handle set* — the lease ids it
still believes it holds, which survives expiry (a zombie tenant does
not learn its lease expired).

Checked invariants:

* **no double-grant** — live lease ids are unique and below the id
  counter.
* **ledger conservation** — a tenant's charged quota equals its live
  lease count; the rack-wide sum matches the table.
* **quota bound** — usage stays within ``[0, quota]``.
* **no use-after-revoke** — a revoked (crashed) tenant holds zero
  leases and zero quota.
* **no orphan lease** — every live lease has a holder that can still
  release it.
* **no lease past its deadline** — no live lease has ``expires <= t``:
  the expiry frees every due lease at its instant, not eventually.

The replay adapter drives a real :class:`PoolManager` (``expire_after``
leases, a heartbeat :class:`FailureDetector`) with one simulated-time
tick per model tick, so deadlines land exactly where the model puts
them.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.check.model.replay import ReplayRecorder, ReplayResult
from repro.check.model.spec import Action, Invariant, ModelSpec, State
from repro.errors import ClusterError, LeaseError, ModelCheckError

#: one model tick in simulated nanoseconds (replay scale)
TICK_NS = 1000.0


@dataclasses.dataclass(frozen=True)
class LeaseModelState:
    """Canonical lease-protocol configuration."""

    t: int  # bounded integer clock
    next_id: int
    #: live table entries: (lease_id, tenant, expires_at), sorted by id
    leases: tuple[tuple[int, int, int], ...]
    #: per tenant: lease ids the tenant still believes it holds
    handles: tuple[tuple[int, ...], ...]
    #: per tenant: quota units charged (one per live lease)
    used: tuple[int, ...]
    revoked: tuple[bool, ...]
    grants_left: int


class LeaseSpec(ModelSpec):
    """Model of grant / release / tick / crash."""

    name = "leases"
    description = "lease expiry x crash revocation: double-grant, ledger, deadlines"

    def __init__(
        self,
        tenants: int = 2,
        max_leases: int = 2,
        quota: int = 2,
        ttl: int = 2,
        horizon: int = 3,
        grant_budget: int = 3,
    ) -> None:
        if min(tenants, max_leases, quota, ttl, horizon, grant_budget) < 1:
            raise ModelCheckError("lease scope parameters must be positive")
        self.tenants = tenants
        self.max_leases = max_leases
        self.quota = quota
        self.ttl = ttl
        self.horizon = horizon
        self.grant_budget = grant_budget

    @classmethod
    def at_scope(cls, scope: str) -> "LeaseSpec":
        if scope == "smoke":
            return cls(tenants=2, max_leases=2, quota=2, ttl=2, horizon=3, grant_budget=3)
        if scope == "deep":
            return cls(tenants=2, max_leases=2, quota=2, ttl=2, horizon=4, grant_budget=4)
        raise ModelCheckError(f"unknown scope {scope!r} (known: smoke, deep)")

    # -- the state machine ---------------------------------------------------

    def initial_states(self) -> _t.Sequence[State]:
        return [
            LeaseModelState(
                t=0,
                next_id=1,
                leases=(),
                handles=((),) * self.tenants,
                used=(0,) * self.tenants,
                revoked=(False,) * self.tenants,
                grants_left=self.grant_budget,
            )
        ]

    def _live_of(self, s: LeaseModelState, tenant: int) -> list[tuple[int, int, int]]:
        return [entry for entry in s.leases if entry[1] == tenant]

    def enabled(self, state: State) -> _t.Sequence[Action]:
        s = _t.cast(LeaseModelState, state)
        actions: list[Action] = []
        for tenant in range(self.tenants):
            if s.revoked[tenant]:
                continue
            if (
                s.grants_left > 0
                and len(self._live_of(s, tenant)) < self.max_leases
                and s.used[tenant] < self.quota
            ):
                actions.append(Action("grant", (tenant,)))
            for lease_id in s.handles[tenant]:
                actions.append(Action("release", (tenant, lease_id)))
        if s.t < self.horizon:
            actions.append(Action("tick"))
        for tenant in range(self.tenants):
            if not s.revoked[tenant]:
                actions.append(Action("crash", (tenant,)))
        return actions

    def apply(self, state: State, action: Action) -> State:
        s = _t.cast(LeaseModelState, state)
        if action.kind == "grant":
            return self._apply_grant(s, int(action.payload[0]))
        if action.kind == "release":
            return self._apply_release(s, int(action.payload[0]), int(action.payload[1]))
        if action.kind == "tick":
            return self._apply_tick(s)
        if action.kind == "crash":
            return self._apply_crash(s, int(action.payload[0]))
        raise ModelCheckError(f"leases: unknown action {action.render()}")

    # Mutants override the keyword defaults below; the base spec mirrors
    # LeaseTable / PoolManager exactly.

    def _apply_grant(
        self, s: LeaseModelState, tenant: int, advance_id: bool = True
    ) -> LeaseModelState:
        lease = (s.next_id, tenant, s.t + self.ttl)
        return dataclasses.replace(
            s,
            next_id=s.next_id + 1 if advance_id else s.next_id,
            leases=tuple(sorted(s.leases + (lease,))),
            handles=_add(s.handles, tenant, s.next_id),
            used=_bump(s.used, tenant, +1),
            grants_left=s.grants_left - 1,
        )

    def _apply_release(
        self, s: LeaseModelState, tenant: int, lease_id: int
    ) -> LeaseModelState:
        live = any(lid == lease_id for lid, _owner, _expires in s.leases)
        next_state = dataclasses.replace(s, handles=_drop(s.handles, tenant, lease_id))
        if not live:
            return next_state  # already expired or revoked: handle drop only
        return dataclasses.replace(
            next_state,
            leases=tuple(e for e in s.leases if e[0] != lease_id),
            used=_bump(s.used, tenant, -1),
        )

    def _apply_tick(
        self, s: LeaseModelState, free_every_due: bool = True
    ) -> LeaseModelState:
        t = s.t + 1
        due = [e for e in s.leases if e[2] <= t]
        if not free_every_due:
            due = due[:1]  # the seeded mutant: only the lowest-id due lease
        used = list(s.used)
        for _lid, tenant, _expires in due:
            used[tenant] -= 1  # freeing the buffer refunds the quota
        return dataclasses.replace(
            s,
            t=t,
            leases=tuple(e for e in s.leases if e not in due),
            used=tuple(used),
        )

    def _apply_crash(
        self, s: LeaseModelState, tenant: int, refund: bool = True
    ) -> LeaseModelState:
        survivors = tuple(e for e in s.leases if e[1] != tenant)
        used = list(s.used)
        if refund:
            used[tenant] -= len(self._live_of(s, tenant))
        handles = tuple(
            () if i == tenant else row for i, row in enumerate(s.handles)
        )
        revoked = tuple(
            True if i == tenant else flag for i, flag in enumerate(s.revoked)
        )
        return dataclasses.replace(
            s, leases=survivors, handles=handles, used=tuple(used), revoked=revoked
        )

    # -- properties ----------------------------------------------------------

    def invariants(self) -> _t.Sequence[Invariant]:
        return (
            Invariant("no-double-grant", self._check_unique_ids),
            Invariant("ledger-conservation", self._check_ledger),
            Invariant("quota-bound", self._check_quota),
            Invariant("no-use-after-revoke", self._check_revoked),
            Invariant("no-orphan-lease", self._check_orphans),
            Invariant("no-lease-past-deadline", self._check_deadlines),
        )

    def _check_unique_ids(self, state: State) -> str | None:
        s = _t.cast(LeaseModelState, state)
        ids = [lid for lid, _tenant, _expires in s.leases]
        if len(ids) != len(set(ids)):
            dupes = sorted({lid for lid in ids if ids.count(lid) > 1})
            return f"lease id(s) {dupes} granted twice — two live leases share an id"
        return None

    def _check_ledger(self, state: State) -> str | None:
        s = _t.cast(LeaseModelState, state)
        for tenant in range(self.tenants):
            live = len(self._live_of(s, tenant))
            if s.used[tenant] != live:
                return (
                    f"tenant {tenant}: ledger says {s.used[tenant]} unit(s) "
                    f"but the table holds {live} live lease(s)"
                )
        return None

    def _check_quota(self, state: State) -> str | None:
        s = _t.cast(LeaseModelState, state)
        for tenant in range(self.tenants):
            if not 0 <= s.used[tenant] <= self.quota:
                return (
                    f"tenant {tenant}: usage {s.used[tenant]} outside "
                    f"[0, {self.quota}]"
                )
        return None

    def _check_revoked(self, state: State) -> str | None:
        s = _t.cast(LeaseModelState, state)
        for tenant in range(self.tenants):
            if not s.revoked[tenant]:
                continue
            if self._live_of(s, tenant) or s.used[tenant] != 0:
                return (
                    f"tenant {tenant} is revoked but still holds "
                    f"{len(self._live_of(s, tenant))} lease(s) / "
                    f"{s.used[tenant]} quota unit(s)"
                )
        return None

    def _check_orphans(self, state: State) -> str | None:
        s = _t.cast(LeaseModelState, state)
        for lid, tenant, _expires in s.leases:
            if lid not in s.handles[tenant]:
                return f"live lease {lid} has no holder able to release it"
        return None

    def _check_deadlines(self, state: State) -> str | None:
        s = _t.cast(LeaseModelState, state)
        for lid, _tenant, expires in s.leases:
            if expires <= s.t:
                return (
                    f"lease {lid} is still live at t={s.t}, past its "
                    f"deadline {expires}"
                )
        return None

    def describe_state(self, state: State) -> str:
        s = _t.cast(LeaseModelState, state)
        leases = " ".join(
            f"L{lid}(t{tenant},exp={expires})" for lid, tenant, expires in s.leases
        )
        return (
            f"t={s.t} leases=[{leases}] used={s.used} revoked={s.revoked} "
            f"handles={s.handles} grants_left={s.grants_left}"
        )

    # -- replay through the real control plane ---------------------------------

    def replay(self, trace: _t.Sequence[Action]) -> ReplayResult:
        from repro.cluster.leases import Lease
        from repro.cluster.manager import PoolManager
        from repro.cluster.tenants import PriorityClass, TenantSpec
        from repro.core.failures.detector import FailureDetector
        from repro.core.runtime import LmpRuntime
        from repro.mem.layout import PageGeometry
        from repro.topology.builder import build_logical
        from repro.units import kib, mib

        extent = kib(64)
        deployment = build_logical(
            "link0", server_count=max(2, self.tenants), server_dram_bytes=mib(2)
        )
        runtime = LmpRuntime(
            deployment,
            geometry=PageGeometry(page_bytes=kib(16), extent_bytes=extent),
            coherent_bytes=kib(64),
            snoop_filter_lines=64,
        )
        engine = runtime.engine
        manager = PoolManager(runtime)
        # a 1 ns heartbeat keeps crash-detection skew far below one tick,
        # so deadlines land exactly where the model puts them
        detector = FailureDetector(deployment, interval=1.0, miss_threshold=1)
        manager.attach_detector(detector)
        for tenant in range(self.tenants):
            manager.register_tenant(
                TenantSpec(
                    tenant_id=f"t{tenant}",
                    home_server=tenant % len(deployment.servers),
                    quota_bytes=self.quota * extent,
                    priority=PriorityClass.BEST_EFFORT,
                )
            )
        recorder = ReplayRecorder(self.name)
        lease_map: dict[int, Lease] = {}
        state = _t.cast(LeaseModelState, self.initial_states()[0])
        for action in trace:
            if action not in self.enabled(state):
                raise ModelCheckError(
                    f"lease replay: {action.render()} is not enabled in the "
                    f"model at {self.describe_state(state)}"
                )
            succ = _t.cast(LeaseModelState, self.apply(state, action))
            if action.kind == "grant":
                tenant = int(action.payload[0])
                try:
                    lease = engine.run(manager.acquire(f"t{tenant}", extent))
                except ClusterError as exc:
                    recorder.mismatch(
                        f"model grants t{tenant} but the implementation "
                        f"rejected: {type(exc).__name__}"
                    )
                else:
                    manager.expire_after(lease, self.ttl * TICK_NS)
                    lease_map[lease.lease_id] = lease
                    recorder.expect(
                        lease.lease_id == state.next_id,
                        f"granted lease id {lease.lease_id}, model expected "
                        f"{state.next_id}",
                    )
            elif action.kind == "release":
                lease_id = int(action.payload[1])
                live = any(lid == lease_id for lid, _o, _e in state.leases)
                try:
                    manager.release(lease_map[lease_id])
                    recorder.expect(
                        live, "release of a dead lease succeeded; model says dead"
                    )
                except LeaseError:
                    recorder.expect(
                        not live, "release raised LeaseError on a live lease"
                    )
            elif action.kind == "tick":
                freed_model = len(state.leases) - len(succ.leases)
                expired = manager.expired
                engine.run(engine.now + TICK_NS)
                recorder.expect(
                    manager.expired - expired == freed_model,
                    f"expiry freed {manager.expired - expired} lease(s), model "
                    f"expected {freed_model}",
                )
            elif action.kind == "crash":
                tenant = int(action.payload[0])
                home = manager.tenant(f"t{tenant}").spec.home_server
                deployment.server(home).crash()
                engine.run(detector.monitor(3.0))
                recorder.expect(
                    manager.tenant(f"t{tenant}").revoked,
                    f"tenant t{tenant} not revoked after its home crashed",
                )
            self._cross_check(manager, succ, recorder, extent)
            recorder.commit(action)
            if recorder.steps[-1].ok is False:
                break
            state = succ
        return recorder.result()

    def _cross_check(
        self,
        manager: _t.Any,
        s: LeaseModelState,
        recorder: ReplayRecorder,
        extent: int,
    ) -> None:
        for tenant in range(self.tenants):
            tid = f"t{tenant}"
            concrete_ids = tuple(manager.tenant(tid).leases)
            expected_ids = tuple(lid for lid, owner, _e in s.leases if owner == tenant)
            recorder.expect(
                concrete_ids == expected_ids,
                f"{tid}: live leases {concrete_ids}, model says {expected_ids}",
            )
            used = manager.tenant(tid).used_bytes
            recorder.expect(
                used == s.used[tenant] * extent,
                f"{tid}: ledger holds {used}B, model says "
                f"{s.used[tenant] * extent}B",
            )
            recorder.expect(
                manager.tenant(tid).revoked == s.revoked[tenant],
                f"{tid}: revoked={manager.tenant(tid).revoked}, model says "
                f"{s.revoked[tenant]}",
            )
        live_bytes = manager.leases.live_bytes()
        recorder.expect(
            live_bytes == sum(s.used) * extent,
            f"table live_bytes {live_bytes}, model says {sum(s.used) * extent}",
        )


def _add(
    handles: tuple[tuple[int, ...], ...], tenant: int, lease_id: int
) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(sorted(row + (lease_id,))) if i == tenant else row
        for i, row in enumerate(handles)
    )


def _drop(
    handles: tuple[tuple[int, ...], ...], tenant: int, lease_id: int
) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(lid for lid in row if lid != lease_id) if i == tenant else row
        for i, row in enumerate(handles)
    )


def _bump(used: tuple[int, ...], tenant: int, delta: int) -> tuple[int, ...]:
    return tuple(
        count + delta if i == tenant else count for i, count in enumerate(used)
    )
