"""The PoolManager: a rack's capacity control plane.

One :class:`PoolManager` process owns the rack-wide view of every
server's shared region and mediates *all* cross-server allocation:

* tenants are registered with quotas and priority classes
  (:mod:`repro.cluster.tenants`),
* requests pass admission control (:mod:`repro.cluster.admission`) and
  either grant immediately, wait in a priority queue for capacity, or
  are rejected,
* grants are placed by a pluggable scheduler
  (:mod:`repro.cluster.placement`) and held under leases
  (:mod:`repro.cluster.leases`), which the manager frees at the
  deadline :meth:`PoolManager.expire_after` sets,
* a :class:`~repro.core.failures.detector.FailureDetector` callback
  revokes a crashed server's tenants, reclaiming every frame they held
  — which the :class:`~repro.check.sanitizers.AllocSanitizer`'s shadow
  frame tracking can prove leak-free.

All bookkeeping iterates sorted structures, so a cluster run is
trace-deterministic and sits behind the PR-1 ``repro check`` gate like
every other scenario.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import typing as _t

from repro.cluster.admission import AdmissionController, Decision
from repro.cluster.leases import Lease, LeaseTable
from repro.cluster.placement import make_policy
from repro.cluster.tenants import TenantSpec, TenantState
from repro.core.api import LmpSession, SessionObserver
from repro.core.buffer import Buffer
from repro.core.runtime import LmpRuntime
from repro.errors import (
    AdmissionError,
    CapacityError,
    ClusterError,
    ConfigError,
    QuotaExceededError,
    TenantRevokedError,
)
from repro.mem.interleave import PlacementPolicy
from repro.sim.events import Event, lazy_event
from repro.sim.stats import StatSet

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.failures.detector import Detection, FailureDetector
    from repro.sim.events import Timeout
    from repro.sim.process import Process


@dataclasses.dataclass(frozen=True)
class ReclaimReport:
    """What revoking one tenant gave back to the rack."""

    tenant_id: str
    reason: str
    leases_revoked: int
    bytes_reclaimed: int
    frames_reclaimed: int
    queued_requests_failed: int


@dataclasses.dataclass(frozen=True)
class ReflexReport:
    """One explicit private/shared re-flex of a server (§4.5).

    Growing is free (the boundary just moves); shrinking under live
    allocations charges honest migration costs — ``bytes_evacuated``
    extents left through :class:`~repro.core.migration.PressureEvictor`
    and paid for their copies in simulated time."""

    server_id: int
    target_shared_bytes: int
    shared_before: int
    shared_after: int
    bytes_evacuated: int
    extents_evacuated: int
    #: local compaction copies that unblocked the shrink (same-server)
    bytes_relocated: int = 0


@dataclasses.dataclass
class _Waiter:
    """One queued admission request."""

    order: tuple[int, int]  # (-priority, arrival seq): smaller = served first
    tenant_id: str
    size: int
    footprint: int
    name: str
    event: Event  # succeeded with the Lease (or failed)
    enqueued_at: float
    #: the obs span running at the call, charged the queueing time
    span: _t.Any = None


class _TenantObserver(SessionObserver):
    """Session hooks charging the ledger and registering leases.

    Installed on every session the manager opens, so even direct
    ``session.alloc`` calls (bypassing the admission queue) are metered
    and leased — quota cannot be sidestepped.
    """

    def __init__(self, manager: "PoolManager", tenant: TenantState) -> None:
        self.manager = manager
        self.tenant = tenant

    def before_alloc(self, session: LmpSession, size: int) -> None:
        if self.tenant.revoked:
            raise TenantRevokedError(
                f"tenant {self.tenant.tenant_id} is revoked: {self.tenant.revoke_reason}"
            )
        footprint = self.manager.footprint(size)
        if footprint > self.tenant.quota_remaining:
            self.tenant.rejected_quota += 1
            self.manager.stats.counter("rejected.quota").add()
            raise QuotaExceededError(
                f"tenant {self.tenant.tenant_id}: {footprint}B footprint exceeds "
                f"remaining quota {self.tenant.quota_remaining}B"
            )

    def on_alloc(self, session: LmpSession, buffer: Buffer) -> None:
        manager = self.manager
        footprint = manager.footprint(buffer.size)
        self.tenant.charge(footprint)
        lease = manager.leases.grant(
            self.tenant.tenant_id, buffer, footprint, now=manager.engine.now
        )
        self.tenant.leases[lease.lease_id] = lease
        self.tenant.granted += 1
        manager.stats.counter("granted").add()

    def on_free(self, session: LmpSession, buffer: Buffer) -> None:
        manager = self.manager
        lease = manager.leases.find_by_buffer(buffer)
        if lease is None:
            return  # buffer was never leased (freed twice is caught by the pool)
        manager.leases.release(lease)
        self.tenant.leases.pop(lease.lease_id, None)
        self.tenant.refund(lease.footprint_bytes)
        if not manager._defer_service:
            manager._service_queue()


class PoolManager:
    """Admission + placement + leases over one :class:`LmpRuntime`."""

    #: installed by repro.obs.Observability: charges admission queueing
    #: time to the latency categories of the span that was running when
    #: the request queued.
    _obs: _t.ClassVar[_t.Any] = None

    def __init__(
        self,
        runtime: LmpRuntime,
        policy: str | PlacementPolicy = "first-fit",
        admission: AdmissionController | None = None,
    ) -> None:
        self.runtime = runtime
        self.engine = runtime.engine
        self.pool = runtime.pool
        self.policy = make_policy(policy)
        # the scheduler decides placement for every grant the rack makes
        self.pool.placement = self.policy
        self.admission = admission or AdmissionController()
        self.leases = LeaseTable()
        self.tenants: dict[str, TenantState] = {}
        self.stats = StatSet("cluster")
        self._queue: list[_Waiter] = []
        self._arrivals = 0
        #: batching flag: while True, frees skip the per-free admission
        #: wake-up; the batch caller runs one queue pass at the end
        self._defer_service = False
        self.reclaim_reports: list[ReclaimReport] = []
        #: leases waiting to expire: (due, push seq, lease), a min-heap
        self._expiries: list[tuple[float, int, Lease]] = []
        self._expiry_seq = 0
        #: the one armed expiry timer and the instant it fires at
        self._timer: "Timeout | None" = None
        self._timer_due = math.inf
        #: called once, the next time no lease waits to expire
        self._expiry_idle: list[_t.Callable[[], None]] = []
        #: leases freed at their deadline
        self.expired = 0

    # -- tenant lifecycle ----------------------------------------------------

    def register_tenant(self, spec: TenantSpec) -> TenantState:
        if spec.tenant_id in self.tenants:
            raise ConfigError(f"tenant {spec.tenant_id!r} is already registered")
        if spec.home_server not in self.pool.regions:
            raise ConfigError(
                f"tenant {spec.tenant_id!r}: home server {spec.home_server} "
                "is not part of this pool"
            )
        tenant = TenantState(spec)
        self.tenants[spec.tenant_id] = tenant
        return tenant

    def tenant(self, tenant_id: str) -> TenantState:
        try:
            return self.tenants[tenant_id]
        except KeyError:
            raise ConfigError(f"unknown tenant {tenant_id!r}") from None

    def open_session(self, tenant_id: str, server_id: int | None = None) -> LmpSession:
        """Open a metered session for *tenant_id* (default: its home)."""
        tenant = self.tenant(tenant_id)
        session = LmpSession(
            self.runtime,
            tenant.spec.home_server if server_id is None else server_id,
            observer=_TenantObserver(self, tenant),
        )
        tenant.sessions.append(session)
        self.stats.counter("sessions.opened").add()
        return session

    # -- capacity accounting -------------------------------------------------

    def footprint(self, size: int) -> int:
        """Extent-granular bytes a grant of *size* costs the rack."""
        extent = self.pool.geometry.extent_bytes
        return -(-size // extent) * extent

    def pool_free_bytes(self) -> int:
        """Capacity placement could still use: free shared plus private
        memory live servers can flex into the pool (§4.5)."""
        return self.pool.potential_free_bytes

    # -- the allocation path -------------------------------------------------

    def acquire(self, tenant_id: str, size: int, name: str = "") -> Event:
        """Request *size* bytes under a lease, decided at the call.

        Returns an event that a process yields (or ``engine.run`` runs):
        already succeeded with the :class:`Lease` on a grant, already
        failed with an :class:`AdmissionError` subclass on a rejection
        (placement refusing what admission granted included), or the waiter's
        pending event on a queue, which :meth:`_service_queue` later
        succeeds or fails."""
        tenant = self.tenant(tenant_id)
        footprint = self.footprint(size)
        verdict = self.admission.decide(
            tenant, footprint, self.pool_free_bytes(), len(self._queue)
        )
        if verdict.decision is Decision.QUEUE:
            tenant.queued += 1
            self.stats.counter("queued").add()
            self._arrivals += 1
            obs = PoolManager._obs
            waiter = _Waiter(
                order=(-int(tenant.spec.priority), self._arrivals),
                tenant_id=tenant_id,
                size=size,
                footprint=footprint,
                name=name,
                event=self.engine.event(f"admission.wait.{tenant_id}"),
                enqueued_at=self.engine.now,
                span=obs.running_span() if obs is not None else None,
            )
            self._queue.append(waiter)
            self._queue.sort(key=lambda w: w.order)
            return waiter.event
        event = lazy_event(self.engine, "acquire", tenant_id)
        if verdict.decision is Decision.GRANT:
            try:
                lease = self._grant(tenant, size, name)
            except ClusterError as exc:
                return event.fail(exc)
            self.stats.histogram("wait_ns").record(0.0)
            return event.succeed(lease)
        # a rejection: count it under the right reason and fail the event
        if verdict.decision is Decision.REJECT_QUOTA:
            tenant.rejected_quota += 1
            self.stats.counter("rejected.quota").add()
            return event.fail(QuotaExceededError(verdict.reason))
        if verdict.decision is Decision.REJECT_REVOKED:
            tenant.rejected_revoked += 1
            return event.fail(TenantRevokedError(verdict.reason))
        tenant.rejected_capacity += 1
        self.stats.counter("rejected.capacity").add()
        return event.fail(AdmissionError(f"tenant {tenant_id}: {verdict.reason}"))

    def _grant(self, tenant: TenantState, size: int, name: str) -> Lease:
        """Allocate through the tenant's control session; the observer
        charges the quota and registers the lease."""
        session = self._control_session(tenant)
        try:
            buffer = session.alloc(size, name=name or f"{tenant.tenant_id}.lease")
        except QuotaExceededError:
            raise
        except CapacityError as exc:
            # admission granted on pool-wide free bytes, but placement
            # needs whole free extents per server: free space scattered
            # in sub-extent pieces passes the one and fails the other
            tenant.rejected_capacity += 1
            self.stats.counter("rejected.capacity").add()
            raise AdmissionError(f"tenant {tenant.tenant_id}: {exc}") from exc
        lease = self.leases.find_by_buffer(buffer)
        assert lease is not None  # the observer just granted it
        return lease

    def _control_session(self, tenant: TenantState) -> LmpSession:
        if not tenant.sessions:
            self.open_session(tenant.tenant_id)
        return tenant.sessions[0]

    def release(self, lease: Lease) -> None:
        """Give a lease's memory back and wake queued requests."""
        self.leases.lookup(lease.lease_id)  # raises LeaseError if dead
        tenant = self.tenant(lease.tenant_id)
        self._control_session(tenant).free(lease.buffer)

    def release_many(self, leases: _t.Iterable[Lease]) -> int:
        """Release a batch of leases with a single admission wake-up.

        The per-free queue pass is what makes bulk expiry O(batch x
        queue) at 10k-tenant scale; deferring it to one pass at the end
        keeps batched reclamation linear.  Leases already dead (released,
        revoked) are skipped.  Returns the number actually released."""
        released = 0
        self._defer_service = True
        try:
            for lease in leases:
                if not self.leases.is_live(lease.lease_id):
                    continue
                self.release(lease)
                released += 1
        finally:
            self._defer_service = False
        self._service_queue()
        return released

    # -- the re-flex seam (§4.5) ----------------------------------------------

    def reflex(self, server_id: int, target_shared_bytes: int) -> "Process":
        """Re-flex one server's private/shared split toward
        *target_shared_bytes* of shared memory; the process returns a
        :class:`ReflexReport`.

        This is the control-plane seam an autoscaler drives: growing
        converts private headroom instantly, shrinking evacuates live
        extents through the runtime's
        :class:`~repro.core.migration.PressureEvictor` first (honest
        migration costs, data stays addressable).  Either way the
        admission queue is serviced afterwards, so capacity freed by a
        grow reaches queued requests without a racing free."""
        if server_id not in self.pool.regions:
            raise ConfigError(f"no server {server_id} in this pool")
        return self.engine.process(
            self._reflex_body(server_id, target_shared_bytes),
            name=f"reflex.s{server_id}",
        )

    def _reflex_body(
        self, server_id: int, target_shared_bytes: int
    ) -> _t.Generator[_t.Any, _t.Any, ReflexReport]:
        region = self.pool.regions[server_id]
        before = region.shared_bytes
        bytes_evacuated = 0
        extents_evacuated = 0
        bytes_relocated = 0
        if target_shared_bytes >= before:
            region.set_shared_target(target_shared_bytes)
        else:
            reclaim = yield self.runtime.reclaim_private(
                server_id, before - target_shared_bytes
            )
            bytes_evacuated = reclaim.bytes_evacuated
            extents_evacuated = reclaim.extents_evacuated
            bytes_relocated = reclaim.bytes_relocated
        after = region.shared_bytes
        self.stats.counter("reflex.events").add()
        if after >= before:
            self.stats.counter("reflex.grown_bytes").add(after - before)
        else:
            self.stats.counter("reflex.shrunk_bytes").add(before - after)
        self.stats.counter("reflex.bytes_evacuated").add(bytes_evacuated)
        self.stats.counter("reflex.bytes_relocated").add(bytes_relocated)
        self._service_queue()
        return ReflexReport(
            server_id=server_id,
            target_shared_bytes=target_shared_bytes,
            shared_before=before,
            shared_after=after,
            bytes_evacuated=bytes_evacuated,
            extents_evacuated=extents_evacuated,
            bytes_relocated=bytes_relocated,
        )

    def _service_queue(self) -> None:
        """Grant queued requests, highest priority first, while the head
        of the queue fits (no skipping: head-of-line within a priority
        keeps the policy starvation-free)."""
        while self._queue:
            waiter = self._queue[0]
            tenant = self.tenant(waiter.tenant_id)
            if tenant.revoked:
                self._queue.pop(0)
                tenant.rejected_revoked += 1
                waiter.event.fail(
                    TenantRevokedError(
                        f"tenant {waiter.tenant_id} revoked while queued"
                    )
                )
                continue
            if waiter.footprint > self.pool_free_bytes():
                return
            self._queue.pop(0)
            try:
                lease = self._grant(tenant, waiter.size, waiter.name)
            except ClusterError as exc:
                waiter.event.fail(exc)
                continue
            waited = self.engine.now - waiter.enqueued_at
            self.stats.histogram("wait_ns").record(waited)
            obs = PoolManager._obs
            if obs is not None and waiter.span is not None:
                obs.add("cat_queue_ns", waited, waiter.span)
            waiter.event.succeed(lease)

    def fail_all_queued(self, reason: str = "admission queue drained") -> int:
        """Fail every queued request (end-of-run drain for open-loop
        drivers); each counts as a capacity rejection.  Returns the
        number of waiters failed."""
        failed = 0
        while self._queue:
            waiter = self._queue.pop(0)
            tenant = self.tenant(waiter.tenant_id)
            tenant.rejected_capacity += 1
            self.stats.counter("rejected.capacity").add()
            waiter.event.fail(
                AdmissionError(f"tenant {waiter.tenant_id}: {reason}")
            )
            failed += 1
        return failed

    # -- revocation and failure handling --------------------------------------

    def revoke_tenant(self, tenant_id: str, reason: str = "revoked") -> ReclaimReport:
        """Revoke every lease of *tenant_id* and reclaim its frames.

        Safe against a crashed home server: freeing walks the page
        tables and region managers, which survive the host's death.
        Like :meth:`release_many`, the frees skip their admission
        wake-ups, and one queue pass at the end serves the waiters.
        """
        tenant = self.tenant(tenant_id)
        tenant.revoked = True
        tenant.revoke_reason = reason
        page_bytes = self.pool.geometry.page_bytes
        leases = list(tenant.leases.values())  # grant order; frees shrink it
        bytes_reclaimed = 0
        self._defer_service = True
        try:
            for lease in leases:
                bytes_reclaimed += lease.footprint_bytes
                self._control_session(tenant).free(lease.buffer)
        finally:
            self._defer_service = False
        failed = 0
        for waiter in [w for w in self._queue if w.tenant_id == tenant_id]:
            self._queue.remove(waiter)
            tenant.rejected_revoked += 1
            waiter.event.fail(TenantRevokedError(f"tenant {tenant_id}: {reason}"))
            failed += 1
        report = ReclaimReport(
            tenant_id=tenant_id,
            reason=reason,
            leases_revoked=len(leases),
            bytes_reclaimed=bytes_reclaimed,
            frames_reclaimed=bytes_reclaimed // page_bytes,
            queued_requests_failed=failed,
        )
        self.reclaim_reports.append(report)
        self.stats.counter("leases.revoked").add(len(leases))
        self._service_queue()
        return report

    def attach_detector(self, detector: "FailureDetector") -> None:
        """Revoke a crashed server's tenants the moment the heartbeat
        monitor confirms the failure."""
        detector.on_failure(self._on_server_failure)

    def _on_server_failure(self, detection: "Detection") -> None:
        for tenant_id in sorted(self.tenants):
            tenant = self.tenants[tenant_id]
            if tenant.spec.home_server == detection.server_id and not tenant.revoked:
                self.revoke_tenant(
                    tenant_id, reason=f"home server {detection.server_id} crashed"
                )

    # -- lease expiry --------------------------------------------------------

    def expire_after(self, lease: Lease, delay_ns: float) -> None:
        """Free *lease* *delay_ns* from now, at ``lease.expires_at``.

        Expiry costs no process: due leases wait on one heap, one engine
        timeout is armed for its head, and that timeout's callback frees
        every lease due at its instant through :meth:`release_many`, so
        a thousand simultaneous expiries cost one admission-queue pass.
        A lease falling due before the armed instant re-arms the timer;
        a superseded timer is ignored when it fires.  A lease released
        or revoked before its deadline is skipped when it falls due."""
        due = self.engine.now + delay_ns
        lease.expires_at = due
        self._expiry_seq += 1
        heapq.heappush(self._expiries, (due, self._expiry_seq, lease))
        if due < self._timer_due:
            self._arm(due)

    def when_no_expiry_pending(self, callback: _t.Callable[[], None]) -> None:
        """Call *callback* once no lease waits to expire: at once if none
        does, else right after the last one due is freed."""
        if self._expiries:
            self._expiry_idle.append(callback)
        else:
            callback()

    def _arm(self, due: float) -> None:
        engine = self.engine
        timer = engine.timeout(due - engine.now)
        timer.callbacks.append(self._expire)
        self._timer = timer
        self._timer_due = due

    def _expire(self, timer: Event) -> None:
        if timer is not self._timer:
            return  # superseded by an earlier-due lease's timer
        heap = self._expiries
        now = self.engine.now
        # now + (due - now) can round to one ulp short of due; then the
        # head is not due yet and the timer is simply re-armed for it
        if heap[0][0] <= now:
            batch: list[Lease] = []
            while heap and heap[0][0] <= now:
                batch.append(heapq.heappop(heap)[2])
            self.expired += self.release_many(batch)
        if heap:
            self._arm(heap[0][0])
        else:
            self._timer = None
            self._timer_due = math.inf
            idle, self._expiry_idle = self._expiry_idle, []
            for callback in idle:
                callback()

    # -- reporting -----------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def rejection_rate(self) -> float:
        """Refused requests / all concluded requests, from the tenant
        ledger: quota, capacity and revoked refusals alike."""
        granted = rejected = 0
        for tenant in self.tenants.values():
            granted += tenant.granted
            rejected += tenant.rejected
        total = granted + rejected
        return rejected / total if total else 0.0
