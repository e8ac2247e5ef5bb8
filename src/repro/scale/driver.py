"""The 10k-tenant open-loop serving driver.

:class:`~repro.cluster.driver.ClusterDriver` runs one generator frame,
one RNG stream, and a handful of sessions *per tenant* — fine at dozens
of tenants, hopeless at ten thousand.  :class:`ScaleDriver` inverts the
structure: tenants are *slots* (plain ints naming manager-registered
tenants, whose grants and refusals the manager's ledger counts), one
pump process replays the :class:`~repro.scale.traffic.OpenLoopTraffic`
arrival stream, and each request is a short-lived process that enters
through :meth:`~repro.cluster.manager.PoolManager.acquire`
(admission control, placement, leases — the real front door, decided
at the call) and, after its data op, hands its lease to
:meth:`~repro.cluster.manager.PoolManager.expire_after`.  Expiry costs
no process: the manager keeps one expiry heap and one armed timer, and
batch-frees every lease due at an instant in one admission-queue pass.

Per-event work is O(log heap) + O(log tenants): no per-tenant process,
no per-tenant eager RNG (access streams spawn lazily on a slot's first
data op), no O(tenants) scans anywhere on the hot path.
"""

from __future__ import annotations

import typing as _t

from repro.cluster.driver import DATA_OP_FAULTS, tolerated_fault
from repro.cluster.tenants import TenantSpec
from repro.errors import AdmissionError, ConfigError, TenantRevokedError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import random

    from repro.cluster.leases import Lease
    from repro.cluster.manager import PoolManager
    from repro.scale.traffic import Arrival, OpenLoopTraffic
    from repro.sim.events import Event
    from repro.sim.process import Process


class ScaleDriver:
    """Open-loop population driver over one :class:`PoolManager`."""

    def __init__(
        self,
        manager: "PoolManager",
        traffic: "OpenLoopTraffic",
        quota_bytes: int,
    ) -> None:
        if quota_bytes <= 0:
            raise ConfigError(f"quota must be positive, got {quota_bytes}")
        self.manager = manager
        self.engine = manager.engine
        self.traffic = traffic
        spec = traffic.spec
        servers = sorted(manager.pool.regions)
        if not servers:
            raise ConfigError("the pool has no servers to home tenants on")
        n = spec.tenants
        self.arrivals_seen = 0
        self.drained = 0
        self.crowd_arrivals = [0] * len(spec.flash_crowds)
        self.crowd_rejects = [0] * len(spec.flash_crowds)
        #: after the pump finishes, wait this long for holds to expire,
        #: then fail whatever is still queued (the end-of-run drain)
        self.drain_grace_ns = 10.0 * spec.hold_mean_ns
        self._ids = [f"t{slot}" for slot in range(n)]
        self._slot_rng: dict[int, "random.Random"] = {}
        self._inflight = 0
        self._pump_done = False
        #: succeeds with the manager's expired-lease count once nothing
        #: is left to arrive, grant or expire
        self._settled = self.engine.event("scale.settled")
        for slot in range(n):
            manager.register_tenant(
                TenantSpec(
                    tenant_id=self._ids[slot],
                    home_server=servers[slot * len(servers) // n],
                    quota_bytes=quota_bytes,
                )
            )

    # -- running --------------------------------------------------------------

    def processes(self) -> list["Event"]:
        """Spawn the pump and the end-of-run drain; between them, the
        event that succeeds with ``manager.expired`` once the pump is
        done, no request is in flight, and no lease waits to expire."""
        pump = self.engine.process(self._pump_body(), name="scale.pump")
        drain = self.engine.process(self._drain_body(pump), name="scale.drain")
        return [pump, self._settled, drain]

    def run(self) -> None:
        """Replay the whole trace to completion (holds drained)."""
        self.engine.run(self.engine.all_of(self.processes()))

    # -- the pump -------------------------------------------------------------

    def _pump_body(self) -> _t.Generator[_t.Any, _t.Any, int]:
        engine = self.engine
        crowds = self.traffic.spec.flash_crowds
        for arrival in self.traffic.arrivals():
            delay = arrival.when_ns - engine.now
            if delay > 0:
                yield engine.timeout(delay)
            self.arrivals_seen += 1
            for index, crowd in enumerate(crowds):
                if crowd.active(arrival.when_ns):
                    self.crowd_arrivals[index] += 1
            self._inflight += 1
            engine.process(self._request_body(arrival), name="scale.request")
        self._pump_done = True
        self._settle()
        return self.arrivals_seen

    # -- one request ----------------------------------------------------------

    def _request_body(self, arrival: "Arrival") -> _t.Generator[_t.Any, _t.Any, None]:
        manager = self.manager
        slot = arrival.slot
        try:
            try:
                lease = yield manager.acquire(self._ids[slot], arrival.size)
            except (AdmissionError, TenantRevokedError):
                # the manager's tenant ledger has counted the refusal
                for index, crowd in enumerate(self.traffic.spec.flash_crowds):
                    if crowd.active(arrival.when_ns):
                        self.crowd_rejects[index] += 1
                return
            if arrival.access:
                try:
                    yield from self._touch(slot, lease, arrival)
                except DATA_OP_FAULTS as exc:
                    if not tolerated_fault(exc, manager.tenant(self._ids[slot])):
                        raise
                    # the rack failed under the data op; the lease still expires
            manager.expire_after(lease, arrival.hold_ns)
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._settle()

    def _touch(
        self, slot: int, lease: "Lease", arrival: "Arrival"
    ) -> _t.Generator[_t.Any, _t.Any, None]:
        """One timed read or write (no host bytes move) through the
        tenant's session."""
        session = self.manager.tenant(self._ids[slot]).sessions[0]
        rng = self._slot_rng.get(slot)
        if rng is None:
            # lazy: only slots that actually touch data pay for a stream
            rng = self._slot_rng[slot] = self.engine.rng.stream(f"scale.t{slot}")
        size = min(self.traffic.spec.access_bytes, lease.size)
        offset = rng.randrange(lease.size - size + 1)
        mapping = session.map(lease.buffer)
        try:
            # single writer by construction: the request writes only
            # inside the buffer of the lease it exclusively holds
            yield session.timed_v(mapping.vaddr + offset, size, arrival.write)  # noqa: LMP007
        finally:
            session.unmap(mapping)

    def _settle(self) -> None:
        # true at most once: past it, nothing can arrive or be granted
        if self._pump_done and self._inflight == 0:
            manager = self.manager
            manager.when_no_expiry_pending(
                lambda: self._settled.succeed(manager.expired)
            )

    # -- the drain ------------------------------------------------------------

    def _drain_body(self, pump: "Process") -> _t.Generator[_t.Any, _t.Any, int]:
        yield pump
        if self.drain_grace_ns > 0:
            yield self.engine.timeout(self.drain_grace_ns)
        self.drained = self.manager.fail_all_queued("open-loop run drained")
        return self.drained
