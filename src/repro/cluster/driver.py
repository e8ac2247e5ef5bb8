"""The concurrent multi-tenant workload driver.

Dozens of tenants run as DES processes, each opening sessions against
the rack and replaying an open/alloc/map/read/write/free mix whose
offsets come from :mod:`repro.workloads.generators`.  Per-tenant
latency lands in a :class:`~repro.sim.stats.Histogram`; rack-level
percentiles come from :meth:`Histogram.merge`, and Jain's index over
per-tenant throughput is the fairness headline.

Every tenant draws from its own named RNG stream
(:class:`~repro.sim.rng.RngStreams`), so adding a tenant never perturbs
another and the whole run stays trace-deterministic.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster.fairness import jain_index
from repro.cluster.leases import Lease
from repro.cluster.manager import PoolManager
from repro.cluster.tenants import PriorityClass, TenantSpec, TenantState
from repro.errors import (
    AddressError,
    AdmissionError,
    ClusterError,
    ConfigError,
    MemoryFailureError,
)
from repro.sim.stats import Histogram
from repro.units import us
from repro.workloads.generators import uniform_trace

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import random

    from repro.core.api import LmpSession, Mapping
    from repro.sim.process import Process


#: share of data ops that write; the rest read
_WRITE_FRACTION = 0.30
#: sessions each tenant opens, its leases spread across them
_SESSIONS_PER_TENANT = 2
#: how long a tenant waits after a rejected op before its next one
_BACKOFF_NS = us(5)

#: what a data op raises when the rack failed under it: its tenant was
#: revoked, its server died, or revocation already freed its buffer
DATA_OP_FAULTS = (ClusterError, MemoryFailureError, AddressError)


def tolerated_fault(exc: BaseException, tenant: TenantState) -> bool:
    """The fault rule both tenant drivers apply to a data op's
    :data:`DATA_OP_FAULTS`: a revocation or a dead server ends the op,
    but an :class:`AddressError` from a live tenant is a genuine
    addressing bug, which the caller re-raises."""
    return tenant.revoked or not isinstance(exc, AddressError)


@dataclasses.dataclass(frozen=True)
class WorkloadMix:
    """Per-op probabilities of one tenant's request mix."""

    alloc_fraction: float = 0.15
    free_fraction: float = 0.10
    alloc_bytes: int = 256 * 1024
    access_bytes: int = 16 * 1024
    #: fraction of data ops wrapped in a coherent spinlock critical
    #: section (0.0 = no lock traffic and no extra RNG draws, so the
    #: default behaves bit-identically to the pre-lock driver)
    lock_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.alloc_fraction + self.free_fraction >= 1.0:
            raise ConfigError("alloc + free fractions must leave room for data ops")
        if not 0.0 <= self.lock_fraction <= 1.0:
            raise ConfigError(f"lock_fraction must be in [0, 1], got {self.lock_fraction}")


@dataclasses.dataclass
class TenantReport:
    """One tenant's outcome over the run."""

    tenant_id: str
    priority: PriorityClass
    ops: int
    granted: int
    rejected: int
    killed: bool
    throughput_ops_per_s: float
    latency: Histogram

    @property
    def p99_ns(self) -> float:
        return self.latency.quantile(0.99) if len(self.latency) else 0.0


@dataclasses.dataclass
class DriverReport:
    """The rack-level rollup the experiment renders."""

    tenants: list[TenantReport]
    duration_ns: float
    rejection_rate: float
    leases_leaked: int

    @property
    def total_ops(self) -> int:
        return sum(t.ops for t in self.tenants)

    @property
    def fairness(self) -> float:
        """Jain's index over the live tenants' throughputs (a tenant
        killed by a crash is excluded: it was revoked, not treated
        unfairly)."""
        alive = [t.throughput_ops_per_s for t in self.tenants if not t.killed]
        return jain_index(alive)

    def merged_latency(self) -> Histogram:
        """Rack-level latency: every tenant's histogram merged."""
        merged = Histogram()
        for tenant in self.tenants:
            merged.merge(tenant.latency)
        return merged

    @property
    def p99_ns(self) -> float:
        merged = self.merged_latency()
        return merged.quantile(0.99) if len(merged) else 0.0

    def latency_summary(self) -> dict[str, float]:
        """Rack-level latency quantiles from one merged sort pass."""
        return self.merged_latency().summary()


class ClusterDriver:
    """Spawns one process per tenant and collects the report."""

    def __init__(
        self,
        manager: PoolManager,
        mix: WorkloadMix | None = None,
    ) -> None:
        self.manager = manager
        self.engine = manager.engine
        self.mix = mix or WorkloadMix()
        self._latency: dict[str, Histogram] = {}
        self._killed: dict[str, bool] = {}
        self._finished_at: dict[str, float] = {}
        #: one rack-wide spinlock shared by every tenant's locked ops
        #: (created lazily by the first tenant when lock_fraction > 0)
        self._lock: _t.Any = None

    def _shared_lock(self, session: "LmpSession") -> _t.Any:
        if self._lock is None:
            self._lock = session.spinlock()
        return self._lock

    def _data_op(
        self,
        session: "LmpSession",
        mapping: "Mapping",
        offset: int,
        size: int,
        lock: _t.Any,
        rng: "random.Random",
    ) -> _t.Generator[_t.Any, _t.Any, str]:
        """One read or write, optionally inside the shared spinlock's
        critical section; returns the op kind for the request span."""
        # short-circuits when no lock is configured, so the RNG stream
        # matches a lock_fraction=0 run exactly
        locked = lock is not None and rng.random() < self.mix.lock_fraction
        if locked:
            yield lock.acquire(session.server_id)
        try:
            if rng.random() < _WRITE_FRACTION:
                yield session.write_v(mapping.vaddr + offset, bytes(size))
                return "locked_write" if locked else "write"
            yield session.read_v(mapping.vaddr + offset, size)
            return "locked_read" if locked else "read"
        finally:
            if locked:
                yield lock.release(session.server_id)

    # -- tenant processes -----------------------------------------------------

    def tenant_process(self, spec: TenantSpec, ops: int) -> "Process":
        """Register *spec* and run its op loop as a DES process."""
        tenant = self.manager.register_tenant(spec)
        self._latency[spec.tenant_id] = Histogram()
        self._killed[spec.tenant_id] = False
        return self.engine.process(
            self._tenant_body(spec, ops), name=f"tenant.{spec.tenant_id}"
        )

    def _tenant_body(
        self, spec: TenantSpec, ops: int
    ) -> _t.Generator[_t.Any, _t.Any, int | None]:
        mix = self.mix
        manager = self.manager
        # the engine's observer: one request span per tenant op, the root
        # of the causal tree
        obs = self.engine.obs
        tenant = manager.tenant(spec.tenant_id)
        rng = self.engine.rng.stream(f"cluster.tenant.{spec.tenant_id}")
        sessions: list["LmpSession"] = [
            manager.open_session(spec.tenant_id)
            for _ in range(_SESSIONS_PER_TENANT)
        ]
        lock = self._shared_lock(sessions[0]) if mix.lock_fraction > 0 else None
        # lease -> (session that allocated it, its virtual mapping)
        held: list[tuple[Lease, "LmpSession", "Mapping"]] = []
        try:
            for _op in range(ops):
                started = self.engine.now
                draw = rng.random()
                span = (
                    obs.request_begin(self, spec.tenant_id, _op)
                    if obs is not None
                    else None
                )
                op_kind = "alloc"
                try:
                    if not held or draw < mix.alloc_fraction:
                        lease = yield manager.acquire(
                            spec.tenant_id, mix.alloc_bytes, name=f"{spec.tenant_id}.buf"
                        )
                        session = sessions[rng.randrange(len(sessions))]
                        held.append((lease, session, session.map(lease.buffer)))
                    elif draw < mix.alloc_fraction + mix.free_fraction and len(held) > 1:
                        op_kind = "free"
                        lease, session, mapping = held.pop(rng.randrange(len(held)))
                        session.unmap(mapping)
                        manager.release(lease)
                    else:
                        lease, session, mapping = held[rng.randrange(len(held))]
                        offset, size = next(
                            uniform_trace(lease.size, mix.access_bytes, 1, rng)
                        )
                        op_kind = yield from self._data_op(
                            session, mapping, offset, size, lock, rng
                        )
                except AdmissionError:
                    # rejected: back off and move on (counted by the manager)
                    if span is not None:
                        obs.request_end(span, self.engine.now, op_kind, "rejected")
                    yield self.engine.timeout(_BACKOFF_NS)
                    continue
                tenant.ops_completed += 1
                self._latency[spec.tenant_id].record(self.engine.now - started)
                if span is not None:
                    obs.request_end(span, self.engine.now, op_kind, "ok")
        except DATA_OP_FAULTS as exc:
            # the rack failed under this tenant: it is done.  Hand back
            # whatever it still holds — a revoked tenant's leases were
            # already reclaimed by the manager, so those releases raise
            # and are ignored.
            if not tolerated_fault(exc, tenant):
                raise
            self._killed[spec.tenant_id] = True
            for lease, _session, _mapping in held:
                try:
                    manager.release(lease)
                except ClusterError:
                    pass
            self._finished_at[spec.tenant_id] = self.engine.now
            return
        # orderly shutdown: give every lease back
        for lease, session, mapping in held:
            if tenant.revoked:
                break
            session.unmap(mapping)
            manager.release(lease)
        self._finished_at[spec.tenant_id] = self.engine.now
        return tenant.ops_completed

    # -- running --------------------------------------------------------------

    def run(self, specs: _t.Sequence[TenantSpec], ops_per_tenant: int) -> DriverReport:
        """Run every tenant to completion and roll up the report."""
        procs = [self.tenant_process(spec, ops_per_tenant) for spec in specs]
        done = self.engine.all_of(procs)
        self.engine.run(done)
        report = self.report(specs)
        obs = self.engine.obs
        if obs is not None:
            obs.ingest_report(report)
        return report

    def report(self, specs: _t.Sequence[TenantSpec]) -> DriverReport:
        duration = self.engine.now
        tenants: list[TenantReport] = []
        for spec in specs:
            state = self.manager.tenant(spec.tenant_id)
            finished = self._finished_at.get(spec.tenant_id, duration)
            elapsed_s = max(finished, 1.0) / 1e9  # ns -> s of simulated time
            tenants.append(
                TenantReport(
                    tenant_id=spec.tenant_id,
                    priority=spec.priority,
                    ops=state.ops_completed,
                    granted=state.granted,
                    rejected=state.rejected,
                    killed=self._killed.get(spec.tenant_id, False),
                    throughput_ops_per_s=state.ops_completed / elapsed_s,
                    latency=self._latency[spec.tenant_id],
                )
            )
        return DriverReport(
            tenants=tenants,
            duration_ns=duration,
            rejection_rate=self.manager.rejection_rate(),
            leases_leaked=len(self.manager.leases),
        )
