"""Property tests for the cluster control plane.

A stateful machine drives random admit / free / revoke / crash
sequences against a small rack and pins down the control plane's
invariants after every step:

* a tenant's quota balance never goes negative and never exceeds its
  quota,
* the footprint of all live leases never exceeds the rack's capacity,
* a revoked tenant holds zero leases and zero bytes (its frames were
  reclaimed — verified against the AllocSanitizer's shadow state at
  teardown).
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.check.sanitizers import AllocSanitizer
from repro.cluster.manager import PoolManager
from repro.cluster.tenants import PriorityClass, TenantSpec
from repro.core.failures.detector import FailureDetector
from repro.core.runtime import LmpRuntime
from repro.errors import AdmissionError, ClusterError
from repro.mem.layout import PageGeometry
from repro.topology.builder import build_logical
from repro.units import kib, mib, us

TENANTS = ("alpha", "beta", "gamma")
EXTENT = kib(64)


class ClusterMachine(RuleBasedStateMachine):
    """Random multi-tenant control-plane interleavings."""

    @initialize()
    def setup(self) -> None:
        deployment = build_logical("link0", server_count=3, server_dram_bytes=mib(2))
        runtime = LmpRuntime(
            deployment,
            geometry=PageGeometry(page_bytes=kib(16), extent_bytes=EXTENT),
            coherent_bytes=kib(64),
            snoop_filter_lines=64,
        )
        # best-effort tenants reject instead of queueing, so every rule
        # settles immediately and the machine never parks a waiter
        self.manager = PoolManager(runtime, policy="first-fit")
        self.engine = runtime.engine
        self.detector = FailureDetector(deployment, interval=us(1), miss_threshold=1)
        self.manager.attach_detector(self.detector)
        for i, tenant_id in enumerate(TENANTS):
            self.manager.register_tenant(
                TenantSpec(
                    tenant_id=tenant_id,
                    home_server=i % 3,
                    quota_bytes=mib(1),
                    priority=PriorityClass.BEST_EFFORT,
                )
            )
        self.capacity = self.manager.pool_free_bytes()
        self.held: list = []  # leases this machine still owns

    def _drop_revoked(self) -> None:
        self.held = [
            lease
            for lease in self.held
            if not self.manager.tenant(lease.tenant_id).revoked
        ]

    # -- rules ----------------------------------------------------------------

    @rule(tenant=st.sampled_from(TENANTS), extents=st.integers(1, 3))
    def acquire(self, tenant: str, extents: int) -> None:
        try:
            lease = self.engine.run(self.manager.acquire(tenant, extents * EXTENT))
        except (AdmissionError, ClusterError):
            return  # over quota, over capacity, or revoked — all legal
        self.held.append(lease)

    @precondition(lambda self: self.held)
    @rule(index=st.integers(0, 20))
    def release(self, index: int) -> None:
        lease = self.held.pop(index % len(self.held))
        self.manager.release(lease)

    @rule(tenant=st.sampled_from(TENANTS))
    def revoke(self, tenant: str) -> None:
        if self.manager.tenant(tenant).revoked:
            return
        report = self.manager.revoke_tenant(tenant, reason="property test")
        assert report.bytes_reclaimed >= 0
        self._drop_revoked()

    @rule(server=st.sampled_from((1, 2)))
    def crash(self, server: int) -> None:
        deployment = self.manager.runtime.deployment
        if not deployment.server(server).alive:
            return
        deployment.server(server).crash()
        self.engine.run(self.detector.monitor(us(3)))  # detection revokes
        self._drop_revoked()

    # -- invariants ------------------------------------------------------------

    @invariant()
    def quota_never_negative_or_overdrawn(self) -> None:
        for tenant_id in TENANTS:
            tenant = self.manager.tenant(tenant_id)
            assert 0 <= tenant.used_bytes <= tenant.spec.quota_bytes

    @invariant()
    def leases_never_exceed_capacity(self) -> None:
        assert self.manager.leases.live_bytes() <= self.capacity

    @invariant()
    def revoked_tenants_hold_nothing(self) -> None:
        for tenant_id in TENANTS:
            tenant = self.manager.tenant(tenant_id)
            if tenant.revoked:
                assert tenant.used_bytes == 0
                assert tenant.leases == {}

    @invariant()
    def ledger_matches_lease_table(self) -> None:
        table = self.manager.leases
        held = 0
        for tenant_id in TENANTS:
            tenant = self.manager.tenant(tenant_id)
            tracked = sum(
                lease.footprint_bytes for lease in tenant.leases.values()
            )
            assert tenant.used_bytes == tracked
            assert all(table.is_live(lease_id) for lease_id in tenant.leases)
            held += len(tenant.leases)
        assert len(table) == held

    # -- teardown: the sanitizer proves zero leaked frames ---------------------

    def teardown(self) -> None:
        if not hasattr(self, "manager"):
            return  # initialize() never ran for this example
        for lease in list(self.held):
            self.manager.release(lease)
        self.held = []
        sanitizer = AllocSanitizer.active()
        if sanitizer is not None:
            for sid in sorted(self.manager.pool.regions):
                sanitizer.assert_no_leaks(self.manager.pool.regions[sid])


ClusterMachine.TestCase.settings = settings(
    max_examples=25,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestCluster = ClusterMachine.TestCase
