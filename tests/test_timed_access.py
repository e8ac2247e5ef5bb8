"""The timed data access (``LmpSession.timed_v``) against the functional
path (``read_v`` / ``write_v``).

A timed access must cost the simulation exactly what the functional one
costs — completion time, transport counters, profiler records, session
span, crash and monitor behaviour — while moving no bytes.  The tenant
drivers issue only timed accesses, so a short run of each must never
reach the byte store.
"""

from __future__ import annotations

import pytest

from repro.cluster.driver import ClusterDriver, WorkloadMix
from repro.cluster.manager import PoolManager
from repro.cluster.tenants import TenantSpec
from repro.core.runtime import LmpRuntime
from repro.errors import AddressError, MemoryFailureError
from repro.hw.dram import BackingStore
from repro.mem.interleave import RoundRobinPlacement
from repro.mem.layout import PageGeometry
from repro.obs import Observability
from repro.scale import OpenLoopTraffic, ScaleDriver, TrafficSpec
from repro.topology.builder import build_logical
from repro.units import kib, mib, us

PAGE = kib(16)
EXTENT = kib(64)
#: two pages straddling the first extent boundary; round-robin placement
#: puts the two extents on different servers
OFFSET = EXTENT - PAGE // 2
SIZE = PAGE
PATTERN = bytes(range(256)) * (SIZE // 256)


def _runtime() -> LmpRuntime:
    deployment = build_logical("link0", server_count=2, server_dram_bytes=mib(8))
    return LmpRuntime(
        deployment,
        geometry=PageGeometry(page_bytes=PAGE, extent_bytes=EXTENT),
        placement=RoundRobinPlacement(),
        coherent_bytes=kib(64),
        snoop_filter_lines=64,
    )


def _issue(session, vaddr: int, write: bool, timed: bool):
    if timed:
        return session.timed_v(vaddr, SIZE, write)
    if write:
        return session.write_v(vaddr, bytes(SIZE))
    return session.read_v(vaddr, SIZE)


def _access(write: bool, timed: bool):
    """One access on a fresh rack under an observer; returns everything the
    simulation can tell about it."""
    obs = Observability()
    with obs.activated():
        runtime = _runtime()
        session = runtime.session(0)
        buffer = session.alloc(2 * EXTENT)
        owners = runtime.pool.extents_by_owner(buffer)
        assert len(owners) == 2  # the range crosses servers
        mapping = session.map(buffer)
        records: list[tuple] = []
        profiler = runtime.pool.profiler
        record = profiler.record

        def log_record(*args, **kwargs):
            records.append((args, tuple(sorted(kwargs.items()))))
            record(*args, **kwargs)

        profiler.record = log_record
        engine = runtime.engine
        started = engine.now
        engine.run(_issue(session, mapping.vaddr + OFFSET, write, timed))
        finished = engine.now
    transport = runtime.deployment.transport
    counters = (
        transport.reads_issued,
        transport.writes_issued,
        transport.bytes_read,
        transport.bytes_written,
        transport.bytes_copied,
    )
    spans = [
        (s.name, s.component, s.parent_id, s.start_ns, s.end_ns, sorted(s.attrs.items()))
        for s in obs.recorder.spans
    ]
    return finished - started, counters, records, spans


@pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
def test_timed_access_costs_what_the_functional_access_costs(write):
    functional = _access(write, timed=False)
    timed = _access(write, timed=True)
    duration, counters, records, spans = timed
    assert duration > 0.0
    assert len(records) == 2  # one profiler record per page
    assert any(name == f"session.{'write' if write else 'read'}" for name, *_ in spans)
    assert duration == functional[0]
    assert counters == functional[1]
    assert records == functional[2]
    assert spans == functional[3]


@pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
def test_timed_access_fails_on_a_crashed_owner(write):
    runtime = _runtime()
    session = runtime.session(0)
    buffer = session.alloc(2 * EXTENT)
    mapping = session.map(buffer)
    remote = next(sid for sid in runtime.pool.extents_by_owner(buffer) if sid != 0)
    runtime.deployment.server(remote).crash()
    verb = "write" if write else "read"
    with pytest.raises(MemoryFailureError, match=f"{verb} touched crashed server"):
        runtime.engine.run(session.timed_v(mapping.vaddr + OFFSET, SIZE, write))


@pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
def test_timed_op_checks_the_device_range_after_its_transfer(write):
    runtime = _runtime()
    deployment = runtime.deployment
    requester, owner = (server.name for server in deployment.servers[:2])
    capacity = deployment.servers[1].dram.capacity_bytes
    transport = deployment.transport
    verb = "write" if write else "read"
    with pytest.raises(AddressError, match=f"{verb} .* exceeds"):
        runtime.engine.run(transport.timed(requester, owner, capacity - 32, 64, write))
    assert runtime.engine.now > 0.0  # raised at completion, as a store would
    assert (transport.writes_issued if write else transport.reads_issued) == 1


@pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
def test_timed_access_sets_the_pages_access_and_dirty_bits(write):
    """A timed write marks its pages dirty, so a migration running under
    it re-copies them, exactly as a functional write would."""
    runtime = _runtime()
    session = runtime.session(0)
    buffer = session.alloc(2 * EXTENT)
    mapping = session.map(buffer)
    translator = runtime.pool.translator
    base = int(buffer.base) + OFFSET
    pages = [base, base + SIZE - 1]
    entries = [
        translator.page_table(translator.owner_of(addr)).entry(
            runtime.pool.geometry.page_index(addr)
        )
        for addr in pages
    ]
    assert len({id(entry) for entry in entries}) == 2
    runtime.engine.run(session.timed_v(mapping.vaddr + OFFSET, SIZE, write))
    assert [(entry.accessed, entry.dirty) for entry in entries] == [(True, write)] * 2


class _AccessLog:
    """An engine monitor that records data-path accesses and ignores the
    rest of the monitor protocol."""

    def __init__(self) -> None:
        self.accesses: list[tuple] = []

    def on_access(self, session, buffer, offset, size, write) -> None:
        self.accesses.append((session.server_id, buffer.name, offset, size, write))

    def __getattr__(self, name: str):
        return lambda *args: None


@pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
def test_engine_monitor_sees_the_timed_access(write):
    runtime = _runtime()
    session = runtime.session(0)
    buffer = session.alloc(2 * EXTENT, name="watched")
    mapping = session.map(buffer)
    log = _AccessLog()
    runtime.engine.monitor = log
    runtime.engine.run(session.timed_v(mapping.vaddr + OFFSET, SIZE, write))
    assert log.accesses == [(0, "watched", OFFSET, SIZE, write)]


@pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
def test_timed_access_leaves_the_store_untouched(write):
    runtime = _runtime()
    session = runtime.session(0)
    buffer = session.alloc(2 * EXTENT)
    mapping = session.map(buffer)
    vaddr = mapping.vaddr + OFFSET
    engine = runtime.engine
    engine.run(session.write_v(vaddr, PATTERN))
    stores = [server.dram.store for server in runtime.deployment.servers]
    before = [dict(store._pages) for store in stores]
    assert engine.run(session.timed_v(vaddr, SIZE, write)) == SIZE
    assert [dict(store._pages) for store in stores] == before
    assert engine.run(session.read_v(vaddr, SIZE)) == PATTERN


@pytest.fixture
def store_calls(monkeypatch):
    """Count every ``BackingStore.read`` / ``write`` call."""
    calls = {"read": 0, "write": 0}
    for name in calls:
        original = getattr(BackingStore, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(BackingStore, name, counted)
    return calls


def _data_ops(manager: PoolManager) -> tuple[int, int]:
    transport = manager.runtime.deployment.transport
    return transport.reads_issued, transport.writes_issued


def test_cluster_driver_never_reaches_the_byte_store(store_calls):
    manager = PoolManager(_runtime(), policy="first-fit")
    driver = ClusterDriver(
        manager, mix=WorkloadMix(alloc_bytes=2 * EXTENT, access_bytes=SIZE)
    )
    specs = [TenantSpec(f"t{i}", home_server=i % 2, quota_bytes=mib(1)) for i in range(3)]
    driver.run(specs, ops_per_tenant=20)
    reads, writes = _data_ops(manager)
    assert reads > 0 and writes > 0
    assert store_calls == {"read": 0, "write": 0}


def test_scale_driver_never_reaches_the_byte_store(store_calls):
    manager = PoolManager(_runtime())
    spec = TrafficSpec(
        tenants=20,
        base_rate_ops_s=0.05e9,
        duration_ns=us(20),
        alloc_bytes=EXTENT,
        access_bytes=SIZE,
        hold_mean_ns=us(2),
    )
    driver = ScaleDriver(manager, OpenLoopTraffic(spec, manager.engine.rng), mib(1))
    driver.run()
    reads, writes = _data_ops(manager)
    assert reads > 0 and writes > 0
    assert store_calls == {"read": 0, "write": 0}
