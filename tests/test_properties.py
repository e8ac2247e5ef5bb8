"""Deep property-based tests: stateful machines and cross-model checks.

These go beyond the per-module property tests: a stateful exercise of
the logical pool (allocate/free/migrate/crash interleavings must never
break conservation or data integrity), fluid-model conservation over
randomized topologies, and a coherence value-correctness check against
a reference model.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.core.coherence.protocol import CoherenceDirectory
from repro.core.pool import LogicalMemoryPool
from repro.errors import CapacityError, MemoryFailureError
from repro.sim.engine import Engine
from repro.sim.fluid import Capacity, FluidModel
from repro.topology.builder import build_logical
from repro.units import mib


# --- stateful logical pool ------------------------------------------------------


class PoolMachine(RuleBasedStateMachine):
    """Random allocate/free/write/migrate sequences on a small pool."""

    @initialize()
    def setup(self) -> None:
        # small servers so capacity pressure is reachable quickly
        self.deployment = build_logical("link0", server_dram_bytes=mib(1024))
        self.pool = LogicalMemoryPool(self.deployment)
        self.engine = self.deployment.engine
        self.buffers: list = []
        self.contents: dict[int, bytes] = {}  # buffer base -> expected bytes
        self.counter = 0

    # -- rules ----------------------------------------------------------------

    @rule(extents=st.integers(1, 3))
    def allocate(self, extents: int) -> None:
        size = extents * self.pool.geometry.extent_bytes
        try:
            buffer = self.pool.allocate(size, requester_id=0, name=f"b{self.counter}")
        except CapacityError:
            assert self.pool.pooled_free_bytes < size or True
            return
        self.counter += 1
        payload = bytes([(self.counter * 37) % 256]) * 64
        self.engine.run(self.pool.write(0, buffer, 0, payload))
        self.buffers.append(buffer)
        self.contents[buffer.base.value] = payload

    @precondition(lambda self: self.buffers)
    @rule(index=st.integers(0, 10))
    def free(self, index: int) -> None:
        buffer = self.buffers.pop(index % len(self.buffers))
        del self.contents[buffer.base.value]
        self.pool.free(buffer)
        assert buffer.freed

    @precondition(lambda self: self.buffers)
    @rule(index=st.integers(0, 10), dst=st.integers(0, 3))
    def migrate(self, index: int, dst: int) -> None:
        buffer = self.buffers[index % len(self.buffers)]
        extent = buffer.geometry.extent_index(buffer.base)
        try:
            self.engine.run(self.pool.migrate_extent(extent, dst))
        except CapacityError:
            return

    @precondition(lambda self: self.buffers)
    @rule(index=st.integers(0, 10))
    def verify_contents(self, index: int) -> None:
        buffer = self.buffers[index % len(self.buffers)]
        expected = self.contents[buffer.base.value]
        data = self.engine.run(self.pool.read(1, buffer, 0, len(expected)))
        assert data == expected

    # -- invariants -----------------------------------------------------------

    @invariant()
    def frames_conserved(self) -> None:
        for region in self.pool.regions.values():
            assert (
                region.shared_used_bytes + region.shared_free_bytes
                == region.shared_bytes
            )
            assert (
                region.private_bytes + region.coherent_bytes + region.shared_bytes
                == region.capacity_bytes
            )

    @invariant()
    def used_frames_match_live_buffers(self) -> None:
        extent_bytes = self.pool.geometry.extent_bytes
        expected_used = sum(
            len(b.geometry.extents_covering(b.base, b.size)) * extent_bytes for b in self.buffers
        )
        actual_used = sum(r.shared_used_bytes for r in self.pool.regions.values())
        assert actual_used == expected_used

    @invariant()
    def every_live_extent_is_owned(self) -> None:
        for buffer in self.buffers:
            for extent in buffer.geometry.extents_covering(buffer.base, buffer.size):
                owner = self.pool.translator.global_map.lookup_extent(extent).server_id
                assert owner in self.pool.regions


PoolMachine.TestCase.settings = settings(
    max_examples=15,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestPoolMachine = PoolMachine.TestCase


# --- fluid conservation over random topologies -------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    rates=st.lists(st.floats(1.0, 100.0), min_size=1, max_size=3),
    flows=st.lists(
        st.tuples(st.floats(64.0, 1e6), st.integers(0, 6)),
        min_size=1,
        max_size=8,
    ),
)
def test_fluid_conservation_random_paths(rates, flows):
    """For any flow set: per-capacity moved bytes equal the sum of flow
    sizes crossing it, and the makespan is at least every capacity's
    total work divided by its rate (no capacity exceeds line rate)."""
    engine = Engine()
    fluid = FluidModel(engine)
    caps = [Capacity(f"c{i}", rate) for i, rate in enumerate(rates)]
    events = []
    work_per_cap = [0.0] * len(caps)
    for size, mask in flows:
        path = [caps[i] for i in range(len(caps)) if mask & (1 << i)]
        if not path:
            path = [caps[0]]
        for cap in path:
            work_per_cap[caps.index(cap)] += size
        events.append(fluid.transfer(path, size))
    engine.run(engine.all_of(events))
    makespan = engine.now
    for cap, work in zip(caps, work_per_cap):
        moved = cap.stats.counter("bytes").value
        assert moved == pytest.approx(work, rel=1e-6)
        # line rate never exceeded
        assert makespan >= work / cap.rate - 1e-6


# --- coherence value correctness against a reference -----------------------------


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 3),  # host
            st.integers(0, 7),  # line
            st.sampled_from(["load", "store", "rmw"]),
            st.integers(0, 99),  # value
        ),
        min_size=1,
        max_size=40,
    )
)
def test_coherence_values_match_reference(ops):
    """A serialized op sequence through the protocol returns exactly
    what a plain dict would — coherence must never corrupt values."""
    deployment = build_logical("link0")
    directory = CoherenceDirectory(deployment, region_bytes=mib(1))
    reference: dict[int, int] = {}
    for host, line, op, value in ops:
        if op == "load":
            got = deployment.run(directory.load(host, line))
            assert got == reference.get(line, 0)
        elif op == "store":
            deployment.run(directory.store(host, line, value))
            reference[line] = value
        else:
            old, new = deployment.run(
                directory.atomic_rmw(host, line, lambda v: v + 1)
            )
            assert old == reference.get(line, 0)
            reference[line] = old + 1
        directory.check_invariants()


# --- crashes never corrupt surviving data -----------------------------------------


@settings(max_examples=10, deadline=None)
@given(victim=st.integers(0, 3), data=st.binary(min_size=1, max_size=256))
def test_crash_leaves_other_servers_intact(victim, data):
    deployment = build_logical("link0")
    pool = LogicalMemoryPool(deployment)
    survivor_sid = (victim + 1) % 4
    safe = pool.allocate(mib(4), requester_id=survivor_sid, name="safe")
    doomed = pool.allocate(mib(4), requester_id=victim, name="doomed")
    deployment.run(pool.write(survivor_sid, safe, 0, data))
    deployment.run(pool.write(victim, doomed, 0, data))
    deployment.server(victim).crash()
    assert deployment.run(pool.read(survivor_sid, safe, 0, len(data))) == data
    with pytest.raises(MemoryFailureError):
        deployment.run(pool.read(survivor_sid, doomed, 0, len(data)))


# --- a local move preserves data -----------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(payload=st.binary(min_size=1, max_size=512), offset=st.integers(0, mib(255)))
def test_relocation_preserves_data(payload, offset):
    deployment = build_logical("link0")
    pool = LogicalMemoryPool(deployment)
    buffer = pool.allocate(mib(256), requester_id=0)
    deployment.run(pool.write(0, buffer, offset, payload))
    extent = buffer.geometry.extent_index(buffer.base)
    table = pool.translator.page_table(0)
    old_frames = list(table.frames(extent))
    deployment.run(pool.migrate_extent(extent, 0))
    assert table.frames(extent) != old_frames
    assert pool.locality_fraction(0, buffer) == 1.0  # still local
    data = deployment.run(pool.read(1, buffer, offset, len(payload)))
    assert data == payload
