"""Tests for the fabric: switch routing, leaf-spine pods, transport,
and incast."""

from __future__ import annotations

import pytest

from repro.errors import AddressError, ConfigError
from repro.fabric.incast import measure_incast
from repro.fabric.switch import FabricSwitch
from repro.hw.link import LINK_PRESETS
from repro.hw.server import Server
from repro.sim.engine import Engine
from repro.sim.fluid import FluidModel
from repro.topology.multirack import (
    MultiRackSpec,
    RackedSwitch,
    build_multirack_deployment,
)
from repro.units import gib, mib


def make_rack(servers=2, port_count=32):
    engine = Engine()
    fluid = FluidModel(engine)
    switch = FabricSwitch(engine, fluid, port_count=port_count)
    racked = [
        Server(engine, fluid, i, gib(24), LINK_PRESETS["link0"]) for i in range(servers)
    ]
    for server in racked:
        switch.attach(server.name, server.link, server.dram)
    return engine, fluid, switch, racked


# --- switch ------------------------------------------------------------------


def test_local_route_avoids_fabric():
    _engine, _fluid, switch, servers = make_rack()
    route = switch.read_route("server0", "server0")
    assert not route.remote
    assert route.path == (servers[0].dram.channel,)
    assert route.loaded_latency() == pytest.approx(82.0)


def test_remote_route_crosses_both_links():
    _engine, _fluid, switch, servers = make_rack()
    route = switch.read_route("server0", "server1")
    assert route.remote
    names = [c.name for c in route.path]
    assert names == ["server1.dram.chan", "server1.link.up", "server0.link.down"]
    assert route.loaded_latency() == pytest.approx(163.0)


def test_write_route_reverses_direction():
    _engine, _fluid, switch, _servers = make_rack()
    route = switch.write_route("server0", "server1")
    names = [c.name for c in route.path]
    assert names == ["server0.link.up", "server1.link.down", "server1.dram.chan"]


def test_copy_route_touches_both_drams():
    _engine, _fluid, switch, _servers = make_rack()
    route = switch.copy_route("server0", "server1")
    names = [c.name for c in route.path]
    assert names[0] == "server0.dram.chan"
    assert names[-1] == "server1.dram.chan"


def test_port_exhaustion():
    engine, fluid, switch, _servers = make_rack(servers=2, port_count=2)
    extra = Server(engine, fluid, 9, gib(1), LINK_PRESETS["link0"])
    with pytest.raises(ConfigError, match="out of ports"):
        switch.attach(extra.name, extra.link, extra.dram)


def test_duplicate_attach_rejected():
    _engine, _fluid, switch, servers = make_rack()
    with pytest.raises(ConfigError):
        switch.attach("server0", servers[0].link, servers[0].dram)


def test_unknown_endpoint_rejected():
    _engine, _fluid, switch, _servers = make_rack()
    with pytest.raises(ConfigError, match="unknown endpoint"):
        switch.read_route("server0", "nowhere")


# --- leaf-spine pods (PBR across racks) ------------------------------------------


def make_pod(trunk_width=2.0):
    return build_multirack_deployment(
        MultiRackSpec(racks=2, servers_per_rack=2, trunk_width=trunk_width)
    )


def test_pbr_route_spans_switches():
    pod = make_pod()
    route = pod.switch.read_route("r0s0", "r1s0")
    names = [c.name for c in route.path]
    # data climbs the owner's leaf trunk and descends the requester's
    assert names == [
        "r1s0.dram.chan",
        "r1s0.link.up",
        "r0s0.link.down",
        "pod.leaf1.up",
        "pod.leaf0.down",
    ]
    assert route.remote


def test_cross_rack_curve_is_the_link_curve_plus_two_hops_bit_for_bit():
    pod = make_pod()
    route = pod.switch.read_route("r0s0", "r1s0")
    base = pod.switch.link_of("r0s0").latency_model
    hops = 2.0 * pod.switch.spec.hop_latency_ns
    for u in (-0.5, 0.0, 0.25, 0.95, 1.0, 1.5):
        assert route.curve(u) == base(u) + hops
    # every cross-rack route through that link shares the one curve
    assert pod.switch.read_route("r0s0", "r1s1").curve is route.curve
    assert pod.switch.read_route("r0s0", "r0s1").curve is base


def test_same_switch_route_is_short():
    pod = make_pod()
    route = pod.switch.read_route("r0s0", "r0s1")
    assert [c.name for c in route.path] == [
        "r0s1.dram.chan",
        "r0s1.link.up",
        "r0s0.link.down",
    ]


def test_self_route_is_empty():
    pod = make_pod()
    route = pod.switch.read_route("r1s1", "r1s1")
    assert not route.remote
    assert route.path == (pod.servers[3].dram.channel,)


def test_out_of_range_rack_raises():
    pod = make_pod()
    with pytest.raises(ConfigError, match="out of range"):
        pod.switch.assign_rack("r1s1", 2)


def test_unassigned_endpoint_raises_instead_of_routing_same_rack():
    engine = Engine()
    fluid = FluidModel(engine)
    switch = RackedSwitch(engine, fluid, MultiRackSpec(racks=2, servers_per_rack=2))
    for i in range(2):
        server = Server(engine, fluid, i, gib(24), LINK_PRESETS["link0"])
        switch.attach(server.name, server.link, server.dram)
    switch.assign_rack("server0", 0)
    with pytest.raises(ConfigError, match="'server1'.*never given a rack"):
        switch.read_route("server0", "server1")
    with pytest.raises(ConfigError, match="'server1'.*never given a rack"):
        switch.copy_route("server1", "server0")
    # a local route crosses no rack boundary and needs no rack
    assert not switch.read_route("server1", "server1").remote


def test_bisection_bandwidth():
    # both servers of rack 0 copy to rack 1 at once: the 1x trunk, not
    # the two 34.5 GB/s server links, bounds the cut
    pod = make_pod(trunk_width=1.0)
    size = 34.5e6
    done = [
        pod.fluid.transfer(pod.switch.copy_route(f"r0s{i}", f"r1s{i}").path, size)
        for i in range(2)
    ]
    pod.run(pod.engine.all_of(done))
    assert 2 * size / pod.engine.now == pytest.approx(34.5)


# --- transport ----------------------------------------------------------------


def test_transport_moves_real_bytes(logical_deployment):
    transport = logical_deployment.transport
    engine = logical_deployment.engine
    engine.run(transport.write("server0", "server2", 4096, b"payload"))
    assert engine.run(transport.read("server1", "server2", 4096, 7)) == b"payload"
    assert transport.bytes_written == 7


def test_transport_copy_preserves_contents(logical_deployment):
    transport = logical_deployment.transport
    engine = logical_deployment.engine
    engine.run(transport.write("server0", "server0", 0, b"ABCD" * 256))
    engine.run(transport.copy("server0", 0, "server3", mib(1), 1024))
    moved = logical_deployment.switch.device_of("server3").read_bytes(mib(1), 1024)
    assert moved == b"ABCD" * 256


def test_probe_latency_local_vs_remote(logical_deployment):
    transport = logical_deployment.transport
    engine = logical_deployment.engine
    local = engine.run(transport.probe_latency("server0", "server0"))
    remote = engine.run(transport.probe_latency("server0", "server1"))
    assert local == pytest.approx(82.0 + 64 / 97.0, rel=0.01)
    assert remote == pytest.approx(163.0 + 64 / 34.5, rel=0.01)


# --- incast ------------------------------------------------------------------


def test_incast_single_target_bottlenecks():
    engine, fluid, switch, servers = make_rack(servers=4)
    result = measure_incast(
        engine, fluid, switch, servers[:3], ["server3"] * 3, gib(1)
    )
    assert result.aggregate_gbps == pytest.approx(34.5, rel=0.01)


def test_incast_spread_targets_scale():
    engine, fluid, switch, servers = make_rack(servers=4)
    targets = ["server1", "server2", "server3", "server0"]
    result = measure_incast(engine, fluid, switch, servers, targets, gib(1))
    assert result.aggregate_gbps == pytest.approx(4 * 34.5, rel=0.01)


def test_incast_requires_matching_targets():
    engine, fluid, switch, servers = make_rack(servers=2)
    with pytest.raises(ValueError):
        measure_incast(engine, fluid, switch, servers, ["server0"], gib(1))


# --- transport timing -----------------------------------------------------------
#
# Transport operations are callback chains: the route's latency, then one
# fluid flow over the route's path, then the device touch.  On an idle
# rack an operation therefore takes exactly latency + size / bottleneck.


def _idle_op_ns(route, size: int) -> float:
    return route.loaded_latency() + size / min(cap.rate for cap in route.path)


def test_transport_timing_is_latency_plus_bottleneck_transfer(logical_deployment):
    dep = logical_deployment
    engine, transport, switch = dep.engine, dep.transport, dep.switch
    payload = b"fabric?!" * 1024
    size = len(payload)

    expected = _idle_op_ns(switch.write_route("server0", "server2"), size)
    assert expected == pytest.approx(163.0 + size / 34.5)
    assert engine.run(transport.write("server0", "server2", 4096, payload)) == size
    assert engine.now == pytest.approx(expected, rel=1e-12)

    started = engine.now
    expected = _idle_op_ns(switch.read_route("server1", "server2"), size)
    assert engine.run(transport.read("server1", "server2", 4096, size)) == payload
    assert engine.now - started == pytest.approx(expected, rel=1e-12)

    started = engine.now
    expected = _idle_op_ns(switch.copy_route("server2", "server3"), size)
    duration = engine.run(transport.copy("server2", 4096, "server3", mib(1), size))
    assert duration == pytest.approx(expected, rel=1e-12)
    assert engine.now - started == duration
    assert switch.device_of("server3").read_bytes(mib(1), size) == payload
    assert transport.bytes_copied == size


def test_transport_op_costs_only_its_transitions(logical_deployment):
    """A write dispatches four events: the latency timeout, the solver's
    completion tick, the flow's completion, and the operation's own."""
    engine = logical_deployment.engine
    engine.run(logical_deployment.transport.write("server0", "server1", 0, b"z" * 4096))
    assert engine.events_processed == 4


def test_transport_device_error_fails_the_operation(logical_deployment):
    engine, transport = logical_deployment.engine, logical_deployment.transport
    end = logical_deployment.switch.device_of("server1").capacity_bytes
    op = transport.read("server0", "server1", end, 64)
    with pytest.raises(AddressError):
        engine.run(op)
    assert op.triggered and not op.ok
