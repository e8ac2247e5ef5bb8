"""Tests for the streaming core model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.hw.cpu import AccessSegment, Core, CpuSocket
from repro.hw.dram import MemoryDevice
from repro.hw.specs import LOCAL_DDR4
from repro.sim.engine import Engine
from repro.sim.fluid import FluidModel
from repro.units import gib, mib


def make_env():
    engine = Engine()
    fluid = FluidModel(engine)
    device = MemoryDevice(engine, fluid, LOCAL_DDR4, gib(64))
    return engine, fluid, device


def segment(device, nbytes) -> AccessSegment:
    return AccessSegment(path=(device.channel,), nbytes=nbytes, curve=device.latency_model)


def test_single_core_is_mlp_bound():
    engine, fluid, device = make_env()
    core = Core(engine, fluid, "c0", mlp_lines=24)
    proc = core.stream([segment(device, gib(1))])
    engine.run(proc)
    achieved = gib(1) / engine.now
    cap = 24 * 64 / 82.0
    assert achieved < LOCAL_DDR4.bandwidth  # one core cannot saturate
    assert achieved == pytest.approx(min(cap, LOCAL_DDR4.bandwidth), rel=0.05)


def test_fourteen_cores_saturate_the_channel():
    engine, fluid, device = make_env()
    socket = CpuSocket(engine, fluid, "s", core_count=14)
    work = [[segment(device, gib(1))] for _ in range(14)]
    procs = socket.parallel_stream(work)
    engine.run(engine.all_of(procs))
    achieved = 14 * gib(1) / engine.now
    assert achieved == pytest.approx(LOCAL_DDR4.bandwidth, rel=0.01)


def test_stream_returns_bytes_moved():
    engine, fluid, device = make_env()
    core = Core(engine, fluid, "c0")
    assert engine.run(core.stream([segment(device, mib(8))])) == mib(8)
    assert core.bytes_streamed == mib(8)


def test_segments_execute_in_order():
    engine, fluid, device = make_env()
    core = Core(engine, fluid, "c0")
    moved = engine.run(core.stream([segment(device, mib(4)), segment(device, mib(4))]))
    assert moved == mib(8)


def test_fill_path_precedes_read():
    """Cache-miss segments move fill bytes before read bytes."""
    engine, fluid, device = make_env()
    remote = MemoryDevice(engine, fluid, LOCAL_DDR4, gib(64), name="remote")
    core = Core(engine, fluid, "c0")
    seg = AccessSegment(
        path=(device.channel,),
        nbytes=mib(32),
        curve=device.latency_model,
        fill_path=(remote.channel,),
        fill_bytes=mib(32),
        fill_curve=remote.latency_model,
    )
    engine.run(core.stream([seg]))
    assert remote.channel.stats.counter("bytes").value == mib(32)
    assert device.channel.stats.counter("bytes").value == mib(32)


def test_empty_work_list_allowed():
    engine, fluid, device = make_env()
    core = Core(engine, fluid, "c0")
    assert engine.run(core.stream([])) == 0


def test_socket_rejects_overflow_work():
    engine, fluid, device = make_env()
    socket = CpuSocket(engine, fluid, "s", core_count=2)
    with pytest.raises(ConfigError):
        socket.parallel_stream([[], [], []])


def test_bad_core_parameters_rejected():
    engine, fluid, _device = make_env()
    with pytest.raises(ConfigError):
        Core(engine, fluid, "c", mlp_lines=0)
    with pytest.raises(ConfigError):
        CpuSocket(engine, fluid, "s", core_count=0)


def _closed_form_gbps(n: int) -> float:
    """min(B, n m / L(u*)) with u* = n m / (B L(u*)), by bisection."""
    curve = LOCAL_DDR4.latency_model()
    bandwidth, mlp = LOCAL_DDR4.bandwidth, 24 * 64
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if n * mlp / (bandwidth * curve(mid)) > mid:
            lo = mid
        else:
            hi = mid
    return min(bandwidth, n * mlp / curve(0.5 * (lo + hi)))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 14])
def test_cores_on_one_channel_match_the_closed_form(n):
    """Each core's MLP cap is solved against the load all n cores put on
    the channel, not the load before the core itself started."""
    engine, fluid, device = make_env()
    socket = CpuSocket(engine, fluid, "s", core_count=n)
    socket.parallel_stream([[segment(device, gib(1))] for _ in range(n)])
    engine.run(until=1_000.0)  # past the issue latency, mid-stream
    assert len(fluid._groups) == 1  # the n cores share one flow group
    assert device.channel._used_rate == pytest.approx(_closed_form_gbps(n), rel=1e-5)


def test_one_flow_per_segment():
    """A segment is one issue latency plus one flow, whatever its size."""
    engine, fluid, device = make_env()
    core = Core(engine, fluid, "c0")
    engine.run(core.stream([segment(device, gib(4)), segment(device, gib(4))]))
    assert engine.events_processed <= 12
