"""Tests for the Type-2 accelerator model and accelerator shipping."""

from __future__ import annotations

import pytest

from repro.core.compute import ComputeRuntime
from repro.core.pool import LogicalMemoryPool
from repro.errors import ConfigError
from repro.hw.accelerator import Accelerator
from repro.mem.interleave import RoundRobinPlacement
from repro.topology.builder import build_logical
from repro.units import gib, mib, us


def make_accel(deployment, server_id=0, **kwargs) -> Accelerator:
    server = deployment.server(server_id)
    return Accelerator(deployment.engine, deployment.fluid, server, **kwargs)


def test_accelerator_saturates_the_channel(logical_deployment):
    accel = make_accel(logical_deployment)
    server = logical_deployment.server(0)
    route = logical_deployment.switch.read_route(server.name, server.name)
    started = logical_deployment.engine.now
    logical_deployment.run(accel.scan(route.path, gib(1)))
    elapsed = logical_deployment.engine.now - started
    bandwidth = gib(1) / elapsed
    # dma_rate (120) > channel (97): channel-bound, unlike one CPU core
    assert bandwidth == pytest.approx(97.0, rel=0.02)
    assert accel.kernels_launched == 1
    assert accel.bytes_processed == gib(1)
    assert accel.busy_ns > 0


def test_accelerator_dma_cap_binds_when_lower(logical_deployment):
    accel = make_accel(logical_deployment, dma_rate=10.0)
    server = logical_deployment.server(0)
    route = logical_deployment.switch.read_route(server.name, server.name)
    started = logical_deployment.engine.now
    logical_deployment.run(accel.scan(route.path, mib(100)))
    bandwidth = mib(100) / (logical_deployment.engine.now - started)
    assert bandwidth == pytest.approx(10.0, rel=0.05)


def test_launch_overhead_dominates_tiny_kernels(logical_deployment):
    accel = make_accel(logical_deployment, launch_overhead_ns=us(5))
    server = logical_deployment.server(0)
    route = logical_deployment.switch.read_route(server.name, server.name)
    started = logical_deployment.engine.now
    logical_deployment.run(accel.scan(route.path, 4096))
    elapsed = logical_deployment.engine.now - started
    assert elapsed >= us(5)


def test_accelerator_config_validation(logical_deployment):
    with pytest.raises(ConfigError):
        make_accel(logical_deployment, dma_rate=0.0)
    with pytest.raises(ConfigError):
        make_accel(logical_deployment, launch_overhead_ns=-1.0)


def test_accelerator_shipping_matches_cpu_bandwidth():
    deployment = build_logical("link0")
    pool = LogicalMemoryPool(deployment, placement=RoundRobinPlacement())
    buffer = pool.allocate(gib(4), requester_id=0)
    compute = ComputeRuntime(pool)
    for server in deployment.servers:
        compute.attach_accelerator(
            server.server_id, Accelerator(deployment.engine, deployment.fluid, server)
        )
    cpu = deployment.run(compute.shipped_scan(buffer))
    offloaded = deployment.run(
        compute.shipped_scan(buffer, use_accelerators=True)
    )
    assert offloaded.aggregate_gbps == pytest.approx(cpu.aggregate_gbps, rel=0.05)
    assert cpu.cpu_core_ns > 0
    assert offloaded.cpu_core_ns == 0
    assert offloaded.engine_kind == "accelerator"


def test_shipping_requires_registered_accelerators():
    deployment = build_logical("link0")
    pool = LogicalMemoryPool(deployment, placement=RoundRobinPlacement())
    buffer = pool.allocate(gib(1), requester_id=0)
    compute = ComputeRuntime(pool)
    with pytest.raises(ConfigError, match="no registered accelerator"):
        deployment.run(compute.shipped_scan(buffer, use_accelerators=True))


def test_attach_accelerator_validates_server(logical_deployment):
    pool = LogicalMemoryPool(logical_deployment)
    compute = ComputeRuntime(pool)
    with pytest.raises(ConfigError):
        compute.attach_accelerator(99, object())
