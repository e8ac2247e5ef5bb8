"""Tests for the extension subsystems: the software-disaggregation
baseline, scaled links, multi-rack fabrics, and the CLI."""

from __future__ import annotations

import io
import os
import pathlib
import subprocess
import sys

import pytest

from repro.baselines.software import (
    SoftwareIoCosts,
    SoftwareRemoteMemory,
    hardware_latency,
)
from repro.cli import EXPERIMENTS, build_parser, list_experiments, run_experiments
from repro.errors import ConfigError
from repro.hw.link import LINK_PRESETS, register_scaled_link
from repro.hw.specs import LOCAL_DDR4
from repro.topology.builder import build_logical
from repro.topology.multirack import (
    MultiRackSpec,
    build_multirack_deployment,
    racks_for_capacity,
)
from repro.units import gib, kib, mib


# --- software baseline ----------------------------------------------------------


def test_software_read_pays_io_overheads(logical_deployment):
    software = SoftwareRemoteMemory(logical_deployment, "server0", "server1")
    latency = logical_deployment.run(software.read(0, 64))
    hardware = hardware_latency(logical_deployment, "server0", "server1", 64)
    assert latency > hardware + software.costs.per_op_software_ns * 0.9
    assert software.ops_posted == 1
    assert software.bytes_moved == 64


def test_software_overhead_amortizes_with_size(logical_deployment):
    software = SoftwareRemoteMemory(logical_deployment, "server0", "server1")
    small = software.measure_latency(64, samples=2)
    big = software.measure_latency(mib(1), samples=2)
    hardware_small = hardware_latency(logical_deployment, "server0", "server1", 64)
    hardware_big = hardware_latency(logical_deployment, "server0", "server1", mib(1))
    assert small / hardware_small > big / hardware_big


def test_software_queue_depth_bounds_small_op_throughput():
    deployment = build_logical("link0")
    shallow = SoftwareRemoteMemory(deployment, "server0", "server1", queue_depth=1)
    shallow_bw = shallow.measure_throughput(kib(4), total_ops=64)
    deployment = build_logical("link0")
    deep = SoftwareRemoteMemory(deployment, "server0", "server1", queue_depth=32)
    deep_bw = deep.measure_throughput(kib(4), total_ops=64)
    assert deep_bw > 2 * shallow_bw


def test_software_large_transfers_reach_wire_speed():
    deployment = build_logical("link0")
    software = SoftwareRemoteMemory(deployment, "server0", "server1")
    bandwidth = software.measure_throughput(mib(4), total_ops=64)
    assert bandwidth == pytest.approx(34.5, rel=0.05)


def test_software_write_path(logical_deployment):
    software = SoftwareRemoteMemory(logical_deployment, "server0", "server2")
    latency = logical_deployment.run(software.write(0, kib(4)))
    assert latency > 0


def test_software_config_validation(logical_deployment):
    with pytest.raises(ConfigError):
        SoftwareRemoteMemory(logical_deployment, "server0", "server1", queue_depth=0)


def test_io_costs_sum():
    costs = SoftwareIoCosts(post_ns=100, completion_ns=50, interrupt_ns=25)
    assert costs.per_op_software_ns == 175


# --- scaled links ---------------------------------------------------------------


def test_register_scaled_link_halves_bandwidth():
    name = register_scaled_link("test-slow2x", LOCAL_DDR4, 2.0)
    try:
        spec = LINK_PRESETS[name]
        assert spec.bandwidth == pytest.approx(97.0 / 2)
        assert spec.device.lat_min == pytest.approx(82.0 * 2)
        deployment = build_logical(name)
        assert deployment.servers[0].link.spec.bandwidth == pytest.approx(48.5)
    finally:
        LINK_PRESETS.pop(name, None)


# --- multirack ----------------------------------------------------------------


def test_multirack_builds_expected_shape():
    spec = MultiRackSpec(racks=3, servers_per_rack=4)
    deployment = build_multirack_deployment(spec)
    assert spec.total_servers == 12
    assert [s.name for s in deployment.servers[3:5]] == ["r0s3", "r1s0"]
    # server -> leaf -> spine -> leaf -> server across racks
    route = deployment.switch.read_route("r0s0", "r2s3")
    assert "x-rack r2->r0" in route.description
    assert [c.name for c in route.path][-2:] == ["pod.leaf2.up", "pod.leaf0.down"]
    # same-rack stays on the leaf
    route = deployment.switch.read_route("r0s0", "r0s1")
    assert not any(c.name.startswith("pod.leaf") for c in route.path)


def test_multirack_cross_rack_transfer_uses_trunk():
    spec = MultiRackSpec(racks=2, servers_per_rack=2, trunk_width=2.0)
    deployment = build_multirack_deployment(spec)
    route = deployment.switch.copy_route("r0s0", "r1s0")
    deployment.run(deployment.fluid.transfer(route.path, 34.5e6))
    # bottleneck is the server link (34.5), not the 69 GB/s trunk
    assert deployment.engine.now == pytest.approx(1e6, rel=0.01)


def test_simulator_import_path_leaves_networkx_unloaded():
    """Only the graph workload needs networkx; the pod model, the
    figures, the cluster driver and S1 must not pay for importing it."""
    code = (
        "import sys\n"
        "import repro.topology.multirack, repro.experiments.figures\n"
        "import repro.cluster.driver, repro.scale\n"
        "assert 'networkx' not in sys.modules, 'networkx imported'\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_racked_switch_cross_rack_routes_share_one_shifted_curve():
    """Cross-rack routes through one endpoint link carry one cached
    curve, so the cores streaming them share one flow group, and pay the
    two extra fabric hops on top of the link's curve."""
    spec = MultiRackSpec(racks=2, servers_per_rack=2)
    switch = build_multirack_deployment(spec).switch
    cross = switch.read_route("r0s0", "r1s0")
    assert switch.read_route("r0s0", "r1s1").curve is cross.curve
    same_rack = switch.read_route("r0s0", "r0s1")
    assert cross.loaded_latency() == pytest.approx(
        same_rack.loaded_latency() + 2 * spec.hop_latency_ns
    )


def test_multirack_capacity_arithmetic():
    spec = MultiRackSpec(servers_per_rack=8, server_dram_bytes=gib(256))
    per_rack = 8 * gib(256)
    assert racks_for_capacity(per_rack * 3, spec) == 3
    assert racks_for_capacity(per_rack * 3 + 1, spec) == 4
    assert spec.pool_capacity_bytes == spec.racks * per_rack


def test_multirack_spec_validation():
    with pytest.raises(ConfigError):
        MultiRackSpec(racks=0)
    with pytest.raises(ConfigError):
        MultiRackSpec(trunk_width=0.5)
    with pytest.raises(ConfigError):
        MultiRackSpec(link="nope")


# --- CLI ---------------------------------------------------------------------


def test_cli_lists_every_experiment():
    out = io.StringIO()
    list_experiments(out)
    text = out.getvalue()
    for name in EXPERIMENTS:
        assert name in text


def test_cli_rejects_unknown_experiment():
    assert run_experiments(["no-such-thing"], stream=io.StringIO()) == 2


def test_cli_runs_and_writes_output(tmp_path: pathlib.Path):
    out = io.StringIO()
    code = run_experiments(["cost"], out_dir=tmp_path, stream=out)
    assert code == 0
    assert "pool_hardware" in out.getvalue()
    assert (tmp_path / "cost.txt").exists()


def test_cli_parser_shape():
    parser = build_parser()
    args = parser.parse_args(["run", "figure2", "--out", "x"])
    assert args.names == ["figure2"]
    assert str(args.out) == "x"
    args = parser.parse_args(["list"])
    assert args.command == "list"
    args = parser.parse_args(["check", "--fix", "src/repro"])
    assert args.command == "check" and args.fix
    assert [str(p) for p in args.paths] == ["src/repro"]
    args = parser.parse_args(["check", "--determinism", "figure2", "incast"])
    assert args.determinism == ["figure2", "incast"]


def test_cli_check_lints_a_tree(tmp_path: pathlib.Path):
    from repro.check.runner import run_check

    bad = tmp_path / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("hosts = {2, 1}\nfor h in hosts:\n    flush(h)\n")
    out = io.StringIO()
    assert run_check([tmp_path], stream=out) == 1
    assert "LMP003" in out.getvalue()
    # --fix repairs it and the tree then lints clean
    out = io.StringIO()
    assert run_check([tmp_path], fix=True, stream=out) == 0
    assert "sorted(hosts)" in bad.read_text()
    assert run_check([tmp_path], stream=io.StringIO()) == 0


def test_cli_check_missing_path_is_usage_error():
    from repro.check.runner import run_check

    assert run_check([pathlib.Path("definitely/not/here")], stream=io.StringIO()) == 2


def test_cli_registry_names_resolve():
    """Every registered experiment's runner imports and is callable —
    catches registry typos without paying to run each experiment."""
    import importlib

    from repro.experiments import figures

    for name, (description, _runner) in EXPERIMENTS.items():
        assert description
        if name.startswith("figure"):
            assert name in figures.FIGURE_SIZES
        else:
            module = importlib.import_module(f"repro.experiments.{name}")
            assert callable(module.run)


# --- sweeps (fast parameterizations) ------------------------------------------


def test_slowdown_sweep_tracks_remote_rate():
    from repro.experiments.sweeps import sweep_slowdown

    points = sweep_slowdown(slowdowns=(2.0, 8.0), vector_gib=8, repetitions=1)
    by_slowdown = {p.slowdown: p for p in points}
    # the no-cache baseline runs exactly at the scaled link rate
    assert by_slowdown[2.0].nocache_gbps == pytest.approx(97.0 / 2, rel=0.02)
    assert by_slowdown[8.0].nocache_gbps == pytest.approx(97.0 / 8, rel=0.02)
    # an 8 GiB vector stays fully local: Logical holds local speed
    assert by_slowdown[8.0].logical_gbps == pytest.approx(97.0, rel=0.03)


def test_size_sweep_marks_feasibility_cliff():
    from repro.experiments.sweeps import sweep_vector_size

    points = sweep_vector_size(link="link0", sizes_gib=(8, 80), repetitions=1)
    small, big = points
    assert small.physical_feasible
    assert not big.physical_feasible
    assert big.logical_gbps > 0
