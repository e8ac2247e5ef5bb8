"""Tests for deployment specs, the builder, and the cost model."""

from __future__ import annotations


import pytest

from repro.errors import ConfigError
from repro.topology.builder import Deployment, build, build_logical
from repro.topology.cost import CostBook, compare_scenarios, deployment_cost
from repro.topology.specs import (
    DeploymentKind,
    DeploymentSpec,
    paper_logical,
    paper_physical_cache,
    paper_physical_nocache,
)
from repro.units import gib


# --- specs ------------------------------------------------------------------


def test_paper_configs_match_section_4_1():
    logical = paper_logical()
    cache = paper_physical_cache()
    nocache = paper_physical_nocache()
    assert logical.server_count == cache.server_count == 4
    assert logical.server_dram_bytes == gib(24)
    assert cache.server_dram_bytes == gib(8)
    assert cache.pool_dram_bytes == gib(64)
    # identical total budget: the paper's controlled comparison
    assert logical.total_memory_bytes == cache.total_memory_bytes == gib(96)
    assert nocache.total_memory_bytes == gib(96)


def test_physical_consumes_extra_switch_port():
    assert paper_logical().ports_needed == 4
    assert paper_physical_cache().ports_needed == 5
    assert paper_physical_cache(pool_link_width=2.0).ports_needed == 6


def test_spec_validation():
    with pytest.raises(ConfigError):
        DeploymentSpec(kind=DeploymentKind.LOGICAL, pool_dram_bytes=gib(1))
    with pytest.raises(ConfigError):
        DeploymentSpec(kind=DeploymentKind.PHYSICAL_CACHE, pool_dram_bytes=0)
    with pytest.raises(ConfigError):
        DeploymentSpec(kind=DeploymentKind.LOGICAL, link="link9")
    with pytest.raises(ConfigError):
        DeploymentSpec(kind=DeploymentKind.LOGICAL, server_count=0)


# --- builder ----------------------------------------------------------------


def test_logical_build_wires_four_servers(logical_deployment: Deployment):
    assert len(logical_deployment.servers) == 4
    assert logical_deployment.pool is None
    assert sorted(logical_deployment.switch._ports) == [
        "server0",
        "server1",
        "server2",
        "server3",
    ]


def test_physical_build_attaches_pool(physical_cache_deployment: Deployment):
    assert physical_cache_deployment.pool is not None
    assert "pool" in physical_cache_deployment.switch._ports
    assert physical_cache_deployment.pool_endpoint == "pool"


def test_logical_has_no_pool_endpoint(logical_deployment: Deployment):
    with pytest.raises(ConfigError):
        _ = logical_deployment.pool_endpoint


def test_builder_overrides():
    deployment = build_logical("link1", server_count=2, core_count=4)
    assert len(deployment.servers) == 2
    assert deployment.servers[0].socket.core_count == 4
    assert deployment.spec.link == "link1"


def test_server_lookup_bounds(logical_deployment: Deployment):
    with pytest.raises(ConfigError):
        logical_deployment.server(9)


def test_live_servers_tracks_crashes(logical_deployment: Deployment):
    logical_deployment.servers[2].crash()
    assert sum(server.alive for server in logical_deployment.servers) == 3


def test_build_from_spec_directly():
    deployment = build(paper_physical_nocache("link1"))
    assert deployment.kind is DeploymentKind.PHYSICAL_NOCACHE
    assert deployment.pool.dram_bytes == gib(64)


# --- cost model --------------------------------------------------------------


def test_physical_pays_for_pool_hardware():
    logical_cost = deployment_cost(paper_logical())
    physical_cost = deployment_cost(paper_physical_cache())
    assert logical_cost.pool_hardware == 0.0
    assert physical_cost.pool_hardware > 0.0
    assert physical_cost.switch_ports > logical_cost.switch_ports
    assert physical_cost.rack_space > logical_cost.rack_space


def test_equal_total_memory_same_dimm_cost():
    logical_cost = deployment_cost(paper_logical())
    physical_cost = deployment_cost(paper_physical_cache())
    assert logical_cost.dimms == pytest.approx(physical_cost.dimms)


def test_both_scenarios_favor_logical():
    scenario_1, scenario_2 = compare_scenarios()
    assert scenario_1.physical_premium > 0
    assert scenario_2.physical_premium > 0
    # scenario 2's operational angle: more local memory per LMP server
    local_logical, local_physical = scenario_2.local_memory_per_server
    assert local_logical > local_physical


def test_cost_book_is_tunable():
    cheap_pool = CostBook(pool_chassis=0.0, pool_controller=0.0, pool_rack_units=0)
    scenario_1, _ = compare_scenarios(book=cheap_pool)
    default_1, _ = compare_scenarios()
    assert scenario_1.physical_premium < default_1.physical_premium


def test_cost_breakdown_total_is_sum():
    breakdown = deployment_cost(paper_physical_cache())
    flat = breakdown.as_dict()
    assert flat["total"] == pytest.approx(
        sum(v for k, v in flat.items() if k != "total")
    )


def test_hybrid_fluid_keyword_accepts_only_true():
    from repro.topology.multirack import MultiRackSpec, build_multirack_deployment

    build_logical("link0", hybrid_fluid=True)  # the one mode: a no-op
    build_multirack_deployment(MultiRackSpec(racks=1, servers_per_rack=2), hybrid_fluid=True)
    with pytest.raises(ConfigError, match="per-event fluid mode was removed"):
        build_logical("link0", hybrid_fluid=False)
    with pytest.raises(ConfigError, match="per-event fluid mode was removed"):
        build_multirack_deployment(MultiRackSpec(racks=1, servers_per_rack=2), hybrid_fluid=False)
