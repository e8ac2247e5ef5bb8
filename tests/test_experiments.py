"""Tests that the experiment drivers reproduce the paper's claims.

These are the reproduction's acceptance tests: each asserts a *shape*
from the paper (who wins, by roughly what factor, where feasibility
breaks) rather than an absolute number.  Figures run with reduced
repetitions and coarse chunks to stay fast; ``repro run <id>`` runs the
full configurations and writes ``benchmarks/results/<id>.txt``, and the
cheap ones are re-rendered here against those committed files.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.cli import EXPERIMENTS
from repro.experiments import (
    alloc,
    coherence,
    cost,
    failures,
    figures,
    incast,
    latency,
    nearmem,
    sizing,
    sweeps,
    table1,
    table2,
)
from repro.units import mib

RESULTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"

#: the experiments cheap enough to re-run in tier-1 (a few seconds
#: together); CI's results-fresh job re-renders every id
CHEAP = (
    "table1",
    "table2",
    "latency",
    "cost",
    "software",
    "applications",
    "accelerators",
    "multirack",
    "sizing",
    "migration",
    "cluster",
)


@pytest.fixture(scope="module")
def cheap():
    """Each cheap experiment run once, exactly as ``repro run`` runs it."""
    return {name: EXPERIMENTS[name][1]() for name in CHEAP}


# --- benchmarks/results: the committed numbers ---------------------------------


def test_results_files_are_the_experiment_ids():
    assert sorted(path.stem for path in RESULTS.glob("*.txt")) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", CHEAP)
def test_committed_results_match_a_fresh_run(cheap, name):
    assert cheap[name].render() + "\n" == (RESULTS / f"{name}.txt").read_text()


# --- T1 / T2: calibration ----------------------------------------------------------


def test_table1_matches_paper_within_tolerance():
    result = table1.run()
    for row in result.rows:
        assert row.latency_ns == pytest.approx(row.paper_latency_ns, rel=0.05)
        assert row.bandwidth_gbps == pytest.approx(row.paper_bandwidth_gbps, rel=0.02)
    assert "Table 1" in result.render()


def test_table2_links_match_paper():
    result = table2.run()
    for link in result.links:
        assert link.min_latency_ns == pytest.approx(link.paper_min_ns, rel=0.05)
        assert link.max_latency_ns == pytest.approx(link.paper_max_ns, rel=0.10)
        assert link.bandwidth_gbps == pytest.approx(link.paper_bandwidth_gbps, rel=0.02)
        # the sweep's latency grows with background load
        latencies = [p.latency_ns for p in link.sweep]
        assert latencies == sorted(latencies)


def test_latency_ratios_match_section_4_3():
    result = latency.run()
    assert result.ratio_link0 == pytest.approx(2.8, abs=0.15)
    assert result.ratio_link1 == pytest.approx(3.6, abs=0.2)


# --- F2-F5: the microbenchmark figures ---------------------------------------------


@pytest.fixture(scope="module")
def fig2():
    return figures.run_figure("figure2", repetitions=3, chunk_bytes=mib(64))


@pytest.fixture(scope="module")
def fig3():
    return figures.run_figure("figure3", repetitions=3, chunk_bytes=mib(64))


@pytest.fixture(scope="module")
def fig4():
    return figures.run_figure("figure4", repetitions=2, chunk_bytes=mib(64))


@pytest.fixture(scope="module")
def fig5():
    return figures.run_figure("figure5", repetitions=2, chunk_bytes=mib(64))


def test_figure2_logical_up_to_4_7x_over_nocache(fig2):
    """Paper: 'up to 4.7x improved bandwidth compared to Physical
    no-cache for both 8GB and 24GB vectors'."""
    assert fig2.speedup("link1", "Physical no-cache") == pytest.approx(4.6, abs=0.3)
    assert fig2.speedup("link0", "Physical no-cache") == pytest.approx(2.8, abs=0.2)
    # the 8 GB vector is all local: Logical runs at local-DRAM speed
    assert fig2.bandwidth("Logical", "link1") == pytest.approx(97.0, rel=0.03)
    # the 8 GB vector fits the cache: Physical cache stays competitive
    assert fig2.speedup("link1", "Physical cache") < 1.6


def test_figure3_cache_thrashes(fig3):
    """Paper: 'up to 3.4x compared to Physical cache for the 24GB
    vector' — the cache is no better (indeed worse) than no-cache."""
    assert fig3.speedup("link0", "Physical cache") > 3.0
    assert fig3.bandwidth("Physical cache", "link0") <= fig3.bandwidth(
        "Physical no-cache", "link0"
    )
    assert fig3.bandwidth("Logical", "link1") == pytest.approx(97.0, rel=0.03)


def test_figure4_logical_wins_with_partial_locality(fig4):
    """Paper: 64GB vector, 3/8 local -> Logical beats Physical cache on
    Link1 (paper: 42% — our serialized-fill cache model gives more)."""
    logical = fig4.results[("Logical", "link1")]
    assert logical.locality == pytest.approx(3 / 8)
    advantage = fig4.speedup("link1", "Physical cache")
    assert advantage > 1.4
    # and the slower link favors Logical more (the paper's trend)
    assert fig4.speedup("link1", "Physical cache") >= fig4.speedup(
        "link0", "Physical cache"
    ) - 0.3


def test_figure5_only_logical_runs(fig5):
    """Paper: the physical pool 'cannot run the workload'; logical flexes."""
    for link in ("link0", "link1"):
        assert fig5.feasible("Logical", link)
        assert not fig5.feasible("Physical cache", link)
        assert not fig5.feasible("Physical no-cache", link)
    assert fig5.bandwidth("Logical", "link1") > 21.0  # better than pure-remote
    rendered = fig5.render()
    assert "cannot run the workload" in rendered


def test_figure_speedups_monotone_in_link_slowness(fig2):
    """'The slower the remote link, the better the performance of LMPs
    relative to physical pools.'"""
    assert fig2.speedup("link1", "Physical no-cache") > fig2.speedup(
        "link0", "Physical no-cache"
    )


# --- B1: cost -----------------------------------------------------------------


def test_cost_scenarios_favor_logical():
    result = cost.run()
    assert result.scenario_1.physical_premium > 0.5
    assert result.scenario_2.physical_premium > 0
    assert "pool_hardware" in result.render()


# --- B3: near-memory computing ---------------------------------------------------


def test_compute_shipping_scales_with_servers():
    result = nearmem.run(link="link1", vector_gib=8)
    # all accesses local on 4 servers ~ 4 x 97 GB/s aggregate
    assert result.shipped_gbps == pytest.approx(4 * 97.0, rel=0.10)
    assert result.speedup > 4.0
    assert result.result_messages == 3


# --- A1: incast ---------------------------------------------------------------


def test_incast_sweep_shapes():
    result = incast.run(link="link0", per_reader_gib=1)
    last = result.points[-1]
    # one pool uplink pins the aggregate at link speed
    assert last.physical_w1_gbps == pytest.approx(34.5, rel=0.02)
    # a double-width (paid-for) link doubles it
    assert last.physical_w2_gbps == pytest.approx(69.0, rel=0.02)
    # spreading data across servers scales with readers
    assert last.logical_spread_gbps == pytest.approx(4 * 34.5, rel=0.02)
    first = result.points[0]
    assert first.physical_w1_gbps == pytest.approx(first.logical_spread_gbps, rel=0.05)


# --- A3: locality balancing ----------------------------------------------------


def test_locality_balancing_restores_local_bandwidth(cheap):
    result = cheap["migration"]
    assert result.final_speedup > 4.0  # 21 -> 97 GB/s on link1
    assert result.with_balancer[-1].locality == pytest.approx(1.0)


# --- A2: sizing ---------------------------------------------------------------


def test_sizing_optimizer_dominates():
    result = sizing.run("skewed")
    by_name = {s.policy: s for s in result.scores}
    assert by_name["global-optimizer"].objective >= by_name["static"].objective
    assert by_name["global-optimizer"].objective >= by_name["demand-driven"].objective - 1e-6
    assert by_name["global-optimizer"].satisfied == by_name["global-optimizer"].total_apps


def test_sizing_uniform_scenario_everyone_satisfied():
    result = sizing.run("uniform")
    for score in result.scores:
        if score.policy != "static":  # static 50% may still fit; optimizer must
            assert score.satisfied == score.total_apps


# --- A4: coherence -------------------------------------------------------------


def test_snoop_filter_pressure_appears_past_capacity():
    points = coherence.sweep_snoop_filter(filter_lines=64, max_working_set=1024)
    small = [p for p in points if p.working_set_lines <= 64]
    big = [p for p in points if p.working_set_lines >= 512]
    assert all(p.back_invalidations == 0 for p in small)
    assert all(p.back_invalidations > 0 for p in big)


def test_cohort_lock_reduces_fabric_traffic():
    scores = {s.lock: s for s in coherence.compare_locks(critical_sections=6)}
    assert scores["cohort"].remote_directory_messages < scores["spinlock"].remote_directory_messages
    assert scores["cohort"].remote_directory_messages < scores["ticket"].remote_directory_messages


# --- A5: failures --------------------------------------------------------------


def test_failure_regimes():
    result = failures.run(object_mib=4)
    by_scheme = {o.scheme: o for o in result.outcomes}
    assert not by_scheme["unprotected"].data_survived
    assert by_scheme["replication x2"].data_survived
    assert by_scheme["RS(2,1)"].data_survived
    # erasure coding stores less and repairs less
    assert by_scheme["RS(2,1)"].storage_overhead < by_scheme["replication x2"].storage_overhead
    assert by_scheme["RS(2,1)"].repair_bytes < by_scheme["replication x2"].repair_bytes
    assert result.detection_latency_ms == pytest.approx(30.0, abs=11.0)


# --- A10: allocator compaction ------------------------------------------------


def test_compaction_reduces_fragmentation_on_churn():
    # the full-size ablation; only the gauntlet table is shortened
    by_key = {(r.allocator, r.compaction): r for r in alloc.run(ops=500).ablation}
    for name in ("first-fit", "best-fit"):
        assert by_key[(name, True)].ext_frag_mean < by_key[(name, False)].ext_frag_mean
        assert by_key[(name, True)].passes > 0


# --- C1: the control plane ----------------------------------------------------


def test_cluster_experiment_is_fair_and_leak_free(cheap):
    result = cheap["cluster"]
    assert all(p.fairness >= 0.8 for p in result.policies)
    assert any(s.rejected > 0 for s in result.sweep)
    assert result.reclaim.leases_leaked == 0
    assert result.reclaim.revoked_bytes_outstanding == 0


# --- B0, A6-A9: the extensions ------------------------------------------------


def test_software_gap_closes_once_transfers_amortize(cheap):
    result = cheap["software"]
    cache_line = result.latency_points[0]
    assert cache_line.size_bytes == 64
    # hardware load/store wins decisively at cache-line granularity...
    assert cache_line.hardware_advantage > 3.0
    # ...and the gap closes once transfers amortize the software costs
    assert result.latency_points[-1].hardware_advantage < 1.5
    assert result.software_stream_gbps == pytest.approx(result.hardware_stream_gbps, rel=0.05)


def test_logical_never_loses_across_the_sweeps():
    points = sweeps.sweep_vector_size("link1", sizes_gib=(16, 48, 96), repetitions=1)
    for point in points:
        if point.physical_feasible:
            assert point.logical_gbps >= point.nocache_gbps - 0.5
            assert point.logical_gbps >= point.cache_gbps - 0.5
    tail = points[-1]
    # locality decays exactly as capacity arithmetic predicts: 24/size
    assert tail.locality == pytest.approx(24 / tail.vector_gib, abs=0.01)
    # the physical pool falls off the feasibility cliff past 64 GiB
    assert not tail.physical_feasible
    # the advantage saturates at total/remote = 64/40
    for slow in sweeps.sweep_slowdown(slowdowns=(4.0,), repetitions=1):
        assert slow.advantage == pytest.approx(1.6, abs=0.05)


def test_accelerator_shipping_frees_the_cpu(cheap):
    by_key = {(p.engine_kind, p.vector_gib): p for p in cheap["accelerators"].points}
    cpu = by_key[("cpu", 32.0)]
    offload = by_key[("accelerator", 32.0)]
    # same DRAM-bound bandwidth, zero CPU time consumed
    assert offload.aggregate_gbps == pytest.approx(cpu.aggregate_gbps, rel=0.05)
    assert offload.cpu_core_ms == 0.0
    assert cpu.cpu_core_ms > 0.0


def test_multirack_tiers_and_bisection_scaling(cheap):
    result = cheap["multirack"]
    local, same_rack, cross_rack = result.tiers
    assert local.total_ns < same_rack.total_ns < cross_rack.total_ns
    assert cross_rack.hops == 4
    # bisection bandwidth scales linearly with racks at fixed trunk width
    first, *_rest, last = result.scale_points
    assert last.bisection_gbps == pytest.approx(
        first.bisection_gbps * last.racks / first.racks, rel=0.01
    )
    assert result.racks_for_100tb > result.racks_for_10tb


def test_application_kernels_favor_logical(cheap):
    result = cheap["applications"]
    logical = result.score("Logical")
    nocache = result.score("Physical no-cache")
    # latency-bound kernels feel the architecture directly: local KV ops
    # run at local-DRAM latency, remote ones at fabric latency
    assert logical.kv_mean_latency_ns < nocache.kv_mean_latency_ns / 2
    assert logical.bfs_duration_us < nocache.bfs_duration_us / 2
    assert logical.kv_ops_per_sec > nocache.kv_ops_per_sec
