"""A9 — application-level comparison: the pools under real workloads.

The paper's evaluation is a streaming microbenchmark; its introduction
argues logical pools help *applications* (key-value stores, databases,
graph systems).  This experiment runs two application kernels on all
three §4.1 pool architectures:

* **KV store (YCSB-B)** — small, latency-bound accesses.  On the
  logical pool the store's log is local to its home server (and
  migration keeps it near whoever reads it); on physical pools every
  GET crosses the fabric.
* **Graph BFS** — dependent pointer chasing, the worst case for remote
  latency: every hop pays the full loaded round trip with nothing to
  pipeline.

Metrics are what an application owner sees: operation latency,
operations/second, traversal time.
"""

from __future__ import annotations

import dataclasses
import random

from repro.analysis.report import format_table
from repro.core.pool import LogicalMemoryPool, PhysicalMemoryPool
from repro.topology.builder import build_logical, build_physical
from repro.units import mib
from repro.workloads.graph import PooledGraph, random_graph
from repro.workloads.kvstore import PooledKVStore, run_ycsb


@dataclasses.dataclass(frozen=True)
class AppScore:
    config: str
    kv_mean_latency_ns: float
    kv_p99_latency_ns: float
    kv_ops_per_sec: float
    bfs_duration_us: float


@dataclasses.dataclass(frozen=True)
class ApplicationsResult:
    link: str
    scores: tuple[AppScore, ...]

    def render(self) -> str:
        return format_table(
            ["pool", "KV mean (ns)", "KV p99 (ns)", "KV ops/s", "BFS (us)"],
            [
                (
                    s.config,
                    s.kv_mean_latency_ns,
                    s.kv_p99_latency_ns,
                    f"{s.kv_ops_per_sec:,.0f}",
                    s.bfs_duration_us,
                )
                for s in self.scores
            ],
            title=(
                f"A9 application kernels on {self.link}: latency-bound "
                "workloads feel the pool architecture directly"
            ),
        )


def _pool_for(config: str, link: str):
    if config == "Logical":
        return LogicalMemoryPool(build_logical(link))
    if config == "Physical cache":
        return PhysicalMemoryPool(build_physical(link, cache=True))
    return PhysicalMemoryPool(build_physical(link, cache=False))


def _measure(config: str, link: str, operations: int, graph_nodes: int) -> AppScore:
    pool = _pool_for(config, link)
    store = PooledKVStore(pool, capacity_bytes=mib(64), home_server=0, name="kv")
    kv = run_ycsb(
        store,
        server_id=0,
        rng=random.Random(42),
        operations=operations,
        key_count=64,
        value_bytes=1024,
    )
    graph = random_graph(nodes=graph_nodes, degree=3, seed=7)
    pooled_graph = PooledGraph(pool, graph, home_server=0, name="g")
    bfs = pool.engine.run(pooled_graph.bfs(0, source=0))
    return AppScore(
        config=config,
        kv_mean_latency_ns=kv.mean_latency_ns,
        kv_p99_latency_ns=kv.p99_latency_ns,
        kv_ops_per_sec=kv.ops_per_second,
        bfs_duration_us=bfs.duration_ns / 1000.0,
    )


def run(link: str = "link1", operations: int = 120, graph_nodes: int = 120) -> ApplicationsResult:
    """Both kernels on all three pool architectures."""
    scores = tuple(
        _measure(config, link, operations, graph_nodes)
        for config in ("Logical", "Physical cache", "Physical no-cache")
    )
    return ApplicationsResult(link=link, scores=scores)
