"""A7 — rack-scale pools over a PBR fabric (§3.2).

"We envision LMPs providing 10–100 TB of shared memory."  One rack of
servers doesn't get there; cascaded CXL switches with Port-Based
Routing do.  This experiment builds leaf-spine pods — the same
:func:`~repro.topology.multirack.build_multirack_deployment` pods the
S1 serving scenario runs on — and measures what scale-out costs:

* **latency tiers** — an idle 64 B load probe from one server to its
  own DRAM, a same-rack peer (one leaf) and a cross-rack peer (leaf,
  spine, leaf): the NUMA-distance hierarchy placement and migration
  must respect at scale,
* **cross-rack bandwidth** — saturating copies from every server in
  one half of the pod to its mirror in the other half, solved by the
  fluid model over the pod's copy routes, as racks are added,
* **capacity ladder** — racks needed for 10 and 100 TB pools, plus the
  size of the coarse global map at that scale (the §5 translation
  structure staying "small" is what makes two-step translation viable).
"""

from __future__ import annotations

import dataclasses

from repro.analysis.report import format_table
from repro.mem.layout import PageGeometry
from repro.topology.multirack import (
    MultiRackSpec,
    build_multirack_deployment,
    racks_for_capacity,
)
from repro.units import gib


@dataclasses.dataclass(frozen=True)
class LatencyTier:
    tier: str
    hops: int
    #: measured end-to-end latency of one 64 B load on an idle pod
    latency_ns: float


@dataclasses.dataclass(frozen=True)
class ScalePoint:
    racks: int
    servers: int
    pool_tib: float
    bisection_gbps: float
    per_server_cross_gbps: float


@dataclasses.dataclass(frozen=True)
class MultiRackResult:
    spec: MultiRackSpec
    tiers: tuple[LatencyTier, ...]
    scale_points: tuple[ScalePoint, ...]
    racks_for_10tb: int
    racks_for_100tb: int
    global_map_entries_100tb: int

    def render(self) -> str:
        tiers = format_table(
            ["tier", "link hops", "measured idle 64B load (ns)"],
            [(t.tier, t.hops, t.latency_ns) for t in self.tiers],
            title="A7a access-latency tiers in a leaf-spine LMP pod",
        )
        scale = format_table(
            ["racks", "servers", "pool (TiB)", "bisection GB/s", "cross GB/s per server"],
            [
                (p.racks, p.servers, p.pool_tib, p.bisection_gbps, p.per_server_cross_gbps)
                for p in self.scale_points
            ],
            title=(
                f"A7b scale-out with trunk width {self.spec.trunk_width:g}x "
                f"({self.spec.servers_per_rack} servers/rack)"
            ),
        )
        capacity = (
            f"capacity ladder: {self.racks_for_10tb} racks reach 10 TB, "
            f"{self.racks_for_100tb} racks reach 100 TB; a 100 TB pool's "
            f"coarse global map holds {self.global_map_entries_100tb:,} extent "
            "entries (a few MB replicated per server — why two-step "
            "translation scales)"
        )
        return tiers + "\n\n" + scale + "\n\n" + capacity


def _latency_tiers(spec: MultiRackSpec) -> tuple[LatencyTier, ...]:
    """Probe each tier once on one idle pod."""
    deployment = build_multirack_deployment(spec)
    origin = spec.server_name(0, 0)
    peers = [("local DRAM", 0, origin)]
    if spec.servers_per_rack > 1:
        peers.append(("same rack", 2, spec.server_name(0, 1)))
    if spec.racks > 1:
        peers.append(("cross rack", 4, spec.server_name(spec.racks - 1, 0)))
    return tuple(
        LatencyTier(
            tier, hops, deployment.run(deployment.transport.probe_latency(origin, peer))
        )
        for tier, hops, peer in peers
    )


def _scale_point(spec: MultiRackSpec) -> ScalePoint:
    """Every server in the first half of the racks copies to its mirror
    in the second half at once; the fluid solver shares the trunks."""
    deployment = build_multirack_deployment(spec)
    half = spec.racks // 2
    size = gib(1)
    done = [
        deployment.fluid.transfer(
            deployment.switch.copy_route(
                spec.server_name(rack, index), spec.server_name(rack + half, index)
            ).path,
            size,
        )
        for rack in range(half)
        for index in range(spec.servers_per_rack)
    ]
    deployment.run(deployment.engine.all_of(done))
    bisection = len(done) * size / deployment.engine.now  # bytes/ns = GB/s
    return ScalePoint(
        racks=spec.racks,
        servers=spec.total_servers,
        pool_tib=spec.pool_capacity_bytes / 2**40,
        bisection_gbps=bisection,
        per_server_cross_gbps=bisection / len(done),
    )


def run(spec: MultiRackSpec | None = None) -> MultiRackResult:
    """Tiers + scale-out + capacity ladder for one pod shape."""
    spec = spec or MultiRackSpec()
    geometry = PageGeometry()
    hundred_tb = 100 * 10**12
    return MultiRackResult(
        spec=spec,
        tiers=_latency_tiers(spec),
        scale_points=tuple(
            _scale_point(dataclasses.replace(spec, racks=racks)) for racks in (2, 4, 8)
        ),
        racks_for_10tb=racks_for_capacity(10 * 10**12, spec),
        racks_for_100tb=racks_for_capacity(hundred_tb, spec),
        global_map_entries_100tb=hundred_tb // geometry.extent_bytes,
    )
