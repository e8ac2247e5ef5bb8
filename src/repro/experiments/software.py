"""B0 — software vs hardware memory disaggregation (§2.1).

The paper's motivation: "hardware memory disaggregation reduces CPU
overheads, lowers latency, and increases throughput compared to
previous software approaches."  We measure all three on the same
simulated fabric:

* latency of one access, across access sizes (64 B cache line up to
  1 MiB page runs),
* single-QP throughput at queue depth 32 vs the load/store path's
  MLP-pipelined streaming,

for RDMA-style software access and CXL-style load/store access to the
same remote memory.  Hardware wins by ~6x on cache-line latency and the
gap closes as transfers grow — exactly the published RDMA-vs-CXL shape
(e.g. DirectCXL's comparison).
"""

from __future__ import annotations

import dataclasses

from repro.analysis.report import format_table
from repro.baselines.software import SoftwareRemoteMemory, hardware_latency
from repro.hw.cpu import AccessSegment
from repro.topology.builder import build_logical
from repro.units import kib, mib


@dataclasses.dataclass(frozen=True)
class AccessPoint:
    """One access-size row."""

    size_bytes: int
    software_latency_ns: float
    hardware_latency_ns: float

    @property
    def hardware_advantage(self) -> float:
        return self.software_latency_ns / self.hardware_latency_ns


@dataclasses.dataclass(frozen=True)
class SoftwareVsHardwareResult:
    link: str
    latency_points: tuple[AccessPoint, ...]
    software_stream_gbps: float
    hardware_stream_gbps: float

    def render(self) -> str:
        def size_label(n: int) -> str:
            if n >= mib(1):
                return f"{n // mib(1)}MiB"
            if n >= kib(1):
                return f"{n // kib(1)}KiB"
            return f"{n}B"

        latency = format_table(
            ["access size", "software (ns)", "hardware (ns)", "hw advantage"],
            [
                (
                    size_label(p.size_bytes),
                    p.software_latency_ns,
                    p.hardware_latency_ns,
                    f"{p.hardware_advantage:.1f}x",
                )
                for p in self.latency_points
            ],
            title=f"B0a unloaded access latency, software vs hardware ({self.link})",
        )
        stream = format_table(
            ["path", "streaming GB/s"],
            [
                ("software (RDMA, qd=32)", self.software_stream_gbps),
                ("hardware (load/store)", self.hardware_stream_gbps),
            ],
            title="B0b large-transfer streaming (overheads amortized)",
        )
        return latency + "\n\n" + stream


def run(link: str = "link0") -> SoftwareVsHardwareResult:
    """Latency sweep + streaming comparison on one fabric."""
    sizes = (64, kib(4), kib(64), mib(1))
    points = []
    for size in sizes:
        deployment = build_logical(link)
        software = SoftwareRemoteMemory(deployment, "server0", "server1")
        soft_lat = software.measure_latency(size)
        hard_lat = hardware_latency(deployment, "server0", "server1", size)
        points.append(
            AccessPoint(
                size_bytes=size,
                software_latency_ns=soft_lat,
                hardware_latency_ns=hard_lat,
            )
        )

    # streaming: 256 x 1 MiB RDMA reads with a full QP vs a 14-core scan
    deployment = build_logical(link)
    software = SoftwareRemoteMemory(deployment, "server0", "server1")
    software_stream = software.measure_throughput(mib(1), total_ops=256)

    deployment = build_logical(link)
    route = deployment.switch.read_route("server0", "server1")
    server = deployment.server(0)
    segments = [
        [AccessSegment(path=route.path, nbytes=mib(64), curve=route.curve)]
        for _ in range(server.socket.core_count)
    ]
    engine = deployment.engine
    started = engine.now
    procs = server.socket.parallel_stream(segments)
    engine.run(engine.all_of(procs))
    hardware_stream = server.socket.core_count * mib(64) / (engine.now - started)

    return SoftwareVsHardwareResult(
        link=link,
        latency_points=tuple(points),
        software_stream_gbps=software_stream,
        hardware_stream_gbps=hardware_stream,
    )
