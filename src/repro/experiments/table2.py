"""T2 — Table 2: min/max loaded latency and bandwidth of the emulated links.

Paper values: Link0 163–418 ns at 34.5 GB/s; Link1 261–527 ns at
21.0 GB/s.  The paper measured these with an MLC-style loaded-latency
sweep: a latency probe thread issues dependent cache-line loads while a
growing number of bandwidth threads stream in the background.  We run
the same sweep inside the simulator: for each background intensity, a
probe measures remote access latency across a server-to-server route
while N cores stream through the same link.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.report import format_table
from repro.hw.cpu import AccessSegment
from repro.topology.builder import build_logical
from repro.units import mib


@dataclasses.dataclass(frozen=True)
class LoadPoint:
    """One point on the loaded-latency curve."""

    background_cores: int
    utilization: float
    latency_ns: float
    delivered_gbps: float


@dataclasses.dataclass(frozen=True)
class LinkCharacterization:
    """One row of Table 2, plus the full sweep behind it."""

    label: str
    min_latency_ns: float
    max_latency_ns: float
    bandwidth_gbps: float
    paper_min_ns: float
    paper_max_ns: float
    paper_bandwidth_gbps: float
    sweep: tuple[LoadPoint, ...]


@dataclasses.dataclass(frozen=True)
class Table2Result:
    links: tuple[LinkCharacterization, ...]

    def render(self) -> str:
        table = format_table(
            [
                "Remote link",
                "Min lat",
                "Max lat",
                "Bandwidth",
                "paper min",
                "paper max",
                "paper BW",
            ],
            [
                (
                    l.label,
                    l.min_latency_ns,
                    l.max_latency_ns,
                    l.bandwidth_gbps,
                    l.paper_min_ns,
                    l.paper_max_ns,
                    l.paper_bandwidth_gbps,
                )
                for l in self.links
            ],
            title="Table 2: emulated CXL links under load",
        )
        return table


_PAPER = {
    "link0": (163.0, 418.0, 34.5),
    "link1": (261.0, 527.0, 21.0),
}


def characterize_link(link: str, max_cores: int = 14) -> LinkCharacterization:
    """Sweep background load from idle to saturation on one link."""
    sweep: list[LoadPoint] = []
    for cores in range(0, max_cores + 1, max(1, max_cores // 7)):
        sweep.append(_measure_point(link, cores))
    by_latency = sorted(sweep, key=lambda p: p.latency_ns)
    delivered = max(p.delivered_gbps for p in sweep)
    paper_min, paper_max, paper_bw = _PAPER[link]
    return LinkCharacterization(
        label=link,
        min_latency_ns=by_latency[0].latency_ns,
        max_latency_ns=by_latency[-1].latency_ns,
        bandwidth_gbps=delivered,
        paper_min_ns=paper_min,
        paper_max_ns=paper_max,
        paper_bandwidth_gbps=paper_bw,
        sweep=tuple(sweep),
    )


def _measure_point(link: str, background_cores: int) -> LoadPoint:
    """Latency of a probe while *background_cores* stream remotely."""
    deployment = build_logical(link)
    engine = deployment.engine
    route = deployment.switch.read_route("server0", "server1")
    server = deployment.server(0)

    stream_bytes = mib(512)
    procs = []
    if background_cores:
        segments = [
            [AccessSegment(path=route.path, nbytes=stream_bytes, curve=route.curve)]
            for _ in range(background_cores)
        ]
        procs = server.socket.parallel_stream(segments)

    # let the background flows reach steady state, then probe
    results: dict[str, float] = {}

    def probe_body():
        yield engine.timeout(10_000.0)
        results["utilization"] = max(c.utilization for c in route.path)
        probe = deployment.transport.probe_latency("server0", "server1")
        latency = yield probe
        results["latency"] = latency

    engine.process(probe_body(), name="probe")
    started = engine.now
    if procs:
        engine.run(engine.all_of(procs))
    else:
        engine.run()
    duration = engine.now - started
    delivered = (
        background_cores * stream_bytes / duration if background_cores and duration else 0.0
    )
    return LoadPoint(
        background_cores=background_cores,
        utilization=results.get("utilization", 0.0),
        latency_ns=results["latency"],
        delivered_gbps=delivered,
    )


def run() -> Table2Result:
    """Characterize both Table 2 links."""
    return Table2Result(
        links=(characterize_link("link0"), characterize_link("link1"))
    )
