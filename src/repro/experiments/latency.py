"""L1 — §4.3's latency claim.

"The maximum remote loaded latency is 2.8x and 3.6x higher than maximum
loaded local latency, when using Link0 and Link1 links, respectively."

We measure maximum loaded latency for local memory and for both links
by saturating each target with 14 streaming cores and probing, then
report the ratios next to the paper's.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.report import format_table
from repro.hw.cpu import AccessSegment
from repro.topology.builder import build_logical
from repro.units import mib


@dataclasses.dataclass(frozen=True)
class LoadedLatency:
    target: str
    max_latency_ns: float


@dataclasses.dataclass(frozen=True)
class LatencyRatioResult:
    local: LoadedLatency
    link0: LoadedLatency
    link1: LoadedLatency
    paper_ratio_link0: float = 2.8
    paper_ratio_link1: float = 3.6

    @property
    def ratio_link0(self) -> float:
        return self.link0.max_latency_ns / self.local.max_latency_ns

    @property
    def ratio_link1(self) -> float:
        return self.link1.max_latency_ns / self.local.max_latency_ns

    def render(self) -> str:
        return format_table(
            ["target", "max loaded lat (ns)", "ratio vs local", "paper ratio"],
            [
                (self.local.target, self.local.max_latency_ns, "1.0x", "1.0x"),
                (
                    self.link0.target,
                    self.link0.max_latency_ns,
                    f"{self.ratio_link0:.1f}x",
                    f"{self.paper_ratio_link0:.1f}x",
                ),
                (
                    self.link1.target,
                    self.link1.max_latency_ns,
                    f"{self.ratio_link1:.1f}x",
                    f"{self.paper_ratio_link1:.1f}x",
                ),
            ],
            title="S4.3 loaded-latency ratios (remote vs local)",
        )


def _max_loaded_latency(link: str, remote: bool) -> float:
    """Saturate the target with every core, then probe."""
    deployment = build_logical(link)
    engine = deployment.engine
    owner = "server1" if remote else "server0"
    route = deployment.switch.read_route("server0", owner)
    server = deployment.server(0)
    segments = [
        [AccessSegment(path=route.path, nbytes=mib(512), curve=route.curve)]
        for _ in range(server.socket.core_count)
    ]
    result: dict[str, float] = {}

    def probe_body():
        yield engine.timeout(10_000.0)
        latency = yield deployment.transport.probe_latency("server0", owner)
        result["latency"] = latency

    engine.process(probe_body(), name="probe")
    procs = server.socket.parallel_stream(segments)
    engine.run(engine.all_of(procs))
    return result["latency"]


def run() -> LatencyRatioResult:
    """Measure the three targets and build the ratio table."""
    local = LoadedLatency("local", _max_loaded_latency("link0", remote=False))
    link0 = LoadedLatency("link0 remote", _max_loaded_latency("link0", remote=True))
    link1 = LoadedLatency("link1 remote", _max_loaded_latency("link1", remote=True))
    return LatencyRatioResult(local=local, link0=link0, link1=link1)
