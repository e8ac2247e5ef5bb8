"""Incast analysis (§4.2).

The paper argues that "provisioning the switch<->pool link with the same
capacity a server<->switch link can create incast problems at the
physical pool", while logical pools sidestep incast through data
placement, migration, and compute shipping.  This module measures that
directly: *N* servers concurrently stream from a target's memory; the
achievable aggregate bandwidth reveals whether the target's single
uplink is the bottleneck.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.hw.cpu import AccessSegment
from repro.sim.fluid import FluidModel

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.switch import FabricSwitch
    from repro.hw.server import Server
    from repro.sim.engine import Engine


@dataclasses.dataclass(frozen=True)
class IncastResult:
    """Outcome of one incast measurement."""

    readers: int
    total_bytes: int
    duration_ns: float
    per_reader_gbps: tuple[float, ...]

    @property
    def aggregate_gbps(self) -> float:
        return self.total_bytes / self.duration_ns if self.duration_ns else 0.0


def measure_incast(
    engine: "Engine",
    fluid: FluidModel,
    switch: "FabricSwitch",
    readers: _t.Sequence["Server"],
    targets: _t.Sequence[str],
    bytes_per_reader: int,
) -> IncastResult:
    """Run a synchronized N-reader pull and report aggregate bandwidth.

    ``targets[i]`` names the endpoint reader *i* pulls from.  Pointing
    every reader at one pool endpoint reproduces physical-pool incast;
    spreading targets across servers is the logical pool's data-placement
    remedy.
    """
    if len(targets) != len(readers):
        raise ValueError("need one target per reader")

    durations: dict[int, float] = {}

    def reader_body(idx: int, server: "Server", target: str):
        route = switch.read_route(server.name, target)
        per_core = bytes_per_reader // server.socket.core_count
        segments = [
            [AccessSegment(path=route.path, nbytes=per_core, curve=route.curve)]
            for _ in range(server.socket.core_count)
        ]
        started = engine.now
        procs = server.socket.parallel_stream(segments)
        yield engine.all_of(procs)
        durations[idx] = engine.now - started
        return None

    procs = [
        engine.process(reader_body(i, server, target), name=f"incast.reader{i}")
        for i, (server, target) in enumerate(zip(readers, targets))
    ]
    start = engine.now
    engine.run(engine.all_of(procs))
    makespan = engine.now - start
    per_core_total = (bytes_per_reader // readers[0].socket.core_count) * readers[0].socket.core_count
    per_reader = tuple(
        per_core_total / durations[i] if durations.get(i) else 0.0
        for i in range(len(readers))
    )
    return IncastResult(
        readers=len(readers),
        total_bytes=per_core_total * len(readers),
        duration_ns=makespan,
        per_reader_gbps=per_reader,
    )
