"""T1 — Table 1: latency and bandwidth for different memory types.

Paper values: local 82 ns / 97 GB/s; CXL remote 280 or 303 ns and 31 or
20 GB/s (Pond / FPGA).  We *measure* both quantities inside the
simulator rather than echoing the specs: unloaded latency comes from a
single cache-line probe against an idle device, and bandwidth from
saturating the device with a 14-core stream — the same two
methodologies (idle pointer-chase, multi-core stream) the cited studies
use.  A close match confirms the device models are calibrated, which
every other experiment depends on.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.report import format_table
from repro.hw.cpu import AccessSegment
from repro.hw.dram import MemoryDevice
from repro.hw.specs import CXL_FPGA, CXL_POND, DeviceSpec, LOCAL_DDR4
from repro.sim.engine import Engine
from repro.sim.fluid import FluidModel
from repro.units import gib


@dataclasses.dataclass(frozen=True)
class MemoryTypeRow:
    """One measured row of Table 1."""

    label: str
    latency_ns: float
    bandwidth_gbps: float
    paper_latency_ns: float
    paper_bandwidth_gbps: float


@dataclasses.dataclass(frozen=True)
class Table1Result:
    rows: tuple[MemoryTypeRow, ...]

    def render(self) -> str:
        return format_table(
            ["Memory type", "Latency (ns)", "BW (GB/s)", "paper lat", "paper BW"],
            [
                (r.label, r.latency_ns, r.bandwidth_gbps, r.paper_latency_ns, r.paper_bandwidth_gbps)
                for r in self.rows
            ],
            title="Table 1: latency and bandwidth for different memory types",
        )


def _measure(spec: DeviceSpec, core_count: int = 14) -> tuple[float, float]:
    """(unloaded latency, saturated bandwidth) of one device model."""
    engine = Engine()
    fluid = FluidModel(engine)
    device = MemoryDevice(engine, fluid, spec, gib(64))

    # idle probe: one cache line against an unloaded device
    latency = device.loaded_latency() + 64.0 / spec.bandwidth

    # saturation: 14 cores streaming 1 GiB each
    from repro.hw.cpu import CpuSocket

    socket = CpuSocket(engine, fluid, "probe", core_count=core_count)
    per_core = gib(1)
    segments = [
        [
            AccessSegment(
                path=(device.channel,),
                nbytes=per_core,
                curve=device.latency_model,
            )
        ]
        for _ in range(core_count)
    ]
    started = engine.now
    procs = socket.parallel_stream(segments)
    engine.run(engine.all_of(procs))
    bandwidth = core_count * per_core / (engine.now - started)
    return latency, bandwidth


def run() -> Table1Result:
    """Measure every Table 1 row."""
    rows = [
        MemoryTypeRow("Local memory", *_measure(LOCAL_DDR4), 82.0, 97.0),
        MemoryTypeRow("CXL remote (Pond)", *_measure(CXL_POND), 280.0, 31.0),
        MemoryTypeRow("CXL remote (FPGA)", *_measure(CXL_FPGA), 303.0, 20.0),
    ]
    return Table1Result(rows=tuple(rows))
