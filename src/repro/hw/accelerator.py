"""Type-2 accelerator model (GPU / FPGA beside the memory).

§1: logical pools support near-memory computing "because servers
already have powerful processors connected to the memory — not only
CPUs, but possibly GPUs and other accelerators."  CXL calls these
Type-1/Type-2 devices (§2.2).

The model captures what matters for near-memory offload:

* a **kernel-launch overhead** per task (driver + doorbell + schedule,
  ~5 µs — why tiny tasks don't offload well),
* **DMA streaming** through the server's DRAM channel with deep queues
  (one engine saturates the channel where a CPU core cannot — the
  ``dma_rate`` cap models the device's own ceiling),
* **occupancy accounting**, so experiments can report the CPU
  core-time an offload frees — the real win of accelerator shipping,
  since DRAM bandwidth bounds either engine.
"""

from __future__ import annotations

import typing as _t

from repro.errors import ConfigError
from repro.sim.fluid import Capacity, FluidModel
from repro.units import us

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.server import Server
    from repro.sim.engine import Engine
    from repro.sim.process import Process


class Accelerator:
    """One near-memory compute engine attached to a server."""

    def __init__(
        self,
        engine: "Engine",
        fluid: FluidModel,
        server: "Server",
        name: str = "",
        dma_rate: float = 120.0,  # bytes/ns the device's DMA engines sustain
        launch_overhead_ns: float = us(5),
    ) -> None:
        if dma_rate <= 0:
            raise ConfigError(f"dma_rate must be positive, got {dma_rate}")
        if launch_overhead_ns < 0:
            raise ConfigError("launch overhead cannot be negative")
        self.engine = engine
        self.fluid = fluid
        self.server = server
        self.name = name or f"{server.name}.accel"
        self.dma_rate = dma_rate
        self.launch_overhead_ns = launch_overhead_ns
        self.kernels_launched = 0
        self.bytes_processed = 0
        self.busy_ns = 0.0

    def scan(self, path: tuple[Capacity, ...], nbytes: int) -> "Process":
        """Stream *nbytes* through *path* as one kernel; the process
        returns the bytes processed."""
        return self.engine.process(
            self._scan_body(path, nbytes), name=f"{self.name}.scan"
        )

    def _scan_body(self, path: tuple[Capacity, ...], nbytes: int):
        started = self.engine.now
        self.kernels_launched += 1
        yield self.engine.timeout(self.launch_overhead_ns)
        yield self.fluid.transfer(path, nbytes, rate_cap=self.dma_rate, tag=self.name)
        self.bytes_processed += nbytes
        self.busy_ns += self.engine.now - started
        return nbytes
