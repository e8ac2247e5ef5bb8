"""Server model: DRAM + cores + fabric attachment.

A server owns one :class:`~repro.hw.dram.MemoryDevice` (its DIMMs), one
:class:`~repro.hw.cpu.CpuSocket` (the paper's testbed pins 14 cores),
and one :class:`~repro.hw.link.RemoteLink` to the fabric switch.  In a
logical pool the server's DRAM is split into private and shared regions
by the LMP runtime (:mod:`repro.core.regions`); the hardware model
doesn't know about the split — exactly as real DIMMs wouldn't.
"""

from __future__ import annotations

import typing as _t

from repro.hw.cpu import CpuSocket
from repro.hw.dram import MemoryDevice
from repro.hw.link import LinkSpec, RemoteLink
from repro.hw.specs import DeviceSpec, LOCAL_DDR4
from repro.sim.fluid import FluidModel

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


class Server:
    """One rack server participating in (or merely using) a memory pool."""

    def __init__(
        self,
        engine: "Engine",
        fluid: FluidModel,
        server_id: int,
        dram_bytes: int,
        link_spec: LinkSpec,
        dram_spec: DeviceSpec = LOCAL_DDR4,
        core_count: int = 14,
        name: str = "",
    ) -> None:
        self.engine = engine
        self.fluid = fluid
        self.server_id = server_id
        self.name = name or f"server{server_id}"
        self.dram = MemoryDevice(engine, fluid, dram_spec, dram_bytes, name=f"{self.name}.dram")
        self.link = RemoteLink(engine, fluid, link_spec, name=f"{self.name}.link")
        self.socket = CpuSocket(engine, fluid, name=f"{self.name}.cpu", core_count=core_count)
        #: set by the failure detector when the host crashes
        self.alive = True
        self._crash_hooks: list[_t.Callable[[], None]] = []

    @property
    def dram_bytes(self) -> int:
        return self.dram.capacity_bytes

    def on_crash(self, hook: _t.Callable[[], None]) -> None:
        """Run *hook* when this host crashes — how a pool's free ledger
        drops the host without polling ``alive`` on every query."""
        self._crash_hooks.append(hook)

    def crash(self) -> None:
        """Mark the host dead and drop its memory contents (its share of
        the logical pool dies with it — the paper's §5 failure domain)."""
        self.alive = False
        self.dram.store.discard(0, self.dram.capacity_bytes)
        for hook in self._crash_hooks:
            hook()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "up" if self.alive else "CRASHED"
        return f"<Server {self.name} {self.dram_bytes}B {status}>"
