"""The rack fabric switch.

The switch's job in the model is to answer one question: *what does an
access from requester R to memory owned by O cross, and at what
latency?*  The answer is an :class:`AccessRoute` — an ordered chain of
bandwidth constraints plus the loaded-latency curve that applies at the
hottest of them — which cores and the transport hand to the fluid
solver.

Latency semantics follow the paper's tables: a local access is governed
by the DRAM device's curve (Table 1: 82 ns local), a remote access by
the fabric link's curve (Table 2: 163–418 ns Link0, 261–527 ns Link1 —
those measurements already include the remote memory access, so the
link curve is the end-to-end remote curve).  Either way the latency is
``curve(u)`` with ``u`` the utilization of the hottest capacity on the
route, the queue actually forming.  Routes carry the device's or
link's own curve object, so every core streaming one route shares one
load-capped flow group in the solver.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigError
from repro.hw.dram import MemoryDevice
from repro.hw.latency import LatencyModel
from repro.hw.link import RemoteLink
from repro.sim.fluid import Capacity, FluidModel, path_utilization

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


@dataclasses.dataclass(frozen=True)
class AccessRoute:
    """Everything needed to move bytes between a requester and memory."""

    path: tuple[Capacity, ...]
    #: utilization of the hottest capacity on *path* -> latency in ns
    curve: LatencyModel
    remote: bool
    description: str = ""

    def loaded_latency(self) -> float:
        """The latency at the path's current load."""
        return self.curve(path_utilization(self.path))


@dataclasses.dataclass
class _Port:
    """One switch port: an attached endpoint with its link and memory."""

    name: str
    link: RemoteLink
    device: MemoryDevice | None


class FabricSwitch:
    """A single non-blocking rack switch with PBR-style port lookup:
    per-port limits only, like the paper's assumed CXL fabric switch."""

    def __init__(
        self,
        engine: "Engine",
        fluid: FluidModel,
        name: str = "switch",
        port_count: int = 32,
    ) -> None:
        if port_count < 1:
            raise ConfigError(f"port_count must be >= 1, got {port_count}")
        self.engine = engine
        self.fluid = fluid
        self.name = name
        self.port_count = port_count
        self._ports: dict[str, _Port] = {}

    # -- wiring ---------------------------------------------------------------

    def attach(self, name: str, link: RemoteLink, device: MemoryDevice | None) -> None:
        """Plug an endpoint into a free port.

        *device* is the endpoint's memory reachable through the fabric
        (a server's DRAM, the pool box's DRAM); compute-only endpoints
        pass ``None``.
        """
        if name in self._ports:
            raise ConfigError(f"endpoint {name!r} already attached to {self.name}")
        if len(self._ports) >= self.port_count:
            raise ConfigError(
                f"switch {self.name} is out of ports ({self.port_count}); "
                "physical pools consume extra ports — the paper's cost point"
            )
        self._ports[name] = _Port(name, link, device)

    def _port(self, name: str) -> _Port:
        try:
            return self._ports[name]
        except KeyError:
            known = ", ".join(sorted(self._ports))
            raise ConfigError(f"unknown endpoint {name!r}; attached: {known}") from None

    def device_of(self, name: str) -> MemoryDevice:
        device = self._port(name).device
        if device is None:
            raise ConfigError(f"endpoint {name!r} exposes no memory")
        return device

    def link_of(self, name: str) -> RemoteLink:
        return self._port(name).link

    # -- routing --------------------------------------------------------------

    def read_route(self, requester: str, owner: str) -> AccessRoute:
        """Route for *requester* loading from memory owned by *owner*.

        Data flows owner's DRAM -> owner's uplink -> requester's
        downlink.  A same-endpoint access never touches the fabric — the
        logical pool's key performance property (§3.1).
        """
        owner_port = self._port(owner)
        device = owner_port.device
        if device is None:
            raise ConfigError(f"endpoint {owner!r} exposes no memory")
        if requester == owner:
            return AccessRoute(
                path=(device.channel,),
                curve=device.latency_model,
                remote=False,
                description=f"{requester} local",
            )
        requester_port = self._port(requester)
        return AccessRoute(
            path=(device.channel, owner_port.link.up, requester_port.link.down),
            curve=requester_port.link.latency_model,
            remote=True,
            description=f"{requester} reads {owner}",
        )

    def write_route(self, requester: str, owner: str) -> AccessRoute:
        """Route for *requester* storing to memory owned by *owner*;
        data flows the opposite direction through the links."""
        owner_port = self._port(owner)
        device = owner_port.device
        if device is None:
            raise ConfigError(f"endpoint {owner!r} exposes no memory")
        if requester == owner:
            return AccessRoute(
                path=(device.channel,),
                curve=device.latency_model,
                remote=False,
                description=f"{requester} local write",
            )
        requester_port = self._port(requester)
        return AccessRoute(
            path=(requester_port.link.up, owner_port.link.down, device.channel),
            curve=requester_port.link.latency_model,
            remote=True,
            description=f"{requester} writes {owner}",
        )

    def copy_route(self, src_owner: str, dst_owner: str) -> AccessRoute:
        """Route for a fabric-level copy (migration, cache fill): bytes
        leave *src_owner*'s DRAM and land in *dst_owner*'s DRAM."""
        src = self._port(src_owner)
        dst = self._port(dst_owner)
        if src.device is None or dst.device is None:
            raise ConfigError("copy endpoints must both expose memory")
        if src_owner == dst_owner:
            return AccessRoute(
                path=(src.device.channel,),
                curve=src.device.latency_model,
                remote=False,
                description=f"{src_owner} local copy",
            )
        return AccessRoute(
            path=(src.device.channel, src.link.up, dst.link.down, dst.device.channel),
            curve=dst.link.latency_model,
            remote=True,
            description=f"copy {src_owner} -> {dst_owner}",
        )

