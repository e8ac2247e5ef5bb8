"""Multi-rack fabric topologies (§3.2's 10–100 TB ambition).

The paper's evaluation is one switch; its vision ("We envision LMPs
providing 10–100 TB of shared memory") needs CXL 3 Port-Based Routing
across cascaded switches.  This module builds those pods as one
routable :class:`RackedSwitch`:

* one leaf switch per rack, each with N servers,
* a spine layer interconnecting the leaves, modelled as one uplink and
  one downlink trunk per rack (configurable trunk width),

and provides the capacity arithmetic (how many racks reach 100 TB)
that the scale-out experiment reports.  The S1 serving scenario and
the A7 experiment run on the same pods.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigError
from repro.fabric.switch import AccessRoute, FabricSwitch
from repro.fabric.transport import MemoryTransport
from repro.hw.latency import LatencyModel
from repro.hw.link import LINK_PRESETS, RemoteLink
from repro.hw.server import Server
from repro.sim.engine import Engine
from repro.sim.fluid import Capacity, FluidModel
from repro.topology.builder import Deployment
from repro.topology.specs import DeploymentKind, DeploymentSpec
from repro.units import gib


@dataclasses.dataclass(frozen=True)
class MultiRackSpec:
    """A leaf-spine pod of LMP racks."""

    racks: int = 4
    servers_per_rack: int = 8
    server_dram_bytes: int = gib(256)
    link: str = "link0"
    trunk_width: float = 4.0  # leaf<->spine capacity in server-link multiples
    hop_latency_ns: float = 25.0  # per wire+retimer+switch-pipeline hop

    def __post_init__(self) -> None:
        if self.racks < 1 or self.servers_per_rack < 1:
            raise ConfigError("racks and servers_per_rack must be >= 1")
        if self.link not in LINK_PRESETS:
            raise ConfigError(f"unknown link {self.link!r}")
        if self.trunk_width < 1.0:
            raise ConfigError("trunk width must be >= 1 server link")

    @property
    def total_servers(self) -> int:
        return self.racks * self.servers_per_rack

    @property
    def pool_capacity_bytes(self) -> int:
        """Pooled capacity when every byte is flexed shared (§4.5)."""
        return self.total_servers * self.server_dram_bytes

    def server_name(self, rack: int, index: int) -> str:
        return f"r{rack}s{index}"

    def leaf_name(self, rack: int) -> str:
        return f"leaf{rack}"


def racks_for_capacity(target_bytes: int, spec: MultiRackSpec) -> int:
    """How many racks of this shape reach *target_bytes* of pool."""
    per_rack = spec.servers_per_rack * spec.server_dram_bytes
    return -(-target_bytes // per_rack)


class RackedSwitch(FabricSwitch):
    """A leaf-spine pod collapsed into one routable switch.

    Same-rack routes behave exactly like the single-switch fabric.
    Cross-rack routes additionally traverse the source rack's uplink
    trunk and the destination rack's downlink trunk (shared
    :class:`~repro.sim.fluid.Capacity` constraints sized by
    ``trunk_width``) and pay two extra fabric hops of latency — the
    leaf -> spine -> leaf path."""

    def __init__(
        self,
        engine: "Engine",
        fluid: FluidModel,
        spec: MultiRackSpec,
        name: str = "pod",
    ) -> None:
        super().__init__(
            engine, fluid, name=name, port_count=spec.total_servers + 1
        )
        self.spec = spec
        self._rack_of: dict[str, int] = {}
        self._cross_latency_ns = 2.0 * spec.hop_latency_ns
        #: one offset curve per endpoint link, so every cross-rack
        #: route through that link shares one curve object
        self._cross_curves: dict[RemoteLink, LatencyModel] = {}
        trunk_rate = LINK_PRESETS[spec.link].bandwidth * spec.trunk_width
        self._trunk_up = [
            Capacity(f"{name}.{spec.leaf_name(r)}.up", trunk_rate)
            for r in range(spec.racks)
        ]
        self._trunk_down = [
            Capacity(f"{name}.{spec.leaf_name(r)}.down", trunk_rate)
            for r in range(spec.racks)
        ]

    def assign_rack(self, endpoint: str, rack: int) -> None:
        if not 0 <= rack < self.spec.racks:
            raise ConfigError(f"rack {rack} out of range for {self.spec.racks} racks")
        self._rack_of[endpoint] = rack

    # -- routing: add the trunk legs to cross-rack paths ----------------------

    def read_route(self, requester: str, owner: str) -> AccessRoute:
        route = super().read_route(requester, owner)
        # data flows owner -> requester
        return self._cross_rack(route, src=owner, dst=requester, link_endpoint=requester)

    def write_route(self, requester: str, owner: str) -> AccessRoute:
        route = super().write_route(requester, owner)
        return self._cross_rack(route, src=requester, dst=owner, link_endpoint=requester)

    def copy_route(self, src_owner: str, dst_owner: str) -> AccessRoute:
        route = super().copy_route(src_owner, dst_owner)
        return self._cross_rack(route, src=src_owner, dst=dst_owner, link_endpoint=dst_owner)

    def _cross_rack(
        self, route: AccessRoute, src: str, dst: str, link_endpoint: str
    ) -> AccessRoute:
        if not route.remote:
            return route
        try:
            src_rack = self._rack_of[src]
            dst_rack = self._rack_of[dst]
        except KeyError as exc:
            # guessing same-rack would silently drop the trunk legs
            raise ConfigError(
                f"endpoint {exc.args[0]!r} is attached to {self.name} but was "
                "never given a rack (call assign_rack)"
            ) from None
        if src_rack == dst_rack:
            return route
        path = route.path + (self._trunk_up[src_rack], self._trunk_down[dst_rack])
        link = self.link_of(link_endpoint)
        curve = self._cross_curves.get(link)
        if curve is None:
            curve = self._cross_curves[link] = link.latency_model.shifted(
                self._cross_latency_ns
            )
        return AccessRoute(
            path=path,
            curve=curve,
            remote=True,
            description=f"{route.description} (x-rack r{src_rack}->r{dst_rack})",
        )


def build_multirack_deployment(
    spec: MultiRackSpec,
    seed: int = 0,
    hybrid_fluid: bool = True,
) -> Deployment:
    """Wire the pod into *functional* hardware: a logical deployment
    whose servers span racks behind a :class:`RackedSwitch`.

    The result is a standard :class:`~repro.topology.builder.Deployment`
    — :class:`~repro.core.runtime.LmpRuntime` and the cluster control
    plane run on it unchanged, which is what lets the 10k-tenant
    serving scenario pool memory across racks.  Server ids are flat
    (``rack * servers_per_rack + index``); names follow
    :meth:`MultiRackSpec.server_name`."""
    # the no-op keyword goes once benchmarks/lmpbench stops passing it
    if not hybrid_fluid:
        raise ConfigError("the per-event fluid mode was removed")
    dspec = DeploymentSpec(
        kind=DeploymentKind.LOGICAL,
        server_count=spec.total_servers,
        server_dram_bytes=spec.server_dram_bytes,
        link=spec.link,
        switch_ports=spec.total_servers + 1,
    )
    engine = Engine(seed=seed)
    fluid = FluidModel(engine)
    switch = RackedSwitch(engine, fluid, spec)
    servers: list[Server] = []
    for server_id in range(spec.total_servers):
        rack, index = divmod(server_id, spec.servers_per_rack)
        server = Server(
            engine,
            fluid,
            server_id=server_id,
            dram_bytes=spec.server_dram_bytes,
            link_spec=dspec.link_spec,
            core_count=dspec.core_count,
            name=spec.server_name(rack, index),
        )
        switch.attach(server.name, server.link, server.dram)
        switch.assign_rack(server.name, rack)
        servers.append(server)
    transport = MemoryTransport(engine, fluid, switch)
    return Deployment(
        spec=dspec,
        engine=engine,
        fluid=fluid,
        switch=switch,
        servers=servers,
        pool=None,
        transport=transport,
    )
