"""Instantiate a :class:`~repro.topology.specs.DeploymentSpec` into
simulated hardware: an engine, a fluid solver, servers, the optional
pool box, a wired fabric switch, and the memory transport over it.

There is one wiring: the engine's binary-heap event queue, the
transition-driven fluid solver, and callback-chained transport
operations (``docs/performance.md``).

A :class:`Deployment` is the hardware-level handle every higher layer
(pools, workloads, experiments) operates on.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigError
from repro.fabric.switch import FabricSwitch
from repro.fabric.transport import MemoryTransport
from repro.hw.pool_device import PoolDevice
from repro.hw.server import Server
from repro.sim.engine import Engine
from repro.sim.fluid import FluidModel
from repro.topology.specs import DeploymentKind, DeploymentSpec, paper_logical, paper_physical_cache, paper_physical_nocache


@dataclasses.dataclass
class Deployment:
    """A fully wired simulated rack."""

    spec: DeploymentSpec
    engine: Engine
    fluid: FluidModel
    switch: FabricSwitch
    servers: list[Server]
    pool: PoolDevice | None
    transport: MemoryTransport

    @property
    def kind(self) -> DeploymentKind:
        return self.spec.kind

    def server(self, server_id: int) -> Server:
        try:
            return self.servers[server_id]
        except IndexError:
            raise ConfigError(
                f"no server {server_id}; deployment has {len(self.servers)}"
            ) from None

    @property
    def pool_endpoint(self) -> str:
        if self.pool is None:
            raise ConfigError("logical deployments have no pool endpoint")
        return self.pool.name

    def run(self, until: _t.Any = None) -> _t.Any:
        """Convenience passthrough to the engine."""
        return self.engine.run(until)


def build(spec: DeploymentSpec, seed: int = 0) -> Deployment:
    """Wire the spec into hardware on a fresh engine."""
    engine = Engine(seed=seed)
    fluid = FluidModel(engine)
    switch = FabricSwitch(engine, fluid, port_count=spec.switch_ports)

    servers = [
        Server(
            engine,
            fluid,
            server_id=i,
            dram_bytes=spec.server_dram_bytes,
            link_spec=spec.link_spec,
            core_count=spec.core_count,
        )
        for i in range(spec.server_count)
    ]
    for server in servers:
        switch.attach(server.name, server.link, server.dram)

    pool: PoolDevice | None = None
    if spec.kind.is_physical:
        pool = PoolDevice(engine, fluid, spec.pool_dram_bytes, spec.pool_link_spec)
        switch.attach(pool.name, pool.link, pool.dram)

    transport = MemoryTransport(engine, fluid, switch)
    return Deployment(
        spec=spec,
        engine=engine,
        fluid=fluid,
        switch=switch,
        servers=servers,
        pool=pool,
        transport=transport,
    )


def build_logical(link: str = "link0", seed: int = 0, **overrides: _t.Any) -> Deployment:
    """The paper's Logical configuration (or a variation of it).

    *overrides* replace fields on the spec.
    """
    # the no-op keyword goes once benchmarks/lmpbench stops passing it
    if not overrides.pop("hybrid_fluid", True):
        raise ConfigError("the per-event fluid mode was removed")
    spec = paper_logical(link)
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    return build(spec, seed=seed)


def build_physical(
    link: str = "link0",
    cache: bool = True,
    seed: int = 0,
    **overrides: _t.Any,
) -> Deployment:
    """The paper's Physical cache / Physical no-cache configurations."""
    spec = paper_physical_cache(link) if cache else paper_physical_nocache(link)
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    return build(spec, seed=seed)
