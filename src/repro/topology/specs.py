"""Declarative deployment specifications.

The paper's §4.1 evaluates three configurations, all with 4 servers and
a 96 GB total memory budget:

* **Logical** — the 96 GB is spread uniformly: 24 GB per server, every
  byte eligible for the logical pool.
* **Physical cache** — servers keep 8 GB local used as a cache of the
  64 GB physical pool.
* **Physical no-cache** — same memory split, but local memory is not
  used as a cache of pooled data.

``DeploymentSpec`` captures these (and arbitrary variations) as data;
:mod:`repro.topology.builder` turns a spec into simulated hardware.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.errors import ConfigError
from repro.hw.link import LINK_PRESETS, LinkSpec
from repro.units import gib, mib


class DeploymentKind(enum.Enum):
    """The three §4.1 configurations."""

    LOGICAL = "logical"
    PHYSICAL_CACHE = "physical-cache"
    PHYSICAL_NOCACHE = "physical-nocache"

    @property
    def is_physical(self) -> bool:
        return self is not DeploymentKind.LOGICAL


@dataclasses.dataclass(frozen=True)
class DeploymentSpec:
    """A complete rack deployment description."""

    kind: DeploymentKind
    server_count: int = 4
    server_dram_bytes: int = gib(24)
    pool_dram_bytes: int = 0
    link: str = "link0"
    pool_link_width: float = 1.0
    core_count: int = 14
    cache_page_bytes: int = mib(2)
    switch_ports: int = 32

    def __post_init__(self) -> None:
        if self.server_count < 1:
            raise ConfigError("need at least one server")
        if self.server_dram_bytes <= 0:
            raise ConfigError("server DRAM must be positive")
        if self.kind.is_physical and self.pool_dram_bytes <= 0:
            raise ConfigError(f"{self.kind.value} deployments need pool memory")
        if not self.kind.is_physical and self.pool_dram_bytes:
            raise ConfigError("logical deployments have no pool box")
        if self.link not in LINK_PRESETS:
            known = ", ".join(sorted(LINK_PRESETS))
            raise ConfigError(f"unknown link {self.link!r}; known: {known}")
        if self.pool_link_width < 1.0:
            raise ConfigError("pool link width must be >= 1")

    # -- derived quantities -----------------------------------------------------

    @property
    def link_spec(self) -> LinkSpec:
        return LINK_PRESETS[self.link]

    @property
    def pool_link_spec(self) -> LinkSpec:
        base = LINK_PRESETS[self.link]
        return LinkSpec(base.device, width=self.pool_link_width)

    @property
    def total_memory_bytes(self) -> int:
        return self.server_count * self.server_dram_bytes + self.pool_dram_bytes

    @property
    def ports_needed(self) -> int:
        """Fabric switch ports the deployment consumes (a §4.2 cost)."""
        pool_ports = 0
        if self.kind.is_physical:
            pool_ports = max(1, int(self.pool_link_width))
        return self.server_count + pool_ports


# --- the paper's §4.1 configurations -----------------------------------------


def paper_logical(link: str = "link0") -> DeploymentSpec:
    """Logical: 96 GB spread uniformly, 24 GB per server."""
    return DeploymentSpec(
        kind=DeploymentKind.LOGICAL,
        server_count=4,
        server_dram_bytes=gib(24),
        link=link,
    )


def paper_physical_cache(link: str = "link0", pool_link_width: float = 1.0) -> DeploymentSpec:
    """Physical cache: 8 GB local (used as cache) + 64 GB pool."""
    return DeploymentSpec(
        kind=DeploymentKind.PHYSICAL_CACHE,
        server_count=4,
        server_dram_bytes=gib(8),
        pool_dram_bytes=gib(64),
        link=link,
        pool_link_width=pool_link_width,
    )


def paper_physical_nocache(link: str = "link0", pool_link_width: float = 1.0) -> DeploymentSpec:
    """Physical no-cache: 8 GB local (not caching) + 64 GB pool."""
    return DeploymentSpec(
        kind=DeploymentKind.PHYSICAL_NOCACHE,
        server_count=4,
        server_dram_bytes=gib(8),
        pool_dram_bytes=gib(64),
        link=link,
        pool_link_width=pool_link_width,
    )
