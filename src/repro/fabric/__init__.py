"""CXL-like fabric: switch, transport, incast.

The paper assumes a CXL 3 fabric with Port Based Routing (PBR) and
Global Shared Fabric-Attached Memory (§2.2).  This package models:

* :mod:`repro.fabric.switch` — a single rack switch with ports, building
  bandwidth paths and loaded-latency callbacks for any
  (requester, memory owner) pair; multi-rack pods (beyond the paper's
  single-switch evaluation, for the 10–100 TB pools §3.2 envisions)
  extend it with leaf-spine trunks in
  :class:`repro.topology.multirack.RackedSwitch`,
* :mod:`repro.fabric.transport` — issue reads/writes over routes,
* :mod:`repro.fabric.incast` — measure the incast behaviour §4.2 argues
  about.
"""

from repro.fabric.switch import AccessRoute, FabricSwitch
from repro.fabric.transport import MemoryTransport

__all__ = [
    "AccessRoute",
    "FabricSwitch",
    "MemoryTransport",
]
