"""CXL-like fabric: switch, routing, transport.

The paper assumes a CXL 3 fabric with Port Based Routing (PBR) and
Global Shared Fabric-Attached Memory (§2.2).  This package models:

* :mod:`repro.fabric.switch` — a single rack switch with ports, building
  bandwidth paths and loaded-latency callbacks for any
  (requester, memory owner) pair,
* :mod:`repro.fabric.routing` — PBR over multi-switch fabrics as a
  networkx graph (beyond the paper's single-switch evaluation, for the
  10–100 TB pools §3.2 envisions),
* :mod:`repro.fabric.transport` — issue reads/writes over routes,
* :mod:`repro.fabric.incast` — measure the incast behaviour §4.2 argues
  about.
"""

from repro.fabric.routing import FabricGraph
from repro.fabric.switch import AccessRoute, FabricSwitch
from repro.fabric.transport import MemoryTransport

__all__ = [
    "AccessRoute",
    "FabricGraph",
    "FabricSwitch",
    "MemoryTransport",
]
