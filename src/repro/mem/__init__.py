"""Memory-management substrate.

The building blocks under the LMP runtime's addressing scheme (§5
"Address translation"):

* :mod:`repro.mem.layout` — addresses, extents, page geometry,
  private/shared/coherent region descriptors,
* :mod:`repro.mem.allocator` — the first-fit free-list allocator that
  carves physical ranges out of a device,
* :mod:`repro.mem.arena` — the adversarial-trace gauntlet that scores
  the allocator's fragmentation under churn,
* :mod:`repro.mem.page_table` — the *fine-grained, resolved locally*
  second translation step (logical page -> local frame),
* :mod:`repro.mem.global_map` — the *coarse-grained, globally
  accessible* first step (logical extent -> owning server),
* :mod:`repro.mem.interleave` — placement policies spreading an
  allocation across the pool's shared regions.
"""

from repro.mem.allocator import FreeListAllocator
from repro.mem.global_map import GlobalMap, MapCache, MapEntry
from repro.mem.interleave import (
    CapacityWeightedPlacement,
    LocalFirstPlacement,
    PlacementPolicy,
    RoundRobinPlacement,
)
from repro.mem.layout import (
    GlobalAddress,
    PageGeometry,
    Region,
    RegionKind,
)
from repro.mem.page_table import PageTable, Protection

__all__ = [
    "CapacityWeightedPlacement",
    "FreeListAllocator",
    "GlobalAddress",
    "GlobalMap",
    "LocalFirstPlacement",
    "MapCache",
    "MapEntry",
    "PageGeometry",
    "PageTable",
    "PlacementPolicy",
    "Protection",
    "Region",
    "RegionKind",
    "RoundRobinPlacement",
]
