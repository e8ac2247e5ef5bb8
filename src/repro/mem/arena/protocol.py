"""The shared-pool allocator protocol and strategy registry.

The paper's flexibility argument rests on a *shared* logical pool
absorbing many tenants' churning allocations without fragmenting into
uselessness.  That makes the allocation strategy a first-class axis —
DRackSim and CXL-ClusterSim treat it exactly so at rack scale — and
this module is the seam everything selects it through:

* :class:`AllocatorProtocol` — the structural interface extracted from
  the two classic allocators in :mod:`repro.mem.allocator`.  Everything
  downstream (the gauntlet, the compactor, the pools, the sanitizers)
  talks to this protocol, never to a concrete class.
* :data:`ALLOCATORS` — name -> factory for the five competing
  strategies; :func:`make_allocator` is the one constructor call sites
  use, so cluster scenarios can select an allocator per pool by name.

The five strategies::

    first-fit     sorted free list, first fit, eager coalescing
    best-fit      size-indexed free list, tightest fit in O(log n)
    buddy         power-of-two buddy system, bounded fragmentation
    slab          jemalloc-style size-class bins over carved slab runs
    tenant-arena  per-tenant magazines refilled from a shared slab heap
"""

from __future__ import annotations

import typing as _t

from repro.errors import ConfigError
from repro.mem.allocator import Allocation, BuddyAllocator, FreeListAllocator


@_t.runtime_checkable
class AllocatorProtocol(_t.Protocol):
    """What every shared-pool allocation strategy must provide.

    The contract the gauntlet's stateful property tests enforce across
    all implementations: granted ranges never overlap, byte accounting
    conserves (``bytes_allocated + bytes_free == capacity`` at the
    caller-visible level), and misuse raises typed
    :class:`~repro.errors.AllocationError` subclasses.
    """

    capacity: int
    bytes_allocated: int
    alloc_count: int
    fail_count: int
    #: True when :class:`~repro.core.migration.ArenaCompactor` may call
    #: ``relocate()`` on this allocator to close holes
    supports_compaction: bool

    @property
    def bytes_free(self) -> int: ...

    @property
    def largest_hole(self) -> int: ...

    def fragmentation(self) -> float:
        """External fragmentation in [0, 1]: 1 - largest_hole/free."""
        ...

    def allocate(self, size: int) -> Allocation: ...

    def free(self, allocation: Allocation | int) -> None: ...

    def live_allocations(self) -> list[Allocation]:
        """Every caller-live range, sorted by offset."""
        ...

    def check_invariants(self) -> None: ...


@_t.runtime_checkable
class TenantAwareAllocator(AllocatorProtocol, _t.Protocol):
    """An allocator that attributes allocations to tenants (the
    per-tenant arena strategy); plain ``allocate`` charges a default
    tenant so the base protocol still holds."""

    def allocate_for(self, tenant: str, size: int) -> Allocation: ...


@_t.runtime_checkable
class RelocatableAllocator(AllocatorProtocol, _t.Protocol):
    """An allocator compaction can drive (``supports_compaction``)."""

    def relocate(self, allocation: Allocation | int) -> Allocation: ...


#: factory signature every registry entry satisfies
AllocatorFactory = _t.Callable[..., AllocatorProtocol]


def _make_buddy(
    capacity: int, align: int | None = None, **kwargs: _t.Any
) -> BuddyAllocator:
    # the buddy system's granularity knob is min_block; an alignment
    # request maps onto it (every buddy block is min_block-aligned)
    kwargs.setdefault("min_block", align if align is not None else 256)
    return BuddyAllocator(capacity, **kwargs)


def _make_slab(
    capacity: int, align: int | None = None, **kwargs: _t.Any
) -> AllocatorProtocol:
    from repro.mem.arena.slab import SlabAllocator

    if align is not None:
        kwargs.setdefault("quantum", align)
        kwargs.setdefault("slab_bytes", max(16384, align * 16))
    return SlabAllocator(capacity, **kwargs)


def _make_tenant(
    capacity: int, align: int | None = None, **kwargs: _t.Any
) -> AllocatorProtocol:
    from repro.mem.arena.tenant import TenantArenaAllocator

    if align is not None:
        kwargs.setdefault("quantum", align)
        kwargs.setdefault("slab_bytes", max(16384, align * 16))
    return TenantArenaAllocator(capacity, **kwargs)


def _registry() -> dict[str, AllocatorFactory]:
    # late imports: the strategy modules import this one for the
    # protocol types, so the registry resolves them lazily
    from repro.mem.arena.bestfit import BestFitAllocator

    return {
        "first-fit": FreeListAllocator,
        "best-fit": BestFitAllocator,
        "buddy": _make_buddy,
        "slab": _make_slab,
        "tenant-arena": _make_tenant,
    }


#: the five competing strategies, by the name CLI/config select them with
ALLOCATORS: dict[str, AllocatorFactory] = {}


def allocator_names() -> list[str]:
    """The registered strategy names, sorted."""
    if not ALLOCATORS:
        ALLOCATORS.update(_registry())
    return sorted(ALLOCATORS)


def make_allocator(name: str, capacity: int, **kwargs: _t.Any) -> AllocatorProtocol:
    """Build the strategy *name* over a *capacity*-byte range.

    Extra keyword arguments reach the concrete constructor (``align``,
    ``min_block``, ``magazine_size``, ...).
    """
    if not ALLOCATORS:
        ALLOCATORS.update(_registry())
    try:
        factory = ALLOCATORS[name]
    except KeyError:
        known = ", ".join(sorted(ALLOCATORS))
        raise ConfigError(f"unknown allocator {name!r} (known: {known})") from None
    return factory(capacity, **kwargs)
