"""Adversarial allocation traces for the gauntlet.

Each generator produces a deterministic list of :class:`TraceOp` from a
seed (via :class:`~repro.sim.rng.RngStreams`, so two same-seed calls are
identical).  Ops name logical *slots*, not addresses — the gauntlet maps
slots to the handles the allocator grants, and a compaction pass can
move those handles without touching the trace.

The four workloads each provoke a known allocator failure mode:

``churn``
    steady-state alloc/free mix at a fixed live population — measures
    whether recycling holds fragmentation flat over time.
``bimodal``
    90 % small / 10 % large requests — interleaved lifetimes shred the
    address space into holes too small for the large class.
``pinning``
    long-lived blocks pinned across the address space early, churn
    around them forever — the workload where only compaction (or
    segregated placement) saves the largest hole.
``zipf``
    tenant-skewed churn (Zipf popularity over 8 tenants) — each
    tenant's lifetimes interleave with every other tenant's in one
    shared address space.
"""

from __future__ import annotations

import bisect
import dataclasses
import typing as _t

from repro.sim.rng import RngStreams

ALLOC = "alloc"
FREE = "free"


@dataclasses.dataclass(frozen=True, slots=True)
class TraceOp:
    """One step of an allocation trace.

    ``slot`` is a logical identifier: an ``alloc`` op binds it, the
    matching ``free`` op releases it.  ``size`` is meaningful only for
    allocs.
    """

    kind: str
    slot: int
    size: int = 0


class _Builder:
    """Slot bookkeeping while a generator emits ops."""

    def __init__(self) -> None:
        self.ops: list[TraceOp] = []
        self.live: list[int] = []  # sorted live slots
        self._next = 0

    def alloc(self, size: int) -> int:
        slot = self._next
        self._next += 1
        self.ops.append(TraceOp(ALLOC, slot, size))
        bisect.insort(self.live, slot)
        return slot

    def free(self, slot: int) -> None:
        self.ops.append(TraceOp(FREE, slot))
        self.live.pop(bisect.bisect_left(self.live, slot))

    def free_random(self, rng: _t.Any) -> None:
        self.free(self.live[rng.randrange(len(self.live))])


def churn_trace(ops: int = 20000, seed: int = 0) -> list[TraceOp]:
    """Steady-state churn: uniform 64 B – 4 KiB, ~192 live blocks."""
    rng = RngStreams(seed).stream("trace.churn")
    b = _Builder()
    target = 192
    while len(b.ops) < ops:
        low_pressure = len(b.live) < target // 2
        high_pressure = len(b.live) > target + target // 2
        if low_pressure or (not high_pressure and rng.random() < 0.5):
            b.alloc(rng.randint(64, 4096))
        else:
            b.free_random(rng)
    return b.ops


def bimodal_trace(ops: int = 20000, seed: int = 0) -> list[TraceOp]:
    """90 % small (64–512 B), 10 % large (8–32 KiB), interleaved lifetimes."""
    rng = RngStreams(seed).stream("trace.bimodal")
    b = _Builder()
    target = 96
    while len(b.ops) < ops:
        low_pressure = len(b.live) < target // 2
        high_pressure = len(b.live) > target + target // 2
        if low_pressure or (not high_pressure and rng.random() < 0.5):
            if rng.random() < 0.9:
                b.alloc(rng.randint(64, 512))
            else:
                b.alloc(rng.randint(8192, 32768))
        else:
            b.free_random(rng)
    return b.ops


def pinning_trace(ops: int = 20000, seed: int = 0) -> list[TraceOp]:
    """Long-lived pins scattered by churn, then churn around them.

    The placement phase allocates a burst of short-lived filler before
    each pin and frees the filler afterwards, so the pins land spread
    across the address space — the worst case for largest-hole survival.
    """
    rng = RngStreams(seed).stream("trace.pinning")
    b = _Builder()
    pins: list[int] = []
    for _ in range(24):
        filler = [b.alloc(rng.randint(256, 2048)) for _ in range(12)]
        pins.append(b.alloc(2048))
        for slot in filler:
            b.free(slot)
    pinned = set(pins)
    target = 128
    while len(b.ops) < ops:
        unpinned = len(b.live) - len(pins)
        if unpinned < target // 2 or (unpinned < target * 2 and rng.random() < 0.5):
            b.alloc(rng.randint(64, 4096))
        else:
            slot = b.live[rng.randrange(len(b.live))]
            while slot in pinned:
                slot = b.live[rng.randrange(len(b.live))]
            b.free(slot)
    return b.ops


def zipf_trace(ops: int = 20000, seed: int = 0, tenants: int = 8) -> list[TraceOp]:
    """Tenant-skewed churn: Zipf(1.2) popularity over *tenants* tenants."""
    rng = RngStreams(seed).stream("trace.zipf")
    weights = [1.0 / (rank**1.2) for rank in range(1, tenants + 1)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    b = _Builder()
    per_tenant: dict[str, list[int]] = {f"t{i}": [] for i in range(tenants)}
    target = 24  # live blocks per tenant, scaled by popularity below
    while len(b.ops) < ops:
        tenant = f"t{bisect.bisect_left(cumulative, rng.random())}"
        mine = per_tenant[tenant]
        if len(mine) < target or rng.random() < 0.5:
            mine.append(b.alloc(rng.randint(64, 2048)))
        else:
            slot = mine.pop(rng.randrange(len(mine)))
            b.free(slot)
    return b.ops


#: trace name -> generator(ops=, seed=)
TRACES: dict[str, _t.Callable[..., list[TraceOp]]] = {
    "churn": churn_trace,
    "bimodal": bimodal_trace,
    "pinning": pinning_trace,
    "zipf": zipf_trace,
}


def trace_names() -> list[str]:
    """The registered trace names, sorted."""
    return sorted(TRACES)


def make_trace(name: str, ops: int = 20000, seed: int = 0) -> list[TraceOp]:
    """Build trace *name*; raises ``KeyError`` for unknown names."""
    return TRACES[name](ops=ops, seed=seed)
