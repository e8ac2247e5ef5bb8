"""Runtime sanitizers: ASan-style checks for the simulated memory system.

We have no silicon to validate the models against, so the sanitizers
enforce the invariants real hardware would:

* :class:`AllocSanitizer` shadows every :class:`FreeListAllocator` and
  :class:`~repro.core.regions.RegionManager` frame pool and detects
  double-free, use-after-free, overlapping grants, and leaked blocks at
  scenario teardown.
* :class:`CoherenceSanitizer` re-checks MESI-style invariants on the
  coherence directory after every protocol transition: at most one
  Modified owner, no Shared copies coexisting with Modified, and the
  home's snoop filter consistent with the sharer sets.

Both install process-wide (the test suite enables them for every test
via ``tests/conftest.py``) and uninstall cleanly.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import typing as _t

from repro.errors import (
    CoherenceInvariantError,
    DoubleFreeError,
    MemoryLeakError,
    OverlapError,
    SanitizerError,
    UseAfterFreeError,
)
from repro.core.regions import RegionManager
from repro.mem.allocator import Allocation, FreeListAllocator, handle_offset

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.coherence.protocol import CoherenceDirectory


# -- allocation sanitizer -----------------------------------------------------


@dataclasses.dataclass
class _AllocState:
    """Shadow bookkeeping for one allocator instance."""

    live: dict[int, int] = dataclasses.field(default_factory=dict)  # offset -> size
    freed: dict[int, int] = dataclasses.field(default_factory=dict)  # offset -> size
    offsets: list[int] = dataclasses.field(default_factory=list)  # sorted live offsets

    def overlapping_live(self, offset: int, size: int) -> tuple[int, int] | None:
        """A live block intersecting [offset, offset+size), if any."""
        i = bisect.bisect_right(self.offsets, offset)
        if i > 0:
            prev = self.offsets[i - 1]
            if prev + self.live[prev] > offset:
                return prev, self.live[prev]
        if i < len(self.offsets) and self.offsets[i] < offset + size:
            nxt = self.offsets[i]
            return nxt, self.live[nxt]
        return None

    def record_alloc(self, offset: int, size: int) -> None:
        self.live[offset] = size
        bisect.insort(self.offsets, offset)
        # reallocation legitimizes previously freed ranges it covers
        for freed_off in [
            o for o, s in self.freed.items() if o < offset + size and o + s > offset
        ]:
            del self.freed[freed_off]

    def record_free(self, offset: int) -> None:
        size = self.live.pop(offset)
        self.offsets.pop(bisect.bisect_left(self.offsets, offset))
        self.freed[offset] = size


_AnyAllocator = _t.Union[FreeListAllocator, RegionManager]


class AllocSanitizer:
    """Wraps the allocators with shadow range tracking.

    ``install()`` patches ``allocate``/``free`` on
    :class:`~repro.mem.allocator.FreeListAllocator`; every instance (old
    or new) is tracked from its next call on.  Misuse raises precise
    :class:`~repro.errors.SanitizerError` subclasses that still inherit
    the plain allocator errors, so code guarding ``AllocationError``
    keeps working.

    :class:`~repro.core.regions.RegionManager` frame pools (the logical
    pool's real backing store) are shadowed too, one page-sized block
    per frame — which is how the cluster control plane proves that
    revoking a tenant's leases reclaims every frame it held.
    """

    _active: _t.ClassVar["AllocSanitizer | None"] = None

    #: attribute the shadow state lives under on each allocator instance
    #: (NOT keyed by id(): ids are reused once an allocator is collected)
    _STATE_ATTR = "_repro_check_shadow"

    def __init__(self) -> None:
        self._originals: tuple[_t.Callable, _t.Callable] | None = None
        self._region_originals: tuple[_t.Callable, _t.Callable] | None = None

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if AllocSanitizer._active is not None:
            raise SanitizerError("an AllocSanitizer is already installed")
        self._originals = (FreeListAllocator.allocate, FreeListAllocator.free)
        FreeListAllocator.allocate = self._wrap_allocate(  # type: ignore[method-assign]
            FreeListAllocator.allocate
        )
        FreeListAllocator.free = self._wrap_free(  # type: ignore[method-assign]
            FreeListAllocator.free
        )
        self._region_originals = (
            RegionManager.allocate_frames,
            RegionManager.free_frames,
        )
        RegionManager.allocate_frames = self._wrap_allocate_frames(  # type: ignore[method-assign]
            RegionManager.allocate_frames
        )
        RegionManager.free_frames = self._wrap_free_frames(  # type: ignore[method-assign]
            RegionManager.free_frames
        )
        AllocSanitizer._active = self

    def uninstall(self) -> None:
        if AllocSanitizer._active is not self:
            raise SanitizerError("this AllocSanitizer is not installed")
        assert self._originals is not None and self._region_originals is not None
        FreeListAllocator.allocate, FreeListAllocator.free = (  # type: ignore[method-assign]
            self._originals
        )
        self._originals = None
        RegionManager.allocate_frames, RegionManager.free_frames = (  # type: ignore[method-assign]
            self._region_originals
        )
        self._region_originals = None
        AllocSanitizer._active = None

    @contextlib.contextmanager
    def installed(self) -> _t.Iterator["AllocSanitizer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _state(self, allocator: _AnyAllocator) -> _AllocState:
        state = allocator.__dict__.get(self._STATE_ATTR)
        if state is None:
            state = _AllocState()
            allocator.__dict__[self._STATE_ATTR] = state
        return state

    # -- wrappers ------------------------------------------------------------

    def _wrap_allocate(self, inner: _t.Callable) -> _t.Callable:
        sanitizer = self

        def allocate(alloc_self: FreeListAllocator, size: int) -> Allocation:
            granted: Allocation = inner(alloc_self, size)
            state = sanitizer._state(alloc_self)
            clash = state.overlapping_live(granted.offset, granted.size)
            if clash is not None:
                raise OverlapError(
                    f"allocator granted [{granted.offset}, {granted.end}) overlapping "
                    f"live block [{clash[0]}, {clash[0] + clash[1]})"
                )
            state.record_alloc(granted.offset, granted.size)
            return granted

        return allocate

    def _wrap_free(self, inner: _t.Callable) -> _t.Callable:
        sanitizer = self

        def free(alloc_self: FreeListAllocator, allocation: Allocation | int) -> None:
            offset = handle_offset(allocation)
            state = sanitizer._state(alloc_self)
            if offset in state.freed and offset not in state.live:
                raise DoubleFreeError(
                    f"double free of offset {offset} "
                    f"(block of {state.freed[offset]} bytes already freed)"
                )
            inner(alloc_self, allocation)
            if offset in state.live:
                state.record_free(offset)

        return free

    def _wrap_allocate_frames(self, inner: _t.Callable) -> _t.Callable:
        sanitizer = self

        def allocate_frames(
            region_self: RegionManager, count: int, highest: bool = False
        ) -> list[int]:
            frames: list[int] = inner(region_self, count, highest=highest)
            state = sanitizer._state(region_self)
            page = region_self.page_bytes
            for frame in frames:
                clash = state.overlapping_live(frame, page)
                if clash is not None:
                    raise OverlapError(
                        f"server {region_self.server.server_id}: frame {frame} "
                        f"granted while live as [{clash[0]}, {clash[0] + clash[1]})"
                    )
                state.record_alloc(frame, page)
            return frames

        return allocate_frames

    def _wrap_free_frames(self, inner: _t.Callable) -> _t.Callable:
        sanitizer = self

        def free_frames(region_self: RegionManager, frames: _t.Iterable[int]) -> None:
            materialized = list(frames)
            # the region manager's own not-in-use check runs first, so
            # plain-API misuse keeps raising AllocationError as before
            inner(region_self, materialized)
            state = sanitizer._state(region_self)
            for frame in materialized:
                if frame in state.live:
                    state.record_free(frame)

        return free_frames

    # -- explicit checks -----------------------------------------------------

    def check_access(self, allocator: _AnyAllocator, offset: int, size: int = 1) -> None:
        """Assert [offset, offset+size) lies inside a live allocation."""
        state = self._state(allocator)
        i = bisect.bisect_right(state.offsets, offset)
        if i > 0:
            base = state.offsets[i - 1]
            if offset + size <= base + state.live[base]:
                return
        for freed_off, freed_size in state.freed.items():
            if offset < freed_off + freed_size and offset + size > freed_off:
                raise UseAfterFreeError(
                    f"access [{offset}, {offset + size}) touches freed block "
                    f"[{freed_off}, {freed_off + freed_size})"
                )
        raise SanitizerError(
            f"access [{offset}, {offset + size}) outside any tracked allocation"
        )

    def live_blocks(self, allocator: _AnyAllocator) -> dict[int, int]:
        """offset -> size of every block the sanitizer believes is live."""
        return dict(self._state(allocator).live)

    def assert_no_leaks(self, allocator: _AnyAllocator) -> None:
        """Scenario-teardown check: every tracked block was freed."""
        live = self._state(allocator).live
        if live:
            worst = sorted(live.items(), key=lambda kv: -kv[1])[:5]
            blocks = ", ".join(f"[{o}, {o + s})" for o, s in worst)
            raise MemoryLeakError(
                f"{len(live)} block(s) leaked at teardown "
                f"({sum(live.values())} bytes; largest: {blocks})"
            )

    @classmethod
    def active(cls) -> "AllocSanitizer | None":
        return cls._active


# -- coherence sanitizer ------------------------------------------------------


class CoherenceSanitizer:
    """Re-checks directory invariants after every coherence transition.

    Installs onto :class:`~repro.core.coherence.protocol.CoherenceDirectory`
    (class attribute hook); the protocol calls back after each load /
    store / atomic with the line it transitioned, and the sanitizer
    verifies that line in O(hosts).
    """

    _active: _t.ClassVar["CoherenceSanitizer | None"] = None

    def __init__(self) -> None:
        self.transitions_checked = 0

    def install(self) -> None:
        from repro.core.coherence.protocol import CoherenceDirectory

        if CoherenceSanitizer._active is not None:
            raise SanitizerError("a CoherenceSanitizer is already installed")
        CoherenceDirectory._sanitizer = self
        CoherenceSanitizer._active = self

    def uninstall(self) -> None:
        from repro.core.coherence.protocol import CoherenceDirectory

        if CoherenceSanitizer._active is not self:
            raise SanitizerError("this CoherenceSanitizer is not installed")
        CoherenceDirectory._sanitizer = None
        CoherenceSanitizer._active = None

    @contextlib.contextmanager
    def installed(self) -> _t.Iterator["CoherenceSanitizer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- invariants ----------------------------------------------------------

    def verify_line(self, directory: "CoherenceDirectory", line: int) -> None:
        """MESI invariants for one line; raises CoherenceInvariantError."""
        self.transitions_checked += 1
        entry = directory._entries.get(line)
        holders = sorted(
            h for h in directory.server_ids if line in directory._caches[h]
        )
        if entry is None:
            if holders:
                raise CoherenceInvariantError(
                    f"line {line}: hosts {holders} cache it but no directory entry exists"
                )
            return
        owner = entry.owner
        if owner is not None:
            # SWMR: the Modified owner is the only holder
            others = [h for h in holders if h != owner]
            if others:
                raise CoherenceInvariantError(
                    f"line {line}: Modified owner {owner} coexists with "
                    f"cached copies on {others}"
                )
            if line not in directory._caches.get(owner, set()):
                raise CoherenceInvariantError(
                    f"line {line}: owner {owner} does not cache its own line"
                )
        for host in holders:
            if host != owner and host not in entry.sharers:
                raise CoherenceInvariantError(
                    f"line {line}: host {host} caches the line but is not in "
                    f"the sharer set {sorted(entry.sharers)}"
                )
        # inclusivity: every cached copy is tracked by the home's filter
        home = directory.home_of(line)
        tracked = directory.snoop_filters[home].sharers(line)
        missing = [h for h in holders if h not in tracked]
        if missing:
            raise CoherenceInvariantError(
                f"line {line}: hosts {missing} cache it but the home's snoop "
                f"filter tracks only {sorted(tracked)} (inclusivity violated)"
            )

    def verify_all(self, directory: "CoherenceDirectory") -> None:
        """Full-directory sweep (scenario teardown / tests)."""
        for line in sorted(directory._entries):
            self.verify_line(directory, line)
        # no stale filter entries: everything a home's filter tracks is
        # really cached by those hosts
        for home, snoop_filter in sorted(directory.snoop_filters.items()):
            for line in snoop_filter.tracked_lines():
                for host in sorted(snoop_filter.sharers(line)):
                    if line not in directory._caches.get(host, set()):
                        raise CoherenceInvariantError(
                            f"line {line}: home {home}'s snoop filter tracks "
                            f"host {host}, which does not cache it"
                        )

    @classmethod
    def active(cls) -> "CoherenceSanitizer | None":
        return cls._active
