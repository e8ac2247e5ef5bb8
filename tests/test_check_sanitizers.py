"""Deliberate memory and coherence misuse must raise precise
``SanitizerError`` subclasses (the suite-wide sanitizers are installed
by conftest.py)."""

from __future__ import annotations

import pytest

from repro.check.sanitizers import AllocSanitizer, CoherenceSanitizer
from repro.core.coherence.protocol import CoherenceDirectory
from repro.errors import (
    AllocationError,
    CoherenceInvariantError,
    DoubleFreeError,
    MemoryLeakError,
    OverlapError,
    SanitizerError,
    UseAfterFreeError,
)
from repro.mem.allocator import FreeListAllocator
from repro.units import mib


# --- allocation sanitizer -----------------------------------------------------


def test_double_free_raises_precise_error(alloc_sanitizer):
    alloc = FreeListAllocator(4096)
    a = alloc.allocate(128)
    alloc.free(a)
    with pytest.raises(DoubleFreeError):
        alloc.free(a)


def test_double_free_still_an_allocation_error(alloc_sanitizer):
    # pre-sanitizer callers guard AllocationError; keep them working
    alloc = FreeListAllocator(4096)
    a = alloc.allocate(256)
    alloc.free(a)
    with pytest.raises(AllocationError):
        alloc.free(a)


def test_use_after_free_detected(alloc_sanitizer):
    alloc = FreeListAllocator(4096)
    a = alloc.allocate(256)
    alloc_sanitizer.check_access(alloc, a.offset, 8)  # live: fine
    alloc.free(a)
    with pytest.raises(UseAfterFreeError):
        alloc_sanitizer.check_access(alloc, a.offset, 8)


def test_wild_access_detected(alloc_sanitizer):
    alloc = FreeListAllocator(4096)
    alloc.allocate(64)
    with pytest.raises(SanitizerError):
        alloc_sanitizer.check_access(alloc, 2048, 8)


def test_leak_detected_at_teardown(alloc_sanitizer):
    alloc = FreeListAllocator(4096)
    kept = alloc.allocate(128)
    freed = alloc.allocate(128)
    alloc.free(freed)
    with pytest.raises(MemoryLeakError) as excinfo:
        alloc_sanitizer.assert_no_leaks(alloc)
    assert "1 block(s)" in str(excinfo.value)
    alloc.free(kept)
    alloc_sanitizer.assert_no_leaks(alloc)  # now clean


def test_reallocation_of_freed_range_is_legal(alloc_sanitizer):
    alloc = FreeListAllocator(1024)
    a = alloc.allocate(256)
    alloc.free(a)
    b = alloc.allocate(256)  # same offset, fresh lifetime
    assert b.offset == a.offset
    alloc_sanitizer.check_access(alloc, b.offset, 16)
    alloc.free(b)


def test_overlap_detected_on_corrupted_allocator(alloc_sanitizer):
    alloc = FreeListAllocator(4096)
    alloc.allocate(256)
    # corrupt the free list so the allocator re-grants the live range
    alloc._free.insert(0, (0, 4096))
    with pytest.raises(OverlapError):
        alloc.allocate(256)


def test_install_is_exclusive(alloc_sanitizer):
    with pytest.raises(SanitizerError):
        AllocSanitizer().install()


# --- coherence sanitizer ------------------------------------------------------


@pytest.fixture
def directory(logical_deployment) -> CoherenceDirectory:
    return CoherenceDirectory(logical_deployment, region_bytes=mib(1))


def test_transitions_verified_in_suite(directory, coherence_sanitizer):
    engine = directory.engine
    before = coherence_sanitizer.transitions_checked
    engine.run(directory.store(host=0, line=5, value=42))
    engine.run(directory.load(host=1, line=5))
    assert coherence_sanitizer.transitions_checked > before


def test_two_modified_owners_rejected(directory, coherence_sanitizer):
    engine = directory.engine
    engine.run(directory.store(host=0, line=3, value=1))
    # corrupt: a second host sneaks a copy in while host 0 holds M
    directory._caches[1].add(3)
    with pytest.raises(CoherenceInvariantError):
        coherence_sanitizer.verify_line(directory, 3)


def test_illegal_transition_trips_hook(directory, coherence_sanitizer):
    engine = directory.engine
    engine.run(directory.store(host=0, line=7, value=1))
    directory._caches[2].add(7)  # corrupted state: copy coexists with M
    # the owner's next store runs the post-transition hook and must fail
    with pytest.raises(CoherenceInvariantError):
        engine.run(directory.store(host=0, line=7, value=2))


def test_untracked_cached_line_rejected(directory, coherence_sanitizer):
    engine = directory.engine
    engine.run(directory.load(host=0, line=9))
    home = directory.home_of(9)
    directory.snoop_filters[home].untrack(9, 0)  # break inclusivity
    with pytest.raises(CoherenceInvariantError):
        coherence_sanitizer.verify_line(directory, 9)


def test_verify_all_sweeps_filters(directory, coherence_sanitizer):
    engine = directory.engine
    engine.run(directory.load(host=0, line=1))
    engine.run(directory.store(host=1, line=2, value=9))
    coherence_sanitizer.verify_all(directory)
    # stale filter entry: filter tracks a host that dropped its copy
    home = directory.home_of(1)
    directory._caches[0].discard(1)
    directory._entries[1].sharers.discard(0)
    with pytest.raises(CoherenceInvariantError):
        coherence_sanitizer.verify_all(directory)


def test_clean_protocol_run_stays_clean(directory, coherence_sanitizer):
    engine = directory.engine
    for line in range(8):
        engine.run(directory.store(host=line % 4, line=line, value=line))
        engine.run(directory.load(host=(line + 1) % 4, line=line))
    coherence_sanitizer.verify_all(directory)


def test_coherence_install_is_exclusive(coherence_sanitizer):
    with pytest.raises(SanitizerError):
        CoherenceSanitizer().install()
