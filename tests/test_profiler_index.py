"""The profiler's per-extent index answers exactly what a full scan does.

``AccessProfiler.extent_heat`` reads a per-extent index instead of
scanning every (requester, extent) counter.
Eviction and rebalancing sort by these floats, so the index must sum in
the same order as the scan it replaced: the results are compared with
``==``, not approximately, including after aging drops a counter and a
later access records it again.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.profiling import AccessProfiler

EXTENTS = 6

records = st.tuples(
    st.integers(0, 4),  # requester
    st.integers(0, EXTENTS - 1),  # extent
    # huge counts beside small ones make float sums order-sensitive
    st.one_of(st.integers(1, 1 << 20), st.integers(1 << 53, 1 << 55)),
    st.booleans(),  # remote
)
#: a step is one access, or None for an epoch boundary
steps = st.lists(st.one_of(records, st.none()), max_size=120)


def scanned_heat(profiler: AccessProfiler, extent_index: int) -> float:
    total = 0.0
    for (_requester, extent), stats in profiler._stats.items():
        if extent == extent_index:
            total += stats.total_bytes
    return total


@settings(max_examples=200, deadline=None)
@given(steps=steps, decay=st.sampled_from([0.0, 0.25, 0.5, 0.9]))
def test_index_matches_full_scan(steps, decay):
    profiler = AccessProfiler(decay=decay)
    for step in steps:
        if step is None:
            profiler.advance_epoch()
        else:
            requester, extent, nbytes, remote = step
            profiler.record(requester, extent, nbytes, remote)
        for extent in range(EXTENTS):
            assert profiler.extent_heat(extent) == scanned_heat(profiler, extent)


def test_rerecorded_counter_sums_in_scan_order():
    """Aging deletes (1, 0); recording it again puts it last, in both
    the scan and the index.  Summed from its old first slot, the two
    1.0s would survive beside 1e16 and the heat would differ."""
    profiler = AccessProfiler(decay=0.5)
    profiler.record(1, 0, 1, remote=True)  # 0.5 after aging: dropped
    profiler.record(3, 0, 2, remote=True)  # 1.0 after aging: kept
    profiler.record(2, 0, 2 * 10**16, remote=True)
    profiler.advance_epoch()
    profiler.record(1, 0, 1, remote=False)
    assert list(profiler._stats) == [(3, 0), (2, 0), (1, 0)]
    assert profiler.extent_heat(0) == scanned_heat(profiler, 0) == 1e16
    assert (1.0 + 1.0) + 1e16 != 1e16


def test_unknown_extent_is_cold():
    profiler = AccessProfiler()
    assert profiler.extent_heat(42) == 0.0
