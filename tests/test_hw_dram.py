"""Tests for the DRAM device model and its sparse backing store."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AddressError, ConfigError
from repro.hw.dram import BackingStore, MemoryDevice
from repro.hw.link import LINK_PRESETS
from repro.hw.pool_device import PoolDevice
from repro.hw.server import Server
from repro.hw.specs import LOCAL_DDR4
from repro.sim.engine import Engine
from repro.sim.fluid import FluidModel
from repro.units import gib, mib


def make_device(capacity=gib(1)) -> MemoryDevice:
    engine = Engine()
    return MemoryDevice(engine, FluidModel(engine), LOCAL_DDR4, capacity)


# --- backing store -------------------------------------------------------------


def test_unwritten_reads_as_zero():
    store = BackingStore()
    assert store.read(1000, 16) == bytes(16)
    assert store.resident_bytes == 0


def test_write_read_round_trip():
    store = BackingStore()
    store.write(5, b"hello world")
    assert store.read(5, 11) == b"hello world"
    assert store.read(0, 5) == bytes(5)


def test_write_spanning_pages():
    store = BackingStore()
    data = bytes(range(256)) * 40  # 10240 bytes: crosses 4 KiB pages
    store.write(4000, data)
    assert store.read(4000, len(data)) == data


def test_discard_drops_whole_pages():
    store = BackingStore()
    store.write(0, b"x" * 8192)
    store.discard(0, 8192)
    assert store.read(0, 8192) == bytes(8192)
    assert store.resident_bytes == 0


def test_discard_is_page_conservative():
    """Partial pages at the edges are not discarded."""
    store = BackingStore()
    store.write(0, b"A" * 12288)
    store.discard(100, 8000)  # only page 1 is fully inside
    assert store.read(0, 100) == b"A" * 100  # page 0 kept


def test_zero_range_handles_partial_edges():
    store = BackingStore()
    store.write(0, b"B" * 12288)
    store.zero_range(100, 8000)
    assert store.read(0, 100) == b"B" * 100
    assert store.read(100, 8000) == bytes(8000)
    assert store.read(8100, 12288 - 8100) == b"B" * (12288 - 8100)


def test_copy_to_moves_only_resident_pages():
    src = BackingStore()
    dst = BackingStore()
    src.write(0, b"data")
    src.copy_to(dst, 0, 1 << 20, 1 << 30)  # a 1 GiB "copy"
    assert dst.read(1 << 20, 4) == b"data"
    # the untouched tail never materialized
    assert dst.resident_bytes <= 8192


def test_copy_to_zeroes_stale_destination():
    src = BackingStore()
    dst = BackingStore()
    dst.write(500, b"stale-old-bytes")
    src.copy_to(dst, 0, 0, 4096)
    assert dst.read(500, 15) == bytes(15)


def test_copy_to_within_one_store_behaves_like_memmove():
    store = BackingStore()
    store.write(0, b"old-value" + bytes(4087))
    store.copy_to(store, 0, 0, 4096)  # onto itself
    assert store.read(0, 9) == b"old-value"
    store.write(4096, b"second-pg")
    store.copy_to(store, 0, 4096, 8192)  # shifted up by one page
    assert store.read(4096, 9) == b"old-value"
    assert store.read(8192, 9) == b"second-pg"
    store.copy_to(store, 8192, 0, 4096)  # shifted down onto a written page
    assert store.read(0, 9) == b"second-pg"


def test_negative_addresses_rejected():
    store = BackingStore()
    with pytest.raises(AddressError):
        store.write(-1, b"x")
    with pytest.raises(AddressError):
        store.read(-1, 4)


_SPAN = 120_000
_addrs = st.integers(0, 100_000)
_sizes = st.integers(1, 9000)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _addrs, st.binary(min_size=1, max_size=9000)),
        st.tuples(st.just("zeros"), _addrs, _sizes),
        st.tuples(st.just("zero_range"), _addrs, _sizes),
        st.tuples(st.just("discard"), _addrs, _sizes),
    ),
    min_size=1,
    max_size=12,
)


def _apply(store, reference, op):
    """Apply one op to *store* and the bytearray *reference* alike."""
    kind, addr, arg = op
    if kind == "write":
        store.write(addr, arg)
        reference[addr : addr + len(arg)] = arg
    elif kind == "zeros":
        store.write(addr, bytes(arg))
        reference[addr : addr + arg] = bytes(arg)
    elif kind == "zero_range":
        store.zero_range(addr, arg)
        reference[addr : addr + arg] = bytes(arg)
    else:  # discard loses whole pages only
        first = -(-addr // 4096) * 4096
        last = (addr + arg) // 4096 * 4096
        store.discard(addr, arg)
        if last > first:
            reference[first:last] = bytes(last - first)


@settings(max_examples=50, deadline=None)
@given(ops=_ops)
def test_store_matches_reference_model(ops):
    """The sparse store behaves exactly like one big bytearray, and
    all-zero writes into untouched memory materialize nothing."""
    store = BackingStore()
    reference = bytearray(_SPAN)
    zeros_only = BackingStore()
    for op in ops:
        _apply(store, reference, op)
        if op[0] == "zeros":
            zeros_only.write(op[1], bytes(op[2]))
    assert store.read(0, _SPAN) == bytes(reference)
    assert zeros_only.resident_bytes == 0
    assert zeros_only.read(0, _SPAN) == bytes(_SPAN)


@settings(max_examples=50, deadline=None)
@given(
    src_ops=_ops,
    dst_ops=_ops,
    src_addr=_addrs,
    dst_addr=_addrs,
    size=st.integers(0, 20_000),
)
def test_copy_to_matches_reference_model(src_ops, dst_ops, src_addr, dst_addr, size):
    src, dst = BackingStore(), BackingStore()
    src_ref, dst_ref = bytearray(_SPAN), bytearray(_SPAN)
    for op in src_ops:
        _apply(src, src_ref, op)
    for op in dst_ops:
        _apply(dst, dst_ref, op)
    src.copy_to(dst, src_addr, dst_addr, size)
    dst_ref[dst_addr : dst_addr + size] = src_ref[src_addr : src_addr + size]
    assert src.read(0, _SPAN) == bytes(src_ref)
    assert dst.read(0, _SPAN) == bytes(dst_ref)


@settings(max_examples=50, deadline=None)
@given(ops=_ops, src_addr=_addrs, dst_addr=_addrs, size=st.integers(0, 20_000))
def test_copy_within_one_store_matches_reference_model(ops, src_addr, dst_addr, size):
    """Overlapping or not, a copy within one store is a ``memmove``."""
    store, reference = BackingStore(), bytearray(_SPAN)
    for op in ops:
        _apply(store, reference, op)
    store.copy_to(store, src_addr, dst_addr, size)
    reference[dst_addr : dst_addr + size] = reference[src_addr : src_addr + size]
    assert store.read(0, _SPAN) == bytes(reference)


def test_all_zero_writes_materialize_nothing():
    store = BackingStore()
    store.write(10, bytes(100))
    store.write(gib(3) + 5, bytes(mib(3)))  # spans the 1 MiB check window
    assert store.resident_bytes == 0
    store.write(0, b"x" * 8192)
    store.write(0, bytes(8192))  # an all-zero overwrite drops the pages
    assert store.resident_bytes == 0
    assert store.read(0, 8192) == bytes(8192)


def test_late_nonzero_byte_past_the_check_window_is_kept():
    store = BackingStore()
    data = bytes(mib(2)) + b"\x01"  # the non-zero byte lies past the first window
    store.write(0, data)
    assert store.read(0, len(data)) == data


@pytest.mark.parametrize("make", ["server", "pool_device"])
def test_terabyte_crash_costs_resident_pages(make):
    """A crash walks the resident pages, not the capacity: a loop over
    the 2**28 page numbers of a 1 TiB device would run for minutes
    under tracemalloc."""
    engine = Engine()
    fluid = FluidModel(engine)
    link = LINK_PRESETS["link0"]
    if make == "server":
        host = Server(engine, fluid, 0, 1 << 40, link)
    else:
        host = PoolDevice(engine, fluid, 1 << 40, link)
    offsets = [0, gib(7) + 100, gib(300), (1 << 40) - 4096]
    for i, offset in enumerate(offsets):
        host.dram.write_bytes(offset, bytes([i + 1]) * 4096)
    assert host.dram.store.resident_bytes > 0
    tracemalloc.start()
    try:
        host.crash()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert host.dram.store.resident_bytes == 0
    for offset in offsets:
        assert host.dram.read_bytes(offset, 4096) == bytes(4096)


# --- device ------------------------------------------------------------------


def test_device_write_respects_capacity():
    device = make_device(capacity=mib(2))
    device.write_bytes(mib(2) - 4, b"abcd")
    with pytest.raises(AddressError):
        device.write_bytes(mib(2) - 3, b"abcd")
    with pytest.raises(AddressError):
        device.read_bytes(mib(2), 1)


def test_device_requires_positive_capacity():
    engine = Engine()
    with pytest.raises(ConfigError):
        MemoryDevice(engine, FluidModel(engine), LOCAL_DDR4, 0)


def test_device_loaded_latency_rises_with_traffic():
    engine = Engine()
    fluid = FluidModel(engine)
    device = MemoryDevice(engine, fluid, LOCAL_DDR4, gib(1))
    idle = device.loaded_latency()
    fluid.transfer([device.channel], gib(1))
    loaded = device.loaded_latency()
    assert idle == pytest.approx(82.0)
    assert loaded > idle


def test_device_transfer_times_match_bandwidth():
    engine = Engine()
    fluid = FluidModel(engine)
    device = MemoryDevice(engine, fluid, LOCAL_DDR4, gib(64))
    done = device.transfer(gib(1))
    engine.run(done)
    assert engine.now == pytest.approx(gib(1) / 97.0, rel=1e-6)
