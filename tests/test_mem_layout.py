"""Unit tests for the flat memory image."""

import pytest
from hypothesis import given, strategies as st

from repro.mem import MemoryImage, OutOfMemoryError


def test_null_address_reserved():
    image = MemoryImage()
    addr = image.alloc(8)
    assert addr != 0
    assert MemoryImage.NULL == 0


def test_alloc_alignment():
    image = MemoryImage()
    image.alloc(3, align=1)
    addr = image.alloc(8, align=64)
    assert addr % 64 == 0


def test_alloc_bad_alignment_rejected():
    with pytest.raises(ValueError):
        MemoryImage().alloc(8, align=3)


def test_alloc_negative_rejected():
    with pytest.raises(ValueError):
        MemoryImage().alloc(-1)


def test_out_of_memory():
    image = MemoryImage(size=1024)
    with pytest.raises(OutOfMemoryError):
        image.alloc(2048)


def test_allocations_do_not_overlap():
    image = MemoryImage()
    spans = []
    for size in (8, 24, 64, 3, 100):
        addr = image.alloc(size)
        spans.append((addr, addr + size))
    spans.sort()
    for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
        assert e1 <= s2


def test_u32_roundtrip():
    image = MemoryImage()
    addr = image.alloc(4)
    image.write_u32(addr, 0xDEADBEEF)
    assert image.read_u32(addr) == 0xDEADBEEF


def test_u64_roundtrip():
    image = MemoryImage()
    addr = image.alloc(8)
    image.write_u64(addr, 0x0123456789ABCDEF)
    assert image.read_u64(addr) == 0x0123456789ABCDEF


def test_uint_wraps_to_width():
    image = MemoryImage()
    addr = image.alloc(2)
    image.write_uint(addr, 2, 0x12345)
    assert image.read_uint(addr, 2) == 0x2345


def test_signed_roundtrip():
    image = MemoryImage()
    addr = image.alloc(8)
    image.write_int(addr, 8, -42)
    assert image.read_int(addr, 8) == -42


def test_f64_roundtrip():
    image = MemoryImage()
    addr = image.alloc(8)
    image.write_f64(addr, 3.14159)
    assert image.read_f64(addr) == 3.14159


def test_little_endian_layout():
    image = MemoryImage()
    addr = image.alloc(4)
    image.write_u32(addr, 0x04030201)
    assert image.read_block(addr, 4) == b"\x01\x02\x03\x04"


def test_block_roundtrip():
    image = MemoryImage()
    addr = image.alloc(64, align=64)
    payload = bytes(range(64))
    image.write_block(addr, payload)
    assert image.read_block(addr, 64) == payload


def test_out_of_range_access_rejected():
    image = MemoryImage(size=256)
    with pytest.raises(IndexError):
        image.read_u64(250)


def test_arrays_helpers():
    image = MemoryImage()
    u32s = image.alloc_u32_array([1, 2, 3])
    u64s = image.alloc_u64_array([10, 20])
    f64s = image.alloc_f64_array([0.5, 1.5])
    assert image.read_u32(u32s + 4) == 2
    assert image.read_u64(u64s + 8) == 20
    assert image.read_f64(f64s) == 0.5


def test_lazy_growth_tracks_used():
    image = MemoryImage(size=1 << 20)
    before = image.used
    image.alloc(4096)
    assert image.used >= before + 4096


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_u64_roundtrip_property(value):
    image = MemoryImage()
    addr = image.alloc(8)
    image.write_u64(addr, value)
    assert image.read_u64(addr) == value


@given(st.binary(min_size=1, max_size=256))
def test_block_roundtrip_property(payload):
    image = MemoryImage()
    addr = image.alloc(len(payload))
    image.write_block(addr, payload)
    assert image.read_block(addr, len(payload)) == payload


@given(st.lists(st.integers(min_value=1, max_value=128), min_size=1,
                max_size=30))
def test_alloc_disjointness_property(sizes):
    image = MemoryImage()
    spans = sorted((image.alloc(s), s) for s in sizes)
    for (a1, s1), (a2, _s2) in zip(spans, spans[1:]):
        assert a1 + s1 <= a2


def test_map_segment_copies_allocations_at_the_same_break():
    source = MemoryImage()
    start = source.used
    a = source.alloc(100, align=64)
    source.write_u64(a, 0xFEED)
    data, allocations = source.segment(start)
    target = MemoryImage()
    assert target.map_segment(start, data, allocations)
    assert target.used == source.used
    assert target.allocations == source.allocations
    assert target.read_u64(a) == 0xFEED


def test_map_segment_refuses_another_break():
    source = MemoryImage()
    start = source.used
    source.alloc(64)
    data, allocations = source.segment(start)
    target = MemoryImage()
    target.alloc(24)
    before = (target.used, list(target.allocations))
    assert not target.map_segment(start, data, allocations)
    assert (target.used, list(target.allocations)) == before
