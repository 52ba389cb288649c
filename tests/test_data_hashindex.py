"""Unit + property tests for the chained hash index."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data import HashIndex, fnv1a64
from repro.mem import MemoryImage


def build(pairs, buckets=16):
    image = MemoryImage()
    return image, HashIndex.build(image, pairs, buckets)


def test_fnv_deterministic():
    assert fnv1a64(42) == fnv1a64(42)
    assert fnv1a64(42) != fnv1a64(43)


def test_fnv_is_64bit():
    assert 0 <= fnv1a64(2**63) < 2**64


def test_insert_and_probe():
    _image, index = build([(10, 100), (20, 200)])
    assert index.probe(10) == 100
    assert index.probe(20) == 200


def test_probe_missing_key():
    _image, index = build([(1, 11)])
    assert index.probe(999) is None


def test_chain_collision_resolution():
    # Force collisions with a single bucket.
    pairs = [(k, k * 10) for k in range(1, 9)]
    _image, index = build(pairs, buckets=1)
    for k, rid in pairs:
        assert index.probe(k) == rid
    assert index.max_chain() == 8


def test_probe_with_walk_lengths():
    pairs = [(k, k) for k in range(1, 5)]
    _image, index = build(pairs, buckets=1)
    # Head of chain is the most recent insert -> walk length 1.
    _rid, walk, _root = index.probe_with_walk(4)
    assert len(walk) == 1
    _rid, walk, _root = index.probe_with_walk(1)
    assert len(walk) == 4


def test_probe_missing_walks_whole_chain():
    pairs = [(k, k) for k in range(1, 4)]
    _image, index = build(pairs, buckets=1)
    rid, walk, _root = index.probe_with_walk(99)
    assert rid is None
    assert len(walk) == 3


def test_nodes_are_block_aligned():
    image, index = build([(7, 70), (8, 80)])
    for key in (7, 8):
        _rid, walk, _root = index.probe_with_walk(key)
        for node in walk:
            assert node % HashIndex.NODE_BYTES == 0


def test_node_layout_in_image():
    image, index = build([(0xABCD, 0x1234)])
    _rid, walk, _root = index.probe_with_walk(0xABCD)
    node = walk[-1]
    assert image.read_u64(node + HashIndex.KEY_OFF) == 0xABCD
    assert image.read_u64(node + HashIndex.RID_OFF) == 0x1234


def test_load_factor_and_counts():
    _image, index = build([(k, k) for k in range(32)], buckets=16)
    assert index.num_entries == 32
    assert index.load_factor() == 2.0


def test_bucket_count_validation():
    image = MemoryImage()
    with pytest.raises(ValueError):
        HashIndex(image, 12)
    with pytest.raises(ValueError):
        HashIndex(image, 0)


def test_bucket_root_entry_addresses():
    image = MemoryImage()
    index = HashIndex(image, 8)
    assert index.bucket_root_entry(3) == index.table_addr + 24


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(st.integers(min_value=1, max_value=2**48),
                       st.integers(min_value=0, max_value=2**32),
                       min_size=1, max_size=64))
def test_probe_returns_inserted_rid_property(mapping):
    _image, index = build(list(mapping.items()), buckets=16)
    for key, rid in mapping.items():
        assert index.probe(key) == rid


@settings(max_examples=15, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=2**48), min_size=1,
               max_size=40))
def test_walk_never_longer_than_chain_property(keys):
    pairs = [(k, k & 0xFFFF) for k in keys]
    _image, index = build(pairs, buckets=4)
    for k in keys:
        _rid, walk, _root = index.probe_with_walk(k)
        assert 1 <= len(walk) <= index.chain_length(k)


def test_insert_after_a_memoised_probe_sees_the_new_head():
    _image, index = build([(5, 50)], buckets=1)
    assert index.probe(5) == 50
    assert index.probe(6) is None
    node = index.insert(6, 60)
    rid, walk, root = index.probe_with_walk(6)
    assert rid == 60 and walk == (node,)
    assert root == index.bucket_root_entry(index.bucket_of(6))
    # the earlier key now sits one node further down the chain
    rid, walk, _root = index.probe_with_walk(5)
    assert rid == 50 and len(walk) == 2 and walk[0] == node
