"""Chained-bucket hash index laid out in the memory image.

This is the data structure Widx and DASX walk: a database hash index
mapping keys to RIDs (row ids). Buckets are singly linked lists of
nodes; the bucket-root table is a flat array of node pointers.

Node layout in the image (64 bytes, one per index entry)::

    +0   key      u64
    +8   rid      u64
    +16  next     u64   (address of next node, 0 = end of chain)
    +24  pad      (payload columns)

Nodes are block-sized and block-aligned: in a 100 GB database, index
entries carry payload and do not share DRAM blocks, so a node fill is
exactly one block ("the data fill ... is a single node").

Host-side, each key's walk is computed once:
:meth:`HashIndex.probe_with_walk` memoises (rid, walk, root entry) per
key until the next insert.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..mem.layout import MemoryImage

__all__ = ["HashIndex", "fnv1a64"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(key: int) -> int:
    """FNV-1a over the key's 8 little-endian bytes.

    Used as the index hash; the paper models expensive *string* hashing
    (TPC-H 19/20) as a latency parameter on top of this function.
    """
    h = _FNV_OFFSET
    for _ in range(8):
        h ^= key & 0xFF
        h = (h * _FNV_PRIME) & _MASK64
        key >>= 8
    return h


#: (rid or None, node addresses walked, bucket-root entry address)
Walk = Tuple[Optional[int], Tuple[int, ...], int]


class HashIndex:
    """A chained hash index resident in a :class:`MemoryImage`."""

    NODE_BYTES = 64
    KEY_OFF = 0
    RID_OFF = 8
    NEXT_OFF = 16

    def __init__(self, image: MemoryImage, num_buckets: int) -> None:
        if num_buckets <= 0 or num_buckets & (num_buckets - 1):
            raise ValueError("num_buckets must be a positive power of two")
        self.image = image
        self.num_buckets = num_buckets
        self.table_addr = image.alloc(8 * num_buckets, align=64)
        self.num_entries = 0
        self._chain_lengths: Dict[int, int] = {}
        # per-key walk memo: a walk reads only nodes and root slots,
        # which only insert() writes
        self._walks: Dict[int, Walk] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def bucket_of(self, key: int) -> int:
        return fnv1a64(key) & (self.num_buckets - 1)

    def bucket_root_entry(self, bucket: int) -> int:
        """Address of the root-pointer slot for ``bucket`` (the META access)."""
        return self.table_addr + 8 * bucket

    def insert(self, key: int, rid: int) -> int:
        """Insert at the head of the key's bucket; returns the node address."""
        bucket = self.bucket_of(key)
        root_entry = self.bucket_root_entry(bucket)
        old_head = self.image.read_u64(root_entry)
        node = self.image.alloc(self.NODE_BYTES, align=self.NODE_BYTES)
        self.image.write_u64(node + self.KEY_OFF, key)
        self.image.write_u64(node + self.RID_OFF, rid)
        self.image.write_u64(node + self.NEXT_OFF, old_head)
        self.image.write_u64(root_entry, node)
        self.num_entries += 1
        self._chain_lengths[bucket] = self._chain_lengths.get(bucket, 0) + 1
        self._walks.clear()
        return node

    @classmethod
    def build(cls, image: MemoryImage, pairs: Iterable[Tuple[int, int]],
              num_buckets: int) -> "HashIndex":
        index = cls(image, num_buckets)
        for key, rid in pairs:
            index.insert(key, rid)
        return index

    # ------------------------------------------------------------------
    # functional probes (ground truth for the DSA models)
    # ------------------------------------------------------------------
    def probe(self, key: int) -> Optional[int]:
        """Walk the chain for ``key``; returns the RID or None."""
        return self.probe_with_walk(key)[0]

    def probe_with_walk(self, key: int) -> Walk:
        """Like :meth:`probe` but also returns the node addresses touched
        and the bucket-root entry: ``(rid, walk, root_entry)``.

        The walk is what an address-based cache must fetch: the
        bucket-root entry is excluded (it is a table access), each node
        visited appears once. Computed once per key until the next
        :meth:`insert`.
        """
        memo = self._walks.get(key)
        if memo is not None:
            return memo
        root = self.bucket_root_entry(self.bucket_of(key))
        read = self.image.read_u64
        current = read(root)
        walked: List[int] = []
        rid = None
        while current != MemoryImage.NULL:
            walked.append(current)
            if read(current + self.KEY_OFF) == key:
                rid = read(current + self.RID_OFF)
                break
            current = read(current + self.NEXT_OFF)
        memo = self._walks[key] = (rid, tuple(walked), root)
        return memo

    def chain_length(self, key: int) -> int:
        """Nodes in the key's bucket (walk length upper bound)."""
        return self._chain_lengths.get(self.bucket_of(key), 0)

    def load_factor(self) -> float:
        return self.num_entries / self.num_buckets

    def max_chain(self) -> int:
        return max(self._chain_lengths.values(), default=0)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"HashIndex(buckets={self.num_buckets}, "
                f"entries={self.num_entries}, max_chain={self.max_chain()})")
