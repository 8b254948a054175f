"""Sorted String Tables.

An SST holds a sorted run of (key, entry) pairs divided into fixed-size data
blocks, with a block index and an optional bloom filter.  Following RocksDB
practice for a 5.17-era setup, the index and filter are resident in memory
once the table is open; only **data blocks** cost I/O — which is precisely
the read path the paper's Level-0 experiments measure (index binary search is
CPU, then one data-block read to confirm or reject the key).

Content is kept as a key list and an aligned entry sequence (``keys`` /
``entries``) attached to the simulated file as its payload; byte offsets are
modelled so block reads hit the right device ranges.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, islice
from operator import ge, itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CorruptionError, DBError
from repro.lsm.bloom import BloomFilter
from repro.lsm.format import Entry, entry_checksum, entry_file_bytes


def cumulative_sizes(keys: Sequence[bytes], entries: Sequence[Entry]) -> array:
    """``cum[i]`` = data-block bytes of the first ``i`` entries (``cum[0] == 0``)."""
    return array("q", accumulate(map(entry_file_bytes, keys, entries), initial=0))


def cut_blocks(cum: Sequence[int], lo: int, hi: int, block_size: int) -> Tuple[array, array]:
    """Data-block layout of entries ``lo .. hi-1`` of a run sized by ``cum``.

    ``cum[i]`` is the bytes of the run's first ``i`` entries: an array, or a
    ``range`` when every entry has one size.  A block closes before the entry
    that would take it past ``block_size`` (blocks are usually slightly
    smaller, since entries do not split); an oversize entry gets a block of
    its own.  Returns each block's first entry and byte offset, both relative
    to ``lo``, as ``array('q')``.
    """
    if isinstance(cum, range):  # one size: every block holds the same count
        per_block = max(1, block_size // cum.step)
        return (
            array("q", range(0, hi - lo, per_block)),
            array("q", range(0, (hi - lo) * cum.step, per_block * cum.step)),
        )
    first, offset = array("q"), array("q")
    base = cum[lo]
    start = lo
    while start < hi:
        first.append(start - lo)
        offset.append(cum[start] - base)
        start = max(start + 1, bisect_right(cum, cum[start] + block_size, start, hi + 1) - 1)
    return first, offset


class SSTable:
    """An immutable, sorted, block-structured table."""

    def __init__(
        self,
        number: int,
        keys: List[bytes],
        entries: Sequence[Entry],
        block_first: Sequence[int],
        block_offset: Sequence[int],
        data_bytes: int,
        largest_seq: int,
        bloom_bits_per_key: int = 0,
    ) -> None:
        if len(keys) != len(entries):
            raise DBError("keys/entries length mismatch")
        if not keys:
            raise DBError("SSTable cannot be empty")
        self.number = number
        self.keys = keys  # a real list: C bisect over it *is* the index
        self.entries = entries  # any sequence aligned with keys
        self.smallest = keys[0]
        self.largest = keys[-1]
        self.largest_seq = largest_seq  # FileMetaData::largest_seqno
        # Block layout (see cut_blocks): _block_first[i] is the index of
        # block i's first entry; _block_offset[i] is its byte offset in the file.
        self._block_first = block_first
        self._block_offset = block_offset
        # Per-block CRC32 of the logical content, filled in when first asked
        # for (the build path stays checksum-free; verification is a
        # recovery/read-time concern).  ``_block_crc_tamper`` models on-media
        # damage to the block metadata itself (fault injection XORs into it).
        self._block_crcs: Dict[int, int] = {}
        self._block_crc_tamper: Optional[dict] = None
        self.data_bytes = data_bytes
        # Index/footer overhead: one handle per block plus per-key restarts.
        self.index_bytes = len(block_first) * 24 + len(keys) * 2
        self.bloom: Optional[BloomFilter] = None
        if bloom_bits_per_key > 0:
            self.bloom = BloomFilter(keys, bloom_bits_per_key)
        self.file_bytes = self.data_bytes + self.index_bytes + (
            self.bloom.approximate_bytes if self.bloom else 0
        )

    @classmethod
    def build(
        cls,
        number: int,
        keys: List[bytes],
        entries: Sequence[Entry],
        cum: Sequence[int],
        lo: int,
        block_size: int,
        bloom_bits_per_key: int = 0,
        largest_seq: Optional[int] = None,
    ) -> "SSTable":
        """Bulk constructor: the table of ``keys``/``entries``, which are entries
        ``lo .. lo+len(keys)-1`` of a run with cumulative sizes ``cum`` (see
        :func:`cut_blocks`).  ``largest_seq`` is computed unless the caller knows it."""
        if any(map(ge, keys, islice(keys, 1, None))):
            raise DBError(f"SST #{number}: keys must be strictly increasing")
        hi = lo + len(keys)
        first, offset = cut_blocks(cum, lo, hi, block_size)
        if largest_seq is None:
            largest_seq = max(map(itemgetter(0), entries), default=0)
        return cls(
            number, keys, entries, first, offset, cum[hi] - cum[lo], largest_seq, bloom_bits_per_key
        )

    # -- metadata -----------------------------------------------------------

    @property
    def entry_count(self) -> int:
        return len(self.keys)

    @property
    def block_count(self) -> int:
        return len(self._block_first)

    def key_in_range(self, key: bytes) -> bool:
        return self.smallest <= key <= self.largest

    def overlaps(self, smallest: bytes, largest: bytes) -> bool:
        return not (self.largest < smallest or largest < self.smallest)

    def may_contain(self, key: bytes) -> bool:
        """Bloom check (always True without a filter)."""
        if self.bloom is None:
            return True
        return self.bloom.may_contain(key)

    # -- lookup ---------------------------------------------------------------

    def key_index(self, key: bytes) -> int:
        """How many of the table's keys sort before ``key``."""
        return bisect_left(self.keys, key)

    def block_for_key(self, key: bytes) -> int:
        """Index binary search: which data block could hold ``key``."""
        entry_idx = bisect_left(self.keys, key)
        if entry_idx >= len(self.keys):
            entry_idx = len(self.keys) - 1
        block = bisect_right(self._block_first, entry_idx) - 1
        return max(0, block)

    def block_span(self, block_idx: int) -> Tuple[int, int]:
        """(file_offset, nbytes) of one data block."""
        if not 0 <= block_idx < len(self._block_first):
            raise DBError(f"block index out of range: {block_idx}")
        offset = self._block_offset[block_idx]
        if block_idx == len(self._block_first) - 1:
            nbytes = self.data_bytes - offset
        else:
            nbytes = self._block_offset[block_idx + 1] - offset
        return offset, max(1, nbytes)

    # -- integrity ---------------------------------------------------------------

    def _block_entry_range(self, block_idx: int) -> Tuple[int, int]:
        first = self._block_first[block_idx]
        if block_idx == len(self._block_first) - 1:
            return first, len(self.keys)
        return first, self._block_first[block_idx + 1]

    def block_checksum(self, block_idx: int) -> int:
        """Stored CRC32 of one data block's logical content (lazy)."""
        if not 0 <= block_idx < len(self._block_first):
            raise DBError(f"block index out of range: {block_idx}")
        crc = self._block_crcs.get(block_idx)
        if crc is None:
            lo, hi = self._block_entry_range(block_idx)
            crc = 0
            for i in range(lo, hi):
                crc = entry_checksum(self.keys[i], self.entries[i], crc)
            self._block_crcs[block_idx] = crc
        if self._block_crc_tamper:
            crc ^= self._block_crc_tamper.get(block_idx, 0)
        return crc

    def corrupt_block_checksum(self, block_idx: int) -> None:
        """Fault hook: damage the stored CRC of one block on 'media'."""
        self.block_checksum(block_idx)  # materialize the true value first
        if self._block_crc_tamper is None:
            self._block_crc_tamper = {}
        self._block_crc_tamper[block_idx] = self._block_crc_tamper.get(block_idx, 0) ^ 0x1

    def verify_block(self, block_idx: int, file=None) -> None:
        """Verify one data block after a read; raises :class:`CorruptionError`.

        Two failure modes: the block's bytes overlap a device-mangled range
        of the backing ``file``, or the stored block CRC no longer matches
        the recomputed content checksum.
        """
        offset, nbytes = self.block_span(block_idx)
        if file is not None and file.corrupt_ranges and file.is_corrupt(offset, nbytes):
            raise CorruptionError(
                f"SST #{self.number} block {block_idx} "
                f"[{offset}, {offset + nbytes}) overlaps corrupted media"
            )
        lo, hi = self._block_entry_range(block_idx)
        crc = 0
        for i in range(lo, hi):
            crc = entry_checksum(self.keys[i], self.entries[i], crc)
        if crc != self.block_checksum(block_idx):
            raise CorruptionError(
                f"SST #{self.number} block {block_idx} checksum mismatch"
            )

    def find(self, key: bytes) -> Optional[Entry]:
        """Exact-match lookup in the in-memory arrays (after block 'read')."""
        idx = bisect_left(self.keys, key)
        if idx < len(self.keys) and self.keys[idx] == key:
            return self.entries[idx]
        return None

    # -- iteration ---------------------------------------------------------------

    def items(self) -> Iterator[Tuple[bytes, Entry]]:
        return zip(self.keys, self.entries)

    def items_from(self, start: bytes) -> Iterator[Tuple[bytes, Entry]]:
        idx = bisect_left(self.keys, start)
        for i in range(idx, len(self.keys)):
            yield self.keys[i], self.entries[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SSTable #{self.number} n={self.entry_count} "
            f"[{self.smallest!r}..{self.largest!r}]>"
        )


class SSTBuilder:
    """Accumulates sorted (key, entry) pairs and produces an :class:`SSTable`.

    The per-entry front of :meth:`SSTable.build`: it sizes every entry as it
    arrives (``estimated_bytes``) and :meth:`finish` cuts the data blocks from
    those sizes.
    """

    def __init__(self, number: int, block_size: int, bloom_bits_per_key: int = 0) -> None:
        if block_size <= 0:
            raise DBError(f"block_size must be positive: {block_size}")
        self.number = number
        self.block_size = block_size
        self.bloom_bits_per_key = bloom_bits_per_key
        self._keys: List[bytes] = []
        self._entries: List[Entry] = []
        self._cum = array("q", [0])  # see cumulative_sizes

    def add(self, key: bytes, entry: Entry) -> None:
        keys = self._keys
        if keys and key <= keys[-1]:
            raise DBError(
                f"keys must be added in strictly increasing order: "
                f"{key!r} after {keys[-1]!r}"
            )
        keys.append(key)
        self._entries.append(entry)
        self._cum.append(self._cum[-1] + entry_file_bytes(key, entry))

    @property
    def estimated_bytes(self) -> int:
        """Data bytes of everything added so far."""
        return self._cum[-1]

    @property
    def entry_count(self) -> int:
        return len(self._keys)

    def empty(self) -> bool:
        return not self._keys

    def finish(self) -> SSTable:
        if not self._keys:
            raise DBError("cannot finish an empty SSTable")
        return SSTable.build(
            self.number, self._keys, self._entries, self._cum, 0,
            self.block_size, self.bloom_bits_per_key,
        )
