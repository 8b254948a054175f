"""Sorted String Tables.

An SST holds a sorted run of (key, entry) pairs divided into fixed-size data
blocks, with a block index and an optional bloom filter.  Following RocksDB
practice for a 5.17-era setup, the index and filter are resident in memory
once the table is open; only **data blocks** cost I/O — which is precisely
the read path the paper's Level-0 experiments measure (index binary search is
CPU, then one data-block read to confirm or reject the key).

Content is kept as a key tuple and aligned entry columns (``keys`` /
``entries``, an :class:`EntryColumns`) attached to the simulated file as its
payload; byte offsets are modelled so block reads hit the right device ranges.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, islice, repeat
from operator import attrgetter, ge
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CorruptionError, DBError
from repro.lsm.bloom import BloomFilter
from repro.lsm.format import Entry, entry_bytes, entry_checksum, entry_file_bytes, entry_value_size
from repro.lsm.value import ValueRef
from repro.sim.stats import _np  # optional accelerator: None forces pure Python


def file_sizes(keys: Sequence[bytes], value_sizes) -> "int | array":
    """Each entry's data-block bytes (:func:`~repro.lsm.format.entry_bytes`
    by columns): one int when ``value_sizes`` is one and every key has one length."""
    lengths = {*map(len, keys)}
    if value_sizes.__class__ is int and len(lengths) == 1:
        return entry_bytes(lengths.pop(), value_sizes)
    return array("q", map(entry_bytes, map(len, keys), _each(value_sizes)))


def _one(column):
    """The column rule: a column whose entries are all equal is that one value."""
    if column.__class__ is int or not column or column.count(column[0]) != len(column):
        return column
    return column[0]


def _each(column):
    """A column as an iterable of its entries (a constant repeats)."""
    return repeat(column) if column.__class__ is int else column


def _concat(parts: Sequence["EntryColumns"], name: str):
    """Column ``name`` of ``parts`` laid end to end; equal constants stay one value."""
    columns = [getattr(part, name) for part in parts]
    if all(column.__class__ is int for column in columns) and len(set(columns)) == 1:
        return columns[0]
    out = array("B" if name == "kinds" else "q")
    for part, column in zip(parts, columns):
        out.extend(repeat(column, len(part)) if column.__class__ is int else column)
    return out


def gather(column, idx: array):
    """``column`` gathered at positions ``idx`` (an ``array('q')``); a
    constant, or no column, passes through."""
    if column is None or column.__class__ is int:
        return column
    if column.__class__ is list:
        return list(map(column.__getitem__, idx))
    if _np is not None and column.__class__ is array:  # the same gather, vectorized
        got = _np.frombuffer(column, column.typecode)[_np.frombuffer(idx, "q")]
        return array(column.typecode, got.tobytes())
    return array(getattr(column, "typecode", "q"), map(column.__getitem__, idx))  # or a range


class EntryColumns:
    """A table's entries as aligned columns: a read-only ``Sequence[Entry]``
    whose ``(seq, kind, value)`` tuples are built when read.

    One rule: a column whose entries are all equal is stored as that one value.
    ``seqs`` is an ``array('q')`` (a ``range`` for a prefilled table);
    ``kinds`` an int or an ``array('B')``; the values are ``seeds`` plus
    ``vsizes`` (an int or ``array('q')``) when every value is a
    :class:`~repro.lsm.value.ValueRef`, else the plain ``values`` list
    (``bytes``, ``ValueRef`` or ``None``); ``sizes`` is each entry's
    data-block bytes (:func:`file_sizes`), an int or ``array('q')``.
    """

    __slots__ = ("seqs", "kinds", "sizes", "values", "seeds", "vsizes")  # __init__'s order

    def __init__(self, seqs, kinds, sizes, values=None, seeds=None, vsizes=None) -> None:
        self.seqs, self.kinds, self.sizes = seqs, _one(kinds), _one(sizes)
        self.values, self.seeds, self.vsizes = values, seeds, _one(vsizes)

    @classmethod
    def of(cls, keys: Sequence[bytes], entries: Sequence[Entry]) -> "EntryColumns":
        """The columns of ``(seq, kind, value)`` tuples aligned with ``keys``."""
        seqs, kinds, values = tuple(zip(*entries)) or ((), (), ())
        seqs, kinds = array("q", seqs), array("B", kinds)
        if {*map(type, values)} == {ValueRef}:
            try:
                seeds = array("q", list(map(attrgetter("seed"), values)))
            except (OverflowError, TypeError):  # not an int64: keep the list
                pass
            else:
                vsizes = _one(array("q", list(map(attrgetter("size"), values))))
                return cls(seqs, kinds, file_sizes(keys, vsizes), seeds=seeds, vsizes=vsizes)
        return cls(seqs, kinds, file_sizes(keys, map(entry_value_size, entries)), list(values))

    @classmethod
    def concat(cls, parts: Sequence["EntryColumns"]) -> "EntryColumns":
        """``parts`` laid end to end (a merge's input)."""
        seqs, kinds, sizes = (_concat(parts, name) for name in ("seqs", "kinds", "sizes"))
        if all(part.values is None for part in parts):
            seeds, vsizes = _concat(parts, "seeds"), _concat(parts, "vsizes")
            return cls(seqs, kinds, sizes, seeds=seeds, vsizes=vsizes)
        values: list = []
        for part in parts:
            values += part.values if part.values is not None else part._refs()
        return cls(seqs, kinds, sizes, values)

    def take(self, idx: array) -> "EntryColumns":
        """The entries at positions ``idx`` (an ``array('q')``), in that order."""
        return EntryColumns(*(gather(getattr(self, name), idx) for name in self.__slots__))

    def cumulative(self):
        """``cum[i]`` = data-block bytes of the first ``i`` entries: a
        ``range`` when every entry has one size, else an ``array('q')``."""
        sizes = self.sizes
        if sizes.__class__ is int:
            return range(0, (len(self.seqs) + 1) * sizes, sizes)
        return array("q", accumulate(sizes, initial=0))

    def _refs(self) -> Iterator[ValueRef]:
        return map(ValueRef, self.seeds, _each(self.vsizes))

    def __len__(self) -> int:
        return len(self.seqs)

    def __getitem__(self, j):
        if j.__class__ is slice:  # a window: the same columns, sliced
            columns = map(self.__getattribute__, self.__slots__)
            return EntryColumns(*(c if c is None or c.__class__ is int else c[j] for c in columns))
        seq = self.seqs[j]  # IndexError past either end
        kinds, values, vsizes = self.kinds, self.values, self.vsizes
        kind = kinds if kinds.__class__ is int else kinds[j]
        if values is not None:
            return seq, kind, values[j]
        return seq, kind, ValueRef(self.seeds[j], vsizes if vsizes.__class__ is int else vsizes[j])

    def __iter__(self) -> Iterator[Entry]:
        values = self._refs() if self.values is None else self.values
        return zip(self.seqs, _each(self.kinds), values)


def cut_blocks(cum: Sequence[int], block_size: int) -> Tuple[array, array]:
    """Data-block layout of the entries of a run sized by ``cum``.

    ``cum[i]`` is the bytes of the run's first ``i`` entries: an array, or a
    ``range`` when every entry has one size.  A block closes before the entry
    that would take it past ``block_size`` (blocks are usually slightly
    smaller, since entries do not split); an oversize entry gets a block of
    its own.  Returns each block's first entry and byte offset as
    ``array('q')`` (16 B per block; the read path bisects them).
    """
    n = len(cum) - 1
    if isinstance(cum, range):  # one size: every block holds the same count
        per_block = max(1, block_size // cum.step)
        # From a list, an array is sized once: exact, and faster past a few blocks.
        return (
            array("q", list(range(0, n, per_block))),
            array("q", list(range(0, n * cum.step, per_block * cum.step))),
        )
    first, offset = array("q"), array("q")
    start = 0
    while start < n:
        first.append(start)
        offset.append(cum[start])
        start = max(start + 1, bisect_right(cum, cum[start] + block_size, start) - 1)
    return first, offset


class SSTable:
    """An immutable, sorted, block-structured table."""

    def __init__(
        self,
        number: int,
        keys: Tuple[bytes, ...],
        entries: EntryColumns,
        block_first: Sequence[int],
        block_offset: Sequence[int],
        data_bytes: int,
        largest_seq: int,
        bloom_bits_per_key: int = 0,
    ) -> None:
        if keys.__class__ is not tuple:
            raise DBError(f"SST keys must be a tuple, got {type(keys).__name__}")
        if len(keys) != len(entries):
            raise DBError("keys/entries length mismatch")
        if not keys:
            raise DBError("SSTable cannot be empty")
        self.number = number
        # A tuple: C bisect over it *is* the index, and a tuple of bytes is
        # untracked at its first collection, so the collector stops walking it.
        self.keys = keys
        self.entries = entries  # aligned with keys
        self.entry_count = len(keys)
        self.smallest = keys[0]
        self.largest = keys[-1]
        self.largest_seq = largest_seq  # FileMetaData::largest_seqno
        # Block layout (see cut_blocks): _block_first[i] is the index of
        # block i's first entry; _block_offset[i] is its byte offset in the file.
        self._block_first = block_first
        self._block_offset = block_offset
        self.block_count = len(block_first)
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
        keys: Tuple[bytes, ...],
        entries: EntryColumns,
        block_size: int,
        bloom_bits_per_key: int = 0,
        largest_seq: Optional[int] = None,
    ) -> "SSTable":
        """Bulk constructor: the table of ``keys`` and their entry columns,
        whose blocks are cut from the columns' sizes (:func:`cut_blocks`).
        ``largest_seq`` is computed unless the caller knows it."""
        if any(map(ge, keys, islice(keys, 1, None))):
            raise DBError(f"SST #{number}: keys must be strictly increasing")
        cum = entries.cumulative()
        first, offset = cut_blocks(cum, block_size)  # the constructor checks len(keys)
        if largest_seq is None:
            seqs = entries.seqs
            if _np is not None and seqs.__class__ is array and seqs:  # the same max, vectorized
                largest_seq = int(_np.frombuffer(seqs, "q").max())
            else:
                largest_seq = max(seqs, default=0)
        return cls(number, keys, entries, first, offset, cum[-1], largest_seq, bloom_bits_per_key)

    # -- metadata -----------------------------------------------------------

    def overlaps(self, smallest: bytes, largest: bytes) -> bool:
        return not (self.largest < smallest or largest < self.smallest)

    def may_contain(self, key: bytes) -> bool:
        """Bloom check (always True without a filter)."""
        if self.bloom is None:
            return True
        return self.bloom.may_contain(key)

    # -- lookup ---------------------------------------------------------------

    def locate(self, key: bytes) -> Tuple[int, int]:
        """Index binary search: ``(entry_idx, block_idx)``.

        ``entry_idx`` is the first entry not below ``key``, clamped to the
        last entry, so ``keys[entry_idx] == key`` is the exact-match test;
        ``block_idx`` is the data block holding that entry (block 0 starts
        at entry 0).  One ``bisect_left`` over the keys per probe serves the
        block read and the match that follows it.
        """
        entry_idx = bisect_left(self.keys, key)
        if entry_idx == self.entry_count:
            entry_idx -= 1
        return entry_idx, bisect_right(self._block_first, entry_idx) - 1

    def block_span(self, block_idx: int) -> Tuple[int, int]:
        """(file_offset, nbytes) of one data block."""
        last = self.block_count - 1
        if not 0 <= block_idx <= last:
            raise DBError(f"block index out of range: {block_idx}")
        offset = self._block_offset[block_idx]
        if block_idx == last:
            nbytes = self.data_bytes - offset
        else:
            nbytes = self._block_offset[block_idx + 1] - offset
        return offset, nbytes if nbytes > 1 else 1

    # -- integrity ---------------------------------------------------------------

    def _content_crc(self, block_idx: int) -> int:
        """CRC32 of one data block's entries as they are now."""
        first = self._block_first
        hi = first[block_idx + 1] if block_idx + 1 < len(first) else len(self.keys)
        crc = 0
        for i in range(first[block_idx], hi):
            crc = entry_checksum(self.keys[i], self.entries[i], crc)
        return crc

    def block_checksum(self, block_idx: int) -> int:
        """Stored CRC32 of one data block's logical content (lazy)."""
        if not 0 <= block_idx < len(self._block_first):
            raise DBError(f"block index out of range: {block_idx}")
        crc = self._block_crcs.get(block_idx)
        if crc is None:
            crc = self._block_crcs[block_idx] = self._content_crc(block_idx)
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
        if self._content_crc(block_idx) != self.block_checksum(block_idx):
            raise CorruptionError(
                f"SST #{self.number} block {block_idx} checksum mismatch"
            )

    def find(self, key: bytes) -> Optional[Entry]:
        """Exact-match lookup: :meth:`locate`, then the match test."""
        idx = self.locate(key)[0]
        return self.entries[idx] if self.keys[idx] == key else None

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
    arrives (``estimated_bytes``) and :meth:`finish` turns the entries into
    columns and cuts the data blocks.
    """

    def __init__(self, number: int, block_size: int, bloom_bits_per_key: int = 0) -> None:
        if block_size <= 0:
            raise DBError(f"block_size must be positive: {block_size}")
        self.number = number
        self.block_size = block_size
        self.bloom_bits_per_key = bloom_bits_per_key
        self._keys: List[bytes] = []
        self._entries: List[Entry] = []
        self._bytes = 0

    def add(self, key: bytes, entry: Entry) -> None:
        keys = self._keys
        if keys and key <= keys[-1]:
            raise DBError(
                f"keys must be added in strictly increasing order: "
                f"{key!r} after {keys[-1]!r}"
            )
        keys.append(key)
        self._entries.append(entry)
        self._bytes += entry_file_bytes(key, entry)

    @property
    def estimated_bytes(self) -> int:
        """Data bytes of everything added so far."""
        return self._bytes

    @property
    def entry_count(self) -> int:
        return len(self._keys)

    def finish(self) -> SSTable:
        if not self._keys:
            raise DBError("cannot finish an empty SSTable")
        return SSTable.build(
            self.number, tuple(self._keys), EntryColumns.of(self._keys, self._entries),
            self.block_size, self.bloom_bits_per_key,
        )
