"""Internal record format shared by memtables, the WAL and SSTs.

An internal entry is the tuple ``(seq, kind, value)`` attached to a key:

* ``seq`` — global sequence number, monotonically increasing per write;
* ``kind`` — :data:`KIND_PUT` or :data:`KIND_DELETE` (tombstone);
* ``value`` — ``bytes`` or :class:`~repro.lsm.value.ValueRef` (PUT only).

Newer entries shadow older ones for the same user key; tombstones are
dropped when a compaction reaches the bottommost level.
"""

from __future__ import annotations

from zlib import crc32

from typing import Iterable, Optional, Tuple

from repro.lsm.value import Value, value_size

KIND_DELETE = 0
KIND_PUT = 1

Entry = Tuple[int, int, Optional[Value]]  # (seq, kind, value)

ENTRY_HEADER_BYTES = 8  # an SST entry's seq/kind varint-ish header

#: A DB's on-disk layout: write-ahead logs and tables live under these
#: path prefixes (beside the ``MANIFEST``).
WAL_DIR = "wal/"
SST_DIR = "sst/"


def sst_path(number: int) -> str:
    """The path of table file ``number``."""
    return f"{SST_DIR}{number:06d}.sst"


def entry_checksum(key: bytes, entry: Entry, crc: int = 0) -> int:
    """Fold one (key, entry) pair into a CRC32 accumulator.

    Covers everything the entry logically serializes to: key bytes, sequence
    number, kind, and the value content (a :class:`~repro.lsm.value.ValueRef`
    contributes its identity rather than its materialized bytes — the two are
    in bijection, so detection power is the same).
    """
    seq, kind, value = entry
    crc = crc32(key, crc)
    crc = crc32(b"%d|%d" % (seq, kind), crc)
    if value is None:
        crc = crc32(b"~", crc)
    elif value.__class__ is bytes:
        crc = crc32(value, crc)
    else:  # ValueRef or bytes-like
        size = getattr(value, "size", None)
        if size is not None:
            crc = crc32(b"@%d:%d" % (getattr(value, "seed", 0), size), crc)
        else:
            crc = crc32(bytes(value), crc)
    return crc


def records_checksum(records: Iterable[Tuple[bytes, Entry]]) -> int:
    """CRC32 over a sequence of (key, entry) pairs (WAL groups, SST blocks)."""
    crc = 0
    for key, entry in records:
        crc = entry_checksum(key, entry, crc)
    return crc


def entry_value_size(entry: Entry) -> int:
    """Logical value bytes of an entry (0 for tombstones)."""
    value = entry[2]
    if value is None:
        return 0
    # Hot path: avoid the generic value_size() dispatch.
    if value.__class__ is bytes:
        return len(value)
    size = getattr(value, "size", None)
    if size is not None:
        return size
    return value_size(value)


def entry_charge(key: bytes, entry: Entry, overhead: int) -> int:
    """Memory charged to the memtable for one entry (RocksDB arena analog)."""
    return len(key) + entry_value_size(entry) + overhead


def entry_bytes(key_size: int, value_size: int) -> int:
    """On-disk logical footprint inside an SST data block of an entry whose
    key and value take ``key_size`` and ``value_size`` bytes."""
    return key_size + value_size + ENTRY_HEADER_BYTES


def entry_file_bytes(key: bytes, entry: Entry) -> int:
    """On-disk logical footprint of one entry inside an SST data block."""
    return entry_bytes(len(key), entry_value_size(entry))


def wal_record_bytes(key: bytes, entry: Entry, record_overhead: int) -> int:
    """On-disk logical footprint of one entry in the write-ahead log."""
    return len(key) + entry_value_size(entry) + record_overhead
