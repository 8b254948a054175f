"""CPU cost model for software operations inside the store.

The paper's central theme is that *software* overhead, negligible next to
flash latencies, dominates on 3D XPoint.  The simulator therefore charges
virtual CPU time for every software step.  Constants are calibrated against
the paper's direct measurements:

* a Level-0 file lookup costs ~8.5 us for a 32 MB file and ~9.7 us for a
  256 MB file (Section IV-B) — an ``a + b * log2(entries)`` model with
  a = 2.5 us and b = 0.4 us fits both points;
* skiplist insertion is O(log N) with comparable constants (Analysis #2:
  larger memtables lengthen WRITE latency);
* the median end-to-end write latency t is ~15 us (Analysis #1), which the
  sum of WAL append, group-commit bookkeeping and memtable insert must land
  near.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.units import us


@dataclass(frozen=True)
class CostModel:
    """Per-operation virtual CPU costs (all in nanoseconds)."""

    # Skiplist / memtable
    memtable_insert_base_ns: int = us(3.0)
    memtable_insert_per_level_ns: int = us(0.5)
    memtable_lookup_base_ns: int = us(0.8)
    memtable_lookup_per_level_ns: int = us(0.25)

    # Level-0 SST search, calibrated to the paper's direct measurement
    # (8.5 us for a 32 MB file, 9.7 us for 256 MB).
    sst_search_base_ns: int = us(2.5)
    sst_search_per_level_ns: int = us(0.4)
    # Levels >= 1: plain index binary search, cheaper than the L0 walk.
    sst_index_search_base_ns: int = us(1.5)
    sst_index_search_per_level_ns: int = us(0.2)
    # Cheap rejection when a file's [smallest, largest] misses the key.
    sst_range_check_ns: int = us(0.2)
    bloom_probe_ns: int = us(0.25)
    block_decode_ns: int = us(1.0)
    block_cache_lookup_ns: int = us(0.3)

    # Write path
    wal_serialize_per_byte_ps: int = 1000  # picoseconds per byte (write() + memcpy)
    wal_compress_per_byte_ps: int = 800  # snappy-class compression CPU
    wal_append_base_ns: int = us(2.0)  # write() syscall into the page cache
    write_group_leader_ns: int = us(1.0)
    write_group_per_writer_ns: int = us(0.3)

    # Background work: calibrated to real RocksDB per-thread throughput at
    # 1 KB values (flush ~0.5-1 GB/s, compaction ~150-250 MB/s per thread
    # including checksum/compare/encode work).
    flush_entry_ns: int = us(1.0)
    compaction_entry_ns: int = us(8.0)
    manifest_apply_ns: int = us(5.0)

    # Client-side overhead per db_bench operation.
    client_op_overhead_ns: int = us(1.0)

    # -- derived costs ---------------------------------------------------------

    # The O(log N) formulas below are memoized per instance, keyed by the
    # count's bit length: the cost only changes when the entry count crosses
    # a power of two, so each table holds a few dozen entries at most and
    # the dict probe is several times cheaper than the float arithmetic.
    # Memoization is exact — same bit length, same rounded result.

    def __post_init__(self) -> None:
        # frozen dataclass: caches bypass the immutability guard and are not
        # dataclass fields, so __eq__/__hash__/__repr__ are unaffected.
        object.__setattr__(self, "_memo_insert", {})
        object.__setattr__(self, "_memo_lookup", {})
        object.__setattr__(self, "_memo_search", {})
        object.__setattr__(self, "_memo_index", {})

    def memtable_insert(self, entry_count: int) -> int:
        """Skiplist insert: O(log N)."""
        level = (entry_count + 1).bit_length()  # == floor(log2(entry_count + 1)) + 1
        memo = self._memo_insert
        cost = memo.get(level)
        if cost is None:
            cost = memo[level] = round(
                self.memtable_insert_base_ns
                + self.memtable_insert_per_level_ns * (level - 1.0)
            )
        return cost

    def memtable_lookup(self, entry_count: int) -> int:
        level = (entry_count + 1).bit_length()  # == floor(log2(entry_count + 1)) + 1
        memo = self._memo_lookup
        cost = memo.get(level)
        if cost is None:
            cost = memo[level] = round(
                self.memtable_lookup_base_ns
                + self.memtable_lookup_per_level_ns * (level - 1.0)
            )
        return cost

    def sst_search(self, entry_count: int) -> int:
        """Level-0 in-file key search (SkipList-organized file)."""
        level = (entry_count + 1).bit_length()  # == floor(log2(entry_count + 1)) + 1
        memo = self._memo_search
        cost = memo.get(level)
        if cost is None:
            cost = memo[level] = round(
                self.sst_search_base_ns
                + self.sst_search_per_level_ns * (level - 1.0)
            )
        return cost

    def sst_index_search(self, entry_count: int) -> int:
        """Level >= 1 key search: index binary search + block restart scan."""
        level = (entry_count + 1).bit_length()  # == floor(log2(entry_count + 1)) + 1
        memo = self._memo_index
        cost = memo.get(level)
        if cost is None:
            cost = memo[level] = round(
                self.sst_index_search_base_ns
                + self.sst_index_search_per_level_ns * (level - 1.0)
            )
        return cost

    def flush_entries(self, n: int) -> int:
        return self.flush_entry_ns * n

    def compaction_entries(self, n: int) -> int:
        return self.compaction_entry_ns * n


DEFAULT_COSTS = CostModel()
