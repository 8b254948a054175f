"""Database options, mirroring RocksDB 5.17 defaults where the paper relies
on them.

Notable defaults reproduced faithfully:

* ``write_buffer_size`` 64 MB, ``max_write_buffer_number`` 2 — "users often
  impose a limit on the number of in-memory Memtables (2 by default)";
* ``level0_slowdown_writes_trigger`` 20 / ``level0_stop_writes_trigger`` 36 —
  "on-disk Level-0 files (36 by default)";
* ``level0_file_num_compaction_trigger`` 4;
* **no bloom filter** unless configured (``bloom_bits_per_key = 0``), which
  is what makes the paper's Level-0 query overhead visible;
* ``delayed_write_rate`` 16 MB/s with the Algorithm-1 refill interval of
  1024 us and Dec = 0.8 / Inc = 1.25 adaptation;
* a single writer queue with pipelined writes (the paper's Algorithm 2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import OptionsError
from repro.sim.units import KB, MB, us

SKIPLIST_REP = "skiplist"
HASH_REP = "hash"

WAL_OFF = "off"
WAL_BUFFERED = "buffered"  # write() into the page cache; OS flushes later
WAL_SYNC = "sync"  # fsync every write group

NUM_LEVELS = 7  # L0 .. L6
LEVEL_MULTIPLIER = 10  # each level below L1 is this much larger


@dataclass
class Options:
    """Configuration of a :class:`repro.lsm.db.DB` instance."""

    # --- memtable --------------------------------------------------------
    write_buffer_size: int = 64 * MB
    max_write_buffer_number: int = 2
    memtable_rep: str = SKIPLIST_REP

    # --- level structure ---------------------------------------------------
    level0_file_num_compaction_trigger: int = 4
    level0_slowdown_writes_trigger: int = 20
    level0_stop_writes_trigger: int = 36
    max_bytes_for_level_base: int = 256 * MB
    target_file_size_base: int = 64 * MB  # every level's output file size

    # --- reads ----------------------------------------------------------
    block_size: int = 4 * KB
    block_cache_bytes: int = 8 * MB  # RocksDB's small default cache
    bloom_bits_per_key: int = 0  # 0 = no filter (RocksDB default)
    # Verify SST block checksums on every device read (RocksDB's
    # paranoid_checks).  Off by default: corruption checks then run only
    # for files the fault layer has marked damaged.
    paranoid_checks: bool = False

    # --- write path --------------------------------------------------------
    # Section VI implication: "multiple short write thread queues rather
    # than one single long queue".  1 = RocksDB's single queue.
    write_queue_shards: int = 1
    wal_mode: str = WAL_BUFFERED
    # Section VI implication: "compressing and condensing the data written
    # to the log could help reduce the I/O traffic".
    wal_compression: bool = False
    wal_compression_ratio: float = 0.6  # compressed size / raw size

    # --- throttling (Algorithm 1) -----------------------------------------
    delayed_write_rate: int = 16 * MB  # bytes/second
    # Also stall when compaction debt piles up (RocksDB soft limit).
    soft_pending_compaction_bytes_limit: int = 64 * 1024 * MB

    # --- background work -----------------------------------------------------
    compaction_readahead_bytes: int = 256 * KB
    # Token-bucket cap on background (flush+compaction) write bytes/second;
    # 0 disables (RocksDB's rate_limiter).
    rate_limit_bytes_per_sec: int = 0

    # --- background-error handling (RocksDB ErrorHandler / Resume) ----------
    # Base virtual-time delay before the first auto-resume attempt after a
    # recoverable (soft/hard) background error.
    bg_error_resume_interval_ns: int = us(500)
    # Exponential backoff multiplier between failed resume attempts, and
    # the cap the schedule saturates at.
    bg_error_resume_backoff: float = 2.0
    bg_error_resume_max_interval_ns: int = us(50_000)
    # Failed resume attempts tolerated for a *soft* error before it
    # escalates to hard (read-only).  Hard errors keep retrying forever;
    # only permanent faults and corruption are fatal.
    max_bg_error_resume_count: int = 6

    # Free-form label used in reports.
    name: str = "default"

    def validate(self) -> None:
        """Raise :class:`OptionsError` on inconsistent settings."""
        if self.write_buffer_size <= 0:
            raise OptionsError("write_buffer_size must be positive")
        if self.max_write_buffer_number < 1:
            raise OptionsError("max_write_buffer_number must be >= 1")
        if self.memtable_rep not in (SKIPLIST_REP, HASH_REP):
            raise OptionsError(f"unknown memtable_rep {self.memtable_rep!r}")
        if not (
            0
            < self.level0_file_num_compaction_trigger
            <= self.level0_slowdown_writes_trigger
            <= self.level0_stop_writes_trigger
        ):
            raise OptionsError(
                "need 0 < compaction trigger <= slowdown trigger <= stop trigger, got "
                f"{self.level0_file_num_compaction_trigger} / "
                f"{self.level0_slowdown_writes_trigger} / "
                f"{self.level0_stop_writes_trigger}"
            )
        if self.block_size <= 0:
            raise OptionsError("block_size must be positive")
        if self.bloom_bits_per_key < 0:
            raise OptionsError("bloom_bits_per_key must be >= 0")
        if self.wal_mode not in (WAL_OFF, WAL_BUFFERED, WAL_SYNC):
            raise OptionsError(f"unknown wal_mode {self.wal_mode!r}")
        if self.delayed_write_rate <= 0:
            raise OptionsError("delayed_write_rate must be positive")
        if self.write_queue_shards < 1:
            raise OptionsError("write_queue_shards must be >= 1")
        if self.rate_limit_bytes_per_sec < 0:
            raise OptionsError("rate_limit_bytes_per_sec must be >= 0")
        if not 0.0 < self.wal_compression_ratio <= 1.0:
            raise OptionsError("wal_compression_ratio must be in (0, 1]")
        if self.bg_error_resume_interval_ns <= 0:
            raise OptionsError("bg_error_resume_interval_ns must be positive")
        if self.bg_error_resume_backoff < 1.0:
            raise OptionsError("bg_error_resume_backoff must be >= 1")
        if self.bg_error_resume_max_interval_ns < self.bg_error_resume_interval_ns:
            raise OptionsError(
                "bg_error_resume_max_interval_ns must be >= the base interval"
            )
        if self.max_bg_error_resume_count < 1:
            raise OptionsError("max_bg_error_resume_count must be >= 1")

    def copy(self, **overrides) -> "Options":
        """Return a copy with selected fields replaced (and re-validated)."""
        new = replace(self, **overrides)
        new.validate()
        return new

    def max_bytes_for_level(self, level: int) -> int:
        """Target byte size of a level (L1 = base, ``LEVEL_MULTIPLIER``× per
        level below)."""
        if level < 1:
            raise OptionsError(f"levels below 1 have no byte target: {level}")
        size = float(self.max_bytes_for_level_base)
        for _ in range(level - 1):
            size *= LEVEL_MULTIPLIER
        return int(size)

    def low_space_threshold(self) -> int:
        """Free-space level (bytes) below which writes soft-stall.

        With a filesystem quota configured, writes are delayed once free
        space (minus reserved compaction output) drops to two write
        buffers' worth, before ENOSPC ever fires."""
        return 2 * self.write_buffer_size

    def target_file_size(self, level: int) -> int:
        """Target output file size for a compaction into ``level``: the
        same at every level (RocksDB's ``target_file_size_multiplier`` 1)."""
        return max(1, self.target_file_size_base)
