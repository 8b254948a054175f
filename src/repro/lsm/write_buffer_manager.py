"""Joint memtable byte budget across DB instances (RocksDB's
``WriteBufferManager``).

One ``DB`` caps its own memtable memory with ``write_buffer_size`` x
``max_write_buffer_number``.  When many shards or column families share a
host, that per-instance cap composes badly: N shards each sized for the
whole machine can together hold N times the intended memory.  RocksDB's
answer is the WriteBufferManager — a single byte budget charged by every
memtable of every participating DB; when the budget is exhausted, the
instance holding the largest mutable memtable flushes early.

This module mirrors that contract for the simulation:

* every registered DB's memtables (mutable + immutable, i.e. bytes not yet
  flushed to Level 0) charge the shared budget;
* :meth:`WriteBufferManager.should_flush` reproduces RocksDB's trigger —
  flush when *mutable* usage alone crosses 7/8 of the budget, or when total
  usage (flushes pending included) is over budget while mutable usage is at
  least half of it;
* the DB asking is only told to flush if it owns the largest non-empty
  mutable memtable (ties go to the earliest-registered DB), so one shard's
  burst cannot force an idle shard to churn out tiny SST files.

The manager is a pure policy object polled from the write path — it holds
no engine state and installs no processes, so sharing one across shards
keeps runs deterministic.
"""

from __future__ import annotations

from typing import List

from repro.errors import DBError
from repro.sim.stats import StatsSet


class WriteBufferManager:
    """Shared memtable byte budget across several DB instances."""

    def __init__(self, buffer_size: int) -> None:
        if buffer_size <= 0:
            raise DBError(f"write buffer budget must be positive: {buffer_size}")
        self.buffer_size = buffer_size
        # 7/8 of the budget, RocksDB's mutable_limit_.
        self.mutable_limit = buffer_size * 7 // 8
        self._dbs: List[object] = []
        self.stats = StatsSet()
        #: High-water mark of joint memtable usage (sampled on policy checks).
        self.peak_usage = 0

    # -- membership ----------------------------------------------------------

    def register(self, db) -> None:
        """Attach a DB's memtables to this budget (done by ``DB.__init__``)."""
        if db not in self._dbs:
            self._dbs.append(db)

    # -- accounting ----------------------------------------------------------

    def mutable_usage(self) -> int:
        """Bytes held in *mutable* memtables across all registered DBs."""
        return sum(db.memtables.mutable.charged_bytes for db in self._dbs)

    def memory_usage(self) -> int:
        """Bytes held in all memtables (mutable + awaiting flush)."""
        total = 0
        for db in self._dbs:
            total += db.memtables.mutable.charged_bytes
            for imm in db.memtables.immutables:
                total += imm.charged_bytes
        return total

    # -- policy --------------------------------------------------------------

    def should_flush(self, db) -> bool:
        """True when ``db`` should seal its mutable memtable early.

        RocksDB's ``WriteBufferManager::ShouldFlush`` trigger, gated on
        ``db`` owning the largest non-empty mutable memtable so exactly one
        sharer reacts to budget pressure at a time.
        """
        usage = self.memory_usage()
        if usage > self.peak_usage:
            self.peak_usage = usage
        mutable = self.mutable_usage()
        if mutable <= self.mutable_limit and (
            usage < self.buffer_size or mutable < self.buffer_size // 2
        ):
            return False
        own = db.memtables.mutable.charged_bytes
        if own == 0:
            return False
        for other in self._dbs:
            if other is db:
                break
            if other.memtables.mutable.charged_bytes >= own:
                return False  # an earlier-registered DB is at least as full
        for other in self._dbs[self._dbs.index(db) + 1:]:
            if other.memtables.mutable.charged_bytes > own:
                return False
        self.stats.inc("flush_triggers")
        return True
