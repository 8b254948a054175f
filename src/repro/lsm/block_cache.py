"""LRU block cache (RocksDB's in-process cache of decoded data blocks).

Kept deliberately small by default (8 MB, the RocksDB default) — the paper's
setup leans on the OS page cache for bulk caching, and the block cache only
short-circuits the block *decode* cost plus the page-cache round trip for
very hot blocks.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from repro.errors import DBError
from repro.sim.stats import StatsSet

BlockKey = Tuple[int, int, int]  # (namespace, sst number, block index)


class BlockCache:
    """Byte-budgeted LRU over ``(namespace, sst, block)`` keys.

    A cache can be shared by several DB instances (shards / column
    families): each sharer prefixes its keys with a distinct integer
    namespace (a DB's ``cache_namespace``, 0 by default), so per-DB SST
    numbering never collides while all sharers draw on one joint byte
    budget.  ``lookup`` and ``insert`` run once per probed block: they
    count into the ticker dict directly, without a call.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise DBError(f"block cache capacity must be >= 0: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[BlockKey, int]" = OrderedDict()
        self._used = 0
        self.stats = StatsSet()
        self._tickers = self.stats.counters()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._used

    def lookup(self, key: BlockKey) -> bool:
        """True on hit (promotes to MRU)."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._tickers["hits"] += 1
            return True
        self._tickers["misses"] += 1
        return False

    def insert(self, key: BlockKey, charge: int) -> None:
        """Insert/refresh a block, evicting LRU entries over budget."""
        if charge <= 0:
            raise DBError(f"block charge must be positive: {charge}")
        old = self._entries.pop(key, None)
        if old is not None:
            self._used -= old
        if charge > self.capacity_bytes:
            self.stats.inc("rejected")
            if old is not None:
                # The refresh dropped a previously cached block: account for
                # it instead of letting the entry vanish silently.
                self.stats.inc("refresh_drops")
            return
        entries = self._entries
        entries[key] = charge
        self._used += charge
        if self._used > self.capacity_bytes:
            evicted = 0
            while self._used > self.capacity_bytes:
                self._used -= entries.popitem(last=False)[1]
                evicted += 1
            self._tickers["evictions"] += evicted

    def erase_file(self, sst_number: int, namespace: int) -> None:
        """Drop all of one sharer's blocks of a deleted SST."""
        stale = [
            k for k in self._entries if k[0] == namespace and k[1] == sst_number
        ]
        for k in stale:
            self._used -= self._entries.pop(k)
        if stale:
            self.stats.inc("files_erased")

    def hit_rate(self) -> float:
        hits = self.stats.get("hits")
        total = hits + self.stats.get("misses")
        return hits / total if total else 0.0
