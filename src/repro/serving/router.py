"""Consistent-hash key routing across DB shards.

The serving layer spreads the key space over N shards with a classic
consistent-hash ring (virtual nodes, CRC32 positions).  Two properties
matter here:

* **determinism** — CRC32 is stable across processes and Python versions,
  so a sweep point routes identically under ``--jobs 1`` and ``--jobs N``
  and across hosts;
* **stability** — growing the ring from N to N+1 shards remaps roughly
  ``1/(N+1)`` of the keys, so a scale-out experiment measures data
  movement, not a full reshuffle (plain ``hash % N`` would remap ~all keys).
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from typing import Dict, List, Sequence, Tuple

from repro.errors import WorkloadError


#: Ring points per shard.
VNODES = 64


def _hash(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


class HashRing:
    """Consistent-hash ring mapping keys to shard indices [0, shards)."""

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise WorkloadError(f"need at least one shard: {shards}")
        self.shards = shards
        # A point's position depends only on its ``(shard, vnode)`` name.
        points: List[Tuple[int, int]] = sorted(
            (_hash(b"shard-%d#%d" % (shard, v)), shard)
            for shard in range(shards)
            for v in range(VNODES)
        )
        self._hashes = [h for h, _ in points]
        # Owner of each point, plus the first point's owner once more: a
        # hash past the last point wraps around to it.
        self._owners = [shard for _, shard in points] + [points[0][1]]

    def shard_for(self, key: bytes) -> int:
        """The shard owning ``key`` (first ring point at/after its hash)."""
        return self._owners[bisect_right(self._hashes, zlib.crc32(key) & 0xFFFFFFFF)]

    def partition(self, keys: Sequence[bytes]) -> List[List[bytes]]:
        """Split ``keys`` into per-shard lists (order preserved)."""
        out: List[List[bytes]] = [[] for _ in range(self.shards)]
        for key in keys:
            out[self.shard_for(key)].append(key)
        return out

    def distribution(self, keys: Sequence[bytes]) -> Dict[int, int]:
        """Keys-per-shard histogram (diagnostics and balance tests)."""
        counts: Dict[int, int] = {s: 0 for s in range(self.shards)}
        for key in keys:
            counts[self.shard_for(key)] += 1
        return counts
