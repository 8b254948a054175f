"""A real skiplist — RocksDB's default memtable representation.

Nodes are plain Python lists ``[key, data, next_0, next_1, ...]`` to keep
allocation cheap.  Heights are drawn from a deterministic geometric
distribution (p = 1/4, max height 12), the same parameters as LevelDB /
RocksDB, so the expected search path length — which the CPU cost model
charges — matches the real structure.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Tuple

from repro.sim.rng import RandomStream

MAX_HEIGHT = 12
_BRANCHING = 4  # P(level up) = 1/4

_KEY = 0
_DATA = 1
_NEXT0 = 2


class SkipList:
    """Ordered map from ``bytes`` keys to opaque data, latest value wins."""

    __slots__ = ("_rng", "_head", "_height", "_count")

    def __init__(self, rng: Optional[RandomStream] = None) -> None:
        self._rng = rng or RandomStream(0, "skiplist")
        self._head: list = [None, None] + [None] * MAX_HEIGHT
        self._height = 1
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _random_height(self) -> int:
        height = 1
        randint = self._rng.randint
        while height < MAX_HEIGHT and randint(1, _BRANCHING) == 1:
            height += 1
        return height

    def _find_predecessors(self, key: bytes) -> list:
        """Nodes preceding ``key`` at each level (the update path)."""
        head = self._head
        update = [head] * MAX_HEIGHT
        node = head
        for level in range(self._height + 1, _NEXT0 - 1, -1):
            # ``level`` is the node-list slot (key/data offsets folded in).
            nxt = node[level]
            while nxt is not None and nxt[_KEY] < key:
                node = nxt
                nxt = node[level]
            update[level - _NEXT0] = node
        return update

    def insert(self, key: bytes, data: Any) -> bool:
        """Insert or replace; returns True if the key was new."""
        update = self._find_predecessors(key)
        candidate = update[0][_NEXT0]
        if candidate is not None and candidate[_KEY] == key:
            candidate[_DATA] = data
            return False
        height = self._random_height()
        if height > self._height:
            self._height = height
        node = [key, data] + [None] * height
        for level in range(height):
            prev = update[level]
            node[_NEXT0 + level] = prev[_NEXT0 + level]
            prev[_NEXT0 + level] = node
        self._count += 1
        return True

    def get(self, key: bytes) -> Optional[Any]:
        """Return the data for ``key`` or None."""
        node = self._head
        for slot in range(self._height + 1, _NEXT0 - 1, -1):
            nxt = node[slot]
            while nxt is not None and nxt[_KEY] < key:
                node = nxt
                nxt = node[slot]
        candidate = node[_NEXT0]
        if candidate is not None and candidate[_KEY] == key:
            return candidate[_DATA]
        return None

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __iter__(self) -> Iterator[Tuple[bytes, Any]]:
        node = self._head[_NEXT0]
        while node is not None:
            yield node[_KEY], node[_DATA]
            node = node[_NEXT0]

