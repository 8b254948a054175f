"""Bloom filter (full-filter style, double hashing).

RocksDB's default table options ship **without** a filter policy — a default
the paper implicitly relies on when it measures per-Level-0-file query
overhead — so the store only builds filters when
``Options.bloom_bits_per_key > 0``.  The implementation is real: CRC-based
double hashing over a bit array, with the standard ``k = bits_per_key * ln 2``
probe count.
"""

from __future__ import annotations

import zlib
from typing import Iterable

from repro.errors import DBError

_GOLDEN = 0x9E3779B9


def _hash_pair(key: bytes) -> tuple[int, int]:
    h1 = zlib.crc32(key) & 0xFFFFFFFF
    h2 = (zlib.crc32(key, _GOLDEN) | 1) & 0xFFFFFFFF  # odd => full cycle
    return h1, h2


class BloomFilter:
    """Immutable bloom filter over a set of byte keys."""

    def __init__(self, keys: Iterable[bytes], bits_per_key: int) -> None:
        if bits_per_key <= 0:
            raise DBError(f"bits_per_key must be positive: {bits_per_key}")
        keys = list(keys)
        # Probe count: bits_per_key * ln(2), clamped like LevelDB.
        self.k = max(1, min(30, int(bits_per_key * 0.69)))
        nbits = max(64, len(keys) * bits_per_key)
        self.nbits = nbits
        # Bit p is bit (p & 7) of byte p >> 3: setting or testing one touches
        # one byte, where shifts of one big int copy the whole filter.
        bits = bytearray((nbits + 7) >> 3)
        for key in keys:
            h1, h2 = _hash_pair(key)
            for i in range(self.k):
                p = (h1 + i * h2) % nbits
                bits[p >> 3] |= 1 << (p & 7)
        self._bits = bits
        self.key_count = len(keys)

    def may_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means possibly present."""
        h1, h2 = _hash_pair(key)
        bits = self._bits
        nbits = self.nbits
        for i in range(self.k):
            p = (h1 + i * h2) % nbits
            if not bits[p >> 3] >> (p & 7) & 1:
                return False
        return True

    @property
    def approximate_bytes(self) -> int:
        return self.nbits // 8
