"""Tests for consistent-hash key routing (``repro.serving.router``)."""

import pytest

from repro.errors import WorkloadError
from repro.serving.router import HashRing
from repro.workloads.generators import encode_key


def sample_keys(count=2000):
    return [encode_key(i) for i in range(count)]


class TestHashRing:
    def test_range_and_determinism(self):
        """Two independently built rings route every key identically."""
        a, b = HashRing(4), HashRing(4)
        for key in sample_keys():
            shard = a.shard_for(key)
            assert 0 <= shard < 4
            assert shard == b.shard_for(key)

    def test_single_shard_takes_everything(self):
        ring = HashRing(1)
        assert all(ring.shard_for(k) == 0 for k in sample_keys(200))

    def test_balance(self):
        """With virtual nodes, no shard owns a wildly outsized key share."""
        ring = HashRing(4)
        counts = ring.distribution(sample_keys(8000))
        assert sum(counts.values()) == 8000
        for shard in range(4):
            assert counts[shard] > 8000 // 4 // 4  # > 1/4 of a fair share

    def test_scale_out_stability(self):
        """Growing N -> N+1 shards remaps a minority of keys, not ~all.

        This is the consistent-hashing contract (vs ``hash % N``, which
        remaps ~N/(N+1) of the keys on every resize).
        """
        keys = sample_keys(4000)
        before = HashRing(4)
        after = HashRing(5)
        moved = sum(
            1 for k in keys if before.shard_for(k) != after.shard_for(k)
        )
        assert moved / len(keys) < 0.45  # ideal ~1/5; modulo would be ~4/5

    def test_partition_preserves_order_and_total(self):
        ring = HashRing(3)
        keys = sample_keys(500)
        parts = ring.partition(keys)
        assert sum(len(p) for p in parts) == len(keys)
        for shard, part in enumerate(parts):
            assert part == [k for k in keys if ring.shard_for(k) == shard]

    def test_validation(self):
        with pytest.raises(WorkloadError):
            HashRing(0)
