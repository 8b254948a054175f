"""Tests for the LRU block cache."""

import pytest

from repro.errors import DBError
from repro.lsm.block_cache import BlockCache


def test_miss_then_hit():
    cache = BlockCache(1024)
    assert not cache.lookup((1, 0))
    cache.insert((1, 0), 100)
    assert cache.lookup((1, 0))
    assert cache.stats.get("hits") == 1
    assert cache.stats.get("misses") == 1


def test_byte_budget_eviction():
    cache = BlockCache(300)
    cache.insert((1, 0), 100)
    cache.insert((1, 1), 100)
    cache.insert((1, 2), 100)
    cache.insert((1, 3), 100)  # evicts (1,0)
    assert not cache.lookup((1, 0))
    assert cache.lookup((1, 3))
    assert cache.used_bytes <= 300
    assert cache.stats.get("evictions") == 1


def test_one_insert_counts_every_block_it_evicts():
    cache = BlockCache(300)
    for block in range(3):
        cache.insert((0, 1, block), 100)
    cache.insert((0, 2, 0), 250)  # evicts all three
    assert len(cache) == 1 and cache.used_bytes == 250
    assert cache.stats.get("evictions") == 3


def test_lookup_promotes():
    cache = BlockCache(200)
    cache.insert((1, 0), 100)
    cache.insert((1, 1), 100)
    cache.lookup((1, 0))  # promote: (1,1) becomes LRU
    cache.insert((1, 2), 100)
    assert cache.lookup((1, 0))
    assert not cache.lookup((1, 1))


def test_reinsert_updates_charge():
    cache = BlockCache(1000)
    cache.insert((1, 0), 100)
    cache.insert((1, 0), 300)
    assert cache.used_bytes == 300
    assert len(cache) == 1


def test_oversized_block_rejected_silently():
    cache = BlockCache(100)
    cache.insert((1, 0), 500)
    assert len(cache) == 0
    assert cache.stats.get("rejected") == 1


def test_erase_file():
    cache = BlockCache(1000)
    cache.insert((0, 1, 0), 100)
    cache.insert((0, 1, 1), 100)
    cache.insert((0, 2, 0), 100)
    cache.erase_file(1, namespace=0)
    assert not cache.lookup((0, 1, 0))
    assert not cache.lookup((0, 1, 1))
    assert cache.lookup((0, 2, 0))
    assert cache.used_bytes == 100
    assert cache.stats.get("files_erased") == 1


def test_oversized_refresh_drops_old_entry_with_accounting():
    """Regression: refreshing a cached block to a charge over capacity
    silently dropped the old entry — the block vanished from the cache with
    no eviction, rejection or drop recorded anywhere."""
    cache = BlockCache(100)
    cache.insert((1, 0), 50)
    cache.insert((1, 0), 500)  # refresh grows past capacity
    assert len(cache) == 0
    assert cache.used_bytes == 0
    assert cache.stats.get("rejected") == 1
    assert cache.stats.get("refresh_drops") == 1


def test_fresh_oversized_insert_is_not_a_refresh_drop():
    cache = BlockCache(100)
    cache.insert((1, 0), 500)
    assert cache.stats.get("rejected") == 1
    assert cache.stats.get("refresh_drops") == 0


def test_erase_file_namespaced():
    """Shared caches key blocks as (namespace, sst, block): erasing one
    sharer's SST must not evict another sharer's same-numbered SST."""
    cache = BlockCache(1000)
    cache.insert((0, 5, 0), 100)
    cache.insert((1, 5, 0), 100)
    cache.insert((1, 6, 0), 100)
    cache.erase_file(5, namespace=1)
    assert cache.lookup((0, 5, 0))
    assert not cache.lookup((1, 5, 0))
    assert cache.lookup((1, 6, 0))
    assert cache.used_bytes == 200


def test_two_dbs_share_one_byte_budget():
    """Two DB instances on one cache: a joint byte budget, disjoint
    namespaces (the ISSUE's shared-cache contract for serving shards)."""
    from repro.lsm.db import DB
    from repro.sim.engine import Engine
    from repro.workloads.generators import encode_key
    from repro.workloads.prefill import PrefillSpec, prefill
    from tests.conftest import make_fs, run_op, tiny_options

    engine = Engine()
    cache = BlockCache(64 * 1024)
    dbs = []
    for ns in (0, 1):
        db = DB(
            engine,
            make_fs(engine),
            tiny_options(name=f"share-{ns}"),
            block_cache=cache,
            cache_namespace=ns,
        )
        assert db.block_cache is cache
        prefill(db, PrefillSpec(key_count=1500, value_size=64))
        dbs.append(db)
    for index in range(0, 1500, 23):
        for db in dbs:
            assert run_op(engine, db.get(encode_key(index))) is not None
    assert 0 < cache.used_bytes <= cache.capacity_bytes
    assert cache.stats.get("misses") > 0
    # Both sharers' blocks coexist under their own namespaces.
    assert {key[0] for key in cache._entries} == {0, 1}


def test_invalid_inputs():
    with pytest.raises(DBError):
        BlockCache(-1)
    cache = BlockCache(100)
    with pytest.raises(DBError):
        cache.insert((1, 0), 0)


def test_hit_rate():
    cache = BlockCache(1000)
    cache.insert((1, 0), 10)
    cache.lookup((1, 0))
    cache.lookup((9, 9))
    assert cache.hit_rate() == pytest.approx(0.5)
    assert BlockCache(10).hit_rate() == 0.0
