"""Tests for database pre-population."""

import pytest

from repro.errors import WorkloadError
from repro.lsm.options import NUM_LEVELS
from repro.lsm.value import ValueRef
from repro.sim.units import kb
from repro.workloads.generators import ValueSpec, encode_key
from repro.workloads.prefill import PrefillSpec, prefill
from tests.conftest import make_db, run_op, tiny_options


def build(engine, keys=2000, value_size=64, **opts):
    db = make_db(engine, options=tiny_options(**opts))
    spec = PrefillSpec(key_count=keys, value_size=value_size)
    files = prefill(db, spec)
    return db, spec, files


def test_spec_validation():
    with pytest.raises(WorkloadError):
        PrefillSpec(key_count=0)
    with pytest.raises(WorkloadError):
        PrefillSpec(key_count=10, value_size=0)


def test_spec_sizes():
    spec = PrefillSpec(key_count=100, value_size=1024)
    assert spec.entry_bytes == 16 + 1024 + 8
    assert spec.total_bytes == 100 * spec.entry_bytes
    assert spec.keyspace().count == 100


def test_all_keys_readable(engine):
    db, spec, _ = build(engine, keys=1500)
    values = ValueSpec(spec.value_size)

    def checker():
        for i in range(0, 1500, 97):
            got = yield from db.get(encode_key(i))
            assert got == values.value_for(i), i

    run_op(engine, checker())


def test_no_l0_files_initially(engine):
    db, _, files = build(engine)
    assert db.versions.current.num_files(0) == 0
    assert 0 not in files


def test_levels_under_compaction_triggers(engine):
    """Prefill must not start at/above level targets (no instant churn)."""
    db, _, _ = build(engine, keys=4000)
    for level in range(1, NUM_LEVELS - 1):
        if db.versions.current.num_files(level):
            assert (
                db.versions.current.level_bytes(level)
                <= db.options.max_bytes_for_level(level)
            )
    assert db.versions.pending_compaction_bytes() == 0


def test_multiple_levels_populated(engine):
    db, _, files = build(engine, keys=4000)
    assert len(files) >= 2  # data spans at least two levels
    db.versions.current.check_invariants()


def test_deepest_level_holds_most_data(engine):
    db, _, _ = build(engine, keys=12000)
    populated = [
        level
        for level in range(1, NUM_LEVELS)
        if db.versions.current.num_files(level)
    ]
    deepest = populated[-1]
    bytes_per_level = {lvl: db.versions.current.level_bytes(lvl) for lvl in populated}
    assert bytes_per_level[deepest] == max(bytes_per_level.values())


def test_file_sizes_near_target(engine):
    db, _, _ = build(engine, keys=4000)
    target = db.options.target_file_size_base
    for meta in db.versions.current.all_files():
        assert meta.file_bytes <= target * 1.5


def test_files_marked_durable_and_cold(engine):
    db, _, _ = build(engine)
    meta = db.versions.current.all_files()[0]
    assert meta.file.synced_size == meta.file.size
    assert len(db.fs.page_cache) == 0  # cold start


def test_sequence_numbers_assigned(engine):
    db, spec, _ = build(engine)
    assert db.versions.last_sequence == spec.key_count


def test_prefill_requires_empty_db(engine):
    db, spec, _ = build(engine)
    with pytest.raises(WorkloadError):
        prefill(db, spec)


def test_deterministic_layout(engine):
    from repro.sim.engine import Engine

    def shape():
        engine = Engine()
        db, _, files = build(engine, keys=3000)
        return files, db.level_shape()

    assert shape() == shape()


def test_same_tables_without_numpy():
    """The vectorized level assignment builds exactly the pure-Python tables."""
    import importlib
    from unittest import mock

    from repro.sim.engine import Engine

    prefill_module = importlib.import_module("repro.workloads.prefill")  # not the function

    def tables():
        db, _, _ = build(Engine(), keys=5000)
        return [
            (level, meta.sst.keys, list(meta.sst.entries), meta.sst.largest_seq, meta.file_bytes)
            for level, metas in enumerate(db.versions.current.levels)
            for meta in metas
        ]

    fast = tables()
    with mock.patch.object(prefill_module, "_np", None):
        assert tables() == fast
    assert len({level for level, *_ in fast}) >= 2
    # A position whose hash equals a threshold goes to the level above it.
    tie = [(7 * prefill_module._HASH) & 0xFFFFFFFF]
    fast = prefill_module._levels(50, tie)
    with mock.patch.object(prefill_module, "_np", None):
        assert prefill_module._levels(50, tie) == fast
    assert 7 in fast[1]
