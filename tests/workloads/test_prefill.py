"""Tests for database pre-population."""

import importlib
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.lsm.options import NUM_LEVELS
from repro.lsm.value import ValueRef
from repro.sim.stats import BULK_MIN, bulk_numpy
from repro.sim.units import kb
from repro.workloads.generators import ValueSpec, encode_key
from repro.workloads.prefill import PrefillSpec, prefill
from tests.conftest import make_db, run_op, tiny_options, without_numpy

# numpy as a bulk path gets it (None under REPRO_NO_NUMPY=1).
NUMPY = bulk_numpy(BULK_MIN)


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
    """The vectorized level assignment and key encoding build exactly the
    pure-Python tables."""
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
    with without_numpy():
        slow = tables()
    assert slow == fast
    assert len({level for level, *_ in fast}) >= 2
    # Exact ``bytes`` either way (numpy's own ``bytes_`` would compare equal).
    for made in (fast, slow):
        assert {type(key) for _level, keys, *_ in made for key in keys} == {bytes}
    # A position whose hash equals a threshold goes to the level above it.
    tie = [(7 * prefill_module._HASH) & 0xFFFFFFFF]
    fast = prefill_module._levels(NUMPY, 50, tie)
    assert prefill_module._levels(None, 50, tie) == fast
    assert 7 in fast[1]


KEY_BOUNDARIES = [0, 9, 10, 99_999, 999_999, 10**15, 10**16 - 1]


def _encoder(vectorized: bool):
    """A fresh table-key encoder, vectorized or the pure-Python fallback."""
    prefill_module = importlib.import_module("repro.workloads.prefill")
    return prefill_module._key_encoder(NUMPY if vectorized else None)


def _assert_encodes_like_encode_key(encode, indices, start=0, end=None):
    positions = array("q", indices)
    end = len(positions) if end is None else end
    keys = encode(positions, start, end)
    assert keys == tuple(map(encode_key, indices[start:end]))
    assert keys.__class__ is tuple and all(key.__class__ is bytes for key in keys)
    assert positions == array("q", indices)  # read, never shifted


@pytest.mark.parametrize("vectorized", [True, False], ids=["numpy", "pure"])
class TestTableKeys:
    """A table's keys, made in bulk, are ``encode_key``'s byte for byte."""

    def test_boundaries(self, vectorized):
        encode = _encoder(vectorized)
        _assert_encodes_like_encode_key(encode, KEY_BOUNDARIES)
        for i in range(len(KEY_BOUNDARIES)):
            _assert_encodes_like_encode_key(encode, KEY_BOUNDARIES, i, i + 1)
        _assert_encodes_like_encode_key(encode, KEY_BOUNDARIES, 2, 5)  # a window

    def test_empty_table(self, vectorized):
        encode = _encoder(vectorized)
        _assert_encodes_like_encode_key(encode, [])
        _assert_encodes_like_encode_key(encode, [3, 4], 1, 1)

    def test_out_of_range_behaves_as_encode_key(self, vectorized):
        encode = _encoder(vectorized)
        _assert_encodes_like_encode_key(encode, [10**16 - 1, 10**16, 10**17])  # 17+ digits
        assert len(encode_key(10**16)) == 17
        with pytest.raises(WorkloadError):
            encode(array("q", [-1, 0, 5]), 0, 3)

    def test_rows_grow_and_are_reused(self, vectorized):
        """Tables of several sizes through one encoder, largest in the middle."""
        encode = _encoder(vectorized)
        for size in (3, 700, 50, 2000, 1):
            _assert_encodes_like_encode_key(encode, list(range(10**15, 10**15 + 7 * size, 7)))

    @given(
        st.lists(st.integers(0, 10**16 - 1), max_size=60, unique=True).map(sorted),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_ascending_draws(self, vectorized, indices, data):
        start = data.draw(st.integers(0, len(indices)))
        end = data.draw(st.integers(start, len(indices)))
        _assert_encodes_like_encode_key(_encoder(vectorized), indices, start, end)
