"""Differential test: ``prefill`` / ``prefill_keys`` against an eager reference.

A prefilled table regenerates its entries on demand and its files and blocks
are cut from entry sizes.  The reference below is the algorithm that replaced:
hash every position through the level thresholds one comparison at a time,
build every ``(seq, kind, value)`` entry, push it through ``SSTBuilder.add``
and cut a file when the builder's estimate reaches the target.  Everything a
reader or a compaction can observe about the installed tables must agree.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.errors import CorruptionError, WorkloadError
from repro.harness.presets import TINY
from repro.lsm.format import KIND_PUT
from repro.lsm.sst import SSTBuilder
from repro.lsm.version import FileMetadata, VersionEdit
from repro.sim.engine import Engine
from repro.workloads.generators import ValueSpec, encode_key
from repro.workloads.prefill import _HASH, _level_budgets, prefill, prefill_keys
from tests.conftest import make_db, run_op


def _reference_install(db, keys, sizes):
    budgets = _level_budgets(db, sum(len(k) + s + 8 for k, s in zip(keys, sizes)))
    levels = sorted(budgets)
    total = sum(budgets.values())
    thresholds = []
    acc = 0
    for level in levels:
        acc += budgets[level]
        thresholds.append(int(acc / total * (1 << 32)))
    per_level = {level: [] for level in levels}
    for i in range(len(keys)):
        h = (i * _HASH) & 0xFFFFFFFF
        for level, bound in zip(levels, thresholds):
            if h < bound:
                per_level[level].append(i)
                break
        else:
            per_level[levels[-1]].append(i)

    edit = VersionEdit()
    seq = db.versions.last_sequence

    def finish(level, builder):
        sst = builder.finish()
        f = db.fs.install_synced(f"sst/{sst.number:06d}.sst", sst.file_bytes)
        f.payload = sst
        edit.add_file(level, FileMetadata(sst.number, sst, f, level))

    for level in levels:
        builder = None
        for i in per_level[level]:
            if builder is None:
                builder = SSTBuilder(
                    db.versions.new_file_number(),
                    db.options.block_size,
                    db.options.bloom_bits_per_key,
                )
            seq += 1
            builder.add(keys[i], (seq, KIND_PUT, ValueSpec(sizes[i]).value_for(i)))
            if builder.estimated_bytes >= db.options.target_file_size(level):
                finish(level, builder)
                builder = None
        if builder is not None:
            finish(level, builder)
    db.versions.last_sequence = seq
    db.versions.apply(edit)
    db.versions.current.check_invariants()


def _observable(db):
    tables = []
    for meta in db.versions.current.all_files():
        sst = meta.sst
        tables.append({
            "number": meta.number,
            "level": meta.level,
            "keys": sst.keys,
            "items": list(sst.items()),
            "spans": [sst.block_span(b) for b in range(sst.block_count)],
            "bytes": (sst.data_bytes, sst.index_bytes, sst.file_bytes, meta.file.size),
            "largest_seq": sst.largest_seq,
        })
    return tables, db.versions.last_sequence, db.versions.next_file_number


def _mixed_keys(n=3000):
    """Ascending keys of three lengths with per-key value sizes."""
    keys = sorted({b"t%d:%0*d" % (i % 3, 6 + 5 * (i % 3), i) for i in range(n)})
    return keys, [40 + (i * 37) % 900 for i in range(len(keys))]


def _tiny_db(bloom=0):
    return make_db(Engine(), options=TINY.options(bloom_bits_per_key=bloom))


class TestAgainstEagerReference:
    @pytest.mark.parametrize("bloom", [0, 10])
    def test_prefill_at_tiny(self, bloom):
        new, ref = _tiny_db(bloom), _tiny_db(bloom)
        files = prefill(new, TINY.prefill_spec())
        _reference_install(
            ref, [encode_key(i) for i in range(TINY.key_count)], [TINY.value_size] * TINY.key_count
        )
        assert _observable(new) == _observable(ref)
        assert files == {
            level: n for level, n in enumerate(new.level_shape()) if n
        }
        assert len(files) >= 2

    def test_prefill_keys_mixed_lengths_and_sizes(self):
        keys, sizes = _mixed_keys()
        new, ref = make_db(Engine()), make_db(Engine())
        prefill_keys(new, keys, value_sizes=sizes)
        _reference_install(ref, keys, sizes)
        assert _observable(new) == _observable(ref)
        assert len({meta.level for meta in new.versions.current.all_files()}) >= 2

    def test_compaction_mixing_prefilled_and_flushed_tables(self):
        keys, sizes = _mixed_keys(1500)
        new, ref = make_db(Engine()), make_db(Engine())
        prefill_keys(new, keys, value_sizes=sizes)
        _reference_install(ref, keys, sizes)
        for db in (new, ref):
            def overwrite(db=db):
                for i in range(0, len(keys), 7):
                    yield from db.put(keys[i], b"new-%d" % i)
                for i in range(3, len(keys), 11):
                    yield from db.delete(keys[i])
                yield from db.put(b"zzz-fresh", b"fresh")
                yield from db.compact_range()

            run_op(db.engine, overwrite())
        assert new.stats.get("compaction.count") > 0
        assert _observable(new) == _observable(ref)


class TestPrefillKeys:
    def test_empty_key_list_installs_nothing(self, engine):
        db = make_db(engine)
        assert prefill_keys(db, []) == {}
        assert db.versions.current.num_files() == 0

    def test_non_ascending_keys_rejected(self, engine):
        db = make_db(engine)
        for keys in ([b"b", b"a"], [b"a", b"a"]):
            with pytest.raises(WorkloadError):
                prefill_keys(db, keys)
        assert db.versions.current.num_files() == 0

    def test_misaligned_value_sizes_rejected(self, engine):
        with pytest.raises(WorkloadError):
            prefill_keys(make_db(engine), [b"a", b"b"], value_sizes=[10])

    def test_non_positive_value_size_rejected(self, engine):
        with pytest.raises(WorkloadError):
            prefill_keys(make_db(engine), [b"a", b"b"], value_sizes=[10, 0])

    def test_per_key_sizes_come_back_from_get(self, engine):
        keys, sizes = _mixed_keys(600)
        db = make_db(engine)
        prefill_keys(db, keys, value_sizes=sizes)

        def checker():
            for i in range(0, len(keys), 13):
                got = yield from db.get(keys[i])
                assert got == ValueSpec(sizes[i]).value_for(i), i

        run_op(engine, checker())


class TestRegeneratedEntries:
    @pytest.fixture
    def table(self, engine):
        db = make_db(engine)
        keys, sizes = _mixed_keys(800)
        prefill_keys(db, keys, value_sizes=sizes)
        return max((m.sst for m in db.versions.current.all_files()), key=lambda s: s.entry_count)

    def test_sequence_protocol(self, table):
        entries = table.entries
        eager = list(entries)
        n = len(entries)
        assert n == len(eager) == table.entry_count > 1
        assert [entries[j] for j in range(n)] == eager
        assert [entries[j] for j in range(-n, 0)] == eager
        assert eager[-1][0] == table.largest_seq
        for j in (n, n + 5, -n - 1):
            with pytest.raises(IndexError):
                entries[j]

    def test_every_block_verifies_until_corrupted(self, table):
        assert table.block_count > 1
        for block in range(table.block_count):
            table.verify_block(block)
        table.corrupt_block_checksum(1)
        table.verify_block(0)
        with pytest.raises(CorruptionError):
            table.verify_block(1)


def test_prefill_retains_under_100_bytes_per_key():
    """Host-independent: a prefilled key costs its key-list slot and ``bytes``
    object plus one array slot (249 B when every entry was held)."""
    db = _tiny_db()
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        prefill(db, TINY.prefill_spec())
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (after - before) / TINY.key_count <= 100


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: prefill never logs its edit to MANIFEST")
def test_prefilled_database_survives_reopen():
    from repro.harness.experiments import DEVICES
    from repro.harness.machine import Machine

    machine = Machine.create(DEVICES["xpoint"](), TINY.page_cache_bytes, seed=11)
    db = machine.open_db(TINY.options())
    prefill(db, TINY.prefill_spec())
    files = db.versions.current.num_files()
    machine.fs.crash()
    db = machine.open_db(TINY.options())
    assert db.versions.current.num_files() == files
    assert db.run_sync(db.get(encode_key(5))) == ValueSpec(TINY.value_size).value_for(5)
