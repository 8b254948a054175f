"""Focused tests for flush jobs, the compaction picker and compaction jobs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DBError
from repro.harness.presets import TINY
from repro.lsm.compaction import Compaction, CompactionJob, CompactionPicker
from repro.lsm.db import DB
from repro.lsm.flush import FlushJob
from repro.lsm.format import KIND_DELETE, KIND_PUT
from repro.lsm.memtable import MemTable
from repro.lsm.sst import SSTBuilder
from repro.lsm.value import ValueRef
from repro.lsm.version import FileMetadata, VersionEdit
from repro.sim.engine import Engine
from repro.sim.units import kb
from repro.storage.profiles import xpoint_ssd
from tests.conftest import make_db, run_op, tiny_options


def key(i):
    return b"%010d" % i


def sealed_memtable(n, start=0, seq_base=0):
    mt = MemTable(rep="hash")
    for i in range(start, start + n):
        mt.add(key(i), (seq_base + i + 1, KIND_PUT, ValueRef(i, 64)))
    mt.mark_immutable()
    return mt


class TestFlushJob:
    def test_flush_installs_l0_file(self, engine):
        db = make_db(engine)
        mt = sealed_memtable(100)
        meta = run_op(engine, FlushJob(db, mt).run())
        assert meta is not None
        assert db.versions.current.levels[0][0] is meta
        assert meta.sst.entry_count == 100
        assert db.fs.exists(meta.file.path)
        assert meta.file.synced_size == meta.file.size
        assert db.stats.get("flush.count") == 1

    def test_flush_mutable_rejected(self, engine):
        db = make_db(engine)
        mt = MemTable(rep="hash")
        mt.add(key(1), (1, KIND_PUT, b"v"))
        with pytest.raises(DBError):
            run_op(engine, FlushJob(db, mt).run())

    def test_flush_empty_returns_none(self, engine):
        db = make_db(engine)
        mt = MemTable(rep="hash")
        mt.mark_immutable()
        assert run_op(engine, FlushJob(db, mt).run()) is None

    def test_flush_takes_simulated_time_on_real_device(self):
        engine = Engine()
        db = make_db(engine, profile=xpoint_ssd())
        mt = sealed_memtable(500)
        run_op(engine, FlushJob(db, mt).run())
        assert engine.now > 0
        assert db.fs.device.bytes_written > 0

    def test_manifest_logged(self, engine):
        db = make_db(engine)
        run_op(engine, FlushJob(db, sealed_memtable(10)).run())
        assert len(db.versions.manifest.records) == 1


def install_file(db, level, start, count, seq_base=0, tombstone_every=0):
    number = db.versions.new_file_number()
    builder = SSTBuilder(number, db.options.block_size, 0)
    for i in range(start, start + count):
        if tombstone_every and i % tombstone_every == 0:
            builder.add(key(i), (seq_base + i + 1, KIND_DELETE, None))
        else:
            builder.add(key(i), (seq_base + i + 1, KIND_PUT, ValueRef(i, 64)))
    sst = builder.finish()
    f = db.fs.install_synced(f"sst/{number:06d}.sst", sst.file_bytes)
    f.payload = sst
    meta = FileMetadata(number, sst, f, level)
    db.versions.apply(VersionEdit().add_file(level, meta))
    return meta


class TestPicker:
    def test_no_compaction_when_under_triggers(self, engine):
        db = make_db(engine)
        install_file(db, 0, 0, 10)
        assert CompactionPicker(db.options).pick(db.versions) is None

    def test_l0_picked_at_trigger(self, engine):
        db = make_db(engine)
        for i in range(4):  # trigger = 4
            install_file(db, 0, i * 5, 10, seq_base=1000 * i)
        c = CompactionPicker(db.options).pick(db.versions)
        assert c is not None
        assert c.level == 0 and c.output_level == 1
        assert len(c.inputs_upper) == 4
        assert all(f.being_compacted for f in c.all_inputs)

    def test_l0_includes_overlapping_l1(self, engine):
        db = make_db(engine)
        l1 = install_file(db, 1, 0, 50)
        for i in range(4):
            install_file(db, 0, i * 5, 10, seq_base=1000 * (i + 1))
        c = CompactionPicker(db.options).pick(db.versions)
        assert l1 in c.inputs_lower

    def test_only_one_l0_compaction_at_a_time(self, engine):
        db = make_db(engine)
        for i in range(4):
            install_file(db, 0, i * 5, 10, seq_base=1000 * i)
        picker = CompactionPicker(db.options)
        first = picker.pick(db.versions)
        assert first is not None
        assert picker.pick(db.versions) is None  # inputs busy

    def test_size_triggered_level_compaction(self, engine):
        db = make_db(engine, options=tiny_options(max_bytes_for_level_base=kb(4)))
        install_file(db, 1, 0, 200)  # ~16 KB >> 4 KB target
        c = CompactionPicker(db.options).pick(db.versions)
        assert c is not None
        assert c.level == 1 and c.output_level == 2

    def test_scores_sorted_desc(self, engine):
        db = make_db(engine, options=tiny_options(max_bytes_for_level_base=kb(4)))
        install_file(db, 1, 0, 200)
        scores = CompactionPicker(db.options).scores(db.versions)
        values = [s for s, _ in scores]
        assert values == sorted(values, reverse=True)


class TestCompactionJob:
    def run_l0_compaction(self, engine, db):
        c = CompactionPicker(db.options).pick(db.versions)
        assert c is not None
        new_files = run_op(engine, CompactionJob(db, c).run())
        return c, new_files

    def test_merge_preserves_newest(self, engine):
        db = make_db(engine)
        # Same key range in all L0 files; later files carry newer seqs.
        for gen in range(4):
            install_file(db, 0, 0, 50, seq_base=1000 * (gen + 1))
        _, new_files = self.run_l0_compaction(engine, db)
        merged = {k: e for meta in new_files for k, e in meta.sst.items()}
        assert len(merged) == 50
        for k, entry in merged.items():
            assert entry[0] > 3000  # only the newest generation survived

    def test_inputs_deleted_after_compaction(self, engine):
        db = make_db(engine)
        metas = [install_file(db, 0, i * 5, 10, seq_base=100 * i) for i in range(4)]
        self.run_l0_compaction(engine, db)
        for meta in metas:
            assert not db.fs.exists(meta.file.path)
        assert db.versions.current.num_files(0) == 0
        assert db.versions.current.num_files(1) >= 1

    def test_tombstones_dropped_at_bottom_only(self, engine):
        db = make_db(engine)
        for gen in range(4):
            install_file(db, 0, 0, 30, seq_base=1000 * (gen + 1), tombstone_every=3)
        _, new_files = self.run_l0_compaction(engine, db)
        kinds = [e[1] for meta in new_files for _, e in meta.sst.items()]
        assert KIND_DELETE not in kinds  # L1 is bottommost here

    def test_tombstones_kept_when_deeper_data_exists(self, engine):
        db = make_db(engine)
        install_file(db, 2, 0, 30, seq_base=1)  # deeper data overlaps
        for gen in range(4):
            install_file(db, 0, 0, 30, seq_base=1000 * (gen + 1), tombstone_every=3)
        _, new_files = self.run_l0_compaction(engine, db)
        kinds = [e[1] for meta in new_files for _, e in meta.sst.items()]
        assert KIND_DELETE in kinds

    def test_outputs_respect_target_file_size(self, engine):
        db = make_db(engine, options=tiny_options(target_file_size_base=kb(2)))
        for gen in range(4):
            install_file(db, 0, gen * 40, 40, seq_base=1000 * gen)
        _, new_files = self.run_l0_compaction(engine, db)
        assert len(new_files) > 1
        for meta in new_files[:-1]:
            assert meta.sst.file_bytes == pytest.approx(kb(2), rel=0.5)

    def test_being_compacted_cleared(self, engine):
        db = make_db(engine)
        for i in range(4):
            install_file(db, 0, i * 5, 10, seq_base=100 * i)
        c, _ = self.run_l0_compaction(engine, db)
        assert all(not f.being_compacted for f in db.versions.current.all_files())

    def test_compaction_that_writes_nothing_leaves_no_file(self, engine):
        """Regression: the first output file is created before anything is
        merged; when every entry is dropped it used to stay behind — a
        zero-byte SST in no version, never removed."""
        db = make_db(engine, options=TINY.options())

        def ops():
            for i in range(50):
                yield from db.put(key(i), b"v")
            yield from db.flush_all()
            for i in range(50):
                yield from db.delete(key(i))
            yield from db.flush_all()
            yield from db.compact_range()

        run_op(engine, ops())
        assert db.versions.current.num_files() == 0
        assert db.fs.list("sst/") == []
        assert db.versions.next_file_number == 6  # the empty output still took number 5
        assert db.stats.get("compaction.entries_out") == 0

    def test_compaction_does_io_on_real_device(self):
        engine = Engine()
        db = make_db(engine, profile=xpoint_ssd())
        for gen in range(4):
            install_file(db, 0, 0, 200, seq_base=1000 * gen)
        t0 = engine.now
        self.run_l0_compaction(engine, db)
        assert engine.now > t0
        assert db.fs.device.bytes_written > 0
        assert db.stats.get("compaction.count") == 1


@settings(max_examples=10, deadline=None)
@given(
    generations=st.lists(
        st.sets(st.integers(min_value=0, max_value=80), min_size=1, max_size=40),
        min_size=4,
        max_size=4,
    )
)
def test_compaction_equals_dict_merge(generations):
    """Property: compacting N overlapping runs == newest-wins dict merge."""
    engine = Engine()
    db = make_db(engine)
    model = {}
    for gen, keys in enumerate(generations):
        number = db.versions.new_file_number()
        builder = SSTBuilder(number, db.options.block_size, 0)
        for i in sorted(keys):
            entry = (gen * 1000 + i + 1, KIND_PUT, ValueRef(gen * 1000 + i, 32))
            builder.add(key(i), entry)
            model[key(i)] = entry
        sst = builder.finish()
        f = db.fs.install_synced(f"sst/{number:06d}.sst", sst.file_bytes)
        f.payload = sst
        db.versions.apply(
            VersionEdit().add_file(0, FileMetadata(number, sst, f, 0))
        )
    c = CompactionPicker(db.options).pick(db.versions)
    new_files = run_op(engine, CompactionJob(db, c).run())
    merged = {k: e for meta in new_files for k, e in meta.sst.items()}
    assert merged == model
