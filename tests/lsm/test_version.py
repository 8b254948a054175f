"""Tests for version management: levels, edits, refcounts, manifest."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DBError
from repro.lsm.format import KIND_PUT
from repro.lsm.sst import SSTBuilder
from repro.lsm.version import FileMetadata, Version, VersionEdit, VersionSet
from repro.lsm.value import ValueRef
from tests.conftest import make_fs, tiny_options


def make_sst(number, start, count, stride=1):
    b = SSTBuilder(number, 1024, 0)
    for i in range(start, start + count * stride, stride):
        b.add(b"%08d" % i, (number * 100000 + i, KIND_PUT, ValueRef(i, 32)))
    return b.finish()


def make_vs(engine):
    fs = make_fs(engine)
    return VersionSet(fs, tiny_options()), fs


def install(vs, fs, level, sst):
    f = fs.install_synced(f"sst/{sst.number:06d}.sst", sst.file_bytes)
    f.payload = sst
    meta = FileMetadata(sst.number, sst, f, level)
    vs.apply(VersionEdit().add_file(level, meta))
    return meta


class TestVersionQueries:
    def test_l0_newest_first(self, engine):
        vs, fs = make_vs(engine)
        first = install(vs, fs, 0, make_sst(vs.new_file_number(), 0, 10))
        second = install(vs, fs, 0, make_sst(vs.new_file_number(), 5, 10))
        l0 = vs.current.levels[0]
        assert [m.number for m in l0] == [second.number, first.number]

    def test_file_for_key_binary_search(self, engine):
        vs, fs = make_vs(engine)
        a = install(vs, fs, 1, make_sst(vs.new_file_number(), 0, 10))
        b = install(vs, fs, 1, make_sst(vs.new_file_number(), 100, 10))
        v = vs.current
        assert v.file_for_key(1, b"%08d" % 5) is a
        assert v.file_for_key(1, b"%08d" % 105) is b
        assert v.file_for_key(1, b"%08d" % 50) is None  # gap
        assert v.file_for_key(1, b"%08d" % 99999999) is None

    def test_overlapping_files_l1(self, engine):
        vs, fs = make_vs(engine)
        a = install(vs, fs, 1, make_sst(vs.new_file_number(), 0, 10))
        b = install(vs, fs, 1, make_sst(vs.new_file_number(), 20, 10))
        c = install(vs, fs, 1, make_sst(vs.new_file_number(), 40, 10))
        v = vs.current
        hit = v.overlapping_files(1, b"%08d" % 5, b"%08d" % 25)
        assert [m.number for m in hit] == [a.number, b.number]
        assert v.overlapping_files(1, b"%08d" % 11, b"%08d" % 19) == []
        assert [m.number for m in v.overlapping_files(1, b"%08d" % 0, b"%08d" % 99)] == [
            a.number, b.number, c.number
        ]

    def test_level_bytes_and_counts(self, engine):
        vs, fs = make_vs(engine)
        sst = make_sst(vs.new_file_number(), 0, 10)
        install(vs, fs, 2, sst)
        v = vs.current
        assert v.level_bytes(2) == sst.file_bytes
        assert v.num_files(2) == 1
        assert v.num_files() == 1

    def test_invariant_overlap_rejected(self, engine):
        vs, fs = make_vs(engine)
        install(vs, fs, 1, make_sst(vs.new_file_number(), 0, 10))
        overlapping = make_sst(vs.new_file_number(), 5, 10)
        f = fs.install_synced("sst/overlap.sst", overlapping.file_bytes)
        meta = FileMetadata(overlapping.number, overlapping, f, 1)
        with pytest.raises(DBError, match="overlap"):
            vs.apply(VersionEdit().add_file(1, meta))


class TestLifetimes:
    def test_deleted_file_reclaimed_when_unreferenced(self, engine):
        vs, fs = make_vs(engine)
        meta = install(vs, fs, 1, make_sst(vs.new_file_number(), 0, 10))
        path = meta.file.path
        vs.apply(VersionEdit().delete_file(1, meta.number))
        assert not fs.exists(path)
        assert vs.stats.get("files_reclaimed") == 1

    def test_reader_reference_defers_reclaim(self, engine):
        vs, fs = make_vs(engine)
        meta = install(vs, fs, 1, make_sst(vs.new_file_number(), 0, 10))
        path = meta.file.path
        read_version = vs.ref_current()
        vs.apply(VersionEdit().delete_file(1, meta.number))
        assert fs.exists(path)  # reader still holds the old version
        vs.unref(read_version)
        assert not fs.exists(path)

    def test_unref_below_zero_rejected(self, engine):
        vs, _ = make_vs(engine)
        v = vs.ref_current()
        vs.unref(v)
        with pytest.raises(DBError):
            vs.unref(v)

    def test_on_file_dead_callback(self, engine):
        dead = []
        fs = make_fs(engine)
        vs = VersionSet(fs, tiny_options(), on_file_dead=lambda m: dead.append(m.number))
        meta = install(vs, fs, 1, make_sst(vs.new_file_number(), 0, 10))
        vs.apply(VersionEdit().delete_file(1, meta.number))
        assert dead == [meta.number]

    def test_duplicate_file_number_rejected(self, engine):
        vs, fs = make_vs(engine)
        sst = make_sst(7, 0, 10)
        install(vs, fs, 1, sst)
        other = make_sst(7, 100, 10)
        f = fs.install_synced("sst/dup.sst", other.file_bytes)
        with pytest.raises(DBError, match="duplicate"):
            vs.apply(VersionEdit().add_file(2, FileMetadata(7, other, f, 2)))


class TestScoresAndRecovery:
    def test_compaction_score_l0_by_count(self, engine):
        vs, fs = make_vs(engine)
        for i in range(2):
            install(vs, fs, 0, make_sst(vs.new_file_number(), i * 100, 10))
        # trigger is 4 (RocksDB default) => score 0.5 at 2 files
        assert vs.compaction_score(0) == pytest.approx(0.5)

    def test_compaction_score_l1_by_bytes(self, engine):
        vs, fs = make_vs(engine)
        sst = make_sst(vs.new_file_number(), 0, 2000)
        install(vs, fs, 1, sst)
        expected = sst.file_bytes / vs.options.max_bytes_for_level(1)
        assert vs.compaction_score(1) == pytest.approx(expected)

    def test_pending_compaction_bytes(self, engine):
        vs, fs = make_vs(engine)
        assert vs.pending_compaction_bytes() == 0
        ssts = [make_sst(vs.new_file_number(), i * 100, 10 + i) for i in range(6)]
        for sst in ssts:  # 2 above the trigger of 4
            install(vs, fs, 0, sst)
        # L0 debt is the newest files above the trigger (L0 is newest-first).
        assert vs.pending_compaction_bytes() == ssts[4].file_bytes + ssts[5].file_bytes
        assert vs.current.level_bytes(0) == sum(sst.file_bytes for sst in ssts)
        vs.apply(VersionEdit().delete_file(0, ssts[5].number))
        assert vs.pending_compaction_bytes() == ssts[4].file_bytes
        assert vs.current.level_bytes(0) == sum(sst.file_bytes for sst in ssts[:5])

    def test_recover_replays_manifest(self, engine):
        vs, fs = make_vs(engine)
        keep = install(vs, fs, 1, make_sst(vs.new_file_number(), 0, 10))
        dead = install(vs, fs, 2, make_sst(vs.new_file_number(), 100, 10))

        def log_all():
            # Persist both edits to the manifest, then a delete edit.
            yield from vs.log_edit(VersionEdit().add_file(1, keep))
            yield from vs.log_edit(VersionEdit().add_file(2, dead))
            edit = VersionEdit().delete_file(2, dead.number)
            vs.apply(edit)
            yield from vs.log_edit(edit)

        p = engine.process(log_all())
        engine.run()
        assert p.exception is None

        recovered = VersionSet.recover(fs, tiny_options())
        assert recovered.current.num_files(1) == 1
        assert recovered.current.num_files(2) == 0
        assert recovered.next_file_number > keep.number
        # newest sequence among the *live* files, read from their metadata
        assert recovered.last_sequence == keep.sst.largest_seq == keep.number * 100000 + 9


@given(
    ranges=st.lists(
        st.tuples(st.integers(0, 500), st.integers(1, 40)), min_size=1, max_size=20
    )
)
def test_overlapping_files_matches_bruteforce(ranges):
    """Property: binary-search overlap query equals the O(n) scan."""
    from repro.sim.engine import Engine

    engine = Engine()
    fs = make_fs(engine)
    vs = VersionSet(fs, tiny_options())
    # Build disjoint L1 files from the (start, len) ranges.
    cursor = 0
    metas = []
    for start, length in ranges:
        lo = cursor + start
        cursor = lo + length + 1
        sst = make_sst(vs.new_file_number(), lo, length)
        metas.append(install(vs, fs, 1, sst))
    v = vs.current
    for probe_lo in range(0, cursor, max(1, cursor // 10)):
        probe_hi = probe_lo + 25
        lo_key, hi_key = b"%08d" % probe_lo, b"%08d" % probe_hi
        expected = [m for m in v.levels[1] if m.sst.overlaps(lo_key, hi_key)]
        assert v.overlapping_files(1, lo_key, hi_key) == expected
