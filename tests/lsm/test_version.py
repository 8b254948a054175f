"""Tests for version management: levels, edits, refcounts, manifest."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DBError, OutOfSpaceError
from repro.fs.filesystem import EXTENT_BYTES
from repro.lsm.format import KIND_PUT
from repro.lsm.sst import SSTBuilder
from repro.lsm.version import FileMetadata, Version, VersionEdit, VersionSet
from repro.lsm.value import ValueRef
from tests.conftest import make_fs, run_op, tiny_options


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


def drop(engine, vs, meta):
    """Apply an edit that drops ``meta`` and make it durable."""
    edit = VersionEdit().delete_file(meta.level, meta.number)
    vs.apply(edit)
    run_op(engine, vs.log_edit(edit))


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
        edit = VersionEdit().delete_file(1, meta.number)
        vs.apply(edit)
        assert vs.stats.get("files_reclaimed") == 1  # logically dead at once
        assert fs.exists(path)  # but the edit that dropped it is not logged
        run_op(engine, vs.log_edit(edit))
        assert not fs.exists(path)

    def test_reader_reference_defers_reclaim(self, engine):
        vs, fs = make_vs(engine)
        meta = install(vs, fs, 1, make_sst(vs.new_file_number(), 0, 10))
        path = meta.file.path
        read_version = vs.ref_current()
        drop(engine, vs, meta)
        assert fs.exists(path)  # reader still holds the old version
        vs.unref(read_version)
        assert not fs.exists(path)

    def test_unref_below_zero_rejected(self, engine):
        vs, fs = make_vs(engine)
        v = vs.ref_current()
        install(vs, fs, 1, make_sst(vs.new_file_number(), 0, 10))
        assert vs.current is not v and v.refs == 1  # only the reader's ref
        vs.unref(v)
        with pytest.raises(DBError, match="below zero"):
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


class TestUnlinkQueue:
    """A dead table is unlinked only once the edit that dropped it is durable."""

    def _two_drops(self, engine, pinned=False):
        """Two edits each drop a table; only the first is logged.  A
        ``pinned`` pair dies when a reader lets go after that log."""
        vs, fs = make_vs(engine)
        metas = [install(vs, fs, 1, make_sst(vs.new_file_number(), i * 100, 10)) for i in (0, 1)]
        edits = [VersionEdit().delete_file(1, meta.number) for meta in metas]
        reader = vs.ref_current() if pinned else None
        for edit in edits:
            vs.apply(edit)
        run_op(engine, vs.log_edit(edits[0]))
        if pinned:
            vs.unref(reader)
        return vs, fs, [meta.file.path for meta in metas], edits[1]

    def _dies_while_dirty(self, engine):
        """A reader's table dies after its dropping edit is durable, but
        while a later record is not."""
        vs, fs = make_vs(engine)
        meta = install(vs, fs, 1, make_sst(vs.new_file_number(), 0, 10))
        reader = vs.ref_current()
        drop(engine, vs, meta)
        vs.manifest_dirty = True  # as a later record's failed fsync leaves it
        vs.unref(reader)
        return vs, fs, meta.file.path

    @pytest.mark.parametrize("pinned", [False, True], ids=["unpinned", "pinned"])
    def test_held_while_an_edit_is_in_flight_or_dirty(self, engine, pinned):
        vs, fs, paths, _second = self._two_drops(engine, pinned)
        # The first edit is durable, but the second one is still pending.
        assert vs.stats.get("files_reclaimed") == 2
        assert vs._unlink_queue == paths and all(fs.exists(p) for p in paths)
        vs, fs, path = self._dies_while_dirty(engine)
        assert vs.stats.get("files_reclaimed") == 1
        assert vs._unlink_queue == [path] and fs.exists(path)

    def test_drained_once_the_manifest_is_durable(self, engine):
        vs, fs, paths, second = self._two_drops(engine)
        run_op(engine, vs.log_edit(second))
        assert vs._unlink_queue == [] and not any(fs.exists(p) for p in paths)

        vs, fs, path = self._dies_while_dirty(engine)
        run_op(engine, vs.sync_manifest())
        assert not vs.manifest_dirty and vs.stats.get("manifest.resynced") == 1
        assert vs._unlink_queue == [] and not fs.exists(path)

    def test_a_sync_does_not_clean_past_an_unlogged_edit(self, engine):
        """Two edits each drop a table; the MANIFEST's extent has room for
        the first record only.  The first edit's fsync, in flight while
        the second record fails to append, must leave the manifest dirty."""
        vs, fs = make_vs(engine)
        metas = [install(vs, fs, 1, make_sst(vs.new_file_number(), i * 100, 10)) for i in (0, 1)]
        edits = [VersionEdit().delete_file(1, meta.number) for meta in metas]
        room = edits[0].encoded_bytes()
        vs.manifest.append(EXTENT_BYTES - room, record=VersionEdit())
        fs.set_quota(fs.used_bytes())
        for edit in edits:
            vs.apply(edit)

        def log_second():
            with pytest.raises(OutOfSpaceError):
                yield from vs.log_edit(edits[1])

        first = engine.process(vs.log_edit(edits[0]))
        engine.process(log_second())
        engine.run()
        assert first.ok
        assert vs.manifest_dirty and vs._unlogged_edits == [edits[1]]
        paths = [meta.file.path for meta in metas]
        assert vs._unlink_queue == paths and all(fs.exists(p) for p in paths)
        fs.set_quota(None)
        run_op(engine, vs.sync_manifest())
        assert not vs.manifest_dirty and not any(fs.exists(p) for p in paths)

    def test_missing_path_is_harmless(self, engine):
        vs, fs = make_vs(engine)
        meta = install(vs, fs, 1, make_sst(vs.new_file_number(), 0, 10))
        edit = VersionEdit().delete_file(1, meta.number)
        vs.apply(edit)
        fs.delete(meta.file.path)  # gone before the queue drains
        run_op(engine, vs.log_edit(edit))
        assert vs._unlink_queue == [] and vs.stats.get("files_reclaimed") == 1


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

        recovered = VersionSet(fs, tiny_options())  # replays the MANIFEST
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
