"""The manifest-failure path, driven through a real DB.

One rule: a table or WAL leaves the disk only once the MANIFEST record
that dropped it is durable.  When the MANIFEST record of an installed edit
cannot be made durable — ENOSPC on its append, or an fsync that still
fails after every retry — the edit stays applied in memory, the manifest
is marked dirty, and the ``VersionSet`` holds back the unlinks of the
tables that died meanwhile while the DB holds back WAL release.  The error
handler's resume re-appends the queued edits in order and re-syncs
(``VersionSet.sync_manifest``); then the held tables are unlinked and the
obsolete WALs released.

Each scenario is deterministic, so a test re-runs it up to one step and
crashes the machine there; recovery must then find every file the
recovered MANIFEST references, and every acked write.
"""

import pytest

from repro.faults import CORRUPT_APPEND, WRITE_ERROR, FaultInjector, FaultSchedule, FaultSpec
from repro.fs.filesystem import EXTENT_BYTES, SimFileSystem
from repro.fs.page_cache import PageCache
from repro.lsm.db import DB
from repro.lsm.io_retry import IO_RETRIES
from repro.lsm.options import WAL_SYNC
from repro.lsm.version import VersionEdit
from repro.sim.engine import Engine
from repro.sim.units import mb, ms
from repro.storage.device import StorageDevice
from repro.storage.profiles import xpoint_ssd
from tests.conftest import run_op, tiny_options

N = 200


def key(i):
    return b"%010d" % i


def val(i):
    return b"val%06d" % i + b"x" * 56


def options():
    return tiny_options(
        wal_mode=WAL_SYNC,
        level0_file_num_compaction_trigger=2,
        bg_error_resume_interval_ns=ms(1),
        bg_error_resume_max_interval_ns=ms(4),
    )


def machine(engine, schedule=()):
    injector = FaultInjector(engine, FaultSchedule(list(schedule)))
    device = StorageDevice(engine, xpoint_ssd(), injector=injector)
    return SimFileSystem(engine, device, PageCache(mb(16)), injector)


def write(engine, db, lo, hi, delete=False):
    def writer():
        for i in range(lo, hi):
            yield from (db.delete(key(i)) if delete else db.put(key(i), val(i)))

    run_op(engine, writer())


def run_until(engine, pred, budget_ns=ms(50), step_ns=10_000):
    def step():
        yield step_ns

    deadline = engine.now + budget_ns
    while not pred():
        assert engine.now < deadline, "condition not reached in budget"
        run_op(engine, step())


def crash_and_recover(engine, fs, expected):
    """Power-fail, reopen on a healed disk, and check the recovered DB."""
    fs.crash()
    fs.set_quota(None)
    db = DB(engine, fs, options())
    for meta in db.versions.current.all_files():
        assert fs.exists(meta.file.path), f"recovered MANIFEST lost {meta.file.path}"
    for i, value in expected.items():
        assert run_op(engine, db.get(key(i))) == value
    return db


class TestManifestEnospc:
    """The first MANIFEST append of a fresh DB needs an extent; with the
    quota squeezed to exactly one free extent the flush's SST takes it and
    the edit's record cannot be appended."""

    STEPS = ("queued", "resumed", "released")

    def _run(self, engine, stop):
        fs = machine(engine)
        db = DB(engine, fs, options())
        write(engine, db, 0, N)
        fs.set_quota(fs.used_bytes() + EXTENT_BYTES)
        run_op(engine, db.flush_all())
        versions = db.versions
        assert versions.manifest_dirty and len(versions._unlogged_edits) == 1
        assert db.error_handler.severity == "soft"
        assert versions.current.num_files(0) == 1  # applied in memory
        assert fs.list("wal/") == ["wal/000001.log", "wal/000002.log"]
        if stop == "queued":
            return fs, db
        fs.set_quota(None)
        run_until(engine, lambda: db.error_handler.severity == "")
        assert not versions.manifest_dirty and not versions._unlogged_edits
        assert versions.stats.get("manifest.requeued_edits") == 1
        assert versions.stats.get("manifest.resynced") == 1
        # The resync makes the flush's edit durable, so the log its
        # memtable pinned is released with it.
        assert fs.list("wal/") == ["wal/000002.log"]
        if stop == "resumed":
            return fs, db
        write(engine, db, N, N + 10)
        run_op(engine, db.flush_all())
        assert fs.list("wal/") == ["wal/000003.log"]
        return fs, db

    @pytest.mark.parametrize("step", STEPS)
    def test_crash_at_each_step_recovers_every_file_and_write(self, engine, step):
        fs, db = self._run(engine, step)
        last = N + 10 if step == "released" else N
        db2 = crash_and_recover(engine, fs, {i: val(i) for i in range(last)})
        # Before the resync only the WAL holds the data; after it the
        # recovered MANIFEST references the flushed table.
        tables = db2.versions.current.num_files()
        assert (tables == 0) if step == "queued" else (tables >= 1)


class TestManifestSyncFault:
    """A compaction whose merge drops everything writes no table, so its
    MANIFEST fsync is the first device write after the second flush; a
    transient write fault lasting past every retry fails it, and the DB
    goes read-only until the resume's re-sync succeeds.

    A reader pins the compaction's inputs (it took its version before the
    compaction installed), so they are reclaimed only when it finishes —
    while the manifest is dirty, which holds their deletion back.
    """

    STEPS = ("failed", "held", "resumed")

    def _prefix(self, engine, db):
        write(engine, db, 0, N)
        run_op(engine, db.flush_all())
        write(engine, db, 0, N, delete=True)
        run_op(engine, db.flush_all())
        assert db.versions.current.num_files(0) == 2  # compaction not installed yet

    def _manifest_sync_write(self, engine):
        """The index of the compaction's MANIFEST fsync among device writes."""
        fs = machine(engine)
        db = DB(engine, fs, options())
        self._prefix(engine, db)
        before = fs.device.writes
        run_op(engine, db.wait_idle(timeout_ns=ms(50)))
        assert db.versions.current.num_files() == 0
        assert fs.device.writes == before + 1
        return before + 1

    def _run(self, engine, stop, pin=True):
        at = self._manifest_sync_write(Engine())
        fs = machine(
            engine, [FaultSpec(WRITE_ERROR, at_op=at, count=IO_RETRIES + 1)]
        )
        db = DB(engine, fs, options())
        versions = db.versions
        self._prefix(engine, db)
        inputs = sorted(meta.file.path for meta in versions.current.all_files())
        reader = versions.ref_current() if pin else None
        run_until(engine, lambda: versions.manifest_dirty)
        assert db.error_handler.severity == "hard"
        assert versions.current.num_files() == 0  # applied in memory
        assert versions.stats.get("manifest.io_retries_exhausted") == 1
        if stop == "failed":
            return fs, db, inputs
        versions.unref(reader)
        held = versions._unlink_queue
        assert sorted(held) == inputs and all(fs.exists(p) for p in inputs)
        if stop == "held":
            return fs, db, inputs
        run_until(engine, lambda: db.error_handler.severity == "")
        assert not versions.manifest_dirty
        assert versions.stats.get("manifest.resynced") == 1
        assert versions._unlink_queue == []
        assert not any(fs.exists(p) for p in inputs)
        return fs, db, inputs

    def test_a_failed_resync_keeps_the_db_read_only_until_one_lands(self, engine):
        # One fault more than the edit's fsync and its retries take: the
        # resume's first resync fails too, and its second lands.
        at = self._manifest_sync_write(Engine())
        fs = machine(engine, [FaultSpec(WRITE_ERROR, at_op=at, count=IO_RETRIES + 2)])
        db = DB(engine, fs, options())
        self._prefix(engine, db)
        run_until(engine, lambda: db.versions.manifest_dirty)
        run_until(engine, lambda: db.error_handler.severity == "")
        assert db.stats.get("bg_error.source.manifest") == 2
        assert db.stats.get("bg_error.resume_attempts") == 2
        assert db.versions.stats.get("manifest.resynced") == 1

    @pytest.mark.parametrize("step", STEPS)
    def test_crash_at_each_step_recovers_every_file(self, engine, step):
        fs, _db, inputs = self._run(engine, step)
        db2 = crash_and_recover(engine, fs, {i: None for i in range(0, N, 7)})
        # The compaction's edit is durable only once the resync succeeded.
        live = sorted(m.file.path for m in db2.versions.current.all_files())
        assert live == ([] if step == "resumed" else inputs)

    def test_unpinned_input_survives_a_crash_before_the_edit_is_durable(self, engine):
        fs, _db, _inputs = self._run(engine, "failed", pin=False)
        crash_and_recover(engine, fs, {i: None for i in range(0, N, 7)})


class TestEditQueuedBehindAnUnloggedOne:
    """A compaction is running when a flush's MANIFEST record cannot be
    appended (ENOSPC: the MANIFEST's extent is full and the quota has one
    extent left, which the flush's table takes).  The compaction's edit
    then queues behind the unlogged one, and the inputs it drops stay on
    disk until the resync makes both edits durable."""

    STEPS = ("queued", "resumed")

    def _run(self, engine, stop):
        fs = machine(engine)
        db = DB(engine, fs, options())
        versions = db.versions
        write(engine, db, 0, N)
        run_op(engine, db.flush_all())
        write(engine, db, 0, N, delete=True)
        run_op(engine, db.flush_all())
        inputs = sorted(meta.file.path for meta in versions.current.all_files())
        assert len(inputs) == 2 and db._active_compactions == 1
        manifest = versions.manifest
        manifest.append(EXTENT_BYTES - manifest.size, record=VersionEdit())
        write(engine, db, N, N + 10)
        fs.set_quota(fs.used_bytes() + EXTENT_BYTES)
        run_op(engine, db.flush_all())
        assert len(versions._unlogged_edits) == 1 and db._active_compactions == 1
        run_until(engine, lambda: len(versions._unlogged_edits) == 2)
        assert versions.current.num_files() == 1  # the flush's table only
        assert sorted(versions._unlink_queue) == inputs
        assert all(fs.exists(p) for p in inputs)
        if stop == "queued":
            return fs, inputs
        fs.set_quota(None)
        run_until(engine, lambda: db.error_handler.severity == "")
        assert versions.stats.get("manifest.requeued_edits") == 2
        assert versions._unlink_queue == [] and not any(fs.exists(p) for p in inputs)
        return fs, inputs

    @pytest.mark.parametrize("step", STEPS)
    def test_crash_at_each_step_recovers_every_file_and_write(self, engine, step):
        fs, inputs = self._run(engine, step)
        expected = {i: None for i in range(0, N, 7)}
        expected.update((i, val(i)) for i in range(N, N + 10))
        db2 = crash_and_recover(engine, fs, expected)
        live = sorted(m.file.path for m in db2.versions.current.all_files())
        if step == "queued":
            assert live == inputs  # neither queued edit is durable
        else:
            assert len(live) == 1 and live[0] not in inputs


class TestCorruptManifestTail:
    def test_recovery_cuts_the_manifest_at_its_first_bad_record(self, engine):
        """Three flushes log three edits; the second lands on bad media.
        Recovery keeps the first edit only and cuts the file there, so the
        third edit — newer than the loss — is never applied either."""
        fs = machine(engine, [FaultSpec(CORRUPT_APPEND, path="MANIFEST", at_op=2)])
        opts = dict(wal_mode=WAL_SYNC, level0_file_num_compaction_trigger=8)
        db = DB(engine, fs, tiny_options(**opts))
        tables = []
        for part in range(3):
            write(engine, db, part * 50, (part + 1) * 50)
            run_op(engine, db.flush_all())
            tables.append(db.versions.current.levels[0][0].file.path)
        manifest = fs.open("MANIFEST")
        first_record = manifest.records[0][0]
        assert len(manifest.records) == 3 and manifest.is_corrupt(first_record, 1)

        fs.crash()
        db2 = DB(engine, fs, tiny_options(**opts))
        assert db2.versions.stats.get("manifest_truncated_records") == 2
        assert len(manifest.records) == 1
        assert manifest.size == manifest.synced_size == first_record
        assert [m.file.path for m in db2.versions.current.all_files()] == tables[:1]
        assert run_op(engine, db2.get(key(0))) == val(0)
        # The later tables' WALs were released once they flushed: their
        # writes are gone with the edits that referenced them.
        assert run_op(engine, db2.get(key(50))) is None
        assert run_op(engine, db2.get(key(149))) is None
