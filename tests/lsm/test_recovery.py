"""Crash-recovery tests: WAL replay, manifest replay, durability contract.

The crash cases form a parametrized matrix — WAL mode x crash point x
batch size — all asserting the same durability contract instead of
ad-hoc per-scenario expectations:

* recovered values are never wrong (correct-or-missing, no tearing);
* survivors form a prefix of the write order (group commit is ordered,
  writeback advances the durable watermark in record order);
* in ``sync`` mode every acknowledged write survives (ack => fsync);
* after a completed flush everything survives in every mode;
* the recovered level structure satisfies its invariants.
"""

import pytest

from repro.faults import TORN_APPEND, FaultInjector, FaultSchedule, FaultSpec
from repro.fs.filesystem import SimFileSystem
from repro.fs.page_cache import PageCache
from repro.lsm.db import DB
from repro.lsm.options import WAL_BUFFERED, WAL_OFF, WAL_SYNC
from repro.lsm.value import ValueRef
from repro.lsm.write_batch import WriteBatch
from repro.sim.units import kb, mb
from repro.storage.device import StorageDevice
from repro.storage.profiles import xpoint_ssd
from tests.conftest import make_fs, run_op, tiny_options


def key(i):
    return b"%010d" % i


def val(i):
    return b"val%06d" % i + b"x" * 56


def build_db(engine, fs=None, **opts):
    fs = fs or make_fs(engine, profile=xpoint_ssd())
    return DB(engine, fs, tiny_options(**opts)), fs


def reopen(engine, fs, **opts):
    return DB(engine, fs, tiny_options(**opts))


class TestCleanReopen:
    def test_reopen_recovers_flushed_data(self, engine):
        db, fs = build_db(engine, write_buffer_size=kb(8))

        def writer():
            for i in range(300):
                yield from db.put(key(i), ValueRef(i, 64))

        run_op(engine, writer())
        run_op(engine, db.flush_all())
        run_op(engine, db.wait_idle())
        run_op(engine, db.close())

        db2 = reopen(engine, fs, write_buffer_size=kb(8))
        assert db2.stats.get("recovery.files") > 0
        for i in (0, 150, 299):
            assert run_op(engine, db2.get(key(i))) == ValueRef(i, 64)

    def test_reopen_replays_unflushed_wal(self, engine):
        db, fs = build_db(engine)
        run_op(engine, db.put(key(1), b"in-wal-only"))
        run_op(engine, db.close())

        db2 = reopen(engine, fs)
        assert db2.stats.get("recovery.wal_records") >= 1
        assert run_op(engine, db2.get(key(1))) == b"in-wal-only"

    def test_sequence_numbers_continue_after_reopen(self, engine):
        db, fs = build_db(engine)
        run_op(engine, db.put(key(1), b"a"))
        seq_before = db.versions.last_sequence
        run_op(engine, db.close())
        db2 = reopen(engine, fs)
        assert db2.versions.last_sequence >= seq_before
        run_op(engine, db2.put(key(2), b"b"))
        assert db2.versions.last_sequence > seq_before


PRE_SYNC = "pre_sync"
POST_SYNC_PRE_FLUSH = "post_sync_pre_flush"
MID_FLUSH = "mid_flush"
POST_FLUSH = "post_flush"

CRASH_POINTS = (PRE_SYNC, POST_SYNC_PRE_FLUSH, MID_FLUSH, POST_FLUSH)
N_KEYS = 96


class TestCrashRecoveryMatrix:
    """WAL mode x crash point x batch size, one shared durability contract."""

    @pytest.mark.parametrize("batch", [1, 8], ids=["batch1", "batch8"])
    @pytest.mark.parametrize("crash_point", CRASH_POINTS)
    @pytest.mark.parametrize(
        "wal_mode", [WAL_BUFFERED, WAL_SYNC], ids=["buffered", "sync"]
    )
    def test_recovered_state_is_consistent_prefix(
        self, engine, wal_mode, crash_point, batch
    ):
        fs = make_fs(engine, profile=xpoint_ssd())
        opts = dict(wal_mode=wal_mode, write_buffer_size=kb(4))
        db = DB(engine, fs, tiny_options(**opts))
        acked = []

        def writer():
            for start in range(0, N_KEYS, batch):
                group = list(range(start, min(start + batch, N_KEYS)))
                wb = WriteBatch()
                for i in group:
                    wb.put(key(i), val(i))
                yield from db.write(wb)
                acked.extend(group)

        if crash_point == MID_FLUSH:
            # Step the scheduler until a background flush is in flight,
            # then pull the plug under it.
            proc = engine.process(writer(), name="writer")
            proc.callbacks.append(lambda _ev: None)
            while not proc.done:
                nxt = engine.peek()
                assert nxt is not None, "writer deadlocked"
                engine.run(until=nxt)
                if db._active_flushes > 0:
                    break
            if proc.exception is not None:
                raise proc.exception
        else:
            run_op(engine, writer())
            if crash_point == POST_SYNC_PRE_FLUSH:
                run_op(engine, db.wal.sync())
            elif crash_point == POST_FLUSH:
                run_op(engine, db.flush_all())
                run_op(engine, db.wait_idle())
        fs.crash()

        db2 = reopen(engine, fs, **opts)
        observed = {}

        def reader():
            for i in range(N_KEYS):
                got = yield from db2.get(key(i))
                if got is not None:
                    observed[i] = got

        run_op(engine, reader())

        # Correct-or-missing: a recovered value is never wrong or torn.
        for i, got in observed.items():
            assert got == val(i), f"key {i} recovered with wrong value"
        # Prefix consistency: group commit is ordered and writeback advances
        # the watermark in record order, so survivors are a write-order
        # prefix (and batches are atomic: never a partial batch).
        assert set(observed) == set(range(len(observed)))
        if observed and batch > 1:
            assert len(observed) % batch == 0, "partial batch survived"
        # Acked durability: an fsynced ack is a promise.
        if wal_mode == WAL_SYNC:
            assert set(acked).issubset(set(observed))
        # Everything before an explicit sync or completed flush survives
        # in any mode.
        if crash_point in (POST_SYNC_PRE_FLUSH, POST_FLUSH):
            assert len(observed) == N_KEYS
        # Structural integrity of the recovered version.
        db2.versions.current.check_invariants()
        for meta in db2.versions.current.all_files():
            assert fs.exists(meta.file.path)
            assert meta.file.size >= meta.sst.file_bytes


class TestCrashSpecialCases:
    def test_double_crash_before_recovery_flush(self, engine):
        """Adopted pre-crash logs keep data alive across a second crash."""
        fs = make_fs(engine, profile=xpoint_ssd())
        db = DB(engine, fs, tiny_options(wal_mode=WAL_SYNC))
        run_op(engine, db.put(key(42), b"keep-me"))
        run_op(engine, db.close())
        fs.crash()

        db2 = DB(engine, fs, tiny_options(wal_mode=WAL_SYNC))
        assert run_op(engine, db2.get(key(42))) == b"keep-me"
        # Crash again before the recovered memtable ever flushes.
        fs.crash()
        db3 = DB(engine, fs, tiny_options(wal_mode=WAL_SYNC))
        assert run_op(engine, db3.get(key(42))) == b"keep-me"

    def test_wal_off_loses_memtable_on_crash(self, engine):
        fs = make_fs(engine, profile=xpoint_ssd())
        db = DB(engine, fs, tiny_options(wal_mode=WAL_OFF))
        run_op(engine, db.put(key(1), b"volatile"))
        fs.crash()
        db2 = DB(engine, fs, tiny_options(wal_mode=WAL_OFF))
        assert run_op(engine, db2.get(key(1))) is None


class TestTornWalTail:
    def _faulty_fs(self, engine, schedule):
        injector = FaultInjector(engine, schedule)
        device = StorageDevice(engine, xpoint_ssd(), injector=injector)
        return SimFileSystem(engine, device, PageCache(mb(16)), injector)

    def test_injected_torn_tail_is_detected_and_truncated(self, engine):
        """A torn WAL record fails its checksum scan; recovery truncates
        there and keeps the good prefix (the tentpole acceptance case)."""
        # Tear the 5th WAL append: its durable watermark lands mid-record.
        schedule = FaultSchedule(
            [FaultSpec(TORN_APPEND, at_op=5, path="wal/")]
        )
        fs = self._faulty_fs(engine, schedule)
        db = DB(engine, fs, tiny_options())  # buffered WAL: tear persists

        for i in range(8):
            run_op(engine, db.put(key(i), val(i)))
        assert fs.stats.get("injected_torn_appends") == 1
        fs.crash()
        assert fs.stats.get("torn_records") == 1

        db2 = DB(engine, fs, tiny_options())
        assert db2.stats.get("recovery.wal_bad_records") >= 1
        assert db2.stats.get("recovery.wal_truncated_logs") == 1
        # Records 1..4 replay; the torn record 5 and everything after is gone.
        for i in range(4):
            assert run_op(engine, db2.get(key(i))) == val(i)
        for i in range(4, 8):
            assert run_op(engine, db2.get(key(i))) is None

    def test_logs_after_a_damaged_log_are_dropped(self, engine):
        """Point-in-time recovery across logs: media damage under the third
        record of log 1, whose records a reopen adopted and never flushed,
        cuts log 1 there and empties the newer log 2."""
        fs = make_fs(engine, profile=xpoint_ssd())
        db = DB(engine, fs, tiny_options(wal_mode=WAL_SYNC))
        for i in range(5):
            run_op(engine, db.put(key(i), val(i)))
        fs.crash()
        db2 = DB(engine, fs, tiny_options(wal_mode=WAL_SYNC))  # rolls log 2
        for i in range(5, 10):
            run_op(engine, db2.put(key(i), val(i)))
        fs.crash()
        assert fs.list("wal/") == ["wal/000001.log", "wal/000002.log"]
        log1 = fs.open("wal/000001.log")
        log1.mark_corrupt(sum(nbytes for nbytes, _rec in log1.records[:2]), 1)

        db3 = DB(engine, fs, tiny_options(wal_mode=WAL_SYNC))
        assert db3.stats.get("recovery.wal_records") == 2
        assert db3.stats.get("recovery.wal_bad_records") == 3
        assert db3.stats.get("recovery.wal_truncated_logs") == 1
        assert db3.stats.get("recovery.wal_dropped_logs") == 1
        assert len(log1.records) == 2 and fs.open("wal/000002.log").size == 0
        for i in range(10):
            assert run_op(engine, db3.get(key(i))) == (val(i) if i < 2 else None)

    def test_torn_tail_without_faults_is_impossible(self, engine):
        """Normal writeback never leaves a torn record at crash."""
        fs = make_fs(engine, profile=xpoint_ssd())
        db = DB(engine, fs, tiny_options(wal_mode=WAL_SYNC))
        for i in range(8):
            run_op(engine, db.put(key(i), val(i)))
        fs.crash()
        assert fs.stats.get("torn_records") == 0
        db2 = DB(engine, fs, tiny_options(wal_mode=WAL_SYNC))
        assert db2.stats.get("recovery.wal_bad_records") == 0


class TestDiskFull:
    """ENOSPC as a *recoverable* condition: soft error, resume, crash-safe.

    The disk-full model is a byte quota on the filesystem; squeezing it to
    current usage makes the next extent allocation raise OutOfSpaceError.
    The DB must degrade soft (keep acking what it can), auto-resume when
    the quota lifts, and never lose an acked write across a crash that
    happens while the disk is full.
    """

    def _options(self, **overrides):
        base = dict(
            write_buffer_size=kb(8),
            max_write_buffer_number=6,
            bg_error_resume_interval_ns=50_000,
            bg_error_resume_max_interval_ns=800_000,
        )
        base.update(overrides)
        return tiny_options(**base)

    def _sleep_until(self, engine, pred, budget_ns, step_ns=50_000):
        def stepper():
            yield step_ns

        deadline = engine.now + budget_ns
        while not pred():
            assert engine.now < deadline, "condition not reached in budget"
            run_op(engine, stepper())

    def _fill(self, engine, db, lo, hi):
        def writer():
            for i in range(lo, hi):
                yield from db.put(key(i), val(i))

        run_op(engine, writer())

    def test_flush_enospc_degrades_soft_then_resumes(self, engine):
        fs = make_fs(engine, profile=xpoint_ssd())
        db = DB(engine, fs, self._options())
        self._fill(engine, db, 0, 40)
        run_op(engine, db.wait_idle(timeout_ns=mb(1)))

        fs.set_quota(fs.used_bytes())  # zero headroom: next extent fails
        self._fill(engine, db, 40, 110)  # forces a flush into a full disk
        eh = db.error_handler
        self._sleep_until(engine, lambda: eh.severity == "soft", 20_000_000)
        assert db.stats.get("bg_error.degraded_entries") >= 1
        assert fs.stats.get("quota_enospc") >= 1
        # ENOSPC is soft: nothing was rejected, everything above acked.
        assert db.stats.get("bg_error.writes_rejected") == 0

        fs.set_quota(None)
        self._sleep_until(engine, lambda: eh.severity == "", 60_000_000)
        assert db.stats.get("bg_error.resume_successes") >= 1
        run_op(engine, db.wait_idle(timeout_ns=100_000_000))
        for i in (0, 39, 40, 75, 109):
            assert run_op(engine, db.get(key(i))) == val(i)

    def test_crash_while_disk_full_keeps_acked_writes(self, engine):
        """Acked (synced-WAL) writes survive a crash taken mid-ENOSPC."""
        fs = make_fs(engine, profile=xpoint_ssd())
        db = DB(engine, fs, self._options(wal_mode=WAL_SYNC))
        self._fill(engine, db, 0, 40)
        run_op(engine, db.wait_idle(timeout_ns=mb(1)))

        fs.set_quota(fs.used_bytes())
        self._fill(engine, db, 40, 110)  # acks land in the synced WAL
        eh = db.error_handler
        self._sleep_until(engine, lambda: eh.severity == "soft", 20_000_000)

        fs.crash()
        fs.set_quota(None)  # the operator fixed the disk before restart
        db2 = DB(engine, fs, self._options(wal_mode=WAL_SYNC))
        for i in (0, 39, 40, 75, 109):
            assert run_op(engine, db2.get(key(i))) == val(i)
        assert db2.error_handler.severity == ""
