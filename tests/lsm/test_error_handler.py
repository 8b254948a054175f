"""Background-error handling: classification, degradation, auto-resume.

The state machine under test (``repro.lsm.error_handler``) mirrors
RocksDB's: background failures classify into soft (writes stalled, resume
retrying), hard (read-only, resume still retrying) and fatal (read-only,
recover by reopen); transient fault *windows* clear and the DB must come
back on its own with no acked data lost.
"""

import pytest

from repro.errors import (
    CorruptionError,
    DBError,
    DBReadOnlyError,
    IOFaultError,
    OutOfSpaceError,
)
from repro.faults import (
    READ_ERROR,
    WRITE_ERROR,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
)
from repro.fs.filesystem import SimFileSystem
from repro.fs.page_cache import PageCache
from repro.lsm.db import DB
from repro.lsm.error_handler import (
    SEV_FATAL,
    SEV_HARD,
    SEV_NONE,
    SEV_SOFT,
    SOURCE_COMPACTION,
    SOURCE_FLUSH,
    SOURCE_MANIFEST,
    SOURCE_WAL,
    classify,
)
from repro.lsm.options import WAL_BUFFERED, WAL_SYNC
from repro.sim.rng import RandomStream
from repro.sim.units import kb, mb, ms, us
from repro.storage.device import StorageDevice
from repro.storage.profiles import xpoint_ssd
from tests.conftest import make_fs, run_op, tiny_options


def key(i):
    return b"%010d" % i


def val(i):
    return b"val%06d" % i + b"x" * 120


def sleep(ns):
    yield ns


def wait_until(engine, pred, budget_ns, step_ns=us(50)):
    """Advance virtual time until ``pred()`` holds (deterministic poll)."""
    deadline = engine.now + budget_ns
    while not pred():
        assert engine.now < deadline, f"condition not reached in {budget_ns}ns"
        run_op(engine, sleep(step_ns))


def faulty_fs(engine, schedule):
    injector = FaultInjector(engine, schedule)
    device = StorageDevice(engine, xpoint_ssd(), RandomStream(7), injector)
    return SimFileSystem(engine, device, PageCache(mb(16)), injector)


def storm_options(**overrides):
    """Small buffers + fast resume so tests converge in microseconds."""
    base = dict(
        write_buffer_size=kb(8),
        wal_mode=WAL_BUFFERED,
        bg_error_resume_interval_ns=us(50),
        bg_error_resume_max_interval_ns=us(800),
        # High ceiling: tests that want soft->hard escalation lower it.
        max_bg_error_resume_count=1000,
    )
    base.update(overrides)
    return tiny_options(**base)


def build_faulty_db(engine, schedule, **opts):
    fs = faulty_fs(engine, schedule)
    return DB(engine, fs, storm_options(**opts)), fs


def fill_until(engine, db, n, start=0):
    """Put ``n`` keys; returns the keys acked before any read-only reject."""
    acked = []

    def writer():
        for i in range(start, start + n):
            try:
                yield from db.put(key(i), val(i))
            except DBReadOnlyError:
                return
            acked.append(i)

    run_op(engine, writer())
    return acked


class TestClassify:
    @pytest.mark.parametrize(
        "source,exc,want",
        [
            (SOURCE_FLUSH, CorruptionError("bad block"), SEV_FATAL),
            (SOURCE_WAL, CorruptionError("bad record"), SEV_FATAL),
            (SOURCE_FLUSH, OutOfSpaceError("full"), SEV_SOFT),
            (SOURCE_WAL, OutOfSpaceError("full"), SEV_SOFT),
            (SOURCE_FLUSH, IOFaultError("io", transient=True), SEV_SOFT),
            (SOURCE_COMPACTION, IOFaultError("io", transient=True), SEV_SOFT),
            (SOURCE_WAL, IOFaultError("io", transient=True), SEV_HARD),
            (SOURCE_MANIFEST, IOFaultError("io", transient=True), SEV_HARD),
            (SOURCE_FLUSH, IOFaultError("io", transient=False), SEV_FATAL),
            (SOURCE_FLUSH, ValueError("bug"), SEV_HARD),
        ],
    )
    def test_severity_mapping(self, source, exc, want):
        assert classify(source, exc) == want


class TestBackoff:
    def test_exponential_with_cap(self, engine, null_fs):
        db = DB(
            engine,
            null_fs,
            tiny_options(
                bg_error_resume_interval_ns=100,
                bg_error_resume_backoff=2.0,
                bg_error_resume_max_interval_ns=450,
            ),
        )
        eh = db.error_handler
        assert [eh.backoff_ns(a) for a in range(5)] == [100, 200, 400, 450, 450]
        # Past float range, long after the cap: a DB degraded that long
        # keeps retrying at the cap.
        assert [eh.backoff_ns(a) for a in (1030, 5000)] == [450, 450]


class TestSoftStorm:
    """A transient flush-path fault window: degrade soft, auto-resume."""

    def _window_schedule(self, until):
        return FaultSchedule(
            [FaultSpec(WRITE_ERROR, at_time=0, until_time=until, count=10**6)]
        )

    def test_flush_faults_degrade_then_resume(self, engine):
        db, _fs = build_faulty_db(engine, self._window_schedule(ms(20)))
        acked = fill_until(engine, db, 120)  # several flushes' worth
        eh = db.error_handler

        # The storm degraded the DB at some point, but soft never
        # rejects a write: every put above was admitted (maybe slowly).
        assert acked == list(range(120))
        assert db.stats.get("bg_error.degraded_entries") >= 1
        assert db.stats.get("bg_error.source.flush") >= 1
        assert db.stats.get("bg_error.writes_rejected") == 0

        # Window over: resume retries land and the severity clears.
        wait_until(engine, lambda: eh.severity == SEV_NONE, ms(60))
        assert db.stats.get("bg_error.resume_successes") >= 1
        assert db.stats.get("bg_error.degraded_ns") > 0

        run_op(engine, db.wait_idle(timeout_ns=ms(100)))
        for i in (0, 60, 119):
            assert run_op(engine, db.get(key(i))) == val(i)

    def test_wait_idle_times_out_while_degraded(self, engine):
        # Plenty of memtable headroom: the failed flush strands an
        # immutable without stopping writes, so the fill finishes inside
        # the window and wait_idle is what has to notice the timeout.
        db, _fs = build_faulty_db(
            engine, self._window_schedule(ms(100)), max_write_buffer_number=6
        )
        fill_until(engine, db, 70)
        eh = db.error_handler
        wait_until(engine, lambda: eh.severity == SEV_SOFT, ms(10))

        with pytest.raises(DBError, match="timed out"):
            run_op(engine, db.wait_idle(timeout_ns=ms(2)))

    def test_escalates_to_read_only_after_max_resumes(self, engine):
        db, _fs = build_faulty_db(
            engine,
            self._window_schedule(ms(30)),
            max_bg_error_resume_count=1,
        )
        acked = fill_until(engine, db, 120)
        eh = db.error_handler
        wait_until(engine, lambda: eh.severity == SEV_HARD, ms(20))

        assert db.stats.get("bg_error.escalations") >= 1
        with pytest.raises(DBReadOnlyError):
            run_op(engine, db.put(key(9001), b"rejected"))
        assert db.stats.get("bg_error.writes_rejected") >= 1
        # Reads keep working in read-only mode.
        assert acked and run_op(engine, db.get(key(acked[0]))) == val(acked[0])

        # Storm clears; hard also auto-resumes.
        wait_until(engine, lambda: eh.severity == SEV_NONE, ms(60))
        run_op(engine, db.put(key(9001), b"accepted-now"))
        assert run_op(engine, db.get(key(9001))) == b"accepted-now"


class TestHardWalError:
    def test_wal_sync_fault_is_hard_then_resumes(self, engine):
        schedule = FaultSchedule(
            [FaultSpec(WRITE_ERROR, at_time=0, until_time=ms(20), count=10**6)]
        )
        db, _fs = build_faulty_db(engine, schedule, wal_mode=WAL_SYNC)

        with pytest.raises(IOFaultError):
            run_op(engine, db.put(key(1), b"lost-group"))
        assert db.error_handler.severity == SEV_HARD

        err = None
        try:
            run_op(engine, db.put(key(2), b"while-read-only"))
        except DBReadOnlyError as exc:
            err = exc
        assert err is not None and err.severity == SEV_HARD
        assert err.source == SOURCE_WAL

        eh = db.error_handler
        wait_until(engine, lambda: eh.severity == SEV_NONE, ms(40))
        assert db.stats.get("bg_error.to_hard") == 1
        run_op(engine, db.put(key(3), b"back"))
        assert run_op(engine, db.get(key(3))) == b"back"


class TestFatal:
    def test_permanent_fault_is_fatal_until_reopen(self, engine):
        schedule = FaultSchedule(
            [
                FaultSpec(
                    WRITE_ERROR,
                    at_time=0,
                    until_time=ms(20),
                    count=10**6,
                    transient=False,
                )
            ]
        )
        db, fs = build_faulty_db(engine, schedule)
        acked = fill_until(engine, db, 120)
        eh = db.error_handler
        wait_until(engine, lambda: eh.severity == SEV_FATAL, ms(20))
        assert eh.is_read_only
        with pytest.raises(IOFaultError):
            run_op(engine, db.wait_idle(timeout_ns=ms(10)))
        with pytest.raises(DBReadOnlyError):
            run_op(engine, db.put(key(9000), b"nope"))
        # Fatal does not auto-resume: still fatal after the fault window.
        wait_until(engine, lambda: engine.now > ms(25), ms(30))
        assert eh.severity == SEV_FATAL

        # Recovery is by reopen; the WAL was retained for the failed flush.
        run_op(engine, db.close())
        db2 = DB(engine, fs, storm_options())
        assert acked
        for i in (acked[0], acked[len(acked) // 2], acked[-1]):
            assert run_op(engine, db2.get(key(i))) == val(i)
        assert db2.error_handler.severity == SEV_NONE


class TestCompactionProbe:
    """An episode that began in a compaction resumes only once one
    compaction has run."""

    def test_read_faults_on_compaction_inputs_resume_through_one(self, engine):
        # A 16 KB page cache sends a compaction's input reads to the
        # device; nothing else reads.  Writes go on while the probe's
        # compaction runs, and the memtable they seal meets a degraded
        # flush worker: the resume must hand it back, or the writer stops.
        schedule = FaultSchedule(
            [FaultSpec(READ_ERROR, at_time=0, until_time=ms(10), count=10**6)]
        )
        injector = FaultInjector(engine, schedule)
        device = StorageDevice(engine, xpoint_ssd(), RandomStream(7), injector)
        fs = SimFileSystem(engine, device, PageCache(kb(16)), injector)
        db = DB(engine, fs, storm_options(level0_file_num_compaction_trigger=2))
        assert fill_until(engine, db, 300) == list(range(300))
        run_op(engine, db.wait_idle(timeout_ns=ms(100)))
        assert db.stats.get("bg_error.source.compaction") == 1
        assert db.stats.get("compaction.io_retries_exhausted") == 1
        assert db.stats.get("bg_error.resume_successes") == 1
        assert db.stats.get("compaction.count") >= 1
        for i in (0, 150, 299):
            assert run_op(engine, db.get(key(i))) == val(i)

    def test_no_room_for_its_outputs_fails_the_attempt_quietly(self, engine):
        db = DB(engine, make_fs(engine), storm_options(level0_file_num_compaction_trigger=2))
        manager = db.sst_file_manager
        reserve, room = manager.try_reserve_compaction, [False]
        manager.try_reserve_compaction = lambda nbytes: room[0] and reserve(nbytes)
        fill_until(engine, db, 50)
        run_op(engine, db.flush_all())
        fill_until(engine, db, 50, start=50)
        engine.process(db.flush_all())  # the second table: a compaction is due
        eh = db.error_handler
        wait_until(engine, lambda: db.stats.get("bg_error.resume_attempts") >= 3, ms(5))
        assert eh.severity == SEV_SOFT and eh.error.source == SOURCE_COMPACTION
        assert db.stats.get("bg_error.raised") == 1  # the worker's report only
        room[0] = True
        wait_until(engine, lambda: eh.severity == SEV_NONE, ms(5))
        assert db.stats.get("compaction.count") == 1
        assert db.versions.current.num_files(0) == 0
