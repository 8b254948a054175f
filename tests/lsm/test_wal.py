"""Tests for the write-ahead log manager."""

import pytest

from repro.lsm.format import KIND_PUT
from repro.lsm.options import WAL_BUFFERED, WAL_OFF, WAL_SYNC
from repro.lsm.costs import DEFAULT_COSTS
from repro.lsm.wal import WalManager, recover_logs
from repro.storage.profiles import xpoint_ssd
from tests.conftest import make_fs, tiny_options


def record(i):
    return (b"%06d" % i, (i + 1, KIND_PUT, b"v" * 32))


def make_wal(engine, mode=WAL_BUFFERED, fs=None):
    fs = fs or make_fs(engine)
    opts = tiny_options(wal_mode=mode)
    return WalManager(engine, fs, opts, DEFAULT_COSTS), fs


def test_disabled_mode_is_noop(engine):
    wal, fs = make_wal(engine, mode=WAL_OFF)
    assert not wal.enabled
    cpu, ev = wal.add_group([record(1)])
    assert cpu == 0 and ev is None
    assert fs.list("wal/") == []


def test_first_log_created(engine):
    wal, fs = make_wal(engine)
    assert wal.enabled
    assert fs.list("wal/") == ["wal/000001.log"]
    assert wal.current_number == 1


def test_add_group_accumulates_bytes(engine):
    wal, _ = make_wal(engine)
    cpu, _ = wal.add_group([record(1), record(2)])
    assert cpu > 0
    assert wal.bytes_written == 2 * (6 + 32 + 12)


def test_roll_creates_new_log_and_keeps_old(engine):
    wal, fs = make_wal(engine)
    wal.add_group([record(1)])
    wal.roll(2)
    assert wal.current_number == 2
    assert fs.list("wal/") == ["wal/000001.log", "wal/000002.log"]


def test_roll_number_monotonic(engine):
    wal, _ = make_wal(engine)
    wal.roll(5)
    wal.roll(3)  # stale number gets bumped
    assert wal.current_number == 6


def test_release_up_to_deletes_old_logs(engine):
    wal, fs = make_wal(engine)
    wal.add_group([record(1)])
    wal.roll(2)
    wal.release_up_to(1)
    assert fs.list("wal/") == ["wal/000002.log"]


def test_release_never_deletes_current(engine):
    wal, fs = make_wal(engine)
    wal.release_up_to(10)
    assert fs.list("wal/") == ["wal/000001.log"]


def test_sync_mode_returns_wait_event(engine):
    wal, _ = make_wal(engine, mode=WAL_SYNC, fs=make_fs(engine, profile=xpoint_ssd()))
    _, ev = wal.add_group([record(1)])
    assert ev is not None
    done = {}

    def proc():
        yield ev
        done["t"] = engine.now

    engine.process(proc())
    engine.run()
    assert done["t"] > 0
    assert wal.current.synced_size > 0


def test_replay_yields_records_in_order(engine):
    wal, fs = make_wal(engine)
    wal.add_group([record(1), record(2)])
    wal.add_group([record(3)])
    logs, stats = recover_logs(WalManager.existing_logs(fs))
    replayed = [key for _n, _f, groups in logs for group in groups for key, _ in group]
    assert replayed == [b"%06d" % i for i in (1, 2, 3)]
    assert stats == {"bad_records": 0, "truncated_logs": 0, "dropped_logs": 0}


def test_adopts_pre_existing_logs(engine):
    wal, fs = make_wal(engine)
    wal.add_group([record(1)])
    # Simulate reopen: a second manager on the same filesystem.
    opts = tiny_options(wal_mode=WAL_BUFFERED)
    wal2 = WalManager(engine, fs, opts, DEFAULT_COSTS)
    numbers = [num for num, _ in wal2.live_logs()]
    assert numbers == [1, 2]
    assert wal2.current_number == 2
