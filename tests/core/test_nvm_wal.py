"""Tests for case study C: NVM-resident WAL."""

import pytest

from repro.core.nvm_wal import LoggingConfig, logging_configurations
from repro.harness.machine import Machine
from repro.lsm.options import WAL_BUFFERED, WAL_OFF
from repro.sim.units import KB, mb, us
from repro.storage.profiles import xpoint_ssd
from tests.conftest import run_op, tiny_options


def test_three_configurations():
    configs = logging_configurations()
    assert [c.label for c in configs] == ["wal-ssd", "wal-nvm", "wal-off"]
    assert configs[0].wal_mode == WAL_BUFFERED and not configs[0].wal_on_nvm
    assert configs[1].wal_mode == WAL_BUFFERED and configs[1].wal_on_nvm
    assert configs[2].wal_mode == WAL_OFF


def test_apply_sets_mode_and_label():
    opts = logging_configurations()[2].apply(tiny_options())
    assert opts.wal_mode == WAL_OFF
    assert "wal-off" in opts.name


def test_wal_on_nvm_writes_to_nvm_device(engine):
    machine = Machine.create(xpoint_ssd(), page_cache_bytes=mb(8), with_nvm=True)
    db = machine.open_db(tiny_options(), wal_on_nvm=True)
    run_op(machine.engine, db.put(b"k", b"v" * 2000))

    def drain():
        yield from db.wal.sync()

    run_op(machine.engine, drain())
    assert machine.nvm_fs.stats.get("bytes_appended") > 0
    assert machine.fs.stats.get("bytes_appended") == 0  # data device untouched by WAL


def test_nvm_append_is_durable_under_5us():
    """The NVM filesystem is the tmpfs stand-in: a small synced append is
    durable in about a microsecond, not at SSD latencies."""
    machine = Machine.create(xpoint_ssd(), page_cache_bytes=mb(8), with_nvm=True)
    f = machine.nvm_fs.create("wal/000001.log")
    f.append(KB, record="r1")
    run_op(machine.engine, f.sync())
    assert f.synced_size == KB
    assert 0 < machine.engine.now < us(5)


def test_wal_on_nvm_requires_nvm_machine():
    machine = Machine.create(xpoint_ssd(), page_cache_bytes=mb(8), with_nvm=False)
    with pytest.raises(ValueError):
        machine.open_db(tiny_options(), wal_on_nvm=True)


def test_nvm_wal_recovery_roundtrip(engine):
    """Data logged to NVM replays after a crash of both filesystems."""
    machine = Machine.create(xpoint_ssd(), page_cache_bytes=mb(8), with_nvm=True)
    db = machine.open_db(tiny_options(wal_mode="sync"), wal_on_nvm=True)
    run_op(machine.engine, db.put(b"nv-key", b"nv-value"))
    machine.fs.crash()
    machine.nvm_fs.crash()
    db2 = machine.open_db(tiny_options(wal_mode="sync"), wal_on_nvm=True)
    assert run_op(machine.engine, db2.get(b"nv-key")) == b"nv-value"
