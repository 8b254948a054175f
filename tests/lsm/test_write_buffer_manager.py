"""Tests for the shared memtable byte budget (``WriteBufferManager``)."""

import pytest

from repro.errors import DBError
from repro.lsm.write_buffer_manager import WriteBufferManager


class _Memtable:
    def __init__(self, charged_bytes=0):
        self.charged_bytes = charged_bytes


class _Memtables:
    def __init__(self, mutable=0, immutables=()):
        self.mutable = _Memtable(mutable)
        self.immutables = [_Memtable(b) for b in immutables]


class _StubDB:
    """Just enough DB surface for the manager's accounting."""

    def __init__(self, mutable=0, immutables=()):
        self.memtables = _Memtables(mutable, immutables)


def test_validation():
    with pytest.raises(DBError):
        WriteBufferManager(0)
    with pytest.raises(DBError):
        WriteBufferManager(-1)


def test_register_idempotent():
    wbm = WriteBufferManager(1000)
    db = _StubDB()
    wbm.register(db)
    wbm.register(db)
    assert len(wbm._dbs) == 1


def test_usage_accounting_spans_dbs():
    wbm = WriteBufferManager(10_000)
    wbm.register(_StubDB(mutable=100, immutables=(50, 25)))
    wbm.register(_StubDB(mutable=200))
    assert wbm.mutable_usage() == 300
    assert wbm.memory_usage() == 375
    assert wbm.memory_usage() <= wbm.buffer_size


def test_mutable_limit_is_seven_eighths():
    assert WriteBufferManager(8000).mutable_limit == 7000


def test_under_budget_never_flushes():
    wbm = WriteBufferManager(1000)
    db = _StubDB(mutable=400)
    wbm.register(db)
    assert not wbm.should_flush(db)
    assert wbm.stats.get("flush_triggers") == 0


def test_mutable_over_seven_eighths_triggers():
    wbm = WriteBufferManager(1000)
    db = _StubDB(mutable=900)  # > 875 = 7/8 of 1000
    wbm.register(db)
    assert wbm.should_flush(db)
    assert wbm.stats.get("flush_triggers") == 1


def test_total_over_budget_needs_half_mutable():
    """Total usage over budget triggers only once mutable >= budget/2 —
    otherwise the pressure is all pending flushes and sealing more
    memtables would not help (RocksDB's ShouldFlush condition)."""
    wbm = WriteBufferManager(1000)
    mostly_immutable = _StubDB(mutable=100, immutables=(950,))
    wbm.register(mostly_immutable)
    assert not wbm.should_flush(mostly_immutable)
    half_mutable = _StubDB(mutable=500, immutables=(600,))
    wbm2 = WriteBufferManager(1000)
    wbm2.register(half_mutable)
    assert wbm2.should_flush(half_mutable)


def test_only_largest_mutable_owner_flushes():
    wbm = WriteBufferManager(1000)
    small = _StubDB(mutable=100)
    big = _StubDB(mutable=880)
    wbm.register(small)
    wbm.register(big)
    assert not wbm.should_flush(small)
    assert wbm.should_flush(big)
    assert wbm.stats.get("flush_triggers") == 1


def test_tie_goes_to_earliest_registered():
    wbm = WriteBufferManager(1000)
    first = _StubDB(mutable=450)
    second = _StubDB(mutable=450)
    wbm.register(first)
    wbm.register(second)
    assert wbm.should_flush(first)
    assert not wbm.should_flush(second)


def test_empty_mutable_never_flushes():
    wbm = WriteBufferManager(1000)
    idle = _StubDB(mutable=0, immutables=(2000,))
    wbm.register(idle)
    assert not wbm.should_flush(idle)


def test_peak_usage_high_water_mark():
    wbm = WriteBufferManager(1000)
    db = _StubDB(mutable=900)
    wbm.register(db)
    wbm.should_flush(db)
    db.memtables.mutable.charged_bytes = 100
    wbm.should_flush(db)
    assert wbm.peak_usage == 900

