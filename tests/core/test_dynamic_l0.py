"""Tests for case study B: dynamic Level-0 management."""

import pytest

from repro.core.dynamic_l0 import (
    READ_INTENSIVE_FILES,
    SAMPLE_INTERVAL_NS,
    WRITE_INTENSIVE_FILES,
    DynamicL0Manager,
    dynamic_l0_options,
)
from repro.errors import DBError
from repro.sim.units import mb
from tests.conftest import make_db, run_op, tiny_options


def make_manager(engine, volume=mb(12)):
    db = make_db(engine)
    manager = DynamicL0Manager(db, l0_volume_bytes=volume)
    return db, manager


def test_options_helper_sets_trigger_24():
    opts = dynamic_l0_options(tiny_options())
    assert opts.level0_slowdown_writes_trigger == 24
    assert opts.level0_stop_writes_trigger >= 36
    assert "dynamic-l0" in opts.name


def test_initial_mode_write_intensive(engine):
    db, manager = make_manager(engine)
    assert manager.mode == "write-intensive"
    assert db.options.write_buffer_size == mb(12) // 24


def test_switch_to_read_intensive(engine):
    db, manager = make_manager(engine)
    manager.step(write_fraction=0.1)  # below the 25% threshold
    assert manager.mode == "read-intensive"
    assert db.options.write_buffer_size == mb(12) // 6
    assert manager.mode_switches == 1


def test_switch_back_to_write_intensive(engine):
    db, manager = make_manager(engine)
    manager.step(0.1)
    manager.step(0.6)
    assert manager.mode == "write-intensive"
    assert manager.mode_switches == 2


def test_threshold_boundary(engine):
    _, manager = make_manager(engine)
    manager.step(0.25)  # paper: "more than 25%" => not strictly greater
    assert manager.mode == "read-intensive"
    manager.step(0.251)
    assert manager.mode == "write-intensive"


def test_none_sample_is_ignored(engine):
    _, manager = make_manager(engine)
    manager.step(0.1)
    switches = manager.mode_switches
    manager.step(None)
    assert manager.mode_switches == switches


def test_observed_write_fraction_uses_deltas(engine):
    db, manager = make_manager(engine)
    run_op(engine, db.put(b"k1", b"v"))
    run_op(engine, db.get(b"k1"))
    run_op(engine, db.get(b"k2"))
    frac = manager.observed_write_fraction()
    assert frac == pytest.approx(1 / 3)
    # Second sample with no traffic: None.
    assert manager.observed_write_fraction() is None


def test_background_process_adapts(engine):
    db, manager = make_manager(engine, volume=mb(12))
    manager.start()

    def reader():
        for i in range(100):
            yield from db.get(b"%06d" % i)
        yield SAMPLE_INTERVAL_NS * 2

    run_op(engine, reader())
    assert manager.mode == "read-intensive"


def test_start_twice_rejected(engine):
    _, manager = make_manager(engine)
    manager.start()
    with pytest.raises(DBError):
        manager.start()


def test_validation():
    from repro.sim.engine import Engine

    engine = Engine()
    db = make_db(engine)
    with pytest.raises(DBError):
        DynamicL0Manager(db, l0_volume_bytes=0)


def test_paper_file_counts_default():
    from repro.sim.engine import Engine

    engine = Engine()
    db = make_db(engine)
    manager = DynamicL0Manager(db, l0_volume_bytes=mb(24))
    assert (READ_INTENSIVE_FILES, WRITE_INTENSIVE_FILES) == (6, 24)
    assert db.options.write_buffer_size == mb(24) // 24
