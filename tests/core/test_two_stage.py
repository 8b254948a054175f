"""Tests for case study A: two-stage throttling."""

import pytest

from repro.core.two_stage_throttle import (
    STAGE_AGGRESSIVE,
    STAGE_NONE,
    STAGE_SLIGHT,
    TwoStageWriteController,
)
from repro.lsm.write_controller import (
    DELAYED,
    MIN_DELAYED_WRITE_RATE,
    NORMAL,
    STOPPED,
    StallMetrics,
    WriteController,
)
from repro.sim.units import MB
from tests.conftest import tiny_options


def metrics(l0=0, imm=0):
    return StallMetrics(
        l0_files=l0,
        immutable_memtables=imm,
        max_immutable_memtables=1,
        pending_compaction_bytes=0,
    )


def make(engine, **opts):
    return TwoStageWriteController(engine, tiny_options(**opts))


def test_midpoint_computed_per_paper(engine):
    # (slowdown + stop) / 2 with defaults 20 and 36 => 28
    wc = make(engine)
    assert wc.midpoint == 28


def test_stage_none_below_slowdown(engine):
    wc = make(engine)
    assert wc.pick_state(metrics(l0=10)) == NORMAL
    assert wc.stage == STAGE_NONE


def test_stage_slight_between_slowdown_and_midpoint(engine):
    wc = make(engine)
    assert wc.pick_state(metrics(l0=22)) == DELAYED
    assert wc.stage == STAGE_SLIGHT


def test_stage_aggressive_past_midpoint(engine):
    wc = make(engine)
    assert wc.pick_state(metrics(l0=30)) == DELAYED
    assert wc.stage == STAGE_AGGRESSIVE


def test_stop_still_applies(engine):
    wc = make(engine)
    assert wc.pick_state(metrics(l0=36)) == STOPPED
    assert wc.stage == STAGE_AGGRESSIVE


def test_stage1_pins_rate_at_user_floor(engine):
    """Slight throttling never decays below delayed_write_rate."""
    wc = make(engine, delayed_write_rate=16 * MB)
    wc.update(metrics(l0=22))
    for i in range(50):
        wc.on_delayed_write(backlog_bytes=i + 1)  # growing backlog
    assert wc.delayed_write_rate == 16 * MB
    assert wc.stats.get("stage1_writes") == 50


def test_stage2_adapts_like_original(engine):
    wc = make(engine, delayed_write_rate=16 * MB)
    wc.update(metrics(l0=30))
    for i in range(50):
        wc.on_delayed_write(backlog_bytes=i + 1)
    assert wc.delayed_write_rate < 16 * MB
    assert wc.stats.get("stage2_writes") == 50


def test_transition_slight_to_aggressive(engine):
    wc = make(engine, delayed_write_rate=16 * MB)
    wc.update(metrics(l0=22))
    wc.on_delayed_write(1)
    assert wc.stage == STAGE_SLIGHT
    wc.update(metrics(l0=30))
    assert wc.stage == STAGE_AGGRESSIVE


def test_stage1_gives_higher_floor_than_original_min(engine):
    """The whole point: slight throttling >> the collapsed original rate."""
    wc = make(engine, delayed_write_rate=16 * MB)
    wc.update(metrics(l0=22))
    for i in range(100):
        wc.on_delayed_write(backlog_bytes=i + 1)
    assert wc.delayed_write_rate / MIN_DELAYED_WRITE_RATE >= 16


def test_factory(engine):
    """The class is its own factory: ``DB(controller=...)`` takes an
    instance built from the same ``(engine, options)`` pair."""
    wc = TwoStageWriteController(engine, tiny_options())
    assert isinstance(wc, WriteController)
