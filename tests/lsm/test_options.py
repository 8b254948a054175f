"""Tests for Options validation and derived values."""

import pytest

from repro.errors import OptionsError
from repro.lsm.options import Options
from repro.lsm.write_controller import (
    DELAYED_WRITE_RATE_DEC,
    DELAYED_WRITE_RATE_INC,
    REFILL_INTERVAL_NS,
)
from repro.sim.units import MB, mb


def test_defaults_match_rocksdb_517():
    """The defaults the paper relies on (Section IV-A)."""
    opts = Options()
    opts.validate()
    assert opts.write_buffer_size == 64 * MB
    assert opts.max_write_buffer_number == 2
    assert opts.level0_file_num_compaction_trigger == 4
    assert opts.level0_slowdown_writes_trigger == 20
    assert opts.level0_stop_writes_trigger == 36
    assert opts.bloom_bits_per_key == 0  # no filter by default
    assert REFILL_INTERVAL_NS == 1_024_000  # 1024 us
    assert DELAYED_WRITE_RATE_DEC == 0.8
    assert DELAYED_WRITE_RATE_INC == 1.25


def test_level_targets_multiply():
    opts = Options(max_bytes_for_level_base=mb(256))
    assert opts.max_bytes_for_level(1) == mb(256)
    assert opts.max_bytes_for_level(2) == mb(2560)
    assert opts.max_bytes_for_level(3) == mb(25600)
    with pytest.raises(OptionsError):
        opts.max_bytes_for_level(0)


def test_target_file_size():
    opts = Options(target_file_size_base=mb(64))
    assert opts.target_file_size(1) == mb(64)
    assert opts.target_file_size(3) == mb(64)  # one size at every level


def test_copy_overrides_and_validates():
    opts = Options()
    smaller = opts.copy(write_buffer_size=mb(4))
    assert smaller.write_buffer_size == mb(4)
    assert opts.write_buffer_size == 64 * MB  # original untouched
    with pytest.raises(OptionsError):
        opts.copy(write_buffer_size=-1)


@pytest.mark.parametrize(
    "bad",
    [
        dict(write_buffer_size=0),
        dict(max_write_buffer_number=0),
        dict(memtable_rep="btree"),
        dict(write_queue_shards=0),
        dict(level0_file_num_compaction_trigger=0),
        dict(level0_slowdown_writes_trigger=50),  # > stop trigger
        dict(rate_limit_bytes_per_sec=-1),
        dict(block_size=0),
        dict(bloom_bits_per_key=-1),
        dict(wal_mode="paper"),
        dict(delayed_write_rate=0),
        dict(bg_error_resume_interval_ns=0),
        dict(bg_error_resume_backoff=0.5),
        dict(max_bg_error_resume_count=0),
    ],
)
def test_invalid_options_rejected(bad):
    with pytest.raises(OptionsError):
        Options(**bad).validate()


def test_trigger_ordering_enforced():
    with pytest.raises(OptionsError):
        Options(
            level0_file_num_compaction_trigger=10,
            level0_slowdown_writes_trigger=5,
        ).validate()
