"""Tests for Options validation and derived values."""

import pytest

from repro.errors import OptionsError
from repro.lsm.options import Options
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
    assert opts.refill_interval_ns == 1_024_000  # 1024 us
    assert opts.delayed_write_rate_dec == 0.8
    assert opts.delayed_write_rate_inc == 1.25


def test_level_targets_multiply():
    opts = Options(max_bytes_for_level_base=mb(256), max_bytes_for_level_multiplier=10)
    assert opts.max_bytes_for_level(1) == mb(256)
    assert opts.max_bytes_for_level(2) == mb(2560)
    assert opts.max_bytes_for_level(3) == mb(25600)
    with pytest.raises(OptionsError):
        opts.max_bytes_for_level(0)


def test_target_file_size():
    opts = Options(target_file_size_base=mb(64), target_file_size_multiplier=2)
    assert opts.target_file_size(1) == mb(64)
    assert opts.target_file_size(3) == mb(256)


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
        dict(num_levels=1),
        dict(level0_file_num_compaction_trigger=0),
        dict(level0_slowdown_writes_trigger=50),  # > stop trigger
        dict(max_bytes_for_level_multiplier=1.0),
        dict(block_size=0),
        dict(bloom_bits_per_key=-1),
        dict(wal_mode="paper"),
        dict(delayed_write_rate=0),
        dict(delayed_write_rate_dec=1.0),
        dict(delayed_write_rate_inc=1.0),
        dict(max_background_compactions=0),
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
