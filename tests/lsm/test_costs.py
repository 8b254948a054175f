"""Tests for the CPU cost model — including the paper-calibrated points."""

import pytest

from repro.lsm.costs import DEFAULT_COSTS, CostModel
from repro.lsm.format import KIND_PUT
from repro.lsm.wal import WalManager
from repro.sim.units import MB, us
from tests.conftest import make_fs, tiny_options


def entries_for(file_bytes, entry_bytes=1024 + 16 + 8):
    return file_bytes // entry_bytes


class TestPaperCalibration:
    def test_l0_search_32mb_file(self):
        """Section IV-B: ~8.5 us for a 32 MB Level-0 file (1 KB values)."""
        cost = DEFAULT_COSTS.sst_search(entries_for(32 * MB))
        assert cost == pytest.approx(us(8.5), rel=0.1)

    def test_l0_search_256mb_file(self):
        """Section IV-B: ~9.7 us for a 256 MB Level-0 file."""
        cost = DEFAULT_COSTS.sst_search(entries_for(256 * MB))
        assert cost == pytest.approx(us(9.7), rel=0.1)

    def test_l0_search_grows_by_1_2us_per_8x(self):
        small = DEFAULT_COSTS.sst_search(entries_for(32 * MB))
        large = DEFAULT_COSTS.sst_search(entries_for(256 * MB))
        assert large - small == pytest.approx(us(1.2), rel=0.15)


class TestScaling:
    def test_memtable_insert_logarithmic(self):
        c = DEFAULT_COSTS
        assert c.memtable_insert(10) < c.memtable_insert(10_000)
        # Doubling N adds one level: constant increment.
        d1 = c.memtable_insert(2048) - c.memtable_insert(1024)
        d2 = c.memtable_insert(4096) - c.memtable_insert(2048)
        assert d1 == d2 == c.memtable_insert_per_level_ns

    def test_lookup_cheaper_than_insert(self):
        c = DEFAULT_COSTS
        for n in (10, 1000, 100_000):
            assert c.memtable_lookup(n) < c.memtable_insert(n)

    def test_deep_level_search_cheaper_than_l0(self):
        """L1+ index binary search << the L0 SkipList-file walk."""
        c = DEFAULT_COSTS
        for n in (1000, 100_000):
            assert c.sst_index_search(n) < c.sst_search(n)

    def test_wal_serialize_linear_in_bytes(self, engine):
        """The CPU ``WalManager.add_group`` charges a group: a base plus a
        per-byte serialization cost."""
        c = DEFAULT_COSTS
        wal = WalManager(engine, make_fs(engine), tiny_options(), c)

        def cpu(value_bytes):
            cost, _event = wal.add_group([(b"k", (1, KIND_PUT, b"v" * value_bytes))])
            return cost

        base = cpu(0)
        assert base > 0
        assert cpu(2000) - base == 2 * (cpu(1000) - base) == 2 * c.wal_serialize_per_byte_ps

    def test_background_costs_linear(self):
        c = DEFAULT_COSTS
        assert c.flush_entries(100) == 100 * c.flush_entry_ns
        assert c.compaction_entries(100) == 100 * c.compaction_entry_ns

    def test_compaction_slower_than_flush_per_entry(self):
        """Merging costs more than streaming out a sorted memtable."""
        assert DEFAULT_COSTS.compaction_entry_ns > DEFAULT_COSTS.flush_entry_ns

    def test_empty_structure_costs_positive(self):
        c = DEFAULT_COSTS
        assert c.memtable_insert(0) > 0
        assert c.memtable_lookup(0) > 0
        assert c.sst_search(0) > 0

    def test_custom_model_overrides(self):
        c = CostModel(memtable_insert_base_ns=us(10))
        assert c.memtable_insert(0) >= us(10)
