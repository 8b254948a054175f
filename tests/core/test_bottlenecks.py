"""Tests for the bottleneck analyzers."""

import pytest

from repro.core.bottlenecks import (
    NEAR_STOP_OPS,
    NearStopPeriod,
    near_stop_fraction,
    near_stop_periods,
    read_amplification,
    throughput_variation,
)
from tests.conftest import make_db, run_op


def series(rates):
    return [(float(t), float(r)) for t, r in enumerate(rates)]


class TestNearStop:
    def test_detects_one_valley(self):
        s = series([50_000, 40_000, 5_000, 3_000, 45_000])
        periods = near_stop_periods(s)
        assert len(periods) == 1
        assert periods[0].start_s == 2.0
        assert periods[0].end_s == 4.0
        assert periods[0].duration_s == 2.0

    def test_detects_trailing_valley(self):
        s = series([50_000, 5_000])
        periods = near_stop_periods(s)
        assert len(periods) == 1
        assert periods[0].end_s == 2.0

    def test_no_valleys(self):
        assert near_stop_periods(series([50_000, 60_000])) == []

    def test_threshold_is_the_papers_10_kops(self):
        assert NEAR_STOP_OPS == 10_000
        assert near_stop_periods(series([15_000, 10_000])) == []
        assert near_stop_periods(series([15_000, 9_999])) == [NearStopPeriod(1.0, 2.0)]

    def test_fraction(self):
        s = series([50_000, 5_000, 5_000, 50_000])
        assert near_stop_fraction(s) == pytest.approx(0.5)
        assert near_stop_fraction([]) == 0.0


class TestVariation:
    def test_stats(self):
        stats = throughput_variation(series([10, 20, 30]))
        assert stats["min"] == 10
        assert stats["max"] == 30
        assert stats["mean"] == pytest.approx(20)
        assert stats["cov"] > 0

    def test_constant_series_zero_cov(self):
        assert throughput_variation(series([5, 5, 5]))["cov"] == 0.0

    def test_empty(self):
        assert throughput_variation([])["mean"] == 0.0


class TestDbDerivedMetrics:
    def test_read_amplification_zero_without_gets(self, engine):
        db = make_db(engine)
        assert read_amplification(db.stats.tickers()) == 0.0

    def test_read_amplification_counts_device_reads(self, engine):
        db = make_db(engine)
        db.stats.inc("gets", 10)
        db.stats.inc("get.block_device_reads", 15)
        assert read_amplification(db.stats.tickers()) == pytest.approx(1.5)
