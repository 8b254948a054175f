"""Tests for latency histograms, time series, counters and the Fig. 16 gauge spec."""

import pickle
from array import array

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.stats import _FOLD_AT, LatencyHistogram, StatsSet, TimeSeries
from repro.sim.units import SEC
from tests.conftest import TimeWeightedGauge


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0

    def test_single_value(self):
        hist = LatencyHistogram()
        hist.record(1000)
        assert hist.count == 1
        assert hist.min == hist.max == 1000
        assert hist.percentile(50) == pytest.approx(1000, rel=0.05)

    def test_small_values_exact(self):
        hist = LatencyHistogram()
        for v in range(32):
            hist.record(v)
        assert hist.min == 0
        assert hist.max == 31
        assert hist.mean == pytest.approx(15.5)

    def test_negative_raises(self):
        hist = LatencyHistogram()
        with pytest.raises(SimulationError):
            hist.record(-1)

    def test_percentile_bounds_check(self):
        hist = LatencyHistogram()
        hist.record(5)
        with pytest.raises(SimulationError):
            hist.percentile(101)
        with pytest.raises(SimulationError):
            hist.percentile(-1)

    def test_weighted_record(self):
        hist = LatencyHistogram()
        hist.record(100, n=10)
        assert hist.count == 10
        assert hist.total == 1000

    @given(
        samples=st.lists(
            st.integers(min_value=0, max_value=10_000_000), min_size=10, max_size=500
        )
    )
    def test_percentiles_within_relative_error(self, samples):
        """Bucketed percentiles stay within ~4% of exact ones."""
        hist = LatencyHistogram()
        for s in samples:
            hist.record(s)
        for p in (50, 90, 99):
            exact = float(np.percentile(samples, p, method="inverted_cdf"))
            approx = hist.percentile(p)
            assert approx <= hist.max
            assert approx >= hist.min
            if exact > 0:
                assert approx == pytest.approx(exact, rel=0.05, abs=2)

    @given(
        a=st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=100),
        b=st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=100),
    )
    def test_merge_equals_union(self, a, b):
        ha, hb, hu = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        for s in a:
            ha.record(s)
            hu.record(s)
        for s in b:
            hb.record(s)
            hu.record(s)
        ha.merge(hb)
        assert ha.count == hu.count
        assert ha.total == hu.total
        assert ha.min == hu.min
        assert ha.max == hu.max
        assert ha.percentile(90) == pytest.approx(hu.percentile(90))

    def test_summary_keys(self):
        hist = LatencyHistogram()
        hist.record(10)
        summary = hist.summary()
        assert set(summary) == {"count", "mean", "p50", "p90", "p99", "max"}

    def test_mean_exact(self):
        hist = LatencyHistogram()
        for v in (10, 20, 30):
            hist.record(v)
        assert hist.mean == pytest.approx(20.0)

    def test_reset_in_place(self):
        hist = LatencyHistogram("lat")
        hist.record(100, n=5)
        hist.reset()
        assert hist.count == 0
        assert hist.total == 0
        assert hist.min is None and hist.max is None
        assert hist.percentile(99) == 0.0
        hist.record(7)
        assert hist.summary()["p50"] == pytest.approx(7.0)


class TestRecordByAppend:
    """``record`` checks and buffers; readers see the folded state."""

    def test_negative_raises_at_the_call_and_buffers_nothing(self):
        hist = LatencyHistogram()
        hist.record(5)
        with pytest.raises(SimulationError):
            hist.record(-1)
        assert list(hist._pending) == [5]
        assert _hist_state(hist) == ({5: 1}, 1, 5, 5, 5)

    def test_weighted_record_beside_buffered_samples(self):
        hist, ref = LatencyHistogram(), LatencyHistogram()
        hist.record(40)
        hist.record(100, n=3)
        hist.record(7)
        ref.record_many([40, 100, 100, 100, 7])
        assert _hist_state(hist) == _hist_state(ref)
        assert hist.mean == ref.mean

    @given(
        program=st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=10**12),
                st.sampled_from(["count", "total", "min", "max", "p50", "merge", "summary"]),
            ),
            max_size=60,
        )
    )
    def test_readers_interleaved_with_appends(self, program):
        """Every reader folds first, so each answers as if each sample had
        gone straight into the buckets (``_add`` is that scalar update)."""
        hist, ref = LatencyHistogram(), LatencyHistogram()
        for step in program:
            if isinstance(step, int):
                hist.record(step)
                ref._add(step, 1)
            elif step == "p50":
                assert hist.percentile(50.0) == ref.percentile(50.0)
            elif step == "merge":
                other = LatencyHistogram()
                other.record(3)
                hist.merge(other)
                ref._add(3, 1)
            elif step == "summary":
                assert hist.summary() == ref.summary()
            else:
                assert getattr(hist, step) == getattr(ref, step)
        assert _hist_state(hist) == _hist_state(ref)

    def test_buffer_folds_at_fixed_size(self):
        hist = LatencyHistogram()
        for v in range(_FOLD_AT - 1):
            hist.record(v)
        assert len(hist._pending) == _FOLD_AT - 1 and not hist._buckets
        hist.record(1)
        assert len(hist._pending) == 0 and hist._count == _FOLD_AT

    def test_no_numpy_fold_uses_the_scalar_update(self, monkeypatch):
        import repro.sim.stats as stats_mod

        monkeypatch.setattr(stats_mod, "_np", None)
        hist = LatencyHistogram()
        for v in range(100):
            hist.record(v)
        # A fold that went back through record() would now fail.
        monkeypatch.setattr(LatencyHistogram, "record", None)
        assert _hist_state(hist)[1:] == (100, sum(range(100)), 0, 99)

    def test_pickled_with_buffered_samples(self):
        """``--jobs`` workers send histograms back pickled, maybe mid-buffer."""
        hist = LatencyHistogram("lat")
        hist.record_many(range(100))
        for v in (5, 50, 500):
            hist.record(v)
        assert len(hist._pending) == 3
        copy = pickle.loads(pickle.dumps(hist))
        assert _hist_state(copy) == _hist_state(hist)
        assert copy.percentile(99.0) == hist.percentile(99.0)
        copy.record(9)
        assert copy.count == hist.count + 1


class TestPercentileAccuracy:
    """p50/p90/p99 track exact percentiles within ~3% from 1 ns to 10 s.

    The histogram's 32 sub-buckets per octave bound the relative bucket
    width at 1/32 ~ 3.1%, so the interpolated percentile can be at most one
    bucket width from the exact order statistic at any magnitude.
    """

    SCALES = [1, 10, 1_000, 100_000, 10_000_000, 10 * SEC]

    @pytest.mark.parametrize("dist", ["uniform", "lognormal"])
    @pytest.mark.parametrize("scale", SCALES)
    def test_within_relative_error(self, scale, dist):
        rng = np.random.default_rng(scale % 2**31 + (dist == "lognormal"))
        if dist == "uniform":
            samples = rng.integers(0, scale + 1, size=4000)
        else:
            samples = np.minimum(
                rng.lognormal(mean=np.log(scale), sigma=1.0, size=4000), 10 * SEC
            ).astype(np.int64)
        hist = LatencyHistogram()
        for s in samples.tolist():
            hist.record(int(s))
        for p in (50, 90, 99):
            exact = float(np.percentile(samples, p, method="inverted_cdf"))
            approx = hist.percentile(p)
            assert abs(approx - exact) <= max(0.035 * exact, 1.0), (p, scale, dist)


def _hist_state(hist):
    count = hist.count  # folds the buffered samples into _buckets
    return (dict(hist._buckets), count, hist.total, hist.min, hist.max)


class TestRecordMany:
    """Bulk recording is bit-identical to the scalar loop, in any order.

    record_many has a vectorized numpy path above the bulk threshold and a
    scalar fallback below it (and whenever numpy is unavailable); both must
    leave exactly the state a plain ``record`` loop would, even when
    percentile queries — which build a sorted-bucket cache that bulk
    inserts must invalidate — interleave with the batches.
    """

    @given(
        program=st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=10_000_000),
                st.lists(
                    st.integers(min_value=0, max_value=10_000_000),
                    min_size=0,
                    max_size=100,
                ),
                st.sampled_from([50.0, 90.0, 99.0]),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_interleaved_record_percentile_record_many(self, program):
        hist = LatencyHistogram()
        ref = LatencyHistogram()
        for step in program:
            if isinstance(step, float):  # percentile query mid-stream
                assert hist.percentile(step) == ref.percentile(step)
            elif isinstance(step, list):  # bulk batch
                hist.record_many(step)
                for v in step:
                    ref.record(v)
            else:  # scalar sample
                hist.record(step)
                ref.record(step)
        assert _hist_state(hist) == _hist_state(ref)
        for p in (0, 50, 90, 99, 100):
            assert hist.percentile(p) == ref.percentile(p)

    def test_bulk_batch_invalidates_percentile_cache(self):
        """A cached percentile must not survive a bulk insert that opens
        new buckets (the numpy path invalidates at most once per batch)."""
        hist = LatencyHistogram()
        hist.record(10)
        assert hist.percentile(50) == pytest.approx(10.0)
        hist.record_many([1_000_000] * 64)
        assert hist.percentile(99) == pytest.approx(1_000_000, rel=0.05)

    def test_huge_samples_use_scalar_path(self):
        """Samples at/above 2**53 (float64 exactness limit) must still land
        in the same buckets as the scalar path."""
        huge = [2**53, 2**53 + 1, 2**60] * 16
        hist, ref = LatencyHistogram(), LatencyHistogram()
        hist.record_many(huge)
        for v in huge:
            ref.record(v)
        assert _hist_state(hist) == _hist_state(ref)

    def test_negative_in_batch_raises(self):
        hist = LatencyHistogram()
        with pytest.raises(SimulationError):
            hist.record_many([1, 2, -3] + [4] * 64)

    @given(
        times=st.lists(
            st.integers(min_value=0, max_value=10 * SEC), min_size=0, max_size=100
        ),
        weighted=st.booleans(),
    )
    def test_timeseries_record_many(self, times, weighted):
        ts = TimeSeries(bucket_ns=SEC // 4)
        ref = TimeSeries(bucket_ns=SEC // 4)
        counts = [t % 5 + 1 for t in times] if weighted else None
        ts.record_many(times, counts)
        for i, t in enumerate(times):
            ref.record(t, counts[i] if counts else 1)
        assert dict(ts._buckets) == dict(ref._buckets)
        assert ts.count == ref.count

    @given(
        samples=st.lists(st.integers(min_value=0, max_value=10 * SEC), max_size=200),
    )
    def test_array_input_equals_record_loop(self, samples):
        """The workloads buffer samples in ``array('q')``: both record_many
        paths (numpy reads the buffer; REPRO_NO_NUMPY iterates it) leave the
        state of a ``record`` loop."""
        hist, ref = LatencyHistogram(), LatencyHistogram()
        hist.record_many(array("q", samples))
        for v in samples:
            ref.record(v)
        assert _hist_state(hist) == _hist_state(ref)
        ts, ref_ts = TimeSeries(bucket_ns=SEC // 4), TimeSeries(bucket_ns=SEC // 4)
        ts.record_many(array("q", samples))
        for t in samples:
            ref_ts.record(t)
        assert dict(ts._buckets) == dict(ref_ts._buckets) and ts.count == ref_ts.count

    def test_no_numpy_fallback_identical(self, monkeypatch):
        """REPRO_NO_NUMPY's code path (module-level ``_np = None``) must
        produce byte-identical state to the vectorized path."""
        import repro.sim.stats as stats_mod

        samples = list(range(0, 5000, 7)) * 2
        vec = LatencyHistogram()
        vec.record_many(samples)
        monkeypatch.setattr(stats_mod, "_np", None)
        scalar = LatencyHistogram()
        scalar.record_many(samples)
        assert _hist_state(vec) == _hist_state(scalar)

        times = [i * 1000 for i in range(200)]
        counts = [i % 3 + 1 for i in range(200)]
        scalar_ts = TimeSeries(bucket_ns=SEC // 10)
        scalar_ts.record_many(times, counts)
        monkeypatch.undo()
        vec_ts = TimeSeries(bucket_ns=SEC // 10)
        vec_ts.record_many(times, counts)
        assert dict(vec_ts._buckets) == dict(scalar_ts._buckets)
        assert vec_ts.count == scalar_ts.count


class TestTimeSeries:
    def test_bucket_rates(self):
        ts = TimeSeries(bucket_ns=SEC)
        for i in range(5):
            ts.record(0, n=1)
        for i in range(3):
            ts.record(SEC + 1, n=1)
        series = ts.series(0, 2 * SEC)
        assert series == [(0.0, 5.0), (1.0, 3.0)]

    def test_zero_buckets_included(self):
        ts = TimeSeries(bucket_ns=SEC)
        ts.record(0)
        ts.record(3 * SEC)
        series = ts.series(0, 4 * SEC)
        assert [rate for _, rate in series] == [1.0, 0.0, 0.0, 1.0]

    def test_sub_second_buckets_scale_to_per_second(self):
        ts = TimeSeries(bucket_ns=SEC // 10)
        ts.record(0, n=5)
        series = ts.series(0, SEC // 10)
        assert series[0][1] == 50.0  # 5 events in 100 ms = 50/s

    def test_invalid_bucket(self):
        with pytest.raises(SimulationError):
            TimeSeries(bucket_ns=0)

    def test_empty_series(self):
        ts = TimeSeries()
        assert ts.series() == []

    def test_trailing_partial_bucket_included(self):
        """Regression: events after the last full bucket used to vanish
        when ``end`` was not bucket-aligned."""
        ts = TimeSeries(bucket_ns=SEC)
        ts.record(0)
        ts.record(int(2.5 * SEC), n=4)
        series = ts.series(0, int(2.5 * SEC))
        assert series == [(0.0, 1.0), (1.0, 0.0), (2.0, 4.0)]

    def test_aligned_end_stays_half_open(self):
        ts = TimeSeries(bucket_ns=SEC)
        ts.record(0, n=2)
        ts.record(2 * SEC, n=3)  # at the end boundary: excluded
        assert ts.series(0, 2 * SEC) == [(0.0, 2.0), (1.0, 0.0)]


class TestTimeWeightedGauge:
    """The spec gauge of Fig. 16 (``tests.conftest``) obeys its own rules."""

    def test_mean_of_step_function(self):
        g = TimeWeightedGauge()
        g.update(0, 10.0)
        g.update(100, 0.0)
        # 10 for [0,100), then 0 for [100,200)
        assert g.mean(200) == pytest.approx(5.0)

    def test_mean_with_no_updates(self):
        assert TimeWeightedGauge().mean(100) == 0.0

    def test_max_value_tracked(self):
        g = TimeWeightedGauge()
        g.update(0, 3.0)
        g.update(5, 8.0)
        g.update(10, 1.0)
        assert g.max_value == 8.0

    def test_past_timestamp_raises(self):
        g = TimeWeightedGauge()
        g.update(100, 1.0)
        with pytest.raises(SimulationError):
            g.update(50, 2.0)

    @given(
        steps=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=1000),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_mean_bounded_by_extremes(self, steps):
        g = TimeWeightedGauge()
        t = 0
        values = []
        for dt, v in steps:
            g.update(t, v)
            values.append(v)
            t += dt
        mean = g.mean(t)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9


class TestStatsSet:
    def test_counters(self):
        s = StatsSet()
        s.inc("x")
        s.inc("x", 4)
        assert s.get("x") == 5
        assert s.get("missing") == 0

    def test_histogram_registry(self):
        s = StatsSet()
        h = s.histogram("lat")
        h.record(10)
        assert s.histogram("lat").count == 1
        assert list(s.histogram_names()) == ["lat"]

    def test_reset(self):
        s = StatsSet()
        s.inc("a")
        s.histogram("h").record(1)
        s.reset()
        assert s.get("a") == 0
        assert s.tickers() == {}

    def test_reset_clears_histograms_in_place(self):
        """Regression: reset() used to orphan histogram references — a
        caller holding one kept recording into an object the set no longer
        reported."""
        s = StatsSet()
        h = s.histogram("h")
        h.record(5)
        s.reset()
        assert h.count == 0
        assert s.histogram("h") is h
        assert list(s.histogram_names()) == ["h"]
        h.record(7)
        assert s.histogram("h").count == 1
