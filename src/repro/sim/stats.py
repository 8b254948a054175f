"""Measurement utilities: latency histograms, throughput time series, gauges.

The paper reports median / 90th-percentile tail latencies, per-second
throughput timelines (Figs. 4, 5, 18) and the time-averaged number of waiting
writer threads (Fig. 16).  The classes here collect exactly those statistics
with bounded memory, no matter how many operations a run executes.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.units import SEC

# numpy is an optional accelerator (pyproject extra ``[perf]``): every bulk
# path below has a pure-python fallback producing bit-identical state.  Set
# REPRO_NO_NUMPY=1 to force the fallback (CI proves it passes the suite).
if os.environ.get("REPRO_NO_NUMPY"):
    _np = None
else:
    try:
        import numpy as _np
    except ImportError:  # pragma: no cover - the image ships numpy
        _np = None

# Below this many samples the ndarray conversion costs more than it saves.
_BULK_MIN = 32

# np.frexp exponents equal int.bit_length() only while the float64 mantissa
# is exact; route larger samples through the scalar path.
_FLOAT_EXACT = 1 << 53

_SUBBUCKETS = 32  # per power of two; worst-case relative error ~3%


class LatencyHistogram:
    """HDR-style logarithmic histogram of non-negative integer samples.

    Buckets grow exponentially with :data:`_SUBBUCKETS` linear sub-buckets
    per octave, giving a bounded relative error at any magnitude while using
    O(log(max)) memory.  Percentile queries interpolate inside the bucket.
    """

    __slots__ = ("name", "_buckets", "count", "total", "min", "max", "_sorted")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        # Sorted bucket-index cache for percentile(); invalidated whenever a
        # *new* bucket appears (record into an existing bucket keeps it).
        self._sorted: Optional[List[int]] = None

    @staticmethod
    def _bucket_bounds(index: int) -> Tuple[int, int]:
        """Inclusive low / exclusive high value range of a bucket."""
        if index < _SUBBUCKETS:
            return index, index + 1
        octave, sub = divmod(index, _SUBBUCKETS)
        shift = octave - 1
        low = (_SUBBUCKETS + sub) << shift
        return low, low + (1 << shift)

    def record(self, value: int, n: int = 1) -> None:
        """Record ``n`` occurrences of ``value`` (nanoseconds, typically)."""
        if value < 0:
            raise SimulationError(f"negative sample: {value}")
        # The bucket index, computed inline: a call per sample adds up at
        # millions of ops.
        if value < _SUBBUCKETS:
            idx = value
        else:
            shift = value.bit_length() - 6  # lands value >> shift in [32, 64)
            if shift < 0:
                shift = 0
            idx = (shift + 1) * _SUBBUCKETS + ((value >> shift) - _SUBBUCKETS)
        buckets = self._buckets
        if idx in buckets:
            buckets[idx] += n
        else:
            buckets[idx] = n
            self._sorted = None
        self.count += n
        self.total += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def record_many(self, values: Sequence[int]) -> None:
        """Record a batch of samples, bit-identical to a ``record`` loop.

        With numpy available the bucket indices are computed vectorized
        (``frexp`` exponents equal ``int.bit_length()`` for exact float64
        values) and the percentile cache is invalidated at most once per
        batch.  Batches containing negatives (which must raise exactly like
        the scalar path, prefix included) or samples at/above 2**53 (where
        float exponents stop being trustworthy) fall back to the scalar
        loop, as does any batch when numpy is unavailable.
        """
        n = len(values)
        if n == 0:
            return
        if _np is not None and n >= _BULK_MIN:
            arr = _np.asarray(values, dtype=_np.int64)
            lo = int(arr.min())
            hi = int(arr.max())
            if lo >= 0 and hi < _FLOAT_EXACT and hi * n < (1 << 62):
                # bit_length via frexp: value in [2**(e-1), 2**e) => exp e.
                exp = _np.frexp(arr)[1].astype(_np.int64)
                shift = exp - 6
                _np.clip(shift, 0, None, out=shift)
                idx = (shift + 1) * _SUBBUCKETS + (arr >> shift) - _SUBBUCKETS
                uniq, counts = _np.unique(idx, return_counts=True)
                buckets = self._buckets
                dirty = False
                for i, c in zip(uniq.tolist(), counts.tolist()):
                    if i in buckets:
                        buckets[i] += c
                    else:
                        buckets[i] = c
                        dirty = True
                if dirty:
                    self._sorted = None
                self.count += n
                self.total += int(arr.sum())
                if self.min is None or lo < self.min:
                    self.min = lo
                if self.max is None or hi > self.max:
                    self.max = hi
                return
        record = self.record
        for value in values:
            record(value)

    def reset(self) -> None:
        """Discard all samples in place; held references stay valid."""
        self._buckets.clear()
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self._sorted = None

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` in [0, 100] (linear interpolation)."""
        if not 0.0 <= p <= 100.0:
            raise SimulationError(f"percentile out of range: {p}")
        if self.count == 0:
            return 0.0
        target = p / 100.0 * self.count
        seen = 0
        sorted_idx = self._sorted
        if sorted_idx is None:
            self._sorted = sorted_idx = sorted(self._buckets)
        for idx in sorted_idx:
            n = self._buckets[idx]
            if seen + n >= target:
                low, high = self._bucket_bounds(idx)
                frac = (target - seen) / n
                value = low + frac * (high - low)
                # Clamp to the observed extremes for tighter tails.
                if self.max is not None:
                    value = min(value, float(self.max))
                if self.min is not None:
                    value = max(value, float(self.min))
                return value
            seen += n
        return float(self.max if self.max is not None else 0)

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one."""
        buckets = self._buckets
        for idx, n in other._buckets.items():
            if idx in buckets:
                buckets[idx] += n
            else:
                buckets[idx] = n
                self._sorted = None
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def summary(self) -> Dict[str, float]:
        """Count/mean/median/p90/p99/max in one dict (times in ns)."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
            "max": float(self.max or 0),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LatencyHistogram {self.name} n={self.count} mean={self.mean:.0f}ns>"


class TimeSeries:
    """Per-bucket event counter over virtual time (throughput timelines)."""

    __slots__ = ("bucket_ns", "name", "_buckets", "count")

    def __init__(self, bucket_ns: int = SEC, name: str = "") -> None:
        if bucket_ns <= 0:
            raise SimulationError(f"bucket width must be positive: {bucket_ns}")
        self.bucket_ns = bucket_ns
        self.name = name
        self._buckets: Dict[int, int] = {}
        self.count = 0

    def record(self, now: int, n: int = 1) -> None:
        idx = now // self.bucket_ns
        buckets = self._buckets
        if idx in buckets:
            buckets[idx] += n
        else:
            buckets[idx] = n
        self.count += n

    def record_many(
        self, times: Sequence[int], counts: Optional[Sequence[int]] = None
    ) -> None:
        """Record a batch of events, bit-identical to a ``record`` loop.

        ``counts`` (optional, parallel to ``times``) weights each event —
        the vector analogue of ``record(now, n)``.  The numpy path keeps
        all arithmetic in int64 (a stable argsort + ``reduceat`` instead of
        ``bincount``, whose weighted form returns floats), so bucket totals
        match the scalar loop exactly.
        """
        n = len(times)
        if n == 0:
            return
        if _np is not None and n >= _BULK_MIN:
            arr = _np.asarray(times, dtype=_np.int64)
            idx = arr // self.bucket_ns
            buckets = self._buckets
            if counts is None:
                uniq, cnt = _np.unique(idx, return_counts=True)
                self.count += n
            else:
                weights = _np.asarray(counts, dtype=_np.int64)
                order = _np.argsort(idx, kind="stable")
                sorted_idx = idx[order]
                sorted_w = weights[order]
                starts = _np.concatenate(
                    ([0], _np.flatnonzero(sorted_idx[1:] != sorted_idx[:-1]) + 1)
                )
                uniq = sorted_idx[starts]
                cnt = _np.add.reduceat(sorted_w, starts)
                self.count += int(sorted_w.sum())
            for i, c in zip(uniq.tolist(), cnt.tolist()):
                if i in buckets:
                    buckets[i] += c
                else:
                    buckets[i] = c
            return
        record = self.record
        if counts is None:
            for now in times:
                record(now)
        else:
            for now, c in zip(times, counts):
                record(now, c)

    def series(self, start: int = 0, end: Optional[int] = None) -> List[Tuple[float, float]]:
        """Return ``(bucket_start_seconds, events_per_second)`` pairs.

        Buckets with zero events inside [start, end) are included so
        near-stop periods are visible in timelines.  When ``end`` is not
        bucket-aligned the trailing partial bucket is included — the final
        instants of a run must not vanish from timeline figures.
        """
        if not self._buckets and end is None:
            return []
        last = max(self._buckets) if self._buckets else 0
        end_idx = -(-end // self.bucket_ns) if end is not None else last + 1
        start_idx = start // self.bucket_ns
        per_sec = SEC / self.bucket_ns
        return [
            (idx * self.bucket_ns / SEC, self._buckets.get(idx, 0) * per_sec)
            for idx in range(start_idx, max(end_idx, start_idx))
        ]

    def rate_between(self, start: int, end: int) -> float:
        """Average events/second over the half-open interval [start, end).

        Counts buckets whose start timestamp lies in [start, end).  Only
        the ``[start, end)`` index range is visited (a full scan of every
        bucket ever recorded made this O(total run length) per call); when
        the histogram is sparser than the queried range, the smaller bucket
        dict is walked instead — both paths count exactly the same buckets.
        """
        if end <= start:
            return 0.0
        bucket_ns = self.bucket_ns
        buckets = self._buckets
        start_idx = -(-start // bucket_ns)  # first idx with idx*bucket >= start
        end_idx = -(-end // bucket_ns)  # first idx with idx*bucket >= end
        if end_idx - start_idx <= len(buckets):
            get = buckets.get
            total = sum(get(idx, 0) for idx in range(start_idx, end_idx))
        else:
            total = sum(
                n for idx, n in buckets.items() if start_idx <= idx < end_idx
            )
        return total * SEC / (end - start)


class TimeWeightedGauge:
    """Time-weighted average of a stepwise value (e.g. queue length)."""

    __slots__ = ("name", "_value", "_last_t", "_area", "_start", "max_value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._value = 0.0
        self._last_t: Optional[int] = None
        self._area = 0.0
        self._start: Optional[int] = None
        self.max_value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def update(self, now: int, value: float) -> None:
        """Record that the gauge changed to ``value`` at time ``now``."""
        if self._last_t is None:
            self._start = now
        else:
            if now < self._last_t:
                raise SimulationError("gauge updated with a past timestamp")
            self._area += self._value * (now - self._last_t)
        self._last_t = now
        self._value = value
        if value > self.max_value:
            self.max_value = value

    def mean(self, now: Optional[int] = None) -> float:
        """Time-weighted mean from first update to ``now`` (or last update)."""
        if self._last_t is None or self._start is None:
            return 0.0
        end = self._last_t if now is None else max(now, self._last_t)
        elapsed = end - self._start
        if elapsed <= 0:
            return self._value
        area = self._area + self._value * (end - self._last_t)
        return area / elapsed


class StatsSet:
    """A named bag of counters and histograms (RocksDB 'Statistics' analog)."""

    __slots__ = ("_tickers", "_histograms")

    def __init__(self) -> None:
        self._tickers: Dict[str, int] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}

    def inc(self, name: str, n: int = 1) -> None:
        tickers = self._tickers
        if name in tickers:
            tickers[name] += n
        else:
            tickers[name] = n

    def get(self, name: str) -> int:
        return self._tickers.get(name, 0)

    def counters(self) -> Dict[str, int]:
        """The ticker dict itself, not a copy, for a hot path that counts
        without a call: ``try: d[name] += n`` / ``except KeyError: d[name] =
        n`` is :meth:`inc` inline."""
        return self._tickers

    def histogram(self, name: str) -> LatencyHistogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = LatencyHistogram(name)
            self._histograms[name] = hist
        return hist

    def tickers(self) -> Dict[str, int]:
        return dict(self._tickers)

    def histogram_names(self) -> Iterable[str]:
        return self._histograms.keys()

    def reset(self) -> None:
        """Zero all counters and histograms.

        Histograms are cleared *in place* so callers holding a
        :meth:`histogram` reference keep recording into the registered
        object rather than an orphan invisible to :meth:`histogram_names`.
        """
        self._tickers.clear()
        for hist in self._histograms.values():
            hist.reset()
