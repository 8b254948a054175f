"""Measurement utilities: latency histograms, throughput time series, counters.

The paper reports median / 90th-percentile tail latencies and per-second
throughput timelines (Figs. 4, 5, 18).  The classes here collect exactly
those statistics with bounded memory, no matter how many operations a run
executes.  (Fig. 16's time-averaged number of waiting writers is the write
queue's own: :meth:`repro.lsm.pipelined_write.WriteQueue.mean_waiting`.)
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import repeat
from operator import add, rshift
from types import ModuleType
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.units import SEC

#: The smallest batch a bulk path hands to numpy.  Below it numpy's fixed
#: cost per call is more than the per-element work it saves; measured with
#: numpy loaded (``LatencyHistogram.record_many``, pure against numpy): 22
#: against 61 us at 32 samples, 49 against 48 at 116, 101 against 50 at
#: 256, 208 against 58 at 512.
BULK_MIN = 512

# numpy is an optional accelerator (pyproject extra ``[perf]``): every bulk
# path has a pure-python fallback producing bit-identical state.  Set
# REPRO_NO_NUMPY=1 to force the fallback (CI proves it passes the suite).
_NO_NUMPY = bool(os.environ.get("REPRO_NO_NUMPY"))
_numpy: Optional[ModuleType] = None


def bulk_numpy(n: int) -> Optional[ModuleType]:
    """numpy for a batch of ``n`` elements, or None: take the pure path.

    None below :data:`BULK_MIN`, under ``REPRO_NO_NUMPY=1`` and without
    numpy.  numpy is imported by the first batch that takes it, not at
    module load: a run that never builds one (every DST seed) never pays
    its import (about 0.06 s and 13 MB).  A bulk path binds the result once
    per call (``np = bulk_numpy(len(batch))``) and uses that name.  This is
    the one place ``repro`` imports numpy (a tier-1 AST check).
    """
    global _numpy, _NO_NUMPY
    if n < BULK_MIN or _NO_NUMPY:
        return None
    if _numpy is None:
        try:
            import numpy
        except ImportError:  # pragma: no cover - the image ships numpy
            _NO_NUMPY = True
            return None
        _numpy = numpy
    return _numpy

# np.frexp exponents equal int.bit_length() only while the float64 mantissa
# is exact; a batch with larger samples takes the pure path.
_FLOAT_EXACT = 1 << 53

_SUBBUCKETS = 32  # per power of two; worst-case relative error ~3%

# Samples a histogram buffers before it folds them into its buckets.
_FOLD_AT = 4096


class LatencyHistogram:
    """HDR-style logarithmic histogram of non-negative integer samples.

    Buckets grow exponentially with :data:`_SUBBUCKETS` linear sub-buckets
    per octave, giving a bounded relative error at any magnitude while using
    O(log(max)) memory.  Percentile queries interpolate inside the bucket.

    :meth:`record` only checks a sample and appends it to a buffer; the
    buffer is folded into the buckets by :meth:`record_many` every
    :data:`_FOLD_AT` samples and whenever a reader looks (``count``,
    ``total``, ``min``, ``max``, :meth:`percentile`, :meth:`merge`,
    :meth:`summary`).  Bucket state is a sum of exact integers, so when the
    fold happens changes nothing a reader can see.
    """

    __slots__ = (
        "name", "_buckets", "_count", "_total", "_min", "_max", "_sorted",
        "_pending", "_room",
    )

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._buckets: Dict[int, int] = {}
        self._count = 0
        self._total = 0
        self._min: Optional[int] = None
        self._max: Optional[int] = None
        # Sorted bucket-index cache for percentile(); invalidated whenever a
        # *new* bucket appears (a sample into an existing bucket keeps it).
        self._sorted: Optional[List[int]] = None
        self._pending = array("q")  # recorded, not yet folded
        self._room = _FOLD_AT  # appends left before the buffer folds

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
        if n != 1:
            self._add(value, n)
            return
        self._pending.append(value)
        self._room -= 1
        if not self._room:
            self._fold()

    def _fold(self) -> None:
        """Fold the buffered samples into the buckets."""
        pending = self._pending
        if pending:
            self._pending = array("q")
            self._room = _FOLD_AT
            self.record_many(pending)

    def _add(self, value: int, n: int) -> None:
        """The scalar bucket update: ``n`` samples of a checked ``value``."""
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
        self._count += n
        self._total += value * n
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def record_many(self, values: Sequence[int]) -> None:
        """Record a batch of samples, bit-identical to a ``record`` loop.

        The bucket indices are computed for the whole batch at once: by
        numpy for a batch that takes it (:func:`bulk_numpy`: at least
        :data:`BULK_MIN` samples; ``frexp`` exponents equal
        ``int.bit_length()`` for exact float64 values), else from the sorted
        batch one octave at a time (every sample of an octave shifts alike),
        so neither path runs Python lines per sample.  Samples at/above
        2**53 (where float exponents stop being trustworthy) take the sorted
        path; a batch with a negative sample raises exactly as the
        ``record`` loop would, prefix included.  The percentile cache is
        invalidated at most once per batch.
        """
        n = len(values)
        if n == 0:
            return
        np = bulk_numpy(n)
        if np is not None:
            arr = np.asarray(values, dtype=np.int64)
            lo = int(arr.min())
            hi = int(arr.max())
            if hi >= _FLOAT_EXACT or hi * n >= (1 << 62):
                np = None
        if np is None:
            ordered = sorted(values)
            lo = ordered[0]
            hi = ordered[-1]
        if lo < 0:  # the scalar update up to the first negative, which raises
            scalar = self._add
            for value in values:
                if value < 0:
                    raise SimulationError(f"negative sample: {value}")
                scalar(value, 1)
        if np is not None:
            # bit_length via frexp: value in [2**(e-1), 2**e) => exp e.
            shift = np.frexp(arr)[1].astype(np.int64) - 6
            np.clip(shift, 0, None, out=shift)
            uniq, counts = np.unique(shift * _SUBBUCKETS + (arr >> shift), return_counts=True)
            per_bucket = zip(uniq.tolist(), counts.tolist())
            total = int(arr.sum())
        else:
            # _add's index is shift * _SUBBUCKETS + (value >> shift), with
            # shift = bit_length - 6 (at least 0): a sample below 64 is its
            # own index, and one octave's samples share one shift.
            start = bisect_left(ordered, 2 * _SUBBUCKETS)
            counter = Counter(ordered[:start])
            while start < n:
                octave = ordered[start].bit_length()
                end = bisect_left(ordered, 1 << octave, start)
                shift = octave - 6
                counter.update(map(
                    add, repeat(shift * _SUBBUCKETS),
                    map(rshift, ordered[start:end], repeat(shift)),
                ))
                start = end
            per_bucket = counter.items()
            total = sum(ordered)
        buckets = self._buckets
        dirty = False
        for i, c in per_bucket:
            if i in buckets:
                buckets[i] += c
            else:
                buckets[i] = c
                dirty = True
        if dirty:
            self._sorted = None
        self._count += n
        self._total += total
        if self._min is None or lo < self._min:
            self._min = lo
        if self._max is None or hi > self._max:
            self._max = hi

    def reset(self) -> None:
        """Discard all samples in place; held references stay valid."""
        self._buckets.clear()
        self._count = 0
        self._total = 0
        self._min = None
        self._max = None
        self._sorted = None
        self._pending = array("q")
        self._room = _FOLD_AT

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def total(self) -> int:
        self._fold()
        return self._total

    @property
    def min(self) -> Optional[int]:
        self._fold()
        return self._min

    @property
    def max(self) -> Optional[int]:
        self._fold()
        return self._max

    @property
    def mean(self) -> float:
        count = self.count
        return self._total / count if count else 0.0

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` in [0, 100] (linear interpolation)."""
        if not 0.0 <= p <= 100.0:
            raise SimulationError(f"percentile out of range: {p}")
        count = self.count
        if count == 0:
            return 0.0
        target = p / 100.0 * count
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
                if self._max is not None:
                    value = min(value, float(self._max))
                if self._min is not None:
                    value = max(value, float(self._min))
                return value
            seen += n
        return float(self._max if self._max is not None else 0)

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one."""
        self._fold()
        other._fold()
        buckets = self._buckets
        for idx, n in other._buckets.items():
            if idx in buckets:
                buckets[idx] += n
            else:
                buckets[idx] = n
                self._sorted = None
        self._count += other._count
        self._total += other._total
        if other._min is not None and (self._min is None or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None or other._max > self._max):
            self._max = other._max

    def summary(self) -> Dict[str, float]:
        """Count/mean/median/p90/p99/max in one dict (times in ns)."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
            "max": float(self._max or 0),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LatencyHistogram {self.name} n={self.count} mean={self.mean:.0f}ns>"


class TimeSeries:
    """Per-bucket event counter over virtual time (throughput timelines)."""

    __slots__ = ("bucket_ns", "_buckets", "count")

    def __init__(self, bucket_ns: int = SEC) -> None:
        if bucket_ns <= 0:
            raise SimulationError(f"bucket width must be positive: {bucket_ns}")
        self.bucket_ns = bucket_ns
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
        np = bulk_numpy(n)
        if np is not None:
            arr = np.asarray(times, dtype=np.int64)
            idx = arr // self.bucket_ns
            buckets = self._buckets
            if counts is None:
                uniq, cnt = np.unique(idx, return_counts=True)
                self.count += n
            else:
                weights = np.asarray(counts, dtype=np.int64)
                order = np.argsort(idx, kind="stable")
                sorted_idx = idx[order]
                sorted_w = weights[order]
                starts = np.concatenate(
                    ([0], np.flatnonzero(sorted_idx[1:] != sorted_idx[:-1]) + 1)
                )
                uniq = sorted_idx[starts]
                cnt = np.add.reduceat(sorted_w, starts)
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


class _Counts(dict):
    """Ticker dict: a missing name reads as 0 (and is not inserted by the
    read), so ``d[name] += n`` counts a name the first time too."""

    __slots__ = ()

    def __missing__(self, name: str) -> int:
        return 0


class StatsSet:
    """A named bag of counters and histograms (RocksDB 'Statistics' analog)."""

    __slots__ = ("_tickers", "_histograms")

    def __init__(self) -> None:
        self._tickers: Dict[str, int] = _Counts()
        self._histograms: Dict[str, LatencyHistogram] = {}

    def inc(self, name: str, n: int = 1) -> None:
        self._tickers[name] += n

    def get(self, name: str) -> int:
        return self._tickers.get(name, 0)

    def counters(self) -> Dict[str, int]:
        """The ticker dict itself, not a copy, for a hot path that counts
        without a call: ``d[name] += n`` is :meth:`inc` inline."""
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
