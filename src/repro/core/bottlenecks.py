"""Bottleneck analyzers: the measurements behind the paper's findings.

These helpers turn raw run artifacts (timelines, DB tickers, device
counters) into the quantities the paper reports: near-stop periods
(Finding #1 / Figure 18), throughput variation (Figures 4–5) and read
amplification (Finding #2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

#: The paper calls a system under 10 kop/s "near-stop" (Section V-A).
NEAR_STOP_OPS = 10_000.0


@dataclass(frozen=True)
class NearStopPeriod:
    """A contiguous stretch of near-zero throughput."""

    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def near_stop_periods(series: Sequence[Tuple[float, float]]) -> List[NearStopPeriod]:
    """Find periods where throughput drops under ``NEAR_STOP_OPS`` op/s.

    ``series`` is a list of (bucket_start_seconds, ops_per_second) as
    produced by :meth:`repro.sim.stats.TimeSeries.series`.
    """
    periods: List[NearStopPeriod] = []
    start = None
    prev_t = None
    for t, rate in series:
        if rate < NEAR_STOP_OPS:
            if start is None:
                start = t
        else:
            if start is not None:
                periods.append(NearStopPeriod(start, t))
                start = None
        prev_t = t
    if start is not None and prev_t is not None:
        periods.append(NearStopPeriod(start, prev_t + 1.0))
    return periods


def near_stop_fraction(series: Sequence[Tuple[float, float]]) -> float:
    """Fraction of buckets spent in near-stop state."""
    if not series:
        return 0.0
    low = sum(1 for _, rate in series if rate < NEAR_STOP_OPS)
    return low / len(series)


def throughput_variation(series: Sequence[Tuple[float, float]]) -> Dict[str, float]:
    """Min/max/mean/coefficient-of-variation of a throughput timeline."""
    rates = [rate for _, rate in series]
    if not rates:
        return {"min": 0.0, "max": 0.0, "mean": 0.0, "cov": 0.0}
    mean = sum(rates) / len(rates)
    if mean == 0:
        return {"min": min(rates), "max": max(rates), "mean": 0.0, "cov": 0.0}
    var = sum((r - mean) ** 2 for r in rates) / len(rates)
    return {
        "min": min(rates),
        "max": max(rates),
        "mean": mean,
        "cov": (var ** 0.5) / mean,
    }


def read_amplification(tickers: Mapping[str, int]) -> float:
    """Device block reads per GET (Finding #2's read amplification), from a
    DB's tickers."""
    gets = tickers.get("gets", 0)
    if gets == 0:
        return 0.0
    return tickers.get("get.block_device_reads", 0) / gets
