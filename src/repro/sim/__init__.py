"""Discrete-event simulation kernel used by every subsystem in this repo.

Public surface:

- :class:`~repro.sim.engine.Engine` — event loop + virtual clock (ns).
- :class:`~repro.sim.engine.Process`, :class:`~repro.sim.engine.Event`,
  :class:`~repro.sim.engine.Timeout`, :class:`~repro.sim.engine.AllOf`,
  :class:`~repro.sim.engine.AnyOf` — process/event model.
- :mod:`~repro.sim.resources` — FIFO ``Lock``/``Semaphore``/``Store``.
- :mod:`~repro.sim.rng` — named deterministic random streams.
- :mod:`~repro.sim.stats` — latency histograms, timelines, counters.
- :mod:`~repro.sim.units` — ns/us/ms/s and KB/MB/GB helpers.
"""

from repro.sim.engine import AllOf, AnyOf, Engine, Event, Process, Timeout
from repro.sim.resources import Lock, Semaphore, Store
from repro.sim.rng import RandomStream
from repro.sim.stats import LatencyHistogram, StatsSet, TimeSeries
from repro.sim.units import (
    GB,
    KB,
    MB,
    MS,
    NS,
    SEC,
    US,
    fmt_bytes,
    fmt_time,
    gb,
    kb,
    mb,
    ms,
    seconds,
    us,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "GB",
    "KB",
    "LatencyHistogram",
    "Lock",
    "MB",
    "MS",
    "NS",
    "Process",
    "RandomStream",
    "SEC",
    "Semaphore",
    "StatsSet",
    "Store",
    "TimeSeries",
    "Timeout",
    "US",
    "fmt_bytes",
    "fmt_time",
    "gb",
    "kb",
    "mb",
    "ms",
    "seconds",
    "us",
]
