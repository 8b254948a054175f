"""Scaling presets.

A Python discrete-event simulation cannot execute the paper's full runs
(100 GB dataset, 300 s, tens of millions of operations) in reasonable host
time, so experiments run at a reduced scale that preserves every ratio the
phenomena depend on:

* page cache : dataset ratio stays at the paper's 8 %;
* memtable size : L1 size : level multiplier keep RocksDB's 1 : 4 : 10 shape;
* L0 trigger/slowdown/stop thresholds are unchanged (4 / 20 / 36);
* run lengths are chosen per experiment so several flush+compaction cycles
  (and for the throttling timelines, several stall episodes) complete.

``tiny`` is for unit/integration tests, ``small`` for the benchmark suite,
``paper`` documents the full-scale parameters for reference (runnable, but
hours of host time).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.errors import WorkloadError
from repro.lsm.options import Options
from repro.sim.units import mb, gb, seconds
from repro.workloads.prefill import PrefillSpec


@dataclass(frozen=True)
class ScalePreset:
    """A coherent set of scaled experiment parameters."""

    name: str
    key_count: int
    value_size: int
    duration_ns: int
    processes: int
    write_buffer_size: int
    max_bytes_for_level_base: int
    target_file_size_base: int
    page_cache_bytes: int
    block_cache_bytes: int

    def options(self, **overrides) -> Options:
        """Options matching this preset (RocksDB defaults otherwise)."""
        base = dict(
            write_buffer_size=self.write_buffer_size,
            max_bytes_for_level_base=self.max_bytes_for_level_base,
            target_file_size_base=self.target_file_size_base,
            block_cache_bytes=self.block_cache_bytes,
            memtable_rep="hash",  # host-fast; simulated costs are identical
            name=self.name,
        )
        base.update(overrides)
        return Options(**base)

    def prefill_spec(self) -> PrefillSpec:
        return PrefillSpec(key_count=self.key_count, value_size=self.value_size)

    @property
    def dataset_bytes(self) -> int:
        return self.prefill_spec().total_bytes


TINY = ScalePreset(
    name="tiny",
    key_count=60_000,
    value_size=256,
    duration_ns=seconds(1.0),
    processes=2,
    write_buffer_size=mb(1),
    max_bytes_for_level_base=mb(4),
    target_file_size_base=mb(1),
    page_cache_bytes=mb(2),  # ~8% of ~17 MB dataset, rounded
    block_cache_bytes=mb(0.25),
)

SMALL = ScalePreset(
    name="small",
    key_count=1_000_000,
    value_size=1024,  # the paper's 1 KB values
    duration_ns=seconds(6.0),
    processes=4,
    write_buffer_size=mb(2),
    max_bytes_for_level_base=mb(8),
    target_file_size_base=mb(2),
    page_cache_bytes=mb(84),  # 8% of ~1 GB dataset
    block_cache_bytes=mb(8),
)

PAPER = ScalePreset(
    name="paper",
    key_count=100_000_000,
    value_size=1024,
    duration_ns=seconds(300.0),
    processes=4,
    write_buffer_size=mb(64),
    max_bytes_for_level_base=mb(256),
    target_file_size_base=mb(64),
    page_cache_bytes=gb(8),
    block_cache_bytes=mb(8),
)

PRESETS = {"tiny": TINY, "small": SMALL, "paper": PAPER}


def preset_by_name(name: str) -> ScalePreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None


def bench_preset() -> ScalePreset:
    """Preset used by the benchmark suite (override via REPRO_PRESET)."""
    return preset_by_name(os.environ.get("REPRO_PRESET", "small"))


def trace_path() -> Optional[str]:
    """Default trace output path (the ``REPRO_TRACE`` env var), or None.

    The CLI's ``--trace`` flag overrides this; the env var exists so the
    benchmark suite and ad-hoc scripts can be traced without plumbing a
    flag through (``REPRO_TRACE=out.json python -m repro.harness fig05``).
    """
    return os.environ.get("REPRO_TRACE") or None
