"""Key/value/operation generators (the db_bench workload vocabulary).

Keys follow db_bench's convention: fixed-width 16-byte decimal strings, so
byte ordering equals numeric ordering.  Values are
:class:`~repro.lsm.value.ValueRef` descriptors sized per the workload spec
(1 KB in the paper, following the YCSB-style characterization it cites).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import WorkloadError
from repro.lsm.value import ValueRef
from repro.sim.rng import RandomStream

KEY_WIDTH = 16


def encode_key(index: int) -> bytes:
    """db_bench-style fixed-width key (byte order == numeric order)."""
    if index < 0:
        raise WorkloadError(f"key index must be >= 0: {index}")
    return b"%016d" % index


@dataclass(frozen=True)
class KeySpace:
    """A contiguous logical key space of ``count`` keys."""

    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise WorkloadError(f"key space must be non-empty: {self.count}")

    def random_key(self, rng: RandomStream) -> bytes:
        return encode_key(rng.randint(0, self.count - 1))

    def key_at(self, index: int) -> bytes:
        if not 0 <= index < self.count:
            raise WorkloadError(f"key index {index} out of [0, {self.count})")
        return encode_key(index)

    def span(self) -> Tuple[bytes, bytes]:
        return encode_key(0), encode_key(self.count - 1)


VERSION_BITS = 20  # a benchmark value's seed is (key index << VERSION_BITS) | version


def benchmark_value(key_index: int, size: int, version: int = 0) -> ValueRef:
    """The benchmark value of one key: ``seed >> 20`` is the key's index."""
    return ValueRef((key_index << VERSION_BITS) | (version & 0xFFFFF), size)


@dataclass(frozen=True)
class ValueSpec:
    """How workload values are produced."""

    size: int = 1024  # the paper's 1 KB values

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise WorkloadError(f"value size must be positive: {self.size}")

    def value_for(self, key_index: int, version: int = 0) -> ValueRef:
        return benchmark_value(key_index, self.size, version)


@dataclass(frozen=True)
class BurstSchedule:
    """Time-varying write fraction (case study A's periodic write bursts).

    The paper's Figure 18 workload: a 1:1 baseline with a write burst
    (R/W 1:9) lasting ``burst_ns`` out of every ``period_ns``.  A value:
    schedules with equal fields are equal.
    """

    base_write_fraction: float
    burst_write_fraction: float
    period_ns: int
    burst_ns: int

    def __post_init__(self) -> None:
        if self.period_ns <= 0 or not 0 < self.burst_ns <= self.period_ns:
            raise WorkloadError(
                f"invalid burst schedule: period={self.period_ns}, burst={self.burst_ns}"
            )
        for frac in (self.base_write_fraction, self.burst_write_fraction):
            if not 0.0 <= frac <= 1.0:
                raise WorkloadError(f"write fraction out of [0,1]: {frac}")

    def write_fraction_at(self, now: int) -> float:
        phase = now % self.period_ns
        if phase < self.burst_ns:
            return self.burst_write_fraction
        return self.base_write_fraction
