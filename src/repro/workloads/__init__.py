"""Workload generation: db_bench analog, YCSB suite, generators, prefill."""

from repro.workloads.db_bench import BenchResult, DbBench, DbBenchConfig
from repro.workloads.generators import (
    KEY_WIDTH,
    BurstSchedule,
    KeySpace,
    ValueSpec,
    encode_key,
)
from repro.workloads.prefill import PrefillSpec, prefill
from repro.workloads.ycsb import (
    CORE_WORKLOADS,
    MATRIX_WORKLOADS,
    LatestGenerator,
    YcsbResult,
    YcsbRunner,
    YcsbSpec,
    ZipfianGenerator,
)

__all__ = [
    "BenchResult",
    "CORE_WORKLOADS",
    "MATRIX_WORKLOADS",
    "LatestGenerator",
    "YcsbResult",
    "YcsbRunner",
    "YcsbSpec",
    "ZipfianGenerator",
    "BurstSchedule",
    "DbBench",
    "DbBenchConfig",
    "KEY_WIDTH",
    "KeySpace",
    "PrefillSpec",
    "ValueSpec",
    "encode_key",
    "prefill",
]
