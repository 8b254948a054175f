"""db_bench analog: closed-loop key-value benchmark clients.

Each simulated "process" (the paper's term; db_bench threads) runs a closed
loop of randomreadrandomwrite operations against one DB, mixing reads and
writes per the configured insertion ratio (optionally time-varying for the
burst workloads of case study A).  Latency histograms, a per-second
throughput timeline and queue statistics are collected — everything the
paper's figures plot.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.lsm.db import DB
from repro.lsm.format import KIND_PUT
from repro.sim.engine import Engine
from repro.sim.rng import RandomStream
from repro.sim.stats import LatencyHistogram, TimeSeries
from repro.sim.units import SEC, seconds
from repro.workloads.generators import BurstSchedule, KeySpace, ValueSpec, benchmark_value


@dataclass(frozen=True)
class DbBenchConfig:
    """Parameters of one benchmark run (paper defaults)."""

    processes: int = 4
    duration_ns: int = seconds(10)
    write_fraction: float = 0.5  # the paper's insertion ratio
    value_size: int = 1024
    key_count: int = 1_000_000
    seed: int = 1
    warmup_ns: int = 0
    schedule: Optional[BurstSchedule] = None
    timeline_bucket_ns: int = SEC

    def __post_init__(self) -> None:
        if self.processes < 1:
            raise WorkloadError(f"processes must be >= 1: {self.processes}")
        if self.duration_ns <= 0:
            raise WorkloadError(f"duration must be positive: {self.duration_ns}")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise WorkloadError(f"write_fraction out of [0,1]: {self.write_fraction}")
        if not 0 <= self.warmup_ns < self.duration_ns:
            raise WorkloadError("warmup must fall inside the run")


@dataclass
class BenchResult:
    """Everything a figure needs from one run."""

    config: DbBenchConfig
    ops: int = 0
    reads: int = 0
    writes: int = 0
    measured_ns: int = 0
    read_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    write_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    timeline: TimeSeries = field(default_factory=TimeSeries)
    mean_waiting_writers: float = 0.0
    db_tickers: Dict[str, int] = field(default_factory=dict)
    l0_file_counts: List[Tuple[int, int]] = field(
        default_factory=list
    )  # sampled (t, count)

    @property
    def kops(self) -> float:
        """Measured throughput in thousands of operations per second."""
        if self.measured_ns <= 0:
            return 0.0
        return self.ops * SEC / self.measured_ns / 1e3

    @property
    def l0_max(self) -> int:
        """Peak sampled Level-0 file count over the run."""
        return max((count for _t, count in self.l0_file_counts), default=0)

    def summary(self) -> Dict[str, float]:
        return {
            "kops": round(self.kops, 1),
            "read_p50_us": round(self.read_latency.percentile(50) / 1e3, 1),
            "read_p90_us": round(self.read_latency.percentile(90) / 1e3, 1),
            "read_p99_us": round(self.read_latency.percentile(99) / 1e3, 1),
            "write_p50_us": round(self.write_latency.percentile(50) / 1e3, 1),
            "write_p90_us": round(self.write_latency.percentile(90) / 1e3, 1),
            "write_p99_us": round(self.write_latency.percentile(99) / 1e3, 1),
            "mean_waiting": round(self.mean_waiting_writers, 2),
            "l0_max": float(self.l0_max),
        }


class DbBench:
    """Runs one configured workload against one DB."""

    def __init__(self, config: DbBenchConfig) -> None:
        self.config = config

    def run(self, db: DB) -> BenchResult:
        """Execute the workload; returns the collected measurements.

        The engine is run up to the configured duration; background work
        keeps competing with the clients exactly as in the real system.
        """
        cfg = self.config
        engine: Engine = db.engine
        start = engine.now
        end = start + cfg.duration_ns
        measure_from = start + cfg.warmup_ns
        result = BenchResult(config=cfg)
        result.timeline = TimeSeries(bucket_ns=cfg.timeline_bucket_ns)
        keyspace = KeySpace(cfg.key_count)
        values = ValueSpec(cfg.value_size)

        # array('q') buffers: 8 B per sample, and nothing for the collector to walk.
        buffers: List[Tuple[array, array, array]] = []
        for pid in range(cfg.processes):
            rng = RandomStream(cfg.seed, f"db_bench/client{pid}")
            buf = (array("q"), array("q"), array("q"))
            buffers.append(buf)
            engine.process(
                self._client(
                    engine, db, rng, keyspace, values, end, measure_from,
                    result, buf,
                ),
                name=f"db_bench-{pid}",
            )
        engine.process(
            self._sampler(engine, db, end, result), name="db_bench-sampler"
        )
        engine.run(until=end)

        # Bulk-flush the clients' buffered samples.  Histogram and timeline
        # state is order-independent (integer adds), so one flush per client
        # equals recording each sample as its op finished (per client, not
        # one shared list: the numpy temporaries of a single big flush cost
        # ~0.6 % peak RSS on the ledger's 4-client workload).
        for w_lat, r_lat, fin in buffers:
            result.write_latency.record_many(w_lat)
            result.read_latency.record_many(r_lat)
            result.timeline.record_many(fin)

        result.measured_ns = end - measure_from
        result.mean_waiting_writers = db.mean_waiting_writers()
        result.db_tickers = db.stats.tickers()
        return result

    def _client(
        self,
        engine: Engine,
        db: DB,
        rng: RandomStream,
        keyspace: KeySpace,
        values: ValueSpec,
        end: int,
        measure_from: int,
        result: BenchResult,
        buf: Tuple[array, array, array],
    ):
        """One closed-loop client: per op, the read/write draw, then the key.

        Latencies and timeline stamps accumulate in ``buf`` for one
        ``record_many`` per run.
        """
        overhead = db.costs.client_op_overhead_ns
        schedule = self.config.schedule
        write_fraction = self.config.write_fraction
        chance = rng.chance
        count = keyspace.count
        # rng.randint(0, count - 1) normalizes its arguments through two
        # call layers before landing in Random._randbelow(count); drawing
        # through _randbelow directly consumes the identical underlying
        # stream (randrange's width path) at a fraction of the call cost.
        randbelow = getattr(rng._rng, "_randbelow", None)
        if randbelow is None:  # non-CPython Random: keep the public API
            randint = rng.randint
            def randbelow(n):
                return randint(0, n - 1)
        key_at = keyspace.key_at
        value_size = values.size
        write_ops = db._write_ops
        get = db.get
        version_counter = 1
        w_lat, r_lat, fin = buf
        while engine.now < end:
            if overhead:
                yield overhead
            if schedule is not None:
                write_fraction = schedule.write_fraction_at(engine.now)
            write = chance(write_fraction)
            key_index = randbelow(count)
            key = key_at(key_index)
            began = engine.now
            if write:
                version_counter += 1
                value = benchmark_value(key_index, value_size, version_counter)
                # db.put() minus its wrapper: the op tuple and the data-bytes
                # arithmetic are built inline (values are always ValueRefs
                # here).
                yield from write_ops(
                    [(KIND_PUT, key, value)], len(key) + value.size
                )
            else:
                yield from get(key)
            if began >= measure_from:
                finished = engine.now
                result.ops += 1
                fin.append(finished)
                if write:
                    result.writes += 1
                    w_lat.append(finished - began)
                else:
                    result.reads += 1
                    r_lat.append(finished - began)

    def _sampler(self, engine: Engine, db: DB, end: int, result: BenchResult):
        """Sample the Level-0 file count once per timeline bucket."""
        bucket = self.config.timeline_bucket_ns
        while engine.now < end:
            result.l0_file_counts.append(
                (engine.now, db.versions.current.num_files(0))
            )
            yield bucket
