"""Differential test: ``DbBench`` against a naive reference client.

``DbBench._client`` keeps a few host-speed shortcuts (a direct
``_write_ops`` call, ``_randbelow`` key draws, latencies buffered for one
``record_many``).  The reference below is the same closed loop written the
obvious way — public API only, one ``record`` per op — and an md5 over
everything observable (summary, op counts, DB tickers, raw histogram and
timeline buckets, L0 samples) must agree, so any drift in the op stream, the
RNG draw order or the stats recording fails loudly.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.harness.experiments import DEVICES
from repro.harness.machine import Machine
from repro.harness.presets import preset_by_name
from repro.sim.rng import RandomStream
from repro.sim.stats import TimeSeries
from repro.sim.units import ms
from repro.workloads.db_bench import BenchResult, DbBench, DbBenchConfig
from repro.workloads.generators import BurstSchedule, ValueSpec, encode_key
from repro.workloads.prefill import prefill


def _reference_run(db, cfg: DbBenchConfig) -> BenchResult:
    engine = db.engine
    end = engine.now + cfg.duration_ns
    measure_from = engine.now + cfg.warmup_ns
    result = BenchResult(config=cfg)
    result.timeline = TimeSeries(bucket_ns=cfg.timeline_bucket_ns)
    values = ValueSpec(cfg.value_size)

    def client(rng):
        version = 1
        while engine.now < end:
            yield db.costs.client_op_overhead_ns
            fraction = cfg.write_fraction
            if cfg.schedule is not None:
                fraction = cfg.schedule.write_fraction_at(engine.now)
            write = rng.chance(fraction)
            index = rng.randint(0, cfg.key_count - 1)
            began = engine.now
            if write:
                version += 1
                yield from db.put(encode_key(index), values.value_for(index, version))
            else:
                yield from db.get(encode_key(index))
            if began < measure_from:
                continue
            result.ops += 1
            result.timeline.record(engine.now)
            if write:
                result.writes += 1
                result.write_latency.record(engine.now - began)
            else:
                result.reads += 1
                result.read_latency.record(engine.now - began)

    def sampler():
        while engine.now < end:
            result.l0_file_counts.append(
                (engine.now, db.versions.current.num_files(0))
            )
            yield cfg.timeline_bucket_ns

    for pid in range(cfg.processes):
        engine.process(client(RandomStream(cfg.seed, f"db_bench/client{pid}")))
    engine.process(sampler())
    engine.run(until=end)
    result.measured_ns = end - measure_from
    result.mean_waiting_writers = db.mean_waiting_writers()
    result.db_tickers = db.stats.tickers()
    return result


def _digest(result: BenchResult) -> str:
    for hist in (result.read_latency, result.write_latency):
        hist.count  # folds the buffered samples into _buckets
    payload = {
        "summary": result.summary(),
        "ops": [result.ops, result.reads, result.writes],
        "tickers": result.db_tickers,
        "timeline": sorted(result.timeline._buckets.items()),
        "l0": result.l0_file_counts,
        "rlat": sorted(result.read_latency._buckets.items()),
        "wlat": sorted(result.write_latency._buckets.items()),
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.md5(blob.encode()).hexdigest()


# The burst run crosses saturated (1.0: no chance draw) and mixed phases and
# has a warm-up, so draw counts and the measurement boundary are covered too.
_BURST = dict(
    schedule=BurstSchedule(0.5, 1.0, period_ns=ms(40), burst_ns=ms(10)),
    warmup_ns=ms(15),
)


@pytest.mark.parametrize(
    "write_fraction,processes,extra",
    [(1.0, 1, {}), (0.0, 1, {}), (0.5, 1, {}), (0.5, 2, {}), (0.5, 1, _BURST)],
    ids=["fill-solo", "read-solo", "mixed-solo", "mixed-2proc", "burst-solo"],
)
def test_db_bench_equals_reference_client(write_fraction, processes, extra):
    preset = preset_by_name("tiny")
    cfg = DbBenchConfig(
        processes=processes,
        duration_ns=ms(100),
        write_fraction=write_fraction,
        value_size=preset.value_size,
        key_count=preset.key_count,
        seed=11,
        timeline_bucket_ns=ms(10),
        **extra,
    )
    digests = []
    for run in (DbBench(cfg).run, lambda db: _reference_run(db, cfg)):
        machine = Machine.create(
            DEVICES["pcie-flash"](), preset.page_cache_bytes, seed=11
        )
        db = machine.open_db(preset.options())
        prefill(db, preset.prefill_spec())
        result = run(db)
        assert result.ops > 0
        digests.append(_digest(result))
    assert digests[0] == digests[1]
