"""Tests for the db_bench-equivalent workload runner."""

import pytest

from repro.errors import WorkloadError
from repro.sim.units import SEC, seconds
from repro.storage.profiles import xpoint_ssd
from repro.workloads.db_bench import BenchResult, DbBench, DbBenchConfig
from repro.workloads.generators import BurstSchedule
from repro.workloads.prefill import PrefillSpec, prefill
from tests.conftest import make_db, tiny_options


def bench_db(engine, **opts):
    db = make_db(engine, profile=xpoint_ssd(), options=tiny_options(**opts))
    prefill(db, PrefillSpec(key_count=5000, value_size=64))
    return db


def fast_config(**overrides):
    base = dict(
        processes=2,
        duration_ns=seconds(0.2),
        write_fraction=0.5,
        value_size=64,
        key_count=5000,
        seed=5,
    )
    base.update(overrides)
    return DbBenchConfig(**base)


def test_config_validation():
    with pytest.raises(WorkloadError):
        DbBenchConfig(processes=0)
    with pytest.raises(WorkloadError):
        DbBenchConfig(duration_ns=0)
    with pytest.raises(WorkloadError):
        DbBenchConfig(write_fraction=2.0)
    for warmup_ns in (200, 100, -1):  # past the end, at the end, negative
        with pytest.raises(WorkloadError):
            DbBenchConfig(duration_ns=100, warmup_ns=warmup_ns)
    assert DbBenchConfig(duration_ns=100, warmup_ns=99).warmup_ns == 99


def test_run_produces_counts_and_latencies(engine):
    db = bench_db(engine)
    result = DbBench(fast_config()).run(db)
    assert result.ops == result.reads + result.writes > 0
    assert result.read_latency.count == result.reads
    assert result.write_latency.count == result.writes
    assert result.kops > 0
    assert result.measured_ns == fast_config().duration_ns


def test_write_fraction_respected(engine):
    db = bench_db(engine)
    result = DbBench(fast_config(write_fraction=0.2)).run(db)
    assert result.writes / result.ops == pytest.approx(0.2, abs=0.06)


def test_pure_read_and_pure_write(engine):
    db = bench_db(engine)
    r = DbBench(fast_config(write_fraction=0.0)).run(db)
    assert r.writes == 0 and r.reads > 0
    w = DbBench(fast_config(write_fraction=1.0, duration_ns=seconds(0.1))).run(db)
    assert w.reads == 0 and w.writes > 0


def test_warmup_excluded_from_measurement(engine):
    db = bench_db(engine)
    cfg = fast_config(duration_ns=seconds(0.2), warmup_ns=seconds(0.1))
    result = DbBench(cfg).run(db)
    assert result.measured_ns == seconds(0.1)
    # All recorded samples began after the warmup boundary.
    assert result.ops > 0


def test_timeline_buckets_cover_run(engine):
    db = bench_db(engine)
    cfg = fast_config(timeline_bucket_ns=SEC // 20)
    result = DbBench(cfg).run(db)
    series = result.timeline.series(0, cfg.duration_ns)
    assert len(series) == 4  # 0.2 s / 50 ms
    assert sum(rate for _, rate in series) > 0


def test_l0_sampler_records(engine):
    db = bench_db(engine)
    cfg = fast_config(timeline_bucket_ns=SEC // 20)
    result = DbBench(cfg).run(db)
    assert len(result.l0_file_counts) >= 3


def test_burst_schedule_shifts_mix(engine):
    db = bench_db(engine)
    schedule = BurstSchedule(0.0, 1.0, period_ns=seconds(0.2), burst_ns=seconds(0.1))
    result = DbBench(fast_config(schedule=schedule)).run(db)
    assert result.writes > 0 and result.reads > 0


def test_deterministic_given_seed():
    from repro.sim.engine import Engine

    def run():
        engine = Engine()
        db = bench_db(engine)
        return DbBench(fast_config()).run(db)

    a, b = run(), run()
    assert a.ops == b.ops
    assert a.read_latency.total == b.read_latency.total
    assert a.write_latency.total == b.write_latency.total


def test_summary_keys(engine):
    db = bench_db(engine)
    summary = DbBench(fast_config()).run(db).summary()
    assert {"kops", "read_p90_us", "write_p90_us", "mean_waiting"} <= set(summary)


def test_db_tickers_snapshot(engine):
    db = bench_db(engine)
    result = DbBench(fast_config()).run(db)
    assert result.db_tickers.get("gets", 0) + result.db_tickers.get("puts", 0) > 0
