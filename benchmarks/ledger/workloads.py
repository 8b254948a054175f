"""One repetition of one ledger workload, measured from outside ``repro``.

Everything here runs in a short-lived child process started by ``run.py``:
build a fresh universe (timed as set-up), run the timed region, read the
boundary counters through public accessors, check the outputs, and hand one
JSON-able dict back.  ``repro`` is imported inside the set-up so its import
cost is part of ``setup_s``.  Host times come back twice: as the clock read
them, and normalised by the :class:`Reference` loop sampled alongside.
"""

from __future__ import annotations

import cProfile
import contextlib
import gc
import hashlib
import json
import random
import resource
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from metrics import CHAOS, DB_BENCH
from profile_fold import fold

# db_bench workloads: the `small` preset on one device; the simulated length
# of a repetition is `sim_s_per_s` x --seconds (2.5 / 2.0 / 1.0 sim-s at the
# nominal 10 s, each ~3-4 s of host time on the 2-core sandbox it was sized on).
SPECS: Dict[str, dict] = {
    "fill_solo": dict(device="pcie-flash", write_fraction=1.0, clients=1, sim_s_per_s=0.25),
    "read_solo": dict(device="xpoint", write_fraction=0.0, clients=1, sim_s_per_s=0.2),
    "mixed90_4p": dict(device="xpoint", write_fraction=0.9, clients=4, sim_s_per_s=0.1),
}
READBACK_KEYS = 1000

# chaos_sweep: 4 x --seconds consecutive harness seeds per leg (40 at the
# nominal 10 s), a window of a vetted pool picked by --seed.  The pool's
# (leg, seed) pairs that do not PASS at the parent commit are harness or system
# bugs the benchmark found; a performance benchmark needs workloads on which no
# operation fails, so they are listed in a file of their own and skipped.
CHAOS_SEEDS_PER_S = 4
_KNOWN = json.loads((Path(__file__).parent / "chaos_known_failures.json").read_text())
CHAOS_POOL: int = _KNOWN["pool"]
CHAOS_SKIP = frozenset((leg, seed) for leg, seed, _verdict in _KNOWN["failing"])

# One sample of the reference loop on this sandbox when nothing else runs.
REF_NOMINAL_S = 0.0090
TIMED_SAMPLES = 16
SETUP_SAMPLES = 4


class Reference:
    """A fixed stdlib-only loop whose speed follows the host, not the repo.

    The sandbox's speed shifts by tens of percent for minutes at a time
    (measured: the same fill_solo repetition took 3.4 s to 7.9 s within one
    hour, and a before/after calibration misses shifts that last seconds).
    Sampling this loop *during* set-up and the timed region gives the factor
    by which the host was slower than nominal while the work ran; host times
    are reported multiplied by ``nominal / measured``.  The loop walks a
    ~60 MB table at random, because the slowdown hits cache-missing code
    harder than a register loop.  It imports nothing from ``repro``, so a
    change to the simulator cannot move it.
    """

    def __init__(self) -> None:
        self._table = [(i, str(i), {"k": i}) for i in range(300_000)]
        self._state = 1

    def sample(self) -> float:
        table, size, j, acc = self._table, len(self._table), self._state, 0
        t0 = time.perf_counter()
        for _ in range(10_000):
            j = (j * 1103515245 + 12345) & 0x7FFFFFFF
            a, b, c = table[j % size]
            acc += a + c["k"] + len(b)
        self._state = j
        return time.perf_counter() - t0

    def samples(self, n: int) -> List[float]:
        return [self.sample() for _ in range(n)]


def _nominal_over(samples: List[float]) -> float:
    """nominal / measured reference time: multiply a host time by it to normalise."""
    return REF_NOMINAL_S * len(samples) / sum(samples)


def _md5(obj) -> str:
    return hashlib.md5(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def _timed(fn: Callable[[], object], profile: bool):
    """Run ``fn``; returns (result, host_s, cpu_s, cProfile stats or None)."""
    profiler = cProfile.Profile() if profile else contextlib.nullcontext()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with profiler:
        result = fn()
    host_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    stats = None
    if profile:
        profiler.create_stats()
        stats = profiler.stats
    return result, host_s, cpu_s, stats


def _host_times(setup_s, setup_refs, host_s, cpu_s, run_refs) -> dict:
    """Raw and reference-normalised host times of one repetition."""
    ref_s = sum(run_refs)
    host_s -= ref_s  # the samples ran inside the timed region: take them out
    cpu_s -= ref_s
    return {
        "raw_setup_s": setup_s, "raw_host_s": host_s, "cpu_s": cpu_s,
        "setup_s": setup_s * _nominal_over(setup_refs),
        "host_s": host_s * _nominal_over(run_refs) if run_refs else host_s,
        "ref_slowdown": 1 / _nominal_over(run_refs) if run_refs else 0.0,
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _iqm(values: List[float]) -> float:
    """Mean of the middle half: robust like a median, smooth like a mean.

    Tenant rows are rounded to 0.1 us and come in two clusters (read-heavy
    and write-heavy tenants), so their plain median jumps between a few values
    and their mean follows the fault schedule's worst rows.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def _us(hist, p: float) -> float:
    return hist.percentile(p) / 1e3


def _db_bench_rep(name: str, seed: int, seconds: float, profile: bool, reference) -> dict:
    spec = SPECS[name]
    setup_refs = reference.samples(SETUP_SAMPLES)
    t0 = time.perf_counter()
    from repro.harness.experiments import DEVICES
    from repro.harness.machine import Machine
    from repro.harness.presets import SMALL
    from repro.sim.stats import LatencyHistogram
    from repro.sim.units import seconds as sim_seconds
    from repro.workloads.db_bench import DbBench, DbBenchConfig
    from repro.workloads.generators import encode_key
    from repro.workloads.prefill import prefill

    machine = Machine.create(DEVICES[spec["device"]](), SMALL.page_cache_bytes, seed=seed)
    db = machine.open_db(SMALL.options())
    prefill(db, SMALL.prefill_spec())
    setup_s = time.perf_counter() - t0
    setup_refs += reference.samples(SETUP_SAMPLES)

    duration_ns = sim_seconds(seconds * spec["sim_s_per_s"])
    cfg = DbBenchConfig(
        processes=spec["clients"],
        duration_ns=duration_ns,
        write_fraction=spec["write_fraction"],
        value_size=SMALL.value_size,
        key_count=SMALL.key_count,
        seed=seed,
        timeline_bucket_ns=max(1, duration_ns // 10),
    )
    run_refs: List[float] = []

    def ticker():  # a simulated process of the benchmark's own: it only looks at the host clock
        for _ in range(TIMED_SAMPLES):
            yield duration_ns // (TIMED_SAMPLES + 1)
            run_refs.append(reference.sample())

    if not profile:  # a profiled repetition is compared raw, and must not profile the reference
        machine.engine.process(ticker(), name="ledger-reference")
    result, host_s, cpu_s, stats = _timed(lambda: DbBench(cfg).run(db), profile)

    def tick(name: str) -> int:
        return result.db_tickers.get(name, 0)

    device = machine.device
    snap = device.snapshot()
    ops, reads, writes = result.ops, result.reads, result.writes
    gets = tick("gets")
    merged = LatencyHistogram()
    merged.merge(result.read_latency)
    merged.merge(result.write_latency)
    user_bytes = writes * (16 + SMALL.value_size)
    counters = {
        "storage.reads_per_op": _ratio(snap["reads"], ops),
        "storage.writes_per_op": _ratio(snap["writes"], ops),
        "storage.read_bytes_per_op": _ratio(snap["bytes_read"], ops),
        "storage.write_bytes_per_op": _ratio(snap["bytes_written"], ops),
        "storage.utilization": device.utilization(duration_ns),
        "storage.gc_pauses": snap["gc_pauses"],
        "fs.page_cache_hit_rate": machine.page_cache.hit_rate(),
        "fs.used_bytes": machine.fs.used_bytes(),
        "lsm.block_cache_hit_rate": db.block_cache.hit_rate(),
        "lsm.l0_probes_per_get": _ratio(tick("get.l0_probes"), gets),
        "lsm.device_reads_per_get": _ratio(tick("get.block_device_reads"), gets),
        "lsm.memtable_hit_frac": _ratio(tick("get.memtable_hit"), gets),
        "lsm.flush_count": tick("flush.count"),
        "lsm.compaction_count": tick("compaction.count"),
        "lsm.write_amp": _ratio(
            tick("flush.bytes") + tick("compaction.bytes_written"), user_bytes
        ),
        "lsm.space_amp": _ratio(machine.fs.used_bytes(), SMALL.dataset_bytes),
        "lsm.stall_stops": tick("stall.stops_hit"),
        "lsm.stall_delays": tick("stall.delays_hit"),
        "lsm.stall_delay_ns_per_write": _ratio(tick("stall.delay_ns"), writes),
        "lsm.mean_waiting_writers": result.mean_waiting_writers,
        "lsm.l0_max": result.l0_max,
        "workloads.read_p50_us": _us(result.read_latency, 50),
        "workloads.read_p99_us": _us(result.read_latency, 99),
        "workloads.write_p50_us": _us(result.write_latency, 50),
        "workloads.write_p99_us": _us(result.write_latency, 99),
        "workloads.op_p999_us": _us(merged, 99.9),
    }
    sim = {
        "sim_kops": _ratio(ops * 1e6, result.measured_ns),
        "sim_op_p50_us": _us(merged, 50),
        "sim_op_p99_us": _us(merged, 99),
    }
    digest = _md5([result.summary(), result.db_tickers, snap])

    # Output check, after the counters are read (it issues gets of its own):
    # every key exists, and a db_bench value encodes the key it belongs to.
    bad = 0
    picker = random.Random(seed)
    for _ in range(READBACK_KEYS):
        index = picker.randrange(SMALL.key_count)
        value = db.run_sync(db.get(encode_key(index)))
        if value is None or value.size != SMALL.value_size or value.seed >> 20 != index:
            bad += 1
    return {
        **_host_times(setup_s, setup_refs, host_s, cpu_s, run_refs),
        "attempted": ops, "failed": ops if bad else 0,
        "detail": f"reads={reads} writes={writes} readback_bad={bad}/{READBACK_KEYS}",
        "sim": sim, "counters": counters, "digest": digest,
        "profile": fold(stats, ops) if stats else None,
    }


def chaos_seeds(seed: int, seconds: float) -> List[int]:
    count = max(1, round(seconds * CHAOS_SEEDS_PER_S))
    start = (seed * count) % CHAOS_POOL
    return [(start + i) % CHAOS_POOL for i in range(count)]


def _chaos_rep(seed: int, seconds: float, profile: bool, reference) -> dict:
    setup_refs = reference.samples(SETUP_SAMPLES)
    t0 = time.perf_counter()
    from repro.dst.cluster import ClusterDstRun
    from repro.dst.harness import DstRun
    from repro.dst.serving import ServingDstRun
    from repro.dst.storm import StormRun

    legs: List[Tuple[str, type]] = [
        ("crash", DstRun), ("storm", StormRun),
        ("cluster", ClusterDstRun), ("serving", ServingDstRun),
    ]
    # Constructing a run draws its fault schedule and builds its machines.
    runs = {
        leg: [cls(s) for s in chaos_seeds(seed, seconds) if (leg, s) not in CHAOS_SKIP]
        for leg, cls in legs
    }
    setup_s = time.perf_counter() - t0
    setup_refs += reference.samples(SETUP_SAMPLES)

    leg_host_s: Dict[str, float] = {}
    results: Dict[str, list] = {}
    run_refs: List[float] = []

    def sweep() -> None:
        for leg, _cls in legs:
            t = time.perf_counter()
            out = results[leg] = []
            sampled = len(run_refs)
            for i, run in enumerate(runs[leg]):
                out.append(run.run())
                if not profile and i % 4 == 3:
                    run_refs.append(reference.sample())
            leg_host_s[leg] = time.perf_counter() - t - sum(run_refs[sampled:])

    _none, host_s, cpu_s, stats = _timed(sweep, profile)

    attempted = failed = 0
    for leg, _cls in legs:
        for run, res in zip(runs[leg], results[leg]):
            if leg == "serving":
                n = res.ops + res.shed + res.errors + res.unresolved
                lost = res.unresolved
            else:
                n, lost = run.config.num_ops, 0
            attempted += n
            failed += n if res.verdict != "PASS" else lost
    serving = results["serving"]
    rows = [row for res in serving for row in res.tenant_rows if row["ops"]]
    serving_ops = sum(res.ops for res in serving)
    serving_all = sum(res.ops + res.shed + res.errors for res in serving)
    serving_ns = sum(run.config.duration_ns for run in runs["serving"])
    counters = {f"dst.{leg}.host_s": leg_host_s[leg] for leg, _cls in legs}
    counters.update({
        "faults.fired": sum(r.faults_fired for r in results["crash"] + results["storm"]),
        "cluster.failovers": sum(r.failovers for r in results["cluster"] + serving),
        "serving.shed_frac": _ratio(sum(r.shed for r in serving), serving_all),
        "serving.error_frac": _ratio(sum(r.errors for r in serving), serving_all),
        "serving.max_op_us": max(r.max_elapsed_us for r in serving),
        "lsm.degraded_entries": sum(r.degraded_entries for r in results["storm"]),
    })
    sim = {
        "sim_kops": _ratio(serving_ops * 1e6, serving_ns),
        "sim_op_p50_us": _iqm([row["p50_us"] for row in rows]),
        "sim_op_p99_us": _iqm([row["steady_p99_us"] for row in rows]),
    }
    digest = _md5([
        [r.events for r in results["crash"] + results["storm"]],
        [[r.events, r.log_digest] for r in results["cluster"] + serving],
    ])
    verdicts = [r.verdict for leg, _cls in legs for r in results[leg]]
    return {
        **_host_times(setup_s, setup_refs, host_s, cpu_s, run_refs),
        "attempted": attempted, "failed": failed,
        "detail": f"seed-runs={len(verdicts)} pass={verdicts.count('PASS')}",
        "sim": sim, "counters": counters, "digest": digest,
        "profile": fold(stats, attempted) if stats else None,
    }


def run_rep(workload: str, seed: int, seconds: float, profile: bool = False) -> dict:
    """One repetition; ``profile`` wraps the timed region in cProfile.

    The collector stays off for the whole repetition: with it on, building a
    million-entry universe spends a third of its time in generation-2 passes
    whose number depends on heap history, and set-up time spreads accordingly.
    """
    gc.disable()
    reference = Reference()
    if workload in DB_BENCH:
        rep = _db_bench_rep(workload, seed, seconds, profile, reference)
    elif workload == CHAOS:
        rep = _chaos_rep(seed, seconds, profile, reference)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rep["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return rep
