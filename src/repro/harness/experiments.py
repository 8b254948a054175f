"""The experiment registry: every paper figure and ablation as data.

An :class:`Entry` names an experiment, the simulation points it needs for
a ``(preset, seed)`` and a reducer from those points' results to rows,
series and notes; :func:`run_experiment` turns one entry into an
:class:`~repro.harness.report.ExperimentResult`.  Every point runs through
one memo keyed by the point's *value*, so wherever two entries need an
equal run it happens once — Figures 6/7 share the 90 %-write runs (which
are also fig03's 0.9 points), Figures 8/9/10/12 the L0 sweep, Figures
13–16 the parallelism sweep, as the paper derives them.

Scale note: file sizes from the paper (32–512 MB on a 100 GB dataset) are
scaled by the dataset ratio — see EXPERIMENTS.md for the per-figure mapping.
"""

from __future__ import annotations

import math
import os
from dataclasses import astuple, dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.bottlenecks import (
    near_stop_fraction,
    near_stop_periods,
    read_amplification,
    throughput_variation,
)
from repro.core.dynamic_l0 import DynamicL0Manager, dynamic_l0_options
from repro.core.nvm_wal import logging_configurations
from repro.core.throttle_model import model_table
from repro.core.two_stage_throttle import TwoStageWriteController
from repro.errors import WorkloadError
from repro.harness.machine import Machine
from repro.harness.presets import ScalePreset, bench_preset
from repro.harness.report import ExperimentResult
from repro.jobs import map_points
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.sim.units import MB, mb, ms, seconds
from repro.storage.iotoolkit import RawBenchmark, RawWorkloadConfig
from repro.storage.profiles import (
    DeviceProfile,
    pcie_flash_ssd,
    sata_flash_ssd,
    xpoint_ssd,
)
from repro.workloads.db_bench import BenchResult, DbBench, DbBenchConfig
from repro.workloads.generators import BurstSchedule
from repro.workloads.prefill import prefill

DEVICES: Dict[str, Callable[[], DeviceProfile]] = {
    "sata-flash": sata_flash_ssd,
    "pcie-flash": pcie_flash_ssd,
    "xpoint": xpoint_ssd,
}

DEFAULT_SEED = 11
ABLATION_SEED = 17

#: Write controllers by name: points carry the name (it pickles), the run
#: builds the controller.
CONTROLLERS = {"": None, "two-stage": TwoStageWriteController}


def bench_duration_ns(preset: ScalePreset) -> int:
    """The preset's run length, or ``REPRO_BENCH_SECONDS`` when it is set."""
    raw = os.environ.get("REPRO_BENCH_SECONDS")
    if not raw:
        return preset.duration_ns
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise WorkloadError(
            "REPRO_BENCH_SECONDS must be a finite positive number of seconds, "
            f"got {raw!r}"
        )
    return seconds(value)


@dataclass(frozen=True)
class WorkloadPoint:
    """One prefilled-DB db_bench run, as a picklable value.

    ``processes``, ``duration_ns`` and ``options`` left ``None`` take the
    preset's values (and ``REPRO_BENCH_SECONDS``) at construction, so a
    point holds exactly what runs and equals every point that would run
    the same simulation.
    """

    device: str
    preset: ScalePreset
    write_fraction: float
    processes: Optional[int] = None
    duration_ns: Optional[int] = None
    seed: int = DEFAULT_SEED
    options: Optional[Options] = None
    controller: str = ""
    wal_on_nvm: bool = False
    schedule: Optional[BurstSchedule] = None
    warmup_fraction: float = 0.25
    dynamic_l0: bool = False

    def __post_init__(self) -> None:
        if self.processes is None:
            object.__setattr__(self, "processes", self.preset.processes)
        if self.duration_ns is None:
            object.__setattr__(self, "duration_ns", bench_duration_ns(self.preset))
        if self.options is None:
            object.__setattr__(self, "options", self.preset.options())

    def run(self) -> "PointResult":
        art = run_workload(self)
        return PointResult(
            result=art.result,
            max_waiting=art.db.write_queue.max_waiting,
            wal_bytes=art.db.wal.bytes_written,
        )


@dataclass(frozen=True)
class RawPoint:
    """One raw-device run of the I/O toolkit (Figure 1's baseline)."""

    device: str
    duration_ns: int
    seed: int

    def run(self) -> float:
        cfg = RawWorkloadConfig(
            threads=8,
            read_fraction=0.5,
            duration_ns=self.duration_ns,
            submit_overhead_ns=2000,
            seed=self.seed,
        )
        return RawBenchmark(cfg).run_profile(DEVICES[self.device]()).kops


@dataclass
class PointResult:
    """What a workload point sends back across the process boundary.

    Engines, DBs and machines stay inside the worker; entries consume the
    measured :class:`BenchResult` plus the live-object readings they need
    (Figure 16's peak queue depth, the WAL-compression ablation's log bytes).
    """

    result: BenchResult
    max_waiting: float
    wal_bytes: int


@dataclass
class RunArtifacts:
    """Everything produced by one standard workload run."""

    machine: Machine
    db: DB
    result: BenchResult


def run_workload(point: WorkloadPoint) -> RunArtifacts:
    """Stand up a prefilled DB on the point's device and run its workload."""
    preset = point.preset
    machine = Machine.create(
        DEVICES[point.device](),
        preset.page_cache_bytes,
        seed=point.seed,
        with_nvm=point.wal_on_nvm,
    )
    # A private copy: the dynamic-L0 manager retunes the options it runs on.
    opts = replace(point.options)
    controller_cls = CONTROLLERS[point.controller]
    controller = controller_cls(machine.engine, opts) if controller_cls else None
    db = machine.open_db(opts, wal_on_nvm=point.wal_on_nvm, controller=controller)
    prefill(db, preset.prefill_spec())
    if point.dynamic_l0:
        DynamicL0Manager(db, l0_volume_bytes=24 * opts.write_buffer_size).start()

    duration = point.duration_ns
    cfg = DbBenchConfig(
        processes=point.processes,
        duration_ns=duration,
        write_fraction=point.write_fraction,
        value_size=preset.value_size,
        key_count=preset.key_count,
        seed=point.seed,
        warmup_ns=int(duration * point.warmup_fraction),
        schedule=point.schedule,
        timeline_bucket_ns=max(ms(100), duration // 40),
    )
    return RunArtifacts(machine=machine, db=db, result=DbBench(cfg).run(db))


# --------------------------------------------------------------------------
# The memo and the runner
# --------------------------------------------------------------------------

_memo: Dict[tuple, Any] = {}


def point_key(point) -> tuple:
    """The memo key: the point's type and field values, never its identity,
    so two points share a run exactly when they are equal."""
    cls = type(point)
    return (f"{cls.__module__}.{cls.__qualname__}", astuple(point))


def _run(point):
    return point.run()


def run_points(points: Sequence, jobs: int = 1) -> List:
    """Results for ``points`` in point order, running each distinct point
    not yet memoized once (in ``jobs`` worker processes when ``jobs > 1``;
    every ``jobs`` value gives bit-identical results, see :mod:`repro.jobs`)."""
    keys = [point_key(p) for p in points]
    todo: Dict[tuple, Any] = {}
    for key, point in zip(keys, points):
        if key not in _memo:
            todo.setdefault(key, point)
    for key, result in zip(todo, map_points(_run, list(todo.values()), jobs)):
        _memo[key] = result
    return [_memo[key] for key in keys]


@dataclass(frozen=True)
class Entry:
    """One registered experiment.

    ``points(preset, seed)`` returns the runs it needs as ``{label:
    point}``; ``reduce(result, runs)`` fills the
    :class:`ExperimentResult` from ``{label: run result}``.
    """

    exp_id: str
    title: str
    columns: Sequence[str]
    points: Callable[[ScalePreset, int], Dict[Any, Any]]
    reduce: Callable[[ExperimentResult, Dict[Any, Any]], None]
    expectation: str = ""
    seed: int = DEFAULT_SEED


def run_experiment(
    entry: Entry,
    preset: Optional[ScalePreset] = None,
    seed: Optional[int] = None,
    jobs: int = 1,
) -> ExperimentResult:
    """Run (or recall) ``entry``'s points and reduce them to its result;
    ``seed`` defaults to the entry's own."""
    grid = entry.points(preset or bench_preset(), entry.seed if seed is None else seed)
    runs = dict(zip(grid, run_points(list(grid.values()), jobs)))
    res = ExperimentResult(
        exp_id=entry.exp_id,
        title=entry.title,
        columns=list(entry.columns),
        paper_expectation=entry.expectation,
    )
    entry.reduce(res, runs)
    return res


# --------------------------------------------------------------------------
# Points and reducers
# --------------------------------------------------------------------------

FIG3_RATIOS = (0.0, 0.5, 0.75, 0.9, 1.0)
#: The paper sweeps 32..512 MB around a 64 MB default: 0.5x .. 8x.
L0_SIZE_MULTIPLIERS = (0.5, 1.0, 2.0, 4.0)
PARALLELISM_LEVELS = (1, 2, 8, 32)
FIG19_READ_RATIOS = (0.05, 0.5, 0.9)


def _us(hist, pct: float) -> float:
    return round(hist.percentile(pct) / 1e3, 1)


def _pcts(hist, prefix: str = "", pcts=(50, 90, 99)) -> Dict[str, float]:
    return {f"{prefix}p{p}_us": _us(hist, p) for p in pcts}


def _kops(run: PointResult) -> float:
    return round(run.result.kops, 1)


def _avg_l0(run: PointResult) -> float:
    samples = [count for _, count in run.result.l0_file_counts]
    return round(sum(samples) / len(samples), 2) if samples else 0.0


def _reads_per_get(run: PointResult) -> float:
    return round(read_amplification(run.result.db_tickers), 2)


def _per_run(row: Callable[[Any, Any], Dict[str, Any]], sort_by: Sequence[str] = ()):
    """A reducer adding ``row(label, run)`` for every run, optionally sorted."""

    def reduce(res: ExperimentResult, runs: Dict[Any, Any]) -> None:
        for label, run in runs.items():
            res.add_row(**row(label, run))
        if sort_by:
            res.rows.sort(key=lambda r: tuple(r[c] for c in sort_by))

    return reduce


def _latency(kind: str):
    """A reducer: one row of ``kind`` latency percentiles per device."""
    return _per_run(
        lambda device, run: dict(device=device, **_pcts(getattr(run.result, kind)))
    )


def _per_device(**fields):
    """Points: one run per device with the given workload fields."""
    return lambda preset, seed: {
        device: WorkloadPoint(device, preset, seed=seed, **fields) for device in DEVICES
    }


def _option_sweep(device: str, write_fraction: float, name: str, values, **fields):
    """Points: one run on ``device`` per value of the option ``name``."""
    return lambda preset, seed: {
        value: WorkloadPoint(
            device, preset, write_fraction, seed=seed,
            options=preset.options(**{name: value}), **fields,
        )
        for value in values
    }


def _timelines(write_fraction: float):
    """Points: one timeline per device, at least 4 s long."""

    def points(preset, seed):
        duration = max(bench_duration_ns(preset), seconds(4.0))
        return {
            device: WorkloadPoint(
                device, preset, write_fraction, seed=seed, duration_ns=duration
            )
            for device in DEVICES
        }

    return points


def _series(run: PointResult):
    cfg = run.result.config
    return run.result.timeline.series(start=cfg.warmup_ns, end=cfg.duration_ns)


def _timeline_reduce(res: ExperimentResult, runs) -> None:
    for device, run in runs.items():
        series = _series(run)
        stats = throughput_variation(series)
        res.add_row(
            device=device,
            mean_kops=round(stats["mean"] / 1e3, 1),
            min_kops=round(stats["min"] / 1e3, 1),
            max_kops=round(stats["max"] / 1e3, 1),
            cov=round(stats["cov"], 2),
            near_stop_frac=round(near_stop_fraction(series), 2),
        )
        res.series[device] = series


def _l0_sweep(preset, seed):
    """R/W 1:1 runs over L0 file sizes, labelled ``(device, file_size_mb)``."""
    return {
        (device, round(preset.write_buffer_size * mult / MB, 2)): WorkloadPoint(
            device, preset, 0.5, seed=seed,
            options=preset.options(write_buffer_size=int(preset.write_buffer_size * mult)),
        )
        for device in DEVICES
        for mult in L0_SIZE_MULTIPLIERS
    }


def _fig01_points(preset, seed):
    raw_ns = min(seconds(1.0), bench_duration_ns(preset))
    devices = ("sata-flash", "xpoint")
    grid: Dict[Any, Any] = {("raw", d): RawPoint(d, raw_ns, seed) for d in devices}
    for d in devices:
        grid[("rocksdb", d)] = WorkloadPoint(d, preset, 0.5, processes=8, seed=seed)
    return grid


def _fig01_reduce(res: ExperimentResult, runs) -> None:
    for (system, device), run in runs.items():
        kops = round(run, 1) if system == "raw" else _kops(run)
        res.add_row(system=system, device=device, kops=kops)
    speedup = {
        system: res.row_for(system=system, device="xpoint")["kops"]
        / max(1e-9, res.row_for(system=system, device="sata-flash")["kops"])
        for system in ("raw", "rocksdb")
    }
    res.notes = (
        f"raw speedup {speedup['raw']:.1f}x vs RocksDB speedup {speedup['rocksdb']:.1f}x"
    )


def _fig18_points(preset, seed):
    # Paper: R/W 1:1 with a 1:9 burst 25 s out of every 60 s, 300 s run.
    # Scaled: same duty cycle (~42%) on a shorter period.
    duration = max(3 * bench_duration_ns(preset), seconds(9.0))
    schedule = BurstSchedule(0.5, 0.9, duration // 3, int(duration // 3 * 0.42))
    return {
        label: WorkloadPoint(
            "xpoint", preset, 0.5, seed=seed, duration_ns=duration,
            schedule=schedule, controller=controller, warmup_fraction=0.1,
        )
        for label, controller in (("original", ""), ("two-stage", "two-stage"))
    }


def _fig18_reduce(res: ExperimentResult, runs) -> None:
    for label, run in runs.items():
        series = _series(run)
        stats = throughput_variation(series)
        res.add_row(
            controller=label,
            mean_kops=round(stats["mean"] / 1e3, 1),
            min_kops=round(stats["min"] / 1e3, 1),
            near_stop_frac=round(near_stop_fraction(series), 3),
            near_stop_periods=len(near_stop_periods(series)),
        )
        res.series[label] = series


def _fig19_points(preset, seed):
    return {
        (read_ratio, dynamic): WorkloadPoint(
            "xpoint", preset, 1.0 - read_ratio, seed=seed,
            options=dynamic_l0_options(preset.options()), dynamic_l0=dynamic,
        )
        for read_ratio in FIG19_READ_RATIOS
        for dynamic in (False, True)
    }


def _fig19_reduce(res: ExperimentResult, runs) -> None:
    for read_ratio in FIG19_READ_RATIOS:
        dk = runs[(read_ratio, False)].result.kops
        yk = runs[(read_ratio, True)].result.kops
        res.add_row(
            read_ratio=read_ratio,
            default_kops=round(dk, 1),
            dynamic_kops=round(yk, 1),
            gain_pct=round((yk - dk) / dk * 100 if dk else 0.0, 1),
        )


def _fig20_points(preset, seed):
    return {
        config.label: WorkloadPoint(
            "xpoint", preset, 0.5, seed=seed,
            options=config.apply(preset.options()), wal_on_nvm=config.wal_on_nvm,
        )
        for config in logging_configurations()
    }


def _model1_reduce(res: ExperimentResult, runs) -> None:
    for row in model_table():
        res.add_row(**row)


_AT_90W = _per_device(write_fraction=0.9)
_AT_32T = _per_device(write_fraction=0.5, processes=32)
_TIMELINE = ("device", "mean_kops", "min_kops", "max_kops", "cov", "near_stop_frac")
_LATENCY = ("device", "p50_us", "p90_us", "p99_us")
_BY_L0 = ("device", "avg_l0_files")

FIGURES: Dict[str, Entry] = {e.exp_id: e for e in (
    Entry("fig01", "Motivating example: raw device vs RocksDB throughput (R/W 1:1, 8 threads)",
          ("system", "device", "kops"), _fig01_points, _fig01_reduce,
          "raw: 26 -> 408 kop/s (15.7x); RocksDB: 13 -> 23 kop/s (+77%) — "
          "the raw speedup dwarfs the end-to-end speedup"),
    Entry("fig03", "Throughput vs insertion ratio (4 processes)",
          ("device", "write_fraction", "kops"),
          lambda preset, seed: {(d, wf): WorkloadPoint(d, preset, wf, seed=seed)
                                for d in DEVICES for wf in FIG3_RATIOS},
          _per_run(lambda key, run: dict(device=key[0], write_fraction=key[1], kops=_kops(run))),
          "flash rises with insertion ratio (PCIe 32 -> 41.3 kop/s); "
          "XPoint falls (115 -> 45 kop/s) and converges toward PCIe flash"),
    Entry("fig04", "Throughput timeline (5% write)", _TIMELINE,
          _timelines(0.05), _timeline_reduce,
          "low variation on all devices; no near-stop periods"),
    Entry("fig05", "Throughput timeline (90% write)", _TIMELINE,
          _timelines(0.9), _timeline_reduce,
          "XPoint oscillates between bursts (169 kop/s) and near-stop valleys (3 kop/s)"),
    Entry("fig06", "Read latency at 90% write", _LATENCY, _AT_90W, _latency("read_latency"),
          "read p90: XPoint 251 us vs SATA flash 839 us (XPoint ~3x shorter)"),
    Entry("fig07", "Write latency at 90% write", _LATENCY, _AT_90W, _latency("write_latency"),
          "write p90 similar across devices (XPoint 26 us vs SATA 28 us)"),
    Entry("fig08", "Number of Level-0 files vs Level-0 file size (R/W 1:1)",
          ("device", "file_size_mb", "avg_l0_files", "max_l0_files"), _l0_sweep,
          _per_run(lambda key, run: dict(device=key[0], file_size_mb=key[1],
                                         avg_l0_files=_avg_l0(run),
                                         max_l0_files=run.result.l0_max)),
          "larger Level-0 files -> fewer Level-0 files"),
    Entry("fig09", "Throughput vs number of Level-0 files",
          ("device", "avg_l0_files", "kops"), _l0_sweep,
          _per_run(lambda key, run: dict(device=key[0], avg_l0_files=_avg_l0(run),
                                         kops=_kops(run)), sort_by=_BY_L0),
          "more L0 files -> lower throughput; relative drop larger on XPoint "
          "(-19.9% from 2 to 8 files) than PCIe flash (-12.3%)"),
    Entry("fig10", "Read tail latency vs number of Level-0 files",
          ("device", "avg_l0_files", "read_p90_us"), _l0_sweep,
          _per_run(lambda key, run: dict(device=key[0], avg_l0_files=_avg_l0(run),
                                         read_p90_us=_us(run.result.read_latency, 90)),
                   sort_by=_BY_L0),
          "fewer L0 files -> shorter read tails (XPoint: 134 us @8 -> 101 us @2)"),
    Entry("fig12", "Write tail latency vs SST/memtable size (R/W 1:1)",
          ("device", "file_size_mb", "write_p50_us", "write_p90_us"), _l0_sweep,
          _per_run(lambda key, run: dict(device=key[0], file_size_mb=key[1],
                                         **_pcts(run.result.write_latency, "write_", (50, 90))),
                   sort_by=("device", "file_size_mb")),
          "write p90 grows with memtable size (SATA: 25 -> 31 us from 64 to "
          "256 MB) — O(log N) skiplist insertion"),
    Entry("fig13", "Throughput vs parallelism (R/W 1:1)", ("device", "processes", "kops"),
          lambda preset, seed: {(d, procs): WorkloadPoint(d, preset, 0.5, processes=procs,
                                                          seed=seed)
                                for d in DEVICES for procs in PARALLELISM_LEVELS},
          _per_run(lambda key, run: dict(device=key[0], processes=key[1], kops=_kops(run))),
          "throughput rises with threads on all devices (XPoint 35.4 -> 79.5 kop/s)"),
    Entry("fig14", "Read latency at 32 threads", _LATENCY, _AT_32T, _latency("read_latency"),
          "XPoint read p90 (335 us) ~76% below SATA flash (1.4 ms)"),
    Entry("fig15", "Write latency at 32 threads", _LATENCY, _AT_32T, _latency("write_latency"),
          "inversion: XPoint write p90 (440 us) far ABOVE SATA flash (47 us) — "
          "fast reads recycle threads into the writer queue"),
    Entry("fig16", "Average waiting writer threads at 32 threads",
          ("device", "mean_waiting", "max_waiting"), _AT_32T,
          _per_run(lambda device, run: dict(
              device=device, mean_waiting=round(run.result.mean_waiting_writers, 2),
              max_waiting=round(run.max_waiting, 0))),
          "more writers queue on XPoint than on either flash SSD"),
    Entry("fig17", "Write latency with and without WAL (R/W 1:9)",
          ("device", "wal", "write_p50_us", "write_p90_us"),
          lambda preset, seed: {
              (d, label): WorkloadPoint(d, preset, 0.9, seed=seed,
                                        options=preset.options(wal_mode=mode))
              for d in DEVICES for mode, label in (("buffered", "on"), ("off", "off"))},
          _per_run(lambda key, run: dict(device=key[0], wal=key[1],
                                         **_pcts(run.result.write_latency, "write_", (50, 90)))),
          "disabling the WAL cuts write p90 substantially (XPoint: 54 -> 22 us)"),
    Entry("fig18", "Throughput under periodic write bursts: original vs two-stage throttling",
          ("controller", "mean_kops", "min_kops", "near_stop_frac", "near_stop_periods"),
          _fig18_points, _fig18_reduce,
          "original throttling shows near-stop (<10 kop/s) valleys during "
          "bursts; two-stage throttling removes them"),
    Entry("fig19", "Throughput vs read ratio: default vs dynamic Level-0 management",
          ("read_ratio", "default_kops", "dynamic_kops", "gain_pct"),
          _fig19_points, _fig19_reduce,
          "dynamic L0 wins for read-heavy mixes (+13% at 90% reads), ties at 5% reads"),
    Entry("fig20", "Write latency vs logging configuration (50% insertion)",
          ("config", "write_p50_us", "write_p90_us", "write_p99_us"), _fig20_points,
          _per_run(lambda label, run: dict(config=label,
                                           **_pcts(run.result.write_latency, "write_"))),
          "WAL-in-NVM cuts write p90 ~18.8% vs WAL-on-SSD (16 -> 13 us); "
          "WAL-off remains the fastest"),
    Entry("model1", "Analysis #1: throttled application-level throughput (Eq. 2)",
          ("device", "lambda_s_kops", "t_us", "lambda_a_kops", "paper_kops"),
          lambda preset, seed: {}, _model1_reduce,
          "computed 2.74 kop/s (XPoint) and 1.88 kop/s (SATA)"),
    # Section VI implications (and Finding #2's corollary) the paper
    # proposes without evaluating; built and measured here.
    Entry("ablation-bloom", "Bloom filters vs L0 query overhead (3D XPoint, R/W 1:1)",
          ("bloom_bits", "kops", "read_p90_us", "dev_reads_per_get"),
          _option_sweep("xpoint", 0.5, "bloom_bits_per_key", (0, 10)),
          _per_run(lambda bits, run: dict(
              bloom_bits=bits, kops=_kops(run), read_p90_us=_us(run.result.read_latency, 90),
              dev_reads_per_get=_reads_per_get(run))),
          "with bloom filters the per-L0-file search cost mostly vanishes",
          seed=ABLATION_SEED),
    Entry("ablation-walz", "WAL compression (3D XPoint, 90% insertion)",
          ("compression", "kops", "write_p90_us", "wal_mb"),
          _option_sweep("xpoint", 0.9, "wal_compression", (False, True)),
          _per_run(lambda compressed, run: dict(
              compression="on" if compressed else "off", kops=_kops(run),
              write_p90_us=_us(run.result.write_latency, 90),
              wal_mb=round(run.wal_bytes / 2**20, 1))),
          "Section VI: compressing the log trades CPU for log I/O traffic",
          seed=ABLATION_SEED),
    Entry("ablation-wq", "Write-queue sharding at 32 threads (3D XPoint, R/W 1:1)",
          ("queues", "kops", "write_p90_us", "mean_waiting"),
          _option_sweep("xpoint", 0.5, "write_queue_shards", (1, 4), processes=32),
          _per_run(lambda shards, run: dict(
              queues=shards, kops=_kops(run), write_p90_us=_us(run.result.write_latency, 90),
              mean_waiting=round(run.result.mean_waiting_writers, 2))),
          "Section VI: more queues -> more overlap, shorter writer waits",
          seed=ABLATION_SEED),
    Entry("ablation-ratelimit", "Background I/O rate limiter (SATA flash, R/W 1:1)",
          ("limit_mb_s", "kops", "read_p90_us", "write_p90_us"),
          _option_sweep("sata-flash", 0.5, "rate_limit_bytes_per_sec", (0, 8 * mb(1))),
          _per_run(lambda limit, run: dict(
              limit_mb_s=limit // mb(1) if limit else "off", kops=_kops(run),
              read_p90_us=_us(run.result.read_latency, 90),
              write_p90_us=_us(run.result.write_latency, 90))),
          "throttling background I/O shortens foreground read tails at "
          "some cost in sustained write throughput",
          seed=ABLATION_SEED),
)}
