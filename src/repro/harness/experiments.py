"""One experiment per paper figure.

Every ``fig*`` function regenerates the corresponding figure's rows/series
at the active scale preset and returns an
:class:`~repro.harness.report.ExperimentResult`.  Where the paper derives
two figures from the same runs (e.g. Figures 13–16 share the parallelism
sweep), the runs are memoized per (experiment-group, preset, seed) so each
bench target stays cheap.

Scale note: file sizes from the paper (32–512 MB on a 100 GB dataset) are
scaled by the dataset ratio — see EXPERIMENTS.md for the per-figure mapping.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.bottlenecks import (
    near_stop_fraction,
    near_stop_periods,
    throughput_variation,
)
from repro.core.dynamic_l0 import DynamicL0Manager, dynamic_l0_options
from repro.core.nvm_wal import logging_configurations
from repro.core.throttle_model import model_table
from repro.core.two_stage_throttle import TwoStageWriteController
from repro.harness.machine import Machine
from repro.harness.presets import ScalePreset, bench_preset
from repro.harness.report import ExperimentResult
from repro.jobs import map_points
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.sim.units import MB, SEC, mb, ms, seconds
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

_memo: Dict[tuple, object] = {}


def clear_memo() -> None:
    """Drop memoized runs (used between test sessions)."""
    _memo.clear()


def _duration_ns(preset: ScalePreset) -> int:
    override = os.environ.get("REPRO_BENCH_SECONDS")
    if override:
        return seconds(float(override))
    return preset.duration_ns


@dataclass
class RunArtifacts:
    """Everything produced by one standard workload run."""

    machine: Machine
    db: DB
    result: BenchResult


def run_workload(
    device: str,
    preset: ScalePreset,
    write_fraction: float,
    processes: Optional[int] = None,
    duration_ns: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    options: Optional[Options] = None,
    controller_factory=None,
    wal_on_nvm: bool = False,
    schedule: Optional[BurstSchedule] = None,
    warmup_fraction: float = 0.25,
    dynamic_l0: bool = False,
) -> RunArtifacts:
    """Stand up a prefilled DB on ``device`` and run one db_bench workload."""
    profile = DEVICES[device]()
    machine = Machine.create(
        profile, preset.page_cache_bytes, seed=seed, with_nvm=wal_on_nvm
    )
    opts = options if options is not None else preset.options()
    controller = None
    if controller_factory is not None:
        controller = controller_factory(machine.engine, opts)
    db = machine.open_db(opts, wal_on_nvm=wal_on_nvm, controller=controller)
    prefill(db, preset.prefill_spec())

    manager = None
    if dynamic_l0:
        manager = DynamicL0Manager(db, l0_volume_bytes=24 * opts.write_buffer_size)
        manager.start()

    duration = duration_ns if duration_ns is not None else _duration_ns(preset)
    cfg = DbBenchConfig(
        processes=processes if processes is not None else preset.processes,
        duration_ns=duration,
        write_fraction=write_fraction,
        value_size=preset.value_size,
        key_count=preset.key_count,
        seed=seed,
        warmup_ns=int(duration * warmup_fraction),
        schedule=schedule,
        timeline_bucket_ns=max(ms(100), duration // 40),
    )
    result = DbBench(cfg).run(db)
    artifacts = RunArtifacts(machine=machine, db=db, result=result)
    artifacts.dynamic_l0_manager = manager  # type: ignore[attr-defined]
    return artifacts


def _avg_l0(result: BenchResult) -> float:
    samples = [count for _, count in result.l0_file_counts]
    return sum(samples) / len(samples) if samples else 0.0


# --------------------------------------------------------------------------
# Parallel sweep machinery (--jobs)
# --------------------------------------------------------------------------

_jobs = 1


def set_jobs(jobs: int) -> None:
    """Set the worker-process count for subsequent experiment sweeps.

    ``jobs <= 1`` keeps the plain serial in-process loop.  Results are
    always merged in point order, so every jobs value produces bit-identical
    figures (see :mod:`repro.jobs`).
    """
    global _jobs
    _jobs = max(1, int(jobs))


def get_jobs() -> int:
    return _jobs


#: Write-controller factories by name.  Sweep points carry the *name*
#: (strings pickle across process boundaries; closures do not) and workers
#: look the factory up at run time.
CONTROLLER_FACTORIES: Dict[str, Optional[Callable]] = {
    "": None,
    "two-stage": lambda engine, opts: TwoStageWriteController(engine, opts),
}


@dataclass(frozen=True)
class WorkloadPoint:
    """One independent (device, config, seed) sweep point — picklable."""

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


@dataclass
class PointResult:
    """What a sweep point sends back across the process boundary.

    Engines, DBs and machines stay inside the worker; figures consume the
    measured :class:`BenchResult` plus the few live-object readings they
    need (the Figure 16 peak queue depth).
    """

    result: BenchResult
    max_waiting: float


def run_point(point: WorkloadPoint) -> PointResult:
    """Execute one sweep point (runs inside a worker process under --jobs)."""
    run = run_workload(
        point.device,
        point.preset,
        point.write_fraction,
        processes=point.processes,
        duration_ns=point.duration_ns,
        seed=point.seed,
        options=point.options,
        controller_factory=CONTROLLER_FACTORIES[point.controller],
        wal_on_nvm=point.wal_on_nvm,
        schedule=point.schedule,
        warmup_fraction=point.warmup_fraction,
        dynamic_l0=point.dynamic_l0,
    )
    return PointResult(
        result=run.result,
        max_waiting=run.db.write_queue.waiting_gauge.max_value,
    )


def run_points(points: Sequence[WorkloadPoint]) -> List[PointResult]:
    """Run sweep points (in parallel after ``set_jobs(n>1)``), in point order."""
    return map_points(run_point, list(points), jobs=_jobs)



# --------------------------------------------------------------------------
# Figure 1 — motivating example
# --------------------------------------------------------------------------

def fig01_motivating(preset: Optional[ScalePreset] = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Raw-device vs RocksDB speedup from SATA flash to 3D XPoint."""
    preset = preset or bench_preset()
    res = ExperimentResult(
        exp_id="fig01",
        title="Motivating example: raw device vs RocksDB throughput (R/W 1:1, 8 threads)",
        columns=["system", "device", "kops"],
        paper_expectation=(
            "raw: 26 -> 408 kop/s (15.7x); RocksDB: 13 -> 23 kop/s (+77%) — "
            "the raw speedup dwarfs the end-to-end speedup"
        ),
    )
    raw_cfg = RawWorkloadConfig(
        threads=8,
        read_fraction=0.5,
        duration_ns=min(seconds(1.0), _duration_ns(preset)),
        submit_overhead_ns=2000,
        seed=seed,
    )
    for device in ("sata-flash", "xpoint"):
        raw = RawBenchmark(raw_cfg).run_profile(DEVICES[device]())
        res.add_row(system="raw", device=device, kops=round(raw.kops, 1))
    kv_devices = ("sata-flash", "xpoint")
    points = [
        WorkloadPoint(device, preset, write_fraction=0.5, processes=8, seed=seed)
        for device in kv_devices
    ]
    for device, pr in zip(kv_devices, run_points(points)):
        res.add_row(system="rocksdb", device=device, kops=round(pr.result.kops, 1))

    raw_speedup = res.row_for(system="raw", device="xpoint")["kops"] / max(
        1e-9, res.row_for(system="raw", device="sata-flash")["kops"]
    )
    kv_speedup = res.row_for(system="rocksdb", device="xpoint")["kops"] / max(
        1e-9, res.row_for(system="rocksdb", device="sata-flash")["kops"]
    )
    res.notes = f"raw speedup {raw_speedup:.1f}x vs RocksDB speedup {kv_speedup:.1f}x"
    return res


# --------------------------------------------------------------------------
# Figure 3 — throughput vs insertion ratio
# --------------------------------------------------------------------------

FIG3_RATIOS = (0.0, 0.5, 0.75, 0.9, 1.0)


def fig03_insertion_ratio(
    preset: Optional[ScalePreset] = None,
    seed: int = DEFAULT_SEED,
    ratios: Tuple[float, ...] = FIG3_RATIOS,
) -> ExperimentResult:
    """Throughput vs insertion ratio, 4 processes, three devices."""
    preset = preset or bench_preset()
    res = ExperimentResult(
        exp_id="fig03",
        title="Throughput vs insertion ratio (4 processes)",
        columns=["device", "write_fraction", "kops"],
        paper_expectation=(
            "flash rises with insertion ratio (PCIe 32 -> 41.3 kop/s); "
            "XPoint falls (115 -> 45 kop/s) and converges toward PCIe flash"
        ),
    )
    grid = [(device, wf) for device in DEVICES for wf in ratios]
    points = [
        WorkloadPoint(device, preset, write_fraction=wf, seed=seed)
        for device, wf in grid
    ]
    for (device, wf), pr in zip(grid, run_points(points)):
        res.add_row(
            device=device, write_fraction=wf, kops=round(pr.result.kops, 1)
        )
    return res


# --------------------------------------------------------------------------
# Figures 4 & 5 — throughput timelines
# --------------------------------------------------------------------------

def _timeline_experiment(
    exp_id: str, title: str, write_fraction: float, preset: ScalePreset, seed: int,
    expectation: str,
) -> ExperimentResult:
    res = ExperimentResult(
        exp_id=exp_id,
        title=title,
        columns=["device", "mean_kops", "min_kops", "max_kops", "cov", "near_stop_frac"],
        paper_expectation=expectation,
    )
    duration = max(_duration_ns(preset), seconds(4.0))
    devices = list(DEVICES)
    points = [
        WorkloadPoint(
            device, preset, write_fraction=write_fraction, seed=seed,
            duration_ns=duration,
        )
        for device in devices
    ]
    for device, pr in zip(devices, run_points(points)):
        series = pr.result.timeline.series(
            start=pr.result.config.warmup_ns, end=duration
        )
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
    return res


def fig04_timeline_5w(preset: Optional[ScalePreset] = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Throughput over time at 5% writes: smooth on every device."""
    preset = preset or bench_preset()
    return _timeline_experiment(
        "fig04",
        "Throughput timeline (5% write)",
        0.05,
        preset,
        seed,
        "low variation on all devices; no near-stop periods",
    )


def fig05_timeline_90w(preset: Optional[ScalePreset] = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Throughput over time at 90% writes: deep throttling valleys on XPoint."""
    preset = preset or bench_preset()
    return _timeline_experiment(
        "fig05",
        "Throughput timeline (90% write)",
        0.9,
        preset,
        seed,
        "XPoint oscillates between bursts (169 kop/s) and near-stop valleys (3 kop/s)",
    )


# --------------------------------------------------------------------------
# Figures 6 & 7 — read/write latency at 90% write
# --------------------------------------------------------------------------

def _latency_90w_runs(preset: ScalePreset, seed: int) -> Dict[str, PointResult]:
    key = ("latency90w", preset.name, seed, _duration_ns(preset))
    if key not in _memo:
        devices = list(DEVICES)
        points = [
            WorkloadPoint(device, preset, write_fraction=0.9, seed=seed)
            for device in devices
        ]
        _memo[key] = dict(zip(devices, run_points(points)))
    return _memo[key]  # type: ignore[return-value]


def fig06_read_latency_90w(preset: Optional[ScalePreset] = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    preset = preset or bench_preset()
    res = ExperimentResult(
        exp_id="fig06",
        title="Read latency at 90% write",
        columns=["device", "p50_us", "p90_us", "p99_us"],
        paper_expectation="read p90: XPoint 251 us vs SATA flash 839 us (XPoint ~3x shorter)",
    )
    for device, run in _latency_90w_runs(preset, seed).items():
        hist = run.result.read_latency
        res.add_row(
            device=device,
            p50_us=round(hist.percentile(50) / 1e3, 1),
            p90_us=round(hist.percentile(90) / 1e3, 1),
            p99_us=round(hist.percentile(99) / 1e3, 1),
        )
    return res


def fig07_write_latency_90w(preset: Optional[ScalePreset] = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    preset = preset or bench_preset()
    res = ExperimentResult(
        exp_id="fig07",
        title="Write latency at 90% write",
        columns=["device", "p50_us", "p90_us", "p99_us"],
        paper_expectation="write p90 similar across devices (XPoint 26 us vs SATA 28 us)",
    )
    for device, run in _latency_90w_runs(preset, seed).items():
        hist = run.result.write_latency
        res.add_row(
            device=device,
            p50_us=round(hist.percentile(50) / 1e3, 1),
            p90_us=round(hist.percentile(90) / 1e3, 1),
            p99_us=round(hist.percentile(99) / 1e3, 1),
        )
    return res


# --------------------------------------------------------------------------
# Figures 8, 9, 10 — Level-0 file size / count effects
# --------------------------------------------------------------------------

def _l0_size_multipliers() -> Tuple[float, ...]:
    # Paper sweeps 32..512 MB with a 64 MB default: 0.5x .. 8x of default.
    return (0.5, 1.0, 2.0, 4.0)


def _l0_sweep_runs(preset: ScalePreset, seed: int) -> Dict[Tuple[str, float], PointResult]:
    key = ("l0sweep", preset.name, seed, _duration_ns(preset))
    if key not in _memo:
        grid = [
            (device, mult)
            for device in DEVICES
            for mult in _l0_size_multipliers()
        ]
        points = [
            WorkloadPoint(
                device, preset, write_fraction=0.5, seed=seed,
                options=preset.options(
                    write_buffer_size=int(preset.write_buffer_size * mult)
                ),
            )
            for device, mult in grid
        ]
        _memo[key] = dict(zip(grid, run_points(points)))
    return _memo[key]  # type: ignore[return-value]


def fig08_l0_count_vs_size(preset: Optional[ScalePreset] = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    preset = preset or bench_preset()
    res = ExperimentResult(
        exp_id="fig08",
        title="Number of Level-0 files vs Level-0 file size (R/W 1:1)",
        columns=["device", "file_size_mb", "avg_l0_files", "max_l0_files"],
        paper_expectation="larger Level-0 files -> fewer Level-0 files",
    )
    for (device, mult), run in _l0_sweep_runs(preset, seed).items():
        res.add_row(
            device=device,
            file_size_mb=round(preset.write_buffer_size * mult / MB, 2),
            avg_l0_files=round(_avg_l0(run.result), 2),
            max_l0_files=max((c for _, c in run.result.l0_file_counts), default=0),
        )
    return res


def fig09_throughput_vs_l0(preset: Optional[ScalePreset] = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    preset = preset or bench_preset()
    res = ExperimentResult(
        exp_id="fig09",
        title="Throughput vs number of Level-0 files",
        columns=["device", "avg_l0_files", "kops"],
        paper_expectation=(
            "more L0 files -> lower throughput; relative drop larger on XPoint "
            "(-19.9% from 2 to 8 files) than PCIe flash (-12.3%)"
        ),
    )
    for (device, mult), run in _l0_sweep_runs(preset, seed).items():
        res.add_row(
            device=device,
            avg_l0_files=round(_avg_l0(run.result), 2),
            kops=round(run.result.kops, 1),
        )
    res.rows.sort(key=lambda r: (r["device"], r["avg_l0_files"]))
    return res


def fig10_read_latency_vs_l0(preset: Optional[ScalePreset] = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    preset = preset or bench_preset()
    res = ExperimentResult(
        exp_id="fig10",
        title="Read tail latency vs number of Level-0 files",
        columns=["device", "avg_l0_files", "read_p90_us"],
        paper_expectation="fewer L0 files -> shorter read tails (XPoint: 134 us @8 -> 101 us @2)",
    )
    for (device, mult), run in _l0_sweep_runs(preset, seed).items():
        res.add_row(
            device=device,
            avg_l0_files=round(_avg_l0(run.result), 2),
            read_p90_us=round(run.result.read_latency.percentile(90) / 1e3, 1),
        )
    res.rows.sort(key=lambda r: (r["device"], r["avg_l0_files"]))
    return res


# --------------------------------------------------------------------------
# Figure 12 — write latency vs SST (memtable) size
# --------------------------------------------------------------------------

def fig12_write_latency_vs_sst(preset: Optional[ScalePreset] = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    preset = preset or bench_preset()
    res = ExperimentResult(
        exp_id="fig12",
        title="Write tail latency vs SST/memtable size (R/W 1:1)",
        columns=["device", "file_size_mb", "write_p50_us", "write_p90_us"],
        paper_expectation=(
            "write p90 grows with memtable size (SATA: 25 -> 31 us from 64 to "
            "256 MB) — O(log N) skiplist insertion"
        ),
    )
    for (device, mult), run in _l0_sweep_runs(preset, seed).items():
        res.add_row(
            device=device,
            file_size_mb=round(preset.write_buffer_size * mult / MB, 2),
            write_p50_us=round(run.result.write_latency.percentile(50) / 1e3, 1),
            write_p90_us=round(run.result.write_latency.percentile(90) / 1e3, 1),
        )
    res.rows.sort(key=lambda r: (r["device"], r["file_size_mb"]))
    return res


# --------------------------------------------------------------------------
# Figures 13–16 — parallelism and interference
# --------------------------------------------------------------------------

PARALLELISM_LEVELS = (1, 2, 8, 32)


def _parallelism_runs(preset: ScalePreset, seed: int) -> Dict[Tuple[str, int], PointResult]:
    key = ("parallelism", preset.name, seed, _duration_ns(preset))
    if key not in _memo:
        grid = [
            (device, procs)
            for device in DEVICES
            for procs in PARALLELISM_LEVELS
        ]
        points = [
            WorkloadPoint(
                device, preset, write_fraction=0.5, processes=procs, seed=seed
            )
            for device, procs in grid
        ]
        _memo[key] = dict(zip(grid, run_points(points)))
    return _memo[key]  # type: ignore[return-value]


def fig13_parallelism(preset: Optional[ScalePreset] = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    preset = preset or bench_preset()
    res = ExperimentResult(
        exp_id="fig13",
        title="Throughput vs parallelism (R/W 1:1)",
        columns=["device", "processes", "kops"],
        paper_expectation="throughput rises with threads on all devices (XPoint 35.4 -> 79.5 kop/s)",
    )
    for (device, procs), run in _parallelism_runs(preset, seed).items():
        res.add_row(device=device, processes=procs, kops=round(run.result.kops, 1))
    return res


def fig14_read_latency_32t(preset: Optional[ScalePreset] = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    preset = preset or bench_preset()
    res = ExperimentResult(
        exp_id="fig14",
        title="Read latency at 32 threads",
        columns=["device", "p50_us", "p90_us", "p99_us"],
        paper_expectation="XPoint read p90 (335 us) ~76% below SATA flash (1.4 ms)",
    )
    runs = _parallelism_runs(preset, seed)
    for device in DEVICES:
        hist = runs[(device, 32)].result.read_latency
        res.add_row(
            device=device,
            p50_us=round(hist.percentile(50) / 1e3, 1),
            p90_us=round(hist.percentile(90) / 1e3, 1),
            p99_us=round(hist.percentile(99) / 1e3, 1),
        )
    return res


def fig15_write_latency_32t(preset: Optional[ScalePreset] = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    preset = preset or bench_preset()
    res = ExperimentResult(
        exp_id="fig15",
        title="Write latency at 32 threads",
        columns=["device", "p50_us", "p90_us", "p99_us"],
        paper_expectation=(
            "inversion: XPoint write p90 (440 us) far ABOVE SATA flash (47 us) — "
            "fast reads recycle threads into the writer queue"
        ),
    )
    runs = _parallelism_runs(preset, seed)
    for device in DEVICES:
        hist = runs[(device, 32)].result.write_latency
        res.add_row(
            device=device,
            p50_us=round(hist.percentile(50) / 1e3, 1),
            p90_us=round(hist.percentile(90) / 1e3, 1),
            p99_us=round(hist.percentile(99) / 1e3, 1),
        )
    return res


def fig16_waiting_threads(preset: Optional[ScalePreset] = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    preset = preset or bench_preset()
    res = ExperimentResult(
        exp_id="fig16",
        title="Average waiting writer threads at 32 threads",
        columns=["device", "mean_waiting", "max_waiting"],
        paper_expectation="more writers queue on XPoint than on either flash SSD",
    )
    runs = _parallelism_runs(preset, seed)
    for device in DEVICES:
        pr = runs[(device, 32)]
        res.add_row(
            device=device,
            mean_waiting=round(pr.result.mean_waiting_writers, 2),
            max_waiting=round(pr.max_waiting, 0),
        )
    return res


# --------------------------------------------------------------------------
# Figure 17 — WAL on/off
# --------------------------------------------------------------------------

def fig17_wal(preset: Optional[ScalePreset] = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    preset = preset or bench_preset()
    res = ExperimentResult(
        exp_id="fig17",
        title="Write latency with and without WAL (R/W 1:9)",
        columns=["device", "wal", "write_p50_us", "write_p90_us"],
        paper_expectation="disabling the WAL cuts write p90 substantially (XPoint: 54 -> 22 us)",
    )
    grid = [
        (device, wal_mode, label)
        for device in DEVICES
        for wal_mode, label in (("buffered", "on"), ("off", "off"))
    ]
    points = [
        WorkloadPoint(
            device, preset, write_fraction=0.9, seed=seed,
            options=preset.options(wal_mode=wal_mode),
        )
        for device, wal_mode, _ in grid
    ]
    for (device, _, label), pr in zip(grid, run_points(points)):
        hist = pr.result.write_latency
        res.add_row(
            device=device,
            wal=label,
            write_p50_us=round(hist.percentile(50) / 1e3, 1),
            write_p90_us=round(hist.percentile(90) / 1e3, 1),
        )
    return res


# --------------------------------------------------------------------------
# Figure 18 — two-stage throttling under periodic write bursts
# --------------------------------------------------------------------------

def fig18_two_stage(preset: Optional[ScalePreset] = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    preset = preset or bench_preset()
    res = ExperimentResult(
        exp_id="fig18",
        title="Throughput under periodic write bursts: original vs two-stage throttling",
        columns=["controller", "mean_kops", "min_kops", "near_stop_frac", "near_stop_periods"],
        paper_expectation=(
            "original throttling shows near-stop (<10 kop/s) valleys during "
            "bursts; two-stage throttling removes them"
        ),
    )
    # Paper: R/W 1:1 with a 1:9 burst 25 s out of every 60 s, 300 s run.
    # Scaled: same duty cycle (~42%) on a shorter period.
    duration = max(3 * _duration_ns(preset), seconds(9.0))
    schedule = BurstSchedule(
        base_write_fraction=0.5,
        burst_write_fraction=0.9,
        period_ns=duration // 3,
        burst_ns=int(duration // 3 * 0.42),
    )
    labels = ("original", "two-stage")
    points = [
        WorkloadPoint(
            "xpoint",
            preset,
            write_fraction=0.5,
            seed=seed,
            duration_ns=duration,
            schedule=schedule,
            controller="" if label == "original" else "two-stage",
            warmup_fraction=0.1,
        )
        for label in labels
    ]
    for label, pr in zip(labels, run_points(points)):
        series = pr.result.timeline.series(
            start=pr.result.config.warmup_ns, end=duration
        )
        stats = throughput_variation(series)
        res.add_row(
            controller=label,
            mean_kops=round(stats["mean"] / 1e3, 1),
            min_kops=round(stats["min"] / 1e3, 1),
            near_stop_frac=round(near_stop_fraction(series), 3),
            near_stop_periods=len(near_stop_periods(series)),
        )
        res.series[label] = series
    return res


# --------------------------------------------------------------------------
# Figure 19 — dynamic Level-0 management
# --------------------------------------------------------------------------

FIG19_READ_RATIOS = (0.05, 0.5, 0.9)


def fig19_dynamic_l0(preset: Optional[ScalePreset] = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    preset = preset or bench_preset()
    res = ExperimentResult(
        exp_id="fig19",
        title="Throughput vs read ratio: default vs dynamic Level-0 management",
        columns=["read_ratio", "default_kops", "dynamic_kops", "gain_pct"],
        paper_expectation=(
            "dynamic L0 wins for read-heavy mixes (+13% at 90% reads), "
            "ties at 5% reads"
        ),
    )
    points = []
    for read_ratio in FIG19_READ_RATIOS:
        wf = 1.0 - read_ratio
        for dynamic in (False, True):
            points.append(
                WorkloadPoint(
                    "xpoint",
                    preset,
                    write_fraction=wf,
                    seed=seed,
                    options=dynamic_l0_options(preset.options()),
                    dynamic_l0=dynamic,
                )
            )
    results = run_points(points)
    for i, read_ratio in enumerate(FIG19_READ_RATIOS):
        dk = results[2 * i].result.kops
        yk = results[2 * i + 1].result.kops
        res.add_row(
            read_ratio=read_ratio,
            default_kops=round(dk, 1),
            dynamic_kops=round(yk, 1),
            gain_pct=round((yk - dk) / dk * 100 if dk else 0.0, 1),
        )
    return res


# --------------------------------------------------------------------------
# Figure 20 — logging configurations
# --------------------------------------------------------------------------

def fig20_nvm_wal(preset: Optional[ScalePreset] = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    preset = preset or bench_preset()
    res = ExperimentResult(
        exp_id="fig20",
        title="Write latency vs logging configuration (50% insertion)",
        columns=["config", "write_p50_us", "write_p90_us", "write_p99_us"],
        paper_expectation=(
            "WAL-in-NVM cuts write p90 ~18.8% vs WAL-on-SSD (16 -> 13 us); "
            "WAL-off remains the fastest"
        ),
    )
    configs = list(logging_configurations())
    points = [
        WorkloadPoint(
            "xpoint",
            preset,
            write_fraction=0.5,
            seed=seed,
            options=config.apply(preset.options()),
            wal_on_nvm=config.wal_on_nvm,
        )
        for config in configs
    ]
    for config, pr in zip(configs, run_points(points)):
        hist = pr.result.write_latency
        res.add_row(
            config=config.label,
            write_p50_us=round(hist.percentile(50) / 1e3, 1),
            write_p90_us=round(hist.percentile(90) / 1e3, 1),
            write_p99_us=round(hist.percentile(99) / 1e3, 1),
        )
    return res


# --------------------------------------------------------------------------
# Analysis #1 — the throttle model table
# --------------------------------------------------------------------------

def model_throttle(preset: Optional[ScalePreset] = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    res = ExperimentResult(
        exp_id="model1",
        title="Analysis #1: throttled application-level throughput (Eq. 2)",
        columns=["device", "lambda_s_kops", "t_us", "lambda_a_kops", "paper_kops"],
        paper_expectation="computed 2.74 kop/s (XPoint) and 1.88 kop/s (SATA)",
    )
    for row in model_table():
        res.add_row(**row)
    return res


EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig01": fig01_motivating,
    "fig03": fig03_insertion_ratio,
    "fig04": fig04_timeline_5w,
    "fig05": fig05_timeline_90w,
    "fig06": fig06_read_latency_90w,
    "fig07": fig07_write_latency_90w,
    "fig08": fig08_l0_count_vs_size,
    "fig09": fig09_throughput_vs_l0,
    "fig10": fig10_read_latency_vs_l0,
    "fig12": fig12_write_latency_vs_sst,
    "fig13": fig13_parallelism,
    "fig14": fig14_read_latency_32t,
    "fig15": fig15_write_latency_32t,
    "fig16": fig16_waiting_threads,
    "fig17": fig17_wal,
    "fig18": fig18_two_stage,
    "fig19": fig19_dynamic_l0,
    "fig20": fig20_nvm_wal,
    "model1": model_throttle,
}
