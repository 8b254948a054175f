"""The experiment registry: every paper figure and ablation as data.

An :class:`Entry` names an experiment, the simulation points it needs for
a ``(preset, seed)``, a reducer from those points' results to rows,
series and notes, and the paper's shape as predicates over the result;
:func:`run_experiment` turns one entry into an
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
    :class:`ExperimentResult` from ``{label: run result}``.  ``shapes``
    is the paper's shape as ``(description, holds(result))`` pairs, and
    ``holds_at`` the smallest preset at which every one holds: ``tiny``
    at ``REPRO_BENCH_SECONDS=0.4``, ``small`` at 2.5.
    """

    exp_id: str
    title: str
    columns: Sequence[str]
    points: Callable[[ScalePreset, int], Dict[Any, Any]]
    reduce: Callable[[ExperimentResult, Dict[Any, Any]], None]
    expectation: str = ""
    seed: int = DEFAULT_SEED
    shapes: Sequence[tuple[str, Callable[[ExperimentResult], bool]]] = ()
    holds_at: str = "tiny"


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
    res.notes = (
        f"raw speedup {_speedup(res, 'raw'):.1f}x vs "
        f"RocksDB speedup {_speedup(res, 'rocksdb'):.1f}x"
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


# --------------------------------------------------------------------------
# Shape predicates: each reads one result and says whether a paper shape
# holds; a missing row raises, which fails the check too
# --------------------------------------------------------------------------


def _at(res: ExperimentResult, column: str, **match) -> Any:
    """``column`` of the row matching ``match``."""
    return res.row_for(**match)[column]


def _by(res: ExperimentResult, device: str, key: str) -> List[Dict[str, Any]]:
    """``device``'s rows in ascending ``key`` order."""
    return sorted((r for r in res.rows if r["device"] == device), key=lambda r: r[key])


def _trend(res: ExperimentResult, device: str, key: str, column: str) -> float:
    """``column`` at ``device``'s largest ``key`` minus at its smallest."""
    rows = _by(res, device, key)
    return rows[-1][column] - rows[0][column]


def _drop(res: ExperimentResult, device: str) -> float:
    """Fig. 9: the relative kop/s drop from ``device``'s fewest L0 files to its most."""
    rows = _by(res, device, "avg_l0_files")
    return (rows[0]["kops"] - rows[-1]["kops"]) / max(rows[0]["kops"], 1e-9)


def _speedup(res: ExperimentResult, system: str) -> float:
    """Fig. 1: ``system``'s XPoint kop/s over its SATA flash kop/s."""
    return _at(res, "kops", system=system, device="xpoint") / max(
        1e-9, _at(res, "kops", system=system, device="sata-flash")
    )


def _wf(res: ExperimentResult, device: str, write_fraction: float) -> float:
    """Fig. 3: ``device``'s kop/s at ``write_fraction``."""
    return _at(res, "kops", device=device, write_fraction=write_fraction)


def _wal_per_kops(res: ExperimentResult, compression: str) -> float:
    """ablation-walz: log MB written per kop/s of throughput."""
    return _at(res, "wal_mb", compression=compression) / max(
        _at(res, "kops", compression=compression), 1e-9
    )


def _within(factor: float, a: float, b: float) -> bool:
    return max(a, b) < factor * min(a, b)


def _every_device(holds: Callable[[ExperimentResult, str], bool]):
    return lambda res: all(holds(res, device) for device in DEVICES)


_AT_90W = _per_device(write_fraction=0.9)
_AT_32T = _per_device(write_fraction=0.5, processes=32)
_TIMELINE = ("device", "mean_kops", "min_kops", "max_kops", "cov", "near_stop_frac")
_LATENCY = ("device", "p50_us", "p90_us", "p99_us")
_BY_L0 = ("device", "avg_l0_files")

FIGURES: Dict[str, Entry] = {e.exp_id: e for e in (
    Entry("fig01", "Motivating example: raw device vs RocksDB throughput (R/W 1:1, 8 threads)",
          ("system", "device", "kops"), _fig01_points, _fig01_reduce,
          "raw: 26 -> 408 kop/s (15.7x); RocksDB: 13 -> 23 kop/s (+77%) — "
          "the raw speedup dwarfs the end-to-end speedup",
          shapes=(
              ("raw SATA flash at 15-40 kop/s (paper: 26)",
               lambda res: 15 < _at(res, "kops", system="raw", device="sata-flash") < 40),
              ("raw XPoint at 280-550 kop/s (paper: 408)",
               lambda res: 280 < _at(res, "kops", system="raw", device="xpoint") < 550),
              ("raw speedup above 10x (paper: 15.7x)", lambda res: _speedup(res, "raw") > 10),
              ("end-to-end speedup below half the raw one",
               lambda res: _speedup(res, "rocksdb") < _speedup(res, "raw") / 2),
          )),
    Entry("fig03", "Throughput vs insertion ratio (4 processes)",
          ("device", "write_fraction", "kops"),
          lambda preset, seed: {(d, wf): WorkloadPoint(d, preset, wf, seed=seed)
                                for d in DEVICES for wf in FIG3_RATIOS},
          _per_run(lambda key, run: dict(device=key[0], write_fraction=key[1], kops=_kops(run))),
          "flash rises with insertion ratio (PCIe 32 -> 41.3 kop/s); "
          "XPoint falls (115 -> 45 kop/s) and converges toward PCIe flash",
          shapes=(
              ("XPoint at 0% writes above 1.5x XPoint at 100% (paper: 115 -> 45 kop/s)",
               lambda res: _wf(res, "xpoint", 0.0) > 1.5 * _wf(res, "xpoint", 1.0)),
              ("PCIe flash ends above where it starts (paper: 32 -> 41.3 kop/s)",
               lambda res: _wf(res, "pcie-flash", 1.0) > _wf(res, "pcie-flash", 0.0)),
              ("SATA flash ends above where it starts",
               lambda res: _wf(res, "sata-flash", 1.0) > _wf(res, "sata-flash", 0.0)),
              ("at 0% writes XPoint above 2.5x PCIe flash, PCIe above 0.9x SATA flash",
               lambda res: _wf(res, "xpoint", 0.0) > 2.5 * _wf(res, "pcie-flash", 0.0)
               > 2.5 * 0.9 * _wf(res, "sata-flash", 0.0)),
              ("at 100% writes XPoint within 35% of PCIe flash (paper: 45 vs 41.3 kop/s)",
               lambda res: abs(_wf(res, "xpoint", 1.0) - _wf(res, "pcie-flash", 1.0))
               < 0.35 * _wf(res, "pcie-flash", 1.0)),
          ),
          holds_at="small"),
    Entry("fig04", "Throughput timeline (5% write)", _TIMELINE,
          _timelines(0.05), _timeline_reduce,
          "low variation on all devices; no near-stop periods",
          shapes=(
              ("no device near-stopped over 5% of the run",
               lambda res: all(row["near_stop_frac"] <= 0.05 for row in res.rows)),
              ("every device makes progress",
               lambda res: all(row["mean_kops"] > 0 for row in res.rows)),
          ),
          holds_at="small"),
    Entry("fig05", "Throughput timeline (90% write)", _TIMELINE,
          _timelines(0.9), _timeline_reduce,
          "XPoint oscillates between bursts (169 kop/s) and near-stop valleys (3 kop/s)",
          shapes=(
              ("XPoint's peak above 3x its valley (paper: 169 vs 3 kop/s)",
               lambda res: _at(res, "max_kops", device="xpoint")
               > 3 * max(_at(res, "min_kops", device="xpoint"), 1.0)),
              ("XPoint's throughput CoV above 0.25",
               lambda res: _at(res, "cov", device="xpoint") > 0.25),
              ("XPoint's valley below its mean",
               lambda res: _at(res, "min_kops", device="xpoint")
               < _at(res, "mean_kops", device="xpoint")),
          ),
          holds_at="small"),
    Entry("fig06", "Read latency at 90% write", _LATENCY, _AT_90W, _latency("read_latency"),
          "read p90: XPoint 251 us vs SATA flash 839 us (XPoint ~3x shorter)",
          shapes=(
              ("read p90: XPoint < PCIe flash < SATA flash",
               lambda res: _at(res, "p90_us", device="xpoint")
               < _at(res, "p90_us", device="pcie-flash")
               < _at(res, "p90_us", device="sata-flash")),
              ("SATA flash read p90 above 2x XPoint's (paper: 839 vs 251 us)",
               lambda res: _at(res, "p90_us", device="sata-flash")
               > 2 * _at(res, "p90_us", device="xpoint")),
              ("p50 <= p90 <= p99 on every device",
               lambda res: all(r["p50_us"] <= r["p90_us"] <= r["p99_us"] for r in res.rows)),
          )),
    Entry("fig07", "Write latency at 90% write", _LATENCY, _AT_90W, _latency("write_latency"),
          "write p90 similar across devices (XPoint 26 us vs SATA 28 us)",
          shapes=(
              # Writes land in the memtable, so the device matters far less
              # than for reads.
              ("write p90 of XPoint and SATA flash within 3x of each other",
               lambda res: _within(3, _at(res, "p90_us", device="xpoint"),
                                   _at(res, "p90_us", device="sata-flash"))),
          )),
    Entry("fig08", "Number of Level-0 files vs Level-0 file size (R/W 1:1)",
          ("device", "file_size_mb", "avg_l0_files", "max_l0_files"), _l0_sweep,
          _per_run(lambda key, run: dict(device=key[0], file_size_mb=key[1],
                                         avg_l0_files=_avg_l0(run),
                                         max_l0_files=run.result.l0_max)),
          "larger Level-0 files -> fewer Level-0 files",
          shapes=(
              ("the largest L0 files give fewer L0 files than the smallest, on every device",
               _every_device(lambda res, d: _trend(res, d, "file_size_mb", "avg_l0_files") < 0)),
          )),
    Entry("fig09", "Throughput vs number of Level-0 files",
          ("device", "avg_l0_files", "kops"), _l0_sweep,
          _per_run(lambda key, run: dict(device=key[0], avg_l0_files=_avg_l0(run),
                                         kops=_kops(run)), sort_by=_BY_L0),
          "more L0 files -> lower throughput; relative drop larger on XPoint "
          "(-19.9% from 2 to 8 files) than PCIe flash (-12.3%)",
          shapes=(
              ("XPoint: most L0 files, lowest throughput", lambda res: _drop(res, "xpoint") > 0),
              ("the relative drop is larger on XPoint than on PCIe flash",
               lambda res: _drop(res, "xpoint") > _drop(res, "pcie-flash")),
          )),
    Entry("fig10", "Read tail latency vs number of Level-0 files",
          ("device", "avg_l0_files", "read_p90_us"), _l0_sweep,
          _per_run(lambda key, run: dict(device=key[0], avg_l0_files=_avg_l0(run),
                                         read_p90_us=_us(run.result.read_latency, 90)),
                   sort_by=_BY_L0),
          "fewer L0 files -> shorter read tails (XPoint: 134 us @8 -> 101 us @2)",
          shapes=(
              ("XPoint: fewest L0 files, shortest read p90",
               lambda res: _trend(res, "xpoint", "avg_l0_files", "read_p90_us") > 0),
          )),
    Entry("fig12", "Write tail latency vs SST/memtable size (R/W 1:1)",
          ("device", "file_size_mb", "write_p50_us", "write_p90_us"), _l0_sweep,
          _per_run(lambda key, run: dict(device=key[0], file_size_mb=key[1],
                                         **_pcts(run.result.write_latency, "write_", (50, 90))),
                   sort_by=("device", "file_size_mb")),
          "write p90 grows with memtable size (SATA: 25 -> 31 us from 64 to "
          "256 MB) — O(log N) skiplist insertion",
          shapes=(
              ("write p50 grows with memtable size on every device",
               _every_device(lambda res, d: _trend(res, d, "file_size_mb", "write_p50_us") > 0)),
              # Flash tails are device noise at this scale; on XPoint the
              # software cost surfaces, which is the paper's point.
              ("XPoint write p90 grows with memtable size",
               lambda res: _trend(res, "xpoint", "file_size_mb", "write_p90_us") > 0),
          )),
    Entry("fig13", "Throughput vs parallelism (R/W 1:1)", ("device", "processes", "kops"),
          lambda preset, seed: {(d, procs): WorkloadPoint(d, preset, 0.5, processes=procs,
                                                          seed=seed)
                                for d in DEVICES for procs in PARALLELISM_LEVELS},
          _per_run(lambda key, run: dict(device=key[0], processes=key[1], kops=_kops(run))),
          "throughput rises with threads on all devices (XPoint 35.4 -> 79.5 kop/s)",
          shapes=(
              ("32 processes above 1.4x one process, on every device",
               _every_device(lambda res, d: _at(res, "kops", device=d, processes=32)
                             > 1.4 * _at(res, "kops", device=d, processes=1))),
              # At 32 processes PCIe flash passes XPoint at small (74.3 vs 65.6 kop/s).
              ("XPoint > PCIe flash > SATA flash at 1, 2 and 8 processes",
               lambda res: all(_at(res, "kops", device="xpoint", processes=n)
                               > _at(res, "kops", device="pcie-flash", processes=n)
                               > _at(res, "kops", device="sata-flash", processes=n)
                               for n in PARALLELISM_LEVELS[:-1])),
          )),
    Entry("fig14", "Read latency at 32 threads", _LATENCY, _AT_32T, _latency("read_latency"),
          "XPoint read p90 (335 us) ~76% below SATA flash (1.4 ms)",
          shapes=(
              ("XPoint read p90 below 0.6x SATA flash's",
               lambda res: _at(res, "p90_us", device="xpoint")
               < 0.6 * _at(res, "p90_us", device="sata-flash")),
          )),
    Entry("fig15", "Write latency at 32 threads", _LATENCY, _AT_32T, _latency("write_latency"),
          "inversion: XPoint write p90 (440 us) far ABOVE SATA flash (47 us) — "
          "fast reads recycle threads into the writer queue",
          # Here the stalls concentrate in the extreme tail: XPoint keeps the
          # fastest median while its p99 falls into SATA's multi-ms class.
          shapes=(
              ("XPoint's write p50 below SATA flash's",
               lambda res: _at(res, "p50_us", device="xpoint")
               < _at(res, "p50_us", device="sata-flash")),
              ("XPoint's write p99 above 20x its p50 (throttling and queue stalls)",
               lambda res: _at(res, "p99_us", device="xpoint")
               > 20 * _at(res, "p50_us", device="xpoint")),
              ("XPoint's write p99 above 0.2x SATA flash's: write tails are software-bound",
               lambda res: _at(res, "p99_us", device="xpoint")
               > 0.2 * _at(res, "p99_us", device="sata-flash")),
          ),
          holds_at="small"),
    Entry("fig16", "Average waiting writer threads at 32 threads",
          ("device", "mean_waiting", "max_waiting"), _AT_32T,
          _per_run(lambda device, run: dict(
              device=device, mean_waiting=round(run.result.mean_waiting_writers, 2),
              max_waiting=round(run.max_waiting, 0))),
          "more writers queue on XPoint than on either flash SSD",
          shapes=(
              ("XPoint has at least SATA flash's waiting writers",
               lambda res: _at(res, "mean_waiting", device="xpoint")
               >= _at(res, "mean_waiting", device="sata-flash")),
              ("XPoint has at least 0.9x PCIe flash's waiting writers",
               lambda res: _at(res, "mean_waiting", device="xpoint")
               >= 0.9 * _at(res, "mean_waiting", device="pcie-flash")),
          )),
    Entry("fig17", "Write latency with and without WAL (R/W 1:9)",
          ("device", "wal", "write_p50_us", "write_p90_us"),
          lambda preset, seed: {
              (d, label): WorkloadPoint(d, preset, 0.9, seed=seed,
                                        options=preset.options(wal_mode=mode))
              for d in DEVICES for mode, label in (("buffered", "on"), ("off", "off"))},
          _per_run(lambda key, run: dict(device=key[0], wal=key[1],
                                         **_pcts(run.result.write_latency, "write_", (50, 90)))),
          "disabling the WAL cuts write p90 substantially (XPoint: 54 -> 22 us)",
          shapes=(
              ("WAL off cuts write p90 on every device",
               _every_device(lambda res, d: _at(res, "write_p90_us", device=d, wal="off")
                             < _at(res, "write_p90_us", device=d, wal="on"))),
              ("WAL off cuts XPoint's write p90 by over 15%",
               lambda res: _at(res, "write_p90_us", device="xpoint", wal="off")
               < 0.85 * _at(res, "write_p90_us", device="xpoint", wal="on")),
          )),
    Entry("fig18", "Throughput under periodic write bursts: original vs two-stage throttling",
          ("controller", "mean_kops", "min_kops", "near_stop_frac", "near_stop_periods"),
          _fig18_points, _fig18_reduce,
          "original throttling shows near-stop (<10 kop/s) valleys during "
          "bursts; two-stage throttling removes them",
          # At tiny the bursts reach only memtable stops, which both
          # controllers handle alike: the two rows are equal.
          shapes=(
              ("the original controller dips into near-stop valleys",
               lambda res: _at(res, "near_stop_periods", controller="original") > 0),
              ("two-stage spends less time near-stopped than the original",
               lambda res: _at(res, "near_stop_frac", controller="two-stage")
               < _at(res, "near_stop_frac", controller="original")),
              ("two-stage's throughput floor at least the original's",
               lambda res: _at(res, "min_kops", controller="two-stage")
               >= _at(res, "min_kops", controller="original")),
              ("two-stage's mean throughput above 0.85x the original's",
               lambda res: _at(res, "mean_kops", controller="two-stage")
               > 0.85 * _at(res, "mean_kops", controller="original")),
          ),
          holds_at="small"),
    Entry("fig19", "Throughput vs read ratio: default vs dynamic Level-0 management",
          ("read_ratio", "default_kops", "dynamic_kops", "gain_pct"),
          _fig19_points, _fig19_reduce,
          "dynamic L0 wins for read-heavy mixes (+13% at 90% reads), ties at 5% reads",
          shapes=(
              ("dynamic L0 wins at 90% reads (paper: +13%)",
               lambda res: _at(res, "dynamic_kops", read_ratio=0.9)
               > _at(res, "default_kops", read_ratio=0.9)),
              ("dynamic L0 within 10% of the default at 5% reads",
               lambda res: abs(_at(res, "gain_pct", read_ratio=0.05)) < 10),
          ),
          holds_at="small"),
    Entry("fig20", "Write latency vs logging configuration (50% insertion)",
          ("config", "write_p50_us", "write_p90_us", "write_p99_us"), _fig20_points,
          _per_run(lambda label, run: dict(config=label,
                                           **_pcts(run.result.write_latency, "write_"))),
          "WAL-in-NVM cuts write p90 ~18.8% vs WAL-on-SSD (16 -> 13 us); "
          "WAL-off remains the fastest",
          shapes=(
              ("WAL in NVM: write p90 below WAL on SSD",
               lambda res: _at(res, "write_p90_us", config="wal-nvm")
               < _at(res, "write_p90_us", config="wal-ssd")),
              ("WAL off: write p90 below WAL in NVM",
               lambda res: _at(res, "write_p90_us", config="wal-off")
               < _at(res, "write_p90_us", config="wal-nvm")),
              ("WAL in NVM cuts write p90 by 5-60% (paper: 18.8%)",
               lambda res: 0.05 < 1 - _at(res, "write_p90_us", config="wal-nvm")
               / _at(res, "write_p90_us", config="wal-ssd") < 0.6),
          )),
    Entry("model1", "Analysis #1: throttled application-level throughput (Eq. 2)",
          ("device", "lambda_s_kops", "t_us", "lambda_a_kops", "paper_kops"),
          lambda preset, seed: {}, _model1_reduce,
          "computed 2.74 kop/s (XPoint) and 1.88 kop/s (SATA)",
          shapes=(
              ("XPoint at 2.74 kop/s",
               lambda res: abs(_at(res, "lambda_a_kops", device="xpoint") - 2.74) <= 0.01),
              ("SATA flash at 1.88 kop/s",
               lambda res: abs(_at(res, "lambda_a_kops", device="sata-flash") - 1.88) <= 0.01),
          )),
    # Section VI implications (and Finding #2's corollary) the paper
    # proposes without evaluating; built and measured here.
    Entry("ablation-bloom", "Bloom filters vs L0 query overhead (3D XPoint, R/W 1:1)",
          ("bloom_bits", "kops", "read_p90_us", "dev_reads_per_get"),
          _option_sweep("xpoint", 0.5, "bloom_bits_per_key", (0, 10)),
          _per_run(lambda bits, run: dict(
              bloom_bits=bits, kops=_kops(run), read_p90_us=_us(run.result.read_latency, 90),
              dev_reads_per_get=_reads_per_get(run))),
          "with bloom filters the per-L0-file search cost mostly vanishes",
          seed=ABLATION_SEED,
          shapes=(
              ("filters cut device reads per GET by over a quarter",
               lambda res: _at(res, "dev_reads_per_get", bloom_bits=10)
               < 0.75 * _at(res, "dev_reads_per_get", bloom_bits=0)),
              ("filters cost under 5% of throughput",
               lambda res: _at(res, "kops", bloom_bits=10)
               >= 0.95 * _at(res, "kops", bloom_bits=0)),
          )),
    Entry("ablation-walz", "WAL compression (3D XPoint, 90% insertion)",
          ("compression", "kops", "write_p90_us", "wal_mb"),
          _option_sweep("xpoint", 0.9, "wal_compression", (False, True)),
          _per_run(lambda compressed, run: dict(
              compression="on" if compressed else "off", kops=_kops(run),
              write_p90_us=_us(run.result.write_latency, 90),
              wal_mb=round(run.wal_bytes / 2**20, 1))),
          "Section VI: compressing the log trades CPU for log I/O traffic",
          seed=ABLATION_SEED,
          shapes=(
              ("compression cuts log bytes per op by over 20%",
               lambda res: _wal_per_kops(res, "on") < 0.8 * _wal_per_kops(res, "off")),
          )),
    Entry("ablation-wq", "Write-queue sharding at 32 threads (3D XPoint, R/W 1:1)",
          ("queues", "kops", "write_p90_us", "mean_waiting"),
          _option_sweep("xpoint", 0.5, "write_queue_shards", (1, 4), processes=32),
          _per_run(lambda shards, run: dict(
              queues=shards, kops=_kops(run), write_p90_us=_us(run.result.write_latency, 90),
              mean_waiting=round(run.result.mean_waiting_writers, 2))),
          "Section VI: more queues -> more overlap, shorter writer waits",
          seed=ABLATION_SEED,
          shapes=(
              ("four queues keep over 0.8x one queue's throughput",
               lambda res: _at(res, "kops", queues=4) > 0.8 * _at(res, "kops", queues=1)),
              ("four queues: at most 1.1x one queue's waiting writers",
               lambda res: _at(res, "mean_waiting", queues=4)
               <= 1.1 * _at(res, "mean_waiting", queues=1)),
          )),
    Entry("ablation-ratelimit", "Background I/O rate limiter (SATA flash, R/W 1:1)",
          ("limit_mb_s", "kops", "read_p90_us", "write_p90_us"),
          _option_sweep("sata-flash", 0.5, "rate_limit_bytes_per_sec", (0, 8 * mb(1))),
          _per_run(lambda limit, run: dict(
              limit_mb_s=limit // mb(1) if limit else "off", kops=_kops(run),
              read_p90_us=_us(run.result.read_latency, 90),
              write_p90_us=_us(run.result.write_latency, 90))),
          "throttling background I/O shortens foreground read tails at "
          "some cost in sustained write throughput",
          seed=ABLATION_SEED,
          shapes=(
              ("limited: read p90 at most 1.1x unlimited's",
               lambda res: _at(res, "read_p90_us", limit_mb_s=8)
               <= 1.1 * _at(res, "read_p90_us", limit_mb_s="off")),
              ("limited: throughput above 0.5x unlimited's",
               lambda res: _at(res, "kops", limit_mb_s=8)
               > 0.5 * _at(res, "kops", limit_mb_s="off")),
          )),
)}
