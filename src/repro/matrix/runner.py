"""Cell execution for the experiment matrix.

Each cell builds a complete universe from scratch — engine, device (a
:class:`~repro.faults.device.FaultyDevice` even when the schedule is
empty, so clean and degraded cells run the *same* code path), page
cache, filesystem, prefilled DB — then drives the cell's YCSB mix for
the matrix preset's duration and reports throughput and latency
percentiles.  ``run_cells`` fans cells out over
:func:`~repro.jobs.map_points`; because nothing is shared
between cells, results are bit-identical for any jobs value.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.dst.serving import ServingDstConfig, ServingDstRun
from repro.errors import WorkloadError
from repro.faults.device import FaultyDevice
from repro.faults.injector import FaultInjector
from repro.fs.filesystem import SimFileSystem
from repro.fs.page_cache import PageCache
from repro.jobs import map_points
from repro.lsm.db import DB
from repro.matrix.registry import (
    MATRIX_PRESET,
    MATRIX_SEED,
    CellSpec,
    SCENARIOS,
    SERVING_SCENARIOS,
    ServingCellSpec,
)
from repro.sim.engine import Engine
from repro.sim.rng import RandomStream
from repro.storage.profiles import profile_by_name
from repro.workloads.prefill import prefill
from repro.workloads.ycsb import MATRIX_WORKLOADS, YcsbRunner

#: The metric keys every cell reports, in render order.
CELL_METRICS = ("kops", "p50_us", "p99_us", "faults")

#: The metric keys every serving-tier cell reports.
SERVING_CELL_METRICS = (
    "kops",
    "p99_us",
    "slo_met",
    "tenants",
    "shed",
    "failovers",
)


def run_serving_cell(cell: ServingCellSpec) -> Dict[str, float]:
    """Execute one serving-tier cell through the chaos DST harness.

    The harness's verdict is part of the contract: a cell whose run
    loses an acked write, violates read-your-writes or leaves an op
    hanging fails the whole table regeneration rather than rendering
    a bad number.
    """
    scenario = SERVING_SCENARIOS[cell.scenario]
    duration_ns = ServingDstConfig().duration_ns
    schedule = scenario.schedule(duration_ns)
    result = ServingDstRun(
        MATRIX_SEED,
        ServingDstConfig(
            device=cell.device,
            schedule=schedule,
            faults=schedule is not None,
        ),
    ).run()
    if not result.ok:
        raise WorkloadError(
            f"serving cell {cell.device}/{cell.scenario} failed the DST "
            f"contract: {result.reason}"
        )
    rows = result.tenant_rows
    active = [r for r in rows if int(r["ops"]) > 0]
    met = sum(1 for r in active if r["p99_us"] <= r["slo_p99_us"])
    worst = max((float(r["p99_us"]) for r in active), default=0.0)
    return {
        "kops": round(sum(float(r["kops"]) for r in rows), 2),
        "p99_us": round(worst, 1),
        "slo_met": float(met),
        "tenants": float(len(active)),
        "shed": float(result.shed),
        "failovers": float(result.failovers),
    }


def run_cell(cell) -> Dict[str, float]:
    """Execute one grid cell in a fresh universe; the worker function."""
    if isinstance(cell, ServingCellSpec):
        return run_serving_cell(cell)
    preset = MATRIX_PRESET
    scenario = SCENARIOS[cell.scenario]
    schedule = scenario.schedule(preset.duration_ns)

    engine = Engine()
    rng = RandomStream(
        MATRIX_SEED, f"matrix/{cell.device}/{cell.workload}/{cell.scenario}"
    )
    injector = FaultInjector(engine, schedule)
    device = FaultyDevice(
        engine, profile_by_name(cell.device), injector, rng.fork("device")
    )
    fs = SimFileSystem(engine, device, PageCache(preset.page_cache_bytes))
    db = DB(engine, fs, preset.options(), rng=rng.fork("db"))
    prefill(db, preset.prefill_spec())

    runner = YcsbRunner(
        MATRIX_WORKLOADS[cell.workload],
        key_count=preset.key_count,
        value_size=preset.value_size,
        clients=preset.processes,
        duration_ns=preset.duration_ns,
        seed=MATRIX_SEED,
    )
    result = runner.run(db)
    return {
        "kops": round(result.kops, 1),
        "p50_us": round(result.latency.percentile(50) / 1e3, 1),
        "p99_us": round(result.latency.percentile(99) / 1e3, 1),
        "faults": float(len(injector.log)),
    }


def run_cells(cells: Sequence[CellSpec], jobs: int = 1) -> List[Dict[str, float]]:
    """Run cells (optionally in worker processes), results in cell order."""
    return map_points(run_cell, list(cells), jobs)
