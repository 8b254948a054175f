"""Cells of the experiment matrix: one scenario type, one cell type, one runner.

A :class:`Cell` is one grid point — a device, a workload and a named
:class:`Scenario` — and builds a complete universe from scratch when it
runs.  A YCSB cell builds one
:class:`~repro.harness.machine.Machine` with a fault injector (even when
the schedule is empty, so clean and degraded cells run the *same* code
path) and a prefilled DB, then drives its mix for the matrix preset's
duration.  A ``serving`` cell runs the replicated serving tier through the
:class:`~repro.dst.ServingDstRun` chaos harness, so it also enforces the
no-loss / read-your-writes / no-hang invariants.  Nothing is shared
between cells and a cell's RNG stream names only its device, workload and
scenario, so equal cells in two tables are one run (the harness memo sees
to that) and results are bit-identical for any ``--jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.dst.serving import ServingDstConfig, ServingDstRun
from repro.errors import WorkloadError
from repro.faults import (
    CRASH,
    LATENCY_SPIKE,
    PARTITION,
    STALL,
    FaultSchedule,
    FaultSpec,
)
from repro.harness.machine import Machine
from repro.harness.presets import TINY, ScalePreset
from repro.sim.engine import Engine
from repro.sim.rng import RandomStream
from repro.sim.units import ms, seconds, us
from repro.storage.profiles import profile_by_name
from repro.workloads.prefill import prefill
from repro.workloads.ycsb import MATRIX_WORKLOADS, YcsbRunner

#: One fixed seed for every cell: the matrix is a regression surface,
#: not a sweep, so one deterministic universe per cell is the point.
MATRIX_SEED = 1

#: The matrix runs at a reduced copy of the ``tiny`` preset: same data
#: shape and cache ratios, shorter horizon (cells are grid points, not
#: timelines — a few flush/compaction cycles suffice).
MATRIX_PRESET: ScalePreset = ScalePreset(
    name="matrix",
    key_count=TINY.key_count,
    value_size=TINY.value_size,
    duration_ns=seconds(0.4),
    processes=TINY.processes,
    write_buffer_size=TINY.write_buffer_size,
    max_bytes_for_level_base=TINY.max_bytes_for_level_base,
    target_file_size_base=TINY.target_file_size_base,
    page_cache_bytes=TINY.page_cache_bytes,
    block_cache_bytes=TINY.block_cache_bytes,
)

#: The workload of a serving-tier cell: the replicated tenant fleet of
#: ``python -m repro.dst --serving``.
SERVING = "serving"

#: Device-path degradations, for YCSB cells.  Only non-error kinds: the
#: YCSB clients model the paper's measurement path, which never sees I/O
#: *errors* — error storms belong to the DST/fuzz harnesses.
DEVICE_KINDS = (LATENCY_SPIKE, STALL)
#: What happens to shard group 0's initial leader, for serving cells.
NODE_KINDS = (CRASH, PARTITION)


@dataclass(frozen=True)
class Scenario:
    """One named fault scenario, its window a fraction pair of the cell's
    duration.

    ``kind`` is ``""`` (fault-free), a device-path degradation (every op
    inside the window pays ``extra_ns``), or a fault of global node 0: a
    crash at the window start (the harness draws the deterministic
    restart) or a partition isolating it for the window.
    """

    name: str
    label: str
    kind: str = ""
    window: Tuple[float, float] = (0.0, 0.0)
    extra_ns: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("",) + DEVICE_KINDS + NODE_KINDS:
            raise WorkloadError(
                f"scenario {self.name!r}: kind must be clean or one of "
                f"{DEVICE_KINDS + NODE_KINDS}, got {self.kind!r}"
            )
        lo, hi = self.window
        if self.kind and not 0.0 <= lo < hi <= 1.0:
            raise WorkloadError(
                f"scenario {self.name!r}: window {self.window} is not a "
                "fraction interval"
            )
        if self.kind in DEVICE_KINDS and self.extra_ns <= 0:
            raise WorkloadError(f"scenario {self.name!r} needs extra_ns > 0")

    def schedule(self, duration_ns: int) -> FaultSchedule:
        """The concrete schedule for one cell of ``duration_ns``."""
        lo, hi = self.window
        at, until = int(duration_ns * lo), int(duration_ns * hi)
        if not self.kind:
            return FaultSchedule()
        if self.kind == CRASH:
            spec = FaultSpec(CRASH, at_time=at, node=0)
        elif self.kind == PARTITION:
            spec = FaultSpec(PARTITION, at_time=at, until_time=until, nodes=(0,))
        else:  # every matching op inside the window
            spec = FaultSpec(
                self.kind, at_time=at, until_time=until, count=10**9,
                extra_ns=self.extra_ns,
            )
        return FaultSchedule([spec])


SCENARIOS: Dict[str, Scenario] = {s.name: s for s in (
    Scenario("clean", "clean"),
    Scenario(
        "io-spikes", "latency spikes (+400 µs, 30–70 %)",
        kind=LATENCY_SPIKE, window=(0.30, 0.70), extra_ns=us(400),
    ),
    Scenario(
        "stalls", "I/O stalls (+4 ms, 30–70 %)",
        kind=STALL, window=(0.30, 0.70), extra_ns=ms(4),
    ),
    Scenario("steady", "steady state"),
    Scenario("leader-crash", "leader crash (at 40 %)", kind=CRASH, window=(0.40, 1.0)),
    Scenario(
        "leader-partition", "leader partitioned (30–60 %)",
        kind=PARTITION, window=(0.30, 0.60),
    ),
)}


@dataclass(frozen=True)
class Cell:
    """One grid point: a device, a workload (a YCSB mix or ``serving``) and
    a scenario name."""

    device: str
    workload: str
    scenario: str

    def __post_init__(self) -> None:
        if self.workload != SERVING and self.workload not in MATRIX_WORKLOADS:
            raise WorkloadError(
                f"unknown matrix workload {self.workload!r} "
                f"(choose from {sorted(MATRIX_WORKLOADS) + [SERVING]})"
            )
        if self.scenario not in SCENARIOS:
            raise WorkloadError(
                f"unknown scenario {self.scenario!r} (choose from {sorted(SCENARIOS)})"
            )
        kind = SCENARIOS[self.scenario].kind
        if kind and (kind in NODE_KINDS) != (self.workload == SERVING):
            raise WorkloadError(
                f"scenario {self.scenario!r} does not apply to workload "
                f"{self.workload!r}"
            )

    def run(self) -> Dict[str, float]:
        """Execute the cell in a fresh universe (the worker function)."""
        scenario = SCENARIOS[self.scenario]
        if self.workload == SERVING:
            return _run_serving(self.device, scenario)
        preset = MATRIX_PRESET
        schedule = scenario.schedule(preset.duration_ns)

        rng = RandomStream(
            MATRIX_SEED, f"matrix/{self.device}/{self.workload}/{self.scenario}"
        )
        machine = Machine.build(
            Engine(), rng, profile_by_name(self.device), preset.page_cache_bytes,
            schedule=schedule,
        )
        db = machine.open_db(preset.options())
        prefill(db, preset.prefill_spec())

        runner = YcsbRunner(
            MATRIX_WORKLOADS[self.workload],
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
            "faults": float(len(machine.injector.log)),
        }


def _run_serving(device: str, scenario: Scenario) -> Dict[str, float]:
    """A serving cell: the tenant fleet under the scenario's explicit
    schedule, through the chaos DST harness.

    The harness's verdict is part of the contract: a cell whose run loses
    an acked write, violates read-your-writes or leaves an op hanging
    fails the whole table regeneration rather than rendering a bad number.
    """
    schedule = scenario.schedule(ServingDstConfig().duration_ns)
    result = ServingDstRun(
        MATRIX_SEED, ServingDstConfig(device=device, schedule=schedule)
    ).run()
    if not result.ok:
        raise WorkloadError(
            f"serving cell {device}/{scenario.name} failed the DST "
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
