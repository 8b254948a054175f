"""Tenant-scale sweeps fanned across cores (``--jobs``).

A serving sweep point — (device, shard count, fleet shape, seed) — builds
its own engine, machine and RNG universe from scratch, exactly like the
harness figure sweeps, so points are embarrassingly parallel.  Points are
plain picklable dataclasses, the worker is a module-level callable, and
results merge in point order: :func:`repro.jobs.map_points`
therefore guarantees ``--jobs N`` output is bit-identical to serial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.jobs import map_points
from repro.serving.fleet import default_tenants
from repro.serving.stack import ServingConfig, ServingResult, ServingStack
from repro.sim.units import mb, seconds


@dataclass(frozen=True)
class ServingPoint:
    """One independent serving sweep point — picklable."""

    device: str = "xpoint"
    shards: int = 2
    tenants: int = 2
    users_per_tenant: int = 250_000
    key_count: int = 2_000
    clients: int = 2
    duration_s: float = 0.5
    seed: int = 1
    block_cache_mb: float = 1.0
    write_buffer_mb: float = 4.0


def run_serving_point(point: ServingPoint) -> ServingResult:
    """Execute one sweep point (runs inside a worker under ``--jobs``)."""
    config = ServingConfig(
        shards=point.shards,
        device=point.device,
        seed=point.seed,
        block_cache_bytes=mb(point.block_cache_mb),
        write_buffer_budget=mb(point.write_buffer_mb),
    )
    stack = ServingStack(config)
    tenants = default_tenants(
        point.tenants,
        users_per_tenant=point.users_per_tenant,
        key_count=point.key_count,
        clients=point.clients,
    )
    return stack.run_fleet(tenants, duration_ns=seconds(point.duration_s))


@dataclass
class SweepReport:
    """Results of a multi-point serving sweep, in point order."""

    points: List[ServingPoint]
    results: List[ServingResult] = field(default_factory=list)

    def scaling_table(self) -> str:
        """Shard-scaling digest: per-device aggregate kops and worst p99."""
        lines = ["shard scaling (aggregate kops | worst tenant p99):"]
        by_device: Dict[str, List[ServingResult]] = {}
        for result in self.results:
            by_device.setdefault(result.device, []).append(result)
        for device in sorted(by_device):
            for result in by_device[device]:
                worst = max(
                    (float(r["p99_us"]) for r in result.tenant_rows),
                    default=0.0,
                )
                slo_met = sum(
                    1
                    for r in result.tenant_rows
                    if float(r["p99_us"]) <= float(r["slo_p99_us"])
                )
                lines.append(
                    f"  {device} x{result.shards} shard(s): "
                    f"{result.kops:.2f} kops | worst p99 {worst:.1f}us | "
                    f"SLO {slo_met}/{len(result.tenant_rows)}"
                )
        return "\n".join(lines)


def run_sweep(points: List[ServingPoint], jobs: int = 1) -> SweepReport:
    """Run every point (fanning across ``jobs`` workers) in point order."""
    results = map_points(run_serving_point, points, jobs=jobs)
    return SweepReport(points=points, results=results)
