"""CLI: run a multi-tenant serving experiment.

Usage::

    python -m repro.serving                          # 2 shards, 2 tenants
    python -m repro.serving --shards 4 --tenants 8
    python -m repro.serving --shard-sweep 1,2,4 --jobs 4
    python -m repro.serving --device sata-flash --duration 1.0
    python -m repro.serving --resilient --replicas 3   # replicated tier

Every invocation prints, per sweep point, the per-tenant SLO digest
(through :func:`repro.obs.tenant_slo_digest`), per-shard engine counters
and the shared cache / write-buffer budget report, followed by a
shard-scaling table when more than one point ran.  Output is bit-identical
for any ``--jobs`` value.

``--resilient`` runs the replicated tier instead: each shard is a
leader/follower :class:`~repro.cluster.Cluster` group served through the
retrying/hedging client layer, and the report adds client-layer counters
(retries, hedges, sheds, deadline misses).  Fault injection for that tier
lives in ``python -m repro.dst --serving``; this entry point runs it
fault-free as a steady-state reference.
"""

from __future__ import annotations

import argparse

from repro.errors import run_cli
from repro.jobs import default_jobs
from repro.serving.sweep import ServingPoint, run_sweep
from repro.storage.profiles import PROFILES


def _run_resilient(args) -> int:
    from repro.serving.fleet import default_tenants
    from repro.serving.resilient import (
        ResilientServingConfig,
        ResilientServingStack,
    )

    cfg = ResilientServingConfig(
        shards=args.shards,
        replicas=args.replicas,
        device=args.device,
        seed=args.seed,
    )
    stack = ResilientServingStack(cfg)
    stack.start()
    tenants = default_tenants(
        args.tenants,
        users_per_tenant=args.users,
        key_count=args.keys,
        clients=args.clients,
    )
    workloads = stack.build_fleet(tenants)
    prefill = stack.engine.process(stack.prefill(workloads), name="prefill")
    stack.engine.run(stop=[prefill])
    if not prefill.done:
        raise RuntimeError("prefill deadlocked")
    if prefill.exception is not None:
        raise prefill.exception
    duration_ns = int(args.duration * 1e9)
    end = stack.engine.now + duration_ns
    procs = stack.spawn_fleet(workloads, end)
    for proc in procs:
        # Ends where the last client finishes: a finished one returns at once.
        stack.engine.run(stop=[proc])
        if not proc.done:
            raise RuntimeError("fleet deadlocked")
    for proc in procs:
        if proc.exception is not None:
            raise proc.exception
    result = stack.collect(workloads, duration_ns)
    stack.shutdown()
    print(result.render())
    return 0


def _parse_sweep(raw: str) -> list:
    try:
        values = [int(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sweep list: {raw!r}") from None
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"bad sweep list: {raw!r}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Multi-tenant serving experiment: N shards, shared "
        "cache + write-buffer budgets, admission control, tenant fleet",
    )
    parser.add_argument(
        "--device",
        default="xpoint",
        choices=sorted(k for k in PROFILES if k not in ("null", "nvm")),
    )
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument(
        "--resilient",
        action="store_true",
        help="run the replicated tier (shard groups behind the "
        "retry/hedge client layer) instead of the single-node stack",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=3,
        help="replicas per shard group (only with --resilient)",
    )
    parser.add_argument(
        "--shard-sweep",
        type=_parse_sweep,
        default=None,
        metavar="N,N,...",
        help="run one point per shard count (overrides --shards)",
    )
    parser.add_argument("--tenants", type=int, default=2)
    parser.add_argument(
        "--users",
        type=int,
        default=250_000,
        help="simulated users per tenant (drives the arrival rate)",
    )
    parser.add_argument("--keys", type=int, default=2_000)
    parser.add_argument("--clients", type=int, default=2)
    parser.add_argument("--duration", type=float, default=0.5, metavar="SECONDS")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cache-mb", type=float, default=1.0)
    parser.add_argument("--write-buffer-mb", type=float, default=4.0)
    parser.add_argument(
        "--jobs",
        type=int,
        default=default_jobs(),
        metavar="N",
        help="worker processes for sweep points (default: $REPRO_JOBS or 1); "
        "any value produces bit-identical output",
    )
    args = parser.parse_args(argv)
    if args.shards < 1 or args.tenants < 1:
        parser.error("--shards and --tenants must be >= 1")
    if args.resilient:
        if args.shard_sweep:
            parser.error("--resilient runs a single point, not --shard-sweep")
        return _run_resilient(args)

    shard_counts = args.shard_sweep or [args.shards]
    points = [
        ServingPoint(
            device=args.device,
            shards=shards,
            tenants=args.tenants,
            users_per_tenant=args.users,
            key_count=args.keys,
            clients=args.clients,
            duration_s=args.duration,
            seed=args.seed,
            block_cache_mb=args.cache_mb,
            write_buffer_mb=args.write_buffer_mb,
        )
        for shards in shard_counts
    ]
    report = run_sweep(points, jobs=args.jobs)
    for result in report.results:
        print(result.render())
        print()
    if len(report.results) > 1:
        print(report.scaling_table())
    return 0


if __name__ == "__main__":
    run_cli(main)
