"""Serving DST: chaos injected *while* the tenant fleet is running.

The cluster DST (:mod:`repro.dst.cluster`) proves the replication layer's
contract for one sequential client; this harness proves the *serving*
contract of :mod:`repro.serving.resilient` for a whole tenant fleet under
live chaos — leader crashes, partitions, io storms and quota squeezes
landing mid-traffic, not between runs:

S1  No acked tenant write is lost: after settle, every audited key's
    replicated value is its highest-acked write or a later indeterminate
    attempt (:meth:`ResilientServingStack.verify_writes`).
S2  Read-your-writes per tenant session: no read ever observes a replica
    sequence below the session's acked-write floor.
S3  No hangs: every started op resolves (success, shed, or typed error),
    and no op's latency exceeds the client deadline.
S4  Replication invariants per shard group: no cluster-layer violations,
    prefix convergence after heal+restart, one leader per term.
S5  Honest tails: the SLO digest splits fault-window tails from
    steady-state tails (fault windows derived from the schedule).

Every seed draws at least one *leader-affecting* fault — a leader crash
or a partition isolating a leader — during live traffic; a schedule
without one fails the run (guards the harness against drifting into
fair-weather coverage).

Determinism: workload, chaos, restart delays and link jitter all derive
from the seed via named RNG substreams, so a run replays bit-identically,
serial or under ``--jobs N``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.dst import core
from repro.dst.core import RunResult, Scenario
from repro.faults import CRASH, PARTITION, FaultSchedule, FaultSpec
from repro.serving.fleet import default_tenants
from repro.serving.resilient import (
    ResilientServingConfig,
    ResilientServingStack,
)
from repro.sim.rng import RandomStream
from repro.sim.units import ms, us

#: Window charged to a point fault (crash, unwindowed spec) for tail splits.
_POINT_FAULT_WINDOW_NS = ms(10)
#: Net faults drawn on top of the guaranteed leader fault: at most this many.
MAX_EXTRA_FAULTS = 3
#: Users of each tenant: sets a tenant's arrival rate.
USERS_PER_TENANT = 40_000


def draw_serving_chaos(
    rng: RandomStream,
    horizon_ns: int,
    shards: int,
    replicas: int,
) -> FaultSchedule:
    """Draw a serving chaos schedule in global node space.

    Always includes one leader-affecting fault (the initial leader of a
    random group either crashes or is partitioned away) inside the middle
    of the traffic window, then layers on extra cluster-style net chaos
    and the odd device-level error storm.
    """
    total = shards * replicas
    specs: List[FaultSpec] = []
    # The guaranteed leader fault: group g's initial leader is local node
    # 0, i.e. global node g * replicas.
    g = rng.randint(0, shards - 1)
    leader = g * replicas
    at = rng.randint(horizon_ns // 4, (horizon_ns * 3) // 5)
    if rng.chance(0.6):
        specs.append(FaultSpec(CRASH, at_time=at, node=leader))
    else:
        until = at + rng.randint(horizon_ns // 10, horizon_ns // 4)
        specs.append(
            FaultSpec(PARTITION, at_time=at, until_time=until, nodes=(leader,))
        )
    extra = FaultSchedule.random_cluster(
        rng.fork("extra"),
        horizon_ns,
        total,
        max_faults=MAX_EXTRA_FAULTS,
        crash_p=0.3,
    )
    specs.extend(extra.specs)
    storm_rng = rng.fork("storm")
    if storm_rng.chance(0.4):
        w0 = storm_rng.randint(horizon_ns // 5, horizon_ns // 2)
        w1 = w0 + storm_rng.randint(horizon_ns // 10, horizon_ns // 4)
        kind_roll = storm_rng.uniform(0.0, 1.0)
        node = storm_rng.randint(0, total - 1)
        window = dict(at_time=w0, until_time=w1, count=1_000_000, node=node)
        if kind_roll < 0.5:
            specs.append(FaultSpec("write_error", transient=True, **window))
        else:
            extra_ns = storm_rng.randint(us(200), ms(2))
            specs.append(FaultSpec("latency_spike", extra_ns=extra_ns, **window))
    return FaultSchedule(specs)


def leader_fault_count(schedule: FaultSchedule, replicas: int) -> int:
    """Leader-affecting specs: node crashes + partitions naming a node.

    Every crash can force a failover (any node may be leader by then);
    every partition can strand a leader on the minority side.  The
    guaranteed draw targets an initial leader explicitly, so this count
    is >= 1 for any schedule :func:`draw_serving_chaos` produces.
    """
    return sum(
        1
        for spec in schedule.specs
        if spec.kind == CRASH or (spec.kind == PARTITION and spec.nodes)
    )


@dataclass
class ServingDstConfig:
    """Knobs of one serving DST run (the seed does the exploring)."""

    shards: int = 2
    replicas: int = 3
    device: str = "xpoint"
    tenants: int = 3
    key_count: int = 16
    clients: int = 2
    duration_ns: int = ms(100)
    faults: bool = True
    schedule: Optional[FaultSchedule] = None  # overrides random generation

    @property
    def horizon_ns(self) -> int:
        return self.duration_ns


@dataclass
class ServingDstResult(RunResult):
    """Outcome of one run: verdict + the byte-comparable event log."""

    shards: int
    replicas: int
    tenants: int
    ops: int  # completed (successful) tenant ops
    shed: int
    errors: int
    writes_acked: int
    failovers: int
    leader_faults: int
    ryw_violations: int
    unresolved: int
    max_elapsed_us: float
    converged: bool
    log_digest: str  # md5 over every group leader log's tags
    tenant_rows: List[dict] = field(default_factory=list)


class ServingDstRun(Scenario):
    """One seeded fleet/chaos/settle/verify cycle."""

    stream = "serving-dst"

    def __init__(self, seed: int, config: Optional[ServingDstConfig] = None) -> None:
        super().__init__(seed, config or ServingDstConfig())
        cfg = self.config

        # The ≥1-leader-fault floor only binds self-drawn schedules: a
        # replayed/fuzzed schedule is allowed to explore fault-free or
        # follower-only chaos without that counting as a failure.
        self._own_schedule = cfg.schedule is None and cfg.faults
        self.schedule = schedule = self.resolve_schedule()

        self.stack = ResilientServingStack(
            ResilientServingConfig(
                shards=cfg.shards,
                replicas=cfg.replicas,
                device=cfg.device,
                seed=seed,
            ),
            chaos=schedule,
        )
        self.engine = self.stack.engine
        self.clusters = [group.cluster for group in self.stack.groups]

        # Crash specs (global node space) become control events, each
        # with a seed-derived restart.
        self.controls = core.crash_controls(
            self.stack.crash_specs,
            self.rng.fork("restarts"),
            cfg.horizon_ns,
            self.stack.config.total_nodes,
        )
        # Sometimes squeeze one node's quota over a mid-run window (the
        # space-storm dimension: ENOSPC behind the replication layer).
        space_rng = self.rng.fork("space")
        if self._own_schedule and space_rng.chance(0.3):
            node = space_rng.randint(0, self.stack.config.total_nodes - 1)
            w0 = space_rng.randint(cfg.horizon_ns // 5, cfg.horizon_ns // 2)
            w1 = w0 + space_rng.randint(cfg.horizon_ns // 10, cfg.horizon_ns // 4)
            self.controls.append((w0, "squeeze", node))
            self.controls.append((w1, "unsqueeze", node))
        self.controls.sort()

        self.stack.fault_windows = self._fault_windows()

    def draw_schedule(self) -> FaultSchedule:
        cfg = self.config
        return draw_serving_chaos(
            self.rng.fork("chaos"), cfg.horizon_ns, cfg.shards, cfg.replicas
        )

    # -- fault windows -------------------------------------------------------

    def _fault_windows(self) -> List[Tuple[int, int]]:
        windows: List[Tuple[int, int]] = []
        for spec in self.schedule.specs:
            if spec.at_time is None:
                continue
            end = (
                spec.until_time
                if spec.until_time is not None
                else spec.at_time + _POINT_FAULT_WINDOW_NS
            )
            windows.append((spec.at_time, end))
        for at, action, _node in self.controls:
            if action in ("crash", "squeeze"):
                windows.append((at, at + _POINT_FAULT_WINDOW_NS))
        return sorted(windows)

    # -- plumbing ------------------------------------------------------------

    def _node_fs(self, node: int):
        cfg = self.stack.config
        return self.stack.groups[node // cfg.replicas].cluster.nodes[
            node % cfg.replicas
        ].fs

    def _fire(self, action: str, node: int) -> None:
        detail = ""
        if action == "crash":
            self.stack.crash_global(node)
        elif action == "restart":
            self.stack.restart_global(node)
        elif action == "squeeze":
            fs = self._node_fs(node)
            quota = fs.used_bytes()
            fs.set_quota(quota)
            detail = f" to {quota} bytes"
        else:  # unsqueeze
            self._node_fs(node).set_quota(None)
        self.log(f"control {action} node {node}{detail}")

    # -- the run -------------------------------------------------------------

    def run(self) -> ServingDstResult:
        cfg = self.config
        stack = self.stack
        leader_faults = leader_fault_count(self.schedule, cfg.replicas)
        self.log(
            f"serving dst seed={self.seed} shards={cfg.shards} "
            f"replicas={cfg.replicas} tenants={cfg.tenants} "
            f"duration={cfg.duration_ns} specs={len(self.schedule)} "
            f"controls={len(self.controls)} leader_faults={leader_faults}"
        )
        stack.start()
        tenants = default_tenants(
            cfg.tenants,
            users_per_tenant=USERS_PER_TENANT,
            key_count=cfg.key_count,
            clients=cfg.clients,
        )
        workloads = stack.build_fleet(tenants)
        end = self.engine.now + cfg.duration_ns
        procs = stack.spawn_fleet(workloads, end)
        self.step(procs, self.controls, self._fire)
        total_ops = sum(wl.stats.ops for wl in workloads)
        total_shed = sum(wl.stats.shed_ops for wl in workloads)
        total_errors = sum(wl.stats.error_ops for wl in workloads)
        self.log(
            f"fleet done ops={total_ops} shed={total_shed} "
            f"errors={total_errors} started={stack.ops_started} "
            f"resolved={stack.ops_resolved}"
        )

        # Lift every quota squeeze, then heal + restart + converge.
        for node in range(stack.config.total_nodes):
            self._node_fs(node).set_quota(None)
        clusters = self.clusters
        converged = self.settle(clusters)
        for g, group in enumerate(stack.groups):
            self.events.append(f"-- group {g} cluster --")
            self.events.extend(group.cluster.events)
            self.events.append(f"-- group {g} net --")
            self.events.extend(group.network.log)
            for r, injector in enumerate(group.injectors):
                if injector.log:
                    self.events.append(f"-- group {g} node {r} faults --")
                    self.events.extend(injector.log)

        reason = None
        if self._own_schedule and leader_faults < 1:
            reason = "schedule drew no leader-affecting fault"
        if reason is None:
            reason = core.first_violation(
                clusters, core.recorded_violation, core.term_violation
            )
        if reason is None and not converged:
            reason = "groups did not converge after heal+restart"
        if reason is None:
            reason = core.first_violation(clusters, core.prefix_violation)
        if reason is None and stack.ops_started != stack.ops_resolved:
            reason = (
                f"unresolved ops: {stack.ops_started - stack.ops_resolved} "
                f"of {stack.ops_started} never resolved"
            )
        policy = stack.policy
        if reason is None and stack.max_elapsed_ns > policy.op_deadline_ns:
            reason = (
                f"deadline breached: an op took {stack.max_elapsed_ns}ns "
                f"(deadline {policy.op_deadline_ns}ns)"
            )
        ryw = stack.ryw_violations()
        if reason is None and ryw:
            reason = f"read-your-writes violated: {ryw[0]}"
        if reason is None:
            losses = self.drive(stack.verify_writes(), "verify-writes")
            if losses:
                reason = f"acked write lost: {losses[0]}"
        failovers = sum(cluster.failovers for cluster in clusters)
        for wl in workloads:
            wl.stats.duration_ns = cfg.duration_ns
        self.log(
            f"verdict={'PASS' if reason is None else 'FAIL'} ops={total_ops} "
            f"acked_keys={stack.acked_keys} failovers={failovers} "
            f"ryw={len(ryw)} max_elapsed={stack.max_elapsed_ns}"
        )
        stack.shutdown()
        return self.result(
            ServingDstResult,
            reason,
            shards=cfg.shards,
            replicas=cfg.replicas,
            tenants=cfg.tenants,
            ops=total_ops,
            shed=total_shed,
            errors=total_errors,
            writes_acked=stack.acked_writes,
            failovers=failovers,
            leader_faults=leader_faults,
            ryw_violations=len(ryw),
            unresolved=stack.ops_started - stack.ops_resolved,
            max_elapsed_us=round(stack.max_elapsed_ns / 1e3, 1),
            converged=converged,
            log_digest=core.log_digest(clusters),
            tenant_rows=[wl.stats.row() for wl in workloads],
        )


__all__ = [
    "ServingDstConfig",
    "ServingDstResult",
    "ServingDstRun",
    "draw_serving_chaos",
    "leader_fault_count",
]
