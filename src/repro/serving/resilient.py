"""Resilient serving: every hash-ring shard is a replicated cluster group.

The plain :class:`~repro.serving.stack.ServingStack` answers the paper's
single-node questions at serving scale; this stack answers the ROADMAP's
"behind a network hop" question.  Each consistent-hash shard is a full
:class:`~repro.cluster.replication.Cluster` group — a leader and
followers with their own (fault-injectable) devices and filesystems,
joined by their own :class:`~repro.net.Network` — and every tenant op
travels through the :mod:`~repro.serving.client` policy layer (deadlines,
backoff, hedged reads, breakers) and the
:class:`~repro.serving.admission.BrownoutAdmission` front door (shed
writes before reads while a group has no write quorum; per-tenant error
budgets).

Chaos comes in as one :class:`~repro.faults.FaultSchedule` in **global
node space** (node ``g * replicas + r`` is replica ``r`` of group ``g``):

* net specs are localized per group (a partition only installs on the
  groups whose members it names);
* device/fs specs route to the named node's private injector;
* ``CRASH`` specs are exposed via :attr:`crash_specs` for the driving
  harness to turn into crash/restart controls (the stack never tears
  nodes down from inside itself).

The stack also carries the audit state the serving DST verifies:

* **no acked write lost** — every audited key's final replicated value
  must be its highest-acked write or a later indeterminate attempt
  (values are globally unique and self-describing);
* **read-your-writes** — sessions record violations when a read's
  applied sequence falls below the session's acked-write floor;
* **no hangs** — ``ops_started``/``ops_resolved`` must match once the
  fleet drains, and ``max_elapsed_ns`` must respect the client deadline;
* **honest tails** — fault windows (set by the harness) split every
  tenant's latencies into fault-window vs steady-state histograms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    DBError,
    DeadlineExceededError,
    FileSystemError,
    IOFaultError,
    ShardUnavailableError,
    WorkloadError,
)
from repro.cluster import Cluster, ClusterConfig
from repro.faults import (
    CRASH,
    NET_KINDS,
    PARTITION,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
)
from repro.harness.machine import Machine
from repro.lsm.options import HASH_REP, WAL_SYNC, Options
from repro.net import NetConfig, Network
from repro.obs import tenant_slo_digest
from repro.serving.admission import BrownoutAdmission, ErrorBudgetSpec
from repro.serving.client import ClientPolicy, ClientSession, ShardClient
from repro.serving.fleet import TenantSpec, TenantWorkload
from repro.serving.router import HashRing
from repro.sim.engine import Engine
from repro.sim.rng import RandomStream
from repro.sim.units import SEC, kb, mb


#: Each replica's private page cache (every node is its own machine).
PAGE_CACHE_BYTES = mb(2)


def _node_options() -> Options:
    """Per-replica DB options: small, synced, checksum-paranoid.

    WAL_SYNC makes every replication ack a durability promise (the
    property the serving DST audits); the hash memtable rep keeps
    in-process reruns bit-identical.
    """
    return Options(
        write_buffer_size=kb(16),
        max_bytes_for_level_base=kb(64),
        target_file_size_base=kb(32),
        block_cache_bytes=kb(32),
        memtable_rep=HASH_REP,
        wal_mode=WAL_SYNC,
        paranoid_checks=True,
        name="resilient",
    )


@dataclass(frozen=True)
class ResilientServingConfig:
    """Shape of one resilient serving stack."""

    shards: int = 2
    replicas: int = 3
    device: str = "xpoint"
    seed: int = 1
    policy: ClientPolicy = ClientPolicy()
    error_budget: ErrorBudgetSpec = ErrorBudgetSpec()

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise WorkloadError(f"need at least one shard group: {self.shards}")
        if self.replicas < 2:
            raise WorkloadError(f"a shard group needs >= 2 replicas: {self.replicas}")

    @property
    def total_nodes(self) -> int:
        return self.shards * self.replicas


class ShardGroup:
    """One replicated shard: cluster + network + per-node fault plumbing.

    Doubles as the :class:`~repro.serving.client.ShardClient` group
    duck type (leader_id / replica_ids / applied_seq / read / write /
    rediscover) and the brownout probe (write_quorum_reachable).
    """

    def __init__(
        self,
        group_id: int,
        base_node: int,
        cluster: Cluster,
        network: Network,
        injectors: List[FaultInjector],
    ) -> None:
        self.group_id = group_id
        self.base_node = base_node  # global id of local node 0
        self.cluster = cluster
        self.network = network
        self.injectors = injectors

    @property
    def leader_id(self) -> Optional[int]:
        return self.cluster.leader_id

    def replica_ids(self) -> List[int]:
        return list(range(len(self.cluster.nodes)))

    def applied_seq(self, node_id: int) -> int:
        return self.cluster.applied_seq(node_id)

    def read(self, node_id: int, key: bytes):
        result = yield from self.cluster.get_from(node_id, key)
        return result

    def write(self, key: bytes, value):
        result = yield from self.cluster.put(key, value)
        return result

    def rediscover(self) -> Optional[int]:
        """Leader re-discovery: ask the control plane for an election."""
        self.cluster.elect()
        return self.cluster.leader_id

    def write_quorum_reachable(self) -> bool:
        return self.cluster.write_quorum_reachable()


@dataclass
class ResilientServingResult:
    """Everything one resilient fleet run reports."""

    config_desc: str
    shards: int
    replicas: int
    device: str
    seed: int
    duration_ns: int
    total_users: int
    tenant_rows: List[Dict[str, object]] = field(default_factory=list)
    group_rows: List[Dict[str, object]] = field(default_factory=list)
    client_row: Dict[str, object] = field(default_factory=dict)

    @property
    def total_ops(self) -> int:
        return sum(int(r["ops"]) for r in self.tenant_rows)

    @property
    def kops(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.total_ops * SEC / self.duration_ns / 1e3

    def render(self) -> str:
        lines = [
            f"== resilient serving {self.config_desc} ==",
            f"fleet: {self.total_users} simulated users, "
            f"{self.total_ops} ops in {self.duration_ns / 1e9:.2f}s "
            f"({self.kops:.2f} kops)",
        ]
        lines.append(tenant_slo_digest(self.tenant_rows))
        lines.append("per-group:")
        for row in self.group_rows:
            lines.append(
                "  group {group}: leader n{leader} term {term} | "
                "failovers {failovers} | log {log_len} groups".format(**row)
            )
        c = self.client_row
        lines.append(
            f"client layer: {c['hedges_launched']} hedges "
            f"({c['hedges_won']} won), {c['retries']} retries, "
            f"{c['breaker_trips']} breaker trips, "
            f"{c['deadline_exceeded']} deadline misses"
        )
        return "\n".join(lines)


class ResilientServingStack:
    """N replicated shard groups behind routing, admission, and policy."""

    def __init__(
        self,
        config: ResilientServingConfig,
        chaos: Optional[FaultSchedule] = None,
    ) -> None:
        self.config = config
        self.engine = Engine()
        self.rng = RandomStream(config.seed, "resilient-serving")
        self.ring = HashRing(config.shards)

        specs = list(chaos.specs) if chaos is not None else []
        #: CRASH specs (global node space) for the harness to schedule.
        self.crash_specs: List[FaultSpec] = [s for s in specs if s.kind == CRASH]
        node_specs = self._route_node_specs(specs)

        self.groups: List[ShardGroup] = []
        for g in range(config.shards):
            base = g * config.replicas
            machines = [
                Machine.build(
                    self.engine,
                    self.rng,
                    self._profile(),
                    PAGE_CACHE_BYTES,
                    schedule=FaultSchedule(node_specs[base + r]),
                    device_stream=f"device/{base + r}",
                )
                for r in range(config.replicas)
            ]
            injectors = [m.injector for m in machines]
            fss = [m.fs for m in machines]
            network = Network(
                self.engine,
                config.replicas,
                self.rng.fork(f"net/{g}"),
                NetConfig(),
            )
            network.install_schedule(self._localize_net_specs(specs, g))
            cluster = Cluster(
                self.engine,
                network,
                fss,
                _node_options,
                self.rng.fork(f"cluster/{g}"),
                ClusterConfig(),
            )
            self.groups.append(ShardGroup(g, base, cluster, network, injectors))

        self.clients = [
            ShardClient(
                self.engine,
                g,
                group,
                config.policy,
                self.rng.fork(f"client/{g}"),
            )
            for g, group in enumerate(self.groups)
        ]
        self.admission = BrownoutAdmission(
            self._live_controllers,
            self.groups,
            error_budget=config.error_budget,
        )
        self.sessions: List[ClientSession] = []
        #: (start, end) virtual-ns windows during which faults were live;
        #: set by the harness so tenant tails split honestly.
        self.fault_windows: List[Tuple[int, int]] = []
        # Write audit: every value ever handed to a shard client, and the
        # (seq, value) pairs that were acked back.
        self._issued: Dict[bytes, Set[bytes]] = {}
        self._acked: Dict[bytes, List[Tuple[int, bytes]]] = {}
        self._value_counter = 0
        # The no-hang ledger.
        self.ops_started = 0
        self.ops_resolved = 0
        self.max_elapsed_ns = 0

    def _profile(self):
        from repro.storage.profiles import profile_by_name

        return profile_by_name(self.config.device)

    # -- chaos routing -----------------------------------------------------

    def _route_node_specs(
        self, specs: Sequence[FaultSpec]
    ) -> List[List[FaultSpec]]:
        """Device/fs specs per global node (``node`` field stripped)."""
        out: List[List[FaultSpec]] = [[] for _ in range(self.config.total_nodes)]
        for spec in specs:
            if spec.kind in NET_KINDS or spec.kind == CRASH:
                continue
            node = (spec.node or 0) % self.config.total_nodes
            out[node].append(
                replace(spec, node=None) if spec.node is not None else spec
            )
        return out

    def _localize_net_specs(
        self, specs: Sequence[FaultSpec], group_id: int
    ) -> List[FaultSpec]:
        """Global-space net specs folded into one group's local node ids."""
        base = group_id * self.config.replicas
        local: List[FaultSpec] = []
        for spec in specs:
            if spec.kind not in NET_KINDS:
                continue
            if spec.kind == PARTITION:
                members = tuple(
                    n - base
                    for n in (spec.nodes or ())
                    if base <= n < base + self.config.replicas
                )
                # A group partitions only when the boundary crosses it.
                if not members or len(members) >= self.config.replicas:
                    continue
                local.append(replace(spec, nodes=members))
            elif spec.node is not None:
                if base <= spec.node < base + self.config.replicas:
                    local.append(replace(spec, node=spec.node - base))
            else:
                local.append(spec)  # heal / group-wide delay / drop storms
        return local

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        for group in self.groups:
            group.cluster.start()

    def shutdown(self) -> None:
        for group in self.groups:
            group.cluster.shutdown()

    def crash_global(self, node: int) -> None:
        """Crash one node by global id (harness control plane)."""
        group = self.groups[node // self.config.replicas]
        group.cluster.crash_node(node % self.config.replicas)

    def restart_global(self, node: int) -> None:
        group = self.groups[node // self.config.replicas]
        group.cluster.restart_node(node % self.config.replicas)

    def _live_controllers(self):
        out = []
        for group in self.groups:
            leader = group.cluster.leader_node
            if leader is not None and leader.active and leader.db is not None:
                out.append(leader.db.controller)
        return out

    # -- tenant surface ----------------------------------------------------

    def session(self, tenant: str, cid: int) -> ClientSession:
        session = ClientSession(f"{tenant}/{cid}")
        self.sessions.append(session)
        return session

    def shard_of(self, key: bytes) -> int:
        return self.ring.shard_for(key)

    def in_fault_window(self, now: int) -> bool:
        return any(a <= now < b for a, b in self.fault_windows)

    def next_value(self, key: bytes) -> bytes:
        """Globally unique, self-describing write value (audit currency)."""
        self._value_counter += 1
        return b"rv%08d:" % self._value_counter + key

    def _note_resolved(self, began: int) -> None:
        self.ops_resolved += 1
        elapsed = self.engine.now - began
        if elapsed > self.max_elapsed_ns:
            self.max_elapsed_ns = elapsed

    def get(self, session: ClientSession, key: bytes):
        """Generator: resilient read; value bytes, None miss, or typed error."""
        self.ops_started += 1
        began = self.engine.now
        try:
            outcome = yield from self.clients[self.shard_of(key)].read(
                session, key
            )
            return outcome.value
        finally:
            self._note_resolved(began)

    def put(self, session: ClientSession, key: bytes):
        """Generator: audited resilient write; returns the acked seq."""
        shard = self.shard_of(key)
        value = self.next_value(key)
        self._issued.setdefault(key, set()).add(value)
        self.ops_started += 1
        began = self.engine.now
        try:
            seq = yield from self.clients[shard].write(session, key, value)
            self._acked.setdefault(key, []).append((seq, value))
            return seq
        finally:
            self._note_resolved(began)

    def scan(self, session: ClientSession, start: bytes, end: bytes, limit=None):
        """Generator: scatter-gather scan over every group's leader.

        Same deadline/backoff contract as point ops: a group that stays
        leaderless or faulting past the attempt budget raises a typed
        error instead of hanging the scan.
        """
        policy = self.config.policy
        engine = self.engine
        self.ops_started += 1
        began = engine.now
        deadline = began + policy.op_deadline_ns
        try:
            merged: List[Tuple[bytes, object]] = []
            for g, (group, client) in enumerate(zip(self.groups, self.clients)):
                for attempt in range(policy.max_attempts):
                    if engine.now >= deadline:
                        raise DeadlineExceededError(
                            f"scan missed its deadline at group {g}",
                            op="scan",
                            elapsed_ns=engine.now - began,
                        )
                    part = None
                    try:
                        part = yield from group.cluster.scan(start, end, limit=limit)
                    except (IOFaultError, DBError, FileSystemError):
                        part = None  # storm-era leader read: retryable
                    if part is not None:
                        merged.extend(part)
                        break
                    group.rediscover()
                    if attempt + 1 >= policy.max_attempts:
                        raise ShardUnavailableError(
                            f"scan exhausted {policy.max_attempts} attempts "
                            f"on group {g}",
                            shard=g,
                            attempts=policy.max_attempts,
                        )
                    delay = client.backoff_ns(attempt)
                    if engine.now + delay >= deadline:
                        raise DeadlineExceededError(
                            f"scan backoff would cross the deadline at group {g}",
                            op="scan",
                            elapsed_ns=engine.now - began,
                        )
                    yield delay
            merged.sort(key=lambda kv: kv[0])
            if limit is not None:
                merged = merged[:limit]
            return merged
        finally:
            self._note_resolved(began)

    # -- fleet plumbing ----------------------------------------------------

    def build_fleet(
        self, tenants: List[TenantSpec]
    ) -> List[TenantWorkload]:
        if not tenants:
            raise WorkloadError("need at least one tenant")
        workloads = [
            TenantWorkload(i, spec, self.config.seed)
            for i, spec in enumerate(tenants)
        ]
        for wl in workloads:
            self.admission.provision(wl.spec)
        return workloads

    def prefill(self, workloads: List[TenantWorkload]):
        """Generator: install every tenant's keys through replication.

        Runs before chaos; the writes are audited like any other, so the
        baseline state participates in the no-loss check.
        """
        session = self.session("prefill", 0)
        for wl in workloads:
            for key in wl.all_keys():
                yield from self.put(session, key)

    def spawn_fleet(
        self, workloads: List[TenantWorkload], end: int
    ) -> List[object]:
        procs = []
        for wl in workloads:
            for cid in range(wl.spec.clients):
                procs.append(
                    self.engine.process(
                        wl.resilient_client(self.engine, self, cid, end),
                        name=f"fleet-{wl.spec.name}-{cid}",
                    )
                )
        for proc in procs:
            proc.callbacks.append(lambda _ev: None)
        return procs

    # -- audit -------------------------------------------------------------

    def ryw_violations(self) -> List[str]:
        out: List[str] = []
        for session in self.sessions:
            out.extend(session.ryw_violations)
        return out

    def audited_keys(self) -> List[bytes]:
        return sorted(self._acked)

    @property
    def acked_keys(self) -> int:
        """Keys with at least one acked write."""
        return len(self._acked)

    @property
    def acked_writes(self) -> int:
        """Acked writes over all keys."""
        return sum(len(v) for v in self._acked.values())

    def verify_writes(self):
        """Generator: the no-acked-write-loss audit; returns violations.

        For every key with at least one acked write, the final leader
        value must be the highest-acked value or some *other* issued
        value (an indeterminate attempt that landed with a higher
        sequence).  An older acked value — or a value never issued —
        means replication lost or invented an acked write.
        """
        violations: List[str] = []
        for key in self.audited_keys():
            acked = self._acked[key]
            top_seq, top_value = max(acked)
            acked_values = {v for _s, v in acked}
            allowed = {top_value} | (self._issued.get(key, set()) - acked_values)
            group = self.groups[self.shard_of(key)]
            final = yield from group.cluster.get(key)
            if final not in allowed:
                if final is None:
                    got = "miss"
                elif final in acked_values:
                    got = f"stale acked value {final[:12]!r}"
                else:
                    got = f"foreign value {final[:12]!r}"
                violations.append(
                    f"key {key!r}: acked seq {top_seq} not durable ({got})"
                )
        return violations

    # -- reporting ---------------------------------------------------------

    def collect(
        self, workloads: List[TenantWorkload], duration_ns: int
    ) -> ResilientServingResult:
        for wl in workloads:
            wl.stats.duration_ns = duration_ns
        result = ResilientServingResult(
            config_desc=(
                f"{self.config.device} x {self.config.shards} group(s) "
                f"x {self.config.replicas} replicas, seed {self.config.seed}"
            ),
            shards=self.config.shards,
            replicas=self.config.replicas,
            device=self.config.device,
            seed=self.config.seed,
            duration_ns=duration_ns,
            total_users=sum(wl.spec.users for wl in workloads),
            tenant_rows=[wl.stats.row() for wl in workloads],
        )
        for g, group in enumerate(self.groups):
            cluster = group.cluster
            leader = cluster.leader_node
            result.group_rows.append(
                {
                    "group": g,
                    "leader": cluster.leader_id if leader else -1,
                    "term": cluster.term,
                    "failovers": cluster.failovers,
                    "log_len": len(leader.log) if leader else 0,
                }
            )
        totals: Dict[str, int] = {
            "hedges_launched": 0,
            "hedges_won": 0,
            "hedges_cancelled": 0,
            "retries": 0,
            "breaker_trips": 0,
            "breaker_fastfail": 0,
            "deadline_exceeded": 0,
            "rediscoveries": 0,
        }
        for client in self.clients:
            s = client.stats
            totals["hedges_launched"] += s.get("hedges_launched", 0)
            totals["hedges_won"] += s.get("hedges_won", 0)
            totals["hedges_cancelled"] += s.get("hedges_cancelled", 0)
            totals["retries"] += s.get("read_retries", 0) + s.get(
                "write_retries", 0
            )
            totals["breaker_trips"] += client.breaker.trips
            totals["breaker_fastfail"] += s.get("breaker_fastfail", 0)
            totals["deadline_exceeded"] += s.get("deadline_exceeded", 0)
            totals["rediscoveries"] += s.get("rediscoveries", 0)
        result.client_row = dict(totals)
        return result


__all__ = [
    "ResilientServingConfig",
    "ResilientServingResult",
    "ResilientServingStack",
    "ShardGroup",
]
