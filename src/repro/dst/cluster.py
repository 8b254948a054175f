"""Cluster DST: seeded workload + net faults + node crashes -> invariants.

The single-node harness explores crash-consistency of one storage stack;
this one explores the *replication* contract of :mod:`repro.cluster` under
partitions, delay/drop storms, and node crash/restart:

I1  Acked durability: every quorum-acked write survives the schedule.
    After the run settles, the final leader's state must equal the replay
    of a prefix of the issued writes that covers every acked write.
I2  Prefix convergence: once the network heals and every node is back up,
    every node's replicated log is a prefix of (and catches up to) the
    leader's log, and every node's KV state equals the leader's.
I3  At most one leader per term (checked over the whole run).
I4  No resurrection: a physically truncated divergent group never
    reappears in any log (tracked by tag inside the cluster layer).

The client retries an unacked write as a *new* write index on the same
key (values are self-describing, so the expected-state replay stays
prefix-shaped even when an indeterminate attempt did land), and stops
issuing entirely once a write exhausts its retries — a half-written tail
on one key is prefix-consistent, a gap in the middle would not be.

Determinism: everything derives from the seed — workload, schedule,
restart delays, link jitter — via named RNG substreams, so a run replays
bit-identically, serial or under ``--jobs N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster import Cluster, ClusterConfig
from repro.dst import core
from repro.dst.core import DELETE, GET, PUT, Op, RunResult, Scenario
from repro.dst.harness import _dst_options
from repro.errors import DBError
from repro.faults import NET_KINDS, FaultSchedule
from repro.harness.machine import Machine
from repro.net import NetConfig, Network
from repro.sim.engine import Engine
from repro.sim.units import mb, ms, us
from repro.storage.profiles import xpoint_ssd


@dataclass
class ClusterDstConfig:
    """Knobs of one cluster DST run (the seed does the exploring)."""

    num_ops: int = 160
    num_keys: int = 24
    n_nodes: int = 3
    faults: bool = True
    max_faults: int = 4
    #: Per-op horizon: a replicated synced write costs a leader fsync, a
    #: network round trip (~2x 50us) and a follower fsync, plus retries.
    horizon_per_op_ns: int = us(300)
    #: Max wall (virtual) time granted for end-of-run convergence.
    settle_ns: int = ms(200)
    max_retries: int = 6
    retry_backoff_ns: int = ms(1)
    schedule: Optional[FaultSchedule] = None  # overrides random generation

    @property
    def horizon_ns(self) -> int:
        return self.num_ops * self.horizon_per_op_ns


@dataclass
class ClusterDstResult(RunResult):
    """Outcome of one run: verdict + the byte-comparable event log."""

    cut: int  # matched prefix cut (write index), -1 if none
    writes_issued: int
    writes_acked: int
    n_nodes: int
    failovers: int
    crashes: int
    gave_up: bool
    converged: bool
    log_digest: str  # md5 over the final leader log's tags


class ClusterDstRun(Scenario):
    """One seeded workload/fault/failover/converge/verify cycle."""

    stream = "cluster-dst"

    def __init__(self, seed: int, config: Optional[ClusterDstConfig] = None) -> None:
        super().__init__(seed, config or ClusterDstConfig())
        self.issued: List[Op] = []  # one entry per write *attempt*
        self.acked: List[Op] = []
        self.gave_up = False
        self.engine = Engine()

        self.schedule = schedule = self.resolve_schedule()

        n = self.config.n_nodes
        fss = [
            Machine.build(
                self.engine, self.rng, xpoint_ssd(), mb(4), device_stream=f"device/{i}"
            ).fs
            for i in range(n)
        ]
        self.network = Network(self.engine, n, self.rng.fork("net"), NetConfig())
        self.network.install_schedule(
            [s for s in schedule.specs if s.kind in NET_KINDS]
        )
        self.cluster = Cluster(
            self.engine,
            self.network,
            fss,
            _dst_options,
            self.rng.fork("cluster"),
            ClusterConfig(),
        )
        # Node crashes become control events, each with a seed-derived
        # restart.
        self.controls = core.crash_controls(
            schedule.specs, self.rng.fork("restarts"), self.config.horizon_ns, n
        )

    def draw_schedule(self) -> FaultSchedule:
        cfg = self.config
        return FaultSchedule.random_cluster(
            self.rng.fork("faults"), cfg.horizon_ns, cfg.n_nodes, max_faults=cfg.max_faults
        )

    # -- workload ----------------------------------------------------------

    def _client(self, ops: List[Op]):
        """Generator: sequential client with retry-as-new-write semantics."""
        cluster = self.cluster
        write_index = 0
        for op in ops:
            if op.kind == GET:
                try:
                    value = yield from cluster.get(op.key)
                except DBError:
                    value = None
                self.log(
                    f"get {op.key.decode()} -> "
                    + ("miss" if value is None else f"{len(value)}B")
                )
                continue
            for attempt in range(self.config.max_retries):
                write_index += 1
                if op.kind == PUT:
                    value = core.stamped(write_index, op.key, op.value)
                    issued = Op(PUT, op.key, value, write_index)
                else:
                    issued = Op(DELETE, op.key, None, write_index)
                self.issued.append(issued)
                self.log(
                    f"issue #{issued.index} {issued.kind} {op.key.decode()}"
                    + (f" (retry {attempt})" if attempt else "")
                )
                if issued.kind == PUT:
                    acked, _seq = yield from cluster.put(issued.key, issued.value)
                else:
                    acked, _seq = yield from cluster.delete(issued.key)
                if acked:
                    self.acked.append(issued)
                    self.log(f"ack #{issued.index}")
                    break
                self.log(f"unacked #{issued.index}")
                yield self.config.retry_backoff_ns
            else:
                # Retries exhausted: stop issuing entirely.  A trailing run
                # of same-key attempts is prefix-consistent; writes *after*
                # a lost one would not be.
                self.gave_up = True
                self.log(f"client gave up after #{write_index}")
                return

    def _fire(self, action: str, node: int) -> None:
        if action == "crash":
            self.cluster.crash_node(node)
        else:
            self.cluster.restart_node(node)

    def _observe(self, node):
        return self.read_keys(node.db.get, f"verify-{node.node_id}")

    # -- the run -----------------------------------------------------------

    def run(self) -> ClusterDstResult:
        cfg = self.config
        # Unnumbered: write indexes are assigned at *attempt* time.
        ops = core.gen_ops(
            self.rng.fork("workload"), cfg.num_ops, cfg.num_keys, pad=(0, 64), numbered=False
        )
        self.log(
            f"cluster dst seed={self.seed} nodes={cfg.n_nodes} "
            f"ops={cfg.num_ops} keys={cfg.num_keys} "
            f"specs={len(self.schedule)} controls={len(self.controls)}"
        )
        self.cluster.start()
        proc = self.spawn(self._client(ops), "cluster-client")
        self.step([proc], self.controls, self._fire)
        self.log(
            f"workload done issued={len(self.issued)} acked={len(self.acked)}"
            + (" gave_up" if self.gave_up else "")
        )

        cluster = self.cluster
        converged = self.settle([cluster])
        self.events.append("-- cluster --")
        self.events.extend(cluster.events)
        self.events.append("-- net --")
        self.events.extend(self.network.log)

        leader = cluster.leader_node
        last_acked = max((op.index for op in self.acked), default=0)
        cut = -1
        reason = core.recorded_violation(cluster)
        if reason is None and leader is None:
            reason = "no leader after settle"
        if reason is None and not converged:
            reason = "nodes did not converge after heal+restart"
        if reason is None:
            reason = core.prefix_violation(cluster) or core.term_violation(cluster)
        if reason is None:
            observed = self._observe(leader)
            cut = core.find_cut(self.issued, observed, last_acked)
            if cut < 0:
                reason = (
                    f"no consistent prefix cut >= {last_acked} "
                    f"(acked write lost or unissued write surfaced)"
                )
            else:
                for node in cluster.nodes:
                    if node is leader:
                        continue
                    if self._observe(node) != observed:
                        reason = f"node {node.node_id} state differs from leader"
                        break
        self.log(
            f"verdict={'PASS' if reason is None else 'FAIL'} cut={cut}/{len(self.issued)} "
            f"acked={len(self.acked)} failovers={cluster.failovers}"
        )
        return self.result(
            ClusterDstResult,
            reason,
            cut=cut,
            writes_issued=len(self.issued),
            writes_acked=len(self.acked),
            n_nodes=cfg.n_nodes,
            failovers=cluster.failovers,
            crashes=sum(1 for _t, a, _n in self.controls if a == "crash"),
            gave_up=self.gave_up,
            converged=converged,
            log_digest=core.log_digest([cluster]),
        )
