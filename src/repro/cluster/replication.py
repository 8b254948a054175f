"""Leader/follower WAL replication with quorum acknowledgements.

Data plane
    The leader's ``WalManager.on_group`` hook appends every WAL group to an
    in-memory replicated log; one shipper process per follower sends
    ``append`` messages (with a prev-group tag for chain checking) and
    retries on timeout with exponential backoff, entirely in virtual time.
    Followers apply groups in log order via ``DB.apply_replicated`` — the
    apply generator returns only after the follower's own WAL fsync, so an
    ``ack`` is a durability promise.  A write commits (and the client is
    acked) once its sequence number is durable on a majority.

Control plane
    Election and rejoin arbitration are deterministic bookkeeping on the
    :class:`Cluster` object (an omniscient external coordination service).
    Elections happen only when at least a quorum of nodes is up and pick
    the most up-to-date log (ties: lowest node id) — because any acked
    write is durable on a majority and any electing quorum intersects it,
    the winner always holds every acked write.

One divergence rule
    A conflicting follower steps down and rejoins.  A follower whose log
    disagrees with the current leader's (at the last index both hold, or
    by a group past the leader's log end, which only an apply that
    outlived its term leaves) retires its DB incarnation as a crash does,
    minus the power failure and the network loss, goes to ``STAGED`` and
    rejoins through the reconcile path a restarted node takes: it keeps
    the longest prefix that matches the leader, physically truncates the
    divergent unacked WAL tail, or is wiped when the divergence reaches
    flushed data.  The rule runs when an append reaches a follower and
    after an apply that outlived its term (Raft's conflict rule, Ongaro
    and Ousterhout, USENIX ATC 2014).

Log identity
    A group's ``tag`` is ``(last_seq, crc)`` where the crc is the same
    checksum the WAL record carries on disk, so rejoin can match a node's
    durable WAL records against the leader's log.  For the no-resurrection
    invariant a tag alone is ambiguous: a client that retries an unacked
    DELETE after a failover produces byte-identical WAL bytes at the same
    sequence number as the truncated group (a PUT retry embeds its fresh
    write index, a DELETE has no payload).  The invariant therefore tracks
    the term-qualified ``identity`` — ``(term, last_seq, crc)`` — which a
    re-proposal under the new leader's newer term never matches, while a
    genuinely resurrected group keeps its original term.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.cluster.nodefs import NodeFsView
from repro.errors import DBError, IOFaultError, OutOfSpaceError, SimulationError
from repro.lsm.db import DB
from repro.lsm.wal import WalManager, recover_logs, truncate_log
from repro.net.network import Network
from repro.sim.engine import Engine, Event
from repro.sim.rng import RandomStream
from repro.sim.units import ms, us

Tag = Tuple[int, int]  # (last_seq, crc) — the disk-matching key
Identity = Tuple[int, int, int]  # (term, last_seq, crc) — resurrection identity

#: Node lifecycle states.
CRASHED = "crashed"  # powered off
STAGED = "staged"  # restarted or stepped down, waiting to rejoin a leader
ACTIVE = "active"  # DB open, replicating


def _null(_ev: Event) -> None:
    return None


def _rec_tag(rec) -> Tag:
    return (rec.entries[-1][1][0], rec.crc)


class ClusterConfig:
    """Timeouts and sizes of the replication protocol (virtual time).

    Fixed values: no run changes them.  A :class:`Cluster` reads them from
    the instance it is given (``ClusterConfig()`` when none).
    """

    __slots__ = ()

    ack_timeout_ns = ms(8)
    #: Shipper retry backoff: doubles from ``rto_ns`` up to ``rto_max_ns``.
    rto_ns = us(300)
    rto_max_ns = ms(4)
    #: A client write's deadline: the ack timeout.
    op_timeout_ns = ms(8)
    append_overhead_bytes = 64  # per shipped append, on top of the group
    ack_bytes = 48


class Group:
    """One replicated WAL group: the unit of shipping and of log identity."""

    __slots__ = ("term", "last_seq", "records", "nbytes", "tag")

    def __init__(self, term: int, records, nbytes: int, crc: int) -> None:
        self.term = term
        self.last_seq = last_seq = records[-1][1][0]
        self.records = records
        self.nbytes = nbytes
        self.tag: Tag = (last_seq, crc)

    @property
    def identity(self) -> Identity:
        return (self.term, self.last_seq, self.tag[1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Group t{self.term} [{self.records[0][1][0]}..{self.last_seq}]>"


class ClusterNode:
    """One replica: its private storage stack plus replication state."""

    def __init__(
        self, cluster: "Cluster", node_id: int, fs, options_factory, rng: RandomStream
    ) -> None:
        self.cluster = cluster
        self.node_id = node_id
        self.fs = fs  # the real (possibly fault-injecting) filesystem
        self.options_factory = options_factory
        self.rng = rng
        self.state = CRASHED
        self.incarnation = 0
        self.view: Optional[NodeFsView] = None
        self.db: Optional[DB] = None
        #: The replicated log as known by the control plane.  For a leader
        #: this can run ahead of durability (groups are logged at WAL append
        #: time); ``durable_len`` tracks the prefix known fsynced.
        self.log: List[Group] = []
        self.durable_len = 0
        #: Shippers parked at this node's log end, by follower id: each
        #: waits on its own event, fired when the log grows.
        self.parked: Dict[int, Event] = {}
        #: The group this node's apply is writing (None when idle).
        self.applying: Optional[Group] = None

    # -- properties ---------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.state != CRASHED

    @property
    def durable_seq(self) -> int:
        return self.log[self.durable_len - 1].last_seq if self.durable_len else 0

    # -- lifecycle -----------------------------------------------------------

    def open_db(self) -> None:
        """Open (or re-open) the DB through a fresh incarnation view."""
        self.view = NodeFsView(self.fs)
        self.db = DB(
            self.cluster.engine,
            self.view,
            self.options_factory(),
            rng=self.rng.fork(f"db/{self.incarnation}"),
        )
        self.state = ACTIVE

    def advance_durable(self, seq: int) -> None:
        """Durability watermark: every group up to ``seq`` is fsynced."""
        log = self.log
        n = len(log)
        d = self.durable_len
        while d < n and log[d].last_seq <= seq:
            d += 1
        self.durable_len = d

    def fire_log_grew(self) -> None:
        if self.parked:
            parked, self.parked = self.parked, {}
            for ev in parked.values():
                ev.succeed()


class Cluster:
    """The replicated DB: N nodes, one network, one control plane."""

    def __init__(
        self,
        engine: Engine,
        network: Network,
        node_fss,
        options_factory,
        rng: RandomStream,
        config: Optional[ClusterConfig] = None,
    ) -> None:
        if len(node_fss) != network.n_nodes:
            raise SimulationError(
                f"{len(node_fss)} filesystems for {network.n_nodes} network nodes"
            )
        if len(node_fss) < 2:
            raise SimulationError("a cluster needs >= 2 nodes")
        self.engine = engine
        self.network = network
        self.config = config or ClusterConfig()
        self.rng = rng
        self.nodes = [
            ClusterNode(self, i, fs, options_factory, rng.fork(f"node/{i}"))
            for i, fs in enumerate(node_fss)
        ]
        #: Majority size: the node set is fixed for a cluster's life.
        self.quorum = len(self.nodes) // 2 + 1
        self.term = 0
        #: The leader's id and node, set together (None while leaderless).
        self.leader_id: Optional[int] = None
        self.leader_node: Optional[ClusterNode] = None
        self.commit_seq = 0
        self.running = True
        self.events: List[str] = []
        self.violations: List[str] = []
        #: Tags of physically truncated (divergent, unacked) groups: they
        #: must never reappear in any log (the no-resurrection invariant).
        self.truncated_identities: Set[Identity] = set()
        #: (term, leader_id) history — checked for one leader per term.
        self.term_history: List[Tuple[int, int]] = []
        self._match_len: Dict[int, int] = {}
        self._ack_wait: Dict[int, Tuple[int, Event]] = {}
        self._commit_waiters: List[Tuple[int, Event]] = []

    # -- bookkeeping ---------------------------------------------------------

    @property
    def failovers(self) -> int:
        """Leader changes after the initial election."""
        return max(0, len(self.term_history) - 1)

    def _log(self, line: str) -> None:
        self.events.append(f"t={self.engine.now} {line}")

    def _violate(self, line: str) -> None:
        self.violations.append(f"t={self.engine.now} {line}")
        self._log(f"VIOLATION {line}")

    # -- boot ----------------------------------------------------------------

    def start(self) -> None:
        """Open every node's DB, elect node 0 as the first leader."""
        for node in self.nodes:
            self._activate(node)
        self._become_leader(self.nodes[0])

    # -- leader election -------------------------------------------------------

    def elect(self) -> bool:
        """Install a leader if there is none, then rejoin every staged node.

        True when a leader is installed.  An election needs a quorum of up
        (staged or active) nodes: it intersects the ack quorum of every
        committed write, so the most caught-up winner holds all of them.  A
        winner whose DB cannot open blocks the election; a staged node whose
        DB cannot open stays staged until the next call retries it.
        """
        if self.leader_id is None:
            up = [n for n in self.nodes if n.alive]
            if len(up) < self.quorum:
                self._log(f"election blocked: {len(up)}/{len(self.nodes)} up")
                return False
            # Raft's election restriction: compare (term of last log entry,
            # log length).  Length alone is unsafe — a crashed ex-leader's
            # divergent unacked tail can outgrow a newer term's log.
            winner = min(
                up, key=lambda n: (-(n.log[-1].term if n.log else 0), -len(n.log), n.node_id)
            )
            if winner.state == STAGED and not self._activate(winner):
                return False
            self._become_leader(winner)
        for node in self.nodes:
            if node.state == STAGED:
                self._rejoin(node)
        return True

    def _become_leader(self, node: ClusterNode) -> None:
        self.term += 1
        self.leader_id = node.node_id
        self.leader_node = node
        self.term_history.append((self.term, node.node_id))
        node.durable_len = len(node.log)
        self._match_len = {}
        self._install_leader_hook(node)
        self._log(f"leader node {node.node_id} term {self.term}")
        self.engine.tracer.failover(self.term, node.node_id)
        for other in self.nodes:
            if other.node_id != node.node_id:
                self.engine.process(
                    self._shipper(node, other.node_id, self.term),
                    name=f"ship-{node.node_id}->{other.node_id}",
                )

    def _install_leader_hook(self, node: ClusterNode) -> None:
        term = self.term

        def on_group(records, nbytes, node=node, term=term):
            pending = node.applying
            if pending is not None and pending.records is records:
                return  # an older term's group the node's own apply logs
            crc = node.db.wal.current.records[-1][1].crc
            group = Group(term, records, nbytes, crc)
            if group.identity in self.truncated_identities:
                self._violate(f"truncated group {group!r} resurrected on leader")
            node.log.append(group)
            node.fire_log_grew()

        node.db.wal.on_group = on_group

    # -- node lifecycle: crash, step-down, restart, rejoin ---------------------

    def _retire(self, node: ClusterNode) -> None:
        """End a node's DB incarnation: its processes wind down on the
        dead view's typed errors, its inbox empties, its shippers exit."""
        node.incarnation += 1
        node.applying = None
        if node.db is not None:
            # Stale incarnation: background workers that die on dead-view
            # I/O after this point are expected, not a simulation bug.
            for proc in node.db._workers:
                if not proc.triggered:
                    proc.callbacks.append(_null)
            node.db._closed = True
            node.db.wal.on_group = None
        if node.view is not None:
            node.view.kill()
        inbox = self.network.inboxes[node.node_id]
        inbox._items.clear()
        inbox._getters.clear()
        node.fire_log_grew()

    def crash_node(self, node_id: int) -> None:
        """Power-fail one node while the rest of the cluster keeps running."""
        node = self.nodes[node_id]
        if not node.alive:
            return
        was_leader = self.leader_id == node_id
        node.state = CRASHED
        self._retire(node)
        node.fs.power_fail()
        self.network.set_down(node_id)
        self._log(f"node {node_id} crashed{' (leader)' if was_leader else ''}")
        if was_leader:
            self.leader_id = None
            self.leader_node = None
            self.elect()

    def _leader_log(self) -> List[Group]:
        """The leader's log, plus the group its own apply is writing: a
        leader elected mid-apply appends that older-term group when the
        apply ends."""
        leader = self.leader_node
        pending = leader.applying
        return leader.log if pending is None else leader.log + [pending]

    def _step_down_on_conflict(self, node: ClusterNode) -> bool:
        """The one divergence rule: an active follower whose log disagrees
        with the current leader's steps down and rejoins, which truncates or
        wipes the divergent tail.  True if it did.  It runs when an append
        reaches a follower and when a follower's apply outlives its term.

        Logs that agree at an index agree at every earlier one, so the last
        index both logs hold decides, and covers all that an ack claims.  A
        group past the leader's log end conflicts too: only an apply that
        outlived its term leaves one, and no leader ever ships it.
        """
        leader = self.leader_node
        if leader is None or leader is node:
            return False
        log, llog = node.log, self._leader_log()
        n = min(len(log), len(llog))
        agree = n == 0 or log[n - 1].tag == llog[n - 1].tag
        if agree and n == len(log):
            return False
        i = n if agree else n - 1  # the first index found in conflict
        self._retire(node)  # no power failure: the node's disk stays as is
        node.state = STAGED
        self._log(f"node {node.node_id} stepped down: log[{i}] {log[i]!r} conflicts")
        self._rejoin(node)
        return True

    def restart_node(self, node_id: int) -> None:
        """Power a crashed node back up and rejoin it to the cluster."""
        node = self.nodes[node_id]
        if node.alive:
            return
        node.incarnation += 1
        self.network.set_up(node_id)
        self._salvage(node)
        node.state = STAGED
        self._log(f"node {node_id} restarted (durable log {len(node.log)})")
        self.elect()

    def _salvage(self, node: ClusterNode) -> None:
        """Reduce a restarted node's control log to its durable reality.

        Disk-ahead-of-control residue is unacked: an *orphan* record of an
        apply the crash cut mid-fsync is truncated; a *duplicate* of a
        re-shipped group replays idempotently and is kept.  With no WAL
        left, flush boundaries are not visible: the durable prefix stays.
        """
        cut = self._cut_wal(node, len(node.log))
        node.log = node.log[: node.durable_len if cut is None else cut[0]]
        node.durable_len = len(node.log)

    def _rejoin(self, node: ClusterNode) -> None:
        """Reconcile a staged node with the leader's branch and activate it.

        The longest prefix of the node's log that matches the leader's
        survives; a divergent unacked tail is truncated out of the WAL
        files so recovery cannot replay it, and a divergence that reaches
        flushed data wipes the node for a resync.  A rejoined log shorter
        than the leader's wakes its parked shipper from the log's end, so
        an idle leader repairs it too.
        """
        llog = self._leader_log()
        d = min(len(node.log), len(llog))
        d = next((i for i in range(d) if node.log[i].tag != llog[i].tag), d)
        divergent = node.log[d:]
        if divergent:
            tags = {x.tag for x in llog}
            self.truncated_identities.update(g.identity for g in divergent if g.tag not in tags)
            cut = self._cut_wal(node, d)
            if cut is None or cut[1] is None or d < cut[1]:
                # Divergence sits in flushed data: no WAL truncation can
                # remove it.  Re-image the node and resync from the leader.
                for path in node.fs.list():
                    node.fs.delete(path)
                node.log = []
                self._log(f"node {node.node_id} wiped (flushed divergence at {d})")
            else:
                node.log = node.log[:d]
                self._log(
                    f"node {node.node_id} truncated {len(divergent)} divergent "
                    f"group(s) at log index {d}"
                )
            node.durable_len = len(node.log)
        # An ack an earlier incarnation sent must not move the shipper.
        self._ack_wait.pop(node.node_id, None)
        if not self._activate(node):
            return
        if not divergent:
            self._log(f"node {node.node_id} rejoined clean (log {len(node.log)})")
        if len(node.log) < len(llog):
            parked = self.leader_node.parked.pop(node.node_id, None)
            if parked is not None:
                parked.succeed(len(node.log))

    def _activate(self, node: ClusterNode) -> bool:
        """Open a staged node's DB and start its pump.  A full disk fails
        the open, as ``DB::Open`` fails: the node stays staged."""
        try:
            node.open_db()
        except OutOfSpaceError as exc:
            self._log(f"node {node.node_id} open failed ({type(exc).__name__}: {exc})")
            return False
        self._spawn_pump(node)
        return True

    @staticmethod
    def _cut_wal(node: ClusterNode, limit: int) -> Optional[Tuple[int, Optional[int]]]:
        """Recover a node's WAL files (as DB open does) and cut them at the
        first record that does not match ``node.log[:limit]`` in order, from
        the index the first record maps to; a duplicate re-append of the
        previous group matches too.  Returns ``(log_end, base)`` — the index
        past the last match, the first record's index (None when not in the
        log) — or None when no WAL record survives."""
        logs, _stats = recover_logs(WalManager.existing_logs(node.fs))
        flat = [rec for _number, _f, good in logs for rec in good]
        if not flat:
            return None
        log = node.log
        tags = {g.tag: i for i, g in enumerate(log)}
        base = tags.get(_rec_tag(flat[0]))
        j = start = base or 0
        keep = 0
        for rec in flat:
            t = _rec_tag(rec)
            if j < limit and j < len(log) and log[j].tag == t:
                j += 1
            elif not (j > start and log[j - 1].tag == t):
                break
            keep += 1
        for _number, f, good in logs:
            if keep < len(good):
                truncate_log(f, keep)
            keep = max(0, keep - len(good))
        return j, base

    # -- data plane: shipping ---------------------------------------------------

    def _shipper(self, leader: ClusterNode, follower_id: int, term: int):
        """Generator: ship the leader's log to one follower, in order."""
        cfg = self.config
        inc = leader.incarnation
        next_idx = 0
        mid = 0
        rto = cfg.rto_ns
        ack_ev: Optional[Event] = None
        while self.running and self.term == term:
            if leader.state != ACTIVE or leader.incarnation != inc:
                break
            log = leader.log
            if next_idx >= len(log):
                # Parked; a rejoin that cut the follower's log sends its end.
                park = leader.parked[follower_id] = Event(self.engine)
                rewind = yield park
                if rewind is not None:
                    next_idx = rewind
                continue
            group = log[next_idx]
            prev_tag = log[next_idx - 1].tag if next_idx else None
            mid += 1
            ack_ev = Event(self.engine)
            self._ack_wait[follower_id] = (mid, ack_ev)
            self.network.send(
                leader.node_id,
                follower_id,
                ("append", term, leader.node_id, mid, next_idx, prev_tag, group),
                nbytes=group.nbytes + cfg.append_overhead_bytes,
            )
            fired, value = yield self.engine.any_of([ack_ev], timeout=rto)
            if fired is not ack_ev:
                rto = min(rto * 2, cfg.rto_max_ns)  # timeout: back off, reship
                continue
            ok, match_len = value
            rto = cfg.rto_ns
            match_len = min(match_len, len(leader.log))
            if ok:
                if match_len > self._match_len.get(follower_id, 0):
                    self._match_len[follower_id] = match_len
                    self._advance_commit()
                next_idx = match_len if match_len > next_idx else next_idx + 1
            else:
                next_idx = match_len
        # Remove only our own wait entry: a successor term's shipper may
        # already have registered a fresh one under the same follower id.
        waiting = self._ack_wait.get(follower_id)
        if waiting is not None and waiting[1] is ack_ev:
            del self._ack_wait[follower_id]

    # -- data plane: the per-node message pump ----------------------------------

    def _spawn_pump(self, node: ClusterNode) -> None:
        proc = self.engine.process(
            self._pump(node, node.incarnation), name=f"pump-{node.node_id}"
        )
        proc.callbacks.append(_null)

    def _pump(self, node: ClusterNode, inc: int):
        """Generator: consume this node's inbox and run the protocol."""
        while self.running and node.state == ACTIVE and node.incarnation == inc:
            msg = yield self.network.inboxes[node.node_id].get()
            if not (self.running and node.state == ACTIVE and node.incarnation == inc):
                break
            kind = msg[0]
            if kind == "append":
                yield from self._on_append(node, msg)
            elif kind == "ack":
                self._on_ack(node, msg)

    def _on_append(self, node: ClusterNode, msg):
        _kind, term, leader_id, mid, index, prev_tag, group = msg
        if term < self.term:
            return  # stale leader's message
        log = node.log
        n = len(log)
        if index < n:
            if self._step_down_on_conflict(node):
                return
            ok, match = True, n  # duplicate: already have it
        elif index > n:
            ok, match = False, n  # gap: leader must rewind
        elif index and log[-1].tag != prev_tag:
            ok, match = False, n - 1  # chain break (here n == index > 0)
        else:
            if group.identity in self.truncated_identities:
                self._violate(f"truncated group {group!r} resurrected on node {node.node_id}")
            node.applying, inc = group, node.incarnation
            try:
                yield from node.db.apply_replicated(group.records)
            except (IOFaultError, OutOfSpaceError, DBError) as exc:
                self._log(f"node {node.node_id} apply failed: {exc}")
                return  # no ack; leader retries
            finally:
                if node.incarnation == inc:
                    node.applying = None
            if node.incarnation != inc:
                return  # crashed or stepped down during the apply
            log.append(group)
            n = len(log)
            node.durable_len = n
            # An apply that outlived its term may hold what the new leader's
            # log holds differently.
            if term != self.term and self._step_down_on_conflict(node):
                return
            ok, match = True, n
            if self.engine._trace:
                self.engine.tracer.replication_apply(node.node_id, group.last_seq)
        self.network.send(
            node.node_id,
            leader_id,
            ("ack", term, node.node_id, mid, ok, match),
            nbytes=self.config.ack_bytes,
        )

    def _on_ack(self, node: ClusterNode, msg):
        _kind, term, follower_id, mid, ok, match_len = msg
        if term != self.term or self.leader_id != node.node_id:
            return
        waiting = self._ack_wait.get(follower_id)
        if waiting is None or waiting[0] != mid:
            return  # stale or duplicate ack
        ev = waiting[1]
        if not ev.triggered:
            ev.succeed((ok, match_len))

    # -- commit rule -------------------------------------------------------------

    def _advance_commit(self) -> None:
        leader = self.leader_node
        if leader is None:
            return
        log = leader.log
        seqs = [log[m - 1].last_seq if m else 0 for m in self._match_len.values()]
        d = leader.durable_len
        seqs.append(log[d - 1].last_seq if d else 0)  # leader.durable_seq
        seqs.sort(reverse=True)
        candidate = seqs[self.quorum - 1] if len(seqs) >= self.quorum else 0
        if candidate > self.commit_seq:
            self.commit_seq = candidate
            if self.engine._trace:
                self.engine.tracer.counter("cluster", "commit_seq", candidate)
            still = []
            for seq, ev in self._commit_waiters:
                if seq <= candidate:
                    if not ev.triggered:
                        ev.succeed()
                else:
                    still.append((seq, ev))
            self._commit_waiters = still

    # -- client API --------------------------------------------------------------

    def put(self, key: bytes, value) -> Tuple[bool, int]:
        """Generator: replicated write; returns (acked, seq)."""
        return (yield from self._client_write("put", key, value))

    def delete(self, key: bytes) -> Tuple[bool, int]:
        """Generator: replicated tombstone; returns (acked, seq)."""
        return (yield from self._client_write("delete", key, None))

    def get(self, key: bytes):
        """Generator: read from the leader (None when no leader)."""
        node = self.leader_node
        if node is None or node.state != ACTIVE:
            return None
        return (yield from node.db.get(key))

    def applied_seq(self, node_id: int) -> int:
        """The sequence through which ``node_id`` has durably applied: the
        leader's durability watermark, or the last shipped group a follower
        fsynced.  Hedged readers compare it against a session's last acked
        write to keep follower reads read-your-writes safe."""
        return self.nodes[node_id].durable_seq

    def get_from(self, node_id: int, key: bytes):
        """Generator: read one replica; ``(value, applied_seq)`` or None.

        None means the replica is not serving (crashed or staged).  The
        returned ``applied_seq`` is sampled *before* the read starts, so
        it is a conservative lower bound on the state the value reflects.
        """
        node = self.nodes[node_id]
        if node.state != ACTIVE or node.db is None:
            return None
        seq = node.durable_seq
        value = yield from node.db.get(key)
        if node.state != ACTIVE:
            return None  # crashed mid-read: the view is dead
        return (value, seq)

    def scan(self, start: bytes, end: bytes, limit: Optional[int] = None):
        """Generator: leader-only range scan (None when no leader)."""
        node = self.leader_node
        if node is None or node.state != ACTIVE or node.db is None:
            return None
        return (yield from node.db.scan(start, end, limit=limit))

    def write_quorum_reachable(self) -> bool:
        """True when the leader can currently assemble an ack quorum.

        The admission-controller brownout probe: the leader plus every
        active follower the network would deliver to now.  Side-effect free.
        """
        leader = self.leader_node
        if leader is None or leader.state != ACTIVE:
            return False
        net = self.network
        reachable = 1
        for node in self.nodes:
            i = node.node_id
            if i != leader.node_id and node.state == ACTIVE and not net.down[i]:
                reachable += not net.partitioned(leader.node_id, i)
        return reachable >= self.quorum

    def _client_write(self, kind: str, key: bytes, value):
        node = self.leader_node
        if node is None or node.state != ACTIVE or node.db is None:
            return (False, 0)
        term = self.term
        deadline = self.engine.now + self.config.op_timeout_ns
        gen = node.db.put(key, value) if kind == "put" else node.db.delete(key)
        proc = self.engine.process(gen, name=f"cluster-{kind}")
        proc.callbacks.append(_null)
        try:
            yield self.engine.any_of([proc], timeout=self.config.op_timeout_ns)
        except Exception:
            return (False, 0)  # leader died / went read-only under us
        if not proc.triggered or proc.exception is not None:
            return (False, 0)
        if self.term != term or self.leader_id != node.node_id:
            return (False, 0)  # branch changed while writing: indeterminate
        seq = node.db.versions.last_sequence
        node.advance_durable(seq)
        self._advance_commit()
        acked = yield from self._wait_commit(seq, term, deadline)
        return (acked, seq)

    def _wait_commit(self, seq: int, term: int, deadline: int):
        """Generator: True once ``seq`` commits in ``term`` (else timeout)."""
        while self.commit_seq < seq:
            now = self.engine.now
            if self.term != term or now >= deadline:
                return False
            ev = Event(self.engine)
            self._commit_waiters.append((seq, ev))
            yield self.engine.any_of([ev], timeout=deadline - now)
            if not ev.triggered:
                self._commit_waiters = [
                    (s, e) for s, e in self._commit_waiters if e is not ev
                ]
        return self.term == term

    # -- shutdown ----------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop shippers and pumps (end of run; state is left for inspection)."""
        self.running = False
        for node in self.nodes:
            node.fire_log_grew()
