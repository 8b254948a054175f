"""The scenario core under the four DST harnesses.

A harness owns what is genuinely its own — topology, schedule draw,
client policy, verdict ladder — and takes the rest from here, where it
exists once: the generated workload (:class:`Op`, :func:`gen_ops`), the
run base (:class:`Scenario`: seed, named RNG stream, event log, the
drive and stepping loops, key-space reader, settle phase), the
prefix-cut oracle (:func:`find_cut`), the replication checks over a list
of clusters (the cluster DST is the one-cluster case of the serving
DST), and the result base (:class:`RunResult`, :func:`guarded`).

Invariants are plain functions returning a failure reason or ``None``;
each harness's ``run()`` evaluates the ones it wants in its own order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import CorruptionError, DBError
from repro.faults import (
    CRASH,
    SCHEMA_VERSION,
    FaultSchedule,
    FaultSpec,
)
from repro.harness.machine import Machine
from repro.sim.engine import Engine
from repro.sim.rng import RandomStream
from repro.sim.units import mb, ms
from repro.storage.profiles import xpoint_ssd

CORRUPT = object()  # observed-value sentinel: read failed with CorruptionError

PUT = "put"
DELETE = "delete"
GET = "get"

#: One control event: (virtual time, action, node).
Control = Tuple[int, str, int]


# -- workload and oracle ------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One generated workload operation (index counts writes only)."""

    kind: str
    key: bytes
    value: Optional[bytes] = None
    index: int = 0  # 1-based write index; 0 for reads and unnumbered writes


def key_of(key_id: int) -> bytes:
    return b"k%04d" % key_id


def stamped(index: int, key: bytes, pad: bytes) -> bytes:
    """Self-describing value: the bytes encode which write produced them."""
    return b"op%06d:%s:" % (index, key) + pad


def gen_ops(
    rng: RandomStream,
    num_ops: int,
    num_keys: int,
    pad: Tuple[int, int],
    numbered: bool = True,
) -> List[Op]:
    """The full op sequence, fixed up front: 70% put, 15% delete, 15% get.

    ``numbered`` numbers the writes from 1 here and stamps each put's
    value with its index.  A client that retries a write as a *new* write
    wants them unnumbered: a put then carries only its ``pad`` bytes, and
    the client stamps index and value per attempt.
    """
    lo, hi = pad
    ops: List[Op] = []
    index = 0
    for _ in range(num_ops):
        key = key_of(rng.randint(0, num_keys - 1))
        roll = rng.uniform(0.0, 1.0)
        if roll >= 0.85:
            ops.append(Op(GET, key))
            continue
        if numbered:
            index += 1
        if roll < 0.70:
            padding = b"x" * rng.randint(lo, hi)
            value = stamped(index, key, padding) if numbered else padding
            ops.append(Op(PUT, key, value, index))
        else:
            ops.append(Op(DELETE, key, None, index))
    return ops


def apply_write(state: Dict[bytes, bytes], op: Op) -> None:
    """Replay one write into the expected-state dict."""
    if op.kind == PUT:
        state[op.key] = op.value
    else:
        state.pop(op.key, None)


def _matches(state: Dict[bytes, bytes], observed: Dict[bytes, object]) -> bool:
    for key, value in observed.items():
        if value is CORRUPT:
            continue  # detected loss: consistent with any expectation
        if state.get(key) != value:
            return False
    for key in state:
        if key not in observed:
            return False
    return True


def find_cut(writes: Sequence[Op], observed: Dict[bytes, object], min_cut: int) -> int:
    """Smallest prefix cut >= ``min_cut`` whose replay matches ``observed``
    (-1 if none).  A key observed as :data:`CORRUPT` matches any
    expectation; with nothing corrupt this is plain state equality."""
    state: Dict[bytes, bytes] = {}
    for cut in range(len(writes) + 1):
        if cut > 0:
            apply_write(state, writes[cut - 1])
        if cut >= min_cut and _matches(state, observed):
            return cut
    return -1


# -- results and guarded construction -----------------------------------------

#: The saved schedule of a run that drew no faults (a space storm,
#: ``--no-faults``): the explicit v2 form of an empty schedule, so that
#: ``--replay`` can refuse a bare ``[]``, which would silently run a seed
#: with every fault dropped.
NO_FAULTS_JSON = json.dumps({"version": SCHEMA_VERSION, "specs": []}, indent=2)


@dataclass(kw_only=True)
class RunResult:
    """What every harness result carries: verdict + byte-comparable log."""

    seed: int
    ok: bool
    reason: str  # "" when ok
    schedule_json: str
    events: List[str] = field(default_factory=list)
    raised: bool = False  # the harness raised instead of returning a verdict

    @property
    def verdict(self) -> str:
        if self.ok:
            return "PASS"
        return f"{'EXCEPTION' if self.raised else 'FAIL'}({self.reason})"


def make_config(config_cls, **offered):
    """``config_cls`` from whichever of the ``offered`` values it has a
    field for: one table of CLI flags, or one genome, reaches all four
    configs this way instead of through a per-mode branch."""
    fields = {f.name for f in dataclasses.fields(config_cls)}
    return config_cls(**{k: v for k, v in offered.items() if k in fields})


def guarded(make_run: Callable[[], "Scenario"]) -> RunResult:
    """Build and run one harness; a harness that raises is itself a
    finding, so the exception becomes a failing bare :class:`RunResult`
    (verdict ``EXCEPTION(<Type>: <msg>)``, the log and schedule the run
    got to) instead of killing the sweep or fuzz loop around it."""
    run = None
    try:
        run = make_run()
        return run.run()
    except Exception as exc:  # noqa: BLE001 — an escaping exception IS the finding
        reason = f"{type(exc).__name__}: {exc}"
        if run is None:  # the constructor raised: there is no log or schedule yet
            return RunResult(seed=-1, ok=False, reason=reason, schedule_json="", raised=True)
        return run.result(RunResult, reason, raised=True)


# -- the run base -------------------------------------------------------------


class Scenario:
    """One seeded universe: what every harness run is before its topology.

    A subclass names its RNG ``stream`` (part of every seed's identity),
    builds its machines, sets ``engine`` and ``schedule``, writes ``run()``
    and, to draw its own chaos, ``draw_schedule()``.
    """

    stream: str
    engine: Engine
    schedule: FaultSchedule

    def __init__(self, seed: int, config) -> None:
        self.seed = seed
        self.config = config
        self.rng = RandomStream(seed, self.stream)
        self.events: List[str] = []

    def resolve_schedule(self) -> FaultSchedule:
        """The config's explicit schedule (a replay, a fuzzer genome), else
        the harness's own draw — or nothing when ``config.faults`` is off."""
        if self.config.schedule is not None:
            return self.config.schedule
        if not getattr(self.config, "faults", True):
            return FaultSchedule()
        return self.draw_schedule()

    def build_machine(self) -> None:
        """One fault-injected node under ``self.schedule`` (XPoint profile,
        16 MB page cache): sets ``injector``, ``device`` and ``fs``."""
        machine = Machine.build(
            self.engine, self.rng, xpoint_ssd(), mb(16), schedule=self.schedule
        )
        self.injector, self.device, self.fs = machine.injector, machine.device, machine.fs

    def result(self, result_cls, reason: Optional[str], **fields):
        """This run's ``result_cls``; ``reason`` None is a PASS."""
        return result_cls(
            seed=self.seed,
            ok=reason is None,
            reason=reason or "",
            schedule_json=self.schedule.to_json() if self.schedule.specs else NO_FAULTS_JSON,
            events=self.events,
            **fields,
        )

    def log(self, line: str) -> None:
        self.events.append(f"t={self.engine.now} {line}")

    def spawn(self, gen, name: str):
        """Start a process the harness itself joins (its errors are ours)."""
        proc = self.engine.process(gen, name=name)
        proc.callbacks.append(lambda _ev: None)
        return proc

    def drive(self, gen, name: str):
        """Drive one generator to completion; raise what it raised."""
        proc = self.spawn(gen, name)
        self.engine.run(stop=[proc])
        if not proc.done:
            raise DBError(f"{self.stream}: {name} deadlocked")
        if proc.exception is not None:
            raise proc.exception
        return proc.value

    def step(self, procs: Sequence, controls: Sequence[Control], fire) -> None:
        """Drive the engine until every proc is done (raising what one
        raised) and every control has fired: ``fire(action, node)`` at its
        exact virtual time, after the engine events of that instant, and
        through dead air when the machine is idle.

        Each run halts at the end of the instant in which a proc finishes,
        so a failure raises before anything later runs.  A control's own
        instant runs whole before it fires, and a proc that finished in that
        instant is checked after the fire."""
        engine = self.engine
        n_controls = len(controls)
        i = 0
        while True:
            pending = []
            for p in procs:
                if not p.done:
                    pending.append(p)
                elif p.exception is not None:
                    raise p.exception
            if i < n_controls:
                due, action, node = controls[i]
                if engine.now < due:
                    engine.run(until=due, stop=pending)
                    if engine.now < due:
                        continue  # a proc finished first
                i += 1
                fire(action, node)
                continue
            if not pending:
                return
            if engine.peek() is None:
                raise DBError(f"{self.stream} deadlocked (hung op?)")
            engine.run(stop=pending)

    def read_keys(self, get, name: str, extra: Iterable[bytes] = ()) -> Dict[bytes, object]:
        """Observed state: the whole key space (plus ``extra``) read through
        ``get``.  Absent keys are omitted; a read that detects corruption
        maps its key to :data:`CORRUPT`."""
        observed: Dict[bytes, object] = {}
        keys = [key_of(k) for k in range(self.config.num_keys)]
        keys.extend(extra)

        def reader():
            for key in keys:
                try:
                    value = yield from get(key)
                except CorruptionError:
                    self.log(f"verify read {key.decode()}: corruption detected")
                    observed[key] = CORRUPT
                    continue
                if value is not None:
                    observed[key] = value

        self.drive(reader(), name)
        return observed

    def settle(self, clusters: Sequence) -> bool:
        """Heal every net fault, restart every down node, re-elect, then
        wait up to ``config.settle_ns`` for convergence (True if it came)."""
        for cluster in clusters:
            cluster.network.heal()
            cluster.network.end_windows()
        for cluster in clusters:
            for node in cluster.nodes:
                if not node.alive:
                    cluster.restart_node(node.node_id)
            cluster.elect()

        def waiter():
            deadline = self.engine.now + self.config.settle_ns
            while self.engine.now < deadline:
                if converged(clusters):
                    return True
                yield ms(1)
            return converged(clusters)

        return self.drive(waiter(), "settle")


# -- replication checks, over a list of clusters -------------------------------


def crash_controls(
    specs: Iterable[FaultSpec], rng: RandomStream, horizon_ns: int, n_nodes: int
) -> List[Control]:
    """Crash specs as sorted control events, each followed by a restart
    whose delay is drawn from ``rng``, so every crashed node rejoins (and
    divergence truncation runs) within the horizon."""
    controls: List[Control] = []
    for spec in specs:
        if spec.kind != CRASH:
            continue
        node = (spec.node or 0) % n_nodes
        controls.append((spec.at_time, "crash", node))
        delay = rng.randint(ms(2), max(ms(4), horizon_ns // 4))
        controls.append((spec.at_time + delay, "restart", node))
    controls.sort()
    return controls


def converged(clusters: Sequence) -> bool:
    """Every cluster has a leader and every node is active at its log length."""
    for cluster in clusters:
        leader = cluster.leader_node
        if leader is None:
            return False
        llen = len(leader.log)
        for node in cluster.nodes:
            if not node.active or len(node.log) != llen:
                return False
    return True


def recorded_violation(cluster) -> Optional[str]:
    """What the cluster layer itself flagged (resurrection, active divergence)."""
    return f"invariant: {cluster.violations[0]}" if cluster.violations else None


def prefix_violation(cluster) -> Optional[str]:
    """Every node's log must be a prefix of the (settled) leader's log."""
    ltags = [g.tag for g in cluster.leader_node.log]
    for node in cluster.nodes:
        tags = [g.tag for g in node.log]
        if tags != ltags[: len(tags)]:
            return f"node {node.node_id} log is not a leader-log prefix"
    return None


def term_violation(cluster) -> Optional[str]:
    """At most one leader per term, over the whole run."""
    terms = [t for t, _n in cluster.term_history]
    if len(terms) != len(set(terms)):
        return f"multiple leaders in one term: {cluster.term_history}"
    return None


def first_violation(clusters: Sequence, *checks) -> Optional[str]:
    """The first failure of ``checks`` (each ``cluster -> reason or None``),
    cluster by cluster; with several clusters the reason names the group."""
    for g, cluster in enumerate(clusters):
        for check in checks:
            reason = check(cluster)
            if reason is not None:
                return f"group {g} {reason}" if len(clusters) > 1 else reason
    return None


def log_digest(clusters: Sequence) -> str:
    """md5 over every leader log's tags (``|``-framed per cluster when
    there are several)."""
    digest = hashlib.md5()
    for cluster in clusters:
        leader = cluster.leader_node
        if leader is not None:
            for g in leader.log:
                digest.update(b"%d:%d;" % g.tag)
        if len(clusters) > 1:
            digest.update(b"|")
    return digest.hexdigest()
