"""The resilient serving client: deadlines, retries, hedges, breakers.

Between a tenant and a replicated shard group sits this policy layer.
Its contract is the one the serving DST proves end to end — **every op
resolves by its deadline or raises a typed** :class:`~repro.errors.ServingError`
— and its mechanisms are the classic client-side resilience kit, all
deterministic in virtual time:

* **per-op deadlines** — an op never sleeps past its deadline: remaining
  time bounds every wait, and a backoff that would overshoot raises
  :class:`~repro.errors.DeadlineExceededError` instead of sleeping;
* **exponential backoff with seeded jitter** — retry delays double from
  ``base_backoff_ns`` up to ``max_backoff_ns``, jittered from the
  client's named RNG substream, so two clients retrying the same dead
  shard desynchronize yet every run replays bit-identically per seed;
* **hedged reads** — a read that is quiet for ``hedge_delay_ns`` launches
  a second attempt on the most-caught-up *other* replica; the first
  arm to finish wins and the loser is cancelled (abandoned to complete
  harmlessly in virtual time, its result discarded);
* **read-your-writes sessions** — a :class:`ClientSession` tracks the
  last acked write sequence per shard, and hedge targets are filtered to
  replicas whose applied sequence has caught up to that floor, so a
  follower read can never travel back before the session's own writes;
* **leader re-discovery** — a write that finds no leader pokes the
  group's control plane (``rediscover``) before counting the attempt as
  failed, so clients ride through elections instead of erroring out;
* **retry-storm suppression** — a per-shard :class:`ShardBreaker`
  (sliding-window circuit breaker with a half-open probe) fast-fails
  ops against a hard-down shard with :class:`~repro.errors.ShedError`
  rather than piling retries onto it.

The group is duck-typed (see :class:`ShardClient`), so the policy is
testable in isolation against scripted fakes — which is exactly what
``tests/serving/test_client_policy.py`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

from repro.errors import (
    DeadlineExceededError,
    ShardUnavailableError,
    ShedError,
    WorkloadError,
)
from repro.sim.rng import RandomStream
from repro.sim.stats import StatsSet
from repro.sim.units import ms, us


def _null(_ev) -> None:
    return None


#: The circuit breaker's sliding failure window.
BREAKER_WINDOW_NS = ms(20)


@dataclass(frozen=True)
class ClientPolicy:
    """Knobs of the per-op resilience policy (virtual-time ns)."""

    op_deadline_ns: int = ms(40)
    max_attempts: int = 5
    base_backoff_ns: int = us(200)
    max_backoff_ns: int = ms(8)
    backoff_jitter: float = 0.5
    #: Silence before a read hedges to a caught-up follower; hedging off
    #: when ``hedge_reads`` is False.
    hedge_delay_ns: int = ms(2)
    hedge_reads: bool = True
    # Circuit breaker: >= failure_threshold failures inside
    # BREAKER_WINDOW_NS opens the breaker for cooloff_ns; then one
    # half-open probe decides.
    breaker_failure_threshold: int = 8
    breaker_cooloff_ns: int = ms(10)

    def __post_init__(self) -> None:
        if self.op_deadline_ns <= 0 or self.max_attempts < 1:
            raise WorkloadError("deadline and attempts must be positive")
        if self.base_backoff_ns <= 0 or self.max_backoff_ns < self.base_backoff_ns:
            raise WorkloadError("backoff bounds must satisfy 0 < base <= max")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise WorkloadError("backoff jitter must be in [0, 1)")
        if self.hedge_delay_ns <= 0:
            raise WorkloadError("hedge delay must be positive")
        if self.breaker_failure_threshold < 1:
            raise WorkloadError("breaker threshold must be positive")
        if self.breaker_cooloff_ns <= 0:
            raise WorkloadError("breaker cooloff must be positive")


class ShardBreaker:
    """Sliding-window circuit breaker over virtual time.

    Closed: ops flow, failures accumulate in a ``BREAKER_WINDOW_NS``
    sliding window.  Reaching ``failure_threshold`` opens the breaker: ops
    fast-fail for ``cooloff_ns``.  After the cooloff one probe op is let
    through (half-open); its success closes the breaker, its failure
    re-opens it for another cooloff.  Entirely deterministic — state
    changes only on ``allow``/``on_success``/``on_failure`` calls.
    """

    def __init__(self, policy: ClientPolicy) -> None:
        self.policy = policy
        self._failures: List[int] = []
        self._open_until = -1
        self._probe_inflight = False
        self.trips = 0

    @property
    def open(self) -> bool:
        return self._open_until >= 0

    def allow(self, now: int) -> bool:
        """May an op proceed at ``now``?"""
        if self._open_until < 0:
            return True
        if now < self._open_until or self._probe_inflight:
            return False
        self._probe_inflight = True  # half-open: exactly one probe
        return True

    def on_success(self, now: int) -> None:
        if self._failures:
            self._failures.clear()
        self._open_until = -1
        self._probe_inflight = False

    def on_failure(self, now: int) -> None:
        if self.open:
            # The half-open probe failed: re-open for another cooloff.
            self._open_until = now + self.policy.breaker_cooloff_ns
            self._probe_inflight = False
            return
        cutoff = now - BREAKER_WINDOW_NS
        self._failures = [t for t in self._failures if t > cutoff]
        self._failures.append(now)
        if len(self._failures) >= self.policy.breaker_failure_threshold:
            self._open_until = now + self.policy.breaker_cooloff_ns
            self._probe_inflight = False
            self._failures.clear()
            self.trips += 1


class ClientSession:
    """One tenant session: the read-your-writes floor per shard."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._floors: Dict[int, int] = {}
        self.ryw_violations: List[str] = []

    def seq_floor(self, shard: int) -> int:
        return self._floors.get(shard, 0)

    def observe_write(self, shard: int, seq: int) -> None:
        if seq > self._floors.get(shard, 0):
            self._floors[shard] = seq

    def check_read(self, shard: int, applied_seq: int, now: int) -> None:
        floor = self.seq_floor(shard)
        if applied_seq < floor:
            self.ryw_violations.append(
                f"t={now} session {self.name} shard {shard}: read at "
                f"applied_seq {applied_seq} below write floor {floor}"
            )


class ReadOutcome(NamedTuple):
    """What one resilient read resolved to (value may be a miss)."""

    value: Optional[bytes]
    node_id: int
    applied_seq: int
    hedged: bool  # True when the hedge arm won


_FAILED = object()  # attempt sentinel: this arm produced no result


class ShardClient:
    """Deadline/retry/hedge policy against one replicated shard group.

    ``group`` is duck-typed; the resilient stack passes the real
    :class:`~repro.cluster.replication.Cluster` behind an adapter, tests
    pass scripted fakes.  Required surface::

        group.leader_id            -> Optional[int]
        group.replica_ids()        -> Sequence[int]
        group.applied_seq(node)    -> int            (non-blocking)
        group.read(node, key)      -> generator -> Optional[(value, seq)]
        group.write(key, value)    -> generator -> (acked: bool, seq: int)
        group.rediscover()         -> Optional[int]  (ask for an election)

    One ShardClient is shared by every session talking to the shard, so
    its breaker aggregates failures fleet-wide — the point of retry-storm
    suppression is that *everyone* backs off a hard-down shard.
    """

    def __init__(
        self,
        engine,
        shard_id: int,
        group,
        policy: Optional[ClientPolicy] = None,
        rng: Optional[RandomStream] = None,
    ) -> None:
        self.engine = engine
        self.shard_id = shard_id
        self.group = group
        self.policy = policy or ClientPolicy()
        self.rng = (rng or RandomStream(0, "client")).fork("backoff")
        self.breaker = ShardBreaker(self.policy)
        #: Policy counters: a ticker dict, so a missing name reads as 0.
        self.stats: Dict[str, int] = StatsSet().counters()

    # -- shared machinery --------------------------------------------------

    def backoff_ns(self, attempt: int) -> int:
        """Jittered exponential backoff for retry number ``attempt`` (0-based)."""
        base = min(
            self.policy.max_backoff_ns,
            self.policy.base_backoff_ns * (1 << attempt),
        )
        return max(1, round(self.rng.jittered(base, self.policy.backoff_jitter)))

    def _spawn(self, gen, name: str):
        proc = self.engine.process(gen, name=name)
        proc.callbacks.append(_null)
        return proc

    def _wait(self, procs, timeout_ns: int):
        """Generator: until some proc settles (even by raising) or timeout."""
        engine = self.engine
        deadline = engine.now + max(0, timeout_ns)
        while engine.now < deadline:
            for p in procs:
                if p.triggered:
                    return
            try:
                yield engine.any_of(procs, timeout=deadline - engine.now)
            except Exception:
                pass  # a failed arm settles it; the loop re-checks

    def _shed(self, op: str) -> ShedError:
        self.stats["breaker_fastfail"] += 1
        return ShedError(
            f"shard {self.shard_id} breaker open ({op})",
            reason="breaker",
            shard=self.shard_id,
        )

    def _deadline_error(self, op: str, start: int) -> DeadlineExceededError:
        self.stats["deadline_exceeded"] += 1
        return DeadlineExceededError(
            f"{op} on shard {self.shard_id} missed its deadline",
            op=op,
            elapsed_ns=self.engine.now - start,
        )

    # -- reads -------------------------------------------------------------

    def _caught_up(self, floor: int, exclude: Optional[int] = None) -> List[int]:
        """Replicas whose applied seq has reached the session floor."""
        out = []
        for node_id in self.group.replica_ids():
            if node_id == exclude:
                continue
            if self.group.applied_seq(node_id) >= floor:
                out.append(node_id)
        return out

    def _arm_result(self, session: ClientSession, proc, node_id: int, hedged: bool):
        if proc.exception is not None:
            return _FAILED
        result = proc.value
        if result is None:
            return _FAILED
        value, applied = result
        session.check_read(self.shard_id, applied, self.engine.now)
        return ReadOutcome(value, node_id, applied, hedged)

    def _read_attempt(self, session: ClientSession, key: bytes, deadline: int):
        """Generator: one (possibly hedged) read attempt; ReadOutcome or _FAILED."""
        engine = self.engine
        floor = session.seq_floor(self.shard_id)
        primary = self.group.leader_id
        if primary is None:
            # Mid-election: degrade the read to any caught-up replica.
            candidates = self._caught_up(floor)
            if not candidates:
                return _FAILED
            primary = candidates[0]
        pproc = self._spawn(
            self.group.read(primary, key), f"read-s{self.shard_id}-n{primary}"
        )
        first_wait = min(self.policy.hedge_delay_ns, deadline - engine.now)
        yield from self._wait([pproc], first_wait)
        if pproc.triggered:
            return self._arm_result(session, pproc, primary, hedged=False)
        hedge_id: Optional[int] = None
        if self.policy.hedge_reads:
            peers = self._caught_up(floor, exclude=primary)
            if peers:
                # Most-caught-up peer; ties go to the lowest node id.
                hedge_id = max(peers, key=lambda n: (self.group.applied_seq(n), -n))
        if hedge_id is None:
            yield from self._wait([pproc], deadline - engine.now)
            if pproc.triggered:
                return self._arm_result(session, pproc, primary, hedged=False)
            return _FAILED
        self.stats["hedges_launched"] += 1
        hproc = self._spawn(
            self.group.read(hedge_id, key), f"hedge-s{self.shard_id}-n{hedge_id}"
        )
        yield from self._wait([pproc, hproc], deadline - engine.now)
        if pproc.triggered:
            result = self._arm_result(session, pproc, primary, hedged=False)
            if result is not _FAILED:
                if not hproc.triggered:
                    self.stats["hedges_cancelled"] += 1  # loser abandoned mid-flight
                return result
        if hproc.triggered:
            result = self._arm_result(session, hproc, hedge_id, hedged=True)
            if result is not _FAILED:
                self.stats["hedges_won"] += 1
                if not pproc.triggered:
                    self.stats["hedges_cancelled"] += 1
                return result
        return _FAILED

    def read(self, session: ClientSession, key: bytes):
        """Generator: resilient read; :class:`ReadOutcome` or typed error."""
        engine = self.engine
        start = engine.now
        deadline = start + self.policy.op_deadline_ns
        for attempt in range(self.policy.max_attempts):
            now = engine.now
            if now >= deadline:
                self.breaker.on_failure(now)
                raise self._deadline_error("get", start)
            if not self.breaker.allow(now):
                raise self._shed("get")
            result = yield from self._read_attempt(session, key, deadline)
            if result is not _FAILED:
                self.breaker.on_success(engine.now)
                return result
            self.breaker.on_failure(engine.now)
            if engine.now >= deadline:
                raise self._deadline_error("get", start)
            if attempt + 1 < self.policy.max_attempts:
                self.stats["read_retries"] += 1
                delay = self.backoff_ns(attempt)
                if engine.now + delay >= deadline:
                    raise self._deadline_error("get", start)
                yield delay
        self.stats["unavailable"] += 1
        raise ShardUnavailableError(
            f"get on shard {self.shard_id} exhausted "
            f"{self.policy.max_attempts} attempts",
            shard=self.shard_id,
            attempts=self.policy.max_attempts,
        )

    # -- writes ------------------------------------------------------------

    def write(self, session: ClientSession, key: bytes, value):
        """Generator: resilient write; returns the acked seq or raises.

        Retries re-send the *same* value, so an indeterminate earlier
        attempt that did land is idempotent (same key, same bytes) and
        the no-acked-write-loss audit stays value-based.
        """
        engine = self.engine
        start = engine.now
        deadline = start + self.policy.op_deadline_ns
        for attempt in range(self.policy.max_attempts):
            now = engine.now
            if now >= deadline:
                self.breaker.on_failure(now)
                raise self._deadline_error("put", start)
            if not self.breaker.allow(now):
                raise self._shed("put")
            if self.group.leader_id is None:
                self.stats["rediscoveries"] += 1
                self.group.rediscover()
            acked = False
            seq = 0
            if self.group.leader_id is not None:
                proc = self._spawn(
                    self.group.write(key, value), f"write-s{self.shard_id}"
                )
                yield from self._wait([proc], deadline - engine.now)
                if not proc.triggered:
                    # Still in flight at the deadline: indeterminate — the
                    # abandoned attempt may yet land, which retry-with-
                    # same-value keeps harmless.
                    self.breaker.on_failure(engine.now)
                    self.stats["indeterminate"] += 1
                    raise self._deadline_error("put", start)
                if proc.exception is None and proc.value is not None:
                    acked, seq = proc.value
            if acked:
                self.breaker.on_success(engine.now)
                session.observe_write(self.shard_id, seq)
                return seq
            self.breaker.on_failure(engine.now)
            if attempt + 1 < self.policy.max_attempts:
                self.stats["write_retries"] += 1
                delay = self.backoff_ns(attempt)
                if engine.now + delay >= deadline:
                    raise self._deadline_error("put", start)
                yield delay
        self.stats["unavailable"] += 1
        raise ShardUnavailableError(
            f"put on shard {self.shard_id} exhausted "
            f"{self.policy.max_attempts} attempts",
            shard=self.shard_id,
            attempts=self.policy.max_attempts,
        )


__all__ = [
    "ClientPolicy",
    "ClientSession",
    "ReadOutcome",
    "ShardBreaker",
    "ShardClient",
]
