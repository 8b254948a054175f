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
* **leader re-discovery** — a write that finds no leader asks the
  cluster's control plane for an election (``Cluster.elect``) before
  counting the attempt as failed, so clients ride through elections
  instead of erroring out;
* **retry-storm suppression** — a per-shard :class:`ShardBreaker`
  (sliding-window circuit breaker with a half-open probe) fast-fails
  ops against a hard-down shard with :class:`~repro.errors.ShedError`
  rather than piling retries onto it.

The client needs only a small part of the cluster's surface (see
:class:`ShardClient`), so the policy is testable in isolation against a
scripted fake — which is exactly what
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

    ``cluster`` is the shard's :class:`~repro.cluster.replication.Cluster`;
    tests pass scripted fakes of the part of its surface the policy uses::

        cluster.leader_id             -> Optional[int]
        cluster.nodes                 -> Sequence  (one entry per replica)
        cluster.applied_seq(node)     -> int            (non-blocking)
        cluster.get_from(node, key)   -> generator -> Optional[(value, seq)]
        cluster.put(key, value)       -> generator -> (acked: bool, seq: int)
        cluster.elect()               -> ask the control plane for a leader

    A read and a write run the same attempt loop (:meth:`_attempts`); they
    differ only in their one-attempt generator and their retry counter.

    One ShardClient is shared by every session talking to the shard, so
    its breaker aggregates failures fleet-wide — the point of retry-storm
    suppression is that *everyone* backs off a hard-down shard.
    """

    def __init__(
        self,
        engine,
        shard_id: int,
        cluster,
        policy: Optional[ClientPolicy] = None,
        rng: Optional[RandomStream] = None,
    ) -> None:
        self.engine = engine
        self.shard_id = shard_id
        self.cluster = cluster
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
        """Generator: until some proc settles (even by raising) or
        ``timeout_ns`` passes; with no time left it does not wait."""
        if timeout_ns > 0:
            try:
                yield self.engine.any_of(procs, timeout=timeout_ns)
            except Exception:
                pass  # a failed arm settles the wait too

    def _attempts(self, op: str, retries: str, attempt, session, *args):
        """Generator: ``attempt(session, *args, deadline)`` until one returns
        a result, behind the breaker and with backoff between tries.

        A failed attempt at or after the deadline raises
        :class:`~repro.errors.DeadlineExceededError` at once, and so does a
        backoff that would reach the deadline: no op outlives it.
        """
        engine = self.engine
        policy = self.policy
        breaker = self.breaker
        start = engine.now
        deadline = start + policy.op_deadline_ns
        for n in range(policy.max_attempts):
            if not breaker.allow(engine.now):
                self.stats["breaker_fastfail"] += 1
                raise ShedError(
                    f"shard {self.shard_id} breaker open ({op})",
                    reason="breaker",
                    shard=self.shard_id,
                )
            result = yield from attempt(session, *args, deadline)
            if result is not _FAILED:
                breaker.on_success(engine.now)
                return result
            breaker.on_failure(engine.now)
            if engine.now >= deadline:
                break
            if n + 1 == policy.max_attempts:
                self.stats["unavailable"] += 1
                raise ShardUnavailableError(
                    f"{op} on shard {self.shard_id} exhausted "
                    f"{policy.max_attempts} attempts",
                    shard=self.shard_id,
                    attempts=policy.max_attempts,
                )
            self.stats[retries] += 1
            delay = self.backoff_ns(n)
            if engine.now + delay >= deadline:
                break
            yield delay
        # Only a deadline ends the loop: the last attempt returns or raises.
        self.stats["deadline_exceeded"] += 1
        raise DeadlineExceededError(
            f"{op} on shard {self.shard_id} missed its deadline",
            op=op,
            elapsed_ns=engine.now - start,
        )

    # -- reads -------------------------------------------------------------

    def _caught_up(self, floor: int, exclude: Optional[int] = None) -> List[int]:
        """Replicas whose applied seq has reached the session floor."""
        out = []
        for node_id in range(len(self.cluster.nodes)):
            if node_id == exclude:
                continue
            if self.cluster.applied_seq(node_id) >= floor:
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
        cluster = self.cluster
        floor = session.seq_floor(self.shard_id)
        primary = cluster.leader_id
        if primary is None:
            # Mid-election: degrade the read to any caught-up replica.
            candidates = self._caught_up(floor)
            if not candidates:
                return _FAILED
            primary = candidates[0]
        pproc = self._spawn(
            cluster.get_from(primary, key), f"read-s{self.shard_id}-n{primary}"
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
                hedge_id = max(peers, key=lambda n: (cluster.applied_seq(n), -n))
        if hedge_id is None:
            yield from self._wait([pproc], deadline - engine.now)
            if pproc.triggered:
                return self._arm_result(session, pproc, primary, hedged=False)
            return _FAILED
        self.stats["hedges_launched"] += 1
        hproc = self._spawn(
            cluster.get_from(hedge_id, key), f"hedge-s{self.shard_id}-n{hedge_id}"
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
        return self._attempts("get", "read_retries", self._read_attempt, session, key)

    # -- writes ------------------------------------------------------------

    def _write_attempt(self, session: ClientSession, key: bytes, value, deadline: int):
        """Generator: one write attempt; the acked seq or _FAILED.

        A write that finds no leader first asks the control plane for one.
        """
        cluster = self.cluster
        if cluster.leader_id is None:
            self.stats["rediscoveries"] += 1
            cluster.elect()
            if cluster.leader_id is None:
                return _FAILED
        proc = self._spawn(cluster.put(key, value), f"write-s{self.shard_id}")
        yield from self._wait([proc], deadline - self.engine.now)
        if not proc.triggered:
            # Still in flight at the deadline: indeterminate — the abandoned
            # attempt may yet land, which retry-with-same-value keeps harmless.
            self.stats["indeterminate"] += 1
            return _FAILED
        if proc.exception is None:
            acked, seq = proc.value
            if acked:
                session.observe_write(self.shard_id, seq)
                return seq
        return _FAILED

    def write(self, session: ClientSession, key: bytes, value):
        """Generator: resilient write; returns the acked seq or raises.

        Retries re-send the *same* value, so an indeterminate earlier
        attempt that did land is idempotent (same key, same bytes) and
        the no-acked-write-loss audit stays value-based.
        """
        return self._attempts(
            "put", "write_retries", self._write_attempt, session, key, value
        )


__all__ = [
    "ClientPolicy",
    "ClientSession",
    "ReadOutcome",
    "ShardBreaker",
    "ShardClient",
]
