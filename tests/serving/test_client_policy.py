"""Isolated tests for the resilient client policy (``repro.serving.client``).

The shard group is a scripted fake, so every mechanism — deadline
expiry, backoff jitter, hedge races, breaker trips — is exercised in
deterministic virtual time with no cluster underneath.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    DeadlineExceededError,
    ShardUnavailableError,
    ShedError,
)
from repro.serving.client import (
    ClientPolicy,
    ClientSession,
    ShardBreaker,
    ShardClient,
)
from repro.sim.engine import Engine
from repro.sim.rng import RandomStream
from repro.sim.units import ms, us
from tests.conftest import run_op


def sleep_until(engine, when):
    def sleeper():
        if when > engine.now:
            yield when - engine.now

    run_op(engine, sleeper(), "sleep")


class FakeGroup:
    """Scripted replicated shard group implementing the duck-typed surface."""

    def __init__(self, engine, replicas=3, leader=0):
        self.engine = engine
        self.leader_id = leader
        self._applied = {i: 0 for i in range(replicas)}
        self.read_latency = {i: us(100) for i in range(replicas)}
        self.read_fail = set()  # node ids whose reads come back empty-handed
        self.write_latency = us(200)
        self.write_acks = True
        self.seq = 0
        self.reads = []  # (node, key, started_at)
        self.rediscover_calls = 0
        self.leader_after_rediscover = None

    def replica_ids(self):
        return sorted(self._applied)

    def applied_seq(self, node_id):
        return self._applied[node_id]

    def set_applied(self, node_id, seq):
        self._applied[node_id] = seq

    def read(self, node_id, key):
        self.reads.append((node_id, key, self.engine.now))
        yield self.read_latency[node_id]
        if node_id in self.read_fail:
            return None
        return (b"value-from-%d" % node_id, self._applied[node_id])

    def write(self, key, value):
        yield self.write_latency
        if not self.write_acks:
            return (False, 0)
        self.seq += 1
        for node_id in self._applied:
            self._applied[node_id] = self.seq
        return (True, self.seq)

    def rediscover(self):
        self.rediscover_calls += 1
        if self.leader_after_rediscover is not None:
            self.leader_id = self.leader_after_rediscover
        return self.leader_id


def make_client(engine, group, seed=7, **policy_kwargs):
    policy = ClientPolicy(**policy_kwargs)
    return ShardClient(
        engine, 0, group, policy, RandomStream(seed, "client-test")
    )


class TestDeadlines:
    def test_slow_read_resolves_exactly_at_deadline(self):
        """An op against a stuck shard raises a typed error *at* the
        deadline — it neither hangs past it nor gives up early."""
        engine = Engine()
        group = FakeGroup(engine)
        group.read_latency = {i: ms(500) for i in range(3)}
        client = make_client(engine, group, op_deadline_ns=ms(5))
        session = ClientSession("t0")
        with pytest.raises(DeadlineExceededError) as exc_info:
            run_op(engine, client.read(session, b"k"))
        assert exc_info.value.op == "get"
        assert exc_info.value.elapsed_ns <= ms(5)
        assert engine.now == ms(5)  # resolved exactly at the deadline

    def test_slow_write_is_counted_indeterminate(self):
        engine = Engine()
        group = FakeGroup(engine)
        group.write_latency = ms(500)
        client = make_client(engine, group, op_deadline_ns=ms(4))
        with pytest.raises(DeadlineExceededError) as exc_info:
            run_op(engine, client.write(ClientSession("t0"), b"k", b"v"))
        assert exc_info.value.op == "put"
        assert exc_info.value.elapsed_ns <= ms(4)
        assert client.stats.get("indeterminate") == 1

    def test_backoff_never_sleeps_past_deadline(self):
        """A retry whose backoff would overshoot raises instead of
        sleeping: at resolution, elapsed <= deadline always holds."""
        engine = Engine()
        group = FakeGroup(engine)
        group.read_fail = {0, 1, 2}
        client = make_client(
            engine,
            group,
            op_deadline_ns=ms(1),
            base_backoff_ns=us(400),
            max_attempts=8,
            hedge_reads=False,
        )
        with pytest.raises(DeadlineExceededError):
            run_op(engine, client.read(ClientSession("t0"), b"k"))
        assert engine.now <= ms(1)


class TestBackoff:
    def test_same_seed_reproduces_jitter_exactly(self):
        engine = Engine()
        group = FakeGroup(engine)
        a = make_client(engine, group, seed=11)
        b = make_client(engine, group, seed=11)
        assert [a.backoff_ns(i) for i in range(6)] == [
            b.backoff_ns(i) for i in range(6)
        ]

    def test_different_seeds_desynchronize(self):
        engine = Engine()
        group = FakeGroup(engine)
        a = make_client(engine, group, seed=11)
        b = make_client(engine, group, seed=12)
        assert [a.backoff_ns(i) for i in range(6)] != [
            b.backoff_ns(i) for i in range(6)
        ]

    def test_exponential_envelope_with_cap(self):
        engine = Engine()
        client = make_client(
            engine,
            FakeGroup(engine),
            base_backoff_ns=us(200),
            max_backoff_ns=ms(8),
            backoff_jitter=0.5,
        )
        for attempt in range(12):
            nominal = min(ms(8), us(200) * (1 << attempt))
            delay = client.backoff_ns(attempt)
            assert 1 <= delay <= nominal * 1.5 + 1


class TestHedging:
    def test_fast_primary_never_hedges(self):
        engine = Engine()
        group = FakeGroup(engine)
        client = make_client(engine, group)
        outcome = run_op(engine, client.read(ClientSession("t0"), b"k"))
        assert outcome.node_id == 0 and not outcome.hedged
        assert client.stats.get("hedges_launched", 0) == 0
        assert len(group.reads) == 1

    def test_slow_primary_hedges_and_loser_is_cancelled(self):
        """Quiet primary -> hedge to the most caught-up follower; the
        first success wins and the abandoned arm is counted cancelled."""
        engine = Engine()
        group = FakeGroup(engine)
        group.read_latency[0] = ms(20)  # leader glacial
        group.read_latency[1] = us(150)
        group.read_latency[2] = us(100)
        group.set_applied(2, 5)  # node 2 most caught up
        client = make_client(engine, group, hedge_delay_ns=ms(2))
        outcome = run_op(engine, client.read(ClientSession("t0"), b"k"))
        assert outcome.hedged and outcome.node_id == 2
        assert outcome.value == b"value-from-2"
        assert client.stats.get("hedges_launched") == 1
        assert client.stats.get("hedges_won") == 1
        assert client.stats.get("hedges_cancelled") == 1
        # Resolved at hedge_delay + follower latency, far before the
        # primary would have answered.
        assert engine.now == ms(2) + us(100)

    def test_primary_finishing_first_beats_the_hedge(self):
        engine = Engine()
        group = FakeGroup(engine)
        group.read_latency[0] = ms(3)  # slow enough to trigger the hedge
        group.read_latency[1] = ms(30)  # hedge arm much slower
        group.read_latency[2] = ms(30)
        client = make_client(engine, group, hedge_delay_ns=ms(2))
        outcome = run_op(engine, client.read(ClientSession("t0"), b"k"))
        assert not outcome.hedged and outcome.node_id == 0
        assert client.stats.get("hedges_launched") == 1
        assert client.stats.get("hedges_won", 0) == 0
        assert client.stats.get("hedges_cancelled") == 1

    def test_hedge_targets_respect_session_floor(self):
        """A follower behind the session's write floor is not a legal
        hedge target (it could time-travel before the session's writes)."""
        engine = Engine()
        group = FakeGroup(engine)
        group.read_latency[0] = ms(20)
        session = ClientSession("t0")
        session.observe_write(0, 7)  # floor = 7; followers applied = 0
        client = make_client(engine, group, hedge_delay_ns=ms(2), op_deadline_ns=ms(25))
        outcome = run_op(engine, client.read(session, b"k"))
        assert client.stats.get("hedges_launched", 0) == 0
        assert outcome.node_id == 0  # waited the primary out instead
        assert session.ryw_violations  # and the stale leader read is flagged

    def test_leaderless_read_degrades_to_caught_up_follower(self):
        engine = Engine()
        group = FakeGroup(engine, leader=0)
        group.leader_id = None
        outcome = run_op(
            engine, make_client(engine, group).read(ClientSession("t0"), b"k")
        )
        assert outcome.node_id in (0, 1, 2)


class TestBreaker:
    def test_retry_storm_is_suppressed_on_a_hard_down_shard(self):
        """Once the breaker trips, further ops shed instantly instead of
        piling attempts onto the dead shard."""
        engine = Engine()
        group = FakeGroup(engine)
        group.read_fail = {0, 1, 2}
        client = make_client(
            engine,
            group,
            hedge_reads=False,
            max_attempts=5,
            breaker_failure_threshold=8,
            op_deadline_ns=ms(40),
        )
        session = ClientSession("t0")
        with pytest.raises(ShardUnavailableError):
            run_op(engine, client.read(session, b"k"))  # 5 failed attempts
        with pytest.raises(ShedError) as exc_info:
            run_op(engine, client.read(session, b"k"))  # trips at 8
        assert exc_info.value.reason == "breaker"
        attempts_before = len(group.reads)
        assert attempts_before == 8
        for _ in range(10):
            with pytest.raises(ShedError):
                run_op(engine, client.read(session, b"k"))
        assert len(group.reads) == attempts_before  # zero new load sent
        assert client.breaker.open and client.breaker.trips == 1
        assert client.stats.get("breaker_fastfail", 0) >= 10

    def test_half_open_probe_recovers_the_shard(self):
        engine = Engine()
        group = FakeGroup(engine)
        group.read_fail = {0, 1, 2}
        client = make_client(
            engine,
            group,
            hedge_reads=False,
            max_attempts=4,
            breaker_failure_threshold=4,
            breaker_cooloff_ns=ms(10),
        )
        session = ClientSession("t0")
        with pytest.raises((ShardUnavailableError, ShedError)):
            run_op(engine, client.read(session, b"k"))
        assert client.breaker.open
        group.read_fail.clear()  # shard comes back
        sleep_until(engine, engine.now + ms(11))  # past the cooloff
        outcome = run_op(engine, client.read(session, b"k"))  # the probe
        assert outcome.value == b"value-from-0"
        assert not client.breaker.open

    def test_failed_probe_reopens(self):
        engine = Engine()
        policy = ClientPolicy(breaker_failure_threshold=2, breaker_cooloff_ns=ms(5))
        breaker = ShardBreaker(policy)
        breaker.on_failure(0)
        breaker.on_failure(10)
        assert breaker.open
        assert not breaker.allow(100)  # still cooling off
        assert breaker.allow(ms(6))  # the half-open probe
        assert not breaker.allow(ms(6))  # only one probe at a time
        breaker.on_failure(ms(6))
        assert breaker.open  # probe failed: re-opened
        assert breaker.allow(ms(12))
        breaker.on_success(ms(12))
        assert not breaker.open


class TestWrites:
    def test_write_acks_and_advances_the_session_floor(self):
        engine = Engine()
        group = FakeGroup(engine)
        client = make_client(engine, group)
        session = ClientSession("t0")
        seq = run_op(engine, client.write(session, b"k", b"v"))
        assert seq == 1
        assert session.seq_floor(0) == 1

    def test_leaderless_write_rediscovers(self):
        engine = Engine()
        group = FakeGroup(engine)
        group.leader_id = None
        group.leader_after_rediscover = 1
        client = make_client(engine, group)
        seq = run_op(engine, client.write(ClientSession("t0"), b"k", b"v"))
        assert seq == 1
        assert group.rediscover_calls == 1
        assert client.stats.get("rediscoveries") == 1

    def test_nacked_writes_retry_then_exhaust(self):
        engine = Engine()
        group = FakeGroup(engine)
        group.write_acks = False
        client = make_client(
            engine, group, max_attempts=3, breaker_failure_threshold=99
        )
        with pytest.raises(ShardUnavailableError) as exc_info:
            run_op(engine, client.write(ClientSession("t0"), b"k", b"v"))
        assert exc_info.value.attempts == 3
        assert client.stats.get("write_retries") == 2
