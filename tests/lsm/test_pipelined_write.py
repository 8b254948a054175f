"""Tests for Algorithm 2: the pipelined write queue."""

import pytest
from hypothesis import find, given
from hypothesis import strategies as st

from repro.errors import DBError
from repro.lsm.pipelined_write import (
    ROLE_LEADER,
    ROLE_MEMBER,
    WriteQueue,
    Writer,
)
from repro.sim.engine import Engine
from repro.sim.units import KB, MB
from tests.conftest import TimeWeightedGauge


def make_writer(engine, nbytes=1024):
    writer = Writer([(b"k", (1, 1, b"v"))], nbytes)
    writer.event = engine.event()
    return writer


def make_queue(engine, max_group=1 * MB):
    return WriteQueue(engine, max_group)


def test_first_joiner_is_leader(engine):
    q = make_queue(engine)
    w = make_writer(engine)
    assert q.join(w) is True
    assert len(q._waiting) == 0


def test_subsequent_joiners_wait(engine):
    q = make_queue(engine)
    q.join(make_writer(engine))
    w2 = make_writer(engine)
    assert q.join(w2) is False
    assert len(q._waiting) == 1


def test_form_group_drains_waiters(engine):
    q = make_queue(engine)
    leader = make_writer(engine)
    q.join(leader)
    followers = [make_writer(engine) for _ in range(3)]
    for w in followers:
        q.join(w)
    group = q.form_group(leader)
    assert group == [leader] + followers
    assert sum(w.nbytes for w in group) == 4 * 1024
    assert len(q._waiting) == 0
    assert all(w.group is group for w in [leader] + followers)


def test_group_size_cap(engine):
    q = make_queue(engine, max_group=2 * KB)
    leader = make_writer(engine, nbytes=KB)
    q.join(leader)
    for _ in range(5):
        q.join(make_writer(engine, nbytes=KB))
    group = q.form_group(leader)
    # Cap checked before adding: the group stops once it reaches 2 KB.
    assert sum(w.nbytes for w in group) == 2 * KB
    assert len(group) == 2
    assert len(q._waiting) == 4


def test_wal_phase_wakes_members(engine):
    q = make_queue(engine)
    leader = make_writer(engine)
    q.join(leader)
    member = make_writer(engine)
    q.join(member)
    group = q.form_group(leader)
    q.wal_phase_done(group)
    assert member.event.triggered
    assert member.event.value == ROLE_MEMBER


def test_pipelined_promotes_next_leader_at_wal_done(engine):
    q = make_queue(engine)
    leader = make_writer(engine)
    q.join(leader)
    group = q.form_group(leader)  # group of one
    late = make_writer(engine)
    q.join(late)
    q.wal_phase_done(group)
    assert late.event.triggered
    assert late.event.value == ROLE_LEADER


def test_leadership_clears_when_queue_empty(engine):
    q = make_queue(engine)
    leader = make_writer(engine)
    q.join(leader)
    group = q.form_group(leader)
    q.wal_phase_done(group)
    # New writer immediately becomes leader again.
    w = make_writer(engine)
    assert q.join(w) is True


def test_member_done_underflow_rejected(engine):
    q = make_queue(engine)
    leader = make_writer(engine)
    q.join(leader)
    q.form_group(leader)
    q.member_done(leader)
    assert leader.group is None
    with pytest.raises(DBError):
        q.member_done(leader)


def test_fail_group_fails_members_and_unlinks_every_writer(engine):
    """No writer keeps its group (or a member its failed event): either
    link would make the failed write a reference cycle."""
    q = make_queue(engine)
    leader = make_writer(engine)
    q.join(leader)
    member = make_writer(engine)
    q.join(member)
    event = member.event
    group = q.form_group(leader)
    q.fail_group(group, DBError("wal append failed"))
    assert event.triggered and isinstance(event.exception, DBError)
    assert leader.group is None and member.group is None and member.event is None
    assert q.join(make_writer(engine)) is True  # leadership moved on


def test_group_accounting(engine):
    q = make_queue(engine)
    leader = make_writer(engine)
    q.join(leader)
    member = make_writer(engine)
    q.join(member)
    assert q.form_group(leader) == [leader, member]
    assert leader.group is member.group


def test_waiting_gauge_tracks_queue_length(engine):
    q = make_queue(engine)
    leader = make_writer(engine)
    q.join(leader)
    assert q.max_waiting == 0.0 and q.mean_waiting() == 0.0

    def filler():
        yield 100
        for _ in range(5):
            q.join(make_writer(engine))
        assert q.mean_waiting() == 5  # no time has passed since the first wait
        yield 100
        q.form_group(leader)
        yield 300

    engine.process(filler())
    engine.run()
    assert q.max_waiting == 5
    # Five writers waited 100 ns each, over the 400 ns since they joined.
    assert q.mean_waiting() == 5 * 100 / 400


def test_invalid_group_bytes(engine):
    with pytest.raises(DBError):
        WriteQueue(engine, 0)


# -- Fig. 16: summed writer waits against the per-transition gauge ------------

# One writer: (gap before it arrives, batch bytes, WAL ns, memtable ns, WAL fails)
_WRITER = st.tuples(
    st.integers(0, 40), st.integers(1, 3 * KB), st.integers(0, 60),
    st.integers(0, 60), st.integers(0, 9).map(lambda d: d == 0),
)
_SCHEDULE = st.tuples(
    st.lists(_WRITER, min_size=1, max_size=14),
    st.lists(st.integers(0, 400), max_size=6),  # extra reading times
)


def _readings(queue_cls, schedule):
    """Drive writers through a ``queue_cls`` queue; return, at every queue
    call and reading time, the queue's (mean_waiting, max_waiting) next to
    the spec gauge's — updated the way the queue once updated its own: with
    the queue length, at the instant it changed."""
    writers, sample_times = schedule
    engine = Engine()
    q = queue_cls(engine, 2 * KB)
    ref = TimeWeightedGauge()
    seen = [0]
    out = []

    def observe():
        n = len(q._waiting)
        if n != seen[0]:
            ref.update(engine.now, n)
            seen[0] = n
        out.append((
            (repr(q.mean_waiting()), q.max_waiting),
            (repr(ref.mean(engine.now)), ref.max_value),
        ))

    def writer(arrival, nbytes, wal_ns, mem_ns, fails):
        yield arrival
        w = Writer([(b"k", (1, 1, b"v"))], nbytes)
        leader = q.join(w)
        observe()
        role = ROLE_LEADER
        if not leader:
            try:
                role = yield w.event
            except DBError:
                return
        if role == ROLE_LEADER:
            group = q.form_group(w)
            observe()
            yield wal_ns
            if fails:
                q.fail_group(group, DBError("wal append failed"))
                observe()
                return
            q.wal_phase_done(group)
            observe()
        yield mem_ns
        q.member_done(w)

    def sampler():
        for t in sorted(sample_times):
            yield t - engine.now
            observe()

    arrival = 0
    for gap, nbytes, wal_ns, mem_ns, fails in writers:
        arrival += gap
        engine.process(writer(arrival, nbytes, wal_ns, mem_ns, fails))
    engine.process(sampler())
    engine.run()
    observe()
    return out


@given(schedule=_SCHEDULE)
def test_summed_waits_equal_the_per_transition_gauge(schedule):
    """ROADMAP 12(b) by construction: the mean of the queue length over time
    is the summed waits over the time since the first writer waited, bit
    for bit (float repr), at every instant; the peak is kept at enqueue."""
    for got, want in _readings(WriteQueue, schedule):
        assert got == want


class _DropsHandOffWait(WriteQueue):
    """Mutant: the writer promoted to leader loses its wait."""

    def wal_phase_done(self, group):
        waited = self._waited
        super().wal_phase_done(group)
        self._waited = waited


def test_spec_kills_a_queue_that_drops_one_wait():
    schedule = find(
        _SCHEDULE,
        lambda s: any(got != want for got, want in _readings(_DropsHandOffWait, s)),
    )
    assert any(got != want for got, want in _readings(_DropsHandOffWait, schedule))
