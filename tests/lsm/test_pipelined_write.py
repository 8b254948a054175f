"""Tests for Algorithm 2: the pipelined write queue."""

import pytest

from repro.errors import DBError
from repro.lsm.pipelined_write import (
    ROLE_LEADER,
    ROLE_MEMBER,
    WriteGroup,
    WriteQueue,
    Writer,
)
from repro.sim.units import KB, MB


def make_writer(engine, nbytes=1024):
    return Writer([(b"k", (1, 1, b"v"))], nbytes, engine.event())


def make_queue(engine, max_group=1 * MB, pipelined=True):
    return WriteQueue(engine, max_group, pipelined)


def test_first_joiner_is_leader(engine):
    q = make_queue(engine)
    w = make_writer(engine)
    assert q.join(w) is True
    assert q.waiting_count == 0


def test_subsequent_joiners_wait(engine):
    q = make_queue(engine)
    q.join(make_writer(engine))
    w2 = make_writer(engine)
    assert q.join(w2) is False
    assert q.waiting_count == 1


def test_form_group_drains_waiters(engine):
    q = make_queue(engine)
    leader = make_writer(engine)
    q.join(leader)
    followers = [make_writer(engine) for _ in range(3)]
    for w in followers:
        q.join(w)
    group = q.form_group(leader)
    assert len(group) == 4
    assert group.total_bytes == 4 * 1024
    assert q.waiting_count == 0
    assert all(w.group is group for w in [leader] + followers)


def test_group_size_cap(engine):
    q = make_queue(engine, max_group=2 * KB)
    leader = make_writer(engine, nbytes=KB)
    q.join(leader)
    for _ in range(5):
        q.join(make_writer(engine, nbytes=KB))
    group = q.form_group(leader)
    # Cap checked before adding: the group stops once it reaches 2 KB.
    assert group.total_bytes == 2 * KB
    assert len(group) == 2
    assert q.waiting_count == 4


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
    q = make_queue(engine, pipelined=True)
    leader = make_writer(engine)
    q.join(leader)
    group = q.form_group(leader)  # group of one
    late = make_writer(engine)
    q.join(late)
    q.wal_phase_done(group)
    assert late.event.triggered
    assert late.event.value == ROLE_LEADER


def test_non_pipelined_promotes_after_members_finish(engine):
    q = make_queue(engine, pipelined=False)
    leader = make_writer(engine)
    q.join(leader)
    group = q.form_group(leader)
    late = make_writer(engine)
    q.join(late)
    q.wal_phase_done(group)
    assert not late.event.triggered  # still waiting for memtable phase
    q.member_done(leader)
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
    q.join(make_writer(engine))
    q.form_group(leader)
    assert q.groups_formed == 1
    assert q.writers_grouped == 2


def test_all_records_concatenates_in_queue_order(engine):
    leader = Writer([(b"a", (1, 1, b"x"))], 10, engine.event())
    group = WriteGroup(leader)
    group.add(Writer([(b"b", (2, 1, b"y"))], 10, engine.event()))
    assert [k for k, _ in group.all_records()] == [b"a", b"b"]


def test_waiting_gauge_tracks_queue_length(engine):
    q = make_queue(engine)
    leader = make_writer(engine)
    q.join(leader)

    def filler():
        yield 100
        for _ in range(5):
            q.join(make_writer(engine))
        yield 100
        q.form_group(leader)

    engine.process(filler())
    engine.run()
    assert q.waiting_gauge.max_value == 5
    assert q.mean_waiting() > 0


def test_invalid_group_bytes(engine):
    with pytest.raises(DBError):
        WriteQueue(engine, 0, True)
