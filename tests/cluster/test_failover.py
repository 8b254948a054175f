"""Tests for leader failover, divergence truncation, and election safety."""

import pytest

from repro.cluster.replication import ACTIVE, STAGED
from repro.sim.units import ms, us

from tests.cluster.conftest import make_cluster, put_n, settle, slow_applies
from tests.conftest import run_op


def read_key(engine, db, key):
    def reader():
        value = yield from db.get(key)
        return value

    return run_op(engine, reader(), "read")


class TestFailover:
    def test_leader_crash_elects_new_leader(self):
        engine, cluster = make_cluster()
        put_n(engine, cluster, 0, 10)
        old = cluster.leader_id
        old_term = cluster.term
        cluster.crash_node(old)
        assert cluster.leader_id is not None
        assert cluster.leader_id != old
        assert cluster.term == old_term + 1
        results = put_n(engine, cluster, 10, 20)
        assert all(acked for _i, acked, _s in results)
        assert not cluster.violations

    def test_acked_writes_survive_failover(self):
        engine, cluster = make_cluster()
        results = put_n(engine, cluster, 0, 15, keyspace=4)
        assert all(acked for _i, acked, _s in results)
        cluster.crash_node(cluster.leader_id)
        # Every acked write is on the new leader: the last value written to
        # each key must read back.
        leader = cluster.leader_node
        for k in range(4):
            last = max(i for i in range(15) if i % 4 == k)
            assert read_key(engine, leader.db, b"k%03d" % k) == b"v%06d" % last

    def test_divergent_unacked_tail_is_truncated_on_rejoin(self):
        engine, cluster = make_cluster()
        put_n(engine, cluster, 0, 10)
        assert settle(engine, cluster, ms(50))
        old = cluster.leader_id
        # Isolate the leader: its next writes land in its own WAL (locally
        # durable) but never reach a follower — unacked, divergent-to-be.
        cluster.network.partition([old])
        results = put_n(engine, cluster, 10, 13)
        assert all(not acked for _i, acked, _s in results)
        assert len(cluster.nodes[old].log) == 13
        cluster.crash_node(old)
        cluster.network.heal()
        new_leader = cluster.leader_node
        assert new_leader is not None and len(new_leader.log) == 10
        # The new branch gets real, acked writes.
        results = put_n(engine, cluster, 13, 18)
        assert all(acked for _i, acked, _s in results)
        # The old leader rejoins: its 3-group tail diverges from the new
        # branch and must be physically truncated, never to resurrect.
        cluster.restart_node(old)
        assert len(cluster.truncated_identities) == 3
        assert settle(engine, cluster, ms(200))
        leader_tags = [g.tag for g in cluster.leader_node.log]
        for node in cluster.nodes:
            assert [g.tag for g in node.log] == leader_tags
        leader_ids = {g.identity for g in cluster.leader_node.log}
        assert not (cluster.truncated_identities & leader_ids)
        assert not cluster.violations

    def test_election_prefers_newer_term_over_longer_log(self):
        # Raft's election restriction: a crashed ex-leader's long divergent
        # unacked tail must lose to a shorter log holding newer-term acked
        # groups.
        engine, cluster = make_cluster()
        node0 = cluster.leader_id
        cluster.network.partition([node0])
        put_n(engine, cluster, 0, 5)  # 5 unacked term-1 groups on node 0
        assert len(cluster.nodes[node0].log) == 5
        cluster.crash_node(node0)
        second = cluster.leader_id
        assert second is not None
        cluster.network.heal()
        results = put_n(engine, cluster, 5, 7)  # 2 acked term-2 groups
        assert all(acked for _i, acked, _s in results)
        assert settle(engine, cluster, ms(100))
        cluster.crash_node(second)  # quorum lost: 1/3 alive
        assert cluster.leader_id is None
        cluster.restart_node(node0)  # quorum back; node 0 has the longer log
        winner = cluster.leader_id
        assert winner is not None
        assert winner != node0, "longer stale-term log must not win"
        # The acked term-2 writes survive; node 0's tail was truncated.
        assert len(cluster.truncated_identities) == 5
        assert settle(engine, cluster, ms(200))
        leader_ids = {g.identity for g in cluster.leader_node.log}
        assert not (cluster.truncated_identities & leader_ids)
        for i, acked, _seq in results:
            key = b"k%03d" % (i % 8)
            assert read_key(engine, cluster.leader_node.db, key) is not None
        assert not cluster.violations


def stale_apply_cluster(isolate):
    """Node 0 leads and ships group 5 while node 2's apply of it takes
    2 ms; node 0 crashes 100 us in, so node 2's apply outlives term 1.
    With ``isolate`` node 1 never got group 5: it ties node 2 at five
    groups and wins on its lower id, without the group."""
    engine, cluster = make_cluster()
    put_n(engine, cluster, 0, 5)
    assert settle(engine, cluster, ms(50))
    slow_applies(cluster.nodes[2], ms(2), count=1)
    if isolate:
        cluster.network.partition([1])
    engine.process(cluster.put(b"k999", b"in flight"), name="in-flight")
    engine.run(until=engine.now + us(100))
    cluster.crash_node(0)
    cluster.network.heal()
    assert cluster.leader_id == 1 and cluster.term == 2
    return engine, cluster


def converges(engine, cluster):
    cluster.restart_node(0)
    assert settle(engine, cluster, ms(200))
    leader_tags = [g.tag for g in cluster.leader_node.log]
    assert all([g.tag for g in n.log] == leader_tags for n in cluster.nodes)
    assert not cluster.violations
    return True


def stepped_down(cluster):
    return [line for line in cluster.events if "stepped down" in line]


class TestDivergenceRule:
    """A conflicting follower steps down and rejoins: no violation."""

    @pytest.mark.parametrize("leader_writes_first", [True, False])
    def test_an_apply_that_outlived_its_term_steps_the_follower_down(
        self, leader_writes_first
    ):
        # Node 2 ends up holding term 1's group 5, which the term-2 leader
        # never holds: whether the leader has written its own group 5 yet
        # or not, node 2 steps down the instant its apply ends.
        engine, cluster = stale_apply_cluster(isolate=True)
        if leader_writes_first:
            assert put_n(engine, cluster, 5, 6)[0][1]
        engine.run(until=ms(4))
        (line,) = stepped_down(cluster)
        assert "node 2 stepped down: log[5] <Group t1 [6..6]>" in line
        assert any(e.endswith("node 2 truncated 1 divergent group(s) at log index 5")
                   for e in cluster.events)
        assert len(cluster.truncated_identities) == 1
        node2, leader_log = cluster.nodes[2], cluster.leader_node.log
        assert node2.state == ACTIVE and node2.log == leader_log[: len(node2.log)]
        put_n(engine, cluster, 6, 8)
        assert converges(engine, cluster)

    def test_an_apply_that_outlived_its_term_keeps_what_the_leader_holds(self):
        # Node 1 got group 5 too and won with six groups: node 2's late
        # apply appends the very group the new leader holds.
        engine, cluster = stale_apply_cluster(isolate=False)
        engine.run(until=ms(4))
        assert not stepped_down(cluster) and not cluster.truncated_identities
        put_n(engine, cluster, 5, 8)
        assert converges(engine, cluster)

    def test_a_conflicting_append_steps_the_follower_down(self):
        # The term-2 leader writes group 5 and crashes before node 2's
        # term-1 apply ends, so no leader is there to compare with; node 1
        # restarts and wins term 3, and its first append to node 2 finds
        # the conflict on receipt.
        engine, cluster = stale_apply_cluster(isolate=True)
        engine.process(cluster.put(b"k998", b"term 2"), name="term-2")
        engine.run(until=engine.now + us(200))
        cluster.crash_node(1)
        engine.run(until=ms(4))
        assert not stepped_down(cluster) and len(cluster.nodes[2].log) == 6
        cluster.restart_node(1)
        assert cluster.leader_id == 1 and cluster.term == 3
        engine.run(until=engine.now + ms(1))
        (line,) = stepped_down(cluster)
        assert "node 2 stepped down: log[5] <Group t1 [6..6]>" in line
        assert converges(engine, cluster)

    def test_a_leader_elected_mid_apply_keeps_the_group_it_is_applying(self):
        # Both followers are applying group 5 when node 0 crashes; node 1
        # wins the tie, and its own apply ends later than node 2's.  Until
        # then node 2 holds group 5 past the leader's log end, and node 0
        # restarts holding it: neither is a conflict, since the leader's
        # apply is writing that very group.
        engine, cluster = make_cluster()
        put_n(engine, cluster, 0, 5)
        assert settle(engine, cluster, ms(50))
        slow_applies(cluster.nodes[1], ms(1), count=1)
        slow_applies(cluster.nodes[2], us(500), count=1)
        engine.process(cluster.put(b"k999", b"in flight"), name="in-flight")
        engine.run(until=engine.now + us(200))
        cluster.crash_node(0)
        engine.run(until=engine.now + us(10))
        cluster.restart_node(0)
        assert cluster.leader_id == 1
        assert cluster.events[-1].endswith("node 0 rejoined clean (log 6)")
        engine.run(until=engine.now + ms(2))
        assert not stepped_down(cluster) and not cluster.truncated_identities
        assert [g.term for g in cluster.leader_node.log[4:]] == [1, 1]
        assert all(acked for _i, acked, _s in put_n(engine, cluster, 5, 7))
        assert converges(engine, cluster)

    def test_a_leader_elected_mid_apply_takes_no_write_until_the_apply_ends(self):
        # Node 1 wins while its own apply of group 5 is in flight, and the
        # apply advances the DB's sequence only when it ends.  A client
        # write taken before then would get group 5's sequence number.
        engine, cluster = make_cluster()
        put_n(engine, cluster, 0, 5)
        assert settle(engine, cluster, ms(50))
        slow_applies(cluster.nodes[1], ms(1), count=1)
        cluster.network.partition([2])
        engine.process(cluster.put(b"k999", b"in flight"), name="in-flight")
        engine.run(until=engine.now + us(200))
        cluster.crash_node(0)
        assert cluster.leader_id == 1 and cluster.leader_node.applying is not None
        results = put_n(engine, cluster, 5, 8)
        assert results[0][1:] == (False, 0)
        last_seqs = [g.last_seq for g in cluster.leader_node.log]
        assert last_seqs == sorted(set(last_seqs))


class TestFailedOpen:
    """A DB open that hits a full disk leaves the node STAGED."""

    def test_a_rejoin_on_a_full_disk_stays_staged_until_elect_retries(self):
        engine, cluster = make_cluster()
        put_n(engine, cluster, 0, 5)
        assert settle(engine, cluster, ms(50))
        node = cluster.nodes[2]
        cluster.crash_node(2)
        node.fs.set_quota(node.fs.used_bytes())
        cluster.restart_node(2)
        assert node.state == STAGED
        assert "node 2 open failed (OutOfSpaceError: " in cluster.events[-1]
        assert all(acked for _i, acked, _s in put_n(engine, cluster, 5, 8))
        assert cluster.elect() and node.state == STAGED  # still full
        node.fs.set_quota(None)
        assert cluster.elect() and node.state == ACTIVE
        assert cluster.events[-1].endswith("node 2 rejoined clean (log 5)")
        assert settle(engine, cluster, ms(100))
        assert len(node.log) == 8 and not cluster.violations

    def test_a_winner_that_cannot_open_blocks_the_election(self):
        engine, cluster = make_cluster()
        put_n(engine, cluster, 0, 5)
        assert settle(engine, cluster, ms(50))
        for node_id in (1, 2, 0):
            cluster.crash_node(node_id)
        node0 = cluster.nodes[0]
        node0.fs.set_quota(node0.fs.used_bytes())
        cluster.restart_node(0)
        cluster.restart_node(1)  # quorum: node 0 wins the tie, cannot open
        assert cluster.leader_id is None
        assert [n.state for n in cluster.nodes[:2]] == [STAGED, STAGED]
        assert not cluster.elect()
        node0.fs.set_quota(None)
        assert cluster.elect() and cluster.leader_id == 0
        assert all(acked for _i, acked, _s in put_n(engine, cluster, 5, 8))
        assert settle(engine, cluster, ms(100)) and not cluster.violations
