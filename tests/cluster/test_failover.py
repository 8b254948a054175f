"""Tests for leader failover, divergence truncation, and election safety."""

from repro.sim.units import ms

from tests.cluster.conftest import make_cluster, put_n, settle
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
