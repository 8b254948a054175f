"""Tests for WAL shipping, quorum acks, and log convergence."""

from repro.sim.units import ms

from tests.cluster.conftest import make_cluster, put_n, settle
from tests.conftest import run_op


class TestHappyPath:
    def test_writes_ack_and_replicate(self):
        engine, cluster = make_cluster()
        results = put_n(engine, cluster, 0, 25)
        assert all(acked for _i, acked, _s in results)
        assert cluster.commit_seq == 25
        assert settle(engine, cluster, ms(50))
        leader = cluster.leader_node
        assert len(leader.log) == 25
        for node in cluster.nodes:
            assert [g.tag for g in node.log] == [g.tag for g in leader.log]
            assert node.durable_len == len(node.log)
        assert not cluster.violations

    def test_follower_state_matches_leader(self):
        engine, cluster = make_cluster()
        put_n(engine, cluster, 0, 30, keyspace=5)
        assert settle(engine, cluster, ms(50))

        def read_all(db):
            state = {}

            def reader():
                for k in range(5):
                    key = b"k%03d" % k
                    value = yield from db.get(key)
                    state[key] = value

            run_op(engine, reader(), "reader")
            return state

        states = [read_all(node.db) for node in cluster.nodes]
        assert states[0] == states[1] == states[2]
        assert any(v is not None for v in states[0].values())

    def test_commit_requires_quorum(self):
        # With both followers isolated, a 3-node cluster cannot commit.
        engine, cluster = make_cluster()
        cluster.network.partition([cluster.leader_id])
        results = put_n(engine, cluster, 0, 3)
        assert all(not acked for _i, acked, _s in results)
        assert cluster.commit_seq == 0
        # Heal: the shippers' retry loop catches the followers up and the
        # previously-unacked writes commit (they were never lost, only
        # unacknowledged).
        cluster.network.heal()
        assert settle(engine, cluster, ms(100))
        assert cluster.commit_seq == 3
        assert not cluster.violations

    def test_single_follower_partition_still_commits(self):
        engine, cluster = make_cluster()
        follower = next(
            n.node_id for n in cluster.nodes if n.node_id != cluster.leader_id
        )
        cluster.network.partition([follower])
        results = put_n(engine, cluster, 0, 10)
        assert all(acked for _i, acked, _s in results)  # quorum = leader + 1
        cluster.network.heal()
        assert settle(engine, cluster, ms(100))
        assert len(cluster.nodes[follower].log) == 10
        assert not cluster.violations


class TestFollowerCrash:
    def test_crashed_follower_catches_up_after_restart(self):
        engine, cluster = make_cluster()
        put_n(engine, cluster, 0, 10)
        victim = next(
            n.node_id for n in cluster.nodes if n.node_id != cluster.leader_id
        )
        cluster.crash_node(victim)
        results = put_n(engine, cluster, 10, 20)
        assert all(acked for _i, acked, _s in results)  # other follower acks
        cluster.restart_node(victim)
        assert settle(engine, cluster, ms(200))
        assert len(cluster.nodes[victim].log) == 20
        assert not cluster.violations

    def test_salvage_cuts_a_damaged_wal_and_drops_later_logs(self):
        """Restart salvage runs the DB's own log recovery: media damage
        under the third record of the follower's log 1 (adopted at its
        first restart, never flushed) cuts log 1 there and empties the
        newer log 2.  The follower keeps a 2-group durable log and catches
        up from the leader with no further client write: the rejoin wakes
        the leader's parked shipper from the cut log's end."""
        engine, cluster = make_cluster()
        put_n(engine, cluster, 0, 10)
        assert settle(engine, cluster, ms(50))
        victim = next(
            n.node_id for n in cluster.nodes if n.node_id != cluster.leader_id
        )
        node = cluster.nodes[victim]
        cluster.crash_node(victim)
        cluster.restart_node(victim)  # the reopen adopts log 1, rolls log 2
        put_n(engine, cluster, 10, 20)
        assert settle(engine, cluster, ms(50))
        cluster.crash_node(victim)
        assert node.fs.list("wal/") == ["wal/000001.log", "wal/000002.log"]
        log1 = node.fs.open("wal/000001.log")
        log1.mark_corrupt(sum(nbytes for nbytes, _rec in log1.records[:2]), 1)

        cluster.restart_node(victim)
        assert len(log1.records) == 2 and node.fs.open("wal/000002.log").size == 0
        assert len(node.log) == 2
        assert settle(engine, cluster, ms(200))
        assert [g.tag for g in node.log] == [g.tag for g in cluster.leader_node.log]
        assert not cluster.violations

    def test_crash_is_node_local(self):
        # The victim's crash must not disturb the leader's in-flight work.
        engine, cluster = make_cluster()
        victim = next(
            n.node_id for n in cluster.nodes if n.node_id != cluster.leader_id
        )

        def workload():
            for i in range(20):
                if i == 7:
                    cluster.crash_node(victim)
                acked, _seq = yield from cluster.put(b"k%d" % (i % 4), b"v%d" % i)
                assert acked

        run_op(engine, workload(), "workload")
        assert cluster.leader_node.db.stats.get("fsync_errors") == 0
        assert not cluster.violations


class TestQuorumLoss:
    def test_no_election_below_quorum(self):
        engine, cluster = make_cluster()
        put_n(engine, cluster, 0, 5)
        followers = [n.node_id for n in cluster.nodes if n.node_id != cluster.leader_id]
        cluster.crash_node(followers[0])
        cluster.crash_node(cluster.leader_id)  # 1/3 alive: no quorum
        assert cluster.leader_id is None
        results = put_n(engine, cluster, 5, 8)
        assert all(not acked for _i, acked, _s in results)
        # One restart restores quorum and triggers the deferred election.
        cluster.restart_node(followers[0])
        assert cluster.leader_id is not None
        results = put_n(engine, cluster, 8, 12)
        assert all(acked for _i, acked, _s in results)
        assert not cluster.violations


class TestTermHistory:
    def test_one_leader_per_term(self):
        engine, cluster = make_cluster()
        put_n(engine, cluster, 0, 5)
        for _round in range(3):
            old = cluster.leader_id
            cluster.crash_node(old)
            cluster.restart_node(old)
        terms = [t for t, _n in cluster.term_history]
        assert len(terms) == len(set(terms))
        assert terms == sorted(terms)
