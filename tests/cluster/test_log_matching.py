"""The log-matching spec of the replication layer, under random schedules.

Raft's Log Matching property (Ongaro and Ousterhout, USENIX ATC 2014):
two logs that hold the same entry at an index hold the same entries at
every earlier index.  Here an entry is a group's ``(index, tag)``, and the
property is checked over every pair of node logs at the end of every
instant of a run, together with the one divergence rule: no ``ACTIVE``
follower disagrees with the leader at an index both logs hold.

The first test drives a steady writer against a 3-node cluster through
random crashes, restarts, partitions and slowed applies.  The second aims
at the race behind divergence: one follower is isolated, the other's apply
is slowed, and the leader crashes while that apply runs, so the apply
outlives its term.  Afterwards everything heals and the logs converge.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.replication import ACTIVE
from repro.sim.units import ms, us
from tests.cluster.conftest import make_cluster, put_n, settle, slow_applies

ACTIONS = ("crash", "restart", "partition", "heal", "slow")

#: (delay since the previous control, action, node).
schedules = st.lists(
    st.tuples(
        st.one_of(st.integers(us(5), us(300)), st.integers(us(300), ms(2))),
        st.sampled_from(ACTIONS),
        st.integers(0, 2),
    ),
    min_size=1,
    max_size=10,
)


def agreement_is_a_prefix(a, b) -> bool:
    """The indices at which two tag lists agree form a prefix."""
    m = min(len(a), len(b))
    d = next((i for i in range(m) if a[i] != b[i]), m)
    return all(a[i] != b[i] for i in range(d, m))


def conflicting_followers(cluster):
    """ACTIVE followers whose log disagrees with the leader's at an index
    both logs hold."""
    leader = cluster.leader_node
    if leader is None:
        return []
    ltags = [g.tag for g in leader.log]
    return [
        node.node_id
        for node in cluster.nodes
        if node is not leader
        and node.state == ACTIVE
        and any(g.tag != t for g, t in zip(node.log, ltags))
    ]


def check_instant(cluster):
    logs = [[g.tag for g in node.log] for node in cluster.nodes]
    for (i, a), (j, b) in combinations(enumerate(logs), 2):
        assert agreement_is_a_prefix(a, b), f"logs of nodes {i} and {j} break log matching"
    assert not conflicting_followers(cluster)
    assert not cluster.violations


def run_checked(engine, cluster, until):
    """Run to ``until`` one instant at a time, checking after each."""
    while True:
        nxt = engine.peek()
        if nxt is None or nxt > until:
            engine.run(until=until)
            return
        engine.run(until=nxt)
        check_instant(cluster)


def start_writer(engine, cluster):
    """A client that writes until the returned flag is cleared."""
    writing = [True]

    def writer():
        i = 0
        while writing[0]:
            yield from cluster.put(b"k%03d" % (i % 8), b"v%06d" % i)
            yield us(20)
            i += 1

    engine.process(writer(), name="writer")
    return writing


def heal_and_converge(engine, cluster, writing):
    writing[0] = False
    cluster.network.heal()
    for node in cluster.nodes:
        cluster.restart_node(node.node_id)
    cluster.elect()
    check_instant(cluster)
    assert settle(engine, cluster, ms(200))
    ltags = [g.tag for g in cluster.leader_node.log]
    for node in cluster.nodes:
        assert node.state == ACTIVE
        assert [g.tag for g in node.log] == ltags


@settings(max_examples=40, deadline=None)
@given(schedules)
def test_logs_match_under_random_schedules(schedule):
    engine, cluster = make_cluster()
    writing = start_writer(engine, cluster)
    for delay, action, node_id in schedule:
        run_checked(engine, cluster, engine.now + delay)
        if action == "crash":
            cluster.crash_node(node_id)
        elif action == "restart":
            cluster.restart_node(node_id)
        elif action == "partition":
            cluster.network.partition([node_id])
        elif action == "heal":
            cluster.network.heal()
        else:
            slow_applies(cluster.nodes[node_id], us(300))
        check_instant(cluster)
    run_checked(engine, cluster, engine.now + ms(2))
    heal_and_converge(engine, cluster, writing)


@settings(max_examples=40, deadline=None)
@given(
    apply_ns=st.integers(us(50), ms(2)),
    crash_after=st.integers(us(10), ms(1)),
    writes_after=st.integers(0, ms(3)),
    isolate=st.booleans(),
)
def test_logs_match_when_an_apply_outlives_its_term(apply_ns, crash_after, writes_after, isolate):
    engine, cluster = make_cluster()
    put_n(engine, cluster, 0, 5)
    assert settle(engine, cluster, ms(50))
    slow_applies(cluster.nodes[2], apply_ns, count=1)
    if isolate:  # node 1 misses the next group, and still wins a tie
        cluster.network.partition([1])
    engine.process(cluster.put(b"k999", b"in flight"), name="in-flight")
    run_checked(engine, cluster, engine.now + crash_after)
    cluster.crash_node(0)
    cluster.network.heal()
    run_checked(engine, cluster, engine.now + writes_after)
    writing = start_writer(engine, cluster)
    run_checked(engine, cluster, engine.now + ms(3))
    heal_and_converge(engine, cluster, writing)
