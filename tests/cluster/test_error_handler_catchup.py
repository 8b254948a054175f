"""Satellite: background-error auto-resume on a follower vs catch-up.

A follower whose WAL path throws transient I/O errors enters the
error-handler's degraded mode (transient + WAL source classifies HARD:
read-only until a resume probe succeeds).  While degraded, its applies
are rejected and the leader's shipper keeps retrying with backoff; the
cluster still commits through the other follower.  Once auto-resume
clears the episode, re-shipped groups apply and the follower converges —
no operator action, no invariant violation.
"""

from repro.faults import (
    WRITE_ERROR,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
)
from repro.fs.filesystem import SimFileSystem
from repro.fs.page_cache import PageCache
from repro.sim.units import mb, ms, us
from repro.storage.device import StorageDevice
from repro.storage.profiles import xpoint_ssd

from tests.cluster.conftest import make_cluster, put_n, settle

FAULTY_NODE = 2


def faulty_fs_factory(engine, i, rng):
    if i != FAULTY_NODE:
        device = StorageDevice(engine, xpoint_ssd(), rng=rng.fork(f"dev/{i}"))
        return SimFileSystem(engine, device, PageCache(mb(4)))
    # Enough consecutive write errors to exhaust the WAL sync path's
    # bounded retries (1 attempt + 3 retries) and reach the error handler.
    schedule = FaultSchedule(
        [FaultSpec(WRITE_ERROR, at_time=us(400), count=8)]
    )
    injector = FaultInjector(engine, schedule)
    device = StorageDevice(engine, xpoint_ssd(), rng.fork(f"dev/{i}"), injector)
    return SimFileSystem(engine, device, PageCache(mb(4)), injector)


class TestAutoResumeCatchup:
    def test_degraded_follower_resumes_and_converges(self):
        engine, cluster = make_cluster(fs_factory=faulty_fs_factory)
        assert cluster.leader_id != FAULTY_NODE
        results = put_n(engine, cluster, 0, 40)
        # Quorum holds through the healthy follower: every write acks even
        # while the faulty node is degraded.
        assert all(acked for _i, acked, _s in results)

        follower = cluster.nodes[FAULTY_NODE]
        stats = follower.db.stats
        assert stats.get("bg_error.raised") >= 1, "faults never reached the handler"
        assert stats.get("bg_error.degraded_entries") >= 1

        assert settle(engine, cluster, ms(400))
        assert stats.get("bg_error.resume_successes") >= 1
        leader = cluster.leader_node
        assert len(follower.log) == len(leader.log)
        assert [g.tag for g in follower.log] == [g.tag for g in leader.log]
        assert follower.db.error_handler.severity == ""
        assert not cluster.violations

    def test_healthy_cluster_identical_with_inert_injector(self):
        # The same cluster with no fault specs must behave exactly like a
        # plain-filesystem cluster: the injector layers are pass-through.
        def inert_factory(engine, i, rng):
            injector = FaultInjector(engine, FaultSchedule())
            device = StorageDevice(engine, xpoint_ssd(), rng.fork(f"dev/{i}"), injector)
            return SimFileSystem(engine, device, PageCache(mb(4)), injector)

        engine_a, cluster_a = make_cluster(fs_factory=inert_factory)
        engine_b, cluster_b = make_cluster()
        ra = put_n(engine_a, cluster_a, 0, 15)
        rb = put_n(engine_b, cluster_b, 0, 15)
        assert ra == rb
        assert engine_a.now == engine_b.now
