"""Shared builders for the replication tests."""

from __future__ import annotations

from repro.cluster import Cluster
from repro.cluster.replication import ACTIVE
from repro.fs.filesystem import SimFileSystem
from repro.fs.page_cache import PageCache
from repro.lsm.options import HASH_REP, WAL_SYNC, Options
from repro.net import Network
from repro.sim.engine import Engine
from repro.sim.rng import RandomStream
from repro.sim.units import kb, mb
from repro.storage.device import StorageDevice
from repro.storage.profiles import xpoint_ssd
from tests.conftest import run_op


def cluster_options() -> Options:
    return Options(
        write_buffer_size=kb(16),
        max_bytes_for_level_base=kb(64),
        target_file_size_base=kb(32),
        block_cache_bytes=kb(32),
        memtable_rep=HASH_REP,
        wal_mode=WAL_SYNC,
        paranoid_checks=True,
        name="cluster-test",
    )


def make_cluster(n=3, seed=1234, fs_factory=None):
    """A started n-node cluster on fresh xpoint machines."""
    engine = Engine()
    rng = RandomStream(seed, "cluster-test")
    fss = []
    for i in range(n):
        if fs_factory is not None:
            fss.append(fs_factory(engine, i, rng))
        else:
            device = StorageDevice(engine, xpoint_ssd(), rng=rng.fork(f"dev/{i}"))
            fss.append(SimFileSystem(engine, device, PageCache(mb(4))))
    net = Network(engine, n, rng.fork("net"))
    cluster = Cluster(engine, net, fss, cluster_options, rng.fork("cluster"))
    cluster.start()
    return engine, cluster


def put_n(engine, cluster, lo, hi, keyspace=8):
    """Issue puts [lo, hi) sequentially; returns [(i, acked, seq)]."""
    results = []

    def writer():
        for i in range(lo, hi):
            acked, seq = yield from cluster.put(
                b"k%03d" % (i % keyspace), b"v%06d" % i
            )
            results.append((i, acked, seq))

    run_op(engine, writer(), "writer")
    return results


def settle(engine, cluster, total_ns, tick_ns=1_000_000):
    """Advance virtual time until logs converge (or total_ns elapses)."""

    def waiter():
        deadline = engine.now + total_ns
        while engine.now < deadline:
            leader = cluster.leader_node
            if leader is not None and all(
                len(n.log) == len(leader.log)
                for n in cluster.nodes
                if n.state == ACTIVE
            ):
                return True
            yield tick_ns
        return False

    return run_op(engine, waiter(), "settle")
