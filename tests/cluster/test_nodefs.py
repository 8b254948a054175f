"""The dead-incarnation fence (``repro.cluster.nodefs``).

A crashed or stepped-down node's stale DB keeps its file handles; every
I/O it issues through them afterwards must fail with a non-transient
``IOFaultError`` and leave the disk alone, while the node's next
incarnation opens the same files through a fresh view.
"""

import pytest

from repro.errors import IOFaultError
from tests.cluster.conftest import make_cluster, put_n
from tests.conftest import run_op


def test_stale_incarnation_io_fails_and_the_next_one_works():
    engine, cluster = make_cluster()
    put_n(engine, cluster, 0, 10)
    node_id = (cluster.leader_id + 1) % len(cluster.nodes)
    node = cluster.nodes[node_id]
    view, db = node.view, node.db
    wal, manifest = db.wal.current, db.versions.manifest
    scratch = view.create("scratch.tmp")

    def crasher():
        yield 1  # the job's fsync is on the device by now
        cluster.crash_node(node_id)

    def job():
        scratch.append(4096)
        yield from scratch.sync()

    engine.process(crasher(), name="crasher")
    with pytest.raises(IOFaultError) as err:
        run_op(engine, job())
    assert not err.value.transient and view.dead and scratch.dead

    stale_io = (
        lambda: wal.append(64),
        lambda: manifest.read(0, 1),
        lambda: list(wal.sync()),
        lambda: view.delete("MANIFEST"),
        lambda: view.install_synced("sst/999999.sst", 4096),
    )
    for op in stale_io:
        with pytest.raises(IOFaultError, match="incarnation dead") as err:
            op()
        assert not err.value.transient
    assert node.fs.exists("MANIFEST") and not node.fs.exists("sst/999999.sst")

    cluster.restart_node(node_id)
    fresh = node.view
    assert fresh is not view and not fresh.dead
    f = fresh.open("scratch.tmp")
    assert f is not scratch and f.size == 0  # the in-flight fsync never landed
    f.append(4096)
    run_op(engine, f.sync())
    assert f.synced_size == 4096
    assert f.read(0, 4096) is None  # served from the page cache
    fresh.delete("scratch.tmp")
    assert fresh.install_synced("extra.tmp", 4096).synced_size == 4096
    results = put_n(engine, cluster, 10, 15)
    assert all(acked for _i, acked, _s in results)
    assert not cluster.violations


def test_a_view_killed_mid_fsync_gets_the_fences_own_error():
    """A step-down kills a view without power-failing the filesystem: the
    fsync in flight lands on disk, and the stale incarnation gets the
    fence's error after it (not the filesystem's power-failure error)."""
    engine, cluster = make_cluster()
    node = cluster.nodes[1]
    view = node.view
    scratch = view.create("scratch.tmp")

    def killer():
        yield 1  # the job's fsync is on the device by now
        view.kill()

    def job():
        scratch.append(4096)
        yield from scratch.sync()

    engine.process(killer(), name="killer")
    with pytest.raises(IOFaultError, match="node incarnation dead: fsync on scratch.tmp") as err:
        run_op(engine, job())
    assert not err.value.transient
    assert node.fs.open("scratch.tmp").synced_size == 4096


def test_a_store_through_a_view_lands_on_the_file():
    # A flush sets its table's ``payload`` through the view: the real file,
    # which the next incarnation opens, must hold it.
    _engine, cluster = make_cluster()
    node = cluster.nodes[0]
    f = node.view.create("sst/999999.sst")
    f.payload = "table"
    real = node.fs.open("sst/999999.sst")
    assert real.payload == "table" and "payload" not in vars(f)
