"""Host memory: operations leave no cyclic garbage, and bulk simulated data
sits in containers the cyclic collector does not walk.

Nothing in ``repro`` relies on the cyclic collector, so whatever it finds
after a burst of operations is a reference cycle made per operation.  With
the collector off (as the ledger runs) such a cycle is never freed; with it
on, it is collector time that grows with the number of operations.  Each
burst runs with the collector disabled between one ``gc.collect()`` and the
next; the second must find nothing.
"""

from __future__ import annotations

import gc
from array import array

import pytest

from repro.errors import DeadlineExceededError, IOFaultError
from repro.faults import (
    WRITE_ERROR,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
)
from repro.fs.filesystem import SimFileSystem
from repro.fs.page_cache import PageCache
from repro.lsm.db import DB
from repro.lsm.format import KIND_PUT
from repro.lsm.options import WAL_SYNC
from repro.lsm.pipelined_write import WriteQueue
from repro.lsm.write_batch import WriteBatch
from repro.serving.client import ClientSession
from repro.sim.engine import Engine
from repro.sim.rng import RandomStream
from repro.sim.stats import LatencyHistogram, TimeSeries
from repro.sim.units import mb, ms, seconds, us
from repro.storage.device import StorageDevice
from repro.storage.profiles import xpoint_ssd
from repro.workloads.db_bench import DbBench, DbBenchConfig
from repro.workloads.prefill import PrefillSpec, prefill, prefill_keys
from repro.workloads.ycsb import WORKLOAD_A, YcsbRunner
from tests.cluster.conftest import make_cluster, put_n
from tests.conftest import group_sizes, make_db, run_op, tiny_options
from tests.serving.test_client_policy import FakeGroup, make_client


def key(i: int) -> bytes:
    return b"%010d" % i


def val(i: int) -> bytes:
    return b"v%06d" % i + b"x" * 100


def cyclic_garbage(burst) -> int:
    """Objects the collector finds unreachable after ``burst()``."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        burst()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def sleep(ns: int):
    yield ns


def run_all(engine, procs) -> list:
    """Run ``procs`` concurrently to completion; returns the type of what
    each raised (None for a clean finish).  No process outlives the call: a
    failed one holds its exception, whose traceback holds this frame."""
    done = [engine.process(p, name=f"client-{i}") for i, p in enumerate(procs)]
    for proc in done:
        proc.callbacks.append(lambda _ev: None)  # joined: errors stay on the process
    while not all(proc.done for proc in done):
        engine.run(until=engine.peek())
    raised = [proc.exception and type(proc.exception) for proc in done]
    del done, proc
    return raised


@pytest.fixture
def db(engine) -> DB:
    return make_db(engine, profile=xpoint_ssd(), options=tiny_options())


def test_solo_puts_flushes_and_compactions(engine, db):
    def burst():
        def writer():
            for i in range(3000):
                yield from db.put(key(i * 7 % 3000), val(i))
            yield from db.wait_idle(timeout_ns=seconds(1))

        run_op(engine, writer())

    assert cyclic_garbage(burst) == 0
    assert db.stats.get("flush.count") > 0 and db.stats.get("compaction.count") > 0


def test_contending_writers_form_groups(engine, db):
    (sizes,) = group_sizes(db)

    def client(cid):
        for i in range(200):
            yield from db.put(key(cid * 1000 + i), val(i))

    def burst():
        assert run_all(engine, [client(c) for c in range(4)]) == [None] * 4

    assert cyclic_garbage(burst) == 0
    assert sum(sizes) > len(sizes)  # groups had members


def test_batches_deletes_and_gets(engine, db):
    for i in range(300):
        run_op(engine, db.put(key(i), val(i)))

    def burst():
        def ops():
            for i in range(0, 300, 3):
                batch = WriteBatch()
                batch.put(key(i), val(i + 1))
                batch.delete(key(i + 1))
                yield from db.write(batch)
            for i in range(300, 400):
                yield from db.delete(key(i))
            for i in range(400):
                yield from db.get(key(i))

        run_op(engine, ops())

    assert cyclic_garbage(burst) == 0
    assert run_op(engine, db.get(key(1))) is None


def test_follower_apply_replicated(engine, db):
    def burst():
        def follower():
            seq = 0
            for group in range(100):
                records = []
                for i in range(4):
                    seq += 1
                    records.append((key(group * 4 + i), (seq, KIND_PUT, val(seq))))
                yield from db.apply_replicated(records)

        run_op(engine, follower())

    assert cyclic_garbage(burst) == 0
    assert db.versions.last_sequence == 400


def test_group_failed_by_a_wal_fault(engine, monkeypatch):
    """The leader's WAL sync fails: ``fail_group`` fails its waiting members
    and unlinks every writer from the group."""
    schedule = FaultSchedule([FaultSpec(WRITE_ERROR, at_time=0, until_time=ms(5), count=10**6)])
    injector = FaultInjector(engine, schedule)
    device = StorageDevice(engine, xpoint_ssd(), RandomStream(7), injector)
    fs = SimFileSystem(engine, device, PageCache(mb(16)), injector)
    options = tiny_options(
        wal_mode=WAL_SYNC,
        bg_error_resume_interval_ns=us(50),
        bg_error_resume_max_interval_ns=us(800),
        max_bg_error_resume_count=1000,
    )
    db = DB(engine, fs, options)
    failed_sizes = []
    real_fail_group = WriteQueue.fail_group

    def spy(self, group, exc):
        failed_sizes.append(len(group))
        real_fail_group(self, group, exc)

    monkeypatch.setattr(WriteQueue, "fail_group", spy)

    def client(cid):
        yield from db.put(key(cid), val(cid))

    raised = []

    def burst():
        raised.extend(run_all(engine, [client(c) for c in range(4)]))
        # The handler holds the error (and through its traceback the failed
        # leader's frame) until the window passes and it resumes.
        run_op(engine, sleep(ms(10)))
        assert db.error_handler.error is None

    assert cyclic_garbage(burst) == 0
    assert max(failed_sizes) > 1  # a failed group had members
    assert raised.count(IOFaultError) > len(failed_sizes)  # and they raised too


def test_replicated_writes_that_lose_quorum():
    """A leader cut off from both followers: every write waits on its proc,
    then on a commit that never comes, and every shipper on acks that never
    come, each wait ending at its deadline.  A child that never fires kept
    its wait in a cycle before waits detached (1,854 objects here)."""
    engine, cluster = make_cluster()
    put_n(engine, cluster, 0, 20)

    def burst():
        cluster.network.partition([0])
        acked = [ok for _i, ok, _seq in put_n(engine, cluster, 20, 60)]
        cluster.network.heal()
        put_n(engine, cluster, 60, 80)
        assert not any(acked)

    assert cyclic_garbage(burst) == 0


def test_client_ops_that_miss_their_deadline():
    """Every read and write outlives its deadline: the client's wait ends at
    the deadline and the abandoned attempts finish later."""
    engine = Engine()
    group = FakeGroup(engine)
    group.read_latency = {i: ms(20) for i in range(3)}
    group.write_latency = ms(20)
    client = make_client(engine, group, op_deadline_ns=ms(5))
    session = ClientSession("t0")

    def burst():
        def ops():
            missed = 0
            for _ in range(100):
                for op in (client.read(session, b"k"), client.write(session, b"k", b"v")):
                    try:
                        yield from op
                    except DeadlineExceededError:
                        missed += 1
            yield ms(100)  # the abandoned attempts finish
            return missed

        assert run_op(engine, ops()) == 200

    assert cyclic_garbage(burst) == 0


# -- bulk data the collector does not walk -------------------------------------------


def test_flushed_and_compacted_key_tuples_are_untracked(engine, db):
    def writer():
        for i in range(3000):
            yield from db.put(key(i * 7 % 3000), val(i))
        yield from db.flush_all()

    run_op(engine, writer())
    flushed = db.versions.current.levels[0][0].sst
    run_op(engine, db.compact_range())
    compacted = [meta.sst for meta in db.versions.current.all_files()]
    assert compacted and flushed not in compacted
    gc.collect()
    for sst in [flushed] + compacted:
        assert type(sst.keys) is tuple and not gc.is_tracked(sst.keys)


def test_prefilled_key_tuples_are_untracked(engine, db):
    prefill(db, PrefillSpec(key_count=5000, value_size=64))
    other = make_db(engine)
    prefill_keys(other, [key(i) for i in range(2000)], value_size=100)
    tables = [meta.sst for d in (db, other) for meta in d.versions.current.all_files()]
    gc.collect()
    assert tables and not any(gc.is_tracked(sst.keys) for sst in tables)


@pytest.mark.parametrize("workload", ["db_bench", "ycsb"])
def test_client_sample_buffers_are_int64_arrays(engine, db, monkeypatch, workload):
    """Every per-client sample buffer reaches ``record_many`` as ``array('q')``."""
    seen = []
    for cls in (LatencyHistogram, TimeSeries):
        real = cls.record_many
        monkeypatch.setattr(
            cls, "record_many", lambda self, values, *rest, real=real: (
                seen.append(values), real(self, values, *rest))
        )
    prefill(db, PrefillSpec(key_count=5000, value_size=64))
    if workload == "db_bench":
        DbBench(DbBenchConfig(processes=2, duration_ns=seconds(0.05), value_size=64,
                              key_count=5000, seed=5)).run(db)
    else:
        YcsbRunner(WORKLOAD_A, key_count=5000, value_size=64, clients=2,
                   duration_ns=seconds(0.05), seed=9).run(db)
    assert len(seen) == 6  # three buffers per client
    assert all(type(values) is array and values.typecode == "q" for values in seen)
    assert sum(map(len, seen)) > 0
