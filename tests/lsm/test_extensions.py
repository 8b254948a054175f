"""Tests for the Section-VI optimization extensions: sharded write queues
and WAL compression."""

import pytest

from repro.errors import OptionsError
from repro.lsm.options import Options
from repro.lsm.value import ValueRef
from tests.conftest import group_sizes, make_db, run_op, tiny_options


def key(i):
    return b"%010d" % i


class TestShardedWriteQueues:
    def test_default_single_queue(self, engine):
        db = make_db(engine)
        assert len(db.write_queues) == 1
        assert db.write_queue is db.write_queues[0]

    def test_shard_count_honored(self, engine):
        db = make_db(engine, options=tiny_options(write_queue_shards=4))
        assert len(db.write_queues) == 4

    def test_sharded_writes_correct(self, engine):
        db = make_db(engine, options=tiny_options(write_queue_shards=4))

        def writer():
            for i in range(400):
                yield from db.put(key(i), ValueRef(i, 64))

        run_op(engine, writer())

        def checker():
            for i in range(0, 400, 13):
                got = yield from db.get(key(i))
                assert got == ValueRef(i, 64)

        run_op(engine, checker())

    def test_multiple_shards_used(self, engine):
        db = make_db(engine, options=tiny_options(write_queue_shards=4))
        sizes = group_sizes(db)

        def writer():
            for i in range(200):
                yield from db.put(key(i), b"v")

        run_op(engine, writer())
        used = sum(1 for formed in sizes if formed)
        assert used >= 2

    def test_sequence_numbers_unique_across_shards(self, engine):
        db = make_db(engine, options=tiny_options(write_queue_shards=4))

        def writer():
            for i in range(300):
                yield from db.put(key(i), b"v")

        run_op(engine, writer())
        seqs = []
        for table in db.memtables.tables_newest_first():
            for _, entry in table.sorted_items():
                seqs.append(entry[0])
        assert len(seqs) == len(set(seqs))

    def test_mean_waiting_aggregates(self, engine):
        db = make_db(engine, options=tiny_options(write_queue_shards=2))
        assert db.mean_waiting_writers() == 0.0

    def test_invalid_shards_rejected(self):
        with pytest.raises(OptionsError):
            Options(write_queue_shards=0).validate()


class TestWalCompression:
    def test_disabled_by_default(self, engine):
        db = make_db(engine)
        run_op(engine, db.put(key(1), ValueRef(1, 1000)))
        assert db.wal.bytes_written >= 1000

    def test_compression_shrinks_log(self, engine):
        plain = make_db(engine, options=tiny_options())
        packed = make_db(
            engine,
            options=tiny_options(wal_compression=True, wal_compression_ratio=0.5),
        )

        def writer(db):
            for i in range(50):
                yield from db.put(key(i), ValueRef(i, 1000))

        run_op(engine, writer(plain))
        run_op(engine, writer(packed))
        assert packed.wal.bytes_written == pytest.approx(
            plain.wal.bytes_written * 0.5, rel=0.05
        )

    def test_compressed_wal_recovers(self, engine):
        from repro.storage.profiles import xpoint_ssd
        from repro.lsm.db import DB
        from tests.conftest import make_fs

        fs = make_fs(engine, profile=xpoint_ssd())
        opts = tiny_options(wal_mode="sync", wal_compression=True)
        db = DB(engine, fs, opts)
        run_op(engine, db.put(key(9), b"compressed-but-durable"))
        fs.crash()
        db2 = DB(engine, fs, opts)
        assert run_op(engine, db2.get(key(9))) == b"compressed-but-durable"

    def test_invalid_ratio_rejected(self):
        with pytest.raises(OptionsError):
            Options(wal_compression_ratio=0.0).validate()
        with pytest.raises(OptionsError):
            Options(wal_compression_ratio=1.5).validate()
