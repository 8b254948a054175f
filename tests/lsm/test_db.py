"""End-to-end DB tests: reads, writes, flush, compaction, scans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DBClosedError, DBError
from repro.lsm.db import DB
from repro.lsm.options import WAL_OFF
from repro.lsm.value import ValueRef, materialize
from repro.lsm.write_batch import WriteBatch
from repro.sim.engine import Engine
from repro.sim.units import kb
from repro.storage.profiles import xpoint_ssd
from tests.conftest import make_db, run_op, tiny_options


def key(i):
    return b"%010d" % i


class TestBasicOps:
    def test_put_get_roundtrip(self, engine):
        db = make_db(engine)
        run_op(engine, db.put(key(1), b"hello"))
        assert run_op(engine, db.get(key(1))) == b"hello"

    def test_get_missing_returns_none(self, engine):
        db = make_db(engine)
        assert run_op(engine, db.get(key(404))) is None
        assert db.stats.get("get.miss") == 1

    def test_delete_hides_value(self, engine):
        db = make_db(engine)
        run_op(engine, db.put(key(1), b"v"))
        run_op(engine, db.delete(key(1)))
        assert run_op(engine, db.get(key(1))) is None

    def test_overwrite_latest_wins(self, engine):
        db = make_db(engine)
        run_op(engine, db.put(key(1), b"old"))
        run_op(engine, db.put(key(1), b"new"))
        assert run_op(engine, db.get(key(1))) == b"new"

    def test_valueref_passthrough_and_materialize(self, engine):
        db = make_db(engine)
        ref = ValueRef(9, 128)
        run_op(engine, db.put(key(2), ref))
        assert run_op(engine, db.get(key(2))) == ref
        assert materialize(run_op(engine, db.get(key(2)))) == ref.materialize()

    def test_write_batch_atomic_visibility(self, engine):
        db = make_db(engine)
        batch = WriteBatch().put(key(1), b"a").put(key(2), b"b").delete(key(1))
        run_op(engine, db.write(batch))
        assert run_op(engine, db.get(key(1))) is None
        assert run_op(engine, db.get(key(2))) == b"b"

    def test_empty_batch_is_noop(self, engine):
        db = make_db(engine)
        assert run_op(engine, db.write(WriteBatch())) == 0

    def test_run_sync_helper(self, engine):
        db = make_db(engine)
        db.run_sync(db.put(key(7), b"v"))
        assert db.run_sync(db.get(key(7))) == b"v"

    def test_closed_db_rejects_ops(self, engine):
        db = make_db(engine)
        run_op(engine, db.close())
        with pytest.raises(DBClosedError):
            run_op(engine, db.put(key(1), b"v"))
        with pytest.raises(DBClosedError):
            run_op(engine, db.get(key(1)))


class TestFlushAndCompaction:
    def fill(self, engine, db, n, value_size=100, start=0):
        def writer():
            for i in range(start, start + n):
                yield from db.put(key(i), ValueRef(i, value_size))

        run_op(engine, writer())

    def test_flush_moves_data_to_l0(self, engine):
        db = make_db(engine, options=tiny_options(write_buffer_size=kb(8)))
        self.fill(engine, db, 100)
        run_op(engine, db.flush_all())
        assert db.versions.current.num_files(0) >= 1
        assert run_op(engine, db.get(key(5))) == ValueRef(5, 100)

    def test_reads_through_all_levels(self, engine):
        db = make_db(engine, options=tiny_options(write_buffer_size=kb(8)))
        self.fill(engine, db, 2000)
        run_op(engine, db.flush_all())
        run_op(engine, db.wait_idle())
        shape = db.level_shape()
        assert sum(shape[1:]) > 0  # compaction pushed data below L0
        for i in (0, 777, 1999):
            assert run_op(engine, db.get(key(i))) == ValueRef(i, 100)

    def test_overwrites_survive_compaction(self, engine):
        db = make_db(engine, options=tiny_options(write_buffer_size=kb(8)))
        self.fill(engine, db, 500)
        self.fill(engine, db, 500)  # second pass: new ValueRef versions? same
        run_op(engine, db.flush_all())
        run_op(engine, db.wait_idle())
        assert run_op(engine, db.get(key(250))) == ValueRef(250, 100)

    def test_tombstones_dropped_at_bottom(self, engine):
        db = make_db(engine, options=tiny_options(write_buffer_size=kb(8)))
        self.fill(engine, db, 300)

        def deleter():
            for i in range(0, 300, 2):
                yield from db.delete(key(i))

        run_op(engine, deleter())
        run_op(engine, db.flush_all())
        run_op(engine, db.wait_idle())
        assert run_op(engine, db.get(key(2))) is None
        assert run_op(engine, db.get(key(3))) == ValueRef(3, 100)

    def test_memtable_switches_counted(self, engine):
        db = make_db(engine, options=tiny_options(write_buffer_size=kb(4)))
        self.fill(engine, db, 200)
        assert db.stats.get("memtable.switches") >= 2

    def test_wal_released_after_flush(self, engine):
        db = make_db(engine, options=tiny_options(write_buffer_size=kb(4)))
        self.fill(engine, db, 300)
        run_op(engine, db.flush_all())
        live = db.wal.live_logs()
        assert len(live) <= 2  # only current (+ maybe one in-flight)

    def test_level_invariants_maintained(self, engine):
        db = make_db(engine, options=tiny_options(write_buffer_size=kb(4)))
        self.fill(engine, db, 3000)
        run_op(engine, db.flush_all())
        run_op(engine, db.wait_idle())
        db.versions.current.check_invariants()

    def test_property_values(self, engine):
        db = make_db(engine)
        run_op(engine, db.put(key(1), b"v"))
        assert db.property_value("cur-size-active-mem-table") > 0
        assert db.property_value("num-files-at-level0") == 0
        assert db.property_value("num-immutable-mem-table") == 0
        assert db.property_value("pending-compaction-bytes") == 0
        assert db.property_value("total-sst-bytes") == 0
        assert db.property_value("is-read-only") == 0
        assert db.property_value("background-errors") == 0
        with pytest.raises(DBError):
            db.property_value("nope")


class TestScan:
    def test_scan_merges_memtable_and_sst(self, engine):
        db = make_db(engine, options=tiny_options(write_buffer_size=kb(8)))
        for i in range(0, 100, 2):
            run_op(engine, db.put(key(i), ValueRef(i, 50)))
        run_op(engine, db.flush_all())
        for i in range(1, 100, 2):  # odd keys stay in the memtable
            run_op(engine, db.put(key(i), ValueRef(i, 50)))
        out = run_op(engine, db.scan(key(10), key(20)))
        assert [k for k, _ in out] == [key(i) for i in range(10, 20)]

    def test_scan_respects_limit(self, engine):
        db = make_db(engine)
        for i in range(50):
            run_op(engine, db.put(key(i), b"v"))
        out = run_op(engine, db.scan(key(0), key(50), limit=7))
        assert len(out) == 7

    def test_scan_skips_tombstones(self, engine):
        db = make_db(engine)
        run_op(engine, db.put(key(1), b"a"))
        run_op(engine, db.put(key(2), b"b"))
        run_op(engine, db.delete(key(1)))
        out = run_op(engine, db.scan(key(0), key(10)))
        assert out == [(key(2), b"b")]

    def test_scan_empty_range(self, engine):
        db = make_db(engine)
        assert run_op(engine, db.scan(key(5), key(5))) == []


class TestWalModes:
    def test_wal_off_still_serves_reads(self, engine):
        db = make_db(engine, options=tiny_options(wal_mode=WAL_OFF))
        run_op(engine, db.put(key(1), b"v"))
        assert run_op(engine, db.get(key(1))) == b"v"
        assert db.wal.current is None

    def test_wal_bytes_accumulate_in_buffered_mode(self, engine):
        db = make_db(engine)
        run_op(engine, db.put(key(1), b"v" * 100))
        assert db.wal.bytes_written > 100


@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=120),
            st.one_of(st.none(), st.binary(min_size=1, max_size=20)),
        ),
        min_size=1,
        max_size=250,
    )
)
def test_db_matches_dict_model(ops):
    """Property: any interleaving of puts/deletes behaves like a dict,
    across memtable switches, flushes and compactions."""
    engine = Engine()
    db = make_db(
        engine,
        profile=xpoint_ssd(),
        options=tiny_options(write_buffer_size=kb(2), max_bytes_for_level_base=kb(8)),
    )
    model = {}

    def driver():
        for key_index, value in ops:
            k = b"%06d" % key_index
            if value is None:
                yield from db.delete(k)
                model.pop(k, None)
            else:
                yield from db.put(k, value)
                model[k] = value

    run_op(engine, driver())
    run_op(engine, db.flush_all())
    run_op(engine, db.wait_idle())

    def checker():
        for k in {b"%06d" % i for i, _ in ops}:
            got = yield from db.get(k)
            assert got == model.get(k), (k, got, model.get(k))

    run_op(engine, checker())
