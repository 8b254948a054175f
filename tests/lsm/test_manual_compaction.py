"""Tests for the CompactRange analog."""

from repro.lsm.format import KIND_DELETE
from repro.lsm.value import ValueRef
from repro.sim.units import kb
from tests.conftest import make_db, run_op, tiny_options


def key(i):
    return b"%010d" % i


def filled_db(engine, n=600):
    db = make_db(engine, options=tiny_options(write_buffer_size=kb(8)))

    def writer():
        for i in range(n):
            yield from db.put(key(i), ValueRef(i, 64))

    run_op(engine, writer())
    return db


class TestCompactRange:
    def test_pushes_data_to_bottom(self, engine):
        db = filled_db(engine)
        run_op(engine, db.compact_range())
        shape = db.level_shape()
        assert shape[0] == 0  # L0 emptied
        populated = [lvl for lvl, n in enumerate(shape) if n > 0]
        assert len(populated) == 1  # one compacted level holds everything

    def test_data_intact_after_manual_compaction(self, engine):
        db = filled_db(engine)
        run_op(engine, db.compact_range())
        for i in (0, 299, 599):
            assert run_op(engine, db.get(key(i))) == ValueRef(i, 64)

    def test_tombstones_purged(self, engine):
        db = filled_db(engine)

        def deleter():
            for i in range(0, 600, 3):
                yield from db.delete(key(i))

        run_op(engine, deleter())
        run_op(engine, db.compact_range())
        kinds = [
            e[1]
            for meta in db.versions.current.all_files()
            for _, e in meta.sst.items()
        ]
        assert KIND_DELETE not in kinds
        assert run_op(engine, db.get(key(3))) is None
        assert run_op(engine, db.get(key(4))) == ValueRef(4, 64)

    def test_counted_in_stats(self, engine):
        db = filled_db(engine, n=50)
        run_op(engine, db.compact_range())
        assert db.stats.get("manual_compactions") == 1
