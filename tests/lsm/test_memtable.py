"""Tests for memtables and the memtable list."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DBError
from repro.lsm.format import KIND_DELETE, KIND_PUT
from repro.lsm.memtable import HashRep, MemTable, MemTableList, SkipListRep, make_rep
from repro.lsm.value import ValueRef


def put(seq, value=b"v"):
    return (seq, KIND_PUT, value)


def tomb(seq):
    return (seq, KIND_DELETE, None)


@pytest.mark.parametrize("rep", ["skiplist", "hash"])
class TestMemTableReps:
    def test_add_get(self, rep):
        mt = MemTable(rep=rep)
        mt.add(b"k", put(1))
        assert mt.get(b"k") == (1, KIND_PUT, b"v")
        assert mt.get(b"missing") is None

    def test_latest_wins(self, rep):
        mt = MemTable(rep=rep)
        mt.add(b"k", put(1, b"old"))
        mt.add(b"k", put(5, b"new"))
        assert mt.get(b"k")[2] == b"new"
        assert mt.entry_count == 1

    def test_tombstone_visible(self, rep):
        mt = MemTable(rep=rep)
        mt.add(b"k", put(1))
        mt.add(b"k", tomb(2))
        assert mt.get(b"k")[1] == KIND_DELETE
        assert [e[1] for _, e in mt.sorted_items()] == [KIND_DELETE]

    def test_sorted_items(self, rep):
        mt = MemTable(rep=rep)
        for k in (b"c", b"a", b"b"):
            mt.add(k, put(1))
        assert [k for k, _ in mt.sorted_items()] == [b"a", b"b", b"c"]

    def test_charged_bytes_grow(self, rep):
        mt = MemTable(rep=rep)
        mt.add(b"0123456789", put(1, ValueRef(0, 1000)))
        assert mt.charged_bytes == 10 + 1000 + 64

    def test_seq_tracking(self, rep):
        mt = MemTable(rep=rep)
        mt.add(b"a", put(5))
        mt.add(b"b", put(9))
        assert mt.first_seq == 5
        assert mt.last_seq == 9

    def test_immutable_rejects_writes(self, rep):
        mt = MemTable(rep=rep)
        mt.add(b"a", put(1))
        mt.mark_immutable()
        with pytest.raises(DBError):
            mt.add(b"b", put(2))

    def test_non_bytes_key_rejected(self, rep):
        mt = MemTable(rep=rep)
        with pytest.raises(DBError):
            mt.add("string-key", put(1))


def test_make_rep_dispatch():
    assert isinstance(make_rep("skiplist"), SkipListRep)
    assert isinstance(make_rep("hash"), HashRep)
    with pytest.raises(DBError):
        make_rep("btree")


@given(
    ops=st.lists(
        st.tuples(st.binary(min_size=1, max_size=6), st.booleans()),
        min_size=1,
        max_size=200,
    )
)
def test_reps_agree(ops):
    """Skiplist and hash reps produce identical visible state."""
    sl = MemTable(rep="skiplist")
    hs = MemTable(rep="hash")
    for seq, (key, is_put) in enumerate(ops, start=1):
        entry = put(seq, b"x") if is_put else tomb(seq)
        sl.add(key, entry)
        hs.add(key, entry)
    assert list(sl.sorted_items()) == list(hs.sorted_items())
    assert sl.entry_count == hs.entry_count
    assert sl.charged_bytes == hs.charged_bytes


class TestMemTableList:
    def make(self):
        counter = [0]

        def factory():
            counter[0] += 1
            return MemTable(rep="hash")

        return MemTableList(factory), counter

    def test_switch_seals_and_allocates(self):
        ml, counter = self.make()
        ml.mutable.add(b"a", put(1))
        sealed = ml.switch()
        assert sealed.immutable
        assert sealed.get(b"a") is not None
        assert not ml.mutable.immutable
        assert ml.count == 2
        assert counter[0] == 2

    def test_lookup_order_newest_first(self):
        ml, _ = self.make()
        ml.mutable.add(b"k", put(1, b"v1"))
        ml.switch()
        ml.mutable.add(b"k", put(2, b"v2"))
        assert ml.lookup(b"k")[2] == b"v2"

    def test_lookup_falls_back_to_immutables(self):
        ml, _ = self.make()
        ml.mutable.add(b"old", put(1, b"v1"))
        ml.switch()
        assert ml.lookup(b"old")[2] == b"v1"
        assert ml.lookup(b"none") is None

    def test_immutable_lookup_prefers_newest_immutable(self):
        ml, _ = self.make()
        ml.mutable.add(b"k", put(1, b"first"))
        ml.switch()
        ml.mutable.add(b"k", put(2, b"second"))
        ml.switch()
        assert ml.lookup(b"k")[2] == b"second"

    def test_pop_oldest(self):
        ml, _ = self.make()
        ml.mutable.add(b"a", put(1))
        first = ml.switch()
        ml.mutable.add(b"b", put(2))
        second = ml.switch()
        # Oldest first: the head is what the next flush takes.
        assert ml.immutables == [first, second]

    def test_tables_newest_first(self):
        ml, _ = self.make()
        sealed = ml.switch()
        tables = ml.tables_newest_first()
        assert tables[0] is ml.mutable
        assert tables[1] is sealed
