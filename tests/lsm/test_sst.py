"""Tests for SSTables: build, block layout, lookup, iteration."""

import random
from array import array
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DBError
from repro.lsm.format import KIND_DELETE, KIND_PUT, entry_file_bytes, records_checksum
from repro.lsm import sst as sst_module
from repro.lsm.sst import EntryColumns, SSTBuilder, SSTable, cut_blocks, gather
from repro.lsm.value import ValueRef


def one_shot_cut(sizes, block_size):
    """Reference cut: walk the sizes once, closing a block before the entry
    that would overflow it.  Returns (first entries, byte offsets, total)."""
    first, offset, acc, total = [0], [0], 0, 0
    for idx, nbytes in enumerate(sizes):
        if acc + nbytes > block_size and acc > 0:
            first.append(idx)
            offset.append(total)
            acc = 0
        acc += nbytes
        total += nbytes
    return first, offset, total


def layout(sst):
    return list(sst._block_first), [sst.block_span(i) for i in range(sst.block_count)]


def build(n=100, value_size=100, block_size=1024, bloom=0, start=0, stride=1):
    b = SSTBuilder(1, block_size, bloom)
    for i in range(start, start + n * stride, stride):
        b.add(b"%08d" % i, (i + 1, KIND_PUT, ValueRef(i, value_size)))
    return b.finish()


class TestBuilder:
    def test_requires_sorted_keys(self):
        b = SSTBuilder(1, 1024, 0)
        b.add(b"b", (1, KIND_PUT, b"x"))
        with pytest.raises(DBError):
            b.add(b"a", (2, KIND_PUT, b"x"))
        with pytest.raises(DBError):
            b.add(b"b", (3, KIND_PUT, b"x"))  # duplicates rejected too

    def test_empty_finish_raises(self):
        with pytest.raises(DBError):
            SSTBuilder(1, 1024, 0).finish()

    def test_estimated_bytes_tracks_entries(self):
        b = SSTBuilder(1, 1024, 0)
        b.add(b"k1", (1, KIND_PUT, ValueRef(0, 100)))
        assert b.estimated_bytes == entry_file_bytes(b"k1", (1, KIND_PUT, ValueRef(0, 100)))

    def test_entry_count(self):
        b = SSTBuilder(1, 1024, 0)
        assert b.entry_count == 0
        b.add(b"k", (1, KIND_PUT, b"v"))
        assert b.entry_count == 1

    def test_non_positive_block_size_rejected(self):
        with pytest.raises(DBError):
            SSTBuilder(1, 0, 0)

    def test_block_layout_equals_one_shot_cut(self):
        """The builder cuts blocks from cumulative sizes when it finishes; the
        reference walks the finished table once (entry 40 alone overflows a
        block)."""
        rng = random.Random(7)
        block_size = 1024
        sizes = [rng.randrange(1, 400) for _ in range(300)]
        sizes[40] = 3 * block_size
        b = SSTBuilder(1, block_size, 0)
        for i, size in enumerate(sizes):
            b.add(b"%08d" % i, (i + 1, KIND_PUT, ValueRef(i, size)))
        sst = b.finish()

        first, offset, total = one_shot_cut(
            [entry_file_bytes(key, entry) for key, entry in sst.items()], block_size
        )
        ends = offset[1:] + [total]
        assert list(sst._block_first) == first
        assert [sst.block_span(i) for i in range(sst.block_count)] == [
            (lo, hi - lo) for lo, hi in zip(offset, ends)
        ]
        assert sst.data_bytes == b.estimated_bytes == total

    def test_builder_and_bulk_constructor_give_equal_tables(self):
        keys = tuple(b"%08d" % i for i in range(30))
        entries = [(i + 5, KIND_PUT, ValueRef(i, 100)) for i in range(30)]
        eager = SSTBuilder(1, 512, 10)
        for key, entry in zip(keys, entries):
            eager.add(key, entry)
        a = eager.finish()
        columns = EntryColumns.of(keys, entries)
        b = SSTable.build(1, keys, columns, 512, 10)
        assert a.largest_seq == b.largest_seq == 34
        assert list(a.items()) == list(b.items())
        assert layout(a) == layout(b) and a.file_bytes == b.file_bytes
        assert SSTable.build(1, keys, columns, 512, largest_seq=99).largest_seq == 99
        # A window of a longer run's columns: offsets are relative to the window.
        tail = SSTable.build(2, keys[10:], columns[10:], 512)
        tail_bytes = sum(map(entry_file_bytes, keys[10:], entries[10:]))
        assert tail.data_bytes == tail_bytes and tail.block_span(0)[0] == 0
        assert layout(tail) == layout(
            SSTable.build(2, keys[10:], EntryColumns.of(keys[10:], entries[10:]), 512)
        )
        with pytest.raises(DBError):
            SSTable.build(1, keys[::-1], columns, 512)
        with pytest.raises(DBError):
            SSTable.build(1, keys[:5], columns, 512)
        with pytest.raises(DBError):
            SSTable.build(1, (), EntryColumns.of([], []), 512)
        with pytest.raises(DBError):  # one representation: the index is a tuple
            SSTable.build(1, list(keys), columns, 512)

    def test_largest_seq_is_a_running_max(self):
        b = SSTBuilder(1, 1024, 0)
        for key, seq in ((b"a", 7), (b"b", 19), (b"c", 3)):
            b.add(key, (seq, KIND_PUT, b"v"))
        assert b.finish().largest_seq == 19


class TestTable:
    def test_metadata(self):
        sst = build(50)
        assert sst.entry_count == 50
        assert sst.smallest == b"%08d" % 0
        assert sst.largest == b"%08d" % 49
        assert sst.block_count >= 5  # 108B entries, 1KB blocks
        assert sst.file_bytes > sst.data_bytes

    def test_find_present_and_absent(self):
        sst = build(50, stride=2)
        assert sst.find(b"%08d" % 4) is not None
        assert sst.find(b"%08d" % 5) is None  # gap between keys
        assert sst.find(b"%08d" % 998) is None

    def test_overlaps(self):
        sst = build(10, start=100)
        lo, hi = sst.smallest, sst.largest
        assert sst.overlaps(lo, hi)
        assert sst.overlaps(b"%08d" % 0, b"%08d" % 100)
        assert not sst.overlaps(b"%08d" % 0, b"%08d" % 99)
        assert sst.overlaps(b"%08d" % 109, b"%08d" % 999)
        assert not sst.overlaps(b"%08d" % 110, b"%08d" % 999)

    def test_block_spans_cover_data_exactly(self):
        sst = build(100)
        total = 0
        prev_end = 0
        for idx in range(sst.block_count):
            offset, nbytes = sst.block_span(idx)
            assert offset == prev_end
            prev_end = offset + nbytes
            total += nbytes
        assert total == sst.data_bytes

    def test_block_span_out_of_range(self):
        sst = build(10)
        with pytest.raises(DBError):
            sst.block_span(sst.block_count)

    def test_locate_finds_entry_and_containing_block(self):
        sst = build(100)
        for i in (0, 17, 50, 99):
            key = b"%08d" % i
            entry_idx, block = sst.locate(key)
            assert sst.keys[entry_idx] == key
            first = sst._block_first[block]
            last = (
                sst._block_first[block + 1] - 1
                if block + 1 < sst.block_count
                else sst.entry_count - 1
            )
            assert first <= entry_idx <= last
            assert sst.keys[first] <= key <= sst.keys[last]

    def test_locate_clamps_to_the_last_entry(self):
        sst = build(10, stride=10)
        assert sst.locate(b"")[0] == 0
        assert sst.locate(b"%08d" % 45)[0] == 5  # a gap: the next key's entry
        assert sst.locate(b"~") == (9, sst.block_count - 1)  # past the end

    def test_blocks_respect_block_size(self):
        sst = build(100, value_size=100, block_size=1024)
        for idx in range(sst.block_count):
            _, nbytes = sst.block_span(idx)
            assert nbytes <= 1024

    def test_items_iteration(self):
        sst = build(10)
        items = list(sst.items())
        assert len(items) == 10
        assert items[0][0] == sst.smallest

    def test_items_from(self):
        sst = build(10, stride=10)
        tail = list(sst.items_from(b"%08d" % 45))
        assert [k for k, _ in tail] == [b"%08d" % i for i in range(50, 100, 10)]

    def test_bloom_wired_in(self):
        sst = build(100, bloom=10)
        assert sst.bloom is not None
        assert all(sst.may_contain(k) for k in sst.keys)
        assert sst.may_contain(b"definitely-absent") in (True, False)

    def test_no_bloom_always_maybe(self):
        sst = build(10)
        assert sst.may_contain(b"whatever")

    def test_tombstones_supported(self):
        b = SSTBuilder(1, 1024, 0)
        b.add(b"dead", (5, KIND_DELETE, None))
        sst = b.finish()
        assert sst.find(b"dead") == (5, KIND_DELETE, None)

    def test_seed_past_int64_keeps_the_value_list(self):
        entries = [(1, KIND_PUT, ValueRef(1 << 70, 10)), (2, KIND_PUT, ValueRef(3, 10))]
        columns = EntryColumns.of([b"a", b"b"], entries)
        assert columns.values == [entry[2] for entry in entries] and columns.seeds is None
        assert SSTable.build(1, (b"a", b"b"), columns, 64).find(b"a") == entries[0]

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(DBError):
            SSTable(1, (b"a",), EntryColumns.of([], []), [0], [0], 0, 0)

    def test_empty_table_rejected(self):
        with pytest.raises(DBError):
            SSTable(1, (), EntryColumns.of([], []), [0], [0], 0, 0)


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=600), min_size=1, max_size=120),
    block_size=st.sampled_from([1, 64, 256, 1024]),
    uniform=st.booleans(),
)
def test_cutter_equals_one_shot_cut(sizes, block_size, uniform):
    """Property: cut_blocks over any run — sized by an array or, when every
    entry has one size, by a range — equals the one-shot cut."""
    if uniform:
        sizes = [sizes[0]] * len(sizes)
        cum = range(0, (len(sizes) + 1) * sizes[0], sizes[0])
    else:
        cum = array("q", accumulate(sizes, initial=0))
    want_first, want_offset, _total = one_shot_cut(sizes, block_size)
    first, offset = cut_blocks(cum, block_size)
    assert (list(first), list(offset)) == (want_first, want_offset)
    assert first.typecode == offset.typecode == "q"


@given(
    indices=st.sets(st.integers(min_value=0, max_value=5000), min_size=1, max_size=300),
    block_size=st.sampled_from([256, 1024, 4096]),
)
def test_lookup_agrees_with_dict(indices, block_size):
    """Property: find() over any key set equals a dict lookup."""
    ordered = sorted(indices)
    b = SSTBuilder(1, block_size, 0)
    model = {}
    for i in ordered:
        key = b"%08d" % i
        entry = (i + 1, KIND_PUT, ValueRef(i, 50))
        b.add(key, entry)
        model[key] = entry
    sst = b.finish()
    for i in range(0, 5001, 37):
        key = b"%08d" % i
        assert sst.find(key) == model.get(key)
    # Block mapping must locate the correct block for every present key.
    for key in model:
        entry_idx, block = sst.locate(key)
        assert sst.keys[entry_idx] == key
        assert sst._block_first[block] <= entry_idx
        assert block + 1 == sst.block_count or entry_idx < sst._block_first[block + 1]
        offset, nbytes = sst.block_span(block)
        assert 0 <= offset < sst.data_bytes
        assert nbytes > 0


@st.composite
def runs(draw):
    """A sorted run of one of three kinds: every value a ``ValueRef`` (of one
    size or of many), every value ``bytes``, or tombstones among both."""
    kind = draw(st.sampled_from(["refs", "one-size refs", "bytes", "tombstones"]))
    keys = sorted(draw(st.sets(st.binary(min_size=1, max_size=10), min_size=1, max_size=60)))
    if kind == "one-size refs":
        keys = sorted({key.ljust(10, b"=") for key in keys})
    seqs = draw(st.lists(st.integers(1, 1 << 50), min_size=len(keys), max_size=len(keys)))
    sizes = st.just(300) if kind == "one-size refs" else st.integers(0, 900)
    ref = st.builds(ValueRef, st.integers(0, 1 << 62), sizes)
    value = {
        "refs": ref,
        "one-size refs": ref,
        "bytes": st.binary(max_size=900),
        "tombstones": st.one_of(st.none(), ref, st.binary(max_size=900)),
    }[kind]
    values = draw(st.lists(value, min_size=len(keys), max_size=len(keys)))
    if kind == "tombstones":  # at least one
        values[draw(st.integers(0, len(keys) - 1))] = None
    entries = [
        (seq, KIND_DELETE, None) if v is None else (seq, KIND_PUT, v) for seq, v in zip(seqs, values)
    ]
    return kind, keys, entries


@given(run=runs(), block_size=st.sampled_from([64, 512, 4096]), bloom=st.sampled_from([0, 10]))
def test_column_backed_table_equals_tuple_backed_table(run, block_size, bloom):
    """Property: a table over entry columns answers every question exactly as
    the ``(seq, kind, value)`` tuples themselves do, laid out by the one-shot
    reference cut over :func:`entry_file_bytes`."""
    kind, keys, entries = run
    first, offset, total = one_shot_cut(list(map(entry_file_bytes, keys, entries)), block_size)
    columns = EntryColumns.of(keys, entries)
    table = SSTable.build(1, tuple(keys), columns, block_size, bloom)
    reference = SSTable(1, tuple(keys), columns, first, offset, total, 0, bloom)  # the one-shot layout
    assert (columns.values is None) == (kind in ("refs", "one-size refs"))  # seeds, not a list
    if kind == "one-size refs":  # one size: the blocks are cut in closed form
        assert columns.sizes.__class__ is int and columns.cumulative().__class__ is range
    assert table.keys == tuple(keys) and list(table.items()) == list(zip(keys, entries))
    ends = offset[1:] + [total]
    assert [table.block_span(b) for b in range(table.block_count)] == [
        (lo, max(1, hi - lo)) for lo, hi in zip(offset, ends)
    ]
    assert (table.data_bytes, table.file_bytes, table.largest_seq) == (
        total, reference.file_bytes, max(e[0] for e in entries)
    )
    model = dict(zip(keys, entries))
    for key in keys + [b"", keys[0] + b"\x00", keys[-1] + b"\x00"]:
        assert table.find(key) == model.get(key)
    for block, (lo, hi) in enumerate(zip(first, first[1:] + [len(keys)])):
        assert table.block_checksum(block) == records_checksum(zip(keys[lo:hi], entries[lo:hi]))
    assert list(table.entries) == entries and len(table.entries) == len(entries)
    assert [table.entries[j] for j in range(-len(entries), len(entries))] == entries * 2


@given(
    column=st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=1, max_size=50),
    typecode=st.sampled_from(["q", "B"]),
    data=st.data(),
)
def test_gather_is_the_same_without_numpy(column, typecode, data):
    """Property: the vectorized gather and the pure-Python one agree."""
    if typecode == "B":
        column = [value & 0xFF for value in column]
    column = array(typecode, column)
    idx = array("q", data.draw(st.lists(st.integers(0, len(column) - 1), max_size=80)))
    fast = gather(column, idx)
    with mock.patch.object(sst_module, "_np", None):
        assert gather(column, idx) == fast == array(typecode, [column[i] for i in idx])
    assert gather(7, idx) == 7 and gather(list(column), idx) == list(fast)
    assert gather(range(3, 3 + len(column)), idx) == array("q", [3 + i for i in idx])
