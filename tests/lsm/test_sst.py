"""Tests for SSTables: build, block layout, lookup, iteration."""

import random
from array import array
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DBError
from repro.lsm.format import KIND_DELETE, KIND_PUT, entry_file_bytes
from repro.lsm.sst import SSTBuilder, SSTable, cumulative_sizes, cut_blocks
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
        assert b.empty()
        b.add(b"k", (1, KIND_PUT, b"v"))
        assert b.entry_count == 1
        assert not b.empty()

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
        keys = [b"%08d" % i for i in range(30)]
        entries = [(i + 5, KIND_PUT, ValueRef(i, 100)) for i in range(30)]
        eager = SSTBuilder(1, 512, 10)
        for key, entry in zip(keys, entries):
            eager.add(key, entry)
        a = eager.finish()
        cum = cumulative_sizes(keys, entries)
        b = SSTable.build(1, keys, tuple(entries), cum, 0, 512, 10)
        assert a.largest_seq == b.largest_seq == 34
        assert list(a.items()) == list(b.items())
        assert layout(a) == layout(b) and a.file_bytes == b.file_bytes
        assert SSTable.build(1, keys, entries, cum, 0, 512, largest_seq=99).largest_seq == 99
        # A slice of a longer run: offsets are relative to the slice.
        tail = SSTable.build(2, keys[10:], entries[10:], cum, 10, 512)
        assert tail.data_bytes == cum[30] - cum[10] and tail.block_span(0)[0] == 0
        assert layout(tail) == layout(
            SSTable.build(2, keys[10:], entries[10:], cumulative_sizes(keys[10:], entries[10:]), 0, 512)
        )
        with pytest.raises(DBError):
            SSTable.build(1, keys[::-1], entries, cum, 0, 512)
        with pytest.raises(DBError):
            SSTable.build(1, [], [], cum, 0, 512)

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

    def test_key_in_range(self):
        sst = build(10, start=100)
        assert sst.key_in_range(b"%08d" % 100)
        assert sst.key_in_range(b"%08d" % 105)
        assert not sst.key_in_range(b"%08d" % 99)
        assert not sst.key_in_range(b"%08d" % 110)

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

    def test_block_for_key_finds_containing_block(self):
        sst = build(100)
        for i in (0, 17, 50, 99):
            key = b"%08d" % i
            block = sst.block_for_key(key)
            first = sst._block_first[block]
            last = (
                sst._block_first[block + 1] - 1
                if block + 1 < sst.block_count
                else sst.entry_count - 1
            )
            assert sst.keys[first] <= key <= sst.keys[last]

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

    def test_key_index_counts_smaller_keys(self):
        sst = build(10, stride=10)
        assert sst.key_index(b"") == 0
        assert sst.key_index(b"%08d" % 40) == 4
        assert sst.key_index(b"%08d" % 45) == 5
        assert sst.key_index(b"~") == 10

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

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(DBError):
            SSTable(1, [b"a"], [], [0], [0], 0, 0)

    def test_empty_table_rejected(self):
        with pytest.raises(DBError):
            SSTable(1, [], [], [0], [0], 0, 0)


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=600), min_size=1, max_size=120),
    block_size=st.sampled_from([1, 64, 256, 1024]),
    lo=st.integers(min_value=0, max_value=119),
    uniform=st.booleans(),
)
def test_cutter_equals_one_shot_cut(sizes, block_size, lo, uniform):
    """Property: cut_blocks over any slice of a run — sized by an array or,
    when every entry has one size, by a range — equals the one-shot cut."""
    if uniform:
        sizes = [sizes[0]] * len(sizes)
        cum = range(0, (len(sizes) + 1) * sizes[0], sizes[0])
    else:
        cum = array("q", accumulate(sizes, initial=0))
    lo = min(lo, len(sizes) - 1)
    want_first, want_offset, _total = one_shot_cut(sizes[lo:], block_size)
    first, offset = cut_blocks(cum, lo, len(sizes), block_size)
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
        block = sst.block_for_key(key)
        offset, nbytes = sst.block_span(block)
        assert 0 <= offset < sst.data_bytes
        assert nbytes > 0
