"""Tests for the OS page cache model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FileSystemError
from repro.fs.page_cache import PAGE_SIZE, PageCache


def test_miss_then_hit():
    cache = PageCache(64 * PAGE_SIZE)
    holes = cache.read_through(1, 0, PAGE_SIZE)
    assert holes == [(0, PAGE_SIZE)]
    assert cache.read_through(1, 0, PAGE_SIZE) == []
    assert cache.stats.get("page_hits") == 1
    assert cache.stats.get("page_misses") == 1


def test_partial_miss_coalesced():
    cache = PageCache(64 * PAGE_SIZE)
    cache.fill(1, PAGE_SIZE, PAGE_SIZE)  # page 1 resident
    holes = cache.read_through(1, 0, 3 * PAGE_SIZE)  # pages 0,1,2
    assert holes == [(0, PAGE_SIZE), (2 * PAGE_SIZE, PAGE_SIZE)]


def test_adjacent_misses_merge_into_one_hole():
    cache = PageCache(64 * PAGE_SIZE)
    holes = cache.read_through(1, 0, 4 * PAGE_SIZE)
    assert holes == [(0, 4 * PAGE_SIZE)]


def test_unaligned_range_covers_both_pages():
    cache = PageCache(64 * PAGE_SIZE)
    holes = cache.read_through(1, PAGE_SIZE - 10, 20)  # straddles pages 0 and 1
    assert holes == [(0, 2 * PAGE_SIZE)]


def test_files_do_not_collide():
    cache = PageCache(64 * PAGE_SIZE)
    cache.fill(1, 0, PAGE_SIZE)
    assert cache.read_through(2, 0, PAGE_SIZE) != []


def test_lru_eviction_order():
    cache = PageCache(2 * PAGE_SIZE)
    cache.fill(1, 0, PAGE_SIZE)  # page A
    cache.fill(1, PAGE_SIZE, PAGE_SIZE)  # page B
    cache.read_through(1, 0, PAGE_SIZE)  # touch A: B is now LRU
    cache.fill(1, 2 * PAGE_SIZE, PAGE_SIZE)  # page C evicts B
    assert cache.contains(1, 0, PAGE_SIZE)  # A stays
    assert not cache.contains(1, PAGE_SIZE, PAGE_SIZE)  # B evicted
    assert cache.stats.get("pages_evicted") == 1


def test_capacity_enforced():
    cache = PageCache(8 * PAGE_SIZE)
    cache.fill(1, 0, 32 * PAGE_SIZE)
    assert len(cache) == 8


def test_invalidate_file_drops_only_that_file():
    cache = PageCache(64 * PAGE_SIZE)
    cache.fill(1, 0, 4 * PAGE_SIZE)
    cache.fill(2, 0, 4 * PAGE_SIZE)
    cache.invalidate_file(1, 4 * PAGE_SIZE)
    assert not cache.contains(1, 0, PAGE_SIZE)
    assert cache.contains(2, 0, PAGE_SIZE)
    assert len(cache) == 4


def test_zero_and_negative_access_rejected():
    cache = PageCache(4 * PAGE_SIZE)
    with pytest.raises(FileSystemError):
        cache.read_through(1, 0, 0)
    with pytest.raises(FileSystemError):
        cache.read_through(1, 0, -PAGE_SIZE)


def test_fill_zero_is_noop():
    cache = PageCache(4 * PAGE_SIZE)
    cache.fill(1, 0, 0)
    assert len(cache) == 0


def test_hit_rate():
    cache = PageCache(64 * PAGE_SIZE)
    cache.read_through(1, 0, PAGE_SIZE)
    cache.read_through(1, 0, PAGE_SIZE)
    assert cache.hit_rate() == pytest.approx(0.5)


def test_custom_page_size():
    cache = PageCache(4 * 16384, page_size=16384)
    holes = cache.read_through(1, 0, 16384)
    assert holes == [(0, 16384)]


@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),  # 0=read_through, 1=fill
            st.integers(min_value=0, max_value=3),  # file id
            st.integers(min_value=0, max_value=63),  # page index
        ),
        max_size=200,
    )
)
def test_matches_reference_lru_model(ops):
    """The cache agrees with a straightforward reference implementation."""
    capacity = 8
    cache = PageCache(capacity * PAGE_SIZE)
    reference: list = []  # LRU order, most recent last

    def ref_touch(key):
        if key in reference:
            reference.remove(key)
            reference.append(key)
            return True
        return False

    def ref_fill(key):
        if key in reference:
            reference.remove(key)
        reference.append(key)
        while len(reference) > capacity:
            reference.pop(0)

    for kind, file_id, page in ops:
        key = (file_id, page)
        offset = page * PAGE_SIZE
        if kind == 0:
            expected_hit = ref_touch(key)
            holes = cache.read_through(file_id, offset, PAGE_SIZE)
            assert (holes == []) == expected_hit
            if not expected_hit:
                ref_fill(key)
        else:
            cache.fill(file_id, offset, PAGE_SIZE)
            ref_fill(key)
    assert len(cache) == len(reference)
    for file_id, page in reference:
        assert cache.contains(file_id, page * PAGE_SIZE, PAGE_SIZE)


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["fill", "read_through"]),
            st.integers(min_value=1, max_value=2),  # two interleaved files
            st.integers(min_value=0, max_value=40),  # first page
            st.integers(min_value=1, max_value=3 * PAGE_SIZE),  # bytes
        ),
        max_size=60,
    ),
    victim=st.integers(min_value=1, max_value=2),
    slack=st.integers(min_value=0, max_value=PAGE_SIZE),
)
def test_invalidate_by_span_equals_full_scan(ops, victim, slack):
    """Dropping a file's pages by probing its span leaves what a scan of the
    whole cache leaves: the same surviving pages in the same LRU order and
    the same ticker."""
    cache = PageCache(24 * PAGE_SIZE)
    span = 0  # bytes of the victim file ever touched
    for kind, file_id, page, nbytes in ops:
        getattr(cache, kind)(file_id, page * PAGE_SIZE, nbytes)
        if file_id == victim:
            span = max(span, page * PAGE_SIZE + nbytes)
    before = cache.resident()
    survivors = [key for key in before if key[0] != victim]
    cache.invalidate_file(victim, span + slack)
    assert cache.resident() == survivors
    assert cache.stats.get("pages_invalidated") == len(before) - len(survivors)


def test_power_fail_leaves_no_page_of_any_file(null_fs):
    files = [null_fs.create(f"f{i}") for i in range(3)]
    for i, f in enumerate(files):
        f.append((i + 1) * 300_000)  # the last one spans two extents
    files[0].read(0, 100_000)
    assert len(null_fs.page_cache) > 0
    null_fs.power_fail()
    assert len(null_fs.page_cache) == 0
    f = null_fs.create("later")
    f.append(5 * PAGE_SIZE)
    null_fs.delete("later")
    assert len(null_fs.page_cache) == 0
    assert null_fs.page_cache.stats.get("pages_invalidated") > 5
