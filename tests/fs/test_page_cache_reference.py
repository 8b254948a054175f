"""Differential test: ``PageCache`` (per-file marks and a log of runs)
against the per-page ``OrderedDict`` LRU it replaced.

The reference below is that class, kept here as the spec (as
``test_compaction_reference.py`` keeps the per-entry merge), with its
single-page fast paths folded into the loops they short-cut and without
``access``, which only tests called.  Both are driven
through the same interleaved histories of ``fill`` / ``read_through`` /
``invalidate_file`` / ``contains`` and must agree on everything a caller can
observe: every returned hole list and answer, the resident pages in LRU
order (``resident()``), and the tickers in first-insertion order.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import repeat
from typing import Dict, List, Tuple
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import FileSystemError
from repro.fs import page_cache as page_cache_module
from repro.fs.page_cache import PageCache
from repro.sim.stats import StatsSet


class ReferencePageCache:
    """One ``OrderedDict`` node per resident ``(file_id, page)``, LRU first."""

    def __init__(self, capacity_bytes: int, page_size: int) -> None:
        self.page_size = page_size
        self.capacity_pages = max(0, capacity_bytes // page_size)
        self._pages: "OrderedDict[Tuple[int, int], bool]" = OrderedDict()
        self.stats = StatsSet()

    def __len__(self) -> int:
        return len(self._pages)

    def resident(self) -> List[Tuple[int, int]]:
        return list(self._pages)

    def read_through(self, file_id: int, offset: int, nbytes: int) -> List[Tuple[int, int]]:
        if nbytes <= 0:
            raise FileSystemError(f"access size must be positive: {nbytes}")
        pages = self._pages
        first = offset // self.page_size
        last = (offset + nbytes - 1) // self.page_size
        # Hits are promoted before any miss is inserted.
        missing_pages: List[int] = []
        hits = 0
        for page in range(first, last + 1):
            key = (file_id, page)
            if key in pages:
                pages.move_to_end(key)
                hits += 1
            else:
                missing_pages.append(page)
        if hits:
            self.stats.inc("page_hits", hits)
        if missing_pages:
            self.stats.inc("page_misses", len(missing_pages))
            for page in missing_pages:
                pages[(file_id, page)] = True
            if len(pages) > self.capacity_pages:
                self._evict_excess()
        return self._coalesce(missing_pages)

    def _coalesce(self, pages: List[int]) -> List[Tuple[int, int]]:
        if not pages:
            return []
        runs: List[Tuple[int, int]] = []
        run_start = prev = pages[0]
        for page in pages[1:]:
            if page == prev + 1:
                prev = page
                continue
            runs.append((run_start * self.page_size, (prev - run_start + 1) * self.page_size))
            run_start = prev = page
        runs.append((run_start * self.page_size, (prev - run_start + 1) * self.page_size))
        return runs

    def fill(self, file_id: int, offset: int, nbytes: int) -> None:
        if nbytes <= 0:
            return
        pages = self._pages
        first = offset // self.page_size
        last = (offset + nbytes - 1) // self.page_size
        for page in range(first, last + 1):
            key = (file_id, page)
            if key in pages:
                pages.move_to_end(key)
            else:
                pages[key] = True
        self._evict_excess()

    def contains(self, file_id: int, offset: int, nbytes: int) -> bool:
        first = offset // self.page_size
        last = (offset + nbytes - 1) // self.page_size
        return all((file_id, page) in self._pages for page in range(first, last + 1))

    def invalidate_file(self, file_id: int, nbytes: int) -> None:
        pages = self._pages
        span = zip(repeat(file_id), range(-(-nbytes // self.page_size)))
        stale = list(filter(pages.__contains__, span))
        for key in stale:
            del pages[key]
        self.stats.inc("pages_invalidated", len(stale))

    def _evict_excess(self) -> None:
        pages = self._pages
        evicted = 0
        while len(pages) > self.capacity_pages:
            pages.popitem(last=False)
            evicted += 1
        if evicted:
            self.stats.inc("pages_evicted", evicted)


FILES = 3

op_strategy = st.one_of(
    # (kind, file, first page, byte offset within it, length in bytes / 64)
    st.tuples(
        st.sampled_from(["read_through", "fill", "contains"]),
        st.integers(min_value=0, max_value=FILES - 1),
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=1, max_value=16 * 64),
    ),
    # A WAL-style append of that many bytes / 64 at the file's end.
    st.tuples(st.just("append"), st.integers(min_value=0, max_value=FILES - 1), st.integers(1, 3 * 64)),
    # Delete the file (its id is then reused) or drop only its first pages.
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=FILES - 1)),
    st.tuples(st.just("invalidate"), st.integers(min_value=0, max_value=FILES - 1), st.integers(0, 8)),
)


def run_both(capacity: int, page_size: int, ops) -> None:
    unit = page_size // 64
    cache = PageCache(capacity * page_size, page_size=page_size)
    ref = ReferencePageCache(capacity * page_size, page_size)
    size: Dict[int, int] = dict.fromkeys(range(FILES), 0)  # bytes appended
    span: Dict[int, int] = dict.fromkeys(range(FILES), 0)  # bytes ever touched
    for op in ops:
        kind, file_id = op[0], op[1]
        if kind == "append":
            args = (file_id, size[file_id], op[2] * unit)
            size[file_id] += op[2] * unit
            kind = "fill"
        elif kind == "delete":
            args = (file_id, span[file_id])
            size[file_id] = span[file_id] = 0
            kind = "invalidate_file"
        elif kind == "invalidate":
            args = (file_id, op[2] * page_size)
            kind = "invalidate_file"
        else:
            args = (file_id, op[2] * page_size + op[3] * unit, op[4] * unit)
        if kind != "invalidate_file":
            span[file_id] = max(span[file_id], args[1] + args[2])
        assert getattr(cache, kind)(*args) == getattr(ref, kind)(*args), (kind, args)
        assert len(cache) == len(ref)
        assert cache.resident() == ref.resident()
        assert list(cache.stats.tickers().items()) == list(ref.stats.tickers().items())


TWO_PAGES = 2 * 64  # a length of two pages in the strategy's units


@settings(max_examples=300, deadline=None)
# A stale short run at the log head: pages 0-1 are read, read again (their
# first run goes stale) and a miss then evicts past the stale run.
@example(
    capacity=4,
    page_size=4096,
    slack=4096,
    ops=[("read_through", 1, page, 0, TWO_PAGES) for page in (0, 4, 0)]
    + [("read_through", 2, 0, 0, TWO_PAGES)],
)
# A partial eviction of a long live run: three pages off an eight-page fill.
@example(
    capacity=8,
    page_size=4096,
    slack=4096,
    ops=[("fill", 1, 0, 0, 4 * TWO_PAGES), ("fill", 2, 0, 0, 3 * 64)],
)
@given(
    capacity=st.sampled_from([0, 1, 2, 3, 5, 8, 13]),
    page_size=st.sampled_from([4096, 16384]),
    slack=st.sampled_from([0, 1, page_cache_module._LOG_SLACK]),
    ops=st.lists(op_strategy, max_size=80),
)
def test_matches_per_page_lru(capacity, page_size, slack, ops):
    """Same holes, answers, LRU order and tickers as the per-page LRU.  A
    small log slack makes the log rebuild itself after nearly every run."""
    with mock.patch.object(page_cache_module, "_LOG_SLACK", slack):
        run_both(capacity, page_size, ops)

