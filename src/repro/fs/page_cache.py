"""OS page cache model (LRU over 4 KB pages).

The paper's testbed boots with 8 GB of RAM against a 100 GB dataset, so the
OS buffer cache absorbs roughly 8 % of reads.  The model tracks *which* pages
are resident — actual data bytes live in the structures of the upper layers —
and answers the only question the I/O path needs: which fraction of a read
must touch the device.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import repeat
from typing import List, Tuple

from repro.errors import FileSystemError
from repro.sim.stats import StatsSet

PAGE_SIZE = 4096


class PageCache:
    """LRU page cache shared by all files of one simulated machine."""

    def __init__(self, capacity_bytes: int, page_size: int = PAGE_SIZE) -> None:
        if page_size <= 0:
            raise FileSystemError(f"page size must be positive: {page_size}")
        self.page_size = page_size
        self.capacity_pages = max(0, capacity_bytes // page_size)
        # OrderedDict: O(1) LRU eviction via popitem(last=False) even after
        # heavy churn (a plain dict degrades: deletion tombstones make
        # next(iter()) linear).
        self._pages: "OrderedDict[Tuple[int, int], bool]" = OrderedDict()
        self.stats = StatsSet()

    # -- capacity ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def resident_bytes(self) -> int:
        return len(self._pages) * self.page_size

    def _page_range(self, offset: int, nbytes: int) -> range:
        first = offset // self.page_size
        last = (offset + nbytes - 1) // self.page_size
        return range(first, last + 1)

    # -- operations ----------------------------------------------------------

    def access(self, file_id: int, offset: int, nbytes: int) -> List[Tuple[int, int]]:
        """Look up a byte range; returns the missing ranges to read.

        Resident pages are promoted to MRU.  The returned list contains
        ``(offset, nbytes)`` holes (coalesced) that must be fetched from the
        device; the caller is expected to :meth:`fill` them afterwards.
        """
        if nbytes <= 0:
            raise FileSystemError(f"access size must be positive: {nbytes}")
        pages = self._pages
        first = offset // self.page_size
        last = (offset + nbytes - 1) // self.page_size
        if first == last:
            # Single-page fast path: most WAL appends and small block reads.
            key = (file_id, first)
            if key in pages:
                pages.move_to_end(key)
                self.stats.inc("page_hits", 1)
                return []
            self.stats.inc("page_misses", 1)
            return [(first * self.page_size, self.page_size)]
        missing_pages: List[int] = []
        hits = 0
        for page in range(first, last + 1):
            key = (file_id, page)
            if key in pages:
                pages.move_to_end(key)  # promote to MRU
                hits += 1
            else:
                missing_pages.append(page)
        if hits:
            self.stats.inc("page_hits", hits)
        if missing_pages:
            self.stats.inc("page_misses", len(missing_pages))
        return self._coalesce(missing_pages)

    def read_through(self, file_id: int, offset: int, nbytes: int) -> List[Tuple[int, int]]:
        """:meth:`access` + :meth:`fill` of the misses in one page scan.

        Returns the coalesced holes that must be fetched from the device,
        with the missing pages already inserted as resident — exactly the
        state (LRU order, eviction sequence, tickers) of an ``access``
        followed by one ``fill`` per hole, at half the page-walk cost.
        """
        if nbytes <= 0:
            raise FileSystemError(f"access size must be positive: {nbytes}")
        pages = self._pages
        first = offset // self.page_size
        last = (offset + nbytes - 1) // self.page_size
        if first == last:
            # Single-page fast path: most small block reads.
            key = (file_id, first)
            if key in pages:
                pages.move_to_end(key)
                self.stats.inc("page_hits", 1)
                return []
            self.stats.inc("page_misses", 1)
            pages[key] = True
            if len(pages) > self.capacity_pages:
                self._evict_excess()
            return [(first * self.page_size, self.page_size)]
        # Hits are promoted before any miss is inserted (matching access()
        # followed by fill()): interleaving would reorder the LRU list and
        # change which pages later evictions pick.
        missing_pages: List[int] = []
        hits = 0
        for page in range(first, last + 1):
            key = (file_id, page)
            if key in pages:
                pages.move_to_end(key)  # promote to MRU
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
        """Insert a byte range as resident (after a device read or a write)."""
        if nbytes <= 0:
            return
        pages = self._pages
        first = offset // self.page_size
        last = (offset + nbytes - 1) // self.page_size
        if first == last:
            # Single-page fast path: nothing was inserted on a hit, so the
            # eviction sweep (a no-op then) is skipped entirely.
            key = (file_id, first)
            if key in pages:
                pages.move_to_end(key)
                return
            pages[key] = True
            if len(pages) > self.capacity_pages:
                self._evict_excess()
            return
        for page in range(first, last + 1):
            key = (file_id, page)
            if key in pages:
                pages.move_to_end(key)
            else:
                pages[key] = True
        self._evict_excess()

    def contains(self, file_id: int, offset: int, nbytes: int) -> bool:
        """True if the whole byte range is resident (no LRU promotion)."""
        pages = self._pages
        return all(
            (file_id, page) in pages for page in self._page_range(offset, nbytes)
        )

    def invalidate_file(self, file_id: int, nbytes: int) -> None:
        """Drop every page of a deleted file whose pages all lie in its first
        ``nbytes`` (its allocated span): the probes are per page of the file,
        not per page of the cache."""
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

    # -- reporting -----------------------------------------------------------

    def hit_rate(self) -> float:
        hits = self.stats.get("page_hits")
        misses = self.stats.get("page_misses")
        total = hits + misses
        return hits / total if total else 0.0
