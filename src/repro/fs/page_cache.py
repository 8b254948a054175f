"""OS page cache model (exact LRU over 4 KB pages, kept by runs).

The paper's testbed boots with 8 GB of RAM against a 100 GB dataset, so the
OS buffer cache absorbs roughly 8 % of reads.  The model tracks *which* pages
are resident — actual data bytes live in the structures of the upper layers —
and answers the only question the I/O path needs: which fraction of a read
must touch the device.

Representation (DESIGN.md §4).  Every time a page becomes most recently used
it takes the next *stamp* from one counter that only grows.  The LRU list is
a log of runs in stamp order, oldest first: a run is ``count`` pages of one
file, ``first_page`` onwards, stamped consecutively, and the runs together
cover every stamp from the head's to the last one issued.  Each file owns an
``array('q')`` holding, for every resident page, its *mark*
``2 * (stamp - page) + 1`` (odd, so 0 is free to mean "not resident").  All
pages of a run therefore hold one value, the run's mark, and page
``first_page + i`` is still live in its run iff it holds that mark; a page
that was promoted, evicted or invalidated since simply no longer matches, so
those operations never touch the log.  Because stamps are unique, the oldest
live entry of the log is exactly the page a per-page LRU list would evict.  A
span of one file costs one slice read, one slice store of a repeated value
and at most one run in the log.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Tuple

from repro.errors import FileSystemError
from repro.sim.stats import StatsSet

PAGE_SIZE = 4096

# A run's file and first page travel as one int, ``file_id << 32 | page``, so
# that a page-contiguous successor's key is the run's key plus its count.
_PAGE_BITS = 32
_PAGE_MASK = (1 << _PAGE_BITS) - 1
# Runs the log may hold beyond twice the resident page count before its stale
# runs are dropped (see _trim).
_LOG_SLACK = 4096


def _zeros(n: int) -> "array[int]":
    return array("q", bytes(8 * n))


class PageCache:
    """LRU page cache shared by all files of one simulated machine."""

    def __init__(self, capacity_bytes: int, page_size: int = PAGE_SIZE) -> None:
        if page_size <= 0:
            raise FileSystemError(f"page size must be positive: {page_size}")
        self.page_size = page_size
        self.capacity_pages = max(0, capacity_bytes // page_size)
        self._marks: Dict[int, "array[int]"] = {}  # file id -> per-page mark
        self._resident = 0
        self._next = 1  # the next stamp
        # The log of runs, oldest first, from index _head on: the run's
        # ``file_id << 32 | first_page`` and its page count.  Its first stamp
        # is _head_stamp plus the counts of the runs before it.
        self._log_key = array("q")
        self._log_len = array("q")
        self._head = 0
        self._head_stamp = 1
        self._tail_end = -1  # key one past the last run's last page
        self._log_cap = _LOG_SLACK
        self.stats = StatsSet()
        self._tickers = self.stats.counters()

    # -- capacity ------------------------------------------------------------

    def __len__(self) -> int:
        return self._resident

    # -- operations ----------------------------------------------------------

    def read_through(self, file_id: int, offset: int, nbytes: int) -> List[Tuple[int, int]]:
        """Look up a byte range and insert its missing pages as resident.

        Resident pages are promoted to MRU first, in page order; the missing
        pages are then inserted after them, in page order, and the LRU pages
        beyond capacity are evicted.  Returns the coalesced ``(offset,
        nbytes)`` holes that must be fetched from the device.
        """
        if nbytes <= 0:
            raise FileSystemError(f"access size must be positive: {nbytes}")
        page_size = self.page_size
        first = offset // page_size
        last = (offset + nbytes - 1) // page_size
        arr = self._marks.get(file_id)
        if arr is None or last >= len(arr):
            arr = self._grow(file_id, last)
        if last - first < 2:
            # One or two pages (most small block reads): scalar reads, and
            # the common cases stamp their one run with _stamp's body inline,
            # a call per block read being a measurable share of a get.
            stamp = self._next
            mark = 2 * (stamp - first) + 1
            hit = arr[first]
            if first == last:
                count, missing = 1, 0 if hit else 1
            else:
                count, missing = 2, (not hit) + (not arr[last])
            tickers = self._tickers
            if missing < count:
                tickers["page_hits"] += count - missing
            if missing:
                tickers["page_misses"] += missing
            if hit == mark - 2:  # the first page is already the MRU page
                if count == 1:
                    return []
                self._stamp(arr, file_id, last, 1)
            elif count - missing == 1 and not hit:
                # A miss before a hit: the hit is promoted first.
                self._stamp(arr, file_id, last, 1)
                self._stamp(arr, file_id, first, 1)
            else:
                arr[first] = arr[last] = mark
                self._next = stamp + count
                key = file_id << _PAGE_BITS | first
                if key == self._tail_end:
                    self._log_len[-1] += count
                else:
                    self._log_key.append(key)
                    self._log_len.append(count)
                    if len(self._log_key) > self._log_cap:
                        self._trim()
                self._tail_end = key + count
            if not missing:
                return []
            self._resident += missing
            if self._resident > self.capacity_pages:
                self._evict()
            if hit:
                return [(last * page_size, page_size)]
            return [(first * page_size, missing * page_size)]
        span = arr[first : last + 1]
        count = len(span)
        missing = span.count(0)
        if missing < count:
            self.stats.inc("page_hits", count - missing)
        if not missing:
            self._stamp(arr, file_id, first, count)
            return []
        self.stats.inc("page_misses", missing)
        if missing == count:
            self._stamp(arr, file_id, first, count)
            holes = [(first * page_size, count * page_size)]
        else:
            # Hits are promoted before any miss is inserted: interleaving
            # would reorder the LRU list and change later evictions.
            hits: List[Tuple[int, int]] = []
            misses: List[Tuple[int, int]] = []
            start = 0
            for i in range(1, count + 1):
                if i == count or (span[i] == 0) != (span[start] == 0):
                    (misses if span[start] == 0 else hits).append((first + start, i - start))
                    start = i
            for page, n in hits:
                self._stamp(arr, file_id, page, n)
            for page, n in misses:
                self._stamp(arr, file_id, page, n)
            holes = [(page * page_size, n * page_size) for page, n in misses]
        self._resident += missing
        if self._resident > self.capacity_pages:
            self._evict()
        return holes

    def fill(self, file_id: int, offset: int, nbytes: int) -> None:
        """Insert a byte range as resident (after a device read or a write).

        Every page of the range becomes MRU in page order, whether it was
        resident or not."""
        if nbytes <= 0:
            return
        first = offset // self.page_size
        last = (offset + nbytes - 1) // self.page_size
        arr = self._marks.get(file_id)
        if arr is None or last >= len(arr):
            arr = self._grow(file_id, last)
        if last - first < 2:
            hit = arr[first]
            if hit == 2 * (self._next - 1 - first) + 1:
                # Already the MRU page (a WAL append refilling its tail
                # page): it keeps its stamp.
                if first == last:
                    return
                first = last
                missing = not arr[last]
            else:
                missing = (not hit) + (first != last and not arr[last])
        else:
            missing = arr[first : last + 1].count(0)
        self._stamp(arr, file_id, first, last - first + 1)
        if missing:
            self._resident += missing
            if self._resident > self.capacity_pages:
                self._evict()

    def contains(self, file_id: int, offset: int, nbytes: int) -> bool:
        """True if the whole byte range is resident (no LRU promotion)."""
        first = offset // self.page_size
        last = (offset + nbytes - 1) // self.page_size
        if last < first:
            return True
        arr = self._marks.get(file_id)
        return arr is not None and last < len(arr) and not arr[first : last + 1].count(0)

    def resident(self) -> List[Tuple[int, int]]:
        """Every resident ``(file_id, page)``, least recently used first."""
        return [
            (file_id, page)
            for file_id, first, count in self._live_runs()
            for page in range(first, first + count)
        ]

    def invalidate_file(self, file_id: int, nbytes: int) -> None:
        """Drop every page of a deleted file whose pages all lie in its first
        ``nbytes`` (its allocated span): one slice of the file's marks, not
        a walk of the cache."""
        arr = self._marks.get(file_id)
        dropped = 0
        if arr is not None:
            npages = -(-nbytes // self.page_size)
            if npages >= len(arr):
                dropped = len(arr) - arr.count(0)
                del self._marks[file_id]
            else:
                dropped = npages - arr[:npages].count(0)
                if dropped:
                    arr[:npages] = _zeros(npages)
            self._resident -= dropped
        self.stats.inc("pages_invalidated", dropped)

    # -- internals -----------------------------------------------------------

    def _grow(self, file_id: int, last: int) -> "array[int]":
        """The mark array of ``file_id``, long enough to hold page ``last``."""
        arr = self._marks.get(file_id)
        if arr is None:
            arr = self._marks[file_id] = _zeros(last + 1)
        else:
            # An eighth of slack: a file appended page by page (a WAL)
            # regrows its array O(log size) times, not once per page.
            size = max(last + 1, len(arr) + (len(arr) >> 3))
            arr.frombytes(bytes(8 * (size - len(arr))))
        return arr

    def _stamp(self, arr: "array[int]", file_id: int, page: int, count: int) -> None:
        """Make ``count`` pages from ``page`` on MRU, in page order."""
        stamp = self._next
        mark = 2 * (stamp - page) + 1
        if arr[page] == mark - 2:
            # Already the MRU page (a WAL tail append refilling its last
            # page): it keeps its stamp, so the run extends the last one.
            page += 1
            count -= 1
            mark -= 2
            if not count:
                return
        if count == 1:
            arr[page] = mark
        elif count == 2:
            arr[page] = arr[page + 1] = mark
        else:
            arr[page : page + count] = array("q", [mark]) * count
        self._next = stamp + count
        key = file_id << _PAGE_BITS | page
        if key == self._tail_end:
            self._log_len[-1] += count
        else:
            self._log_key.append(key)
            self._log_len.append(count)
            if len(self._log_key) > self._log_cap:
                self._trim()
        self._tail_end = key + count

    def _evict(self) -> None:
        """Drop LRU pages until the cache is back at capacity.

        Walks the log from its head, as far as needed: a stale run (its file
        gone) is dropped whole, a one- or two-page run is checked page by
        page, one or two pages come off a long run's live head one at a time,
        and otherwise :meth:`_evict_run` clears the run's live pages."""
        excess = self._resident - self.capacity_pages
        self._resident = self.capacity_pages
        self._tickers["pages_evicted"] += excess
        keys, lens, get = self._log_key, self._log_len, self._marks.get
        head, stamp = self._head, self._head_stamp
        while excess:
            key = keys[head]
            count = lens[head]
            arr = get(key >> _PAGE_BITS)
            if arr is not None:
                page = key & _PAGE_MASK
                mark = 2 * (stamp - page) + 1
                if count <= 2:
                    # A short run (a block read): scalar checks.  A stale run
                    # of a reused file id may lie past the end of its array.
                    try:
                        if arr[page] == mark:
                            arr[page] = 0
                            excess -= 1
                            if not excess and count == 2:
                                keys[head] = key + 1
                                lens[head] = 1
                                self._head, self._head_stamp = head, stamp + 1
                                return
                        if count == 2 and arr[page + 1] == mark:
                            arr[page + 1] = 0
                            excess -= 1
                    except IndexError:
                        pass
                elif excess <= 2 and page < len(arr) and arr[page] == mark:
                    # A page or two off a long run's live head: peel it off.
                    arr[page] = 0
                    excess -= 1
                    keys[head] = key + 1
                    lens[head] = count - 1
                    stamp += 1
                    continue
                else:
                    evicted, used = self._evict_run(arr, page, count, mark, excess)
                    excess -= evicted
                    if not excess and used < count:
                        keys[head] = key + used
                        lens[head] = count - used
                        self._head, self._head_stamp = head, stamp + used
                        return
            head += 1
            stamp += count
        if head == len(keys):
            del keys[:], lens[:]
            head = 0
            self._tail_end = -1
        self._head, self._head_stamp = head, stamp

    @staticmethod
    def _evict_run(
        arr: "array[int]", page: int, count: int, mark: int, excess: int
    ) -> Tuple[int, int]:
        """Clear up to ``excess`` live pages of one run, oldest first; returns
        the pages cleared and the slots of the run consumed."""
        k = min(count, excess)
        if k > 2 and arr[page : page + k] == array("q", [mark]) * k:
            arr[page : page + k] = _zeros(k)
            return k, k
        evicted = 0
        i, end = page, min(page + count, len(arr))
        while evicted < excess:
            try:
                i = arr.index(mark, i, end)
            except ValueError:
                return evicted, count
            arr[i] = 0
            evicted += 1
            i += 1
        return evicted, i - page

    def _trim(self) -> None:
        """Bound the log: cut off the evicted head, and when stale runs
        outnumber twice the resident pages, rebuild it from the live pages.

        The rebuild restamps the live pages from the counter in their LRU
        order (order is all that stamps encode) and merges page-contiguous
        neighbours, so the log ends with at most one run per resident page.
        Both costs are paid once per doubling of the log, so they add O(1)
        per run appended."""
        keys, lens = self._log_key, self._log_len
        if len(keys) - self._head > 2 * self._resident + _LOG_SLACK:
            live = list(self._live_runs())
            del keys[:], lens[:]
            stamp = self._head_stamp = self._next
            self._tail_end = -1
            for file_id, page, count in live:
                arr = self._marks[file_id]
                arr[page : page + count] = array("q", [2 * (stamp - page) + 1]) * count
                stamp += count
                key = file_id << _PAGE_BITS | page
                if key == self._tail_end:
                    lens[-1] += count
                else:
                    keys.append(key)
                    lens.append(count)
                self._tail_end = key + count
            self._next = stamp
        else:
            del keys[: self._head], lens[: self._head]
        self._head = 0
        self._log_cap = 2 * len(keys) + _LOG_SLACK

    def _live_runs(self) -> Iterator[Tuple[int, int, int]]:
        """``(file_id, first_page, count)`` of every maximal live stretch of
        the log's runs, oldest first."""
        stamp = self._head_stamp
        head = self._head
        for key, count in zip(self._log_key[head:], self._log_len[head:]):
            file_id, page = key >> _PAGE_BITS, key & _PAGE_MASK
            arr = self._marks.get(file_id)
            if arr is not None:
                mark = 2 * (stamp - page) + 1
                if arr[page : page + count] == array("q", [mark]) * count:
                    yield file_id, page, count
                else:
                    i, end = page, min(page + count, len(arr))
                    while True:
                        try:
                            i = arr.index(mark, i, end)
                        except ValueError:
                            break
                        j = i + 1
                        while j < end and arr[j] == mark:
                            j += 1
                        yield file_id, i, j - i
                        i = j
            stamp += count

    # -- reporting -----------------------------------------------------------

    def hit_rate(self) -> float:
        hits = self.stats.get("page_hits")
        misses = self.stats.get("page_misses")
        total = hits + misses
        return hits / total if total else 0.0
