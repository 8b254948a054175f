"""Extent-based simulated filesystem (the testbed's Ext4 stand-in).

The filesystem models exactly what an LSM store needs from Ext4:

* append-only writes buffered in the page cache (``append``), written back to
  the device either on explicit ``sync`` (fsync) or asynchronously when the
  dirty watermark is crossed (OS writeback);
* random and sequential reads served from the page cache when resident;
* whole-file deletes that free extents and TRIM the device.

Data *content* is not serialized: each :class:`SimFile` exposes ``payload``
(an opaque object attached by its owner, e.g. an SST's in-memory index) and a
``records`` list with per-record durability flags, which is what WAL recovery
needs.  The filesystem models sizes, offsets and timing only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import (
    FileExistsInFS,
    FileNotFoundInFS,
    FileSystemError,
    IOFaultError,
    OutOfSpaceError,
    StaleFileError,
)
from repro.sim.engine import Engine, Event
from repro.sim.stats import StatsSet
from repro.sim.units import MB
from repro.storage.device import StorageDevice

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector

EXTENT_BYTES = 1 * MB
#: OS writeback: a file's dirty span this large starts an asynchronous
#: device write, and un-synced bytes past the dirty limit make ``write()``
#: block on it.  ``SimFileSystem.create`` can override both per file.
WRITEBACK_BYTES = 256 * 1024
DIRTY_LIMIT_BYTES = 1 * MB


class TornRecord:
    """The partially durable tail record a crash can leave behind.

    When power is lost while a record's bytes are only partly written back
    (the durable watermark falls *inside* the record), the surviving prefix
    is garbage to any reader: replay must detect it — via a checksum — and
    truncate the log there.  ``original`` is the logical record the torn
    bytes belonged to; ``durable_bytes`` is how much of it survived.
    """

    __slots__ = ("original", "durable_bytes")

    def __init__(self, original: Any, durable_bytes: int) -> None:
        self.original = original
        self.durable_bytes = durable_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TornRecord {self.durable_bytes}B of {self.original!r}>"


class SimFile:
    """An open file on the simulated filesystem."""

    def __init__(
        self,
        fs: "SimFileSystem",
        path: str,
        file_id: int,
        writeback_bytes: Optional[int] = None,
        dirty_limit_bytes: Optional[int] = None,
    ) -> None:
        self.fs = fs
        self.path = path
        self.file_id = file_id
        # OS writeback thresholds, overridable per file (the WAL uses
        # WAL_BYTES_PER_SYNC here).
        self.writeback_bytes = (
            WRITEBACK_BYTES if writeback_bytes is None else writeback_bytes
        )
        self.dirty_limit_bytes = (
            DIRTY_LIMIT_BYTES if dirty_limit_bytes is None else dirty_limit_bytes
        )
        self.size = 0
        self.synced_size = 0  # durable watermark
        self._flushed_size = 0  # bytes handed to the device (maybe in flight)
        self.extents: List[int] = []  # physical offset of each extent
        self.deleted = False
        self.closed = False
        # Opaque owner state (e.g. parsed SST); survives "crash" only if the
        # owner re-derives it from synced records/content.
        self.payload: Any = None
        # (nbytes, record) appended entries, for WAL-style replay.
        self.records: List[Tuple[int, Any]] = []
        # Byte ranges the device mangled (fault injection); empty on the
        # happy path so readers only pay a truthiness check.
        self.corrupt_ranges: List[Tuple[int, int]] = []
        # Deferred writeback failure, surfaced at the next fsync (the
        # kernel's EIO-on-fsync semantics).  Set only under fault injection.
        self.pending_io_error: Optional[BaseException] = None
        self._pending_flushes: List[Event] = []

    # -- writes ---------------------------------------------------------------

    def append(self, nbytes: int, record: Any = None) -> Optional[Event]:
        """Buffered append (a ``write()`` syscall into the page cache).

        Returns ``None`` on the common path.  When the file's dirty span
        exceeds the writeback threshold, an asynchronous device write is
        started and — if the amount of un-written dirty data exceeds the
        dirty limit — the returned event models write() blocking on
        writeback backpressure; the caller must yield it.

        The filesystem's fault injector, if any, sees every applied append
        last, after any writeback it started, whichever way it returns.
        """
        if self.deleted or self.closed:
            self._check_alive()
        if nbytes <= 0:
            raise FileSystemError(f"append size must be positive: {nbytes}")
        fs = self.fs
        offset = self.size
        # Allocate extents (and hit any quota) *before* mutating the file,
        # so a failed append (ENOSPC) leaves size/records untouched.
        if offset + nbytes > len(self.extents) * EXTENT_BYTES:
            fs._ensure_extents(self, offset + nbytes)
        self.size = offset + nbytes
        if record is not None:
            self.records.append((nbytes, record))
        fs.page_cache.fill(self.file_id, offset, nbytes)
        fs._tickers["bytes_appended"] += nbytes

        stall = None
        if self.size - self._flushed_size >= self.writeback_bytes:
            ev = self._start_flush()
            if self.size - self.synced_size >= self.dirty_limit_bytes:
                fs.stats.inc("writeback_stalls")
                stall = ev
        if fs.injector is not None:
            fs.injector.on_append(self, offset, nbytes)
        return stall

    def append_synced(self, nbytes: int, record: Any = None) -> None:
        """Append ``nbytes`` that are already durable (fixtures), with no
        simulated I/O and no page-cache fill.  The file must hold no
        unsynced data: the durable watermark moves to the new end."""
        self.fs._ensure_extents(self, self.size + nbytes)
        self.size += nbytes
        if record is not None:
            self.records.append((nbytes, record))
        self.synced_size = self._flushed_size = self.size

    def _start_flush(self) -> Optional[Event]:
        """Kick off device writes for the dirty range; returns the last event.

        A device write fault is *deferred*: writeback is asynchronous, so the
        error is remembered and surfaced at the next :meth:`sync` (the
        kernel's EIO-on-fsync semantics).  The durable watermark does not
        advance past the failed range; a later flush retries it.
        """
        if self._flushed_size >= self.size:
            return self._pending_flushes[-1] if self._pending_flushes else None
        fs = self.fs
        offset, nbytes = self._flushed_size, self.size - self._flushed_size
        extent_idx, within = divmod(offset, EXTENT_BYTES)
        extents = self.extents
        ev = None
        try:
            if within + nbytes <= EXTENT_BYTES and extent_idx < len(extents):
                # A dirty range inside one extent (the common writeback): map
                # it inline, as read() maps a single hole.
                ev = fs.device.write(extents[extent_idx] + within, nbytes, sequential=True)
                self._pending_flushes.append(ev)
            else:
                for phys, run_len in fs._physical_runs(self, offset, nbytes):
                    ev = fs.device.write(phys, run_len, sequential=True)
                    self._pending_flushes.append(ev)
        except IOFaultError as exc:
            self.pending_io_error = exc
            fs.stats.inc("writeback_errors")
            return ev
        flushed_to = self.size
        epoch = fs.epoch

        def _mark(_ev: Event, size: int = flushed_to, f: "SimFile" = self) -> None:
            # A completion issued before a node-local power failure must not
            # resurrect bytes the failure already discarded: the filesystem
            # epoch is bumped on power_fail(), so stale completions no-op.
            if f.fs.epoch == epoch and size > f.synced_size:
                f.synced_size = size

        if ev is not None:
            ev.callbacks.append(_mark)
        self._flushed_size = self.size
        return ev

    def sync(self):
        """Generator: fsync — flush dirty bytes and wait for durability.

        Raises the deferred :class:`IOFaultError` of a failed asynchronous
        writeback (clearing it, so a retry can succeed once the fault
        passes — callers own the retry policy).
        """
        if self.deleted or self.closed:
            self._check_alive()
        fs = self.fs
        epoch = fs.epoch
        self._start_flush()
        pending = [ev for ev in self._pending_flushes if not ev.triggered]
        self._pending_flushes = pending
        if pending:
            # One pending write (the common fsync) is waited on directly.
            yield pending[0] if len(pending) == 1 else fs.engine.all_of(pending)
        if fs.epoch != epoch:
            # The filesystem power-failed while this fsync was in flight
            # (node-local crash with the engine still running): the dirty
            # bytes are gone and must not be marked durable.
            fs._tickers["fsync_errors"] += 1
            raise IOFaultError(
                f"power failure during fsync of {self.path}",
                op="fsync",
                transient=False,
            )
        if self.pending_io_error is not None:
            fs._tickers["fsync_errors"] += 1
            # Raised straight from the attribute: a local naming it would
            # make the traceback, this frame and the error a cycle.
            try:
                raise self.pending_io_error
            finally:
                self.pending_io_error = None
        if self.size > self.synced_size:
            self.synced_size = self.size
        fs._tickers["fsyncs"] += 1
        return None

    # -- reads ----------------------------------------------------------------

    def read(self, offset: int, nbytes: int, sequential: bool = False) -> Optional[Event]:
        """Read a byte range; returns a wait event on page-cache miss.

        Returns ``None`` when fully cached (no simulated time passes), else
        an event firing when the device read(s) complete.  The pages are
        inserted into the cache.
        """
        if self.deleted or self.closed:
            self._check_alive()
        if offset < 0 or offset + nbytes > self.size:
            raise FileSystemError(
                f"read [{offset}, {offset + nbytes}) beyond EOF {self.size} in {self.path}"
            )
        fs = self.fs
        # read_through = access + fill of the misses in one page walk; the
        # missing pages are already resident when it returns.
        holes = fs.page_cache.read_through(self.file_id, offset, nbytes)
        tickers = fs._tickers
        if not holes:
            tickers["cached_reads"] += 1
            return None
        tickers["device_reads"] += 1
        if len(holes) == 1:
            # Single hole within one extent (the common small-block read):
            # map it inline instead of spinning up the _physical_runs
            # generator for one run.
            hole_off, hole_len = holes[0]
            extent_idx, within = divmod(hole_off, EXTENT_BYTES)
            extents = self.extents
            if within + hole_len <= EXTENT_BYTES and extent_idx < len(extents):
                return fs.device.read(
                    extents[extent_idx] + within, hole_len, sequential=sequential
                )
            events = [
                fs.device.read(phys, run_len, sequential=sequential)
                for phys, run_len in fs._physical_runs(self, hole_off, hole_len)
            ]
        else:
            events = []
            for hole_off, hole_len in holes:
                for phys, run_len in fs._physical_runs(self, hole_off, hole_len):
                    events.append(
                        fs.device.read(phys, run_len, sequential=sequential)
                    )
        if len(events) == 1:
            return events[0]
        return fs.engine.all_of(events)

    # -- lifecycle & integrity -------------------------------------------------

    def close(self) -> None:
        """Drop the handle: further reads/appends raise :class:`StaleFileError`.

        Closing is idempotent and purely a handle-state change — buffered
        dirty bytes stay in the page cache and are written back (or lost at
        crash) exactly as if the handle were still open.
        """
        self.closed = True

    def mark_corrupt(self, offset: int, nbytes: int) -> None:
        """Record that the device mangled [offset, offset+nbytes) (faults)."""
        if nbytes > 0:
            self.corrupt_ranges.append((offset, nbytes))

    def is_corrupt(self, offset: int, nbytes: int) -> bool:
        """True when the byte range overlaps a mangled range."""
        for lo, ln in self.corrupt_ranges:
            if offset < lo + ln and lo < offset + nbytes:
                return True
        return False

    # -- internals ------------------------------------------------------------

    def _check_alive(self) -> None:
        if self.deleted:
            raise StaleFileError(self.path, "deleted")
        if self.closed:
            raise StaleFileError(self.path, "closed")


class SimFileSystem:
    """A mounted filesystem on one device, with a shared page cache."""

    def __init__(
        self,
        engine: Engine,
        device: StorageDevice,
        page_cache,
        injector: Optional["FaultInjector"] = None,
    ) -> None:
        from repro.fs.page_cache import PageCache  # local import to avoid cycle

        if not isinstance(page_cache, PageCache):
            raise FileSystemError("page_cache must be a PageCache instance")
        self.engine = engine
        self.device = device
        self.page_cache = page_cache
        #: A :class:`~repro.faults.injector.FaultInjector` that sees every
        #: append (torn tails, corrupt media, broken SST checksums), or None.
        self.injector = injector
        self.stats = StatsSet()
        self._tickers = self.stats.counters()  # counted inline by SimFile
        # Incremented on every power failure.  In-flight writeback
        # completions and suspended fsyncs capture the epoch they started
        # under and refuse to act once it changes — required for node-local
        # crashes in cluster runs, where the engine keeps running while one
        # node's filesystem loses power.
        self.epoch = 0
        self._files: Dict[str, SimFile] = {}
        self._next_file_id = 1
        self._next_extent = 0
        self._free_extents: List[int] = []
        self._extent_count = device.profile.capacity_bytes // EXTENT_BYTES
        self._used_extents = 0
        # Optional byte quota (the mounted partition being smaller than the
        # device), set by :meth:`set_quota`.  ``None`` = unlimited;
        # allocation then only hits the device capacity limit.
        self.quota_bytes: Optional[int] = None

    # -- capacity ---------------------------------------------------------------

    def set_quota(self, quota_bytes: Optional[int]) -> None:
        """Set or clear (``None``) the byte quota.

        Shrinking the quota below current usage does not fail existing
        files — it makes the next allocation raise
        :class:`~repro.errors.OutOfSpaceError`, like filling a real disk.
        """
        if quota_bytes is not None and quota_bytes < 0:
            raise FileSystemError(f"quota_bytes must be >= 0: {quota_bytes}")
        self.quota_bytes = quota_bytes

    def capacity_bytes(self) -> int:
        """Usable capacity: the quota if set, else the device size."""
        device_bytes = self._extent_count * EXTENT_BYTES
        if self.quota_bytes is None:
            return device_bytes
        return min(self.quota_bytes, device_bytes)

    def used_bytes(self) -> int:
        """Bytes consumed by allocated extents (allocation granularity)."""
        return self._used_extents * EXTENT_BYTES

    def free_bytes(self) -> int:
        """Bytes still allocatable before ENOSPC."""
        return max(0, self.capacity_bytes() - self.used_bytes())

    # -- namespace -------------------------------------------------------------

    def create(
        self,
        path: str,
        writeback_bytes: Optional[int] = None,
        dirty_limit_bytes: Optional[int] = None,
    ) -> SimFile:
        """Create a new empty file (fails if it exists).

        With a quota configured and no free space left, creation raises
        :class:`~repro.errors.OutOfSpaceError` (ENOSPC on ``open(O_CREAT)``).
        """
        if path in self._files:
            raise FileExistsInFS(path)
        if self.quota_bytes is not None and self.free_bytes() <= 0:
            self.stats.inc("quota_enospc")
            raise OutOfSpaceError(
                f"cannot create {path}: quota exhausted "
                f"({self.used_bytes()}/{self.capacity_bytes()} bytes used)",
                path=path,
            )
        f = SimFile(
            self,
            path,
            self._next_file_id,
            writeback_bytes=writeback_bytes,
            dirty_limit_bytes=dirty_limit_bytes,
        )
        self._next_file_id += 1
        self._files[path] = f
        self.stats.inc("files_created")
        return f

    def open(self, path: str) -> SimFile:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundInFS(path) from None

    def exists(self, path: str) -> bool:
        return path in self._files

    def list(self, prefix: str = "") -> List[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    def delete(self, path: str) -> None:
        """Unlink a file: free extents, drop cached pages, TRIM the device."""
        f = self._files.pop(path, None)
        if f is None:
            raise FileNotFoundInFS(path)
        f.deleted = True
        self.page_cache.invalidate_file(f.file_id, len(f.extents) * EXTENT_BYTES)
        for phys in f.extents:
            self._free_extents.append(phys)
            self._used_extents -= 1
            self.device.trim(phys, EXTENT_BYTES)
        f.extents.clear()
        self.stats.inc("files_deleted")

    def install_synced(self, path: str, nbytes: int) -> SimFile:
        """Create a file that already durably holds ``nbytes`` (fixtures).

        Used by experiment pre-population to stand up a large existing
        database instantly: extents are allocated and the durable watermark
        set without any simulated I/O and without warming the page cache
        (the dataset starts cold, as after a reboot).
        """
        f = self.create(path)
        self._ensure_extents(f, nbytes)
        f.size = nbytes
        f.synced_size = nbytes
        f._flushed_size = nbytes
        return f

    # -- crash simulation --------------------------------------------------------

    def crash(self) -> None:
        """Simulate whole-machine power loss: un-synced data vanishes.

        All in-flight simulated work dies with the machine (the engine's
        pending occurrences are cancelled), then the filesystem state is
        rolled back to its durable watermarks via :meth:`power_fail`.
        """
        self.engine.clear_pending()
        self.power_fail()

    def power_fail(self) -> None:
        """Roll this filesystem back to its durable watermarks.

        Every file is truncated to its durable watermark and its cached pages
        dropped; owners must rebuild state from ``records`` that fall below
        the watermark.  When the watermark lands *inside* a record (a torn
        write — only possible under fault injection, since normal writeback
        advances the watermark at record granularity) the partial tail is
        kept as a :class:`TornRecord`, which checksum-verifying replay must
        detect and truncate.

        Unlike :meth:`crash`, the engine is *not* cleared: cluster runs
        power-fail one node while the rest of the machine keeps simulating.
        The epoch bump makes any still-scheduled writeback completion or
        suspended fsync for this filesystem a no-op / typed failure.
        """
        self.epoch += 1
        for f in self._files.values():
            f.size = f.synced_size
            f._flushed_size = min(f._flushed_size, f.size)
            f._pending_flushes.clear()
            f.pending_io_error = None
            kept: List[Tuple[int, Any]] = []
            durable = 0
            for nbytes, record in f.records:
                if durable + nbytes <= f.synced_size:
                    kept.append((nbytes, record))
                    durable += nbytes
                else:
                    torn = f.synced_size - durable
                    if torn > 0:
                        kept.append((torn, TornRecord(record, torn)))
                        self.stats.inc("torn_records")
                    break
            f.records = kept
            self.page_cache.invalidate_file(f.file_id, len(f.extents) * EXTENT_BYTES)
        self.stats.inc("crashes")

    # -- allocation ---------------------------------------------------------------

    def _ensure_extents(self, f: SimFile, size: Optional[int] = None) -> None:
        size = f.size if size is None else size
        needed = (size + EXTENT_BYTES - 1) // EXTENT_BYTES
        grow = needed - len(f.extents)
        if grow <= 0:
            return
        # Check the whole shortfall before allocating anything: a failed
        # growth must not consume quota or strand half of its extents.
        if (
            self.quota_bytes is not None
            and (self._used_extents + grow) * EXTENT_BYTES > self.quota_bytes
        ):
            self.stats.inc("quota_enospc")
            raise OutOfSpaceError(
                f"quota exhausted growing {f.path}: "
                f"{self.used_bytes()} used of {self.quota_bytes} allowed, "
                f"{grow * EXTENT_BYTES} more needed",
                path=f.path,
                needed_bytes=grow * EXTENT_BYTES,
                free_bytes=self.free_bytes(),
            )
        available = len(self._free_extents) + (self._extent_count - self._next_extent)
        if grow > available:
            raise OutOfSpaceError(
                f"device {self.device.profile.name} is full "
                f"({self._extent_count} extents)",
                path=f.path,
                needed_bytes=grow * EXTENT_BYTES,
            )
        for _ in range(grow):
            if self._free_extents:
                phys = self._free_extents.pop()
            else:
                phys = self._next_extent * EXTENT_BYTES
                self._next_extent += 1
            f.extents.append(phys)
            self._used_extents += 1

    def _physical_runs(self, f: SimFile, offset: int, nbytes: int):
        """Map a logical byte range to (physical_offset, nbytes) runs."""
        remaining = nbytes
        pos = offset
        while remaining > 0:
            extent_idx = pos // EXTENT_BYTES
            within = pos % EXTENT_BYTES
            run = min(remaining, EXTENT_BYTES - within)
            if extent_idx >= len(f.extents):
                raise FileSystemError(
                    f"range [{offset}, {offset + nbytes}) not allocated in {f.path}"
                )
            yield f.extents[extent_idx] + within, run
            pos += run
            remaining -= run
