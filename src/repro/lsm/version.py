"""Version management: levels, file metadata, manifest.

A :class:`Version` is an immutable snapshot of the level structure.  Reads
reference the version they started on; compactions install new versions via
:class:`VersionEdit`.  Files are reference-counted across versions and their
simulated storage is reclaimed only when no live version references them
and the MANIFEST record that dropped them is durable — the same lifetime
rules as RocksDB, which matter here because a GET may be suspended on a
device read while a compaction deletes the file it is reading, and a crash
recovers the durable MANIFEST's tables.

Level invariants (checked by :meth:`Version.check_invariants`):

* Level 0 files are ordered newest-first and may overlap;
* Levels >= 1 are sorted by smallest key with pairwise-disjoint key ranges.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import DBError, IOFaultError, OutOfSpaceError
from repro.fs.filesystem import SimFile, SimFileSystem
from repro.lsm.costs import DEFAULT_COSTS, CostModel
from repro.lsm.io_retry import retry_gen
from repro.lsm.options import NUM_LEVELS, Options
from repro.lsm.sst import SSTable
from repro.lsm.wal import recover_log
from repro.sim.stats import StatsSet


_smallest = attrgetter("smallest")
_file_bytes = attrgetter("file_bytes")


class FileMetadata:
    """A live SST file: table content + its simulated file + refcount."""

    __slots__ = (
        "number", "sst", "smallest", "largest", "file_bytes", "file", "level", "being_compacted",
        "refs", "search_ns",
    )

    def __init__(self, number: int, sst: SSTable, file: SimFile, level: int) -> None:
        self.number = number
        self.sst = sst
        self.smallest = sst.smallest
        self.largest = sst.largest
        self.file_bytes = sst.file_bytes
        self.file = file
        self.level = level
        self.being_compacted = False
        self.refs = 0
        # ``search_ns``, the CPU cost of one key search in this table, is
        # set by VersionSet.apply: it depends on the level and the DB's
        # cost model, and is fixed once the file is installed.

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<File #{self.number} L{self.level} {self.file_bytes}B>"


class VersionEdit:
    """A delta applied to the current version (added/removed files)."""

    def __init__(self) -> None:
        self.added: List[Tuple[int, FileMetadata]] = []  # (level, file)
        self.deleted: List[Tuple[int, int]] = []  # (level, file number)

    def add_file(self, level: int, meta: FileMetadata) -> "VersionEdit":
        self.added.append((level, meta))
        return self

    def delete_file(self, level: int, number: int) -> "VersionEdit":
        self.deleted.append((level, number))
        return self

    def encoded_bytes(self) -> int:
        """Approximate manifest record size for this edit."""
        return 16 + 48 * len(self.added) + 12 * len(self.deleted)


class Version:
    """Immutable snapshot of the LSM level structure."""

    def __init__(self) -> None:
        # Files per level: L0 newest first (the lookup order), deeper levels
        # by smallest key.
        self.levels: List[List[FileMetadata]] = [[] for _ in range(NUM_LEVELS)]
        # Parallel bisect keys for levels >= 1 (smallest key per file).
        self._level_keys: List[List[bytes]] = [[] for _ in range(NUM_LEVELS)]
        # Byte totals, computed once by _finalize() for the levels an edit
        # rebuilt (a Version is immutable after it; untouched levels keep the
        # old version's): per level, and over L0's i newest files at [i].
        self._level_bytes: List[int] = [0] * NUM_LEVELS
        self._l0_newest_bytes: List[int] = [0]
        self.refs = 0

    # -- construction ------------------------------------------------------------

    def _finalize(self, levels) -> None:
        """Order and total ``levels`` (the ones an edit rebuilt)."""
        for level in levels:
            files = self.levels[level]
            if level:
                files.sort(key=_smallest)
                self._level_keys[level] = list(map(_smallest, files))
            else:
                self._l0_newest_bytes = [0, *accumulate(map(_file_bytes, files))]
            self._level_bytes[level] = sum(map(_file_bytes, files))

    def check_invariants(self, levels=range(1, NUM_LEVELS)) -> None:
        """Raise DBError if the level structure is malformed (in ``levels``)."""
        for level in levels:
            files = self.levels[level]
            if level == 0:
                continue
            for a, b in zip(files, files[1:]):
                if a.largest >= b.smallest:
                    raise DBError(
                        f"L{level} files overlap: #{a.number} and #{b.number}"
                    )

    # -- queries -------------------------------------------------------------------

    def file_for_key(self, level: int, key: bytes) -> Optional[FileMetadata]:
        """The single file in level >= 1 whose range may contain ``key``."""
        keys = self._level_keys[level]
        idx = bisect_right(keys, key) - 1
        if idx < 0:
            return None
        meta = self.levels[level][idx]
        if meta.largest < key:
            return None
        return meta

    def overlapping_files(
        self, level: int, smallest: bytes, largest: bytes
    ) -> List[FileMetadata]:
        """Files in ``level`` whose ranges intersect [smallest, largest]."""
        files = self.levels[level]
        if level == 0:
            return [f for f in files if f.sst.overlaps(smallest, largest)]
        keys = self._level_keys[level]
        lo = bisect_left(keys, smallest)
        if lo > 0 and files[lo - 1].largest >= smallest:
            lo -= 1
        out = []
        for meta in files[lo:]:
            if meta.smallest > largest:
                break
            out.append(meta)
        return out

    def level_bytes(self, level: int) -> int:
        return self._level_bytes[level]

    def num_files(self, level: Optional[int] = None) -> int:
        if level is None:
            return sum(len(files) for files in self.levels)
        return len(self.levels[level])

    def all_files(self) -> List[FileMetadata]:
        return [f for files in self.levels for f in files]


class VersionSet:
    """Owns the current version, the manifest and file lifetimes.

    One rule decides when a table leaves the disk, RocksDB's: only once
    the MANIFEST record that dropped it is durable.  A table dies
    logically when its last version reference drops (it leaves
    ``_files``, ``on_file_dead`` runs), but its unlink waits in
    ``_unlink_queue`` while an edit that drops tables is applied and its
    :meth:`log_edit` has not ended, or while the manifest is dirty.  The
    queue drains where the MANIFEST becomes durable: the end of a
    successful :meth:`log_edit` with no other dropping edit pending, and
    :meth:`sync_manifest`.
    """

    def __init__(
        self,
        fs: SimFileSystem,
        options: Options,
        on_file_dead: Optional[Callable[[FileMetadata], None]] = None,
        costs: CostModel = DEFAULT_COSTS,
    ) -> None:
        """Open and replay ``fs``'s MANIFEST, or create an empty one.

        Only records below the manifest's synced watermark survive a
        simulated crash, so the recovered state is exactly the durable one.
        A torn or device-corrupted tail record (fault injection) truncates
        the manifest there, by the rule WAL recovery follows
        (:func:`~repro.lsm.wal.recover_log`): edits past the first bad
        record are dropped, never half-applied.
        """
        self.fs = fs
        self.options = options
        self.costs = costs
        self.stats = StatsSet()
        self._on_file_dead = on_file_dead
        self.next_file_number = 1
        self.last_sequence = 0
        self.current = Version()
        self.current.refs += 1
        self._files: Dict[int, FileMetadata] = {}
        # The manifest is *dirty* when an applied edit's record is appended
        # (or queued) but not yet durable; WAL release and unlinks wait.
        self.manifest_dirty = False
        # Edits applied in memory whose records could not even be appended
        # (manifest ENOSPC, or ordered behind such a record).  Re-appended
        # in order by sync_manifest().
        self._unlogged_edits: List[VersionEdit] = []
        # Applied edits that drop tables and whose log_edit has not ended.
        self._pending_drops = 0
        # Paths of dead tables whose dropping edit may not be durable yet.
        self._unlink_queue: List[str] = []
        if not fs.exists("MANIFEST"):
            self.manifest = fs.create("MANIFEST")
            return
        self.manifest = fs.open("MANIFEST")
        bad = recover_log(self.manifest, lambda rec: isinstance(rec, VersionEdit))
        for _nbytes, edit in self.manifest.records:
            for _level, meta in edit.added:
                meta.refs = 0
                meta.being_compacted = False
            self.apply(edit)
        if bad:
            self.stats.inc("manifest_truncated_records", bad)
        for meta in self.current.all_files():
            self.next_file_number = max(self.next_file_number, meta.number + 1)
            self.last_sequence = max(self.last_sequence, meta.sst.largest_seq)
        self._pending_drops = 0  # every replayed edit is durable
        self._unlink_dead()

    # -- numbering ---------------------------------------------------------------

    def new_file_number(self) -> int:
        num = self.next_file_number
        self.next_file_number += 1
        return num

    # -- version lifetime -----------------------------------------------------------

    def ref_current(self) -> Version:
        """Take a read reference on the current version."""
        v = self.current
        v.refs += 1
        return v

    def unref(self, version: Version) -> None:
        if version.refs <= 0:
            raise DBError("version unref below zero")
        if version is self.current and version.refs <= 1:
            raise DBError("unref would drop the VersionSet's own reference")
        version.refs -= 1
        if version.refs == 0 and version is not self.current:
            self._release_files(version)

    def _release_files(self, version: Version) -> None:
        for meta in version.all_files():
            meta.refs -= 1
            if meta.refs == 0:
                self._reclaim(meta)
        self._unlink_dead()

    def _reclaim(self, meta: FileMetadata) -> None:
        del self._files[meta.number]
        self._unlink_queue.append(meta.file.path)
        if self._on_file_dead is not None:
            self._on_file_dead(meta)
        self.stats.inc("files_reclaimed")

    def _unlink_dead(self) -> None:
        """Unlink the queued dead tables once every edit that dropped
        tables is durable: none is pending and the manifest is clean."""
        if self._pending_drops or self.manifest_dirty:
            return
        paths, self._unlink_queue = self._unlink_queue, []
        for path in paths:
            if self.fs.exists(path):
                self.fs.delete(path)

    # -- edits -------------------------------------------------------------------------

    def apply(self, edit: VersionEdit) -> Version:
        """Install ``edit`` on top of the current version.

        Returns the new current version.  The caller separately charges the
        manifest append I/O via :meth:`log_edit`; the tables the edit drops
        are unlinked only once that record is durable.  Only the levels the
        edit touches are rebuilt; every other level's files, bisect keys and
        byte total are the old version's (a version is never mutated once
        current).
        """
        old = self.current
        new = Version()
        deleted = set(edit.deleted)
        touched = sorted({level for level, _ in edit.deleted + edit.added})
        new.levels, new._level_keys = list(old.levels), list(old._level_keys)
        new._level_bytes, new._l0_newest_bytes = list(old._level_bytes), old._l0_newest_bytes
        removed: List[FileMetadata] = []  # in the old version's order
        for level in touched:
            kept = new.levels[level] = []
            for meta in old.levels[level]:
                (removed if (level, meta.number) in deleted else kept).append(meta)
        costs = self.costs
        for level, meta in edit.added:
            meta.level = level
            # L0 files are searched as skiplist-organized files, deeper ones
            # through their index: the cost is computed once, here.
            search = costs.sst_search if level == 0 else costs.sst_index_search
            meta.search_ns = search(meta.sst.entry_count)
            if meta.number in self._files and self._files[meta.number] is not meta:
                raise DBError(f"duplicate file number {meta.number}")
            self._files[meta.number] = meta
            if level == 0:
                # L0 is ordered newest-first: fresh flushes go to the front.
                new.levels[0].insert(0, meta)
            else:
                new.levels[level].append(meta)
        new._finalize(touched)
        new.check_invariants(touched)

        # Each version holds one ref on each of its files.  When the old
        # version dies here, a file in both keeps its count: only the edit's
        # files change hands, added ones first (a file may move levels).
        handed_over = old.refs == 1
        for meta in [meta for _, meta in edit.added] if handed_over else new.all_files():
            meta.refs += 1
        new.refs += 1  # the VersionSet's own reference
        if edit.deleted:
            self._pending_drops += 1  # until log_edit(edit) ends
        self.current = new
        old.refs -= 1
        if handed_over:
            for meta in removed:
                meta.refs -= 1
                if meta.refs == 0:
                    self._reclaim(meta)
        self.stats.inc("edits_applied")
        return new

    def log_edit(self, edit: VersionEdit):
        """Generator: append + fsync the manifest record for ``edit``.

        The edit object rides along as the record payload so recovery can
        replay the exact durable sequence of edits.  Transient device faults
        on the fsync are retried — losing a manifest sync would orphan the
        just-installed files.
        """
        try:
            if self._unlogged_edits:
                # An earlier edit is still waiting to reach the manifest;
                # appending this record now would put the durable edit
                # sequence out of order.  Queue it behind and surface the
                # degraded state (sync_manifest re-appends in order).
                self._unlogged_edits.append(edit)
                self.manifest_dirty = True
                exc = OutOfSpaceError(
                    "manifest has unlogged edits pending", path=self.manifest.path
                )
                exc.bg_source = "manifest"
                raise exc
            try:
                ev = self.manifest.append(edit.encoded_bytes(), record=edit)
            except OutOfSpaceError as exc:
                # The record never reached the manifest: queue the edit for
                # ordered re-append.  The tables it drops stay on disk while
                # the manifest is dirty, so a recovery from the durable
                # (pre-edit) manifest still finds every file it references.
                self._unlogged_edits.append(edit)
                self.manifest_dirty = True
                exc.bg_source = "manifest"
                raise
            if ev is not None:
                yield ev
            try:
                yield from retry_gen(
                    self.manifest.sync, self.stats, "manifest.io_retries"
                )
            except IOFaultError as exc:
                # The record is appended (it sits in the page cache) but
                # not durable: mark the manifest dirty so WAL release and
                # unlinks hold off until a later sync covers it.
                self.manifest_dirty = True
                exc.bg_source = "manifest"
                raise
        finally:
            if edit.deleted:
                self._pending_drops -= 1
        self._manifest_durable(self.manifest_dirty and not self._unlogged_edits)

    def sync_manifest(self):
        """Generator: heal manifest durability (the auto-resume probe).

        Re-appends queued edits in order, then fsyncs the manifest;
        success clears the dirty flag and unlinks the tables held back.
        Raises on the first failure — the caller backs off and retries.
        """
        while self._unlogged_edits:
            edit = self._unlogged_edits[0]
            ev = self.manifest.append(edit.encoded_bytes(), record=edit)
            self._unlogged_edits.pop(0)
            self.stats.inc("manifest.requeued_edits")
            if ev is not None:
                yield ev
        try:
            yield from self.manifest.sync()
        except IOFaultError as exc:
            exc.bg_source = "manifest"
            raise
        self._manifest_durable(True)

    def _manifest_durable(self, resynced: bool) -> None:
        """A manifest sync succeeded; ``resynced``: it cleared the dirty flag."""
        if resynced:
            self.manifest_dirty = False
            self.stats.inc("manifest.resynced")
        self._unlink_dead()

    # -- derived state -----------------------------------------------------------------

    def compaction_score(self, level: int) -> float:
        v = self.current
        if level == 0:
            return len(v.levels[0]) / self.options.level0_file_num_compaction_trigger
        target = self.options.max_bytes_for_level(level)
        return v.level_bytes(level) / target if target else 0.0

    def pending_compaction_bytes(self) -> int:
        """Bytes above target across levels (RocksDB's debt estimate)."""
        debt = 0
        v = self.current
        for level in range(1, NUM_LEVELS - 1):
            excess = v.level_bytes(level) - self.options.max_bytes_for_level(level)
            if excess > 0:
                debt += excess
        trigger = self.options.level0_file_num_compaction_trigger
        extra_l0 = len(v.levels[0]) - trigger
        if extra_l0 > 0:
            debt += v._l0_newest_bytes[extra_l0]
        return debt
