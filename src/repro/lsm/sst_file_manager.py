"""SST file space tracking — RocksDB's ``SstFileManager``.

Two jobs, both only meaningful when the filesystem has a byte quota (the
disk-full model); with no quota every check short-circuits to "plenty of
space" and the manager is free on the hot path:

*Compaction output reservation.*  A compaction can briefly need its full
output size on disk while the inputs still exist.  Before a job starts,
the DB reserves that many bytes here; if free space minus existing
reservations cannot cover it, the compaction is not started and the DB
reports a soft out-of-space error instead of hitting hard ENOSPC halfway
through a multi-file write (RocksDB's ``EnoughRoomForCompaction``).

*Deferred deletions.*  While the MANIFEST is dirty (an edit is applied in
memory but its record is not durable), obsolete files must not be
physically deleted: a crash would recover the *previous* version, which
still references them.  The VersionSet routes deletions through
:meth:`delete_file`, which queues them until the manifest is clean again.

:meth:`low_on_space` is the early-warning signal: when free space drops to
the configured threshold the DB floors its write controller at DELAYED,
trading throughput for time — a soft landing before hard ENOSPC.
"""

from __future__ import annotations

from typing import Dict

from repro.lsm.options import Options


class SstFileManager:
    """Tracks reserved compaction space and deferred file deletions."""

    def __init__(self, fs, options: Options) -> None:
        self.fs = fs
        self.options = options
        self.reserved_bytes = 0
        # path -> file size at deferral time (accounting/diagnostics).
        self.pending_deletions: Dict[str, int] = {}
        self._versions = None

    def bind(self, versions) -> None:
        """Attach the VersionSet whose manifest state gates deletions."""
        self._versions = versions

    # -- deletions ----------------------------------------------------------

    def delete_file(self, path: str) -> None:
        """Delete ``path``, deferring while the manifest is dirty."""
        if self._versions is not None and self._versions.manifest_dirty:
            size = 0
            if self.fs.exists(path):
                size = self.fs.open(path).size
            self.pending_deletions[path] = size
            return
        if self.fs.exists(path):
            self.fs.delete(path)

    def flush_pending_deletions(self) -> int:
        """Physically delete deferred files (manifest is durable again)."""
        n = 0
        for path in list(self.pending_deletions):
            del self.pending_deletions[path]
            if self.fs.exists(path):
                self.fs.delete(path)
                n += 1
        return n

    # -- space --------------------------------------------------------------

    def try_reserve_compaction(self, nbytes: int) -> bool:
        """Reserve up to ``nbytes`` of output space; False if it won't fit.

        Output size is estimated as the input size (an upper bound for a
        merge that drops shadowed entries).  Always succeeds when the
        filesystem has no quota.
        """
        if self.fs.quota_bytes is None:
            self.reserved_bytes += nbytes
            return True
        if self.fs.free_bytes() - self.reserved_bytes < nbytes:
            return False
        self.reserved_bytes += nbytes
        return True

    def release_compaction(self, nbytes: int) -> None:
        self.reserved_bytes -= nbytes
        if self.reserved_bytes < 0:
            self.reserved_bytes = 0

    def low_on_space(self) -> bool:
        """True when free space (minus reservations) is below the stall
        threshold — the DB floors writes at DELAYED before hard ENOSPC."""
        if self.fs.quota_bytes is None:
            return False
        free = self.fs.free_bytes() - self.reserved_bytes
        return free <= self.options.low_space_threshold()
