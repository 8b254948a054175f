"""Flush: turning an immutable memtable into a Level-0 SST.

A flush streams the sorted memtable contents into a new SST file in 1 MB
appends (``_IO_CHUNK``: large sequential writes on the device), fsyncs it,
and installs it at Level 0 via a version edit.  CPU cost is charged per
entry; write I/O goes through the filesystem so flushes compete with user
reads for device channels — the interference the paper measures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.errors import DBError
from repro.lsm.format import sst_path
from repro.lsm.io_retry import retry_gen
from repro.lsm.sst import EntryColumns, SSTable
from repro.lsm.version import FileMetadata, VersionEdit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lsm.db import DB
    from repro.lsm.memtable import MemTable

_IO_CHUNK = 1 * 1024 * 1024


class BackgroundJob:
    """What a flush and a compaction share: :meth:`run` drives the job's
    body, ``_steps()``, and cleans up after a failure, where ``_failed()``
    releases what the job claimed in memory.

    ``track`` names the trace thread the job's span is recorded on (the
    DB passes its worker's track so concurrent jobs don't overlap).
    """

    def __init__(self, db: "DB", track: str) -> None:
        self.db = db
        self.track = track
        self._created_paths: List[str] = []  # output files, in creation order

    def run(self):
        """Generator: run the job; returns what :meth:`_steps` returns.

        On failure the output files are deleted (a retry writes fresh ones)
        — unless the failure is tagged ``bg_source == "manifest"``, which
        happens *after* the edit installed them: then they are live files
        and must stay — :meth:`_failed` runs and the span is closed.
        """
        try:
            return (yield from self._steps())
        except GeneratorExit:
            # The job was abandoned (simulation teardown), not failed: no
            # cleanup, no trace events — the world is being discarded.
            raise
        except BaseException as exc:
            fs = self.db.fs
            if getattr(exc, "bg_source", "") != "manifest":
                for path in self._created_paths:
                    if fs.exists(path):
                        fs.delete(path)
            self._failed()
            self.db.engine.tracer.span_end(self.track, {"error": type(exc).__name__})
            raise


class FlushJob(BackgroundJob):
    """One memtable -> one Level-0 file."""

    def __init__(self, db: "DB", memtable: "MemTable", track: str = "flush") -> None:
        if not memtable.immutable:
            raise DBError("flushing a mutable memtable")
        super().__init__(db, track)
        self.memtable = memtable

    def _failed(self) -> None:
        self.memtable.flush_in_progress = False

    def _steps(self):
        """Generator: write the memtable out; returns the new FileMetadata,
        or None for an empty memtable."""
        db = self.db
        mt = self.memtable
        if mt.is_empty():
            return None
        mt.flush_in_progress = True
        tracer = db.engine.tracer
        tracer.span_begin(self.track, "flush")

        number = db.versions.new_file_number()
        keys, entries = mt.sorted_columns()
        columns = EntryColumns.of(keys, entries)
        sst = SSTable.build(
            number, keys, columns, db.options.block_size, db.options.bloom_bits_per_key
        )

        path = sst_path(number)
        f = db.fs.create(path)
        self._created_paths.append(path)
        f.payload = sst

        total = sst.file_bytes
        entries = sst.entry_count
        cpu_total = db.costs.flush_entries(entries)
        written = 0
        while written < total:
            chunk = min(_IO_CHUNK, total - written)
            written += chunk
            cpu = cpu_total * chunk // total
            if cpu:
                yield cpu
            if db.rate_limiter is not None:
                pace = db.rate_limiter.request(chunk)
                if pace:
                    yield pace
            backpressure = f.append(chunk)
            if backpressure is not None:
                yield backpressure
        # Writeback faults surface at fsync; transient ones are retried so
        # an injected error burst degrades the flush instead of killing it.
        yield from retry_gen(f.sync, db.stats, "flush.io_retries")

        meta = FileMetadata(number, sst, f, level=0)
        edit = VersionEdit().add_file(0, meta)
        db.versions.apply(edit)
        yield db.costs.manifest_apply_ns
        yield from db.versions.log_edit(edit)

        db.stats.inc("flush.count")
        db.stats.inc("flush.bytes", total)
        db.stats.inc("flush.entries", entries)
        tracer.span_end(self.track, {"bytes": total, "entries": entries})
        mt.flush_in_progress = False
        return meta
