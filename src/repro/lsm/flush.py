"""Flush: turning an immutable memtable into a Level-0 SST.

A flush streams the sorted memtable contents into a new SST file in
``compaction_readahead_bytes``-sized appends (large sequential writes on the
device), fsyncs it, and installs it at Level 0 via a version edit.  CPU cost
is charged per entry; write I/O goes through the filesystem so flushes
compete with user reads for device channels — the interference the paper
measures.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING

from repro.errors import DBError
from repro.lsm.io_retry import retry_gen
from repro.lsm.sst import EntryColumns, SSTable
from repro.lsm.version import FileMetadata, VersionEdit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lsm.db import DB
    from repro.lsm.memtable import MemTable

_IO_CHUNK = 1 * 1024 * 1024


class FlushJob:
    """One memtable -> one Level-0 file.

    ``track`` names the trace thread the flush span is recorded on (the
    DB passes its worker's track so concurrent flushes don't overlap).
    """

    def __init__(self, db: "DB", memtable: "MemTable", track: str = "flush") -> None:
        self.db = db
        self.memtable = memtable
        self.track = track
        self._path: "str | None" = None  # output path once created

    def run(self):
        """Generator: perform the flush; returns the new FileMetadata.

        On failure the partial output file is deleted (the error handler
        retries with a fresh file number) — unless the failure is tagged
        ``bg_source == "manifest"``, which happens *after* the SST is
        installed: then the file is live and must stay.
        """
        db = self.db
        mt = self.memtable
        if not mt.immutable:
            raise DBError("flushing a mutable memtable")
        if mt.is_empty():
            return None
        mt.flush_in_progress = True
        try:
            meta = yield from self._run_steps()
            return meta
        except GeneratorExit:
            # The job was abandoned (simulation teardown), not failed: no
            # cleanup, no trace events — the world is being discarded.
            raise
        except BaseException as exc:
            path = self._path
            if getattr(exc, "bg_source", "") != "manifest" and path is not None:
                if db.fs.exists(path):
                    db.fs.delete(path)
            db.engine.tracer.span_end(self.track, {"error": type(exc).__name__})
            raise
        finally:
            mt.flush_in_progress = False

    def _run_steps(self):
        db = self.db
        mt = self.memtable
        tracer = db.engine.tracer
        tracer.span_begin(self.track, "flush")
        self._path = None

        number = db.versions.new_file_number()
        # Two passes, so that no (key, entry) pair outlives its step: 2k live
        # tuples per flush are 2k allocations the cyclic collector counts.
        keys = list(map(itemgetter(0), mt.sorted_items()))
        columns = EntryColumns.of(keys, list(map(itemgetter(1), mt.sorted_items())))
        sst = SSTable.build(
            number, keys, columns, db.options.block_size, db.options.bloom_bits_per_key
        )

        path = f"sst/{number:06d}.sst"
        f = db.fs.create(path)
        self._path = path
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
        return meta
