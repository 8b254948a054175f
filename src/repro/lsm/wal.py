"""Write-ahead log.

Every write group appends one log record covering the whole batch group
(RocksDB's group commit).  Three modes model the configurations the paper
measures:

* ``buffered`` (default, db_bench's setting): ``write()`` into the page
  cache; the OS writes back asynchronously every ``WAL_BYTES_PER_SYNC``
  bytes, and appends block only when the device falls behind the dirty
  limit — this is how the WAL still costs 30+ us of p90 latency even though
  no fsync is issued (Finding #4);
* ``sync``: fsync after every group;
* ``off``: Figure 17's WAL-disabled configuration.

The WAL filesystem may live on a different device than the data files —
that is exactly case study C (NVM logging): pass an NVM-backed filesystem.

One log file exists per memtable; when a memtable flushes, its log becomes
obsolete and is deleted.  Records carry the real (key, entry) payloads so
recovery replays actual data (only records below the durable watermark
survive a simulated crash).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import DBError, IOFaultError
from repro.fs.filesystem import SimFile, SimFileSystem
from repro.lsm.costs import CostModel
from repro.lsm.format import WAL_DIR, Entry, records_checksum, wal_record_bytes
from repro.lsm.io_retry import retry_gen
from repro.lsm.options import WAL_OFF, WAL_SYNC, Options
from repro.lsm.value import ValueRef
from repro.sim.engine import Engine, Event, Process
from repro.sim.units import KB

WAL_BYTES_PER_SYNC = 512 * KB  # the OS writeback threshold of a log file
WAL_RECORD_OVERHEAD = 12  # header bytes per logged entry


class WalRecord:
    """One group-commit log record: the (key, entry) payloads plus a CRC.

    The checksum covers the logical record content at append time and is
    re-verified during replay, which is what lets recovery *detect* a torn
    tail or a device-mangled range instead of resurrecting garbage.  It is
    computed lazily on first access: entries are immutable tuples frozen at
    append, so first-access and append-time checksums are identical — and
    the common case (a record that is never replayed or replicated) skips
    the CRC work entirely on the hot write path.
    """

    __slots__ = ("entries", "_crc")

    def __init__(self, entries: List[Tuple[bytes, Entry]]) -> None:
        self.entries = entries
        self._crc: Optional[int] = None

    @property
    def crc(self) -> int:
        value = self._crc
        if value is None:
            value = self._crc = records_checksum(self.entries)
        return value

    def verify(self) -> bool:
        return self.crc == records_checksum(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WalRecord n={len(self.entries)} crc={self.crc:#010x}>"


#: ``(number, file, good_records)``: one log as :func:`recover_logs` left it.
RecoveredLog = Tuple[int, SimFile, List[WalRecord]]


def truncate_log(f: SimFile, keep: int) -> None:
    """Physically cut a log after its first ``keep`` records.

    Both logs (WAL and MANIFEST) store ``(nbytes, record)`` pairs, so the
    cut's byte size follows from the records kept.
    """
    records = f.records[:keep]
    size = sum(nbytes for nbytes, _rec in records)
    f.records = records
    f.size = size
    f.synced_size = min(f.synced_size, size)
    f._flushed_size = min(f._flushed_size, size)


def recover_log(f: SimFile, intact: Callable[[Any], bool]) -> int:
    """Truncate one log at its first bad record; return how many went.

    Walks the durable records in order, accumulating byte offsets, and stops
    at the first record that overlaps a device-corrupted range or that
    ``intact`` rejects: a :class:`TornRecord` left by a mid-record crash is
    never intact, and a WAL record must also match its checksum.  Everything
    from the first bad record on is dropped (RocksDB's point-in-time /
    truncate-at-corruption recovery).
    """
    offset = 0
    for idx, (nbytes, rec) in enumerate(f.records):
        if (f.corrupt_ranges and f.is_corrupt(offset, nbytes)) or not intact(rec):
            bad = len(f.records) - idx
            truncate_log(f, idx)
            return bad
        offset += nbytes
    return 0


def _wal_intact(rec: Any) -> bool:
    return isinstance(rec, WalRecord) and rec.verify()


def recover_logs(
    logs: List[Tuple[int, SimFile]],
) -> Tuple[List[RecoveredLog], Dict[str, int]]:
    """Check and truncate a DB's logs, oldest first; return the good groups.

    The one log-recovery routine: DB open and cluster salvage both run it.
    Returns ``(logs, stats)`` where ``logs`` lists ``(number, file,
    good_records)`` in log order and ``stats`` counts what the check
    dropped.  Each log is cut at its first bad record (:func:`recover_log`)
    and every *later* log is emptied: its records are newer than the
    corruption point, so replaying them would resurrect writes newer than
    lost ones.
    """
    good_logs: List[RecoveredLog] = []
    stats = {"bad_records": 0, "truncated_logs": 0, "dropped_logs": 0}
    for number, f in logs:
        if stats["truncated_logs"]:
            stats["dropped_logs"] += 1
            truncate_log(f, 0)
            continue
        bad = recover_log(f, _wal_intact)
        if bad:
            stats["bad_records"] += bad
            stats["truncated_logs"] += 1
        good_logs.append((number, f, [rec for _nbytes, rec in f.records]))
    return good_logs, stats


class WalManager:
    """Owns the numbered log files of one DB instance."""

    def __init__(
        self,
        engine: Engine,
        fs: SimFileSystem,
        options: Options,
        costs: CostModel,
    ) -> None:
        self.engine = engine
        self.fs = fs
        self.options = options
        self.costs = costs
        self.current: Optional[SimFile] = None
        self.current_number = 0
        self._live: List[Tuple[int, SimFile]] = []  # (number, file), oldest first
        self.bytes_written = 0
        # Per-append filesystem write cost (see add_group): fixed for this
        # manager's (fs, device) pairing, resolved once off the hot path.
        self._seq_write_half_ns = fs.device.profile.seq_write_base_ns // 2
        # Replication tap: when set, called as ``on_group(records, nbytes)``
        # for every appended group *after* the local append is issued.  The
        # cluster layer uses this on the leader to ship WAL records; None
        # (the default) costs nothing on the single-node path.
        self.on_group = None
        self.enabled = options.wal_mode != WAL_OFF
        # Logs an earlier incarnation left on disk, checked and handed to
        # the DB by recover().  With the WAL on they are also adopted: they
        # stay live until the memtable holding their replayed records is
        # flushed.
        self._found = self.existing_logs(fs)
        if self.enabled:
            self._live.extend(self._found)
            if self._found:
                self.current_number = self._found[-1][0]
            self.roll(self.current_number + 1)

    def _path(self, number: int) -> str:
        return f"{WAL_DIR}{number:06d}.log"

    @staticmethod
    def existing_logs(fs: SimFileSystem) -> List[Tuple[int, SimFile]]:
        """``(number, file)`` of every log on ``fs``, oldest first."""
        numbered = sorted(
            (int(path.rsplit("/", 1)[-1].split(".")[0]), path)
            for path in fs.list(prefix=WAL_DIR)
        )
        return [(number, fs.open(path)) for number, path in numbered]

    def roll(self, number: int) -> None:
        """Start a new log file (called at every memtable switch)."""
        if not self.enabled:
            return
        number = max(number, self.current_number + 1)
        f = self.fs.create(
            self._path(number),
            writeback_bytes=WAL_BYTES_PER_SYNC,
            dirty_limit_bytes=2 * WAL_BYTES_PER_SYNC,
        )
        self.current = f
        self.current_number = number
        self._live.append((number, f))

    def add_group(
        self, records: List[Tuple[bytes, Entry]]
    ) -> Tuple[int, Optional[Event]]:
        """Append one group-commit record; returns (cpu_ns, wait_event).

        ``cpu_ns`` is the serialization cost the leader must charge.  The
        event — when not None — must be yielded before the write is
        acknowledged: in ``sync`` mode it is the fsync process itself
        (durability), in ``buffered`` mode it only appears under writeback
        backpressure.
        """
        if not self.enabled:
            return 0, None
        if self.current is None:
            raise DBError("WAL enabled but no live log file")
        # wal_record_bytes() unrolled for a ValueRef, the benchmarks' value:
        # one call per record per group shows up in write-heavy profiles.
        # Same arithmetic, same result.
        options = self.options
        costs = self.costs
        overhead = WAL_RECORD_OVERHEAD
        nbytes = 0
        for key, entry in records:
            value = entry[2]
            if value.__class__ is ValueRef:
                nbytes += len(key) + value.size + overhead
            else:
                nbytes += wal_record_bytes(key, entry, overhead)
        cpu = (
            costs.wal_append_base_ns
            + (nbytes * costs.wal_serialize_per_byte_ps) // 1000
        )
        if options.wal_compression:
            # Section VI: compress the log to trade CPU for I/O traffic.
            cpu += (nbytes * costs.wal_compress_per_byte_ps) // 1000
            nbytes = max(1, int(nbytes * options.wal_compression_ratio))
        self.bytes_written += nbytes
        # Filesystem write-path cost: a write() into a file on a block
        # device does journal/block-layer work that scales with the backing
        # device; on byte-addressable NVM (tmpfs) that path is a bare
        # memcpy.  This is the per-write gap case study C removes.
        cpu += self._seq_write_half_ns
        backpressure = self.current.append(nbytes, record=WalRecord(records))
        if self.on_group is not None:
            self.on_group(records, nbytes)
        if options.wal_mode == WAL_SYNC:
            return cpu, self._sync_process()
        return cpu, backpressure

    def _sync_process(self) -> Process:
        """The fsync of the current log: a process the leader waits on.

        Transient device faults retry with backoff (writeback re-issues the
        failed range).  A permanent fault, or the last retry's, fails the
        process's own event with the typed error, which the waiting write
        group raises, and the process then finishes: a faulted fsync is the
        fsync's outcome, not a crash of the process, whether or not the
        leader is waiting yet.
        """
        f = self.current

        def fsync():
            nonlocal proc
            try:
                yield from f.sync()
                return
            except IOFaultError as exc:
                retry = retry_gen(f.sync, fault=exc)
            try:
                yield from retry
            except IOFaultError as exc:
                # exc's traceback holds this frame: no link back to exc.
                failed, proc = proc, None
                failed.fail(exc)
                del failed

        proc = self.engine.process(fsync(), name="wal-sync")
        return proc

    def sync(self):
        """Generator: explicit fsync of the current log."""
        if self.enabled and self.current is not None:
            yield from self.current.sync()

    def release_up_to(self, number: int) -> None:
        """Delete logs whose memtables are durably flushed (<= number)."""
        kept: List[Tuple[int, SimFile]] = []
        for num, f in self._live:
            if num <= number and f is not self.current:
                self.fs.delete(f.path)
            else:
                kept.append((num, f))
        self._live = kept

    def live_logs(self) -> List[Tuple[int, SimFile]]:
        """``(number, file)`` of every log not yet released, oldest first."""
        return list(self._live)

    # -- recovery ----------------------------------------------------------------

    def recover(self) -> Tuple[List[RecoveredLog], Dict[str, int]]:
        """:func:`recover_logs` over the logs found at open, once.

        Taken before :meth:`roll` opened the new log; found under
        ``WAL_OFF`` too, which replays old logs without adopting them.
        """
        found, self._found = self._found, []
        return recover_logs(found)
