"""The key-value store facade (RocksDB analog).

All public operations are *generators* meant to run inside simulated
processes::

    engine = Engine()
    db = DB(engine, fs, Options())

    def client():
        yield from db.put(b"k", b"v")
        value = yield from db.get(b"k")

    engine.process(client())
    engine.run()

For scripting convenience, :meth:`DB.run_sync` drives a single operation to
completion on an otherwise idle engine.

Write path (paper Algorithms 1 and 2): throttle -> join writer queue ->
leader forms group, switches memtable if full, appends one WAL record for
the group -> members apply their batches to the memtable concurrently.
Read path: memtables (newest first) -> L0 files newest-first (every file
whose range covers the key is searched — the paper's L0 query overhead) ->
binary-searched single file per deeper level; block cache and page cache
short-circuit device reads.
"""

from __future__ import annotations

import heapq
import zlib
from functools import partial
from typing import Iterator, List, Optional, Tuple

from repro.errors import (
    CorruptionError,
    DBClosedError,
    DBError,
    IOFaultError,
    OutOfSpaceError,
)
from repro.fs.filesystem import SimFileSystem
from repro.lsm.block_cache import BlockCache
from repro.lsm.compaction import Compaction, CompactionJob, CompactionPicker
from repro.lsm.costs import DEFAULT_COSTS, CostModel
from repro.lsm.error_handler import SEV_SOFT, ErrorHandler
from repro.lsm.flush import FlushJob
from repro.lsm.format import KIND_DELETE, KIND_PUT, Entry
from repro.lsm.io_retry import retry_call
from repro.lsm.memtable import MemTable, MemTableList
from repro.lsm.options import NUM_LEVELS, Options
from repro.lsm.pipelined_write import ROLE_LEADER, WriteQueue, Writer
from repro.lsm.rate_limiter import RateLimiter
from repro.lsm.sst_file_manager import SstFileManager
from repro.lsm.value import Value, value_size
from repro.lsm.version import FileMetadata, VersionSet
from repro.lsm.wal import WalManager
from repro.lsm.write_batch import WriteBatch
from repro.lsm.write_controller import (
    DELAYED,
    NORMAL,
    STOPPED,
    StallMetrics,
    WriteController,
)
from repro.sim.engine import Engine
from repro.sim.resources import Store
from repro.sim.rng import RandomStream
from repro.sim.stats import StatsSet
from repro.sim.units import MB

_CLOSE = object()

MAX_WRITE_BATCH_GROUP_SIZE = 1 * MB  # bytes one write group may take
# Background threads: RocksDB's max_background_flushes / _compactions.
MAX_BACKGROUND_FLUSHES = 1
MAX_BACKGROUND_COMPACTIONS = 2
# The hit ticker per level; every level below L2 counts as deep.
_HIT_TICKERS = ("get.l0_hit", "get.l1_hit", "get.l2_hit")


class DB:
    """An LSM-tree key-value store on a simulated filesystem."""

    def __init__(
        self,
        engine: Engine,
        fs: SimFileSystem,
        options: Optional[Options] = None,
        costs: Optional[CostModel] = None,
        wal_fs: Optional[SimFileSystem] = None,
        rng: Optional[RandomStream] = None,
        controller: Optional[WriteController] = None,
        block_cache: Optional[BlockCache] = None,
        write_buffer_manager=None,
        cache_namespace: int = 0,
    ) -> None:
        self.engine = engine
        self.fs = fs
        self.options = options or Options()
        self.options.validate()
        self.costs = costs or DEFAULT_COSTS
        self.rng = rng or RandomStream(0, "db")
        self.stats = StatsSet()
        self._tickers = self.stats.counters()  # the op path counts inline
        # Hot-path histogram handles: stats.reset() clears histograms in
        # place, so these references stay registered across resets.
        self._write_latency = self.stats.histogram("write.latency")
        self._read_latency = self.stats.histogram("read.latency")
        self._closed = False
        # Per-DB memtable counter for RNG stream naming: forking off the
        # process-global MemTable._ids would make a run's draws depend on
        # whatever ran earlier in the same process, breaking bit-identity
        # between serial and parallel (--jobs) sweeps.
        self._memtable_seq = 0

        # A cache may be shared across shards / column families: sharers
        # pass one BlockCache plus a distinct integer namespace so their
        # per-DB SST numbering cannot collide in the joint key space.
        self._cache_ns = cache_namespace
        self.block_cache = (
            block_cache
            if block_cache is not None
            else BlockCache(self.options.block_cache_bytes)
        )
        # Optional joint memtable budget (repro.lsm.write_buffer_manager).
        self.write_buffer_manager = write_buffer_manager
        if write_buffer_manager is not None:
            write_buffer_manager.register(self)
        recovering = fs.exists("MANIFEST")
        self.versions = VersionSet(
            fs, self.options, on_file_dead=self._on_file_dead, costs=self.costs
        )
        if recovering:
            self.stats.inc("recovery.files", self.versions.current.num_files())
        self._wal_fs = wal_fs or fs
        self.wal = WalManager(
            engine, self._wal_fs, self.options, self.costs
        )
        self.memtables = MemTableList(self._new_memtable)
        # Sealed memtables allowed to wait for flush before writes stop.
        self._max_immutables = max(1, self.options.max_write_buffer_number - 1)
        if recovering:
            # Re-insert the durable, checksum-valid groups of the old logs.
            # They stay live (adopted by the WalManager) until the memtable
            # holding them reaches Level 0, so a second crash before that
            # flush still recovers everything.
            logs, damage = self.wal.recover()
            mutable = self.memtables.mutable
            count = 0
            for _number, _f, groups in logs:
                for group in groups:
                    for key, entry in group:
                        mutable.add(key, entry)
                        self.versions.last_sequence = max(
                            self.versions.last_sequence, entry[0]
                        )
                        count += 1
            if count:
                mutable.min_log_number = logs[0][0]
            for name, n in damage.items():
                if n:
                    self.stats.inc(f"recovery.wal_{name}", n)
            self.stats.inc("recovery.wal_records", count)

        self.controller = controller or WriteController(engine, self.options)
        # Background-error state machine + space tracking (repro.lsm.
        # error_handler).
        self.error_handler = ErrorHandler(self)
        self.sst_file_manager = SstFileManager(fs, self.options)
        # One writer queue by default (RocksDB); optionally sharded per the
        # paper's Section VI implication on write-queue parallelism.
        self.write_queues = [
            WriteQueue(engine, MAX_WRITE_BATCH_GROUP_SIZE)
            for _ in range(self.options.write_queue_shards)
        ]
        self.write_queue = self.write_queues[0]
        self.picker = CompactionPicker(self.options)
        rate = self.options.rate_limit_bytes_per_sec
        self.rate_limiter = RateLimiter(engine, rate) if rate > 0 else None

        self._flush_store: Store = Store(engine)
        self._compaction_store: Store = Store(engine)
        self._compaction_tokens = 0
        self._active_compactions = 0
        self._active_flushes = 0
        self._workers = []
        for i in range(MAX_BACKGROUND_FLUSHES):
            self._workers.append(
                engine.process(self._flush_worker(i), name=f"flush-{i}")
            )
        for i in range(MAX_BACKGROUND_COMPACTIONS):
            self._workers.append(
                engine.process(self._compaction_worker(i), name=f"compact-{i}")
            )
        self._update_stall_state()

    # ------------------------------------------------------------------ setup

    def _new_memtable(self) -> MemTable:
        self._memtable_seq += 1
        mt = MemTable(
            rep=self.options.memtable_rep,
            rng=self.rng.fork(f"memtable/{self._memtable_seq}"),
        )
        mt.min_log_number = self.wal.current_number
        return mt

    def _on_file_dead(self, meta: FileMetadata) -> None:
        self.block_cache.erase_file(meta.number, namespace=self._cache_ns)

    # --------------------------------------------------------------- lifecycle

    def _check_open(self) -> None:
        if self._closed:
            raise DBClosedError("operation on a closed DB")

    def close(self):
        """Generator: stop background workers (pending work is abandoned)."""
        self._check_open()
        self._closed = True
        for _ in range(MAX_BACKGROUND_FLUSHES):
            self._flush_store.put(_CLOSE)
        for _ in range(MAX_BACKGROUND_COMPACTIONS):
            self._compaction_store.put(_CLOSE)
        yield 0

    def run_sync(self, operation):
        """Drive one operation generator to completion (scripting helper).

        Runs the engine until the operation finishes; background work keeps
        running during (and possibly after) it.
        """
        proc = self.engine.process(operation, name="run_sync")
        # ``stop`` joins the process: a failure re-raises here, not from run().
        self.engine.run(stop=[proc])
        if not proc.done:
            raise DBError("operation cannot make progress (engine idle)")
        if proc.exception is not None:
            raise proc.exception
        return proc.value

    # ------------------------------------------------------------------- writes

    def put(self, key: bytes, value: Value):
        """Insert/overwrite one key; returns the write generator.

        A thin non-generator wrapper (as are :meth:`delete` and
        :meth:`write`): building the op list here instead of routing through
        a :class:`WriteBatch` skips an allocation and a size-dispatch per op,
        and returning the inner generator directly adds no frame to its
        (many) resumes.
        """
        if not isinstance(key, bytes):
            raise DBError(f"keys must be bytes, got {type(key).__name__}")
        return self._write_ops(
            [(KIND_PUT, key, value)], len(key) + value_size(value)
        )

    def delete(self, key: bytes):
        """Write a tombstone for one key; returns the write generator."""
        if not isinstance(key, bytes):
            raise DBError(f"keys must be bytes, got {type(key).__name__}")
        return self._write_ops([(KIND_DELETE, key, None)], len(key))

    def write(self, batch: WriteBatch):
        """Apply a batch atomically; returns the write generator.

        The batch's ops are copied: the write path re-keys them in place
        while the caller may reuse or clear the batch.
        """
        return self._write_ops(list(batch.ops), batch.data_bytes)

    def _write_ops(self, ops: List[Tuple[int, bytes, Optional[Value]]], data_bytes: int):
        """Generator: apply ``ops`` atomically (Algorithms 1 + 2).

        ``ops`` is owned by this generator.  Leader duties (group formation,
        memtable switch, WAL append) and the memtable phase are inlined
        rather than delegated to sub-generators: this generator is resumed
        several times per write at benchmark scale, and every level of
        ``yield from`` nesting adds a frame hop to each resume.  The effect
        order is unchanged.
        """
        if self._closed:
            raise DBClosedError("operation on a closed DB")
        if not ops:
            return 0
        engine = self.engine
        tickers = self._tickers
        controller = self.controller
        if self.error_handler.severity:
            self.error_handler.check_writable()  # hard/fatal -> read-only
        start = engine.now

        # --- Algorithm 1: the write control process -------------------------
        while controller.state == STOPPED:
            tickers["stall.stops_hit"] += 1
            yield controller.stop_wait_event()
            if self.error_handler.severity:
                self.error_handler.check_writable()
        if controller.state == DELAYED:
            versions = self.versions
            controller.on_delayed_write(
                versions.current.level_bytes(0) + versions.pending_compaction_bytes()
            )
            delay = controller.get_delay(data_bytes)
            if delay > 0:
                tickers["stall.delays_hit"] += 1
                tickers["stall.delay_ns"] += delay
                yield delay
            while controller.state == STOPPED:
                tickers["stall.stops_hit"] += 1
                yield controller.stop_wait_event()
                if self.error_handler.severity:
                    self.error_handler.check_writable()

        # --- Algorithm 2: the pipelined write process -------------------------
        writer = Writer(ops, data_bytes)
        queue = self.write_queue
        shards = self.options.write_queue_shards
        if shards > 1:
            queue = self.write_queues[zlib.crc32(ops[0][1]) % shards]
        if queue.join(writer):
            role = ROLE_LEADER
        else:
            role = yield writer.event

        costs = self.costs
        trace_start = -1
        trace_len = 0
        if role == ROLE_LEADER:
            # ---- leader duties: group formation, memtable switch, WAL ----
            group_start = engine.now
            group = queue.form_group(writer)
            try:
                cpu = (
                    costs.write_group_leader_ns
                    + costs.write_group_per_writer_ns * len(group)
                )

                # Switch the memtable between groups, never inside one (keeps
                # the WAL/memtable correspondence crash-safe).  The cheap
                # memtable-full test is inlined; the write-buffer-manager arm
                # (with its ticker) stays in _memtable_should_switch(), which
                # re-checks the first condition harmlessly.
                if (
                    self.memtables.mutable.charged_bytes
                    >= self.options.write_buffer_size
                    or (
                        self.write_buffer_manager is not None
                        and self._memtable_should_switch()
                    )
                ):
                    yield from self._switch_memtable()

                # Assign sequence numbers in queue order.
                seq = self.versions.last_sequence
                wal_records: List[Tuple[bytes, Entry]] = []
                for member in group:
                    entries: List[Tuple[bytes, Entry]] = []
                    for kind, key, value in member.records:
                        seq += 1
                        entries.append(
                            (key, (seq, kind, value if kind == KIND_PUT else None))
                        )
                    member.records = entries  # now (key, entry) pairs
                    wal_records.extend(entries)
                self.versions.last_sequence = seq

                wal_number = self.wal.current_number
                for member in group:
                    member.wal_number = wal_number
                wal_cpu, wal_event = self.wal.add_group(wal_records)
                total_cpu = cpu + wal_cpu
                if total_cpu:
                    yield total_cpu
                if wal_event is not None:
                    yield wal_event
            except GeneratorExit:
                # The writer was abandoned (simulation teardown): its members
                # are being discarded too — no fail fan-out, no events.
                raise
            except BaseException as exc:
                # The group never reaches the memtable phase: fail the waiting
                # members (they re-raise from their own write()) and hand
                # leadership to the next writer, else the queue hangs forever.
                queue.fail_group(group, exc)
                if isinstance(exc, (IOFaultError, OutOfSpaceError)):
                    self.error_handler.on_background_error("wal", exc)
                wal_event = None  # failed with exc: it would tie exc to this frame
                raise

            queue.wal_phase_done(group)
            if engine._trace:
                trace_start = group_start
                trace_len = len(group)

        # ---- memtable phase: one group member applies its batch ----
        cpu = 0
        mt = self.memtables.mutable
        # If a later group switched the memtable while we were waking up,
        # our records live in an older WAL: pin it via min_log_number.
        if writer.wal_number and self.wal.enabled:
            if writer.wal_number < mt.min_log_number:
                mt.min_log_number = writer.wal_number
        memtable_insert = costs.memtable_insert
        for key, entry in writer.records:
            cpu += memtable_insert(mt.entry_count)
            mt.add(key, entry)
        if cpu:
            yield cpu
        queue.member_done(writer)
        if trace_start >= 0:
            engine.tracer.write_group(trace_start, engine.now, trace_len)

        tickers["puts"] += len(ops)
        latency = engine.now - start
        self._write_latency.record(latency)
        return latency

    def mean_waiting_writers(self) -> float:
        """Time-averaged writers waiting across all queue shards (Fig. 16)."""
        return sum(q.mean_waiting() for q in self.write_queues)

    def _memtable_should_switch(self) -> bool:
        """Mutable memtable full, or the shared write-buffer budget says so."""
        if self.memtables.mutable.charged_bytes >= self.options.write_buffer_size:
            return True
        if (
            self.write_buffer_manager is not None
            and self.write_buffer_manager.should_flush(self)
        ):
            self.stats.inc("memtable.wbm_switches")
            return True
        return False

    def _switch_memtable(self):
        """Seal the mutable memtable; stall if too many immutables pend."""
        while len(self.memtables.immutables) >= self._max_immutables:
            self._update_stall_state()
            if self.controller.state != STOPPED:
                break  # a flush finished in between
            if self.error_handler.severity:
                self.error_handler.check_writable()
            self.stats.inc("stall.memtable_stops")
            yield self.controller.stop_wait_event()
        sealed = self.memtables.switch()
        if self.wal.enabled:
            try:
                self.wal.roll(self.versions.new_file_number())
            except (IOFaultError, OutOfSpaceError) as exc:
                # Could not create the next log file: keep appending to the
                # current one (correct, just a bigger log) and degrade.
                self.error_handler.on_background_error("wal", exc)
            self.memtables.mutable.min_log_number = self.wal.current_number
        self._flush_store.put(sealed)
        self.stats.inc("memtable.switches")
        self.engine.tracer.instant("db", "memtable.switch")
        self._update_stall_state()

    def apply_replicated(self, records: List[Tuple[bytes, Entry]]):
        """Generator: apply leader-assigned records on a follower.

        ``records`` are ``(key, entry)`` pairs whose entries already carry
        the *leader's* sequence numbers — the replication twin of the leader
        write path: append one group record to the local WAL (syncing per
        ``wal_mode``), insert into the memtable, advance ``last_sequence``.
        Groups must be applied in leader-log order; the cluster layer's
        per-follower sequence tracking guarantees that.
        """
        self._check_open()
        if not records:
            return
        if self.error_handler.severity:
            self.error_handler.check_writable()
        if self._memtable_should_switch():
            yield from self._switch_memtable()
        wal_number = self.wal.current_number
        try:
            wal_cpu, wal_event = self.wal.add_group(records)
            if wal_cpu:
                yield wal_cpu
            if wal_event is not None:
                yield wal_event
        except (IOFaultError, OutOfSpaceError) as exc:
            self.error_handler.on_background_error("wal", exc)
            raise
        mt = self.memtables.mutable
        if self.wal.enabled and wal_number and wal_number < mt.min_log_number:
            mt.min_log_number = wal_number
        cpu = 0
        for key, entry in records:
            cpu += self.costs.memtable_insert(mt.entry_count)
            mt.add(key, entry)
        if cpu:
            yield cpu
        last = records[-1][1][0]
        if last > self.versions.last_sequence:
            self.versions.last_sequence = last
        self._tickers["replicated_applies"] += 1

    # -------------------------------------------------------------------- reads

    def get(self, key: bytes):
        """Generator: point lookup; returns the value, or None.

        Memtable probing, the level walk, and the per-SST search are all
        inlined in one generator frame: an IO-bound lookup suspends on its
        device read several frames deep otherwise, and every level of
        ``yield from`` nesting adds a frame hop to each resume (plus a
        generator allocation per probed file).  Effect order is unchanged.
        """
        if self._closed:
            raise DBClosedError("operation on a closed DB")
        engine = self.engine
        tickers = self._tickers
        costs = self.costs
        start = engine.now
        tickers["gets"] += 1

        # 1. memtables, newest first (iterated in place: building the
        # newest-first list allocates once per lookup at benchmark scale).
        mts = self.memtables
        table = mts.mutable
        cpu = costs.memtable_lookup(table.entry_count)
        entry = table.get(key)
        if entry is None and mts.immutables:
            for table in reversed(mts.immutables):
                cpu += costs.memtable_lookup(table.entry_count)
                entry = table.get(key)
                if entry is not None:
                    break
        if entry is not None:
            tickers["get.memtable_hit"] += 1
        else:
            version = self.versions.ref_current()
            range_check = costs.sst_range_check_ns
            bloom_probe = costs.bloom_probe_ns
            cache_lookup = costs.block_cache_lookup_ns
            block_decode = costs.block_decode_ns
            block_cache = self.block_cache
            cache_ns = self._cache_ns
            paranoid = self.options.paranoid_checks
            try:
                # One slot per L0 file — every file whose range covers the
                # key is searched, newest first: the paper's L0 query
                # overhead — then one per deeper level, which has at most
                # one candidate file.
                level0 = version.levels[0]  # newest first
                n0 = len(level0)
                level = 0
                for slot in range(n0 + NUM_LEVELS - 1):
                    cpu += range_check
                    if slot < n0:
                        meta = level0[slot]
                        if key < meta.smallest or meta.largest < key:
                            continue
                        sst = meta.sst
                        tickers["get.l0_probes"] += 1
                    else:
                        level += 1
                        meta = version.file_for_key(level, key)
                        if meta is None:
                            continue
                        sst = meta.sst
                    if sst.bloom is not None:
                        cpu += bloom_probe
                        if not sst.may_contain(key):
                            tickers["bloom.useful"] += 1
                            continue
                    cpu += meta.search_ns
                    entry_idx, block_idx = sst.locate(key)
                    cpu += cache_lookup
                    cache_key = (cache_ns, sst.number, block_idx)
                    if not block_cache.lookup(cache_key):
                        if cpu:
                            yield cpu
                        cpu = 0
                        offset, nbytes = sst.block_span(block_idx)
                        try:
                            io_event = meta.file.read(offset, nbytes)
                        except IOFaultError as exc:
                            io_event = yield from retry_call(
                                partial(meta.file.read, offset, nbytes),
                                self.stats, "get.io_retries", exc,
                            )
                        if io_event is not None:
                            yield io_event
                            tickers["get.block_device_reads"] += 1
                        if meta.file.corrupt_ranges or paranoid:
                            sst.verify_block(block_idx, meta.file)
                        cpu += block_decode
                        block_cache.insert(cache_key, nbytes)
                    if sst.keys[entry_idx] == key:
                        entry = sst.entries[entry_idx]
                        tickers[_HIT_TICKERS[level] if level < 3 else "get.deep_hit"] += 1
                        break
                # Pending search CPU is charged before the version ref is
                # released (matching the delegated-search order): a sleep
                # after unref could let a concurrent compaction purge files
                # this lookup was still pinning.
                if cpu:
                    yield cpu
                cpu = 0
            finally:
                self.versions.unref(version)

        if cpu:
            yield cpu
        result = entry[2] if entry is not None and entry[1] == KIND_PUT else None
        if result is None:
            tickers["get.miss" if entry is None else "get.tombstone"] += 1
        self._read_latency.record(engine.now - start)
        return result

    def scan(self, start: bytes, end: bytes, limit: Optional[int] = None):
        """Generator: range scan [start, end); returns [(key, value)].

        Merges memtables and every overlapping SST.  I/O is charged for the
        data blocks each consulted table contributes.
        """
        self._check_open()
        if end <= start:
            return []
        sources: List[Iterator[Tuple[bytes, Entry]]] = []
        for table in self.memtables.tables_newest_first():
            sources.append(
                (k, e) for k, e in table.sorted_items() if start <= k < end
            )
        version = self.versions.ref_current()
        try:
            consulted = [
                meta
                for level in range(NUM_LEVELS)
                for meta in version.overlapping_files(level, start, end)
            ]
            io_events = []
            for meta in consulted:
                sources.append(meta.sst.items_from(start))
                first = meta.sst.locate(start)[1]
                last = meta.sst.locate(end)[1]
                for block in range(first, last + 1):
                    offset, nbytes = meta.sst.block_span(block)
                    ev = meta.file.read(offset, nbytes, sequential=True)
                    if ev is not None:
                        io_events.append(ev)
            if io_events:
                yield self.engine.all_of(io_events)

            # Merge newest-first per key: decorate with (key, -seq).
            merged = heapq.merge(
                *[(((k, -e[0]), k, e) for k, e in src) for src in sources]
            )
            out: List[Tuple[bytes, Value]] = []
            prev_key = None
            cpu = 0
            for _, k, e in merged:
                if k >= end:
                    break
                if k == prev_key:
                    continue
                prev_key = k
                cpu += self.costs.block_decode_ns // 4
                if e[1] == KIND_PUT:
                    out.append((k, e[2]))
                    if limit is not None and len(out) >= limit:
                        break
            if cpu:
                yield cpu
            self.stats.inc("scans")
            return out
        finally:
            self.versions.unref(version)

    # --------------------------------------------------------------- background

    def _flush_worker(self, worker: int = 0):
        track = f"flush-{worker}"
        while True:
            item = yield self._flush_store.get()
            if item is _CLOSE:
                return
            if item not in self.memtables.immutables:
                continue  # already flushed (an auto-resume retry won)
            if self.error_handler.severity:
                # Degraded: leave the memtable for the resume process,
                # which retries with backoff instead of hammering a
                # failing device.
                continue
            flushed = yield from self._run_flush(item, track)
            self._update_stall_state()
            if flushed:
                self._maybe_schedule_compaction()

    def _compaction_worker(self, worker: int = 0):
        track = f"compact-{worker}"
        report = self.error_handler.on_background_error
        while True:
            token = yield self._compaction_store.get()
            self._compaction_tokens -= 1
            if token is _CLOSE:
                return
            while not self._closed:
                if self.error_handler.severity:
                    break  # degraded: the resume process owns retries
                compaction = self.picker.pick(self.versions)
                if compaction is None:
                    break
                if not self.sst_file_manager.try_reserve_compaction(
                    compaction.input_bytes
                ):
                    # Not enough free space for the outputs: fail soft now
                    # rather than hard ENOSPC halfway through the merge.
                    compaction.mark(False)
                    report(
                        "compaction",
                        OutOfSpaceError(
                            "no room for compaction outputs",
                            needed_bytes=compaction.input_bytes,
                            free_bytes=self.fs.free_bytes(),
                        ),
                    )
                    break
                self._update_stall_state()  # the reservation may floor writes
                yield from self._run_compaction(compaction, track, report)
                # Another worker may be able to run a non-conflicting pick.
                self._maybe_schedule_compaction()

    def _run_flush(self, memtable: MemTable, track: str):
        """Generator: flush one sealed memtable; True once it is in L0.

        A failure is reported to the error handler and leaves the memtable
        queued for a retry.  On success the memtable leaves the immutables
        and the WALs it pinned are released.
        """
        self._active_flushes += 1
        try:
            yield from FlushJob(self, memtable, track=track).run()
        except (IOFaultError, OutOfSpaceError, CorruptionError) as exc:
            self.error_handler.note_flush_failure(memtable, exc)
            return False
        finally:
            self._active_flushes -= 1
        if memtable in self.memtables.immutables:
            self.memtables.immutables.remove(memtable)
        self._release_obsolete_wals()
        return True

    def _run_compaction(self, compaction: Compaction, track: str, report):
        """Generator: run a picked compaction whose output space the caller
        reserved; True on success.

        A failure goes to ``report(source, exc)`` while the space is still
        reserved.  Either way the reservation is released and the stall
        state re-evaluated when the job ends.
        """
        self._active_compactions += 1
        try:
            yield from CompactionJob(self, compaction, track=track).run()
            return True
        except (IOFaultError, OutOfSpaceError, CorruptionError) as exc:
            report(getattr(exc, "bg_source", "compaction"), exc)
            return False
        finally:
            self.sst_file_manager.release_compaction(compaction.input_bytes)
            self._active_compactions -= 1
            self._update_stall_state()

    def _maybe_schedule_compaction(self) -> None:
        if self._closed:
            return
        if (
            self._compaction_tokens < MAX_BACKGROUND_COMPACTIONS
            and self.picker.needs_compaction(self.versions)
        ):
            self._compaction_tokens += 1
            self._compaction_store.put("go")

    def _release_obsolete_wals(self) -> None:
        if not self.wal.enabled:
            return
        if self.versions.manifest_dirty:
            # The manifest edit that made these logs obsolete is not
            # durable yet: a crash now would recover from the old manifest
            # and still need them for replay.  The resume's MANIFEST probe
            # calls this again once its resync succeeds.
            return
        min_needed = min([t.min_log_number for t in self.memtables.tables_newest_first()])
        self.wal.release_up_to(min_needed - 1)

    # ----------------------------------------------------------------- stalling

    def _update_stall_state(self) -> None:
        # Degraded conditions outside Algorithm 1's metrics floor the
        # controller at DELAYED: a soft background error (resume is
        # retrying) or the filesystem running low on quota space.
        floor = NORMAL
        if (
            self.error_handler.severity == SEV_SOFT
            or self.sst_file_manager.low_on_space()
        ):
            floor = DELAYED
        if floor != self.controller.floor:
            self.controller.floor = floor
            if floor == DELAYED:
                self.stats.inc("stall.floor_raised")
        before = self.controller.state
        self.controller.update(
            StallMetrics(
                l0_files=self.versions.current.num_files(0),
                immutable_memtables=len(self.memtables.immutables),
                max_immutable_memtables=self._max_immutables,
                pending_compaction_bytes=self.versions.pending_compaction_bytes(),
            )
        )
        after = self.controller.state
        if before != after:
            self.stats.inc(f"stall.to_{after}")
            if after == NORMAL:
                self.controller.reset_rate()
        if after != NORMAL:
            self._maybe_schedule_compaction()

    # ---------------------------------------------------------------- utilities

    def _check_background_errors(self) -> None:
        """Raise instead of letting a foreground waiter poll forever.

        A background worker that died with an unhandled exception, or a
        fatal degraded state, means the condition being waited on can
        never clear — re-raise the stored error in the waiter.
        """
        for proc in self._workers:
            if proc.done and proc.exception is not None:
                raise DBError(
                    f"background worker {proc.name!r} died: {proc.exception!r}"
                ) from proc.exception
        self.error_handler.raise_stored_error()

    def flush_all(self):
        """Generator: seal the mutable memtable and wait until L0 has it."""
        self._check_open()
        if not self.memtables.mutable.is_empty():
            yield from self._switch_memtable()
        while self.memtables.immutables:
            self._check_background_errors()
            yield 100_000  # poll: background flush is draining

    def wait_idle(self, timeout_ns: Optional[int] = None):
        """Generator: wait until flushes and compactions quiesce, polling
        every millisecond.

        With ``timeout_ns`` set, raises :class:`DBError` if background
        work has not drained after that much virtual time (bounded waits
        for tests and harnesses instead of a silent infinite poll).
        """
        deadline = None if timeout_ns is None else self.engine.now + timeout_ns
        while True:
            self._check_background_errors()
            busy = (
                self.memtables.immutables
                or self._active_flushes
                or self._active_compactions
                or self.picker.needs_compaction(self.versions)
            )
            if not busy:
                return None
            if deadline is not None and self.engine.now >= deadline:
                raise DBError(
                    f"wait_idle timed out after {timeout_ns}ns "
                    f"(immutables={len(self.memtables.immutables)}, "
                    f"active_flushes={self._active_flushes}, "
                    f"active_compactions={self._active_compactions}, "
                    f"severity={self.error_handler.severity or 'none'})"
                )
            yield 1_000_000

    def level_shape(self) -> List[int]:
        """File count per level (diagnostics)."""
        return [len(files) for files in self.versions.current.levels]

    def compact_range(self):
        """Generator: manually compact the whole key range down level by level.

        RocksDB's ``CompactRange``: flushes the memtable, then pushes every
        file toward the bottommost populated level, dropping shadowed
        entries and tombstones on the way.
        """
        self._check_open()
        lo, hi = b"\x00", b"\xff" * 32
        yield from self.flush_all()
        for level in range(NUM_LEVELS - 1):
            # Let background jobs drain so their inputs are free to pick.
            yield from self.wait_idle()
            version = self.versions.current
            inputs = [
                f for f in version.overlapping_files(level, lo, hi)
                if not f.being_compacted
            ]
            if not inputs:
                continue
            smallest = min(f.smallest for f in inputs)
            largest = max(f.largest for f in inputs)
            lower = [
                f
                for f in version.overlapping_files(level + 1, smallest, largest)
                if not f.being_compacted
            ]
            compaction = Compaction(level, level + 1, inputs, lower)
            compaction.mark(True)
            yield from CompactionJob(self, compaction).run()
        self.stats.inc("manual_compactions")

    def property_value(self, name: str) -> float:
        """A few RocksDB-style DB properties for reports."""
        v = self.versions.current
        if name == "num-files-at-level0":
            return float(v.num_files(0))
        if name == "total-sst-bytes":
            return float(sum(f.file_bytes for f in v.all_files()))
        if name == "pending-compaction-bytes":
            return float(self.versions.pending_compaction_bytes())
        if name == "num-immutable-mem-table":
            return float(len(self.memtables.immutables))
        if name == "cur-size-active-mem-table":
            return float(self.memtables.mutable.charged_bytes)
        if name == "is-read-only":
            return 1.0 if self.error_handler.is_read_only else 0.0
        if name == "background-errors":
            return float(self.stats.get("bg_error.raised"))
        raise DBError(f"unknown property {name!r}")
