"""Leveled compaction: picker and job.

The picker is RocksDB's classic score-based leveled picker: Level 0 scores
by file count against ``level0_file_num_compaction_trigger``; levels >= 1
score by byte size against their targets.  The job merges the input
tables, drops shadowed entries and bottommost tombstones, and writes size-
capped output files to the next level.

I/O modelling: input tables are read in ``compaction_readahead_bytes``
chunks as the merge consumes them (freshly flushed inputs usually hit the
page cache — deep-level inputs hit the device); outputs stream through
buffered appends with an fsync per file.  CPU is charged per merged entry.
The host computes the merge per run and replays that schedule per event
(:func:`_merge_inputs`; DESIGN.md section 4 has the contract).
Compaction therefore competes with foreground reads for device channels,
which is the read/write interference at the heart of the paper's findings.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, islice, repeat
from operator import itemgetter, ne, not_
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import DBError
from repro.lsm.flush import BackgroundJob
from repro.lsm.format import KIND_DELETE, KIND_PUT, sst_path
from repro.lsm.io_retry import retry_call, retry_gen
from repro.lsm.options import NUM_LEVELS
from repro.lsm.sst import EntryColumns, SSTable, gather
from repro.lsm.version import FileMetadata, Version, VersionEdit, VersionSet
from repro.sim.stats import _np  # optional accelerator: None forces pure Python

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lsm.db import DB

_MERGE_BATCH = 256
# Merges of fewer entries stay on the pure path: below this, numpy's fixed
# cost per call is more than the per-entry work it saves.
_NP_MERGE_MIN = 512


class Compaction:
    """A picked compaction: inputs at two adjacent levels."""

    def __init__(
        self,
        level: int,
        output_level: int,
        inputs_upper: List[FileMetadata],
        inputs_lower: List[FileMetadata],
    ) -> None:
        if not inputs_upper:
            raise DBError("compaction needs at least one upper-level input")
        self.level = level
        self.output_level = output_level
        self.inputs_upper = inputs_upper
        self.inputs_lower = inputs_lower

    @property
    def all_inputs(self) -> List[FileMetadata]:
        return self.inputs_upper + self.inputs_lower

    @property
    def input_bytes(self) -> int:
        return sum(f.file_bytes for f in self.all_inputs)

    def key_range(self) -> Tuple[bytes, bytes]:
        smallest = min(f.smallest for f in self.all_inputs)
        largest = max(f.largest for f in self.all_inputs)
        return smallest, largest

    def mark(self, flag: bool) -> None:
        for f in self.all_inputs:
            f.being_compacted = flag

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Compaction L{self.level}->L{self.output_level} "
            f"{len(self.inputs_upper)}+{len(self.inputs_lower)} files "
            f"{self.input_bytes >> 20}MB>"
        )


class CompactionPicker:
    """Score-based leveled compaction picker."""

    def __init__(self, options) -> None:
        self.options = options
        # Round-robin cursors per level (largest-key of last compacted file).
        self._cursors: Dict[int, bytes] = {}

    def scores(self, versions: VersionSet) -> List[Tuple[float, int]]:
        """(score, level) pairs, highest first, for levels that can compact."""
        out = []
        for level in range(NUM_LEVELS - 1):
            score = versions.compaction_score(level)
            if score > 0:
                out.append((score, level))
        out.sort(reverse=True)
        return out

    def needs_compaction(self, versions: VersionSet) -> bool:
        """True when some level scores >= 1: :meth:`pick` has work to try."""
        for level in range(NUM_LEVELS - 1):
            if versions.compaction_score(level) >= 1.0:
                return True
        return False

    def pick(self, versions: VersionSet) -> Optional[Compaction]:
        """Pick the highest-score eligible compaction, or None."""
        version = versions.current
        for score, level in self.scores(versions):
            if score < 1.0:
                break
            compaction = (
                self._pick_l0(version)
                if level == 0
                else self._pick_level(version, level)
            )
            if compaction is not None:
                compaction.mark(True)
                return compaction
        return None

    def _pick_l0(self, version: Version) -> Optional[Compaction]:
        l0 = version.levels[0]
        if not l0 or any(f.being_compacted for f in l0):
            # Only one L0 compaction at a time (RocksDB's intra-L0 rule).
            return None
        smallest = min(f.smallest for f in l0)
        largest = max(f.largest for f in l0)
        lower = version.overlapping_files(1, smallest, largest)
        if any(f.being_compacted for f in lower):
            return None
        return Compaction(0, 1, list(l0), lower)

    def _pick_level(self, version: Version, level: int) -> Optional[Compaction]:
        files = version.levels[level]
        if not files:
            return None
        cursor = self._cursors.get(level, b"")
        # Start after the cursor, wrapping around (round-robin like RocksDB).
        ordered = [f for f in files if f.smallest > cursor] + [
            f for f in files if f.smallest <= cursor
        ]
        for meta in ordered:
            if meta.being_compacted:
                continue
            lower = version.overlapping_files(level + 1, meta.smallest, meta.largest)
            if any(f.being_compacted for f in lower):
                continue
            self._cursors[level] = meta.largest
            return Compaction(level, level + 1, [meta], lower)
        return None


def _merge_inputs(inputs: List[FileMetadata], drop_tombstones: bool, chunk: int):
    """Merge the input tables as whole runs, at C speed.

    Returns ``(keys, columns, counted, unshadowed, read_at, reads)``.  The
    output ``keys`` and :class:`~repro.lsm.sst.EntryColumns` are what a k-way
    merge (by key, newest sequence first within one key) leaves after dropping
    shadowed entries and, with ``drop_tombstones``, tombstones; every column
    is gathered from the inputs' (no entry is built, no size recomputed).
    Output entry ``o`` is the ``counted[o]``-th of the ``unshadowed``
    entries, and read-ahead request ``reads[r]`` is queued by the time the
    merge reaches output entry ``read_at[r]`` (see :func:`_read_schedule`).

    A merge of at least ``_NP_MERGE_MIN`` keys of one (non-zero) width takes
    :func:`_merge_columns`, numpy's whole-array form of :func:`_merge_order`;
    the pure path is the spec, and every output is the same on both.
    """
    keys: List[bytes] = []
    for meta in inputs:
        keys += meta.sst.keys
    columns = EntryColumns.concat([meta.sst.entries for meta in inputs])
    merge = _merge_order
    if _np is not None and len(keys) >= _NP_MERGE_MIN and keys[0] and (
        # One entry size and one value size are one key width (an entry's
        # size is its key's, its value's and a header, format.entry_bytes):
        # then the keys need not be measured.
        (columns.sizes.__class__ is int and columns.vsizes.__class__ is int)
        or len({*map(len, keys)}) == 1
    ):
        merge = _merge_columns
    out_keys, picked, steps, counted, unshadowed, position = merge(keys, columns, drop_tombstones)
    read_at, reads = _read_schedule(inputs, chunk, steps, position)
    return out_keys, columns.take(picked), counted, unshadowed, read_at, reads


def _merge_order(keys: List[bytes], columns: EntryColumns, drop_tombstones: bool):
    """The merge of ``keys`` (the inputs' laid end to end) by C-speed Python.

    Returns ``(out_keys, picked, steps, counted, unshadowed, position)``:
    output entry ``o`` is input entry ``picked[o]``, taken at merge step
    ``steps[o]``; ``position(i)`` is the merge step that takes input entry
    ``i``, shadowed or not.
    """
    seqs = columns.seqs
    n = len(keys)
    # Timsort finds the presorted input runs and merges them; it is stable,
    # so entries of one key come out in input order, to be put right below.
    order = sorted(range(n), key=keys.__getitem__)
    merged_keys = list(map(keys.__getitem__, order))
    # fresh[p]: merge step p's key differs from its predecessor's (+ sentinel).
    fresh = [True, *map(ne, islice(merged_keys, 1, None), merged_keys), True]
    stop = 0
    for pos in compress(range(n), map(not_, fresh)):  # a shadowed entry...
        if pos >= stop:  # ...in a new group [pos - 1, stop) of equal keys
            stop = fresh.index(True, pos)
            group = order[pos - 1 : stop]
            order[pos - 1 : stop] = sorted(group, key=seqs.__getitem__, reverse=True)
    steps = array("q", compress(range(n), fresh))
    out_keys = tuple(compress(merged_keys, fresh))
    picked = array("q", compress(order, fresh))  # input position of each output entry
    unshadowed = len(out_keys)
    counted = range(1, unshadowed + 1)
    kinds = columns.kinds
    if drop_tombstones and kinds != KIND_PUT:  # per-entry kinds, or every one a tombstone
        each = repeat(kinds, unshadowed) if kinds.__class__ is int else gather(kinds, picked)
        live = list(map(KIND_DELETE.__ne__, each))
        out_keys, picked = tuple(compress(out_keys, live)), array("q", compress(picked, live))
        steps, counted = array("q", compress(steps, live)), array("q", compress(counted, live))

    def position(i: int) -> int:
        return order.index(i, bisect_left(merged_keys, keys[i]))

    return out_keys, picked, steps, counted, unshadowed, position


def _merge_columns(keys: List[bytes], columns: EntryColumns, drop_tombstones: bool):
    """:func:`_merge_order` over numpy arrays, for keys of one width ``w > 0``.

    Each key, zero-padded to whole 8-byte words, is read as big-endian
    ``uint64`` words, so word order is byte order; one stable ``lexsort``
    (first word primary) is the merge, and only the members of shadow groups
    are re-sorted, newest sequence first.  Host lines run per call, never per
    entry or per group; the keys' bytes and their sorted copy are freed as
    soon as they are used.
    """
    n, width = len(keys), len(keys[0])
    padded = -(-width // 8) * 8
    text = _np.fromiter(keys, f"S{width}", n).view(_np.uint8)  # byte-exact, NULs included
    if width == padded:
        words = text.view(">u8").reshape(n, width // 8)
    else:
        words = _np.zeros((n, padded), _np.uint8)
        words[:, :width] = text.reshape(n, width)
        words = words.view(">u8")
    words = words.T.astype(_np.uint64)  # word-major and native: row j is every key's word j
    del text
    order = _np.lexsort(words[::-1])  # stable: one key's entries stay in input order
    merged = words.take(order, axis=1)
    del words
    # fresh[p]: merge step p's key differs from its predecessor's (+ sentinel).
    fresh = _np.ones(n + 1, bool)
    _np.any(merged[:, 1:] != merged[:, :-1], axis=0, out=fresh[1:n])
    del merged
    member = _np.flatnonzero(~(fresh[:-1] & fresh[1:]))  # in a group of equal keys
    if len(member):
        group = _np.cumsum(fresh[member])  # group ids, ascending along ``member``
        inside = order[member]
        newest = -_np.frombuffer(columns.seqs, "q")[inside]
        order[member] = inside[_np.lexsort((newest, group))]  # stable, as sorted(reverse=True)
    steps = _np.flatnonzero(fresh[:-1])
    del fresh
    picked = order[steps]
    unshadowed = len(steps)
    counted = range(1, unshadowed + 1)
    kinds = columns.kinds
    if drop_tombstones and kinds != KIND_PUT:
        if kinds.__class__ is array:
            each = _np.frombuffer(kinds, "B")[picked]
        else:  # every entry a tombstone
            each = _np.full(unshadowed, kinds)
        live = _np.flatnonzero(each != KIND_DELETE)
        picked, steps = picked[live], steps[live]
        counted = array("q", (live + 1).tobytes())
    inverse = _np.empty(n, _np.int64)  # inverse[i]: the merge step that takes input entry i
    inverse[order] = _np.arange(n)
    del order
    objects = _np.empty(n, object)  # the input key objects themselves, never copies
    objects[:] = keys
    out_keys = tuple(objects[picked].tolist())
    picked, steps = array("q", picked.tobytes()), array("q", steps.tobytes())
    return out_keys, picked, steps, counted, unshadowed, inverse.item


def _read_schedule(inputs: List[FileMetadata], chunk: int, steps, position):
    """The merge's read-ahead requests, in the order a k-way merge queues them.

    Each input is read in ``chunk``-sized requests, one per
    ``entries_per_chunk`` entries consumed (byte progress uses the table's mean
    entry size — read-ahead only needs to be roughly aligned with the merge).
    A streaming merge pulls every input's first entry before step 0, in input
    order, and entry ``j + 1`` of an input when its consumer asks for the
    element after entry ``j``: request ``c > 0`` of an input is queued at the
    step after the one that merged its entry ``c * entries_per_chunk - 1``
    (``position`` of its index in the inputs laid end to end).
    Returns ``(read_at, requests)`` in queueing order: ``(meta, offset,
    nbytes)`` requests and the first output entry (by ``steps``) each precedes.
    """
    schedule = []
    first = 0  # index in the inputs laid end to end of this input's first entry
    for meta in inputs:
        total, count = meta.sst.data_bytes, meta.sst.entry_count
        entries_per_chunk = max(1, int(chunk / max(1.0, total / count)))
        for c in range(min(-(-total // chunk), -(-count // entries_per_chunk))):
            step = position(first + c * entries_per_chunk - 1) + 1 if c else 0
            schedule.append((step, (meta, c * chunk, min(chunk, total - c * chunk))))
        first += count
    schedule.sort(key=itemgetter(0))  # stable: step-0 requests stay in input order
    read_at = [bisect_left(steps, step) for step, _ in schedule]
    return read_at, [request for _, request in schedule]


class CompactionJob(BackgroundJob):
    """Executes one picked compaction inside a background process."""

    def __init__(self, db: "DB", compaction: Compaction, track: str = "compact") -> None:
        super().__init__(db, track)
        self.compaction = compaction

    def _failed(self) -> None:
        self.compaction.mark(False)  # the picker may retry these inputs

    def _read_and_wait(self, requests: List, pending_events: List):
        """Generator: submit input reads (retrying transient faults), then
        wait for them and for any output appends still in flight."""
        db = self.db
        for meta, offset, nbytes in requests:
            ev = yield from retry_call(
                lambda m=meta, o=offset, n=nbytes: m.file.read(o, n, sequential=True),
                db.stats,
                "compaction.io_retries",
            )
            if ev is not None:
                pending_events.append(ev)
        if pending_events:
            if len(pending_events) == 1:
                yield pending_events[0]
            else:
                yield db.engine.all_of(pending_events)
            pending_events.clear()

    def _is_bottommost(self) -> bool:
        """True if no deeper level overlaps this compaction's key range."""
        c = self.compaction
        version = self.db.versions.current
        if c.output_level >= NUM_LEVELS - 1:
            return True
        smallest, largest = c.key_range()
        for level in range(c.output_level + 1, NUM_LEVELS):
            if version.overlapping_files(level, smallest, largest):
                return False
        return True

    def _steps(self):
        """Generator: the merge is computed per run (:func:`_merge_inputs`) and
        its simulated effects are replayed per event (DESIGN.md section 4)."""
        db = self.db
        c = self.compaction
        opts = db.options
        chunk = opts.compaction_readahead_bytes
        target_bytes = opts.target_file_size(c.output_level)
        tracer = db.engine.tracer
        tracer.span_begin(self.track, f"compact L{c.level}->L{c.output_level}")

        out_keys, out_entries, counted, unshadowed, read_at, reads = _merge_inputs(
            c.all_inputs, self._is_bottommost(), chunk
        )
        cum = out_entries.cumulative()
        entries_in = sum(f.sst.entry_count for f in c.all_inputs)
        entries_out = len(out_keys)

        new_files: List[FileMetadata] = []
        pending_events: List = []
        number = 0  # of the output file being written
        out_file = None
        start = 0  # first output entry of that file
        appended = 0  # bytes already appended to it
        charged = 0  # unshadowed entries whose CPU is paid
        reads_done = 0

        def start_output():
            nonlocal number, out_file, appended
            number = db.versions.new_file_number()
            out_file = db.fs.create(sst_path(number))
            self._created_paths.append(out_file.path)
            appended = 0

        def finish_output(stop):
            """Generator: table, final append, fsync and metadata for the
            current output, which holds output entries ``start .. stop-1``."""
            nonlocal out_file, start
            sst = SSTable.build(
                number, out_keys[start:stop], out_entries[start:stop],
                opts.block_size, opts.bloom_bits_per_key,
            )
            out_file.payload = sst
            bp = out_file.append(sst.file_bytes - appended)  # at least the index
            if bp is not None:
                yield bp
            yield from retry_gen(out_file.sync, db.stats, "compaction.io_retries")
            new_files.append(FileMetadata(number, sst, out_file, c.output_level))
            out_file, start = None, stop

        # The first output takes its number and file before anything is
        # merged; each later one when its first entry arrives (a concurrent
        # flush may take numbers while the previous output is being synced).
        start_output()
        while True:
            base = cum[start]
            # The next event: the output entry (1-based) that completes a
            # read-ahead-sized append, the file, or a CPU batch.  The batch
            # counts unshadowed entries, dropped tombstones included, but only
            # an output entry can close it.
            stop = min(
                bisect_left(cum, base + appended + chunk),
                bisect_left(cum, base + target_bytes),
                bisect_left(counted, charged + _MERGE_BATCH) + 1,
            )
            if stop > entries_out:
                break
            size = cum[stop] - base
            if size - appended >= chunk:
                # Stream output in chunk-sized appends (paced by the limiter).
                grow = size - appended
                appended = size
                if db.rate_limiter is not None:
                    pace = db.rate_limiter.request(grow)
                    if pace:
                        yield pace
                bp = out_file.append(grow)
                if bp is not None:
                    pending_events.append(bp)
            if size >= target_bytes:
                yield from finish_output(stop)
            batch = counted[stop - 1] - charged
            if batch >= _MERGE_BATCH:
                cpu = db.costs.compaction_entries(batch)
                charged += batch
                if cpu:
                    yield cpu
                queued = bisect_right(read_at, stop - 1)
                yield from self._read_and_wait(reads[reads_done:queued], pending_events)
                reads_done = queued
            if out_file is None and stop < entries_out:
                start_output()

        # Tail: remaining CPU (trailing dropped tombstones count), reads, and
        # the final output file — or none, if nothing survived the merge.
        cpu = db.costs.compaction_entries(unshadowed - charged)
        if cpu:
            yield cpu
        yield from self._read_and_wait(reads[reads_done:], pending_events)
        if start < entries_out:
            yield from finish_output(entries_out)
        elif out_file is not None:
            db.fs.delete(out_file.path)

        # Install the result.
        edit = VersionEdit()
        for meta in c.all_inputs:
            edit.delete_file(meta.level, meta.number)
        for meta in new_files:
            edit.add_file(c.output_level, meta)
        db.versions.apply(edit)
        yield db.costs.manifest_apply_ns
        yield from db.versions.log_edit(edit)
        c.mark(False)

        bytes_out = sum(f.file_bytes for f in new_files)
        db.stats.inc("compaction.count")
        db.stats.inc("compaction.bytes_read", c.input_bytes)
        db.stats.inc("compaction.bytes_written", bytes_out)
        db.stats.inc("compaction.entries_in", entries_in)
        db.stats.inc("compaction.entries_out", entries_out)
        tracer.span_end(
            self.track,
            {
                "bytes_in": c.input_bytes,
                "bytes_out": bytes_out,
                "entries_in": entries_in,
                "entries_out": entries_out,
            },
        )
        return new_files
