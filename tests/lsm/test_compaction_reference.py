"""Differential test: ``CompactionJob`` against the per-entry merge it replaced.

The job computes its merge per run and replays the simulated effects per
event.  The reference below is the algorithm that replaced — every merged
entry climbs ``_tracked_items`` -> ``heapq.merge`` -> the loop body ->
``SSTBuilder.add`` — kept here as the spec (as ``test_kernel_property.py``,
``test_reference_client.py`` and ``test_prefill_reference.py`` keep theirs).
Everything the simulation can observe must agree: the output tables, their
file numbers, the ordered log of CPU yields, read requests, appends and
syncs, the tickers and the clock.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import List, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IOFaultError
from repro.fs.filesystem import SimFile, SimFileSystem
from repro.lsm import compaction as compaction_module
from repro.lsm import format as format_module
from repro.lsm import sst as sst_module
from repro.lsm.compaction import Compaction, CompactionJob
from repro.lsm.format import KIND_DELETE, KIND_PUT
from repro.lsm.io_retry import retry_call, retry_gen
from repro.lsm.sst import EntryColumns, SSTBuilder
from repro.lsm.value import ValueRef
from repro.lsm.version import FileMetadata, VersionEdit
from repro.sim.engine import Engine
from repro.storage.profiles import xpoint_ssd
from repro.workloads.prefill import prefill_keys
from tests.conftest import make_db, run_op, tiny_options


def _tracked_items(meta: FileMetadata, chunk: int, read_requests: List):
    """Iterate a table's items, queueing chunked read requests as consumed."""
    total = meta.sst.data_bytes
    per_entry = max(1.0, total / meta.sst.entry_count)
    entries_per_chunk = max(1, int(chunk / per_entry))
    next_mark = 0
    countdown = 0
    for item in meta.sst.items():
        if countdown == 0 and next_mark < total:
            read_requests.append((meta, next_mark, min(chunk, total - next_mark)))
            next_mark += chunk
            countdown = entries_per_chunk
        countdown -= 1
        yield item


class ReferenceCompactionJob(CompactionJob):
    """The per-entry merge, verbatim but for the one marked line."""

    def _issue_reads(self, read_requests: List, pending_events: List):
        db = self.db
        for meta, offset, nbytes in read_requests:
            ev = yield from retry_call(
                lambda m=meta, o=offset, n=nbytes: m.file.read(o, n, sequential=True),
                db.stats,
                "compaction.io_retries",
            )
            if ev is not None:
                pending_events.append(ev)
        read_requests.clear()

    def _steps(self):
        db = self.db
        c = self.compaction
        opts = db.options
        chunk = opts.compaction_readahead_bytes
        drop_tombstones = self._is_bottommost()
        target_bytes = opts.target_file_size(c.output_level)
        tracer = db.engine.tracer
        tracer.span_begin(self.track, f"compact L{c.level}->L{c.output_level}")

        read_requests: List = []
        decorated = [
            (((k, -e[0]), k, e) for k, e in _tracked_items(meta, chunk, read_requests))
            for meta in c.all_inputs
        ]
        merged = heapq.merge(*decorated)

        new_files: List[FileMetadata] = []
        builder: Optional[SSTBuilder] = None
        out_file = None
        appended = 0
        prev_key: Optional[bytes] = None
        batch = 0
        cpu_pending = 0
        entries_out = 0
        entries_in = 0
        pending_events: List = []

        def start_output():
            nonlocal builder, out_file, appended
            number = db.versions.new_file_number()
            builder = SSTBuilder(number, opts.block_size, opts.bloom_bits_per_key)
            out_file = db.fs.create(f"sst/{number:06d}.sst")
            self._created_paths.append(out_file.path)
            appended = 0

        def finish_output_steps():
            nonlocal builder, out_file, appended
            if builder is None or builder.entry_count == 0:
                if out_file is not None:
                    db.fs.delete(out_file.path)  # the orphan-file fix: not in the original
                builder, out_file = None, None
                return
            sst = builder.finish()
            out_file.payload = sst
            remaining = sst.file_bytes - appended
            if remaining > 0:
                bp = out_file.append(remaining)
                if bp is not None:
                    yield bp
            yield from retry_gen(out_file.sync, db.stats, "compaction.io_retries")
            meta = FileMetadata(sst.number, sst, out_file, c.output_level)
            new_files.append(meta)
            builder, out_file = None, None

        start_output()
        for _, key, entry in merged:
            entries_in += 1
            if key == prev_key:
                continue  # shadowed by a newer entry
            prev_key = key
            if drop_tombstones and entry[1] == KIND_DELETE:
                batch += 1
                continue
            if builder is None:
                start_output()
            builder.add(key, entry)
            entries_out += 1
            batch += 1

            if builder.estimated_bytes - appended >= chunk:
                grow = builder.estimated_bytes - appended
                appended += grow
                if db.rate_limiter is not None:
                    pace = db.rate_limiter.request(grow)
                    if pace:
                        yield pace
                bp = out_file.append(grow)
                if bp is not None:
                    pending_events.append(bp)

            if builder.estimated_bytes >= target_bytes:
                yield from finish_output_steps()

            if batch >= compaction_module._MERGE_BATCH:
                cpu_pending += db.costs.compaction_entries(batch)
                batch = 0
                if cpu_pending:
                    yield cpu_pending
                    cpu_pending = 0
                yield from self._issue_reads(read_requests, pending_events)
                if pending_events:
                    if len(pending_events) == 1:
                        yield pending_events[0]
                    else:
                        yield db.engine.all_of(pending_events)
                    pending_events.clear()

        if batch:
            cpu_pending += db.costs.compaction_entries(batch)
        if cpu_pending:
            yield cpu_pending
        yield from self._issue_reads(read_requests, pending_events)
        if pending_events:
            if len(pending_events) == 1:
                yield pending_events[0]
            else:
                yield db.engine.all_of(pending_events)
            pending_events.clear()
        yield from finish_output_steps()

        edit = VersionEdit()
        for meta in c.all_inputs:
            edit.delete_file(meta.level, meta.number)
        for meta in new_files:
            edit.add_file(c.output_level, meta)
        db.versions.apply(edit)
        yield db.costs.manifest_apply_ns
        yield from db.versions.log_edit(edit)
        c.mark(False)

        db.stats.inc("compaction.count")
        db.stats.inc("compaction.bytes_read", c.input_bytes)
        db.stats.inc("compaction.bytes_written", sum(f.file_bytes for f in new_files))
        db.stats.inc("compaction.entries_in", entries_in)
        db.stats.inc("compaction.entries_out", entries_out)
        tracer.span_end(
            self.track,
            {
                "bytes_in": c.input_bytes,
                "bytes_out": sum(f.file_bytes for f in new_files),
                "entries_in": entries_in,
                "entries_out": entries_out,
            },
        )
        return new_files


# -- the world a job runs in ---------------------------------------------------


def key(i: int) -> bytes:
    return b"%06d" % i


def install(db, level: int, rows: List[Tuple[int, int, int]]) -> FileMetadata:
    """A synced table of ``(key index, seq, value size)`` rows; size -1 is a tombstone."""
    number = db.versions.new_file_number()
    builder = SSTBuilder(number, db.options.block_size, db.options.bloom_bits_per_key)
    for i, seq, size in sorted(rows):
        entry = (seq, KIND_DELETE, None) if size < 0 else (seq, KIND_PUT, ValueRef(seq, size))
        builder.add(key(i), entry)
    sst = builder.finish()
    f = db.fs.install_synced(f"sst/{number:06d}.sst", sst.file_bytes)
    f.payload = sst
    meta = FileMetadata(number, sst, f, level)
    db.versions.apply(VersionEdit().add_file(level, meta))
    return meta


@contextmanager
def io_log(log: List, fail_append_at: Optional[int] = None):
    """Record every file operation; optionally fail the k-th SST append."""
    real = {name: getattr(SimFile, name) for name in ("read", "append", "sync")}
    real_create, real_delete = SimFileSystem.create, SimFileSystem.delete
    appends = [0]

    def read(self, offset, nbytes, sequential=False):
        log.append(("read", self.path, offset, nbytes, sequential))
        return real["read"](self, offset, nbytes, sequential)

    def append(self, nbytes, record=None):
        log.append(("append", self.path, nbytes))
        if self.path.startswith("sst/"):
            appends[0] += 1
            if appends[0] == fail_append_at:
                raise IOFaultError("injected", op="write", transient=False)
        return real["append"](self, nbytes, record)

    def sync(self):
        log.append(("sync", self.path))
        return real["sync"](self)

    def create(self, path, *args, **kwargs):
        log.append(("create", path))
        return real_create(self, path, *args, **kwargs)

    def delete(self, path):
        log.append(("delete", path))
        return real_delete(self, path)

    with mock.patch.multiple(SimFile, read=read, append=append, sync=sync), mock.patch.multiple(
        SimFileSystem, create=create, delete=delete
    ):
        yield


def logged(gen, log: List):
    """Drive a job generator, recording what it yields (ints are CPU or pacing)."""
    send = None
    try:
        while True:
            item = gen.send(send)
            log.append(("yield", item if isinstance(item, int) else "event"))
            send = yield item
    except StopIteration as stop:
        return stop.value


def paced(limiter, requests: List) -> None:
    """Record each of ``limiter``'s requests as ``(bytes, delay returned)``."""
    if limiter is None:
        return
    real = limiter.request

    def request(nbytes):
        delay = real(nbytes)
        requests.append((nbytes, delay))
        return delay

    limiter.request = request


def run_job(job_class, scenario, fail_append_at=None):
    """Build the scenario's world, run one compaction, return all that is observable."""
    engine = Engine()
    db = make_db(engine, profile=xpoint_ssd(), options=tiny_options(**scenario["options"]))
    requests: List = []
    paced(db.rate_limiter, requests)
    prefilled = scenario.get("prefilled")
    if prefilled:  # level 1 is prefilled: its tables are entry columns from the start
        prefill_keys(db, [key(i) for i, _ in prefilled], value_sizes=[size for _, size in prefilled])
    upper = [install(db, 0, rows) for rows in scenario["upper"]]
    lower = list(db.versions.current.levels[1]) + [install(db, 1, rows) for rows in scenario["lower"]]
    if scenario["deeper"]:
        install(db, 2, scenario["deeper"])  # overlaps: the compaction is not bottommost
    compaction = Compaction(0, 1, upper, lower)
    compaction.mark(True)
    log: List = []
    error = None
    batch = scenario.get("batch", compaction_module._MERGE_BATCH)
    with io_log(log, fail_append_at), mock.patch.object(compaction_module, "_MERGE_BATCH", batch):
        try:
            new_files = run_op(engine, logged(job_class(db, compaction).run(), log))
        except IOFaultError as exc:
            new_files, error = [], repr(exc)
    tables = [
        {
            "number": meta.number,
            "path": meta.file.path,
            "keys": meta.sst.keys,
            "items": list(meta.sst.items()),
            "spans": [meta.sst.block_span(b) for b in range(meta.sst.block_count)],
            "bytes": (meta.sst.data_bytes, meta.sst.file_bytes, meta.file.size, meta.file.synced_size),
            "largest_seq": meta.sst.largest_seq,
            "one_size": meta.sst.entries.sizes.__class__ is int,
        }
        for meta in new_files
    ]
    return {
        "tables": tables,
        "log": log,
        "error": error,
        "tickers": (db.stats.tickers(), db.fs.stats.tickers(), db.fs.page_cache.stats.tickers()),
        "pages": db.fs.page_cache.resident(),
        "files": db.fs.list(),
        "shape": db.level_shape(),
        "next_file_number": db.versions.next_file_number,
        "marked": [f.being_compacted for f in compaction.all_inputs],
        "now": engine.now,
        "limiter": requests,
    }


SIZES = [-1, 0, 0, 10, 100, 700]  # value sizes; -1 = tombstone


def rows_strategy(seq_base: int, lo: int = 0, hi: int = 60, sizes=SIZES):
    """One input table: distinct key indices in [lo, hi), each a put or a tombstone."""
    return st.lists(
        st.tuples(st.integers(min_value=lo, max_value=hi - 1), st.sampled_from(sizes)),
        min_size=1,
        max_size=40,
        unique_by=lambda row: row[0],
    ).map(lambda rows: [(i, seq_base + n, size) for n, (i, size) in enumerate(rows)])


@st.composite
def scenarios(draw):
    # One size: every input entry is 6 + 100 + 8 bytes, so the output's sizes
    # stay one int and its blocks are cut in closed form.
    one_size = draw(st.booleans())
    sizes = [100] if one_size else SIZES
    upper = [draw(rows_strategy(1000 * (n + 1), sizes=sizes)) for n in range(draw(st.integers(1, 4)))]
    # Level 1 is sorted and disjoint, older than every L0 table: two key
    # ranges of flushed-style tables, or the prefilled tables of one key set.
    lower, prefilled = [], []
    if draw(st.booleans()):
        prefilled = draw(
            st.lists(
                st.tuples(st.integers(0, 59), st.sampled_from([size for size in sizes if size > 0])),
                min_size=1, max_size=40, unique_by=lambda row: row[0],
            ).map(sorted)
        )
    else:
        lower = [
            draw(rows_strategy(100 * (n + 1), lo, hi, sizes))
            for n, (lo, hi) in enumerate([(0, 30), (30, 60)][: draw(st.integers(0, 2))])
        ]
    if draw(st.booleans()):  # an input that is shadowed entirely by a newer one
        size = 100 if one_size else 50
        upper.append([(i, 9000 + n, size) for n, (i, _seq, _size) in enumerate(upper[0])])
    return {
        "one_size": one_size,
        "prefilled": prefilled,
        "upper": upper,
        "lower": lower,
        "deeper": [(0, 1, 10), (59, 2, 10)] if draw(st.booleans()) else [],
        "batch": draw(st.sampled_from([1, 3, 16, 256])),  # entries per CPU batch
        "options": {
            "block_size": draw(st.sampled_from([16, 256, 4096])),
            # 28 and 42 are sums of two or three 14-byte entries: thresholds met exactly.
            "target_file_size_base": draw(st.sampled_from([20, 42, 2048, 1 << 20])),
            "compaction_readahead_bytes": draw(st.sampled_from([8, 28, 512, 256 * 1024])),
            "rate_limit_bytes_per_sec": draw(st.sampled_from([0, 4 << 20])),
            "bloom_bits_per_key": draw(st.sampled_from([0, 10])),
        },
    }


@settings(max_examples=120, deadline=None)
@given(scenario=scenarios())
def test_job_equals_per_entry_merge(scenario):
    new = run_job(CompactionJob, scenario)
    assert new == run_job(ReferenceCompactionJob, scenario)
    if scenario["one_size"]:
        assert all(table["one_size"] for table in new["tables"])


def big_scenario(**options):
    """Batches, chunks and files all cut mid-stream; tombstone runs straddle a
    batch boundary, so a batch closes later than its 256th entry."""
    upper = [
        [(i, 10_000 * (n + 1) + i, -1 if 300 <= i < 420 else 40 + (i * 7) % 90)
         for i in range(n, 1500, 2 + n)]
        for n in range(4)
    ]
    lower = [[(i, 100 + i, 120) for i in range(0, 700, 3)], [(i, 100 + i, 120) for i in range(700, 1500, 5)]]
    return {"upper": upper, "lower": lower, "deeper": [], "options": options}


@pytest.mark.parametrize("deeper", [[], [(5, 1, 10)]])
@pytest.mark.parametrize("limit", [0, 8 << 20])
def test_long_merge_equals_per_entry_merge(deeper, limit):
    scenario = big_scenario(
        block_size=1024, target_file_size_base=16 * 1024,
        compaction_readahead_bytes=4096, rate_limit_bytes_per_sec=limit,
    )
    scenario["deeper"] = deeper
    new, ref = run_job(CompactionJob, scenario), run_job(ReferenceCompactionJob, scenario)
    assert new == ref
    assert len(new["tables"]) > 3 and new["tickers"][0]["compaction.entries_in"] > 4 * 256
    assert sum(1 for item in new["log"] if item[0] == "read") > 8
    if limit:  # the paced case compares a request sequence that really delayed
        assert len(new["limiter"]) > 3 and any(delay for _nbytes, delay in new["limiter"])


def test_single_input_and_everything_dropped():
    options = {"compaction_readahead_bytes": 64}
    single = {"upper": [[(i, i + 1, 30) for i in range(300)]], "lower": [], "deeper": [], "options": options}
    assert run_job(CompactionJob, single) == run_job(ReferenceCompactionJob, single)
    gone = {
        "upper": [[(i, 500 + i, -1) for i in range(300)], [(i, i + 1, 30) for i in range(300)]],
        "lower": [], "deeper": [], "options": options,
    }
    new = run_job(CompactionJob, gone)
    assert new == run_job(ReferenceCompactionJob, gone)
    assert new["tables"] == []
    assert not [path for path in new["files"] if path.startswith("sst/")]
    assert new["tickers"][0]["compaction.entries_out"] == 0


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_fault_at_kth_output_append_leaves_the_same_disk(k):
    """An ``IOFaultError`` at the k-th output append: same partial-output
    cleanup, same surviving files, inputs un-marked, same I/O up to there."""
    scenario = big_scenario(
        block_size=1024, target_file_size_base=16 * 1024, compaction_readahead_bytes=4096
    )
    new = run_job(CompactionJob, scenario, fail_append_at=k)
    ref = run_job(ReferenceCompactionJob, scenario, fail_append_at=k)
    assert new == ref
    assert new["error"] is not None and new["marked"] == [False] * 6
    assert new["shape"][0] == 4  # nothing was installed


def test_one_size_compaction_builds_no_entry(monkeypatch):
    """Host-independent: a compaction over one-size prefilled and flushed
    tables gathers their columns.  It constructs no ``ValueRef`` and no entry
    tuple, and sizes no entry (``entry_file_bytes`` is never called)."""
    engine = Engine()
    db = make_db(engine, options=tiny_options(
        level0_file_num_compaction_trigger=10, max_bytes_for_level_base=1 << 20
    ))
    prefill_keys(db, [key(i) for i in range(0, 3000, 2)], value_size=100)

    def flushes():
        for batch in range(3):
            for i in range(batch, 3000, 7):
                yield from db.put(key(i), ValueRef(i, 100))
            yield from db.flush_all()

    run_op(engine, flushes())
    assert db.level_shape()[0] >= 3 and db.level_shape()[1] > 1  # flushed and prefilled
    counts = {"ValueRef": 0, "entry tuple": 0, "entry_file_bytes": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    def getitem(self, j, real=EntryColumns.__getitem__):
        counts["entry tuple"] += j.__class__ is not slice
        return real(self, j)

    def each(self, real=EntryColumns.__iter__):
        for entry in real(self):
            counts["entry tuple"] += 1
            yield entry

    monkeypatch.setattr(ValueRef, "__init__", counted("ValueRef", ValueRef.__init__))
    monkeypatch.setattr(EntryColumns, "__getitem__", getitem)
    monkeypatch.setattr(EntryColumns, "__iter__", each)
    for module in (format_module, sst_module):
        monkeypatch.setattr(module, "entry_file_bytes", counted("entry_file_bytes", module.entry_file_bytes))
    run_op(engine, db.compact_range())
    assert counts == {"ValueRef": 0, "entry tuple": 0, "entry_file_bytes": 0}
    assert db.stats.get("compaction.count") >= 1 and db.stats.get("compaction.entries_out") > 1500
    assert all(meta.sst.entries.sizes == 6 + 100 + 8 for meta in db.versions.current.all_files())
