"""The compaction merge's two paths against each other and a per-entry model.

:func:`repro.lsm.compaction._merge_inputs` computes a whole merge at once:
by C-speed Python (:func:`_merge_order`, the spec, and the only path without
numpy), or through numpy arrays (:func:`_merge_columns`) when the merge holds
at least ``_NP_MERGE_MIN`` keys of one width.  Both must return the same six
outputs, and both must equal what a per-entry k-way merge observes: the
model below is ``test_compaction_reference``'s ``heapq.merge`` over
``_tracked_items``, reduced to the merge.  The numpy cases skip without numpy.
"""

from __future__ import annotations

import heapq
import random
import sys
from array import array
from typing import List
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import compaction as compaction_module
from repro.lsm.compaction import _merge_inputs
from repro.lsm.format import KIND_DELETE, KIND_PUT
from repro.lsm.sst import EntryColumns, SSTable, file_sizes
from repro.lsm.value import ValueRef
from repro.lsm.version import FileMetadata
from repro.sim.stats import _np
from tests.lsm.test_compaction_reference import _tracked_items

THRESHOLD = compaction_module._NP_MERGE_MIN
needs_numpy = pytest.mark.skipif(_np is None, reason="the numpy merge needs numpy")


def table(number: int, keys: List[bytes], seqs, kinds: List[int], value_size: int) -> FileMetadata:
    """An input table (no simulated file: the merge reads only the table)."""
    if seqs.__class__ is range:  # a prefilled table: one run of columns
        columns = EntryColumns(
            seqs, KIND_PUT, file_sizes(keys, value_size),
            seeds=array("q", range(len(keys))), vsizes=value_size,
        )
    else:
        entries = [
            (seq, kind, ValueRef(seq, value_size) if kind == KIND_PUT else None)
            for seq, kind in zip(seqs, kinds)
        ]
        columns = EntryColumns.of(keys, entries)
    sst = SSTable.build(number, tuple(keys), columns, block_size=256)
    return FileMetadata(number, sst, None, 1)


def make_merge(seed: int, inputs: int, entries: int, widths: List[int], tombstones: float,
               shadow_three: bool, prefilled: bool) -> List[FileMetadata]:
    """``inputs`` tables of about ``entries`` keys in all, over a key space
    small enough that keys repeat across tables.  A key is one of three
    heads (all ``\\x00``, all ``\\xff``, random) and a random two-byte tail, so
    keys wider than a word share their first words.  Every sequence number
    is distinct."""
    rng = random.Random(seed)
    heads = {
        width: [b"\x00" * (width - 2), b"\xff" * (width - 2), rng.randbytes(max(0, width - 2))]
        for width in widths
    }
    space = list(dict.fromkeys([  # distinct, in drawing order
        *(rng.choice(heads[width]) + rng.randbytes(min(width, 2))
          for width in (rng.choice(widths) for _ in range(max(2, entries)))),
        b"\x00" * widths[0], b"\xff" * widths[0],
    ]))
    per_input = [entries // inputs + (i < entries % inputs) for i in range(inputs)]
    chosen = [sorted(set(rng.sample(space, min(len(space), max(1, k))))) for k in per_input]
    if shadow_three and inputs >= 3:  # one key in three or more inputs
        shared = rng.choice(space)
        for keys in chosen[:3]:
            if shared not in keys:
                keys.append(shared)
                keys.sort()
    seqs = iter(rng.sample(range(1, 10 * entries + 100), sum(map(len, chosen))))
    metas = []
    for i, keys in enumerate(chosen):
        if prefilled and i == 0:  # the oldest input, with a range of seqs
            metas.append(table(i + 1, keys, range(1, len(keys) + 1), [], 100))
            continue
        own = [next(seqs) + len(chosen[0]) for _ in keys]
        kinds = [KIND_DELETE if rng.random() < tombstones else KIND_PUT for _ in keys]
        metas.append(table(i + 1, keys, array("q", own), kinds, rng.choice([10, 100])))
    return metas


def model(inputs: List[FileMetadata], drop_tombstones: bool, chunk: int):
    """The six outputs as a streaming k-way merge observes them, entry by entry."""
    requests: List = []
    merged = heapq.merge(*(
        (((k, -e[0]), k, e) for k, e in _tracked_items(meta, chunk, requests))
        for meta in inputs
    ))
    keys, entries, counted, read_at, reads = [], [], [], [], []
    unshadowed = 0
    prev = None

    def queued():  # requests queued since the last step precede the next output entry
        read_at.extend([len(keys)] * len(requests))
        reads.extend(requests)
        requests.clear()

    for _, key, entry in merged:
        queued()
        if key == prev:
            continue
        prev = key
        unshadowed += 1
        if drop_tombstones and entry[1] == KIND_DELETE:
            continue
        keys.append(key)
        entries.append(entry)
        counted.append(unshadowed)
    queued()
    return tuple(keys), entries, counted, unshadowed, read_at, reads


def observed(result):
    """A merge result in comparable form: every column as stored, and the entries."""
    keys, columns, counted, unshadowed, read_at, reads = result
    stored = [getattr(columns, name) for name in columns.__slots__]
    return keys, stored, list(columns), list(counted), unshadowed, read_at, reads


def merged_by(path: str, inputs, drop_tombstones, chunk):
    if path == "pure":
        with mock.patch.object(compaction_module, "_np", None):
            return _merge_inputs(inputs, drop_tombstones, chunk)
    if path == "numpy":  # any merge of one key width, however small
        with mock.patch.object(compaction_module, "_NP_MERGE_MIN", 0):
            return _merge_inputs(inputs, drop_tombstones, chunk)
    return _merge_inputs(inputs, drop_tombstones, chunk)  # the threshold decides


@st.composite
def merges(draw):
    widths = draw(st.sampled_from([[1], [3], [8], [9], [16], [2, 5], [7, 8, 16]]))
    return dict(
        seed=draw(st.integers(0, 2**32)),
        inputs=draw(st.integers(1, 6)),
        entries=draw(st.sampled_from([1, 7, 40, 150, THRESHOLD - 1, THRESHOLD, THRESHOLD + 1])),
        widths=widths,
        tombstones=draw(st.sampled_from([0.0, 0.3, 1.0])),
        shadow_three=draw(st.booleans()),
        prefilled=draw(st.booleans()),
    ), draw(st.booleans()), draw(st.sampled_from([64, 1000, 1 << 20]))


@settings(max_examples=120, deadline=None)
@given(case=merges())
def test_both_paths_equal_the_per_entry_model(case):
    spec, drop_tombstones, chunk = case
    inputs = make_merge(**spec)
    expected = model(inputs, drop_tombstones, chunk)
    paths = ["pure", "threshold"] + (["numpy"] if _np is not None else [])
    for path in paths:
        keys, stored, entries, counted, unshadowed, read_at, reads = observed(
            merged_by(path, inputs, drop_tombstones, chunk)
        )
        assert (keys, entries, counted, unshadowed, read_at, reads) == expected, path
    if _np is not None:
        assert observed(merged_by("numpy", inputs, drop_tombstones, chunk)) == observed(
            merged_by("pure", inputs, drop_tombstones, chunk)
        )


@needs_numpy
def test_the_threshold_picks_the_path():
    """One key width and at least ``_NP_MERGE_MIN`` keys take numpy; one key
    fewer, or a second width, stays pure."""
    calls = []
    real = compaction_module._merge_columns

    def spy(*args):
        calls.append(len(args[0]))
        return real(*args)

    for entries, widths, numpy_path in (
        (THRESHOLD, [16], True), (THRESHOLD - 1, [16], False), (2 * THRESHOLD, [8, 16], False),
    ):
        inputs = make_merge(5, 4, entries, widths, 0.0, False, False)
        calls.clear()
        with mock.patch.object(compaction_module, "_merge_columns", spy):
            _merge_inputs(inputs, False, 1 << 20)
        assert sum(meta.sst.entry_count for meta in inputs) == entries
        assert bool(calls) == numpy_path, (entries, widths)


def lines_run(fn) -> int:
    """Line events ``fn()`` executes, in every frame it enters."""
    count = 0

    def tracer(frame, event, _arg):
        nonlocal count
        if event == "line":
            count += 1
        return tracer

    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(None)
    return count


def shadowed_merge(entries: int, seed: int) -> List[FileMetadata]:
    """Four inputs of 16-byte keys, every key in two of them: ``entries / 2``
    shadow groups."""
    rng = random.Random(seed)
    space = sorted({rng.getrandbits(64).to_bytes(16, "big") for _ in range(entries // 2)})
    seqs = iter(rng.sample(range(1, 4 * entries), 2 * len(space)))
    halves = [space[0::2], space[1::2]]
    return [
        table(i + 1, halves[i % 2], array("q", [next(seqs) for _ in halves[i % 2]]),
              [KIND_PUT] * len(halves[i % 2]), 100)
        for i in range(4)
    ]


@needs_numpy
def test_numpy_path_lines_do_not_grow_with_entries():
    """The numpy merge runs a fixed number of Python lines per input and per
    read-ahead request: a merge of 10x the entries and 10x the shadow groups,
    with the same inputs and reads, executes exactly as many lines."""
    small, large = shadowed_merge(2 * THRESHOLD, 1), shadowed_merge(20 * THRESHOLD, 2)
    chunk = 1 << 30  # one read per input in both merges
    counts = [lines_run(lambda inputs=inputs: _merge_inputs(inputs, False, chunk))
              for inputs in (small, large)]
    assert counts[0] == counts[1]
    # The pure path's lines grow with the shadow groups: the count would see it.
    with mock.patch.object(compaction_module, "_np", None):
        pure = [lines_run(lambda inputs=inputs: _merge_inputs(inputs, False, chunk))
                for inputs in (small, large)]
    assert pure[1] > pure[0]
