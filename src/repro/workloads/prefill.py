"""Database pre-population (db_bench's ``--use_existing_db`` fixture).

The paper benchmarks against an existing ~100 GB database.  Simulating the
initial fill op-by-op would dwarf the measured run, so the prefiller builds
the steady-state LSM shape directly: keys are deterministically distributed
across levels (L1 .. Lk filled to their byte targets, the remainder in the
deepest level), cut into target-size SST files on durably "synced" files,
and installed by one version edit.  The page cache starts cold, as after a
reboot.  The edit is applied in memory and never logged to MANIFEST: a
prefilled database does not survive a reopen (ROADMAP item 1).

A prefilled table holds its keys — C ``bisect`` over the key tuple *is* the
index — and entry columns (:class:`~repro.lsm.sst.EntryColumns`) that are
mostly constants: its sequence numbers are a ``range``, every kind is a PUT,
and a value is ``benchmark_value(position, size)``, so the one per-key column
is the value seeds.  A table's keys are made together, from its window of
the level's positions: ``encode_key`` of each, in one numpy pass per table
when numpy is importable.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import ge
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import WorkloadError
from repro.lsm.db import DB
from repro.lsm.format import KIND_PUT, entry_bytes, sst_path
from repro.lsm.options import NUM_LEVELS
from repro.lsm.sst import EntryColumns, SSTable, file_sizes, gather
from repro.lsm.version import FileMetadata, VersionEdit
from repro.sim.stats import _np  # optional accelerator: None forces pure Python
from repro.workloads.generators import (
    KEY_WIDTH,
    VERSION_BITS,
    KeySpace,
    encode_key,
)

_HASH = 2654435761  # Knuth multiplicative hash


@dataclass(frozen=True)
class PrefillSpec:
    """What the pre-existing database should look like."""

    key_count: int
    value_size: int = 1024

    def __post_init__(self) -> None:
        if self.key_count <= 0:
            raise WorkloadError(f"key_count must be positive: {self.key_count}")
        if self.value_size <= 0:
            raise WorkloadError(f"value_size must be positive: {self.value_size}")

    @property
    def entry_bytes(self) -> int:
        return entry_bytes(KEY_WIDTH, self.value_size)

    @property
    def total_bytes(self) -> int:
        return self.key_count * self.entry_bytes

    def keyspace(self) -> KeySpace:
        return KeySpace(self.key_count)


_FILL_FACTOR = 0.9  # fill shallow levels to 90% of target: steady state,
# not already past the compaction trigger


def _level_budgets(db: DB, total_bytes: int) -> Dict[int, int]:
    """Bytes per level: L1..L(k-1) near target, deepest level takes the rest."""
    opts = db.options
    budgets: Dict[int, int] = {}
    remaining = total_bytes
    for level in range(1, NUM_LEVELS):
        if level == NUM_LEVELS - 1:
            budgets[level] = remaining
            remaining = 0
            break
        cap = int(opts.max_bytes_for_level(level) * _FILL_FACTOR)
        if remaining <= cap:
            budgets[level] = remaining
            remaining = 0
            break
        budgets[level] = cap
        remaining -= cap
    return {lvl: b for lvl, b in budgets.items() if b > 0}


def _levels(n: int, thresholds: List[int]) -> List[array]:
    """Each level's positions, ascending: position ``p`` goes to level
    ``bisect_right(thresholds, (p * _HASH) & 0xFFFFFFFF)``."""
    if _np is not None:  # the same assignment, vectorized
        hashes = _np.arange(n, dtype=_np.int64) * _HASH & 0xFFFFFFFF
        level = _np.searchsorted(thresholds, hashes, "right")
        return [array("q", _np.flatnonzero(level == i).tobytes()) for i in range(len(thresholds) + 1)]
    per_level = [array("q") for _ in range(len(thresholds) + 1)]
    for position in range(n):
        per_level[bisect_right(thresholds, (position * _HASH) & 0xFFFFFFFF)].append(position)
    return per_level


def _to_seeds(positions: array, start: int, end: int) -> None:
    """Shift ``positions[start:end]`` in place to ``benchmark_value(p, size).seed``."""
    if _np is not None:  # through a view of the same memory
        _np.frombuffer(positions, "q")[start:end] <<= VERSION_BITS
    else:  # as one integer: no element carries into the next while p < 2**(63 - VERSION_BITS)
        whole = int.from_bytes(positions[start:end], sys.byteorder) << VERSION_BITS
        positions[start:end] = array("q", whole.to_bytes((end - start) * 8, sys.byteorder))


#: The keys of a table's window ``positions[start:end]`` of a level's positions.
_TableKeys = Callable[[array, int, int], Tuple[bytes, ...]]


def _key_encoder() -> _TableKeys:
    """``encode_key`` over a table's ascending positions, as one numpy pass.

    ``unravel_index`` splits each position into four groups of four decimal
    digits, and a 10,000-entry table maps a group to its four ASCII bytes
    (one ``uint32``), so ``tolist()`` of the ``S16`` rows makes the table's
    ``bytes`` objects together.  The rows are reused and grow only to the
    largest table.  A run with a position outside ``[0, 10**16)`` and pure
    Python (no numpy) take ``encode_key`` per position: the same bytes, and
    its 17-digit key or its error.
    """

    def per_key(positions: array, start: int, end: int) -> Tuple[bytes, ...]:
        return tuple(map(encode_key, positions[start:end]))

    if _np is None:
        return per_key
    digit = _np.frombuffer(b"0123456789", _np.uint8)
    four_digits = _np.empty((10, 10, 10, 10, 4), _np.uint8)  # [a, b, c, d] -> b"abcd"
    four_digits[..., 0] = digit[:, None, None, None]
    four_digits[..., 1] = digit[:, None, None]
    four_digits[..., 2] = digit[:, None]
    four_digits[..., 3] = digit
    lut = four_digits.view(_np.uint32).ravel()
    rows = _np.empty((0, 4), _np.uint32)

    def encode(positions: array, start: int, end: int) -> Tuple[bytes, ...]:
        nonlocal rows
        m = end - start
        if not m:
            return ()
        run = _np.frombuffer(positions, "q")[start:end]
        if run[0] < 0 or run[-1] >= 10**16:
            return per_key(positions, start, end)
        if len(rows) < m:
            rows = _np.empty((m, 4), _np.uint32)
        text = rows[:m]
        # "clip" writes ``out`` directly (every group is below 10,000 anyway).
        lut.take(_np.unravel_index(run, (10_000,) * 4), out=text.T, mode="clip")
        return tuple(text.view("S16").ravel().tolist())

    return encode


def _install(
    db: DB,
    n: int,
    table_keys: _TableKeys,
    entry_sizes: Union[int, array],
    value_sizes: Union[int, array],
) -> Dict[int, int]:
    """Install ``n`` ascending keys as the steady-state shape; returns
    files-per-level.  ``entry_sizes`` and ``value_sizes`` are the data-block
    footprint and value size of every entry (an ``int``) or of each
    position's entry (an ``array('q')``).

    Each key's *position* hashes to a level with probability proportional to
    the level's byte budget, so every level's files span the whole key range.
    Files and blocks are cut from entry sizes; no entry is built.
    Keys are made table by table (``table_keys`` of the table's window of a
    level's positions), so a table's key objects sit together in memory:
    ``bisect`` over them is the read path's hot loop.
    """
    if db.versions.current.num_files() != 0:
        raise WorkloadError("prefill requires an empty database")
    if (value_sizes if isinstance(value_sizes, int) else min(value_sizes)) <= 0:
        raise WorkloadError("value size must be positive")
    data_bytes = entry_sizes * n if isinstance(entry_sizes, int) else sum(entry_sizes)
    budgets = _level_budgets(db, data_bytes)
    if not budgets:
        raise WorkloadError("no level budget computed")
    levels = sorted(budgets)
    total = sum(budgets.values())
    # Cumulative probability thresholds scaled to 2^32; the deepest level takes the rest.
    thresholds = [int(acc / total * (1 << 32)) for acc in accumulate(map(budgets.get, levels[:-1]))]

    opts = db.options
    edit = VersionEdit()
    files_per_level: Dict[int, int] = {}
    seq = db.versions.last_sequence
    per_level = _levels(n, thresholds)
    for level in levels:
        # Popped: a file's columns are windows copied out of the level's, so a
        # finished level's positions are freed before the next level's keys
        # are made.
        positions = per_level.pop(0)
        target = opts.target_file_size(level)
        # The level is one run of columns, each file a window of it; the value
        # seeds are the positions, shifted in place once a file's keys are read.
        run = EntryColumns(
            range(seq + 1, seq + 1 + len(positions)), KIND_PUT, gather(entry_sizes, positions),
            seeds=positions, vsizes=gather(value_sizes, positions),
        )
        cum = run.cumulative()  # a range when every entry has one size
        start = 0
        while start < len(positions):
            # A file closes with the entry that takes it to the target size.
            end = min(len(positions), bisect_left(cum, cum[start] + target))
            keys = table_keys(positions, start, end)
            _to_seeds(positions, start, end)
            sst = SSTable.build(
                db.versions.new_file_number(), keys, run[start:end],
                opts.block_size, opts.bloom_bits_per_key, largest_seq=seq + end,
            )
            f = db.fs.install_synced(sst_path(sst.number), sst.file_bytes)
            f.payload = sst
            edit.add_file(level, FileMetadata(sst.number, sst, f, level))
            files_per_level[level] = files_per_level.get(level, 0) + 1
            start = end
        seq += len(positions)

    db.versions.last_sequence = seq
    db.versions.apply(edit)
    db.versions.current.check_invariants()
    db.stats.inc("prefill.keys", n)
    return files_per_level


def prefill(db: DB, spec: PrefillSpec) -> Dict[int, int]:
    """Populate ``db`` with ``spec.key_count`` keys; returns files-per-level.

    Deterministic: each key index hashes to a level with probability
    proportional to the level's byte budget, so every level's files span the
    whole key space (the real read-amplification shape: a GET walks through
    every level above the key's home level before finding it).
    """
    return _install(db, spec.key_count, _key_encoder(), spec.entry_bytes, spec.value_size)


def prefill_keys(
    db: DB,
    keys: Sequence[bytes],
    value_size: int = 1024,
    value_sizes: Optional[Sequence[int]] = None,
) -> Dict[int, int]:
    """Like :func:`prefill` but over an explicit sorted key list.

    Serving shards need this: consistent-hash routing hands each shard a
    scattered (non-contiguous) subset of the tenants' prefixed key spaces,
    so the shard's pre-existing LSM shape must be built from those exact
    keys.  Level assignment hashes the key's *position* — same scheme as
    :func:`prefill`, so every level spans the shard's whole key range.
    ``value_sizes`` optionally gives a per-key value size (tenants with
    different value specs sharing one shard).
    """
    if not keys:
        return {}
    if value_sizes is not None and len(value_sizes) != len(keys):
        raise WorkloadError("value_sizes must align with keys")
    if any(map(ge, keys, islice(keys, 1, None))):
        raise WorkloadError("prefill_keys requires strictly ascending keys")
    sizes = value_size if value_sizes is None else array("q", value_sizes)

    def table_keys(positions: array, start: int, end: int) -> Tuple[bytes, ...]:
        return tuple(map(keys.__getitem__, positions[start:end]))

    return _install(db, len(keys), table_keys, file_sizes(keys, sizes), sizes)
