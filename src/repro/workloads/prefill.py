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
is the value seeds.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import ge
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.errors import WorkloadError
from repro.lsm.db import DB
from repro.lsm.format import KIND_PUT, entry_bytes
from repro.lsm.sst import EntryColumns, SSTable, file_sizes, gather
from repro.lsm.version import FileMetadata, VersionEdit
from repro.sim.stats import _np  # optional accelerator: None forces pure Python
from repro.workloads.generators import (
    KEY_WIDTH,
    VERSION_BITS,
    KeySpace,
    ValueSpec,
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

    def value_spec(self) -> ValueSpec:
        return ValueSpec(self.value_size)


_FILL_FACTOR = 0.9  # fill shallow levels to 90% of target: steady state,
# not already past the compaction trigger


def _level_budgets(db: DB, total_bytes: int) -> Dict[int, int]:
    """Bytes per level: L1..L(k-1) near target, deepest level takes the rest."""
    opts = db.options
    budgets: Dict[int, int] = {}
    remaining = total_bytes
    for level in range(1, opts.num_levels):
        if level == opts.num_levels - 1:
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


def _install(
    db: DB,
    n: int,
    key_at: Callable[[int], bytes],
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
    Keys are fetched table by table (``key_at``), so a table's key objects sit
    together in memory: ``bisect`` over them is the read path's hot loop.
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
    for level, positions in zip(levels, _levels(n, thresholds)):
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
            keys = tuple(map(key_at, positions[start:end]))
            _to_seeds(positions, start, end)
            sst = SSTable.build(
                db.versions.new_file_number(), keys, run[start:end],
                opts.block_size, opts.bloom_bits_per_key, largest_seq=seq + end,
            )
            f = db.fs.install_synced(f"sst/{sst.number:06d}.sst", sst.file_bytes)
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
    return _install(db, spec.key_count, encode_key, spec.entry_bytes, spec.value_size)


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
    return _install(db, len(keys), keys.__getitem__, file_sizes(keys, sizes), sizes)
