"""Database pre-population (db_bench's ``--use_existing_db`` fixture).

The paper benchmarks against an existing ~100 GB database.  Simulating the
initial fill op-by-op would dwarf the measured run, so the prefiller builds
the steady-state LSM shape directly: keys are deterministically distributed
across levels (L1 .. Lk filled to their byte targets, the remainder in the
deepest level), cut into target-size SST files on durably "synced" files,
and installed by one version edit.  The page cache starts cold, as after a
reboot.  The edit is applied in memory and never logged to MANIFEST: a
prefilled database does not survive a reopen (ROADMAP item 1).

A prefilled table holds its keys — C ``bisect`` over the key list *is* the
index — but not its entries: each is a function of the key's position, so
the table regenerates it when read (:class:`_RegeneratedEntries`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, count, islice, repeat
from operator import ge
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.errors import WorkloadError
from repro.lsm.db import DB
from repro.lsm.format import KIND_PUT, Entry
from repro.lsm.sst import SSTable
from repro.lsm.version import FileMetadata, VersionEdit
from repro.workloads.generators import (
    KEY_WIDTH,
    KeySpace,
    ValueSpec,
    benchmark_value,
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
        return KEY_WIDTH + self.value_size + 8  # key + value + header

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


class _RegeneratedEntries:
    """Read-only ``Sequence[Entry]`` of one prefilled table.

    Entry ``j`` is a pure function of its key's position in the prefilled
    key list — ``(first_seq + j, KIND_PUT, benchmark_value(position, size))``
    — so it is rebuilt when read instead of being held (the
    :class:`~repro.lsm.value.ValueRef` idea one level up).
    """

    __slots__ = ("_positions", "_first_seq", "_value_size", "_value_sizes")

    def __init__(self, positions, first_seq, value_size, value_sizes) -> None:
        self._positions = positions  # array('q'), aligned with the table's keys
        self._first_seq = first_seq
        self._value_size = value_size
        self._value_sizes = value_sizes  # per position, or None: value_size

    def __len__(self) -> int:
        return len(self._positions)

    def __getitem__(self, j: int) -> Entry:
        position = self._positions[j]  # IndexError past either end
        if j < 0:
            j += len(self._positions)
        sizes = self._value_sizes
        size = self._value_size if sizes is None else sizes[position]
        return (self._first_seq + j, KIND_PUT, benchmark_value(position, size))

    def __iter__(self) -> Iterator[Entry]:
        sizes = self._value_sizes
        sizes = repeat(self._value_size) if sizes is None else map(sizes.__getitem__, self._positions)
        values = map(benchmark_value, self._positions, sizes)
        return zip(count(self._first_seq), repeat(KIND_PUT), values)


def _install(
    db: DB,
    n: int,
    key_at: Callable[[int], bytes],
    entry_sizes: Union[int, Sequence[int]],
    value_size: int,
    value_sizes: Optional[Sequence[int]],
) -> Dict[int, int]:
    """Install ``n`` ascending keys as the steady-state shape; returns
    files-per-level.  ``entry_sizes`` is the data-block footprint of every
    entry (an ``int``) or of each position's entry (a sequence).

    Each key's *position* hashes to a level with probability proportional to
    the level's byte budget, so every level's files span the whole key range.
    Files and blocks are cut from cumulative entry sizes; no entry is built.
    Keys are fetched table by table (``key_at``), so a table's key objects sit
    together in memory: ``bisect`` over them is the read path's hot loop.
    """
    if db.versions.current.num_files() != 0:
        raise WorkloadError("prefill requires an empty database")
    if (value_size if value_sizes is None else min(value_sizes)) <= 0:
        raise WorkloadError("value size must be positive")
    uniform = isinstance(entry_sizes, int)
    budgets = _level_budgets(db, entry_sizes * n if uniform else sum(entry_sizes))
    if not budgets:
        raise WorkloadError("no level budget computed")
    levels = sorted(budgets)
    total = sum(budgets.values())
    # Cumulative probability thresholds scaled to 2^32; the deepest level
    # takes whatever hashes past the last one.
    thresholds: List[int] = []
    acc = 0
    for level in levels[:-1]:
        acc += budgets[level]
        thresholds.append(int(acc / total * (1 << 32)))
    per_level = [array("q") for _ in levels]
    for position in range(n):
        per_level[bisect_right(thresholds, (position * _HASH) & 0xFFFFFFFF)].append(position)

    opts = db.options
    edit = VersionEdit()
    files_per_level: Dict[int, int] = {}
    seq = db.versions.last_sequence
    for level, positions in zip(levels, per_level):
        target = opts.target_file_size(level)
        # cum[i]: bytes of the level's first i entries — a range when uniform.
        if uniform:
            cum = range(0, (len(positions) + 1) * entry_sizes, entry_sizes)
        else:
            cum = array("q", accumulate(map(entry_sizes.__getitem__, positions), initial=0))
        start = 0
        while start < len(positions):
            # A file closes with the entry that takes it to the target size.
            end = min(len(positions), bisect_left(cum, cum[start] + target))
            chosen = positions[start:end]
            entries = _RegeneratedEntries(chosen, seq + 1, value_size, value_sizes)
            seq += end - start
            sst = SSTable.build(
                db.versions.new_file_number(), list(map(key_at, chosen)), entries, cum, start,
                opts.block_size, opts.bloom_bits_per_key, largest_seq=seq,
            )
            f = db.fs.install_synced(f"sst/{sst.number:06d}.sst", sst.file_bytes)
            f.payload = sst
            edit.add_file(level, FileMetadata(sst.number, sst, f, level))
            files_per_level[level] = files_per_level.get(level, 0) + 1
            start = end

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
    return _install(db, spec.key_count, encode_key, spec.entry_bytes, spec.value_size, None)


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
    sizes = repeat(value_size) if value_sizes is None else value_sizes
    entry_sizes = array("q", map(sum, zip(map(len, keys), sizes, repeat(8))))
    return _install(db, len(keys), keys.__getitem__, entry_sizes, value_size, value_sizes)
