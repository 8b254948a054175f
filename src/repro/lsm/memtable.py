"""Memtables: the in-memory write buffer of the LSM tree.

Two representations are provided, mirroring RocksDB's pluggable memtable
reps:

* :class:`SkipListRep` — a real skiplist (default; supports cheap ordered
  iteration at any time);
* :class:`HashRep` — a dict that sorts on flush (much faster in Python;
  used by the benchmark harness).

Both charge identical *simulated* CPU costs through the
:class:`~repro.lsm.costs.CostModel`, so they are interchangeable for every
measurement; only host-Python speed differs.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, List, Optional, Tuple

from repro.errors import DBError
from repro.lsm.format import Entry, entry_charge
from repro.lsm.options import HASH_REP, SKIPLIST_REP
from repro.lsm.skiplist import SkipList
from repro.lsm.value import ValueRef
from repro.sim.rng import RandomStream


class MemTableRep:
    """Interface of a memtable representation."""

    __slots__ = ()

    def insert(self, key: bytes, entry: Entry) -> bool:
        raise NotImplementedError

    def lookup(self, key: bytes) -> Optional[Entry]:
        raise NotImplementedError

    def sorted_items(self) -> Iterator[Tuple[bytes, Entry]]:
        raise NotImplementedError

    def sorted_columns(self) -> Tuple[Tuple[bytes, ...], List[Entry]]:
        """The keys (a tuple) and their entries, in key order."""
        return (
            tuple(map(itemgetter(0), self.sorted_items())),
            list(map(itemgetter(1), self.sorted_items())),
        )

    def __len__(self) -> int:
        raise NotImplementedError


class SkipListRep(MemTableRep):
    __slots__ = ("_list",)

    def __init__(self, rng: Optional[RandomStream] = None) -> None:
        self._list = SkipList(rng)

    def insert(self, key: bytes, entry: Entry) -> bool:
        return self._list.insert(key, entry)

    def lookup(self, key: bytes) -> Optional[Entry]:
        return self._list.get(key)

    def sorted_items(self) -> Iterator[Tuple[bytes, Entry]]:
        return iter(self._list)

    def __len__(self) -> int:
        return len(self._list)


class HashRep(MemTableRep):
    __slots__ = ("_map",)

    def __init__(self) -> None:
        self._map: dict = {}

    def insert(self, key: bytes, entry: Entry) -> bool:
        new = key not in self._map
        self._map[key] = entry
        return new

    def lookup(self, key: bytes) -> Optional[Entry]:
        return self._map.get(key)

    def sorted_items(self) -> Iterator[Tuple[bytes, Entry]]:
        keys = sorted(self._map)
        return zip(keys, map(self._map.__getitem__, keys))

    def sorted_columns(self) -> Tuple[Tuple[bytes, ...], List[Entry]]:
        keys = sorted(self._map)  # one sort, in C, and no tuple per entry
        return tuple(keys), list(map(self._map.__getitem__, keys))

    def __len__(self) -> int:
        return len(self._map)


def make_rep(name: str, rng: Optional[RandomStream] = None) -> MemTableRep:
    if name == SKIPLIST_REP:
        return SkipListRep(rng)
    if name == HASH_REP:
        return HashRep()
    raise DBError(f"unknown memtable rep {name!r}")


ENTRY_OVERHEAD = 64  # bytes charged per entry, like RocksDB's arena


class MemTable:
    """One write buffer; becomes immutable when full, then flushes to L0."""

    __slots__ = (
        "id",
        "_rep",
        "entry_count",
        "charged_bytes",
        "immutable",
        "first_seq",
        "last_seq",
        "flush_in_progress",
        "min_log_number",
    )

    _ids = 0

    def __init__(
        self,
        rep: str = SKIPLIST_REP,
        rng: Optional[RandomStream] = None,
    ) -> None:
        MemTable._ids += 1
        self.id = MemTable._ids
        self._rep = make_rep(rep, rng)
        self.entry_count = 0  # distinct keys, counted by add()
        self.charged_bytes = 0
        self.immutable = False
        self.first_seq: Optional[int] = None
        self.last_seq: Optional[int] = None
        # True while a FlushJob is writing this memtable out — the error
        # handler's resume pass skips those to avoid double flushes.
        self.flush_in_progress = False
        # Oldest WAL number whose records this memtable holds (set by DB).
        self.min_log_number = 0

    def __len__(self) -> int:
        return self.entry_count

    def add(self, key: bytes, entry: Entry) -> None:
        """Insert an entry; latest (seq, kind, value) per key wins."""
        if self.immutable:
            raise DBError("insert into an immutable memtable")
        if key.__class__ is not bytes and not isinstance(key, bytes):
            raise DBError(f"keys must be bytes, got {type(key).__name__}")
        seq = entry[0]
        if self._rep.insert(key, entry):
            self.entry_count += 1
            value = entry[2]
            if value.__class__ is ValueRef:  # entry_charge() inline
                self.charged_bytes += len(key) + value.size + ENTRY_OVERHEAD
            else:
                self.charged_bytes += entry_charge(key, entry, ENTRY_OVERHEAD)
        # Overwrites charge nothing: the slot is reused in place.
        if self.first_seq is None:
            self.first_seq = seq
        self.last_seq = seq

    def get(self, key: bytes) -> Optional[Entry]:
        """Latest entry for ``key`` (including tombstones) or None."""
        return self._rep.lookup(key)

    def mark_immutable(self) -> None:
        self.immutable = True

    def is_empty(self) -> bool:
        return self.entry_count == 0

    def sorted_items(self) -> Iterator[Tuple[bytes, Entry]]:
        """All (key, entry) pairs in key order (used by scans)."""
        return self._rep.sorted_items()

    def sorted_columns(self) -> Tuple[Tuple[bytes, ...], List[Entry]]:
        """The keys (a tuple) and their entries, in key order: a flush's
        input, built without a (key, entry) pair per entry."""
        return self._rep.sorted_columns()


class MemTableList:
    """The mutable memtable plus the queue of immutables awaiting flush."""

    __slots__ = ("_factory", "mutable", "immutables")

    def __init__(self, factory) -> None:
        self._factory = factory
        self.mutable: MemTable = factory()
        self.immutables: List[MemTable] = []  # oldest first

    @property
    def count(self) -> int:
        return 1 + len(self.immutables)

    def switch(self) -> MemTable:
        """Seal the mutable memtable and allocate a fresh one."""
        sealed = self.mutable
        sealed.mark_immutable()
        self.immutables.append(sealed)
        self.mutable = self._factory()
        return sealed

    def lookup(self, key: bytes) -> Optional[Entry]:
        """Check mutable first, then immutables newest-first."""
        entry = self.mutable.get(key)
        if entry is not None:
            return entry
        for table in reversed(self.immutables):
            entry = table.get(key)
            if entry is not None:
                return entry
        return None

    def tables_newest_first(self) -> List[MemTable]:
        return [self.mutable] + list(reversed(self.immutables))
