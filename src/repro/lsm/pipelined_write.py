"""The writer queue — the paper's **Algorithm 2** (PIPELINED WRITE PROCESS).

RocksDB keeps one queue of writer threads.  The thread at the head becomes
the *leader* of a write batch group: it drains waiting writers into its
group (bounded by ``MAX_WRITE_BATCH_GROUP_SIZE``), appends one combined WAL
record, and then every group member applies its own batch to the memtable.
Writes are pipelined (RocksDB's ``enable_pipelined_write``, the mode the
paper analyses): the next leader is promoted as soon as the previous group
finishes its WAL phase, so WAL writing of group N+1 overlaps memtable
insertion of group N.

The queue also measures the paper's Figure 16 metric: the time-averaged
number of writers waiting in the queue.  That average is the sum of every
writer's wait (enqueue to drain or hand-off) over the time since the first
writer waited, so the queue keeps one integer sum and one enqueue stamp per
writer instead of a gauge it would touch at every transition.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.errors import DBError
from repro.lsm.format import Entry
from repro.sim.engine import Engine

ROLE_LEADER = "leader"
ROLE_MEMBER = "member"


class Writer:
    """One queued write (a batch plus its wakeup event)."""

    __slots__ = ("records", "nbytes", "event", "group", "wal_number", "enqueued")

    def __init__(self, records: List[Tuple[bytes, Entry]], nbytes: int):
        self.records = records
        self.nbytes = nbytes
        # Allocated lazily by WriteQueue.join(): a writer that becomes leader
        # at join time (the common case at low queue depth) never parks on an
        # event, and event construction is observable to nothing else.
        self.event = None
        # The writers committed together, leader first: set by
        # WriteQueue.form_group() and cleared by member_done() or
        # fail_group().  The group lists its writers, so a link left behind
        # would make every write a reference cycle only the collector frees.
        self.group: Optional[List["Writer"]] = None
        # WAL file number this writer's records were logged in (set by the
        # group leader; used to keep WAL lifetimes crash-safe).
        self.wal_number = 0
        # When the writer joined the queue to wait (set by join()).
        self.enqueued = 0


class WriteQueue:
    """Single writer queue with leader election and group formation."""

    def __init__(self, engine: Engine, max_group_bytes: int) -> None:
        if max_group_bytes <= 0:
            raise DBError(f"max_group_bytes must be positive: {max_group_bytes}")
        self.engine = engine
        self.max_group_bytes = max_group_bytes
        self._waiting: Deque[Writer] = deque()
        self._has_leader = False
        # Figure 16: the peak queue length, kept at enqueue (0.0 until a
        # writer waits), and the waits of the writers that left the queue,
        # summed in ns since the first writer waited.
        self.max_waiting = 0.0
        self._first_wait: Optional[int] = None
        self._waited = 0

    # -- join / leave -----------------------------------------------------------

    def join(self, writer: Writer) -> bool:
        """Add a writer; True if it becomes leader immediately."""
        if not self._has_leader:
            self._has_leader = True
            return True
        if writer.event is None:
            writer.event = self.engine.event()
        now = writer.enqueued = self.engine.now
        waiting = self._waiting
        waiting.append(writer)
        if self._first_wait is None:
            self._first_wait = now
        n = len(waiting)
        if n > self.max_waiting:
            self.max_waiting = n
        return False

    def form_group(self, leader: Writer) -> List[Writer]:
        """Leader drains waiting writers into its group (size-capped); the
        group lists its writers, leader first."""
        group = [leader]
        leader.group = group
        total_bytes = leader.nbytes
        waiting = self._waiting
        # Like RocksDB, the size cap is checked before adding, so one group
        # may exceed it by at most one batch.
        if waiting and total_bytes < self.max_group_bytes:
            now = self.engine.now
            waited = self._waited
            while waiting and total_bytes < self.max_group_bytes:
                writer = waiting.popleft()
                waited += now - writer.enqueued
                writer.group = group
                group.append(writer)
                total_bytes += writer.nbytes
            self._waited = waited
        return group

    def wal_phase_done(self, group: List[Writer]) -> None:
        """Wake group members for the memtable phase and promote the next
        leader: its WAL write overlaps this group's memtable inserts."""
        for member in group[1:]:
            member.event.succeed(ROLE_MEMBER)
        if self._waiting:
            nxt = self._waiting.popleft()
            self._waited += self.engine.now - nxt.enqueued
            nxt.event.succeed(ROLE_LEADER)
        else:
            self._has_leader = False

    def fail_group(self, group: List[Writer], exc: BaseException) -> None:
        """The leader's write failed before the memtable phase: propagate.

        Members are parked on their role events; without this they would
        wait forever (the silent-hang the background-error work removes).
        Each still-waiting member's event fails with ``exc`` — the member
        raises it from its own ``write()`` — and leadership moves on.
        Never called after :meth:`wal_phase_done` for the same group, so
        leadership is handed off exactly once either way.
        """
        for member in group[1:]:
            if not member.event.triggered:
                member.event.fail(exc)
            # The member raises ``exc`` with ``writer`` in its frame: a link
            # to the failed event would close a cycle through the traceback.
            member.event = None
        for member in group:
            member.group = None
        # Leadership moves on as in wal_phase_done.
        if self._waiting:
            nxt = self._waiting.popleft()
            self._waited += self.engine.now - nxt.enqueued
            nxt.event.succeed(ROLE_LEADER)
        else:
            self._has_leader = False

    def member_done(self, writer: Writer) -> None:
        """``writer`` finished its memtable insert: it leaves its group."""
        if writer.group is None:
            raise DBError("writer finished outside a write group")
        writer.group = None

    def mean_waiting(self) -> float:
        """Time-averaged queue length (Figure 16's metric): the summed waits,
        open ones included, over the time since the first writer waited."""
        start = self._first_wait
        if start is None:
            return 0.0
        now = self.engine.now
        waited = self._waited
        for writer in self._waiting:
            waited += now - writer.enqueued
        return waited / (now - start) if now > start else len(self._waiting)
