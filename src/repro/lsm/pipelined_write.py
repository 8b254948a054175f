"""The writer queue — the paper's **Algorithm 2** (PIPELINED WRITE PROCESS).

RocksDB keeps one queue of writer threads.  The thread at the head becomes
the *leader* of a write batch group: it drains waiting writers into its
group (bounded by ``max_write_batch_group_size``), appends one combined WAL
record, and then every group member applies its own batch to the memtable.
With pipelined writes (the default here, matching the paper's analysis) the
next leader is promoted as soon as the previous group finishes its WAL
phase, so WAL writing of group N+1 overlaps memtable insertion of group N.

The queue also measures the paper's Figure 16 metric: the time-averaged
number of writers waiting in the queue.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.errors import DBError
from repro.lsm.format import Entry
from repro.sim.engine import Engine, Event
from repro.sim.stats import TimeWeightedGauge

ROLE_LEADER = "leader"
ROLE_MEMBER = "member"


class Writer:
    """One queued write (a batch plus its wakeup event)."""

    __slots__ = ("records", "nbytes", "event", "group", "wal_number")

    def __init__(
        self,
        records: List[Tuple[bytes, Entry]],
        nbytes: int,
        event: Optional[Event] = None,
    ):
        self.records = records
        self.nbytes = nbytes
        # Allocated lazily by WriteQueue.join(): a writer that becomes leader
        # at join time (the common case at low queue depth) never parks on an
        # event, and event construction is observable to nothing else.
        self.event = event
        # Set by WriteQueue.form_group() and cleared by member_done() or
        # fail_group(): the group lists its writers, so a link left behind
        # would make every write a reference cycle only the collector frees.
        self.group: Optional["WriteGroup"] = None
        # WAL file number this writer's records were logged in (set by the
        # group leader; used to keep WAL lifetimes crash-safe).
        self.wal_number = 0


class WriteGroup:
    """The set of writers committed together by one leader."""

    __slots__ = ("writers", "total_bytes", "pending")

    def __init__(self, leader: Writer) -> None:
        self.writers: List[Writer] = [leader]
        self.total_bytes = leader.nbytes
        self.pending = 0  # memtable inserts still running

    def add(self, writer: Writer) -> None:
        self.writers.append(writer)
        self.total_bytes += writer.nbytes

    def all_records(self) -> List[Tuple[bytes, Entry]]:
        out: List[Tuple[bytes, Entry]] = []
        for w in self.writers:
            out.extend(w.records)
        return out

    def __len__(self) -> int:
        return len(self.writers)


class WriteQueue:
    """Single writer queue with leader election and group formation."""

    def __init__(self, engine: Engine, max_group_bytes: int, pipelined: bool) -> None:
        if max_group_bytes <= 0:
            raise DBError(f"max_group_bytes must be positive: {max_group_bytes}")
        self.engine = engine
        self.max_group_bytes = max_group_bytes
        self.pipelined = pipelined
        self._waiting: Deque[Writer] = deque()
        self._has_leader = False
        self.waiting_gauge = TimeWeightedGauge("write-queue")
        self.groups_formed = 0
        self.writers_grouped = 0

    @property
    def waiting_count(self) -> int:
        return len(self._waiting)

    def _touch_gauge(self) -> None:
        gauge = self.waiting_gauge
        n = len(self._waiting)
        now = self.engine._now
        last_t = gauge._last_t
        if last_t is None:
            gauge.update(now, n)
            return
        value = gauge._value
        # Zero-to-zero touches (the solo-leader steady state) contribute
        # exactly +0.0 area; skipping the full update keeps the gauge state
        # bit-identical while halving its cost on write-heavy benchmarks.
        if n == 0 and value == 0.0:
            gauge._last_t = now
            return
        # TimeWeightedGauge.update() inlined — the queue touches the gauge on
        # every writer transition, and the engine clock is monotonic so the
        # update's past-timestamp guard cannot fire from here.
        gauge._area += value * (now - last_t)
        gauge._last_t = now
        gauge._value = n
        if n > gauge.max_value:
            gauge.max_value = n

    # -- join / leave -----------------------------------------------------------

    def join(self, writer: Writer) -> bool:
        """Add a writer; True if it becomes leader immediately."""
        if not self._has_leader:
            self._has_leader = True
            return True
        if writer.event is None:
            writer.event = self.engine.event()
        self._waiting.append(writer)
        self._touch_gauge()
        return False

    def form_group(self, leader: Writer) -> WriteGroup:
        """Leader drains waiting writers into its group (size-capped)."""
        group = WriteGroup(leader)
        leader.group = group
        # Like RocksDB, the size cap is checked before adding, so one group
        # may exceed it by at most one batch.
        drained = False
        while self._waiting and group.total_bytes < self.max_group_bytes:
            writer = self._waiting.popleft()
            writer.group = group
            group.add(writer)
            drained = True
        if drained:
            self._touch_gauge()
        # No drain leaves the queue length unchanged, and a gauge touch at
        # an unchanged value adds exactly the area the next real update
        # accrues anyway — skipping it is exact, not an approximation.
        group.pending = len(group)
        self.groups_formed += 1
        self.writers_grouped += len(group)
        return group

    def wal_phase_done(self, group: WriteGroup) -> None:
        """Wake group members for the memtable phase; maybe promote a leader.

        In pipelined mode leadership transfers now (the next group's WAL
        write overlaps this group's memtable inserts).
        """
        for member in group.writers[1:]:
            member.event.succeed(ROLE_MEMBER)
        if self.pipelined:
            self._promote_next()

    def fail_group(self, group: WriteGroup, exc: BaseException) -> None:
        """The leader's write failed before the memtable phase: propagate.

        Members are parked on their role events; without this they would
        wait forever (the silent-hang the background-error work removes).
        Each still-waiting member's event fails with ``exc`` — the member
        raises it from its own ``write()`` — and leadership moves on.
        Never called after :meth:`wal_phase_done` for the same group, so
        leadership is handed off exactly once either way.
        """
        for member in group.writers[1:]:
            if not member.event.triggered:
                member.event.fail(exc)
            # The member raises ``exc`` with ``writer`` in its frame: a link
            # to the failed event would close a cycle through the traceback.
            member.event = None
        for member in group.writers:
            member.group = None
        group.pending = 0
        self._promote_next()

    def member_done(self, writer: Writer) -> None:
        """``writer`` finished its memtable insert: it leaves its group."""
        group = writer.group
        if group is None:
            raise DBError("writer finished outside a write group")
        writer.group = None
        group.pending -= 1
        if group.pending == 0 and not self.pipelined:
            self._promote_next()

    def _promote_next(self) -> None:
        if self._waiting:
            nxt = self._waiting.popleft()
            self._touch_gauge()
            nxt.event.succeed(ROLE_LEADER)
        else:
            self._has_leader = False

    def mean_waiting(self) -> float:
        """Time-averaged queue length (Figure 16's metric)."""
        return self.waiting_gauge.mean(self.engine.now)
