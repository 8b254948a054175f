"""The fault injector: interprets a schedule against a running simulation.

The injector is consulted from exactly two hook points on the host
:meth:`~repro.harness.machine.Machine.build` wires it into:
:meth:`StorageDevice.read` / :meth:`StorageDevice.write` call
:meth:`on_device_op` before the request is queued, and
:meth:`SimFile.append` calls :meth:`on_append` last — after the append and
any writeback it started, on every return path.  It is therefore fully
deterministic: fault decisions depend only on the virtual clock, the
operation counters, and the schedule's spec order.  Every injected fault
is recorded in :attr:`log` as a virtual-time-stamped line, so two runs of
the same seed can be compared line-by-line.

Crash points are *requested*, not executed: a ``CRASH`` spec firing records
the reason and succeeds the :attr:`crash_requested` event (with the reason as
its value; :attr:`crash_pending` reads it).  The driving harness passes that
event as an ``Engine.run`` stop, so the run returns at the end of the
requesting instant, and performs the actual ``machine.crash()`` — the
injector cannot safely tear the world down from inside a device call.
Time-based crash points with no intervening I/O are handled by the harness
running to :meth:`due_crash_time` and then calling :meth:`poll`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import IOFaultError
from repro.faults.schedule import (
    CORRUPT_APPEND,
    CORRUPT_SST_BLOCK,
    CRASH,
    DEVICE_KINDS,
    FS_KINDS,
    LATENCY_SPIKE,
    NET_KINDS,
    READ_ERROR,
    STALL,
    TORN_APPEND,
    WRITE_ERROR,
    FaultSchedule,
    FaultSpec,
)
from repro.sim.engine import Engine
from repro.sim.stats import StatsSet


class _Armed:
    """Mutable per-spec trigger state."""

    __slots__ = ("spec", "remaining", "matched", "retired")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.remaining = spec.count
        self.matched = 0  # matching operations seen so far
        self.retired = False

    def due(self, now: int) -> bool:
        spec = self.spec
        if spec.at_time is not None and now < spec.at_time:
            return False
        if spec.at_op is not None and self.matched < spec.at_op:
            return False
        return True


class FaultInjector:
    """Deterministic schedule interpreter shared by device and filesystem."""

    def __init__(self, engine: Engine, schedule: Optional[FaultSchedule] = None) -> None:
        self.engine = engine
        self.stats = StatsSet()
        self.log: List[str] = []
        #: Succeeds, with the reason as its value, at the first crash request.
        self.crash_requested = engine.event()
        self._device_states: List[_Armed] = []
        self._fs_states: List[_Armed] = []
        #: Net-level specs are carried inertly: the injector's device/fs
        #: hooks never fire them — they are interpreted by repro.net against
        #: a cluster topology (see Network.install_schedule).
        self.net_specs: List[FaultSpec] = []
        for spec in schedule or ():
            if spec.kind in NET_KINDS:
                self.net_specs.append(spec)
                continue
            state = _Armed(spec)
            if spec.kind in DEVICE_KINDS:
                self._device_states.append(state)
            else:
                self._fs_states.append(state)

    # -- bookkeeping -------------------------------------------------------

    @property
    def active(self) -> bool:
        """True while any spec can still fire (cheap fast-path predicate)."""
        return any(not s.retired for s in self._device_states) or any(
            not s.retired for s in self._fs_states
        )

    def _record(self, line: str) -> None:
        self.log.append(f"t={self.engine.now} {line}")

    def _fire(self, state: _Armed) -> None:
        state.remaining -= 1
        if state.remaining <= 0:
            state.retired = True

    def disarm(self) -> None:
        """Retire every remaining spec (faults stop; e.g. post-crash checks)."""
        for state in self._device_states:
            state.retired = True
        for state in self._fs_states:
            state.retired = True

    @property
    def crash_pending(self) -> bool:
        return self.crash_requested.triggered

    def request_crash(self, reason: str) -> None:
        if not self.crash_pending:
            self.stats.inc("faults.crash_requests")
            self._record(f"crash requested: {reason}")
            self.crash_requested.succeed(reason)

    def due_crash_time(self) -> Optional[int]:
        """Earliest pending time-only crash point, for harness polling."""
        times = [
            s.spec.at_time
            for s in self._device_states
            if s.spec.kind == CRASH
            and not s.retired
            and s.spec.at_time is not None
            and s.spec.at_op is None
        ]
        return min(times) if times else None

    def poll(self) -> bool:
        """Fire any time-only crash spec that is now due; returns the flag."""
        now = self.engine.now
        for state in self._device_states:
            spec = state.spec
            if (
                spec.kind == CRASH
                and not state.retired
                and spec.at_op is None
                and spec.at_time is not None
                and now >= spec.at_time
            ):
                state.retired = True
                self.request_crash(f"crash at_time={spec.at_time}")
        return self.crash_pending

    # -- device hook -------------------------------------------------------

    def on_device_op(self, op: str) -> int:
        """Consult the schedule for one device submission.

        ``op`` is ``"read"`` or ``"write"``.  Returns extra completion
        latency in ns (0 normally); raises :class:`IOFaultError` when an
        error spec fires.  Spec order is the tie-break: the first due
        error spec raises, after latency contributions from earlier specs
        are discarded (the request never completes).
        """
        now = self.engine.now
        extra = 0
        for state in self._device_states:
            if state.retired:
                continue
            spec = state.spec
            if spec.until_time is not None and now > spec.until_time:
                state.retired = True  # storm window closed
                continue
            if spec.kind == READ_ERROR and op != "read":
                continue
            if spec.kind == WRITE_ERROR and op != "write":
                continue
            state.matched += 1
            if not state.due(now):
                continue
            if spec.kind == CRASH:
                state.retired = True
                self.request_crash(f"crash on device {op} #{state.matched}")
            elif spec.kind in (LATENCY_SPIKE, STALL):
                self._fire(state)
                extra += spec.extra_ns
                self.stats.inc(f"faults.{spec.kind}")
                self._record(f"{spec.kind} {op} +{spec.extra_ns}ns")
            else:
                self._fire(state)
                self.stats.inc(f"faults.{spec.kind}")
                self._record(
                    f"{spec.kind} {op} transient={spec.transient}"
                )
                raise IOFaultError(
                    f"injected {spec.kind} on device {op}",
                    op=op,
                    transient=spec.transient,
                )
        return extra

    # -- filesystem hook ---------------------------------------------------

    def on_append(self, file, offset: int, nbytes: int) -> None:
        """Consult the schedule for one file append (already applied).

        ``offset`` is where the appended record starts.  Torn appends
        advance the durable watermark into the middle of the record —
        exactly the state a power cut mid-writeback leaves behind;
        corruption faults mark the media range bad or flip an SST block
        checksum in the file's payload.
        """
        now = self.engine.now
        for state in self._fs_states:
            if state.retired:
                continue
            spec = state.spec
            if spec.until_time is not None and now > spec.until_time:
                state.retired = True  # storm window closed
                continue
            if spec.path is not None and not file.path.startswith(spec.path):
                continue
            state.matched += 1
            if not state.due(now):
                continue
            self._fire(state)
            self.stats.inc(f"faults.{spec.kind}")
            if spec.kind == TORN_APPEND:
                # Half the record becomes durable: recovery must detect the
                # tear (torn tail below the sync watermark) via checksums.
                torn = offset + max(1, nbytes // 2)
                if torn > file.synced_size:
                    file.synced_size = torn
                    file._flushed_size = max(file._flushed_size, torn)
                file.fs.stats.inc("injected_torn_appends")
                self._record(f"torn_append {file.path} @{offset}+{nbytes} torn_to={torn}")
            elif spec.kind == CORRUPT_APPEND:
                file.mark_corrupt(offset, nbytes)
                self._record(f"corrupt_append {file.path} @{offset}+{nbytes}")
            elif spec.kind == CORRUPT_SST_BLOCK:
                sst = getattr(file, "payload", None)
                if sst is not None and hasattr(sst, "corrupt_block_checksum"):
                    block = spec.block if spec.block is not None else 0
                    block %= max(1, sst.block_count)
                    sst.corrupt_block_checksum(block)
                    self._record(f"corrupt_sst_block {file.path} block={block}")
                else:
                    # No table payload attached (yet): fall back to media damage.
                    file.mark_corrupt(offset, nbytes)
                    self._record(f"corrupt_sst_block {file.path} fallback @{offset}")
