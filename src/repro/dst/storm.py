"""Storm-then-clear DST: degraded-mode entry, auto-resume, and liveness.

Where the crash harness (:mod:`repro.dst.harness`) asks "did the crash
lose acked data?", this one asks the graceful-degradation questions: when
a *transient* fault storm or a *temporary* disk-full squeeze hits the
background machinery, does the DB (a) enter degraded mode instead of
dying, (b) keep detecting and rejecting what it must (typed errors to the
client, never silent loss), (c) auto-resume once the storm clears, and
(d) quiesce within a bounded amount of virtual time?

Three storm kinds, chosen per seed under ``auto``:

- ``io``    — a window of injected transient write (and sometimes read)
  faults.  The WAL runs buffered so the faults surface at background
  fsyncs (flush / compaction / manifest), exercising the error handler
  rather than the client's own retry path.
- ``space`` — a timed quota squeeze: at the window start the filesystem
  quota drops to just above current usage, so flushes, compactions and
  synced WAL writes start seeing ENOSPC; at the window end it lifts.
- ``mixed`` — both at once.

Because there is no crash, the durability contract is *exact*: every
acked write is visible, every unacked write is not (single client, so a
failed group can't be half-applied).  The final probe write must succeed
— a DB that stays read-only after the storm cleared fails ``liveness``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dst.core import GET, PUT, Op, RunResult, Scenario, apply_write, gen_ops
from repro.errors import (
    CorruptionError,
    DBError,
    DBReadOnlyError,
    IOFaultError,
    OutOfSpaceError,
)
from repro.faults import READ_ERROR, WRITE_ERROR, FaultSchedule, FaultSpec
from repro.lsm.db import DB
from repro.lsm.options import HASH_REP, WAL_BUFFERED, WAL_SYNC, Options
from repro.sim.engine import Engine
from repro.sim.units import kb, ms, us

STORM_IO = "io"
STORM_SPACE = "space"
STORM_MIXED = "mixed"
STORM_AUTO = "auto"
STORM_KINDS = (STORM_IO, STORM_SPACE, STORM_MIXED)


PACE_NS = us(30)  # the longest think time between client ops
#: Storm window as fractions of the workload horizon: opens early enough
#: that background work is flowing, closes with time to spare.
WINDOW_OPEN_FRAC = 0.25
WINDOW_CLOSE_FRAC = 0.55
#: Quota headroom left at the squeeze.  Extents are 1 MB, so zero slack
#: means the very next file creation (flush output, WAL roll) hits ENOSPC —
#: the squeeze bites immediately instead of depending on how many extents
#: the window's workload happens to allocate.
SQUEEZE_SLACK_BYTES = 0
DRAIN_NS = ms(120)  # quiesce budget after the window closes


@dataclass
class StormConfig:
    """Knobs of one storm run (all defaulted; the seed does the exploring)."""

    kind: str = STORM_AUTO
    num_ops: int = 400
    num_keys: int = 48
    # Explicit fault schedule (e.g. a fuzzer genome or a replayed corpus
    # entry).  None keeps the seed-derived storm schedule.
    schedule: Optional[FaultSchedule] = None

    @property
    def horizon_ns(self) -> int:
        return self.num_ops * PACE_NS

    @property
    def window_ns(self) -> "tuple[int, int]":
        h = self.horizon_ns
        return int(h * WINDOW_OPEN_FRAC), int(h * WINDOW_CLOSE_FRAC)


@dataclass
class StormResult(RunResult):
    """Outcome of one run: verdict plus the degraded-mode trajectory."""

    kind: str  # resolved kind (never "auto")
    writes_issued: int
    writes_acked: int
    writes_rejected: int  # typed failures surfaced to the client
    degraded_entries: int  # times the DB entered degraded mode
    resume_successes: int
    went_read_only: bool  # reached hard/fatal at least once
    quiesce_ns: int  # virtual ns from window close to idle (-1: never)
    faults_fired: int


def _storm_options() -> Options:
    """Small and fast-resuming; WAL mode is set per kind by the run."""
    return Options(
        write_buffer_size=kb(8),
        max_bytes_for_level_base=kb(64),
        target_file_size_base=kb(32),
        block_cache_bytes=kb(32),
        memtable_rep=HASH_REP,
        paranoid_checks=True,
        bg_error_resume_interval_ns=us(200),
        bg_error_resume_backoff=2.0,
        bg_error_resume_max_interval_ns=ms(5),
        max_bg_error_resume_count=3,
        name="storm",
    )


class StormRun(Scenario):
    """One seeded storm/clear/resume/verify cycle (no crash)."""

    stream = "storm"

    def __init__(self, seed: int, config: Optional[StormConfig] = None) -> None:
        super().__init__(seed, config or StormConfig())
        self.issued: List[Op] = []  # writes only, in issue order
        self.acked: List[Op] = []
        self.rejected = 0
        self.engine = Engine()

        kind = self.config.kind
        if kind == STORM_AUTO:
            kind = STORM_KINDS[self.rng.fork("kind").randint(0, len(STORM_KINDS) - 1)]
        if kind not in STORM_KINDS:
            raise DBError(f"unknown storm kind {kind!r}")
        self.kind = kind

        self.window = self.config.window_ns
        self.schedule = self.resolve_schedule()
        self.build_machine()
        self.options = _storm_options()
        # io storms usually keep the WAL buffered so injected write faults
        # surface at background fsyncs (the error handler's job, soft
        # path); some seeds sync instead, so a WAL-sync fault classifies
        # hard and the read-only + typed-rejection path gets exercised
        # too.  Space storms always sync: every ack is a durability
        # promise made against a disk that is about to fill up.
        if kind == STORM_SPACE or self.rng.fork("walmode").chance(0.4):
            self.options.wal_mode = WAL_SYNC
        else:
            self.options.wal_mode = WAL_BUFFERED

    def draw_schedule(self) -> FaultSchedule:
        """Transient write (and, half the time, read) faults over the window."""
        schedule = FaultSchedule()
        if self.kind in (STORM_IO, STORM_MIXED):
            w0, w1 = self.window
            kinds = [WRITE_ERROR]
            if self.rng.fork("faults").chance(0.5):
                kinds.append(READ_ERROR)
            for kind in kinds:
                schedule.add(
                    FaultSpec(
                        kind, at_time=w0, until_time=w1, count=1_000_000, transient=True
                    )
                )
        return schedule

    # -- workload ----------------------------------------------------------

    def _client(self, db: DB, ops: List[Op]):
        """Generator: paced ops; typed failures are counted, never fatal."""
        rng = self.rng.fork("pace")
        for op in ops:
            think = rng.randint(PACE_NS // 4, PACE_NS)
            if think:
                yield think
            try:
                if op.kind == GET:
                    try:
                        yield from db.get(op.key)
                    except (CorruptionError, IOFaultError):
                        pass  # reads may fail during the storm; that's fine
                    continue
                self.issued.append(op)
                if op.kind == PUT:
                    yield from db.put(op.key, op.value)
                else:
                    yield from db.delete(op.key)
                self.acked.append(op)
            except DBReadOnlyError as exc:
                self.rejected += 1
                self.log(f"reject #{op.index} read-only ({exc.severity})")
            except OutOfSpaceError:
                self.rejected += 1
                self.log(f"reject #{op.index} enospc")
            except IOFaultError as exc:
                self.rejected += 1
                self.log(f"reject #{op.index} io fault (transient={exc.transient})")

    def _quota_squeeze(self, w0: int, w1: int):
        """Generator: squeeze the quota over [w0, w1), then lift it."""
        if w0 > self.engine.now:
            yield w0 - self.engine.now
        quota = self.fs.used_bytes() + SQUEEZE_SLACK_BYTES
        self.fs.set_quota(quota)
        self.log(f"quota squeezed to {quota} bytes ({self.fs.free_bytes()} free)")
        yield w1 - self.engine.now
        self.fs.set_quota(None)
        self.log("quota lifted")

    # -- quiesce -----------------------------------------------------------

    def _drain(self, db: DB):
        """Generator: True once healthy *and* idle, False past the budget."""
        deadline = self.engine.now + DRAIN_NS
        while True:
            busy = (
                db.error_handler.severity
                or db.memtables.immutables
                or db._active_flushes
                or db._active_compactions
                or db.versions.manifest_dirty
            )
            if not busy:
                return True
            if self.engine.now >= deadline:
                return False
            yield us(20)

    # -- the run -----------------------------------------------------------

    def run(self) -> StormResult:
        cfg = self.config
        w0, w1 = self.window
        # Fat values, so flushes land inside the storm window.
        ops = gen_ops(self.rng.fork("workload"), cfg.num_ops, cfg.num_keys, pad=(64, 512))
        self.log(
            f"storm seed={self.seed} kind={self.kind} ops={cfg.num_ops} "
            f"keys={cfg.num_keys} window=[{w0},{w1})"
        )
        db = DB(self.engine, self.fs, self.options, rng=self.rng.fork("db"))
        if self.kind in (STORM_SPACE, STORM_MIXED):
            self.spawn(self._quota_squeeze(w0, w1), "squeeze")

        failure: Optional[str] = None
        try:
            self.drive(self._client(db, ops), name="storm-client")
        except DBError as exc:
            failure = f"client died: {exc}"
        self.log(
            f"workload done: acked={len(self.acked)} rejected={self.rejected}"
        )

        # Make sure the window has actually closed (a short workload can
        # finish inside it), then demand bounded quiesce + auto-resume.
        quiesce_ns = -1
        if failure is None:
            if self.engine.now < w1:
                self.engine.run(until=w1)
            drain_from = self.engine.now
            drained = self.drive(self._drain(db), name="storm-drain")
            if drained:
                quiesce_ns = self.engine.now - drain_from
                self.log(f"quiesced in {quiesce_ns}ns after window close")
            else:
                failure = (
                    f"liveness: not idle {DRAIN_NS}ns after the storm "
                    f"cleared (severity={db.error_handler.severity or 'none'}, "
                    f"immutables={len(db.memtables.immutables)})"
                )
                self.log(failure)

        # The storm is over: the DB must accept writes again.
        probe_key, probe_value = b"probe", b"post-storm"
        if failure is None:
            try:
                self.drive(db.put(probe_key, probe_value), name="storm-probe")
            except (DBReadOnlyError, OutOfSpaceError, IOFaultError) as exc:
                failure = f"probe write rejected after storm: {exc!r}"
                self.log(failure)

        if failure is None:
            # No crash, so no prefix cut: the state must be the exact
            # replay of the acked writes.
            expected: Dict[bytes, bytes] = {}
            for op in self.acked:
                apply_write(expected, op)
            observed = self.read_keys(db.get, "storm-verify", extra=[probe_key])
            probe = observed.pop(probe_key, None)
            if probe != probe_value:
                failure = "probe write not readable after ack"
            else:
                for key, value in expected.items():
                    if observed.get(key) != value:
                        failure = (
                            f"acked write lost: {key.decode()} "
                            f"expected {len(value)}B, "
                            f"got {'miss' if key not in observed else 'other'}"
                        )
                        break
                else:
                    for key in observed:
                        if key not in expected:
                            failure = f"phantom key {key.decode()} (never acked)"
                            break

        stats = db.stats
        degraded_entries = int(stats.get("bg_error.degraded_entries"))
        resume_successes = int(stats.get("bg_error.resume_successes"))
        went_read_only = bool(
            stats.get("bg_error.to_hard") or stats.get("bg_error.to_fatal")
        )
        self.log(
            f"verdict={'PASS' if failure is None else 'FAIL'} degraded={degraded_entries} "
            f"resumes={resume_successes} read_only={went_read_only}"
        )
        self.events.append("-- faults --")
        self.events.extend(self.injector.log)

        return self.result(
            StormResult,
            failure,
            kind=self.kind,
            writes_issued=len(self.issued),
            writes_acked=len(self.acked),
            writes_rejected=self.rejected,
            degraded_entries=degraded_entries,
            resume_successes=resume_successes,
            went_read_only=went_read_only,
            quiesce_ns=quiesce_ns,
            faults_fired=len(self.injector.log),
        )
