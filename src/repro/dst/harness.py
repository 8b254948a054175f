"""The DST harness: seeded workload + seeded faults -> crash -> verify.

The harness owns the scheduler loop: it runs the engine up to the next
time-only crash point, stopping at the end of the instant in which the fault
injector requests a crash or the client finishes
(``engine.run(until=due, stop=...)``), so a crash point lands at an exact,
reproducible virtual time — including times where the machine is idle
(``run(until=...)`` advances the clock through dead air).

Verification is a single *prefix-cut* search.  Writes are numbered at
generation time and their values are self-describing (the value bytes
encode the write index), so the durable state after recovery either
equals the replay of some prefix ``ops[1..c]`` with ``c >= last acked
write`` — in which case the run is consistent — or no such cut exists and
the harness reports which invariant broke.  A read that raises
:class:`CorruptionError` is treated as *detected* loss (matches any
expected value): the contract under injected media damage is detection,
never silent wrong data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.dst.core import GET, PUT, Op, RunResult, Scenario, find_cut, gen_ops
from repro.errors import CorruptionError, DBError, DBReadOnlyError, IOFaultError
from repro.faults import CRASH, FaultSchedule, FaultSpec
from repro.harness.presets import replica_options
from repro.lsm.db import DB
from repro.sim.engine import Engine
from repro.sim.units import us


#: Virtual-time horizon per op that the schedule (and the crash point) is
#: drawn in.  ~30 us per synced write on the XPoint profile puts the crash
#: inside or shortly after the workload for the default op count.
HORIZON_PER_OP_NS = us(30)


@dataclass
class DstConfig:
    """Knobs of one DST run (all defaulted; the seed does the exploring)."""

    num_ops: int = 300
    num_keys: int = 40
    faults: bool = True
    max_faults: int = 5
    schedule: Optional[FaultSchedule] = None  # overrides random generation

    @property
    def horizon_ns(self) -> int:
        return self.num_ops * HORIZON_PER_OP_NS


@dataclass
class DstResult(RunResult):
    """Outcome of one run: verdict + the byte-comparable event log."""

    cut: int  # matched prefix cut (write index), -1 if none
    writes_issued: int
    writes_acked: int
    crash_ns: int  # virtual crash time (-1: clean end-of-run power cut)
    faults_fired: int


class DstRun(Scenario):
    """One seeded workload/fault/crash/recover/verify cycle."""

    stream = "dst"

    def __init__(self, seed: int, config: Optional[DstConfig] = None) -> None:
        super().__init__(seed, config or DstConfig())
        self.issued: List[Op] = []  # writes only, in issue order
        self.acked: List[Op] = []
        self.engine = Engine()
        self.schedule = self.resolve_schedule()
        self.build_machine()
        self.options = replica_options()

    def draw_schedule(self) -> FaultSchedule:
        horizon = self.config.horizon_ns
        schedule = FaultSchedule.random(
            self.rng.fork("faults"), horizon, max_faults=self.config.max_faults
        )
        crash_at = self.rng.fork("crash").randint(horizon // 8, horizon)
        schedule.add(FaultSpec(CRASH, at_time=crash_at))
        return schedule

    # -- workload ----------------------------------------------------------

    def _client(self, db: DB, ops: List[Op]):
        """Generator: issue ops sequentially, recording issue/ack points.

        Stops issuing at the first typed read-only rejection (a hard
        background error, e.g. a WAL-sync fault): a rejected tail is
        prefix-consistent, writes accepted after a gap would not be.
        """
        for op in ops:
            try:
                if op.kind == GET:
                    value = yield from db.get(op.key)
                    self.log(
                        f"get {op.key.decode()} -> "
                        + ("miss" if value is None else f"{len(value)}B")
                    )
                    continue
                self.issued.append(op)
                if op.kind == PUT:
                    self.log(f"issue #{op.index} put {op.key.decode()}")
                    yield from db.put(op.key, op.value)
                else:
                    self.log(f"issue #{op.index} del {op.key.decode()}")
                    yield from db.delete(op.key)
                self.acked.append(op)
                self.log(f"ack #{op.index}")
            except DBReadOnlyError as exc:
                self.log(f"reject #{op.index} read-only ({exc.severity})")
                return
            except CorruptionError as exc:
                self.log(f"op detected corruption: {exc}")
            except IOFaultError as exc:
                self.log(f"op failed: {exc.op} io fault (transient={exc.transient})")

    # -- scheduler loop ----------------------------------------------------

    def _step_until_crash(self, proc) -> bool:
        """Drive the engine; True if a crash point fired.

        Each run ends at the next time-only crash point, so the crash lands
        at its exact virtual time even while the machine is idle, or at the
        end of the instant in which a crash is requested or the client
        finishes.
        """
        engine = self.engine
        injector = self.injector
        while True:
            if injector.poll():
                return True
            if proc is not None and proc.done:
                if proc.exception is not None:
                    raise proc.exception
                proc = None
            due = injector.due_crash_time()
            if engine.peek() is None:
                if proc is not None:
                    raise DBError("dst: workload deadlocked")
                if due is None:
                    return False  # idle, nothing pending: clean end
            stop = [injector.crash_requested]
            if proc is not None:
                stop.append(proc)
            engine.run(until=due, stop=stop)

    # -- verification ------------------------------------------------------

    def _check_structure(self, db: DB) -> Optional[str]:
        """Structural invariant I3; returns a failure reason or None."""
        try:
            db.versions.current.check_invariants()
        except DBError as exc:
            return f"level invariants: {exc}"
        for meta in db.versions.current.all_files():
            if not self.fs.exists(meta.file.path):
                return f"version references deleted file {meta.file.path}"
            if meta.file.size < meta.sst.file_bytes:
                return (
                    f"version references partial file {meta.file.path} "
                    f"({meta.file.size} < {meta.sst.file_bytes} bytes)"
                )
        return None

    # -- the run -----------------------------------------------------------

    def run(self) -> DstResult:
        cfg = self.config
        ops = gen_ops(self.rng.fork("workload"), cfg.num_ops, cfg.num_keys, pad=(0, 96))
        self.log(
            f"dst seed={self.seed} ops={cfg.num_ops} "
            f"keys={cfg.num_keys} specs={len(self.schedule)}"
        )
        db = DB(self.engine, self.fs, self.options, rng=self.rng.fork("db"))
        proc = self.spawn(self._client(db, ops), "dst-client")

        crashed = self._step_until_crash(proc)
        crash_ns = self.engine.now if crashed else -1
        self.log("crash point" if crashed else "workload drained; power cut")
        self.events.append("-- faults --")
        self.events.extend(self.injector.log)

        # Power loss + recovery.  Faults stop at the crash: the check phase
        # measures what the crash left behind, not fresh damage.
        self.fs.crash()
        self.injector.disarm()
        db2 = DB(self.engine, self.fs, self.options, rng=self.rng.fork("db2"))
        self.log(
            "recovered"
            f" wal_records={db2.stats.get('recovery.wal_records')}"
            f" wal_bad={db2.stats.get('recovery.wal_bad_records')}"
            f" wal_truncated={db2.stats.get('recovery.wal_truncated_logs')}"
            f" wal_dropped={db2.stats.get('recovery.wal_dropped_logs')}"
            f" files={db2.stats.get('recovery.files')}"
        )

        observed = self.read_keys(db2.get, "dst-verify")
        last_acked = max((op.index for op in self.acked), default=0)
        # Acked durability holds up to *detected* loss: when recovery itself
        # reported truncating bad WAL/manifest records (injected media
        # corruption destroyed synced data — unrecoverable without
        # replication, as in RocksDB's point-in-time recovery), the state
        # may legitimately roll back past acks.  It must still be a
        # consistent prefix; and undetected loss remains a failure.
        detected_loss = (
            db2.stats.get("recovery.wal_bad_records")
            or db2.stats.get("recovery.wal_dropped_logs")
            or db2.versions.stats.get("manifest_truncated_records")
        )
        min_cut = 0 if detected_loss else last_acked
        cut = find_cut(self.issued, observed, min_cut)

        reason = self._check_structure(db2)
        if reason is None and cut < 0:
            reason = (
                f"no consistent prefix cut >= {min_cut} "
                f"(last acked write #{last_acked}, "
                f"detected_loss={bool(detected_loss)})"
            )
        self.log(
            f"verdict={'PASS' if reason is None else 'FAIL'} "
            f"cut={cut}/{len(self.issued)} acked={len(self.acked)}"
        )
        return self.result(
            DstResult,
            reason,
            cut=cut,
            writes_issued=len(self.issued),
            writes_acked=len(self.acked),
            crash_ns=crash_ns,
            faults_fired=len(self.injector.log),
        )
