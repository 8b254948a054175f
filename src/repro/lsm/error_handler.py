"""Background-error handling: classify, degrade gracefully, auto-resume.

RocksDB treats errors surfaced by background work (flush, compaction, WAL
sync, MANIFEST writes) very differently from foreground read errors: a
failed flush means the write pipeline is broken, so the DB enters a
*degraded mode* whose depth depends on how recoverable the error looks.
This module reproduces that state machine (RocksDB's ``ErrorHandler``):

``soft``
    Recoverable and contained (out of space, a transient flush/compaction
    I/O error).  Writes keep working but are throttled: the
    :class:`~repro.lsm.write_controller.WriteController` is floored at
    DELAYED so the backlog cannot grow unboundedly while the resume
    process retries in the background.

``hard``
    The durability path itself failed (WAL sync, MANIFEST write) or a soft
    error kept failing to resume.  The DB turns read-only: foreground
    writes raise :class:`~repro.errors.DBReadOnlyError`, reads keep
    working, and auto-resume keeps retrying.

``fatal``
    Unrecoverable in-process (data corruption, a permanent media error).
    Read-only permanently; the only way back is close + reopen, which
    re-runs recovery from the durable state.

Auto-resume retries the failed background work with exponential backoff in
*virtual* time: it re-probes the failing component (WAL sync, MANIFEST
sync, the stranded memtable flushes, a compaction), and on full success
clears the severity and re-admits writes.  A soft error that exhausts
``max_bg_error_resume_count`` attempts escalates to hard (RocksDB's
``Resume()`` giving up); hard errors keep retrying at the capped interval,
mirroring ``bg_error_resume_count`` semantics.

The zero-fault path costs one falsy ``severity`` check per hook: no
events, processes, or RNG draws are created while the DB is healthy, so
fault-free runs are bit-identical to a build without this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import (
    CorruptionError,
    DBReadOnlyError,
    IOFaultError,
    OutOfSpaceError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lsm.db import DB

# Severity levels.  Healthy is the empty string so hot paths can gate on
# plain truthiness (``if db.error_handler.severity:``) at zero cost.
SEV_NONE = ""
SEV_SOFT = "soft"
SEV_HARD = "hard"
SEV_FATAL = "fatal"

_SEV_RANK = {SEV_NONE: 0, SEV_SOFT: 1, SEV_HARD: 2, SEV_FATAL: 3}

# Background error sources (RocksDB's BackgroundErrorReason).
SOURCE_FLUSH = "flush"
SOURCE_COMPACTION = "compaction"
SOURCE_WAL = "wal"
SOURCE_MANIFEST = "manifest"


def classify(source: str, exc: BaseException) -> str:
    """Map a background failure to its severity (RocksDB's mapping).

    * Corruption is always fatal: retrying cannot un-corrupt data.
    * Out of space is always soft: space can come back (deletes, quota
      raise), and the SstFileManager throttles writes meanwhile.
    * A transient I/O error is soft when it hit redoable work (flush,
      compaction output — the inputs still exist) but hard when it hit the
      durability path (WAL, MANIFEST), where acked state is at risk.
    * A permanent I/O error is fatal: the media will not heal in-process.
    """
    if isinstance(exc, CorruptionError):
        return SEV_FATAL
    if isinstance(exc, OutOfSpaceError):
        return SEV_SOFT
    if isinstance(exc, IOFaultError):
        if not exc.transient:
            return SEV_FATAL
        return SEV_HARD if source in (SOURCE_WAL, SOURCE_MANIFEST) else SEV_SOFT
    return SEV_HARD


class BackgroundError:
    """The recorded failure driving the current degraded episode."""

    __slots__ = ("exc", "source", "at_ns")

    def __init__(self, exc: BaseException, source: str, at_ns: int) -> None:
        self.exc = exc
        self.source = source
        self.at_ns = at_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BackgroundError {self.source} at t={self.at_ns}: {self.exc!r}>"


class ErrorHandler:
    """The DB's background-error state machine plus its resume process."""

    def __init__(self, db: "DB") -> None:
        self.db = db
        self.engine = db.engine
        self.options = db.options
        self.stats = db.stats
        self.severity = SEV_NONE
        self.error: Optional[BackgroundError] = None
        self.resume_attempts = 0  # failed attempts in the current episode
        self.degraded_since: Optional[int] = None
        self._resume_proc = None

    # -- foreground gates ---------------------------------------------------

    @property
    def is_read_only(self) -> bool:
        return _SEV_RANK[self.severity] >= _SEV_RANK[SEV_HARD]

    def check_writable(self) -> None:
        """Raise :class:`DBReadOnlyError` when writes are rejected."""
        if _SEV_RANK[self.severity] >= _SEV_RANK[SEV_HARD]:
            self.stats.inc("bg_error.writes_rejected")
            err = self.error
            raise DBReadOnlyError(
                f"DB is read-only after a {self.severity} background error"
                + (f" ({err.source}: {err.exc})" if err is not None else ""),
                severity=self.severity,
                source=err.source if err is not None else "",
            )

    def raise_stored_error(self) -> None:
        """Re-raise the stored error when the DB cannot make progress.

        Called by foreground waiters (``wait_idle``, ``flush_all``) so a
        fatally degraded DB fails their wait instead of spinning forever.
        """
        if self.severity == SEV_FATAL and self.error is not None:
            raise self.error.exc

    # -- reporting ----------------------------------------------------------

    def on_background_error(self, source: str, exc: BaseException) -> None:
        """Record a background failure; escalate severity monotonically."""
        sev = classify(source, exc)
        self.stats.inc("bg_error.raised")
        self.stats.inc(f"bg_error.source.{source}")
        self.engine.tracer.bg_error(source, sev)
        if _SEV_RANK[sev] > _SEV_RANK[self.severity]:
            self._set_severity(sev, BackgroundError(exc, source, self.engine.now))
        elif self.error is None:
            self.error = BackgroundError(exc, source, self.engine.now)
        if self.severity in (SEV_SOFT, SEV_HARD):
            self._ensure_resume_process()

    def _set_severity(self, sev: str, error: Optional[BackgroundError] = None) -> None:
        old = self.severity
        if error is not None:
            self.error = error
        self.severity = sev
        self.engine.tracer.degraded_transition(old or "normal", sev or "normal")
        if not old and sev:
            self.degraded_since = self.engine.now
            self.stats.inc("bg_error.degraded_entries")
        if sev:
            self.stats.inc(f"bg_error.to_{sev}")
        if _SEV_RANK[sev] >= _SEV_RANK[SEV_HARD]:
            # Writers parked on a write stop must wake and observe
            # read-only mode instead of sleeping through it.
            self.db.controller.kick_stopped_writers()
        if not sev:
            total = self.engine.now - (self.degraded_since or self.engine.now)
            self.stats.inc("bg_error.degraded_ns", total)
            self.degraded_since = None
            self.resume_attempts = 0
            self.error = None
        # Soft severity floors the controller at DELAYED (and clearing
        # lifts the floor) — recompute the stall state either way.
        self.db._update_stall_state()

    # -- auto-resume --------------------------------------------------------

    def backoff_ns(self, attempt: int) -> int:
        """Resume delay before attempt ``attempt`` (0-based), capped."""
        opts = self.options
        delay = opts.bg_error_resume_interval_ns * (
            opts.bg_error_resume_backoff ** attempt
        )
        return min(int(delay), opts.bg_error_resume_max_interval_ns)

    def _ensure_resume_process(self) -> None:
        if self._resume_proc is None or self._resume_proc.done:
            self._resume_proc = self.engine.process(
                self._resume_loop(), name="bg-error-resume"
            )

    def _resume_loop(self):
        db = self.db
        while self.severity in (SEV_SOFT, SEV_HARD) and not db._closed:
            yield self.backoff_ns(self.resume_attempts)
            if db._closed or self.severity not in (SEV_SOFT, SEV_HARD):
                return
            err = self.error
            if (
                err is not None
                and isinstance(err.exc, OutOfSpaceError)
                and db.fs.free_bytes() <= 0
            ):
                # The disk is still full.  Waiting for space (quota raise,
                # deletes) is not a *failing* recovery attempt: keep
                # polling without escalating to read-only.
                self.stats.inc("bg_error.space_waits")
                continue
            attempt = self.resume_attempts + 1
            self.stats.inc("bg_error.resume_attempts")
            self.engine.tracer.resume_attempt(
                attempt, self.error.source if self.error is not None else ""
            )
            ok = yield from self._try_resume()
            if ok:
                self.stats.inc("bg_error.resume_successes")
                degraded_ns = self.engine.now - (self.degraded_since or self.engine.now)
                self.engine.tracer.resume_success(attempt, degraded_ns)
                self._set_severity(SEV_NONE)
                db._maybe_schedule_compaction()
                return
            self.resume_attempts = attempt
            if (
                self.severity == SEV_SOFT
                and self.resume_attempts >= self.options.max_bg_error_resume_count
            ):
                # Soft recovery gave up: stop admitting writes (read-only)
                # but keep retrying at the capped interval.
                self.stats.inc("bg_error.escalations")
                self._set_severity(SEV_HARD)

    def _note_failure(self, source: str, exc: BaseException) -> None:
        """A resume probe failed: escalate if it classifies higher."""
        sev = classify(source, exc)
        self.stats.inc(f"bg_error.source.{source}")
        self.engine.tracer.bg_error(source, sev)
        if _SEV_RANK[sev] > _SEV_RANK[self.severity]:
            self._set_severity(sev, BackgroundError(exc, source, self.engine.now))

    def note_flush_failure(self, memtable, exc: BaseException) -> None:
        """Bookkeeping + report for one failed :class:`FlushJob`.

        A failure tagged ``bg_source == "manifest"`` happened *after* the
        SST was installed and the edit applied in memory: the memtable's
        data is safe in L0 (and still replayable from its WAL, which
        stays retained while the manifest is dirty), so it is done
        flushing and must not be retried — only the manifest record's
        durability is pending.
        """
        if getattr(exc, "bg_source", "") == SOURCE_MANIFEST:
            immutables = self.db.memtables.immutables
            if memtable in immutables:
                immutables.remove(memtable)
        self.on_background_error(getattr(exc, "bg_source", SOURCE_FLUSH), exc)

    def _try_resume(self):
        """Generator: retry the failed background work; True on success.

        Probes in dependency order — space, WAL durability, MANIFEST
        durability, stranded memtable flushes, then one compaction if the
        episode started there.  Any probe failing keeps the DB degraded
        (possibly escalated) and the loop backs off.
        """
        db = self.db
        err = self.error

        # Out-of-space episodes: do not hammer a full disk — wait until
        # free space reappears (quota raised or files deleted).
        if err is not None and isinstance(err.exc, OutOfSpaceError):
            if db.fs.free_bytes() <= 0:
                return False

        # WAL probe: the failed group sync left the tail questionable.
        if err is not None and err.source == SOURCE_WAL and db.wal.enabled:
            try:
                yield from db.wal.sync()
            except (IOFaultError, OutOfSpaceError) as exc:
                self._note_failure(SOURCE_WAL, exc)
                return False

        # MANIFEST probe: re-append queued edits and re-sync pending
        # records; success also releases deferred file deletions.
        if db.versions.manifest_dirty:
            try:
                yield from db.versions.sync_manifest()
            except (IOFaultError, OutOfSpaceError) as exc:
                self._note_failure(SOURCE_MANIFEST, exc)
                return False

        # Re-flush memtables stranded by failed flush jobs.
        for mt in list(db.memtables.immutables):
            if mt.flush_in_progress:
                continue
            if mt not in db.memtables.immutables:
                continue
            if not (yield from db._run_flush(mt, "resume")):
                return False
            db._update_stall_state()

        # Compaction probe: if the episode started in a compaction, run
        # one to prove the path works before re-admitting writes.  No room
        # for its outputs fails the probe without a report.
        if err is not None and err.source == SOURCE_COMPACTION:
            compaction = db.picker.pick(db.versions)
            if compaction is not None:
                if not db.sst_file_manager.try_reserve_compaction(compaction.input_bytes):
                    compaction.mark(False)
                    return False
                if not (yield from db._run_compaction(compaction, "resume", self._note_failure)):
                    return False
        return True
