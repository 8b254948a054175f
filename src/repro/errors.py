"""Exception hierarchy for the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations

import os
import signal
import sys
from typing import Callable, NoReturn, Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


def run_cli(main: Callable[[], Optional[int]]) -> NoReturn:
    """Run a ``python -m repro.<pkg>`` entry point and exit with its status.

    The one CLI error contract: a :class:`ReproError` (bad option value,
    malformed input file) or :class:`OSError` (unreadable path) escaping
    ``main`` becomes a single ``error: <message>`` line on stderr and exit
    code 2 — never a traceback.  ``main`` itself keeps raising, so library
    callers and tests that invoke it directly still see the typed error.

    A reader that closes the pipe early (``... | head``) is not an error to
    report: stdout is pointed at ``os.devnull`` so the interpreter's exit
    flush stays quiet, and the exit status is the shell's for a process
    ended by SIGPIPE (141; 1 and 2 mean something else here).
    """
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 128 + signal.SIGPIPE
    except (ReproError, OSError) as exc:
        print(f"error: {' '.join(str(exc).split())}", file=sys.stderr)
        status = 2
    sys.exit(status)


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation kernel."""


class StorageError(ReproError):
    """Raised by the simulated storage devices."""


class IOFaultError(StorageError):
    """An injected device-level I/O failure (see :mod:`repro.faults`).

    ``op`` is ``"read"`` or ``"write"``; ``transient`` tells callers whether
    a retry can be expected to succeed (RocksDB's retryable background
    errors) or the fault is permanent (media failure).
    """

    def __init__(self, message: str, op: str = "", transient: bool = True) -> None:
        super().__init__(message)
        self.op = op
        self.transient = transient


class FileSystemError(ReproError):
    """Raised by the simulated filesystem."""


class FileNotFoundInFS(FileSystemError):
    """Raised when opening or deleting a path that does not exist."""


class FileExistsInFS(FileSystemError):
    """Raised when exclusively creating a path that already exists."""


class OutOfSpaceError(FileSystemError):
    """Raised when the device or a configured quota has no free capacity.

    The simulated ENOSPC.  ``path`` names the file whose growth failed
    (empty for quota-level checks), ``needed_bytes``/``free_bytes``
    describe the shortfall when known.
    """

    def __init__(
        self,
        message: str,
        path: str = "",
        needed_bytes: int = 0,
        free_bytes: int = 0,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.needed_bytes = needed_bytes
        self.free_bytes = free_bytes


class DBError(ReproError):
    """Base class for key-value store errors."""


class StaleFileError(FileSystemError, DBError):
    """Raised for I/O on a file handle that is deleted or closed.

    Subclasses both :class:`FileSystemError` (it is a filesystem-layer
    condition) and :class:`DBError` (store code catches it alongside other
    database failures), so either family of ``except`` clause sees it.
    """

    def __init__(self, path: str, state: str) -> None:
        super().__init__(f"file {path} is {state}")
        self.path = path
        self.state = state


class FaultConfigError(ReproError):
    """Raised for invalid fault-injection schedules (:mod:`repro.faults`)."""


class DBClosedError(DBError):
    """Raised when an operation is attempted on a closed database."""


class DBReadOnlyError(DBError):
    """Raised for foreground writes while the DB is degraded read-only.

    A hard or fatal background error (see
    :mod:`repro.lsm.error_handler`) puts the store into read-only mode:
    reads keep working, writes fail fast with this typed error.
    ``severity`` is ``"hard"`` or ``"fatal"``; ``source`` names the
    background path that failed (``flush``/``compaction``/``wal``/
    ``manifest``).
    """

    def __init__(self, message: str, severity: str = "", source: str = "") -> None:
        super().__init__(message)
        self.severity = severity
        self.source = source


class CorruptionError(DBError):
    """Raised when an on-disk structure fails validation (e.g. WAL CRC)."""


class OptionsError(DBError):
    """Raised for invalid or inconsistent configuration options."""


class WorkloadError(ReproError):
    """Raised for invalid workload specifications."""


class ServingError(ReproError):
    """Base class for serving-tier client errors (:mod:`repro.serving`).

    Every failure the resilient serving client surfaces to a tenant is a
    subclass of this — the "typed error, never a hang" half of the
    per-op deadline contract.
    """


class DeadlineExceededError(ServingError):
    """An op could not complete within its client deadline.

    ``op`` is ``"get"``/``"put"``/``"scan"``; ``elapsed_ns`` is the
    virtual time burned before giving up (always <= the deadline: the
    client raises *at* the deadline rather than sleeping past it).
    """

    def __init__(self, message: str, op: str = "", elapsed_ns: int = 0) -> None:
        super().__init__(message)
        self.op = op
        self.elapsed_ns = elapsed_ns


class ShedError(ServingError):
    """An op was shed before reaching storage (graceful degradation).

    ``reason`` names the shedding layer: ``"brownout-write"`` (writes
    shed while the shard group cannot reach a write quorum),
    ``"error-budget"`` (the tenant exhausted its typed-error budget and
    is backed off wholesale), or ``"breaker"`` (the per-shard circuit
    breaker is open, suppressing a retry storm against a hard-down
    shard).
    """

    def __init__(self, message: str, reason: str = "", shard: int = -1) -> None:
        super().__init__(message)
        self.reason = reason
        self.shard = shard


class ShardUnavailableError(ServingError):
    """Every retry against a shard group failed before the deadline.

    Distinct from :class:`DeadlineExceededError`: time remained, but the
    attempt budget ran out (e.g. the group is mid-election and each
    probe fast-fails).
    """

    def __init__(self, message: str, shard: int = -1, attempts: int = 0) -> None:
        super().__init__(message)
        self.shard = shard
        self.attempts = attempts
