"""Bounded retry policy for transient device faults on store I/O paths.

The fault-injection layer (:mod:`repro.faults`) surfaces device errors as
:class:`~repro.errors.IOFaultError` with a ``transient`` flag.  RocksDB
treats such background-I/O errors as retryable; every store path (reads,
flush fsyncs, compaction output syncs, manifest syncs) gets the same
policy, :func:`retry_backoff`: exponential backoff in *simulated* time, a
bounded number of attempts, and immediate propagation of permanent faults.

Both helpers are generators meant to be driven with ``yield from`` inside a
simulated process.  On the fault-free path they yield nothing, so they add
no simulated time and no event-ordering change — experiment results without
a fault schedule are bit-identical to a build without this module.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import IOFaultError
from repro.sim.stats import StatsSet

IO_RETRIES = 3
IO_RETRY_BACKOFF_NS = 200_000  # first backoff; doubles per attempt


def retry_backoff(
    exc: IOFaultError, attempt: int, stats: Optional[StatsSet], counter: str
) -> Optional[int]:
    """The backoff (ns) before retry ``attempt`` (0-based) after ``exc``.

    None when ``exc`` must propagate instead: a permanent fault is never
    retried and never counted; the fault after the last retry ticks
    ``counter + "_exhausted"``.  Each granted retry ticks ``counter``.
    Callers re-raise from their ``except`` clause, so no frame keeps the
    fault (and through its traceback, itself) alive.
    """
    if not exc.transient:
        return None
    if attempt >= IO_RETRIES:
        if stats is not None:
            stats.inc(counter + "_exhausted")
        return None
    if stats is not None:
        stats.inc(counter)
    return IO_RETRY_BACKOFF_NS << attempt


def retry_call(
    fn: Callable,
    stats: Optional[StatsSet] = None,
    counter: str = "io.retries",
    fault: Optional[IOFaultError] = None,
):
    """Generator: call ``fn()``, retrying transient :class:`IOFaultError`.

    Returns ``fn()``'s result.  Used for plain calls that may raise at
    submit time (e.g. ``SimFile.read``).  A caller that made the first
    call itself passes the fault it caught as ``fault``: retrying starts
    there, so its fault-free path builds no generator.
    """
    attempt = 0
    while True:
        try:
            if fault is not None:
                raise fault  # the caller's first call failed: handle it below
            return fn()
        except IOFaultError as exc:
            fault = None
            delay = retry_backoff(exc, attempt, stats, counter)
            if delay is None:
                raise
            yield delay
            attempt += 1


def retry_gen(
    factory: Callable,
    stats: Optional[StatsSet] = None,
    counter: str = "io.retries",
    fault: Optional[IOFaultError] = None,
):
    """Generator: drive ``factory()`` (a generator factory, e.g. ``f.sync``),
    re-invoking it after transient :class:`IOFaultError` failures.

    As in :func:`retry_call`, a caller that drove the first attempt itself
    passes the fault it caught as ``fault``.
    """
    attempt = 0
    while True:
        try:
            if fault is not None:
                raise fault  # the caller's first attempt failed: handle it below
            return (yield from factory())
        except IOFaultError as exc:
            fault = None
            delay = retry_backoff(exc, attempt, stats, counter)
            if delay is None:
                raise
            yield delay
            attempt += 1
