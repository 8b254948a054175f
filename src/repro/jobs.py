"""Deterministic fan-out of independent sweep points over worker processes.

The harness and DST sweeps are embarrassingly parallel: every (device,
config, seed) point builds its own engine, machine and RNG universe from
scratch, so points share no state.  :func:`imap_points` exploits that with a
``multiprocessing`` pool behind every ``--jobs N`` flag while keeping the
*observable* contract of the serial loop:

* results come back in point order (``imap`` preserves order), so downstream
  merging, printing and report rows are byte-identical to ``jobs=1``;
* ``jobs <= 1`` never touches multiprocessing at all — it is the plain
  serial loop, which keeps single-job runs debuggable (breakpoints, perf
  profiles, exceptions with full local state);
* a worker exception is re-raised in the parent (fail fast, like the serial
  loop would).

Workers must be module-level callables and points picklable values — the
usual multiprocessing contract.  The ``fork`` start method is preferred
(cheap, inherits the parsed modules); ``spawn`` is the fallback where fork
is unavailable.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Iterable, Iterator, List, Sequence, TypeVar

P = TypeVar("P")
R = TypeVar("R")

#: Environment variable consulted by :func:`default_jobs` (CLI flags win).
JOBS_ENV = "REPRO_JOBS"


def default_jobs() -> int:
    """The job count used when a CLI is not given ``--jobs`` explicitly."""
    raw = os.environ.get(JOBS_ENV, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        return multiprocessing.get_context("spawn")


def imap_points(
    worker: Callable[[P], R], points: Iterable[P], jobs: int = 1
) -> Iterator[R]:
    """Apply ``worker`` to every point; yield results **in point order** as
    they become available — lets a CLI print per-point lines while later
    points are still running, without ever reordering output versus serial.

    With ``jobs <= 1`` (or fewer than two points) this is a plain in-process
    loop.  Otherwise a pool of ``min(jobs, len(points))`` processes consumes
    the points and the ordered results stream back.
    """
    seq: Sequence[P] = list(points)
    if jobs <= 1 or len(seq) <= 1:
        for p in seq:
            yield worker(p)
        return
    with _context().Pool(processes=min(jobs, len(seq))) as pool:
        yield from pool.imap(worker, seq)


def map_points(
    worker: Callable[[P], R], points: Iterable[P], jobs: int = 1
) -> List[R]:
    """:func:`imap_points`, collected: the results as a list in point order."""
    return list(imap_points(worker, points, jobs))
