"""Host-independent cost budget of the foreground op path: calls, lines and
heap entries.

Runs three ``tiny``-preset db_bench runs on XPoint — the paper's Fig. 5-7
mix (90 % writes, 4 clients) and a pure-read run (1 client), 60 ms each,
and a fill (100 % writes, 1 client) long enough for flushes and
compactions, whose device requests, writebacks and version installs it
counts — and one seed-run each of the replicated-cluster and
resilient-serving chaos harnesses at their default configs (the replicated
write/read path: WAL ``sync`` fsyncs, shipping, quorum acks, the serving
client), and counts three columns per operation: under ``sys.settrace``,
the Python calls into frames under ``src/repro`` (generator resumes
included) and the line events in those frames (line tracing is switched on
only for them); and the kernel's heap entries, read off ``Engine._seq``,
which every heap push bumps (a cancelled ``AnyOf`` deadline included).  The
line column sees work the call column misses: a per-entry loop that calls
no ``src/repro`` function, or a fold that inlines a helper.  The event
column sees what costs few lines per op but a heap entry each time: a flush
that writes in 256 KB appends instead of 1 MB adds 5 % heap entries on
``fill`` and 0.05 % lines.  The ``tiny`` prefill those runs start from is
counted too, per prefilled key: a table's keys are made in one pass, not
one ``encode_key`` call each.  All three counts are exact for a seed (and
repeat across ``PYTHONHASHSEED`` values), so each budget is the count
measured when it was set plus a margin: work that creeps back onto the op
path fails here, on any host.  The call budget is +5 %; the line and event
budgets are +0.5 %, which a loop copying each flushed key (+0.7 % lines on
``fill``, no call more) exceeds.  The counts are numpy's: under
``REPRO_NO_NUMPY`` the end-of-run histogram fold is a Python loop per
sample, so the test does not run there.

Run it directly to print the counts::

    PYTHONPATH=src python tests/tools/test_call_budget.py
"""

from __future__ import annotations

import os
import sys
from functools import partial

import pytest

import repro
import repro.sim.stats
from repro.dst.cluster import ClusterDstRun
from repro.dst.serving import ServingDstRun
from repro.harness.machine import Machine
from repro.harness.presets import TINY
from repro.sim.units import ms
from repro.storage.profiles import xpoint_ssd
from repro.workloads.db_bench import DbBench, DbBenchConfig
from repro.workloads.prefill import prefill

SRC = os.path.dirname(repro.__file__) + os.sep

# (calls, line events, heap entries) per op at the commit that set the
# budget, and how far above it each column's budget is.
MEASURED = {
    "fill": (24.4583, 258.057, 0.0294293),
    "mixed90_4p": (29.4163, 352.883, 2.59032),
    # per prefilled key (60,000 keys in 17 tables); no heap entry
    "prefill": (0.00738333, 0.0526, 0),
    "read": (42.1079, 532.653, 1.59107),
    "cluster_dst": (225.719, 2204.66, 12.1562),
    "serving_dst": (155.976, 1361.96, 7.49783),
}
MARGIN = {"calls": 1.05, "lines": 1.005, "events": 1.005}
RUNS = {
    # Long enough for background work: 14 flushes and 5 compactions at seed 11.
    "fill": dict(write_fraction=1.0, processes=1, duration_ns=ms(800)),
    "mixed90_4p": dict(write_fraction=0.9, processes=4, duration_ns=ms(60)),
    "read": dict(write_fraction=0.0, processes=1, duration_ns=ms(60)),
}
DST_SEED = 0


def counted(fn, engine):
    """``fn()``'s result, the calls into ``src/repro`` frames it made, the
    line events in those frames and the heap entries ``engine`` pushed."""
    calls = lines = 0
    pushed = engine._seq

    def in_repro(_frame, event, _arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return in_repro

    def on_call(frame, _event, _arg):
        nonlocal calls
        if frame.f_code.co_filename.startswith(SRC):
            calls += 1
            return in_repro
        return None  # no line events outside src/repro

    previous = sys.gettrace()  # coverage's tracer, in CI: put it back after
    sys.settrace(on_call)
    try:
        result = fn()
    finally:
        sys.settrace(previous)
    return result, (calls, lines, engine._seq - pushed)


def cost_per_op(name: str) -> tuple:
    """(calls, line events, heap entries) per op of run ``name``."""
    if name == "cluster_dst":
        run = ClusterDstRun(DST_SEED)
        _result, counts = counted(run.run, run.engine)
        return per_op(counts, run.config.num_ops)
    if name == "serving_dst":
        run = ServingDstRun(DST_SEED)
        result, counts = counted(run.run, run.engine)
        return per_op(counts, result.ops + result.shed + result.errors + result.unresolved)
    machine = Machine.create(xpoint_ssd(), TINY.page_cache_bytes, seed=11)
    db = machine.open_db(TINY.options())
    spec = TINY.prefill_spec()
    if name == "prefill":  # the set-up every run pays: its op is one prefilled key
        _files, counts = counted(partial(prefill, db, spec), machine.engine)
        return per_op(counts, spec.key_count)
    prefill(db, spec)
    cfg = DbBenchConfig(
        value_size=TINY.value_size,
        key_count=TINY.key_count,
        seed=11,
        **RUNS[name],
    )
    result, counts = counted(partial(DbBench(cfg).run, db), machine.engine)
    return per_op(counts, result.ops)


def per_op(counts: tuple, ops: int) -> tuple:
    return tuple(count / ops for count in counts)


@pytest.mark.skipif(
    repro.sim.stats.bulk_numpy(repro.sim.stats.BULK_MIN) is None,
    reason="budgets are counted with numpy",
)
@pytest.mark.parametrize("name", sorted(MEASURED))
def test_calls_per_op_within_budget(name):
    got = cost_per_op(name)
    for column, value, measured in zip(MARGIN, got, MEASURED[name]):
        budget = measured * MARGIN[column]
        print(f"{name}: {value:.5g} {column} per op (budget {budget:.5g})")
        assert value <= budget, f"{name}: {value:.5g} {column} per op, budget {budget:.5g}"


if __name__ == "__main__":
    for run in sorted(MEASURED):
        calls, lines, events = cost_per_op(run)
        print(f"{run}: {calls:.6g} calls, {lines:.6g} lines, {events:.6g} heap entries per op")
