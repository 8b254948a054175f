"""Host-independent call budget of the foreground op path.

Runs three ``tiny``-preset db_bench runs on XPoint under
``sys.setprofile`` — the paper's Fig. 5-7 mix (90 % writes, 4 clients) and a
pure-read run (1 client), 60 ms each, and a fill (100 % writes, 1 client)
long enough for flushes and compactions, whose device requests, writebacks
and version installs it counts — and one seed-run each of the replicated-cluster
and resilient-serving chaos harnesses at their default configs (the
replicated write/read path: WAL ``sync`` fsyncs, shipping, quorum acks, the
serving client), and counts the Python calls into frames under
``src/repro`` per operation, generator resumes included.  The ``tiny``
prefill those runs start from is counted too, per prefilled key: a table's
keys are made in one pass, not one ``encode_key`` call each.  The count is
exact for a seed, so each budget is the count measured when it was set
plus 5 %: a call that creeps back onto the op path fails here, on any host.
The counts are numpy's: under ``REPRO_NO_NUMPY`` the end-of-run histogram
fold is a Python loop per sample, so the test does not run there.

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

# Calls per op at the commit that set the budget; the budget is 5 % above.
MEASURED = {
    "fill": 24.46,
    "mixed90_4p": 29.42,
    "prefill": 0.00937,  # per prefilled key (60,000 keys in 17 tables)
    "read": 42.11,
    "cluster_dst": 232.32,
    "serving_dst": 160.44,
}
RUNS = {
    # Long enough for background work: 14 flushes and 5 compactions at seed 11.
    "fill": dict(write_fraction=1.0, processes=1, duration_ns=ms(800)),
    "mixed90_4p": dict(write_fraction=0.9, processes=4, duration_ns=ms(60)),
    "read": dict(write_fraction=0.0, processes=1, duration_ns=ms(60)),
}
DST_SEED = 0


def counted(fn):
    """``fn()``'s result and the calls into ``src/repro`` frames it made."""
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            calls += 1

    sys.setprofile(count)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


def calls_per_op(name: str) -> float:
    if name == "cluster_dst":
        run = ClusterDstRun(DST_SEED)
        _result, calls = counted(run.run)
        return calls / run.config.num_ops
    if name == "serving_dst":
        result, calls = counted(ServingDstRun(DST_SEED).run)
        return calls / (result.ops + result.shed + result.errors + result.unresolved)
    machine = Machine.create(xpoint_ssd(), TINY.page_cache_bytes, seed=11)
    db = machine.open_db(TINY.options())
    spec = TINY.prefill_spec()
    if name == "prefill":  # the set-up every run pays: its op is one prefilled key
        _files, calls = counted(partial(prefill, db, spec))
        return calls / spec.key_count
    prefill(db, spec)
    cfg = DbBenchConfig(
        value_size=TINY.value_size,
        key_count=TINY.key_count,
        seed=11,
        **RUNS[name],
    )
    result, calls = counted(partial(DbBench(cfg).run, db))
    return calls / result.ops


@pytest.mark.skipif(repro.sim.stats._np is None, reason="budgets are counted with numpy")
@pytest.mark.parametrize("name", sorted(MEASURED))
def test_calls_per_op_within_budget(name):
    got = calls_per_op(name)
    budget = MEASURED[name] * 1.05
    print(f"{name}: {got:.2f} calls per op (budget {budget:.2f})")
    assert got <= budget, f"{name}: {got:.2f} calls per op, budget {budget:.2f}"


if __name__ == "__main__":
    for run in sorted(MEASURED):
        print(f"{run}: {calls_per_op(run):.2f} calls per op")
