"""The paper's shapes in tier-1: every registry entry whose shape holds at
``tiny`` (``Entry.holds_at``), run at ``tiny`` / 0.4 s at its own seed and
checked against its ``Entry.shapes``.  ``benchmarks/test_figures.py`` runs
all of them at ``small``.

Runs go through the registry's memo, so an entry whose points another test
already ran costs nothing here; distinct points run in ``JOBS`` worker
processes.  The tests after the parametrized one are shapes no entry can
carry at ``tiny``; each says why.
"""

import pytest

from repro.core.bottlenecks import near_stop_fraction
from repro.harness.experiments import FIGURES, WorkloadPoint, run_experiment, run_points
from repro.harness.presets import PRESETS, TINY
from repro.sim.units import seconds
from repro.workloads.generators import BurstSchedule
from tests.conftest import JOBS

AT_TINY = [exp_id for exp_id, entry in FIGURES.items() if entry.holds_at == "tiny"]


@pytest.fixture(autouse=True)
def fast_runs(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SECONDS", "0.4")


def test_every_entry_has_a_shape_and_a_scale():
    assert all(entry.shapes and entry.holds_at in PRESETS for entry in FIGURES.values())
    assert sorted(set(FIGURES) - set(AT_TINY)) == [
        "fig03", "fig04", "fig05", "fig15", "fig18", "fig19",
    ]


@pytest.mark.parametrize("exp_id", AT_TINY)
def test_shape_holds_at_tiny(exp_id):
    entry = FIGURES[exp_id]
    res = run_experiment(entry, TINY, jobs=JOBS)
    failed = [text for text, holds in entry.shapes if not holds(res)]
    assert not failed, "; ".join(failed) + "\n" + res.render()


def test_xpoint_throttles_at_high_insertion():
    """Finding #1: write-heavy load makes Algorithm 1 delay writes on XPoint.
    Kept: it reads the stall tickers, which no entry has a column for."""
    (heavy,) = run_points([WorkloadPoint("xpoint", TINY, 1.0, seed=13, duration_ns=seconds(0.8))])
    assert heavy.result.db_tickers.get("stall.delays_hit", 0) > 0


def test_xpoint_advantage_shrinks_with_insertion_ratio():
    """Figure 3: the XPoint/PCIe gap collapses as writes dominate (paper: 45
    vs 41.3 kop/s).  Kept: fig03's whole shape needs ``small``; this part
    of it holds on fig03's own ``tiny`` runs."""
    res = run_experiment(FIGURES["fig03"], TINY, jobs=JOBS)

    def gap(write_fraction):
        kops = {r["device"]: r["kops"] for r in res.rows if r["write_fraction"] == write_fraction}
        return kops["xpoint"] / kops["pcie-flash"]

    assert gap(1.0) < gap(0.0)
    assert gap(1.0) < 1.6


def test_two_stage_removes_near_stop():
    """Figure 18: two-stage throttling removes the original's near-stop
    valley.  Kept: fig18's own bursts at ``tiny`` reach only memtable stops,
    which both controllers handle alike, so its two rows are equal there.
    Here L0 triggers scaled to ``tiny`` (slowdown 8, stop 16) and room for
    six memtables let the bursts reach the delayed state."""
    duration = seconds(2.0)
    options = TINY.options(
        level0_slowdown_writes_trigger=8, level0_stop_writes_trigger=16, max_write_buffer_number=6
    )
    schedule = BurstSchedule(0.5, 1.0, duration // 3, int(duration // 3 * 0.42))
    original, two_stage = (
        near_stop_fraction(run.result.timeline.series(run.result.config.warmup_ns, duration))
        for run in run_points(
            [
                WorkloadPoint(
                    "xpoint", TINY, 0.5, duration_ns=duration, options=options,
                    schedule=schedule, controller=controller, warmup_fraction=0.1,
                )
                for controller in ("", "two-stage")
            ],
            JOBS,
        )
    )
    assert two_stage < original
