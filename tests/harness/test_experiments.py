"""Tests for the experiment registry and its memo at tiny scale.

These validate experiment structure and bookkeeping, not the paper shapes —
shape assertions (which need more simulated time) live in
``tests/integration/test_paper_shapes.py`` and in the benchmark suite.
Runs are memoized by point value for the whole test run, so tests that need
an equal run share it.
"""

from dataclasses import fields

import pytest

from repro.harness import experiments as exp
from repro.harness.presets import SMALL, TINY
from repro.sim.units import ms, seconds
from repro.workloads.generators import BurstSchedule


@pytest.fixture(autouse=True)
def fast_runs(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SECONDS", "0.4")


def run(exp_id):
    return exp.run_experiment(exp.FIGURES[exp_id], TINY, seed=3)


def test_registry_covers_every_figure():
    expected = {
        "fig01", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
        "fig09", "fig10", "fig12", "fig13", "fig14", "fig15", "fig16",
        "fig17", "fig18", "fig19", "fig20", "model1",
        "ablation-bloom", "ablation-walz", "ablation-wq", "ablation-ratelimit",
    }
    assert set(exp.FIGURES) == expected
    assert all(e.seed == exp.ABLATION_SEED for i, e in exp.FIGURES.items()
               if i.startswith("ablation-"))


def test_run_workload_artifacts():
    run = exp.run_workload(exp.WorkloadPoint("xpoint", TINY, write_fraction=0.5,
                                             seed=3, duration_ns=seconds(0.3)))
    assert run.result.ops > 0
    assert run.db.stats.get("gets") > 0
    assert run.machine.engine.now >= seconds(0.3)


def test_model1_table():
    res = exp.run_experiment(exp.FIGURES["model1"], TINY)
    assert res.exp_id == "model1"
    assert len(res.rows) == 2
    assert res.rows[0]["lambda_a_kops"] == pytest.approx(2.74, abs=0.01)


def test_fig06_after_fig03_runs_no_new_point():
    run("fig03")
    memo_size = len(exp._memo)
    run("fig06")
    run("fig07")
    assert len(exp._memo) == memo_size  # fig03's 0.9 points are fig06/07's


def _burst_point(**overrides):
    """A fig18-style point built from scratch on every call."""
    fields_ = dict(
        device="xpoint", preset=TINY, write_fraction=0.5, processes=2,
        duration_ns=ms(100), seed=3, options=TINY.options(), controller="",
        wal_on_nvm=False,
        schedule=BurstSchedule(0.5, 0.9, period_ns=ms(50), burst_ns=ms(20)),
        warmup_fraction=0.25, dynamic_l0=False,
    )
    fields_.update(overrides)
    return exp.WorkloadPoint(**fields_)


def test_equal_points_built_separately_share_one_run():
    a, b = _burst_point(), _burst_point()
    assert a == b and a.schedule is not b.schedule and a.options is not b.options
    (first,) = exp.run_points([a])
    memo_size = len(exp._memo)
    (second,) = exp.run_points([b])
    assert second is first and len(exp._memo) == memo_size
    # Defaults resolve to the values they stand for.
    assert exp.WorkloadPoint("xpoint", TINY, 0.5) == exp.WorkloadPoint(
        "xpoint", TINY, 0.5, processes=TINY.processes, duration_ns=seconds(0.4),
        options=TINY.options(),
    )


DIFFERENT = dict(
    device="sata-flash", preset=SMALL, write_fraction=0.9, processes=4,
    duration_ns=ms(200), seed=4, options=TINY.options(bloom_bits_per_key=10),
    controller="two-stage", wal_on_nvm=True,
    schedule=BurstSchedule(0.5, 0.9, period_ns=ms(50), burst_ns=ms(30)),
    warmup_fraction=0.1, dynamic_l0=True,
)


def _leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_a_point_differing_in_any_field_gets_its_own_run():
    assert set(DIFFERENT) == {f.name for f in fields(exp.WorkloadPoint)}
    points = [_burst_point(), _burst_point(schedule=None)]
    points += [_burst_point(**{name: value}) for name, value in DIFFERENT.items()]
    keys = [exp.point_key(p) for p in points]
    assert len(set(keys)) == len(points)
    for point, key in zip(points, keys):
        # A key is plain values: never an object whose hash is its identity.
        assert all(type(v) in (str, int, float, bool, type(None)) for v in _leaves(key))
        assert key == exp.point_key(_burst_point(**{
            f.name: getattr(point, f.name) for f in fields(point)
        }))


def test_bench_seconds_is_part_of_the_key(monkeypatch):
    short = exp.WorkloadPoint("xpoint", TINY, 0.5)
    monkeypatch.setenv("REPRO_BENCH_SECONDS", "0.3")
    longer = exp.WorkloadPoint("xpoint", TINY, 0.5)
    assert short.duration_ns == seconds(0.4) and longer.duration_ns == seconds(0.3)
    assert exp.point_key(short) != exp.point_key(longer)


def test_fig06_rows_per_device():
    res = run("fig06")
    assert sorted(res.column("device")) == ["pcie-flash", "sata-flash", "xpoint"]
    assert all(row["p90_us"] >= row["p50_us"] for row in res.rows)


def test_fig17_has_on_off_rows():
    res = run("fig17")
    assert len(res.rows) == 6  # 3 devices x {on, off}
    for device in ("sata-flash", "pcie-flash", "xpoint"):
        res.row_for(device=device, wal="on")
        res.row_for(device=device, wal="off")


def test_fig20_three_configs():
    res = run("fig20")
    assert res.column("config") == ["wal-ssd", "wal-nvm", "wal-off"]
    assert all(row["write_p90_us"] > 0 for row in res.rows)


def test_fig04_series_and_stats():
    res = run("fig04")
    assert set(res.series) == {"sata-flash", "pcie-flash", "xpoint"}
    for row in res.rows:
        assert row["max_kops"] >= row["mean_kops"] >= 0


def test_fig08_structure():
    res = run("fig08")
    assert len(res.rows) == 12  # 3 devices x 4 sizes
    sizes = sorted({row["file_size_mb"] for row in res.rows})
    assert len(sizes) == 4


def test_fig19_gain_column():
    res = run("fig19")
    assert len(res.rows) == len(exp.FIG19_READ_RATIOS)
    for row in res.rows:
        assert row["default_kops"] > 0
        assert row["dynamic_kops"] > 0


def test_render_does_not_crash():
    res = exp.run_experiment(exp.FIGURES["model1"], TINY)
    text = res.render()
    assert "model1" in text
