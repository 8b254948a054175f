"""The declarative experiment matrix: registry, rendering, determinism."""

from __future__ import annotations

import os

import pytest

from repro.errors import WorkloadError
from repro.faults import LATENCY_SPIKE, READ_ERROR, STALL
from repro.harness.report import ExperimentResult
from repro.jobs import map_points
from repro.matrix.registry import DEVICES, TABLES, table_by_id
from repro.matrix.render import (
    begin_marker,
    end_marker,
    extract_block,
    inject_block,
    render_block,
)
from repro.matrix.runner import (
    MATRIX_PRESET,
    MATRIX_SEED,
    SCENARIOS,
    SERVING,
    Cell,
    Scenario,
)
from repro.sim.units import ms, seconds
from repro.workloads.ycsb import MATRIX_WORKLOADS

pytestmark = pytest.mark.matrix

EXPERIMENTS_MD = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "EXPERIMENTS.md"
)

YCSB_METRICS = {"kops", "p50_us", "p99_us", "faults"}
SERVING_METRICS = {"kops", "p99_us", "slo_met", "tenants", "shed", "failovers"}


def cells_of(table):
    return list(table.points(MATRIX_PRESET, MATRIX_SEED).values())


class TestRegistry:
    def test_tables_are_well_formed(self):
        assert len(TABLES) >= 3
        for table in TABLES.values():
            cells = cells_of(table)
            assert cells, table.exp_id
            assert len(set(cells)) == len(cells)
            for cell in cells:  # cells validate on construction
                assert cell.device in DEVICES
                assert cell.workload in MATRIX_WORKLOADS or cell.workload == SERVING
                assert cell.scenario in SCENARIOS

    def test_registered_grids_cover_the_issue_contract(self):
        ycsb = cells_of(table_by_id("ycsb-devices"))
        assert {c.workload for c in ycsb} == set(MATRIX_WORKLOADS)
        assert {c.device for c in ycsb} == set(DEVICES)
        grid = cells_of(table_by_id("fault-grid"))
        assert {c.scenario for c in grid} == {"clean", "io-spikes", "stalls"}
        serving = cells_of(table_by_id("serving-failover"))
        assert {c.workload for c in serving} == {SERVING}
        assert {c.scenario for c in serving} == {
            "steady",
            "leader-crash",
            "leader-partition",
        }
        assert {c.device for c in serving} == set(DEVICES)
        # A cell two tables share is one value, so it runs once.
        assert set(ycsb) & set(grid) == {Cell(d, "A", "clean") for d in DEVICES}

    def test_unknown_lookups_raise(self):
        with pytest.raises(WorkloadError):
            table_by_id("nope")
        with pytest.raises(WorkloadError):
            Cell("sata-flash", "Z", "clean")
        with pytest.raises(WorkloadError):
            Cell("sata-flash", "A", "earthquake")
        with pytest.raises(WorkloadError):  # node faults need the serving tier
            Cell("sata-flash", "A", "leader-crash")
        with pytest.raises(WorkloadError):  # device storms need a YCSB client
            Cell("sata-flash", SERVING, "stalls")

    def test_scenarios_reject_error_kinds_and_bad_windows(self):
        with pytest.raises(WorkloadError):
            Scenario("bad", "bad", kind=READ_ERROR, window=(0.1, 0.5), extra_ns=1)
        with pytest.raises(WorkloadError):
            Scenario("bad", "bad", kind=STALL, window=(0.5, 0.1), extra_ns=ms(1))
        with pytest.raises(WorkloadError):
            Scenario("bad", "bad", kind=STALL, window=(0.1, 0.5))

    def test_serving_scenarios_validate_and_schedule(self):
        with pytest.raises(WorkloadError):
            Scenario("bad", "bad", kind="meteor")
        with pytest.raises(WorkloadError):
            Scenario("bad", "bad", kind="crash", window=(0.8, 0.2))
        crash = SCENARIOS["leader-crash"]
        (spec,) = crash.schedule(seconds(1.0)).specs
        assert spec.node == 0
        assert spec.at_time == int(seconds(1.0) * crash.window[0])
        part = SCENARIOS["leader-partition"]
        (spec,) = part.schedule(seconds(1.0)).specs
        assert spec.nodes == (0,)
        assert spec.until_time == int(seconds(1.0) * part.window[1])
        assert not SCENARIOS["steady"].schedule(seconds(1.0)).specs

    def test_scenario_schedules_scale_with_duration(self):
        spikes = SCENARIOS["io-spikes"]
        schedule = spikes.schedule(seconds(1.0))
        (spec,) = schedule.specs
        assert spec.kind == LATENCY_SPIKE
        assert spec.at_time == int(seconds(1.0) * spikes.window[0])
        assert spec.until_time == int(seconds(1.0) * spikes.window[1])
        assert not SCENARIOS["clean"].schedule(seconds(1.0)).specs


def render_fake(table):
    """The table's block over made-up cell metrics."""
    runs = {
        label: {m: float(i + j) for j, m in enumerate(sorted(YCSB_METRICS | SERVING_METRICS))}
        for i, label in enumerate(table.points(MATRIX_PRESET, MATRIX_SEED))
    }
    res = ExperimentResult(table.exp_id, table.title, list(table.columns))
    table.reduce(res, runs)
    return render_block(res)


class TestRender:
    @pytest.mark.parametrize("table_id", sorted(TABLES))
    def test_blocks_are_marked_and_deterministic(self, table_id):
        table = TABLES[table_id]
        block = render_fake(table)
        assert block.startswith(begin_marker(table_id))
        assert block.endswith(end_marker(table_id))
        assert block == render_fake(table)

    def test_inject_extract_round_trip(self):
        table = TABLES["fault-grid"]
        doc = (
            "# Doc\n\nintro\n\n"
            f"{begin_marker(table.exp_id)}\nstale\n{end_marker(table.exp_id)}\n\n"
            "outro\n"
        )
        block = render_fake(table)
        injected = inject_block(doc, table.exp_id, block)
        assert extract_block(injected, table.exp_id) == block
        assert injected.startswith("# Doc\n\nintro\n\n")
        assert injected.endswith("\n\noutro\n")
        # Re-injecting the same block is idempotent.
        assert inject_block(injected, table.exp_id, block) == injected

    def test_missing_markers_raise(self):
        with pytest.raises(WorkloadError):
            extract_block("no markers here", "fault-grid")
        with pytest.raises(WorkloadError):
            inject_block("no markers here", "fault-grid", "block")

    def test_experiments_md_carries_every_table_block(self):
        with open(EXPERIMENTS_MD, "r", encoding="utf-8") as fh:
            text = fh.read()
        for table_id in TABLES:
            block = extract_block(text, table_id)
            # The committed block is rendered, not a bare marker pair.
            assert "| " in block and table_id in block


class TestExecution:
    CELL = Cell("sata-flash", "A", "clean")

    def test_cells_report_every_metric(self):
        result = self.CELL.run()
        assert set(result) == YCSB_METRICS
        assert result["kops"] > 0
        assert result["p99_us"] >= result["p50_us"] > 0
        assert result["faults"] == 0

    def test_fault_cells_fire_and_degrade(self):
        clean = self.CELL.run()
        stalled = Cell("sata-flash", "A", "stalls").run()
        assert stalled["faults"] > 0
        assert stalled["kops"] < clean["kops"]

    def test_serving_cells_run_through_the_dst_harness(self):
        cell = Cell("xpoint", SERVING, "leader-crash")
        result = cell.run()
        assert set(result) == SERVING_METRICS
        assert result["kops"] > 0
        assert result["slo_met"] <= result["tenants"]

    def test_cells_are_deterministic_and_jobs_invariant(self):
        cells = [self.CELL, Cell("sata-flash", "A", "io-spikes")]
        serial = map_points(Cell.run, cells, jobs=1)
        parallel = map_points(Cell.run, cells, jobs=2)
        assert serial == parallel
        assert serial[0] == self.CELL.run()
