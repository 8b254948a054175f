"""Tests for the serving chaos DST harness (``repro.dst.serving``)."""

from __future__ import annotations

import pytest

from repro.dst import ServingDstConfig, ServingDstRun
from repro.dst.serving import draw_serving_chaos, leader_fault_count
from repro.faults import CRASH, PARTITION, FaultSchedule, FaultSpec
from repro.sim.rng import RandomStream
from repro.sim.units import ms

pytestmark = pytest.mark.dst


class TestChaosDraw:
    @pytest.mark.parametrize("seed", range(40))
    def test_every_seed_draws_a_leader_affecting_fault(self, seed):
        """The harness's guarantee: no fair-weather seeds.  Every drawn
        schedule crashes a leader or partitions one away mid-traffic."""
        rng = RandomStream(seed, "chaos-draw-test")
        schedule = draw_serving_chaos(rng, ms(100), shards=2, replicas=3)
        assert leader_fault_count(schedule, 3) >= 1
        for spec in schedule.specs:
            assert spec.at_time is not None
            assert spec.at_time < ms(100)

    def test_leader_fault_count_counts_crashes_and_partitions(self):
        schedule = FaultSchedule(
            [
                FaultSpec(CRASH, at_time=ms(1), node=0),
                FaultSpec(PARTITION, at_time=ms(2), until_time=ms(3), nodes=(3,)),
            ]
        )
        assert leader_fault_count(schedule, 3) == 2
        assert leader_fault_count(FaultSchedule(), 3) == 0


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 2])
    def test_same_seed_same_run(self, seed):
        cfg = ServingDstConfig(duration_ns=ms(50))
        a = ServingDstRun(seed, cfg).run()
        b = ServingDstRun(seed, ServingDstConfig(duration_ns=ms(50))).run()
        assert a.events == b.events
        assert a.verdict == b.verdict
        assert a.log_digest == b.log_digest
        assert a.schedule_json == b.schedule_json

    def test_different_seeds_diverge(self):
        a = ServingDstRun(1, ServingDstConfig(duration_ns=ms(50))).run()
        b = ServingDstRun(2, ServingDstConfig(duration_ns=ms(50))).run()
        assert a.events != b.events


class TestVerdicts:
    def test_clean_run_completes_everything(self):
        result = ServingDstRun(
            3, ServingDstConfig(duration_ns=ms(50), faults=False)
        ).run()
        assert result.ok, result.reason
        assert result.leader_faults == 0
        assert result.shed == 0 and result.errors == 0
        assert result.unresolved == 0
        assert result.converged

    def test_chaos_seed_holds_the_serving_contract(self):
        result = ServingDstRun(0, ServingDstConfig()).run()
        assert result.ok, f"{result.reason}\n" + "\n".join(result.events[-25:])
        assert result.leader_faults >= 1
        assert result.ryw_violations == 0
        assert result.unresolved == 0
        assert result.converged

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(10))
    def test_seed_sweep_holds_invariants(self, seed):
        """A slice of the CI sweep: every seed injects a leader-affecting
        fault during live traffic, and no acked write is lost, no RYW
        violation occurs, no op hangs, all groups re-converge."""
        result = ServingDstRun(seed, ServingDstConfig()).run()
        assert result.ok, f"seed {seed}: {result.reason}\n" + "\n".join(
            result.events[-25:]
        )
        assert result.leader_faults >= 1

    def test_replayed_partition_schedule(self):
        """An explicit leader-isolating partition replays; writes shed
        during the window, everything reconciles after heal."""
        schedule = FaultSchedule(
            [
                FaultSpec(
                    PARTITION,
                    at_time=ms(20),
                    until_time=ms(50),
                    nodes=(0,),  # group 0's initial leader cut off
                )
            ]
        )
        result = ServingDstRun(
            7, ServingDstConfig(duration_ns=ms(80), schedule=schedule)
        ).run()
        assert result.ok, result.reason
        assert result.unresolved == 0

    def test_tenant_rows_carry_resilience_columns(self):
        result = ServingDstRun(0, ServingDstConfig(duration_ns=ms(40))).run()
        for row in result.tenant_rows:
            assert "shed" in row and "errors" in row
            assert "fault_p99_us" in row and "steady_p99_us" in row
