"""Tests for the deterministic-simulation crash-consistency harness."""

import pytest

from repro.dst import DstConfig, DstRun
from repro.faults import CRASH, TORN_APPEND, FaultSchedule, FaultSpec
from repro.sim.units import ms


pytestmark = pytest.mark.dst


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_same_seed_same_run(self, seed):
        """Two in-process runs of one seed are byte-identical: same event
        log, same verdict, same fault schedule.  This is the property the
        whole harness rests on — a failing seed must replay exactly."""
        a = DstRun(seed, DstConfig(num_ops=120)).run()
        b = DstRun(seed, DstConfig(num_ops=120)).run()
        assert a.events == b.events
        assert a.verdict == b.verdict
        assert a.schedule_json == b.schedule_json
        assert (a.cut, a.writes_acked, a.crash_ns) == (
            b.cut,
            b.writes_acked,
            b.crash_ns,
        )

    def test_different_seeds_diverge(self):
        a = DstRun(1, DstConfig(num_ops=120)).run()
        b = DstRun(2, DstConfig(num_ops=120)).run()
        assert a.events != b.events


class TestVerdicts:
    def test_clean_run_loses_nothing(self):
        """No faults, no crash: every issued write is in the final state."""
        result = DstRun(3, DstConfig(num_ops=150, faults=False)).run()
        assert result.ok, result.reason
        assert result.crash_ns == -1  # clean end-of-run power cut
        assert result.faults_fired == 0
        assert result.cut == result.writes_issued

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(8))
    def test_seed_sweep_recovers_consistently(self, seed):
        """A slice of the CI sweep: random faults + crash, all invariants."""
        result = DstRun(seed, DstConfig(num_ops=200)).run()
        assert result.ok, f"seed {seed}: {result.reason}\n" + "\n".join(
            result.events[-20:]
        )

    @pytest.mark.parametrize(
        "seed, cut, issued", [(1965, 89, 90), (1980, 79, 80), (3332, 161, 162)]
    )
    def test_read_only_rejection_stops_the_client(self, seed, cut, issued):
        """A WAL-sync fault classifies hard and the next put is rejected
        read-only.  The client must log the typed rejection and stop
        issuing (a rejected tail is prefix-consistent) — these three seeds
        used to leak the DBReadOnlyError out of ``run()``."""
        result = DstRun(seed).run()
        assert result.ok, result.reason
        assert (result.cut, result.writes_issued) == (cut, issued)
        rejects = [e for e in result.events if " reject #" in e]
        assert len(rejects) == 1 and "read-only (hard)" in rejects[0]
        assert not any(" issue #" in e for e in result.events[result.events.index(rejects[0]):])

    def test_explicit_schedule_replayed(self):
        """A caller-supplied schedule overrides the random one (--replay)."""
        schedule = FaultSchedule(
            [
                FaultSpec(TORN_APPEND, path="wal/", at_op=10),
                FaultSpec(CRASH, at_time=ms(2)),
            ]
        )
        config = DstConfig(num_ops=200, schedule=schedule)
        result = DstRun(6, config).run()
        assert result.crash_ns == ms(2)
        assert result.schedule_json == schedule.to_json()
        assert result.ok, result.reason
