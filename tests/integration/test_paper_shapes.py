"""Integration tests: the paper's qualitative findings at reduced scale.

Each test reproduces one finding's *direction* (who is faster, what grows,
what inverts) on short runs.  The benchmark suite regenerates the full
figures; these assertions are the fast regression net for the phenomena
themselves.
"""

import pytest

from repro.core.bottlenecks import near_stop_fraction
from repro.harness.experiments import WorkloadPoint, run_points, run_workload
from repro.harness.presets import TINY
from repro.sim.units import seconds
from repro.workloads.generators import BurstSchedule

SEED = 13
DUR = seconds(0.8)


def run(device, wf, **kwargs):
    """One run through the registry's memo: equal points run once."""
    kwargs.setdefault("duration_ns", DUR)
    (done,) = run_points([WorkloadPoint(device, TINY, wf, seed=SEED, **kwargs)])
    return done


@pytest.fixture(scope="module")
def mixed_runs():
    """R/W 1:1 runs on all three devices (shared by several tests)."""
    return {
        device: run(device, 0.5)
        for device in ("sata-flash", "pcie-flash", "xpoint")
    }


class TestDeviceEvolution:
    def test_throughput_ordering_mixed(self, mixed_runs):
        """Finding #1 backdrop: XPoint > PCIe flash > SATA flash at 1:1."""
        kops = {d: r.result.kops for d, r in mixed_runs.items()}
        assert kops["xpoint"] > kops["pcie-flash"] > kops["sata-flash"]

    def test_read_latency_ordering(self, mixed_runs):
        """Figures 6/10/14: XPoint reads far shorter than SATA flash."""
        p90 = {
            d: r.result.read_latency.percentile(90) for d, r in mixed_runs.items()
        }
        assert p90["xpoint"] < p90["pcie-flash"] < p90["sata-flash"]
        assert p90["sata-flash"] > 2 * p90["xpoint"]

    def test_end_to_end_gain_smaller_than_raw(self, mixed_runs):
        """Figure 1's point: RocksDB gains much less than the raw device."""
        from repro.storage.iotoolkit import RawBenchmark, RawWorkloadConfig
        from repro.storage.profiles import sata_flash_ssd, xpoint_ssd

        raw_cfg = RawWorkloadConfig(duration_ns=seconds(0.3), submit_overhead_ns=2000)
        raw_sata = RawBenchmark(raw_cfg).run_profile(sata_flash_ssd()).kops
        raw_xp = RawBenchmark(raw_cfg).run_profile(xpoint_ssd()).kops
        kv_ratio = (
            mixed_runs["xpoint"].result.kops / mixed_runs["sata-flash"].result.kops
        )
        assert raw_xp / raw_sata > 2 * kv_ratio


class TestThrottling:
    def test_xpoint_throttles_at_high_insertion(self):
        """Finding #1: write-heavy load triggers Algorithm 1 on XPoint."""
        heavy = run("xpoint", 1.0)
        tickers = heavy.result.db_tickers
        assert tickers.get("stall.delays_hit", 0) > 0

    def test_xpoint_advantage_shrinks_with_insertion_ratio(self):
        """Figure 3: the XPoint/PCIe gap collapses as writes dominate."""
        read_gap = run("xpoint", 0.0).result.kops / run("pcie-flash", 0.0).result.kops
        write_gap = run("xpoint", 1.0).result.kops / run("pcie-flash", 1.0).result.kops
        assert write_gap < read_gap
        assert write_gap < 1.6  # converged (paper: 45 vs 41.3)

    def test_two_stage_removes_near_stop(self):
        """Figure 18: two-stage throttling lifts the near-stop floor."""
        duration = seconds(3.0)
        schedule = BurstSchedule(0.5, 1.0, period_ns=seconds(1.0), burst_ns=seconds(0.5))

        def burst_run(controller):
            art = run_workload(WorkloadPoint(
                "xpoint", TINY, 0.5, seed=SEED, duration_ns=duration,
                schedule=schedule, controller=controller, warmup_fraction=0.05,
            ))
            series = art.result.timeline.series(0, duration)
            return art, series

        original, orig_series = burst_run("")
        twostage, ts_series = burst_run("two-stage")
        orig_frac = near_stop_fraction(orig_series)
        ts_frac = near_stop_fraction(ts_series)
        assert ts_frac <= orig_frac
        # The bursts must actually have stressed the write path (either the
        # delay stages or the memtable-stop backstop engaged).
        stats = twostage.db.controller.stats
        stressed = (
            stats.get("stage1_writes")
            + stats.get("stage2_writes")
            + stats.get("stops")
        )
        assert stressed > 0


class TestLevel0:
    def test_larger_files_fewer_l0(self):
        """Figure 8 at tiny scale."""
        def avg_l0(wb_mult):
            opts = TINY.options(
                write_buffer_size=int(TINY.write_buffer_size * wb_mult)
            )
            art = run("xpoint", 0.7, options=opts)
            samples = [c for _, c in art.result.l0_file_counts]
            return sum(samples) / max(1, len(samples))

        assert avg_l0(0.5) > avg_l0(4.0)


class TestLogging:
    def test_wal_off_faster_writes(self):
        """Figure 17: disabling the WAL cuts write latency."""
        on = run("xpoint", 0.9)
        off = run("xpoint", 0.9, options=TINY.options(wal_mode="off"))
        assert (
            off.result.write_latency.percentile(90)
            < on.result.write_latency.percentile(90)
        )

    def test_nvm_wal_not_slower_than_ssd_wal(self):
        """Figure 20: NVM logging's write tail <= SSD logging's."""
        ssd = run("xpoint", 0.5)
        nvm = run("xpoint", 0.5, wal_on_nvm=True)
        assert (
            nvm.result.write_latency.percentile(90)
            <= ssd.result.write_latency.percentile(90) * 1.05
        )


class TestParallelism:
    def test_throughput_scales_with_processes(self):
        """Figure 13: more client processes, more throughput."""
        one = run("xpoint", 0.5, processes=1)
        eight = run("xpoint", 0.5, processes=8)
        assert eight.result.kops > 1.5 * one.result.kops

    def test_more_waiting_writers_on_xpoint_than_sata(self):
        """Figure 16: fast reads recycle threads into the writer queue."""
        xp = run("xpoint", 0.5, processes=16, duration_ns=seconds(0.4))
        sata = run("sata-flash", 0.5, processes=16, duration_ns=seconds(0.4))
        assert (
            xp.result.mean_waiting_writers >= sata.result.mean_waiting_writers
        )
