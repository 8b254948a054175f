"""Tests for admission control (``repro.serving.admission``)."""

import pytest

from repro.errors import WorkloadError
from repro.lsm.options import Options
from repro.lsm.write_controller import DELAYED, STOPPED, WriteController
from repro.serving.admission import (
    MIN_PRESSURE,
    STOP_FACTOR,
    AdmissionController,
    TenantBudget,
    TokenBucket,
)
from repro.sim.engine import Engine
from repro.sim.units import SEC


class TestTokenBucket:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            TokenBucket(0)
        with pytest.raises(WorkloadError):
            TokenBucket(-5.0)
        with pytest.raises(WorkloadError):
            TokenBucket(100, burst=0)

    def test_paces_to_configured_rate(self):
        """Back-to-back arrivals are spaced one token interval apart."""
        bucket = TokenBucket(1000.0, burst=1)  # token = 1 ms
        token_ns = SEC // 1000
        assert bucket.reserve(0) == 0
        for i in range(1, 5):
            assert bucket.reserve(0) == i * token_ns

    def test_burst_admits_free_then_paces(self):
        """A full bucket admits exactly ``burst`` ops with zero delay."""
        bucket = TokenBucket(1000.0, burst=4)
        free = 0
        while bucket.reserve(0) == 0:
            free += 1
        assert free == 4

    def test_idle_credit_capped_at_burst(self):
        """Long idle banks at most ``burst`` tokens of credit."""
        bucket = TokenBucket(1000.0, burst=2)
        while bucket.reserve(0) == 0:
            pass  # drain the initial credit
        later = 10 * SEC
        free = 0
        while bucket.reserve(later) == 0:
            free += 1
        assert free == 2

    def test_scale_tightens_rate(self):
        """scale < 1 stretches the token interval for that reservation."""
        token_ns = SEC // 1000
        full = TokenBucket(1000.0, burst=1)
        full.reserve(0)
        squeezed = TokenBucket(1000.0, burst=1)
        squeezed.reserve(0, scale=0.5)
        assert full.reserve(0) == token_ns
        assert squeezed.reserve(0, scale=0.5) == 2 * token_ns

    def test_scale_floored_at_min_pressure(self):
        """scale = 0 must not zero the rate (clients must keep probing)."""
        bucket = TokenBucket(1000.0, burst=1)
        bucket.reserve(0, scale=0.0)
        delay = bucket.reserve(0, scale=0.0)
        assert delay == round(SEC / (1000.0 * MIN_PRESSURE))

    def test_deterministic(self):
        a, b = TokenBucket(777.0, burst=3), TokenBucket(777.0, burst=3)
        arrivals = [0, 100, 100, 5_000_000, 5_000_001, 9_000_000]
        assert [a.reserve(t) for t in arrivals] == [
            b.reserve(t) for t in arrivals
        ]


def make_controller(**overrides):
    return WriteController(Engine(), Options(**overrides))


class TestAdmissionController:
    def test_unbudgeted_tenant_passes_free(self):
        admission = AdmissionController([])
        assert admission.admit("nobody", now=0) == 0
        assert admission.stats.get("admitted.nobody") == 0

    def test_throttle_stats(self):
        admission = AdmissionController([])
        admission.set_budget("t0", TenantBudget(ops_per_sec=1000.0, burst=1))
        assert admission.admit("t0", now=0) == 0
        delay = admission.admit("t0", now=0)
        assert delay > 0
        assert admission.stats.get("admitted.t0") == 2
        assert admission.stats.get("throttled.t0") == 1
        assert admission.stats.get("throttle_ns.t0") == delay

    def test_pressure_normal(self):
        admission = AdmissionController([make_controller()])
        assert admission.pressure() == 1.0

    def test_pressure_tracks_worst_delayed_shard(self):
        healthy = make_controller()
        delayed = make_controller()
        delayed.state = DELAYED
        delayed.delayed_write_rate = (
            float(delayed.options.delayed_write_rate) / 4
        )
        admission = AdmissionController([healthy, delayed])
        assert admission.pressure() == pytest.approx(0.25)

    def test_pressure_stopped_floors_at_trickle(self):
        stopped = make_controller()
        stopped.state = STOPPED
        admission = AdmissionController([make_controller(), stopped])
        assert admission.pressure() == STOP_FACTOR

    def test_stall_pressure_stretches_admission(self):
        """The same arrival pattern throttles harder under a stalled shard."""
        stalled = make_controller()
        stalled.state = STOPPED
        tight = AdmissionController([stalled])
        loose = AdmissionController([make_controller()])
        for admission in (tight, loose):
            admission.set_budget("t", TenantBudget(1000.0, burst=1))
        tight.admit("t", 0)
        loose.admit("t", 0)
        assert tight.admit("t", 0) > loose.admit("t", 0)
