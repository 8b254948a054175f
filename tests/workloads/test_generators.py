"""Tests for workload generators."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.sim.rng import RandomStream
from repro.sim.units import seconds
from repro.workloads.generators import (
    BurstSchedule,
    KeySpace,
    ValueSpec,
    encode_key,
)


class TestKeys:
    def test_encode_fixed_width_sortable(self):
        assert encode_key(0) == b"0000000000000000"
        assert len(encode_key(123456)) == 16
        assert encode_key(1) < encode_key(2) < encode_key(10)

    def test_roundtrip(self):
        for i in (0, 1, 99999, 10**15 - 1):
            assert int(encode_key(i)) == i

    def test_negative_rejected(self):
        with pytest.raises(WorkloadError):
            encode_key(-1)

    @given(a=st.integers(0, 10**12), b=st.integers(0, 10**12))
    def test_byte_order_equals_numeric_order(self, a, b):
        assert (encode_key(a) < encode_key(b)) == (a < b)


class TestKeySpace:
    def test_key_at_bounds(self):
        ks = KeySpace(100)
        assert ks.key_at(0) == encode_key(0)
        assert ks.key_at(99) == encode_key(99)
        with pytest.raises(WorkloadError):
            ks.key_at(100)

    def test_random_key_in_range(self):
        ks = KeySpace(50)
        rng = RandomStream(1)
        for _ in range(100):
            assert 0 <= int(ks.random_key(rng)) < 50

    def test_span(self):
        lo, hi = KeySpace(10).span()
        assert lo == encode_key(0) and hi == encode_key(9)

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            KeySpace(0)


class TestValueSpec:
    def test_default_paper_size(self):
        assert ValueSpec().size == 1024

    def test_value_for_deterministic_per_version(self):
        spec = ValueSpec(100)
        assert spec.value_for(5, 1) == spec.value_for(5, 1)
        assert spec.value_for(5, 1) != spec.value_for(5, 2)
        assert spec.value_for(5, 1).size == 100

    def test_invalid_size(self):
        with pytest.raises(WorkloadError):
            ValueSpec(0)


class TestBurstSchedule:
    def paper_schedule(self):
        # 1:1 base with a 1:9 burst for 25 s out of every 60 s.
        return BurstSchedule(0.5, 0.9, period_ns=seconds(60), burst_ns=seconds(25))

    def test_burst_phase(self):
        sched = self.paper_schedule()
        assert sched.write_fraction_at(seconds(10)) == 0.9
        assert sched.write_fraction_at(seconds(24)) == 0.9
        assert sched.write_fraction_at(seconds(30)) == 0.5
        assert sched.write_fraction_at(seconds(59)) == 0.5

    def test_periodicity(self):
        sched = self.paper_schedule()
        assert sched.write_fraction_at(seconds(70)) == 0.9  # second period
        assert sched.write_fraction_at(seconds(95)) == 0.5

    def test_validation(self):
        with pytest.raises(WorkloadError):
            BurstSchedule(0.5, 0.9, period_ns=0, burst_ns=0)
        with pytest.raises(WorkloadError):
            BurstSchedule(0.5, 0.9, period_ns=100, burst_ns=200)
        with pytest.raises(WorkloadError):
            BurstSchedule(1.5, 0.9, period_ns=100, burst_ns=50)
