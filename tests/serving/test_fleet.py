"""Tests for the tenant fleet generator (``repro.serving.fleet``)."""

import pytest

from repro.errors import WorkloadError
from repro.serving.fleet import (
    TenantSpec,
    TenantWorkload,
    default_tenants,
    tenant_key,
)
from repro.sim.rng import RandomStream
from repro.sim.units import seconds
from repro.workloads.ycsb import YcsbSpec


def make_spec(**overrides):
    base = dict(name="t0", users=1000, key_count=100, clients=2)
    base.update(overrides)
    return TenantSpec(**base)


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            make_spec(users=0)
        with pytest.raises(WorkloadError):
            make_spec(key_count=0)
        with pytest.raises(WorkloadError):
            make_spec(diurnal_amplitude=1.0)
        with pytest.raises(WorkloadError):
            make_spec(hot_migration_stride=-1)

    def test_aggregate_rate(self):
        spec = make_spec(users=4000)  # 0.05 ops/s per user
        assert spec.aggregate_rate == pytest.approx(200.0)

    def test_rate_multiplier_flat_without_amplitude(self):
        spec = make_spec()
        assert spec.rate_multiplier(0) == 1.0
        assert spec.rate_multiplier(10**9) == 1.0

    def test_rate_multiplier_oscillates(self):
        spec = make_spec(diurnal_amplitude=0.5)  # a 4 s day
        peak = spec.rate_multiplier(seconds(1.0))  # sin at quarter period
        trough = spec.rate_multiplier(seconds(3.0))
        assert peak == pytest.approx(1.5)
        assert trough == pytest.approx(0.5)
        assert spec.rate_multiplier(0) == pytest.approx(1.0)


class TestTenantKey:
    def test_prefix_isolates_tenants(self):
        assert tenant_key(3, 7).startswith(b"cf03/")
        assert tenant_key(4, 7).startswith(b"cf04/")

    def test_orders_within_tenant(self):
        keys = [tenant_key(1, i) for i in (0, 5, 99, 1000)]
        assert keys == sorted(keys)


class TestTenantWorkload:
    @pytest.mark.parametrize("distribution", ["zipfian", "latest", "uniform"])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_pick_index_stays_in_range(self, distribution, seed):
        spec = make_spec(
            key_count=50,
            mix=YcsbSpec("m", read=1.0, distribution=distribution),
        )
        wl = TenantWorkload(0, spec, seed)
        rng = RandomStream(seed, "fleet-test")
        for now in (0, 10**6, 10**9, 7 * 10**9):
            for _ in range(200):
                assert 0 <= wl.pick_index(rng, now) < wl._next_insert

    def test_insert_extends_key_space(self):
        wl = TenantWorkload(0, make_spec(key_count=10), seed=1)
        assert wl.insert_index() == 10
        assert wl.insert_index() == 11
        rng = RandomStream(2, "fleet-test")
        assert all(0 <= wl.pick_index(rng, 0) < 12 for _ in range(300))

    def test_migration_rotates_hot_set(self):
        spec = make_spec(
            key_count=100,
            hot_migration_period_ns=seconds(1.0),
            hot_migration_stride=10,
        )
        wl = TenantWorkload(0, spec, seed=3)
        assert wl._migration_offset(0) == 0
        assert wl._migration_offset(seconds(1.5)) == 10
        assert wl._migration_offset(seconds(3.0)) == 30
        # Rank 0 maps to a rotated key index after a period elapses.
        assert (0 + wl._migration_offset(seconds(1.5))) % 100 == 10

    def test_all_keys_cover_initial_population(self):
        wl = TenantWorkload(2, make_spec(key_count=5), seed=1)
        keys = wl.all_keys()
        assert len(keys) == 5
        assert all(k.startswith(b"cf02/") for k in keys)
        assert keys == sorted(keys)


class TestDefaultTenants:
    def test_shapes(self):
        specs = default_tenants(6, users_per_tenant=1000, key_count=200)
        assert len(specs) == 6
        assert [s.name for s in specs] == [f"tenant-{i:02d}" for i in range(6)]
        assert all(s.users == 1000 and s.key_count == 200 for s in specs)
        # Mixes cycle: the population is heterogeneous by construction.
        assert len({s.mix.name for s in specs}) > 1
        # Some tenants migrate their hot keys, most do not.
        migrators = [s for s in specs if s.hot_migration_period_ns > 0]
        assert 0 < len(migrators) < len(specs)

    def test_phases_spread_over_the_day(self):
        specs = default_tenants(4, users_per_tenant=100)
        assert len({s.diurnal_phase for s in specs}) == 4
