"""Integration tests for the serving stack (``repro.serving.stack``)."""

import pytest

from repro.errors import WorkloadError
from repro.serving.fleet import TenantSpec, TenantWorkload, tenant_key
from repro.serving.stack import ServingConfig, ServingStack
from repro.sim.units import kb, seconds
from repro.workloads.ycsb import YcsbSpec
from tests.conftest import run_op


def tiny_config(**overrides):
    base = dict(
        shards=2,
        device="xpoint",
        seed=1,
        block_cache_bytes=kb(64),
        write_buffer_budget=kb(256),
    )
    base.update(overrides)
    return ServingConfig(**base)


def tiny_tenants(n=2, key_count=300):
    return [
        TenantSpec(
            name=f"t{i}",
            users=20_000,
            key_count=key_count,
            clients=2,
            mix=YcsbSpec("mixed", read=0.6, update=0.3, insert=0.05, scan=0.05),
        )
        for i in range(n)
    ]


class TestServingConfig:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            tiny_config(shards=0)
        with pytest.raises(WorkloadError):
            tiny_config(write_buffer_budget=0)


class TestServingStack:
    def test_shared_plumbing(self):
        """Every shard DB hangs off the one cache, budget and device."""
        stack = ServingStack(tiny_config(shards=3))
        assert len(stack.dbs) == 3
        assert len(stack.write_buffer_manager._dbs) == 3
        for shard, db in enumerate(stack.dbs):
            assert db.block_cache is stack.block_cache
            assert db.write_buffer_manager is stack.write_buffer_manager
            assert db._cache_ns == shard
            assert db.fs.device is stack.machine.fs.device

    def test_routed_get_after_prefill(self):
        stack = ServingStack(tiny_config())
        workloads = [
            TenantWorkload(i, spec, stack.config.seed)
            for i, spec in enumerate(tiny_tenants(key_count=100))
        ]
        stack.prefill_fleet(workloads)
        for tenant in range(2):
            for index in (0, 42, 99):
                value = run_op(stack.engine, stack.get(tenant_key(tenant, index)))
                assert value is not None

    def test_scan_scatter_gathers_across_shards(self):
        """A range scan merges results from every shard in key order."""
        stack = ServingStack(tiny_config())
        workloads = [TenantWorkload(0, tiny_tenants(1, key_count=50)[0], 1)]
        stack.prefill_fleet(workloads)
        rows = run_op(
            stack.engine,
            stack.scan(tenant_key(0, 0), tenant_key(0, 49), limit=20),
        )
        keys = [k for k, _v in rows]
        assert len(keys) == 20
        assert keys == sorted(keys)
        # The scanned range genuinely spans both shards (hash scatter).
        shards_hit = {stack.shard_for(k) for k in keys}
        assert shards_hit == {0, 1}

    def test_run_fleet_reports_everything(self):
        stack = ServingStack(tiny_config())
        result = stack.run_fleet(tiny_tenants(), duration_ns=seconds(0.1))
        assert result.total_ops > 0
        assert result.total_users == 40_000
        assert len(result.tenant_rows) == 2
        assert len(result.shard_rows) == 2
        assert result.cache_row["capacity_bytes"] == kb(64)
        assert result.wbm_row["budget_bytes"] == kb(256)
        # Shared cache honors its joint byte budget across both shards.
        assert result.cache_row["used_bytes"] <= result.cache_row["capacity_bytes"]
        rendered = result.render()
        assert "tenant-slo digest:" in rendered
        assert "shared block cache:" in rendered
        assert "write-buffer budget:" in rendered

    def test_run_fleet_requires_tenants(self):
        stack = ServingStack(tiny_config())
        with pytest.raises(WorkloadError):
            stack.run_fleet([], duration_ns=seconds(0.01))

    def test_deterministic_across_fresh_stacks(self):
        def run():
            stack = ServingStack(tiny_config())
            return stack.run_fleet(tiny_tenants(), duration_ns=seconds(0.1))

        a, b = run(), run()
        assert a.tenant_rows == b.tenant_rows
        assert a.shard_rows == b.shard_rows
        assert a.cache_row == b.cache_row
        assert a.wbm_row == b.wbm_row
