"""Tests for the replicated resilient serving stack (``repro.serving.resilient``)."""

from __future__ import annotations

import pytest

from repro.errors import ShedError, WorkloadError
from repro.faults import CRASH, PARTITION, WRITE_ERROR, FaultSchedule, FaultSpec
from repro.serving.admission import ERROR_BUDGET_MAX_ERRORS, ERROR_BUDGET_WINDOW_NS
from repro.serving.fleet import default_tenants
from repro.serving.resilient import (
    ResilientServingConfig,
    ResilientServingStack,
)
from repro.sim.units import ms, us
from tests.conftest import run_op


def make_stack(shards=2, replicas=3, chaos=None, seed=1):
    stack = ResilientServingStack(
        ResilientServingConfig(shards=shards, replicas=replicas, seed=seed),
        chaos=chaos,
    )
    stack.start()
    return stack


class TestConfig:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            ResilientServingConfig(shards=0)
        with pytest.raises(WorkloadError):
            ResilientServingConfig(replicas=1)

    def test_total_nodes(self):
        assert ResilientServingConfig(shards=3, replicas=3).total_nodes == 9


class TestDataPath:
    def test_put_get_round_trip_through_replication(self):
        stack = make_stack()
        session = stack.session("t", 0)
        seq = run_op(stack.engine, stack.put(session, b"user42"))
        assert seq >= 1
        value = run_op(stack.engine, stack.get(session, b"user42"))
        assert value is not None and value.endswith(b"user42")
        assert run_op(stack.engine, stack.verify_writes(), "audit") == []
        assert stack.ryw_violations() == []
        assert stack.ops_started == stack.ops_resolved == 2
        stack.shutdown()

    def test_scan_merges_across_shard_groups(self):
        stack = make_stack()
        session = stack.session("t", 0)
        keys = [b"k%03d" % i for i in range(16)]
        shards_hit = {stack.shard_of(k) for k in keys}
        assert shards_hit == {0, 1}  # the scan genuinely scatter-gathers
        for key in keys:
            run_op(stack.engine, stack.put(session, key))
        rows = run_op(stack.engine, stack.scan(session, b"k", b"l"), "scan")
        assert [k for k, _v in rows] == keys
        limited = run_op(
            stack.engine, stack.scan(session, b"k", b"l", limit=5), "scan"
        )
        assert [k for k, _v in limited] == keys[:5]
        stack.shutdown()

    def test_audit_rejects_a_phantom_ack(self):
        """The no-loss oracle is not vacuous: an acked value that never
        reached replication is reported."""
        stack = make_stack(shards=1)
        session = stack.session("t", 0)
        run_op(stack.engine, stack.put(session, b"key"))
        stack._issued[b"key"].add(b"phantom")
        stack._acked[b"key"].append((999, b"phantom"))
        violations = run_op(stack.engine, stack.verify_writes(), "audit")
        assert len(violations) == 1 and b"key" in violations[0].encode() or "key" in violations[0]
        stack.shutdown()


class TestBrownout:
    def test_quorum_loss_sheds_writes_before_reads(self):
        stack = make_stack(shards=2)
        group = stack.groups[0]
        assert group.write_quorum_reachable()
        stack.admission.check("t", 0, True, stack.engine.now)  # no shed
        group.network.partition([group.cluster.leader_id])  # leader alone
        assert not group.write_quorum_reachable()
        with pytest.raises(ShedError) as exc_info:
            stack.admission.check("t", 0, True, stack.engine.now)
        assert exc_info.value.reason == "brownout-write"
        stack.admission.check("t", 0, False, stack.engine.now)  # reads pass
        stack.admission.check("t", 1, True, stack.engine.now)  # other group fine
        group.network.heal()
        stack.admission.check("t", 0, True, stack.engine.now)
        stack.shutdown()

    def test_error_budget_backs_off_a_failing_tenant(self):
        stack = make_stack()
        now = stack.engine.now
        for _ in range(ERROR_BUDGET_MAX_ERRORS):
            stack.admission.record_error("victim", now)
        with pytest.raises(ShedError) as exc_info:
            stack.admission.check("victim", 0, False, now)
        assert exc_info.value.reason == "error-budget"
        stack.admission.check("healthy", 0, False, now)  # others unaffected
        # The budget is a *rolling* window: it drains with time.
        later = now + ERROR_BUDGET_WINDOW_NS + 1
        stack.admission.check("victim", 0, False, later)
        stack.shutdown()


class TestChaosRouting:
    def test_crash_specs_are_extracted_for_the_harness(self):
        chaos = FaultSchedule(
            [
                FaultSpec(CRASH, at_time=ms(5), node=4),
                FaultSpec(
                    WRITE_ERROR,
                    at_time=ms(1),
                    until_time=ms(2),
                    count=100,
                    transient=True,
                    node=2,
                ),
            ]
        )
        stack = ResilientServingStack(
            ResilientServingConfig(shards=2, replicas=3), chaos=chaos
        )
        assert [s.node for s in stack.crash_specs] == [4]
        # The write_error spec routed to global node 2 (group 0, replica 2)
        # and nowhere else.
        assert len(stack.groups[0].injectors[2]._device_states) == 1
        assert all(
            len(stack.groups[1].injectors[r]._device_states) == 0
            for r in range(3)
        )

    def test_partitions_localize_to_the_groups_they_cross(self):
        chaos = FaultSchedule(
            [
                FaultSpec(
                    PARTITION,
                    at_time=ms(1),
                    until_time=ms(3),
                    nodes=(0,),  # isolates group 0's replica 0 only
                )
            ]
        )
        stack = ResilientServingStack(
            ResilientServingConfig(shards=2, replicas=3), chaos=chaos
        )
        assert len(stack.groups[0].network._windows) == 1
        assert len(stack.groups[1].network._windows) == 0

    def test_global_crash_control_maps_to_group_local_node(self):
        stack = make_stack(shards=2, replicas=3)
        stack.crash_global(4)  # group 1, local node 1
        assert not stack.groups[1].cluster.nodes[1].alive
        assert all(n.alive for n in stack.groups[0].cluster.nodes)
        stack.restart_global(4)
        assert stack.groups[1].cluster.nodes[1].alive
        stack.shutdown()


class TestFleetReporting:
    def test_zero_fault_fleet_and_render(self):
        stack = make_stack()
        tenants = default_tenants(2, users_per_tenant=20_000, key_count=8, clients=1)
        workloads = stack.build_fleet(tenants)
        run_op(stack.engine, stack.prefill(workloads), "prefill")
        end = stack.engine.now + ms(30)
        procs = stack.spawn_fleet(workloads, end)
        for proc in procs:
            stack.engine.run(stop=[proc])
            assert proc.done, "fleet deadlocked"
        assert stack.ops_started == stack.ops_resolved
        assert run_op(stack.engine, stack.verify_writes(), "audit") == []
        assert stack.ryw_violations() == []
        result = stack.collect(workloads, ms(30))
        text = result.render()
        assert "resilient serving" in text
        assert "client layer:" in text
        for row in result.tenant_rows:
            assert row["shed"] == 0 and row["errors"] == 0
        assert result.client_row["deadline_exceeded"] == 0
        stack.shutdown()

    def test_fault_window_split_routes_latencies(self):
        stack = make_stack()
        stack.fault_windows = [(0, us(1))]
        assert stack.in_fault_window(0)
        assert not stack.in_fault_window(us(2))
