"""Tests for machine assembly."""

import pytest

from repro.dst import ClusterDstRun, DstRun, StormRun
from repro.faults import FaultSchedule
from repro.harness.machine import Machine
from repro.serving.resilient import ResilientServingConfig, ResilientServingStack
from repro.sim.engine import Engine
from repro.sim.rng import RandomStream
from repro.sim.units import mb
from repro.storage.profiles import sata_flash_ssd, xpoint_ssd
from tests.conftest import run_op, tiny_options


def test_create_wires_components():
    machine = Machine.create(xpoint_ssd(), page_cache_bytes=mb(8), seed=3)
    assert machine.device.profile.name == "xpoint"
    assert machine.fs.device is machine.device
    assert machine.page_cache.capacity_pages == mb(8) // 4096
    assert machine.nvm_fs is None


def test_nvm_attachment():
    machine = Machine.create(xpoint_ssd(), page_cache_bytes=mb(8), with_nvm=True)
    assert machine.nvm_fs is not None
    assert machine.nvm_fs.device.profile.kind == "nvm"
    assert machine.nvm_fs.device is not machine.device


def test_open_db_runs_ops():
    machine = Machine.create(sata_flash_ssd(), page_cache_bytes=mb(4))
    db = machine.open_db(tiny_options())
    run_op(machine.engine, db.put(b"k", b"v"))
    assert run_op(machine.engine, db.get(b"k")) == b"v"


def test_custom_controller_injected():
    from repro.core.two_stage_throttle import TwoStageWriteController

    machine = Machine.create(xpoint_ssd(), page_cache_bytes=mb(4))
    opts = tiny_options()
    controller = TwoStageWriteController(machine.engine, opts)
    db = machine.open_db(opts, controller=controller)
    assert db.controller is controller


def test_seed_isolation():
    a = Machine.create(xpoint_ssd(), page_cache_bytes=mb(4), seed=1)
    b = Machine.create(xpoint_ssd(), page_cache_bytes=mb(4), seed=2)
    assert a.rng.fork("x").random() != b.rng.fork("x").random()


def test_build_wires_one_injector_into_device_and_fs():
    engine = Engine()
    bare = Machine.build(engine, RandomStream(1, "host"), xpoint_ssd(), mb(4))
    assert bare.injector is None
    assert bare.device.injector is None and bare.fs.injector is None
    faulty = Machine.build(
        engine, RandomStream(1, "host"), xpoint_ssd(), mb(4), schedule=FaultSchedule()
    )
    assert faulty.injector is not None
    assert faulty.device.injector is faulty.injector
    assert faulty.fs.injector is faulty.injector
    assert faulty.engine is bare.engine


# -- every host under src/ comes from Machine.build; each site keeps the RNG
# -- stream name its device draws from (a renamed stream moves every digest).


def test_create_device_stream():
    machine = Machine.create(xpoint_ssd(), page_cache_bytes=mb(4), seed=3)
    assert machine.device.rng.name == "machine/xpoint/device/device/xpoint"
    assert machine.injector is None


def test_matrix_cell_device_stream(monkeypatch):
    from repro.matrix import runner

    class Built(Exception):
        pass

    def stop_at_prefill(db, _spec):
        raise Built(db)

    monkeypatch.setattr(runner, "prefill", stop_at_prefill)
    with pytest.raises(Built) as built:
        runner.Cell("xpoint", "A", "clean").run()
    fs = built.value.args[0].fs
    assert fs.device.rng.name == "matrix/xpoint/A/clean/device/device/xpoint"
    assert fs.injector is not None and fs.device.injector is fs.injector


@pytest.mark.parametrize("run_cls, stream", [(DstRun, "dst"), (StormRun, "storm")])
def test_single_node_dst_device_stream(run_cls, stream):
    run = run_cls(0)
    assert run.device.rng.name == f"{stream}/device/device/xpoint"
    assert run.fs.device is run.device
    assert run.fs.injector is run.injector is run.device.injector
    assert run.fs.page_cache.capacity_pages == mb(16) // 4096


def test_cluster_dst_device_streams():
    run = ClusterDstRun(0)
    names = [node.fs.device.rng.name for node in run.cluster.nodes]
    assert names == [f"cluster-dst/device/{i}/device/xpoint" for i in range(len(names))]
    assert all(node.fs.injector is None for node in run.cluster.nodes)


def test_resilient_serving_device_streams():
    stack = ResilientServingStack(ResilientServingConfig(shards=2, replicas=2))
    nodes = [node for cluster in stack.clusters for node in cluster.nodes]
    names = [node.fs.device.rng.name for node in nodes]
    assert names == [f"resilient-serving/device/{n}/device/xpoint" for n in range(4)]
    for node in nodes:
        assert node.fs.injector is node.fs.device.injector
    assert len({id(node.fs.injector) for node in nodes}) == len(nodes)  # one each
