"""Multi-tenant serving layer: sharded DBs, shared budgets, a client fleet.

The paper measures one RocksDB instance; production RocksDB serves many
tenants over many shards on the same device.  This package promotes the
``ablation-wq`` finding (sharded write queues relieve the Fig. 15/16
contention) into an architecture:

* :class:`~repro.serving.stack.ServingStack` — N shard DBs behind
  consistent-hash routing (:class:`~repro.serving.router.HashRing`), all
  sharing one device, one :class:`~repro.lsm.block_cache.BlockCache` and
  one :class:`~repro.lsm.write_buffer_manager.WriteBufferManager` budget;
* :class:`~repro.serving.admission.AdmissionController` — per-tenant token
  buckets scaled by the shards' Algorithm-1 stall states;
* :mod:`~repro.serving.fleet` — the tenant fleet generator (Zipfian hot
  keys with migration, diurnal curves, per-tenant SLO accounting);
* :mod:`~repro.serving.sweep` — ``--jobs``-parallel tenant-scale sweeps,
  bit-identical across job counts;
* :mod:`~repro.serving.resilient` — the replicated tier: every shard is a
  :class:`~repro.cluster.Cluster` group behind a retrying/hedging
  :class:`~repro.serving.client.ShardClient` with
  :class:`~repro.serving.admission.BrownoutAdmission` degradation
  (chaos-tested by ``python -m repro.dst --serving``);
* ``python -m repro.serving`` — the CLI entry point (``--resilient`` runs
  the replicated tier).
"""

from repro.serving.admission import (
    AdmissionController,
    BrownoutAdmission,
    ErrorBudget,
    TenantBudget,
    TokenBucket,
)
from repro.serving.client import (
    ClientPolicy,
    ClientSession,
    ReadOutcome,
    ShardBreaker,
    ShardClient,
)
from repro.serving.fleet import (
    TenantSpec,
    TenantStats,
    TenantWorkload,
    default_tenants,
    tenant_key,
)
from repro.serving.resilient import (
    ResilientServingConfig,
    ResilientServingResult,
    ResilientServingStack,
)
from repro.serving.router import HashRing
from repro.serving.shardfs import ShardFsView
from repro.serving.stack import ServingConfig, ServingResult, ServingStack
from repro.serving.sweep import (
    ServingPoint,
    SweepReport,
    run_serving_point,
    run_sweep,
)

__all__ = [
    "AdmissionController",
    "BrownoutAdmission",
    "ClientPolicy",
    "ClientSession",
    "ErrorBudget",
    "HashRing",
    "ReadOutcome",
    "ResilientServingConfig",
    "ResilientServingResult",
    "ResilientServingStack",
    "ServingConfig",
    "ServingPoint",
    "ServingResult",
    "ServingStack",
    "ShardBreaker",
    "ShardClient",
    "ShardFsView",
    "SweepReport",
    "TenantBudget",
    "TenantSpec",
    "TenantStats",
    "TenantWorkload",
    "TokenBucket",
    "default_tenants",
    "run_serving_point",
    "run_sweep",
    "tenant_key",
]
