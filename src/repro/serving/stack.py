"""The multi-tenant serving stack: N shards, one device, shared budgets.

This is the ``ablation-wq`` result promoted to architecture (ROADMAP open
item #1): instead of one DB absorbing every tenant through one long write
queue, the serving tier splits the key space over N shard DBs by
consistent hashing.  Everything that *should* stay shared stays shared —

* one :class:`~repro.storage.device.StorageDevice` and one page cache
  (the paper's contention point: many LSMs, one device);
* one :class:`~repro.lsm.block_cache.BlockCache`, namespaced per shard;
* one :class:`~repro.lsm.write_buffer_manager.WriteBufferManager` byte
  budget across all shards' memtables;
* one filesystem space budget (shards live under ``shard-N/`` prefixes of
  a single :class:`~repro.fs.filesystem.SimFileSystem`);
* one admission front door scaling every tenant's token bucket by the
  worst shard's Algorithm-1 stall state.

Per-shard state is what sharding is meant to multiply: write queues,
memtables, WALs, background workers, write controllers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.harness.machine import Machine
from repro.lsm.block_cache import BlockCache
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.write_buffer_manager import WriteBufferManager
from repro.serving.admission import AdmissionController
from repro.serving.fleet import TenantSpec, TenantWorkload
from repro.serving.router import HashRing
from repro.serving.shardfs import ShardFsView
from repro.sim.units import MB, SEC, mb, seconds
from repro.storage.profiles import profile_by_name
from repro.workloads.prefill import prefill_keys

#: The one page cache under every shard (the paper's contention point).
PAGE_CACHE_BYTES = mb(8)


@dataclass(frozen=True)
class ServingConfig:
    """Shape of one serving stack."""

    shards: int = 2
    device: str = "xpoint"
    seed: int = 1
    #: Shared block cache across all shards.
    block_cache_bytes: int = mb(1)
    #: Shared memtable byte budget across all shards; each shard's
    #: write_buffer_size is budget // shards, so the joint budget binds
    #: before any one shard's private cap does.
    write_buffer_budget: int = 4 * MB

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise WorkloadError(f"need at least one shard: {self.shards}")
        if self.write_buffer_budget <= 0 or self.block_cache_bytes <= 0:
            raise WorkloadError("shared budgets must be positive")


@dataclass
class ServingResult:
    """Everything one serving run reports."""

    config_desc: str
    shards: int
    device: str
    seed: int
    duration_ns: int
    total_users: int
    tenant_rows: List[Dict[str, object]] = field(default_factory=list)
    shard_rows: List[Dict[str, object]] = field(default_factory=list)
    cache_row: Dict[str, object] = field(default_factory=dict)
    wbm_row: Dict[str, object] = field(default_factory=dict)

    @property
    def total_ops(self) -> int:
        return sum(int(r["ops"]) for r in self.tenant_rows)

    @property
    def kops(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.total_ops * SEC / self.duration_ns / 1e3

    def render(self) -> str:
        from repro.obs import tenant_slo_digest

        lines = [
            f"== serving {self.config_desc} ==",
            f"fleet: {self.total_users} simulated users, "
            f"{self.total_ops} ops in {self.duration_ns / 1e9:.2f}s "
            f"({self.kops:.2f} kops)",
        ]
        lines.append(tenant_slo_digest(self.tenant_rows))
        lines.append("per-shard:")
        for row in self.shard_rows:
            lines.append(
                "  shard {shard}: {puts} puts {gets} gets | L0 {l0} | "
                "stall delays {delays} stops {stops} | "
                "wbm switches {wbm_switches}".format(**row)
            )
        c = self.cache_row
        lines.append(
            f"shared block cache: {c['hit_rate']:.1%} hit rate "
            f"({c['hits']} hits / {c['misses']} misses), "
            f"{c['used_bytes']} / {c['capacity_bytes']} bytes, "
            f"{c['evictions']} evictions, {c['refresh_drops']} refresh drops"
        )
        w = self.wbm_row
        lines.append(
            f"write-buffer budget: {w['budget_bytes']} bytes shared, "
            f"peak {w['peak_bytes']} bytes, {w['flush_triggers']} early flushes"
        )
        return "\n".join(lines)


class ServingStack:
    """N shard DBs behind consistent-hash routing and admission control."""

    def __init__(self, config: ServingConfig) -> None:
        self.config = config
        profile = profile_by_name(config.device)
        self.machine = Machine.create(profile, PAGE_CACHE_BYTES, seed=config.seed)
        self.engine = self.machine.engine
        self.block_cache = BlockCache(config.block_cache_bytes)
        self.write_buffer_manager = WriteBufferManager(config.write_buffer_budget)
        self.ring = HashRing(config.shards)

        per_shard_wb = max(64 * 1024, config.write_buffer_budget // config.shards)
        self.dbs: List[DB] = []
        for shard in range(config.shards):
            opts = Options(name=f"shard-{shard}", write_buffer_size=per_shard_wb)
            fs_view = ShardFsView(self.machine.fs, f"shard-{shard}")
            db = DB(
                self.engine,
                fs_view,
                opts,
                rng=self.machine.rng.fork(f"shard/{shard}"),
                block_cache=self.block_cache,
                write_buffer_manager=self.write_buffer_manager,
                cache_namespace=shard,
            )
            self.dbs.append(db)
        self.admission = AdmissionController(
            [db.controller for db in self.dbs]
        )

    # -- routed operations ---------------------------------------------------

    def shard_for(self, key: bytes) -> int:
        return self.ring.shard_for(key)

    def get(self, key: bytes):
        """Generator: routed point lookup."""
        result = yield from self.dbs[self.ring.shard_for(key)].get(key)
        return result

    def put(self, key: bytes, value):
        """Generator: routed single-key write."""
        result = yield from self.dbs[self.ring.shard_for(key)].put(key, value)
        return result

    def scan(self, start: bytes, end: bytes, limit: Optional[int] = None):
        """Generator: scatter-gather range scan across every shard.

        Hash routing scatters contiguous key ranges over all shards, so a
        range scan must consult each of them and merge — the real cost of
        choosing hash (not range) sharding, charged faithfully.
        """
        merged: List[Tuple[bytes, object]] = []
        for db in self.dbs:
            part = yield from db.scan(start, end, limit=limit)
            merged.extend(part)
        merged.sort(key=lambda kv: kv[0])
        if limit is not None:
            merged = merged[:limit]
        return merged

    # -- fleet runs ----------------------------------------------------------

    def prefill_fleet(self, workloads: List[TenantWorkload]) -> None:
        """Install every tenant's initial keys into their owning shards."""
        items: List[Tuple[bytes, int]] = []
        for wl in workloads:
            size = wl.spec.value_size
            items.extend((key, size) for key in wl.all_keys())
        items.sort(key=lambda kv: kv[0])
        parts: List[List[Tuple[bytes, int]]] = [
            [] for _ in range(self.config.shards)
        ]
        for key, size in items:
            parts[self.ring.shard_for(key)].append((key, size))
        for db, part in zip(self.dbs, parts):
            if part:
                prefill_keys(
                    db,
                    [k for k, _ in part],
                    value_sizes=[s for _, s in part],
                )

    def run_fleet(
        self,
        tenants: List[TenantSpec],
        duration_ns: int = seconds(1.0),
        prefill: bool = True,
    ) -> ServingResult:
        """Drive the whole tenant fleet for ``duration_ns`` of virtual time."""
        if not tenants:
            raise WorkloadError("need at least one tenant")
        workloads = [
            TenantWorkload(i, spec, self.config.seed)
            for i, spec in enumerate(tenants)
        ]
        if prefill:
            self.prefill_fleet(workloads)
        for wl in workloads:
            self.admission.provision(wl.spec)
        end = self.engine.now + duration_ns
        for wl in workloads:
            for cid in range(wl.spec.clients):
                self.engine.process(
                    wl.client(self.engine, self, cid, end),
                    name=f"fleet-{wl.spec.name}-{cid}",
                )
        self.engine.run(until=end)
        for wl in workloads:
            wl.stats.duration_ns = duration_ns
        return self._collect(workloads, duration_ns)

    def _collect(
        self, workloads: List[TenantWorkload], duration_ns: int
    ) -> ServingResult:
        result = ServingResult(
            config_desc=(
                f"{self.config.device} x {self.config.shards} shard(s), "
                f"seed {self.config.seed}"
            ),
            shards=self.config.shards,
            device=self.config.device,
            seed=self.config.seed,
            duration_ns=duration_ns,
            total_users=sum(wl.spec.users for wl in workloads),
            tenant_rows=[wl.stats.row() for wl in workloads],
        )
        for shard, db in enumerate(self.dbs):
            result.shard_rows.append(
                {
                    "shard": shard,
                    "puts": db.stats.get("puts"),
                    "gets": db.stats.get("gets"),
                    "l0": db.versions.current.num_files(0),
                    "delays": db.stats.get("stall.delays_hit"),
                    "stops": db.stats.get("stall.stops_hit"),
                    "wbm_switches": db.stats.get("memtable.wbm_switches"),
                }
            )
        cache = self.block_cache
        result.cache_row = {
            "hits": cache.stats.get("hits"),
            "misses": cache.stats.get("misses"),
            "hit_rate": cache.hit_rate(),
            "used_bytes": cache.used_bytes,
            "capacity_bytes": cache.capacity_bytes,
            "evictions": cache.stats.get("evictions"),
            "refresh_drops": cache.stats.get("refresh_drops"),
        }
        wbm = self.write_buffer_manager
        result.wbm_row = {
            "budget_bytes": wbm.buffer_size,
            "peak_bytes": wbm.peak_usage,
            "flush_triggers": wbm.stats.get("flush_triggers"),
        }
        return result
