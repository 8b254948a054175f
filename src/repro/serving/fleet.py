"""Client-fleet generator: millions of simulated users across tenants.

One tenant = one "application" renting space in the serving tier: its own
key space (a column-family-style prefix), operation mix, request
distribution, SLO target and provisioned admission rate.  The fleet scales
by *users*, not by simulated processes: each tenant's closed-loop clients
aggregate ``users / clients`` users apiece, with open-loop think times
drawn so the tenant's aggregate arrival rate is ``users x
OPS_PER_USER_PER_SEC`` — a million-user tenant is as cheap to simulate as
its op rate, not its population.

Realism knobs the paper-scale workloads lack, all deterministic in
virtual time:

* **Zipfian hot keys with migration** — request ranks come from the YCSB
  :class:`~repro.workloads.ycsb.ZipfianGenerator` (or Latest/uniform), and
  the mapping of rank -> key rotates every ``hot_migration_period_ns`` by
  ``hot_migration_stride`` keys, modeling trending content: the hot set
  moves, dragging cache and compaction behaviour with it;
* **diurnal load** — each tenant's arrival rate is modulated by a sinusoid
  (period, amplitude, per-tenant phase), so tenants peak at different
  simulated hours and the device sees the composite curve;
* **per-tenant SLO accounting** — every op's latency is checked against
  the tenant's SLO threshold; violation fractions and achieved percentiles
  feed the :func:`repro.obs.tenant_slo_digest`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ServingError, ShedError, WorkloadError
from repro.sim.rng import RandomStream
from repro.sim.stats import LatencyHistogram
from repro.sim.units import SEC, ms, seconds
from repro.workloads.generators import ValueSpec, encode_key
from repro.workloads.ycsb import (
    MAX_SCAN_LEN,
    OP_INSERT,
    OP_READ,
    OP_RMW,
    OP_SCAN,
    OP_UPDATE,
    ZIPF_THETA,
    LatestGenerator,
    YcsbSpec,
    ZipfianGenerator,
)

#: Width of the column-family prefix: "cf07/" + 16-byte db_bench key.
CF_PREFIX = b"cf%02d/"


def tenant_key(tenant_index: int, key_index: int) -> bytes:
    """Column-family-prefixed key: tenants share shards, not key spaces."""
    return (CF_PREFIX % tenant_index) + encode_key(key_index)


OPS_PER_USER_PER_SEC = 0.05  # a tenant's arrival rate is users x this
TENANT_VALUE_SIZE = 256  # every tenant's value bytes
DIURNAL_PERIOD_NS = seconds(4.0)  # one virtual "day" of the diurnal curve


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's workload contract."""

    name: str
    users: int = 10_000
    key_count: int = 2_000
    clients: int = 2
    mix: YcsbSpec = field(
        default_factory=lambda: YcsbSpec("A", read=0.5, update=0.5)
    )
    #: SLO: overall p99 latency target, ns.
    slo_p99_ns: int = ms(50)
    # Diurnal curve: rate multiplier
    # 1 + amplitude * sin(2pi (t / DIURNAL_PERIOD_NS + phase)).
    diurnal_amplitude: float = 0.0
    diurnal_phase: float = 0.0
    # Hot-key migration: every period, the rank->key mapping rotates by
    # stride keys (0 disables).
    hot_migration_period_ns: int = 0
    hot_migration_stride: int = 0

    def __post_init__(self) -> None:
        if self.users < 1 or self.key_count < 1 or self.clients < 1:
            raise WorkloadError(
                f"tenant {self.name}: users/keys/clients must be positive"
            )
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise WorkloadError(
                f"tenant {self.name}: diurnal amplitude must be in [0, 1)"
            )
        if self.hot_migration_period_ns < 0 or self.hot_migration_stride < 0:
            raise WorkloadError(f"tenant {self.name}: migration params must be >= 0")

    @property
    def aggregate_rate(self) -> float:
        """Tenant-wide arrival rate at diurnal midpoint (ops/second)."""
        return self.users * OPS_PER_USER_PER_SEC

    def rate_multiplier(self, now: int) -> float:
        """Diurnal load multiplier at virtual time ``now``."""
        if self.diurnal_amplitude == 0.0:
            return 1.0
        angle = 2.0 * math.pi * (
            now / DIURNAL_PERIOD_NS + self.diurnal_phase
        )
        return 1.0 + self.diurnal_amplitude * math.sin(angle)


@dataclass
class TenantStats:
    """Measurements of one tenant over one serving run."""

    spec: TenantSpec
    ops: int = 0
    op_counts: Dict[str, int] = field(default_factory=dict)
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    read_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    write_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    slo_violations: int = 0
    throttled_ops: int = 0
    duration_ns: int = 0
    # Resilient-serving accounting (all zero on the zero-fault path).
    shed_ops: int = 0
    shed_reasons: Dict[str, int] = field(default_factory=dict)
    error_ops: int = 0
    error_kinds: Dict[str, int] = field(default_factory=dict)
    fault_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    steady_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    fault_ops: int = 0

    def record(self, op: str, latency_ns: int, in_fault_window: bool = False) -> None:
        self.ops += 1
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        self.latency.record(latency_ns)
        if in_fault_window:
            self.fault_ops += 1
            self.fault_latency.record(latency_ns)
        else:
            self.steady_latency.record(latency_ns)
        if op == OP_READ or op == OP_SCAN:
            self.read_latency.record(latency_ns)
        else:
            self.write_latency.record(latency_ns)
        if latency_ns > self.spec.slo_p99_ns:
            self.slo_violations += 1

    def record_shed(self, reason: str) -> None:
        """An op shed before reaching storage (brownout / budget / breaker)."""
        self.shed_ops += 1
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1

    def record_error(self, kind: str) -> None:
        """An op that resolved as a typed serving error within its deadline."""
        self.error_ops += 1
        self.error_kinds[kind] = self.error_kinds.get(kind, 0) + 1

    @property
    def kops(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.ops * SEC / self.duration_ns / 1e3

    def row(self) -> Dict[str, object]:
        """One digest row (plain values: crosses process boundaries)."""
        ops = max(1, self.ops)
        return {
            "tenant": self.spec.name,
            "users": self.spec.users,
            "ops": self.ops,
            "kops": round(self.kops, 2),
            "p50_us": round(self.latency.percentile(50) / 1e3, 1),
            "p99_us": round(self.latency.percentile(99) / 1e3, 1),
            "slo_p99_us": round(self.spec.slo_p99_ns / 1e3, 1),
            "slo_violation_frac": round(self.slo_violations / ops, 4),
            "throttled_frac": round(self.throttled_ops / ops, 4),
            # Zero on the zero-fault path; the digest only prints them
            # when nonzero, keeping legacy output byte-identical.
            "shed": self.shed_ops,
            "errors": self.error_ops,
            "fault_ops": self.fault_ops,
            "fault_p99_us": round(self.fault_latency.percentile(99) / 1e3, 1),
            "steady_p99_us": round(self.steady_latency.percentile(99) / 1e3, 1),
        }


class TenantWorkload:
    """Drives one tenant's clients against a serving stack."""

    def __init__(self, index: int, spec: TenantSpec, seed: int) -> None:
        self.index = index
        self.spec = spec
        self.seed = seed
        self.stats = TenantStats(spec)
        self._next_insert = spec.key_count
        if spec.mix.distribution == "latest":
            self._chooser: Optional[object] = LatestGenerator(spec.key_count, ZIPF_THETA)
        elif spec.mix.distribution == "zipfian":
            self._chooser = ZipfianGenerator(spec.key_count, ZIPF_THETA)
        else:
            self._chooser = None  # uniform

    # -- key selection -------------------------------------------------------

    def _migration_offset(self, now: int) -> int:
        period = self.spec.hot_migration_period_ns
        if period <= 0 or self.spec.hot_migration_stride <= 0:
            return 0
        return (now // period) * self.spec.hot_migration_stride

    def pick_index(self, rng: RandomStream, now: int) -> int:
        """Rank -> key index, with the hot set rotated by migration."""
        limit = self._next_insert
        if self._chooser is None:
            rank = rng.randint(0, limit - 1)
        else:
            rank = min(self._chooser.next(rng), limit - 1)
        return (rank + self._migration_offset(now)) % limit

    def pick_key(self, rng: RandomStream, now: int) -> bytes:
        return tenant_key(self.index, self.pick_index(rng, now))

    def insert_index(self) -> int:
        index = self._next_insert
        self._next_insert += 1
        if isinstance(self._chooser, LatestGenerator):
            self._chooser.grow()
        return index

    def all_keys(self) -> List[bytes]:
        """The tenant's initial key population (for prefill)."""
        return [tenant_key(self.index, i) for i in range(self.spec.key_count)]

    # -- the client process ---------------------------------------------------

    def client(self, engine, stack, cid: int, end: int):
        """Generator: one closed-loop client aggregating users/clients users."""
        spec = self.spec
        rng = RandomStream(self.seed, f"fleet/{spec.name}/{cid}")
        per_client_rate = spec.aggregate_rate / spec.clients
        values = ValueSpec(TENANT_VALUE_SIZE)
        while engine.now < end:
            rate = per_client_rate * spec.rate_multiplier(engine.now)
            think = round(rng.expovariate(rate) * SEC)
            if think:
                yield think
            if engine.now >= end:
                break
            delay = stack.admission.admit(spec.name, engine.now)
            if delay:
                self.stats.throttled_ops += 1
                yield delay
            op = spec.mix.pick_op(rng)
            began = engine.now
            if op == OP_READ:
                key = self.pick_key(rng, began)
                yield from stack.get(key)
            elif op == OP_UPDATE:
                index = self.pick_index(rng, began)
                yield from stack.put(
                    tenant_key(self.index, index), values.value_for(index, 1)
                )
            elif op == OP_INSERT:
                index = self.insert_index()
                yield from stack.put(
                    tenant_key(self.index, index), values.value_for(index)
                )
            elif op == OP_SCAN:
                start_idx = self.pick_index(rng, began)
                length = rng.randint(1, MAX_SCAN_LEN)
                yield from stack.scan(
                    tenant_key(self.index, start_idx),
                    tenant_key(
                        self.index, min(start_idx + length, 10**15 - 1)
                    ),
                    limit=length,
                )
            else:  # read-modify-write
                index = self.pick_index(rng, began)
                yield from stack.get(tenant_key(self.index, index))
                yield from stack.put(
                    tenant_key(self.index, index), values.value_for(index, 2)
                )
            self.stats.record(op, engine.now - began)

    def resilient_client(self, engine, stack, cid: int, end: int):
        """Generator: one closed-loop client against a *resilient* stack.

        Same arrival process and op mix as :meth:`client`, but ops go
        through the replicated-shard client layer: every op either
        succeeds, is shed up front (:class:`~repro.errors.ShedError`
        from the brownout gate, counted per reason), or resolves as a
        typed :class:`~repro.errors.ServingError` within its deadline
        (counted per kind and charged to the tenant's error budget).
        Latencies are split into fault-window vs steady-state tails.
        """
        spec = self.spec
        rng = RandomStream(self.seed, f"fleet/{spec.name}/{cid}")
        per_client_rate = spec.aggregate_rate / spec.clients
        session = stack.session(spec.name, cid)
        while engine.now < end:
            rate = per_client_rate * spec.rate_multiplier(engine.now)
            think = round(rng.expovariate(rate) * SEC)
            if think:
                yield think
            if engine.now >= end:
                break
            delay = stack.admission.admit(spec.name, engine.now)
            if delay:
                self.stats.throttled_ops += 1
                yield delay
            op = spec.mix.pick_op(rng)
            began = engine.now
            # Pick the op's key up front so the shed gate knows its shard.
            if op == OP_INSERT:
                key = tenant_key(self.index, self.insert_index())
            else:
                key = self.pick_key(rng, began)
            is_write = op not in (OP_READ, OP_SCAN)
            shard = stack.shard_of(key)
            try:
                stack.admission.check(spec.name, shard, is_write, began)
            except ShedError as exc:
                self.stats.record_shed(exc.reason)
                continue
            in_fault = stack.in_fault_window(began)
            try:
                if op == OP_READ:
                    yield from stack.get(session, key, shard)
                elif op == OP_SCAN:
                    length = rng.randint(1, MAX_SCAN_LEN)
                    start_idx = self.pick_index(rng, began)
                    yield from stack.scan(
                        session,
                        tenant_key(self.index, start_idx),
                        tenant_key(
                            self.index, min(start_idx + length, 10**15 - 1)
                        ),
                        limit=length,
                    )
                elif op == OP_RMW:
                    yield from stack.get(session, key, shard)
                    yield from stack.put(session, key, shard)
                else:  # update / insert
                    yield from stack.put(session, key, shard)
            except ShedError as exc:
                # Breaker fast-fail inside the client layer.
                self.stats.record_shed(exc.reason)
                stack.admission.record_error(spec.name, engine.now)
            except ServingError as exc:
                self.stats.record_error(type(exc).__name__)
                stack.admission.record_error(spec.name, engine.now)
            else:
                self.stats.record(op, engine.now - began, in_fault)


def default_tenants(
    tenants: int,
    users_per_tenant: int = 250_000,
    key_count: int = 2_000,
    clients: int = 2,
) -> List[TenantSpec]:
    """A heterogeneous tenant population for CLI/CI runs.

    Tenants cycle through read-mostly / update-heavy / scan-leaning mixes,
    phase-shifted diurnal peaks, and the odd hot-key migrator — the point
    is contention diversity, not any one workload.
    """
    mixes = [
        YcsbSpec("B", read=0.95, update=0.05),
        YcsbSpec("A", read=0.5, update=0.5),
        YcsbSpec("mixed", read=0.65, update=0.25, insert=0.05, scan=0.05),
    ]
    specs: List[TenantSpec] = []
    for i in range(tenants):
        mix = mixes[i % len(mixes)]
        specs.append(
            TenantSpec(
                name=f"tenant-{i:02d}",
                users=users_per_tenant,
                key_count=key_count,
                clients=clients,
                mix=mix,
                slo_p99_ns=ms(20) if mix.read >= 0.9 else ms(60),
                diurnal_amplitude=0.4,
                diurnal_phase=i / max(1, tenants),
                hot_migration_period_ns=(
                    seconds(1.0) if i % 3 == 1 else 0
                ),
                hot_migration_stride=key_count // 10 if i % 3 == 1 else 0,
            )
        )
    return specs
