"""YCSB-style workloads.

The paper configures its read/write mixes "based on prior study about I/O
characterization in large-scale data centers" — the YCSB paper [Cooper et
al., SoCC'10].  This module provides the standard YCSB core workloads as
ready-made specs over this repo's key-value store, including the classic
Zipfian request distribution:

* **A** — update heavy (50/50 read/update), zipfian;
* **B** — read mostly (95/5), zipfian;
* **C** — read only, zipfian;
* **D** — read latest (95/5 insert), latest distribution;
* **E** — short scans (95/5 insert), zipfian scan starts;
* **F** — read-modify-write (50/50), zipfian.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import WorkloadError
from repro.lsm.db import DB
from repro.sim.engine import Engine
from repro.sim.rng import RandomStream
from repro.sim.stats import LatencyHistogram
from repro.sim.units import SEC
from repro.workloads.generators import ValueSpec, encode_key

OP_READ = "read"
OP_UPDATE = "update"
OP_INSERT = "insert"
OP_SCAN = "scan"
OP_RMW = "read-modify-write"


class ZipfianGenerator:
    """Zipfian-distributed integers in [0, n) (Gray et al.'s algorithm).

    Item 0 is the hottest.  ``theta`` = 0.99 is YCSB's default skew.
    """

    def __init__(self, n: int, theta: float = 0.99) -> None:
        if n <= 0:
            raise WorkloadError(f"zipfian needs a positive range: {n}")
        if not 0.0 < theta < 1.0:
            raise WorkloadError(f"theta must be in (0,1): {theta}")
        self.n = n
        self.theta = theta
        self._zetan = self._zeta(min(n, 2), theta) if n <= 2 else self._zeta(n, theta)
        self._zeta2 = self._zeta(min(n, 2), theta)
        self._alpha = 1.0 / (1.0 - theta)
        denom = 1 - self._zeta2 / self._zetan
        if denom == 0.0:
            # n <= 2: ranks 0 and 1 are resolved directly in next(); the
            # eta-based tail formula is never reached.
            self._eta = 0.0
        else:
            self._eta = (1 - (2.0 / n) ** (1 - theta)) / denom

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        # Exact up to 10k, then the standard integral approximation.
        if n <= 10_000:
            return sum(1.0 / (i ** theta) for i in range(1, n + 1))
        head = sum(1.0 / (i ** theta) for i in range(1, 10_001))
        tail = (n ** (1 - theta) - 10_000 ** (1 - theta)) / (1 - theta)
        return head + tail

    def next(self, rng: RandomStream) -> int:
        u = rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        # As u -> 1 the tail formula's float rounding can land exactly on n;
        # clamp to the documented [0, n) range.
        return min(
            self.n - 1, int(self.n * (self._eta * u - self._eta + 1) ** self._alpha)
        )


class LatestGenerator:
    """YCSB's 'latest' distribution: recent inserts are hottest."""

    def __init__(self, initial_n: int, theta: float = 0.99) -> None:
        self.n = initial_n
        self._zipf = ZipfianGenerator(max(1, initial_n), theta)
        self.theta = theta

    def grow(self) -> None:
        self.n += 1
        if self.n > self._zipf.n * 2:
            self._zipf = ZipfianGenerator(self.n, self.theta)

    def next(self, rng: RandomStream) -> int:
        return max(0, self.n - 1 - self._zipf.next(rng))


MAX_SCAN_LEN = 100  # a scan's length is drawn from [1, MAX_SCAN_LEN]
ZIPF_THETA = 0.99  # YCSB's request-distribution skew (zipfian and latest)


@dataclass(frozen=True)
class YcsbSpec:
    """Operation mix of one YCSB core workload."""

    name: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    scan: float = 0.0
    rmw: float = 0.0
    distribution: str = "zipfian"  # zipfian | uniform | latest

    def __post_init__(self) -> None:
        total = self.read + self.update + self.insert + self.scan + self.rmw
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"workload {self.name}: mix sums to {total}, not 1")
        if self.distribution not in ("zipfian", "uniform", "latest"):
            raise WorkloadError(f"unknown distribution {self.distribution!r}")

    def pick_op(self, rng: RandomStream) -> str:
        u = rng.random()
        for fraction, op in (
            (self.read, OP_READ),
            (self.update, OP_UPDATE),
            (self.insert, OP_INSERT),
            (self.scan, OP_SCAN),
        ):
            if u < fraction:
                return op
            u -= fraction
        return OP_RMW


WORKLOAD_A = YcsbSpec("A", read=0.5, update=0.5)
WORKLOAD_B = YcsbSpec("B", read=0.95, update=0.05)
WORKLOAD_C = YcsbSpec("C", read=1.0)
WORKLOAD_D = YcsbSpec("D", read=0.95, insert=0.05, distribution="latest")
WORKLOAD_E = YcsbSpec("E", scan=0.95, insert=0.05)
WORKLOAD_F = YcsbSpec("F", read=0.5, rmw=0.5)

CORE_WORKLOADS: Dict[str, YcsbSpec] = {
    spec.name: spec
    for spec in (WORKLOAD_A, WORKLOAD_B, WORKLOAD_C, WORKLOAD_D, WORKLOAD_E, WORKLOAD_F)
}

# Extended mixes for the experiment matrix (repro.matrix).  "scan-heavy"
# pushes range reads much harder than YCSB E's insert-diluted 95/5 (the
# scatter-gather shape a range-sharded serving tier cares about);
# "rmw" concentrates on the read-modify-write cycle that YCSB F only
# half-exercises.
WORKLOAD_SCAN_HEAVY = YcsbSpec("scan-heavy", read=0.2, update=0.1, scan=0.7)
WORKLOAD_RMW = YcsbSpec("rmw", read=0.1, rmw=0.9)

#: Every named mix the experiment matrix can reference: the six YCSB core
#: workloads plus the extended mixes above.
MATRIX_WORKLOADS: Dict[str, YcsbSpec] = {
    **CORE_WORKLOADS,
    WORKLOAD_SCAN_HEAVY.name: WORKLOAD_SCAN_HEAVY,
    WORKLOAD_RMW.name: WORKLOAD_RMW,
}


@dataclass
class YcsbResult:
    """Measurements of one YCSB run."""

    workload: str
    ops: int = 0
    op_counts: Dict[str, int] = field(default_factory=dict)
    duration_ns: int = 0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    read_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    update_latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def kops(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.ops * SEC / self.duration_ns / 1e3

    def summary(self) -> Dict[str, float]:
        return {
            "workload": self.workload,
            "kops": round(self.kops, 1),
            "p50_us": round(self.latency.percentile(50) / 1e3, 1),
            "p99_us": round(self.latency.percentile(99) / 1e3, 1),
        }


class YcsbRunner:
    """Closed-loop YCSB clients against one DB."""

    def __init__(
        self,
        spec: YcsbSpec,
        key_count: int,
        value_size: int = 1024,
        clients: int = 4,
        duration_ns: int = SEC,
        seed: int = 1,
    ) -> None:
        if key_count <= 0:
            raise WorkloadError(f"key_count must be positive: {key_count}")
        self.spec = spec
        self.key_count = key_count
        self.values = ValueSpec(value_size)
        self.clients = clients
        self.duration_ns = duration_ns
        self.seed = seed
        self._next_insert = key_count

    def run(self, db: DB) -> YcsbResult:
        # Per-run state: a previous run()'s inserts must not shift this
        # run's key space (the chooser is rebuilt per run; the insert
        # counter has to match it).
        self._next_insert = self.key_count
        engine: Engine = db.engine
        result = YcsbResult(workload=self.spec.name)
        end = engine.now + self.duration_ns
        if self.spec.distribution == "latest":
            chooser = LatestGenerator(self.key_count, ZIPF_THETA)
        elif self.spec.distribution == "zipfian":
            chooser = ZipfianGenerator(self.key_count, ZIPF_THETA)
        else:
            chooser = None  # uniform
        buffers = []
        for cid in range(self.clients):
            rng = RandomStream(self.seed, f"ycsb/{self.spec.name}/{cid}")
            buf = (array("q"), array("q"), array("q"))  # 8 B per sample, untracked
            buffers.append(buf)
            engine.process(
                self._client(engine, db, rng, chooser, end, result, buf),
                name=f"ycsb-{self.spec.name}-{cid}",
            )
        engine.run(until=end)
        # One bulk flush per client: histogram state is order-independent.
        for lat_all, lat_read, lat_update in buffers:
            result.latency.record_many(lat_all)
            result.read_latency.record_many(lat_read)
            result.update_latency.record_many(lat_update)
        result.duration_ns = self.duration_ns
        return result

    def _pick_key(self, rng: RandomStream, chooser) -> int:
        if chooser is None:
            return rng.randint(0, max(0, self._next_insert - 1))
        return min(chooser.next(rng), self._next_insert - 1)

    def _client(self, engine, db, rng, chooser, end, result: YcsbResult, buf):
        spec = self.spec
        values = self.values
        overhead = db.costs.client_op_overhead_ns
        pick_key = self._pick_key
        grows = isinstance(chooser, LatestGenerator)
        op_counts = result.op_counts
        lat_all, lat_read, lat_update = buf
        while engine.now < end:
            yield overhead
            op = spec.pick_op(rng)
            began = engine.now
            if op == OP_READ:
                index = pick_key(rng, chooser)
                yield from db.get(encode_key(index))
                lat_read.append(engine.now - began)
            elif op == OP_UPDATE:
                index = pick_key(rng, chooser)
                yield from db.put(encode_key(index), values.value_for(index, 1))
                lat_update.append(engine.now - began)
            elif op == OP_INSERT:
                index = self._next_insert
                self._next_insert += 1
                if grows:
                    chooser.grow()
                yield from db.put(encode_key(index), values.value_for(index))
            elif op == OP_SCAN:
                start = pick_key(rng, chooser)
                length = rng.randint(1, MAX_SCAN_LEN)
                yield from db.scan(
                    encode_key(start),
                    encode_key(min(start + length, 10**15 - 1)),
                    limit=length,
                )
            else:  # read-modify-write
                index = pick_key(rng, chooser)
                yield from db.get(encode_key(index))
                yield from db.put(encode_key(index), values.value_for(index, 2))
            result.ops += 1
            op_counts[op] = op_counts.get(op, 0) + 1
            lat_all.append(engine.now - began)
