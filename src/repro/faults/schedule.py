"""Declarative fault schedules.

A :class:`FaultSpec` describes one fault event: what goes wrong
(``kind``), when it triggers (``at_time`` in virtual ns and/or ``at_op``
as a 1-based count of matching operations), where (``path`` prefix for
filesystem faults), and how often once armed (``count``).  A
:class:`FaultSchedule` is an ordered list of specs; order is the
tie-break when several specs could fire on the same operation, so a
schedule is a complete, deterministic description of a faulty run.

Schedules serialise to JSON (:meth:`FaultSchedule.to_json` /
:meth:`from_json`) so a failing DST seed can be replayed byte-for-byte
from its saved schedule, and :meth:`FaultSchedule.random` draws a
schedule from a named :class:`~repro.sim.rng.RandomStream` for seeded
exploration.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Tuple

from repro.errors import FaultConfigError
from repro.lsm.format import SST_DIR, WAL_DIR
from repro.sim.rng import RandomStream
from repro.sim.units import ms, us

# Device-level faults (trigger on device read/write submissions).
READ_ERROR = "read_error"  # read submission raises IOFaultError
WRITE_ERROR = "write_error"  # write submission raises IOFaultError (surfaces at fsync)
LATENCY_SPIKE = "latency_spike"  # completion delayed by extra_ns
STALL = "stall"  # same mechanics, stuck-I/O magnitude
CRASH = "crash"  # request a whole-machine crash point

# Filesystem-level faults (trigger on file appends).
TORN_APPEND = "torn_append"  # durable watermark lands mid-record
CORRUPT_APPEND = "corrupt_append"  # appended range lands on bad media
CORRUPT_SST_BLOCK = "corrupt_sst_block"  # flip a block checksum in the SST payload

# Network-level faults (interpreted by repro.net against a cluster topology).
PARTITION = "partition"  # isolate `nodes` from the rest for a window
HEAL = "heal"  # close every partition window open at `at_time`
NET_DELAY = "net_delay"  # add extra_ns to message latency for a window
NET_DROP = "net_drop"  # drop messages with probability drop_p for a window

DEVICE_KINDS = frozenset({READ_ERROR, WRITE_ERROR, LATENCY_SPIKE, STALL, CRASH})
FS_KINDS = frozenset({TORN_APPEND, CORRUPT_APPEND, CORRUPT_SST_BLOCK})
NET_KINDS = frozenset({PARTITION, HEAL, NET_DELAY, NET_DROP})
FAULT_KINDS = DEVICE_KINDS | FS_KINDS | NET_KINDS

#: Current schema version for serialized schedules.  Version 1 is the bare
#: JSON list emitted before net faults existed; version 2 wraps the list in
#: ``{"version": 2, "specs": [...]}`` and adds the net kinds plus the
#: ``node``/``nodes``/``drop_p`` fields.  :meth:`FaultSchedule.to_json` only
#: emits the v2 envelope when a spec actually needs it, so every schedule
#: expressible in v1 still serializes byte-identically to the v1 form.
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Trigger semantics: the spec arms on the first matching operation at
    which ``at_time`` has passed (``engine.now >= at_time``) *and* the
    matching-operation counter has reached ``at_op``.  Omitting a field
    (None) waives that condition; a spec with neither is armed from the
    start.  Once armed it fires on ``count`` consecutive matching
    operations, then retires.  ``until_time`` bounds the spec to a
    window: once ``engine.now`` passes it the spec retires even with
    ``count`` remaining (a fault *storm* is a window plus a large
    count).  ``CRASH`` fires once, ignoring ``count``.
    """

    kind: str
    at_time: Optional[int] = None  # virtual ns
    at_op: Optional[int] = None  # 1-based matching-op count
    path: Optional[str] = None  # path prefix filter (fs kinds only)
    count: int = 1
    extra_ns: int = 0  # added latency (latency_spike / stall / net_delay)
    transient: bool = True  # IOFaultError retryability (errors)
    block: Optional[int] = None  # block index (corrupt_sst_block)
    until_time: Optional[int] = None  # retire after this virtual ns (storm window)
    node: Optional[int] = None  # target node id (cluster runs; v2 schema)
    nodes: Optional[Tuple[int, ...]] = None  # isolated group (partition; v2)
    drop_p: float = 0.0  # message drop probability (net_drop; v2)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultConfigError(f"unknown fault kind {self.kind!r}")
        if self.count < 1:
            raise FaultConfigError(f"count must be >= 1, got {self.count}")
        if self.at_op is not None and self.at_op < 1:
            raise FaultConfigError(f"at_op is 1-based, got {self.at_op}")
        if self.at_time is not None and self.at_time < 0:
            raise FaultConfigError(f"at_time must be >= 0, got {self.at_time}")
        if self.kind in (LATENCY_SPIKE, STALL) and self.extra_ns <= 0:
            raise FaultConfigError(f"{self.kind} needs extra_ns > 0")
        if self.until_time is not None:
            if self.until_time < 0:
                raise FaultConfigError(
                    f"until_time must be >= 0, got {self.until_time}"
                )
            if self.at_time is not None and self.until_time <= self.at_time:
                raise FaultConfigError(
                    f"until_time {self.until_time} must exceed at_time {self.at_time}"
                )
        if self.path is not None and self.kind in DEVICE_KINDS:
            raise FaultConfigError(f"{self.kind} is device-wide; path filter invalid")
        if self.nodes is not None and not isinstance(self.nodes, tuple):
            # JSON round-trips tuples as lists; normalize so spec equality
            # (and therefore schedule round-trip tests) compare stably.
            object.__setattr__(self, "nodes", tuple(self.nodes))
        if not 0.0 <= self.drop_p <= 1.0:
            raise FaultConfigError(f"drop_p must be in [0, 1], got {self.drop_p}")
        if self.kind in NET_KINDS:
            if self.at_time is None:
                raise FaultConfigError(f"{self.kind} needs at_time")
            if self.at_op is not None:
                raise FaultConfigError(f"{self.kind} is time-driven; at_op invalid")
            if self.path is not None:
                raise FaultConfigError(f"{self.kind} is link-level; path invalid")
            if self.kind == PARTITION and not self.nodes:
                raise FaultConfigError("partition needs a non-empty nodes group")
            if self.kind == NET_DELAY and self.extra_ns <= 0:
                raise FaultConfigError("net_delay needs extra_ns > 0")
            if self.kind == NET_DROP and self.drop_p <= 0.0:
                raise FaultConfigError("net_drop needs drop_p > 0")
        else:
            if self.nodes is not None:
                raise FaultConfigError(f"nodes group is partition-only, not {self.kind}")
            if self.drop_p != 0.0:
                raise FaultConfigError(f"drop_p is net_drop-only, not {self.kind}")
        if self.node is not None and self.node < 0:
            raise FaultConfigError(f"node must be >= 0, got {self.node}")

    @property
    def needs_v2(self) -> bool:
        """True when this spec cannot be expressed in the v1 schema."""
        return (
            self.kind in NET_KINDS
            or self.node is not None
            or self.nodes is not None
            or self.drop_p != 0.0
        )

    def to_dict(self) -> dict:
        """Dict form with defaulted fields elided (stable JSON)."""
        out = {"kind": self.kind}
        for key, value in asdict(self).items():
            if key == "kind":
                continue
            default = type(self).__dataclass_fields__[key].default
            if value != default:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        try:
            return cls(**data)
        except TypeError as exc:
            raise FaultConfigError(f"bad fault spec {data!r}: {exc}") from exc


@dataclass
class FaultSchedule:
    """An ordered list of :class:`FaultSpec`, JSON round-trippable."""

    specs: List[FaultSpec] = field(default_factory=list)

    def __iter__(self):
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def add(self, spec: FaultSpec) -> "FaultSchedule":
        self.specs.append(spec)
        return self

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> str:
        """Serialize; v1 bare list unless a spec needs the v2 envelope.

        Every schedule expressible before the net-fault extension keeps its
        exact v1 byte form, so saved schedules (and DST ``schedule_json``
        digests) replay unchanged.
        """
        specs = [s.to_dict() for s in self.specs]
        if any(s.needs_v2 for s in self.specs):
            return json.dumps({"version": SCHEMA_VERSION, "specs": specs}, indent=2)
        return json.dumps(specs, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise FaultConfigError(f"unparseable schedule: {exc}") from exc
        if isinstance(data, dict):
            version = data.get("version")
            if not isinstance(version, int) or "specs" not in data:
                raise FaultConfigError(
                    "schedule JSON must be a list of specs (v1) or a "
                    "versioned object with 'version' and 'specs' (v2)"
                )
            if not 1 <= version <= SCHEMA_VERSION:
                raise FaultConfigError(
                    f"unsupported schedule schema version {version} "
                    f"(this build reads <= {SCHEMA_VERSION})"
                )
            data = data["specs"]
        if not isinstance(data, list):
            raise FaultConfigError("schedule JSON must be a list of specs")
        return cls([FaultSpec.from_dict(d) for d in data])

    def to_file(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def from_file(cls, path: str) -> "FaultSchedule":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    # -- seeded generation -------------------------------------------------

    @classmethod
    def random(
        cls,
        rng: RandomStream,
        horizon_ns: int,
        max_faults: int = 5,
    ) -> "FaultSchedule":
        """Draw a schedule from ``rng`` with triggers inside ``horizon_ns``.

        Injected errors are always transient (retryable): non-transient
        errors surface to the client as typed exceptions, which is a
        different test shape than crash-consistency exploration.  Crash
        points are the caller's business (DST adds its own), so ``CRASH``
        is not drawn here.
        """
        kinds = (READ_ERROR, WRITE_ERROR, LATENCY_SPIKE, STALL, TORN_APPEND, CORRUPT_APPEND)
        specs: List[FaultSpec] = []
        for _ in range(rng.randint(1, max_faults)):
            kind = kinds[rng.randint(0, len(kinds) - 1)]
            at_time = rng.randint(horizon_ns // 20, horizon_ns)
            if kind in (READ_ERROR, WRITE_ERROR):
                specs.append(
                    FaultSpec(kind, at_time=at_time, count=rng.randint(1, 2))
                )
            elif kind == LATENCY_SPIKE:
                specs.append(
                    FaultSpec(
                        kind,
                        at_time=at_time,
                        count=rng.randint(1, 8),
                        extra_ns=rng.randint(us(200), ms(5)),
                    )
                )
            elif kind == STALL:
                specs.append(
                    FaultSpec(kind, at_time=at_time, extra_ns=rng.randint(ms(20), ms(200)))
                )
            elif kind == TORN_APPEND:
                specs.append(FaultSpec(kind, at_time=at_time, path=WAL_DIR))
            else:  # CORRUPT_APPEND
                path = WAL_DIR if rng.chance(0.5) else SST_DIR
                specs.append(FaultSpec(kind, at_time=at_time, path=path))
        return cls(specs)

    @classmethod
    def random_cluster(
        cls,
        rng: RandomStream,
        horizon_ns: int,
        n_nodes: int,
        max_faults: int = 4,
        crash_p: float = 0.6,
    ) -> "FaultSchedule":
        """Draw a cluster schedule: net windows plus at most one node crash.

        Partitions either carry their own ``until_time`` window or stay open
        until an explicit ``HEAL`` event, so both closing mechanisms get
        seed coverage.  At most one node crash is drawn (the DST invariants
        are stated against single-node crashes; quorum loss from multiple
        simultaneous crashes is a different test shape).
        """
        if n_nodes < 2:
            raise FaultConfigError(f"cluster schedules need >= 2 nodes, got {n_nodes}")
        specs: List[FaultSpec] = []
        net_kinds = (PARTITION, NET_DELAY, NET_DROP)
        for _ in range(rng.randint(1, max_faults)):
            kind = net_kinds[rng.randint(0, len(net_kinds) - 1)]
            at_time = rng.randint(horizon_ns // 20, (horizon_ns * 3) // 4)
            until = at_time + rng.randint(horizon_ns // 20, horizon_ns // 4)
            if kind == PARTITION:
                # Isolate a strict minority-or-half group from the rest.
                group_size = rng.randint(1, max(1, n_nodes // 2))
                members = list(range(n_nodes))
                rng.shuffle(members)
                group = tuple(sorted(members[:group_size]))
                if rng.chance(0.5):
                    specs.append(
                        FaultSpec(kind, at_time=at_time, until_time=until, nodes=group)
                    )
                else:
                    specs.append(FaultSpec(kind, at_time=at_time, nodes=group))
                    specs.append(FaultSpec(HEAL, at_time=until))
            elif kind == NET_DELAY:
                specs.append(
                    FaultSpec(
                        kind,
                        at_time=at_time,
                        until_time=until,
                        extra_ns=rng.randint(us(200), ms(5)),
                    )
                )
            else:  # NET_DROP
                specs.append(
                    FaultSpec(
                        kind,
                        at_time=at_time,
                        until_time=until,
                        drop_p=rng.uniform(0.05, 0.5),
                    )
                )
        if rng.chance(crash_p):
            specs.append(
                FaultSpec(
                    CRASH,
                    at_time=rng.randint(horizon_ns // 10, (horizon_ns * 3) // 4),
                    node=rng.randint(0, n_nodes - 1),
                )
            )
        return cls(specs)
