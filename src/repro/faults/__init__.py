"""Fault injection: deterministic device/filesystem misbehaviour on demand.

The paper's findings hinge on how the write path behaves when the device
misbehaves under load, yet a simulator that only models the happy path can
never exercise those branches.  This package gives the storage stack a
schedule-driven injector, in the spirit of EagleTree's event-injection
design space exploration, where injected events are a property of the one
simulated system:

* :class:`FaultSpec` / :class:`FaultSchedule` — declarative fault events
  (I/O errors, latency spikes, stuck-I/O stalls, torn appends, media
  corruption, crash points), triggered at a virtual time or an operation
  count, JSON round-trippable for replay;
* :class:`FaultInjector` — interprets a schedule deterministically and
  keeps a virtual-time event log of everything it injected.

The injector is data on a host, not a class of host:
:meth:`~repro.harness.machine.Machine.build` given a schedule wires one
injector into the host's :class:`~repro.storage.device.StorageDevice`
(every read and write consults it: typed
:class:`~repro.errors.IOFaultError`, stretched completions) and its
:class:`~repro.fs.filesystem.SimFileSystem` (every append is reported:
torn tails, mangled media, broken SST checksums).  A host with no injector
pays one attribute test per request and per append; an injector whose
specs never fire changes no simulated timestamp.
"""

from repro.faults.injector import FaultInjector
from repro.faults.mutate import (
    CLUSTER_MUTATION_KINDS,
    DST_MUTATION_KINDS,
    SERVING_MUTATION_KINDS,
    STORM_MUTATION_KINDS,
    MutationContext,
    clamp_schedule,
    clamp_spec,
    draw_spec,
    mutate_schedule,
)
from repro.faults.schedule import (
    CORRUPT_APPEND,
    CORRUPT_SST_BLOCK,
    CRASH,
    DEVICE_KINDS,
    FAULT_KINDS,
    FS_KINDS,
    HEAL,
    LATENCY_SPIKE,
    NET_DELAY,
    NET_DROP,
    NET_KINDS,
    PARTITION,
    READ_ERROR,
    SCHEMA_VERSION,
    STALL,
    TORN_APPEND,
    WRITE_ERROR,
    FaultSchedule,
    FaultSpec,
)

__all__ = [
    "CLUSTER_MUTATION_KINDS",
    "CORRUPT_APPEND",
    "CORRUPT_SST_BLOCK",
    "CRASH",
    "DEVICE_KINDS",
    "DST_MUTATION_KINDS",
    "SERVING_MUTATION_KINDS",
    "FAULT_KINDS",
    "FS_KINDS",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "HEAL",
    "LATENCY_SPIKE",
    "MutationContext",
    "NET_DELAY",
    "NET_DROP",
    "NET_KINDS",
    "PARTITION",
    "READ_ERROR",
    "SCHEMA_VERSION",
    "STALL",
    "STORM_MUTATION_KINDS",
    "TORN_APPEND",
    "WRITE_ERROR",
    "clamp_schedule",
    "clamp_spec",
    "draw_spec",
    "mutate_schedule",
]
