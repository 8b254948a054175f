"""Deterministic simulation testing (DST) for the simulated LSM stack.

Four harnesses, one seeded universe per run, all on the scenario core in
:mod:`repro.dst.core` (op generation, stepping loops, prefix-cut oracle,
replication checks, result base):

* :class:`DstRun` (``"dst"``) — one fault-injected machine: seeded
  workload and fault schedule, a crash, recovery, then **acked
  durability** (every acknowledged, fsynced write is readable), **prefix
  consistency** (the surviving state is a prefix cut of the issued writes
  at or after the last acked one — nothing un-acked resurrects while an
  older acked write is lost) and **structural integrity** (the recovered
  version references only live, fully durable SST files).
* :class:`StormRun` (``"storm"``) — no crash: under a transient fault
  storm or disk-full squeeze the DB must degrade gracefully, auto-resume,
  quiesce in bounded virtual time and lose no acked write.
* :class:`ClusterDstRun` (``"cluster"``) — a replicated cluster under
  partitions, net storms and node crashes: quorum-acked durability,
  prefix convergence, one leader per term, no resurrection.
* :class:`ServingDstRun` (``"serving"``) — a tenant fleet on replicated
  shards under live chaos: no acked write lost, read-your-writes, no
  hung op, the replication invariants per shard group.

A read that hits injected media corruption must fail with a typed
:class:`~repro.errors.CorruptionError`: detection is correct behaviour,
silent wrong data is not.  Everything derives from one seed through
named :class:`~repro.sim.rng.RandomStream` forks, so a run reproduces
down to its virtual-time event log; ``python -m repro.dst
[--storm|--cluster|--serving] --seed N`` replays a seed, and a failing
seed prints its repro command.
"""

from repro.dst.cluster import ClusterDstConfig, ClusterDstResult, ClusterDstRun
from repro.dst.harness import DstConfig, DstResult, DstRun
from repro.dst.serving import ServingDstConfig, ServingDstResult, ServingDstRun
from repro.dst.storm import StormConfig, StormResult, StormRun

#: The one mode dispatch (CLI, fuzz executor, corpus bootstrap): mode name
#: -> (run class, config class); ``Run(seed, Config(...)).run()`` returns a
#: :class:`~repro.dst.core.RunResult`.
MODES = {
    "dst": (DstRun, DstConfig),
    "storm": (StormRun, StormConfig),
    "cluster": (ClusterDstRun, ClusterDstConfig),
    "serving": (ServingDstRun, ServingDstConfig),
}

__all__ = [
    "MODES",
    "ClusterDstConfig",
    "ClusterDstResult",
    "ClusterDstRun",
    "DstConfig",
    "DstResult",
    "DstRun",
    "ServingDstConfig",
    "ServingDstResult",
    "ServingDstRun",
    "StormConfig",
    "StormResult",
    "StormRun",
]
