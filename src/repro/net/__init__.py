"""Deterministic simulated network for cluster experiments.

A :class:`Network` connects N node inboxes over point-to-point links with a
fixed jittered latency and bandwidth, and reordering (jittered latencies let
a later message overtake an earlier one).  Partitions, delay storms, and
drop windows (the only message loss) are driven by
the net-level :class:`~repro.faults.schedule.FaultSpec` kinds and evaluated
lazily against the virtual clock at send time — no polling processes, so a
fault-free network adds nothing to the event heap beyond its own messages.

Determinism: every link draws from its own named RNG substream
(``net/link/{src}->{dst}``) forked from the experiment seed, so adding a
consumer or reordering link creation never perturbs the draws of existing
links, and cluster runs replay bit-identically serial vs ``--jobs N``.
"""

from repro.net.network import Link, Network

__all__ = ["Link", "Network"]
