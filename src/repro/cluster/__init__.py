"""Replicated cluster: WAL shipping with quorum acks over repro.net.

One leader DB takes client writes; its WAL groups are captured at append
time (``WalManager.on_group``) and shipped in log order to N-1 followers,
which apply them through :meth:`~repro.lsm.db.DB.apply_replicated` with the
leader's sequence numbers.  A client write is acknowledged only once its
sequence is durable on a majority (leader fsync + follower acks).  On
leader crash a deterministic failover elects the most-caught-up node among
an alive quorum — the two majorities intersect, so every acked write is on
the new leader.  A conflicting follower steps down and rejoins: like a
restarted node, it truncates its divergent unacked tail via the existing
WAL checksum/truncate machinery (or is wiped) before it rejoins.

The control plane (election, membership, rejoin arbitration) is modeled as
an omniscient external service: deterministic bookkeeping on the
:class:`Cluster` object, not messages on the simulated network.  The data
plane (WAL shipping, acks, retries) runs entirely over
:class:`repro.net.Network` and is subject to its partitions, delays, drops
and duplications.
"""

from repro.cluster.nodefs import NodeFileView, NodeFsView
from repro.cluster.replication import Cluster, ClusterConfig, ClusterNode, Group

__all__ = [
    "Cluster",
    "ClusterConfig",
    "ClusterNode",
    "Group",
    "NodeFileView",
    "NodeFsView",
]
