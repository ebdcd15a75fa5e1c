"""Cluster-scale monitoring: the paper's motivating scenario.

The introduction motivates failure detection with PlanetLab: "it currently
consists of 1076 nodes at 494 sites.  While lots of nodes are inactive at
any time, yet we do not know the exact status (active, slow, offline, or
dead).  Therefore, it is impractical to login one by one without any
guidance."  The conclusion adds that SFD "is also appropriate for the
'one monitors multiple' and 'multiple monitor multiple' cases".

This subpackage provides those layers: a membership table keeping one
detector per monitored node (one-monitors-multiple), a quorum aggregator
over several monitors (multiple-monitor-multiple), and a simulated
PlanetLab-style status scan built on the DES.
"""

from repro.cluster.membership import NodeState, NodeStatus
from repro.cluster.sharded import DeadlineWheel, ShardedMembershipTable
from repro.cluster.multimonitor import MonitorGroup, QuorumVerdict
from repro.cluster.scan import ClusterScan, NodeSpec, ScanReport
from repro.cluster.hierarchy import GlobalMonitor, SiteDigest, SiteMonitor

__all__ = [
    "NodeState",
    "NodeStatus",
    "DeadlineWheel",
    "ShardedMembershipTable",
    "MonitorGroup",
    "QuorumVerdict",
    "ClusterScan",
    "NodeSpec",
    "ScanReport",
    "GlobalMonitor",
    "SiteDigest",
    "SiteMonitor",
]
