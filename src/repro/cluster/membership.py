"""Per-node membership records: the node status ladder and node state.

The table that holds one :class:`NodeState` per monitored node is
:class:`~repro.cluster.sharded.ShardedMembershipTable`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.errors import NotWarmedUpError
from repro.detectors.base import FailureDetector
from repro.qos.metrics import MistakeAccumulator
from repro.qos.spec import QoSReport

__all__ = ["NodeStatus", "NodeState"]


class NodeStatus(enum.Enum):
    """Four-way node classification from the introduction's PlanetLab list."""

    #: Heartbeats arriving on schedule.
    ACTIVE = "active"
    #: Overdue but below the suspicion threshold (busy / heavily loaded).
    SLOW = "slow"
    #: Suspicion threshold crossed.
    SUSPECT = "suspect"
    #: Far past the threshold (2x) — near-certain crash ("offline or dead").
    DEAD = "dead"
    #: Still warming up — no verdict yet.
    UNKNOWN = "unknown"


@dataclass
class NodeState:
    """Bookkeeping for one monitored node."""

    node_id: str
    detector: FailureDetector
    heartbeats: int = 0
    last_seq: int = -1
    last_arrival: float = math.nan
    stale_dropped: int = 0
    restarts: int = 0
    #: Last status reported through the table's classification paths —
    #: the memory that lets the table emit TRUSTED↔SUSPECTED transition
    #: edges to an observer instead of only point-in-time snapshots.
    last_status: NodeStatus = NodeStatus.UNKNOWN
    #: Table-wide transition counter value at this node's last status
    #: change.  Consumers (quorum aggregation, dashboards) cache derived
    #: verdicts keyed by this epoch and recompute only when it moves,
    #: instead of re-reading every detector on every query.
    status_epoch: int = 0
    #: Live QoS accounting (wrong suspicions + TD samples), started when
    #: the detector warms up; ``None`` when the table was built with
    #: ``account_qos=False``.
    accounting: MistakeAccumulator | None = field(default=None, repr=False)

    def qos(self, now: float) -> QoSReport:
        """Measured output QoS of this node's detector since warm-up.

        The live counterpart of the DES MonitorProcess report: every late
        heartbeat counted as one wrong suspicion, every freshness point as
        a detection-time sample (the ``FP − A`` proxy, since live clocks
        carry no comparable sender stamp).
        """
        if self.accounting is None:
            raise NotWarmedUpError(
                f"node {self.node_id!r}: QoS accounting disabled or the "
                "detector has not warmed up yet"
            )
        return self.accounting.snapshot(now)

    def status(self, now: float) -> NodeStatus:
        """Classify via the detector's suspicion level vs its threshold."""
        if not self.detector.ready:
            return NodeStatus.UNKNOWN
        level = self.detector.suspicion(now)
        threshold = self.detector.binary_threshold()
        if threshold <= 0.0:
            # Binary timeout detector: level is overdue seconds.
            if level == 0.0:
                return NodeStatus.ACTIVE
            return NodeStatus.SUSPECT
        if level < 0.5 * threshold:
            return NodeStatus.ACTIVE
        if level <= threshold:
            return NodeStatus.SLOW
        if level < 2.0 * threshold:
            return NodeStatus.SUSPECT
        return NodeStatus.DEAD
