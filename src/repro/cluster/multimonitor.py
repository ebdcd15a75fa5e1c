"""Multiple-monitor-multiple: quorum aggregation across monitors.

When several monitors watch the same nodes over *different* network paths
(the cross-cloud accesses of Fig. 1), their verdicts differ: a congested
path can make one monitor suspect a node other monitors still trust.  A
:class:`MonitorGroup` aggregates per-monitor
:class:`~repro.cluster.sharded.ShardedMembershipTable` snapshots into a quorum
verdict, the standard way to turn unreliable local detectors into a more
accurate global one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.cluster.membership import NodeStatus
from repro.cluster.sharded import ShardedMembershipTable

__all__ = ["QuorumVerdict", "MonitorGroup"]

#: Statuses counted as "this monitor suspects the node".
_SUSPECTING = frozenset({NodeStatus.SUSPECT, NodeStatus.DEAD})


@dataclass(frozen=True, slots=True)
class QuorumVerdict:
    """Aggregated opinion about one node.

    Attributes
    ----------
    node_id:
        The node judged.
    suspecting:
        Monitors whose status is SUSPECT or DEAD.
    observing:
        Monitors with *any* verdict (UNKNOWN monitors abstain).
    crashed:
        True when ``suspecting >= quorum`` among observers.
    statuses:
        Raw per-monitor statuses, keyed by monitor name.
    """

    node_id: str
    suspecting: int
    observing: int
    crashed: bool
    statuses: dict[str, NodeStatus]


class MonitorGroup:
    """A set of named monitors voting on node liveness.

    Verdicts are served from a per-node cache keyed by the members'
    status epochs: one O(changed) ``advance`` per query brings the
    snapshots current, the epoch key tells us whether any member's
    opinion moved, and only moved nodes are re-aggregated.  Transition
    callbacks feed a dirty set so :meth:`crashed_nodes` re-judges exactly
    the nodes that changed instead of rescanning monitors × nodes.

    Parameters
    ----------
    quorum:
        Minimum number of suspecting monitors to declare a node crashed.
        Defaults to a strict majority of the monitors that currently have
        an opinion (abstentions excluded).
    """

    def __init__(self, quorum: int | None = None):
        if quorum is not None and quorum < 1:
            raise ConfigurationError(f"quorum must be >= 1, got {quorum!r}")
        self._quorum = quorum
        self._monitors: dict[str, ShardedMembershipTable] = {}
        #: node_id -> (epoch key, verdict); the key is the per-monitor
        #: (present, status_epoch) tuple, so any member transition or
        #: membership change of that node misses the cache.
        self._verdicts: dict[str, tuple[tuple, QuorumVerdict]] = {}
        #: Nodes whose status moved since crashed_nodes() last judged them.
        self._dirty: set[str] = set()
        #: Incrementally maintained crash roster.
        self._crashed: set[str] = set()
        #: Per-table node counts at the last sync; a shape change means
        #: registrations/expiries happened without transitions, which the
        #: dirty set cannot see — rebuild the roster from scratch.
        self._shape: tuple[int, ...] | None = None
        self._roster_stale = True

    def add_monitor(self, name: str, table: ShardedMembershipTable) -> None:
        if name in self._monitors:
            raise ConfigurationError(f"monitor {name!r} already in the group")
        self._monitors[name] = table
        table.add_transition_listener(self._on_member_transition)
        self._verdicts.clear()
        self._roster_stale = True

    def _on_member_transition(
        self, node_id: str, old: NodeStatus, new: NodeStatus, at: float
    ) -> None:
        self._dirty.add(node_id)

    @property
    def monitors(self) -> dict[str, ShardedMembershipTable]:
        return dict(self._monitors)

    def _required(self, observing: int) -> int:
        if self._quorum is not None:
            return self._quorum
        return observing // 2 + 1  # strict majority of opinions

    def _sync(self, now: float) -> None:
        """Bring every member snapshot current."""
        tables = self._monitors.values()
        for t in tables:
            t.advance(now)
        shape = tuple(len(t) for t in tables)
        if shape != self._shape:
            self._shape = shape
            self._roster_stale = True
            self._verdicts.clear()  # drop entries for expired nodes

    def _aggregate(
        self, node_id: str, statuses: dict[str, NodeStatus]
    ) -> QuorumVerdict:
        observing = sum(1 for s in statuses.values() if s is not NodeStatus.UNKNOWN)
        suspecting = sum(1 for s in statuses.values() if s in _SUSPECTING)
        crashed = observing > 0 and suspecting >= self._required(observing)
        return QuorumVerdict(
            node_id=node_id,
            suspecting=suspecting,
            observing=observing,
            crashed=crashed,
            statuses=statuses,
        )

    def _cached_verdict(self, node_id: str) -> QuorumVerdict:
        """Epoch-keyed aggregation over already-advanced snapshots — no
        detector reads at all."""
        key_parts = []
        statuses: dict[str, NodeStatus] = {}
        for name, table in self._monitors.items():
            state = table._nodes.get(node_id)
            if state is None:
                key_parts.append(-1)
            else:
                key_parts.append(state.status_epoch)
                statuses[name] = state.last_status
        key = tuple(key_parts)
        hit = self._verdicts.get(node_id)
        if hit is not None and hit[0] == key:
            return hit[1]
        verdict = self._aggregate(node_id, statuses)
        self._verdicts[node_id] = (key, verdict)
        return verdict

    def verdict(self, node_id: str, now: float) -> QuorumVerdict:
        """Aggregate the group's opinion about ``node_id`` at ``now``."""
        self._sync(now)
        return self._cached_verdict(node_id)

    def all_nodes(self) -> set[str]:
        """Union of node ids across all member monitors."""
        ids: set[str] = set()
        for table in self._monitors.values():
            ids.update(st.node_id for st in table.nodes())
        return ids

    def crashed_nodes(self, now: float) -> list[str]:
        """Nodes the group currently declares crashed (sorted).

        The roster is maintained incrementally: only nodes dirtied by
        member transitions since the previous call (or all nodes, after a
        membership change) are re-judged.
        """
        self._sync(now)
        if self._roster_stale:
            # First cached query, or members registered/expired nodes:
            # rebuild the roster, then go incremental.
            self._roster_stale = False
            todo = self.all_nodes()
            self._crashed.clear()
        else:
            todo = self._dirty
        self._dirty = set()
        crashed = self._crashed
        for nid in todo:
            if self._cached_verdict(nid).crashed:
                crashed.add(nid)
            else:
                crashed.discard(nid)
        return sorted(crashed)
