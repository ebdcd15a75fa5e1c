"""Hierarchical monitoring — the Fig. 1 cloud-of-clouds topology.

The paper's practical model (Section II-A) is a consortium: state
education clouds (GA, NC, VA, …) under umbrella organizations (SURA,
HBCU), with "every education cloud service environment … given by the
monitoring results".  Bertier's hierarchical detector (reference [33])
organizes failure detection the same way: a *site monitor* watches its own
nodes over the cheap local network, and a *global monitor* watches only
the site monitors, receiving digests instead of per-node heartbeats —
O(sites) global traffic instead of O(nodes).

Semantics of the merged view:

* a node's status is its site monitor's opinion, **as of the last digest**;
* if the site monitor itself is suspected by the global tier, all of its
  nodes become :attr:`~repro.cluster.membership.NodeStatus.UNKNOWN` — the
  honest answer, since the path to the authority over that site is gone
  (the site may be fine behind a partition).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.membership import NodeStatus
from repro.cluster.sharded import ShardedMembershipTable

__all__ = ["SiteDigest", "SiteMonitor", "GlobalMonitor"]


@dataclass(frozen=True, slots=True)
class SiteDigest:
    """One site monitor's periodic summary toward the global tier."""

    site: str
    seq: int
    sent_at: float
    statuses: dict[str, NodeStatus]

    @property
    def nodes(self) -> int:
        return len(self.statuses)


@dataclass
class SiteMonitor:
    """Level-1 monitor: a membership table plus digest emission.

    Parameters
    ----------
    site:
        Site identifier (e.g. ``"GA-cloud"``).
    table:
        The local one-monitors-multiple table (local-LAN detectors).
    """

    site: str
    table: ShardedMembershipTable
    digests_sent: int = field(default=0, init=False)

    def heartbeat(
        self, node_id: str, seq: int, arrival: float, send_time: float | None = None
    ) -> None:
        """Feed one local-node heartbeat."""
        self.table.heartbeat(node_id, seq, arrival, send_time)

    def digest(self, now: float) -> SiteDigest:
        """Snapshot the site's statuses as the next digest message."""
        d = SiteDigest(
            site=self.site,
            seq=self.digests_sent,
            sent_at=now,
            statuses=self.table.statuses(now),
        )
        self.digests_sent += 1
        return d


class GlobalMonitor:
    """Level-2 monitor: watches site monitors, merges their digests.

    Parameters
    ----------
    detector_factory:
        Builds the per-site failure detector fed by digest arrivals (a
        digest doubles as the site monitor's heartbeat).  Accepts a
        registry spec string, like every ``detector_factory`` in this
        package.
    """

    def __init__(self, detector_factory):
        self._sites = ShardedMembershipTable(detector_factory, auto_register=True)
        self._last_digest: dict[str, SiteDigest] = {}

    @property
    def sites(self) -> ShardedMembershipTable:
        return self._sites

    def receive_digest(self, digest: SiteDigest, arrival: float) -> None:
        """Consume one digest (the site's liveness sample + payload)."""
        state = self._sites.heartbeat(
            digest.site, digest.seq, arrival, digest.sent_at
        )
        # A stale (reordered) digest must not roll the payload back.
        prev = self._last_digest.get(digest.site)
        if prev is None or digest.seq >= prev.seq:
            self._last_digest[digest.site] = digest
        del state

    def site_status(self, site: str, now: float) -> NodeStatus:
        """The global tier's opinion of one site monitor."""
        if site not in self._sites:
            return NodeStatus.UNKNOWN
        return self._sites.node(site).status(now)

    def node_status(self, site: str, node_id: str, now: float) -> NodeStatus:
        """Merged opinion about one node (see module docstring)."""
        site_state = self.site_status(site, now)
        if site_state in (NodeStatus.SUSPECT, NodeStatus.DEAD, NodeStatus.UNKNOWN):
            return NodeStatus.UNKNOWN
        digest = self._last_digest.get(site)
        if digest is None:
            return NodeStatus.UNKNOWN
        return digest.statuses.get(node_id, NodeStatus.UNKNOWN)

    def statuses(self, now: float) -> dict[str, dict[str, NodeStatus]]:
        """Full merged view: ``{site: {node: status}}``."""
        out: dict[str, dict[str, NodeStatus]] = {}
        for site, digest in self._last_digest.items():
            out[site] = {
                node: self.node_status(site, node, now)
                for node in digest.statuses
            }
        return out

    def summary(self, now: float) -> dict[NodeStatus, int]:
        """Node counts per status across all sites."""
        counts = {s: 0 for s in NodeStatus}
        for per_site in self.statuses(now).values():
            for st in per_site.values():
                counts[st] += 1
        return counts

    def reachable_sites(self, now: float) -> list[str]:
        """Sites whose monitors the global tier currently trusts."""
        return sorted(
            site
            for site in self._last_digest
            if self.site_status(site, now)
            in (NodeStatus.ACTIVE, NodeStatus.SLOW)
        )

    def digest_traffic(self) -> int:
        """Digests consumed so far (the O(sites) global message count)."""
        return sum(st.heartbeats for st in self._sites.nodes())

