"""Hierarchical monitoring (Fig. 1 topology, Bertier's reference [33])."""

from repro.cluster import (
    GlobalMonitor,
    NodeStatus,
    ShardedMembershipTable,
    SiteMonitor,
)
from repro.detectors import FixedTimeoutFD, PhiFD


def make_site(site: str, nodes: int = 3, *, n_beats: int = 25) -> SiteMonitor:
    """A site whose nodes heartbeat every 0.1 s from t=0 (last at
    ``0.1*(n_beats-1)``); with the default 25 beats they are alive through
    the t≈2 digests the tests take."""
    sm = SiteMonitor(
        site,
        ShardedMembershipTable(
            lambda nid: FixedTimeoutFD(0.5), auto_register=True
        ),
    )
    for j in range(nodes):
        for i in range(n_beats):
            sm.heartbeat(f"{site}-n{j}", i, 0.1 * i)
    return sm


def feed_digests(gm: GlobalMonitor, sm: SiteMonitor, times, delay=0.01):
    for t in times:
        gm.receive_digest(sm.digest(t), t + delay)


class TestSiteMonitor:
    def test_digest_snapshot(self):
        sm = make_site("GA")
        d = sm.digest(now=1.0)
        assert d.site == "GA" and d.seq == 0 and d.nodes == 3
        assert all(s is NodeStatus.ACTIVE for s in d.statuses.values())
        assert sm.digest(now=2.0).seq == 1

    def test_digest_reflects_dead_node(self):
        sm = make_site("GA")
        # One node stops at t=0.9; query far later.
        d = sm.digest(now=10.0)
        assert all(s is NodeStatus.SUSPECT for s in d.statuses.values())


class TestGlobalMonitor:
    def build(self):
        gm = GlobalMonitor(lambda site: FixedTimeoutFD(1.5, warmup=2))
        ga = make_site("GA")
        nc = make_site("NC")
        return gm, ga, nc

    def test_merged_view_passes_through_live_sites(self):
        gm, ga, nc = self.build()
        times = [0.0, 1.0, 2.0]
        feed_digests(gm, ga, times)
        feed_digests(gm, nc, times)
        now = 2.1
        assert gm.site_status("GA", now) is NodeStatus.ACTIVE
        assert gm.node_status("GA", "GA-n0", now) is NodeStatus.ACTIVE
        assert sorted(gm.reachable_sites(now)) == ["GA", "NC"]
        assert gm.summary(now)[NodeStatus.ACTIVE] == 6

    def test_suspected_site_masks_its_nodes(self):
        gm, ga, nc = self.build()
        feed_digests(gm, ga, [0.0, 1.0, 2.0])
        feed_digests(gm, nc, [0.0, 1.0, 2.0])
        # GA's monitor goes silent; NC keeps reporting and its nodes keep
        # heartbeating.
        for j in range(3):
            for i in range(25, 62):
                nc.heartbeat(f"NC-n{j}", i, 0.1 * i)
        feed_digests(gm, nc, [3.0, 4.0, 5.0, 6.0])
        now = 6.1
        assert gm.site_status("GA", now) is NodeStatus.SUSPECT
        assert gm.node_status("GA", "GA-n0", now) is NodeStatus.UNKNOWN
        assert gm.node_status("NC", "NC-n0", now) is NodeStatus.ACTIVE
        assert gm.reachable_sites(now) == ["NC"]

    def test_unknown_site(self):
        gm, *_ = self.build()
        assert gm.site_status("MARS", 1.0) is NodeStatus.UNKNOWN
        assert gm.node_status("MARS", "x", 1.0) is NodeStatus.UNKNOWN

    def test_stale_digest_does_not_roll_back(self):
        gm, ga, _ = self.build()
        d0 = ga.digest(0.0)
        d1 = ga.digest(1.0)
        gm.receive_digest(d1, 1.01)
        gm.receive_digest(d0, 1.02)  # late, reordered
        # Payload stays at the newer digest.
        assert gm._last_digest["GA"].seq == 1

    def test_digest_traffic_counts(self):
        gm, ga, nc = self.build()
        feed_digests(gm, ga, [0.0, 1.0])
        feed_digests(gm, nc, [0.0])
        assert gm.digest_traffic() == 3

    def test_traffic_is_o_sites_not_o_nodes(self):
        """The point of the hierarchy: the global tier's message count
        scales with the number of sites, not nodes."""
        gm = GlobalMonitor(lambda site: FixedTimeoutFD(1.5, warmup=2))
        sites = [make_site(f"S{i}", nodes=50, n_beats=5) for i in range(4)]
        for sm in sites:
            feed_digests(gm, sm, [0.0, 1.0, 2.0])
        assert gm.digest_traffic() == 4 * 3  # 12 digests for 200 nodes
        assert gm.summary(2.1)[NodeStatus.SUSPECT] == 200  # nodes idle since 0.4

    def test_accrual_detector_at_global_tier(self):
        gm = GlobalMonitor(lambda site: PhiFD(3.0, window_size=4))
        ga = make_site("GA")
        feed_digests(gm, ga, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert gm.site_status("GA", 4.1) is NodeStatus.ACTIVE
        assert gm.site_status("GA", 60.0) is NodeStatus.DEAD
