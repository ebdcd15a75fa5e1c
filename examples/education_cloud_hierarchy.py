#!/usr/bin/env python3
"""The Fig. 1 consortium, monitored hierarchically.

Five state education clouds (GA, NC, SC, VA, MD) each run a site monitor
over their own campus nodes; the SURA umbrella runs a global monitor that
only sees per-site *digests* — O(sites) wide-area traffic instead of
O(nodes), which is how "a total education cloud is regarded as a process"
(the paper's footnote 5 on the theoretical model).

The scenario: one campus node crashes (caught by its site monitor and
visible in the merged view), and then an entire site's uplink partitions —
the global tier suspects the *site monitor* and honestly reports its nodes
as UNKNOWN rather than guessing.

Run:  python examples/education_cloud_hierarchy.py
"""

import numpy as np

from repro.cluster import (
    GlobalMonitor,
    NodeStatus,
    ShardedMembershipTable,
    SiteMonitor,
)
from repro.detectors import PhiFD
from repro.net import NormalDelay
from repro.sim import CrashPlan, HeartbeatSender, SimLink, Simulator
from repro.sim.process import Heartbeat

SITES = ["GA-cloud", "NC-cloud", "SC-cloud", "VA-cloud", "MD-cloud"]
NODES_PER_SITE = 8
CRASHED_NODE = ("NC-cloud", "NC-cloud-n3", 25.0)  # node crash at t=25
PARTITIONED_SITE = ("VA-cloud", 35.0)  # uplink dies at t=35
HORIZON = 60.0


def main() -> None:
    sim = Simulator()
    rng = np.random.default_rng(17)
    site_monitors: dict[str, SiteMonitor] = {}
    gm = GlobalMonitor(lambda site: PhiFD(4.0, window_size=8))

    uplinks: dict[str, SimLink] = {}
    for site in SITES:
        sm = SiteMonitor(
            site,
            ShardedMembershipTable(
                lambda nid: PhiFD(3.0, window_size=30), auto_register=True
            ),
        )
        site_monitors[site] = sm
        # Campus LAN links: node -> site monitor.
        for j in range(NODES_PER_SITE):
            node_id = f"{site}-n{j}"
            crash_t = (
                CRASHED_NODE[2]
                if (site, node_id) == (CRASHED_NODE[0], CRASHED_NODE[1])
                else float("inf")
            )

            def deliver(hb: Heartbeat, sm=sm, node_id=node_id) -> None:
                sm.heartbeat(node_id, hb.seq, sim.now, hb.send_time)

            link = SimLink(
                sim,
                NormalDelay(0.002, 0.0005, minimum=0.0005),  # LAN
                rng=np.random.default_rng(rng.integers(2**32)),
                deliver=deliver,
            )
            HeartbeatSender(
                sim,
                link,
                interval=0.1,
                jitter_std=0.005,
                crash=CrashPlan(crash_t),
                rng=np.random.default_rng(rng.integers(2**32)),
            )
        # WAN uplink: site monitor digests -> SURA global monitor.
        uplink = SimLink(
            sim,
            NormalDelay(0.03, 0.005, minimum=0.01),  # WAN
            rng=np.random.default_rng(rng.integers(2**32)),
            deliver=lambda digest: gm.receive_digest(digest, sim.now),
        )
        uplinks[site] = uplink

        def make_digester(sm=sm, uplink=uplink):
            def tick() -> None:
                uplink.send(sm.digest(sim.now))
                sim.schedule(1.0, tick)

            return tick

        sim.schedule(0.5, make_digester())

    uplinks[PARTITIONED_SITE[0]].outage(PARTITIONED_SITE[1], HORIZON)
    sim.run(until=HORIZON)
    now = sim.now

    print("SURA global monitor view at t=60 s")
    print("=" * 64)
    print(f"digest traffic: {gm.digest_traffic()} messages "
          f"for {len(SITES) * NODES_PER_SITE} nodes")
    for site in SITES:
        st = gm.site_status(site, now)
        nodes = gm.statuses(now).get(site, {})
        counts: dict[str, int] = {}
        for s in nodes.values():
            counts[s.value] = counts.get(s.value, 0) + 1
        print(f"  {site:9s} monitor={st.value:8s} nodes={counts}")

    # The node crash is visible through the hierarchy...
    nc_view = gm.statuses(now)["NC-cloud"]
    assert nc_view["NC-cloud-n3"] in (NodeStatus.SUSPECT, NodeStatus.DEAD)
    # ...and the partitioned site is reported honestly as unknown.
    va_view = gm.statuses(now)["VA-cloud"]
    assert all(s is NodeStatus.UNKNOWN for s in va_view.values())
    assert "VA-cloud" not in gm.reachable_sites(now)
    print("\ncrashed node NC-cloud-n3 detected through the hierarchy;")
    print("partitioned VA-cloud reported UNKNOWN (not guessed).")


if __name__ == "__main__":
    main()
