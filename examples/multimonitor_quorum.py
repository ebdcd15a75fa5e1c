#!/usr/bin/env python3
"""Multiple-monitor-multiple: quorum voting across cloud sites (Fig. 1).

The paper's conclusion extends SFD to the "multiple monitor multiple"
case.  This example builds the Fig. 1 topology in miniature: three
education-cloud monitors (GA, NC, VA) watch the same four servers over
*different* network paths — one path is badly congested, so that monitor
alone would wrongly suspect healthy servers.  A majority quorum across
monitors suppresses those path-local mistakes while still catching the
genuinely crashed server.

Run:  python examples/multimonitor_quorum.py
"""

import math

import numpy as np

from repro.cluster import MonitorGroup, ShardedMembershipTable
from repro.detectors import PhiFD
from repro.net import LogNormalDelay, BernoulliLoss
from repro.sim import CrashPlan, HeartbeatSender, SimLink, Simulator
from repro.sim.process import Heartbeat

SERVERS = ["gsu-app1", "gsu-app2", "ncsu-db1", "umbc-web1"]
CRASHED = {"ncsu-db1": 30.0}

MONITORS = {
    "GA-cloud": dict(delay=0.015, loss=0.0),
    "NC-cloud": dict(delay=0.025, loss=0.0),
    "VA-cloud": dict(delay=0.09, loss=0.15),  # congested, lossy path
}


def main() -> None:
    sim = Simulator()
    rng = np.random.default_rng(3)
    group = MonitorGroup()  # default: strict majority of observers
    tables: dict[str, ShardedMembershipTable] = {}

    for mon_name, path in MONITORS.items():
        table = ShardedMembershipTable(lambda nid: PhiFD(2.0, window_size=40))
        tables[mon_name] = table
        group.add_monitor(mon_name, table)
        for server in SERVERS:
            crash = CrashPlan(CRASHED.get(server, math.inf))

            def deliver(hb: Heartbeat, table=table, server=server) -> None:
                table.heartbeat(server, hb.seq, sim.now, hb.send_time)

            link = SimLink(
                sim,
                LogNormalDelay(
                    mean=path["delay"], std=path["delay"] / 3,
                    floor=path["delay"] / 2,
                ),
                BernoulliLoss(path["loss"]) if path["loss"] else None,
                rng=np.random.default_rng(rng.integers(2**32)),
                deliver=deliver,
            )
            HeartbeatSender(
                sim,
                link,
                interval=0.2,
                jitter_std=0.02,
                crash=crash,
                rng=np.random.default_rng(rng.integers(2**32)),
            )

    sim.run(until=45.0)
    now = sim.now

    print("per-monitor statuses at t=45 s (ncsu-db1 crashed at t=30 s):")
    header = f"  {'server':10s} " + " ".join(f"{m:>9s}" for m in MONITORS)
    print(header)
    for server in SERVERS:
        verdict = group.verdict(server, now)
        row = " ".join(
            f"{verdict.statuses[m].value:>9s}" for m in MONITORS
        )
        print(f"  {server:10s} {row}   -> quorum says "
              f"{'CRASHED' if verdict.crashed else 'alive'} "
              f"({verdict.suspecting}/{verdict.observing})")

    crashed = group.crashed_nodes(now)
    print(f"\nquorum-crashed servers: {crashed}")
    assert crashed == ["ncsu-db1"], "quorum must catch exactly the real crash"


if __name__ == "__main__":
    main()
