"""PlanetLab-style cluster status scan on the discrete-event simulator.

The introduction's motivating problem: hundreds of nodes, unknown statuses,
"impractical to login one by one without any guidance".  A
:class:`ClusterScan` builds a simulated cluster — each node with its own
link quality and optional crash time — runs one monitor process hosting a
per-node detector table, and reports the classified statuses against the
ground truth, including the confusion summary a scan would be judged by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.detectors.base import FailureDetector
from repro.cluster.membership import NodeStatus
from repro.cluster.sharded import ShardedMembershipTable
from repro.net.delay import LogNormalDelay
from repro.net.loss import BernoulliLoss, NoLoss
from repro.sim.crash import CrashPlan
from repro.sim.engine import Simulator
from repro.sim.network import SimLink
from repro.sim.process import Heartbeat, HeartbeatSender

__all__ = ["NodeSpec", "ScanReport", "ClusterScan"]


@dataclass(frozen=True, slots=True)
class NodeSpec:
    """One simulated cluster node.

    Attributes
    ----------
    node_id:
        Identifier (hostname-like).
    delay_mean, delay_std:
        Link one-way delay statistics toward the monitor, seconds.
    loss_rate:
        Link loss probability.
    interval:
        Heartbeat period, seconds.
    jitter_std:
        Sending-period jitter.
    crash_time:
        Ground-truth crash instant (``inf`` = correct node).
    """

    node_id: str
    delay_mean: float = 0.05
    delay_std: float = 0.01
    loss_rate: float = 0.0
    interval: float = 0.1
    jitter_std: float = 0.005
    crash_time: float = math.inf


@dataclass
class ScanReport:
    """Result of one cluster scan.

    Attributes
    ----------
    statuses:
        Final classified status per node.
    truth_crashed:
        Ground truth: node ids that actually crashed before the horizon.
    detected:
        Crashed nodes the scan flagged (SUSPECT or DEAD).
    false_suspects:
        Live nodes flagged SUSPECT or DEAD (wrong at scan time).
    missed:
        Crashed nodes still reported ACTIVE/SLOW.
    """

    statuses: dict[str, NodeStatus]
    truth_crashed: set[str]
    detected: set[str] = field(default_factory=set)
    false_suspects: set[str] = field(default_factory=set)
    missed: set[str] = field(default_factory=set)

    @property
    def accuracy(self) -> float:
        """Fraction of nodes classified consistently with ground truth."""
        if not self.statuses:
            return 1.0
        wrong = len(self.false_suspects) + len(self.missed)
        return 1.0 - wrong / len(self.statuses)

    def counts(self) -> dict[NodeStatus, int]:
        out: dict[NodeStatus, int] = {s: 0 for s in NodeStatus}
        for st in self.statuses.values():
            out[st] += 1
        return out


class ClusterScan:
    """Build and run a one-monitors-multiple scan.

    Parameters
    ----------
    nodes:
        Cluster description.
    detector_factory:
        Per-node detector builder, ``factory(node_id) -> FailureDetector``,
        or a registry spec string (``"phi:threshold=3.0,window=40"``);
        strings are resolved by the underlying
        :class:`~repro.cluster.sharded.ShardedMembershipTable`.
    seed:
        Base RNG seed; each node's link derives an independent stream.
    """

    def __init__(
        self,
        nodes: list[NodeSpec],
        detector_factory: Callable[[str], FailureDetector] | str,
        *,
        seed: int = 0,
    ):
        if not nodes:
            raise ConfigurationError("cluster must have at least one node")
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("node ids must be unique")
        self.nodes = list(nodes)
        self.seed = seed
        self.sim = Simulator()
        self.table = ShardedMembershipTable(detector_factory, auto_register=True)
        root = np.random.SeedSequence(seed)
        for spec, child in zip(self.nodes, root.spawn(len(self.nodes))):
            rng = np.random.default_rng(child)
            delay = LogNormalDelay(
                mean=spec.delay_mean,
                std=max(spec.delay_std, 1e-6),
                floor=0.5 * spec.delay_mean,
            )
            loss = BernoulliLoss(spec.loss_rate) if spec.loss_rate > 0 else NoLoss()
            link = SimLink(
                self.sim,
                delay,
                loss,
                rng=rng,
                deliver=self._receiver(spec.node_id),
            )
            HeartbeatSender(
                self.sim,
                link,
                interval=spec.interval,
                jitter_std=spec.jitter_std,
                crash=CrashPlan(spec.crash_time),
                rng=rng,
            )

    def _receiver(self, node_id: str) -> Callable[[Heartbeat], None]:
        def deliver(hb: Heartbeat) -> None:
            self.table.heartbeat(node_id, hb.seq, self.sim.now, hb.send_time)

        return deliver

    def run(self, horizon: float) -> ScanReport:
        """Advance the simulation to ``horizon`` and classify every node."""
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be > 0, got {horizon!r}")
        self.sim.run(until=horizon)
        now = self.sim.now
        # One O(changed) snapshot query instead of a per-spec classify:
        # nodes whose heartbeats never arrived are absent from the table
        # and report UNKNOWN.
        snapshot = self.table.statuses(now)
        statuses = {
            spec.node_id: snapshot.get(spec.node_id, NodeStatus.UNKNOWN)
            for spec in self.nodes
        }
        truth = {n.node_id for n in self.nodes if n.crash_time < horizon}
        flagged = {
            nid
            for nid, st in statuses.items()
            if st in (NodeStatus.SUSPECT, NodeStatus.DEAD)
        }
        return ScanReport(
            statuses=statuses,
            truth_crashed=truth,
            detected=flagged & truth,
            false_suspects=flagged - truth,
            missed=truth - flagged,
        )
