"""Flat membership table: the parity oracle for the sharded table.

The straightforward one-monitors-multiple table: every status query
re-classifies every node by reading its detector, and ``expire`` scans
the whole table.  Nothing in the library uses it.  It is kept here
because it is obviously right, so ``tests/test_sharded.py`` and the
flat-parity check in ``benchmarks/bench_cluster_scalability.py`` can
compare :class:`~repro.cluster.sharded.ShardedMembershipTable`'s
deadline-wheel answers against it, verdict for verdict.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import ConfigurationError, UnknownNodeError
from repro.detectors.base import FailureDetector
from repro.cluster.membership import NodeState, NodeStatus
from repro.qos.metrics import MistakeAccumulator

__all__ = ["MembershipTable"]


class MembershipTable:
    """Registry of monitored nodes, each with its own detector instance.

    Parameters
    ----------
    detector_factory:
        Called as ``detector_factory(node_id)`` to build a fresh detector
        when a node is registered (or first heard from, when
        ``auto_register`` is set).  A registry spec string
        (``"phi:threshold=4.0,window=10"``) or replay spec object is also
        accepted and resolved via :mod:`repro.detectors.registry`.
    auto_register:
        Accept heartbeats from unknown nodes by registering them on the
        fly (how a PlanetLab-style open monitor behaves).
    reorder_window:
        Sequence regressions up to this many numbers behind the newest are
        treated as transport reordering and dropped; regressions *beyond*
        it mean the sender restarted with a fresh counter, so its detector
        is reset instead (a crashed-and-restarted node must be re-adopted,
        not ignored forever).
    on_transition:
        Optional observer ``(node_id, old, new, now)`` fired whenever a
        node's classified status changes — on heartbeat arrival (recovery
        edges) and on every status query path (suspicion edges).  When
        set, each accepted heartbeat also classifies the node, so
        SUSPECT→ACTIVE recovery is seen at arrival time rather than at
        the next query.
    on_restart:
        Optional observer ``(node_id, restarts)`` fired when a sequence
        regression past the reorder window re-adopts a node.
    on_stale:
        Optional observer ``(node_id, seq, newest)`` fired when a
        reordered/stale heartbeat is dropped.
    """

    def __init__(
        self,
        detector_factory: Callable[[str], FailureDetector] | str,
        *,
        auto_register: bool = True,
        account_qos: bool = False,
        reorder_window: int = 8,
        on_transition: Callable[[str, NodeStatus, NodeStatus, float], None]
        | None = None,
        on_restart: Callable[[str, int], None] | None = None,
        on_stale: Callable[[str, int, int], None] | None = None,
    ):
        if reorder_window < 0:
            raise ConfigurationError(
                f"reorder_window must be >= 0, got {reorder_window!r}"
            )
        if not callable(detector_factory):
            # Spec string (or spec object): resolve through the registry so
            # configs can say `"phi:threshold=4.0,window=10"` directly.
            from repro.detectors import registry

            detector_factory = registry.as_factory(detector_factory)
        self._factory = detector_factory
        self._auto = auto_register
        self._account = account_qos
        self._reorder_window = int(reorder_window)
        self._on_transition = on_transition
        self._on_restart = on_restart
        self._on_stale = on_stale
        self._transition_listeners: list[
            Callable[[str, NodeStatus, NodeStatus, float], None]
        ] = []
        #: True when anyone wants transition edges (constructor observer or
        #: subscribed listener) — gates classification-on-arrival.
        self._observes = on_transition is not None
        self._epoch = 0
        self._nodes: dict[str, NodeState] = {}

    def add_transition_listener(
        self, listener: Callable[[str, NodeStatus, NodeStatus, float], None]
    ) -> None:
        """Subscribe an additional ``(node_id, old, new, now)`` observer.

        Unlike the constructor's ``on_transition`` (which stays the primary
        hook, e.g. the instruments bundle), any number of listeners can be
        attached after construction — quorum aggregators use this to
        invalidate their per-node verdict caches on exactly the nodes that
        changed.
        """
        self._transition_listeners.append(listener)
        self._observes = True

    @property
    def epoch(self) -> int:
        """Table-wide status-transition counter (see ``status_epoch``)."""
        return self._epoch

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def register(self, node_id: str) -> NodeState:
        """Add a node explicitly; idempotent."""
        state = self._nodes.get(node_id)
        if state is None:
            state = NodeState(node_id=node_id, detector=self._factory(node_id))
            self._nodes[node_id] = state
        return state

    def remove(self, node_id: str) -> None:
        self._nodes.pop(node_id, None)

    def heartbeat(
        self, node_id: str, seq: int, arrival: float, send_time: float | None = None
    ) -> NodeState:
        """Feed one heartbeat from ``node_id``.

        Small sequence regressions (within the reorder window) are dropped
        as stale; large ones re-adopt the node as freshly restarted.
        """
        state = self._nodes.get(node_id)
        if state is None:
            if not self._auto:
                raise UnknownNodeError(node_id)
            state = self.register(node_id)
        if seq <= state.last_seq:
            if state.last_seq - seq <= self._reorder_window:
                state.stale_dropped += 1
                if self._on_stale is not None:
                    self._on_stale(node_id, seq, state.last_seq)
                return state
            self._mark_restarted(state)
        det = state.detector
        was_ready = det.ready
        if self._account and was_ready and state.accounting is not None:
            # DESIGN.md §5 semantics, live: a late arrival reveals one
            # wrong suspicion against the freshness point that guarded it.
            try:
                fp_prev = det.freshness_point()  # type: ignore[attr-defined]
            except AttributeError:  # pragma: no cover - exotic detectors
                fp_prev = math.inf
            start = max(fp_prev, state.last_arrival)
            if arrival > start:
                state.accounting.add_mistake(start, arrival)
        det.observe(seq, arrival, send_time)
        state.last_seq = seq
        state.last_arrival = arrival
        state.heartbeats += 1
        if self._account and det.ready:
            if not was_ready:
                state.accounting = MistakeAccumulator(t_begin=arrival)
            try:
                fp = det.freshness_point()  # type: ignore[attr-defined]
            except AttributeError:  # pragma: no cover
                fp = arrival
            origin = send_time if send_time is not None else arrival
            assert state.accounting is not None
            state.accounting.add_detection_sample(fp - origin)
        if self._observes:
            # Classify at arrival so recovery edges (SUSPECT -> ACTIVE)
            # surface immediately; only priced when someone listens.
            self._classify(state, arrival)
        return state

    def heartbeat_batch(
        self, batch: list[tuple[str, int, float, float | None]]
    ) -> int:
        """Feed a drained listener batch of ``(node_id, seq, arrival,
        send_time)`` tuples; returns the number of accepted (non-stale)
        heartbeats.  Semantically one :meth:`heartbeat` per tuple — the
        batched form exists so ingest layers can hand over a whole socket
        drain in one call."""
        accepted = 0
        hb = self.heartbeat
        for node_id, seq, arrival, send_time in batch:
            before = self._nodes.get(node_id)
            count = before.heartbeats if before is not None else 0
            if hb(node_id, seq, arrival, send_time).heartbeats != count:
                accepted += 1
        return accepted

    def _mark_restarted(self, state: NodeState) -> None:
        """Re-adopt a node whose sequence counter regressed past the
        reorder window: the peer crashed and came back with a fresh
        counter, so its detector history (inter-arrival statistics from
        the previous incarnation, plus the crash gap) is meaningless."""
        state.restarts += 1
        try:
            state.detector.reset()
        except NotImplementedError:
            state.detector = self._factory(state.node_id)
        state.last_seq = -1
        state.last_arrival = math.nan
        state.accounting = None
        if self._on_restart is not None:
            self._on_restart(state.node_id, state.restarts)

    @property
    def restarts(self) -> int:
        """Total node restarts recognized across the table."""
        return sum(st.restarts for st in self._nodes.values())

    def node(self, node_id: str) -> NodeState:
        state = self._nodes.get(node_id)
        if state is None:
            raise UnknownNodeError(node_id)
        return state

    def nodes(self) -> tuple[NodeState, ...]:
        return tuple(self._nodes.values())

    def _classify(self, state: NodeState, now: float) -> NodeStatus:
        """Compute a node's status, surfacing the edge to the observer."""
        status = state.status(now)
        if status is not state.last_status:
            self._epoch += 1
            state.status_epoch = self._epoch
            if self._on_transition is not None:
                self._on_transition(state.node_id, state.last_status, status, now)
            for listener in self._transition_listeners:
                listener(state.node_id, state.last_status, status, now)
            state.last_status = status
        return status

    def status_of(self, node_id: str, now: float) -> NodeStatus:
        """One node's status at ``now`` (:class:`NodeStatus.UNKNOWN` for
        ids never seen — query paths never raise, matching the open
        auto-registering monitor's semantics)."""
        state = self._nodes.get(node_id)
        if state is None:
            return NodeStatus.UNKNOWN
        return self._classify(state, now)

    def statuses(self, now: float) -> dict[str, NodeStatus]:
        """Snapshot every node's status at ``now``."""
        return {nid: self._classify(st, now) for nid, st in self._nodes.items()}

    def summary(self, now: float) -> dict[NodeStatus, int]:
        """Counts per status — the "guidance" the intro asks for."""
        out = {status: 0 for status in NodeStatus}
        for st in self._nodes.values():
            out[self._classify(st, now)] += 1
        return out

    def select(self, now: float, status: NodeStatus) -> list[str]:
        """Node ids currently in ``status`` (e.g. the ACTIVE servers a
        cloud user should be routed to)."""
        return [
            nid for nid, st in self._nodes.items()
            if self._classify(st, now) is status
        ]

    def expire(self, now: float, *, silent_for: float) -> list[str]:
        """Evict nodes whose last heartbeat is older than ``silent_for``.

        Long-dead entries would otherwise accumulate forever in an
        auto-registering table (churny clusters like PlanetLab register
        nodes that never come back).  Nodes that have not yet heartbeat at
        all are never expired here.  Returns the evicted ids (sorted).
        """
        if silent_for <= 0:
            raise ConfigurationError(
                f"silent_for must be > 0, got {silent_for!r}"
            )
        stale = sorted(
            nid
            for nid, st in self._nodes.items()
            if st.heartbeats > 0 and now - st.last_arrival > silent_for
        )
        for nid in stale:
            del self._nodes[nid]
        return stale
