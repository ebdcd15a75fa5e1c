"""One-monitors-multiple: a membership table of per-node detectors.

A monitor hosting ``N`` independent detector instances — one per monitored
node — is the paper's "one monitors multiple" case ("based on the parallel
theory", Section VI): detector state is per-sender, so the extension is a
table, and SFD's small-window friendliness (Section V-C: "it is able to
get acceptable performance with very small window size, and it can save
valuable memory resources") is exactly what makes the table affordable at
PlanetLab scale.

At cluster scale queries arrive continuously and almost no node changes
status between them, so the table must not re-classify every node per
query.  Dobre et al.'s large-scale architecture (PAPERS.md) motivates the
shape: local detection units whose verdicts aggregate upward, which
requires the *evaluation* cost to track the number of transitions, not
the number of nodes.  :class:`ShardedMembershipTable` therefore keeps
heartbeat admission (reorder window, restart adoption, QoS mistake
accounting, observer hooks) per node, and drives classification from a
deadline wheel:

* Every accepted heartbeat classifies the node and (re)schedules its
  **next status boundary** on a per-shard deadline wheel — the absolute
  time at which the detector's suspicion level first reaches the next
  rung of the classification ladder, obtained from
  :meth:`~repro.detectors.base.FailureDetector.suspicion_eta`.
* A single :meth:`~ShardedMembershipTable.advance` pops only the *due*
  wheel buckets, re-checks exactly those nodes with the canonical
  ``NodeState.status(now)`` ladder, and emits transitions through one
  ``_classify`` choke point.
* ``statuses()`` / ``summary()`` / ``select()`` then read a maintained
  snapshot (insertion-ordered status dict, per-status counts, per-status
  index sets) instead of touching any detector.
* ``expire()`` pops a per-shard lazy min-heap keyed by last arrival
  instead of scanning the table.

The answers equal a full re-classification of every node at query time;
``tests/test_sharded.py`` pins that against a flat scan-everything oracle
for every detector family.  Correctness of the wheel does not depend on
``suspicion_eta`` being exact, only on it never being *later* than the
true crossing: scheduled nodes are re-classified with the canonical
ladder at pop time, so an early deadline merely costs one extra re-check.
Detectors that cannot invert their suspicion curve return ``-inf`` and
fall back to a per-shard "always re-check" set, degrading that shard to
scan cost without affecting the others.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable
from zlib import crc32

from repro.errors import (
    ConfigurationError,
    NotWarmedUpError,
    UnknownNodeError,
)
from repro.detectors.base import FailureDetector, TimeoutFailureDetector
from repro.cluster.membership import NodeState, NodeStatus
from repro.qos.metrics import MistakeAccumulator

__all__ = ["DeadlineWheel", "ShardedMembershipTable"]

#: Statuses that are terminal until the next heartbeat: no future time can
#: change them, so they carry no wheel deadline.
_TERMINAL = frozenset({NodeStatus.DEAD})

#: Detector classes whose classification outputs are the *unmodified*
#: linear-overdue ones of :class:`TimeoutFailureDetector` (suspicion is
#: ``max(0, now − FP)``, binary threshold 0, boundary = FP cached by
#: ``observe``).  For them the batch fast path can classify and re-arm
#: from the cached freshness point alone; any override of those methods
#: drops the class back to the generic path.
#:
#: The fused lane this enables stays because it was measured to win:
#: ``bench_cluster_scalability``'s 10k-node ``FixedTimeoutFD`` ingest
#: costs 1.3–2.0 µs/heartbeat with it and 2.4–3.5 µs/heartbeat through
#: the generic lane (3 interleaved runs each, best of 5 rounds, 2-vCPU
#: Xeon VM), against that bench's 2 µs budget.
_LINEAR_TIMEOUT: dict[type, bool] = {}


def _is_linear_timeout(cls: type) -> bool:
    return (
        issubclass(cls, TimeoutFailureDetector)
        and cls.observe is TimeoutFailureDetector.observe
        and cls.suspicion is TimeoutFailureDetector.suspicion
        and cls.suspicion_eta is TimeoutFailureDetector.suspicion_eta
        and cls.binary_threshold is FailureDetector.binary_threshold
    )


class DeadlineWheel:
    """Hashed timing wheel over absolute deadlines.

    Buckets are ``granularity``-wide half-open intervals addressed by
    integer key ``floor(due / granularity)``; a min-heap over bucket keys
    yields due buckets in order.  A node lives in at most one bucket
    (:meth:`schedule` moves it), so :meth:`due` pops each node at most
    once per call and the heap never accumulates stale per-node entries.

    Scheduling a node into a bucket whose start has already passed is
    legal — it simply pops on the *next* :meth:`due` call, which is what
    makes the conservative-early re-check loop terminate.
    """

    __slots__ = ("granularity", "_buckets", "_heap", "_pos")

    def __init__(self, granularity: float = 0.05):
        if not (granularity > 0.0) or not math.isfinite(granularity):
            raise ConfigurationError(
                f"granularity must be a positive finite number, "
                f"got {granularity!r}"
            )
        self.granularity = float(granularity)
        self._buckets: dict[int, set[str]] = {}
        self._heap: list[int] = []
        self._pos: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._pos)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._pos

    def schedule(self, node_id: str, due: float) -> None:
        """(Re)place ``node_id`` in the bucket covering ``due``.

        ``due == inf`` cancels the entry (the status is unreachable
        without a heartbeat, which reschedules on arrival anyway).
        """
        if due == math.inf:
            self.cancel(node_id)
            return
        key = math.floor(due / self.granularity)
        old = self._pos.get(node_id)
        if old == key:
            return
        if old is not None:
            self._buckets[old].discard(node_id)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = set()
            heapq.heappush(self._heap, key)
        bucket.add(node_id)
        self._pos[node_id] = key

    def cancel(self, node_id: str) -> None:
        key = self._pos.pop(node_id, None)
        if key is not None:
            self._buckets[key].discard(node_id)

    def due(self, now: float) -> list[str]:
        """Pop every node in a bucket whose start is at or before ``now``.

        Popped nodes are unscheduled; callers re-:meth:`schedule` the
        ones that still have a future boundary.  Because a bucket's start
        is never later than any deadline it holds, a node is always
        popped by the first call with ``now`` past its true deadline.
        """
        limit = math.floor(now / self.granularity)
        out: list[str] = []
        heap = self._heap
        while heap and heap[0] <= limit:
            key = heapq.heappop(heap)
            bucket = self._buckets.pop(key, None)
            if not bucket:
                continue  # emptied by moves, or a duplicate heap key
            pos = self._pos
            for nid in bucket:
                if pos.get(nid) == key:
                    del pos[nid]
                    out.append(nid)
        return out


class _Shard:
    """Per-shard scheduling state: deadline wheel + lazy expiry heap."""

    __slots__ = ("wheel", "always", "expiry", "expiry_la")

    def __init__(self, granularity: float):
        self.wheel = DeadlineWheel(granularity)
        #: Nodes whose detector cannot invert its suspicion curve
        #: (``suspicion_eta`` is ``-inf``): re-checked on every advance.
        self.always: set[str] = set()
        #: Min-heap of ``(last_arrival_at_push, node_id)``; at most one
        #: live entry per node (``expiry_la`` holds its key), refreshed
        #: lazily when popped with an out-of-date arrival.
        self.expiry: list[tuple[float, str]] = []
        self.expiry_la: dict[str, float] = {}


class ShardedMembershipTable:
    """Registry of monitored nodes, each with its own detector instance,
    with O(changed) query paths.

    Nodes are partitioned K ways (``crc32(node_id) % shards``, fixed at
    registration); each shard owns a deadline wheel and an expiry heap,
    and queries read a maintained status snapshot (module docstring).

    Parameters
    ----------
    detector_factory:
        Called as ``detector_factory(node_id)`` to build a fresh detector
        when a node is registered (or first heard from, when
        ``auto_register`` is set).  A registry spec string
        (``"phi:threshold=4.0,window=10"``) or replay spec object is also
        accepted and resolved via :mod:`repro.detectors.registry`.
    shards:
        Number of partitions.  Shards bound the wheel/heap sizes and give
        ``advance``/``expire`` natural units of work; they do not change
        semantics.
    granularity:
        Wheel bucket width in seconds.  Smaller buckets mean fewer
        early re-checks near a boundary; larger buckets mean fewer heap
        operations.  ~5% of the heartbeat interval is a good default.
    on_advance:
        Optional hook ``(popped, changed)`` fired after every
        :meth:`advance` — the observability layer's batch-granularity
        counter feed.
    auto_register:
        Accept heartbeats from unknown nodes by registering them on the
        fly (how a PlanetLab-style open monitor behaves).
    account_qos:
        Keep live QoS accounting per node (``NodeState.qos``).
    reorder_window:
        Sequence regressions up to this many numbers behind the newest are
        treated as transport reordering and dropped; regressions *beyond*
        it mean the sender restarted with a fresh counter, so its detector
        is reset instead (a crashed-and-restarted node must be re-adopted,
        not ignored forever).
    on_transition:
        Optional observer ``(node_id, old, new, now)`` fired whenever a
        node's classified status changes — on heartbeat arrival (recovery
        edges, so SUSPECT→ACTIVE is seen at arrival time), on
        :meth:`advance` and on every query path (suspicion edges).
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
        shards: int = 16,
        granularity: float = 0.05,
        on_advance: Callable[[int, int], None] | None = None,
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
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards!r}")
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
        self._epoch = 0
        self._nodes: dict[str, NodeState] = {}
        self._shard_list = [_Shard(granularity) for _ in range(int(shards))]
        self._shard_of: dict[str, _Shard] = {}
        self.on_advance = on_advance
        # Maintained snapshot.  `_statuses` preserves registration order,
        # so `statuses()` iterates nodes in the order they joined.
        self._statuses: dict[str, NodeStatus] = {}
        self._counts: dict[NodeStatus, int] = {s: 0 for s in NodeStatus}
        self._by_status: dict[NodeStatus, dict[str, None]] = {
            s: {} for s in NodeStatus
        }

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

    @property
    def epoch(self) -> int:
        """Table-wide status-transition counter (see ``status_epoch``)."""
        return self._epoch

    @property
    def shard_count(self) -> int:
        return len(self._shard_list)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    # ------------------------------------------------------------------ #
    # registration / removal keep the snapshot and shard map in sync
    # ------------------------------------------------------------------ #

    def register(self, node_id: str) -> NodeState:
        """Add a node explicitly; idempotent."""
        state = self._nodes.get(node_id)
        if state is None:
            state = NodeState(node_id=node_id, detector=self._factory(node_id))
            self._nodes[node_id] = state
            shard = self._shard_list[
                crc32(node_id.encode()) % len(self._shard_list)
            ]
            self._shard_of[node_id] = shard
            self._statuses[node_id] = NodeStatus.UNKNOWN
            self._counts[NodeStatus.UNKNOWN] += 1
            self._by_status[NodeStatus.UNKNOWN][node_id] = None
        return state

    def remove(self, node_id: str) -> None:
        if self._nodes.pop(node_id, None) is None:
            return
        shard = self._shard_of.pop(node_id)
        shard.wheel.cancel(node_id)
        shard.always.discard(node_id)
        shard.expiry_la.pop(node_id, None)  # heap entry goes stale; see expire()
        status = self._statuses.pop(node_id)
        self._counts[status] -= 1
        del self._by_status[status][node_id]

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

    # ------------------------------------------------------------------ #
    # classification choke point: observers, snapshot, rescheduling
    # ------------------------------------------------------------------ #

    def _classify(self, state: NodeState, now: float) -> NodeStatus:
        """Compute a node's status, surfacing the edge to the observers
        and the snapshot, and re-arm its wheel deadline."""
        status = state.status(now)
        old = state.last_status
        if status is not old:
            node_id = state.node_id
            self._epoch += 1
            state.status_epoch = self._epoch
            if self._on_transition is not None:
                self._on_transition(node_id, old, status, now)
            for listener in self._transition_listeners:
                listener(node_id, old, status, now)
            state.last_status = status
            self._counts[old] -= 1
            self._counts[status] += 1
            self._statuses[node_id] = status
            del self._by_status[old][node_id]
            self._by_status[status][node_id] = None
        self._reschedule(state)
        return status

    def _boundary(self, state: NodeState) -> float:
        """Absolute time of the node's next status change (``inf`` if
        unreachable without a heartbeat, ``-inf`` if not computable)."""
        det = state.detector
        if not det.ready or state.last_status in _TERMINAL:
            return math.inf
        threshold = det.binary_threshold()
        status = state.last_status
        try:
            if threshold <= 0.0:
                # Binary ladder: ACTIVE until just past the freshness
                # point, then SUSPECT terminally (until a heartbeat).
                if status is NodeStatus.SUSPECT:
                    return math.inf
                return det.suspicion_eta(0.0)
            if status is NodeStatus.SLOW:
                return det.suspicion_eta(threshold)
            if status is NodeStatus.SUSPECT:
                return det.suspicion_eta(2.0 * threshold)
            # ACTIVE — or UNKNOWN on the ready-but-unclassified edge.
            return det.suspicion_eta(0.5 * threshold)
        except (NotWarmedUpError, NotImplementedError):
            return -math.inf

    def _reschedule(self, state: NodeState) -> None:
        node_id = state.node_id
        shard = self._shard_of[node_id]
        due = self._boundary(state)
        if due == -math.inf:
            # Can't invert the suspicion curve: re-check this node on
            # every advance.
            shard.wheel.cancel(node_id)
            shard.always.add(node_id)
            return
        shard.always.discard(node_id)
        shard.wheel.schedule(node_id, due)

    # ------------------------------------------------------------------ #
    # ingest: admission, then accepted heartbeats arm the shard
    # ------------------------------------------------------------------ #

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
        # Classify at arrival: recovery edges (SUSPECT -> ACTIVE) surface
        # immediately, and the snapshot and wheel deadline stay current so
        # queries can skip untouched nodes.
        self._classify(state, arrival)
        shard = self._shard_of[node_id]
        if node_id not in shard.expiry_la:
            heapq.heappush(shard.expiry, (arrival, node_id))
            shard.expiry_la[node_id] = arrival
        return state

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

    def heartbeat_batch(
        self, batch: list[tuple[str, int, float, float | None]]
    ) -> int:
        """Feed a drained listener batch of ``(node_id, seq, arrival,
        send_time)`` tuples; returns the number of accepted (non-stale)
        heartbeats.  Semantically one :meth:`heartbeat` per tuple — the
        batched form exists so ingest layers can hand over a whole socket
        drain in one call.

        The common case at cluster scale — a known node sending the next
        in-order sequence and staying ACTIVE — touches no snapshot
        structure and emits no transition, so the layered ``heartbeat`` →
        ``_classify`` → ``_reschedule`` call chain is pure overhead for
        it.  This method fuses those layers for exactly that case
        (same state updates, same wheel re-arm, same expiry-heap entry)
        and routes everything else — unknown nodes, stale/restart
        sequences, non-ACTIVE nodes, QoS accounting — through
        :meth:`heartbeat`, keeping behaviour identical to it per tuple
        (proven by the batched parity tests).
        """
        accepted = 0
        account = self._account
        nodes = self._nodes
        shard_of = self._shard_of
        slow = self.heartbeat
        active = NodeStatus.ACTIVE
        neg_inf = -math.inf
        push = heapq.heappush
        lin_cache = _LINEAR_TIMEOUT
        for node_id, seq, arrival, send_time in batch:
            state = nodes.get(node_id)
            if (
                account
                or state is None
                or seq <= state.last_seq
                or state.last_status is not active
            ):
                before = state.heartbeats if state is not None else 0
                if slow(node_id, seq, arrival, send_time).heartbeats != before:
                    accepted += 1
                continue
            det = state.detector
            state.last_seq = seq
            state.last_arrival = arrival
            state.heartbeats += 1
            accepted += 1
            cls = det.__class__
            linear = lin_cache.get(cls)
            if linear is None:
                linear = lin_cache[cls] = _is_linear_timeout(cls)
            if linear:
                # Pure timeout detector, already warmed up (it was
                # ACTIVE): inline the base-class observe — the class
                # check above guarantees this is the code that would run
                # — and reuse the freshness point as the ACTIVE→SUSPECT
                # boundary.  No further detector calls needed.
                off = det.freshness_offset
                if off is not None:
                    # Constant-interval contract: _ingest is a no-op and
                    # FP is plain arithmetic — zero detector calls.
                    det._observed += 1
                    det._last_arrival = arrival
                    det._freshness = fp = arrival + off
                else:
                    # Base observe order: estimators may read the
                    # previous arrival inside _ingest.
                    det._ingest(seq, arrival, send_time)
                    det._observed += 1
                    det._last_arrival = arrival
                    det._freshness = fp = det._next_freshness()
                if arrival > fp:
                    # Already overdue at its own arrival (rare).
                    self._classify(state, arrival)
                    continue
                shard = shard_of[node_id]
                wheel = shard.wheel
                if fp >= 0.0:
                    # Inlined wheel.schedule (same bucket arithmetic) —
                    # but only when the deadline moved *earlier*.  An
                    # entry in an earlier bucket than the true deadline
                    # is conservative: `advance` pops it, re-checks, and
                    # re-arms at the real boundary.  Skipping the
                    # no-earlier case turns a per-heartbeat re-bucket
                    # into one early pop per timeout period.
                    key = int(fp / wheel.granularity)
                    pos = wheel._pos
                    old = pos.get(node_id)
                    if old is None or key < old:
                        buckets = wheel._buckets
                        if old is not None:
                            buckets[old].discard(node_id)
                        bucket = buckets.get(key)
                        if bucket is None:
                            bucket = buckets[key] = set()
                            push(wheel._heap, key)
                        bucket.add(node_id)
                        pos[node_id] = key
                else:  # pragma: no cover - negative clocks
                    wheel.schedule(node_id, fp)
                if node_id not in shard.expiry_la:
                    push(shard.expiry, (arrival, node_id))
                    shard.expiry_la[node_id] = arrival
                continue
            # Generic path: classify at arrival, fused with the
            # next-boundary lookup.
            det.observe(seq, arrival, send_time)
            threshold = det.binary_threshold()
            level = det.suspicion(arrival)
            if (
                level != 0.0
                if threshold <= 0.0
                else level >= 0.5 * threshold
            ):
                # Leaving ACTIVE right at arrival (rare): the canonical
                # choke point handles snapshot, observers, and re-arming.
                self._classify(state, arrival)
                continue
            try:
                due = det.suspicion_eta(
                    0.0 if threshold <= 0.0 else 0.5 * threshold
                )
            except (NotWarmedUpError, NotImplementedError):
                due = neg_inf
            shard = shard_of[node_id]
            if due == neg_inf:
                shard.wheel.cancel(node_id)
                shard.always.add(node_id)
            else:
                if shard.always:
                    shard.always.discard(node_id)
                shard.wheel.schedule(node_id, due)
            if node_id not in shard.expiry_la:
                push(shard.expiry, (arrival, node_id))
                shard.expiry_la[node_id] = arrival
        return accepted

    # ------------------------------------------------------------------ #
    # the O(changed) pump
    # ------------------------------------------------------------------ #

    def advance(self, now: float) -> int:
        """Re-classify exactly the nodes whose deadline has passed.

        Emits the same transitions (same node, edge, timestamp) a full
        re-classification of every node at ``now`` would; everything else
        is untouched.  Returns the number of status changes.
        """
        now = float(now)
        popped = 0
        changed = 0
        nodes = self._nodes
        active = NodeStatus.ACTIVE
        lin_cache = _LINEAR_TIMEOUT
        for shard in self._shard_list:
            wheel = shard.wheel
            due = wheel.due(now)
            n_wheel = len(due)
            if shard.always:
                due.extend(shard.always)
            for i, nid in enumerate(due):
                state = nodes.get(nid)
                if state is None:  # pragma: no cover - removed mid-batch
                    continue
                popped += 1
                if i < n_wheel and state.last_status is active:
                    # Early pop of a live pure-timeout node whose
                    # deadline moved later since it was bucketed (the
                    # batched fast path re-buckets lazily): it stays
                    # ACTIVE until its cached freshness point, so re-arm
                    # there without a re-classification.
                    det = state.detector
                    cls = det.__class__
                    linear = lin_cache.get(cls)
                    if linear is None:
                        linear = lin_cache[cls] = _is_linear_timeout(cls)
                    if linear:
                        fp = det._freshness
                        if fp is not None and fp > now:
                            wheel.schedule(nid, fp)
                            continue
                before = state.last_status
                # _classify updates the snapshot and re-arms the wheel;
                # re-arming into an already-popped bucket lands on the
                # *next* advance, so this loop cannot spin.
                if self._classify(state, now) is not before:
                    changed += 1
        if self.on_advance is not None:
            self.on_advance(popped, changed)
        return changed

    # ------------------------------------------------------------------ #
    # queries read the snapshot
    # ------------------------------------------------------------------ #

    def statuses(self, now: float) -> dict[str, NodeStatus]:
        """Snapshot every node's status at ``now``."""
        self.advance(now)
        return dict(self._statuses)

    def summary(self, now: float) -> dict[NodeStatus, int]:
        """Counts per status — the "guidance" the intro asks for."""
        self.advance(now)
        return dict(self._counts)

    def select(self, now: float, status: NodeStatus) -> list[str]:
        """Node ids currently in ``status``.

        Read from the per-status index set, so the cost is the size of
        the answer.  Order follows transition recency rather than
        registration order; callers that need an order should sort.
        """
        self.advance(now)
        return list(self._by_status[status])

    def status_of(self, node_id: str, now: float) -> NodeStatus:
        """One node's status at ``now`` (:class:`NodeStatus.UNKNOWN` for
        ids never seen — query paths never raise, matching the open
        auto-registering monitor's semantics).  Classifies that node
        alone, with no global advance, so a point query stays O(1)."""
        state = self._nodes.get(node_id)
        if state is None:
            return NodeStatus.UNKNOWN
        return self._classify(state, now)

    def expire(self, now: float, *, silent_for: float) -> list[str]:
        """Evict nodes silent for longer than ``silent_for``.

        Long-dead entries would otherwise accumulate forever in an
        auto-registering table (churny clusters like PlanetLab register
        nodes that never come back).  Pops the per-shard lazy heaps
        instead of scanning: an entry whose pushed arrival is out of date
        is refreshed and re-pushed, so each node is examined only when its
        *oldest known* arrival is past the horizon.  Evicts exactly the
        nodes with ``now - last_arrival > silent_for`` (nodes that have
        never heartbeat are exempt); returns the evicted ids sorted.
        """
        if silent_for <= 0:
            raise ConfigurationError(
                f"silent_for must be > 0, got {silent_for!r}"
            )
        stale: list[str] = []
        nodes = self._nodes
        for shard in self._shard_list:
            heap = shard.expiry
            live = shard.expiry_la
            while heap and now - heap[0][0] > silent_for:
                la, nid = heapq.heappop(heap)
                if live.get(nid) != la:
                    continue  # superseded entry of a removed/re-added node
                del live[nid]
                state = nodes.get(nid)
                if state is None:  # pragma: no cover - removed externally
                    continue
                if now - state.last_arrival > silent_for:
                    stale.append(nid)
                    self.remove(nid)
                else:
                    heapq.heappush(heap, (state.last_arrival, nid))
                    live[nid] = state.last_arrival
        stale.sort()
        return stale
