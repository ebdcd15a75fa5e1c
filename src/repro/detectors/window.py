"""Sliding sample windows backed by preallocated ring buffers.

Every adaptive detector in the paper keeps "the most recent n samples in a
sliding window" (Sections III and IV-C).  The windows here give O(1)
insertion and O(1) running mean/variance (maintained sums, not rescans), so
streaming detectors stay cheap even with the paper's WS = 1000 default, and
tiny windows — which Section V-C reports are *better* for Chen FD and SFD —
cost nothing.  :class:`SortedWindow` adds order statistics (the quantile
family) at O(log W) search per insertion.

Numerical note: running sums drift after ~1e7 float64 additions; the
windows recompute their sums from the buffer every ``RECOMPUTE_EVERY``
insertions to keep the error bounded without changing the O(1) amortized
cost.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort

import numpy as np

from repro.errors import ConfigurationError, NotWarmedUpError

__all__ = ["SampleWindow", "SortedWindow", "HeartbeatWindow"]

#: Refresh running sums from the raw buffer this often (amortized O(1)).
RECOMPUTE_EVERY = 65536


class SampleWindow:
    """Fixed-capacity sliding window over scalar samples.

    Maintains running first and second moments so ``mean``/``variance``
    are O(1).  Used for the φ FD's inter-arrival window and anywhere a
    plain recent-history statistic is needed.

    Parameters
    ----------
    capacity:
        Window size ``WS`` (number of retained samples), must be >= 1.
    """

    __slots__ = ("_buf", "_capacity", "_count", "_head", "_sum", "_sumsq", "_pushes")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(f"window capacity must be >= 1, got {capacity!r}")
        self._capacity = int(capacity)
        self._buf = np.zeros(self._capacity, dtype=np.float64)
        self._count = 0
        self._head = 0  # next write slot
        self._sum = 0.0
        self._sumsq = 0.0
        self._pushes = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        """True once the warm-up is over (window completely filled)."""
        return self._count == self._capacity

    def push(self, value: float) -> float | None:
        """Insert ``value``; return the evicted sample or ``None``.

        The oldest sample is pushed out once the window is full, exactly as
        described in Section IV-C2.
        """
        value = float(value)
        if not math.isfinite(value):
            raise ConfigurationError(f"window samples must be finite, got {value!r}")
        evicted: float | None = None
        if self.full:
            evicted = float(self._buf[self._head])
            self._sum -= evicted
            self._sumsq -= evicted * evicted
        else:
            self._count += 1
        self._buf[self._head] = value
        self._sum += value
        self._sumsq += value * value
        self._head = (self._head + 1) % self._capacity
        self._pushes += 1
        if self._pushes % RECOMPUTE_EVERY == 0:
            self._refresh_sums()
        return evicted

    def _refresh_sums(self) -> None:
        live = self.values()
        self._sum = float(np.sum(live))
        self._sumsq = float(np.dot(live, live))

    def values(self) -> np.ndarray:
        """Live samples in insertion order (copy)."""
        if self._count < self._capacity:
            return self._buf[: self._count].copy()
        return np.roll(self._buf, -self._head).copy()

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise NotWarmedUpError("window is empty")
        return self._sum / self._count

    @property
    def variance(self) -> float:
        """Population variance of the live samples (0 for a single sample)."""
        if self._count == 0:
            raise NotWarmedUpError("window is empty")
        m = self.mean
        v = self._sumsq / self._count - m * m
        return max(0.0, v)  # guard tiny negative round-off

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def clear(self) -> None:
        self._count = 0
        self._head = 0
        self._sum = 0.0
        self._sumsq = 0.0
        self._pushes = 0


class SortedWindow:
    """Fixed-capacity sliding window kept in sorted order.

    The order-statistic core of the ``quantile`` family, shared by the
    streaming :class:`~repro.detectors.quantile.QuantileFD` and the replay
    kernel :func:`~repro.replay.vectorized.quantile_freshness_grid`.  A ring of
    the last ``capacity`` samples records eviction order; a sorted list
    answers order statistics.  A push is a ``bisect`` insert plus, once
    full, a ``bisect_left`` + ``del`` of the oldest sample — O(log W)
    search and a W-word memmove, against the O(W) selection of
    ``np.quantile`` over the window.

    Parameters
    ----------
    capacity:
        Window size ``WS`` (number of retained samples), must be >= 1.
    """

    __slots__ = ("_ring", "_sorted", "_capacity", "_head")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(f"window capacity must be >= 1, got {capacity!r}")
        self._capacity = int(capacity)
        self._ring = [0.0] * self._capacity
        self._sorted: list[float] = []
        self._head = 0  # next write slot (the oldest sample once full)

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._sorted)

    def push(self, value: float) -> None:
        """Insert ``value``, evicting the oldest sample once full."""
        value = float(value)
        if not math.isfinite(value):
            raise ConfigurationError(f"window samples must be finite, got {value!r}")
        ordered = self._sorted
        head = self._head
        if len(ordered) == self._capacity:
            # Equal floats are interchangeable, so any copy of the evicted
            # value may go.
            del ordered[bisect_left(ordered, self._ring[head])]
        insort(ordered, value)
        self._ring[head] = value
        self._head = (head + 1) % self._capacity

    def quantile(self, q: float) -> float:
        """The ``q``-quantile of the live samples, equal to ``np.quantile``.

        Copies numpy's default ``linear`` method operation for operation
        (virtual index ``(n−1)·q``; its ``_lerp``, including the
        ``γ ≥ 0.5`` branch that interpolates back from the upper
        neighbour), so the result is bit-identical, not merely close.
        """
        ordered = self._sorted
        n = len(ordered)
        if n == 0:
            raise NotWarmedUpError("window is empty")
        virtual = (n - 1) * q
        if virtual >= n - 1:
            return ordered[-1]
        lo = math.floor(virtual)
        gamma = virtual - lo
        a = ordered[lo]
        b = ordered[lo + 1]
        diff = b - a
        if gamma >= 0.5:
            return b - diff * (1 - gamma)
        return a + diff * gamma

    def clear(self) -> None:
        self._sorted.clear()
        self._head = 0


class HeartbeatWindow:
    """Sliding window of received heartbeats ``(sequence, arrival time)``.

    This is the structure Chen's estimator (Eq. 2) consumes: it needs the
    recent arrival times *and* their sequence numbers (losses leave gaps),
    plus the windowed average sending interval ``Δt`` that the paper's SFD
    estimates from the sampling window (Section IV-C2).

    Running sums over arrivals and sequence numbers make Chen's EA a pure
    O(1) formula (see :class:`repro.detectors.estimation.ChenEstimator`).
    """

    __slots__ = (
        "_arr",
        "_seq",
        "_capacity",
        "_count",
        "_head",
        "_sum_arr",
        "_sum_seq",
        "_pushes",
        "_last_seq",
        "_last_arrival",
    )

    def __init__(self, capacity: int):
        if capacity < 2:
            raise ConfigurationError(
                f"heartbeat window capacity must be >= 2, got {capacity!r}"
            )
        self._capacity = int(capacity)
        self._arr = np.zeros(self._capacity, dtype=np.float64)
        self._seq = np.zeros(self._capacity, dtype=np.int64)
        self._count = 0
        self._head = 0
        self._sum_arr = 0.0
        self._sum_seq = 0
        self._pushes = 0
        self._last_seq: int | None = None
        self._last_arrival: float | None = None

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count == self._capacity

    @property
    def last_seq(self) -> int:
        if self._last_seq is None:
            raise NotWarmedUpError("no heartbeat observed yet")
        return self._last_seq

    @property
    def last_arrival(self) -> float:
        if self._last_arrival is None:
            raise NotWarmedUpError("no heartbeat observed yet")
        return self._last_arrival

    def push(self, seq: int, arrival: float) -> None:
        """Record the heartbeat with sequence ``seq`` arriving at ``arrival``.

        Sequence numbers must be strictly increasing; the replay layer
        orders out-of-order UDP deliveries before feeding detectors.
        """
        arrival = float(arrival)
        seq = int(seq)
        if not math.isfinite(arrival):
            raise ConfigurationError(f"arrival time must be finite, got {arrival!r}")
        if self._last_seq is not None and seq <= self._last_seq:
            raise ConfigurationError(
                f"heartbeat sequence must increase: got {seq} after {self._last_seq}"
            )
        if self.full:
            self._sum_arr -= float(self._arr[self._head])
            self._sum_seq -= int(self._seq[self._head])
        else:
            self._count += 1
        self._arr[self._head] = arrival
        self._seq[self._head] = seq
        self._sum_arr += arrival
        self._sum_seq += seq
        self._head = (self._head + 1) % self._capacity
        self._last_seq = seq
        self._last_arrival = arrival
        self._pushes += 1
        if self._pushes % RECOMPUTE_EVERY == 0:
            self._refresh_sums()

    def _refresh_sums(self) -> None:
        arrs, seqs = self.items()
        self._sum_arr = float(np.sum(arrs))
        self._sum_seq = int(np.sum(seqs))

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """(arrivals, sequences) of the live window, oldest first (copies)."""
        if self._count < self._capacity:
            return self._arr[: self._count].copy(), self._seq[: self._count].copy()
        return (
            np.roll(self._arr, -self._head).copy(),
            np.roll(self._seq, -self._head).copy(),
        )

    @property
    def mean_arrival(self) -> float:
        if self._count == 0:
            raise NotWarmedUpError("window is empty")
        return self._sum_arr / self._count

    @property
    def mean_seq(self) -> float:
        if self._count == 0:
            raise NotWarmedUpError("window is empty")
        return self._sum_seq / self._count

    def interval_estimate(self) -> float:
        """Windowed average sending interval ``Δt`` (Section IV-C2).

        Estimated as the arrival span divided by the sequence span, which
        is robust to losses (a gap of g lost heartbeats contributes g+1
        sequence steps and the matching arrival gap).
        """
        if self._count < 2:
            raise NotWarmedUpError("need >= 2 heartbeats to estimate the interval")
        # Only the endpoints matter: the oldest slot is the next write
        # slot once the ring is full (slot 0 before), the newest is cached.
        oldest = self._head if self._count == self._capacity else 0
        seq_span = self._last_seq - int(self._seq[oldest])
        if seq_span <= 0:
            raise NotWarmedUpError("degenerate sequence span")
        return (self._last_arrival - float(self._arr[oldest])) / seq_span

    def clear(self) -> None:
        self._count = 0
        self._head = 0
        self._sum_arr = 0.0
        self._sum_seq = 0
        self._pushes = 0
        self._last_seq = None
        self._last_arrival = None
