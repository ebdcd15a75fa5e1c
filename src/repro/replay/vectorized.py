"""Closed-form vectorized freshness-point computations.

Each function maps a :class:`~repro.traces.trace.MonitorView` (arrival
times + sequence numbers of the received heartbeats) to the array of
freshness points ``FP[r]`` the corresponding streaming detector would
produce — the value fixed after heartbeat ``r`` arrives, guarding the gap
until the next arrival.

Key identities used (derivations in the docstrings):

* Chen's Eq. (2) over a window reduces to
  ``EA = mean(A) + Δ·(s_next − mean(s))`` — two sliding means, computed by
  cumulative sums on *origin-shifted* values to avoid catastrophic
  cancellation on long traces.
* Bertier's Eqs. (5-6) are first-order linear recurrences
  ``y_k = (1−γ)·y_{k−1} + γ·u_k``, solved in one pass each by
  :func:`scipy.signal.lfilter`.
* The φ threshold inverts to a *scalar* normal quantile:
  ``FP = A + μ + σ·ndtri(1 − 10^{−Φ})`` — the float64 rounding cutoff at
  ``Φ ≳ 15.95`` (``1 − 10^{−Φ} == 1.0``) is deliberately preserved, as the
  paper leans on it ("rounding errors prevent computing points in the
  conservative range").
* SFD's margin changes only at slot boundaries, so its replay is a loop
  over ~(heartbeats/slot) slots with vectorized work inside each.
* A sliding quantile has no closed form: the quantile kernel runs the
  streaming detector's sorted-window core over the inter-arrivals, as
  the ``ml`` kernel runs its NLMS core.  Neither sequential core depends
  on the swept value, so each has a ``*_grid`` form serving a whole sweep
  grid from one pass; the per-point function is its one-value case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter
from scipy.special import ndtri

from repro.errors import ConfigurationError
from repro.core.feedback import (
    FeedbackController,
    FeedbackDriver,
    InfeasiblePolicy,
    SlotConfig,
    TuningRecord,
    TuningStatus,
)
from repro.detectors.ml import ML_JITTER_FLOOR, OnlineArrivalPredictor
from repro.detectors.phi import SIGMA_FLOOR
from repro.detectors.window import SortedWindow
from repro.qos.spec import QoSRequirements, Satisfaction
from repro.traces.trace import MonitorView

__all__ = [
    "chen_expected_arrivals",
    "chen_freshness",
    "bertier_freshness",
    "phi_freshness",
    "quantile_freshness",
    "quantile_freshness_grid",
    "fixed_freshness",
    "ml_freshness",
    "ml_freshness_grid",
    "sfd_freshness",
]


def _require_view(view: MonitorView, minimum: int) -> None:
    if len(view) < minimum:
        raise ConfigurationError(
            f"monitor view has {len(view)} heartbeats, need >= {minimum}"
        )


def _trailing(x: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Sliding sums ``s[r] = Σ x[max(0, r−w+1) .. r]`` and window counts."""
    c = np.empty(x.size + 1, dtype=np.float64)
    c[0] = 0.0
    np.cumsum(x, out=c[1:])
    idx = np.arange(x.size)
    lo = np.maximum(idx - w + 1, 0)
    return c[idx + 1] - c[lo], (idx - lo + 1).astype(np.float64)


def chen_expected_arrivals(
    view: MonitorView,
    window: int,
    nominal_interval: float | None = None,
) -> np.ndarray:
    """``EA[r]``: Chen's prediction for the heartbeat after received index r.

    Matches :class:`~repro.detectors.estimation.ChenEstimator` over the
    (possibly still-filling) window ending at ``r``; ``EA[0]`` is NaN (a
    single sample predicts nothing).
    """
    _require_view(view, 2)
    if window < 2:
        raise ConfigurationError(f"window must be >= 2, got {window!r}")
    arrivals = view.arrivals
    seq = view.seq.astype(np.float64)
    # Origin-shift to keep cumulative sums small (cancellation control).
    a0, s0 = arrivals[0], seq[0]
    rel_a = arrivals - a0
    rel_s = seq - s0
    sum_a, cnt = _trailing(rel_a, window)
    sum_s, _ = _trailing(rel_s, window)
    mean_a = sum_a / cnt + a0
    mean_s = sum_s / cnt + s0
    idx = np.arange(arrivals.size)
    lo = np.maximum(idx - window + 1, 0)
    if nominal_interval is not None:
        delta = np.full(arrivals.size, float(nominal_interval))
    else:
        span_a = arrivals - arrivals[lo]
        span_s = seq - seq[lo]
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = span_a / span_s
    ea = mean_a + delta * (seq + 1.0 - mean_s)
    ea[0] = np.nan
    return ea


def chen_freshness(
    view: MonitorView,
    alpha: float,
    *,
    window: int = 1000,
    nominal_interval: float | None = None,
) -> np.ndarray:
    """Chen FD freshness points: ``FP[r] = EA[r] + α`` (Eq. 3)."""
    if alpha < 0:
        raise ConfigurationError(f"alpha must be >= 0, got {alpha!r}")
    return chen_expected_arrivals(view, window, nominal_interval) + float(alpha)


def bertier_freshness(
    view: MonitorView,
    *,
    beta: float = 1.0,
    phi: float = 4.0,
    gamma: float = 0.1,
    window: int = 1000,
    nominal_interval: float | None = None,
) -> np.ndarray:
    """Bertier FD freshness points (Eqs. 4-8) via two ``lfilter`` passes.

    The EWMA recurrences ``delay_k = (1−γ)delay_{k−1} + γ e_k`` and
    ``var_k = (1−γ)var_{k−1} + γ|e_k − delay_{k−1}|`` are linear constant-
    coefficient filters; ``lfilter([γ], [1, −(1−γ)], u)`` solves each in a
    single C pass.  Error samples start at received index 2 (the first
    prediction needs two samples), matching the streaming detector.
    """
    _require_view(view, 3)
    if not (0.0 < gamma <= 1.0):
        raise ConfigurationError(f"gamma must lie in (0, 1], got {gamma!r}")
    arrivals = view.arrivals
    seq = view.seq
    ea = chen_expected_arrivals(view, window, nominal_interval)
    # Raw error of the prediction made at r−1 for the heartbeat received at
    # r, shifted by any loss gap at the estimated interval (see
    # BertierFD._ingest).
    idx = np.arange(arrivals.size)
    lo = np.maximum(idx - window + 1, 0)
    if nominal_interval is not None:
        delta = np.full(arrivals.size, float(nominal_interval))
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = (arrivals - arrivals[lo]) / (seq - seq[lo]).astype(np.float64)
    gaps = (seq[1:] - seq[:-1] - 1).astype(np.float64)
    e = arrivals[1:] - (ea[:-1] + gaps * delta[:-1])  # e[j] ~ heartbeat j+1
    e = e[1:]  # first usable error is for received index 2
    b, a = [gamma], [1.0, -(1.0 - gamma)]
    delay = lfilter(b, a, e)
    delay_prev = np.empty_like(delay)
    delay_prev[0] = 0.0
    delay_prev[1:] = delay[:-1]
    var = lfilter(b, a, np.abs(e - delay_prev))
    margin = np.zeros(arrivals.size, dtype=np.float64)
    margin[2:] = beta * delay + phi * var
    fp = ea + margin
    return fp


def phi_freshness(
    view: MonitorView,
    threshold: float,
    *,
    window: int = 1000,
) -> np.ndarray:
    """φ FD equivalent freshness points.

    ``φ(t) > Φ ⟺ t > A_r + μ_r + σ_r·ndtri(1 − 10^{−Φ})``; μ/σ are the
    windowed inter-arrival moments after heartbeat ``r`` (population
    variance, like :class:`~repro.detectors.window.SampleWindow`).
    Returns all-``inf`` beyond the float64 threshold cutoff.
    """
    _require_view(view, 2)
    if threshold <= 0:
        raise ConfigurationError(f"threshold must be > 0, got {threshold!r}")
    arrivals = view.arrivals
    n = arrivals.size
    fp = np.full(n, np.nan, dtype=np.float64)
    p = 1.0 - 10.0 ** (-float(threshold))
    if p >= 1.0:
        # Paper-faithful conservative-range cutoff.
        fp[1:] = np.inf
        return fp
    z = float(ndtri(p))
    x = np.diff(arrivals)  # x[j] = inter-arrival ending at heartbeat j+1
    sum_x, cnt = _trailing(x, window)
    sum_x2, _ = _trailing(x * x, window)
    mean = sum_x / cnt
    var = sum_x2 / cnt - mean * mean
    sigma = np.sqrt(np.maximum(var, 0.0))
    np.maximum(sigma, SIGMA_FLOOR, out=sigma)
    fp[1:] = arrivals[1:] + mean + sigma * z
    return fp


def quantile_freshness(
    view: MonitorView,
    quantile: float,
    *,
    window: int = 1000,
) -> np.ndarray:
    """Quantile-timeout FD freshness points (the [34-35] family).

    ``FP[r] = A_r + Quantile_q(trailing inter-arrivals)``, the window
    holding the last ``min(r, window)`` gaps.  The one-value case of
    :func:`quantile_freshness_grid`.  Index 0 is NaN (no gap yet).
    """
    return quantile_freshness_grid(view, (quantile,), window=window)[0]


def quantile_freshness_grid(
    view: MonitorView,
    quantiles,
    *,
    window: int = 1000,
) -> list[np.ndarray]:
    """:func:`quantile_freshness` for every ``q`` of a grid, in one pass.

    Sliding quantiles have no closed form, so this runs the streaming
    detector's own sorted-window core
    (:class:`~repro.detectors.window.SortedWindow`) over
    ``np.diff(arrivals)`` — O(log window) search per heartbeat and
    bit-identical to :class:`~repro.detectors.quantile.QuantileFD` by
    construction.  The window's contents do not depend on ``q``, so one
    pass pushes each gap once and then looks up every ``q``; the arrays
    come back in grid order.
    """
    _require_view(view, 2)
    qs = [float(q) for q in quantiles]
    for q in qs:
        if not (0.0 < q <= 1.0):
            raise ConfigurationError(f"quantile must lie in (0, 1], got {q!r}")
    arrivals = view.arrivals
    core = SortedWindow(window)
    push = core.push
    order_stat = core.quantile
    timeouts: list[list[float]] = [[math.nan] for _ in qs]  # index 0: no gap
    lookups = [(timeout.append, q) for timeout, q in zip(timeouts, qs)]
    for gap in np.diff(arrivals).tolist():
        push(gap)
        for record, q in lookups:
            record(order_stat(q))
    return [arrivals + np.array(timeout) for timeout in timeouts]


def fixed_freshness(view: MonitorView, timeout: float) -> np.ndarray:
    """Fixed-timeout baseline freshness points: ``FP[r] = A_r + timeout``.

    The static freshness interval of Section II-B — no estimator, so every
    received heartbeat (including the first) fixes a point.
    """
    _require_view(view, 2)
    if timeout <= 0:
        raise ConfigurationError(f"timeout must be > 0, got {timeout!r}")
    fp = np.full(view.arrivals.size, np.nan)
    fp[1:] = view.arrivals[1:] + float(timeout)
    fp[0] = view.arrivals[0] + float(timeout)
    return fp


def ml_freshness(
    view: MonitorView,
    margin: float,
    *,
    lr: float = 0.05,
    window: int = 16,
    decay: float = 0.1,
) -> np.ndarray:
    """ML FD freshness points: ``FP[r] = A_r + ŷ_r + margin·(jitter_r+floor)``.

    The one-value case of :func:`ml_freshness_grid`.
    """
    return ml_freshness_grid(view, (margin,), lr=lr, window=window, decay=decay)[0]


def ml_freshness_grid(
    view: MonitorView,
    margins,
    *,
    lr: float = 0.05,
    window: int = 16,
    decay: float = 0.1,
) -> list[np.ndarray]:
    """:func:`ml_freshness` for every margin of a grid, in one pass.

    Runs the *same* sequential NLMS core the streaming
    :class:`~repro.detectors.ml.MLFD` uses
    (:class:`~repro.detectors.ml.OnlineArrivalPredictor`) over
    ``np.diff(arrivals)``, so the prediction ``ŷ_r`` and jitter scale
    after heartbeat ``r`` are bit-identical to the streaming model's
    state by construction — the learned recursion has no closed form to
    vectorize, exactly as SFD's feedback loop doesn't.  Both arrays are
    margin-independent, so the pass runs once and each margin costs one
    elementwise expression, which matches the streaming detector's
    ``deadline`` arithmetic operation for operation (same addends, same
    rounding).  Index 0 is NaN (no gap yet); arrays come back in grid
    order.
    """
    values = [float(m) for m in margins]
    for m in values:
        if m < 0:
            raise ConfigurationError(f"margin must be >= 0, got {m!r}")
    _require_view(view, 2)
    arrivals = view.arrivals
    n = arrivals.size
    pred = np.full(n, np.nan, dtype=np.float64)
    jit = np.full(n, np.nan, dtype=np.float64)
    predictor = OnlineArrivalPredictor(lr=lr, window=window, decay=decay)
    gaps = np.diff(arrivals)
    update = predictor.update
    predict = predictor.predict
    for j in range(1, n):
        update(gaps[j - 1])
        pred[j] = predict()
        jit[j] = predictor.jitter
    jit += ML_JITTER_FLOOR
    return [arrivals + (pred + m * jit) for m in values]


@dataclass
class SFDReplay:
    """Outcome of a vectorized SFD replay.

    Attributes
    ----------
    freshness:
        ``FP[r]`` array aligned with the view (NaN before warm-up).
    final_margin:
        The tuned ``SM`` after the last slot.
    status:
        Feedback state at the end of the run.
    trace:
        Per-slot :class:`~repro.core.sfd.TuningRecord` history.
    """

    freshness: np.ndarray
    final_margin: float
    status: TuningStatus
    trace: list[TuningRecord] = field(default_factory=list)


def sfd_freshness(
    view: MonitorView,
    requirements: QoSRequirements,
    *,
    sm1: float | None = None,
    alpha: float = 0.1,
    beta: float = 0.5,
    window: int = 1000,
    nominal_interval: float | None = None,
    slot: SlotConfig | None = None,
    policy: InfeasiblePolicy = InfeasiblePolicy.STOP,
    sm_bounds: tuple[float, float] = (0.0, math.inf),
) -> SFDReplay:
    """SFD freshness points with the per-slot feedback of Eqs. (11-13).

    Semantics mirror :class:`repro.core.sfd.SFD` exactly: accounting starts
    at the warm-up boundary (received index ``window − 1``); the margin
    adjusts once every ``slot.heartbeats`` received heartbeats based on the
    *cumulative* measured QoS; detection-time samples use the sender
    timestamps carried by the trace.
    """
    slot = slot if slot is not None else SlotConfig()
    if sm1 is None:
        sm1 = alpha
    lo_b, hi_b = sm_bounds
    if not (0.0 <= lo_b <= hi_b):
        raise ConfigurationError(f"invalid sm_bounds {sm_bounds!r}")
    _require_view(view, window + 1)
    arrivals = view.arrivals
    sends = view.send_times
    n = arrivals.size
    r0 = window - 1  # first index with a full window (streaming `ready`)
    ea = chen_expected_arrivals(view, window, nominal_interval)
    base_td = ea - sends  # TD[r] = FP[r] − σ_r = (EA[r] − σ_r) + SM
    driver = FeedbackDriver(
        FeedbackController(requirements, alpha=alpha, beta=beta, policy=policy),
        slot,
    )
    sm = min(max(float(sm1), lo_b), hi_b)
    fp = np.full(n, np.nan, dtype=np.float64)
    records: list[TuningRecord] = []
    # Cumulative accounting scalars (mirror MistakeAccumulator): mistakes
    # are attributed to the *revealing* arrival (streaming discovers a late
    # heartbeat when it arrives), so a slot snapshot at arrival `stop−1`
    # has seen exactly the reveals with index <= stop−1.
    td_sum = 0.0
    td_count = 0
    mistakes = 0
    mistake_time = 0.0
    t_begin = float(arrivals[r0])
    slot_index = 0
    start = r0
    while start < n:
        stop = min(start + slot.heartbeats, n)  # segment [start, stop)
        seg = slice(start, stop)
        fp[seg] = ea[seg] + sm
        td_sum += float(np.sum(base_td[seg])) + sm * (stop - start)
        td_count += stop - start
        # Reveals in this segment: arrivals j in (start, stop) check the
        # guard fp[j−1] (possibly written with the previous slot's margin;
        # fp is filled progressively so that value is already final).  The
        # first segment's first reveal is r0+1.
        j0 = start + 1 if start == r0 else start
        if stop > j0:
            gap = arrivals[j0:stop] - np.maximum(
                fp[j0 - 1 : stop - 1], arrivals[j0 - 1 : stop - 1]
            )
            pos = gap > 0.0
            mistakes += int(np.count_nonzero(pos))
            mistake_time += float(np.sum(gap[pos]))
        if stop - start == slot.heartbeats:
            # Full slot completed: streaming adjusts at the arrival of the
            # slot's last heartbeat (index stop−1).
            now = float(arrivals[stop - 1])
            before = sm
            delta, snapshot = driver.end_slot(
                t_begin, now, mistakes, mistake_time, td_sum, td_count
            )
            slot_index += 1
            if snapshot is not None:
                sm = min(max(sm + delta, lo_b), hi_b)
                records.append(
                    TuningRecord(
                        slot=slot_index,
                        time=now,
                        sm_before=before,
                        sm_after=sm,
                        decision=driver.controller.last_decision
                        or Satisfaction.STABLE,
                        qos=snapshot,
                        status=driver.status,
                    )
                )
        start = stop
    return SFDReplay(
        freshness=fp,
        final_margin=sm,
        status=driver.status,
        trace=records,
    )
