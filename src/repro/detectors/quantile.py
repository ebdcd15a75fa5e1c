"""Quantile-timeout FD — the "self-tuned timeout" family of [34-35].

Section III credits Macedo's self-tuned connectivity indicator and
Felber's CORBA FD ("the self-tuned FDs in [34-35] use the statistics of
the previously-observed communication delays to continuously adjust
timeouts").  The canonical such scheme sets the timeout to an empirical
quantile of the recent inter-arrival distribution — fully nonparametric,
in contrast to φ's Gaussian model and Chen's mean-plus-margin:

    FP_r = A_r + Quantile_q( window of inter-arrival times )

``q`` is the sweep knob (aggressive near the median, conservative near 1),
and it is *bounded by the observed maximum*: unlike Chen's margin, this
family cannot be made more conservative than its own history — a
structural limitation the QoS-curve comparison makes visible.

The detector plugs into everything the others do: the replay engine
(:func:`repro.replay.vectorized.quantile_freshness`, which runs the same
:class:`~repro.detectors.window.SortedWindow` core), the sweep harness,
and the general self-tuning wrapper (``knob="quantile"``, monotone).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.detectors.base import TimeoutFailureDetector
from repro.detectors.window import SortedWindow

__all__ = ["QuantileFD"]


class QuantileFD(TimeoutFailureDetector):
    """Nonparametric self-tuned timeout detector.

    Parameters
    ----------
    quantile:
        Target quantile ``q ∈ (0, 1]`` of the windowed inter-arrival
        distribution (linear-interpolation estimator, numpy's default).
    window_size:
        Inter-arrival sampling window.

    Notes
    -----
    The window is kept sorted (:class:`~repro.detectors.window.SortedWindow`),
    so a heartbeat costs an O(log window) search plus a list memmove and a
    freshness point is an O(1) lookup — bit-identical to ``np.quantile``
    over the window, which would cost an O(window) selection each time.
    """

    name = "quantile"

    def __init__(self, quantile: float, *, window_size: int = 1000):
        if not (0.0 < quantile <= 1.0):
            raise ConfigurationError(
                f"quantile must lie in (0, 1], got {quantile!r}"
            )
        super().__init__(warmup=max(2, window_size))
        self.quantile = float(quantile)
        self._window = SortedWindow(window_size)
        self._prev_arrival: float | None = None

    @property
    def window_size(self) -> int:
        return self._window.capacity

    def _ingest(self, seq: int, arrival: float, send_time: float | None) -> None:
        if self._prev_arrival is not None:
            self._window.push(arrival - self._prev_arrival)
        self._prev_arrival = arrival

    def current_timeout(self) -> float:
        """The windowed ``q``-quantile (relative timeout).

        ``q`` is read on every call, so a self-tuning wrapper's
        ``setattr`` of ``quantile`` takes effect at the next heartbeat.
        """
        return self._window.quantile(self.quantile)

    def _next_freshness(self) -> float:
        return self.last_arrival + self.current_timeout()

    def reset(self) -> None:
        self._window.clear()
        self._observed = 0
        self._prev_arrival = None
