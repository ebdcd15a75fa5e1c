"""Streaming detectors: Chen, Bertier, phi, fixed — contracts and formulas."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotWarmedUpError
from repro.detectors import BertierFD, ChenFD, FixedTimeoutFD, PhiFD
from repro.detectors.estimation import GapFiller
from repro.detectors.phi import phi_equivalent_timeout, phi_value

from conftest import regular_view, stream_freshness


def feed_regular(fd, n=50, interval=0.1, delay=0.02):
    view = regular_view(n=n, interval=interval, delay=delay)
    for s, a, st in zip(view.seq, view.arrivals, view.send_times):
        fd.observe(int(s), float(a), float(st))
    return view


class TestWarmupContract:
    @pytest.mark.parametrize(
        "fd",
        [
            ChenFD(0.1, window_size=10),
            BertierFD(window_size=10),
            PhiFD(3.0, window_size=10),
        ],
    )
    def test_not_ready_before_window_fills(self, fd):
        feed_regular(fd, n=9)
        assert not fd.ready
        with pytest.raises(NotWarmedUpError):
            fd.freshness_point()

    @pytest.mark.parametrize(
        "fd",
        [
            ChenFD(0.1, window_size=10),
            BertierFD(window_size=10),
            PhiFD(3.0, window_size=10),
        ],
    )
    def test_ready_exactly_at_window(self, fd):
        feed_regular(fd, n=10)
        assert fd.ready
        assert math.isfinite(fd.freshness_point())

    def test_fixed_ready_after_two(self):
        fd = FixedTimeoutFD(0.5)
        feed_regular(fd, n=2)
        assert fd.ready


class TestChenFD:
    def test_freshness_is_ea_plus_alpha(self):
        fd = ChenFD(0.25, window_size=10)
        feed_regular(fd, n=20)
        assert fd.freshness_point() == pytest.approx(fd.expected_arrival() + 0.25)

    def test_alpha_monotonicity(self):
        fps = []
        for alpha in (0.0, 0.1, 0.5):
            fd = ChenFD(alpha, window_size=10)
            feed_regular(fd, n=20)
            fps.append(fd.freshness_point())
        assert fps[0] < fps[1] < fps[2]

    def test_regular_heartbeats_never_suspected(self):
        fd = ChenFD(0.05, window_size=10)
        view = feed_regular(fd, n=100)
        # Right after the last arrival the detector trusts.
        assert not fd.suspects(view.arrivals[-1])
        # Far past the freshness point it suspects.
        assert fd.suspects(view.arrivals[-1] + 10.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            ChenFD(-0.1)

    def test_suspicion_is_overdue_time(self):
        fd = ChenFD(0.1, window_size=10)
        feed_regular(fd, n=20)
        fp = fd.freshness_point()
        assert fd.suspicion(fp - 0.01) == 0.0
        assert fd.suspicion(fp + 0.5) == pytest.approx(0.5)

    def test_reset_reenters_warmup(self):
        fd = ChenFD(0.1, window_size=10)
        feed_regular(fd, n=20)
        fd.reset()
        assert not fd.ready


class TestBertierFD:
    def test_margin_grows_with_error_magnitude(self):
        calm = BertierFD(window_size=10)
        noisy = BertierFD(window_size=10)
        rng = np.random.default_rng(4)
        for i in range(60):
            calm.observe(i, 0.1 * i + 0.02)
            noisy.observe(i, 0.1 * i + 0.02 + float(rng.normal(0, 0.01)))
        assert noisy.margin > calm.margin

    def test_aggressive_vs_conservative_chen(self):
        """Bertier 'behaves as an aggressive failure detector' — its
        freshness point sits below a conservative Chen's on the same feed."""
        b = BertierFD(window_size=10)
        c = ChenFD(1.0, window_size=10)
        for fd in (b, c):
            feed_regular(fd, n=30)
        assert b.freshness_point() < c.freshness_point()

    def test_default_paper_gains(self):
        b = BertierFD()
        assert b._margin.beta == 1.0
        assert b._margin.phi == 4.0
        assert b._margin.gamma == 0.1

    def test_reset(self):
        fd = BertierFD(window_size=10)
        feed_regular(fd, n=20)
        fd.reset()
        assert not fd.ready and fd.margin == 0.0


class TestPhiFD:
    def test_phi_value_increases_with_elapsed(self):
        assert phi_value(0.3, 0.1, 0.02) > phi_value(0.2, 0.1, 0.02)

    def test_phi_value_at_mean_is_log10_2(self):
        # P_later(mu) = 0.5 -> phi = -log10(0.5).
        assert phi_value(0.1, 0.1, 0.02) == pytest.approx(math.log10(2.0))

    def test_equivalent_timeout_inverts_phi(self):
        mu, sigma, th = 0.1, 0.02, 4.0
        t = phi_equivalent_timeout(th, mu, sigma)
        assert phi_value(t, mu, sigma) == pytest.approx(th, rel=1e-9)

    def test_equivalent_timeout_monotone_in_threshold(self):
        ts = [phi_equivalent_timeout(th, 0.1, 0.02) for th in (1, 2, 4, 8)]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_rounding_cutoff_conservative_range(self):
        """The paper's 'rounding errors prevent computing points in the
        conservative range': past the float64 cutoff the equivalent
        timeout is infinite."""
        assert math.isfinite(phi_equivalent_timeout(16.0, 0.1, 0.02))
        assert math.isinf(phi_equivalent_timeout(17.0, 0.1, 0.02))
        assert math.isinf(phi_equivalent_timeout(20.0, 0.1, 0.02))

    def test_suspicion_is_phi_scale(self):
        fd = PhiFD(3.0, window_size=10)
        view = feed_regular(fd, n=30)
        now = view.arrivals[-1] + 0.1  # exactly one mean inter-arrival later
        assert fd.suspicion(now) == pytest.approx(math.log10(2.0), abs=0.2)

    def test_binary_threshold_is_phi_threshold(self):
        fd = PhiFD(3.0, window_size=10)
        feed_regular(fd, n=30)
        fp = fd.freshness_point()
        assert not fd.suspects(fp - 1e-4)
        assert fd.suspects(fp + 1e-3)

    def test_even_gap_filler_smooths_losses(self):
        """With losses, an evenly gap-filled window has smaller sigma than
        the raw window (one huge sample vs several regular-sized ones)."""
        raw = PhiFD(3.0, window_size=40)
        filled = PhiFD(3.0, window_size=40, gap_filler=GapFiller("even"))
        for fd in (raw, filled):
            for s in range(50):
                if 30 <= s < 35:
                    continue  # burst of 5 losses, still inside the window
                fd.observe(s, 0.1 * s + 0.02)
        _, sig_raw = raw.interarrival_stats()
        _, sig_filled = filled.interarrival_stats()
        assert sig_filled < sig_raw

    def test_series_gap_filler_keeps_mean_near_interval(self):
        """The paper's time-series fill keeps the windowed mean
        inter-arrival near the true sending interval despite losses."""
        filled = PhiFD(3.0, window_size=40, gap_filler=GapFiller("series"))
        for s in range(50):
            if 30 <= s < 35:
                continue
            filled.observe(s, 0.1 * s + 0.02)
        mu, _ = filled.interarrival_stats()
        assert mu == pytest.approx(0.1, rel=0.05)

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            PhiFD(0.0)
        with pytest.raises(ConfigurationError):
            phi_equivalent_timeout(-1.0, 0.1, 0.02)

    def test_phi_series_vectorized_matches_scalar(self):
        fd = PhiFD(3.0, window_size=10)
        view = feed_regular(fd, n=30)
        times = view.arrivals[-1] + np.array([0.05, 0.15, 0.3])
        series = fd.phi_series(times)
        for t, v in zip(times, series):
            assert v == pytest.approx(fd.suspicion(float(t)))

    def test_reset(self):
        fd = PhiFD(3.0, window_size=10)
        feed_regular(fd, n=30)
        fd.reset()
        assert not fd.ready


class TestFixedTimeoutFD:
    def test_constant_freshness_offset(self):
        fd = FixedTimeoutFD(0.5)
        view = feed_regular(fd, n=10)
        assert fd.freshness_point() == pytest.approx(view.arrivals[-1] + 0.5)
        assert fd.timeout() == pytest.approx(0.5)

    def test_timeout_validation(self):
        with pytest.raises(ConfigurationError):
            FixedTimeoutFD(0.0)

    def test_reset(self):
        fd = FixedTimeoutFD(0.5)
        feed_regular(fd, n=5)
        fd.reset()
        assert not fd.ready


class TestStreamHelper:
    def test_stream_freshness_marks_warmup_nan(self):
        view = regular_view(n=30)
        fps = stream_freshness(ChenFD(0.1, window_size=10), view)
        assert np.isnan(fps[:9]).all()
        assert np.isfinite(fps[9:]).all()


class TestQuantileFD:
    def test_timeout_is_window_quantile(self):
        from repro.detectors import QuantileFD

        fd = QuantileFD(0.9, window_size=10)
        feed_regular(fd, n=20)
        assert fd.current_timeout() == pytest.approx(0.1)
        assert fd.freshness_point() == pytest.approx(fd.last_arrival + 0.1)

    def test_quantile_monotonicity(self):
        from repro.detectors import QuantileFD

        rng = np.random.default_rng(5)
        fps = []
        for q in (0.5, 0.9, 0.999):
            fd = QuantileFD(q, window_size=20)
            t = 0.0
            for i in range(50):
                t += 0.1 + float(rng.random()) * 0.05
                fd.observe(i, t)
            fps.append(fd.freshness_point())
            rng = np.random.default_rng(5)  # same arrivals for each q
        assert fps[0] <= fps[1] <= fps[2]

    def test_conservative_reach_bounded_by_history(self):
        """Unlike Chen's margin, q -> 1 cannot exceed the observed maximum
        inter-arrival — the structural limit of the [34-35] family."""
        from repro.detectors import QuantileFD

        fd = QuantileFD(1.0, window_size=10)
        feed_regular(fd, n=20)
        assert fd.current_timeout() <= 0.1 + 1e-12

    def test_quantile_validation(self):
        from repro.detectors import QuantileFD

        with pytest.raises(ConfigurationError):
            QuantileFD(0.0)
        with pytest.raises(ConfigurationError):
            QuantileFD(1.5)

    def test_reset(self):
        from repro.detectors import QuantileFD

        fd = QuantileFD(0.9, window_size=10)
        feed_regular(fd, n=20)
        fd.reset()
        assert not fd.ready
        with pytest.raises(NotWarmedUpError):
            fd.current_timeout()
        # Only post-reset gaps count: the old 0.1 s history is gone.
        feed_regular(fd, n=3, interval=0.5)
        assert fd.current_timeout() == pytest.approx(0.5)

    def test_selftuned_quantile_reaches_next_timeout(self):
        """``SelfTuningMonitor(knob="quantile")`` sets the attribute; the
        very next timeout must be the window quantile at the new value."""
        from repro.core import SelfTuningMonitor, SlotConfig
        from repro.detectors import QuantileFD
        from repro.qos.spec import QoSRequirements

        window = 20
        fd = QuantileFD(0.5, window_size=window)
        mon = SelfTuningMonitor(
            fd,
            "quantile",
            QoSRequirements(max_mistake_rate=0.01, min_query_accuracy=0.999),
            alpha=0.2,
            slot=SlotConfig(10),
            knob_bounds=(0.01, 1.0),
        )
        rng = np.random.default_rng(3)
        gaps = 0.1 + rng.exponential(0.02, size=300)
        arrivals = np.cumsum(gaps)
        knobs = set()
        for i, a in enumerate(arrivals.tolist()):
            mon.observe(i, a)
            if not mon.ready:
                continue
            knobs.add(mon.knob_value)
            live = np.diff(arrivals[: i + 1])[-window:]
            assert fd.current_timeout() == float(np.quantile(live, mon.knob_value))
        assert len(knobs) > 1
