"""Vectorized replay: equality with streaming detectors, engine semantics.

These are the anchor tests of the whole evaluation: every figure rests on
the vectorized engine producing the exact freshness points the streaming
reference implementations would.
"""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.core import SFD, SlotConfig
from repro.detectors import BertierFD, ChenFD, PhiFD
from repro.qos.spec import QoSRequirements
from repro.replay import (
    BertierSpec,
    ChenSpec,
    FixedSpec,
    PhiSpec,
    SFDSpec,
    bertier_freshness,
    chen_expected_arrivals,
    chen_freshness,
    phi_freshness,
    replay,
    sfd_freshness,
)
from repro.traces.trace import MonitorView

from conftest import regular_view, stream_freshness  # noqa: E402

REQ = QoSRequirements(
    max_detection_time=0.5, max_mistake_rate=0.5, min_query_accuracy=0.9
)


def assert_fp_equal(streamed: np.ndarray, vectorized: np.ndarray, atol=1e-9):
    """Vectorized must equal streaming wherever the latter is warmed up.

    (Before warm-up the vectorized functions expose partial-window values
    that the engine never accounts; streaming detectors refuse to answer.)
    """
    assert streamed.shape == vectorized.shape
    m = ~np.isnan(streamed)
    assert m.any()
    np.testing.assert_allclose(vectorized[m], streamed[m], rtol=0, atol=atol)


@pytest.fixture(scope="module")
def noisy_view(view_factory):
    return view_factory("jittered", n=3000, seed=42)


class TestChenEquivalence:
    @pytest.mark.parametrize("window", [5, 50, 333])
    @pytest.mark.parametrize("alpha", [0.0, 0.07])
    def test_matches_streaming(self, noisy_view, window, alpha):
        fps = stream_freshness(ChenFD(alpha, window_size=window), noisy_view)
        fpv = chen_freshness(noisy_view, alpha, window=window)
        assert_fp_equal(fps, fpv)

    def test_nominal_interval_variant(self, noisy_view):
        fps = stream_freshness(
            ChenFD(0.05, window_size=40, nominal_interval=0.1), noisy_view
        )
        fpv = chen_freshness(noisy_view, 0.05, window=40, nominal_interval=0.1)
        assert_fp_equal(fps, fpv)

    def test_expected_arrivals_on_regular_feed(self):
        view = regular_view(n=50, interval=0.1, delay=0.02)
        ea = chen_expected_arrivals(view, 10)
        # Prediction for the next heartbeat is exactly one interval ahead.
        np.testing.assert_allclose(
            ea[10:], view.arrivals[10:] + 0.1, rtol=0, atol=1e-9
        )
        assert math.isnan(ea[0])

    def test_validation(self, noisy_view):
        with pytest.raises(ConfigurationError):
            chen_freshness(noisy_view, -1.0)
        with pytest.raises(ConfigurationError):
            chen_expected_arrivals(noisy_view, 1)


class TestBertierEquivalence:
    @pytest.mark.parametrize("window", [5, 64, 500])
    def test_matches_streaming(self, noisy_view, window):
        fps = stream_freshness(BertierFD(window_size=window), noisy_view)
        fpv = bertier_freshness(noisy_view, window=window)
        assert_fp_equal(fps, fpv)

    def test_nondefault_gains(self, noisy_view):
        kw = dict(beta=0.8, phi=2.0, gamma=0.25, window_size=30)
        fps = stream_freshness(BertierFD(**kw), noisy_view)
        fpv = bertier_freshness(
            noisy_view, beta=0.8, phi=2.0, gamma=0.25, window=30
        )
        assert_fp_equal(fps, fpv)

    def test_gamma_validation(self, noisy_view):
        with pytest.raises(ConfigurationError):
            bertier_freshness(noisy_view, gamma=0.0)


class TestPhiEquivalence:
    @pytest.mark.parametrize("window", [5, 100])
    @pytest.mark.parametrize("threshold", [0.5, 2.0, 8.0, 16.0])
    def test_matches_streaming(self, noisy_view, window, threshold):
        fps = stream_freshness(
            PhiFD(threshold, window_size=window), noisy_view
        )
        fpv = phi_freshness(noisy_view, threshold, window=window)
        assert_fp_equal(fps, fpv)

    def test_beyond_cutoff_is_all_inf(self, noisy_view):
        fpv = phi_freshness(noisy_view, 18.0, window=50)
        assert np.isinf(fpv[1:]).all()

    def test_threshold_validation(self, noisy_view):
        with pytest.raises(ConfigurationError):
            phi_freshness(noisy_view, 0.0)


class TestSFDEquivalence:
    @pytest.mark.parametrize(
        "slot",
        [
            SlotConfig(50),
            SlotConfig(25, horizon=4),
            SlotConfig(25, reset_on_adjust=True, min_slots=3),
        ],
    )
    def test_matches_streaming(self, noisy_view, slot):
        kw = dict(sm1=0.01, alpha=0.1, beta=0.5)
        fd = SFD(REQ, window_size=40, slot=slot, **kw)
        fps = stream_freshness(fd, noisy_view)
        run = sfd_freshness(noisy_view, REQ, window=40, slot=slot, **kw)
        assert_fp_equal(fps, run.freshness, atol=1e-8)
        assert run.final_margin == pytest.approx(fd.safety_margin)
        assert run.status == fd.status
        assert len(run.trace) == len(fd.tuning_trace)
        for a, b in zip(fd.tuning_trace, run.trace):
            assert a.decision == b.decision
            assert a.qos.mistakes == b.qos.mistakes
            assert a.qos.mistake_time == pytest.approx(b.qos.mistake_time)
            assert a.sm_after == pytest.approx(b.sm_after)

    def test_requires_enough_heartbeats(self):
        view = regular_view(n=20)
        with pytest.raises(ConfigurationError):
            sfd_freshness(view, REQ, window=50)


class TestReplayEngine:
    def test_all_specs_produce_reports(self, noisy_view):
        specs = [
            ChenSpec(alpha=0.05, window=50),
            BertierSpec(window=50),
            PhiSpec(threshold=3.0, window=50),
            FixedSpec(timeout=0.3),
            SFDSpec(requirements=REQ, sm1=0.05, window=50, slot=SlotConfig(50)),
        ]
        for spec in specs:
            res = replay(spec, noisy_view)
            assert res.detector == spec.detector
            assert res.qos.accounted_time > 0
            assert 0.0 <= res.qos.query_accuracy <= 1.0
            assert res.freshness.shape == (len(noisy_view),)

    def test_accepts_trace_directly(self, trace_factory):
        trace = trace_factory("jittered", n=2000, seed=9)
        res = replay(ChenSpec(alpha=0.05, window=50), trace)
        assert res.qos.samples > 0

    def test_warmup_index_matches_window(self, noisy_view):
        res = replay(ChenSpec(alpha=0.05, window=77), noisy_view)
        assert res.warmup_index == 76
        assert np.isfinite(res.freshness[76:]).all()

    def test_sfd_result_carries_tuning(self, noisy_view):
        res = replay(
            SFDSpec(requirements=REQ, sm1=0.01, window=50, slot=SlotConfig(25)),
            noisy_view,
        )
        assert res.final_margin is not None
        assert res.status is not None
        assert isinstance(res.tuning, list)

    def test_larger_margin_means_fewer_mistakes_longer_td(self, noisy_view):
        lo = replay(ChenSpec(alpha=0.005, window=50), noisy_view).qos
        hi = replay(ChenSpec(alpha=0.5, window=50), noisy_view).qos
        assert hi.detection_time > lo.detection_time
        assert hi.mistake_rate <= lo.mistake_rate
        assert hi.query_accuracy >= lo.query_accuracy

    def test_short_view_rejected(self):
        view = regular_view(n=10)
        with pytest.raises(ConfigurationError):
            replay(ChenSpec(alpha=0.1, window=50), view)

    def test_rejects_foreign_source(self):
        with pytest.raises(ConfigurationError):
            replay(ChenSpec(alpha=0.1, window=5), source=[1, 2, 3])

    def test_phi_inf_threshold_yields_inf_td_and_no_mistakes(self, noisy_view):
        res = replay(PhiSpec(threshold=18.0, window=50), noisy_view)
        assert math.isinf(res.qos.detection_time)
        assert res.qos.mistakes == 0

    def test_qos_consistent_with_manual_accounting(self):
        """Engine accounting == hand-computed accounting on a tiny case."""
        view = regular_view(n=8, interval=1.0, delay=0.1)
        # Make heartbeat 5 late by 2s: rebuild the view by hand.
        arr = view.arrivals.copy()
        arr[5] += 2.0
        view2 = MonitorView(seq=view.seq, arrivals=arr, send_times=view.send_times)
        res = replay(FixedSpec(timeout=1.5), view2)
        # Guard after hb 4 is arr[4]+1.5 = 5.6; hb 5 arrives at 7.1 -> one
        # mistake of 1.5 s.  Accounted period = [arr[1], arr[7]].
        assert res.qos.mistakes == 1
        assert res.qos.mistake_time == pytest.approx(1.5)
        period = arr[-1] - arr[1]
        assert res.qos.mistake_rate == pytest.approx(1.0 / period)
        assert res.qos.query_accuracy == pytest.approx(1.0 - 1.5 / period)
        # TD samples: FP - send = (arr + 1.5) - send.
        exp_td = np.mean(arr[1:] + 1.5 - view.send_times[1:])
        assert res.qos.detection_time == pytest.approx(exp_td)


class TestQuantileEquivalence:
    @pytest.mark.parametrize("window", [5, 60])
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.999, 1.0])
    def test_matches_streaming(self, noisy_view, window, q):
        from repro.detectors import QuantileFD
        from repro.replay import quantile_freshness

        fps = stream_freshness(QuantileFD(q, window_size=window), noisy_view)
        fpv = quantile_freshness(noisy_view, q, window=window)
        # One shared sorted-window core: exact, not merely close.
        m = ~np.isnan(fps)
        assert m.any()
        np.testing.assert_array_equal(fpv[m], fps[m])

    def test_engine_spec(self, noisy_view):
        from repro.replay import QuantileSpec

        res = replay(QuantileSpec(quantile=0.99, window=50), noisy_view)
        assert res.detector == "quantile"
        assert res.qos.accounted_time > 0

    def test_validation(self, noisy_view):
        from repro.replay import quantile_freshness

        with pytest.raises(ConfigurationError):
            quantile_freshness(noisy_view, 0.0)


class TestSFDSpecVariants:
    def test_nominal_interval_path(self, noisy_view):
        res = replay(
            SFDSpec(
                requirements=REQ,
                sm1=0.05,
                window=50,
                nominal_interval=0.1,
                slot=SlotConfig(50),
            ),
            noisy_view,
        )
        assert res.qos.samples > 0

    def test_raise_policy_propagates(self, noisy_view):
        from repro.core import InfeasiblePolicy
        from repro.errors import InfeasibleQoSError

        impossible = QoSRequirements(
            max_detection_time=1e-4, max_mistake_rate=1e-12
        )
        with pytest.raises(InfeasibleQoSError):
            replay(
                SFDSpec(
                    requirements=impossible,
                    sm1=0.5,
                    window=50,
                    slot=SlotConfig(25),
                    policy=InfeasiblePolicy.RAISE,
                ),
                noisy_view,
            )

    def test_horizon_with_reset_combination(self, noisy_view):
        slot = SlotConfig(25, horizon=3, reset_on_adjust=True, min_slots=2)
        res = replay(
            SFDSpec(requirements=REQ, sm1=0.02, window=50, slot=slot),
            noisy_view,
        )
        assert res.final_margin is not None
        # Cross-check against streaming with the identical combined policy.
        fd = SFD(REQ, sm1=0.02, alpha=0.1, beta=0.5, window_size=50, slot=slot)
        fps = stream_freshness(fd, noisy_view)
        m = ~np.isnan(fps)
        np.testing.assert_allclose(
            res.freshness[m], fps[m], rtol=0, atol=1e-8
        )
        assert fd.safety_margin == pytest.approx(res.final_margin)
