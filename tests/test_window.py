"""Sliding sample windows: correctness of the O(1) running statistics
and of the sorted window's order statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, NotWarmedUpError
from repro.detectors.window import (
    RECOMPUTE_EVERY,
    HeartbeatWindow,
    SampleWindow,
    SortedWindow,
)


class TestSampleWindow:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            SampleWindow(0)

    def test_fill_and_eviction(self):
        w = SampleWindow(3)
        assert w.push(1.0) is None
        assert w.push(2.0) is None
        assert w.push(3.0) is None
        assert w.full
        assert w.push(4.0) == 1.0  # oldest pushed out (Section IV-C2)
        assert w.values().tolist() == [2.0, 3.0, 4.0]

    def test_mean_and_variance_match_numpy(self):
        rng = np.random.default_rng(0)
        w = SampleWindow(50)
        data = rng.normal(5.0, 2.0, size=500)
        for x in data:
            w.push(x)
        live = data[-50:]
        assert w.mean == pytest.approx(np.mean(live))
        assert w.variance == pytest.approx(np.var(live))
        assert w.std == pytest.approx(np.std(live))

    def test_single_sample_variance_zero(self):
        w = SampleWindow(10)
        w.push(3.0)
        assert w.variance == 0.0

    def test_empty_queries_raise(self):
        w = SampleWindow(4)
        with pytest.raises(NotWarmedUpError):
            _ = w.mean
        with pytest.raises(NotWarmedUpError):
            _ = w.variance

    def test_rejects_nonfinite(self):
        w = SampleWindow(4)
        with pytest.raises(ConfigurationError):
            w.push(float("nan"))

    def test_clear(self):
        w = SampleWindow(4)
        w.push(1.0)
        w.clear()
        assert len(w) == 0 and not w.full

    def test_values_order_before_full(self):
        w = SampleWindow(5)
        for x in (3.0, 1.0, 2.0):
            w.push(x)
        assert w.values().tolist() == [3.0, 1.0, 2.0]

    def test_periodic_sum_refresh_consistency(self):
        # Push past the refresh boundary and check stats stay exact.
        w = SampleWindow(8)
        rng = np.random.default_rng(1)
        data = rng.random(RECOMPUTE_EVERY + 20)
        for x in data:
            w.push(x)
        assert w.mean == pytest.approx(np.mean(data[-8:]))


QUANTILES = (1e-6, 0.5, 0.9, 0.99, 1.0)

# A small pool makes ties (and evicting one copy of a tied value) common;
# arbitrary finite floats cover everything else.
samples = st.one_of(
    st.sampled_from([0.0, 0.1, 0.1, 0.7, 1.0, 2.5]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestSortedWindow:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_quantile_equals_numpy_after_every_push(self, data):
        capacity = data.draw(st.integers(1, 8), label="capacity")
        values = data.draw(
            st.lists(samples, min_size=1, max_size=capacity + 12), label="values"
        )
        w = SortedWindow(capacity)
        for i, x in enumerate(values):
            w.push(x)
            live = np.array(values[max(0, i + 1 - capacity) : i + 1])
            assert len(w) == live.size
            for q in QUANTILES:
                assert w.quantile(q) == float(np.quantile(live, q))

    def test_gamma_one_half_takes_numpys_upper_branch(self):
        # (n−1)·q = 0.5 exactly: numpy interpolates back from the upper
        # neighbour, which rounds differently from a + (b−a)/2 here.
        w = SortedWindow(2)
        w.push(0.7)
        w.push(0.1)
        assert w.quantile(0.5) == float(np.quantile([0.7, 0.1], 0.5))
        assert w.quantile(0.5) != 0.1 + (0.7 - 0.1) * 0.5

    def test_evicting_a_duplicate_keeps_the_other_copy(self):
        w = SortedWindow(3)
        for x in (1.0, 1.0, 2.0, 3.0):  # the first 1.0 is evicted
            w.push(x)
        assert w.quantile(0.0) == 1.0
        w.push(4.0)  # the second 1.0 goes
        assert w.quantile(0.0) == 2.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_nonfinite(self, bad):
        w = SortedWindow(4)
        w.push(1.0)
        with pytest.raises(ConfigurationError):
            w.push(bad)
        assert len(w) == 1 and w.quantile(0.5) == 1.0

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            SortedWindow(0)

    def test_clear_empties_sorted_state(self):
        w = SortedWindow(3)
        for x in (5.0, 1.0, 3.0, 2.0):
            w.push(x)
        w.clear()
        assert len(w) == 0
        with pytest.raises(NotWarmedUpError):
            w.quantile(0.5)
        for x in (9.0, 7.0):
            w.push(x)
        assert w.quantile(0.0) == 7.0 and w.quantile(1.0) == 9.0


class TestHeartbeatWindow:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            HeartbeatWindow(1)

    def test_sequence_must_increase(self):
        w = HeartbeatWindow(4)
        w.push(0, 0.0)
        with pytest.raises(ConfigurationError):
            w.push(0, 1.0)

    def test_running_means(self):
        w = HeartbeatWindow(3)
        for s, a in [(0, 0.0), (1, 0.1), (3, 0.33), (4, 0.41)]:
            w.push(s, a)
        arrs, seqs = w.items()
        assert seqs.tolist() == [1, 3, 4]
        assert w.mean_arrival == pytest.approx(np.mean(arrs))
        assert w.mean_seq == pytest.approx(np.mean(seqs))

    def test_interval_estimate_robust_to_gaps(self):
        # Regular 0.1 s sending with every 3rd message lost: the estimate
        # must still be ~0.1 (gap-aware denominator).
        w = HeartbeatWindow(10)
        for s in range(0, 30):
            if s % 3 == 2:
                continue
            w.push(s, 0.1 * s + 0.02)
        assert w.interval_estimate() == pytest.approx(0.1)

    @pytest.mark.parametrize("capacity", [2, 3, 7, 16])
    def test_interval_estimate_matches_span_over_items(self, capacity):
        # The estimate reads the two ring endpoints directly; it must equal
        # the span formula over the materialized window at every fill
        # level, before and after the ring wraps, with sequence gaps.
        rng = np.random.default_rng(capacity)
        w = HeartbeatWindow(capacity)
        seq, t = 0, 0.0
        for _ in range(5 * capacity + 3):
            seq += int(rng.integers(1, 4))
            t += float(rng.uniform(0.05, 0.3))
            w.push(seq, t)
            if len(w) < 2:
                continue
            arrs, seqs = w.items()
            expected = float(arrs[-1] - arrs[0]) / int(seqs[-1] - seqs[0])
            assert w.interval_estimate() == expected

    def test_interval_estimate_needs_two(self):
        w = HeartbeatWindow(4)
        w.push(0, 0.0)
        with pytest.raises(NotWarmedUpError):
            w.interval_estimate()

    def test_last_accessors(self):
        w = HeartbeatWindow(4)
        with pytest.raises(NotWarmedUpError):
            _ = w.last_seq
        w.push(7, 1.5)
        assert w.last_seq == 7
        assert w.last_arrival == 1.5

    def test_eviction_updates_sums(self):
        w = HeartbeatWindow(2)
        w.push(0, 0.0)
        w.push(1, 0.1)
        w.push(2, 0.2)
        assert w.mean_arrival == pytest.approx(0.15)
        assert w.mean_seq == pytest.approx(1.5)

    def test_clear(self):
        w = HeartbeatWindow(3)
        w.push(0, 0.0)
        w.clear()
        assert len(w) == 0
        w.push(0, 5.0)  # sequence restriction resets too
        assert w.last_seq == 0
