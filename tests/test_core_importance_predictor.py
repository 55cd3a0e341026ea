"""Tests for Lemma-1 importance weights and the neighbor predictor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BetaSchedule,
    PAPER_NEIGHBOR_COUNTS,
    PAPER_THRESHOLDS,
    ThresholdNeighborPredictor,
    importance_weights,
)


class TestImportanceWeights:
    def test_uniform_probabilities_give_unit_weights(self):
        # P(i) = 1/N for all i -> (1/N * N)^beta = 1 before normalization
        probs = np.full(10, 1.0 / 100)
        w = importance_weights(probs, buffer_size=100, beta=1.0)
        np.testing.assert_allclose(w, 1.0)

    def test_beta_zero_gives_unit_weights(self, rng):
        probs = rng.uniform(0.001, 0.01, size=10)
        w = importance_weights(probs, buffer_size=100, beta=0.0)
        np.testing.assert_allclose(w, 1.0)

    def test_oversampled_index_downweighted(self):
        # index sampled 10x more often than uniform gets weight < 1
        probs = np.array([10.0 / 100, 1.0 / 100])
        w = importance_weights(probs, buffer_size=100, beta=1.0)
        assert w[0] < w[1]
        assert w[1] == pytest.approx(1.0)  # max-normalized

    def test_lemma1_formula_unnormalized(self):
        # w_i = (1/N * 1/P)^beta exactly
        w = importance_weights(
            np.array([0.05]), buffer_size=10, beta=0.5, normalize=False
        )
        assert w[0] == pytest.approx((1.0 / (10 * 0.05)) ** 0.5)

    def test_normalized_max_is_one(self, rng):
        probs = rng.uniform(0.001, 0.1, size=32)
        w = importance_weights(probs, buffer_size=500, beta=0.7)
        assert w.max() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            importance_weights(np.array([0.1]), buffer_size=0, beta=1.0)
        with pytest.raises(ValueError):
            importance_weights(np.array([0.1]), buffer_size=10, beta=1.5)
        with pytest.raises(ValueError):
            importance_weights(np.array([0.0]), buffer_size=10, beta=1.0)
        with pytest.raises(ValueError):
            importance_weights(np.array([]), buffer_size=10, beta=1.0)

    @given(
        st.lists(st.floats(min_value=1e-4, max_value=0.5), min_size=1, max_size=20),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_weights_positive_and_bounded(self, probs, beta):
        w = importance_weights(np.array(probs), buffer_size=1000, beta=beta)
        assert np.all(w > 0)
        assert np.all(w <= 1.0 + 1e-12)

    def test_monotone_in_probability(self):
        """Higher sampling probability -> weakly lower weight."""
        probs = np.array([0.001, 0.01, 0.1])
        w = importance_weights(probs, buffer_size=100, beta=0.8)
        assert w[0] >= w[1] >= w[2]


class TestBetaSchedule:
    def test_starts_at_beta0(self):
        sched = BetaSchedule(beta0=0.4, total_steps=100)
        assert sched.value == pytest.approx(0.4)

    def test_linear_anneal_to_one(self):
        sched = BetaSchedule(beta0=0.4, total_steps=10)
        for _ in range(5):
            sched.step()
        assert sched.value == pytest.approx(0.7)
        for _ in range(10):
            sched.step()
        assert sched.value == pytest.approx(1.0)

    def test_clamped_at_one(self):
        sched = BetaSchedule(beta0=0.0, total_steps=1)
        for _ in range(100):
            sched.step()
        assert sched.value == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BetaSchedule(beta0=2.0)
        with pytest.raises(ValueError):
            BetaSchedule(total_steps=0)


class TestNeighborPredictor:
    def test_paper_constants(self):
        assert PAPER_THRESHOLDS == (0.33, 0.66)
        assert PAPER_NEIGHBOR_COUNTS == (1, 2, 4)

    def test_paper_bands(self):
        # §VI-C1: <0.33 -> 1 neighbor, 0.33-0.66 -> 2, >0.66 -> 4
        p = ThresholdNeighborPredictor()
        assert p.predict(0.1) == 1
        assert p.predict(0.5) == 2
        assert p.predict(0.9) == 4

    def test_boundary_values(self):
        p = ThresholdNeighborPredictor()
        assert p.predict(0.0) == 1
        assert p.predict(0.33) == 2  # at-threshold joins the upper band
        assert p.predict(0.66) == 4
        assert p.predict(1.0) == 4

    def test_predict_batch_matches_scalar(self, rng):
        p = ThresholdNeighborPredictor()
        priorities = rng.uniform(0, 1, size=100)
        batch = p.predict_batch(priorities)
        scalar = np.array([p.predict(x) for x in priorities])
        np.testing.assert_array_equal(batch, scalar)

    def test_out_of_range_raises(self):
        p = ThresholdNeighborPredictor()
        with pytest.raises(ValueError):
            p.predict(1.5)
        with pytest.raises(ValueError):
            p.predict_batch(np.array([-0.1]))

    def test_custom_bands(self):
        p = ThresholdNeighborPredictor(thresholds=(0.5,), counts=(8, 16))
        assert p.predict(0.4) == 8
        assert p.predict(0.6) == 16
        assert p.max_count == 16

    def test_construction_validation(self):
        with pytest.raises(ValueError, match="len"):
            ThresholdNeighborPredictor(thresholds=(0.5,), counts=(1,))
        with pytest.raises(ValueError, match="increasing"):
            ThresholdNeighborPredictor(thresholds=(0.6, 0.3), counts=(1, 2, 3))
        with pytest.raises(ValueError, match="positive"):
            ThresholdNeighborPredictor(thresholds=(0.5,), counts=(0, 1))
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            ThresholdNeighborPredictor(thresholds=(0.0, 0.5), counts=(1, 2, 3))

    def test_bands_description(self):
        bands = ThresholdNeighborPredictor().bands()
        assert bands == ((0.0, 0.33, 1), (0.33, 0.66, 2), (0.66, 1.0, 4))

    def test_mean_count(self):
        p = ThresholdNeighborPredictor()
        # all low priority -> mean 1
        assert p.mean_count(np.full(10, 0.1)) == pytest.approx(1.0)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_property_monotone_in_priority(self, priority):
        """Neighbor count is non-decreasing in priority."""
        p = ThresholdNeighborPredictor()
        higher = min(priority + 0.2, 1.0)
        assert p.predict(higher) >= p.predict(priority)
