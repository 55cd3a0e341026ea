"""Tests for the statistical analysis toolkit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algos import MARLConfig
from repro.analysis import (
    MultiSeedResult,
    bootstrap_ratio_ci,
    compare_variants,
    mann_whitney_u,
    rank_biserial,
    run_seeds,
    summarize,
)
from repro.experiments import WorkloadSpec


class TestSummarize:
    def test_basic_stats(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.n == 5
        assert s.mean == pytest.approx(3.0)
        assert s.minimum == 1.0 and s.maximum == 5.0
        assert s.ci_low < 3.0 < s.ci_high

    def test_single_value(self):
        s = summarize([7.0])
        assert s.std == 0.0
        assert s.ci_low == s.ci_high == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_render(self):
        assert "CI" in summarize([1.0, 2.0]).render("s")

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_property_ci_contains_mean(self, values):
        s = summarize(values)
        assert s.ci_low <= s.mean <= s.ci_high
        assert s.minimum <= s.mean <= s.maximum


class TestBootstrap:
    def test_obvious_speedup_detected(self, rng):
        base = rng.normal(10.0, 0.5, 20)
        opt = rng.normal(5.0, 0.5, 20)
        lo, hi = bootstrap_ratio_ci(base, opt, rng)
        assert lo > 1.5 and hi < 2.5

    def test_no_difference_ci_straddles_one(self, rng):
        a = rng.normal(10.0, 1.0, 20)
        b = rng.normal(10.0, 1.0, 20)
        lo, hi = bootstrap_ratio_ci(a, b, rng)
        assert lo < 1.0 < hi

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            bootstrap_ratio_ci([], [1.0], rng)
        with pytest.raises(ValueError):
            bootstrap_ratio_ci([1.0], [-1.0], rng)
        with pytest.raises(ValueError):
            bootstrap_ratio_ci([1.0], [1.0], rng, confidence=1.5)


class TestMannWhitney:
    def test_disjoint_samples_significant(self):
        a = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0]
        b = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        _, p = mann_whitney_u(a, b)
        assert p < 0.01

    def test_identical_distributions_not_significant(self, rng):
        a = rng.normal(0, 1, 30)
        b = rng.normal(0, 1, 30)
        _, p = mann_whitney_u(a, b)
        assert p > 0.01

    def test_tie_handling(self):
        # all values identical: U = n1*n2/2, p = 1
        u, p = mann_whitney_u([5.0] * 6, [5.0] * 6)
        assert u == pytest.approx(18.0)
        assert p == pytest.approx(1.0)

    def test_symmetry(self, rng):
        a = rng.normal(0, 1, 10)
        b = rng.normal(1, 1, 10)
        _, p_ab = mann_whitney_u(a, b)
        _, p_ba = mann_whitney_u(b, a)
        assert p_ab == pytest.approx(p_ba, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])


class TestRankBiserial:
    def test_complete_dominance(self):
        assert rank_biserial([10, 11, 12], [1, 2, 3]) == pytest.approx(1.0)
        assert rank_biserial([1, 2, 3], [10, 11, 12]) == pytest.approx(-1.0)

    def test_no_effect_near_zero(self, rng):
        a = rng.normal(0, 1, 50)
        b = rng.normal(0, 1, 50)
        assert abs(rank_biserial(a, b)) < 0.3


def tiny_spec(variant: str, **engine) -> WorkloadSpec:
    return WorkloadSpec(
        algorithm="maddpg",
        env_name="cooperative_navigation",
        num_agents=2,
        variant=variant,
        episodes=3,
        config=MARLConfig(
            batch_size=16, buffer_capacity=256, update_every=10, **engine
        ),
    )


class TestMultiSeed:
    def test_run_seeds_collects_all(self):
        ms = run_seeds(tiny_spec("baseline"), seeds=[0, 1, 2])
        assert len(ms.results) == 3
        assert all(r.episodes == 3 for r in ms.results)

    def test_empty_seeds_raise(self):
        with pytest.raises(ValueError):
            run_seeds(tiny_spec("baseline"), seeds=[])

    def test_summaries(self):
        ms = run_seeds(tiny_spec("baseline"), seeds=[0, 1])
        assert ms.time_summary().n == 2
        assert ms.reward_summary(window=2).n == 2
        assert len(ms.total_seconds()) == 2
        assert len(ms.sampling_seconds()) == 2

    def test_mean_curve_shape(self):
        ms = run_seeds(tiny_spec("baseline"), seeds=[0, 1])
        curve = ms.mean_curve(window=2)
        assert curve.shape == (3,)

    def test_compare_variants(self):
        base = run_seeds(tiny_spec("baseline"), seeds=[0, 1, 2])
        opt = run_seeds(tiny_spec("baseline", fast_path=True), seeds=[0, 1, 2])
        cmp = compare_variants(base, opt, metric="sampling")
        assert cmp.metric == "sampling"
        assert cmp.baseline.n == 3 and cmp.optimized.n == 3
        assert 0.0 <= cmp.p_value <= 1.0
        assert "speedup CI" in cmp.render()

    def test_compare_unknown_metric(self):
        base = run_seeds(tiny_spec("baseline"), seeds=[0])
        with pytest.raises(ValueError, match="metric"):
            compare_variants(base, base, metric="flops")
