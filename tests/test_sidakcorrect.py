"""Refined simultaneous confidence corrections."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import oracles
from gcilab.errors import NotStandardized, OutOfRange
from gcilab.gaussmodel import equicorrelated, from_covariance, random_correlation
from gcilab.ineqlab import sidak_ratio
from gcilab.gaussmodel import ThresholdVector
from gcilab.mvnprob import oracle_region_prob, symmetric_rect_prob
from gcilab.sidakcorrect import (
    ROOT_XTOL,
    _covering_root,
    correction_table,
    improved_confidence,
    improved_critical_value,
    improvement_factor,
    sidak_critical_value,
)

ID3 = from_covariance(np.eye(3))
RANK1_2 = from_covariance(np.ones((2, 2)))


class TestCriticalValue:
    def test_single_coordinate_reduces_to_z(self):
        c = sidak_critical_value(0.05, 1)
        assert abs(c - oracles.phi_inv_quad(0.975)) <= 1e-8
        assert abs(c - 1.959964) <= 1e-5

    def test_ten_coordinates(self):
        c = sidak_critical_value(0.05, 10)
        target = 0.5 * (1 + 0.95 ** 0.1)
        assert abs(oracles.phi_quad(c) - target) <= 1e-8
        assert abs(target - 0.9974420) < 1e-6
        assert abs(c - 2.800) < 1e-3

    def test_boundary_alpha(self):
        assert sidak_critical_value(1 - 1e-12, 3) < 1e-3
        with pytest.raises(OutOfRange):
            sidak_critical_value(0.0, 2)
        with pytest.raises(OutOfRange):
            sidak_critical_value(0.05, 0)


class TestImprovementFactor:
    def test_identity_is_one(self):
        for a in (0.0, 0.3, 2.0, math.inf):
            est = improvement_factor(ID3, 2.0, a, budget=2 ** 12, seed=1)
            assert abs(est.value - 1.0) <= 3 * est.stderr + 1e-9

    def test_rank_one_closed_form(self):
        c = sidak_critical_value(0.05, 2)
        for a in (0.05, 0.4, 1.6):
            est = improvement_factor(RANK1_2, c, a, budget=2 ** 12, seed=2)
            expect = 1.0 / oracles.sym_prob_quad(c + a)
            assert abs(est.value - expect) <= 3 * est.stderr + 1e-9
            assert est.value > 1.0

    def test_zero_widening_equals_base_ratio(self):
        for seed in range(5):
            model = random_correlation(3, 2, seed + 650)
            c = sidak_critical_value(0.05, 3)
            factor = improvement_factor(model, c, 0.0, budget=2 ** 12, seed=seed)
            ratio = sidak_ratio(model, ThresholdVector.constant(3, c),
                                budget=2 ** 12, seed=seed + 9)
            assert abs(factor.value - ratio.value) <= \
                3 * math.hypot(factor.stderr, ratio.stderr) + 1e-9

    def test_bounded_by_ratio_at_base_threshold(self):
        for seed in range(8):
            model = random_correlation(4, 2, seed + 600)
            c = sidak_critical_value(0.1, 4)
            a = float(np.random.default_rng(seed).uniform(0.1, 2.0))
            factor = improvement_factor(model, c, a, budget=2 ** 12, seed=seed)
            ratio = sidak_ratio(model, ThresholdVector.constant(4, c),
                                budget=2 ** 12, seed=seed + 1)
            assert factor.value <= ratio.value + 3 * math.hypot(factor.stderr,
                                                                ratio.stderr)

    def test_requires_standardization(self):
        model = from_covariance([[4.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NotStandardized):
            improvement_factor(model, 2.0, 0.5, budget=2 ** 12, seed=0)


class TestImprovedConfidence:
    def test_identity_no_improvement(self):
        res = improved_confidence(ID3, 0.05, budget=2 ** 12, seed=1)
        assert res.A_best == 1.0
        assert res.a_best is None
        assert abs(res.improved_level - 0.95) <= 1e-12

    def test_rank_one_improvement(self):
        res = improved_confidence(RANK1_2, 0.05, budget=2 ** 13, seed=2)
        assert res.a_best == 0.05  # A decreases in a for the degenerate pair
        expect = 1.0 / oracles.sym_prob_quad(res.c + 0.05)
        assert abs(res.A_best - expect) <= 1e-6
        assert res.improved_level > 0.95
        # True coverage at c is one-dimensional, so the claim must stay below it.
        assert res.improved_level <= oracles.sym_prob_quad(res.c) + 1e-9

    def test_equicorrelated_improves_beyond_noise(self):
        model = equicorrelated(5, 0.5)
        res = improved_confidence(model, 0.05, budget=2 ** 14, seed=3)
        assert res.A_best > 1.0
        assert res.improved_level > 0.95

    def test_never_below_nominal(self):
        for seed in range(5):
            model = random_correlation(3, 2, seed + 700)
            res = improved_confidence(model, 0.1, budget=2 ** 12, seed=seed)
            assert res.improved_level >= 0.9 - 1e-12
            assert res.improved_level <= 1.0

    def test_table_renders(self):
        res = improved_confidence(RANK1_2, 0.05, budget=2 ** 12, seed=4)
        text = correction_table(res)
        assert "classical c" in text and "best widening" in text


class TestImprovedCriticalValue:
    def test_identity_matches_classical(self):
        cv = improved_critical_value(ID3, 0.05, budget=2 ** 12, seed=1)
        assert abs(cv - sidak_critical_value(0.05, 3)) <= 1e-3

    def test_rank_one_collapses_to_single_coordinate(self):
        cv = improved_critical_value(RANK1_2, 0.05, budget=2 ** 12, seed=2)
        assert abs(cv - oracles.phi_inv_quad(0.975)) <= 2e-3

    def test_never_exceeds_classical(self):
        for seed in range(5):
            model = random_correlation(3, 2, seed + 800)
            cv = improved_critical_value(model, 0.05, budget=2 ** 12, seed=seed)
            assert cv <= sidak_critical_value(0.05, 3) + 1e-12

    def test_rank_one_coverage_simulation(self):
        cv = improved_critical_value(RANK1_2, 0.05, budget=2 ** 12, seed=3)
        rng = np.random.default_rng(99)
        draws = rng.standard_normal(1_000_000)
        coverage = float(np.mean(np.abs(draws) <= cv))  # Y1 = Y2 for this model
        assert coverage >= 0.95 - 0.005

    @pytest.mark.parametrize("alpha", [0.05, 0.1])
    def test_rank_two_inversion_against_oracle(self, alpha):
        # The certified c' covers at 1 - alpha and sits near the exact root c*.
        for seed in range(10):
            k = 4 + seed % 5
            model = random_correlation(k, 2, seed + 900)

            def coverage(c):
                return oracle_region_prob(model.factor_rows, np.full(k, -c), np.full(k, c))

            cv = improved_critical_value(model, alpha, budget=2 ** 13, seed=seed)
            c_star = brentq(lambda c: coverage(c) - (1.0 - alpha),
                            0.5, sidak_critical_value(alpha, k) + 1.0, xtol=1e-10)
            assert coverage(cv) >= 1.0 - alpha
            assert c_star <= cv <= c_star + 1e-5

    @pytest.mark.parametrize("alpha", [0.05, 0.1])
    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.8])
    @pytest.mark.parametrize("k", [4, 8, 12])
    def test_equicorrelated_inversion_against_one_factor_oracle(self, k, rho, alpha):
        # Equicorrelated models take the exact one-factor rule, so c' is the
        # covering end of a bracket just above the exact root c*.
        lam = np.full(k, math.sqrt(rho))

        def coverage(c):
            return oracles.one_factor_quad(lam, np.full(k, -c), np.full(k, c))

        cv = improved_critical_value(equicorrelated(k, rho), alpha, budget=2 ** 13, seed=k)
        c_star = brentq(lambda c: coverage(c) - (1.0 - alpha),
                        0.5, sidak_critical_value(alpha, k) + 1.0, xtol=1e-10)
        assert c_star <= cv <= c_star + 1e-5
        assert coverage(cv) >= 1.0 - alpha

    @pytest.mark.parametrize("seed", range(6))
    def test_sampled_root_is_bracketed_to_root_xtol(self, seed):
        # Sampled models read the bound at one key drawn from the seed (common
        # random numbers): c' reaches 1 - alpha and c' - ROOT_XTOL does not.
        k, alpha = 4 + 2 * seed, 0.05 if seed % 2 else 0.1
        model = random_correlation(k, 3 + seed % 2, seed + 1200)
        key = int(np.random.SeedSequence(seed).generate_state(1)[0])

        def bound(c):
            est = symmetric_rect_prob(model, ThresholdVector.constant(k, c), 2 ** 13, key)
            assert est.method == "qmc"
            return est.lower_bound

        cv = improved_critical_value(model, alpha, budget=2 ** 13, seed=seed)
        assert cv < sidak_critical_value(alpha, k)
        assert bound(cv) >= 1.0 - alpha
        assert bound(cv - ROOT_XTOL) < 1.0 - alpha


class TestCoveringRoot:
    def test_smooth_gap_is_bracketed_tightly(self):
        calls = []

        def gap(c):
            calls.append(c)
            return math.erf(c) - 0.9

        c = _covering_root(gap, 0.0, 3.0, gap(0.0), gap(3.0))
        c_star = brentq(gap, 0.0, 3.0, xtol=1e-14)
        assert gap(c) >= 0.0
        assert abs(c - c_star) <= ROOT_XTOL
        assert len(calls) < 30

    def test_step_gap_still_returns_a_covering_end(self):
        def gap(c):
            return -1.0 if c < 1.0 else 1.0

        c = _covering_root(gap, 0.0, 3.0, -1.0, 1.0)
        assert 1.0 <= c <= 1.0 + ROOT_XTOL
