"""Normal CDF primitives, the QMC rectangle engine, and the quadrature oracle."""

import math
import os
import pickle
import signal
import time
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import multivariate_normal

import oracles
from gcilab import mvnprob
from gcilab.convexgeom import random_unconditional_hpolytope
from gcilab.errors import (
    BudgetTooSmall,
    DimensionMismatch,
    DimensionTooLarge,
    InvalidBounds,
    InvalidParameters,
    NotFinite,
    OutOfRange,
)
from gcilab.gaussmodel import (
    ThresholdVector,
    equicorrelated,
    from_covariance,
    product_model,
    random_correlation,
)
from gcilab.ineqlab import check_sidak
from gcilab.mvnprob import (
    ORACLE_TOL,
    inv_std_normal_cdf,
    oracle_region_prob,
    rect_prob,
    symmetric_rect_prob,
)
from gcilab.sidakcorrect import improved_confidence


class TestStdNormalCdf:
    """``scipy.special.ndtr``, the normal CDF every path uses, against quadrature."""

    def test_symmetry_at_zero(self):
        assert ndtr(0.0) == 0.5

    def test_exact_at_infinity(self):
        assert ndtr(math.inf) == 1.0
        assert ndtr(-math.inf) == 0.0

    def test_against_quadrature(self):
        for x in [-6.0, -2.5, -1.0, -0.3, 0.7, 1.0, 2.0, 4.5]:
            assert abs(ndtr(x) - oracles.phi_quad(x)) <= 1e-12
        assert abs(ndtr(1.0) - 0.8413447) < 1e-6

    def test_deep_tail_clamped(self):
        # ndtr underflows to 0 here; the QMC kernel clamps at CDF_FLOOR before
        # ndtri, so an empty deep-tail interval gives 0, not NaN or a warning.
        assert ndtr(-45.0) == 0.0 and mvnprob.CDF_FLOOR >= 1e-300
        model = random_correlation(4, 3, 1)
        lo, hi = np.array([-50.0, -1.0, -1.0, -1.0]), np.array([-45.0, 1.0, 1.0, 1.0])
        est = mvnprob._qmc_rect_prob(model.sigma, lo, hi, 2 ** 10, 0)
        assert est.value == 0.0 and math.isfinite(est.stderr)

    def test_nan_rejected(self):
        assert math.isnan(ndtr(float("nan")))
        with pytest.raises(InvalidBounds):
            rect_prob(from_covariance(np.eye(2)), [float("nan"), -1.0], [1.0, 1.0])


class TestInvStdNormalCdf:
    def test_median(self):
        assert inv_std_normal_cdf(0.5) == 0.0

    def test_against_bisection_oracle(self):
        for p in [0.975, 0.6, 0.1, 0.9974420]:
            assert abs(inv_std_normal_cdf(p) - oracles.phi_inv_quad(p)) < 1e-9
        assert abs(inv_std_normal_cdf(0.975) - 1.959964) < 1e-5

    def test_roundtrip(self):
        for p in [1e-8, 0.2, 0.5, 0.77, 1 - 1e-8]:
            assert abs(ndtr(inv_std_normal_cdf(p)) - p) <= 1e-10

    def test_antisymmetry(self):
        for p in [0.01, 0.3, 0.499]:
            assert abs(inv_std_normal_cdf(p) + inv_std_normal_cdf(1 - p)) <= 1e-10

    def test_out_of_range(self):
        for p in [0.0, 1.0, -0.1, 1.1]:
            with pytest.raises(OutOfRange):
                inv_std_normal_cdf(p)


class TestRectProb:
    def test_identity_product(self):
        m = from_covariance(np.eye(2))
        est = rect_prob(m, [-1, -1], [1, 1], budget=2 ** 12, seed=1)
        expect = oracles.sym_prob_quad(1.0) ** 2
        assert abs(est.value - expect) <= max(3 * est.stderr, 1e-10)
        assert abs(expect - 0.4660649) < 1e-6

    def test_rank_one_collapse(self):
        m = from_covariance([[1, 1], [1, 1]])
        est = rect_prob(m, [-1, -1], [1, 1], budget=2 ** 12, seed=2)
        expect = oracles.sym_prob_quad(1.0)
        assert abs(est.value - expect) <= max(3 * est.stderr, 1e-9)
        assert abs(expect - 0.6826895) < 1e-6

    def test_correlated_exceeds_independent(self):
        m = from_covariance([[1, 0.5], [0.5, 1]])
        est = rect_prob(m, [-1, -1], [1, 1], budget=2 ** 14, seed=3)
        expect = oracles.bivariate_rect_quad(0.5, [-1, -1], [1, 1])
        assert abs(est.value - expect) <= 3 * est.stderr + 1e-7
        assert est.value > 0.4660649

    def test_infinite_bounds_exact(self):
        m = random_correlation(3, 2, 4)
        est = rect_prob(m, [-np.inf] * 3, [np.inf] * 3, budget=2 ** 10, seed=0)
        assert est.value == 1.0

    def test_one_sided_infinite(self):
        m = from_covariance(np.eye(1))
        est = rect_prob(m, [-np.inf], [1.0], budget=2 ** 10, seed=0)
        assert abs(est.value - oracles.phi_quad(1.0)) < 1e-12

    def test_invalid_bounds(self):
        m = from_covariance(np.eye(2))
        with pytest.raises(InvalidBounds):
            rect_prob(m, [1, 0], [0, 1], budget=2 ** 10, seed=0)

    def test_budget_too_small(self):
        m = from_covariance(np.eye(2))
        with pytest.raises(BudgetTooSmall):
            rect_prob(m, [-1, -1], [1, 1], budget=999, seed=0)

    def test_reproducible(self):
        m = random_correlation(4, 3, 5)
        a = rect_prob(m, [-1, -2, -1, -0.5], [1, 2, 1, 0.5], budget=2 ** 12, seed=11)
        b = rect_prob(m, [-1, -2, -1, -0.5], [1, 2, 1, 0.5], budget=2 ** 12, seed=11)
        assert a.value == b.value and a.stderr == b.stderr

    def test_monotone_under_interval_enlargement(self):
        for seed in range(8):
            m = random_correlation(4, 3, seed)
            lo = np.full(4, -1.0)
            hi = np.array([1.0, 0.8, 1.2, 0.6])
            base = rect_prob(m, lo, hi, budget=2 ** 12, seed=seed)
            wide = rect_prob(m, lo - 0.5, hi + 0.7, budget=2 ** 12, seed=seed + 100)
            slack = 3 * math.hypot(base.stderr, wide.stderr)
            assert wide.value >= base.value - slack

    def test_sign_symmetry(self):
        for seed in range(6):
            m = random_correlation(3, 2, seed)
            lo = np.array([-0.5, -1.5, -1.0])
            hi = np.array([1.0, 0.7, 1.3])
            rows = m.factor_rows.copy()
            rows[1] = -rows[1]
            sigma = rows @ rows.T
            flipped = from_covariance(0.5 * (sigma + sigma.T))
            lo2, hi2 = lo.copy(), hi.copy()
            lo2[1], hi2[1] = -hi[1], -lo[1]
            a = rect_prob(m, lo, hi, budget=2 ** 12, seed=seed)
            b = rect_prob(flipped, lo2, hi2, budget=2 ** 12, seed=seed + 50)
            assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr) + 1e-6

    def test_block_factorization(self):
        m1 = random_correlation(2, 2, 1)
        m2 = random_correlation(3, 2, 2)
        sigma = np.zeros((5, 5))
        sigma[:2, :2] = m1.sigma
        sigma[2:, 2:] = m2.sigma
        m = from_covariance(sigma)
        c = np.array([1.0, 0.8, 1.2, 0.9, 1.1])
        whole = rect_prob(m, -c, c, budget=2 ** 13, seed=3)
        p1 = rect_prob(m1, -c[:2], c[:2], budget=2 ** 13, seed=4)
        p2 = rect_prob(m2, -c[2:], c[2:], budget=2 ** 13, seed=5)
        prod = p1.value * p2.value
        se = math.hypot(whole.stderr, p1.stderr + p2.stderr)
        assert abs(whole.value - prod) <= 3 * se + 1e-6
        # Both blocks have rank 2, so each is exact and so is their product.
        assert whole.method == p1.method == p2.method == "quadrature-oracle"
        assert abs(whole.value - prod) <= 1e-12

    def test_stderr_small_at_full_budget(self):
        rng = np.random.default_rng(44)
        for seed in range(5):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, n + 1))
            m = random_correlation(n, d, 1_300 + seed)
            c = rng.uniform(0.5, 2.0, size=n)
            est = rect_prob(m, -c, c, budget=2 ** 16, seed=seed)
            assert est.stderr <= 1e-4


class TestDispatch:
    """rect_prob checks its input, then picks the oracle (d <= 2), the one-factor rule or QMC."""

    @pytest.mark.parametrize("model", [from_covariance(np.zeros((3, 3))), equicorrelated(4, 1.0),
                                       random_correlation(5, 2, 6)],
                             ids=["rank 0", "rank 1", "rank 2"])
    def test_rank_two_or_less_goes_to_the_oracle(self, model):
        lower, upper = -np.linspace(0.5, 1.5, model.size), np.linspace(1.0, 2.0, model.size)
        est = rect_prob(model, lower, upper, budget=4096, seed=3)
        assert model.dim <= 2
        assert (est.method, est.stderr, est.samples, est.seed) == \
            ("quadrature-oracle", ORACLE_TOL, 0, None)
        # The oracle runs on refactorized correlation-scale rows, equal up to rounding.
        assert abs(est.value - oracle_region_prob(model.factor_rows, lower, upper)) <= 1e-12

    def test_input_checks_come_before_the_oracle(self):
        model, lower, upper = random_correlation(3, 2, 1), -np.ones(3), np.ones(3)
        with pytest.raises(BudgetTooSmall):
            rect_prob(model, lower, upper, budget=999)
        with pytest.raises(InvalidBounds):
            rect_prob(model, [np.nan, -1.0, -1.0], upper)
        with pytest.raises(InvalidParameters):
            rect_prob(model, lower, upper, seed=-1)

    @pytest.mark.parametrize("scale", [1e-15, 1e100])
    def test_rank_two_does_not_depend_on_units(self, scale):
        model = random_correlation(3, 2, 4)
        lower, upper = np.array([-1.0, -0.5, -np.inf]), np.array([1.2, 1.5, 0.8])
        base = rect_prob(model, lower, upper)
        scaled = rect_prob(from_covariance(model.sigma * scale * scale), lower * scale,
                           upper * scale)
        assert scaled.method == base.method == "quadrature-oracle"
        assert abs(scaled.value - base.value) <= 1e-12

    def test_variances_far_apart_keep_every_row(self):
        # Pivoted Cholesky relative to the largest variance gives this model
        # rank 1 and a zero row for X_1; on the correlation scale it has rank 2.
        model = from_covariance([[1.0, 0.0], [0.0, 1e-12]])
        est = rect_prob(model, [-1.0, -1e-6], [1.0, 1e-6])
        assert est.method == "quadrature-oracle"
        assert abs(est.value - (ndtr(1.0) - ndtr(-1.0)) ** 2) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_coordinates_scaled_by_different_factors(self, seed):
        rng = np.random.default_rng(seed)
        model = random_correlation(5, 2, 40 + seed)
        lower, upper = -rng.uniform(0.2, 2.0, 5), rng.uniform(0.2, 2.0, 5)
        base = rect_prob(model, lower, upper)
        d = 10.0 ** rng.choice([-8.0, 0.0, 8.0], 5)
        scaled = rect_prob(from_covariance(d[:, None] * model.sigma * d[None, :]),
                           d * lower, d * upper)
        assert scaled.method == base.method == "quadrature-oracle"
        assert abs(scaled.value - base.value) <= 1e-12

    def test_standardized_rank_three_goes_to_qmc(self):
        # Rank 3 on the correlation scale, whatever the units of X_3.
        model = from_covariance(np.diag([1.0, 1.0, 1e-12]))
        lower, upper = -np.array([1.0, 0.5, 1e-6]), np.array([1.0, 0.5, 1e-6])
        est = rect_prob(model, lower, upper, budget=4096, seed=2)
        sd = np.sqrt(model.variances)
        assert model.dim == 3
        assert est == mvnprob._qmc_rect_prob(model.sigma / sd / sd[:, None], lower / sd,
                                             upper / sd, 4096, 2)

    @pytest.mark.parametrize("lo, hi", [(1e-10, 1.0), (1e-300, np.inf), (-np.inf, -1e-300)])
    def test_zero_variance_outside_its_bounds_is_exactly_zero(self, lo, hi):
        # X_3 = 0 exactly; the sampling engine's old slack read the first case as 0.346.
        sigma = np.zeros((4, 4))
        sigma[:3, :3] = random_correlation(3, 3, 0).sigma
        est = rect_prob(from_covariance(sigma), [-1.0, -1.0, -1.0, lo], [1.0, 1.0, 1.0, hi])
        assert (est.value, est.stderr, est.method) == (0.0, ORACLE_TOL, "quadrature-oracle")


def _block_diagonal(seed):
    """2-3 random blocks of size 1-4 and rank 1-4 on randomly permuted coordinates.

    Returns the blocks, the coordinates each occupies, the whole model and
    bounds, a fifth of them infinite on one side.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(int(rng.integers(2, 4))):
        size = int(rng.integers(1, 5))
        blocks.append(random_correlation(size, int(rng.integers(1, size + 1)),
                                         int(rng.integers(2**31))))
    n = sum(b.size for b in blocks)
    perm, sigma, parts = rng.permutation(n), np.zeros((n, n)), []
    for b in blocks:
        idx = perm[sum(p.size for p in parts):][:b.size]
        sigma[np.ix_(idx, idx)] = b.sigma
        parts.append(idx)
    lower, upper = -rng.uniform(0.3, 2.0, n), rng.uniform(0.3, 2.0, n)
    side = rng.random(n)
    lower[side < 0.1] = -np.inf
    upper[side > 0.9] = np.inf
    return blocks, parts, from_covariance(sigma), lower, upper


class TestBlockFactorization:
    """rect_prob measures the independent blocks of a model separately and multiplies."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_property(self, seed):
        blocks, parts, model, lower, upper = _block_diagonal(seed)
        # Coordinates without a nonzero correlation form one group.
        alone = [idx for idx in parts if idx.size == 1]
        expect = [set(idx) for idx in parts if idx.size > 1]
        expect += [set(np.concatenate(alone))] if alone else []
        groups = mvnprob._components(model.sigma)
        assert sorted(sorted(g) for g in groups) == sorted(sorted(e) for e in expect)
        whole = rect_prob(model, lower, upper, budget=2000, seed=seed)
        parts_est = [rect_prob(b, lower[idx], upper[idx], budget=2000, seed=seed + k + 1)
                     for k, (b, idx) in enumerate(zip(blocks, parts))]
        prod = parts_est[0]
        for est in parts_est[1:]:
            prod = prod.times(est)
        assert abs(whole.value - prod.value) <= 3 * (whole.stderr + prod.stderr) + 1e-12
        if all(b.dim <= 2 for b in blocks):
            assert abs(whole.value - prod.value) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_qmc_engine_on_the_unfactored_product_model(self, seed):
        # The cross-check tensorize_check made before blocks were factored.
        big = product_model(random_correlation(5, 3, seed), 2)
        c = np.tile(np.linspace(0.8, 1.6, 5), 2)
        factored = rect_prob(big, -c, c, budget=2 ** 14, seed=seed)
        direct = mvnprob._qmc_rect_prob(big.sigma, -c, c, 2 ** 14, seed + 10)
        assert factored.method == direct.method == "qmc"
        diff = factored.minus(direct)
        assert abs(diff.value) <= 3 * diff.stderr

    @pytest.mark.parametrize("seed", range(4))
    def test_against_scipy_on_the_whole_covariance(self, seed):
        rng = np.random.default_rng(seed)
        first, second = random_correlation(2, 2, seed), random_correlation(3, 3, seed + 20)
        sigma = np.zeros((5, 5))
        sigma[:2, :2], sigma[2:, 2:] = first.sigma, second.sigma
        perm = rng.permutation(5)
        sigma = sigma[np.ix_(perm, perm)]
        lower, upper = -rng.uniform(0.5, 2.0, 5), rng.uniform(0.5, 2.0, 5)
        upper[int(rng.integers(5))] = np.inf
        est = rect_prob(from_covariance(sigma), lower, upper, budget=2 ** 14, seed=seed)
        expect = oracles.mvn_rect_prob(sigma, lower, upper)
        assert abs(est.value - expect) <= 3 * est.stderr + 2e-7

    def test_provenance(self):
        rank_two, one_factor = random_correlation(3, 2, 1), equicorrelated(3, 0.5)
        rank_three = random_correlation(4, 3, 2)

        def joined(*models):
            n = sum(m.size for m in models)
            sigma, at = np.zeros((n, n)), 0
            for m in models:
                sigma[at:at + m.size, at:at + m.size] = m.sigma
                at += m.size
            return from_covariance(sigma), -np.full(n, 1.1), np.full(n, 1.3)

        cases = [((rank_two, rank_two), "quadrature-oracle"),
                 ((one_factor, rank_two), "one-factor"),
                 ((rank_two, rank_three, one_factor), "qmc")]
        for models, method in cases:
            model, lower, upper = joined(*models)
            est = rect_prob(model, lower, upper, budget=4096, seed=5)
            sizes = np.cumsum([0] + [m.size for m in models])
            kids = mvnprob._children(np.random.SeedSequence(5), len(models))
            alone = [rect_prob(m, lower[a:b], upper[a:b], budget=4096, seed=kid)
                     for m, a, b, kid in zip(models, sizes, sizes[1:], kids)]
            assert (est.method, est.seed) == (method, 5)
            assert est.samples == sum(e.samples for e in alone)
            assert abs(est.value - math.prod(e.value for e in alone)) <= 1e-15
            ss = np.random.SeedSequence(5)
            assert rect_prob(model, lower, upper, budget=4096, seed=ss) == \
                mvnprob.Estimate(est.value, est.stderr, est.samples, method, None)

    def test_identical_blocks_are_measured_once(self):
        base = random_correlation(4, 3, 1)
        c = np.array([0.9, 1.4, 1.1, 0.7])
        est = rect_prob(product_model(base, 3), -np.tile(c, 3), np.tile(c, 3),
                        budget=4096, seed=2)
        first = rect_prob(base, -c, c, budget=4096,
                          seed=mvnprob._children(np.random.SeedSequence(2), 3)[0])
        assert (est.value, est.samples, est.method) == (first.value ** 3, first.samples, "qmc")
        assert est.stderr == 3 * first.value ** 2 * first.stderr

    def test_single_component_models_are_unchanged(self):
        # The Estimates of the code before blocks were factored, in all five fields.
        lower = np.array([-1.0, -0.5, -np.inf, -1.2, -0.8])
        upper = np.array([1.0, 1.5, 0.8, np.inf, 0.9])
        dense = rect_prob(random_correlation(5, 4, 7), lower, upper, budget=4096, seed=3)
        identity = rect_prob(from_covariance(np.eye(5)), lower, upper, budget=4096, seed=3)
        assert dense == mvnprob.Estimate(0.26752408057787663, 0.00010242948368754534, 4044,
                                         "qmc", 3)
        assert identity == mvnprob.Estimate(0.17967029473534882, 1e-15, 0, "qmc", 3)

    def test_independent_coordinates_share_one_group(self):
        sigma = np.eye(6)
        sigma[1, 4] = sigma[4, 1] = 0.3
        sigma[2, 5] = sigma[5, 2] = -0.6
        groups = mvnprob._components(sigma)
        assert [g.tolist() for g in groups] == [[0, 3], [1, 4], [2, 5]]
        assert [g.tolist() for g in mvnprob._components(np.eye(4))] == [[0, 1, 2, 3]]


def _random_rectangle(seed):
    """A model of rank d <= n <= 6 and bounds, some infinite, drawn from one seed.

    The d free directions have correlation 0.5 R + 0.5 I for a random
    correlation R, so no conditional variance falls below 1/2; the other
    n - d coordinates repeat a free one up to sign, so they are exactly
    dependent. Every coordinate keeps a finite bound within 2.5. This keeps
    the greedy ranking values away from 1, so ties have probability 0; on
    near-singular models, or with coordinates infinite on both sides, two of
    them can round to exactly 1 and the tie then goes by coordinate index.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    d = int(rng.integers(1, n + 1))
    rows = rng.standard_normal((d, d))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    corr = 0.5 * (rows @ rows.T) + 0.5 * np.eye(d)
    free = rng.permutation(np.concatenate([np.arange(d), rng.integers(0, d, n - d)]))
    sign = rng.choice([-1.0, 1.0], n)
    model = from_covariance(sign[:, None] * corr[np.ix_(free, free)] * sign[None, :])
    lower, upper = -rng.uniform(0.1, 2.5, n), rng.uniform(0.1, 2.5, n)
    side = rng.random(n)
    lower[side < 0.2] = -np.inf
    upper[side > 0.8] = np.inf
    return model, lower, upper, rng


class TestRectProbInvariance:
    """At a fixed seed, rect_prob is invariant under relabelling and rescaling coordinates.

    The drawn models reach all three methods: rank <= 2 the oracle, the rest
    the one-factor rule or QMC. They have no exact zero correlation, so each
    is one group: a block-diagonal model's groups take seed children in
    order of first index.
    """

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_coordinate_permutation(self, seed):
        model, lower, upper, rng = _random_rectangle(seed)
        perm = rng.permutation(model.size)
        moved = from_covariance(model.sigma[np.ix_(perm, perm)])
        est = rect_prob(model, lower, upper, budget=2000, seed=seed)
        again = rect_prob(moved, lower[perm], upper[perm], budget=2000, seed=seed)
        assert abs(est.value - again.value) <= 1e-12
        assert abs(est.stderr - again.stderr) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_diagonal_rescaling(self, seed):
        model, lower, upper, rng = _random_rectangle(seed)
        d = 10.0 ** rng.uniform(-3.0, 3.0, model.size)
        scaled = from_covariance(d[:, None] * model.sigma * d[None, :])
        est = rect_prob(model, lower, upper, budget=2000, seed=seed)
        again = rect_prob(scaled, d * lower, d * upper, budget=2000, seed=seed)
        assert abs(est.value - again.value) <= 1e-12
        assert abs(est.stderr - again.stderr) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_zero_variance_coordinates(self, seed):
        model, lower, upper, rng = _random_rectangle(seed)
        k = int(rng.integers(1, 3))
        n = model.size + k
        zero = np.sort(rng.choice(n, k, replace=False))
        rest = np.setdiff1d(np.arange(n), zero)
        sigma, lo, hi = np.zeros((n, n)), np.empty(n), np.empty(n)
        sigma[np.ix_(rest, rest)] = model.sigma
        lo[rest], hi[rest] = lower, upper
        lo[zero], hi[zero] = rng.choice([-np.inf, -1.0, 0.0], k), rng.choice([0.0, 2.0, np.inf], k)
        est = rect_prob(model, lower, upper, budget=2000, seed=seed)
        # Bounds around 0 drop the coordinate: the same estimate in every field.
        assert rect_prob(from_covariance(sigma), lo, hi, budget=2000, seed=seed) == est
        # Bounds that exclude 0, however narrowly: exactly 0.
        lo[zero[0]], hi[zero[0]] = (1e-300, np.inf) if rng.random() < 0.5 else (-np.inf, -1e-300)
        assert rect_prob(from_covariance(sigma), lo, hi, budget=2000, seed=seed).value == 0.0


class TestReplicateBlocks:
    """Estimates do not depend on how the lattice is chunked or on the threads."""

    def test_block_size_invariance(self, monkeypatch):
        rank_deficient = random_correlation(6, 2, 3)  # dependent rows fold into free ones
        cases = [(random_correlation(3, 2, 1), [-1.0, -0.5, -np.inf], [1.0, 1.5, 0.8], 1 << 13),
                 (random_correlation(5, 5, 2), -np.full(5, 1.2), np.full(5, 1.2), 1 << 14),
                 (rank_deficient, -np.full(6, 1.0), np.array([1.0, 2.0, np.inf, 0.5, 1.0, 1.5]),
                  1 << 14),
                 (random_correlation(12, 4, 4), -np.full(12, 1.5), np.full(12, 1.5), 1 << 14),
                 (random_correlation(6, 6, 5), -np.full(6, 0.9), np.full(6, 1.3), 1 << 16),
                 (random_correlation(48, 8, 6), -np.full(48, 2.0), np.full(48, 2.0), 1 << 16),
                 (from_covariance(np.eye(4)), -np.full(4, 1.0), np.full(4, 2.0), 1 << 14)]

        def estimates():  # the QMC kernel itself: rect_prob sends the rank-2 cases to the oracle
            return [(e.value, e.stderr, e.samples) for e in
                    (mvnprob._qmc_rect_prob(m.sigma, np.asarray(lo), np.asarray(hi), budget, k)
                     for k, (m, lo, hi, budget) in enumerate(cases))]

        default = estimates()
        assert default[-1][2] == 0  # m = 0: the product form samples nothing
        # Split runs stay multiples of the BLAS matrix-vector unroll (see QMC_CHUNK):
        # 256 cuts every replicate into runs, 3072 cuts the 2^16 ones and pairs
        # the 2^14 ones, and 2^20 batches all twelve replicates into one call.
        for chunk in (256, 3072, 1 << 20):
            monkeypatch.setattr(mvnprob, "QMC_CHUNK", chunk)
            assert estimates() == default
        monkeypatch.setattr(mvnprob, "QMC_CHUNK", 256)
        monkeypatch.setattr(mvnprob, "_pool", lambda: types.SimpleNamespace(map=map))
        assert estimates() == default


class TestKernelPins:
    """Kernel outputs pinned bit for bit, recorded before the lattice was chunked for threads."""

    CASES = [  # model, lower, upper, budget, seed, value, stderr, samples
        (random_correlation(3, 3, 0), [-1.0, -np.inf, -0.5], [1.2, 0.7, np.inf], 1 << 13, 0,
         "0x1.bde92264edf1bp-2", "0x1.9157febed6e30p-17", 8124),
        (random_correlation(4, 4, 1), -np.full(4, 1.1), np.full(4, 1.4), 1 << 16, 1,
         "0x1.e88442eabd224p-2", "0x1.7d60f36e0b0ccp-22", 65388),
        (random_correlation(6, 2, 3), -np.full(6, 1.0), [1.0, 2.0, np.inf, 0.5, 1.0, 1.5],
         1 << 14, 2, "0x1.60adf35bf29efp-2", "0x1.172010323b449p-25", 16332),
        (random_correlation(9, 3, 8), np.full(9, -np.inf), np.linspace(0.5, 2.0, 9), 1 << 16, 3,
         "0x1.2eafefb57b1abp-2", "0x1.27ab3083dbafbp-19", 65388),
        (random_correlation(12, 4, 4), -np.full(12, 1.5), np.full(12, 1.5), 1 << 14, 4,
         "0x1.db31684a26191p-2", "0x1.6336f8bbb4cd0p-13", 16332),
        (random_correlation(24, 6, 5), -np.linspace(1.0, 2.5, 24), np.full(24, 2.0), 1 << 15, 5,
         "0x1.706c54331d97cp-2", "0x1.9179845fc22e7p-12", 32748),
        (random_correlation(48, 8, 6), -np.full(48, 2.0), np.full(48, 2.0), 1 << 16, 6,
         "0x1.d47685e2efc5fp-2", "0x1.c8b349306ac3ap-12", 65388),
        (random_correlation(5, 5, 7), [-np.inf, -1.0, -np.inf, -0.3, -np.inf],
         [0.8, np.inf, 1.1, 1.9, 0.4], 1 << 13, 7,
         "0x1.c2e9fd4fe0779p-3", "0x1.02a5930e34457p-15", 8124),
        # 40,961 points a replicate: five runs of 2^13 and a last run of one point
        (random_correlation(6, 4, 9), [-1.0, -np.inf, -0.7, -1.3, -2.0, -0.4],
         [1.1, 0.9, np.inf, 1.3, 0.6, 1.8], 12 * 40961, 8,
         "0x1.c6e62bc2e7dfcp-3", "0x1.dd7d20f0ca4acp-20", 491532),
    ]

    @pytest.mark.parametrize("k", range(len(CASES)))
    def test_pinned_output(self, k):
        model, lower, upper, budget, seed, value, stderr, samples = self.CASES[k]
        est = mvnprob._qmc_rect_prob(model.sigma, np.asarray(lower, dtype=float),
                                     np.asarray(upper, dtype=float), budget, seed)
        assert (est.value, est.stderr, est.samples) == (
            float.fromhex(value), float.fromhex(stderr), samples)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkSafety:
    """A child forked after a threaded QMC call builds its own pool instead of hanging."""

    def test_child_repeats_pooled_call(self):
        model, c = random_correlation(5, 5, 2), np.full(5, 1.2)
        est = rect_prob(model, -c, c, 1 << 16, 3)  # twelve chunks: the pool runs them
        assert est.method == "qmc" and mvnprob._executor is not None
        read, write = os.pipe()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads is the point
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read)
                signal.alarm(10)  # a child stuck on the parent's pool dies of SIGALRM
                os.write(write, pickle.dumps(rect_prob(model, -c, c, 1 << 16, 3)))
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        with os.fdopen(read, "rb") as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert pickle.loads(data) == est


class TestOracleBlocks:
    """The d = 3 vertex search, ORACLE_BLOCK's one user, does not depend on its block size."""

    def test_block_size_invariance(self, monkeypatch):
        body = random_unconditional_hpolytope(5, dim=3, extra=1)  # 14 facets
        rank_three = random_correlation(9, 3, 3)
        c = np.linspace(0.8, 2.0, 9)
        cases = [(body.normals, np.full(len(body.offsets), -np.inf), body.offsets),
                 (rank_three.factor_rows, -c, c)]

        def values():
            return [mvnprob._vertex_x1(*case).tolist() for case in cases]

        default = values()
        assert all(len(kinks) >= 6 for kinks in default)
        monkeypatch.setattr(mvnprob, "ORACLE_BLOCK", 7)
        assert values() == default


class TestNegativeSeed:
    def test_rejected_as_invalid_parameters(self):
        model = random_correlation(3, 2, 1)
        c = ThresholdVector.constant(3, 1.0)
        with pytest.raises(InvalidParameters):
            symmetric_rect_prob(model, c, 4096, -1)
        with pytest.raises(InvalidParameters):
            check_sidak(model, c, 4096, seed=-1)


class TestSeedSequenceReuse:
    """A SeedSequence argument gives the same result however often it is passed."""

    @staticmethod
    def _plain(result):
        out = result.to_json_dict()
        out.pop("runtime_ms", None)
        return out

    def test_three_uses_agree(self):
        model = random_correlation(5, 3, 1)
        c = ThresholdVector.constant(5, 1.5)
        ss = np.random.SeedSequence(7)
        calls = [lambda: symmetric_rect_prob(model, c, 4096, ss),
                 lambda: self._plain(check_sidak(model, c, 4096, ss)),
                 lambda: self._plain(improved_confidence(model, 0.1, 4096, ss))]
        for call in calls:
            first = call()
            assert call() == first and call() == first
        assert ss.n_children_spawned == 0
        assert symmetric_rect_prob(model, c, 4096, ss).value == \
            symmetric_rect_prob(model, c, 4096, 7).value


class TestSymmetricRectProb:
    def test_all_infinite_is_one(self):
        m = from_covariance(np.eye(3))
        est = symmetric_rect_prob(m, ThresholdVector([np.inf] * 3), budget=2 ** 10, seed=0)
        assert est.value == 1.0

    def test_identity_pair(self):
        m = from_covariance(np.eye(2))
        est = symmetric_rect_prob(m, ThresholdVector([1.0, 1.0]), budget=2 ** 12, seed=1)
        assert abs(est.value - oracles.sym_prob_quad(1.0) ** 2) <= 1e-9

    def test_vanishing_threshold_limit(self):
        m = random_correlation(3, 2, 9)
        est = symmetric_rect_prob(m, ThresholdVector([1e-5, 1.0, 1.0]),
                                  budget=2 ** 12, seed=2)
        assert est.value < 1e-4


class TestOracle:
    def test_one_dimensional_values(self):
        m = from_covariance(np.eye(1))
        est = rect_prob(m, [-3.0], [3.0])
        assert abs(est.value - oracles.sym_prob_quad(3.0)) <= 1e-7
        assert abs(est.value - 0.9973002) < 1e-6

    def test_rotated_diamond_interval(self):
        # Half-width (N + 1/N)/sqrt(2) at N = 3.
        half = (3 + 1 / 3) / math.sqrt(2)
        m = from_covariance(np.eye(1))
        est = rect_prob(m, [-half], [half])
        assert abs(est.value - oracles.sym_prob_quad(half)) <= 1e-7
        assert abs(est.value - 0.9813) < 1e-3

    def test_product_factorization(self):
        m = from_covariance(np.eye(2))
        est = rect_prob(m, [-1, -1], [1, 1])
        assert abs(est.value - oracles.sym_prob_quad(1.0) ** 2) <= 1e-7

    @pytest.mark.parametrize("lo, hi", [(8.0, 9.0), (-9.0, -8.0), (5.0, 40.0)])
    def test_one_sided_intervals_keep_relative_precision(self, lo, hi):
        # Phi(9) - Phi(8) in floating point is 6.66e-16, 7% above the true 6.22e-16.
        expect = oracles.interval_prob_erfc(lo, hi)
        assert oracle_region_prob([[1.0]], [lo], [hi]) == pytest.approx(expect, rel=1e-12)
        rank_one = from_covariance(np.ones((2, 2)))  # X_1 = X_2
        est = rect_prob(rank_one, [lo, -np.inf], [hi, np.inf])
        assert est.method == "quadrature-oracle"
        assert est.value == pytest.approx(expect, rel=1e-12)

    def test_method_tag_and_stderr(self):
        m = from_covariance(np.eye(1))
        est = rect_prob(m, [-1], [1])
        assert est.method == "quadrature-oracle"
        assert est.stderr == 1e-7

    def test_dimension_cap(self):
        m = random_correlation(4, 4, 0)
        with pytest.raises(DimensionTooLarge):
            oracle_region_prob(m.factor_rows, np.full(4, -1.0), np.full(4, 1.0))

    def test_bivariate_against_conditioning_quadrature(self):
        for rho in [-0.7, 0.0, 0.3, 0.9]:
            m = from_covariance([[1, rho], [rho, 1]])
            est = rect_prob(m, [-1.0, -0.5], [0.8, 1.5])
            expect = oracles.bivariate_rect_quad(rho, [-1.0, -0.5], [0.8, 1.5])
            assert abs(est.value - expect) <= 2e-7

    def test_three_dimensional_product(self):
        m = from_covariance(np.eye(3))
        value = oracle_region_prob(m.factor_rows, [-1, -0.5, -2], [1, 0.5, 2])
        expect = (oracles.sym_prob_quad(1.0) * oracles.sym_prob_quad(0.5)
                  * oracles.sym_prob_quad(2.0))
        assert abs(value - expect) <= 1e-7

    @pytest.mark.parametrize("n", [20, 40])
    def test_large_rank_two_bands(self, n):
        # Hundreds of pairwise crossings, more breakpoints than scipy's quad
        # accepts (it raises ValueError past its subinterval limit).
        m = random_correlation(n, 2, 900 + n)
        c = np.random.default_rng(n).uniform(0.8, 3.0, size=n)
        oracle_est = rect_prob(m, -c, c)
        qmc_est = mvnprob._qmc_rect_prob(m.sigma, -c, c, 2 ** 16, n)
        assert abs(oracle_est.value - qmc_est.value) <= 3 * qmc_est.stderr + ORACLE_TOL

    def test_three_dimensional_vertex_kinks(self):
        # The layer mass has kinks at the vertices' first coordinates; unless
        # they are breakpoints, quad's error estimate misses them (1.5e-6 here).
        m = random_correlation(3, 3, 208)
        lo = np.array([-2.39928877, -1.80025343, -0.75676462])
        hi = np.array([1.5050067, 2.33846238, 2.0380234])
        qmc_est = rect_prob(m, lo, hi, budget=2 ** 16, seed=208)
        assert abs(oracle_region_prob(m.factor_rows, lo, hi) - qmc_est.value) <= \
            3 * qmc_est.stderr + ORACLE_TOL

    @pytest.mark.parametrize("scale", [1e-5, 1e5])
    def test_vertex_kinks_do_not_depend_on_units(self, scale):
        # The vertex search once kept triples by an absolute |det|, so rows
        # of size 1e-5 lost every kink (1.5e-6 off here).
        rows = random_correlation(3, 3, 208).factor_rows
        lo = np.array([-2.39928877, -1.80025343, -0.75676462])
        hi = np.array([1.5050067, 2.33846238, 2.0380234])
        base = oracle_region_prob(rows, lo, hi)
        assert abs(oracle_region_prob(rows * scale, lo * scale, hi * scale) - base) <= ORACLE_TOL

    @pytest.mark.parametrize("d", [2, 3])
    def test_rotated_box_is_rotation_invariant(self, d):
        rng = np.random.default_rng(d)
        for _ in range(5):
            rot, _ = np.linalg.qr(rng.standard_normal((d, d)))
            c = rng.uniform(0.3, 2.5, size=d)
            lo = np.where(rng.random(d) < 0.3, -np.inf, -c)
            expect = math.prod(ndtr(b) - ndtr(a) for a, b in zip(lo, c))
            assert abs(oracle_region_prob(rot, lo, c) - expect) <= ORACLE_TOL

    @pytest.mark.parametrize("theta", [1e-2, 1e-4, 1e-8])
    def test_nearly_axis_aligned_rows(self, theta):
        # A row almost along x makes a steep bound on y; where no other bound
        # crosses it, a fixed-width panel rule in x misses how fast its CDF moves.
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        lo, hi = np.array([-1.4, -np.inf]), np.array([0.9, 2.2])
        expect = (ndtr(0.9) - ndtr(-1.4)) * ndtr(2.2)
        assert abs(oracle_region_prob(rot, lo, hi) - expect) <= 1e-12

    def test_one_dimensional_is_exact_cdf_difference(self):
        rows = np.array([[2.0], [-0.5]])
        val = oracle_region_prob(rows, np.array([-1.0, -np.inf]), np.array([3.0, 0.4]))
        # 2y in [-1, 3] and -y/2 <= 0.4 give y in [-0.5, 1.5]
        assert val == ndtr(1.5) - ndtr(-0.5)

    def test_region_prob_handles_degenerate_rows(self):
        rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        val = oracle_region_prob(rows, np.array([-1.0, -2.0, -1.0]),
                                 np.array([1.0, 2.0, 1.0]))
        expect = oracles.sym_prob_quad(1.0) ** 2
        assert abs(val - expect) <= 1e-7


class TestOracleInputChecks:
    """NaN input and bounds of the wrong length are errors, not a plausible value."""

    @pytest.mark.parametrize("call", [
        lambda lo, hi: oracle_region_prob(np.eye(2), lo, hi),
        lambda lo, hi: rect_prob(from_covariance(np.eye(2)), lo, hi)])
    def test_bad_bounds(self, call):
        with pytest.raises(InvalidBounds):
            call([np.nan, -1.0], [1.0, 1.0])
        with pytest.raises(InvalidBounds):
            call([-1.0, -1.0], [1.0, np.nan])
        for lo, hi in [([-1.0], [1.0]), ([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])]:
            with pytest.raises(DimensionMismatch):
                call(lo, hi)

    def test_nan_rows(self):
        with pytest.raises(NotFinite):
            oracle_region_prob([[np.nan, 0.0], [0.0, 1.0]], [-1.0, -1.0], [1.0, 1.0])

    def test_bound_no_point_meets(self):
        rows = np.eye(3)[:, :2]  # the third row is zero
        assert oracle_region_prob(rows, [np.inf, -1.0, -1.0], [np.inf, 1.0, 1.0]) == 0.0
        assert oracle_region_prob(rows, [-1.0, -1.0, -np.inf], [1.0, 1.0, -np.inf]) == 0.0

    def test_only_exactly_zero_rows_are_feasibility_conditions(self):
        # {1e-15 <= 1e-14 y <= 1} is y in [0.1, 1e14]: a small row is a constraint.
        assert abs(oracle_region_prob([[1e-14]], [1e-15], [1.0]) - 0.4601721627) <= 1e-10
        # In d = 3 a row is along the first axis only if its other entries are exactly 0.
        rows = np.array([[1e-12, 1e-14, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        value = oracle_region_prob(rows, [0.0, -1.0, -1.0], [1e-12, 1.0, 1.0])
        expect = (oracle_region_prob([[1.0, 0.01], [0.0, 1.0]], [0.0, -1.0], [1.0, 1.0])
                  * (ndtr(1.0) - ndtr(-1.0)))
        assert abs(value - expect) <= ORACLE_TOL


def _polygon_around_origin(rng):
    """Half-planes n . y <= b, b > 0, with normals spread so that no gap reaches pi."""
    k = int(rng.integers(3, 13))
    angles = 2.0 * math.pi * (np.arange(k) + rng.uniform(-0.2, 0.2, k)) / k
    normals = np.column_stack([np.cos(angles), np.sin(angles)]) * rng.uniform(0.5, 2.0, (k, 1))
    return normals, rng.uniform(0.2, 3.0, k)


class TestPlanarOracleProperty:
    """oracle_region_prob for d <= 2 against references that share none of its code."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 2),
           kind=st.sampled_from(["asymmetric", "one-sided", "unbounded", "off-origin", "empty"]))
    def test_rows_against_scipy_mvn(self, seed, d, kind):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((d, d))
        while abs(np.linalg.det(rows)) < 0.1:
            rows = rng.standard_normal((d, d))
        lower, upper = -rng.uniform(0.1, 2.5, d), rng.uniform(0.1, 2.5, d)
        if kind == "one-sided":
            lower[0], upper[-1] = -np.inf, np.inf
        elif kind == "unbounded":
            lower[0], upper[0] = -np.inf, np.inf
        elif kind == "off-origin":  # the region excludes the origin
            lower[0] = rng.uniform(0.3, 2.5) * np.linalg.norm(rows[0])
            upper[0] = lower[0] + rng.uniform(0.1, 2.0)
        elif kind == "empty":  # a segment
            upper[0] = lower[0]
        mvn = multivariate_normal(np.zeros(d), rows @ rows.T, abseps=1e-14, releps=0.0)
        expect = mvn.cdf(upper, lower_limit=lower)
        assert abs(oracle_region_prob(rows, lower, upper) - expect) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cut=st.booleans())
    def test_polygons_against_polar_quadrature(self, seed, cut):
        rng = np.random.default_rng(seed)
        normals, offsets = _polygon_around_origin(rng)
        expect = oracles.planar_measure_polar(normals, offsets)
        if cut:  # a half-plane beyond the polygon's support leaves nothing
            v = rng.standard_normal(2)
            corners = oracles.polygon_vertices_bruteforce(normals, offsets)
            far = oracles.support_bruteforce(corners, v)
            normals = np.vstack([normals, -v])
            offsets = np.append(offsets, -far - rng.uniform(1e-6, 1.0))
            expect = 0.0
        value = oracle_region_prob(normals, np.full(len(offsets), -np.inf), offsets)
        assert abs(value - expect) <= 1e-10


class TestQmcOracleAgreement:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), data=st.data())
    def test_property(self, seed, n, data):
        d = data.draw(st.integers(1, min(n, 3)))
        rng = np.random.default_rng(seed)
        m = random_correlation(n, d, seed)
        lo = -rng.uniform(0.3, 2.5, size=n)
        hi = rng.uniform(0.3, 2.5, size=n)
        lo[rng.random(n) < 0.2] = -np.inf
        qmc_est = mvnprob._qmc_rect_prob(m.sigma, lo, hi, 2 ** 16, seed)
        exact = oracle_region_prob(m.factor_rows, lo, hi)
        assert abs(qmc_est.value - exact) <= 3 * qmc_est.stderr + 3 * ORACLE_TOL

    def test_sweep(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            n = int(rng.integers(1, 6))
            d = int(rng.integers(1, min(n, 3) + 1))
            m = random_correlation(n, d, seed)
            c = rng.uniform(0.4, 2.0, size=n)
            qmc_est = mvnprob._qmc_rect_prob(m.sigma, -c, c, 2 ** 13, seed)
            exact = oracle_region_prob(m.factor_rows, -c, c)
            assert abs(qmc_est.value - exact) <= 3 * qmc_est.stderr + 3 * ORACLE_TOL


def _one_factor_model(rng, n, rho, general):
    """Model with loadings sqrt(rho) (equicorrelation) or uniform on [-rho, rho]."""
    lam = rng.uniform(-rho, rho, n) if general else np.full(n, math.sqrt(rho))
    sigma = np.outer(lam, lam)
    np.fill_diagonal(sigma, 1.0)
    return from_covariance(sigma)


def _one_factor_bounds(rng, n):
    """Intervals anywhere in [-2.5, 3.5], a fifth unbounded below and a fifth above."""
    lower = rng.uniform(-2.5, 2.0, n)
    upper = lower + rng.uniform(0.05, 3.0, n)
    lower[rng.random(n) < 0.2] = -np.inf
    upper[rng.random(n) < 0.2] = np.inf
    return lower, upper


def _expected_method(model):
    independent = np.all(model.sigma[~np.eye(model.size, dtype=bool)] == 0.0)
    return mvnprob.METHOD_QMC if independent else mvnprob.METHOD_ONE_FACTOR


class TestOneFactorRule:
    """Equicorrelated and rank-one-correlated models get the exact 1-D integral."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rho=st.floats(-0.999, 0.999))
    def test_bivariate_against_conditioning_quadrature(self, seed, rho):
        # rect_prob sends n = 2 to the planar oracle, so the rule is called directly.
        model = from_covariance([[1.0, rho], [rho, 1.0]])
        lower, upper = _one_factor_bounds(np.random.default_rng(seed), 2)
        est = mvnprob._one_factor_prob(model.sigma, lower, upper)
        if _expected_method(model) == mvnprob.METHOD_QMC:
            assert est is None  # independent coordinates: the product path's case
        else:
            assert est.method == mvnprob.METHOD_ONE_FACTOR
            assert abs(est.value - oracles.bivariate_rect_quad(rho, lower, upper)) <= 1e-9

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rho=st.floats(0.0, 0.999), general=st.booleans())
    def test_trivariate_against_oracle(self, seed, rho, general):
        rng = np.random.default_rng(seed)
        model = _one_factor_model(rng, 3, rho, general)
        lower, upper = _one_factor_bounds(rng, 3)
        est = rect_prob(model, lower, upper, budget=2 ** 12, seed=seed)
        assert est.method == _expected_method(model)
        exact = oracle_region_prob(model.factor_rows, lower, upper)
        assert abs(est.value - exact) <= 3 * ORACLE_TOL

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 30),
           rho=st.floats(0.0, 0.999), general=st.booleans())
    def test_many_coordinates_against_qmc(self, seed, n, rho, general):
        rng = np.random.default_rng(seed)
        model = _one_factor_model(rng, n, rho, general)
        lower, upper = _one_factor_bounds(rng, n)
        est = rect_prob(model, lower, upper, budget=2 ** 12, seed=seed)
        assert est.method == _expected_method(model)
        ref = mvnprob._qmc_rect_prob(model.sigma, lower, upper, 2 ** 18, seed)
        assert abs(est.value - ref.value) <= 4 * ref.stderr + 1e-9

    def test_result_fields(self):
        est = rect_prob(equicorrelated(6, 0.5), -np.ones(6), np.full(6, 2.0), 4096, 7)
        assert (est.method, est.stderr, est.samples, est.seed) == ("one-factor", ORACLE_TOL,
                                                                   0, None)
        assert est == rect_prob(equicorrelated(6, 0.5), -np.ones(6), np.full(6, 2.0),
                                1 << 16, 8)

    def test_equicorrelation_shares_one_factor(self):
        # Exact equicorrelation is recognized before the fit, so every loading
        # is the same float and equal thresholds collapse to one factor.
        lam = mvnprob._one_factor_loadings(equicorrelated(7, 0.3).sigma)
        assert np.all(lam == math.sqrt(0.3))

    def test_upper_tail_keeps_relative_precision(self):
        # Pr(X >= 7) equals Pr(X <= -7) by symmetry; 1 - Phi(7) in floating
        # point would keep only about four digits of each weakly correlated factor.
        model = from_covariance([[1.0, 0.06, 0.075], [0.06, 1.0, 0.05], [0.075, 0.05, 1.0]])
        upper_tail = rect_prob(model, np.full(3, 7.0), np.full(3, np.inf))
        lower_tail = rect_prob(model, np.full(3, -np.inf), np.full(3, -7.0))
        assert upper_tail.method == "one-factor" and 0.0 < lower_tail.value < 1e-30
        assert abs(upper_tail.value - lower_tail.value) <= 1e-12 * lower_tail.value

    def test_input_checks_come_first(self):
        model = equicorrelated(3, 0.5)
        with pytest.raises(BudgetTooSmall):
            rect_prob(model, -np.ones(3), np.ones(3), budget=999)
        with pytest.raises(InvalidParameters):
            rect_prob(model, -np.ones(3), np.ones(3), seed=-1)

    def test_failed_panel_check_falls_back_to_qmc(self, monkeypatch):
        # A 2-node rule per panel is far from converged; halving the panels
        # moves the sum, so the rule declines and the model is sampled.
        model, lower, upper = equicorrelated(5, 0.95), -np.ones(5), np.full(5, 1.5)
        nodes, weights = np.polynomial.legendre.leggauss(2)
        monkeypatch.setattr(mvnprob, "_GL_NODES", nodes)
        monkeypatch.setattr(mvnprob, "_GL_WEIGHTS", weights)
        est = rect_prob(model, lower, upper, budget=4096, seed=2)
        assert est == mvnprob._qmc_rect_prob(model.sigma, lower, upper, 4096, 2)

    def test_qmc_engine_on_equicorrelated_model(self):
        # The sampling engine's own check against an exact value, now that
        # rect_prob no longer samples these models.
        lam = np.full(6, math.sqrt(0.6))
        lower, upper = np.array([-1.0, -2.0, -np.inf, -0.5, -1.5, 0.2]), np.full(6, 1.7)
        est = mvnprob._qmc_rect_prob(equicorrelated(6, 0.6).sigma, lower, upper, 2 ** 16, 5)
        assert est.method == "qmc"
        assert abs(est.value - oracles.one_factor_quad(lam, lower, upper)) <= \
            3 * est.stderr + 1e-9

    def test_steep_model_is_no_slower_than_qmc(self):
        # At rho = 0.999 the factors switch over 0.045 in z; graded panels keep
        # the rule's cost bounded there.
        def best_time(call, repeat):
            times = []
            for _ in range(repeat):
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
            return min(times)

        model = equicorrelated(12, 0.999)
        rng = np.random.default_rng(12)
        for lower, upper in [(-np.full(12, 2.5), np.full(12, 2.5)), _one_factor_bounds(rng, 12)]:
            assert rect_prob(model, lower, upper, 2 ** 14, 1).method == "one-factor"
            rule_s = best_time(lambda: rect_prob(model, lower, upper, 2 ** 14, 1), 5)
            qmc_s = best_time(
                lambda: mvnprob._qmc_rect_prob(model.sigma, lower, upper, 2 ** 14, 1), 3)
            assert rule_s <= qmc_s


def _stays_on_qmc_cases():
    lam = np.array([0.8, 0.6, 0.5, 0.7])
    one_factor = np.outer(lam, lam)
    np.fill_diagonal(one_factor, 1.0)
    factor_copy = np.outer([1.0, 1.0, 0.6, 0.5], [1.0, 1.0, 0.6, 0.5])
    np.fill_diagonal(factor_copy, 1.0)  # X_0 = X_1 = Z: off-diagonal rank one, lam_0 = 1
    cases = {"negative equicorrelation": equicorrelated(4, -0.2),
             "rho = 1": equicorrelated(4, 1.0),
             "duplicated coordinate": from_covariance(factor_copy),
             "duplicate of a loaded coordinate": from_covariance(
                 one_factor[np.ix_([0, 0, 1, 2], [0, 0, 1, 2])])}
    for d in (2, 3, 4):
        for seed in (1, 2):
            cases[f"random n = 4, d = {d}, seed {seed}"] = random_correlation(4, d, seed)
    return cases


class TestOneFactorEligibility:
    """Models without a real one-factor form go to the oracle (d <= 2) or to QMC, bit for bit."""

    @pytest.mark.parametrize("lam, zero", [([0.8, 0.6, 0.7], 2), (None, 4)],
                             ids=["one factor", "equicorrelated"])
    def test_zero_variance_coordinate_drops_out(self, lam, zero):
        # X_zero = 0 lies inside its bounds, so the rest decides the method.
        block = equicorrelated(4, 0.5).sigma.copy() if lam is None else np.outer(lam, lam)
        np.fill_diagonal(block, 1.0)
        rest = np.arange(len(block) + 1) != zero
        sigma = np.zeros((len(block) + 1,) * 2)
        sigma[np.ix_(rest, rest)] = block
        lower = np.array([-1.0, -0.5, -2.0, -np.inf, -1.5])[:len(sigma)]
        upper = np.array([1.2, 1.5, 0.8, 1.0, 0.3])[:len(sigma)]
        est = rect_prob(from_covariance(sigma), lower, upper, budget=4096, seed=3)
        assert est.method == "one-factor"
        assert est == rect_prob(from_covariance(block), lower[rest], upper[rest],
                                budget=4096, seed=3)

    @pytest.mark.parametrize("name", sorted(_stays_on_qmc_cases()))
    def test_stays_on_qmc(self, name):
        model = _stays_on_qmc_cases()[name]
        lower, upper = np.array([-1.0, -0.5, -2.0, -np.inf]), np.array([1.2, 1.5, 0.8, 1.0])
        est = rect_prob(model, lower, upper, budget=4096, seed=3)
        assert mvnprob._one_factor_loadings(model.sigma) is None
        if model.dim <= 2:
            exact = oracle_region_prob(model.factor_rows, lower, upper)
            assert (est.method, est.stderr, est.samples, est.seed) == \
                ("quadrature-oracle", ORACLE_TOL, 0, None)
            assert abs(est.value - exact) <= 1e-12
        else:
            assert est.method == "qmc"
            assert est == mvnprob._qmc_rect_prob(model.sigma, lower, upper, 4096, 3)

    def test_scaled_one_factor_model_is_eligible(self):
        # Standardization rounds, so the rank-one fit, not exact equality, decides.
        d = np.array([1e-3, 2.0, 7.0, 1e4])
        model = from_covariance(d[:, None] * equicorrelated(4, 0.3).sigma * d[None, :])
        sd = np.sqrt(model.variances)
        lam = mvnprob._one_factor_loadings(model.sigma / sd / sd[:, None])
        assert np.allclose(sd, d, rtol=1e-14) and np.allclose(lam, math.sqrt(0.3), rtol=1e-12)
        est = rect_prob(model, -d, 2 * d, budget=4096, seed=0)
        expect = oracles.one_factor_quad(lam, -np.ones(4), np.full(4, 2.0))
        assert est.method == "one-factor" and abs(est.value - expect) <= 1e-9
