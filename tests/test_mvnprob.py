"""Normal CDF primitives, the QMC rectangle engine, and the quadrature oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gcilab import mvnprob
from gcilab.convexgeom import Polygon2D
from gcilab.errors import (
    BudgetTooSmall,
    DimensionTooLarge,
    InvalidBounds,
    InvalidParameters,
    OutOfRange,
)
from gcilab.gaussmodel import ThresholdVector, from_covariance, random_correlation
from gcilab.ineqlab import check_sidak
from gcilab.mvnprob import (
    ORACLE_TOL,
    inv_std_normal_cdf,
    oracle_rect_prob,
    oracle_region_prob,
    rect_prob,
    std_normal_cdf,
    symmetric_rect_prob,
)
from gcilab.sidakcorrect import improved_confidence


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_exact_at_infinity(self):
        assert std_normal_cdf(math.inf) == 1.0
        assert std_normal_cdf(-math.inf) == 0.0

    def test_against_quadrature(self):
        for x in [-6.0, -2.5, -1.0, -0.3, 0.7, 1.0, 2.0, 4.5]:
            assert abs(std_normal_cdf(x) - oracles.phi_quad(x)) <= 1e-12
        assert abs(std_normal_cdf(1.0) - 0.8413447) < 1e-6

    def test_deep_tail_clamped(self):
        assert std_normal_cdf(-45.0) >= 1e-300

    def test_nan_rejected(self):
        with pytest.raises(OutOfRange):
            std_normal_cdf(float("nan"))


class TestInvStdNormalCdf:
    def test_median(self):
        assert inv_std_normal_cdf(0.5) == 0.0

    def test_against_bisection_oracle(self):
        for p in [0.975, 0.6, 0.1, 0.9974420]:
            assert abs(inv_std_normal_cdf(p) - oracles.phi_inv_quad(p)) < 1e-9
        assert abs(inv_std_normal_cdf(0.975) - 1.959964) < 1e-5

    def test_roundtrip(self):
        for p in [1e-8, 0.2, 0.5, 0.77, 1 - 1e-8]:
            assert abs(std_normal_cdf(inv_std_normal_cdf(p)) - p) <= 1e-10

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

    def test_stderr_small_at_full_budget(self):
        rng = np.random.default_rng(44)
        for seed in range(5):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, n + 1))
            m = random_correlation(n, d, 1_300 + seed)
            c = rng.uniform(0.5, 2.0, size=n)
            est = rect_prob(m, -c, c, budget=2 ** 16, seed=seed)
            assert est.stderr <= 1e-4


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
    """At a fixed seed, rect_prob is invariant under relabelling and rescaling coordinates."""

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


class TestReplicateBlocks:
    """Estimates do not depend on how many replicates share one kernel call."""

    def test_block_size_invariance(self, monkeypatch):
        rank_deficient = random_correlation(6, 2, 3)  # dependent rows fold into free ones
        cases = [(random_correlation(3, 2, 1), [-1.0, -0.5, -np.inf], [1.0, 1.5, 0.8], 1 << 13),
                 (random_correlation(5, 5, 2), -np.full(5, 1.2), np.full(5, 1.2), 1 << 14),
                 (rank_deficient, -np.full(6, 1.0), np.array([1.0, 2.0, np.inf, 0.5, 1.0, 1.5]),
                  1 << 14),
                 (random_correlation(12, 4, 4), -np.full(12, 1.5), np.full(12, 1.5), 1 << 14),
                 (random_correlation(6, 6, 5), -np.full(6, 0.9), np.full(6, 1.3), 1 << 16)]

        def estimates():
            return [(e.value, e.stderr, e.samples) for e in
                    (rect_prob(m, lo, hi, budget, seed=k) for k, (m, lo, hi, budget)
                     in enumerate(cases))]

        default = estimates()
        monkeypatch.setattr(mvnprob, "QMC_BLOCK", 1)
        assert estimates() == default


class TestOracleBlocks:
    """The planar oracle's envelopes do not depend on their column block size."""

    def test_block_size_invariance(self, monkeypatch):
        normals, offsets = Polygon2D.regular(64, 1.3, 0.1).edge_normals()
        rank_two = random_correlation(40, 2, 3)
        c = np.linspace(0.8, 2.0, 40)

        def values():
            return (oracle_region_prob(normals, np.full(64, -np.inf), offsets),
                    oracle_region_prob(rank_two.factor_rows, -c, c))

        default = values()
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
        est = oracle_rect_prob(m, [-3.0], [3.0])
        assert abs(est.value - oracles.sym_prob_quad(3.0)) <= 1e-7
        assert abs(est.value - 0.9973002) < 1e-6

    def test_rotated_diamond_interval(self):
        # Half-width (N + 1/N)/sqrt(2) at N = 3.
        half = (3 + 1 / 3) / math.sqrt(2)
        m = from_covariance(np.eye(1))
        est = oracle_rect_prob(m, [-half], [half])
        assert abs(est.value - oracles.sym_prob_quad(half)) <= 1e-7
        assert abs(est.value - 0.9813) < 1e-3

    def test_product_factorization(self):
        m = from_covariance(np.eye(2))
        est = oracle_rect_prob(m, [-1, -1], [1, 1])
        assert abs(est.value - oracles.sym_prob_quad(1.0) ** 2) <= 1e-7

    def test_method_tag_and_stderr(self):
        m = from_covariance(np.eye(1))
        est = oracle_rect_prob(m, [-1], [1])
        assert est.method == "quadrature-oracle"
        assert est.stderr == 1e-7

    def test_dimension_cap(self):
        m = random_correlation(4, 4, 0)
        with pytest.raises(DimensionTooLarge):
            oracle_rect_prob(m, np.full(4, -1.0), np.full(4, 1.0))

    def test_bivariate_against_conditioning_quadrature(self):
        for rho in [-0.7, 0.0, 0.3, 0.9]:
            m = from_covariance([[1, rho], [rho, 1]])
            est = oracle_rect_prob(m, [-1.0, -0.5], [0.8, 1.5])
            expect = oracles.bivariate_rect_quad(rho, [-1.0, -0.5], [0.8, 1.5])
            assert abs(est.value - expect) <= 2e-7

    def test_three_dimensional_product(self):
        m = from_covariance(np.eye(3))
        est = oracle_rect_prob(m, [-1, -0.5, -2], [1, 0.5, 2])
        expect = (oracles.sym_prob_quad(1.0) * oracles.sym_prob_quad(0.5)
                  * oracles.sym_prob_quad(2.0))
        assert abs(est.value - expect) <= 1e-7

    @pytest.mark.parametrize("n", [20, 40])
    def test_large_rank_two_bands(self, n):
        # Hundreds of pairwise crossings, more breakpoints than scipy's quad
        # accepts (it raises ValueError past its subinterval limit).
        m = random_correlation(n, 2, 900 + n)
        c = np.random.default_rng(n).uniform(0.8, 3.0, size=n)
        oracle_est = oracle_rect_prob(m, -c, c)
        qmc_est = rect_prob(m, -c, c, budget=2 ** 16, seed=n)
        assert abs(oracle_est.value - qmc_est.value) <= 3 * qmc_est.stderr + ORACLE_TOL

    def test_three_dimensional_vertex_kinks(self):
        # The layer mass has kinks at the vertices' first coordinates; unless
        # they are breakpoints, quad's error estimate misses them (1.5e-6 here).
        m = random_correlation(3, 3, 208)
        lo = np.array([-2.39928877, -1.80025343, -0.75676462])
        hi = np.array([1.5050067, 2.33846238, 2.0380234])
        qmc_est = rect_prob(m, lo, hi, budget=2 ** 16, seed=208)
        assert abs(oracle_rect_prob(m, lo, hi).value - qmc_est.value) <= \
            3 * qmc_est.stderr + ORACLE_TOL

    @pytest.mark.parametrize("d", [2, 3])
    def test_rotated_box_is_rotation_invariant(self, d):
        rng = np.random.default_rng(d)
        for _ in range(5):
            rot, _ = np.linalg.qr(rng.standard_normal((d, d)))
            c = rng.uniform(0.3, 2.5, size=d)
            lo = np.where(rng.random(d) < 0.3, -np.inf, -c)
            expect = math.prod(std_normal_cdf(b) - std_normal_cdf(a) for a, b in zip(lo, c))
            assert abs(oracle_region_prob(rot, lo, c) - expect) <= ORACLE_TOL

    @pytest.mark.parametrize("theta", [1e-2, 1e-4, 1e-8])
    def test_nearly_axis_aligned_rows(self, theta):
        # A row almost along x makes a steep bound on y; where no other bound
        # crosses it, a fixed-width panel rule in x misses how fast its CDF moves.
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        lo, hi = np.array([-1.4, -np.inf]), np.array([0.9, 2.2])
        expect = (std_normal_cdf(0.9) - std_normal_cdf(-1.4)) * std_normal_cdf(2.2)
        assert abs(oracle_region_prob(rot, lo, hi) - expect) <= 1e-12

    def test_one_dimensional_is_exact_cdf_difference(self):
        rows = np.array([[2.0], [-0.5]])
        val = oracle_region_prob(rows, np.array([-1.0, -np.inf]), np.array([3.0, 0.4]))
        # 2y in [-1, 3] and -y/2 <= 0.4 give y in [-0.5, 1.5]
        assert val == std_normal_cdf(1.5) - std_normal_cdf(-0.5)

    def test_region_prob_handles_degenerate_rows(self):
        rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        val = oracle_region_prob(rows, np.array([-1.0, -2.0, -1.0]),
                                 np.array([1.0, 2.0, 1.0]))
        expect = oracles.sym_prob_quad(1.0) ** 2
        assert abs(val - expect) <= 1e-7


class TestQmcOracleAgreement:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), data=st.data())
    def test_property(self, seed, n, data):
        d = data.draw(st.integers(1, min(n, 3)))
        rng = np.random.default_rng(seed)
        m = random_correlation(n, d, seed)
        lo = -rng.uniform(0.3, 2.5, size=n)
        hi = rng.uniform(0.3, 2.5, size=n)
        lo[rng.random(n) < 0.2] = -np.inf
        qmc_est = rect_prob(m, lo, hi, budget=2 ** 16, seed=seed)
        oracle_est = oracle_rect_prob(m, lo, hi)
        tol = 3 * qmc_est.stderr + 3 * oracle_est.stderr
        assert abs(qmc_est.value - oracle_est.value) <= tol

    def test_sweep(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            n = int(rng.integers(1, 6))
            d = int(rng.integers(1, min(n, 3) + 1))
            m = random_correlation(n, d, seed)
            c = rng.uniform(0.4, 2.0, size=n)
            qmc_est = rect_prob(m, -c, c, budget=2 ** 13, seed=seed)
            oracle_est = oracle_rect_prob(m, -c, c)
            tol = 3 * qmc_est.stderr + 3 * oracle_est.stderr
            assert abs(qmc_est.value - oracle_est.value) <= tol
