"""Inequality checkers: examples, sweeps, verdicts, and report schema."""

import json
import math

import jsonschema
import numpy as np
import pytest

import oracles
from gcilab import ineqlab, measure
from gcilab.convexgeom import (
    HPolytope,
    Polygon2D,
    SymmetricBand,
    minkowski_sum,
    random_symmetric_polygon,
    random_unconditional_hpolytope,
)
from gcilab.errors import DimensionMismatch, InvalidParameters, NotUnconditional
from gcilab.gaussmodel import (
    CorrelationModel,
    ThresholdVector,
    from_covariance,
    random_correlation,
)
from gcilab.ineqlab import (
    _FAMILY_SETUP,
    EXPLORATORY,
    INCONCLUSIVE,
    REPORT_SCHEMA,
    SEARCH_FAMILIES,
    SUPPORTED,
    THEOREM_BACKED,
    VIOLATED,
    _measure,
    check_lattice_premise,
    check_refined_sidak,
    check_rogers_shephard,
    check_royen,
    check_sidak,
    check_slab,
    check_strong_gci_2d,
    check_strong_gci_bands,
    check_tehranchi,
    check_unconditional,
    classify,
    hull_counterexample,
    is_theorem_backed,
    search_counterexample,
    sidak_ratio,
    strong_ratio,
    tensorize_check,
)
from gcilab.measure import minkowski_measure_mc
from gcilab.mvnprob import Estimate, ProbabilityEstimate, symmetric_rect_prob

RANK1_2 = from_covariance(np.ones((2, 2)))
RANK1_3 = from_covariance(np.ones((3, 3)))
ID2 = from_covariance(np.eye(2))
ONES2 = ThresholdVector([1.0, 1.0])
ONES3 = ThresholdVector([1.0, 1.0, 1.0])


class TestVerdicts:
    def test_classification_bands(self):
        assert classify(1.0, 0.1) == SUPPORTED
        assert classify(-1.0, 0.1) == VIOLATED
        assert classify(0.1, 0.1) == INCONCLUSIVE
        assert classify(0.0, 0.0) == SUPPORTED

    def test_backing_partition(self):
        assert THEOREM_BACKED.isdisjoint(EXPLORATORY)
        assert is_theorem_backed("royen")
        assert not is_theorem_backed("strong-gci-2d")

    def test_estimate_propagation(self):
        a, b = Estimate(0.5, 0.01), Estimate(0.4, 0.02)
        prod = a.times(b)
        assert abs(prod.value - 0.2) <= 1e-15
        assert abs(prod.stderr - (0.5 * 0.02 + 0.4 * 0.01)) <= 1e-15
        ratio = a.over(b)
        assert abs(ratio.value - 1.25) <= 1e-15
        power = a.powered(3)
        assert abs(power.stderr - 3 * 0.25 * 0.01) <= 1e-15
        diff = a.minus(b)
        assert abs(diff.value - 0.1) <= 1e-15
        assert diff.stderr == math.hypot(0.01, 0.02)
        assert a.lower_bound == 0.5 - 3.0 * 0.01
        assert Estimate(0.25).lower_bound == 0.25
        # Measurements are the same type and keep their provenance.
        est = symmetric_rect_prob(RANK1_2, ONES2, budget=2 ** 12, seed=5)
        assert ProbabilityEstimate is Estimate and isinstance(est, Estimate)
        assert (est.method, est.samples, est.seed) == ("quadrature-oracle", 0, None)
        est = symmetric_rect_prob(random_correlation(3, 3, 1), ONES3, budget=2 ** 12, seed=5)
        assert (est.method, est.seed) == ("qmc", 5)


class TestSidak:
    def test_identity_margin_zero(self):
        rep = check_sidak(ID2, ONES2, budget=2 ** 12, seed=1)
        assert abs(rep.margin) <= 3 * rep.stderr
        assert rep.verdict != VIOLATED

    def test_rank_one_collapse(self):
        rep = check_sidak(RANK1_3, ONES3, budget=2 ** 12, seed=2)
        g = oracles.sym_prob_quad(1.0)
        assert abs(rep.lhs.value - g) <= 3 * rep.lhs.stderr + 1e-9
        assert abs(rep.rhs.value - g ** 3) <= 1e-9
        assert abs(rep.margin - 0.364) < 1e-3
        assert rep.verdict == SUPPORTED

    def test_correlated_pair_supported(self):
        model = from_covariance([[1, 0.5], [0.5, 1]])
        rep = check_sidak(model, ONES2, budget=2 ** 13, seed=3)
        expect = oracles.bivariate_rect_quad(0.5, [-1, -1], [1, 1]) \
            - oracles.sym_prob_quad(1.0) ** 2
        assert abs(rep.margin - expect) <= 3 * rep.stderr + 1e-6
        assert rep.verdict == SUPPORTED

    def test_sweep_never_violated(self):
        rng = np.random.default_rng(5)
        for seed in range(30):
            n = int(rng.integers(2, 6))
            model = random_correlation(n, int(rng.integers(1, n + 1)), seed)
            c = ThresholdVector(rng.uniform(0.4, 2.2, size=n))
            rep = check_sidak(model, c, budget=2 ** 12, seed=seed)
            assert rep.verdict != VIOLATED


class TestRefinedSidak:
    def test_identity_margin_zero(self):
        rep = check_refined_sidak(ID2, ONES2, a=1.0, index=0, budget=2 ** 12, seed=1)
        assert abs(rep.margin) <= 3 * rep.stderr + 1e-12

    def test_infinite_widening_reduces_to_single_step(self):
        model = random_correlation(4, 2, 9)
        c = ThresholdVector([1.0, 0.8, 1.2, 0.9])
        rep_inf = check_refined_sidak(model, c, a=np.inf, index=2,
                                      budget=2 ** 13, seed=4)
        # The single-coordinate step: coordinate 2 against the rest.
        perm = [2, 0, 1, 3]
        perm_model = from_covariance(model.sigma[np.ix_(perm, perm)])
        perm_c = ThresholdVector(c.as_array[perm])
        rep_step = check_royen(perm_model, perm_c, split=1, budget=2 ** 13, seed=5)
        tol = 3 * math.hypot(rep_inf.stderr, rep_step.stderr)
        assert abs(rep_inf.margin - rep_step.margin) <= tol

    def test_high_correlation_against_oracle(self):
        model = from_covariance([[1, 0.9], [0.9, 1]])
        rep = check_refined_sidak(model, ONES2, a=1.0, index=0, budget=2 ** 14, seed=6)
        joint_11 = oracles.bivariate_rect_quad(0.9, [-1, -1], [1, 1])
        joint_21 = oracles.bivariate_rect_quad(0.9, [-2, -1], [2, 1])
        lhs = oracles.sym_prob_quad(2.0) * joint_11
        rhs = oracles.sym_prob_quad(1.0) * joint_21
        assert abs(rep.lhs.value - lhs) <= 3 * rep.lhs.stderr + 1e-6
        assert abs(rep.rhs.value - rhs) <= 3 * rep.rhs.stderr + 1e-6
        assert rep.verdict == SUPPORTED

    def test_invalid_widening(self):
        with pytest.raises(InvalidParameters):
            check_refined_sidak(ID2, ONES2, a=0.0, budget=2 ** 12, seed=0)

    def test_sweep_never_violated(self):
        rng = np.random.default_rng(8)
        for seed in range(25):
            n = int(rng.integers(2, 5))
            model = random_correlation(n, int(rng.integers(1, n + 1)), seed + 40)
            c = ThresholdVector(rng.uniform(0.5, 1.8, size=n))
            a = float(rng.uniform(0.2, 2.5))
            rep = check_refined_sidak(model, c, a, int(rng.integers(n)),
                                      budget=2 ** 12, seed=seed)
            assert rep.verdict != VIOLATED


class TestSidakRatio:
    def test_identity_is_one(self):
        est = sidak_ratio(ID2, ONES2, budget=2 ** 12, seed=1)
        assert abs(est.value - 1.0) <= 3 * est.stderr + 1e-9

    def test_rank_one_value(self):
        est = sidak_ratio(RANK1_2, ONES2, budget=2 ** 12, seed=2)
        expect = 1.0 / oracles.sym_prob_quad(1.0)
        assert abs(est.value - expect) <= 3 * est.stderr + 1e-6
        assert abs(expect - 1.4648) < 1e-3

    def test_infinite_thresholds_drop_out(self):
        model = random_correlation(3, 2, 3)
        c = ThresholdVector([1.0, np.inf, 1.0])
        sub = model.submodel([0, 2])
        full = sidak_ratio(model, c, budget=2 ** 13, seed=4)
        reduced = sidak_ratio(sub, ONES2, budget=2 ** 13, seed=5)
        assert abs(full.value - reduced.value) <= 3 * (full.stderr + reduced.stderr)

    def test_monotone_under_widening(self):
        rng = np.random.default_rng(10)
        for seed in range(20):
            n = int(rng.integers(2, 5))
            model = random_correlation(n, int(rng.integers(1, n + 1)), seed + 99)
            c = ThresholdVector(rng.uniform(0.5, 1.5, size=n))
            a = float(rng.uniform(0.2, 2.0))
            wider = c.widened(a, int(rng.integers(n))) if seed % 2 else c.widened(a)
            r1 = sidak_ratio(model, c, budget=2 ** 12, seed=seed)
            r2 = sidak_ratio(model, wider, budget=2 ** 12, seed=seed + 1)
            assert r1.value >= r2.value - 3 * math.hypot(r1.stderr, r2.stderr)


class TestRoyen:
    def test_block_diagonal_equality(self):
        m1 = random_correlation(2, 2, 1)
        m2 = random_correlation(2, 2, 2)
        sigma = np.zeros((4, 4))
        sigma[:2, :2] = m1.sigma
        sigma[2:, 2:] = m2.sigma
        model = from_covariance(sigma)
        rep = check_royen(model, ThresholdVector([1, 0.8, 1.2, 1.0]), split=2,
                          budget=2 ** 13, seed=3)
        assert abs(rep.margin) <= 3 * rep.stderr + 1e-6

    def test_rank_one_split(self):
        rep = check_royen(RANK1_2, ONES2, split=1, budget=2 ** 12, seed=4)
        g = oracles.sym_prob_quad(1.0)
        assert abs(rep.lhs.value - g) <= 1e-6
        assert abs(rep.rhs.value - g * g) <= 1e-6
        assert rep.verdict == SUPPORTED

    def test_invalid_split(self):
        with pytest.raises(InvalidParameters):
            check_royen(ID2, ONES2, split=2, budget=2 ** 12, seed=0)

    def test_sweep_never_violated(self):
        rng = np.random.default_rng(11)
        for seed in range(25):
            model = random_correlation(4, 2, seed + 200)
            c = ThresholdVector(rng.uniform(0.5, 2.0, size=4))
            rep = check_royen(model, c, split=2, budget=2 ** 12, seed=seed)
            assert rep.verdict != VIOLATED


class TestStrongGciBands:
    def test_equal_thresholds_supported(self):
        model = random_correlation(3, 2, 5)
        s = ThresholdVector([0.8, 1.1, 0.6])
        rep = check_strong_gci_bands(model, s, s, budget=2 ** 12, seed=1)
        assert rep.verdict == SUPPORTED

    def test_identity_factorizes_into_univariate_oracle(self):
        model = from_covariance(np.eye(2))
        s = ThresholdVector([1.0, 0.5])
        t = ThresholdVector([0.7, 1.3])
        rep = check_strong_gci_bands(model, s, t, budget=2 ** 12, seed=2)
        lhs = (oracles.sym_prob_quad(1.7) * oracles.sym_prob_quad(1.8)
               * oracles.sym_prob_quad(0.7) * oracles.sym_prob_quad(0.5))
        rhs = (oracles.sym_prob_quad(1.0) * oracles.sym_prob_quad(0.5)
               * oracles.sym_prob_quad(0.7) * oracles.sym_prob_quad(1.3))
        assert abs(rep.lhs.value - lhs) <= 1e-9
        assert abs(rep.rhs.value - rhs) <= 1e-9

    def test_exploratory_sweep_records_verdicts(self):
        rng = np.random.default_rng(12)
        verdicts = set()
        for seed in range(15):
            model = random_correlation(3, 2, seed + 300)
            s = ThresholdVector(rng.uniform(0.3, 2.0, size=3))
            t = ThresholdVector(rng.uniform(0.3, 2.0, size=3))
            rep = check_strong_gci_bands(model, s, t, budget=2 ** 12, seed=seed)
            verdicts.add(rep.verdict)
        assert verdicts <= {SUPPORTED, INCONCLUSIVE, VIOLATED}


class TestPlanarDispatch:
    """Polygons and 2-D H-polytopes are measured by the quadrature oracle."""

    def test_polygons_match_polar_reference(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            p = random_symmetric_polygon(rng, points=int(rng.integers(3, 9)))
            assert abs(_measure(p, 0, 0).value
                       - oracles.planar_measure_polar(*p.edge_normals())) <= 1e-10

    def test_hpolytopes_and_sum_match_polar_reference(self):
        rng = np.random.default_rng(32)
        bodies = [random_unconditional_hpolytope(rng, dim=2) for _ in range(6)]
        bodies.append(minkowski_sum(bodies[0], bodies[1]))
        for h in bodies:
            assert abs(_measure(h, 0, 0).value
                       - oracles.planar_measure_polar(h.normals, h.offsets)) <= 1e-10

    @pytest.mark.parametrize("hx, hy", [(0.3, 2.0), (1.0, 1.0), (3.0, 0.5)])
    def test_boxes_are_erf_products(self, hx, hy):
        expect = math.erf(hx / math.sqrt(2.0)) * math.erf(hy / math.sqrt(2.0))
        for box in (Polygon2D.box(hx, hy), HPolytope.axis_box([hx, hy])):
            assert abs(_measure(box, 0, 0).value - expect) <= 1e-10

    def test_polygons_match_their_rank_two_bands(self):
        # A symmetric polygon is the band {|a_i . y| <= b_i} over one edge normal
        # a_i per +- pair, so both routes reach the same planar oracle.
        rng = np.random.default_rng(35)
        for _ in range(5):
            p = random_symmetric_polygon(rng, points=int(rng.integers(2, 7)))
            normals, offsets = p.edge_normals()
            half = len(offsets) // 2
            assert np.allclose(normals[half:], -normals[:half], atol=1e-12)
            model = CorrelationModel(sigma=normals[:half] @ normals[:half].T,
                                     factor_rows=normals[:half])
            band = symmetric_rect_prob(model, ThresholdVector(offsets[:half]), 4096, 1)
            assert abs(band.value - _measure(p, 0, 0).value) <= 1e-12

    def test_method_tags(self):
        rng = np.random.default_rng(33)
        k2, t2 = (random_unconditional_hpolytope(rng, dim=2) for _ in range(2))
        k3 = random_unconditional_hpolytope(rng, dim=3)
        band = SymmetricBand(random_correlation(3, 2, 1), ONES3)
        band3 = SymmetricBand(random_correlation(4, 3, 1), ThresholdVector.constant(4, 1.0))
        cases = [(random_symmetric_polygon(rng), "quadrature-oracle"),
                 (k2, "quadrature-oracle"), (k3, "mc"), ((k2, t2), "mc"),
                 (band, "quadrature-oracle"), (band3, "qmc")]
        for body, method in cases:
            est = _measure(body, 10_000, 4)
            assert est.method == method
            if method == "quadrature-oracle":
                assert (est.samples, est.seed) == (0, None)

    def test_planar_checkers_never_sample(self, monkeypatch):
        def sampled(*args, **kwargs):
            raise AssertionError("a planar body reached Monte Carlo")

        monkeypatch.setattr(ineqlab, "gauss_measure_mc", sampled)
        monkeypatch.setattr(ineqlab, "minkowski_measure_mc", sampled)
        p = random_symmetric_polygon(np.random.default_rng(34))
        q = Polygon2D.box(1.5, 0.6)

        def margins(budget, seed):
            reports = [check_strong_gci_2d(p, q, budget, seed),
                       check_slab(p, [1.0, 0.5], 0.8, budget, seed),
                       hull_counterexample(2.5, budget, seed).report]
            return [(rep.margin, rep.stderr) for rep in reports]

        assert margins(10_000, 1) == margins(50, 7)  # budget and seed do not move 2-D terms


class TestStrongGci2d:
    def test_same_body_supported(self):
        p = random_symmetric_polygon(3)
        rep = check_strong_gci_2d(p, p, budget=50_000, seed=1)
        assert rep.verdict == SUPPORTED

    def test_crossed_rectangles_sum_form_holds(self):
        k = Polygon2D.box(1 / 3, 3.0)
        t = Polygon2D.box(3.0, 1 / 3)
        rep = check_strong_gci_2d(k, t, budget=200_000, seed=2)
        assert rep.verdict != VIOLATED
        # Exact values: everything here is an axis box except the sum octagon.
        g = oracles.sym_prob_quad
        rhs = (g(1 / 3) * g(3.0)) ** 2
        assert abs(rep.rhs.value - rhs) <= 3 * rep.rhs.stderr + 1e-4

    def test_random_rotated_boxes(self):
        rng = np.random.default_rng(13)
        for seed in range(4):
            theta = rng.uniform(0, math.pi / 2)
            rot = np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
            p = Polygon2D.box(float(rng.uniform(0.4, 2)), float(rng.uniform(0.4, 2)))
            q = p.transformed(rot)
            rep = check_strong_gci_2d(p, q, budget=50_000, seed=seed)
            assert rep.verdict in {SUPPORTED, INCONCLUSIVE}


class TestSlab:
    def test_absorbed_body_margin_zero(self):
        body = Polygon2D.box(0.5, 0.5)
        rep = check_slab(body, [1.0, 0.0], 1.0, budget=50_000, seed=1)
        assert abs(rep.margin) <= 3 * rep.stderr
        assert rep.verdict != VIOLATED

    def test_axis_square_is_equality_case(self):
        # Axis-aligned box against an axis slab factorizes, so margin ~ 0.
        body = Polygon2D.box(1.0, 1.0)
        rep = check_slab(body, [0.0, 1.0], 1.0, budget=100_000, seed=2)
        assert abs(rep.margin) <= 3 * rep.stderr
        assert rep.verdict != VIOLATED

    def test_tilted_thin_rectangle_supported(self):
        theta = 0.5
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        body = Polygon2D.box(0.2, 3.0).transformed(rot)
        rep = check_slab(body, [0.0, 1.0], 0.5, budget=150_000, seed=3)
        assert rep.verdict == SUPPORTED

    def test_band_mode_never_violated(self):
        rng = np.random.default_rng(14)
        for seed in range(10):
            model = random_correlation(3, 2, seed + 400)
            c = ThresholdVector(rng.uniform(0.5, 1.5, size=3))
            band = SymmetricBand(model, c)
            rep = check_slab(band, int(rng.integers(3)), float(rng.uniform(0.3, 2.0)),
                             budget=2 ** 12, seed=seed)
            assert rep.verdict != VIOLATED

    def test_band_absorbing_width_margin_zero(self):
        model = random_correlation(2, 2, 21)
        band = SymmetricBand(model, ThresholdVector([1.0, 1.0]))
        rep = check_slab(band, 0, 5.0, budget=2 ** 12, seed=2)
        assert abs(rep.margin) <= 3 * rep.stderr + 1e-12

    def test_exact_ties_margin_exactly_zero(self):
        # K inside the slab, so K inter S = K: both sides are gamma(K) gamma(S)
        # and must come from one measurement of K, not two with different seeds.
        polygon = random_symmetric_polygon(np.random.default_rng(8), points=5)
        band = SymmetricBand(random_correlation(3, 2, 22), ThresholdVector([0.8, 1.0, 1.2]))
        cases = [(Polygon2D.box(0.5, 0.3), [1.0, 1.0], 1.0),
                 (Polygon2D.box(0.5, 0.3), [1.0, 0.0], 0.5),
                 (polygon, [0.6, -0.8], polygon.support(np.array([0.6, -0.8])) + 0.1),
                 (band, 1, 1.5), (band, 0, 0.8)]
        for seed in range(30):
            for body, direction, width in cases:
                rep = check_slab(body, direction, width, budget=10_000, seed=seed)
                assert rep.margin == 0.0
                assert rep.verdict != VIOLATED

    def test_huge_direction_matches_unit_direction(self):
        body = Polygon2D.box(1.0, 0.5)
        huge = check_slab(body, [1e200, 1e200], 0.6, budget=10_000, seed=4).to_json_dict()
        unit = check_slab(body, [1.0, 1.0], 0.6, budget=10_000, seed=4).to_json_dict()
        huge.pop("runtime_ms")
        unit.pop("runtime_ms")
        assert huge == unit
        assert unit["verdict"] == SUPPORTED

    @pytest.mark.parametrize("direction", [[0.0, 0.0], [math.inf, 0.0], [math.nan, 1.0]])
    def test_rejects_degenerate_direction(self, direction):
        with pytest.raises(InvalidParameters):
            check_slab(Polygon2D.box(1.0, 1.0), direction, 0.5, budget=10_000, seed=0)

    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_width(self, width):
        band = SymmetricBand(random_correlation(2, 2, 21), ThresholdVector([1.0, 1.0]))
        for body, direction in ((Polygon2D.box(1.0, 1.0), [1.0, 0.0]), (band, 0)):
            with pytest.raises(InvalidParameters):
                check_slab(body, direction, width, budget=2 ** 14, seed=0)


class TestUnconditional:
    def test_axis_boxes_against_interval_arithmetic(self):
        k = HPolytope.axis_box([1.0, 0.6])
        t = HPolytope.axis_box([0.5, 1.2])
        rep = check_unconditional(k, t, budget=40_000, seed=1)
        g = oracles.sym_prob_quad
        lhs = g(1.5) * g(1.8) * g(0.5) * g(0.6)
        rhs = g(1.0) * g(0.6) * g(0.5) * g(1.2)
        assert abs(rep.lhs.value - lhs) <= 3 * rep.lhs.stderr + 1e-3
        assert abs(rep.rhs.value - rhs) <= 3 * rep.rhs.stderr + 1e-3
        assert rep.verdict != VIOLATED

    def test_l1_ball_and_box(self):
        k = oracles.weighted_l1_ball([1.0, 0.7], 1.2)
        t = HPolytope.axis_box([0.8, 1.5])
        rep = check_unconditional(k, t, budget=40_000, seed=2)
        assert rep.verdict in {SUPPORTED, INCONCLUSIVE}

    def test_same_body(self):
        k = random_unconditional_hpolytope(5)
        rep = check_unconditional(k, k, budget=40_000, seed=3)
        assert rep.verdict == SUPPORTED

    def test_rejects_conditional_bodies(self):
        rot = HPolytope.symmetric([[0.8, 0.6], [0.6, -0.8]], [1.0, 1.0])
        box = HPolytope.axis_box([1.0, 1.0])
        with pytest.raises(NotUnconditional):
            check_unconditional(rot, box, budget=40_000, seed=0)


class TestLatticePremise:
    def test_axis_boxes(self):
        k = HPolytope.axis_box([1.0, 0.7])
        t = HPolytope.axis_box([0.6, 1.4])
        rep = check_lattice_premise(k, t, samples=300, seed=1)
        assert rep.passed and rep.pairs == 300

    def test_random_unconditional_pairs(self):
        rng = np.random.default_rng(15)
        k = random_unconditional_hpolytope(rng)
        t = random_unconditional_hpolytope(rng)
        assert check_lattice_premise(k, t, samples=1000, seed=2).passed

    def test_identical_samples_trivial(self):
        k = HPolytope.axis_box([1.0, 1.0])
        rep = check_lattice_premise(k, k, samples=100, seed=3)
        assert rep.passed

    @pytest.mark.parametrize("dim", [1, 3, 4, 5])
    def test_random_pairs_in_other_dimensions(self, dim):
        # d <= 4 joins go through the exact sum, d = 5 through the membership LP
        rng = np.random.default_rng(40 + dim)
        k = random_unconditional_hpolytope(rng, dim)
        t = random_unconditional_hpolytope(rng, dim)
        assert check_lattice_premise(k, t, samples=150, seed=4).passed

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_exact_sum_dims_never_solve_membership_lps(self, dim, monkeypatch):
        def refuse(*args):
            raise AssertionError("minkowski_contains called")

        monkeypatch.setattr(measure, "minkowski_contains", refuse)
        rng = np.random.default_rng(60 + dim)
        k = random_unconditional_hpolytope(rng, dim)
        t = random_unconditional_hpolytope(rng, dim)
        assert check_lattice_premise(k, t, samples=50, seed=5).passed
        assert 0.0 < minkowski_measure_mc(k, t, 10_000, 6).value <= 1.0

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            check_lattice_premise(HPolytope.axis_box([1.0, 1.0, 1.0]),
                                  HPolytope.axis_box([1.0, 1.0]), samples=10)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_rejects_nonpositive_samples(self, samples):
        k = HPolytope.axis_box([1.0, 1.0])
        with pytest.raises(InvalidParameters):
            check_lattice_premise(k, k, samples=samples)


class TestTehranchi:
    def test_parameter_boundary_specialization(self):
        model = random_correlation(2, 2, 16)
        s_thr = ThresholdVector([1.0, 1.2])
        rep = check_tehranchi(model, s_thr, s_thr, s=0.0, t=0.0,
                              budget=2 ** 12, seed=1)
        assert rep.verdict != VIOLATED

    def test_identity_pair_against_oracle(self):
        model = from_covariance(np.eye(2))
        s_thr = ThresholdVector([1.0, 1.0])
        rep = check_tehranchi(model, s_thr, s_thr, s=0.25, t=0.5,
                              budget=2 ** 12, seed=2)
        lam_i = math.sqrt(2 * 0.75 / 1.5)
        lam_s = math.sqrt(0.75 / 1.0)
        g = oracles.sym_prob_quad
        lhs = 0.75 ** -1 * g(lam_i) ** 2 * g(2 * lam_s) ** 2
        rhs = g(1.0) ** 4
        assert abs(rep.lhs.value - lhs) <= 1e-6
        assert abs(rep.rhs.value - rhs) <= 1e-6
        assert rep.verdict != VIOLATED

    def test_invalid_parameters(self):
        model = random_correlation(2, 2, 1)
        c = ThresholdVector([1.0, 1.0])
        with pytest.raises(InvalidParameters):
            check_tehranchi(model, c, c, s=0.5, t=0.5, budget=2 ** 12, seed=0)
        with pytest.raises(InvalidParameters):
            check_tehranchi(model, c, c, s=0.0, t=1.0, budget=2 ** 12, seed=0)

    def test_sweep_never_violated(self):
        rng = np.random.default_rng(17)
        for seed in range(12):
            model = random_correlation(3, 2, seed + 500)
            s_thr = ThresholdVector(rng.uniform(0.5, 1.6, size=3))
            t_thr = ThresholdVector(rng.uniform(0.5, 1.6, size=3))
            rep = check_tehranchi(model, s_thr, t_thr, s=0.1, t=0.4,
                                  budget=2 ** 12, seed=seed)
            assert rep.verdict != VIOLATED


class TestRogersShephard:
    def test_random_pairs_hold_exactly(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            p = random_symmetric_polygon(rng)
            q = random_symmetric_polygon(rng)
            rep = check_rogers_shephard(p, q)
            assert rep.margin >= -1e-9
            assert rep.verdict != VIOLATED

    @pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-6, 1e-7])
    def test_verdict_does_not_depend_on_units(self, scale):
        # margin / scale^4 is the same at every scale, and so is the gate.
        p, q = (Polygon2D.from_points(random_symmetric_polygon(np.random.default_rng(s)).vertices
                                      * scale) for s in (3, 4))
        rep = check_rogers_shephard(p, q)
        assert rep.verdict == SUPPORTED
        assert abs(rep.margin / scale ** 4 - 178.9328004367) <= 1e-6


class TestHullCounterexample:
    def test_reduction_values_at_three(self):
        result = hull_counterexample(3.0, budget=10 ** 5, seed=7)
        assert abs(result.wide_interval_measure - oracles.sym_prob_quad(3.0)) <= 1e-7
        half = (3 + 1 / 3) / math.sqrt(2)
        assert abs(result.diamond_interval_measure - oracles.sym_prob_quad(half)) <= 1e-7
        assert result.reduction_gap >= 0.01
        assert abs(result.reduction_gap - 0.016) < 1e-3

    def test_full_hull_inequality_violated_at_three(self):
        result = hull_counterexample(3.0, budget=10 ** 6, seed=7)
        assert result.report.verdict == VIOLATED
        assert result.report.margin <= -3 * result.report.stderr

    def test_unit_parameter_is_exact_equality(self):
        result = hull_counterexample(1.0, budget=10 ** 4, seed=1)
        assert result.report.margin == 0.0

    def test_margin_magnitude_shrinks_along_n(self):
        margins = [hull_counterexample(n, budget=4 * 10 ** 5, seed=5).report.margin
                   for n in (2.5, 3.0, 4.0)]
        assert all(m < 0 for m in margins)
        assert abs(margins[0]) > abs(margins[1]) > abs(margins[2])


class TestTensorize:
    def test_identity_base_ratios_one(self):
        # Identity covariance with an absorbing second body: both ratios are 1.
        rep = tensorize_check(ID2, ONES2, ThresholdVector([np.inf, np.inf]),
                              copies=2, budget=2 ** 12, seed=1)
        assert abs(rep.base_ratio.value - 1.0) <= 1e-9
        assert abs(rep.product_ratio.value - 1.0) <= 1e-9
        assert rep.passed

    def test_rank_one_base(self):
        s = ThresholdVector([1.0, 1.4])
        t = ThresholdVector([0.8, 1.1])
        rep = tensorize_check(RANK1_2, s, t, copies=2, budget=2 ** 13, seed=2)
        assert rep.passed
        base = strong_ratio(RANK1_2, s, t, budget=2 ** 13, seed=3)
        assert abs(rep.product_ratio.value - base.value ** 2) <= \
            3 * math.hypot(rep.product_ratio.stderr, 2 * base.value * base.stderr) + 1e-6

    def test_random_base_three_copies(self):
        model = random_correlation(3, 2, 19)
        rng = np.random.default_rng(20)
        s = ThresholdVector(rng.uniform(0.5, 1.6, size=3))
        t = ThresholdVector(rng.uniform(0.5, 1.6, size=3))
        rep = tensorize_check(model, s, t, copies=3, budget=2 ** 13, seed=4)
        assert rep.passed

    def test_invalid_copies(self):
        with pytest.raises(InvalidParameters):
            tensorize_check(ID2, ONES2, ONES2, copies=4, budget=2 ** 12, seed=0)


class TestSearch:
    def test_single_step_returns_canonical_margin(self):
        res = search_counterexample("hull-rectangles", steps=1, budget=20_000, seed=1)
        assert res.evaluations == 1
        assert abs(res.best_params["N"] - 3.0) <= 1e-9

    def test_hull_family_finds_violation(self):
        res = search_counterexample("hull-rectangles", steps=12, budget=50_000, seed=2)
        assert res.best_margin < -3 * res.best_stderr

    def test_band_family_reports_best_margin(self):
        res = search_counterexample("band-triples", steps=8, budget=2 ** 12, seed=3)
        assert math.isfinite(res.best_margin)
        assert res.best_margin >= -3 * res.best_stderr - 0.02

    def test_band_family_result_rebuilds_from_its_params(self):
        res = search_counterexample("band-triples", steps=8, budget=2 ** 12, seed=3)
        params = res.best_params
        model = random_correlation(3, 2, params["model_seed"])
        rep = check_strong_gci_bands(model, ThresholdVector(params["s"]),
                                     ThresholdVector(params["t"]), budget=2 ** 12, seed=0)
        assert rep.margin == res.best_margin  # rank-2 bands are measured exactly

    def test_rotated_boxes_family_runs(self):
        res = search_counterexample("rotated-boxes", steps=4, budget=12_000, seed=4)
        assert math.isfinite(res.best_margin)

    def test_deterministic(self):
        a = search_counterexample("hull-rectangles", steps=6, budget=20_000, seed=9)
        b = search_counterexample("hull-rectangles", steps=6, budget=20_000, seed=9)
        assert a.best_margin == b.best_margin and a.best_params == b.best_params

    def test_unknown_family(self):
        with pytest.raises(InvalidParameters):
            search_counterexample("spheres", steps=3, budget=20_000, seed=0)

    @pytest.mark.parametrize("family", SEARCH_FAMILIES)
    def test_objective_is_fixed_for_one_key(self, family):
        # Common random numbers: one restart key gives one margin per point.
        objective, x0, spread = _FAMILY_SETUP[family]
        x = x0 + 0.1 * spread
        first = objective(x, 12_000, 2_718_281_828)
        second = objective(x, 12_000, 2_718_281_828)
        assert first[:2] == second[:2]


class TestReportSerialization:
    def test_schema_validates_reports(self):
        model = random_correlation(3, 2, 6)
        c = ThresholdVector([1.0, np.inf, 0.8])
        rep = check_sidak(model, c, budget=2 ** 12, seed=1)
        payload = json.loads(json.dumps(rep.to_json_dict()))
        jsonschema.validate(payload, REPORT_SCHEMA)

    def test_infinite_thresholds_serialized_as_strings(self):
        model = random_correlation(2, 2, 7)
        c = ThresholdVector([1.0, np.inf])
        rep = check_sidak(model, c, budget=2 ** 12, seed=1)
        text = json.dumps(rep.to_json_dict())
        assert "Infinity" not in text
        assert '"inf"' in text

    def test_schema_validates_geometry_reports(self):
        p = random_symmetric_polygon(8)
        rep = check_rogers_shephard(p, p)
        jsonschema.validate(json.loads(json.dumps(rep.to_json_dict())), REPORT_SCHEMA)
