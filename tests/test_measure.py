"""Gaussian measures: band reduction, Monte Carlo membership, fiber slices."""

import math

import numpy as np
import pytest

import oracles
from gcilab import convexgeom, measure
from gcilab.convexgeom import (
    HPolytope,
    Polygon2D,
    SymmetricBand,
    minkowski_sum,
    random_symmetric_polygon,
    random_unconditional_hpolytope,
)
from gcilab.errors import BudgetTooSmall, DimensionMismatch
from gcilab.gaussmodel import ThresholdVector, from_covariance, product_model, random_correlation
from gcilab.measure import (
    fiber_measure,
    gauss_measure_band,
    gauss_measure_mc,
    minkowski_measure_mc,
    sum_body,
)
from gcilab.mvnprob import oracle_region_prob


def _combined(*ests):
    return math.sqrt(sum(e.stderr ** 2 for e in ests))


class TestGaussMeasureBand:
    def test_full_space(self):
        band = SymmetricBand(from_covariance(np.eye(2)),
                             ThresholdVector([np.inf, np.inf]))
        assert gauss_measure_band(band, budget=2 ** 10, seed=0).value == 1.0

    def test_one_dimensional_interval(self):
        band = SymmetricBand(from_covariance([[1.0]]), ThresholdVector([3.0]))
        est = gauss_measure_band(band, budget=2 ** 10, seed=0)
        expect = oracles.sym_prob_quad(3.0)
        assert abs(est.value - expect) <= 1e-9
        assert abs(expect - 0.9973002) < 1e-6

    def test_orthogonal_band(self):
        band = SymmetricBand(from_covariance(np.eye(2)), ThresholdVector([1.0, 1.0]))
        est = gauss_measure_band(band, budget=2 ** 10, seed=0)
        assert abs(est.value - oracles.sym_prob_quad(1.0) ** 2) <= 1e-9


class TestGaussMeasureMc:
    def test_disk_closed_form(self):
        disk = oracles.regular_polygon(256, 2.0)
        est = gauss_measure_mc(disk, 200_000, 5)
        expect = 1.0 - math.exp(-2.0)
        assert abs(est.value - expect) <= 3 * est.stderr + 1e-3
        assert abs(expect - 0.8646647) < 1e-6

    def test_square_matches_band(self):
        square = Polygon2D.box(1.0, 1.0)
        mc = gauss_measure_mc(square, 100_000, 6)
        band = SymmetricBand(from_covariance(np.eye(2)), ThresholdVector([1.0, 1.0]))
        qmc = gauss_measure_band(band, budget=2 ** 13, seed=7)
        assert abs(mc.value - qmc.value) <= 3 * _combined(mc, qmc)

    def test_huge_box_is_one(self):
        est = gauss_measure_mc(Polygon2D.box(50.0, 50.0), 10_000, 1)
        assert est.value == 1.0

    def test_budget_floor(self):
        with pytest.raises(BudgetTooSmall):
            gauss_measure_mc(Polygon2D.box(1, 1), 9_999, 0)

    def test_polygon_vs_quadrature_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            p = random_symmetric_polygon(rng)
            mc = gauss_measure_mc(p, 100_000, int(rng.integers(1 << 30)))
            normals, offsets = p.edge_normals()
            exact = oracle_region_prob(normals, -np.inf * np.ones(len(offsets)), offsets)
            assert abs(mc.value - exact) <= 3 * mc.stderr + 1e-7


class TestMcChunking:
    """Estimates do not depend on how the sample draw is chunked."""

    def test_chunk_size_invariance(self, monkeypatch):
        rng = np.random.default_rng(31)
        k3, t3 = random_unconditional_hpolytope(rng, 3), random_unconditional_hpolytope(rng, 3)
        k2, t2 = random_unconditional_hpolytope(rng, 2), random_unconditional_hpolytope(rng, 2)
        poly = random_symmetric_polygon(rng)
        # screened path, d = 5: a thin shell keeps the membership LPs few
        k5 = oracles.weighted_l1_ball([1.0, 0.8, 0.6, 0.9, 1.2], 2.0)
        t5 = HPolytope.axis_box(np.full(5, 1e-4))

        def estimates():
            return [gauss_measure_mc(k3, 100_000, 1), gauss_measure_mc(poly, 100_000, 2),
                    minkowski_measure_mc(k2, t2, 100_000, 3),
                    minkowski_measure_mc(k3, t3, 100_000, 4),
                    minkowski_measure_mc(k5, t5, 100_000, 5)]

        default = estimates()
        monkeypatch.setattr(measure, "MC_CHUNK", 1000)
        assert estimates() == default


class TestMinkowskiMeasureMc:
    def test_tiny_summand_is_near_identity(self):
        k = random_unconditional_hpolytope(8)
        t = HPolytope.axis_box([1e-4, 1e-4])
        ms = minkowski_measure_mc(k, t, 50_000, 3)
        mk = gauss_measure_mc(k, 50_000, 4)
        assert abs(ms.value - mk.value) <= 3 * _combined(ms, mk) + 1e-3

    def test_doubling_matches_band(self):
        k = HPolytope.axis_box([1.0, 1.0])
        ms = minkowski_measure_mc(k, k, 50_000, 5)
        band = SymmetricBand(from_covariance(np.eye(2)), ThresholdVector([2.0, 2.0]))
        qmc = gauss_measure_band(band, budget=2 ** 13, seed=6)
        assert abs(ms.value - qmc.value) <= 3 * _combined(ms, qmc)

    def test_screen_costs_one_support_lp_per_facet(self, monkeypatch):
        # Along its own facet normal a body's support is at most the offset,
        # so only the other body's support needs an LP.
        k = oracles.weighted_l1_ball([1.0, 0.8, 0.6, 0.9, 1.2], 2.0)
        t = HPolytope.axis_box([1e-4] * 5)
        calls = []
        support_lp = convexgeom._support_lp
        monkeypatch.setattr(convexgeom, "_support_lp",
                            lambda *args: calls.append(args) or support_lp(*args))
        est = minkowski_measure_mc(k, t, 100_000, 1)
        assert len(calls) == len(k.offsets) + len(t.offsets) == 42
        assert est.value == 0.0909  # as with two support LPs per facet

    def test_summands_in_different_dimensions(self):
        with pytest.raises(DimensionMismatch):
            minkowski_measure_mc(HPolytope.axis_box([1.0, 1.0]), HPolytope.axis_box([1.0] * 3),
                                 10_000, 0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_box_sum_matches_closed_form(self, dim):
        # every d here measures the exact facet form
        a, b = np.linspace(0.5, 1.0, dim), np.linspace(0.9, 0.3, dim)
        ms = minkowski_measure_mc(HPolytope.axis_box(a), HPolytope.axis_box(b), 40_000, 11)
        exact = math.prod(math.erf(h / math.sqrt(2.0)) for h in a + b)
        assert abs(ms.value - exact) <= 3 * ms.stderr + 1e-9

    def test_cross_validated_against_polygon_sum(self):
        rng = np.random.default_rng(9)
        k = random_unconditional_hpolytope(rng)
        t = random_unconditional_hpolytope(rng)
        ms = minkowski_measure_mc(k, t, 50_000, 7)
        from gcilab.convexgeom import polygon_minkowski_sum

        s = polygon_minkowski_sum(oracles.hpolytope_to_polygon(k),
                                  oracles.hpolytope_to_polygon(t))
        mc = gauss_measure_mc(s, 100_000, 8)
        assert abs(ms.value - mc.value) <= 3 * _combined(ms, mc)


class TestSumBody:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_exact_dims_give_the_facet_form(self, dim):
        rng = np.random.default_rng(70 + dim)
        k, t = random_unconditional_hpolytope(rng, dim), random_unconditional_hpolytope(rng, dim)
        body, exact = sum_body(k, t), minkowski_sum(k, t)
        assert isinstance(body, HPolytope) and body.dim == dim
        np.testing.assert_array_equal(body.normals, exact.normals)
        np.testing.assert_array_equal(body.offsets, exact.offsets)

    def test_screened_sum_agrees_with_simplex_oracle(self, monkeypatch):
        # d = 5 through all three rules: in K or T, screened out, and one LP each.
        rng = np.random.default_rng(905)
        k = random_unconditional_hpolytope(rng, 5, extra=1)
        t = random_unconditional_hpolytope(rng, 5, extra=1)
        solved = []
        lp = measure.minkowski_contains
        monkeypatch.setattr(measure, "minkowski_contains",
                            lambda *args: solved.append(args) or lp(*args))
        pts = rng.standard_normal((300, 5))
        body = sum_body(k, t)
        assert body.dim == 5
        got = body.contains_many(pts)
        in_summand = int(np.count_nonzero(k.contains_many(pts) | t.contains_many(pts)))
        assert in_summand > 0 and 0 < len(solved) < len(pts) - in_summand
        for p, inside in zip(pts, got):
            # The probe 1e-7 further along the ray from the origin lies on the
            # side of the boundary that `got` claims, unless p is within 1e-7 of it.
            probe = p * (1.0 - 1e-7 if inside else 1.0 + 1e-7)
            assert oracles.minkowski_contains_simplex(k, t, probe) == inside


class TestFiberMeasure:
    def test_square_center_slice(self):
        f = fiber_measure(Polygon2D.box(1.0, 1.0), 0.0)
        expect = oracles.sym_prob_quad(1.0)
        assert abs(f.value - expect) <= 1e-9
        assert abs(expect - 0.6826895) < 1e-6

    def test_slice_outside_body(self):
        assert fiber_measure(Polygon2D.box(1.0, 1.0), 1.5).value == 0.0

    def test_central_symmetry(self):
        p = random_symmetric_polygon(4)
        width = p.support([1.0, 0.0])
        for s in np.linspace(0.05, 0.9 * width, 7):
            assert abs(fiber_measure(p, s).value - fiber_measure(p, -s).value) <= 1e-9

    def test_band_slice(self):
        model = from_covariance(np.eye(2))
        band = SymmetricBand(model, ThresholdVector([1.0, 2.0]))
        f = fiber_measure(band, 0.5)
        assert abs(f.value - oracles.sym_prob_quad(2.0)) <= 1e-9
        assert fiber_measure(band, 1.5).value == 0.0

    @pytest.mark.parametrize("lo, hi", [(8.0, 9.0), (5.0, 40.0)])
    def test_one_sided_slices_keep_relative_precision(self, lo, hi):
        # slices at s = +-1 of the parallelogram with vertices +-(1, lo), +-(1, hi)
        p = Polygon2D.from_points([[1.0, lo], [1.0, hi], [-1.0, -lo], [-1.0, -hi]])
        expect = oracles.interval_prob_erfc(lo, hi)
        assert fiber_measure(p, 1.0).value == pytest.approx(expect, rel=1e-12)
        assert fiber_measure(p, -1.0).value == pytest.approx(expect, rel=1e-12)

    def test_band_dimension_guard(self):
        model = random_correlation(3, 3, 1)
        band = SymmetricBand(model, ThresholdVector([1.0, 1.0, 1.0]))
        with pytest.raises(DimensionMismatch):
            fiber_measure(band, 0.0)


class TestFubiniAndLogConcavity:
    def test_fubini_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(4):
            p = random_symmetric_polygon(rng)
            width = 0.8 * p.support([1.0, 0.0])
            half = min(width, 1.2)
            grid = np.linspace(-half, half, 200)
            fvals = np.array([fiber_measure(p, s).value for s in grid])
            dens = np.exp(-0.5 * grid ** 2) / math.sqrt(2 * math.pi)
            integral = np.trapezoid(fvals * dens, grid)
            normals, offsets = p.edge_normals()
            all_normals = np.vstack([normals, [[1.0, 0.0], [-1.0, 0.0]]])
            all_offsets = np.concatenate([offsets, [half, half]])
            exact = oracle_region_prob(all_normals, -np.inf * np.ones(len(all_offsets)),
                                       all_offsets)
            assert abs(integral - exact) <= 1e-3

    def test_log_concavity_of_fiber(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            p = random_symmetric_polygon(rng)
            width = p.support([1.0, 0.0])
            ss = rng.uniform(-0.85 * width, 0.85 * width, size=(10, 2))
            for s1, s2 in ss:
                f1, f2 = fiber_measure(p, s1).value, fiber_measure(p, s2).value
                for lam in (0.25, 0.5, 0.75):
                    mid = fiber_measure(p, lam * s1 + (1 - lam) * s2).value
                    assert mid >= f1 ** lam * f2 ** (1 - lam) - 1e-6


class TestProductTensorization:
    def test_power_identity(self):
        for copies in (2, 3):
            model = random_correlation(2, 2, 13)
            band = SymmetricBand(model, ThresholdVector([1.0, 1.4]))
            base = gauss_measure_band(band, budget=2 ** 13, seed=1)
            big = SymmetricBand(product_model(model, copies), band.c.tiled(copies))
            prod = gauss_measure_band(big, budget=2 ** 13, seed=2)
            se = math.sqrt(prod.stderr ** 2
                           + (copies * base.value ** (copies - 1) * base.stderr) ** 2)
            assert abs(prod.value - base.value ** copies) <= 3 * se + 1e-6
