"""Band bodies, exact 2-D polygon operations, H-polytopes, and Minkowski sums."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import oracles
from gcilab.convexgeom import (
    HPolytope,
    Polygon2D,
    SymmetricBand,
    convex_hull_union,
    intersect_polygons,
    load_hpolytope_csv,
    load_polygon_csv,
    minkowski_contains,
    minkowski_sum,
    polygon_minkowski_sum,
    polytope_vertices,
    random_symmetric_polygon,
    random_unconditional_hpolytope,
)
from gcilab.errors import (
    DegenerateInput,
    DimensionMismatch,
    InvalidDimension,
    NotFinite,
    NotSymmetric,
)
from gcilab.gaussmodel import ThresholdVector, from_covariance, random_correlation


def _band(model, values):
    return SymmetricBand(model, ThresholdVector(values))


class TestPolygonMinkowski:
    def test_doubling(self):
        p = random_symmetric_polygon(5)
        s = polygon_minkowski_sum(p, p)
        np.testing.assert_allclose(s.vertices, 2 * p.vertices, atol=1e-9)

    def test_square_plus_rotated_square_support(self):
        a = Polygon2D.box(1.0, 1.0)
        rot = np.array([[math.cos(math.pi / 4), -math.sin(math.pi / 4)],
                        [math.sin(math.pi / 4), math.cos(math.pi / 4)]])
        b = Polygon2D.box(0.5, 0.5).transformed(rot)
        s = polygon_minkowski_sum(a, b)
        assert len(s) == 8
        expect = oracles.support_bruteforce(a.vertices, [1, 0]) + \
            oracles.support_bruteforce(b.vertices, [1, 0])
        assert abs(s.support([1, 0]) - expect) <= 1e-9
        assert abs(expect - (1 + math.sqrt(2) / 2)) <= 1e-12

    def test_crossed_boxes_support(self):
        k = Polygon2D.box(1 / 3, 3.0)
        t = Polygon2D.box(3.0, 1 / 3)
        s = polygon_minkowski_sum(k, t)
        assert abs(s.support([1, 0]) - 10 / 3) <= 1e-9
        assert abs(s.support([0, 1]) - 10 / 3) <= 1e-9

    def test_against_bruteforce_hull(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = random_symmetric_polygon(rng)
            q = random_symmetric_polygon(rng)
            s = polygon_minkowski_sum(p, q)
            brute = oracles.minkowski_vertices_bruteforce(p.vertices, q.vertices)
            assert len(s) <= len(p) + len(q)
            assert abs(s.area() - oracles.polygon_area_bruteforce(brute)) <= 1e-9

    def test_units_do_not_matter(self):
        p = random_symmetric_polygon(np.random.default_rng(3))
        q = random_symmetric_polygon(np.random.default_rng(4))
        base = polygon_minkowski_sum(p, q)
        assert len(base) == 12
        for s in (1.0, 1e-4, 1e-6, 1e-7):
            scaled = polygon_minkowski_sum(Polygon2D.from_points(p.vertices * s),
                                           Polygon2D.from_points(q.vertices * s))
            assert len(scaled) == len(base)
            assert scaled.area() / s**2 == pytest.approx(base.area(), rel=1e-12)

    def test_support_additivity_sampled_directions(self):
        rng = np.random.default_rng(1)
        p = random_symmetric_polygon(rng)
        q = random_symmetric_polygon(rng)
        s = polygon_minkowski_sum(p, q)
        angles = 2 * math.pi * np.arange(64) / 64
        for t in angles:
            u = np.array([math.cos(t), math.sin(t)])
            assert abs(s.support(u) - (p.support(u) + q.support(u))) <= 1e-9


class TestHullUnion:
    def test_absorption(self):
        small = Polygon2D.box(0.5, 0.5)
        big = Polygon2D.box(2.0, 2.0)
        h = convex_hull_union(small, big)
        np.testing.assert_allclose(np.sort(h.vertices, axis=0),
                                   np.sort(big.vertices, axis=0), atol=1e-12)

    def test_idempotence(self):
        p = random_symmetric_polygon(9)
        h = convex_hull_union(p, p)
        np.testing.assert_allclose(h.vertices, p.vertices, atol=1e-12)

    def test_contains_all_vertices_and_is_minimal(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = random_symmetric_polygon(rng)
            q = random_symmetric_polygon(rng)
            h = convex_hull_union(p, q)
            source = np.vstack([p.vertices, q.vertices])
            assert np.all(h.contains_many(source, tol=1e-9))
            for v in h.vertices:
                assert np.min(np.linalg.norm(source - v, axis=1)) <= 1e-9

    def test_crossed_boxes_inside_scaled_diamond(self):
        k = Polygon2D.box(1 / 3, 3.0)
        t = Polygon2D.box(3.0, 1 / 3)
        h = convex_hull_union(k, t)
        assert np.all(oracles.diamond(10 / 3).contains_many(h.vertices, tol=1e-9))


class TestSupportAndContains:
    def test_unit_square_axis(self):
        sq = Polygon2D.box(1.0, 1.0)
        assert sq.support([1, 0]) == 1.0

    def test_band_single_constraint_support(self):
        model = from_covariance([[1.0]])
        band = SymmetricBand(model, ThresholdVector([1.0]))
        # {y : |y| <= 1} in R^1 along its own normal.
        assert abs(band.support([1.0]) - 1.0) <= 1e-9

    def test_band_support_matches_direct_maximization(self):
        model = random_correlation(3, 2, 6)
        band = _band(model, [1.0, 1.5, 0.8])
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((200_000, 2)) * 1.5
        inside = pts[band.contains_many(pts)]
        for u in ([1.0, 0.0], [0.3, -0.9], [0.7, 0.7]):
            lp = band.support(u)
            sampled = float(np.max(inside @ np.asarray(u)))
            assert sampled <= lp + 1e-6
            assert lp - sampled <= 0.05

    def test_unbounded_band_support(self):
        model = random_correlation(2, 2, 8)
        band = _band(model, [1.0, np.inf])
        u = model.factor_rows[1] - model.factor_rows[0] * (
            model.factor_rows[0] @ model.factor_rows[1])
        assert math.isinf(band.support(u))

    def test_partly_thresholded_band_support_is_infinite(self):
        # HiGHS presolve reported many of these unbounded LPs as infeasible.
        for seed in range(200):
            rng = np.random.default_rng([seed, 1])
            c = np.full(4, np.inf)
            idx = rng.choice(4, size=1 + seed % 2, replace=False)
            c[idx] = rng.uniform(0.5, 2.0, size=idx.size)
            band = SymmetricBand(random_correlation(4, 3, seed), ThresholdVector(c))
            assert math.isinf(band.support(rng.standard_normal(3)))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_hpolytope_support_matches_vertices(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(10):
            body = random_unconditional_hpolytope(rng, dim, extra=int(rng.integers(0, 3)))
            verts = _vertices_bruteforce(body)
            for u in rng.standard_normal((5, dim)):
                expect = oracles.support_bruteforce(verts, u)
                assert abs(body.support(u) - expect) <= 1e-9

    def test_origin_inside_everything(self):
        p = random_symmetric_polygon(3)
        h = random_unconditional_hpolytope(4)
        band = _band(random_correlation(2, 2, 5), [1.0, 1.0])
        for body in (p, h, band):
            assert body.dim == 2
            assert body.contains_many(np.zeros((1, 2))).tolist() == [True]

    def test_band_boundary_exceedance(self):
        model = from_covariance(np.eye(2))
        band = _band(model, [1.0, 1.0])
        pts = np.array([[1.0 + 1e-6, 0.0], [1.0 - 1e-6, 0.0]])
        assert band.contains_many(pts).tolist() == [False, True]

    def test_intersection_semantics(self):
        rng = np.random.default_rng(12)
        p = random_symmetric_polygon(rng)
        q = random_symmetric_polygon(rng)
        inter = intersect_polygons(p, q)
        pts = rng.standard_normal((500, 2))
        got = inter.contains_many(pts, tol=1e-9)
        expect = p.contains_many(pts, tol=1e-12) & q.contains_many(pts, tol=1e-12)
        # Clipping introduces boundary vertices; agreement away from boundaries.
        disagree = np.flatnonzero(got != expect)
        for i in disagree:
            edge_dist = np.min(np.abs(inter.edge_normals()[0] @ pts[i]
                                      - inter.edge_normals()[1]))
            assert edge_dist <= 1e-6


class TestPolygonValidation:
    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            Polygon2D.from_points([[0, 0], [1, 0], [1, 1], [0, 1]])

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            Polygon2D.from_points([[0, 0], [1, 1], [-1, -1], [2, 2]])

    def test_area_shoelace(self):
        assert abs(Polygon2D.box(2.0, 0.5).area() - 4.0) <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_vertex_rejected(self, bad):
        with pytest.raises(NotFinite):
            Polygon2D.from_points([[1.0, 0.5], [bad, 1.0], [-1.0, -0.5], [-0.3, -1.0],
                                   [0.3, -1.0], [-0.3, 1.0]])
        with pytest.raises(NotFinite):
            Polygon2D.box(0.0, bad)

    def test_units_do_not_matter(self):
        assert len(Polygon2D.box(2e-7, 1e-7)) == 4
        rng = np.random.default_rng(41)
        polygons = [random_symmetric_polygon(rng, points=int(rng.integers(3, 9)))
                    for _ in range(20)]
        for k in range(-8, 9):
            for p in polygons:
                scaled = Polygon2D.from_points(p.vertices * 10.0 ** k)
                assert len(scaled) == len(p)
                np.testing.assert_allclose(scaled.vertices, p.vertices * 10.0 ** k, rtol=1e-12)
            assert len(oracles.regular_polygon(6, 10.0 ** k, 0.3)) == 6

    def test_asymmetry_is_relative_to_size(self):
        # a vertex 1e-3 of the polygon's size off its antipode, at any scale
        pts = np.array([[1.0, 0.5], [-1.0, -0.5], [0.3, 1.0], [-0.3, -1.0 + 1e-3]])
        for scale in (1e-7, 1.0, 1e7):
            with pytest.raises(NotSymmetric):
                Polygon2D.from_points(pts * scale)


class TestMinkowskiContains:
    def test_constructive_witness(self):
        rng = np.random.default_rng(3)
        k = random_unconditional_hpolytope(rng)
        t = random_unconditional_hpolytope(rng)
        for _ in range(50):
            a = rng.standard_normal(2)
            b = rng.standard_normal(2)
            ka = a / max(np.max(np.abs(k.normals @ a) / k.offsets), 1.0) * 0.99
            tb = b / max(np.max(np.abs(t.normals @ b) / t.offsets), 1.0) * 0.99
            assert minkowski_contains(k, t, ka + tb)

    def test_support_separation(self):
        k = HPolytope.axis_box([1.0, 1.0])
        t = HPolytope.axis_box([0.5, 2.0])
        # h_{K+T}(e_1) = 1.5; points beyond are separated.
        assert not minkowski_contains(k, t, [1.5 + 1e-6, 0.0])
        assert minkowski_contains(k, t, [1.5 - 1e-6, 0.0])

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_agrees_with_simplex_oracle(self, dim):
        k, t = _pair(50 + dim, dim)
        pts = _probe_points(k, t, 50 + dim)[::8]
        lp = [minkowski_contains(k, t, p) for p in pts]
        simplex = [oracles.minkowski_contains_simplex(k, t, p) for p in pts]
        assert lp == simplex

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_point_rejected(self, bad):
        k = HPolytope.axis_box([1.0, 1.0])
        with pytest.raises(NotFinite):
            minkowski_contains(k, k, [bad, 0.0])

    def test_cross_validated_against_polygon_sum(self):
        # the simplex oracle that the LP and the exact sums are checked against
        rng = np.random.default_rng(17)
        k = random_unconditional_hpolytope(rng)
        t = random_unconditional_hpolytope(rng)
        ks, ts = oracles.hpolytope_to_polygon(k), oracles.hpolytope_to_polygon(t)
        s = polygon_minkowski_sum(ks, ts)
        pts = rng.standard_normal((1000, 2)) * 1.8
        poly_in = s.contains_many(pts, tol=1e-9)
        for p, expect in zip(pts, poly_in):
            boundary = abs(np.max(s.edge_normals()[0] @ p - s.edge_normals()[1]))
            if boundary <= 1e-7:
                continue
            assert oracles.minkowski_contains_simplex(k, t, p) == bool(expect)

    def test_phase1_on_infeasible_system(self):
        g = np.array([[1.0], [-1.0]])
        h = np.array([-1.0, -1.0])  # x <= -1 and x >= 1
        assert not oracles.phase1_feasible(g, h)

    def test_phase1_degenerate_ties(self):
        g = np.array([[1.0, 1.0], [1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        h = np.array([0.0, 0.0, -0.25, -0.25])
        # Needs x >= 0.25 componentwise but x1 + x2 <= 0: infeasible.
        assert not oracles.phase1_feasible(g, h)
        h2 = np.array([1.0, 1.0, -0.25, -0.25])
        assert oracles.phase1_feasible(g, h2)


def _pair(seed: int, dim: int):
    rng = np.random.default_rng(seed)
    return random_unconditional_hpolytope(rng, dim), random_unconditional_hpolytope(rng, dim)


def _probe_points(k, t, seed: int) -> np.ndarray:
    """Gaussian points plus vertex-pair sums scaled by 1 +- 1e-6 (boundary probes)."""
    rng = np.random.default_rng(seed)
    vk, vt = polytope_vertices(k), polytope_vertices(t)
    sums = (vk[:, None, :] + vt[None, :, :]).reshape(-1, k.dim)
    sums = sums[rng.choice(len(sums), size=min(len(sums), 40), replace=False)]
    return np.vstack([1.6 * rng.standard_normal((60, k.dim)),
                      sums * (1.0 + 1e-6), sums * (1.0 - 1e-6)])


_seeds = st.integers(0, 2**32 - 1)


def _vertices_bruteforce(body: HPolytope) -> np.ndarray:
    """Feasible intersections of every d-subset of facets."""
    pts = []
    for rows in itertools.combinations(range(len(body.offsets)), body.dim):
        mat = body.normals[list(rows)]
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        v = np.linalg.solve(mat, body.offsets[list(rows)])
        if np.all(body.normals @ v <= body.offsets + 1e-9):
            pts.append(v)
    return np.asarray(pts)


class TestMinkowskiSum:
    @settings(max_examples=25, deadline=None)
    @given(seed=_seeds, dim=st.sampled_from([2, 3, 4]))
    def test_agrees_with_simplex_membership(self, seed, dim):
        k, t = _pair(seed, dim)
        pts = _probe_points(k, t, seed)
        exact = minkowski_sum(k, t).contains_many(pts)
        simplex = np.array([oracles.minkowski_contains_simplex(k, t, p) for p in pts])
        np.testing.assert_array_equal(exact, simplex)

    @settings(max_examples=25, deadline=None)
    @given(seed=_seeds)
    def test_matches_polygon_sum_in_2d(self, seed):
        k, t = _pair(seed, 2)
        exact = minkowski_sum(k, t)
        poly = polygon_minkowski_sum(oracles.hpolytope_to_polygon(k),
                                     oracles.hpolytope_to_polygon(t))
        assert oracles.hpolytope_to_polygon(exact).area() == pytest.approx(poly.area(), rel=1e-9)
        pts = _probe_points(k, t, seed)
        np.testing.assert_array_equal(exact.contains_many(pts), poly.contains_many(pts))

    @settings(max_examples=25, deadline=None)
    @given(seed=_seeds, dim=st.sampled_from([2, 3, 4]))
    def test_merged_facets_closed_under_negation(self, seed, dim):
        s = minkowski_sum(*_pair(seed, dim))
        gaps = np.linalg.norm(s.normals[:, None, :] + s.normals[None, :, :], axis=2)
        partner = gaps.argmin(axis=1)
        assert np.all(gaps.min(axis=1) <= 1e-9)
        np.testing.assert_allclose(s.offsets[partner], s.offsets, rtol=0, atol=1e-9)
        # one equation per facet: no two normals coincide after the merge
        off_diag = np.linalg.norm(s.normals[:, None, :] - s.normals[None, :, :], axis=2)
        assert np.all(off_diag[~np.eye(len(s.offsets), dtype=bool)] > 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=_seeds, dim=st.sampled_from([2, 3]), data=st.data())
    def test_facet_count_invariant_under_coordinate_permutation(self, seed, dim, data):
        k, t = _pair(seed, dim)
        perm = data.draw(st.permutations(range(dim)))

        def permuted(body):
            return HPolytope.from_halfspaces(body.normals[:, perm], body.offsets)

        assert len(minkowski_sum(permuted(k), permuted(t)).offsets) == \
            len(minkowski_sum(k, t).offsets)

    def test_axis_boxes_add_half_widths(self):
        s = minkowski_sum(HPolytope.axis_box([1.0, 0.5, 2.0]), HPolytope.axis_box([0.5, 1.0, 1.0]))
        assert len(s.offsets) == 6
        for u, c in zip(s.normals, s.offsets):
            j = int(np.argmax(np.abs(u)))
            assert abs(u[j]) == pytest.approx(1.0) and c == pytest.approx([1.5, 1.5, 3.0][j])

    def test_intervals_add_half_widths(self):
        k = HPolytope.axis_box([0.7])
        t = HPolytope.from_halfspaces([[1.0], [-1.0], [2.0], [-2.0]], [1.0, 1.0, 1.0, 1.0])
        s = minkowski_sum(k, t)  # T = [-0.5, 0.5]
        np.testing.assert_array_equal(s.normals, [[1.0], [-1.0]])
        np.testing.assert_allclose(s.offsets, [1.2, 1.2], rtol=1e-15)

    @pytest.mark.parametrize("dim", [5])
    def test_rejects_dimensions_without_exact_form(self, dim):
        k = HPolytope.axis_box(np.ones(dim))
        with pytest.raises(InvalidDimension):
            minkowski_sum(k, k)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            minkowski_sum(HPolytope.axis_box([1.0, 1.0]), HPolytope.axis_box([1.0, 1.0, 1.0]))


def _lp_bounded(body) -> bool:
    """No LP along +-e_j is unbounded.

    HiGHS presolve reports some unbounded problems as infeasible (status 2),
    so presolve is off here and status 3 is the only unbounded answer.
    """
    for e in np.vstack([np.eye(body.dim), -np.eye(body.dim)]):
        res = linprog(-e, A_ub=body.normals, b_ub=body.offsets,
                      bounds=[(None, None)] * body.dim, method="highs",
                      options={"presolve": False})
        assert res.status in (0, 3), res.message
        if res.status == 3:
            return False
    return True


class TestHPolytope:
    @settings(max_examples=40, deadline=None)
    @given(seed=_seeds, dim=st.integers(1, 4), data=st.data())
    def test_rank_rule_matches_lp_boundedness(self, seed, dim, data):
        rank = data.draw(st.integers(1, dim))
        rows = data.draw(st.integers(rank, 6))
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, dim))
        body = HPolytope.symmetric(u, rng.uniform(0.5, 2.0, size=rows), check_bounded=False)
        assert body.is_bounded() == (rank == dim)
        assert body.is_bounded() == _lp_bounded(body)

    @settings(max_examples=40, deadline=None)
    @given(seed=_seeds, dim=st.integers(1, 3), unconditional=st.booleans(),
           flip=st.booleans(), nudge=st.booleans())
    def test_symmetry_rules_match_reference_loop(self, seed, dim, unconditional, flip, nudge):
        rng = np.random.default_rng(seed)
        if unconditional:
            body = random_unconditional_hpolytope(rng, dim, extra=int(rng.integers(0, 3)))
        else:  # closed under negation only
            body = HPolytope.symmetric(rng.standard_normal((dim + 2, dim)),
                                       rng.uniform(0.5, 2.0, size=dim + 2), check_bounded=False)
        a, b = body.normals.copy(), body.offsets.copy()
        row = int(rng.integers(len(b)))
        if flip:  # flip one coordinate of one row: usually breaks unconditionality
            a[row, int(rng.integers(dim))] *= -1.0
        if nudge:  # push one row off its partners by 1e-6, far above the match tolerance
            a[row] += 1e-6
        poly = HPolytope(a, b)

        def closed(sign_vectors):
            for u, c in zip(a, b):
                for s in sign_vectors:
                    match = (np.linalg.norm(a - np.asarray(s) * u, axis=1) <= 1e-9) & \
                            (np.abs(b - c) <= 1e-9)
                    if not match.any():
                        return False
            return True

        assert poly._negation_closed() == closed([-np.ones(dim)])
        assert poly.is_unconditional() == closed(list(itertools.product((1.0, -1.0), repeat=dim)))

    def test_rejects_unbounded(self):
        with pytest.raises(DegenerateInput):
            HPolytope.from_halfspaces([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0])

    @pytest.mark.parametrize("normals, offsets", [
        ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, math.inf, 2.0, 2.0]),
        ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 1.0, math.nan, 2.0]),
        ([[1.0, math.nan], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 1.0, 2.0, 2.0]),
    ])
    def test_rejects_nonfinite(self, normals, offsets):
        with pytest.raises(NotFinite):
            HPolytope.from_halfspaces(normals, offsets)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            HPolytope.from_halfspaces(
                [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.6, 0.8]],
                [1.0, 1.0, 1.0, 1.0, 1.0])

    def test_unconditional_detection(self):
        box = HPolytope.axis_box([1.0, 2.0])
        assert box.is_unconditional()
        ball = oracles.weighted_l1_ball([1.0, 0.5], 1.0)
        assert ball.is_unconditional()
        rot = HPolytope.symmetric([[0.8, 0.6], [0.6, -0.8]], [1.0, 1.2])
        assert not rot.is_unconditional()

    def test_rogers_shephard_on_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            p = random_symmetric_polygon(rng)
            q = random_symmetric_polygon(rng)
            s = polygon_minkowski_sum(p, q)
            inter = intersect_polygons(p, q)
            assert s.area() * inter.area() >= p.area() * q.area() - 1e-9


class TestGeometryCsv:
    def test_polygon_roundtrip(self, tmp_path):
        path = tmp_path / "poly.csv"
        path.write_text("1,1\n-1,1\n-1,-1\n1,-1\n")
        p = load_polygon_csv(path)
        assert abs(p.area() - 4.0) <= 1e-12

    def test_hpolytope_roundtrip(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("1,0,1\n-1,0,1\n0,1,2\n0,-1,2\n")
        h = load_hpolytope_csv(path)
        assert h.contains_many(np.array([[0.9, 1.9], [1.1, 0.0]])).tolist() == [True, False]
