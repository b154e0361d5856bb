"""Independent test oracles.

Everything here is deliberately built from primitives different from the
package's estimation paths: raw adaptive quadrature of the Gaussian density,
bisection inverses, brute-force convex hulls of pairwise vertex sums, the
polar formula for the Gaussian measure of a planar polygon, a hand-written
phase-1 simplex for Minkowski-sum membership, erfc tail differences, and
scipy's multivariate normal CDF on a whole, unfactored covariance.
Expected values asserted in the tests are computed through these functions.
The test-body builders at the end only construct package bodies from explicit
vertices or halfspaces; they compute no expected value.
"""

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.spatial import ConvexHull
from scipy.stats import multivariate_normal

from gcilab.convexgeom import HPolytope, Polygon2D

SQRT_2PI = math.sqrt(2.0 * math.pi)
LP_TOL = 1e-9           # simplex feasibility tolerance
SIMPLEX_ITER_CAP = 10_000


def density(x: float) -> float:
    return math.exp(-0.5 * x * x) / SQRT_2PI


def phi_quad(x: float) -> float:
    """Standard normal CDF by adaptive quadrature of the density."""
    if math.isinf(x):
        return 0.0 if x < 0 else 1.0
    if x >= 0:
        tail, _ = quad(density, 0.0, min(x, 40.0), epsabs=1e-14, limit=400)
        return 0.5 + tail
    return 1.0 - phi_quad(-x)


def phi_inv_quad(p: float) -> float:
    """Inverse CDF by bisection against the quadrature CDF."""
    return brentq(lambda t: phi_quad(t) - p, -12.0, 12.0, xtol=1e-13)


def sym_prob_quad(c: float) -> float:
    """Pr(|Z| <= c) by quadrature."""
    if math.isinf(c):
        return 1.0
    val, _ = quad(density, -c, c, epsabs=1e-14, limit=400)
    return val


def interval_prob_quad(a: float, b: float) -> float:
    lo, hi = max(a, -40.0), min(b, 40.0)
    if hi <= lo:
        return 0.0
    val, _ = quad(density, lo, hi, epsabs=1e-14, limit=400)
    return val


def bivariate_rect_quad(rho: float, a, b, tol: float = 1e-10) -> float:
    """Pr(a_i <= X_i <= b_i) for a bivariate normal with unit variances.

    Conditioning quadrature: X2 | X1 = x is normal with mean rho * x and
    variance 1 - rho^2.
    """
    sd = math.sqrt(max(1.0 - rho * rho, 0.0))

    def integrand(x):
        if sd == 0.0:
            inner = 1.0 if a[1] <= rho * x <= b[1] else 0.0
        else:
            inner = _phi_scalar((b[1] - rho * x) / sd) - _phi_scalar((a[1] - rho * x) / sd)
        return density(x) * inner

    lo, hi = max(a[0], -10.0), min(b[0], 10.0)
    val, _ = quad(integrand, lo, hi, epsabs=tol, limit=400)
    return val


def _phi_scalar(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def interval_prob_erfc(a: float, b: float) -> float:
    """Phi(b) - Phi(a) for a <= b from erfc of the tails on either side.

    Each tail is an erfc of a nonnegative argument, so an interval wholly in
    the upper or the lower tail keeps its relative precision.
    """
    r2 = math.sqrt(2.0)
    if a >= 0.0:
        return 0.5 * (math.erfc(a / r2) - math.erfc(b / r2))
    if b <= 0.0:
        return 0.5 * (math.erfc(-b / r2) - math.erfc(-a / r2))
    return 1.0 - 0.5 * (math.erfc(-a / r2) + math.erfc(b / r2))


def one_factor_quad(lam, lower, upper, tol: float = 1e-12) -> float:
    """Pr(lower_i <= X_i <= upper_i) for X_i = lam_i Z + sqrt(1 - lam_i^2) E_i, |lam_i| < 1.

    Conditioning on the common factor Z = z makes the coordinates independent,
    so the probability is one adaptive quadrature over z in [-10, 10] of the
    density times a product of erfc-based interval probabilities, broken at
    every z where an interval end crosses its conditional mean.
    """
    lam = [float(v) for v in lam]
    sd = [math.sqrt(1.0 - v * v) for v in lam]

    def integrand(z):
        p = density(z)
        for v, s, a, b in zip(lam, sd, lower, upper):
            p *= _phi_scalar((b - v * z) / s) - _phi_scalar((a - v * z) / s)
        return p

    kinks = sorted({e / v for v, a, b in zip(lam, lower, upper) if v != 0.0
                    for e in (a, b) if math.isfinite(e) and abs(e / v) < 10.0})
    val, _ = quad(integrand, -10.0, 10.0, points=kinks or None, epsabs=tol, limit=400)
    return val


def mvn_rect_prob(sigma, lower, upper, tol: float = 1e-7) -> float:
    """Pr(lower <= X <= upper) for X ~ N(0, sigma), sigma positive definite.

    ``scipy.stats.multivariate_normal.cdf`` (Genz-Bretz integration) on the
    whole matrix, so a block-diagonal sigma is integrated as one dense problem
    and nothing is factored into blocks.
    """
    sigma = np.asarray(sigma, dtype=float)
    mvn = multivariate_normal(np.zeros(sigma.shape[0]), sigma, abseps=tol, releps=0.0)
    return float(mvn.cdf(np.asarray(upper, dtype=float), lower_limit=np.asarray(lower)))


def minkowski_vertices_bruteforce(p_vertices, q_vertices) -> np.ndarray:
    """Hull of all pairwise vertex sums, via scipy's Qhull (independent path)."""
    sums = np.array([u + v for u in np.asarray(p_vertices) for v in np.asarray(q_vertices)])
    hull = ConvexHull(sums)
    return sums[hull.vertices]


def polygon_area_bruteforce(vertices) -> float:
    hull = ConvexHull(np.asarray(vertices))
    return float(hull.volume)  # in 2-D Qhull's volume is the area


def support_bruteforce(vertices, direction) -> float:
    return float(np.max(np.asarray(vertices) @ np.asarray(direction)))


def polygon_vertices_bruteforce(normals, offsets) -> np.ndarray:
    """Vertices of {x : normals @ x <= offsets}: every feasible crossing of two edge lines."""
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    vertices = []
    for i, j in itertools.combinations(range(len(offsets)), 2):
        mat = normals[[i, j]]
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        x = np.linalg.solve(mat, offsets[[i, j]])
        if np.all(normals @ x <= offsets + 1e-9):
            vertices.append(x)
    return np.array(vertices)


def planar_measure_polar(normals, offsets) -> float:
    """gamma_2 of the polygon {x : normals @ x <= offsets}, origin in its interior.

    In polar coordinates the mass inside radius r(theta) along a ray is
    1 - exp(-r^2 / 2), so gamma_2 = (1 / 2 pi) * integral of that over theta.
    Between consecutive vertex angles one edge n.x = b bounds the ray and
    r(theta) = b / (n . (cos theta, sin theta)), so each sector is integrated
    by adaptive quadrature of a smooth function. Vertices come from brute-force
    intersection of every pair of edge lines.
    """
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    vertices = polygon_vertices_bruteforce(normals, offsets)
    angles = np.unique(np.round(np.mod([math.atan2(y, x) for x, y in vertices],
                                       2.0 * math.pi), 12))
    bounds = np.append(angles, angles[0] + 2.0 * math.pi)

    def mass_in_ray(theta):
        proj = normals @ np.array([math.cos(theta), math.sin(theta)])
        r = np.min(offsets[proj > 0] / proj[proj > 0])
        return -math.expm1(-0.5 * r * r)

    total = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        part, _ = quad(mass_in_ray, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)
        total += part
    return total / (2.0 * math.pi)


def minkowski_contains_simplex(k, t, point) -> bool:
    """point in K + T for H-polytopes K, T: feasibility of
    {y : A_K y <= b_K, A_T (point - y) <= b_T} by ``phase1_feasible``."""
    p = np.asarray(point, dtype=float)
    g = np.vstack([k.normals, -t.normals])
    h = np.concatenate([k.offsets, t.offsets - t.normals @ p])
    return phase1_feasible(g, h)


def phase1_feasible(g: np.ndarray, h: np.ndarray,
                    tol: float = LP_TOL, max_iters: int = SIMPLEX_ITER_CAP) -> bool:
    """Is {x : g x <= h} nonempty? Phase-1 simplex with Bland's rule.

    Free variables are split into positive parts, slacks complete the rows,
    and artificials cover rows with negative right-hand sides; the system is
    feasible iff the artificial sum can be driven to <= tol.
    """
    g = np.atleast_2d(np.asarray(g, dtype=float))
    h = np.atleast_1d(np.asarray(h, dtype=float)).copy()
    m, p = g.shape
    a = np.hstack([g, -g, np.eye(m)])
    flip = h < 0
    if not flip.any():
        return True  # x = 0 with slack h is already feasible
    a[flip] *= -1.0
    h[flip] *= -1.0
    ncols = a.shape[1]
    art_rows = np.flatnonzero(flip)
    nart = art_rows.size
    tableau = np.zeros((m + 1, ncols + nart + 1))
    tableau[:m, :ncols] = a
    tableau[:m, -1] = h
    art_cols = ncols + np.arange(nart)
    tableau[art_rows, art_cols] = 1.0
    basis = np.empty(m, dtype=int)
    basis[~flip] = 2 * p + np.flatnonzero(~flip)
    basis[flip] = art_cols
    # Canonical phase-1 cost row: unit cost on artificials, reduced.
    tableau[m, art_cols] = 1.0
    tableau[m] -= tableau[art_rows].sum(axis=0)

    for _ in range(max_iters):
        reduced = tableau[m, :ncols]  # artificials never re-enter
        improving = np.flatnonzero(reduced < -tol)
        if improving.size == 0:
            break
        enter = int(improving[0])  # Bland: smallest improving index
        col = tableau[:m, enter]
        positive = col > tol
        if not positive.any():
            raise RuntimeError("phase-1 column with no positive pivot")
        ratios = np.full(m, np.inf)
        ratios[positive] = tableau[:m, -1][positive] / col[positive]
        rmin = ratios.min()
        ties = np.flatnonzero(ratios <= rmin + 1e-12)
        leave = int(ties[np.argmin(basis[ties])])  # Bland tie-break
        pivot = tableau[leave, enter]
        tableau[leave] /= pivot
        rows = np.arange(m + 1) != leave
        tableau[rows] -= np.outer(tableau[rows, enter], tableau[leave])
        basis[leave] = enter
    else:
        raise RuntimeError(f"simplex iteration cap {max_iters} exceeded")
    return bool(-tableau[m, -1] <= tol)


# ---------------------------------------------------------------------------
# Test-body builders
# ---------------------------------------------------------------------------

def weighted_l1_ball(weights, radius: float) -> HPolytope:
    """{y : sum_i w_i |y_i| <= radius} via all sign patterns of the weights."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    rows = [np.asarray(signs) * w for signs in itertools.product((1.0, -1.0), repeat=w.size)]
    return HPolytope.from_halfspaces(rows, np.full(len(rows), float(radius)))


def hpolytope_to_polygon(body: HPolytope) -> Polygon2D:
    """Vertex form of a 2-D H-polytope, from brute-force crossings of its edge lines."""
    return Polygon2D.from_points(polygon_vertices_bruteforce(body.normals, body.offsets))


def regular_polygon(sides: int, radius: float, phase: float = 0.0) -> Polygon2D:
    """Regular polygon with an even number of sides on the circle of ``radius``."""
    ang = phase + 2.0 * np.pi * np.arange(sides) / sides
    return Polygon2D.from_points(radius * np.column_stack([np.cos(ang), np.sin(ang)]))


def diamond(r: float) -> Polygon2D:
    """{y : |y_1| + |y_2| <= r}."""
    return Polygon2D.from_points([[r, 0.0], [0.0, r], [-r, 0.0], [0.0, -r]])
