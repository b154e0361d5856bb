"""Independent test oracles.

Everything here is deliberately built from primitives different from the
package's estimation paths: raw adaptive quadrature of the Gaussian density,
bisection inverses, brute-force convex hulls of pairwise vertex sums, and the
polar formula for the Gaussian measure of a planar polygon.
Expected values asserted in the tests are computed through these functions.
"""

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.spatial import ConvexHull

SQRT_2PI = math.sqrt(2.0 * math.pi)


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
    vertices = []
    for i, j in itertools.combinations(range(len(offsets)), 2):
        mat = normals[[i, j]]
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        x = np.linalg.solve(mat, offsets[[i, j]])
        if np.all(normals @ x <= offsets + 1e-9):
            vertices.append(x)
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
