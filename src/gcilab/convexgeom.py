"""Origin-symmetric convex bodies and their operations.

Three representations share one toolbox. Each body has a ``dim``, a
``support`` function and one membership test, ``contains_many``, on an
(m, dim) array of points with tolerance ``GEOM_TOL`` on every constraint.

* ``SymmetricBand``: {y : |<y, u_i>| <= c_i} over a covariance model, in any
  dimension. Its intersections and outer Minkowski bounds are built on the
  thresholds (``ThresholdVector.minimum`` / ``plus``) by the checkers.
* ``Polygon2D``: exact centrally symmetric convex polygons with edge-merge
  Minkowski sums, convex hulls of unions, and halfplane clipping.
* ``HPolytope``: general bounded halfspace intersections. For 1 <= d <= 4
  ``minkowski_sum`` builds the exact facet form of K + T (the interval sum in
  d = 1, Qhull above); for a single point, and so in d >= 5, sum membership
  is one HiGHS feasibility LP (``minkowski_contains``). ``measure.sum_body``
  picks between the two.

``scipy.optimize`` and ``scipy.spatial`` are imported inside the functions
that use them: they are most of the package's cold start, and most calls never
reach them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iterproduct

import numpy as np

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    InvalidDimension,
    MalformedInput,
    NotSymmetric,
    SolverFailure,
)
from .gaussmodel import CorrelationModel, ThresholdVector, _read_csv_rows, _require_finite

GEOM_TOL = 1e-12        # membership; times max |coordinate| for vertex dedup and collinearity
SYMMETRY_MATCH_TOL = 1e-9  # facet match; times max |coordinate| for polygon antipodes
LP_TOL = 1e-9           # primal feasibility tolerance of the sum-membership LP
# d = 1 is the closed-form interval sum and d = 2..4 the Qhull hull of vertex-pair
# sums. At d = 5 that hull blows up (746-2,466 facets in 0.4-16.6 s on random
# unconditional pairs, and Qhull precision errors on some), so d >= 5 decides
# membership point by point.
EXACT_SUM_DIMS = (1, 2, 3, 4)
FACET_MERGE_TOL = 1e-9  # max gap between hull equations of one facet


# ---------------------------------------------------------------------------
# 2-D polygon machinery
# ---------------------------------------------------------------------------

def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _dedup_points(pts: np.ndarray, tol: float) -> np.ndarray:
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    keep = [pts[0]]
    for p in pts[1:]:
        if np.max(np.abs(p - keep[-1])) > tol:
            keep.append(p)
    return np.asarray(keep)


def _hull_ccw(points: np.ndarray) -> np.ndarray:
    """Strictly convex CCW hull by monotone chain; collinear points dropped.

    The dedup and collinearity tolerances scale with the largest |coordinate|
    (squared for cross products), so acceptance does not depend on units.
    """
    scale = np.abs(points).max(initial=0.0)
    pts = _dedup_points(points, GEOM_TOL * scale)
    if pts.shape[0] < 3:
        raise DegenerateInput("hull needs at least 3 distinct points")
    cross_tol = GEOM_TOL * scale * scale
    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= cross_tol:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= cross_tol:
            upper.pop()
        upper.append(p)
    hull = np.asarray(lower[:-1] + upper[:-1])
    if hull.shape[0] < 3:
        raise DegenerateInput("points are collinear within tolerance")
    return hull


@dataclass(frozen=True, eq=False)
class Polygon2D:
    """Centrally symmetric, strictly convex polygon; CCW vertices, canonical start."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    @classmethod
    def from_points(cls, points) -> "Polygon2D":
        points = np.asarray(points, dtype=float)
        _require_finite(points, "polygon vertices")
        hull = _hull_ccw(points)
        # Every vertex must have its antipode in the hull, relative to the hull's size.
        gaps = np.linalg.norm(hull[:, None, :] + hull[None, :, :], axis=2)
        if np.max(gaps.min(axis=1)) > SYMMETRY_MATCH_TOL * np.abs(hull).max():
            raise NotSymmetric("vertex set is not closed under negation")
        if hull.shape[0] < 4:
            raise DegenerateInput("symmetric polygon needs at least 4 vertices")
        start = np.lexsort((hull[:, 1], hull[:, 0]))[0]
        return cls(np.roll(hull, -start, axis=0))

    @classmethod
    def box(cls, hx: float, hy: float) -> "Polygon2D":
        return cls.from_points([[hx, hy], [-hx, hy], [-hx, -hy], [hx, -hy]])

    def __len__(self) -> int:
        return self.vertices.shape[0]

    @property
    def dim(self) -> int:
        return 2

    def transformed(self, matrix) -> "Polygon2D":
        """Image under an invertible linear map."""
        m = np.asarray(matrix, dtype=float)
        return Polygon2D.from_points(self.vertices @ m.T)

    def area(self) -> float:
        v = self.vertices
        x, y = v[:, 0], v[:, 1]
        return 0.5 * float(np.abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))

    def edge_normals(self) -> tuple[np.ndarray, np.ndarray]:
        """Outward unit edge normals A and offsets b with polygon = {x : A x <= b}."""
        v = self.vertices
        e = np.roll(v, -1, axis=0) - v
        normals = np.column_stack([e[:, 1], -e[:, 0]])
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        offsets = np.einsum("ij,ij->i", normals, v)
        return normals, offsets

    def contains_many(self, points: np.ndarray, tol: float = GEOM_TOL) -> np.ndarray:
        normals, offsets = self.edge_normals()
        return np.all(points @ normals.T <= offsets + tol, axis=1)

    def support(self, direction) -> float:
        u = np.asarray(direction, dtype=float)
        return float(np.max(self.vertices @ u))


def polygon_minkowski_sum(p: Polygon2D, q: Polygon2D) -> Polygon2D:
    """Exact Minkowski sum by merging edge vectors in angular order."""
    a = _rotate_to_bottom(p.vertices)
    b = _rotate_to_bottom(q.vertices)
    la, lb = len(a), len(b)
    out = []
    i = j = 0
    while i < la or j < lb:
        out.append(a[i % la] + b[j % lb])
        ea = a[(i + 1) % la] - a[i % la]
        eb = b[(j + 1) % lb] - b[j % lb]
        if i >= la:
            j += 1
        elif j >= lb:
            i += 1
        else:
            # parallel edges within GEOM_TOL in sin(angle), whatever the units
            cr = ea[0] * eb[1] - ea[1] * eb[0]
            tol = GEOM_TOL * math.hypot(*ea) * math.hypot(*eb)
            if cr > tol:
                i += 1
            elif cr < -tol:
                j += 1
            else:
                i += 1
                j += 1
    return Polygon2D.from_points(out)


def _rotate_to_bottom(v: np.ndarray) -> np.ndarray:
    start = np.lexsort((v[:, 0], v[:, 1]))[0]
    return np.roll(v, -start, axis=0)


def convex_hull_union(p: Polygon2D, q: Polygon2D) -> Polygon2D:
    """conv(P union Q); every hull vertex is a vertex of P or of Q."""
    return Polygon2D.from_points(np.vstack([p.vertices, q.vertices]))


def clip_halfplane(vertices: np.ndarray, normal, offset: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon by {x : <x, normal> <= offset}."""
    n = np.asarray(normal, dtype=float)
    out: list[np.ndarray] = []
    m = len(vertices)
    for k in range(m):
        cur, nxt = vertices[k], vertices[(k + 1) % m]
        dc, dn = float(cur @ n - offset), float(nxt @ n - offset)
        if dc <= GEOM_TOL:
            out.append(cur)
        if (dc > GEOM_TOL) != (dn > GEOM_TOL) and abs(dc - dn) > GEOM_TOL:
            t = dc / (dc - dn)
            out.append(cur + t * (nxt - cur))
    return np.asarray(out) if out else np.zeros((0, 2))


def intersect_polygons(p: Polygon2D, q: Polygon2D) -> Polygon2D:
    """P intersect Q by successive halfplane clipping against Q's edges."""
    normals, offsets = q.edge_normals()
    verts = p.vertices
    for n, c in zip(normals, offsets):
        verts = clip_halfplane(verts, n, c)
        if verts.shape[0] < 3:
            raise DegenerateInput("polygon intersection is degenerate")
    return Polygon2D.from_points(verts)


def random_symmetric_polygon(rng, points: int = 5, scale: float = 1.2) -> Polygon2D:
    """Convex hull of +-(random Gaussian points); retries on degenerate draws."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    for _ in range(64):
        pts = rng.standard_normal((points, 2)) * scale
        try:
            return Polygon2D.from_points(np.vstack([pts, -pts]))
        except DegenerateInput:
            continue
    raise DegenerateInput("could not draw a nondegenerate symmetric polygon")


# ---------------------------------------------------------------------------
# Band bodies
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SymmetricBand:
    """{y in R^d : |<y, u_i>| <= c_i for all i} over a covariance model."""

    model: CorrelationModel
    c: ThresholdVector

    def __post_init__(self):
        if len(self.c) != self.model.size:
            raise DimensionMismatch("one threshold per factor row is required")

    @property
    def dim(self) -> int:
        return self.model.dim

    def finite_halfspaces(self) -> tuple[np.ndarray, np.ndarray]:
        """Halfspace form A y <= b of the finitely thresholded constraints."""
        c = self.c.as_array
        finite = np.isfinite(c)
        u = self.model.factor_rows[finite]
        b = c[finite]
        return np.vstack([u, -u]), np.concatenate([b, b])

    def contains_many(self, points: np.ndarray, tol: float = GEOM_TOL) -> np.ndarray:
        proj = np.abs(points @ self.model.factor_rows.T)
        return np.all(proj <= self.c.as_array + tol, axis=1)

    def support(self, direction) -> float:
        """h(u) by one LP; no caller in the package, kept as a traced target of perfbench."""
        u = np.asarray(direction, dtype=float)
        a, b = self.finite_halfspaces()
        if a.shape[0] == 0:
            return np.inf
        return _support_lp(a, b, u)


# ---------------------------------------------------------------------------
# H-polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HPolytope:
    """Bounded {y : normals @ y <= offsets} with unit normals, closed under negation."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        a = np.array(self.normals, dtype=float)
        b = np.array(self.offsets, dtype=float)
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "normals", a)
        object.__setattr__(self, "offsets", b)

    @classmethod
    def from_halfspaces(cls, normals, offsets, check_bounded: bool = True) -> "HPolytope":
        a = np.atleast_2d(np.asarray(normals, dtype=float))
        b = np.atleast_1d(np.asarray(offsets, dtype=float))
        if a.shape[0] != b.shape[0]:
            raise DimensionMismatch("one offset per normal is required")
        _require_finite(a, "halfspace normals")
        _require_finite(b, "halfspace offsets")
        norms = np.linalg.norm(a, axis=1)
        if np.any(norms <= GEOM_TOL):
            raise DegenerateInput("zero normal in halfspace list")
        a = a / norms[:, None]
        b = b / norms
        if np.any(b <= 0):
            raise DegenerateInput("offsets must be positive (origin interior)")
        body = cls(a, b)
        if not body._negation_closed():
            raise NotSymmetric("halfspace list is not closed under negation")
        if check_bounded and not body.is_bounded():
            raise DegenerateInput("halfspace intersection is unbounded")
        return body

    @classmethod
    def symmetric(cls, normals, offsets, check_bounded: bool = True) -> "HPolytope":
        """Stack each constraint with its negation: {|<y, u_i>| <= c_i}."""
        a = np.atleast_2d(np.asarray(normals, dtype=float))
        b = np.atleast_1d(np.asarray(offsets, dtype=float))
        return cls.from_halfspaces(np.vstack([a, -a]), np.concatenate([b, b]),
                                   check_bounded=check_bounded)

    @classmethod
    def axis_box(cls, half_widths) -> "HPolytope":
        hw = np.atleast_1d(np.asarray(half_widths, dtype=float))
        d = hw.shape[0]
        return cls.symmetric(np.eye(d), hw, check_bounded=False)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def _closed_under(self, signs) -> bool:
        """Each facet (u * s, c) is present for every sign vector s in `signs`."""
        a, b = self.normals, self.offsets
        same_offset = np.abs(b[:, None] - b[None, :]) <= SYMMETRY_MATCH_TOL
        for s in signs:
            gaps = np.linalg.norm(a[:, None, :] * s - a[None, :, :], axis=2)
            if not np.all(np.any((gaps <= SYMMETRY_MATCH_TOL) & same_offset, axis=1)):
                return False
        return True

    def _negation_closed(self) -> bool:
        return self._closed_under([-1.0])

    def is_bounded(self) -> bool:
        """Normals span R^d.

        The normal set is closed under negation, so {y : A y <= 0} is the null
        space of A and the body is bounded exactly when A has full column rank.
        """
        return int(np.linalg.matrix_rank(self.normals)) == self.dim

    def is_unconditional(self) -> bool:
        """Every coordinate sign flip of every normal is present with equal offset."""
        return self._closed_under(_iterproduct((1.0, -1.0), repeat=self.dim))

    def contains_many(self, points: np.ndarray, tol: float = GEOM_TOL) -> np.ndarray:
        return np.all(points @ self.normals.T <= self.offsets + tol, axis=1)

    def support(self, direction) -> float:
        return _support_lp(self.normals, self.offsets, np.asarray(direction, dtype=float))

    def intersect(self, other: "HPolytope") -> "HPolytope":
        if self.dim != other.dim:
            raise DimensionMismatch("polytopes live in different dimensions")
        return HPolytope(np.vstack([self.normals, other.normals]),
                         np.concatenate([self.offsets, other.offsets]))


def _support_lp(a: np.ndarray, b: np.ndarray, direction: np.ndarray) -> float:
    from scipy.optimize import linprog

    # HiGHS presolve reports some unbounded LPs as infeasible (status 2);
    # without it they come back as status 3.
    res = linprog(-direction, A_ub=a, b_ub=b, bounds=[(None, None)] * a.shape[1],
                  method="highs", options={"presolve": False})
    if res.status == 3:
        return np.inf
    if res.status != 0:
        raise SolverFailure(f"support LP failed with status {res.status}")
    return float(-res.fun)


def random_unconditional_hpolytope(rng, dim: int = 2, extra: int = 2) -> HPolytope:
    """Axis box plus random unconditional constraints (all sign patterns)."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    normals = [np.eye(dim), -np.eye(dim)]
    hw = rng.uniform(0.6, 2.2, size=dim)
    offsets = [hw, hw]
    for _ in range(extra):
        u = rng.uniform(0.25, 1.0, size=dim)
        c = rng.uniform(0.8, 2.5)
        for signs in _iterproduct((1.0, -1.0), repeat=dim):
            normals.append((np.asarray(signs) * u)[None, :])
            offsets.append(np.array([c]))
    return HPolytope.from_halfspaces(np.vstack(normals), np.concatenate(offsets),
                                     check_bounded=False)


# ---------------------------------------------------------------------------
# Shared operations
# ---------------------------------------------------------------------------

def polytope_vertices(body: HPolytope) -> np.ndarray:
    """Vertices of a bounded H-polytope by Qhull halfspace intersection.

    The origin is interior because every offset is positive. A vertex where
    more than d facets meet may be listed more than once.
    """
    from scipy.spatial import HalfspaceIntersection

    halfspaces = np.column_stack([body.normals, -body.offsets])
    return HalfspaceIntersection(halfspaces, np.zeros(body.dim)).intersections


def minkowski_sum(k: HPolytope, t: HPolytope) -> HPolytope:
    """Exact facet form of K + T for d in ``EXACT_SUM_DIMS``.

    In d = 1 both bodies are symmetric intervals and the half-widths add. Above,
    K + T is the convex hull of all pairwise vertex sums. Qhull returns one
    equation per simplex of that hull, so the equations of coplanar simplices
    are merged into one facet each.
    """
    from scipy.spatial import ConvexHull, cKDTree

    if k.dim != t.dim:
        raise DimensionMismatch("summands live in different dimensions")
    if k.dim not in EXACT_SUM_DIMS:
        raise InvalidDimension(f"exact Minkowski sums need d in {EXACT_SUM_DIMS}, got {k.dim}")
    if k.dim == 1:
        return HPolytope.axis_box([k.offsets.min() + t.offsets.min()])
    vk, vt = polytope_vertices(k), polytope_vertices(t)
    eq = ConvexHull((vk[:, None, :] + vt[None, :, :]).reshape(-1, k.dim)).equations
    pairs = cKDTree(eq).query_pairs(FACET_MERGE_TOL, p=np.inf, output_type="ndarray")
    keep = np.ones(eq.shape[0], dtype=bool)
    keep[pairs[:, 1]] = False  # i < j in every pair: the lowest index stands for its facet
    return HPolytope.from_halfspaces(eq[keep, :-1], -eq[keep, -1])


def minkowski_contains(k: HPolytope, t: HPolytope, point) -> bool:
    """point in K + T, decided by one HiGHS feasibility LP.

    Membership is equivalent to feasibility of
    {y : A_K y <= b_K, A_T (point - y) <= b_T}, with each row allowed a
    violation of ``LP_TOL``.
    """
    from scipy.optimize import linprog

    if k.dim != t.dim:
        raise DimensionMismatch("summands live in different dimensions")
    p = np.asarray(point, dtype=float)
    if p.shape != (k.dim,):
        raise DimensionMismatch("point dimension must match the summands")
    _require_finite(p, "point")
    g = np.vstack([k.normals, -t.normals])
    h = np.concatenate([k.offsets, t.offsets - t.normals @ p])
    res = linprog(np.zeros(k.dim), A_ub=g, b_ub=h, bounds=[(None, None)] * k.dim,
                  method="highs", options={"primal_feasibility_tolerance": LP_TOL})
    if res.status not in (0, 2):
        raise SolverFailure(f"membership LP failed with status {res.status}")
    return res.status == 0


# ---------------------------------------------------------------------------
# CSV literals
# ---------------------------------------------------------------------------

def load_polygon_csv(path) -> Polygon2D:
    """Polygon from CSV rows of x,y vertices."""
    rows = np.asarray(_read_csv_rows(path), dtype=float)
    if rows.shape[1] != 2:
        raise MalformedInput("polygon CSV needs exactly two columns per row")
    return Polygon2D.from_points(rows)


def load_hpolytope_csv(path) -> HPolytope:
    """H-polytope from CSV rows of d normal components followed by the offset."""
    rows = np.asarray(_read_csv_rows(path), dtype=float)
    if rows.shape[1] < 2:
        raise MalformedInput("halfspace CSV needs normal components plus an offset")
    return HPolytope.from_halfspaces(rows[:, :-1], rows[:, -1])
