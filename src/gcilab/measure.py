"""Gaussian measure of convex bodies.

Band bodies reduce exactly to rectangle probabilities of their model, so
``rect_prob`` carries them in any dimension (exactly for rank <= 2).
H-polytopes get Monte Carlo membership estimates (``ineqlab._measure`` uses
them for d >= 3 only; planar bodies go to the quadrature oracle), and so does
a Minkowski sum K + T through ``sum_body``, the one answer to "is this point
in K + T?": the exact facet form for 1 <= d <= 4, else a screened point-by-point
test. 2-D bodies additionally expose the fiber measure f(s), the Gaussian mass
of the vertical slice at s, used by the slab-lifting arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .convexgeom import (
    EXACT_SUM_DIMS,
    HPolytope,
    Polygon2D,
    SymmetricBand,
    minkowski_contains,  # shell test of _ScreenedSum; perfbench's tracer wraps it here
    minkowski_sum,
)
from .errors import BudgetTooSmall, DimensionMismatch, InvalidParameters
from .mvnprob import (
    METHOD_MC,
    METHOD_ORACLE,
    Estimate,
    _as_seed_sequence,
    _interval_from_constraints,
    _interval_mass,
    symmetric_rect_prob,
)

MC_MIN_BUDGET = 10_000
MC_CHUNK = 1 << 14      # rows per draw; draws are chunk-invariant, so estimates are too
FIBER_TOL = 1e-10
SCREEN_SLACK = 1e-9


def gauss_measure_band(band: SymmetricBand, budget: int = 1 << 16, seed=0) -> Estimate:
    """gamma_d of a band body, via Pr(|X_i| <= c_i) on the band's model."""
    return symmetric_rect_prob(band.model, band.c, budget, seed)


def gauss_measure_mc(body, budget: int, seed) -> Estimate:
    """Fraction of standard Gaussian samples in R^d inside the body (binomial stderr).

    d is ``body.dim``; membership is ``body.contains_many`` on each chunk.
    """
    if budget < MC_MIN_BUDGET:
        raise BudgetTooSmall(f"Monte Carlo budget {budget} < {MC_MIN_BUDGET}")
    seed_seq, seed_int = _as_seed_sequence(seed)
    rng = np.random.default_rng(seed_seq)
    hits = 0
    remaining = budget
    while remaining > 0:
        m = min(remaining, MC_CHUNK)
        pts = rng.standard_normal((m, body.dim))
        hits += int(np.count_nonzero(body.contains_many(pts)))
        remaining -= m
    p = hits / budget
    stderr = math.sqrt(max(p * (1.0 - p), 0.0) / budget)
    return Estimate(p, stderr, budget, METHOD_MC, seed_int)


def sum_body(k: HPolytope, t: HPolytope):
    """K + T as a body with ``dim`` and ``contains_many``, in any dimension.

    For d in ``EXACT_SUM_DIMS`` (1 to 4) this is the exact facet form
    ``minkowski_sum(k, t)``; for d >= 5 it is a ``_ScreenedSum``.
    """
    if k.dim != t.dim:
        raise DimensionMismatch("summands live in different dimensions")
    if k.dim in EXACT_SUM_DIMS:
        return minkowski_sum(k, t)
    return _ScreenedSum(k, t)


class _ScreenedSum:
    """K + T decided point by point, for d >= 5.

    Two screens implied by the membership semantics skip redundant solves:
    points inside K or T are inside K + T with a constructive witness, and a
    point beyond b + h_T(u) along a facet u . y <= b of K (b >= h_K(u)), or
    beyond h_K(u) + b along one of T, is separated from the sum. The support
    LPs that set the screen run once, here, one per facet. Each remaining
    shell point costs one HiGHS feasibility LP (``minkowski_contains``).
    """

    def __init__(self, k: HPolytope, t: HPolytope):
        self.k, self.t, self.dim = k, t, k.dim
        self._dirs = np.vstack([k.normals, t.normals])
        self._hsum = np.concatenate([k.offsets + [t.support(u) for u in k.normals],
                                     [k.support(u) for u in t.normals] + t.offsets])

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        inside = self.k.contains_many(points) | self.t.contains_many(points)
        outside = np.any(points @ self._dirs.T > self._hsum + SCREEN_SLACK, axis=1)
        for idx in np.flatnonzero(~inside & ~outside):
            inside[idx] = minkowski_contains(self.k, self.t, points[idx])
        return inside


def minkowski_measure_mc(k: HPolytope, t: HPolytope, budget: int, seed) -> Estimate:
    """gamma_d(K + T) by Monte Carlo membership: ``gauss_measure_mc`` on ``sum_body``."""
    if budget < MC_MIN_BUDGET:
        raise BudgetTooSmall(f"Monte Carlo budget {budget} < {MC_MIN_BUDGET}")
    return gauss_measure_mc(sum_body(k, t), budget, seed)


def fiber_measure(body, s: float) -> Estimate:
    """gamma_1 of the slice {y : (s, y) in body} for 2-D bodies; s must be finite.

    Both body types are constraints lower <= rows @ (s, y) <= upper: a
    polygon's ``edge_normals`` below its offsets, a band's factor rows within
    +-c. ``_interval_from_constraints`` gives the slice's ends exactly and the
    1-D mass is the exact CDF difference, so the evaluation is deterministic.
    An empty slice returns measure 0 rather than an error.
    """
    s = float(s)
    if not math.isfinite(s):
        raise InvalidParameters(f"fiber abscissa must be finite, got {s}")
    if isinstance(body, Polygon2D):
        rows, upper = body.edge_normals()
        lower = np.full(len(upper), -np.inf)
    elif isinstance(body, SymmetricBand):
        if body.dim != 2:
            raise DimensionMismatch("fiber measure is defined for 2-D bands")
        rows, upper = body.model.factor_rows, body.c.as_array
        lower = -upper
    else:
        raise DimensionMismatch("fiber measure expects a Polygon2D or 2-D band")
    lo, hi = _interval_from_constraints(rows[:, 1], lower - rows[:, 0] * s, upper - rows[:, 0] * s)
    value = float(_interval_mass(lo, hi)) if lo < hi else 0.0
    return Estimate(value, FIBER_TOL, 0, METHOD_ORACLE, None)
