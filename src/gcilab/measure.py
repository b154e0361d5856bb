"""Gaussian measure of convex bodies.

Band bodies reduce exactly to rectangle probabilities of their model, so
``rect_prob`` carries them in any dimension (exactly for rank <= 2).
H-polytopes get Monte Carlo membership estimates (``ineqlab._measure`` uses
them for d >= 3 only; planar bodies go to the quadrature oracle), and so does
a Minkowski sum K + T: through its exact facet form for 1 <= d <= 4, else
point by point. 2-D bodies additionally expose the fiber measure f(s), the
Gaussian mass of the vertical slice at s, used by the slab-lifting arguments.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .convexgeom import (
    EXACT_SUM_DIMS,
    HPolytope,
    Polygon2D,
    SymmetricBand,
    minkowski_contains,  # shell test for d >= 5; perfbench's tracer wraps it here
    minkowski_sum,
)
from .errors import BudgetTooSmall, DimensionMismatch
from .mvnprob import (
    METHOD_MC,
    METHOD_ORACLE,
    Estimate,
    _as_seed_sequence,
    _interval_from_constraints,
    symmetric_rect_prob,
)

MC_MIN_BUDGET = 10_000
MC_CHUNK = 1 << 14      # rows per draw; draws are chunk-invariant, so estimates are too
FIBER_TOL = 1e-10
SCREEN_SLACK = 1e-9


def gauss_measure_band(band: SymmetricBand, budget: int = 1 << 16, seed=0) -> Estimate:
    """gamma_d of a band body, via Pr(|X_i| <= c_i) on the band's model."""
    return symmetric_rect_prob(band.model, band.c, budget, seed)


def _body_dim(body) -> int:
    return 2 if isinstance(body, Polygon2D) else body.dim


def gauss_measure_mc(body, budget: int, seed) -> Estimate:
    """Fraction of standard Gaussian samples in R^d inside the body (binomial stderr).

    d is the body's own dimension (2 for a ``Polygon2D``).
    """
    if budget < MC_MIN_BUDGET:
        raise BudgetTooSmall(f"Monte Carlo budget {budget} < {MC_MIN_BUDGET}")
    dim = _body_dim(body)
    seed_seq, seed_int = _as_seed_sequence(seed)
    rng = np.random.default_rng(seed_seq)
    hits = 0
    remaining = budget
    while remaining > 0:
        m = min(remaining, MC_CHUNK)
        pts = rng.standard_normal((m, dim))
        hits += int(np.count_nonzero(body.contains_many(pts)))
        remaining -= m
    p = hits / budget
    stderr = math.sqrt(max(p * (1.0 - p), 0.0) / budget)
    return Estimate(p, stderr, budget, METHOD_MC, seed_int)


def minkowski_measure_mc(k: HPolytope, t: HPolytope, budget: int, seed) -> Estimate:
    """gamma_d(K + T) by Monte Carlo membership.

    For d in ``EXACT_SUM_DIMS`` (1 to 4) this is ``gauss_measure_mc`` on the
    exact facet form ``minkowski_sum(k, t)``, drawing the same samples. For
    d >= 5 two screens implied by the membership semantics skip redundant
    solves: points inside K or T are inside K + T with a constructive witness,
    and a point beyond h_K(u) + h_T(u) along any facet normal u is separated
    from the sum. Each remaining shell point costs one HiGHS feasibility LP
    (``minkowski_contains``).
    """
    if budget < MC_MIN_BUDGET:
        raise BudgetTooSmall(f"Monte Carlo budget {budget} < {MC_MIN_BUDGET}")
    if k.dim != t.dim:
        raise DimensionMismatch("summands live in different dimensions")
    if k.dim in EXACT_SUM_DIMS:
        return gauss_measure_mc(minkowski_sum(k, t), budget, seed)
    seed_seq, seed_int = _as_seed_sequence(seed)
    rng = np.random.default_rng(seed_seq)
    dirs = np.vstack([k.normals, t.normals])
    hsum = np.array([k.support(u) + t.support(u) for u in dirs])
    hits = 0
    remaining = budget
    while remaining > 0:
        m = min(remaining, MC_CHUNK)
        pts = rng.standard_normal((m, k.dim))
        inside = k.contains_many(pts) | t.contains_many(pts)
        outside = np.any(pts @ dirs.T > hsum + SCREEN_SLACK, axis=1)
        hits += int(np.count_nonzero(inside))
        shell = np.flatnonzero(~inside & ~outside)
        for idx in shell:
            if minkowski_contains(k, t, pts[idx]):
                hits += 1
        remaining -= m
    p = hits / budget
    stderr = math.sqrt(max(p * (1.0 - p), 0.0) / budget)
    return Estimate(p, stderr, budget, METHOD_MC, seed_int)


def _band_slice(band: SymmetricBand, s: float) -> tuple[float, float] | None:
    rows = band.model.factor_rows
    c = band.c.as_array
    lo, hi = _interval_from_constraints(rows[:, 1], -c - rows[:, 0] * s, c - rows[:, 0] * s)
    if hi <= lo:
        return None
    return lo, hi


def fiber_measure(body, s: float) -> Estimate:
    """gamma_1 of the slice {y : (s, y) in body} for 2-D bodies.

    Slice endpoints come exactly from the polygon edges or band constraints
    and the 1-D mass is the exact CDF difference, so the evaluation is
    deterministic. An empty slice returns measure 0 rather than an error.
    """
    if isinstance(body, Polygon2D):
        interval = body.slice_vertical(float(s))
    elif isinstance(body, SymmetricBand):
        if body.dim != 2:
            raise DimensionMismatch("fiber measure is defined for 2-D bands")
        interval = _band_slice(body, float(s))
    else:
        raise DimensionMismatch("fiber measure expects a Polygon2D or 2-D band")
    if interval is None:
        return Estimate(0.0, FIBER_TOL, 0, METHOD_ORACLE, None)
    value = float(ndtr(interval[1]) - ndtr(interval[0]))
    return Estimate(value, FIBER_TOL, 0, METHOD_ORACLE, None)
