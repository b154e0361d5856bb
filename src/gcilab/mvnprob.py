"""Univariate normal primitives and multivariate rectangle probabilities.

The rectangle engine estimates Pr(a_i <= X_i <= b_i for all i) for a centered
Gaussian vector by sequential conditioning through a greedily ordered
semidefinite Cholesky factorization: each coordinate is mapped through the
normal CDF and its inverse onto the unit cube, and the cube integral is
evaluated on randomly shifted rank-1 lattices with tent periodization.
Replicated randomizations supply a standard error. Infinite bounds are exact
(the CDF is evaluated symbolically at +-inf, never truncated), and
rank-deficient covariances are handled without regularization.

A deterministic quadrature oracle covers factor dimension d <= 3 and is the
independent cross-check for the sampling engine: one planar Gauss-Legendre
layer integrates d <= 2 regions, and adaptive quadrature over the first
factor integrates those layers for d = 3.

``scipy.integrate`` is imported inside the d = 3 oracle branch, the one place
that uses it: it pulls in ``scipy.optimize``, which together with it is most of
the package's cold start, and most calls never reach that branch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import fft, ifft
from scipy.special import ndtr, ndtri

from .errors import (
    BudgetTooSmall,
    DimensionMismatch,
    DimensionTooLarge,
    InvalidBounds,
    InvalidParameters,
    OutOfRange,
)
from .gaussmodel import CorrelationModel, ThresholdVector

ORACLE_TOL = 1e-7        # absolute tolerance of the quadrature oracle
CDF_FLOOR = 1e-300       # lower clamp for deep-tail CDF values
MIN_BUDGET = 1000
QMC_STDERR_FLOOR = 1e-15  # accumulated representation rounding of the estimate
QUAD_CLIP = 9.0          # |x| > 9 carries mass < 2e-19, below every tolerance
DEGENERATE_SLACK = 1e-9  # membership slack for rank-deficient coordinates
ZERO_COEF = 1e-13
QMC_BLOCK = 1 << 17      # coordinates (n x points) per kernel call: 1 MB per array
ORACLE_BLOCK = 1 << 21   # entries per (constraint x point) array in the oracle: 16 MB
SIGMAS = 3.0             # verdict and confidence-bound width, in standard errors
REPLICATES = 12          # independently shifted lattice copies behind every QMC stderr

METHOD_ORACLE = "quadrature-oracle"
METHOD_QMC = "qmc"
METHOD_MC = "mc"


@dataclass(frozen=True)
class Estimate:
    """A scalar with a standard error; composes by first-order propagation.

    Measurements also carry samples, method tag and integer seed; closed forms
    and algebra results leave them at the defaults.
    """

    value: float
    stderr: float = 0.0
    samples: int = 0
    method: str | None = None
    seed: int | None = None

    def times(self, other: Estimate) -> Estimate:
        v = self.value * other.value
        se = abs(self.value) * other.stderr + abs(other.value) * self.stderr
        return Estimate(v, se)

    def over(self, other: Estimate) -> Estimate:
        if other.value == 0:
            raise InvalidParameters("division by a zero-valued estimate")
        v = self.value / other.value
        se = self.stderr / abs(other.value) + abs(self.value) * other.stderr / other.value ** 2
        return Estimate(v, se)

    def powered(self, n: int) -> Estimate:
        return Estimate(self.value ** n, n * abs(self.value) ** (n - 1) * self.stderr)

    def scaled(self, factor: float) -> Estimate:
        return Estimate(self.value * factor, self.stderr * abs(factor))

    def minus(self, other: Estimate) -> Estimate:
        """Difference of independent estimates: standard errors add in quadrature."""
        return Estimate(self.value - other.value, math.hypot(self.stderr, other.stderr))

    @property
    def lower_bound(self) -> float:
        """Lower confidence bound ``SIGMAS`` standard errors below the value."""
        return self.value - SIGMAS * self.stderr


ProbabilityEstimate = Estimate  # the measurement-side name of the same type


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF, absolute error <= 1e-12 for finite x, exact at +-inf.

    Deep-tail values are clamped at 1e-300 so downstream logarithms stay finite.
    """
    x = float(x)
    if math.isnan(x):
        raise OutOfRange("CDF argument must not be NaN")
    if math.isinf(x):
        return 0.0 if x < 0 else 1.0
    p = float(ndtr(x))
    return max(p, CDF_FLOOR)


def inv_std_normal_cdf(p: float) -> float:
    """Inverse standard normal CDF on (0, 1)."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise OutOfRange(f"quantile argument {p} outside (0, 1)")
    return float(ndtri(p))


def sym_interval_prob(c: float) -> float:
    """Pr(|Z| <= c) for standard normal Z; c may be +inf."""
    if c <= 0:
        return 0.0
    if math.isinf(c):
        return 1.0
    return float(ndtr(c) - ndtr(-c))


def _as_seed_sequence(seed) -> tuple[np.random.SeedSequence, int | None]:
    if isinstance(seed, np.random.SeedSequence):
        return seed, None
    if seed is None:
        raise InvalidParameters("an integer seed is required for reproducibility")
    seed = int(seed)
    if seed < 0:
        raise InvalidParameters(f"seed must be a non-negative integer, got {seed}")
    return np.random.SeedSequence(seed), seed


def _children(seed_seq: np.random.SeedSequence, k: int) -> list[np.random.SeedSequence]:
    """The k children ``seed_seq.spawn(k)`` would return, without advancing its counter.

    Spawning advances the parent's child counter, so a ``SeedSequence`` passed
    twice would give two different estimates; these children depend on the
    parent's state alone.
    """
    start = seed_seq.n_children_spawned
    return [np.random.SeedSequence(seed_seq.entropy, spawn_key=seed_seq.spawn_key + (i,),
                                   pool_size=seed_seq.pool_size)
            for i in range(start, start + k)]


def _conditioning_system(sigma, lower, upper, tol: float = 1e-10):
    """Greedy conditioning order and factor for the sequential transform.

    At every step the remaining coordinate with the smallest estimated
    conditional interval probability is processed next (narrowest first,
    conditionally, ranking with truncated-normal means); near-singular
    directions are therefore eliminated while their conditional variance is
    still large, which keeps the transformed integrand smooth. Coordinates
    whose residual variance falls below `tol` are dependent: they get a zero
    diagonal and their value is an exact linear function of earlier ones.

    Returns the reordered factor with unit diagonal on free rows plus the
    correspondingly scaled bounds.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0]
    sd = np.sqrt(np.clip(np.diag(sigma), 0.0, None))
    scale = np.where(sd > 0, sd, 1.0)
    resid = sigma / scale / scale[:, None]
    lo = np.asarray(lower, dtype=float) / scale
    hi = np.asarray(upper, dtype=float) / scale

    coef = np.zeros((n, n))     # coef[i, j]: loading of coordinate i on y_j
    pivot_sd = np.zeros(n)
    y_rank = np.zeros(n)        # truncated means, used only to rank pivots
    order: list[int] = []
    remaining = list(range(n))
    sqtp = math.sqrt(2.0 * math.pi)
    for step in range(n):
        best, best_de, best_stats = -1, 2.0, (0.0, 0.0, 0.0)
        for i in remaining:
            res = resid[i, i]
            if res > tol:
                ci = math.sqrt(res)
                s = coef[i, :step] @ y_rank[:step] if step else 0.0
                lo_i = (lo[i] - s) / ci
                hi_i = (hi[i] - s) / ci
                de = float(ndtr(hi_i) - ndtr(lo_i))
                if de <= best_de:
                    best, best_de, best_stats = i, de, (ci, lo_i, hi_i)
        if best < 0:
            break
        ci, lo_b, hi_b = best_stats
        order.append(best)
        remaining.remove(best)
        pivot_sd[len(order) - 1] = ci
        if remaining:
            idx = np.asarray(remaining)
            load = resid[idx, best] / ci
            coef[idx, step] = load
            resid[np.ix_(idx, idx)] -= np.outer(load, load)
        if best_de > tol:
            lo_d = math.exp(-0.5 * lo_b * lo_b) if abs(lo_b) < 40 else 0.0
            hi_d = math.exp(-0.5 * hi_b * hi_b) if abs(hi_b) < 40 else 0.0
            y_rank[step] = (lo_d - hi_d) / (sqtp * best_de)
        else:
            y_rank[step] = 0.5 * (max(lo_b, -10.0) + min(hi_b, 10.0))

    free = len(order)
    rows = order + remaining  # dependent coordinates go last
    ell = np.zeros((n, n))
    new_lo = np.empty(n)
    new_hi = np.empty(n)
    for k, i in enumerate(rows):
        if k < free:
            ell[k, :k] = coef[i, :k] / pivot_sd[k]
            ell[k, k] = 1.0
            new_lo[k] = lo[i] / pivot_sd[k]
            new_hi[k] = hi[i] / pivot_sd[k]
        else:
            ell[k, :free] = coef[i, :free]
            new_lo[k] = lo[i]
            new_hi[k] = hi[i]
    return ell, new_lo, new_hi


def _transform_plan(ell):
    """Static plan for the sequential transform.

    Dependent rows (zero diagonal) are exact linear constraints on earlier
    free variables; each is folded into the conditional interval of the last
    free variable it involves, so the integrand stays continuous instead of
    acquiring 0/1 indicator jumps. Rows with no free loading at all reduce to
    constant feasibility checks.
    """
    n = ell.shape[0]
    free = np.diag(ell) > 0.0
    folds: dict[int, list[int]] = {}
    constant_rows = []
    for r in np.flatnonzero(~free):
        nz = np.flatnonzero(np.abs(ell[r, :r]) > ZERO_COEF)
        if nz.size == 0:
            constant_rows.append(int(r))
        else:
            folds.setdefault(int(nz[-1]), []).append(int(r))
    needs_y = np.zeros(n, dtype=bool)
    for j in np.flatnonzero(free):
        later_free = np.abs(ell[j + 1:, j]).max() > ZERO_COEF if j + 1 < n else False
        later_fold = any(abs(ell[r, j]) > ZERO_COEF and last > j
                         for last, rows in folds.items() for r in rows)
        needs_y[j] = bool(later_free or later_fold)
    return free, folds, constant_rows, needs_y


def _genz_product(ell, plan, a, b, w):
    """Sequential-conditioning integrand over uniforms w of shape (..., m, npts); plan from ell.

    Leading axes are a batch: each (m, npts) slice gets the same matrix-vector
    products it would get alone, so its values do not depend on the batch.
    """
    n = ell.shape[0]
    shape = w.shape[:-2] + w.shape[-1:]
    free, folds, constant_rows, needs_y = plan
    f = np.ones(shape)
    for r in constant_rows:
        # Zero-variance coordinate: its value is exactly 0.
        if not (a[r] <= DEGENERATE_SLACK and b[r] >= -DEGENERATE_SLACK):
            return np.zeros(shape)
    y = np.zeros(w.shape[:-2] + (n,) + w.shape[-1:])
    col = 0
    for i in range(n):
        if not free[i]:
            continue
        s = ell[i, :i] @ y[..., :i, :] if i else 0.0
        lo_bound = a[i] - s
        hi_bound = b[i] - s
        for r in folds.get(i, ()):
            sr = ell[r, :i] @ y[..., :i, :] if i else 0.0
            cr = ell[r, i]
            if cr > 0:
                lo_bound = np.maximum(lo_bound, (a[r] - sr) / cr)
                hi_bound = np.minimum(hi_bound, (b[r] - sr) / cr)
            else:
                lo_bound = np.maximum(lo_bound, (b[r] - sr) / cr)
                hi_bound = np.minimum(hi_bound, (a[r] - sr) / cr)
        lo = ndtr(lo_bound)
        hi = ndtr(hi_bound)
        diff = np.maximum(hi - lo, 0.0)
        f = f * diff
        if needs_y[i]:
            u = np.clip(lo + w[..., col, :] * diff, CDF_FLOOR, 1.0 - 1e-16)
            y[..., i, :] = ndtri(u)
            col += 1
    return f


def _primes_up_to(n: int) -> np.ndarray:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(math.isqrt(n)) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve)


def _primitive_root(p: int) -> int:
    factors = set()
    m = p - 1
    for q in _primes_up_to(int(math.isqrt(m)) + 1):
        while m % q == 0:
            factors.add(int(q))
            m //= q
    if m > 1:
        factors.add(int(m))
    for r in range(2, p):
        if all(pow(r, (p - 1) // q, p) != 1 for q in factors):
            return r
    raise RuntimeError(f"no primitive root found for {p}")  # pragma: no cover


@lru_cache(maxsize=128)
def _cbc_lattice(n_dim: int, n_target: int) -> tuple[tuple[float, ...], int]:
    """Rank-1 lattice generator by fast component-by-component construction.

    The point count is rounded down to the largest prime <= n_target; the
    returned generator q lies in (0, 1)^n_dim. Standard Korobov-kernel CBC
    with product weights, evaluated through FFT convolutions.
    """
    primes = _primes_up_to(max(n_target, 3))
    n = int(primes[-1])
    if n_dim == 1:
        return (1.0 / n,), n
    gamma = np.hstack([1.0, 0.8 ** np.arange(n_dim - 1)])
    z = np.ones(n_dim, dtype=int)
    m = (n - 1) // 2
    g = _primitive_root(n)
    perm = np.ones(m, dtype=int)
    for j in range(m - 1):
        perm[j + 1] = (g * perm[j]) % n
    perm = np.minimum(n - perm, perm)
    pn = perm / n
    kernel = pn * pn - pn + 1.0 / 6.0
    fft_kernel = fft(kernel)
    q = 1.0
    w = 0
    for s in range(1, n_dim):
        reordered = np.hstack([kernel[:w + 1][::-1], kernel[w + 1:m][::-1]])
        q = q * (1.0 + gamma[s - 1] * reordered)
        w = int(np.argmin(ifft(fft_kernel * fft(q)).real))
        z[s] = perm[w]
    return tuple(z / n), n


def rect_prob(
    model: CorrelationModel,
    lower,
    upper,
    budget: int = 1 << 16,
    seed: int | np.random.SeedSequence = 0,
) -> Estimate:
    """Estimate Pr(lower_i <= X_i <= upper_i for all i) by randomized QMC.

    The budget is a total sample target split over ``REPLICATES`` independently
    shifted copies of a rank-1 lattice (point count rounded down to a prime
    so the fast CBC construction applies; a tent transform periodizes the
    integrand). Replicate r is shifted by uniforms drawn from the r-th child
    of `seed` (``_children``, which leaves a ``SeedSequence`` argument
    unchanged). The integrand is evaluated on blocks of whole replicates of
    at most ``QMC_BLOCK`` coordinates (n x points) each, and each replicate's
    value is the mean over its own points. The standard error is the
    replicate spread divided by sqrt(REPLICATES). Results are reproducible
    from (seed, budget) alone and independent of the block size.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    n = model.size
    if lower.shape != (n,) or upper.shape != (n,):
        raise DimensionMismatch("bounds must match the model size")
    if np.any(np.isnan(lower)) or np.any(np.isnan(upper)) or np.any(lower > upper):
        raise InvalidBounds("need lower_i <= upper_i for all i")
    if budget < MIN_BUDGET:
        raise BudgetTooSmall(f"budget {budget} < {MIN_BUDGET}")

    ell, a, b = _conditioning_system(model.sigma, lower, upper)
    plan = _transform_plan(ell)
    m = int(plan[3].sum())
    seed_seq, seed_int = _as_seed_sequence(seed)

    if m == 0:
        # Product-form or fully degenerate system: the integrand is constant
        # and the value is exact up to representation rounding.
        value = float(_genz_product(ell, plan, a, b, np.zeros((0, 1)))[0])
        return Estimate(min(max(value, 0.0), 1.0), QMC_STDERR_FLOOR, 0, METHOD_QMC, seed_int)

    q, per_replicate = _cbc_lattice(m, max(budget // REPLICATES, 3))
    base = np.outer(np.asarray(q), np.arange(1, per_replicate + 1))
    shifts = np.stack([np.random.default_rng(child).random(m)
                       for child in _children(seed_seq, REPLICATES)])  # (REPLICATES, m)
    block = max(1, QMC_BLOCK // (n * per_replicate))
    values = np.empty(REPLICATES)
    for r in range(0, REPLICATES, block):
        z = base + shifts[r:r + block, :, None]  # (block, m, points)
        z -= np.floor(z)
        w = np.abs(2.0 * z - 1.0)  # tent periodization
        values[r:r + block] = _genz_product(ell, plan, a, b, w).mean(axis=1)
    value = float(np.mean(values))
    stderr = max(float(np.std(values, ddof=1) / math.sqrt(REPLICATES)), QMC_STDERR_FLOOR)
    return Estimate(
        min(max(value, 0.0), 1.0), stderr, per_replicate * REPLICATES, METHOD_QMC, seed_int
    )


def symmetric_rect_prob(
    model: CorrelationModel,
    c: ThresholdVector,
    budget: int = 1 << 16,
    seed: int | np.random.SeedSequence = 0,
) -> Estimate:
    """Pr(|X_i| <= c_i for all i); equals rect_prob on [-c, c]."""
    bounds = c.as_array
    return rect_prob(model, -bounds, bounds, budget, seed)


def _interval_from_constraints(coefs, res_lo, res_hi):
    """Solve res_lo_i <= coefs_i * t <= res_hi_i for t; returns (lo, hi)."""
    lo, hi = -np.inf, np.inf
    for c, a, b in zip(coefs, res_lo, res_hi):
        if abs(c) <= ZERO_COEF:
            if a > 0 or b < 0:
                return 1.0, 0.0
        elif c > 0:
            lo = max(lo, a / c)
            hi = min(hi, b / c)
        else:
            lo = max(lo, b / c)
            hi = min(hi, a / c)
    return lo, hi


def _phi_density(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def oracle_region_prob(rows, lower, upper) -> float:
    """Standard Gaussian mass of {y in R^d : lower <= rows @ y <= upper}, d <= 3.

    Deterministic quadrature built on one planar rule, ``_plane_mass``: for
    d <= 2 the region is a single planar layer (rows zero-padded to width 2),
    and d = 1 reduces to an exact CDF difference. For d = 3 adaptive
    quadrature to ``ORACLE_TOL`` over y_1, clipped to |y_1| <= 9 (truncation
    far below ``ORACLE_TOL``) and broken at the first coordinates of the
    region's vertices, integrates the planar layers at fixed y_1.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    d = rows.shape[1]
    if d > 3:
        raise DimensionTooLarge("quadrature oracle supports d <= 3")
    if np.any(lower > upper):
        raise InvalidBounds("need lower_i <= upper_i")

    # Constraints with an all-zero row are pure feasibility conditions.
    zero = np.all(np.abs(rows) <= ZERO_COEF, axis=1)
    if np.any((lower[zero] > 0) | (upper[zero] < 0)):
        return 0.0
    rows, lower, upper = rows[~zero], lower[~zero], upper[~zero]
    if rows.shape[0] == 0:
        return 1.0

    if d <= 2:
        value = _plane_mass(np.hstack([rows, np.zeros((rows.shape[0], 2 - d))]), lower, upper)
    else:
        from scipy.integrate import quad

        pure = np.all(np.abs(rows[:, 1:]) <= ZERO_COEF, axis=1)
        x1lo, x1hi = _interval_from_constraints(rows[pure, 0], lower[pure], upper[pure])
        x1lo, x1hi = max(x1lo, -QUAD_CLIP), min(x1hi, QUAD_CLIP)
        if x1hi <= x1lo:
            return 0.0
        u, lo, hi = rows[~pure], lower[~pure], upper[~pure]

        def layer(x1):
            return _phi_density(x1) * _plane_mass(u[:, 1:], lo - u[:, 0] * x1, hi - u[:, 0] * x1)

        kinks = _vertex_x1(rows, lower, upper)
        kinks = kinks[(kinks > x1lo) & (kinks < x1hi)]
        value, _ = quad(layer, x1lo, x1hi, points=kinks if kinks.size else None,
                        epsabs=ORACLE_TOL * 0.3, limit=400 + kinks.size)
    return float(min(max(value, 0.0), 1.0))


def _vertex_x1(rows, lower, upper) -> np.ndarray:
    """Sorted first coordinates of the vertices of {y : lower <= rows @ y <= upper} in R^3.

    A vertex is a feasible point where three constraint planes meet. Between
    these coordinates every planar layer keeps its combinatorial type, so the
    layer mass is analytic in y_1 and adaptive quadrature can trust its error
    estimate; across them it has kinks that can hide from that estimate.
    """
    if rows.shape[0] < 3:
        return np.zeros(0)
    bounds = np.column_stack([lower, upper])
    sides = np.array(list(itertools.product((0, 1), repeat=3)))
    lo_tol = lower - DEGENERATE_SLACK * (1.0 + np.abs(lower))
    hi_tol = upper + DEGENERATE_SLACK * (1.0 + np.abs(upper))
    trip = np.array(list(itertools.combinations(range(rows.shape[0]), 3)))
    x1 = []
    # blocks of triples keep the (candidate point x row) check near ORACLE_BLOCK entries
    for block in np.array_split(trip, 1 + trip.shape[0] * 8 * rows.shape[0] // ORACLE_BLOCK):
        block = block[np.abs(np.linalg.det(rows[block])) > 1e-12]
        rhs = bounds[block[:, None, :], sides]  # triple x side x plane
        t, k = np.nonzero(np.all(np.isfinite(rhs), axis=2))
        pts = np.linalg.solve(rows[block[t]], rhs[t, k][..., None])[..., 0]
        proj = pts @ rows.T
        x1.append(pts[np.all((proj >= lo_tol) & (proj <= hi_tol), axis=1), 0])
    return np.unique(np.concatenate(x1))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_PANEL_MAX_LEN = 0.5
_Y_GRID = np.linspace(-QUAD_CLIP, QUAD_CLIP, int(2 * QUAD_CLIP / _PANEL_MAX_LEN) + 1)


def _envelopes(p_hi, p_lo, q, x):
    """min_i (p_hi_i + q_i x) and max_i (p_lo_i + q_i x) at every x.

    Evaluated in column blocks of about ``ORACLE_BLOCK`` entries, so memory
    stays bounded for many constraints; each column is its own exact min or
    max, so the values do not depend on the block size.
    """
    y_hi, y_lo = np.empty(x.size), np.empty(x.size)
    step = max(1, ORACLE_BLOCK // q.size)
    for s in range(0, x.size, step):
        qx = q[:, None] * x[s:s + step]
        y_hi[s:s + step] = np.min(p_hi[:, None] + qx, axis=0)
        y_lo[s:s + step] = np.max(p_lo[:, None] + qx, axis=0)
    return y_hi, y_lo


def _plane_mass(u, lo, hi) -> float:
    """Standard Gaussian mass of {(x, y) : lo <= u @ (x, y) <= hi}.

    Rows with no y loading bound x, clipped to |x| <= 9. The others bound the
    slice at x between envelopes of affine functions of x, so the integrand
    phi(x) * Pr(y in slice(x)) is analytic between the kinks of those
    envelopes; 16-node Gauss-Legendre panels between kinks, at most
    ``_PANEL_MAX_LEN`` wide in x and in every active bound, give near machine
    precision.
    """
    flat = np.abs(u[:, 1]) <= ZERO_COEF
    xlo, xhi = _interval_from_constraints(u[flat, 0], lo[flat], hi[flat])
    xlo, xhi = max(xlo, -QUAD_CLIP), min(xhi, QUAD_CLIP)
    if xhi <= xlo:
        return 0.0
    u, lo, hi = u[~flat], lo[~flat], hi[~flat]
    if u.shape[0] == 0:
        return float(ndtr(xhi) - ndtr(xlo))
    pos = u[:, 1] > 0
    q = -u[:, 0] / u[:, 1]
    p_hi = np.where(pos, hi, lo) / u[:, 1]
    p_lo = np.where(pos, lo, hi) / u[:, 1]

    # Panel boundaries: kinks of the envelopes, i.e. pairwise crossings of the
    # finite bound functions where both lie on their envelope, and, for a
    # bound steeper than 1 (it moves faster in y than in x), the points on its
    # envelope stretch where it crosses the y grid, so no panel moves an active
    # bound by more than _PANEL_MAX_LEN while |y| <= 9 (beyond, its CDF is flat).
    p_all, q_all = np.concatenate([p_hi, p_lo]), np.concatenate([q, q])
    upper_fn = np.arange(p_all.size) < q.size
    idx = np.flatnonzero(np.isfinite(p_all))
    i, j = np.triu_indices(idx.size, 1)
    i, j = idx[i], idx[j]
    cross = np.abs(q_all[i] - q_all[j]) > ZERO_COEF
    i, j = i[cross], j[cross]
    steep = idx[np.abs(q_all[idx]) > 1.0]
    x = np.concatenate([(p_all[j] - p_all[i]) / (q_all[i] - q_all[j]),
                        ((_Y_GRID - p_all[steep, None]) / q_all[steep, None]).ravel()])
    i = np.concatenate([i, np.repeat(steep, _Y_GRID.size)])
    j = np.concatenate([j, np.repeat(steep, _Y_GRID.size)])
    keep = (x > xlo) & (x < xhi)
    x, i, j = x[keep], i[keep], j[keep]
    y = p_all[i] + q_all[i] * x
    # rounding of p + q x grows with |p| and |q x|, which are large for steep bounds
    slack = DEGENERATE_SLACK * (1.0 + np.abs(p_all[i]) + np.abs(q_all[i] * x)
                                + np.abs(p_all[j]) + np.abs(q_all[j] * x))
    env_hi, env_lo = _envelopes(p_hi, p_lo, q, x)
    on_top = y <= env_hi + slack
    on_bottom = y >= env_lo - slack
    active = np.where(upper_fn[i], on_top, on_bottom) & np.where(upper_fn[j], on_top, on_bottom)
    edges = np.unique(np.concatenate([[xlo, xhi], x[active]]))
    # Subdivide long panels so a fixed-order rule stays accurate.
    widths = np.diff(edges)
    pieces = np.ceil(widths / _PANEL_MAX_LEN).astype(int)
    half = np.repeat(0.5 * widths / pieces, pieces)
    within = np.arange(half.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    centers = np.repeat(edges[:-1], pieces) + half * (2 * within + 1)

    nodes = (centers[:, None] + half[:, None] * _GL_NODES).ravel()
    weights = (half[:, None] * _GL_WEIGHTS).ravel()
    y_hi, y_lo = _envelopes(p_hi, p_lo, q, nodes)
    probs = np.clip(ndtr(y_hi) - ndtr(y_lo), 0.0, None)
    dens = np.exp(-0.5 * nodes * nodes) / math.sqrt(2.0 * math.pi)
    return float(np.sum(weights * probs * dens))


def oracle_rect_prob(model: CorrelationModel, lower, upper) -> Estimate:
    """Deterministic rectangle probability for models of factor dimension <= 3."""
    if model.dim > 3:
        raise DimensionTooLarge(f"oracle supports d <= 3, model has d={model.dim}")
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if lower.shape != (model.size,) or upper.shape != (model.size,):
        raise DimensionMismatch("bounds must match the model size")
    if np.any(lower > upper):
        raise InvalidBounds("need lower_i <= upper_i")
    value = oracle_region_prob(model.factor_rows, lower, upper)
    return Estimate(value, ORACLE_TOL, 0, METHOD_ORACLE, None)
