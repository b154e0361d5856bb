"""Univariate normal primitives and multivariate rectangle probabilities.

``rect_prob`` is the one function that picks the method for Pr(a_i <= X_i <=
b_i for all i) of a centered Gaussian vector. Zero-variance coordinates are
exact conditions X_i = 0. A covariance whose exact nonzero pattern splits into
independent blocks is measured block by block, identical blocks once, and the
probabilities multiply. A single block of rank d <= 2 gets the exact planar
oracle on its factor rows. The rest is standardized once. One-factor models,
whose correlations are lam_i lam_j off the diagonal with |lam_i| < 1
(equicorrelation rho in (0, 1)), get one deterministic 1-D integral over the
common factor on graded Gauss-Legendre panels, accepted when the panels and
the panels halved agree within ORACLE_TOL / 10. Every other model, and a
one-factor model that fails that check, goes to the sampling engine.

The sampling engine (``_qmc_rect_prob``) conditions sequentially through a
greedily ordered semidefinite Cholesky factorization: each coordinate is
mapped through the normal CDF and its inverse onto the unit cube, and the
cube integral is evaluated on randomly shifted rank-1 lattices with tent
periodization.
Replicated randomizations supply a standard error. Infinite bounds are exact
(the CDF is evaluated symbolically at +-inf, never truncated), and
rank-deficient covariances are handled without regularization. The lattice
points are evaluated in chunks of at most ``QMC_CHUNK`` points, on a pool of
two threads when a call has two or more chunks (the normal primitives
release the interpreter lock); every estimate is the same as on one thread.

The deterministic oracle ``oracle_region_prob`` covers factor dimension d <= 3
and is the independent cross-check for the sampling engine at d = 3: a planar
region's mass is a sum of Owen's T values over the edges an angle-sorted
half-plane sweep finds, exact to rounding, and adaptive quadrature over the
first factor integrates such layers.

``scipy.integrate`` is imported inside the d = 3 oracle branch, the one place
that uses it: it pulls in ``scipy.optimize``, which together with it is most of
the package's cold start, and most calls never reach that branch. For the
same reason ``concurrent.futures`` is imported when the thread pool is first
needed.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import fft, ifft
from scipy.special import ndtr, ndtri, owens_t

from .errors import (
    BudgetTooSmall,
    DimensionMismatch,
    DimensionTooLarge,
    InvalidBounds,
    InvalidParameters,
    OutOfRange,
)
from .gaussmodel import (
    GRAM_TOL,
    PIVOT_TOL,
    CorrelationModel,
    ThresholdVector,
    _require_finite,
    from_covariance,
)

ORACLE_TOL = 1e-7        # absolute tolerance of the quadrature oracle
CDF_FLOOR = 1e-300       # lower clamp for deep-tail CDF values
MIN_BUDGET = 1000
QMC_STDERR_FLOOR = 1e-15  # accumulated representation rounding of the estimate
QUAD_CLIP = 9.0          # |x| > 9 carries mass < 2e-19, below every tolerance
DEGENERATE_SLACK = 1e-9  # membership slack of a candidate vertex of a d = 3 region
ZERO_COEF = 1e-13        # loadings of the conditioning factor, on the correlation scale
# Lattice points per kernel call, so its arrays stay cache-sized. A power of 2: BLAS
# matrix-vector kernels round the last few points of a call (points mod their
# unroll) on a separate path, so a split run of another length could move bits.
QMC_CHUNK = 1 << 13
ORACLE_BLOCK = 1 << 21   # entries per (vertex x row) array of the d = 3 vertex search: 16 MB
PLANE_BOX = 40.0         # planar regions are cut to |y|_inf <= 40: the mass outside is < 1e-300
LINE_TOL = 1e-12         # sine below which two boundary lines of a planar region are parallel
SIGMAS = 3.0             # verdict and confidence-bound width, in standard errors
REPLICATES = 12          # independently shifted lattice copies behind every QMC stderr
_BOX = np.column_stack([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0], np.full(4, PLANE_BOX)])
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)  # per quadrature panel
_PANEL_MAX_LEN = 0.5     # longest quadrature panel, in standard deviations

METHOD_ORACLE = "quadrature-oracle"
METHOD_ONE_FACTOR = "one-factor"
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


def inv_std_normal_cdf(p: float) -> float:
    """Inverse standard normal CDF on (0, 1)."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise OutOfRange(f"quantile argument {p} outside (0, 1)")
    return float(ndtri(p))


def _interval_mass(a, b):
    """Phi(b) - Phi(a), elementwise, for a <= b (either may be infinite).

    An interval centred above 0 is taken as its mirror image, Phi(-a) - Phi(-b),
    so upper-tail intervals keep the relative precision of lower-tail ones; a
    symmetric interval is not flipped.
    """
    return ndtr(np.minimum(b, -a)) - ndtr(np.minimum(a, -b))


def sym_interval_prob(c: float) -> float:
    """Pr(|Z| <= c) for standard normal Z; c may be +inf."""
    if c <= 0:
        return 0.0
    if math.isinf(c):
        return 1.0
    return float(_interval_mass(-c, c))


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


def _conditioning_system(corr, lo, hi):
    """Greedy conditioning order and factor for the sequential transform.

    Bounds are standardized. At every step the remaining coordinate of
    `corr` with the smallest estimated conditional interval probability is
    processed next (narrowest first, conditionally, ranking with
    truncated-normal means); near-singular directions are therefore
    eliminated while their conditional variance is still large, which keeps
    the transformed integrand smooth. Coordinates whose residual variance is
    at most ``PIVOT_TOL`` are dependent: they get a zero diagonal and their
    value is an exact linear function of earlier ones.

    Returns the reordered factor with unit diagonal on free rows plus the
    correspondingly scaled bounds.
    """
    resid = np.array(corr, dtype=float)
    n = resid.shape[0]

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
            if res > PIVOT_TOL:
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
        if best_de > PIVOT_TOL:
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
    acquiring 0/1 indicator jumps. On the correlation scale a dependent row
    has unit norm, so it always loads on some free variable.
    """
    n = ell.shape[0]
    free = np.diag(ell) > 0.0
    folds: dict[int, list[int]] = {}
    for r in np.flatnonzero(~free):
        last = np.flatnonzero(np.abs(ell[r, :r]) > ZERO_COEF)[-1]
        folds.setdefault(int(last), []).append(int(r))
    needs_y = np.zeros(n, dtype=bool)
    for j in np.flatnonzero(free):
        later_free = np.abs(ell[j + 1:, j]).max() > ZERO_COEF if j + 1 < n else False
        later_fold = any(abs(ell[r, j]) > ZERO_COEF and last > j
                         for last, rows in folds.items() for r in rows)
        needs_y[j] = bool(later_free or later_fold)
    return free, folds, needs_y


def _genz_product(ell, plan, a, b, w):
    """Sequential-conditioning integrand over uniforms w of shape (..., m, npts); plan from ell.

    Leading axes are a batch: each (m, npts) slice gets the same matrix-vector
    products it would get alone, so its values do not depend on the batch. A
    run of points cut from a row at multiples of ``QMC_CHUNK`` gets the values
    those points get in the whole row, so they do not depend on the chunk.
    """
    n = ell.shape[0]
    shape = w.shape[:-2] + w.shape[-1:]
    free, folds, needs_y = plan
    f = np.ones(shape)
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


def _one_factor_loadings(corr: np.ndarray) -> np.ndarray | None:
    """Loadings lam of a one-factor correlation matrix, or None.

    A model is one-factor when the off-diagonal part of its correlation
    matrix C is lam lam^T with all |lam_i| < 1. Exact equicorrelation rho >=
    0 is recognized first (lam_i = sqrt(rho)). Otherwise the largest
    off-diagonal entry C_jk = lam_j lam_k and the other rows, which give the
    ratio lam_j / lam_k by least squares, fix lam_j, and lam_i = C_ij /
    lam_j; the fit must reproduce C within ``GRAM_TOL``, so n = 2 with 0 <
    |rho| < 1 always qualifies, though ``rect_prob`` sends such models to the
    planar oracle first. A residual variance 1 - lam_i^2 at or below
    ``PIVOT_TOL`` counts as exact dependence. Such models and independent
    coordinates (lam = 0, already exact on the sampling engine's product
    path) return None.
    """
    n = corr.shape[0]
    if n < 2:
        return None
    c = np.array(corr, dtype=float)
    np.fill_diagonal(c, c[0, 1])
    if c[0, 1] >= 0.0 and c.min() == c.max():
        lam = np.full(n, math.sqrt(c[0, 1]))
    else:
        np.fill_diagonal(c, 0.0)  # then sums over rows i != j, k need no mask
        j, k = divmod(int(np.abs(c).argmax()), n)
        den = c[:, k] @ c[:, k] - c[j, k] ** 2
        lam_j2 = abs(c[j, k]) if den == 0.0 else c[j, k] * (c[:, j] @ c[:, k]) / den
        if not lam_j2 > 0.0:
            return None
        lam = c[:, j] / math.sqrt(lam_j2)
        lam[j] = math.sqrt(lam_j2)
        resid = np.outer(lam, lam) - c
        np.fill_diagonal(resid, 0.0)
        if np.abs(resid).max() > GRAM_TOL:
            return None
    if not lam.any() or (lam * lam).max() >= 1.0 - PIVOT_TOL:
        return None
    return lam


def _one_factor_edges(lo, hi, lam) -> np.ndarray:
    """Panel edges on [-QUAD_CLIP, QUAD_CLIP] for the one-factor integrand.

    Factor i switches on across z = lo_i / lam_i and off across hi_i / lam_i,
    over a width h_i = s_i / |lam_i| that vanishes as |lam_i| -> 1. Edges sit
    at each switch point and at distances h, 2h, 4h, ... from it up to
    ``_PANEL_MAX_LEN``, so every panel is smooth on its own scale and the
    panel count grows like log(1 / h), not 1 / h.
    """
    nz = lam != 0.0
    points = np.concatenate([lo[nz] / lam[nz], hi[nz] / lam[nz]])
    width = np.tile(np.sqrt(1.0 - lam[nz] ** 2) / np.abs(lam[nz]), 2)
    near = np.isfinite(points) & (np.abs(points) < QUAD_CLIP + _PANEL_MAX_LEN)
    points, width = points[near], width[near]
    edges = [np.array([-QUAD_CLIP, QUAD_CLIP]), points]
    if points.size and width.min() < _PANEL_MAX_LEN:
        steps = int(math.ceil(math.log2(_PANEL_MAX_LEN / width.min())))
        grades = width[:, None] * 2.0 ** np.arange(steps)
        short = grades < _PANEL_MAX_LEN
        centers = np.repeat(points, short.sum(axis=1))
        edges += [centers - grades[short], centers + grades[short]]
    edges = np.concatenate(edges)
    return np.unique(edges[np.abs(edges) <= QUAD_CLIP])


def _gauss_legendre(edges, split: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of 16-node Gauss-Legendre panels between sorted edges.

    Gaps longer than ``_PANEL_MAX_LEN`` are cut into equal panels no longer
    than that, so a fixed-order rule stays accurate, and every panel into
    `split` equal parts.
    """
    widths = np.diff(edges)
    pieces = np.ceil(widths / _PANEL_MAX_LEN).astype(int) * split
    half = np.repeat(0.5 * widths / pieces, pieces)
    within = np.arange(half.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    centers = np.repeat(edges[:-1], pieces) + half * (2 * within + 1)
    nodes = (centers[:, None] + half[:, None] * _GL_NODES).ravel()
    return nodes, (half[:, None] * _GL_WEIGHTS).ravel()


def _one_factor_mass(z, weights, lo, hi, lam, counts) -> float:
    """Sum over nodes z of weights * phi(z) prod_i Pr(lo_i <= lam_i z + s_i e_i <= hi_i)^count_i."""
    s = np.sqrt(1.0 - lam ** 2)[:, None]
    shift = lam[:, None] * z
    probs = _interval_mass((lo[:, None] - shift) / s, (hi[:, None] - shift) / s)
    joint = np.prod(probs ** counts[:, None], axis=0)
    dens = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return float(np.sum(weights * dens * joint))


def _one_factor_prob(corr: np.ndarray, lower, upper) -> Estimate | None:
    """Exact one-factor rectangle probability, or None when the model or rule does not apply.

    With X_i = lam_i Z + s_i E_i, s_i = sqrt(1 - lam_i^2) and Z, E
    independent standard normals, Pr(lower <= X <= upper) at correlation
    `corr` and standardized bounds a, b is the single integral over z of
    phi(z) prod_i [Phi((b_i - lam_i z) / s_i) - Phi((a_i - lam_i z) / s_i)],
    for any n (Dunnett & Sobel 1955). Coordinates unbounded on both sides
    drop out, and coordinates with equal (a_i, b_i, lam_i) share one factor
    raised to their count. The panels between ``_one_factor_edges`` and the same panels
    halved must agree within ORACLE_TOL / 10; otherwise None, and the caller
    samples.
    """
    lam = _one_factor_loadings(corr)
    if lam is None:
        return None
    keep = ~np.isneginf(lower) | ~np.isposinf(upper)
    if not keep.any():
        return None  # nothing to integrate: the product path gives exactly 1
    rows, counts = np.unique(np.column_stack([lower, upper, lam])[keep], axis=0, return_counts=True)
    lo, hi, lam = rows.T
    edges = _one_factor_edges(lo, hi, lam)
    coarse = _one_factor_mass(*_gauss_legendre(edges), lo, hi, lam, counts)
    value = _one_factor_mass(*_gauss_legendre(edges, 2), lo, hi, lam, counts)
    if abs(value - coarse) > 0.1 * ORACLE_TOL:
        return None
    return Estimate(min(max(value, 0.0), 1.0), ORACLE_TOL, 0, METHOD_ONE_FACTOR, None)


def _checked_bounds(lower, upper, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds as float arrays of shape (n,), no NaN and lower_i <= upper_i."""
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if lower.shape != (n,) or upper.shape != (n,):
        raise DimensionMismatch(f"need {n} lower and {n} upper bounds, one per row")
    if not np.all(lower <= upper):  # also false for a NaN bound
        raise InvalidBounds("need lower_i <= upper_i for all i")
    return lower, upper


def rect_prob(
    model: CorrelationModel,
    lower,
    upper,
    budget: int = 1 << 16,
    seed: int | np.random.SeedSequence = 0,
) -> Estimate:
    """Pr(lower_i <= X_i <= upper_i for all i); the one place that picks a method.

    The input checks (bounds, ``MIN_BUDGET``, seed) come first, on every
    path. A zero-variance coordinate is X_i = 0: bounds that exclude 0 give
    exactly 0, and it drops out otherwise. A covariance that splits into
    independent groups (``_components``) gives the product of the groups'
    probabilities, each from a ``rect_prob`` call of its own
    (``_block_prob``). A single group of rank d <= 2 then gets the exact
    planar oracle ``oracle_region_prob`` on its factor rows. The rest is
    standardized once, and a one-factor model gets the 1-D integral of
    ``_one_factor_prob``. These report stderr ``ORACLE_TOL``, 0 samples and
    seed None, under method ``quadrature-oracle`` or ``one-factor``, and use
    neither budget nor seed. Every other model, and a one-factor model whose
    panel check fails, goes to ``_qmc_rect_prob``.
    """
    lower, upper = _checked_bounds(lower, upper, model.size)
    if budget < MIN_BUDGET:
        raise BudgetTooSmall(f"budget {budget} < {MIN_BUDGET}")
    _as_seed_sequence(seed)  # a bad seed is an error even where no sample is drawn

    rows, sigma = model.factor_rows, model.sigma
    pos = model.variances > 0.0
    if not pos.all():
        if np.any((lower[~pos] > 0.0) | (upper[~pos] < 0.0)):
            return Estimate(0.0, ORACLE_TOL, 0, METHOD_ORACLE, None)
        rows, sigma, lower, upper = rows[pos], sigma[np.ix_(pos, pos)], lower[pos], upper[pos]
    groups = _components(sigma)
    if len(groups) > 1:
        return _block_prob(sigma, lower, upper, groups, budget, seed)
    if model.dim <= 2:
        return Estimate(oracle_region_prob(rows, lower, upper), ORACLE_TOL, 0, METHOD_ORACLE, None)
    sd = np.sqrt(np.diag(sigma))
    corr = sigma / sd / sd[:, None]
    lower, upper = lower / sd, upper / sd
    exact = _one_factor_prob(corr, lower, upper)
    return _qmc_rect_prob(corr, lower, upper, budget, seed) if exact is None else exact


def _components(sigma: np.ndarray) -> list[np.ndarray]:
    """Index groups of sigma that are independent of each other, ordered by first index.

    The groups are the connected components of the exact nonzero pattern of
    `sigma`, except that coordinates with no nonzero correlation share one
    group: a diagonal model is a single group. A sigma without an exact zero
    is one group after a single test.
    """
    n = sigma.shape[0]
    if sigma.all():
        return [np.arange(n)]
    linked = sigma != 0.0
    # Each coordinate takes the smallest label among its neighbours and itself
    # until nothing changes: the label of a component is its first index.
    labels = np.arange(n)
    while True:
        new = np.where(linked, labels, n).min(axis=1)
        if np.array_equal(new, labels):
            break
        labels = new
    alone = linked.sum(axis=1) == 1
    if alone.any():
        labels[alone] = labels[alone].min()
    return [np.flatnonzero(labels == k) for k in np.unique(labels)]


_EXACTNESS = {METHOD_QMC: 0, METHOD_ONE_FACTOR: 1, METHOD_ORACLE: 2}  # least exact first


def _block_prob(sigma, lower, upper, groups, budget: int, seed) -> Estimate:
    """Product over independent index groups of their rectangle probabilities.

    Group k is measured by ``rect_prob`` on its own block with child k of
    `seed` (``_children``). Groups whose covariance block and bounds are
    byte-identical are measured once, with the child of the first, and the
    estimate is raised to their count. The product reports the least exact
    method of any group, the samples of the groups measured and the call's
    integer seed.
    """
    seed_seq, seed_int = _as_seed_sequence(seed)
    children = _children(seed_seq, len(groups))
    alike: dict[tuple, list[int]] = {}
    for k, idx in enumerate(groups):
        key = (sigma[np.ix_(idx, idx)].tobytes(), lower[idx].tobytes(), upper[idx].tobytes())
        alike.setdefault(key, []).append(k)
    total, samples, method = Estimate(1.0), 0, METHOD_ORACLE
    for first, *rest in alike.values():
        idx = groups[first]
        est = rect_prob(from_covariance(sigma[np.ix_(idx, idx)]), lower[idx], upper[idx],
                        budget, children[first])
        total = total.times(est.powered(1 + len(rest)))
        samples += est.samples
        method = min(method, est.method, key=_EXACTNESS.get)
    return Estimate(total.value, total.stderr, samples, method, seed_int)


def _qmc_rect_prob(corr: np.ndarray, lower, upper, budget: int, seed) -> Estimate:
    """Estimate Pr(lower_i <= X_i <= upper_i for all i) by randomized QMC.

    `corr` is a correlation matrix and the bounds are checked, standardized
    arrays (see ``rect_prob``). The budget is a total
    sample target split over ``REPLICATES`` independently
    shifted copies of a rank-1 lattice (point count rounded down to a prime
    so the fast CBC construction applies; a tent transform periodizes the
    integrand). Replicate r is shifted by uniforms drawn from the r-th child
    of `seed` (``_children``, which leaves a ``SeedSequence`` argument
    unchanged). The integrand is evaluated in chunks of at most
    ``QMC_CHUNK`` points: whole replicates batched together when a replicate
    has fewer points, runs of one replicate's points otherwise. Each chunk
    does its own tent transform and writes its values into one (REPLICATES,
    points) array, and each replicate's value is the mean over its own row.
    A call with two or more chunks maps them over the thread pool
    (``_pool``), in any order. The standard error is the replicate spread
    divided by sqrt(REPLICATES). Results are reproducible from (seed, budget)
    alone and independent of the chunk size and of the threads.
    """
    ell, a, b = _conditioning_system(corr, lower, upper)
    plan = _transform_plan(ell)
    m = int(plan[2].sum())
    seed_seq, seed_int = _as_seed_sequence(seed)

    if m == 0:
        # Product-form system: the integrand is constant and the value is
        # exact up to representation rounding.
        value = float(_genz_product(ell, plan, a, b, np.zeros((0, 1)))[0])
        return Estimate(min(max(value, 0.0), 1.0), QMC_STDERR_FLOOR, 0, METHOD_QMC, seed_int)

    q, per_replicate = _cbc_lattice(m, max(budget // REPLICATES, 3))
    base = np.outer(np.asarray(q), np.arange(1, per_replicate + 1))
    shifts = np.stack([np.random.default_rng(child).random(m)
                       for child in _children(seed_seq, REPLICATES)])  # (REPLICATES, m)
    batch = max(1, QMC_CHUNK // per_replicate)  # replicates per chunk
    run = min(per_replicate, QMC_CHUNK)         # points per chunk
    chunks = [(r, s) for r in range(0, REPLICATES, batch) for s in range(0, per_replicate, run)]
    f = np.empty((REPLICATES, per_replicate))

    def integrate(chunk):
        r, s = chunk
        z = base[:, s:s + run] + shifts[r:r + batch, :, None]  # (replicates, m, points)
        z -= np.floor(z)
        w = np.abs(2.0 * z - 1.0)  # tent periodization
        f[r:r + batch, s:s + run] = _genz_product(ell, plan, a, b, w)

    for _ in (_pool().map if len(chunks) > 1 else map)(integrate, chunks):
        pass  # reading every result re-raises a chunk's exception
    values = f.mean(axis=1)
    value = float(np.mean(values))
    stderr = max(float(np.std(values, ddof=1) / math.sqrt(REPLICATES)), QMC_STDERR_FLOOR)
    return Estimate(
        min(max(value, 0.0), 1.0), stderr, per_replicate * REPLICATES, METHOD_QMC, seed_int
    )


_executor = None
_executor_lock = threading.Lock()


def _pool():
    """The process's QMC thread pool, created on first use.

    min(2, usable CPUs) workers. A forked child starts without it
    (``_forget_pool``): the parent's worker threads do not exist there, so
    work submitted to the inherited pool would never run.
    """
    global _executor
    with _executor_lock:
        if _executor is None:
            from concurrent.futures import ThreadPoolExecutor

            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            _executor = ThreadPoolExecutor(min(2, cpus), thread_name_prefix="gcilab-qmc")
        return _executor


def _forget_pool() -> None:
    global _executor, _executor_lock
    _executor, _executor_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only, like fork itself
    os.register_at_fork(after_in_child=_forget_pool)


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
        if c == 0.0:
            if a > 0 or b < 0:
                return 1.0, 0.0
        elif c > 0:
            lo = max(lo, a / c)
            hi = min(hi, b / c)
        else:
            lo = max(lo, b / c)
            hi = min(hi, a / c)
    return lo, hi


def oracle_region_prob(rows, lower, upper) -> float:
    """Standard Gaussian mass of {y in R^d : lower <= rows @ y <= upper}, d <= 3.

    d = 1 is an exact CDF difference and d = 2 the exact planar rule
    ``_plane_mass``. For d = 3 adaptive quadrature to ``ORACLE_TOL`` over y_1,
    clipped to |y_1| <= 9 and broken at the vertices' first coordinates,
    integrates planar layers. Rows must be finite (``NotFinite``), with one
    bound pair each (``DimensionMismatch``), none NaN (``InvalidBounds``).
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    d = rows.shape[1]
    if d > 3:
        raise DimensionTooLarge("quadrature oracle supports d <= 3")
    _require_finite(rows, "constraint rows")
    lower, upper = _checked_bounds(lower, upper, rows.shape[0])

    # Exactly zero rows are pure feasibility conditions; a row of any other size
    # is a constraint, whatever the units. No point meets +inf below or -inf above.
    zero = np.all(rows == 0.0, axis=1)
    if np.any(np.where(zero, (lower > 0) | (upper < 0), np.isposinf(lower) | np.isneginf(upper))):
        return 0.0
    rows, lower, upper = rows[~zero], lower[~zero], upper[~zero]
    if rows.shape[0] == 0:
        return 1.0

    if d == 1:
        value = _interval_mass(*_interval_from_constraints(rows[:, 0], lower, upper))
    elif d == 2:
        value = _plane_mass(rows, lower, upper)
    else:
        from scipy.integrate import quad

        pure = np.all(rows[:, 1:] == 0.0, axis=1)
        x1lo, x1hi = _interval_from_constraints(rows[pure, 0], lower[pure], upper[pure])
        x1lo, x1hi = max(x1lo, -QUAD_CLIP), min(x1hi, QUAD_CLIP)
        if x1hi <= x1lo:
            return 0.0
        u, lo, hi = rows[~pure], lower[~pure], upper[~pure]

        def layer(x1):
            density = math.exp(-0.5 * x1 * x1) / math.sqrt(2.0 * math.pi)
            return density * _plane_mass(u[:, 1:], lo - u[:, 0] * x1, hi - u[:, 0] * x1)

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
    norms = np.linalg.norm(rows, axis=1)
    x1 = []
    # blocks of triples keep the (candidate point x row) check near ORACLE_BLOCK entries
    for block in np.array_split(trip, 1 + trip.shape[0] * 8 * rows.shape[0] // ORACLE_BLOCK):
        # |det| relative to the rows' norms, so the kinks do not depend on units
        block = block[np.abs(np.linalg.det(rows[block])) > 1e-12 * np.prod(norms[block], axis=1)]
        rhs = bounds[block[:, None, :], sides]  # triple x side x plane
        t, k = np.nonzero(np.all(np.isfinite(rhs), axis=2))
        pts = np.linalg.solve(rows[block[t]], rhs[t, k][..., None])[..., 0]
        proj = pts @ rows.T
        x1.append(pts[np.all((proj >= lo_tol) & (proj <= hi_tol), axis=1), 0])
    return np.unique(np.concatenate(x1))


def _turn(q, p) -> float:
    """Sine of the angle from q's normal to p's."""
    return q[0] * p[1] - q[1] * p[0]


def _step(p, q) -> float:
    """Position along p = (n_x, n_y, b), |n| = 1, from its foot b n, where q's line crosses."""
    return (q[2] - p[2] * (p[0] * q[0] + p[1] * q[1])) / _turn(p, q)


def _cuts(p, a, b) -> bool:
    """Whether half-plane p cuts off the crossing of a and b, ties within LINE_TOL along b."""
    margin = a[2] * (a[0] * p[0] + a[1] * p[1]) + _step(a, b) * _turn(a, p) - p[2]
    return margin > LINE_TOL * abs(_turn(b, p))


def _halfplane_sweep(lines) -> list:
    """Counter-clockwise boundary lines of the half-planes n . y <= b, or [] if no polygon.

    `lines` are (n_x, n_y, b), |n| = 1, sorted by normal angle, one per angle,
    bounding box included. Each drops lines at the back, then the front, of the
    deque whose crossing it cuts off; of two parallel lines the tighter stays,
    and a turn by pi or more between neighbours leaves nothing.
    """
    hull = deque()
    for p in lines:
        while len(hull) > 1 and _cuts(p, hull[-2], hull[-1]):
            hull.pop()
        while len(hull) > 1 and _cuts(p, hull[1], hull[0]):
            hull.popleft()
        if hull and _turn(hull[-1], p) <= LINE_TOL:  # parallel, or turning by pi or more
            if _turn(hull[-1], p) < -LINE_TOL or hull[-1][0] * p[0] + hull[-1][1] * p[1] < 0.0:
                return []
            if p[2] >= hull[-1][2]:
                continue
            hull.pop()
        hull.append(p)
    while len(hull) > 2 and _cuts(hull[0], hull[-2], hull[-1]):
        hull.pop()
    while len(hull) > 2 and _cuts(hull[-1], hull[1], hull[0]):
        hull.popleft()
    return list(hull) if len(hull) > 2 else []


def _plane_mass(u, lo, hi) -> float:
    """Standard Gaussian mass of {y in R^2 : lo <= u @ y <= hi}; rows nonzero, lo < inf, hi > -inf.

    The finite bounds and the box |y|_inf <= ``PLANE_BOX`` meet in a convex
    polygon, found by ``_halfplane_sweep`` in O(m log m). Its mass sums over
    the counter-clockwise edges, on lines at signed distance h, sign(h)
    [M(s_b) - M(s_a)] with M(s) = sign(s) [arctan(|s| / |h|) / 2 pi - T(|h|,
    |s| / |h|)], the mass of the triangle from 0 to the foot of the
    perpendicular and the point s from it; T is Owen's T (Owen 1956). Empty
    regions, segments and points give 0.
    """
    scale = np.hypot(u[:, 0], u[:, 1])[:, None]
    up, down = np.isfinite(hi), np.isfinite(lo)
    # + 0.0 clears -0.0, whose normal would sort to angle -pi, away from the box's +pi
    half = np.vstack([np.column_stack([u, hi])[up] / scale[up],
                      np.column_stack([-u, -lo])[down] / scale[down], _BOX]) + 0.0
    angle = np.arctan2(half[:, 1], half[:, 0])
    order = np.lexsort((half[:, 2], angle))
    hull = _halfplane_sweep(half[order[np.unique(angle[order], return_index=True)[1]]].tolist())
    if not hull:
        return 0.0
    lines = np.array(hull)
    along = np.column_stack([-lines[:, 1], lines[:, 0]])
    ends = np.array([_step(p, q) for p, q in zip(hull, hull[1:] + hull[:1])])
    # both edges at a corner share one point, so rounding along near-parallel lines cancels
    corners = lines[:, :2] * lines[:, 2:] + ends[:, None] * along
    s = np.stack([np.sum(along * np.roll(corners, 1, axis=0), axis=1), ends])
    live = np.abs(lines[:, 2]) > 1e-300  # nearer lines bound no mass, and |s| / h would overflow
    h, s = np.abs(lines[live, 2]), s[:, live]
    m = np.sign(s) * (np.arctan(np.abs(s) / h) / (2.0 * math.pi) - owens_t(h, np.abs(s) / h))
    return float(np.sum(np.sign(lines[live, 2]) * (m[1] - m[0])))
