"""Covariance models for centered Gaussian vectors.

A joint Gaussian vector (X_1, ..., X_n) with covariance matrix sigma is
carried around together with factor rows u_1, ..., u_n in R^d satisfying
<u_i, u_j> = sigma_ij, so that X_i = <Y, u_i> for a standard Gaussian Y
in R^d. Degenerate covariances are first class: d is the numerical rank of
the correlation matrix, detected by pivoted Cholesky, so it does not depend on
units, and d <= n always. Zero-variance coordinates have zero rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GciLabError,
    InvalidBounds,
    InvalidDimension,
    MalformedInput,
    NotFinite,
    NotPSD,
    NotSymmetric,
)

# Symmetry is judged relative to the largest |sigma_ii| (see ``_scale``), rank
# and the Gram check on the correlation scale, so none depends on units.
SYMMETRY_TOL = 1e-10
PIVOT_TOL = 1e-10
GRAM_TOL = 1e-10


def _scale(sigma: np.ndarray) -> float:
    """max |sigma_ii|, or 1 when the diagonal is zero (the zero covariance)."""
    top = float(np.max(np.abs(np.diag(sigma))))
    return top if top > 0 else 1.0


def _require_finite(a: np.ndarray, what: str = "covariance entries and factor rows") -> None:
    # NaN slips through every tolerance comparison, so reject it up front.
    if not np.all(np.isfinite(a)):
        raise NotFinite(f"{what} must be finite")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class CorrelationModel:
    """Covariance sigma plus factor rows whose Gram matrix reproduces it."""

    sigma: np.ndarray        # (n, n) symmetric PSD
    factor_rows: np.ndarray  # (n, d) rows u_i with <u_i, u_j> = sigma_ij

    def __post_init__(self):
        sigma = _frozen(np.atleast_2d(self.sigma))
        rows = _frozen(np.atleast_2d(self.factor_rows))
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "factor_rows", rows)
        _require_finite(sigma)
        _require_finite(rows)
        n = sigma.shape[0]
        if sigma.shape != (n, n):
            raise NotSymmetric("covariance matrix must be square")
        scale = _scale(sigma)
        if np.max(np.abs(sigma - sigma.T)) > SYMMETRY_TOL * scale:
            raise NotSymmetric("covariance matrix is not symmetric within 1e-10 max|sigma_ii|")
        if rows.shape[0] != n:
            raise InvalidDimension("one factor row per variable is required")
        if rows.shape[1] > n:
            raise InvalidDimension("factor dimension d must satisfy d <= n")
        # Relative to sd_i sd_j for positive variances, to the largest one otherwise.
        sd = np.sqrt(np.clip(np.diag(sigma), 0.0, None))
        pair = np.outer(sd, sd)
        if np.any(np.abs(rows @ rows.T - sigma) > 10 * GRAM_TOL * np.where(pair > 0, pair, scale)):
            raise GciLabError("factor rows do not reproduce sigma")

    @property
    def size(self) -> int:
        """Number of variables n."""
        return self.sigma.shape[0]

    @property
    def dim(self) -> int:
        """Factor dimension d (numerical rank for pivoted-Cholesky models)."""
        return self.factor_rows.shape[1]

    @property
    def variances(self) -> np.ndarray:
        return np.diag(self.sigma)

    def is_standardized(self, tol: float = 1e-9) -> bool:
        return bool(np.max(np.abs(self.variances - 1.0)) <= tol)

    def standardized(self) -> "CorrelationModel":
        """Rescale to unit variances (correlation form)."""
        s = np.sqrt(self.variances)
        if np.any(s <= 0):
            raise InvalidBounds("zero-variance coordinate cannot be standardized")
        return from_covariance(self.sigma / np.outer(s, s))

    def submodel(self, indices) -> "CorrelationModel":
        """Model of the subvector (X_i)_{i in indices}, refactorized."""
        idx = np.asarray(list(indices), dtype=int)
        return from_covariance(self.sigma[np.ix_(idx, idx)])

    def __repr__(self):  # noqa: D105
        return f"CorrelationModel(n={self.size}, d={self.dim})"


def _pivoted_cholesky(a: np.ndarray, tol: float) -> np.ndarray:
    """Factor rows U (n x rank) with U U^T = a, pivoting on the residual diagonal."""
    n = a.shape[0]
    ell = np.zeros((n, n))
    resid = np.diag(a).astype(float).copy()
    done = np.zeros(n, dtype=bool)
    rank = 0
    for k in range(n):
        masked = np.where(done, -np.inf, resid)
        j = int(np.argmax(masked))
        piv = resid[j]
        if piv <= tol:
            if np.min(resid[~done]) < -tol:
                raise NotPSD("pivot below -1e-10 on the correlation scale; matrix is not PSD")
            break
        ell[j, k] = np.sqrt(piv)
        rest = ~done & (np.arange(n) != j)
        if rest.any():
            cross = a[rest, j] - ell[rest, :k] @ ell[j, :k]
            ell[rest, k] = cross / ell[j, k]
            resid[rest] -= ell[rest, k] ** 2
        resid[j] = 0.0
        done[j] = True
        rank = k + 1
    # Rank 0 only for the zero covariance; factor it in R^1.
    return ell[:, :rank] if rank else np.zeros((n, 1))


def from_covariance(matrix) -> CorrelationModel:
    """Build a model from a symmetric PSD matrix via pivoted Cholesky.

    The correlation matrix of the positive-variance coordinates is factored
    at pivot tolerance ``PIVOT_TOL`` and each row scaled back by its sd, so
    rank and rows do not depend on units. Zero-variance coordinates get rows
    that are exactly zero; one with a covariance, or a variance below -1e-10
    max|sigma_ii|, raises ``NotPSD``. NaN or infinite entries raise ``NotFinite``.
    """
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    _require_finite(a)
    n = a.shape[0]
    if a.shape != (n, n):
        raise NotSymmetric("covariance matrix must be square")
    scale = _scale(a)
    if np.max(np.abs(a - a.T)) > SYMMETRY_TOL * scale:
        raise NotSymmetric("covariance matrix is not symmetric within 1e-10 max|sigma_ii|")
    a = 0.5 * (a + a.T)
    sd = np.sqrt(np.clip(np.diag(a), 0.0, None))
    pos = sd > 0.0
    if np.any(np.abs(a[~pos]) > PIVOT_TOL * scale):
        raise NotPSD("variance <= 0 with a covariance beyond 1e-10 max|sigma_ii|; not PSD")
    unit = np.where(pos, sd, 1.0)
    corr = np.where(np.outer(pos, pos), a / unit / unit[:, None], 0.0)
    np.fill_diagonal(corr, pos)
    return CorrelationModel(sigma=a, factor_rows=sd[:, None] * _pivoted_cholesky(corr, PIVOT_TOL))


def random_correlation(n: int, d: int, seed: int) -> CorrelationModel:
    """Gram matrix of n independent uniformly random unit vectors in R^d.

    Unit variances and PSD structure hold by construction; deterministic
    for a fixed seed.
    """
    if not (1 <= d <= n):
        raise InvalidDimension(f"need 1 <= d <= n, got d={d}, n={n}")
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d))
    norms = np.linalg.norm(rows, axis=1)
    while np.any(norms < 1e-12):  # pragma: no cover - measure-zero event
        bad = norms < 1e-12
        rows[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(rows, axis=1)
    rows /= norms[:, None]
    sigma = rows @ rows.T
    sigma = 0.5 * (sigma + sigma.T)
    np.fill_diagonal(sigma, 1.0)
    return CorrelationModel(sigma=sigma, factor_rows=rows)


def equicorrelated(n: int, rho: float) -> CorrelationModel:
    """Standardized model with constant off-diagonal correlation rho."""
    if not (-1.0 / max(n - 1, 1) <= rho <= 1.0):
        raise InvalidBounds(f"equicorrelation rho={rho} is not PSD for n={n}")
    sigma = np.full((n, n), float(rho))
    np.fill_diagonal(sigma, 1.0)
    return from_covariance(sigma)


def product_model(model: CorrelationModel, copies: int) -> CorrelationModel:
    """Block-diagonal model of `copies` independent replicas of `model`."""
    if copies < 1:
        raise InvalidDimension("copies must be >= 1")
    sigma = np.kron(np.eye(copies), model.sigma)
    n, d = model.factor_rows.shape
    rows = np.zeros((copies * n, copies * d))
    for k in range(copies):
        rows[k * n:(k + 1) * n, k * d:(k + 1) * d] = model.factor_rows
    return CorrelationModel(sigma=sigma, factor_rows=rows)


@dataclass(frozen=True, eq=False)
class ThresholdVector:
    """Per-coordinate symmetric bounds c_i in (0, inf]; infinite entries allowed."""

    bounds: np.ndarray

    def __post_init__(self):
        b = _frozen(np.atleast_1d(np.asarray(self.bounds, dtype=float)))
        object.__setattr__(self, "bounds", b)
        if b.ndim != 1:
            raise InvalidBounds("thresholds must form a vector")
        if np.any(np.isnan(b)) or np.any(b <= 0):
            raise InvalidBounds("every threshold must be strictly positive")

    @classmethod
    def constant(cls, n: int, value: float) -> "ThresholdVector":
        return cls(np.full(n, float(value)))

    def __len__(self) -> int:
        return self.bounds.shape[0]

    def __getitem__(self, i: int) -> float:
        return float(self.bounds[i])

    @property
    def as_array(self) -> np.ndarray:
        return self.bounds

    def minimum(self, other: "ThresholdVector") -> "ThresholdVector":
        """Componentwise min; min(inf, x) = x."""
        return ThresholdVector(np.minimum(self.bounds, other.bounds))

    def plus(self, other: "ThresholdVector") -> "ThresholdVector":
        """Componentwise sum; inf + x = inf."""
        return ThresholdVector(self.bounds + other.bounds)

    def scaled(self, factor: float) -> "ThresholdVector":
        if factor <= 0:
            raise InvalidBounds("scale factor must be positive")
        return ThresholdVector(self.bounds * factor)

    def widened(self, amount: float, index: int | None = None) -> "ThresholdVector":
        """Add `amount` to one coordinate (or to all when index is None)."""
        b = self.bounds.copy()
        if index is None:
            b = b + amount
        else:
            b[index] = b[index] + amount
        return ThresholdVector(b)

    def tiled(self, copies: int) -> "ThresholdVector":
        return ThresholdVector(np.tile(self.bounds, copies))


def _read_csv_rows(path) -> list[list[float]]:
    rows: list[list[float]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    for k, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        if k == 0 and line.startswith("#"):
            continue
        if line.startswith("#"):
            raise MalformedInput("only a single leading '#' header line is allowed")
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise MalformedInput(f"non-numeric token on line {k + 1}: {line!r}") from exc
    if not rows:
        raise MalformedInput(f"no numeric rows in {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise MalformedInput("ragged rows are rejected")
    return rows


def load_covariance_csv(path) -> np.ndarray:
    """Covariance matrix from plain numeric CSV rows (optional '#' header)."""
    return np.asarray(_read_csv_rows(path), dtype=float)


def load_vector_csv(path) -> np.ndarray:
    """Numeric vector from CSV: a single row, or a single column."""
    rows = _read_csv_rows(path)
    arr = np.asarray(rows, dtype=float)
    if arr.shape[0] == 1:
        return arr[0]
    if arr.shape[1] == 1:
        return arr[:, 0]
    raise MalformedInput("vector CSV must be a single row or column")
