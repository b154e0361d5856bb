"""Exception hierarchy shared across the package."""


class GciLabError(Exception):
    """Base class for every error raised by this package."""


class MalformedInput(GciLabError):
    """File or literal input could not be parsed (ragged CSV rows, bad tokens)."""


class NotFinite(GciLabError):
    """Numeric input holds a NaN or an infinity where finite values are required."""


class NotSymmetric(GciLabError):
    """Matrix or body fails a required symmetry check."""


class NotPSD(GciLabError):
    """Covariance factorization hit a pivot below -1e-10."""


class InvalidDimension(GciLabError):
    """Requested sizes violate 1 <= d <= n."""


class OutOfRange(GciLabError):
    """Scalar argument lies outside its admissible interval."""


class InvalidBounds(GciLabError):
    """Rectangle bounds are inconsistent (lower > upper, nonpositive threshold)."""


class BudgetTooSmall(GciLabError):
    """Sampling budget below the minimum required for the estimator."""


class DimensionTooLarge(GciLabError):
    """Deterministic quadrature oracle only covers factor dimension <= 3."""


class DegenerateInput(GciLabError):
    """Geometric input collapses (too few vertices, unbounded polytope)."""


class DimensionMismatch(GciLabError):
    """Point or body dimensions are incompatible."""


class SolverFailure(GciLabError):
    """Simplex feasibility solver exceeded its iteration cap."""


class NotUnconditional(GciLabError):
    """Body is not symmetric under all coordinate sign flips."""


class InvalidParameters(GciLabError):
    """Checker parameters violate the documented preconditions."""


class NotStandardized(GciLabError):
    """Correction tool requires unit variances on the diagonal."""


class PremiseViolated(GciLabError):
    """Lattice premise failed on a sampled pair; indicates a geometry bug."""
