"""Refined simultaneous confidence corrections.

The classical Sidak rectangle for k standardized coordinates at level
1 - alpha uses the critical value c with Phi(c) = (1 + (1-alpha)^(1/k)) / 2.
Because the joint-to-product ratio A(a) at widened thresholds c + a is a
certified lower bound for the coverage ratio at c itself, any a with
A(a) > 1 raises the certified level of the same rectangle to A(a)(1-alpha).
This module searches a geometric grid of widenings for the certified level,
and inverts the direct lower confidence bound on the joint coverage (A(0)
times the marginals, which no widening can exceed) into a smaller critical
value.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .errors import NotStandardized, OutOfRange
from .gaussmodel import CorrelationModel, ThresholdVector
from .ineqlab import json_safe, sidak_ratio
from .mvnprob import Estimate, _as_seed_sequence, _children, inv_std_normal_cdf, symmetric_rect_prob

A_GRID = tuple(0.05 * 2.0 ** j for j in range(9)) + (math.inf,)
ROOT_XTOL = 1e-9  # bracket width for the root of the coverage bound


def sidak_critical_value(alpha: float, k: int) -> float:
    """Classical simultaneous critical value: Phi(c) = (1 + (1-alpha)^(1/k)) / 2."""
    if not (0.0 < alpha < 1.0):
        raise OutOfRange(f"alpha={alpha} outside (0, 1)")
    if k < 1:
        raise OutOfRange("k must be >= 1")
    return inv_std_normal_cdf(0.5 * (1.0 + (1.0 - alpha) ** (1.0 / k)))


def _require_standardized(model: CorrelationModel) -> None:
    if not model.is_standardized():
        raise NotStandardized("correction tool requires unit variances; "
                              "standardize the model first")


def improvement_factor(model: CorrelationModel, c: float, a: float,
                       budget: int = 1 << 16, seed=0) -> Estimate:
    """A(a) = Pr(all |Y_i| <= c+a) / prod_i Pr(|Y_i| <= c+a) on a standardized model.

    A(a) never exceeds the coverage ratio at c, so its lower confidence
    bound certifies an improved simultaneous level. a = 0 gives the direct
    coverage ratio, a = inf gives exactly 1.
    """
    _require_standardized(model)
    if c <= 0:
        raise OutOfRange("critical value c must be positive")
    if a < 0:
        raise OutOfRange("widening a must be nonnegative")
    if math.isinf(a):
        return Estimate(1.0, 0.0)
    return sidak_ratio(model, ThresholdVector.constant(model.size, c + a), budget, seed)


@dataclass(frozen=True)
class CorrectionResult:
    """Grid search outcome for the refined simultaneous confidence level."""

    alpha: float
    k: int
    c: float
    a_grid: tuple
    a_best: float | None
    A_best: float
    improved_level: float
    grid_rows: tuple  # (a, A value, A stderr, A lower bound) per grid point
    seed: int | None
    budget: int
    runtime_ms: float

    def to_json_dict(self) -> dict:
        return json_safe({
            "label": "correction",
            "alpha": self.alpha,
            "k": self.k,
            "c": self.c,
            "a_grid": list(self.a_grid),
            "a_best": self.a_best,
            "A_best": self.A_best,
            "improved_level": self.improved_level,
            "grid": [
                {"a": a, "A": v, "stderr": se, "A_lower": lo}
                for (a, v, se, lo) in self.grid_rows
            ],
            "seed": self.seed,
            "budget": self.budget,
        })


def improved_confidence(model: CorrelationModel, alpha: float,
                        budget: int = 1 << 16, seed=0) -> CorrectionResult:
    """Largest certified improvement factor over the widening grid.

    Each A(a) is replaced by its lower confidence bound (``lower_bound``) before
    maximizing, so the claimed level is conservative under sampling noise.
    The factor never drops below 1 (no widening is always admissible), and
    the improved level is additionally capped by the direct lower confidence
    bound on the joint coverage at c.
    """
    _require_standardized(model)
    t0 = time.perf_counter()
    seed_seq, seed_int = _as_seed_sequence(seed)
    n = model.size
    c = sidak_critical_value(alpha, n)
    children = _children(seed_seq, len(A_GRID) + 1)
    rows = []
    a_best: float | None = None
    best_lower = 1.0
    for a, child in zip(A_GRID, children):
        est = improvement_factor(model, c, a, budget, child)
        lower = est.lower_bound
        rows.append((a, est.value, est.stderr, lower))
        if lower > best_lower:
            best_lower = lower
            a_best = a
    joint_c = symmetric_rect_prob(model, ThresholdVector.constant(n, c), budget, children[-1])
    level = max(1.0 - alpha, min(best_lower * (1.0 - alpha), joint_c.lower_bound))
    level = min(level, 1.0)
    return CorrectionResult(
        alpha=alpha,
        k=n,
        c=c,
        a_grid=A_GRID,
        a_best=a_best,
        A_best=best_lower,
        improved_level=level,
        grid_rows=tuple(rows),
        seed=seed_int,
        budget=budget,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
    )


def improved_critical_value(model: CorrelationModel, alpha: float,
                            budget: int = 1 << 14, seed=0) -> float:
    """Smallest c' whose certified coverage bound reaches 1 - alpha.

    The root over [z_(alpha/2), c_classical] of the direct lower confidence
    bound of Pr(all |Y_i| <= c'). No widening is searched: A(a) <= A(0), so
    a widened factor times the marginals can exceed the direct bound only by
    noise. Every evaluation uses one integer key drawn from ``seed``: a
    deterministic model (rank <= 2, one-factor, or a block product of these,
    see ``mvnprob.rect_prob``) ignores it and its bound is the value less
    ``SIGMAS`` * ``ORACLE_TOL``; a sampled model gets the same lattice and
    shifts at every c' (common random numbers), so its bound is a fixed
    function of c' too. ``_covering_root`` brackets the root of that function
    to ``ROOT_XTOL`` and c' is the covering end of the bracket. Falls back to
    the classical value, which always covers.
    """
    _require_standardized(model)
    if not (0.0 < alpha < 1.0):
        raise OutOfRange(f"alpha={alpha} outside (0, 1)")
    seed_seq, _ = _as_seed_sequence(seed)
    key = int(seed_seq.generate_state(1)[0])
    n = model.size
    target = 1.0 - alpha
    hi = sidak_critical_value(alpha, n)
    lo = inv_std_normal_cdf(1.0 - alpha / 2.0)

    def gap(value: float) -> float:
        bound = symmetric_rect_prob(model, ThresholdVector.constant(n, value), budget, key)
        return bound.lower_bound - target

    gap_lo = gap(lo)
    if gap_lo >= 0.0:
        return lo
    gap_hi = gap(hi)
    if gap_hi < 0.0:
        return hi  # conservative fallback: the classical value always covers
    return _covering_root(gap, lo, hi, gap_lo, gap_hi)


def _covering_root(gap, lo: float, hi: float, gap_lo: float, gap_hi: float) -> float:
    """Covering end of a bracket [lo, hi], gap(lo) < 0 <= gap(hi), shrunk to ``ROOT_XTOL``.

    Regula falsi with the Illinois modification (Dowell & Jarratt 1971): the
    end that stays put twice in a row has its gap halved, so both ends close
    in superlinearly on an increasing gap. Every step keeps gap(hi) >= 0, so
    the returned hi covers whatever the step count, also where a sampled
    bound is not monotone or jumps; at most 100 steps.
    ``scipy.optimize.brentq`` would do as well, but importing
    ``scipy.optimize`` adds about 21 MB to the process.
    """
    kept = 0  # +1: hi moved last, -1: lo moved last
    for _ in range(100):
        if hi - lo <= ROOT_XTOL or gap_hi == 0.0:
            break
        c = hi - gap_hi * (hi - lo) / (gap_hi - gap_lo)
        g = gap(c)
        if g >= 0.0:
            hi, gap_hi = c, g
            if kept == 1:
                gap_lo *= 0.5
            kept = 1
        else:
            lo, gap_lo = c, g
            if kept == -1:
                gap_hi *= 0.5
            kept = -1
    return hi


def correction_table(result: CorrectionResult) -> str:
    """Human-readable per-grid-point table for the correction result."""
    lines = [
        f"alpha = {result.alpha:.6g}   k = {result.k}   classical c = {result.c:.6f}",
        f"{'a':>10}  {'A(a)':>12}  {'stderr':>10}  {'A lower':>12}  {'level':>10}",
    ]
    for a, value, se, lower in result.grid_rows:
        a_txt = "inf" if math.isinf(a) else f"{a:.4g}"
        level = max(lower, 1.0) * (1.0 - result.alpha)
        lines.append(f"{a_txt:>10}  {value:12.6f}  {se:10.2e}  {lower:12.6f}  {level:10.6f}")
    lines.append(
        f"best widening: {result.a_best}   certified factor: {result.A_best:.6f}   "
        f"improved level: {result.improved_level:.6f}"
    )
    return "\n".join(lines)
