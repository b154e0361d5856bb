"""Inequality checkers for Gaussian measures of symmetric convex bodies.

Every checker estimates a left-hand side and a right-hand side as
``mvnprob.Estimate`` products (first-order error propagation), takes their
difference with the standard errors in quadrature, and classifies the margin
at ``SIGMAS`` = 3 combined standard errors:

* ``supported``     margin >= +3 stderr
* ``violated``      margin <= -3 stderr
* ``inconclusive``  otherwise

Checkers for proved results (Sidak-Khatri and its refinement, Royen's
inequality, the slab hull inequality, the unconditional strong inequality,
Tehranchi's constant-loss bound, Rogers-Shephard areas) are theorem backed:
a violated verdict indicates a bug and fails the suite. Checkers for the
conjectured strong correlation inequality are exploratory: violations are
findings, reported but not fatal.

``scipy.optimize`` is imported inside ``search_counterexample``, its one user:
it is most of the package's cold start, and most calls never search.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .convexgeom import (
    EXACT_SUM_DIMS,
    HPolytope,
    Polygon2D,
    SymmetricBand,
    clip_halfplane,
    convex_hull_union,
    intersect_polygons,
    minkowski_contains,
    minkowski_sum,
    polygon_minkowski_sum,
)
from .errors import (
    DimensionMismatch,
    InvalidParameters,
    NotUnconditional,
    PremiseViolated,
)
from .gaussmodel import CorrelationModel, ThresholdVector, product_model
from .measure import _body_dim, gauss_measure_mc, minkowski_measure_mc
from .mvnprob import (
    METHOD_ORACLE,
    ORACLE_TOL,
    SIGMAS,
    Estimate,
    _as_seed_sequence,
    _children,
    oracle_region_prob,
    sym_interval_prob,
    symmetric_rect_prob,
)

CLOSED_TOL = 1e-12
RS_TOL = 1e-9            # relative tolerance of a shoelace area
SUPPORTED = "supported"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

THEOREM_BACKED = frozenset({
    "sidak",
    "refined-sidak",
    "royen",
    "slab",
    "unconditional-strong-gci",
    "tehranchi",
    "rogers-shephard",
})

EXPLORATORY = frozenset({
    "strong-gci-bands",
    "strong-gci-2d",
    "hull-counterexample",
})


def classify(margin: float, stderr: float) -> str:
    if margin >= SIGMAS * stderr:
        return SUPPORTED
    if margin <= -SIGMAS * stderr:
        return VIOLATED
    return INCONCLUSIVE


def is_theorem_backed(label: str) -> bool:
    return label in THEOREM_BACKED


@dataclass(frozen=True)
class InequalityReport:
    """One LHS >= RHS comparison with margin, combined error, and verdict."""

    label: str
    instance: dict
    lhs: Estimate
    rhs: Estimate
    margin: float
    stderr: float
    verdict: str
    seed: int | None
    budget: int
    runtime_ms: float

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "instance": json_safe(self.instance),
            "lhs": {"value": self.lhs.value, "stderr": self.lhs.stderr},
            "rhs": {"value": self.rhs.value, "stderr": self.rhs.stderr},
            "margin": self.margin,
            "stderr": self.stderr,
            "verdict": self.verdict,
            "seed": self.seed,
            "budget": self.budget,
            "runtime_ms": self.runtime_ms,
        }


REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "label": {"type": "string"},
        "instance": {"type": "object"},
        "lhs": {
            "type": "object",
            "properties": {"value": {"type": "number"}, "stderr": {"type": "number"}},
            "required": ["value", "stderr"],
            "additionalProperties": False,
        },
        "rhs": {
            "type": "object",
            "properties": {"value": {"type": "number"}, "stderr": {"type": "number"}},
            "required": ["value", "stderr"],
            "additionalProperties": False,
        },
        "margin": {"type": "number"},
        "stderr": {"type": "number", "minimum": 0},
        "verdict": {"enum": [SUPPORTED, VIOLATED, INCONCLUSIVE]},
        "seed": {"type": ["integer", "null"]},
        "budget": {"type": "integer"},
        "runtime_ms": {"type": "number", "minimum": 0},
    },
    "required": ["label", "instance", "lhs", "rhs", "margin", "stderr",
                 "verdict", "seed", "budget", "runtime_ms"],
    "additionalProperties": False,
}


def json_safe(obj):
    """JSON-safe copy: arrays to lists, infinities to the string 'inf'."""
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return json_safe(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _measure(body, budget: int, seed) -> Estimate:
    """Gaussian measure of one body term: the single body-to-estimator dispatch.

    Bands go to ``mvnprob.rect_prob``, which measures rank <= 2 bands with the
    planar oracle, a Minkowski-sum pair ``(K, T)`` to Monte Carlo with sum
    membership, polygons and H-polytopes of dimension <= 2 straight to the
    same oracle on their facet rows (budget and seed unused), and
    higher-dimensional H-polytopes to Monte Carlo membership.
    """
    if isinstance(body, SymmetricBand):
        return symmetric_rect_prob(body.model, body.c, budget, seed)
    if isinstance(body, tuple):
        k, t = body
        return minkowski_measure_mc(k, t, budget, seed)
    if _body_dim(body) <= 2:
        normals, offsets = (body.edge_normals() if isinstance(body, Polygon2D)
                            else (body.normals, body.offsets))
        value = oracle_region_prob(normals, np.full(len(offsets), -np.inf), offsets)
        return Estimate(value, ORACLE_TOL, 0, METHOD_ORACLE, None)
    return gauss_measure_mc(body, budget, seed)


def _evaluate(label, instance, lhs, rhs, budget, seed) -> InequalityReport:
    """Measure both sides of prod(lhs) >= prod(rhs) and classify the margin.

    A term is a closed-form ``Estimate`` or a body for ``_measure``. Each body
    term gets its own child of ``seed`` (``_children``), in declared order, LHS
    first. A body object listed more than once is measured once, with the
    child of its first appearance, so an exact tie such as gamma(K) on both
    sides cancels exactly. Each side is the ``Estimate.times`` product of its
    terms and the margin is their ``Estimate.minus``. A comparison without
    body terms may pass ``seed=None``.
    """
    t0 = time.perf_counter()
    bodies = [term for term in (*lhs, *rhs) if not isinstance(term, Estimate)]
    seed_seq, seed_int = (None, None) if seed is None and not bodies else _as_seed_sequence(seed)
    measured = {}
    for body, child in zip(bodies, _children(seed_seq, len(bodies)) if bodies else ()):
        if id(body) not in measured:
            measured[id(body)] = _measure(body, budget, child)
    sides = []
    for terms in (lhs, rhs):
        product = Estimate(1.0, 0.0)
        for term in terms:
            product = product.times(measured.get(id(term), term))
        sides.append(product)
    lhs_product, rhs_product = sides
    margin = lhs_product.minus(rhs_product)
    return InequalityReport(
        label=label,
        instance=instance,
        lhs=lhs_product,
        rhs=rhs_product,
        margin=margin.value,
        stderr=margin.stderr,
        verdict=classify(margin.value, margin.stderr),
        seed=seed_int,
        budget=budget,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
    )


def _marginal(model: CorrelationModel, i: int, t: float) -> Estimate:
    """Closed-form Pr(|X_i| <= t) for X_i ~ N(0, sigma_ii)."""
    sd = math.sqrt(model.sigma[i, i])
    if sd == 0.0:
        return Estimate(1.0 if t >= 0 else 0.0, CLOSED_TOL)
    return Estimate(sym_interval_prob(t / sd), CLOSED_TOL)


def _instance_dict(model: CorrelationModel, **extra) -> dict:
    inst = {"sigma": model.sigma.tolist()}
    inst.update(extra)
    return inst


# ---------------------------------------------------------------------------
# Probabilistic checkers
# ---------------------------------------------------------------------------

def _sidak_terms(model: CorrelationModel, c: ThresholdVector):
    return [SymmetricBand(model, c)], [_marginal(model, i, c[i]) for i in range(model.size)]


def check_sidak(model: CorrelationModel, c: ThresholdVector,
                budget: int = 1 << 14, seed=0) -> InequalityReport:
    """Sidak-Khatri: Pr(|X_i| <= c_i for all i) >= prod_i Pr(|X_i| <= c_i)."""
    return _evaluate("sidak", _instance_dict(model, c=c.as_array), *_sidak_terms(model, c),
                     budget, seed)


def check_refined_sidak(model: CorrelationModel, c: ThresholdVector, a: float,
                        index: int = 0, budget: int = 1 << 14, seed=0) -> InequalityReport:
    """Refined Sidak-Khatri at one widened coordinate.

    Pr(|X_j| <= c_j + a) * Pr(|X_i| <= c_i for all i)
        >= Pr(|X_j| <= c_j) * Pr(|X_j| <= c_j + a, |X_i| <= c_i otherwise),
    for any a in (0, inf]. At a = inf this collapses to the single-coordinate
    Sidak-Khatri step.
    """
    if not (a > 0):
        raise InvalidParameters("widening a must be positive (inf allowed)")
    if not (0 <= index < model.size):
        raise InvalidParameters("index out of range")
    lhs = [_marginal(model, index, c[index] + a), SymmetricBand(model, c)]
    rhs = [_marginal(model, index, c[index]), SymmetricBand(model, c.widened(a, index))]
    inst = _instance_dict(model, c=c.as_array, a=a, index=index)
    return _evaluate("refined-sidak", inst, lhs, rhs, budget, seed)


def sidak_ratio(model: CorrelationModel, c: ThresholdVector,
                budget: int = 1 << 14, seed=0) -> Estimate:
    """Joint-to-product ratio Pr(all |X_i| <= c_i) / prod_i Pr(|X_i| <= c_i).

    At least 1 up to noise, and non-increasing under threshold widenings.
    Coordinates with infinite thresholds contribute a factor 1 to both sides,
    dropping out of the ratio.
    """
    rep = _evaluate("sidak", {}, *_sidak_terms(model, c), budget, seed)
    return rep.lhs.over(rep.rhs)


def check_royen(model: CorrelationModel, c: ThresholdVector, split: int,
                budget: int = 1 << 14, seed=0) -> InequalityReport:
    """Royen's correlation inequality across a coordinate split.

    Pr(all n constraints) >= Pr(first k) * Pr(last n - k); equality holds for
    block-diagonal covariances split at k.
    """
    n = model.size
    if not (1 <= split < n):
        raise InvalidParameters(f"split must satisfy 1 <= k < n, got {split}")
    bounds = c.as_array
    rhs = [SymmetricBand(model.submodel(range(split)), ThresholdVector(bounds[:split])),
           SymmetricBand(model.submodel(range(split, n)), ThresholdVector(bounds[split:]))]
    inst = _instance_dict(model, c=bounds, split=split)
    return _evaluate("royen", inst, [SymmetricBand(model, c)], rhs, budget, seed)


def _strong_terms(model: CorrelationModel, s: ThresholdVector, t: ThresholdVector):
    return ([SymmetricBand(model, s.plus(t)), SymmetricBand(model, s.minimum(t))],
            [SymmetricBand(model, s), SymmetricBand(model, t)])


def check_strong_gci_bands(model: CorrelationModel, s: ThresholdVector,
                           t: ThresholdVector, budget: int = 1 << 14, seed=0) -> InequalityReport:
    """Exploratory strong correlation inequality in threshold form.

    Pr(<= s + t) * Pr(<= min(s, t)) >= Pr(<= s) * Pr(<= t), with extended
    arithmetic inf + x = inf and min(inf, x) = x. This is a conjecture:
    a violated verdict is a finding, not a failure.
    """
    inst = _instance_dict(model, s=s.as_array, t=t.as_array)
    return _evaluate("strong-gci-bands", inst, *_strong_terms(model, s, t), budget, seed)


# ---------------------------------------------------------------------------
# Geometric checkers
# ---------------------------------------------------------------------------

def check_strong_gci_2d(p: Polygon2D, q: Polygon2D, budget: int = 1 << 17,
                        seed=0) -> InequalityReport:
    """Exploratory strong correlation inequality with the exact 2-D sum.

    gamma(P + Q) * gamma(P inter Q) >= gamma(P) * gamma(Q), all four measures
    by the quadrature oracle: ``budget`` and ``seed`` only go into the report.
    """
    lhs = [polygon_minkowski_sum(p, q), intersect_polygons(p, q)]
    inst = {"p": p.vertices, "q": q.vertices}
    return _evaluate("strong-gci-2d", inst, lhs, [p, q], budget, seed)


def check_slab(body, direction, width: float, budget: int = 1 << 16,
               seed=0) -> InequalityReport:
    """Hull inequality against a symmetric slab (theorem backed).

    gamma(conv(K union T)) * gamma(K inter T) >= gamma(K) * gamma(T) where T
    is the slab {|<x, u>| <= width}. For a polygon K the hull of K and a slab
    is itself a slab of half-width max(h_K(u), width), evaluated in closed
    form; ``direction`` is scaled by its largest entry before normalizing, so
    huge finite entries do not overflow. For a band K, ``direction`` is a
    constraint index j and the hull factor is the threshold bound
    Pr(|X_j| <= max(c_j, width)). When K lies inside the slab (width >= h_K(u),
    or width >= c_j) the intersection is K itself and is listed as ``body``,
    so both sides are gamma(K) gamma(S) from one measurement and tie exactly.
    Polygon terms go to the quadrature oracle: budget and seed do not move them.
    """
    if not (width > 0):
        raise InvalidParameters("slab width must be positive")

    if isinstance(body, SymmetricBand):
        j = int(direction)
        if not (0 <= j < body.model.size):
            raise InvalidParameters("slab index out of range")
        model, c = body.model, body.c
        hi, lo = max(c[j], width), min(c[j], width)
        narrowed = ThresholdVector(np.where(np.arange(len(c)) == j, lo, c.as_array))
        lhs = [_marginal(model, j, hi), body if width >= c[j] else SymmetricBand(model, narrowed)]
        rhs = [body, _marginal(model, j, width)]
        inst = _instance_dict(model, c=c.as_array, index=j, width=width)
        return _evaluate("slab", inst, lhs, rhs, budget, seed)

    if not isinstance(body, Polygon2D):
        raise DimensionMismatch("slab check expects a Polygon2D or a SymmetricBand")
    u = np.asarray(direction, dtype=float)
    scale = np.abs(u).max(initial=0.0)
    if not (np.isfinite(scale) and scale > 0):
        raise InvalidParameters("slab direction must be finite and nonzero")
    u = u / scale
    u = u / np.linalg.norm(u)
    support = body.support(u)
    hull_measure = Estimate(sym_interval_prob(max(support, width)), CLOSED_TOL)
    slab_measure = Estimate(sym_interval_prob(width), CLOSED_TOL)
    inter = body if width >= support else Polygon2D.from_points(
        clip_halfplane(clip_halfplane(body.vertices, u, width), -u, width))
    inst = {"k": body.vertices, "direction": u, "width": width}
    return _evaluate("slab", inst, [hull_measure, inter], [body, slab_measure], budget, seed)


def check_unconditional(k: HPolytope, t: HPolytope, budget: int = 1 << 14,
                        seed=0) -> InequalityReport:
    """Strong correlation inequality for unconditional bodies (theorem backed)."""
    if not k.is_unconditional() or not t.is_unconditional():
        raise NotUnconditional("both bodies must be unconditional")
    if k.dim != t.dim:
        raise DimensionMismatch("bodies live in different dimensions")
    inst = {"k_normals": k.normals, "k_offsets": k.offsets,
            "t_normals": t.normals, "t_offsets": t.offsets}
    return _evaluate("unconditional-strong-gci", inst, [(k, t), k.intersect(t)], [k, t],
                     budget, seed)


@dataclass(frozen=True)
class LatticePremiseReport:
    """Outcome of the coordinatewise lattice premise on sampled pairs."""

    pairs: int
    passed: bool
    seed: int | None


def _sample_in_positive_part(body, count: int, rng) -> np.ndarray:
    """Rejection sample from the positive orthant slice of an unconditional body."""
    out = []
    have = 0
    for _ in range(10_000):
        pts = np.abs(rng.standard_normal((max(4 * count, 256), body.dim)))
        hits = pts[body.contains_many(pts)]
        if hits.size:
            out.append(hits)
            have += hits.shape[0]
        if have >= count:
            break
    else:
        raise InvalidParameters("rejection sampling failed; body has negligible mass")
    return np.vstack(out)[:count]


def check_lattice_premise(k: HPolytope, t: HPolytope, samples: int = 1000,
                          seed=0) -> LatticePremiseReport:
    """Coordinatewise lattice premise for unconditional bodies.

    For x in K and y in T in the positive orthant, the meet x ^ y must lie in
    K inter T and the join x v y in K + T. Joins are tested against the exact
    facet form ``minkowski_sum(k, t)`` for d in ``EXACT_SUM_DIMS`` (1 to 4),
    and for d >= 5 one by one with the HiGHS feasibility LP of
    ``minkowski_contains``. Any failure raises ``PremiseViolated``:
    the premise is a consequence of unconditionality, so a failure means the
    geometry code is wrong.
    """
    if not k.is_unconditional() or not t.is_unconditional():
        raise NotUnconditional("both bodies must be unconditional")
    if k.dim != t.dim:
        raise DimensionMismatch("bodies live in different dimensions")
    if samples < 1:
        raise InvalidParameters(f"need at least one sample pair, got {samples}")
    seed_seq, seed_int = _as_seed_sequence(seed)
    rng = np.random.default_rng(seed_seq)
    xs = _sample_in_positive_part(k, samples, rng)
    ys = _sample_in_positive_part(t, samples, rng)
    meets = np.minimum(xs, ys)
    joins = np.maximum(xs, ys)
    ok_meet = k.contains_many(meets) & t.contains_many(meets)
    if not np.all(ok_meet):
        bad = meets[~ok_meet][0]
        raise PremiseViolated(f"meet point {bad.tolist()} escaped K inter T")
    if k.dim in EXACT_SUM_DIMS:
        ok_join = minkowski_sum(k, t).contains_many(joins)
    else:
        ok_join = np.array([minkowski_contains(k, t, j) for j in joins])
    if not np.all(ok_join):
        bad = joins[~ok_join][0]
        raise PremiseViolated(f"join point {bad.tolist()} escaped K + T")
    return LatticePremiseReport(pairs=samples, passed=True, seed=seed_int)


def check_tehranchi(model: CorrelationModel, s_thr: ThresholdVector,
                    t_thr: ThresholdVector, s: float, t: float,
                    budget: int = 1 << 14, seed=0) -> InequalityReport:
    """Tehranchi's constant-loss bound for band bodies (theorem backed).

    For all sqrt(s) <= t < 1, with d = ``model.dim`` the rank of the correlation matrix,

        (1-s)^(-d/2) * gamma(sqrt(2(1-s)/(1+t)) (K inter T))
                     * gamma(sqrt((1-s)/(2(1-t))) (K + T))
            >= gamma(K) * gamma(T).

    Bands scale by scaling thresholds; the sum is evaluated through its outer
    threshold bound, which only enlarges the left-hand side.
    """
    if not (0 <= s and math.sqrt(s) <= t < 1):
        raise InvalidParameters(f"need 0 <= sqrt(s) <= t < 1, got s={s}, t={t}")
    lam_inter = math.sqrt(2.0 * (1.0 - s) / (1.0 + t))
    lam_sum = math.sqrt((1.0 - s) / (2.0 * (1.0 - t)))
    lhs = [SymmetricBand(model, s_thr.minimum(t_thr).scaled(lam_inter)),
           SymmetricBand(model, s_thr.plus(t_thr).scaled(lam_sum)),
           Estimate((1.0 - s) ** (-model.dim / 2.0), 0.0)]
    rhs = [SymmetricBand(model, s_thr), SymmetricBand(model, t_thr)]
    inst = _instance_dict(model, s_thr=s_thr.as_array, t_thr=t_thr.as_array, s=s, t=t)
    return _evaluate("tehranchi", inst, lhs, rhs, budget, seed)


def check_rogers_shephard(p: Polygon2D, q: Polygon2D) -> InequalityReport:
    """Rogers-Shephard area inequality: area(P+Q) area(P inter Q) >= area(P) area(Q).

    Deterministic shoelace areas; each area's stderr is ``RS_TOL`` / 6 of
    the area itself, so the verdict gate sits at a relative 1e-9 of the
    products and reads the same in every unit of length.
    """
    def area(polygon: Polygon2D) -> Estimate:
        value = polygon.area()
        return Estimate(value, value * RS_TOL / 6.0)

    lhs = [area(polygon_minkowski_sum(p, q)), area(intersect_polygons(p, q))]
    rhs = [area(p), area(q)]
    inst = {"p": p.vertices, "q": q.vertices}
    return _evaluate("rogers-shephard", inst, lhs, rhs, 0, None)


# ---------------------------------------------------------------------------
# Counterexample machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HullCounterexample:
    """Hull-inequality evaluation on crossed boxes plus its 1-D reduction."""

    report: InequalityReport
    n_parameter: float
    wide_interval_measure: float    # gamma_1([-N, N])
    diamond_half_width: float       # (N + 1/N) / sqrt(2)
    diamond_interval_measure: float  # gamma_1 of the rotated-square interval
    reduction_gap: float            # wide - diamond; positive breaks the hull bound


def hull_counterexample(n_parameter: float, budget: int = 1 << 20,
                        seed=0) -> HullCounterexample:
    """Evaluate the hull inequality on K = [-1/N, 1/N] x [-N, N] and its transpose.

    The full comparison gamma(conv(K union T)) gamma(K inter T) versus
    gamma(K) gamma(T) measures all four polygons with the quadrature oracle,
    so ``budget`` and ``seed`` do not change it. The reduction trace compares
    gamma_1([-N, N]) with gamma_1 of the interval produced by rotating the
    enclosing diamond, both in closed form; a positive gap shows the convex
    hull cannot replace the Minkowski sum.
    """
    if not (n_parameter > 0):
        raise InvalidParameters("N must be positive")
    n = float(n_parameter)
    k = Polygon2D.box(1.0 / n, n)
    t = Polygon2D.box(n, 1.0 / n)
    lhs = [convex_hull_union(k, t), intersect_polygons(k, t)]
    report = _evaluate("hull-counterexample", {"N": n}, lhs, [k, t], budget, seed)

    wide = sym_interval_prob(n)
    half = (n + 1.0 / n) / math.sqrt(2.0)
    diamond = sym_interval_prob(half)
    return HullCounterexample(
        report=report,
        n_parameter=n,
        wide_interval_measure=wide,
        diamond_half_width=half,
        diamond_interval_measure=diamond,
        reduction_gap=wide - diamond,
    )


# ---------------------------------------------------------------------------
# Tensorization
# ---------------------------------------------------------------------------

def strong_ratio(model: CorrelationModel, s: ThresholdVector, t: ThresholdVector,
                 budget: int = 1 << 14, seed=0) -> Estimate:
    """[Pr(<= s+t) Pr(<= min(s,t))] / [Pr(<= s) Pr(<= t)] with propagated error."""
    rep = _evaluate("strong-gci-bands", {}, *_strong_terms(model, s, t), budget, seed)
    return rep.lhs.over(rep.rhs)


@dataclass(frozen=True)
class TensorizeReport:
    """Product-model ratio against the base ratio raised to the N-th power."""

    copies: int
    base_ratio: Estimate
    product_ratio: Estimate
    expected_power: Estimate
    difference: float
    stderr: float
    passed: bool
    seed: int | None
    budget: int
    runtime_ms: float

    def to_json_dict(self) -> dict:
        return json_safe({
            "label": "tensorize",
            "copies": self.copies,
            "base_ratio": {"value": self.base_ratio.value, "stderr": self.base_ratio.stderr},
            "product_ratio": {"value": self.product_ratio.value,
                              "stderr": self.product_ratio.stderr},
            "expected_power": {"value": self.expected_power.value,
                               "stderr": self.expected_power.stderr},
            "difference": self.difference,
            "stderr": self.stderr,
            "passed": self.passed,
            "seed": self.seed,
            "budget": self.budget,
            "runtime_ms": self.runtime_ms,
        })


def tensorize_check(model: CorrelationModel, s: ThresholdVector, t: ThresholdVector,
                    copies: int, budget: int = 1 << 14, seed=0) -> TensorizeReport:
    """Product-measure identity behind the asymptotic reduction.

    The strong-inequality ratio of the N-fold block-diagonal model with tiled
    thresholds must equal the base ratio to the N-th power (exactly, as a
    product-measure identity); the check passes when the estimates agree
    within 3 combined standard errors.
    """
    if copies not in (2, 3):
        raise InvalidParameters("tensorization check supports N in {2, 3}")
    t0 = time.perf_counter()
    seed_seq, seed_int = _as_seed_sequence(seed)
    s_base, s_prod = _children(seed_seq, 2)
    base = strong_ratio(model, s, t, budget, s_base)
    big = product_model(model, copies)
    prod = strong_ratio(big, s.tiled(copies), t.tiled(copies), budget, s_prod)
    expected = base.powered(copies)
    diff = prod.minus(expected)
    # Exact product-form paths have zero stderr; allow float rounding there.
    return TensorizeReport(
        copies=copies,
        base_ratio=base,
        product_ratio=prod,
        expected_power=expected,
        difference=diff.value,
        stderr=diff.stderr,
        passed=bool(abs(diff.value) <= SIGMAS * diff.stderr + 1e-12),
        seed=seed_int,
        budget=budget,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
    )


# ---------------------------------------------------------------------------
# Parameterized counterexample search
# ---------------------------------------------------------------------------

SEARCH_FAMILIES = ("hull-rectangles", "rotated-boxes", "band-triples")


@dataclass(frozen=True)
class SearchResult:
    """Most negative margin found over a parameterized instance family."""

    family: str
    best_params: dict
    best_margin: float
    best_stderr: float
    evaluations: int
    trace: tuple = field(default=())
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return json_safe({
            "label": "search",
            "family": self.family,
            "best_params": self.best_params,
            "best_margin": self.best_margin,
            "best_stderr": self.best_stderr,
            "evaluations": self.evaluations,
            "seed": self.seed,
        })


def _hull_family(x, budget, key):
    n = float(np.exp(np.clip(x[0], -2.0, 2.0)))
    rep = hull_counterexample(n, budget, key).report
    return rep.margin, rep.stderr, {"N": n}


def _rotated_family(x, budget, key):
    aspect = float(np.exp(np.clip(x[0], -1.5, 1.5)))
    angle = float(x[1])
    rho = float(np.tanh(x[2]) * 0.95)
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    shear = np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]]))
    p = Polygon2D.box(aspect, 1.0 / aspect)
    q = p.transformed(shear @ rot)
    rep = check_strong_gci_2d(p, q, budget, key)
    return rep.margin, rep.stderr, {"aspect": aspect, "angle": angle, "rho": rho}


def _band_family(x, budget, key):
    lo, hi = math.log(0.1), math.log(3.0)
    s = ThresholdVector(np.exp(np.clip(x[:3], lo, hi)))
    t = ThresholdVector(np.exp(np.clip(x[3:], lo, hi)))
    from .gaussmodel import random_correlation

    model = random_correlation(3, 2, 20_000 + key % 1000)
    rep = check_strong_gci_bands(model, s, t, budget, key)
    return rep.margin, rep.stderr, {"s": s.as_array, "t": t.as_array}


_FAMILY_SETUP = {
    "hull-rectangles": (_hull_family, np.array([math.log(3.0)]), 0.8),
    "rotated-boxes": (_rotated_family, np.array([0.4, math.pi / 4.0, 0.0]), 0.5),
    "band-triples": (_band_family, np.zeros(6), 0.6),
}


def search_counterexample(family: str, steps: int, budget: int = 1 << 14,
                          seed=0) -> SearchResult:
    """Derivative-free margin minimization over a parameterized family.

    Nelder-Mead from the family's canonical start plus 4 random restarts.
    Each restart evaluates every point with one integer seed key drawn from
    ``seed`` (common random numbers), so within a restart the objective is a
    deterministic function of the parameters. ``steps`` caps objective
    evaluations per restart; ``steps == 1`` just scores the canonical
    instance. Always returns the best instance found. The planar families
    ``hull-rectangles`` and ``rotated-boxes`` are exact, so their keys do nothing;
    ``band-triples`` measures its rank-2 bands exactly too, so its key only picks the model.
    """
    if family not in SEARCH_FAMILIES:
        raise InvalidParameters(f"unknown family {family!r}")
    if steps < 1:
        raise InvalidParameters("steps must be >= 1")
    objective, x0, spread = _FAMILY_SETUP[family]
    seed_seq, seed_int = _as_seed_sequence(seed)
    trace: list[tuple[dict, float]] = []
    best = {"margin": np.inf, "stderr": 0.0, "params": {}, "evals": 0}

    def scored(x, key):
        margin, stderr, params = objective(np.atleast_1d(x), budget, key)
        best["evals"] += 1
        if len(trace) < 512:
            trace.append((params, margin))
        if margin < best["margin"]:
            best.update(margin=margin, stderr=stderr, params=params)
        return margin

    *key_children, start_child = _children(seed_seq, 6)
    keys = [int(child.generate_state(1)[0]) for child in key_children]
    if steps == 1:
        scored(x0, keys[0])
    else:
        from scipy.optimize import minimize

        starts = [x0]
        rng = np.random.default_rng(start_child)
        for _ in range(4):
            starts.append(x0 + spread * rng.standard_normal(x0.shape))
        for x_start, key in zip(starts, keys):
            minimize(lambda x: scored(x, key), x_start, method="Nelder-Mead",
                     options={"maxfev": steps, "xatol": 1e-3, "fatol": 1e-6,
                              "disp": False})
    return SearchResult(
        family=family,
        best_params=json_safe(best["params"]),
        best_margin=float(best["margin"]),
        best_stderr=float(best["stderr"]),
        evaluations=int(best["evals"]),
        trace=tuple(trace),
        seed=seed_int,
    )
