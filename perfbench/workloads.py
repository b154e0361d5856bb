"""Seeded operation decks for the three benchmark workloads.

An operation is one public gcilab entry point a user calls. Operations come
in decks: each deck holds every operation kind of its workload, and the
expensive parameters (model size, budget, k, alpha, body dimension) cycle
through fixed strata from deck to deck, so every seed runs the same mix and
only the draws inside each stratum change. Every call looks its function up
through the gcilab module at call time, so the traced run sees the wrappers.

Each operation carries a judge that applies the correctness gate to its
result. References (oracle measures of the CLI inputs) are computed when the
deck is built, outside every timed region.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Any, Callable

import numpy as np

# Proved inequalities: a violated verdict on these labels is a failure.
THEOREM_BACKED = frozenset({"sidak", "refined-sidak", "royen", "slab",
                            "unconditional-strong-gci", "tehranchi", "rogers-shephard"})
CLI_TOL_FLOOR = 1e-7      # added in quadrature to the reported stderr
CLI_TOL_SIGMAS = 5.0
HULL_MIN_GAP = 0.01
COVERAGE_SLACK = 1e-3     # oracle coverage at c' must reach 1 - alpha - slack
CRIT_TOL = 1e-9           # float slack on z_(alpha/2) <= c' <= classical c

_NORMAL = NormalDist()


@dataclass
class Outcome:
    """What the gate and the metrics need from one operation's result."""

    key: tuple                       # compared between traced and untraced passes
    verdict: str | None = None
    stderr: float | None = None      # combined stderr, for time_x_var
    failure: str | None = None
    finding: bool = False            # exploratory violation or identity mismatch
    certified_gain: float | None = None
    crit_value_gain: float | None = None


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    judge: Callable[[Any], Outcome]
    deck_end: bool = False   # last op of its deck: a run may stop after it


class Context:
    """gcilab modules plus a scratch directory for CLI input files."""

    def __init__(self, gcilab, scratch: Path):
        self.g = gcilab
        self.scratch = scratch
        self._files = 0

    def write_csv(self, rows) -> str:
        self._files += 1
        path = self.scratch / f"in{self._files}.csv"
        np.savetxt(path, np.atleast_2d(rows), fmt="%.17g", delimiter=",")
        return str(path)


# ---------------------------------------------------------------------------
# Judges
# ---------------------------------------------------------------------------

def _judge_report(label: str):
    def judge(rep) -> Outcome:
        failure = None
        if rep.label != label:
            failure = f"expected label {label!r}, got {rep.label!r}"
        elif rep.label in THEOREM_BACKED and rep.verdict == "violated":
            failure = f"theorem-backed {label} violated (margin {rep.margin:+.3e})"
        return Outcome(
            key=(rep.label, rep.verdict, rep.lhs.value, rep.lhs.stderr,
                 rep.rhs.value, rep.rhs.stderr),
            verdict=rep.verdict, stderr=rep.stderr, failure=failure,
            finding=rep.label not in THEOREM_BACKED and rep.verdict == "violated")
    return judge


def _judge_tensorize(rep) -> Outcome:
    return Outcome(key=(rep.passed, rep.difference, rep.stderr), stderr=rep.stderr,
                   finding=not rep.passed)


def _judge_lattice(samples: int):
    def judge(rep) -> Outcome:
        failure = None if rep.passed and rep.pairs == samples else "lattice premise failed"
        return Outcome(key=(rep.passed, rep.pairs), failure=failure)
    return judge


def _judge_hull(res) -> Outcome:
    out = _judge_report("hull-counterexample")(res.report)
    if out.failure is None and res.report.verdict != "violated":
        out.failure = f"hull counterexample verdict {res.report.verdict}"
    if out.failure is None and not res.reduction_gap >= HULL_MIN_GAP:
        out.failure = f"hull reduction gap {res.reduction_gap:.4f} < {HULL_MIN_GAP}"
    out.key += (res.reduction_gap,)
    out.finding = False  # the counterexample is expected to read violated
    return out


def _judge_cli_measure(reference: float):
    def judge(res) -> Outcome:
        code, text = res
        if code != 0:
            return Outcome(key=(code, text), failure=f"cli exit code {code}")
        payload = json.loads(text)
        value, stderr = payload["value"], payload["stderr"]
        tol = CLI_TOL_SIGMAS * math.hypot(stderr, CLI_TOL_FLOOR)
        failure = None
        if not abs(value - reference) <= tol:
            failure = f"cli measure {value:.9f} vs oracle {reference:.9f} (tol {tol:.2e})"
        return Outcome(key=(code, value, stderr), stderr=stderr, failure=failure)
    return judge


def _judge_confidence(alpha: float):
    def judge(res) -> Outcome:
        level = res.improved_level
        failure = None
        if not (1.0 - alpha <= level <= 1.0):
            failure = f"improved level {level} outside [1 - alpha, 1]"
        stderr = None
        for a, _value, se, _lower in res.grid_rows:
            if a == res.a_best:
                stderr = se * (1.0 - alpha)
        return Outcome(key=(level, res.A_best, res.a_best), stderr=stderr, failure=failure,
                       certified_gain=level - (1.0 - alpha))
    return judge


def _judge_critical(ctx: Context, model, alpha: float):
    k = model.size
    z = _NORMAL.inv_cdf(1.0 - alpha / 2.0)
    classical = _NORMAL.inv_cdf(0.5 * (1.0 + (1.0 - alpha) ** (1.0 / k)))

    def judge(c_prime) -> Outcome:
        c_prime = float(c_prime)
        failure = None
        if not (z - CRIT_TOL <= c_prime <= classical + CRIT_TOL):
            failure = f"c' = {c_prime} outside [{z}, {classical}]"
        elif model.dim <= 2:
            bound = np.full(k, c_prime)
            cover = ctx.g.mvnprob.oracle_region_prob(model.factor_rows, -bound, bound)
            if cover < 1.0 - alpha - COVERAGE_SLACK:
                failure = f"oracle coverage {cover:.6f} at c' below 1 - alpha"
        return Outcome(key=(c_prime,), failure=failure,
                       crit_value_gain=(classical - c_prime) / classical)
    return judge


def judge_safely(op: Op, result) -> Outcome:
    """Run the gate; a result the gate cannot read is itself a failure."""
    try:
        return op.judge(result)
    except Exception as exc:  # the gate must count, not crash
        return Outcome(key=("unreadable",), failure=f"unreadable result: {exc!r}")


# ---------------------------------------------------------------------------
# Input generators
# ---------------------------------------------------------------------------

def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _thresholds(rng, n: int) -> np.ndarray:
    """Per-coordinate thresholds keeping the joint probability moderate for any n."""
    base = _NORMAL.inv_cdf(0.5 * (1.0 + 0.35 ** (1.0 / n)))
    return base * rng.uniform(0.85, 1.25, size=n)


def _cli_measure(ctx: Context, argv: list[str]):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ctx.g.cli.run(argv)
        return code, buf.getvalue()
    return call


# ---------------------------------------------------------------------------
# bands
# ---------------------------------------------------------------------------

BAND_KINDS = ("sidak", "refined-sidak", "royen", "strong-gci-bands", "tehranchi",
              "slab-band", "tensorize", "cli-measure-cov")
# (n, d) of the three small-model ops per kind and deck, and (n, d, budget)
# of the large one; strata rotate deck by deck so every seed runs the same mix.
SMALL_STRATA = tuple((n, d) for n in range(3, 7) for d in range(2, n + 1))
SMALL_BUDGETS = (1 << 14, 1 << 16, 1 << 14)
LARGE_STRATA = tuple((n, d, b) for b in (1 << 14, 1 << 16)
                     for n, d in ((12, 4), (24, 6), (48, 8)))
CLI_MAX_N = 12


def _band_op(ctx: Context, rng, kind: str, n: int, d: int, budget: int) -> Op:
    g = ctx.g
    seed = _seed(rng)
    if kind == "cli-measure-cov":
        # The oracle reference is fast in d = 2 only (about 0.9 s per call in
        # d = 3), and in d = 2 it passes every pairwise constraint crossing to
        # quad, which refuses more than 500 of them (n > 15).
        n, d = min(n, CLI_MAX_N), 2
    model = g.gaussmodel.random_correlation(n, d, _seed(rng))
    c_arr = _thresholds(rng, n)
    c = g.gaussmodel.ThresholdVector(c_arr)
    ineq = g.ineqlab
    if kind == "sidak":
        return Op(kind, lambda: ineq.check_sidak(model, c, budget, seed),
                  _judge_report("sidak"))
    if kind == "refined-sidak":
        a = math.inf if rng.random() < 0.15 else float(rng.uniform(0.1, 2.0))
        index = int(rng.integers(0, n))
        return Op(kind, lambda: ineq.check_refined_sidak(model, c, a, index, budget, seed),
                  _judge_report("refined-sidak"))
    if kind == "royen":
        split = int(rng.integers(1, n))
        return Op(kind, lambda: ineq.check_royen(model, c, split, budget, seed),
                  _judge_report("royen"))
    if kind == "strong-gci-bands":
        t = g.gaussmodel.ThresholdVector(_thresholds(rng, n))
        return Op(kind, lambda: ineq.check_strong_gci_bands(model, c, t, budget, seed),
                  _judge_report("strong-gci-bands"))
    if kind == "tehranchi":
        t_thr = g.gaussmodel.ThresholdVector(_thresholds(rng, n))
        s = float(rng.uniform(0.02, 0.3))
        t = float(rng.uniform(math.sqrt(s), 0.95))
        return Op(kind, lambda: ineq.check_tehranchi(model, c, t_thr, s, t, budget, seed),
                  _judge_report("tehranchi"))
    if kind == "slab-band":
        j = int(rng.integers(0, n))
        # width < c_j: at width >= c_j both sides are the same product and the
        # 3-sigma rule reads an exact tie
        width = float(c_arr[j] * rng.uniform(0.3, 0.9))
        band = g.convexgeom.SymmetricBand(model, c)
        return Op(kind, lambda: ineq.check_slab(band, j, width, budget, seed),
                  _judge_report("slab"))
    if kind == "tensorize":
        t = g.gaussmodel.ThresholdVector(_thresholds(rng, n))
        copies = 3 if n <= 4 and rng.random() < 0.5 else 2
        return Op(kind, lambda: ineq.tensorize_check(model, c, t, copies, budget, seed),
                  _judge_tensorize)
    if kind == "cli-measure-cov":
        reference = g.mvnprob.oracle_region_prob(model.factor_rows, -c_arr, c_arr)
        argv = ["measure", "--cov", ctx.write_csv(model.sigma),
                "--bounds", ctx.write_csv(c_arr), "--budget", str(budget),
                "--seed", str(seed), "--json"]
        return Op(kind, _cli_measure(ctx, argv), _judge_cli_measure(reference))
    raise ValueError(kind)


def bands_deck(ctx: Context, rng, deck: int) -> list[Op]:
    ops = []
    for i, kind in enumerate(BAND_KINDS):
        for j, budget in enumerate(SMALL_BUDGETS):
            n, d = SMALL_STRATA[(3 * deck + j + 5 * i) % len(SMALL_STRATA)]
            ops.append(_band_op(ctx, rng, kind, n, d, budget))
        n, d, budget = LARGE_STRATA[(deck + i) % len(LARGE_STRATA)]
        ops.append(_band_op(ctx, rng, kind, n, d, budget))
    return ops


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

SHELL_BAND = (0.25, 0.40)   # share of 2-D samples that reach the simplex


def _polytope(ctx: Context, rng, dim: int):
    return ctx.g.convexgeom.random_unconditional_hpolytope(_seed(rng), dim=dim)


def _support(normals, offsets, directions) -> np.ndarray:
    """Support values of a bounded {x : normals x <= offsets} along directions."""
    dim = normals.shape[1]
    combos = np.array(list(itertools.combinations(range(len(offsets)), dim)))
    mats = normals[combos]
    ok = np.abs(np.linalg.det(mats)) > 1e-12
    verts = np.linalg.solve(mats[ok], offsets[combos][ok][..., None])[..., 0]
    verts = verts[np.all(verts @ normals.T <= offsets + 1e-9, axis=1)]
    return (verts @ directions.T).max(axis=0)


def _shell_fraction(k, t, rng, samples: int = 20_000) -> float:
    """Gaussian share of points that pass the support screen of K + T but lie
    in neither K nor T: the points ``check_unconditional`` sends to the simplex."""
    dirs = np.vstack([k.normals, t.normals])
    bound = _support(k.normals, k.offsets, dirs) + _support(t.normals, t.offsets, dirs)
    z = rng.standard_normal((samples, k.normals.shape[1]))
    in_k = np.all(z @ k.normals.T <= k.offsets, axis=1)
    in_t = np.all(z @ t.normals.T <= t.offsets, axis=1)
    screened = np.all(z @ dirs.T <= bound, axis=1)
    return float(np.mean(screened & ~in_k & ~in_t))


def _unconditional_pair(ctx: Context, rng, dim: int):
    """Random unconditional bodies; in 2-D the pair's shell share is held in a band.

    The cost of ``check_unconditional`` grows with the share of samples that
    reach the simplex, which varies several-fold between random pairs; holding it
    in a band keeps the per-run mean steady from seed to seed.
    """
    for _ in range(64):
        k, t = _polytope(ctx, rng, dim), _polytope(ctx, rng, dim)
        if dim != 2 or SHELL_BAND[0] <= _shell_fraction(k, t, rng) <= SHELL_BAND[1]:
            break
    return k, t


def _polygon(ctx: Context, rng):
    return ctx.g.convexgeom.random_symmetric_polygon(_seed(rng), points=5)


def _polygon_reference(ctx: Context, poly) -> float:
    normals, offsets = poly.edge_normals()
    return ctx.g.mvnprob.oracle_region_prob(normals, np.full(len(offsets), -np.inf), offsets)


def geometry_deck(ctx: Context, rng, deck: int) -> list[Op]:
    g = ctx.g
    ineq = g.ineqlab
    # Four unconditional checks per deck hold about 85% of the time; the
    # cheaper kinds are many, so the median lands among them with no gap and
    # the p95 tail inside the unconditional checks.
    ops = []

    def mc_budget():
        # log-uniform, so MC op latencies overlap without gaps; the cap keeps
        # the largest sample array, and so peak memory, the same in every run
        return int(20_000 * 5 ** rng.uniform(0.0, 1.0))

    for dim in (2, 2, 2, 3):
        k, t = _unconditional_pair(ctx, rng, dim)
        seed = _seed(rng)
        ops.append(Op(f"unconditional-d{dim}",
                      lambda k=k, t=t, s=seed: ineq.check_unconditional(k, t, 10_000, s),
                      _judge_report("unconditional-strong-gci")))
    for _ in range(4):
        k, t = _polytope(ctx, rng, 2), _polytope(ctx, rng, 2)
        samples, seed = int(150 * 10 ** rng.uniform(0.0, 1.0)), _seed(rng)
        ops.append(Op("lattice-premise",
                      lambda k=k, t=t, n=samples, s=seed: ineq.check_lattice_premise(k, t, n, s),
                      _judge_lattice(samples)))
    for _ in range(6):
        p, q = _polygon(ctx, rng), _polygon(ctx, rng)
        budget, seed = mc_budget(), _seed(rng)
        ops.append(Op("strong-gci-2d",
                      lambda p=p, q=q, b=budget, s=seed: ineq.check_strong_gci_2d(p, q, b, s),
                      _judge_report("strong-gci-2d")))
    for _ in range(6):
        p = _polygon(ctx, rng)
        angle = float(rng.uniform(0.0, math.pi))
        direction = [math.cos(angle), math.sin(angle)]
        width = float(rng.uniform(0.3, 1.5))
        budget, seed = mc_budget(), _seed(rng)
        ops.append(Op("slab-polygon",
                      lambda p=p, u=direction, w=width, b=budget, s=seed:
                      ineq.check_slab(p, u, w, b, s),
                      _judge_report("slab")))
    for _ in range(6):
        p, q = _polygon(ctx, rng), _polygon(ctx, rng)
        ops.append(Op("rogers-shephard", lambda p=p, q=q: ineq.check_rogers_shephard(p, q),
                      _judge_report("rogers-shephard")))
    for _ in range(4):
        n_param, seed = float(rng.uniform(1.8, 3.0)), _seed(rng)
        ops.append(Op("hull-counterexample",
                      lambda n=n_param, s=seed: ineq.hull_counterexample(n, 100_000, s),
                      _judge_hull))
    for _ in range(4):
        p = _polygon(ctx, rng)
        argv = ["measure", "--polygon", ctx.write_csv(p.vertices),
                "--budget", str(mc_budget()), "--seed", str(_seed(rng)), "--json"]
        ops.append(Op("cli-measure-polygon", _cli_measure(ctx, argv),
                      _judge_cli_measure(_polygon_reference(ctx, p))))
    for dim in (2, 2, 3):
        h = _polytope(ctx, rng, dim)
        reference = g.mvnprob.oracle_region_prob(h.normals, np.full(len(h.offsets), -np.inf),
                                                 h.offsets)
        argv = ["measure", "--hpoly", ctx.write_csv(np.column_stack([h.normals, h.offsets])),
                "--budget", str(mc_budget()), "--seed", str(_seed(rng)), "--json"]
        ops.append(Op(f"cli-measure-hpoly-d{dim}", _cli_measure(ctx, argv),
                      _judge_cli_measure(reference)))
    return ops


# ---------------------------------------------------------------------------
# correction
# ---------------------------------------------------------------------------

CORRECTION_K = tuple(range(4, 13))
ALPHAS = (0.05, 0.1)
FAMILIES = ("equicorrelated", "random-d2", "equicorrelated", "random")


def _correction_op(ctx: Context, rng, stratum: int, critical: bool) -> Op:
    """Op whose k, alpha, model family and correlation level follow ``stratum``.

    The level q sets rho of an equicorrelated model or the rank of a random
    one; it is stratified in quarters and jittered by the seed, because weak
    correlation lets the critical-value bisection stop after two steps.
    """
    gm, sc = ctx.g.gaussmodel, ctx.g.sidakcorrect
    k = CORRECTION_K[stratum % len(CORRECTION_K)]
    alpha = ALPHAS[(stratum // 2) % 2]
    family = FAMILIES[stratum % len(FAMILIES)]
    q = ((stratum // len(FAMILIES)) % 4 + rng.uniform()) / 4.0
    if family == "equicorrelated":
        model = gm.equicorrelated(k, 0.1 + 0.7 * q)
    else:
        d = 2 if family == "random-d2" else 3 + int(q * (k - 2))
        model = gm.random_correlation(k, d, _seed(rng))
    seed = _seed(rng)
    if critical:
        return Op("improved-critical-value",
                  lambda: sc.improved_critical_value(model, alpha, 1 << 13, seed),
                  _judge_critical(ctx, model, alpha))
    return Op("improved-confidence",
              lambda: sc.improved_confidence(model, alpha, 1 << 14, seed),
              _judge_confidence(alpha))


def correction_deck(ctx: Context, rng, deck: int) -> list[Op]:
    return ([_correction_op(ctx, rng, 6 * deck + i, False) for i in range(6)]
            + [_correction_op(ctx, rng, deck, True)])


@dataclass(frozen=True)
class Workload:
    name: str
    deck: Callable[[Context, Any, int], list[Op]]
    tail_percentile: float   # fixed per workload so runs stay comparable


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "bands": Workload("bands", bands_deck, 95.0),
    "geometry": Workload("geometry", geometry_deck, 95.0),
    "correction": Workload("correction", correction_deck, 90.0),
}


def op_stream(workload: Workload, ctx: Context, seed: int):
    """Endless ops of one workload, built deck by deck from the workload seed.

    Runs stop on a deck boundary, so every run measures whole decks and the
    op mix does not depend on where the time ran out.
    """
    rng = np.random.default_rng(seed)
    deck = 0
    while True:
        batch = workload.deck(ctx, rng, deck)
        batch = [batch[i] for i in rng.permutation(len(batch))]
        batch[-1].deck_end = True
        yield from batch
        deck += 1
