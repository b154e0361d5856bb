"""Acceptance sweep: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import io
import json
import math
import re
import time
from contextlib import redirect_stdout

import numpy as np

import oracles
from gcilab.cli import run as cli_run
from gcilab.convexgeom import (
    random_symmetric_polygon,
    random_unconditional_hpolytope,
)
from gcilab.gaussmodel import (
    ThresholdVector,
    equicorrelated,
    from_covariance,
    random_correlation,
)
from gcilab.ineqlab import (
    VIOLATED,
    check_lattice_premise,
    check_refined_sidak,
    check_rogers_shephard,
    check_royen,
    check_sidak,
    check_tehranchi,
    check_unconditional,
    hull_counterexample,
    sidak_ratio,
    tensorize_check,
)
from gcilab.measure import fiber_measure
from gcilab.mvnprob import ORACLE_TOL, _qmc_rect_prob, oracle_region_prob
from gcilab.sidakcorrect import (
    improved_confidence,
    improved_critical_value,
    sidak_critical_value,
)


def _verdict_line(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_01_mvn_engine_accuracy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11_111)
    failures = []
    for k in range(25):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, min(n, 3) + 1))
        model = random_correlation(n, d, 5_100 + k)
        c = rng.uniform(0.4, 2.2, size=n)
        # The sampling engine itself: rect_prob would send d <= 2 to the oracle.
        est = _qmc_rect_prob(model.sigma, -c, c, 1 << 16, k)
        orc = oracle_region_prob(model.factor_rows, -c, c)
        gap = abs(est.value - orc)
        tol = 3.0 * math.hypot(est.stderr, ORACLE_TOL)
        if gap > tol:
            failures.append(f"instance {k}: gap {gap:.2e} > {tol:.2e}")
        if est.stderr > 1e-4:
            failures.append(f"instance {k}: stderr {est.stderr:.2e} > 1e-4")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _verdict_line(1, f"MVN engine: 25 oracle agreements, stderr <= 1e-4 "
                     f"({elapsed:.1f}s)", not failures, "; ".join(failures))


def test_criterion_02_sidak_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20_202)
    failures = []
    for k in range(200):
        if k % 10 == 0:
            n = int(rng.integers(2, 7))
            model = from_covariance(np.eye(n))
        else:
            n = int(rng.integers(2, 7))
            model = random_correlation(n, int(rng.integers(1, n + 1)), 6_000 + k)
        c = ThresholdVector(rng.uniform(0.4, 2.2, size=n))
        rep = check_sidak(model, c, budget=1 << 12, seed=k)
        if rep.verdict == VIOLATED:
            failures.append(f"instance {k} violated (margin {rep.margin:.2e})")
        if k % 10 == 0 and abs(rep.margin) > 3.0 * rep.stderr:
            failures.append(f"identity instance {k}: margin {rep.margin:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")
    _verdict_line(2, f"Sidak-Khatri: 200 instances, 0 violated ({elapsed:.1f}s)",
                  not failures, "; ".join(failures))


def test_criterion_03_refined_sidak():
    rng = np.random.default_rng(30_303)
    failures = []
    for k in range(100):
        n = int(rng.integers(2, 6))
        model = random_correlation(n, int(rng.integers(1, n + 1)), 7_000 + k)
        c = ThresholdVector(rng.uniform(0.5, 1.8, size=n))
        a = float(rng.uniform(0.2, 2.5)) if k % 4 else float("inf")
        rep = check_refined_sidak(model, c, a, int(rng.integers(n)),
                                  budget=1 << 12, seed=k)
        if rep.verdict == VIOLATED:
            failures.append(f"instance {k} violated")
    # a = inf reduction equals the single-coordinate split.
    for k in range(10):
        n = 4
        model = random_correlation(n, 2, 7_500 + k)
        c = ThresholdVector(rng.uniform(0.6, 1.6, size=n))
        idx = int(rng.integers(n))
        rep_inf = check_refined_sidak(model, c, float("inf"), idx,
                                      budget=1 << 13, seed=300 + k)
        perm = [idx] + [j for j in range(n) if j != idx]
        perm_model = from_covariance(model.sigma[np.ix_(perm, perm)])
        rep_step = check_royen(perm_model, ThresholdVector(c.as_array[perm]),
                               split=1, budget=1 << 13, seed=400 + k)
        tol = 3.0 * math.hypot(rep_inf.stderr, rep_step.stderr)
        if abs(rep_inf.margin - rep_step.margin) > tol:
            failures.append(f"reduction {k}: gap {abs(rep_inf.margin - rep_step.margin):.2e}")
    # Ratio monotonicity under widenings.
    for k in range(50):
        n = int(rng.integers(2, 5))
        model = random_correlation(n, int(rng.integers(1, n + 1)), 8_000 + k)
        c = ThresholdVector(rng.uniform(0.5, 1.5, size=n))
        a = float(rng.uniform(0.2, 2.0))
        wider = c.widened(a, int(rng.integers(n))) if k % 2 else c.widened(a)
        r1 = sidak_ratio(model, c, budget=1 << 12, seed=500 + k)
        r2 = sidak_ratio(model, wider, budget=1 << 12, seed=600 + k)
        if r1.value < r2.value - 3.0 * math.hypot(r1.stderr, r2.stderr):
            failures.append(f"monotonicity {k}")
    _verdict_line(3, "refined Sidak: 100 instances, inf-reduction, 50 monotone pairs",
                  not failures, "; ".join(failures))


def test_criterion_04_royen():
    rng = np.random.default_rng(40_404)
    failures = []
    for k in range(100):
        n = int(rng.integers(2, 7))
        model = random_correlation(n, int(rng.integers(1, n + 1)), 9_000 + k)
        c = ThresholdVector(rng.uniform(0.4, 2.0, size=n))
        rep = check_royen(model, c, int(rng.integers(1, n)), budget=1 << 12, seed=k)
        if rep.verdict == VIOLATED:
            failures.append(f"instance {k} violated")
    for k in range(10):
        na, nb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        ma = random_correlation(na, max(na - 1, 1), 9_500 + k)
        mb = random_correlation(nb, max(nb - 1, 1), 9_600 + k)
        sigma = np.zeros((na + nb, na + nb))
        sigma[:na, :na] = ma.sigma
        sigma[na:, na:] = mb.sigma
        model = from_covariance(sigma)
        c = ThresholdVector(rng.uniform(0.5, 1.8, size=na + nb))
        rep = check_royen(model, c, na, budget=1 << 13, seed=700 + k)
        if abs(rep.margin) > 3.0 * rep.stderr:
            failures.append(f"block case {k}: margin {rep.margin:.2e} vs "
                            f"3se {3 * rep.stderr:.2e}")
    _verdict_line(4, "Royen: 100 instances, 10 orthogonal equality cases",
                  not failures, "; ".join(failures))


def test_criterion_05_hull_counterexample():
    t0 = time.perf_counter()
    failures = []
    result = hull_counterexample(3.0, budget=10 ** 6, seed=424_242)
    wide = oracle_region_prob(np.array([[1.0]]), np.array([-3.0]), np.array([3.0]))
    half = (3 + 1 / 3) / math.sqrt(2.0)
    diamond = oracle_region_prob(np.array([[1.0]]), np.array([-half]), np.array([half]))
    if abs(result.wide_interval_measure - wide) > 1e-7:
        failures.append("wide interval mismatch")
    if abs(result.diamond_interval_measure - diamond) > 1e-7:
        failures.append("diamond interval mismatch")
    if not (wide - diamond >= 0.01):
        failures.append(f"reduction gap {wide - diamond:.4f} < 0.01")
    if result.report.verdict != VIOLATED:
        failures.append(f"verdict {result.report.verdict}")
    if not (result.report.margin <= -3.0 * result.report.stderr):
        failures.append("margin not beyond -3 sigma")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _verdict_line(5, f"hull counterexample at N=3: gap {wide - diamond:.4f}, "
                     f"margin {result.report.margin:.2e} ({elapsed:.1f}s)",
                  not failures, "; ".join(failures))


def test_criterion_06_unconditional():
    rng = np.random.default_rng(60_606)
    failures = []
    for k in range(50):
        body_a = random_unconditional_hpolytope(rng)
        body_b = random_unconditional_hpolytope(rng)
        rep = check_unconditional(body_a, body_b, budget=10_000, seed=k)
        if rep.verdict == VIOLATED:
            failures.append(f"instance {k} violated (margin {rep.margin:.2e})")
        premise = check_lattice_premise(body_a, body_b, samples=1000, seed=1_000 + k)
        if not premise.passed:
            failures.append(f"instance {k} lattice premise")
    _verdict_line(6, "unconditional strong inequality: 50 pairs + lattice premise",
                  not failures, "; ".join(failures))


def test_criterion_07_tensorization():
    rng = np.random.default_rng(70_707)
    failures = []
    for k in range(10):
        n = int(rng.integers(2, 4))
        model = random_correlation(n, int(rng.integers(1, n + 1)), 11_000 + k)
        s = ThresholdVector(rng.uniform(0.5, 1.6, size=n))
        t = ThresholdVector(rng.uniform(0.5, 1.6, size=n))
        for copies in (2, 3):
            rep = tensorize_check(model, s, t, copies, budget=1 << 13, seed=100 * k + copies)
            if not rep.passed:
                failures.append(f"base {k}, N={copies}: diff {rep.difference:.2e} "
                                f"vs 3se {3 * rep.stderr:.2e}")
    _verdict_line(7, "tensorization: product ratio = base^N for N in {2,3}, 10 bases",
                  not failures, "; ".join(failures))


def test_criterion_08_lifting_lemma():
    rng = np.random.default_rng(80_808)
    failures = []
    for k in range(10):
        body = random_symmetric_polygon(rng)
        width = body.support([1.0, 0.0])
        half = min(0.8 * width, 1.2)
        grid = np.linspace(-half, half, 200)
        fvals = np.array([fiber_measure(body, s).value for s in grid])
        dens = np.exp(-0.5 * grid ** 2) / math.sqrt(2 * math.pi)
        integral = float(np.trapezoid(fvals * dens, grid))
        normals, offsets = body.edge_normals()
        all_normals = np.vstack([normals, [[1.0, 0.0], [-1.0, 0.0]]])
        all_offsets = np.concatenate([offsets, [half, half]])
        exact = oracle_region_prob(all_normals, np.full(len(all_offsets), -np.inf),
                                   all_offsets)
        if abs(integral - exact) > 1e-3:
            failures.append(f"body {k}: Fubini gap {abs(integral - exact):.2e}")
        points = rng.uniform(-0.85 * width, 0.85 * width, size=(8, 2))
        for s1, s2 in points:
            f1 = fiber_measure(body, s1).value
            f2 = fiber_measure(body, s2).value
            for lam in (0.25, 0.5, 0.75):
                mid = fiber_measure(body, lam * s1 + (1 - lam) * s2).value
                if mid < f1 ** lam * f2 ** (1 - lam) - 1e-6:
                    failures.append(f"body {k}: log-concavity at ({s1:.2f},{s2:.2f})")
    _verdict_line(8, "lifting lemma: Fubini within 1e-3, log-concavity slack 1e-6",
                  not failures, "; ".join(failures))


def test_criterion_09_tehranchi():
    rng = np.random.default_rng(90_909)
    failures = []
    for k in range(50):
        n = int(rng.integers(2, 5))
        model = random_correlation(n, int(rng.integers(1, n + 1)), 12_000 + k)
        s_thr = ThresholdVector(rng.uniform(0.4, 1.8, size=n))
        t_thr = ThresholdVector(rng.uniform(0.4, 1.8, size=n))
        for s, t in ((0.0, 0.0), (0.25, 0.5), (0.1, 0.4)):
            rep = check_tehranchi(model, s_thr, t_thr, s, t, budget=1 << 12,
                                  seed=10 * k)
            if rep.verdict == VIOLATED:
                failures.append(f"pair {k} at (s={s}, t={t})")
    _verdict_line(9, "Tehranchi bound: 50 pairs x 3 parameter points, 0 violated",
                  not failures, "; ".join(failures))


def test_criterion_10_rogers_shephard():
    rng = np.random.default_rng(101_010)
    failures = []
    for k in range(100):
        p = random_symmetric_polygon(rng, points=int(rng.integers(3, 8)))
        q = random_symmetric_polygon(rng, points=int(rng.integers(3, 8)))
        rep = check_rogers_shephard(p, q)
        if rep.margin < -1e-9:
            failures.append(f"pair {k}: margin {rep.margin:.2e}")
    _verdict_line(10, "Rogers-Shephard: 100 polygon pairs at tolerance 1e-9",
                  not failures, "; ".join(failures))


def test_criterion_11_correction_tool():
    t0 = time.perf_counter()
    failures = []
    c10 = sidak_critical_value(0.05, 10)
    target = 0.5 * (1 + 0.95 ** 0.1)
    if abs(oracles.phi_quad(c10) - target) > 1e-8:
        failures.append("critical value accuracy")
    identity = improved_confidence(from_covariance(np.eye(4)), 0.05,
                                   budget=1 << 13, seed=1)
    if identity.A_best != 1.0 or abs(identity.improved_level - 0.95) > 1e-12:
        failures.append(f"identity improvement A={identity.A_best}")
    equi = improved_confidence(equicorrelated(5, 0.5), 0.05, budget=1 << 14, seed=2)
    if not (equi.A_best > 1.0):
        failures.append(f"equicorrelated A_best {equi.A_best:.6f} <= 1")
    rank1 = from_covariance(np.ones((2, 2)))
    cv = improved_critical_value(rank1, 0.05, budget=1 << 13, seed=3)
    draws = np.random.default_rng(4).standard_normal(1_000_000)
    coverage = float(np.mean(np.abs(draws) <= cv))
    if coverage < 0.945:
        failures.append(f"rank-1 coverage {coverage:.4f} < 0.945")
    elapsed = time.perf_counter() - t0
    if elapsed >= 180.0:
        failures.append(f"runtime {elapsed:.1f}s >= 180s")
    _verdict_line(11, f"correction tool: critical values, improvements, coverage "
                      f"{coverage:.4f} ({elapsed:.1f}s)", not failures,
                  "; ".join(failures))


def test_criterion_12_cli_reproducibility():
    failures = []
    invocations = [
        ["check", "sidak", "--seed", "21", "--budget", "4096", "--json"],
        ["check", "refined", "--seed", "22", "--budget", "4096", "--a", "inf", "--json"],
        ["counterexample", "hull", "--N", "3", "--budget", "50000", "--seed", "23",
         "--json"],
        ["correct", "--alpha", "0.1", "--seed", "24", "--budget", "4096", "--json"],
        ["search", "--family", "band-triples", "--steps", "3", "--budget", "4096",
         "--seed", "25", "--json"],
    ]
    for argv in invocations:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_run(argv)
            if code != 0:
                failures.append(f"{argv}: exit {code}")
            outs.append(re.sub(r'"runtime_ms": [0-9.e+-]+', '"runtime_ms": 0',
                               buf.getvalue()))
        if outs[0] != outs[1]:
            failures.append(f"{argv}: outputs differ")
        json.loads(outs[0].replace('"runtime_ms": 0', '"runtime_ms": 0.0'))
    _verdict_line(12, "CLI reproducibility: byte-identical modulo runtime_ms",
                  not failures, "; ".join(failures))
