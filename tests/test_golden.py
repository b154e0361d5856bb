"""Golden outputs of the inequality checkers, pinned across versions.

Every checker's report (without ``runtime_ms``), ``sidak_ratio``,
``strong_ratio`` and ``tensorize_check`` at one seed and small budgets must
reproduce ``tests/data/golden_ineqlab.json`` exactly. This pins the seed
spawning order and the error algebra, which a same-code rerun cannot. A
change that alters these values regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import json
import math
from pathlib import Path

import numpy as np

from gcilab.convexgeom import HPolytope, Polygon2D, SymmetricBand
from gcilab.gaussmodel import ThresholdVector, random_correlation
from gcilab.ineqlab import (
    check_refined_sidak,
    check_rogers_shephard,
    check_royen,
    check_sidak,
    check_slab,
    check_strong_gci_2d,
    check_strong_gci_bands,
    check_tehranchi,
    check_unconditional,
    hull_counterexample,
    sidak_ratio,
    strong_ratio,
    tensorize_check,
)

GOLDEN = Path(__file__).parent / "data" / "golden_ineqlab.json"
SEED = 3
QMC = 1 << 10
MC = 10_000

MODEL = random_correlation(4, 3, 7)
C = ThresholdVector([0.8, 1.2, 1.0, 1.5])
C_INF = ThresholdVector([0.8, math.inf, 1.0, 1.5])
S = ThresholdVector([0.6, 1.4, 0.9, 2.0])
T = ThresholdVector([1.1, 0.7, math.inf, 0.5])
P = Polygon2D.from_points([[1.2, 0.3], [0.4, 1.0], [-0.5, 0.8]]
                          + [[-1.2, -0.3], [-0.4, -1.0], [0.5, -0.8]])
Q = Polygon2D.box(1.5, 0.6)
K = HPolytope.axis_box([1.0, 0.7])
L = HPolytope.symmetric(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0),
                        np.array([1.1, 1.1]), check_bounded=False).intersect(
    HPolytope.axis_box([1.4, 1.3]))


def _report(rep) -> dict:
    out = rep.to_json_dict()
    out.pop("runtime_ms")
    return out


def _estimate(est) -> dict:
    return {"value": est.value, "stderr": est.stderr}


def golden_outputs() -> dict:
    """Every pinned output, as a JSON round trip of plain values."""
    out = {
        "sidak": _report(check_sidak(MODEL, C, QMC, SEED)),
        "sidak-inf": _report(check_sidak(MODEL, C_INF, QMC, SEED)),
        "refined-sidak": _report(check_refined_sidak(MODEL, C, 0.5, 1, QMC, SEED)),
        "refined-sidak-inf": _report(check_refined_sidak(MODEL, C, math.inf, 2, QMC, SEED)),
        "royen": _report(check_royen(MODEL, C, 2, QMC, SEED)),
        "strong-gci-bands": _report(check_strong_gci_bands(MODEL, S, T, QMC, SEED)),
        "tehranchi": _report(check_tehranchi(MODEL, S, T, 0.25, 0.6, QMC, SEED)),
        "slab-band": _report(check_slab(SymmetricBand(MODEL, C), 2, 0.9, QMC, SEED)),
        "slab-polygon": _report(check_slab(P, [1.0, 0.5], 0.8, MC, SEED)),
        "strong-gci-2d": _report(check_strong_gci_2d(P, Q, MC, SEED)),
        "unconditional": _report(check_unconditional(K, L, MC, SEED)),
        "rogers-shephard": _report(check_rogers_shephard(P, Q)),
        "sidak-ratio": _estimate(sidak_ratio(MODEL, C, QMC, SEED)),
        "strong-ratio": _estimate(strong_ratio(MODEL, S, T, QMC, SEED)),
    }
    for n in (1.0, 2.5):
        out[f"hull-counterexample-{n}"] = _report(hull_counterexample(n, MC, SEED).report)
    small = random_correlation(3, 2, 11)
    tens = tensorize_check(small, ThresholdVector([0.7, 1.3, 1.0]),
                           ThresholdVector([1.2, 0.9, math.inf]), 2, QMC, SEED).to_json_dict()
    tens.pop("runtime_ms")
    out["tensorize"] = tens
    return json.loads(json.dumps(out))


def test_outputs_match_golden_file():
    expected = json.loads(GOLDEN.read_text())
    actual = golden_outputs()
    differing = [name for name in sorted(set(actual) | set(expected))
                 if actual.get(name) != expected.get(name)]
    assert not differing, f"entries that differ from {GOLDEN.name}: {', '.join(differing)}"


def test_ratios_are_the_checker_sides():
    for seed in (0, 5):
        rep = check_sidak(MODEL, C_INF, QMC, seed)
        assert sidak_ratio(MODEL, C_INF, QMC, seed) == rep.lhs.over(rep.rhs)
        rep = check_strong_gci_bands(MODEL, S, T, QMC, seed)
        assert strong_ratio(MODEL, S, T, QMC, seed) == rep.lhs.over(rep.rhs)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_outputs(), indent=1, sort_keys=True) + "\n")
