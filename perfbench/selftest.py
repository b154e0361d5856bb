"""Tests of the benchmark itself.

Run from the repository root (the file is not collected by a bare ``pytest``):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TABLE_ONLY = ("time_x_var", "failed_frac", "inconclusive_frac", "certified_gain",
              "crit_value_gain")

gcilab = run.import_gcilab()


def _bench(workload: str, trace: int) -> tuple[list[str], dict]:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_tiny_and_prints_every_metric(workload, trace):
    lines, result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    table = "\n".join(lines[:-1])
    for m in spec:
        assert f"  {m['name']} " in table
    if not trace:
        for name in TABLE_ONLY:
            assert f"  {name} " in table


def test_per_layer_spec_matches_tracer():
    assert [m["name"] for m in SPEC["per_layer"]] == tracer.metric_names()
    assert all(m["unit"] == tracer.metric_unit(m["name"]) for m in SPEC["per_layer"])


def test_bare_directory_fails_without_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for path in SPEC["paths"]:
        target = tmp_path / path
        target.mkdir(parents=True)
        for f in (ROOT / path).glob("*.py"):
            (target / f.name).write_text(f.read_text())
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "bands",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _ops(kind: str, deck, tmp_path, count: int = 40):
    ctx = workloads.Context(gcilab, tmp_path)
    rng = np.random.default_rng(5)
    ops = []
    for i in range(count):
        ops += [op for op in deck(ctx, rng, i) if op.kind == kind]
        if ops:
            return ops
    raise AssertionError(f"no {kind} op in {count} decks")


def _failed_frac(records) -> float:
    _, rows = run.end_to_end(records, workloads.WORKLOADS["bands"], [1.0], [1.0])
    return next(value for name, value, _unit in rows if name == "failed_frac")


def test_forced_theorem_backed_violation_is_a_failure(monkeypatch, tmp_path):
    real = gcilab.ineqlab.check_sidak

    def violated(*args, **kwargs):
        rep = real(*args, **kwargs)
        return gcilab.ineqlab.InequalityReport(
            label=rep.label, instance=rep.instance, lhs=rep.lhs, rhs=rep.rhs,
            margin=-1.0, stderr=rep.stderr, verdict="violated", seed=rep.seed,
            budget=rep.budget, runtime_ms=rep.runtime_ms)

    ops = _ops("sidak", workloads.bands_deck, tmp_path)
    monkeypatch.setattr(gcilab.ineqlab, "check_sidak", violated)
    records = [run.run_one(op) for op in ops]
    assert all("violated" in r.outcome.failure for r in records)
    assert _failed_frac(records) == 1.0


def test_perturbed_measure_value_is_a_failure(monkeypatch, tmp_path):
    real = gcilab.measure.gauss_measure_band

    def perturbed(*args, **kwargs):
        est = real(*args, **kwargs)
        return gcilab.mvnprob.ProbabilityEstimate(est.value * 0.99, est.stderr, est.samples,
                                                  est.method, est.seed)

    ops = _ops("cli-measure-cov", workloads.bands_deck, tmp_path)
    assert all(run.run_one(op).outcome.failure is None for op in ops)
    monkeypatch.setattr(gcilab.measure, "gauss_measure_band", perturbed)
    records = [run.run_one(op) for op in ops]
    assert all("vs oracle" in r.outcome.failure for r in records)
    assert _failed_frac(records) == 1.0


def test_raised_exception_is_a_failure(monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise gcilab.GciLabError("injected")

    ops = _ops("royen", workloads.bands_deck, tmp_path)
    monkeypatch.setattr(gcilab.ineqlab, "check_royen", boom)
    records = [run.run_one(op) for op in ops]
    assert all(r.outcome.failure.startswith("raised GciLabError") for r in records)
    assert _failed_frac(records) == 1.0


def test_hull_and_correction_gates(tmp_path):
    for kind, deck in (("hull-counterexample", workloads.geometry_deck),
                       ("improved-critical-value", workloads.correction_deck)):
        for op in _ops(kind, deck, tmp_path):
            assert run.run_one(op).outcome.failure is None
    bad = workloads.Op("improved-critical-value", lambda: 0.5,
                       workloads._judge_critical(workloads.Context(gcilab, tmp_path),
                                                 gcilab.equicorrelated(4, 0.5), 0.05))
    assert "outside" in run.run_one(bad).outcome.failure


def test_tracer_patches_from_imports_and_restores():
    originals = (gcilab.ineqlab.gauss_measure_mc, gcilab.measure.minkowski_contains,
                 gcilab.cli.from_covariance)
    t = tracer.Tracer()
    t.install(gcilab)
    try:
        assert gcilab.ineqlab.gauss_measure_mc is not originals[0]
        assert gcilab.measure.minkowski_contains is not originals[1]
        assert gcilab.cli.from_covariance is not originals[2]
        k = gcilab.HPolytope.axis_box([1.0, 1.0])
        t.op_id = 0
        gcilab.ineqlab.check_unconditional(k, k, budget=10_000, seed=1)
        t.op_id = None
    finally:
        t.uninstall()
    assert (gcilab.ineqlab.gauss_measure_mc, gcilab.measure.minkowski_contains,
            gcilab.cli.from_covariance) == originals
    names = {s[0] for s in t.spans}
    assert {"ineqlab.unconditional-strong-gci", "measure.minkowski_measure_mc",
            "measure.gauss_measure_mc", "convexgeom.is_unconditional"} <= names
    m = tracer.layer_metrics(t.spans, 0.0)
    top = next(s for s in t.spans if s[3] is None)
    assert m["ineqlab.unconditional-strong-gci.busy_ms"] == pytest.approx(
        1e3 * (top[2] - top[1]))
    assert 0.0 <= m["ineqlab.unconditional-strong-gci.self_ms"] <= \
        m["ineqlab.unconditional-strong-gci.busy_ms"]


def test_raised_spans_count_as_layer_errors():
    model = gcilab.equicorrelated(3, 0.5)
    c = gcilab.ThresholdVector([1.0, 1.0, 1.0])
    t = tracer.Tracer()
    t.install(gcilab)
    try:
        t.op_id = 0
        with pytest.raises(gcilab.GciLabError):
            gcilab.ineqlab.check_sidak(model, c, budget=10)  # below the QMC minimum
        t.op_id = None
    finally:
        t.uninstall()
    m = tracer.layer_metrics(t.spans, 0.0)
    assert m["mvnprob.errors"] == 1 and m["ineqlab.errors"] == 1
    assert m["mvnprob.rect_prob.calls"] == 1 and m["mvnprob.rect_prob.points"] == 0
