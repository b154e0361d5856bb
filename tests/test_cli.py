"""Command-line surface: subcommands, exit codes, JSON determinism."""

import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy.special import ndtri

import gcilab
from gcilab.cli import _finish_report, run
from gcilab.gaussmodel import random_correlation
from gcilab.ineqlab import REPORT_SCHEMA, Estimate, InequalityReport
from gcilab.mvnprob import oracle_region_prob


@pytest.fixture()
def csv_dir(tmp_path):
    (tmp_path / "id2.csv").write_text("1,0\n0,1\n")
    (tmp_path / "ones.csv").write_text("1,1\n")
    (tmp_path / "equi5.csv").write_text("\n".join(
        ",".join("1" if i == j else "0.5" for j in range(5)) for i in range(5)) + "\n")
    (tmp_path / "square.csv").write_text("1,1\n-1,1\n-1,-1\n1,-1\n")
    (tmp_path / "box.csv").write_text("1,0,1\n-1,0,1\n0,1,1.5\n0,-1,1.5\n")
    (tmp_path / "box3.csv").write_text(
        "1,0,0,1\n-1,0,0,1\n0,1,0,1\n0,-1,0,1\n0,0,1,1\n0,0,-1,1\n")
    (tmp_path / "strip.csv").write_text("1,0,1\n-1,0,1\n")
    return tmp_path


def _capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


class TestExitCodes:
    def test_identity_sidak(self, csv_dir):
        code, out = _capture(["check", "sidak", "--cov", str(csv_dir / "id2.csv"),
                              "--bounds", str(csv_dir / "ones.csv"), "--seed", "1"])
        assert code == 0
        assert "margin" in out

    def test_usage_error_is_one(self):
        assert run(["check", "nonsense"]) == 1
        assert run(["frobnicate"]) == 1
        assert run([]) == 1

    def test_bad_csv_is_one(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        assert run(["check", "sidak", "--cov", str(bad)]) == 1

    @pytest.mark.parametrize("name", ["missing.csv", "", "binary.csv"])
    def test_unreadable_csv_is_one(self, tmp_path, name, capsys):
        (tmp_path / "binary.csv").write_bytes(bytes(range(256)))
        path = tmp_path / name  # missing file, directory, undecodable bytes
        assert run(["check", "sidak", "--cov", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and str(path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["check", "slab", "--direction", "abc"],
        ["check", "slab", "--direction", "1"],
        ["check", "slab", "--direction", "1,2,3"],
        ["check", "slab", "--direction", "nan,1"],
        ["check", "refined", "--a", "abc"],
    ])
    def test_malformed_option_is_usage_error(self, argv, capsys):
        assert run(argv) == 1
        assert "usage error:" in capsys.readouterr().err

    def test_nonfinite_covariance_is_one(self, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text("1,nan\nnan,1\n")
        assert run(["check", "sidak", "--cov", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "supported" not in captured.out and "error:" in captured.err

    @pytest.mark.parametrize("argv", [
        ["check", "rogers-shephard", "--polygon", "nan_polygon.csv", "--polygon2", "square.csv"],
        ["measure", "--polygon", "nan_polygon.csv"],
        ["measure", "--hpoly", "inf_box.csv"],
        ["counterexample", "hull", "--N", "inf"],
    ])
    def test_nonfinite_geometry_is_one(self, csv_dir, argv, capsys, recwarn):
        (csv_dir / "nan_polygon.csv").write_text("1,0.5\nnan,1\n-1,-0.5\n0.3,-1\n-0.3,1\n")
        (csv_dir / "inf_box.csv").write_text("1,0,1\n-1,0,inf\n0,1,2\n0,-1,2\n")
        argv = [str(csv_dir / a) if a.endswith(".csv") else a for a in argv]
        assert run(argv + ["--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "must be finite" in captured.err
        assert "Traceback" not in captured.err and "Warning" not in captured.err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("extra", [
        ["--hpoly2", "box3.csv"],
        ["--hpoly2", "box.csv", "--samples", "-5"],
        ["--hpoly2", "box.csv", "--samples", "0"],
    ])
    def test_bad_lattice_input_is_one(self, csv_dir, extra, capsys):
        argv = ["check", "lattice", "--hpoly", str(csv_dir / "box.csv"), "--seed", "1"]
        argv += [str(csv_dir / a) if a.endswith(".csv") else a for a in extra]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert "passed" not in captured.out and "error:" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 7.28 TiB for an array", "error: Unable to allocate"),
        ("", "error: out of memory")])
    def test_memory_error_is_one(self, monkeypatch, capsys, message, shown):
        # A budget too large for memory makes numpy raise MemoryError; simulate
        # it rather than attempt the allocation.
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(gcilab.ineqlab, "check_sidak", exhausted)
        assert run(["check", "sidak", "--budget", "999999999999"]) == 1
        err = capsys.readouterr().err
        assert shown in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["check", "sidak", "--seed", "-1"],
        ["check", "strong-2d", "--seed", "-5"],
        ["correct", "--alpha", "0.05", "--seed", "-2"],
    ])
    def test_negative_seed_is_usage_error(self, argv, capsys):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "usage error:" in err and "--seed" in err and "Traceback" not in err

    def test_unbounded_hpolytope_is_one(self, csv_dir, capsys):
        assert run(["measure", "--hpoly", str(csv_dir / "strip.csv")]) == 1
        assert "unbounded" in capsys.readouterr().err

    def test_theorem_backed_violation_exits_two(self):
        # No valid instance violates a proved inequality, so exercise the
        # exit-code mapping on a synthetic report directly.
        class _Args:
            json = False

        def fake(label):
            return InequalityReport(label=label, instance={}, lhs=Estimate(0.1, 1e-6),
                                    rhs=Estimate(0.2, 1e-6), margin=-0.1,
                                    stderr=1.5e-6, verdict="violated", seed=0,
                                    budget=1000, runtime_ms=1.0)

        with redirect_stdout(io.StringIO()):
            assert _finish_report(_Args(), fake("royen")) == 2
            assert _finish_report(_Args(), fake("strong-gci-bands")) == 0

    def test_exploratory_violation_exits_zero(self, csv_dir):
        code, out = _capture(["counterexample", "hull", "--N", "3",
                              "--budget", "200000", "--seed", "7", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "violated"
        assert payload["margin"] <= -3 * payload["stderr"]


class TestJsonContracts:
    def test_reports_validate_against_schema(self, csv_dir):
        for argv in (
            ["check", "sidak", "--seed", "2", "--budget", "4096", "--json"],
            ["check", "royen", "--seed", "3", "--budget", "4096", "--json"],
            ["check", "strong-bands", "--seed", "4", "--budget", "4096", "--json"],
            ["check", "rogers-shephard", "--seed", "5", "--json"],
        ):
            code, out = _capture(argv)
            assert code == 0
            payload = json.loads(out)
            jsonschema.validate(payload, REPORT_SCHEMA)

    def test_correct_emits_correction_result(self, csv_dir):
        code, out = _capture(["correct", "--cov", str(csv_dir / "equi5.csv"),
                              "--alpha", "0.05", "--seed", "3",
                              "--budget", "16384", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "correction"
        assert payload["improved_level"] > 0.95
        assert payload["k"] == 5

    def test_measure_band(self, csv_dir):
        code, out = _capture(["measure", "--cov", str(csv_dir / "id2.csv"),
                              "--bounds", str(csv_dir / "ones.csv"),
                              "--budget", "4096", "--json"])
        assert code == 0
        assert abs(json.loads(out)["value"] - 0.4660649) < 1e-5

    def test_measure_polygon(self, csv_dir):
        code, out = _capture(["measure", "--polygon", str(csv_dir / "square.csv"),
                              "--budget", "20000", "--seed", "2", "--json"])
        assert code == 0
        assert abs(json.loads(out)["value"] - 0.4660649) < 0.02

    @pytest.mark.parametrize("flag, name", [("--polygon", "square.csv"), ("--hpoly", "box.csv")])
    def test_measure_planar_body_is_exact(self, csv_dir, flag, name):
        code, out = _capture(["measure", flag, str(csv_dir / name), "--seed", "3", "--json"])
        assert code == 0
        payload = json.loads(out)
        half_y = 1.0 if name == "square.csv" else 1.5
        expect = math.erf(1.0 / math.sqrt(2.0)) * math.erf(half_y / math.sqrt(2.0))
        assert abs(payload["value"] - expect) <= 1e-10
        assert (payload["method"], payload["samples"], payload["seed"]) == \
            ("quadrature-oracle", 0, None)

    def test_measure_rank_two_band_is_exact(self, tmp_path):
        # Sampled, this model's band read 0.6446853221 +- 4.1e-7 at this budget
        # and seed, 6.3 standard errors from the exact 0.6446827196.
        model = random_correlation(6, 2, 374)
        c = float(ndtri((1.0 + 0.35 ** (1 / 6)) / 2.0))  # the bands deck's base threshold
        (tmp_path / "cov.csv").write_text(
            "\n".join(",".join(repr(float(x)) for x in row) for row in model.sigma) + "\n")
        (tmp_path / "bounds.csv").write_text(",".join([repr(c)] * 6) + "\n")
        code, out = _capture(["measure", "--cov", str(tmp_path / "cov.csv"),
                              "--bounds", str(tmp_path / "bounds.csv"),
                              "--budget", "16384", "--seed", "374", "--json"])
        assert code == 0
        payload = json.loads(out)
        exact = oracle_region_prob(model.factor_rows, -np.full(6, c), np.full(6, c))
        assert payload["method"] == "quadrature-oracle"
        assert abs(payload["value"] - exact) <= 1e-12

    def test_measure_block_diagonal_band_is_exact(self, tmp_path):
        # Rank 4 as one model, so it was sampled; each rank-2 block is exact.
        first, second = random_correlation(3, 2, 5), random_correlation(3, 2, 6)
        sigma = np.zeros((6, 6))
        sigma[:3, :3], sigma[3:, 3:] = first.sigma, second.sigma
        c = np.array([0.8, 1.1, 1.4, 0.9, 1.2, 1.0])
        (tmp_path / "cov.csv").write_text(
            "\n".join(",".join(repr(float(x)) for x in row) for row in sigma) + "\n")
        (tmp_path / "bounds.csv").write_text(",".join(repr(float(x)) for x in c) + "\n")
        code, out = _capture(["measure", "--cov", str(tmp_path / "cov.csv"),
                              "--bounds", str(tmp_path / "bounds.csv"),
                              "--budget", "16384", "--seed", "8", "--json"])
        assert code == 0
        payload = json.loads(out)
        exact = (oracle_region_prob(first.factor_rows, -c[:3], c[:3])
                 * oracle_region_prob(second.factor_rows, -c[3:], c[3:]))
        assert (payload["method"], payload["samples"], payload["seed"]) == \
            ("quadrature-oracle", 0, 8)
        assert abs(payload["value"] - exact) <= 1e-12

    def test_tehranchi_does_not_depend_on_units(self, tmp_path):
        # With X_3 in units of 1e-6, rank relative to the largest variance read
        # this model as rank 2 and the theorem-backed bound as violated.
        sigma = random_correlation(3, 3, 0).sigma
        rng = np.random.default_rng(0)
        s, t = rng.uniform(0.3, 2.0, 3), rng.uniform(0.3, 2.0, 3)
        reports = []
        for d in (np.ones(3), np.array([1.0, 1.0, 1e-6])):
            for name, rows in [("cov", d[:, None] * sigma * d[None, :]), ("s", [d * s]),
                               ("t", [d * t])]:
                (tmp_path / f"{name}.csv").write_text(
                    "\n".join(",".join(repr(float(x)) for x in row) for row in rows) + "\n")
            code, out = _capture(["check", "tehranchi", "--cov", str(tmp_path / "cov.csv"),
                                  "--bounds", str(tmp_path / "s.csv"),
                                  "--bounds2", str(tmp_path / "t.csv"), "--s", "0.8",
                                  "--t", "0.9", "--budget", "16384", "--seed", "1", "--json"])
            assert code == 0
            reports.append(json.loads(out))
        unscaled, scaled = reports
        assert scaled["verdict"] == "supported"
        for side in ("lhs", "rhs"):
            assert abs(scaled[side]["value"] - unscaled[side]["value"]) <= 1e-9

    def test_lattice_check(self, csv_dir):
        code, out = _capture(["check", "lattice", "--hpoly", str(csv_dir / "box.csv"),
                              "--hpoly2", str(csv_dir / "box.csv"),
                              "--samples", "200", "--seed", "2", "--json"])
        assert code == 0
        assert json.loads(out)["passed"] is True


class TestReproducibility:
    @staticmethod
    def _strip_runtime(text):
        return re.sub(r'"runtime_ms": [0-9.e+-]+', '"runtime_ms": 0', text)

    def test_byte_identical_modulo_runtime(self, csv_dir):
        invocations = [
            ["check", "sidak", "--seed", "11", "--budget", "4096", "--json"],
            ["check", "strong-2d", "--seed", "12", "--budget", "12000", "--json"],
            ["counterexample", "hull", "--N", "2.5", "--budget", "20000",
             "--seed", "13", "--json"],
            ["tensorize", "--N", "2", "--seed", "14", "--budget", "4096", "--json"],
            ["search", "--family", "hull-rectangles", "--steps", "4",
             "--budget", "20000", "--seed", "15", "--json"],
        ]
        for argv in invocations:
            code_a, out_a = _capture(argv)
            code_b, out_b = _capture(argv)
            assert code_a == code_b == 0
            assert self._strip_runtime(out_a) == self._strip_runtime(out_b)


class TestColdStart:
    """Importing the package and its CLI leaves scipy's heavy subpackages unloaded."""

    def test_import_skips_optimize_integrate_spatial(self):
        code = ("import gcilab, gcilab.cli, sys; "
                "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate', 'scipy.spatial') "
                "if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=str(Path(gcilab.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "[]"

    def test_three_dimensional_oracle_skips_integrate_and_optimize(self):
        code = ("import sys, numpy as np; from gcilab.mvnprob import oracle_region_prob; "
                "oracle_region_prob(np.eye(3), -np.ones(3), np.ones(3)); "
                "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') "
                "if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=str(Path(gcilab.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "[]"
