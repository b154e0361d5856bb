"""Command-line surface: reproducible experiments with machine-readable output.

Exit codes: 0 for completed runs (including exploratory violations), 2 when a
theorem-backed check reports a violation, 1 for bad usage, input or memory.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import ineqlab, measure, sidakcorrect
from .convexgeom import (
    SymmetricBand,
    load_hpolytope_csv,
    load_polygon_csv,
    random_symmetric_polygon,
    random_unconditional_hpolytope,
)
from .errors import GciLabError, PremiseViolated
from .gaussmodel import (
    ThresholdVector,
    from_covariance,
    load_covariance_csv,
    load_vector_csv,
    random_correlation,
)

CHECK_NAMES = ("sidak", "refined", "royen", "strong-bands", "strong-2d", "slab",
               "unconditional", "tehranchi", "lattice", "rogers-shephard")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102
        raise _UsageError(message)


def _seed(text) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gcilab", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p):
        p.add_argument("--cov", help="covariance matrix CSV")
        p.add_argument("--bounds", help="threshold vector CSV (entries may be inf)")
        p.add_argument("--budget", type=int, default=1 << 14)
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p_measure = sub.add_parser("measure", help="Gaussian measure of a body")
    common(p_measure)
    p_measure.add_argument("--polygon", help="polygon vertex CSV")
    p_measure.add_argument("--hpoly", help="halfspace CSV (normal components, offset)")

    p_check = sub.add_parser("check", help="run one inequality checker")
    p_check.add_argument("name", choices=CHECK_NAMES)
    common(p_check)
    p_check.add_argument("--bounds2", help="second threshold vector CSV")
    p_check.add_argument("--polygon", help="first polygon CSV")
    p_check.add_argument("--polygon2", help="second polygon CSV")
    p_check.add_argument("--hpoly", help="first halfspace CSV")
    p_check.add_argument("--hpoly2", help="second halfspace CSV")
    p_check.add_argument("--n", type=int, default=3, help="random model size")
    p_check.add_argument("--d", type=int, default=2, help="random model dimension")
    p_check.add_argument("--a", default="1.0", help="widening (number or inf)")
    p_check.add_argument("--index", type=int, default=0)
    p_check.add_argument("--split", type=int, default=0, help="Royen split (default n//2)")
    p_check.add_argument("--width", type=float, default=1.0, help="slab half-width")
    p_check.add_argument("--direction", default="1,0", help="slab direction x,y")
    p_check.add_argument("--s", type=float, default=0.25, help="Tehranchi s parameter")
    p_check.add_argument("--t", type=float, default=0.5, help="Tehranchi t parameter")
    p_check.add_argument("--samples", type=int, default=1000, help="lattice premise pairs")

    p_ce = sub.add_parser("counterexample", help="reproduce the hull counterexample")
    p_ce.add_argument("kind", choices=("hull",))
    common(p_ce)
    p_ce.add_argument("--N", type=float, default=3.0)

    p_search = sub.add_parser("search", help="derivative-free counterexample search")
    common(p_search)
    p_search.add_argument("--family", choices=ineqlab.SEARCH_FAMILIES, required=True)
    p_search.add_argument("--steps", type=int, default=40)

    p_tensor = sub.add_parser("tensorize", help="product-model ratio identity")
    common(p_tensor)
    p_tensor.add_argument("--N", type=int, choices=(2, 3), required=True)
    p_tensor.add_argument("--bounds2", help="second threshold vector CSV")

    p_corr = sub.add_parser("correct", help="refined simultaneous confidence level")
    common(p_corr)
    p_corr.add_argument("--alpha", type=float, required=True)

    return parser


def _load_model(args, n=None, d=None):
    if args.cov:
        return from_covariance(load_covariance_csv(args.cov))
    n = n or getattr(args, "n", 3)
    d = min(d or getattr(args, "d", 2), n)
    return random_correlation(n, d, args.seed)


def _load_thresholds(path, size, default=1.0, rng=None, randomize=False):
    if path:
        return ThresholdVector(load_vector_csv(path))
    if randomize and rng is not None:
        return ThresholdVector(rng.uniform(0.5, 2.0, size=size))
    return ThresholdVector.constant(size, default)


def _load_polygon(path, seed, offset=0):
    if path:
        return load_polygon_csv(path)
    return random_symmetric_polygon(np.random.default_rng(seed + offset), points=5)


def _load_hpoly(path, seed, offset=0):
    if path:
        return load_hpolytope_csv(path)
    return random_unconditional_hpolytope(np.random.default_rng(seed + offset))


def _parse_widening(text) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _UsageError(f"--a must be a number or inf, got {text!r}") from None
    if not (value > 0):
        raise _UsageError("--a must be positive (inf allowed)")
    return value


def _parse_direction(text) -> np.ndarray:
    try:
        direction = np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        direction = np.array([])
    if direction.shape != (2,) or not np.all(np.isfinite(direction)):
        raise _UsageError(f"--direction must be two finite numbers x,y, got {text!r}")
    return direction


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _report_lines(report: ineqlab.InequalityReport) -> list[str]:
    return [
        f"{report.label}: {report.verdict}",
        f"  lhs    = {report.lhs.value:.8f} (stderr {report.lhs.stderr:.2e})",
        f"  rhs    = {report.rhs.value:.8f} (stderr {report.rhs.stderr:.2e})",
        f"  margin = {report.margin:+.8f} (combined stderr {report.stderr:.2e})",
    ]


def _finish_report(args, report: ineqlab.InequalityReport) -> int:
    _emit(args, report.to_json_dict(), _report_lines(report))
    if ineqlab.is_theorem_backed(report.label) and report.verdict == ineqlab.VIOLATED:
        return 2
    return 0


def _run_measure(args) -> int:
    if args.polygon or args.hpoly:
        body = load_polygon_csv(args.polygon) if args.polygon else load_hpolytope_csv(args.hpoly)
        # the clamp matters for d >= 3 only
        est = ineqlab._measure(body, max(args.budget, measure.MC_MIN_BUDGET), args.seed)
    elif args.cov:
        model = from_covariance(load_covariance_csv(args.cov))
        c = _load_thresholds(args.bounds, model.size)
        est = measure.gauss_measure_band(SymmetricBand(model, c), args.budget, args.seed)
    else:
        raise _UsageError("measure needs --cov/--bounds, --polygon, or --hpoly")
    payload = {"label": "measure", "value": est.value, "stderr": est.stderr,
               "samples": est.samples, "method": est.method, "seed": est.seed}
    _emit(args, payload, [f"measure = {est.value:.8f} (stderr {est.stderr:.2e}, "
                          f"method {est.method})"])
    return 0


def _run_check(args) -> int:
    name = args.name
    rng = np.random.default_rng(args.seed)
    if name == "sidak":
        model = _load_model(args)
        c = _load_thresholds(args.bounds, model.size)
        return _finish_report(args, ineqlab.check_sidak(
            model, c, args.budget, args.seed))
    if name == "refined":
        model = _load_model(args)
        c = _load_thresholds(args.bounds, model.size)
        a = _parse_widening(args.a)
        return _finish_report(args, ineqlab.check_refined_sidak(
            model, c, a, args.index, args.budget, args.seed))
    if name == "royen":
        model = _load_model(args)
        c = _load_thresholds(args.bounds, model.size)
        split = args.split or max(model.size // 2, 1)
        return _finish_report(args, ineqlab.check_royen(
            model, c, split, args.budget, args.seed))
    if name == "strong-bands":
        model = _load_model(args)
        s = _load_thresholds(args.bounds, model.size, rng=rng, randomize=not args.bounds)
        t = _load_thresholds(args.bounds2, model.size, rng=rng, randomize=not args.bounds2)
        return _finish_report(args, ineqlab.check_strong_gci_bands(
            model, s, t, args.budget, args.seed))
    if name == "strong-2d":
        p = _load_polygon(args.polygon, args.seed)
        q = _load_polygon(args.polygon2, args.seed, offset=1)
        return _finish_report(args, ineqlab.check_strong_gci_2d(p, q, args.budget, args.seed))
    if name == "slab":
        width = args.width
        if args.cov:
            model = from_covariance(load_covariance_csv(args.cov))
            c = _load_thresholds(args.bounds, model.size)
            band = SymmetricBand(model, c)
            return _finish_report(args, ineqlab.check_slab(
                band, args.index, width, args.budget, args.seed))
        p = _load_polygon(args.polygon, args.seed)
        direction = _parse_direction(args.direction)
        return _finish_report(args, ineqlab.check_slab(
            p, direction, width, args.budget, args.seed))
    if name == "unconditional":
        k = _load_hpoly(args.hpoly, args.seed)
        t = _load_hpoly(args.hpoly2, args.seed, offset=1)
        budget = max(args.budget, measure.MC_MIN_BUDGET)
        return _finish_report(args, ineqlab.check_unconditional(k, t, budget, args.seed))
    if name == "tehranchi":
        model = _load_model(args)
        s_thr = _load_thresholds(args.bounds, model.size)
        t_thr = _load_thresholds(args.bounds2, model.size, default=1.5)
        return _finish_report(args, ineqlab.check_tehranchi(
            model, s_thr, t_thr, args.s, args.t, args.budget, args.seed))
    if name == "lattice":
        k = _load_hpoly(args.hpoly, args.seed)
        t = _load_hpoly(args.hpoly2, args.seed, offset=1)
        try:
            rep = ineqlab.check_lattice_premise(k, t, args.samples, args.seed)
        except PremiseViolated as exc:
            print(f"lattice-premise: VIOLATED ({exc})", file=sys.stderr)
            return 2
        payload = {"label": "lattice-premise", "pairs": rep.pairs,
                   "passed": rep.passed, "seed": rep.seed}
        _emit(args, payload, [f"lattice-premise: passed on {rep.pairs} pairs"])
        return 0
    if name == "rogers-shephard":
        p = _load_polygon(args.polygon, args.seed)
        q = _load_polygon(args.polygon2, args.seed, offset=1)
        return _finish_report(args, ineqlab.check_rogers_shephard(p, q))
    raise _UsageError(f"unknown check {name!r}")


def _run_counterexample(args) -> int:
    result = ineqlab.hull_counterexample(args.N, args.budget, args.seed)
    payload = result.report.to_json_dict()
    payload["reduction"] = {
        "wide_interval_measure": result.wide_interval_measure,
        "diamond_half_width": result.diamond_half_width,
        "diamond_interval_measure": result.diamond_interval_measure,
        "gap": result.reduction_gap,
    }
    lines = _report_lines(result.report) + [
        f"  reduction: gamma1([-N,N]) = {result.wide_interval_measure:.7f} vs "
        f"gamma1 diamond interval = {result.diamond_interval_measure:.7f} "
        f"(gap {result.reduction_gap:+.7f})",
    ]
    _emit(args, payload, lines)
    return 0  # exploratory: the verdict lives in the payload


def _run_search(args) -> int:
    result = ineqlab.search_counterexample(args.family, args.steps, args.budget, args.seed)
    lines = [
        f"search[{result.family}]: best margin {result.best_margin:+.6f} "
        f"(stderr {result.best_stderr:.2e}) after {result.evaluations} evaluations",
        f"  params: {result.best_params}",
    ]
    _emit(args, result.to_json_dict(), lines)
    return 0


def _run_tensorize(args) -> int:
    model = _load_model(args)
    rng = np.random.default_rng(args.seed)
    s = _load_thresholds(args.bounds, model.size, rng=rng, randomize=not args.bounds)
    t = _load_thresholds(args.bounds2, model.size, rng=rng, randomize=not args.bounds2)
    rep = ineqlab.tensorize_check(model, s, t, args.N, args.budget, args.seed)
    lines = [
        f"tensorize[N={rep.copies}]: {'passed' if rep.passed else 'FAILED'}",
        f"  product ratio  = {rep.product_ratio.value:.8f}",
        f"  base ratio ^ N = {rep.expected_power.value:.8f}",
        f"  difference     = {rep.difference:+.2e} (stderr {rep.stderr:.2e})",
    ]
    _emit(args, rep.to_json_dict(), lines)
    return 0 if rep.passed else 2


def _run_correct(args) -> int:
    model = _load_model(args)
    result = sidakcorrect.improved_confidence(model, args.alpha, args.budget, args.seed)
    _emit(args, result.to_json_dict(), [sidakcorrect.correction_table(result)])
    return 0


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        handler = {
            "measure": _run_measure,
            "check": _run_check,
            "counterexample": _run_counterexample,
            "search": _run_search,
            "tensorize": _run_tensorize,
            "correct": _run_correct,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (GciLabError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
