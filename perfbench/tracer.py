"""Span tracer for the benchmark's traced run.

The tracer wraps gcilab's public functions from outside the package: each
wrapped call records a span (name, start, end, parent, op id) in memory while
an operation is active. Names bound with ``from .x import y`` are patched in
every module that binds them, so ``ineqlab.gauss_measure_mc`` and
``measure.minkowski_contains`` are traced like the originals. Spans are
written out once, at the end of the run, and reduced to per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
from time import perf_counter

MODULES = ("gaussmodel", "mvnprob", "convexgeom", "measure", "ineqlab",
           "sidakcorrect", "cli")

# ineqlab checker -> report label used in metric names.
CHECKERS = {
    "check_sidak": "sidak",
    "check_refined_sidak": "refined-sidak",
    "check_royen": "royen",
    "check_strong_gci_bands": "strong-gci-bands",
    "check_tehranchi": "tehranchi",
    "check_slab": "slab",
    "tensorize_check": "tensorize",
    "check_unconditional": "unconditional-strong-gci",
    "check_lattice_premise": "lattice-premise",
    "check_strong_gci_2d": "strong-gci-2d",
    "check_rogers_shephard": "rogers-shephard",
    "hull_counterexample": "hull-counterexample",
}

SMALL_N = 8    # rect_prob calls with n <= SMALL_N are set-up bound
LARGE_N = 24   # rect_prob calls with n >= LARGE_N are kernel bound


def _rect_info(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    return {"n": model.size, "samples": result.samples, "stderr": result.stderr}


def _points_info(args, kwargs, result):
    points = args[1] if len(args) > 1 else kwargs["points"]
    return {"points": len(points)}


def _samples_info(args, kwargs, result):
    return {"samples": result.samples}


def _outside_info(args, kwargs, result):
    return {"outside": not result}


def targets(gcilab):
    """(span name, owner, attribute, info extractor) for every traced callable."""
    g = gcilab
    cg = g.convexgeom
    out = [
        ("gaussmodel.from_covariance", g.gaussmodel, "from_covariance", None),
        ("mvnprob.rect_prob", g.mvnprob, "rect_prob", _rect_info),
        ("mvnprob.oracle_region_prob", g.mvnprob, "oracle_region_prob", None),
        ("convexgeom.minkowski_contains", cg, "minkowski_contains", _outside_info),
        ("convexgeom.is_unconditional", cg.HPolytope, "is_unconditional", None),
        ("measure.gauss_measure_mc", g.measure, "gauss_measure_mc", _samples_info),
        ("measure.minkowski_measure_mc", g.measure, "minkowski_measure_mc", _samples_info),
        ("sidakcorrect.improved_confidence", g.sidakcorrect, "improved_confidence", None),
        ("sidakcorrect.improved_critical_value", g.sidakcorrect,
         "improved_critical_value", None),
        ("sidakcorrect.improvement_factor", g.sidakcorrect, "improvement_factor", None),
        ("cli.run", g.cli, "run", None),
    ]
    for cls in (cg.Polygon2D, cg.SymmetricBand, cg.HPolytope):
        out.append(("convexgeom.support", cls, "support", None))
        out.append(("convexgeom.contains_many", cls, "contains_many", _points_info))
    for fn in ("polygon_minkowski_sum", "intersect_polygons", "convex_hull_union",
               "clip_halfplane"):
        out.append(("convexgeom.polygon_ops", cg, fn, None))
    out.append(("convexgeom.polygon_ops", cg.Polygon2D, "from_points", None))
    for fn, label in CHECKERS.items():
        out.append((f"ineqlab.{label}", g.ineqlab, fn, None))
    return out


class Tracer:
    """Records spans of wrapped gcilab calls made while an op is active."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op_id, info, raised]
        self._stack: list[int] = []
        self.op_id: int | None = None
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, info):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None,
                    tracer.op_id, None, False]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = perf_counter()
                span[6] = True
                raise
            else:
                span[2] = perf_counter()
                if info is not None:
                    span[5] = info(args, kwargs, result)
                return result
            finally:
                tracer._stack.pop()

        return wrapper

    def install(self, gcilab) -> None:
        """Patch every traced callable wherever gcilab binds it."""
        modules = [m for k, m in sys.modules.items()
                   if k == "gcilab" or k.startswith("gcilab.")]
        for name, owner, attr, info in targets(gcilab):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, info))
            else:
                wrapped = self._wrap(name, original, info)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Spans as gzipped JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[0], "start": s[1] - t0, "end": s[2] - t0,
                                     "parent": s[3], "op": s[4], "info": s[5],
                                     "raised": s[6]}) + "\n")


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in output order."""
    names = [
        "gaussmodel.from_covariance.calls", "gaussmodel.from_covariance.busy_ms",
        "mvnprob.rect_prob.calls", "mvnprob.rect_prob.busy_ms", "mvnprob.rect_prob.points",
        "mvnprob.rect_prob.ns_per_coord", "mvnprob.rect_prob.ns_per_coord.small",
        "mvnprob.rect_prob.ns_per_coord.large", "mvnprob.rect_prob.ms_x_var",
        "mvnprob.oracle_region_prob.calls", "mvnprob.oracle_region_prob.busy_ms",
        "convexgeom.minkowski_contains.calls", "convexgeom.minkowski_contains.busy_ms",
        "convexgeom.minkowski_contains.outside_frac",
        "convexgeom.support.calls", "convexgeom.support.busy_ms",
        "convexgeom.contains_many.points", "convexgeom.contains_many.busy_ms",
        "convexgeom.polygon_ops.busy_ms", "convexgeom.is_unconditional.busy_ms",
        "measure.gauss_measure_mc.calls", "measure.gauss_measure_mc.busy_ms",
        "measure.gauss_measure_mc.samples",
        "measure.minkowski_measure_mc.calls", "measure.minkowski_measure_mc.self_ms",
        "measure.minkowski_measure_mc.shell_frac",
    ]
    for label in CHECKERS.values():
        names += [f"ineqlab.{label}.calls", f"ineqlab.{label}.busy_ms",
                  f"ineqlab.{label}.self_ms"]
    names += [
        "sidakcorrect.improved_confidence.busy_ms", "sidakcorrect.improved_confidence.self_ms",
        "sidakcorrect.improved_critical_value.busy_ms",
        "sidakcorrect.improved_critical_value.self_ms",
        "sidakcorrect.improvement_factor.calls", "sidakcorrect.rect_prob_per_op",
        "cli.run.calls", "cli.run.self_ms",
    ]
    names += [f"{m}.errors" for m in MODULES]
    names.append("trace.overhead_frac")
    return names


def metric_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_ms"):
        return "ms"
    if name.endswith(".ns_per_coord") or ".ns_per_coord." in name:
        return "ns"
    if last.endswith("_frac"):
        return "ratio"
    if last == "ms_x_var":
        return "ms"
    if last == "rect_prob_per_op":
        return "calls/op"
    return "count"


def layer_metrics(spans, overhead_frac: float) -> dict[str, float]:
    """Reduce spans to the per-layer metrics named by ``metric_names``."""
    by_name: dict[str, list[int]] = {}
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
        if s[3] is not None:
            children.setdefault(s[3], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def outermost(i):
        # busy time counts a span only when no ancestor has the same name
        name, p = spans[i][0], spans[i][3]
        while p is not None:
            if spans[p][0] == name:
                return False
            p = spans[p][3]
        return True

    def self_time(i):
        kids = [(spans[k][1], spans[k][2]) for k in children.get(i, ())]
        return dur(i) - _union_length(kids)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy_ms(name):
        return 1e3 * sum(dur(i) for i in by_name.get(name, ()) if outermost(i))

    def self_ms(name):
        return 1e3 * sum(self_time(i) for i in by_name.get(name, ()))

    def completed(name):
        # spans whose call returned, so their info was recorded
        return [i for i in by_name.get(name, ()) if spans[i][5] is not None]

    m: dict[str, float] = {}
    m["gaussmodel.from_covariance.calls"] = calls("gaussmodel.from_covariance")
    m["gaussmodel.from_covariance.busy_ms"] = busy_ms("gaussmodel.from_covariance")

    rect = completed("mvnprob.rect_prob")
    m["mvnprob.rect_prob.calls"] = calls("mvnprob.rect_prob")
    m["mvnprob.rect_prob.busy_ms"] = busy_ms("mvnprob.rect_prob")
    m["mvnprob.rect_prob.points"] = sum(spans[i][5]["samples"] for i in rect)

    def ns_per_coord(keep):
        sel = [i for i in rect if spans[i][5]["samples"] > 0 and keep(spans[i][5]["n"])]
        coords = sum(spans[i][5]["samples"] * spans[i][5]["n"] for i in sel)
        return 1e9 * sum(dur(i) for i in sel) / coords if coords else 0.0

    m["mvnprob.rect_prob.ns_per_coord"] = ns_per_coord(lambda n: True)
    m["mvnprob.rect_prob.ns_per_coord.small"] = ns_per_coord(lambda n: n <= SMALL_N)
    m["mvnprob.rect_prob.ns_per_coord.large"] = ns_per_coord(lambda n: n >= LARGE_N)
    m["mvnprob.rect_prob.ms_x_var"] = (
        statistics.median(1e3 * dur(i) * spans[i][5]["stderr"] ** 2 for i in rect)
        if rect else 0.0)
    m["mvnprob.oracle_region_prob.calls"] = calls("mvnprob.oracle_region_prob")
    m["mvnprob.oracle_region_prob.busy_ms"] = busy_ms("mvnprob.oracle_region_prob")

    mink = completed("convexgeom.minkowski_contains")
    m["convexgeom.minkowski_contains.calls"] = calls("convexgeom.minkowski_contains")
    m["convexgeom.minkowski_contains.busy_ms"] = busy_ms("convexgeom.minkowski_contains")
    m["convexgeom.minkowski_contains.outside_frac"] = (
        sum(spans[i][5]["outside"] for i in mink) / len(mink) if mink else 0.0)
    m["convexgeom.support.calls"] = calls("convexgeom.support")
    m["convexgeom.support.busy_ms"] = busy_ms("convexgeom.support")
    m["convexgeom.contains_many.points"] = sum(
        spans[i][5]["points"] for i in completed("convexgeom.contains_many"))
    m["convexgeom.contains_many.busy_ms"] = busy_ms("convexgeom.contains_many")
    m["convexgeom.polygon_ops.busy_ms"] = busy_ms("convexgeom.polygon_ops")
    m["convexgeom.is_unconditional.busy_ms"] = busy_ms("convexgeom.is_unconditional")

    mc = completed("measure.gauss_measure_mc")
    m["measure.gauss_measure_mc.calls"] = calls("measure.gauss_measure_mc")
    m["measure.gauss_measure_mc.busy_ms"] = busy_ms("measure.gauss_measure_mc")
    m["measure.gauss_measure_mc.samples"] = sum(spans[i][5]["samples"] for i in mc)
    mm = completed("measure.minkowski_measure_mc")
    m["measure.minkowski_measure_mc.calls"] = calls("measure.minkowski_measure_mc")
    m["measure.minkowski_measure_mc.self_ms"] = self_ms("measure.minkowski_measure_mc")
    budget = sum(spans[i][5]["samples"] for i in mm)
    shell = sum(1 for i in mm for k in children.get(i, ())
                if spans[k][0] == "convexgeom.minkowski_contains")
    m["measure.minkowski_measure_mc.shell_frac"] = shell / budget if budget else 0.0

    for label in CHECKERS.values():
        name = f"ineqlab.{label}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_ms"] = busy_ms(name)
        m[f"{name}.self_ms"] = self_ms(name)

    for fn in ("improved_confidence", "improved_critical_value"):
        name = f"sidakcorrect.{fn}"
        m[f"{name}.busy_ms"] = busy_ms(name)
        m[f"{name}.self_ms"] = self_ms(name)
    m["sidakcorrect.improvement_factor.calls"] = calls("sidakcorrect.improvement_factor")
    corr_ops = {spans[i][4] for name in ("sidakcorrect.improved_confidence",
                                         "sidakcorrect.improved_critical_value")
                for i in by_name.get(name, ())}
    corr_rect = sum(1 for i in rect if spans[i][4] in corr_ops)
    m["sidakcorrect.rect_prob_per_op"] = corr_rect / len(corr_ops) if corr_ops else 0.0
    m["cli.run.calls"] = calls("cli.run")
    m["cli.run.self_ms"] = self_ms("cli.run")

    for mod in MODULES:
        # an exception leaves a layer when the span that raised it has no
        # parent in the same module
        m[f"{mod}.errors"] = sum(
            1 for s in spans
            if s[6] and s[0].split(".")[0] == mod
            and (s[3] is None or spans[s[3]][0].split(".")[0] != mod))
    m["trace.overhead_frac"] = overhead_frac
    return {name: m[name] for name in metric_names()}
