"""gcilab benchmark: one closed-loop client running a seeded workload.

Usage, from the root of a gcilab checkout:

    python3 perfbench/run.py --workload bands --seed 1 --seconds 30 --trace 0

One process and one thread run each operation when the previous one returns.
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it runs every operation untraced and traced back to back,
checks that both give identical results, and reports per-layer metrics from
the traced runs. Every result goes through the correctness gate in
``workloads.py``. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Timings are scaled to a reference machine speed. The speed of a shared host
swings by up to half within a minute, and a fixed calibration kernel timed
between operations follows those swings closely, so each op time is
multiplied by ``CAL_REF_S`` over the kernel's local median time. The raw
values are printed in the table next to the scaled ones.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# The BLAS pool sizes itself when numpy loads, so pin it before any import.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from scipy.special import ndtr, ndtri  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
TRACE_DIR = ".perfbench-out"
CAL_REF_S = 5e-4          # calibration kernel time that scaled timings refer to
CAL_WINDOW = 4            # ops on each side whose kernel times set an op's scale
_CAL_X = np.random.default_rng(0).random(20_000)

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
             "peak_rss_mb": "MB"}


@dataclass
class Record:
    kind: str
    seconds: float
    outcome: workloads.Outcome
    cal_s: float = CAL_REF_S


def calibrate(repeats: int = 3) -> float:
    """Best-of-``repeats`` time of a fixed interpreter loop plus ndtr/ndtri kernel."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        acc = 0
        for i in range(3000):
            acc += i * i
        ndtri(np.clip(ndtr(_CAL_X), 1e-300, 1.0 - 1e-16))
        best = min(best, perf_counter() - t0)
    return best


def import_gcilab():
    """Import gcilab from this checkout's src/, never from an installed copy."""
    if not (SRC / "gcilab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gcilab package under {SRC}; "
                         "run from the root of a gcilab checkout")
    sys.path.insert(0, str(SRC))
    import gcilab
    import gcilab.cli  # noqa: F401  (cli is not imported by the package itself)

    if Path(gcilab.__file__).resolve().parent != (SRC / "gcilab").resolve():
        raise SystemExit(f"perfbench: imported gcilab from {gcilab.__file__}, not {SRC}")
    return gcilab


def measure_setup_s(samples: int = SETUP_SAMPLES) -> tuple[list[float], list[float]]:
    """Raw and speed-scaled wall times of ``import gcilab`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import gcilab; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    for _ in range(samples):
        before = calibrate(5)
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        cal = 0.5 * (before + calibrate(5))
        raw.append(float(out.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * CAL_REF_S / cal)
    return raw, scaled


def environment(gcilab) -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu": cpu, "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "gcilab": gcilab.__version__}


def run_one(op, tracer=None, op_id=None) -> Record:
    """Time one op; a raising op is counted as failed, not fatal."""
    if tracer is not None:
        tracer.op_id = op_id
    error = None
    t0 = perf_counter()
    try:
        result = op.call()
    except Exception as exc:
        error = exc
    elapsed = perf_counter() - t0
    if tracer is not None:
        tracer.op_id = None
    if error is None:
        outcome = workloads.judge_safely(op, result)
    else:
        outcome = workloads.Outcome(key=("raised", type(error).__name__),
                                    failure=f"raised {type(error).__name__}: {error}")
    return Record(op.kind, elapsed, outcome)


def run_ops(ops, seconds: float) -> list[Record]:
    """Closed loop: run ops one after another until ``seconds`` of op time,
    then finish the current deck.

    The calibration kernel runs before each op, outside its timing.
    """
    records = []
    busy = 0.0
    for op in ops:
        cal = calibrate()
        records.append(run_one(op))
        records[-1].cal_s = cal
        busy += records[-1].seconds
        if busy >= seconds and op.deck_end:
            break
    return records


def run_paired(ops, seconds: float, tracer, gcilab) -> tuple[list[Record], list[Record]]:
    """Run each op untraced and traced back to back, alternating which goes first,
    until ``seconds`` of untraced op time and the end of a deck.

    Pairing keeps slow drifts of a shared machine out of the overhead ratio and
    gives every op a traced twin whose outcome must match exactly.
    """
    plain, traced = [], []
    busy = 0.0
    for op_id, op in enumerate(ops):
        for with_trace in ((False, True) if op_id % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(run_one(op))
                continue
            tracer.install(gcilab)
            try:
                traced.append(run_one(op, tracer, op_id))
            finally:
                tracer.uninstall()
        busy += plain[-1].seconds
        if busy >= seconds and op.deck_end:
            break
    return plain, traced


def scaled_seconds(records: list[Record]) -> np.ndarray:
    """Op times at reference speed, from the median kernel time around each op."""
    cal = np.array([r.cal_s for r in records])
    raw = np.array([r.seconds for r in records])
    local = np.array([np.median(cal[max(i - CAL_WINDOW, 0):i + CAL_WINDOW + 1])
                      for i in range(len(cal))])
    return raw * CAL_REF_S / local


def _mean(values):
    return statistics.fmean(values) if values else None


def _timings(seconds: np.ndarray, tail_p: float) -> dict:
    ms = 1e3 * seconds
    return {"ops_per_s": len(ms) / float(seconds.sum()),
            "op_ms_p50": float(np.median(ms)),
            "op_ms_tail": float(np.percentile(ms, tail_p))}


def end_to_end(records: list[Record], workload: workloads.Workload,
               setup_raw: list[float], setup_scaled: list[float]) -> tuple[dict, list]:
    """Gated end-to-end metrics, and table rows (name, value, unit) for the rest."""
    secs = scaled_seconds(records)
    raw = np.array([r.seconds for r in records])
    tail_p = workload.tail_percentile
    gated = {"setup_s": statistics.median(setup_scaled), **_timings(secs, tail_p),
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    beyond = int(np.count_nonzero(secs > np.percentile(secs, tail_p)))
    txv = [s * r.outcome.stderr ** 2 for s, r in zip(secs, records)
           if r.outcome.stderr is not None]
    verdicts = [r.outcome.verdict for r in records if r.outcome.verdict is not None]
    failed = sum(r.outcome.failure is not None for r in records)
    rows = [
        ("op_ms_tail.percentile", f"p{tail_p:g} of {len(records)} ops, {beyond} beyond", ""),
        ("time_x_var", _mean(txv), "s"),
        ("time_x_var.ops", len(txv), "count"),
        ("failed_frac", failed / len(records), "ratio"),
        ("inconclusive_frac",
         verdicts.count("inconclusive") / len(verdicts) if verdicts else None, "ratio"),
        ("certified_gain", _mean([r.outcome.certified_gain for r in records
                                  if r.outcome.certified_gain is not None]), "prob"),
        ("crit_value_gain", _mean([r.outcome.crit_value_gain for r in records
                                   if r.outcome.crit_value_gain is not None]), "ratio"),
        ("findings", sum(r.outcome.finding for r in records), "count"),
        ("raw.setup_s", statistics.median(setup_raw), "s"),
        *[(f"raw.{k}", v, E2E_UNITS[k]) for k, v in _timings(raw, tail_p).items()],
        ("calibration_ms.median", 1e3 * statistics.median(r.cal_s for r in records), "ms"),
    ]
    return gated, rows


def _print_table(rows) -> None:
    for name, value, unit in rows:
        text = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float)
                                            else str(value))
        print(f"  {name:48s} {text:>16s} {unit}")


def _failures(records) -> list[str]:
    return [f"{r.kind}: {r.outcome.failure}" for r in records if r.outcome.failure]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="untraced op time measured (half of it when tracing)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    gcilab = import_gcilab()
    workload = workloads.WORKLOADS[args.workload]
    print(f"perfbench: workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + json.dumps(environment(gcilab), sort_keys=True))

    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        source = workloads.op_stream(workload, workloads.Context(gcilab, scratch), args.seed)
        if not args.trace:
            setup_raw, setup_scaled = measure_setup_s()
            records = run_ops(source, args.seconds)
            gated, rows = end_to_end(records, workload, setup_raw, setup_scaled)
            print("end-to-end metrics (closed loop, 1 client, tracing off; "
                  "times at reference speed):")
            _print_table([(k, v, E2E_UNITS[k]) for k, v in gated.items()] + rows)
            failures = _failures(records)
            failed = len(failures)
            correct = not failures
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in gated.items()}
            attempted = len(records)
        else:
            tracer = tracing.Tracer()
            plain, traced = run_paired(source, args.seconds / 2.0, tracer, gcilab)
            overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0
            mismatched = sum(a.outcome.key != b.outcome.key for a, b in zip(plain, traced))
            layer = tracing.layer_metrics(tracer.spans, overhead)
            out_dir = ROOT / TRACE_DIR
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
            tracer.write(spans_path)
            print(f"per-layer metrics (traced twins of {len(plain)} ops, "
                  f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}; raw times):")
            _print_table([(k, v, tracing.metric_unit(k)) for k, v in layer.items()])
            print("  no layer has a waiting metric: nothing queues in a one-thread "
                  "closed loop")
            print(f"  traced and untraced runs disagree on {mismatched} of {len(plain)} ops")
            failures = _failures(plain + traced)
            failed = sum(bool(a.outcome.failure or b.outcome.failure)
                         for a, b in zip(plain, traced))
            correct = not failures and mismatched == 0
            metrics = {k: {"value": float(v), "unit": tracing.metric_unit(k)}
                       for k, v in layer.items()}
            attempted = len(plain)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for line in failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
