#!/usr/bin/env python3
"""Benchmark for gupsqueeze, driven from outside through its CLI and public
library functions.

    python3 perfbench/run.py --workload closed_form_grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it times whole passes over the workload's operations
until ``--seconds`` is used up (at least three passes) and reports the
end-to-end metrics.  With ``--trace 1`` it runs one untraced and one traced
pass and reports per-layer calls, total and self time from the spans.
Every operation's output is checked.  A human-readable report goes to
stdout, followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 if
any check failed (the known-defect probe is counted, not fatal), 2 if the
package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, aggregate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

MIN_PASSES = 3
SETUP_REPEATS = 9

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mib", "MiB"))

# The public functions the traced run wraps, by layer (module).
TRACED = {
    "cli": ("main",),
    "analytic": ("variance_record", "deformed_variances", "quadrature_moments",
                 "squeezing_deltas", "uncertainty_product", "scaled_delta_x",
                 "scaled_delta_p", "analytic_slopes", "ladder_taylor_check"),
    "physics_config": ("to_natural", "parse_flat_document"),
    "fock_oracle": ("oracle_slopes", "truncation_audit", "oracle_variances",
                    "eigensystem", "hamiltonian", "evolution_operator",
                    "variance_numeric", "coherent_vector"),
    "boson_algebra": ("commutator", "bch_bodies", "collect_monomial_series",
                      "closed_form_taylor", "verify_bch_collection"),
}

COUNTERS = (
    ("cli.rows_out", "count"),
    ("cli.bytes_out", "B"),
    ("fock_oracle.dim_max", "count"),
    ("fock_oracle.eigensystem.dim3_sum", "dim3-computed"),
    ("boson_algebra.terms_max", "count"),
    ("trace.overhead_s", "s"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    out = []
    for layer, functions in TRACED.items():
        for fn in functions:
            out += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.total_s", "s"),
                    (f"{layer}.{fn}.self_s", "s")]
    return out + list(COUNTERS)


def targets() -> list[tuple[str, str, str]]:
    """(module, attribute, span name) for every traced function."""
    return [(f"gupsqueeze.{layer}", fn, f"{layer}.{fn}")
            for layer, functions in TRACED.items() for fn in functions]


def _observe_eigensystem(tracer, args, _result):
    dim = args[0].matrix.shape[0]
    tracer.raise_to("fock_oracle.dim_max", dim)
    tracer.bump("fock_oracle.eigensystem.dim3_sum", dim ** 3)


def _observe_bch_bodies(tracer, _args, deepest):
    if deepest is not None:
        tracer.raise_to("boson_algebra.terms_max", len(deepest.terms))


OBSERVERS = {
    "fock_oracle.eigensystem": _observe_eigensystem,
    "boson_algebra.bch_bodies": _observe_bch_bodies,
}


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest of p99.9/p99/p95/p90/p75 (nearest rank) that has at least
    ten samples beyond it, as (percentile, value); None if n is too small."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def describe(name: str, unit: str, value: float, times: list[float]) -> str:
    spread = tail(times)
    where = (f"op time p{spread[0]:g} = {spread[1]:.6g} s" if spread
             else "no percentile with >= 10 samples beyond it")
    return f"{name} = {value:.6g} {unit}  (median of n={len(times)}; {where})"


# ---------------------------------------------------------------------------
# running passes


def run_pass(ops, tracer=None) -> list:
    """Run each op once; the op id on spans is its index in ``ops``."""
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        results.append((op, op.run()))
    return results


def tally(passes: list[list]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems that make the run incorrect)."""
    attempted = failed = 0
    problems = []
    for results in passes:
        for op, outcome in results:
            attempted += 1
            if not outcome.ok:
                failed += 1
                if not op.known_failure:
                    problems.append(f"{op.name}: {outcome.detail}")
    return attempted, failed, problems


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing gupsqueeze.cli and
    building its parser; one unmeasured start first fills the bytecode cache."""
    code = "import gupsqueeze.cli as c; c.build_parser()"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def end_to_end(workload, seconds: float) -> tuple[dict, list[list]]:
    setup_s = measure_setup()
    passes = []
    pass_times = []
    start = time.perf_counter()
    while True:
        results = run_pass(workload.ops)
        passes.append(results)
        pass_times.append(sum(outcome.seconds for _, outcome in results))
        left = seconds - (time.perf_counter() - start)
        if len(passes) >= MIN_PASSES and left < statistics.median(pass_times):
            break

    op_times: dict[str, list[float]] = {}
    for results in passes:
        for op, outcome in results:
            op_times.setdefault(op.name, []).append(outcome.seconds)
    for metric in workload.reported:
        per_pass = [sum(t) for t in zip(*(op_times[name] for name in metric.ops))]
        values = [metric.size / t for t in per_pass] if metric.size else per_pass
        print(describe(metric.name, metric.unit, statistics.median(values), per_pass))
    for name, times in op_times.items():
        print(describe(f"op.{name}", "s", statistics.median(times), times))

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": setup_s,
        "pass_s": statistics.median(pass_times),
        "peak_rss_mib": peak_rss_mib,
    }
    print(f"setup_s = {setup_s:.6g} s  (median of {SETUP_REPEATS} fresh interpreters)")
    print(describe("pass_s", "s", metrics["pass_s"], pass_times))
    print(f"peak_rss_mib = {peak_rss_mib:.6g} MiB")
    return {name: (metrics[name], unit) for name, unit in END_TO_END}, passes


def traced(workload) -> tuple[dict, list[list]]:
    ops = [op for op in workload.ops if op.traced]
    untraced_pass = run_pass(ops)
    tracer = Tracer()
    with tracer.installed(targets(), OBSERVERS):
        traced_pass = run_pass(ops, tracer)
    trace_file = OUT_DIR / f"trace-{workload.name}.csv"
    tracer.write_csv(trace_file)

    stats = aggregate(tracer.spans)
    values: dict[str, float] = {}
    for name, row in stats.items():
        for key, value in row.items():
            values[f"{name}.{key}"] = value
    values.update(tracer.counters)
    values["cli.rows_out"] = sum(o.rows_out for _, o in traced_pass)
    values["cli.bytes_out"] = sum(o.bytes_out for _, o in traced_pass)
    values["trace.overhead_s"] = (sum(o.seconds for _, o in traced_pass)
                                  - sum(o.seconds for _, o in untraced_pass))
    metrics = {name: (values.get(name, 0), unit) for name, unit in per_layer_metrics()}
    for name, (value, unit) in metrics.items():
        if value:
            print(f"{name} = {value:.6g} {unit}")
    print(f"spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
    return metrics, [untraced_pass, traced_pass]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gupsqueeze" / "cli.py").is_file():
        print(f"error: no gupsqueeze package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import suite

    if args.workload not in suite.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(suite.BUILDERS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    try:
        workload = suite.BUILDERS[args.workload](args.seed, work)
        if args.trace:
            metrics, passes = traced(workload)
        else:
            metrics, passes = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, problems = tally(passes)
    print(f"ops_failed_ratio = {failed / attempted:.6g} failed/attempted "
          f"({failed} of {attempted})")
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
