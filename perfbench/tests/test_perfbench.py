"""Tests of the benchmark's own code: input generation, output checks, span
arithmetic and the call counts the traced run reports.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run
import suite
from spans import Span, Tracer, aggregate, self_times

BENCH = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("inputs", [suite.closed_form_inputs, suite.oracle_inputs,
                                    suite.exact_inputs])
def test_inputs_are_deterministic_per_seed(inputs):
    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


@pytest.mark.parametrize("seed", range(1, 11))
def test_sweep_grid_covers_every_validity_label(seed):
    grid = suite.closed_form_inputs(seed)["grid"]
    assert grid.rows == 10 ** 4
    labels = Counter(suite.validity_label(tau, gamma, g)
                     for tau, gamma, _, g in grid.cells())
    assert set(labels) == {"ok", "warn", "invalid"}


SMALL_GRID = suite.SweepGrid(tau=(0.5, 3.0), gamma=(0.0, 2.0), theta=(0.0, 1.0),
                             g=(1e-4, 0.05, 2.0), hbar=1.3, mass=0.7, omega=1.9)


@pytest.fixture
def sweep_csv(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(SMALL_GRID.config_text())
    out = tmp_path / "sweep.csv"
    rc, _, error = suite.call_cli(["sweep", "--config", str(config), "--out", str(out)])
    assert rc == 0, error
    suite.check_sweep_csv(out, SMALL_GRID)
    return out


def _rewrite_row(path: Path, index: int, column: str, edit) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[index].split(",")
    col = header.index(column)
    fields[col] = edit(fields[col])
    lines[index] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_checker_rejects_corrupted_gup_bound(sweep_csv):
    _rewrite_row(sweep_csv, 5, "gup_bound", lambda v: repr(float(v) * (1 + 1e-9)))
    with pytest.raises(suite.CheckFailed, match="gup_bound"):
        suite.check_sweep_csv(sweep_csv, SMALL_GRID)


def test_checker_rejects_wrong_validity_label(sweep_csv):
    _rewrite_row(sweep_csv, 7, "validity",
                 lambda v: {"ok": "warn", "warn": "invalid", "invalid": "ok"}[v])
    with pytest.raises(suite.CheckFailed, match="validity"):
        suite.check_sweep_csv(sweep_csv, SMALL_GRID)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 5.0, 0, 0),    # overlaps a: the union [1, 5] counts once
        Span("c", 6.0, 7.0, 0, 0),
        Span("leaf", 1.5, 2.5, 1, 0),
        Span("a", 8.0, 9.5, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.5, 2.0, 2.0, 1.0, 1.0, 1.5])
    stats = aggregate(spans)
    assert stats["a"] == pytest.approx({"calls": 2, "total_s": 4.5, "self_s": 3.5})
    assert stats["root"] == pytest.approx({"calls": 1, "total_s": 10.0, "self_s": 3.5})


def _traced_counts(workload) -> Counter:
    ops = [op for op in workload.ops if op.traced]
    tracer = Tracer()
    with tracer.installed(run.targets(), run.OBSERVERS):
        results = run.run_pass(ops, tracer)
    assert all(outcome.ok for op, outcome in results if not op.known_failure)
    return Counter((ops[s.op].name, s.name) for s in tracer.spans)


def test_exact_algebra_call_counts_repeat_exactly(tmp_path):
    workload = suite.exact_algebra(3, tmp_path)
    counts = _traced_counts(workload)
    assert counts == _traced_counts(workload)
    assert counts["verify_bch", "boson_algebra.commutator"] == suite.BCH_DEPTH
    assert counts["ladder_taylor_check", "boson_algebra.commutator"] == 6 * suite.BCH_DEPTH


def test_oracle_compare_runs_18_eigensystems_per_command(tmp_path):
    counts = _traced_counts(suite.oracle_compare(3, tmp_path))
    assert counts["oracle_small", "fock_oracle.eigensystem"] == 18
    assert counts["oracle_large", "fock_oracle.eigensystem"] == 18


def test_closed_form_sweep_call_counts_per_record(tmp_path):
    counts = _traced_counts(suite.closed_form_grid(3, tmp_path))
    rows = 10 ** 4
    assert counts["sweep_jobs1", "analytic.variance_record"] == rows
    assert counts["sweep_jobs1", "analytic.deformed_variances"] == 2 * rows
    assert counts["sweep_jobs1", "analytic.quadrature_moments"] == 2 * rows
    assert counts["sweep_jobs1", "physics_config.to_natural"] == 3 * rows
    assert counts["uncertainty_check", "analytic.uncertainty_product"] == rows


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(suite.BUILDERS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_algebra",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
