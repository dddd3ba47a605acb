"""The benchmark's workloads: seeded inputs, the operations each one runs
through gupsqueeze's public interface, and the checks on their outputs.

The program only ever sees the generated argv and config files.  Every
check recomputes what it compares against (canonical variances from
hbar/mass/omega, validity labels from the secular scale) instead of asking
the program.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from gupsqueeze import analytic, cli

# Validity thresholds on the secular scale g*tau*(1+gamma^2), as documented
# for the sweep's validity column.
WARN_ABOVE = 0.1
INVALID_ABOVE = 10.0

# The known defect kept in closed_form_grid: the momentum-variance cross-audit
# trips on float rounding (a 1.2e-12 gap) at secular scale ~505, so the sweep
# dies with ConsistencyError instead of writing an `invalid` row.
PROBE_POINT = (10.105263157894736, 3.0, 0.6666666666666666, 5.0)

BCH_DEPTH = 35
ORACLE_TAUS = 4
FIGURE_TAU_POINTS = 200
FIGURE_THETA_POINTS = 100


class CheckFailed(Exception):
    """An operation's output did not match what the benchmark expects."""


@dataclass
class Outcome:
    ok: bool
    seconds: float          # wall time of the call into the program only
    detail: str = ""
    rows_out: int = 0
    bytes_out: int = 0


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]
    # A known defect: its failure is counted, but does not make the run incorrect.
    known_failure: bool = False
    # Spans from pool workers are lost, so the traced pass leaves this op out.
    traced: bool = True


@dataclass(frozen=True)
class Reported:
    """A user-facing metric derived from the per-pass times of some ops:
    seconds, or ``size`` units per second when ``size`` is given."""

    name: str
    unit: str
    ops: tuple[str, ...]
    size: int | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    reported: list[Reported] = field(default_factory=list)


# ---------------------------------------------------------------------------
# seeded inputs


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi), ascending, so
    every seed spans the whole range with the same density."""
    width = (hi - lo) / n
    return [lo + (i + rng.random()) * width for i in range(n)]


@dataclass(frozen=True)
class SweepGrid:
    tau: tuple[float, ...]
    gamma: tuple[float, ...]
    theta: tuple[float, ...]
    g: tuple[float, ...]
    hbar: float | None = None
    mass: float | None = None
    omega: float | None = None

    @property
    def rows(self) -> int:
        return len(self.tau) * len(self.gamma) * len(self.theta) * len(self.g)

    def cells(self):
        for tau in self.tau:
            for gamma in self.gamma:
                for theta in self.theta:
                    for g in self.g:
                        yield tau, gamma, theta, g

    def config_text(self) -> str:
        lines = [f"{axis} = {', '.join(repr(v) for v in getattr(self, axis))}"
                 for axis in ("tau", "gamma", "theta", "g")]
        if self.hbar is not None:
            lines += [f"hbar = {self.hbar!r}", f"mass = {self.mass!r}",
                      f"omega = {self.omega!r}"]
        return "\n".join(lines) + "\n"


def sweep_grid(rng: random.Random) -> SweepGrid:
    """25 x 8 x 5 x 10 = 10^4 rows.  g spans 1e-5..1 in log space, so the
    secular scale runs from ~1e-8 to ~1e2 and every seed has rows labelled
    ok, warn and invalid."""
    return SweepGrid(
        tau=tuple(_stratified(rng, 25, 0.0, 4.0 * math.pi)),
        gamma=tuple(_stratified(rng, 8, 0.0, 3.0)),
        theta=tuple(_stratified(rng, 5, 0.0, 2.0 * math.pi)),
        g=tuple(10.0 ** e for e in _stratified(rng, 10, -5.0, 0.0)),
        hbar=rng.uniform(0.5, 2.0),
        mass=rng.uniform(0.5, 2.0),
        omega=rng.uniform(0.5, 2.0),
    )


def closed_form_inputs(seed: int) -> dict:
    rng = random.Random(f"closed_form_grid/{seed}")
    return {
        "grid": sweep_grid(rng),
        # 10 x 10 x 10 x 10 = 10^4 uncertainty-check points
        "uncertainty": ["--tau-max", repr(rng.uniform(10.0, 14.0)),
                        "--gamma-max", repr(rng.uniform(1.5, 2.5)),
                        "--g-min", repr(10.0 ** rng.uniform(-8.5, -7.5)),
                        "--g-max", repr(10.0 ** rng.uniform(-2.5, -1.5))],
        "figure_gamma": rng.uniform(0.5, 10.0),
    }


def oracle_inputs(seed: int) -> dict:
    """Two amplitudes on either side of the O(n^3)-vs-overhead crossover:
    gamma ~ 1 gives Fock dimension ~41, gamma ~ 10 gives ~230 (audit at 2x)."""
    rng = random.Random(f"oracle_compare/{seed}")
    out = {}
    for label, lo, hi in (("small", 0.9, 1.1), ("large", 9.9, 10.0)):
        out[label] = {
            "gamma": rng.uniform(lo, hi),
            "theta": rng.uniform(0.0, 2.0 * math.pi),
            "tau": _stratified(rng, ORACLE_TAUS, 0.3, 4.0),
        }
    return out


def exact_inputs(seed: int) -> dict:
    # At tau = 2.5 the depth-35 partial sums are already 1.4e-11 from their
    # closed forms, so the 1e-12 check would fail by truncation alone.
    rng = random.Random(f"exact_algebra/{seed}")
    return {"tau": rng.uniform(0.5, 2.0)}


# ---------------------------------------------------------------------------
# running the program


def call_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """Run ``cli.main`` in-process; returns (exit code, stdout, error).  A
    traceback from the program is caught here and counted as a failed op."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:
        # the interpreter's mapping: None is success, a message exits with 1
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        return code, buf.getvalue(), str(exc.code)
    except Exception as exc:  # the op boundary: record the failure, keep running
        return None, buf.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue(), ""


def cli_op(name: str, argv: list[str], outputs: list[Path],
           check: Callable[[str], None], **flags) -> Op:
    def run() -> Outcome:
        for path in outputs:
            path.unlink(missing_ok=True)
        start = time.perf_counter()
        rc, stdout, error = call_cli(argv)
        seconds = time.perf_counter() - start
        rows = sum(_data_rows(p) for p in outputs if p.exists())
        size = len(stdout.encode()) + sum(p.stat().st_size for p in outputs if p.exists())
        if rc != 0:
            return Outcome(False, seconds, f"exit code {rc}: {error.strip()}", rows, size)
        try:
            check(stdout)
        except CheckFailed as exc:
            return Outcome(False, seconds, str(exc), rows, size)
        return Outcome(True, seconds, "", rows, size)

    return Op(name, run, **flags)


def _data_rows(path: Path) -> int:
    with open(path, "rb") as stream:
        return max(sum(1 for _ in stream) - 1, 0)


def _read_csv(path: Path, header: tuple[str, ...]) -> list[list[str]]:
    with open(path, newline="") as stream:
        rows = list(csv.reader(stream))
    if not rows or tuple(rows[0]) != header:
        raise CheckFailed(f"{path.name}: header {rows[0] if rows else None} != {header}")
    return rows[1:]


# ---------------------------------------------------------------------------
# output checks


def validity_label(tau: float, gamma: float, g: float) -> str:
    scale = abs(g) * abs(tau) * (1.0 + gamma * gamma)
    if scale > INVALID_ABOVE:
        return "invalid"
    if scale > WARN_ABOVE:
        return "warn"
    return "ok"


def check_sweep_csv(path: Path, grid: SweepGrid) -> None:
    """Rows match the grid in count and order, product == bound to 1e-12,
    each delta is its variance minus the canonical value, and each validity
    label matches the recomputed secular scale."""
    rows = _read_csv(path, cli.SWEEP_COLUMNS)
    if len(rows) != grid.rows:
        raise CheckFailed(f"{path.name}: {len(rows)} rows, expected {grid.rows}")
    if grid.hbar is None:
        x_unit = p_unit = prod_unit = 1.0
    else:
        x_unit = grid.hbar / (grid.mass * grid.omega)
        p_unit = grid.hbar * grid.mass * grid.omega
        prod_unit = grid.hbar ** 2
    for n, (row, cell) in enumerate(zip(rows, grid.cells()), start=1):
        where = f"{path.name} row {n}"
        try:
            values = [float(v) for v in row[:-1]]
        except ValueError:
            raise CheckFailed(f"{where}: non-numeric field in {row}") from None
        tau, gamma, theta, g, var_x, var_p, product, bound, d_x, d_p, d_prod = values
        if (tau, gamma, theta, g) != cell:
            raise CheckFailed(f"{where}: point {(tau, gamma, theta, g)} != grid {cell}")
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"{where}: non-finite value")
        if abs(product - bound) > 1e-12 * max(abs(product), abs(bound)):
            raise CheckFailed(f"{where}: product {product!r} != gup_bound {bound!r}")
        # the natural-unit canonical values are 1/2, 1/2 and 1/4
        for label, delta, value, unit, canonical in (
                ("delta_x", d_x, var_x, x_unit, 0.5),
                ("delta_p", d_p, var_p, p_unit, 0.5),
                ("delta_product", d_prod, product, prod_unit, 0.25)):
            expected = value - canonical * unit
            if abs(delta - expected) > 4e-12 * max(unit, abs(value), abs(delta)):
                raise CheckFailed(f"{where}: {label} {delta!r} != variance minus "
                                  f"canonical {expected!r}")
        if row[-1] != validity_label(tau, gamma, g):
            raise CheckFailed(f"{where}: validity {row[-1]!r}, expected "
                              f"{validity_label(tau, gamma, g)!r}")


def check_figure_csv(path: Path) -> None:
    rows = _read_csv(path, ("tau", "theta", "delta_scaled"))
    expected = FIGURE_TAU_POINTS * FIGURE_THETA_POINTS
    if len(rows) != expected:
        raise CheckFailed(f"{path.name}: {len(rows)} cells, expected {expected}")
    for row in rows:
        if not all(math.isfinite(float(v)) for v in row):
            raise CheckFailed(f"{path.name}: non-finite value in {row}")


def check_oracle_csv(path: Path, n_taus: int) -> None:
    header = ("tau", "quantity", "analytic_slope", "oracle_slope", "rel_err")
    rows = _read_csv(path, header)
    if len(rows) != 5 * n_taus:
        raise CheckFailed(f"{path.name}: {len(rows)} rows, expected {5 * n_taus}")
    for row in rows:
        if not float(row[-1]) < 1e-3:
            raise CheckFailed(f"{path.name}: rel_err {row[-1]} >= 1e-3 in {row}")


def check_verify_bch(stdout: str) -> None:
    lines = stdout.strip().splitlines()
    if len(lines) != 6:
        raise CheckFailed(f"verify-bch printed {len(lines)} rows, expected 6")
    for line in lines:
        fields = [f.strip() for f in line.split(",")]
        if fields[1:] != [str(BCH_DEPTH), "ok"]:
            raise CheckFailed(f"verify-bch row not ok through {BCH_DEPTH}: {line!r}")


def expect_pass(stdout: str) -> None:
    if "PASS" not in stdout:
        raise CheckFailed(f"no PASS in {stdout.strip()!r}")


# ---------------------------------------------------------------------------
# workloads


def closed_form_grid(seed: int, work: Path) -> Workload:
    inp = closed_form_inputs(seed)
    grid: SweepGrid = inp["grid"]
    config = work / "sweep.cfg"
    config.write_text(grid.config_text())
    out1, out2 = work / "sweep_jobs1.csv", work / "sweep_jobs2.csv"

    def same_as_jobs1(_stdout):
        check_sweep_csv(out2, grid)
        if out1.read_bytes() != out2.read_bytes():
            raise CheckFailed("--jobs 2 output differs from --jobs 1")

    tau, gamma, theta, g = PROBE_POINT
    probe_grid = SweepGrid((tau,), (gamma,), (theta,), (g,))
    probe_out = work / "probe.csv"
    gamma_fig = repr(inp["figure_gamma"])
    fig1, fig2 = work / "figure1.csv", work / "figure2.csv"
    ops = [
        cli_op("sweep_jobs1", ["sweep", "--config", str(config), "--jobs", "1",
                               "--out", str(out1)], [out1],
               lambda _s: check_sweep_csv(out1, grid)),
        cli_op("sweep_jobs2", ["sweep", "--config", str(config), "--jobs", "2",
                               "--out", str(out2)], [out2], same_as_jobs1,
               traced=False),
        cli_op("uncertainty_check", ["uncertainty-check", *inp["uncertainty"]], [],
               expect_pass),
        cli_op("figure1", ["figure", "--id", "1", "--gamma", gamma_fig,
                           "--out", str(fig1)], [fig1],
               lambda _s: check_figure_csv(fig1)),
        cli_op("figure2", ["figure", "--id", "2", "--gamma", gamma_fig,
                           "--out", str(fig2)], [fig2],
               lambda _s: check_figure_csv(fig2)),
        cli_op("probe_sweep", ["sweep", "--tau", repr(tau), "--gamma", repr(gamma),
                               "--theta", repr(theta), "--g", repr(g),
                               "--out", str(probe_out)], [probe_out],
               lambda _s: check_sweep_csv(probe_out, probe_grid),
               known_failure=True),
    ]
    cells = FIGURE_TAU_POINTS * FIGURE_THETA_POINTS
    return Workload("closed_form_grid", ops, [
        Reported("sweep_rows_per_s", "rows/s", ("sweep_jobs1",), grid.rows),
        Reported("sweep_parallel_rows_per_s", "rows/s", ("sweep_jobs2",), grid.rows),
        Reported("uncertainty_points_per_s", "points/s", ("uncertainty_check",), 10 ** 4),
        Reported("figure_cells_per_s", "cells/s", ("figure1", "figure2"), 2 * cells),
    ])


def oracle_compare(seed: int, work: Path) -> Workload:
    ops = []
    for label, spec in oracle_inputs(seed).items():
        out = work / f"oracle_{label}.csv"
        argv = ["oracle-compare", "--gamma", repr(spec["gamma"]),
                "--theta", repr(spec["theta"]),
                "--tau", *(repr(t) for t in spec["tau"]), "--out", str(out)]
        ops.append(cli_op(f"oracle_{label}", argv, [out],
                          lambda _s, out=out: check_oracle_csv(out, ORACLE_TAUS)))
    return Workload("oracle_compare", ops, [
        Reported("oracle_compare_small_s", "s", ("oracle_small",)),
        Reported("oracle_compare_large_s", "s", ("oracle_large",)),
    ])


def exact_algebra(seed: int, work: Path) -> Workload:
    tau = exact_inputs(seed)["tau"]

    def ladder() -> Outcome:
        start = time.perf_counter()
        # looked up at call time so the traced pass sees the wrapped function
        worst = analytic.ladder_taylor_check(tau, BCH_DEPTH)
        seconds = time.perf_counter() - start
        if not worst <= 1e-12:
            return Outcome(False, seconds,
                           f"ladder_taylor_check({tau!r}, {BCH_DEPTH}) = {worst!r}")
        return Outcome(True, seconds)

    ops = [
        cli_op("verify_bch", ["verify-bch", "--max-order", str(BCH_DEPTH)], [],
               check_verify_bch),
        Op("ladder_taylor_check", ladder),
    ]
    return Workload("exact_algebra", ops, [
        Reported("verify_bch_s", "s", ("verify_bch",)),
        Reported("ladder_taylor_check_s", "s", ("ladder_taylor_check",)),
    ])


BUILDERS = {
    "closed_form_grid": closed_form_grid,
    "oracle_compare": oracle_compare,
    "exact_algebra": exact_algebra,
}
