"""Command-line interface: verification suites, figure-data reproduction,
parameter sweeps, and oracle comparisons.

Every command writes CSV with a header row and full-precision scientific
notation (17 significant digits), and returns exit code 0 only if every
assertion it makes passed.  Figures are rendered elsewhere; this tool only
produces their data surfaces.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import analytic, fock_oracle, physics_config
from .boson_algebra import verify_bch_collection
from .fock_oracle import ORACLE_QUANTITIES, FockSpace
from .physics_config import CoherentAmplitude, ConfigError, PhysicalParams

JOBS_ENV_VAR = "GUPSQUEEZE_JOBS"

SWEEP_COLUMNS = (
    "tau", "gamma", "theta", "g",
    "var_x_hat", "var_p_hat", "product", "gup_bound",
    "delta_x", "delta_p", "delta_product", "validity",
)

FIGURE3_COLUMNS = (
    "tau", "var_x_deformed", "var_x_canonical", "var_p_deformed",
    "var_p_canonical", "product_deformed", "product_canonical",
)


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _open_csv(path: str):
    if path == "-":
        return sys.stdout, False
    try:
        return open(path, "w", newline=""), True
    except OSError as exc:
        raise SystemExit(f"error: cannot write {path!r}: {exc}")


def _write_rows(path: str, header, rows) -> None:
    stream, owned = _open_csv(path)
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if owned:
            stream.close()


def _input_error(message) -> int:
    """Report bad user input as one line on stderr; exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _default_jobs() -> int:
    env = os.environ.get(JOBS_ENV_VAR)
    if env is None:
        return 1
    try:
        jobs = int(env)
    except ValueError:
        raise SystemExit(f"error: {JOBS_ENV_VAR}={env!r} is not an integer")
    return max(jobs, 1)


# ---------------------------------------------------------------------------
# verify-bch


def cmd_verify_bch(args) -> int:
    report = verify_bch_collection(args.max_order)
    for row in report.rows:
        status = "ok" if row.passed else f"mismatch_at_order_{row.first_mismatch}"
        print(f"{row.label}, {row.verified_through}, {status}")
    if not report.all_passed:
        bad = [r.label for r in report.rows if not r.passed]
        print(f"FAILED: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# figure


def _figure_surface(which: int, gamma: float, args, out_path: str) -> bool:
    tau = np.linspace(0.0, args.tau_max, args.tau_points)
    theta = np.linspace(0.0, 2.0 * math.pi, args.theta_points)
    tt, hh = np.meshgrid(tau, theta, indexing="ij")
    fn = analytic.scaled_delta_x if which == 1 else analytic.scaled_delta_p
    surface = fn(tt, hh, gamma)
    rows = []
    for i in range(args.tau_points):
        for j in range(args.theta_points):
            rows.append((_fmt(tau[i]), _fmt(theta[j]), _fmt(surface[i, j])))
    _write_rows(out_path, ("tau", "theta", "delta_scaled"), rows)
    return bool((surface < 0.0).any())


def _figure_with_suffix(path: str, gamma: float) -> str:
    p = Path(path)
    return str(p.with_name(f"{p.stem}_gamma{gamma:g}{p.suffix}"))


def cmd_figure(args) -> int:
    if args.id in (1, 2):
        gammas = [args.gamma] if args.gamma is not None else [1.0, 10.0]
        explicit = args.gamma is not None
        for gamma in gammas:
            out = args.out if explicit else _figure_with_suffix(args.out, gamma)
            has_negative = _figure_surface(args.id, gamma, args, out)
            print(f"figure {args.id} gamma={gamma:g}: wrote {out}; "
                  f"negative cells: {'yes' if has_negative else 'no'}")
        return 0

    # figure 3: electron preset temporal curves, SI units
    if args.preset is not None:
        try:
            preset = physics_config.preset_from_document(
                Path(args.preset).read_text())
        except (OSError, ConfigError) as exc:
            raise SystemExit(f"error: cannot load preset {args.preset!r}: {exc}")
    else:
        preset = physics_config.electron_preset()
    params, amp = preset.params, preset.amplitude
    g = params.g
    _, factors = physics_config.to_natural(params)
    var_x0 = factors.x_var / 2.0
    var_p0 = factors.p_var / 2.0
    rows = []
    for tau in np.linspace(0.0, args.tau_max, args.tau_points):
        var_x, var_p = analytic.deformed_variances(
            float(tau), g, amp, params=params, strict=False)
        product, _ = analytic.uncertainty_product(
            float(tau), g, amp, params=params, strict=False)
        rows.append(tuple(_fmt(v) for v in (
            tau, var_x, var_x0, var_p, var_p0, product, var_x0 * var_p0)))
    _write_rows(args.out, FIGURE3_COLUMNS, rows)
    print(f"figure 3 ({preset.name} preset, g={g:.6e}): wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# oracle-compare


def cmd_oracle_compare(args) -> int:
    amplitude = CoherentAmplitude(gamma=args.gamma, theta=args.theta)
    dim = args.dim if args.dim is not None else fock_oracle.fock_dim_for(amplitude)
    try:
        space = FockSpace(dim)
    except ValueError as exc:
        return _input_error(f"--dim: {exc}")
    audit = fock_oracle.truncation_audit(
        space, amplitude, g=args.g_step, tau_max=max(args.tau))
    if not audit.passed:
        print(f"truncation audit FAILED at dim={dim}: max relative deviation "
              f"{audit.max_rel_deviation:.3e} (vs dim={audit.dim_doubled}); "
              f"increase --dim", file=sys.stderr)
        return 2

    rows = []
    all_ok = True
    worst = 0.0
    for tau in args.tau:
        slopes_a = analytic.analytic_slopes(tau, amplitude)
        try:
            slopes_o = fock_oracle.oracle_slopes(
                tau, amplitude, space, g_step=args.g_step)
        except ValueError as exc:
            return _input_error(f"--g-step: {exc}")
        for q in ORACLE_QUANTITIES:
            est = slopes_o[q]
            if not est.converged:
                print(f"non-convergent finite difference for {q} at tau={tau}",
                      file=sys.stderr)
                all_ok = False
            rel = abs(slopes_a[q] - est.slope) / max(
                abs(slopes_a[q]), abs(est.slope), 1e-300)
            worst = max(worst, rel)
            all_ok = all_ok and rel < args.tol
            rows.append((_fmt(tau), q, _fmt(slopes_a[q]), _fmt(est.slope), _fmt(rel)))
    _write_rows(args.out, ("tau", "quantity", "analytic_slope", "oracle_slope",
                           "rel_err"), rows)
    print(f"oracle-compare: worst relative slope error {worst:.3e} "
          f"({'PASS' if all_ok else 'FAIL'} at {args.tol:g})")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# uncertainty-check


def cmd_uncertainty_check(args) -> int:
    taus = np.linspace(0.0, args.tau_max, args.tau_points)
    gammas = np.linspace(0.0, args.gamma_max, args.gamma_points)
    thetas = np.linspace(0.0, 2.0 * math.pi, args.theta_points, endpoint=False)
    if args.g_min <= 0.0:  # linear grid admits the undeformed point g = 0
        gs = np.linspace(args.g_min, args.g_max, args.g_points)
    else:
        gs = np.logspace(math.log10(args.g_min), math.log10(args.g_max),
                         args.g_points)
    worst = 0.0
    worst_point = None
    for tau in taus:
        for gamma in gammas:
            for theta in thetas:
                amp = CoherentAmplitude(gamma=float(gamma), theta=float(theta))
                for g in gs:
                    product, bound = analytic.uncertainty_product(
                        float(tau), float(g), amp, strict=False)
                    err = abs(product - bound) / max(1.0, abs(product))
                    if err > worst or worst_point is None:
                        worst = err
                        worst_point = (float(tau), float(gamma), float(theta), float(g))
    n_points = len(taus) * len(gammas) * len(thetas) * len(gs)
    ok = worst <= args.tol
    print(f"uncertainty-check: {n_points} points, worst |product - bound| "
          f"= {worst:.3e} at {worst_point} ({'PASS' if ok else 'FAIL'} at {args.tol:g})")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# sweep


_SWEEP_AXES = ("tau", "gamma", "theta", "g")
_SWEEP_SCALAR_KEYS = ("out", "jobs", "hbar", "mass", "omega")


def _parse_axis(fields: dict[str, str], axis: str) -> list[float] | None:
    """An axis is either an explicit comma list or a min/max/points triple."""
    have_list = axis in fields
    triple = [f"{axis}_min" in fields, f"{axis}_max" in fields,
              f"{axis}_points" in fields]
    if have_list and any(triple):
        raise ConfigError(f"{axis}: give either a list or min/max/points, not both")
    if have_list:
        try:
            return [float(v) for v in fields[axis].split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"{axis}: non-numeric value in {fields[axis]!r}")
    if any(triple):
        if not all(triple):
            raise ConfigError(
                f"{axis}: need all of {axis}_min, {axis}_max, {axis}_points")
        try:
            lo = float(fields[f"{axis}_min"])
            hi = float(fields[f"{axis}_max"])
            n = int(fields[f"{axis}_points"])
        except ValueError as exc:
            raise ConfigError(f"{axis}: {exc}")
        if n < 2:
            raise ConfigError(f"{axis}_points must be >= 2, got {n}")
        return list(np.linspace(lo, hi, n))
    return None


def _sweep_cell(cell) -> tuple:
    tau, gamma, theta, g, params_fields = cell
    params = PhysicalParams(*params_fields) if params_fields is not None else None
    record = analytic.variance_record(
        tau, g, CoherentAmplitude(gamma=gamma, theta=theta),
        params=params, strict=False)
    if record.secular > analytic.SECULAR_REFUSE:
        validity = "invalid"
    elif record.secular > analytic.SECULAR_WARN:
        validity = "warn"
    else:
        validity = "ok"
    return (record.tau, record.gamma, record.theta, record.g,
            record.var_x_hat, record.var_p_hat, record.product,
            record.gup_bound, record.delta_x, record.delta_p,
            record.delta_product, validity)


def cmd_sweep(args) -> int:
    fields: dict[str, str] = {}
    if args.config is not None:
        try:
            fields = physics_config.parse_flat_document(
                Path(args.config).read_text())
        except OSError as exc:
            raise SystemExit(f"error: cannot read config: {exc}")
    known = set(_SWEEP_SCALAR_KEYS)
    for axis in _SWEEP_AXES:
        known.update({axis, f"{axis}_min", f"{axis}_max", f"{axis}_points"})
    unknown = sorted(set(fields) - known)
    if unknown:
        raise SystemExit(f"error: invalid config keys: {', '.join(unknown)}")

    # flags win over config values
    axes: dict[str, list[float]] = {}
    for axis in _SWEEP_AXES:
        override = getattr(args, axis)
        if override is not None:
            try:
                axes[axis] = _parse_axis({axis: override}, axis)
            except ConfigError as exc:
                return _input_error(exc)
        else:
            try:
                parsed = _parse_axis(fields, axis)
            except ConfigError as exc:
                raise SystemExit(f"error: {exc}")
            axes[axis] = parsed if parsed is not None else _SWEEP_DEFAULTS[axis]
        if not axes[axis]:
            raise SystemExit(f"error: empty {axis} axis")

    params_fields = None
    si_keys = [k for k in ("hbar", "mass", "omega") if k in fields]
    if si_keys:
        if len(si_keys) != 3:
            raise SystemExit("error: SI restoration needs all of hbar, mass, omega")
        try:
            params_fields = (float(fields["mass"]), float(fields["omega"]),
                             float(fields["hbar"]), 0.0)
        except ValueError as exc:
            raise SystemExit(f"error: non-numeric SI parameter: {exc}")

    out = args.out if args.out is not None else fields.get("out", "-")
    if args.jobs is not None:
        jobs = args.jobs
    elif "jobs" in fields:
        try:
            jobs = int(fields["jobs"])
        except ValueError:
            return _input_error(f"jobs: not an integer: {fields['jobs']!r}")
    else:
        jobs = _default_jobs()
    jobs = max(jobs, 1)

    cells = [
        (tau, gamma, theta, g, params_fields)
        for tau in axes["tau"]
        for gamma in axes["gamma"]
        for theta in axes["theta"]
        for g in axes["g"]
    ]
    if jobs == 1:
        results = map(_sweep_cell, cells)
    else:
        executor = ProcessPoolExecutor(max_workers=jobs)
        chunk = max(1, len(cells) // (8 * jobs))
        results = executor.map(_sweep_cell, cells, chunksize=chunk)

    rows = [tuple(_fmt(v) for v in rec[:-1]) + (rec[-1],) for rec in results]
    if jobs > 1:
        executor.shutdown()
    _write_rows(out, SWEEP_COLUMNS, rows)
    if out != "-":
        print(f"sweep: wrote {len(rows)} rows to {out} (jobs={jobs})")
    return 0


_SWEEP_DEFAULTS = {
    "tau": list(np.linspace(0.0, 4.0 * math.pi, 200)),
    "gamma": [1.0],
    "theta": [0.0],
    "g": [1e-6],
}


# ---------------------------------------------------------------------------
# preset


def cmd_preset(args) -> int:
    preset = physics_config.electron_preset(omega_reading=args.omega_reading)
    doc = physics_config.preset_to_document(preset)
    if args.out is None or args.out == "-":
        sys.stdout.write(doc)
    else:
        try:
            Path(args.out).write_text(doc)
        except OSError as exc:
            raise SystemExit(f"error: cannot write {args.out!r}: {exc}")
        print(f"preset: wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gupsqueeze",
        description="Deformed-oscillator squeezing toolkit: exact operator "
                    "algebra verification, closed-form sweeps, and "
                    "truncated-Fock oracle comparisons.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-bch", help="verify the nested-commutator "
                       "coefficient series against their closed forms")
    p.add_argument("--max-order", type=_positive_int, required=True,
                   help="verify through this nesting depth (>= 1)")
    p.set_defaults(func=cmd_verify_bch)

    p = sub.add_parser("figure", help="write a figure's data surface as CSV")
    p.add_argument("--id", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--gamma", type=float, default=None,
                   help="coherent amplitude for figures 1/2 "
                        "(default: both 1 and 10, suffixed files)")
    p.add_argument("--tau-max", type=float, default=4.0 * math.pi)
    p.add_argument("--tau-points", type=_grid_size, default=200)
    p.add_argument("--theta-points", type=_grid_size, default=100)
    p.add_argument("--preset", default=None,
                   help="preset document for figure 3 (default: electron)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("oracle-compare", help="analytic first-order slopes "
                       "vs truncated-Fock central differences")
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--tau", type=float, nargs="+", default=[0.5, 1.0, 2.0, 4.0])
    p.add_argument("--g-step", type=float, default=fock_oracle.DEFAULT_G_STEP,
                   help="central-difference step in g")
    p.add_argument("--dim", type=int, default=None,
                   help="Fock dimension (default: heuristic)")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("uncertainty-check", help="assert product == deformed "
                       "bound across a parameter grid")
    p.add_argument("--tau-max", type=float, default=12.0)
    p.add_argument("--tau-points", type=_grid_size, default=10)
    p.add_argument("--gamma-max", type=float, default=2.0)
    p.add_argument("--gamma-points", type=_grid_size, default=10)
    p.add_argument("--theta-points", type=_grid_size, default=10)
    p.add_argument("--g-min", type=float, default=1e-8)
    p.add_argument("--g-max", type=float, default=1e-2)
    p.add_argument("--g-points", type=_grid_size, default=10)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_uncertainty_check)

    p = sub.add_parser("sweep", help="evaluate variance records over a "
                       "(tau, gamma, theta, g) product grid")
    p.add_argument("--config", default=None, help="flat key = value file")
    for axis in _SWEEP_AXES:
        p.add_argument(f"--{axis}", default=None,
                       help=f"comma list overriding the config {axis} axis")
    p.add_argument("--jobs", type=int, default=None,
                   help=f"parallel workers (default: ${JOBS_ENV_VAR} or 1)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("preset", help="print or write the electron preset "
                       "as a flat key = value document")
    p.add_argument("--name", choices=("electron",), default="electron")
    p.add_argument("--omega-reading", choices=("angular", "cyclic"),
                   default="angular")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_preset)
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _grid_size(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"grid resolution must be >= 2, got {value}")
    return value


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
