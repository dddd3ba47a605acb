"""Command-line interface: verification suites, figure-data reproduction,
parameter sweeps, and oracle comparisons.

Every command hands its header and rows of raw values to one writer,
``_write_rows``, which alone owns the CSV format: a header row, then each float
in full-precision scientific notation (17 significant digits) and each string
as is.  A command returns exit code 0 only if every assertion it makes passed.
Figures are rendered elsewhere; this tool only produces their data surfaces.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import analytic, fock_oracle, physics_config
from .boson_algebra import verify_bch_collection
from .fock_oracle import ORACLE_QUANTITIES, FockSpace, OracleError
from .physics_config import CoherentAmplitude, ConfigError, PhysicalParams

SWEEP_COLUMNS = (
    "tau", "gamma", "theta", "g",
    "var_x_hat", "var_p_hat", "product", "gup_bound",
    "delta_x", "delta_p", "delta_product", "validity",
)

# Largest Fock dimension oracle-compare accepts, given or heuristic.  Its
# slopes need no dense matrix, but the heuristic dimension grows as gamma^2
# and the truncation audit doubles it, so the cap is what bounds one
# command's arrays and time for any --gamma or --dim.
_MAX_FOCK_DIM = 2048

FIGURE3_COLUMNS = (
    "tau", "var_x_deformed", "var_x_canonical", "var_p_deformed",
    "var_p_canonical", "product_deformed", "product_canonical",
)


def _open_csv(path: str):
    if path == "-":
        return sys.stdout, False
    try:
        return open(path, "w", newline=""), True
    except OSError as exc:
        raise SystemExit(f"error: cannot write {path!r}: {exc}")


def _write_rows(path: str, header, rows) -> None:
    """Write the header, then each row (a tuple of floats and strings) with
    one format for the whole table: %.16e for a float field, a string field
    as is, taken from the first row."""
    rows = iter(rows)
    first = next(rows, None)
    stream, owned = _open_csv(path)
    try:
        stream.write(",".join(header) + "\n")
        if first is not None:
            fmt = ",".join("%s" if isinstance(v, str) else "%.16e" for v in first) + "\n"
            stream.write(fmt % first)
            stream.writelines(map(fmt.__mod__, rows))
    finally:
        if owned:
            stream.close()


def _input_error(message) -> int:
    """Report bad user input as one line on stderr; exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


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


def _figure_surface(which: int, gamma: float, args) -> tuple[analytic.RegionScan, np.ndarray]:
    """Figure 1 or 2's scan and surface; ConfigError unless every cell is finite."""
    with np.errstate(all="ignore"):  # non-finite cells are reported below
        scan = analytic.squeezing_region_scan(
            gamma, (0.0, args.tau_max), (0.0, 2.0 * math.pi),
            (args.tau_points, args.theta_points))
    surface = scan.delta_x if which == 1 else scan.delta_p
    if gamma < 0.0 or not np.isfinite(surface).all():
        raise ConfigError(f"figure {which} needs gamma >= 0 and finite cells; got "
                          f"gamma={gamma:g}, --tau-max={args.tau_max:g}")
    return scan, surface


def _figure_with_suffix(path: str, gamma: float) -> str:
    p = Path(path)
    return str(p.with_name(f"{p.stem}_gamma{gamma:g}{p.suffix}"))


def cmd_figure(args) -> int:
    if args.id in (1, 2):
        explicit = args.gamma is not None
        gammas = [args.gamma] if explicit else [1.0, 10.0]
        try:  # every surface is checked before any file is written
            surfaces = [_figure_surface(args.id, gamma, args) for gamma in gammas]
        except ConfigError as exc:
            return _input_error(exc)
        for gamma, (scan, surface) in zip(gammas, surfaces):
            out = args.out if explicit else _figure_with_suffix(args.out, gamma)
            thetas = scan.theta.tolist()
            _write_rows(out, ("tau", "theta", "delta_scaled"), (
                (tau, theta, cell) for tau, cells in zip(scan.tau.tolist(), surface.tolist())
                for theta, cell in zip(thetas, cells)))
            print(f"figure {args.id} gamma={gamma:g}: wrote {out}; "
                  f"negative cells: {'yes' if (surface < 0.0).any() else 'no'}")
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
    try:
        grid = analytic.variance_grid(np.linspace(0.0, args.tau_max, args.tau_points),
                                      amp.gamma, amp.theta, g, params)
    except ConfigError as exc:
        return _input_error(exc)
    rows = [(tau, var_x, var_x0, var_p, var_p0, product, var_x0 * var_p0)
            for tau, var_x, var_p, product in zip(*(grid[name].tolist() for name in (
                "tau", "var_x_hat", "var_p_hat", "product")))]
    _write_rows(args.out, FIGURE3_COLUMNS, rows)
    print(f"figure 3 ({preset.name} preset, g={g:.6e}): wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# oracle-compare


def cmd_oracle_compare(args) -> int:
    if not all(map(math.isfinite, (*args.tau, args.tol))):
        return _input_error(f"--tau and --tol must be finite, got {args.tau} "
                            f"and {args.tol}")
    if args.g_step is not None and not 0.0 < args.g_step < math.inf:
        return _input_error(f"--g-step must be positive and finite, got {args.g_step}")
    try:
        amplitude = CoherentAmplitude(gamma=args.gamma, theta=args.theta)
    except ConfigError as exc:
        return _input_error(exc)
    dim = args.dim
    if dim is None:
        try:
            dim = fock_oracle.fock_dim_for(amplitude)
        except OverflowError:  # gamma^2 beyond the float range
            dim = math.inf
    if dim > _MAX_FOCK_DIM:
        return _input_error(f"Fock dimension {dim} is above {_MAX_FOCK_DIM} "
                            f"(the truncation audit doubles it)")
    try:
        space = FockSpace(dim)
    except ValueError as exc:
        return _input_error(f"--dim: {exc}")
    try:
        # non-finite values fail the unitarity gate, the audit or the slope check
        with np.errstate(all="ignore"):
            audit = fock_oracle.truncation_audit(space, amplitude, args.tau)
    except OracleError as exc:
        return _input_error(f"oracle: {exc}")
    if not audit.passed:
        print(f"truncation audit FAILED at dim={dim}: max relative deviation "
              f"{audit.max_rel_deviation:.3e} (vs dim={audit.dim_doubled}); "
              f"increase --dim", file=sys.stderr)
        return 2

    rows = []
    for i, tau in enumerate(args.tau):
        slopes_a = analytic.analytic_slopes(tau, amplitude)
        # a slope that is 0 comes out as rounding noise on both routes
        floor = 1e-12 * fock_oracle.slope_scale(tau, amplitude.gamma)
        for q in ORACLE_QUANTITIES:
            a, o = slopes_a[q], audit.slopes[q][i]
            rows.append((tau, q, a, o, abs(a - o) / max(abs(a), abs(o), floor)))
    _write_rows(args.out, ("tau", "quantity", "analytic_slope", "oracle_slope",
                           "rel_err"), rows)
    worst = np.max([row[-1] for row in rows])  # NaN propagates
    all_ok = worst < args.tol
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
    axes = np.meshgrid(taus, gammas, thetas, gs, indexing="ij")
    try:
        grid = analytic.variance_grid(*axes)
    except ConfigError as exc:
        return _input_error(exc)
    product = grid["product"]
    err = np.abs(product - grid["gup_bound"]) / np.maximum(1.0, np.abs(product))
    i = int(np.argmax(err))  # the first worst point in grid order
    worst = float(err.flat[i])
    worst_point = tuple(float(v.flat[i]) for v in axes)
    ok = worst <= args.tol
    print(f"uncertainty-check: {err.size} points, worst |product - bound| "
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


def _sweep_inputs(args) -> tuple[dict[str, list[float]], PhysicalParams | None, str]:
    """Axes, optional SI parameters and output path; ConfigError on bad input."""
    fields: dict[str, str] = {}
    if args.config is not None:
        try:
            fields = physics_config.parse_flat_document(
                Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
    known = set(_SWEEP_SCALAR_KEYS)
    for axis in _SWEEP_AXES:
        known.update({axis, f"{axis}_min", f"{axis}_max", f"{axis}_points"})
    unknown = sorted(set(fields) - known)
    if unknown:
        raise ConfigError(f"invalid config keys: {', '.join(unknown)}")

    # flags win over config values
    axes: dict[str, list[float]] = {}
    for axis in _SWEEP_AXES:
        override = getattr(args, axis)
        if override is not None:
            # argparse strips "--" out of "--tau=--" and hands over []
            axes[axis] = _parse_axis({axis: override or ""}, axis)
        else:
            parsed = _parse_axis(fields, axis)
            axes[axis] = parsed if parsed is not None else _SWEEP_DEFAULTS[axis]
        if not axes[axis]:
            raise ConfigError(f"empty {axis} axis")

    params = None
    si_keys = [k for k in ("hbar", "mass", "omega") if k in fields]
    if si_keys:
        if len(si_keys) != 3:
            raise ConfigError("SI restoration needs all of hbar, mass, omega")
        try:
            params = PhysicalParams(float(fields["mass"]), float(fields["omega"]),
                                    float(fields["hbar"]), 0.0)
        except ValueError as exc:  # ConfigError included
            raise ConfigError(f"SI parameters: {exc}")

    # jobs is accepted for compatibility and selects nothing
    if args.jobs is None and "jobs" in fields:
        try:
            int(fields["jobs"])
        except ValueError:
            raise ConfigError(f"jobs: not an integer: {fields['jobs']!r}")
    return axes, params, args.out if args.out is not None else fields.get("out", "-")


def cmd_sweep(args) -> int:
    try:
        axes, params, out = _sweep_inputs(args)
        grid = analytic.variance_grid(
            *np.meshgrid(*(axes[axis] for axis in _SWEEP_AXES), indexing="ij"),
            params=params)
    except ConfigError as exc:
        return _input_error(exc)
    secular = grid["secular"].ravel()
    validity = np.where(secular > analytic.SECULAR_REFUSE, "invalid",
                        np.where(secular > analytic.SECULAR_WARN, "warn", "ok"))
    _write_rows(out, SWEEP_COLUMNS, zip(
        *(grid[name].ravel().tolist() for name in SWEEP_COLUMNS[:-1]), validity.tolist()))
    if out != "-":
        print(f"sweep: wrote {validity.size} rows to {out}")
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
                       "vs truncated-Fock linear response")
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--tau", type=float, nargs="+", default=[0.5, 1.0, 2.0, 4.0])
    p.add_argument("--g-step", type=float, default=None,
                   help="accepted for compatibility (must be positive and "
                        "finite); has no effect: the slopes are exact at g = 0")
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
                   help="accepted for compatibility; has no effect (the grid "
                        "is evaluated in one vectorised pass)")
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
