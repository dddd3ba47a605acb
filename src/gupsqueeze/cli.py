"""Command-line interface: verification suites, figure-data reproduction,
parameter sweeps, and oracle comparisons.

This module parses the command line and runs the commands.  Each command
checks its input, computes through the library and hands its header and
columns to ``table.write_table``, which owns the CSV format, inside
``table.csv_sink``, which owns what a failed command leaves on disk.  A
command returns exit code 0 only if every assertion it makes passed.
Figures are rendered elsewhere; this tool only produces their data
surfaces.  ``main`` is the one error boundary: a command raises
``ConfigError`` on bad input and the oracle ``OracleError`` on a failed
gate, and ``main`` prints either as one ``error:`` line on stderr and
returns 2.  A closed stdout ends a command quietly with exit code 141.
``main`` builds its argument parser once per process and reuses it, so
every parser default is immutable.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import stat
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from . import analytic, fock_oracle, physics_config
from .boson_algebra import verify_bch_collection
from .fock_oracle import ORACLE_QUANTITIES, FockSpace, OracleError
from .physics_config import CoherentAmplitude, ConfigError, PhysicalParams
from .table import Labels, csv_sink, sink_target, write_table

SWEEP_COLUMNS = (
    "tau", "gamma", "theta", "g",
    "var_x_hat", "var_p_hat", "product", "gup_bound",
    "delta_x", "delta_p", "delta_product", "validity",
)

# Largest Fock dimension oracle-compare accepts, given or heuristic.  Its
# slopes need no dense matrix, but the heuristic dimension grows as gamma^2,
# and where fock_oracle.truncation_bound does not certify the truncation (a
# small --dim) the audit's second pass doubles it, so the cap is what bounds
# one command's arrays and time for any --gamma or --dim.
_MAX_FOCK_DIM = 2048

FIGURE3_COLUMNS = (
    "tau", "var_x_deformed", "var_x_canonical", "var_p_deformed",
    "var_p_canonical", "product_deformed", "product_canonical",
)


# Largest grid any command evaluates, in cells: the product of the figure,
# uncertainty-check or sweep axis lengths, or oracle-compare's taus times its
# quantities (one CSV row each), checked before anything is allocated.  On a
# dense grid (figure 3, or one long sweep axis) variance_grid peaks at about
# 430 bytes per cell (165 MiB at 4e5 cells, traced with tracemalloc), and an
# open grid over several axes at less, so 10^6 cells bounds one command near
# 0.5 GB of memory and a sweep's CSV near 0.3 GB, 100 times the benchmark's
# and default grids.
_MAX_GRID_CELLS = 10 ** 6


def _check_grid(*sizes: int) -> None:
    """ConfigError if the grid of these axis lengths is above _MAX_GRID_CELLS."""
    if math.prod(sizes) > _MAX_GRID_CELLS:
        raise ConfigError(f"grid of {' x '.join(map(str, sizes))} cells is above "
                          f"{_MAX_GRID_CELLS}")



# ---------------------------------------------------------------------------
# verify-bch


# Deepest chain verify-bch builds, checked before anything is built.  The
# chain's ints grow as 3^k, so its time grows as k^2; one body is kept at a
# time.  At 10^4 a fresh interpreter takes 0.39-0.61 s (median 0.41 s of 9;
# the chain itself about 0.2 s) and 29 MiB peak RSS, about what the import
# alone takes (2-core VM, Python 3.11).
_MAX_BCH_ORDER = 10_000


def cmd_verify_bch(args) -> int:
    if args.max_order > _MAX_BCH_ORDER:
        raise ConfigError(f"--max-order {args.max_order} is above {_MAX_BCH_ORDER}")
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


def _figure_surface(which: int, gamma: float, args) -> tuple[np.ndarray, ...]:
    """Figure 1 or 2's open (tau, theta) axes and the one surface it writes;
    ConfigError unless every cell is finite."""
    _check_grid(args.tau_points, args.theta_points)
    tau, theta = np.meshgrid(np.linspace(0.0, args.tau_max, args.tau_points),
                             np.linspace(0.0, 2.0 * math.pi, args.theta_points),
                             indexing="ij", sparse=True)
    delta = analytic.scaled_delta_x if which == 1 else analytic.scaled_delta_p
    surface = delta(tau, theta, gamma)
    if gamma < 0.0 or not np.isfinite(surface).all():
        raise ConfigError(f"figure {which} needs gamma >= 0 and finite cells; got "
                          f"gamma={gamma:g}, --tau-max={args.tau_max:g}")
    return tau, theta, surface


def cmd_figure(args) -> int:
    # each figure refuses the other's flag rather than ignore it
    if args.id == 3 and args.gamma is not None:
        raise ConfigError("figure 3 takes its amplitude from the preset; --gamma is "
                          "for figures 1 and 2")
    if args.id in (1, 2) and args.preset is not None:
        raise ConfigError(f"figure {args.id} takes no preset; --preset is for figure 3")
    if args.id in (1, 2):
        explicit = args.gamma is not None
        # without --gamma, --out is a stem that each gamma's file is named by:
        # "-" names no file, nor does a link or device that leads to stdout
        # (/dev/stdout), though a regular file stdout was redirected to does
        if not explicit and (args.out == "-" or (sink_target(args.out) == "-" and not
                                                 stat.S_ISREG(os.lstat(args.out).st_mode))):
            raise ConfigError(f"figure {args.id} without --gamma writes one file per "
                              f"default gamma; --out {args.out} needs --gamma")
        gammas = [args.gamma] if explicit else [1.0, 10.0]
        # all or nothing: surfaces are checked first, and no staged file is
        # renamed into place until every table is written
        surfaces = [_figure_surface(args.id, gamma, args) for gamma in gammas]
        path = Path(args.out)  # without --gamma, each stem ends in _gamma<gamma>
        outs = [args.out] if explicit else [
            str(path.with_name(f"{path.stem}_gamma{g:g}{path.suffix}")) for g in gammas]
        with contextlib.ExitStack() as stack:
            sinks = [stack.enter_context(csv_sink(out)) for out in outs]
            for (write, _), table in zip(sinks, surfaces):
                write_table(write, ("tau", "theta", "delta_scaled"), table)
        for gamma, (_, out), (*_, surface) in zip(gammas, sinks, surfaces):
            if out != "-":
                print(f"figure {args.id} gamma={gamma:g}: wrote {out}; "
                      f"negative cells: {'yes' if (surface < 0.0).any() else 'no'}")
        return 0

    # figure 3: electron preset temporal curves, SI units
    if args.preset is not None:
        try:
            preset = physics_config.preset_from_document(
                Path(args.preset).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, ConfigError) as exc:
            raise ConfigError(f"cannot load preset {args.preset!r}: {exc}")
    else:
        preset = physics_config.electron_preset()
    params, amp = preset.params, preset.amplitude
    g = params.g
    _, factors = physics_config.to_natural(params)
    var_x0 = factors.x_var / 2.0
    var_p0 = factors.p_var / 2.0
    _check_grid(args.tau_points)
    grid = analytic.variance_grid(np.linspace(0.0, args.tau_max, args.tau_points),
                                  amp.gamma, amp.theta, g, params)
    invalid = np.flatnonzero(analytic.validity_codes(grid["secular"]) == 2)
    if invalid.size:  # the sweep labels such rows invalid; a figure has no label
        i = invalid[0]
        raise ConfigError(f"figure 3 at tau={grid['tau'][i]:g}: secular scale "
                          f"{grid['secular'][i]:.3g} > {analytic.SECULAR_REFUSE:g}; the "
                          "first-order expansion has no validity here")
    with csv_sink(args.out) as (write, out):
        write_table(write, FIGURE3_COLUMNS, (
            grid["tau"], grid["var_x_hat"], var_x0, grid["var_p_hat"],
            var_p0, grid["product"], var_x0 * var_p0))
    if out != "-":
        print(f"figure 3 ({preset.name} preset, g={g:.6e}): wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# oracle-compare


def cmd_oracle_compare(args) -> int:
    _check_grid(len(args.tau), len(ORACLE_QUANTITIES))
    if not all(map(math.isfinite, (*args.tau, args.tol))):
        raise ConfigError(f"--tau and --tol must be finite, got {args.tau} "
                          f"and {args.tol}")
    if args.tol <= 0.0:  # no slope error can fall below it
        raise ConfigError(f"--tol must be > 0, got {args.tol:g}")
    amplitude = CoherentAmplitude(gamma=args.gamma, theta=args.theta)
    dim = args.dim
    if dim is None:
        try:
            dim = fock_oracle.fock_dim_for(amplitude)
        except OverflowError:  # gamma^2 beyond the float range
            dim = math.inf
    if dim > _MAX_FOCK_DIM:
        raise ConfigError(f"Fock dimension {dim} is above {_MAX_FOCK_DIM}, the "
                          f"largest oracle-compare takes")
    if dim < 2:
        raise ConfigError(f"--dim: Fock dimension must be >= 2, got {dim}")
    audit = fock_oracle.truncation_audit(FockSpace(dim), amplitude, args.tau)
    if not audit.passed:
        raise OracleError(f"truncation audit FAILED at dim={dim}: max relative "
                          f"deviation {audit.max_rel_deviation:.3e} (vs "
                          f"dim={audit.dim_doubled}); increase --dim")

    # an open (tau, quantity) grid: one row per pair, tau first
    taus = np.asarray(args.tau)[:, None]
    analytic_slope = np.array([[slopes[q] for q in ORACLE_QUANTITIES] for slopes in
                               (analytic.analytic_slopes(t, amplitude) for t in args.tau)])
    oracle_slope = np.stack([audit.slopes[q] for q in ORACLE_QUANTITIES], axis=1)
    # a slope that is 0 comes out as rounding noise on both routes
    floor = 1e-12 * fock_oracle.slope_scale(taus, amplitude.gamma)
    rel_err = np.abs(analytic_slope - oracle_slope) / np.maximum(
        np.maximum(np.abs(analytic_slope), np.abs(oracle_slope)), floor)
    with csv_sink(args.out) as (write, out):
        write_table(write, ("tau", "quantity", "analytic_slope", "oracle_slope", "rel_err"),
                    (taus, Labels(ORACLE_QUANTITIES, np.arange(len(ORACLE_QUANTITIES))),
                     analytic_slope, oracle_slope, rel_err))
    worst = np.max(rel_err)  # NaN propagates
    all_ok = worst < args.tol
    print(f"oracle-compare: worst relative slope error {worst:.3e} "
          f"({'PASS' if all_ok else 'FAIL'} at {args.tol:g})",
          file=sys.stderr if out == "-" else sys.stdout)  # stdout holds the table alone
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# uncertainty-check


def cmd_uncertainty_check(args) -> int:
    _check_grid(args.tau_points, args.gamma_points, args.theta_points, args.g_points)
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ConfigError(f"--tol must be finite and > 0, got {args.tol}")
    if args.g_min <= 0.0:  # linear grid admits the undeformed point g = 0
        gs = np.linspace(args.g_min, args.g_max, args.g_points)
    elif args.g_max > 0.0:
        gs = np.logspace(math.log10(args.g_min), math.log10(args.g_max),
                         args.g_points)
    else:
        raise ConfigError(f"--g-max must be > 0 on the log grid that --g-min > 0 "
                          f"selects, got {args.g_max:g}")
    taus = np.linspace(0.0, args.tau_max, args.tau_points)
    gammas = np.linspace(0.0, args.gamma_max, args.gamma_points)
    thetas = np.linspace(0.0, 2.0 * math.pi, args.theta_points, endpoint=False)
    grid = analytic.variance_grid(
        *np.meshgrid(taus, gammas, thetas, gs, indexing="ij", sparse=True))
    product = grid["product"]
    err = np.abs(product - grid["gup_bound"]) / np.maximum(1.0, np.abs(product))
    i = int(np.argmax(err))  # the first worst point in grid order
    worst = float(err.flat[i])
    worst_point = tuple(float(grid[axis].flat[i]) for axis in _SWEEP_AXES)
    ok = worst <= args.tol
    print(f"uncertainty-check: {err.size} points, worst |product - bound| "
          f"= {worst:.3e} at {worst_point} ({'PASS' if ok else 'FAIL'} at {args.tol:g})")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# sweep


_SWEEP_AXES = ("tau", "gamma", "theta", "g")
_SWEEP_SCALAR_KEYS = ("out", "hbar", "mass", "omega")


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
        _check_grid(n)
        return list(np.linspace(lo, hi, n))
    return None


def _sweep_inputs(args) -> tuple[dict[str, Sequence[float]], PhysicalParams | None, str]:
    """Axes, optional SI parameters and output path; ConfigError on bad input."""
    fields: dict[str, str] = {}
    if args.config is not None:
        try:
            fields = physics_config.parse_flat_document(
                Path(args.config).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}")
    known = set(_SWEEP_SCALAR_KEYS)
    for axis in _SWEEP_AXES:
        known.update({axis, f"{axis}_min", f"{axis}_max", f"{axis}_points"})
    unknown = sorted(set(fields) - known)
    if unknown:
        raise ConfigError(f"invalid config keys: {', '.join(unknown)}")

    # flags win over config values
    axes: dict[str, Sequence[float]] = {}
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
    _check_grid(*(len(axes[axis]) for axis in _SWEEP_AXES))

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
    return axes, params, args.out if args.out is not None else fields.get("out", "-")


def cmd_sweep(args) -> int:
    axes, params, out = _sweep_inputs(args)
    grid = analytic.variance_grid(
        *np.meshgrid(*(axes[axis] for axis in _SWEEP_AXES), indexing="ij", sparse=True),
        params=params)
    validity = Labels(analytic.VALIDITY_LABELS, analytic.validity_codes(grid["secular"]))
    with csv_sink(out) as (write, out):
        write_table(write, SWEEP_COLUMNS, [*(grid[name] for name in SWEEP_COLUMNS[:-1]),
                                           validity])
    if out != "-":
        print(f"sweep: wrote {grid['secular'].size} rows to {out}")
    return 0


_SWEEP_DEFAULTS = {
    "tau": tuple(np.linspace(0.0, 4.0 * math.pi, 200)),
    "gamma": (1.0,),
    "theta": (0.0,),
    "g": (1e-6,),
}


# ---------------------------------------------------------------------------
# preset


def cmd_preset(args) -> int:
    preset = physics_config.electron_preset(omega_reading=args.omega_reading)
    with csv_sink(args.out) as (write, out):
        write(physics_config.preset_to_document(preset).encode())
    if out != "-":
        print(f"preset: wrote {out}")
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
                   help=f"verify through this nesting depth (1 to {_MAX_BCH_ORDER})")
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
    p.add_argument("--tau", type=float, nargs="+", default=(0.5, 1.0, 2.0, 4.0))
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
                   help="has no effect (the grid is evaluated in one "
                        "vectorised pass); accepted only because the "
                        "benchmark's sweeps pass --jobs 1 and --jobs 2")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("preset", help="print or write the electron preset "
                       "as a flat key = value document")
    p.add_argument("--omega-reading", choices=("angular", "cyclic"),
                   default="angular")
    p.add_argument("--out", default="-",
                   help="file to write the document to (default: - for stdout)")
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


# Exit code when the reader of stdout goes away: a process killed by SIGPIPE
# reads as this in a shell.
_EXIT_CLOSED_PIPE = 128 + 13


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses: built on the first call, then reused.  argparse
    hands the same default objects to every parse, so each is immutable."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; the only code that prints ``error:`` or returns 2.
    A closed stdout ends the command quietly with _EXIT_CLOSED_PIPE."""
    args = _parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # every non-finite value fails a check
            code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # stdout's reader left: every file a command writes turns its OSError
        # into ConfigError.  What is still buffered goes to /dev/null, so the
        # flush at exit is quiet.
        with contextlib.suppress(AttributeError, OSError, ValueError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            finally:
                os.close(devnull)
        return _EXIT_CLOSED_PIPE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OracleError as exc:
        print(f"error: oracle: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
