"""Command-line interface: verification suites, figure-data reproduction,
parameter sweeps, and oracle comparisons.

Every command hands its header and columns to one writer, ``_write_table``,
which alone owns the CSV format: a header row, then each float in
full-precision scientific notation and each string as is.  A float field's
bytes equal CPython's ``'%.16e' % x`` exactly.  The writer renders them in
row blocks of ``_BLOCK_ROWS`` with an exact numpy kernel (``_e16_fields``);
non-finite values, magnitudes outside [1e-280, 1e280), power-of-ten
neighbours whose decimal exponent log10 misses, values within 1e-6 of a
decimal rounding tie, and blocks of fewer than ``_KERNEL_MIN_VALUES`` floats
go through ``'%.16e' %`` one by one.  Columns need only broadcast to one
shape, so a command hands over its grid open: a float column broadcast over
the grid is rendered once per stored value, and its rows are gathered block
by block.  A command returns exit code 0 only if every assertion it makes
passed.  Figures are rendered elsewhere; this tool only produces their data
surfaces.  ``main`` is the one error boundary: a command raises
``ConfigError`` on bad input and the oracle ``OracleError`` on a failed
gate, and ``main`` prints either as one ``error:`` line on stderr and
returns 2.  A closed stdout ends a command quietly with exit code 141.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
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


# Largest grid any command evaluates, in cells: the product of the figure,
# uncertainty-check or sweep axis lengths, checked before anything is
# allocated.  On a dense grid (figure 3, or one long sweep axis)
# variance_grid peaks at about 430 bytes per cell (165 MiB at 4e5 cells,
# traced with tracemalloc), and an open grid over several axes at less, so
# 10^6 cells bounds one command near 0.5 GB of memory and a sweep's CSV near
# 0.3 GB, 100 times the benchmark's and default grids.
_MAX_GRID_CELLS = 10 ** 6


def _check_grid(*sizes: int) -> None:
    """ConfigError if the grid of these axis lengths is above _MAX_GRID_CELLS."""
    if math.prod(sizes) > _MAX_GRID_CELLS:
        raise ConfigError(f"grid of {' x '.join(map(str, sizes))} cells is above "
                          f"{_MAX_GRID_CELLS}")


# ---------------------------------------------------------------------------
# the CSV writer

# Rows rendered per block: large enough that numpy's per-call cost is spread
# thin, small enough that the block matrix stays well under a megabyte.
_BLOCK_ROWS = 2048

# A rendered float field: 7 little-endian uint32 words, NUL where a byte is
# absent.  Word 0 holds sign, leading digit and ".", words 1-4 the 16
# fraction digits, words 5-6 "e", the exponent sign and 2 or 3 digits.
_E16_WORDS = 7
# Below this many values per call, formatting them one by one is faster than
# the kernel's fixed cost of about 70 numpy calls (crossover near 90 values).
_KERNEL_MIN_VALUES = 96
_POW10_MIN = -270  # 10**k for k = 16 - E, E the decimal exponent in range
_POW10_MAX = 300
_EXP_OFFSET = 300


def _pack(*chars) -> np.ndarray:
    """uint32 words holding up to four byte columns, first in the lowest byte;
    stored as "<u4" they lie in memory in that order."""
    word = np.zeros(np.broadcast(*chars).shape, np.uint32)
    for shift, column in zip((0, 8, 16, 24), chars):
        word |= np.asarray(column, np.uint32) << shift
    return word


def _split(a):
    """Veltkamp split: a = hi + lo exactly, each half with 26 bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _e16_tables():
    """Double-double 10**k, each half correctly rounded from the exact
    rational num/den by int true division, and the digit tables."""
    pow_hi, pow_lo = [], []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        pow_hi.append(num / den)
        p, q = pow_hi[-1].as_integer_ratio()
        pow_lo.append((num * q - p * den) / (den * q))
    pow_hi, pow_lo = np.array(pow_hi), np.array(pow_lo)
    n = np.arange(10000, dtype=np.uint32)
    quad = _pack(48 + n // 1000, 48 + n // 100 % 10, 48 + n // 10 % 10, 48 + n % 10)
    # index 10 * negative + leading digit
    s = np.arange(20)
    head = _pack(np.where(s >= 10, ord("-"), 0), 48 + s % 10, ord("."))
    # index exponent + _EXP_OFFSET; a 2-digit exponent leaves word 6 NUL
    e = np.arange(-_EXP_OFFSET, _EXP_OFFSET)
    m = np.abs(e)
    wide = m >= 100
    tail = np.stack([
        _pack(ord("e"), np.where(e < 0, ord("-"), ord("+")),
              np.where(wide, 48 + m // 100, 48 + m // 10 % 10),
              np.where(wide, 48 + m // 10 % 10, 48 + m % 10)),
        _pack(np.where(wide, 48 + m % 10, 0))], axis=1)
    return (pow_hi, pow_lo, *_split(pow_hi)), quad, head, tail


def _digits(a, a_hi, a_lo, e):
    """floor(a * 10**(16 - e)) as int64 and its fractional part, from an
    exact two-product against the double-double power (error ~1e-31 relative)."""
    (pow_hi, pow_lo, split_hi, split_lo), *_ = _e16_tables()
    k = 16 - e - _POW10_MIN
    b_hi, b_lo = split_hi[k], split_lo[k]
    p = a * pow_hi[k]
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    whole = np.floor(p)
    rest = (p - whole) + (err + a * pow_lo[k])
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _e16_one_by_one(x) -> np.ndarray:
    """'%.16e' % v through CPython for each value of x, as _e16_fields lays
    it out: one NUL-padded row per value."""
    return np.array([b"%.16e" % v for v in x.tolist()], dtype=f"S{4 * _E16_WORDS}"
                    ).view(np.uint8).reshape(len(x), 4 * _E16_WORDS)


def _e16_fields(x) -> np.ndarray:
    """The bytes of '%.16e' % v for each float64 v in x, one NUL-padded row
    of 4 * _E16_WORDS bytes per value."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size < _KERNEL_MIN_VALUES:
        return _e16_one_by_one(x)
    _, quad, head, tail = _e16_tables()
    a = np.abs(x)
    # in this range every product and split below stays normal and finite
    vector = (a >= 1e-280) & (a < 1e280)
    a = np.where(vector, a, 1.0)
    a_hi, a_lo = _split(a)
    e = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _digits(a, a_hi, a_lo, e)
    # a d of 16 or 18 digits (log10 missed by one next to a power of ten), a
    # true tie (it rounds half-even) and anything the product's error could
    # carry across one half go one by one, like zero and the out-of-range
    vector &= (d >= 10 ** 16) & (d < 10 ** 17) & (np.abs(frac - 0.5) > 1e-6)
    d += frac > 0.5
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    d[~vector] = 0  # zeros render as 0.0000000000000000e+00; the rest below
    e[~vector] = 0
    lead, rest = np.divmod(d, 10 ** 16)
    upper, lower = np.divmod(rest, 10 ** 8)
    fields = np.empty((x.size, _E16_WORDS), "<u4")
    fields[:, 0] = head[lead + 10 * np.signbit(x)]
    fields[:, 1:3] = quad[np.stack(np.divmod(upper, 10 ** 4), axis=1)]
    fields[:, 3:5] = quad[np.stack(np.divmod(lower, 10 ** 4), axis=1)]
    fields[:, 5:] = tail[e + _EXP_OFFSET]
    out = fields.view(np.uint8)
    slow = ~vector & (x != 0.0)
    out[slow] = _e16_one_by_one(x[slow])
    return out


def _text_fields(strings) -> np.ndarray:
    """Each string's UTF-8 bytes as one NUL-padded row; each distinct string
    is encoded once."""
    distinct, index = np.unique(strings, return_inverse=True)
    encoded = np.array([text.encode() for text in distinct.tolist()])
    return encoded.view(np.uint8).reshape(len(distinct), -1)[index]


@contextlib.contextmanager
def _csv_sink(path: str):
    """A function that writes bytes to path, or to stdout for "-".  A path
    that cannot be opened or written, a FIFO whose reader left included, is
    a ConfigError."""
    if path == "-":
        yield lambda data: sys.stdout.write(data.decode())
        return
    try:
        with open(path, "wb") as stream:
            yield stream.write
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}")


def _stored(column: np.ndarray) -> np.ndarray:
    """The values a column holds: each axis it is broadcast along (stride 0)
    cut to length 1."""
    return column[tuple(slice(None) if step else slice(0, 1)
                        for step in column.strides)]


def _write_table(path: str, header, columns) -> None:
    """Write the header, then one row per cell of the shape the columns
    broadcast to, in C order.  Each column is a float array (written as
    '%.16e') or a sequence of str (written as is); a float column that
    stores fewer values than there are rows is rendered once per value."""
    columns = [np.asarray(col) for col in columns]
    shape = np.broadcast_shapes(*(col.shape for col in columns))
    rows = math.prod(shape)
    # each column as its rows in C order, or as its stored values rendered
    # and broadcast to the table's shape
    parts = []
    for col in columns:
        col = np.broadcast_to(col, shape)
        stored = _stored(col)
        if col.dtype.kind == "f" and stored.size < rows:
            fields = _e16_fields(stored).reshape(*stored.shape, -1)
            parts.append(("rendered", np.broadcast_to(fields, (*shape, fields.shape[-1]))))
        else:
            parts.append(("float" if col.dtype.kind == "f" else "text", col.reshape(-1)))
    open_grid = any(kind == "rendered" for kind, _ in parts)
    with _csv_sink(path) as write:
        write((",".join(header) + "\n").encode())
        for start in range(0, rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, rows)
            at = np.unravel_index(np.arange(start, stop), shape) if open_grid else None
            # one kernel call renders every float column not rendered above
            floats = [data[start:stop] for kind, data in parts if kind == "float"]
            dense = iter(_e16_fields(np.stack(floats, axis=1)).reshape(
                stop - start, len(floats), -1).swapaxes(0, 1) if floats else ())
            pieces = []
            for kind, data in parts:
                pieces += [data[at] if kind == "rendered" else next(dense)
                           if kind == "float" else _text_fields(data[start:stop]),
                           np.full((stop - start, 1), ord(","), np.uint8)]
            pieces[-1][:] = ord("\n")
            table = np.concatenate(pieces, axis=1).ravel()
            write(table[table != 0].tobytes())


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
    _check_grid(args.tau_points, args.theta_points)
    scan = analytic.squeezing_region_scan(
        gamma, (0.0, args.tau_max), (0.0, 2.0 * math.pi),
        (args.tau_points, args.theta_points))
    surface = scan.delta_x if which == 1 else scan.delta_p
    if gamma < 0.0 or not np.isfinite(surface).all():
        raise ConfigError(f"figure {which} needs gamma >= 0 and finite cells; got "
                          f"gamma={gamma:g}, --tau-max={args.tau_max:g}")
    return scan, surface


def cmd_figure(args) -> int:
    if args.id in (1, 2):
        explicit = args.gamma is not None
        if not explicit and args.out == "-":
            raise ConfigError(f"figure {args.id} without --gamma writes one file per "
                              f"default gamma; --out - needs --gamma")
        gammas = [args.gamma] if explicit else [1.0, 10.0]
        # all or nothing: surfaces are checked first, a failed file removes earlier ones
        surfaces = [_figure_surface(args.id, gamma, args) for gamma in gammas]
        path = Path(args.out)  # without --gamma, each stem ends in _gamma<gamma>
        outs = [args.out] if explicit else [
            str(path.with_name(f"{path.stem}_gamma{g:g}{path.suffix}")) for g in gammas]
        for i, (out, (scan, surface)) in enumerate(zip(outs, surfaces)):
            try:
                _write_table(out, ("tau", "theta", "delta_scaled"),
                             (scan.tau[:, None], scan.theta[None, :], surface))
            except BaseException:
                for written in outs[:i]:
                    with contextlib.suppress(OSError):
                        Path(written).unlink()
                raise
        for gamma, out, (_, surface) in zip(gammas, outs, surfaces):
            print(f"figure {args.id} gamma={gamma:g}: wrote {out}; "
                  f"negative cells: {'yes' if (surface < 0.0).any() else 'no'}")
        return 0

    # figure 3: electron preset temporal curves, SI units
    if args.preset is not None:
        try:
            preset = physics_config.preset_from_document(
                Path(args.preset).read_text())
        except (OSError, ConfigError) as exc:
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
    _write_table(args.out, FIGURE3_COLUMNS, (
        grid["tau"], grid["var_x_hat"], var_x0, grid["var_p_hat"],
        var_p0, grid["product"], var_x0 * var_p0))
    print(f"figure 3 ({preset.name} preset, g={g:.6e}): wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# oracle-compare


def cmd_oracle_compare(args) -> int:
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
        raise ConfigError(f"Fock dimension {dim} is above {_MAX_FOCK_DIM} "
                          f"(the truncation audit doubles it)")
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
    _write_table(args.out, ("tau", "quantity", "analytic_slope", "oracle_slope", "rel_err"),
                 (taus, np.array(ORACLE_QUANTITIES), analytic_slope, oracle_slope, rel_err))
    worst = np.max(rel_err)  # NaN propagates
    all_ok = worst < args.tol
    print(f"oracle-compare: worst relative slope error {worst:.3e} "
          f"({'PASS' if all_ok else 'FAIL'} at {args.tol:g})")
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
    secular = grid["secular"]
    validity = np.where(secular > analytic.SECULAR_REFUSE, "invalid",
                        np.where(secular > analytic.SECULAR_WARN, "warn", "ok"))
    _write_table(out, SWEEP_COLUMNS,
                 [*(grid[name] for name in SWEEP_COLUMNS[:-1]), validity])
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
    with _csv_sink(args.out) as write:
        write(physics_config.preset_to_document(preset).encode())
    if args.out != "-":
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


def main(argv=None) -> int:
    """Run one command; the only code that prints ``error:`` or returns 2.
    A closed stdout ends the command quietly with _EXIT_CLOSED_PIPE."""
    args = build_parser().parse_args(argv)
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
