"""CLI behavior: exit codes, CSV schemas, determinism, config handling."""

import contextlib
import csv
import errno
import importlib.util
import io
import math
import os
import re
import stat
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gupsqueeze import analytic, boson_algebra, cli, fock_oracle, physics_config
from gupsqueeze import table as csv_table
from gupsqueeze.analytic import variance_record
from gupsqueeze.cli import FIGURE3_COLUMNS, SWEEP_COLUMNS, main
from gupsqueeze.fock_oracle import (
    ORACLE_QUANTITIES, FockSpace, fock_dim_for, oracle_slopes,
)
from gupsqueeze.physics_config import (
    CoherentAmplitude, ConfigError, PhysicalParams, electron_preset, to_natural,
)
from gupsqueeze.table import Labels
from reference import reference_table


def read_csv(path):
    with open(path, newline="") as stream:
        rows = list(csv.reader(stream))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# verify-bch


def test_verify_bch_passes(capsys):
    assert main(["verify-bch", "--max-order", "6"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 6
    assert all(line.endswith("ok") for line in out)


def test_verify_bch_deep(capsys):
    assert main(["verify-bch", "--max-order", "12"]) == 0


def test_verify_bch_rejects_zero_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-bch", "--max-order", "0"])
    assert exc.value.code == 2


def test_verify_bch_cap_admits_exactly_max_order(monkeypatch, capsys):
    """The cap is inclusive; the chain itself is stubbed to depth 1, since
    depth 10^4 takes seconds (the order above it is a bad-input case)."""
    orders = []
    real = cli.verify_bch_collection
    monkeypatch.setattr(cli, "verify_bch_collection",
                        lambda k_max: orders.append(k_max) or real(1))
    assert main(["verify-bch", "--max-order", str(cli._MAX_BCH_ORDER)]) == 0
    assert orders == [cli._MAX_BCH_ORDER]


@pytest.mark.parametrize("entry", range(13))
def test_verify_bch_fails_on_a_changed_step_map_factor(monkeypatch, capsys, entry):
    """verify-bch steps the chain with the step map, so one factor of its
    13 off by one fails it, whichever the factor."""
    step = boson_algebra._step_map()
    target, source, factor = step[entry]
    changed = (*step[:entry], (target, source, factor + 1), *step[entry + 1:])
    monkeypatch.setattr(boson_algebra, "_step_map", lambda: changed)
    assert main(["verify-bch", "--max-order", "12"]) == 1
    out, err = capsys.readouterr()
    assert "mismatch_at_order_" in out
    assert err.startswith("FAILED: ")


# ---------------------------------------------------------------------------
# figure


def test_figure_1_has_squeezing_cells(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    assert main(["figure", "--id", "1", "--gamma", "1", "--out", str(out),
                 "--tau-points", "60", "--theta-points", "40"]) == 0
    header, rows = read_csv(out)
    assert header == ["tau", "theta", "delta_scaled"]
    assert len(rows) == 60 * 40
    assert min(float(r[2]) for r in rows) < 0.0


def test_figure_2_vacuum_momentum_squeezing(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    assert main(["figure", "--id", "2", "--gamma", "0", "--out", str(out),
                 "--tau-points", "50", "--theta-points", "10"]) == 0
    _, rows = read_csv(out)
    values = [float(r[2]) for r in rows]
    assert min(values) < 0.0 and max(values) > 0.0


def test_figure_default_gammas_write_suffixed_files(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    assert main(["figure", "--id", "1", "--out", str(out),
                 "--tau-points", "12", "--theta-points", "8"]) == 0
    assert (tmp_path / "fig1_gamma1.csv").exists()
    assert (tmp_path / "fig1_gamma10.csv").exists()
    assert not out.exists()


def test_figure_default_gammas_write_all_or_nothing(tmp_path, capsys):
    """The second default file cannot be written: the first is removed, and
    no "wrote" line is printed."""
    (tmp_path / "fig_gamma10.csv").mkdir()
    assert main(["figure", "--id", "1", "--out", str(tmp_path / "fig.csv"),
                 "--tau-points", "4", "--theta-points", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig_gamma10.csv"]


def test_figure_3_product_always_above_canonical(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    assert main(["figure", "--id", "3", "--out", str(out),
                 "--tau-points", "80"]) == 0
    header, rows = read_csv(out)
    assert header == ["tau", "var_x_deformed", "var_x_canonical",
                      "var_p_deformed", "var_p_canonical",
                      "product_deformed", "product_canonical"]
    assert len(rows) == 80
    for row in rows:
        assert float(row[5]) > float(row[6])
    # deformed variances oscillate around the canonical lines: tiny excursions
    rel_x = [abs(float(r[1]) / float(r[2]) - 1.0) for r in rows]
    assert 0.0 < max(rel_x) < 0.01


def test_figure_3_accepts_preset_file(tmp_path, capsys):
    preset_path = tmp_path / "preset.txt"
    assert main(["preset", "--omega-reading", "cyclic",
                 "--out", str(preset_path)]) == 0
    out = tmp_path / "fig3.csv"
    assert main(["figure", "--id", "3", "--preset", str(preset_path),
                 "--out", str(out), "--tau-points", "10"]) == 0
    assert out.exists()


@pytest.mark.parametrize("preset, argv, message", [
    ("name = p\nmass = 1\nomega = 1\nhbar = 1\nbeta = 0.5\ngamma = 3\ntheta = 0.3\n",
     ["--tau-points", "4"], "figure 3 at tau=4.18879: secular scale 20.9 > 10; "),
    (None, ["--tau-max", "1e5", "--tau-points", "3"],
     "figure 3 at tau=50000: secular scale 23.4 > 10; "),
], ids=["preset", "electron"])
def test_figure_3_refuses_rows_past_the_validity_limit(tmp_path, capsys, preset, argv,
                                                       message):
    """A row whose secular scale is above SECULAR_REFUSE, which the sweep
    labels invalid, fails the whole figure before any file is opened."""
    if preset is not None:
        (tmp_path / "p.cfg").write_text(preset)
        argv = [*argv, "--preset", str(tmp_path / "p.cfg")]
    out = tmp_path / "fig3.csv"
    assert main(["figure", "--id", "3", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_figure_invalid_id(capsys):
    with pytest.raises(SystemExit):
        main(["figure", "--id", "9", "--out", "x.csv"])


def test_figure_unwritable_path(capsys):
    assert main(["figure", "--id", "1", "--gamma", "1",
                 "--out", "/nonexistent-dir/fig.csv",
                 "--tau-points", "4", "--theta-points", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write '/nonexistent-dir/fig.csv'")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# oracle-compare


def test_oracle_compare_vacuum_passes(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    code = main(["oracle-compare", "--tau", "0.5", "1.0",
                 "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["tau", "quantity", "analytic_slope", "oracle_slope",
                      "rel_err"]
    assert len(rows) == 2 * 5
    assert all(float(r[4]) < 1e-3 for r in rows)


def test_oracle_compare_displaced_passes(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    theta = str(math.pi / 4.0)
    code = main(["oracle-compare", "--gamma", "1", "--theta", theta,
                 "--tau", "0.5", "2.0", "--out", str(out)])
    assert code == 0


@pytest.mark.parametrize("gamma, theta", [(0.5, 0.0), (1.0, 1.1)])
def test_oracle_compare_passes_where_slopes_vanish(tmp_path, gamma, theta):
    # at tau = 0 the var_x slopes are 0 and the closed forms give rounding noise
    out = tmp_path / "oracle.csv"
    assert main(["oracle-compare", "--gamma", repr(gamma), "--theta", repr(theta),
                 "--tau", "0", "-0.0", "5e-324", "1", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 4 * 5
    assert max(float(r[4]) for r in rows) < 1e-3


def test_oracle_compare_fails_on_a_slope_off_by_1e_6(tmp_path, monkeypatch):
    slopes = fock_oracle.oracle_slopes

    def perturbed(tau, amplitude, space=None):
        return {q: v * (1.0 + 1e-6) for q, v in slopes(tau, amplitude, space).items()}

    argv = ["oracle-compare", "--gamma", "1", "--theta", "1.1", "--tau", "0", "1",
            "--tol", "1e-7", "--out", str(tmp_path / "oracle.csv")]
    monkeypatch.setattr(fock_oracle, "oracle_slopes", perturbed)
    assert main(argv) == 1
    _, rows = read_csv(tmp_path / "oracle.csv")
    at_one = [float(r[4]) for r in rows if float(r[0]) == 1.0]
    assert min(at_one) == pytest.approx(1e-6, rel=1e-3)


def test_oracle_compare_truncation_failure(tmp_path, capsys):
    code = main(["oracle-compare", "--gamma", "2", "--dim", "8",
                 "--tau", "1.0", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: oracle: truncation audit FAILED at dim=8: ")
    assert err.endswith(" (vs dim=16); increase --dim\n")


# ---------------------------------------------------------------------------
# uncertainty-check


def test_uncertainty_check_passes(capsys):
    code = main(["uncertainty-check", "--tau-points", "4", "--gamma-points", "3",
                 "--theta-points", "3", "--g-points", "3"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_uncertainty_check_undeformed_grid(capsys):
    code = main(["uncertainty-check", "--g-min", "0", "--g-max", "0",
                 "--g-points", "2", "--tau-points", "3", "--gamma-points", "2",
                 "--theta-points", "2"])
    assert code == 0
    assert "worst |product - bound| = 0.000e+00" in capsys.readouterr().out


def test_uncertainty_check_fault_injection(capsys, monkeypatch):
    real = analytic.variance_grid

    def faulty(*args, **kwargs):
        grid = real(*args, **kwargs)
        return {**grid, "product": grid["product"] + 1e-6}

    monkeypatch.setattr(analytic, "variance_grid", faulty)
    code = main(["uncertainty-check", "--tau-points", "3", "--gamma-points", "2",
                 "--theta-points", "2", "--g-points", "2"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# sweep


def test_single_point_sweep_equals_direct_call(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--tau", "1.5", "--gamma", "1.0", "--theta", "0.25",
                 "--g", "1e-5", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert len(rows) == 1
    record = variance_record(1.5, 1e-5, CoherentAmplitude(gamma=1.0, theta=0.25))
    row = dict(zip(header, rows[0]))
    assert float(row["var_x_hat"]) == pytest.approx(record.var_x_hat, rel=1e-15)
    assert float(row["product"]) == pytest.approx(record.product, rel=1e-15)
    assert float(row["delta_p"]) == pytest.approx(record.delta_p, rel=1e-15)
    assert row["validity"] == "ok"


def test_sweep_determinism_across_parallelism(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "tau_min = 0.0\ntau_max = 6.0\ntau_points = 5\n"
        "gamma = 0.0,1.0,2.0\n"
        "theta = 0.0,0.8,1.6\n"
        "g = 1e-6,1e-4\n")
    out1 = tmp_path / "jobs1.csv"
    out2 = tmp_path / "jobs2.csv"
    assert main(["sweep", "--config", str(config), "--jobs", "1",
                 "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(config), "--jobs", "2",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _, rows = read_csv(out1)
    assert len(rows) == 5 * 3 * 3 * 2


def test_sweep_flags_validity_column(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    # secular scale: 0.5 * 25 * 2 = 25 > 10 -> invalid; 0.05*25*2 = 2.5 -> warn
    assert main(["sweep", "--tau", "25.0", "--gamma", "1.0", "--theta", "0",
                 "--g", "1e-8,0.05,0.5", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [r[-1] for r in rows] == ["ok", "warn", "invalid"]


def test_sweep_at_the_audit_probe_writes_one_invalid_row(tmp_path, capsys):
    # secular scale ~505; the momentum audit there sums terms of ~236
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--tau", "10.105263157894736", "--gamma", "3.0",
                 "--theta", "0.6666666666666666", "--g", "5.0",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0][-1] == "invalid"


def test_sweep_si_restoration(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("hbar = 2.0\nmass = 3.0\nomega = 0.5\n"
                      "tau = 1.0\ngamma = 0\ntheta = 0\ng = 1e-6\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    nat = variance_record(1.0, 1e-6, CoherentAmplitude())
    assert float(row["var_x_hat"]) == pytest.approx(
        nat.var_x_hat * 2.0 / (3.0 * 0.5), rel=1e-14)


# ---------------------------------------------------------------------------
# the CSV format: every command's bytes, rebuilt from library values


def expected_csv(header, rows) -> str:
    """The format every table is written in: csv.writer with "\\n" line ends,
    each float as f"{x:.16e}" and each string as is."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([f"{v:.16e}" if isinstance(v, float) else v for v in row]
                     for row in rows)
    return buf.getvalue()


def label_cells(column: Labels, shape=None) -> list[str]:
    """A Labels column's label in each cell, in C order."""
    codes = np.broadcast_to(column.codes, shape or np.shape(column.codes))
    return [column.labels[c] for c in codes.ravel().tolist()]


def written(out, capsys) -> str:
    if out == "-":
        return capsys.readouterr().out
    with open(out, newline="") as stream:
        return stream.read()


# -0.0 and a subnormal on every axis but gamma
WRITER_AXES = {"tau": [-0.0, 5e-324, 2.5], "gamma": [0.0, 1.5],
               "theta": [-0.0, 5e-324, 1.0], "g": [-0.0, 5e-324, 1e-3, 0.5]}


@pytest.mark.parametrize("si", [False, True])
@pytest.mark.parametrize("to_file", [False, True])
def test_sweep_bytes_follow_the_format(tmp_path, capsys, si, to_file):
    config = tmp_path / "sweep.cfg"
    config.write_text("".join(f"{axis} = {', '.join(map(repr, values))}\n"
                              for axis, values in WRITER_AXES.items())
                      + ("hbar = 2.0\nmass = 3.0\nomega = 0.5\n" if si else ""))
    out = str(tmp_path / "sweep.csv") if to_file else "-"
    assert main(["sweep", "--config", str(config), "--out", out]) == 0
    grid = analytic.variance_grid(
        *np.meshgrid(*WRITER_AXES.values(), indexing="ij"),
        params=PhysicalParams(3.0, 0.5, 2.0, 0.0) if si else None)
    columns = [grid[name].ravel().tolist() for name in SWEEP_COLUMNS[:-1]]
    validity = ["invalid" if s > 10.0 else "warn" if s > 0.1 else "ok"
                for s in grid["secular"].ravel().tolist()]
    if to_file:
        capsys.readouterr()  # the "wrote N rows" line
    assert written(out, capsys) == expected_csv(SWEEP_COLUMNS, zip(*columns, validity))


@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
@pytest.mark.parametrize("which", [1, 2])
def test_figure_surface_bytes_follow_the_format(tmp_path, capsys, which, to_file):
    """To stdout, the table is all a figure prints: no status line follows it."""
    out = str(tmp_path / "fig.csv") if to_file else "-"
    assert main(["figure", "--id", str(which), "--gamma", "1.5", "--tau-max", "3.0",
                 "--tau-points", "4", "--theta-points", "3", "--out", out]) == 0
    tt, hh = np.meshgrid(np.linspace(0.0, 3.0, 4), np.linspace(0.0, 2.0 * math.pi, 3),
                         indexing="ij")
    fn = analytic.scaled_delta_x if which == 1 else analytic.scaled_delta_p
    rows = zip(tt.ravel().tolist(), hh.ravel().tolist(), fn(tt, hh, 1.5).ravel().tolist())
    assert written(out, capsys) == expected_csv(("tau", "theta", "delta_scaled"), rows)


@pytest.mark.parametrize("tau_max", [5e-324, 2.0])
def test_figure_3_bytes_follow_the_format(capsys, tau_max):
    assert main(["figure", "--id", "3", "--tau-max", repr(tau_max), "--tau-points", "3",
                 "--out", "-"]) == 0
    preset = electron_preset()
    params, amp = preset.params, preset.amplitude
    _, factors = to_natural(params)
    var_x0, var_p0 = factors.x_var / 2.0, factors.p_var / 2.0
    grid = analytic.variance_grid(np.linspace(0.0, tau_max, 3), amp.gamma, amp.theta,
                                  params.g, params)
    rows = [(tau, var_x, var_x0, var_p, var_p0, product, var_x0 * var_p0)
            for tau, var_x, var_p, product in zip(*(grid[name].tolist() for name in (
                "tau", "var_x_hat", "var_p_hat", "product")))]
    assert capsys.readouterr().out == expected_csv(FIGURE3_COLUMNS, rows)


def test_oracle_compare_bytes_follow_the_format(capsys):
    taus = [0.5, 1.25]
    assert main(["oracle-compare", "--gamma", "0.5", "--theta", "0.3",
                 "--tau", *map(repr, taus), "--out", "-"]) == 0
    amp = CoherentAmplitude(gamma=0.5, theta=0.3)
    slopes_o = oracle_slopes(taus, amp, FockSpace(fock_dim_for(amp)))
    rows = []
    for i, tau in enumerate(taus):
        slopes_a = analytic.analytic_slopes(tau, amp)
        floor = 1e-12 * (1.0 + 0.5 ** 2) ** 2 * (1.0 + tau)
        for q in ORACLE_QUANTITIES:
            a, o = slopes_a[q], slopes_o[q][i]
            rows.append((tau, q, a, o, abs(a - o) / max(abs(a), abs(o), floor)))
    header = ("tau", "quantity", "analytic_slope", "oracle_slope", "rel_err")
    worst = max(row[4] for row in rows)
    captured = capsys.readouterr()
    assert captured.out == expected_csv(header, rows)  # the table alone
    assert captured.err == (f"oracle-compare: worst relative slope error {worst:.3e} "
                            f"(PASS at 0.001)\n")


def kernel_text(values) -> list[str]:
    """What the writer's float kernel renders for each value, NULs dropped;
    short inputs are tiled so that the vectorised path, not the one-by-one
    path for small blocks, renders them."""
    values = np.asarray(values, dtype=np.float64)
    tiled = np.tile(values, -(-csv_table._KERNEL_MIN_VALUES // len(values)))
    return [row.tobytes().replace(b"\0", b"").decode()
            for row in csv_table._e16_fields(tiled)[:len(values)]]


def float_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


POWERS_OF_TEN = [float(f"1e{k}") for k in range(-323, 309)]


@settings(max_examples=500, deadline=None)
@given(x=st.integers(0, 2 ** 64 - 1).map(float_from_bits))
@example(x=1000000000000000.25)  # an exact decimal tie: rounds half-even
@example(x=1e23)
@example(x=1e-14)  # its 17 digits round up to 10**17 (log10 reads -14: one by one)
@example(x=1e-6)  # below 10**-6, so floor(log10) is one too high
@example(x=9.999999999999999e22)
@example(x=1e16)
@example(x=np.nextafter(1e16, 0.0))
@example(x=np.nextafter(1e17, math.inf))
@example(x=1e-280)
@example(x=np.nextafter(1e-280, 0.0))
@example(x=np.nextafter(1e280, 0.0))
@example(x=1e280)
@example(x=-1e-5)
@example(x=np.nextafter(-1e-5, -math.inf))
@example(x=0.0)
@example(x=-0.0)
@example(x=5e-324)
@example(x=2.2250738585072014e-308)
@example(x=1.7976931348623157e308)
@example(x=math.inf)
@example(x=-math.inf)
@example(x=math.nan)
# the digit groups' seams: a fraction of all 0s or all 9s, 8-digit halves
# and 4-digit quads at 0000 and 9999, and a leading 9
@example(x=1.0)
@example(x=-1e-100)
@example(x=np.nextafter(10.0, 0.0))  # 9.9999999999999982e+00
@example(x=np.nextafter(1.0, 0.0))  # 9.9999999999999989e-01
@example(x=1.00000001)  # 1.0000000099999999e+00
@example(x=1.99999999)  # 1.9999999900000001e+00
@example(x=4.000099990001)  # 4.0000999900009999e+00
@example(x=7.999900009999001e-07)  # 7.9999000099990006e-07
@example(x=-900000.0)
@example(x=9.000000009999999e+123)  # 9.0000000099999989e+123
def test_e16_kernel_matches_cpython(x):
    assert kernel_text([x]) == ["%.16e" % x]


def test_e16_kernel_matches_cpython_at_every_power_of_ten():
    values = [v for p in POWERS_OF_TEN
              for v in (p, np.nextafter(p, 0.0), np.nextafter(p, math.inf))]
    values += [-v for v in values]
    assert kernel_text(values) == ["%.16e" % v for v in values]


def test_e16_kernel_matches_cpython_on_random_bit_patterns():
    rng = np.random.default_rng(20140518)
    values = rng.integers(0, 2 ** 64, size=10 ** 5, dtype=np.uint64).view(np.float64)
    assert kernel_text(values) == ["%.16e" % v for v in values.tolist()]


def test_e16_kernel_matches_cpython_on_exact_ties():
    # m/4 with m odd is an exact tie at the 17th digit between 1e15 and 2.25e15
    rng = np.random.default_rng(7)
    values = (2 * rng.integers(2 * 10 ** 15, 45 * 10 ** 14, size=10 ** 4) + 1) / 4.0
    assert kernel_text(values) == ["%.16e" % v for v in values.tolist()]


# values that meet one of the kernel's slow-path conditions: zeros,
# non-finite values, magnitudes outside its range, exact decimal ties (.25
# rounds down half-even, .75 up), 1e-14 (its 17 digits round up into the
# next power of ten) and a d of 16 digits, where log10 rounds up to 16
RARE_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 1e300,
               1000000000000000.25, 1000000000000000.75, 1e-14,
               float(np.nextafter(1e16, 0.0))]
# a fixed draw of ordinary values: none meets any of those conditions
ORDINARY_VALUES = (np.random.default_rng(31).uniform(1.0, 10.0, csv_table._BLOCK_VALUES)
                   * 10.0 ** (np.arange(csv_table._BLOCK_VALUES) % 25 - 20))


def test_e16_kernel_renders_the_ordinary_block_without_a_mask(monkeypatch):
    """ORDINARY_VALUES meet no slow-path condition, so the kernel builds no
    mask and sends no value one by one."""
    one_by_one = []
    real = csv_table._e16_one_by_one
    monkeypatch.setattr(csv_table, "_e16_one_by_one",
                        lambda x: (one_by_one.append(len(x)), real(x))[1])
    assert kernel_text(ORDINARY_VALUES) == ["%.16e" % v for v in ORDINARY_VALUES.tolist()]
    assert one_by_one == []


@pytest.mark.parametrize("value", RARE_VALUES, ids=repr)
@settings(max_examples=12, deadline=None)
@given(index=st.integers(0, csv_table._BLOCK_VALUES - 1))
def test_e16_kernel_renders_one_rare_value_among_ordinary_ones(value, index):
    """The kernel tests each slow-path condition once over the whole array
    and builds a per-value mask only where some value meets it: one rare
    value planted among the ordinary ones must still take its own path."""
    values = ORDINARY_VALUES.copy()
    values[index] = value
    assert kernel_text(values) == ["%.16e" % v for v in values.tolist()]


def test_e16_kernel_carries_digits_rounded_up_into_the_next_power_of_ten(monkeypatch):
    """The double nearest 1e-79 lies 1.1e-18 below it, so its 17 digits
    round up to 1.0000000000000000e-79.  numpy's log10 reads it as -79 and
    the kernel sends it one by one; with log10 one ulp low, floor gives -80,
    the digits round up to 10**17, and the kernel carries them into the
    exponent."""
    log10 = np.log10
    monkeypatch.setattr(csv_table.np, "log10", lambda a: np.nextafter(log10(a), -np.inf))
    rng = np.random.default_rng(79)
    values = ORDINARY_VALUES.copy()
    values[rng.choice(values.size, 12, replace=False)] = rng.choice([1e-79, -1e-79], 12)
    assert kernel_text(values) == ["%.16e" % v for v in values.tolist()]


# values that take a path of their own in the kernel or in '%': zeros,
# non-finite values, subnormals, 3-digit exponents, the kernel's range ends,
# and exact decimal rounding ties (m/4, m odd, between 1e15 and 2.25e15)
SPECIAL_VALUES = np.array([
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
    2.2250738585072014e-308, 2.225073858507201e-308, -1.5e-310, 1e-150, -3.7e-205,
    1e250, -6.02e123, 1.7976931348623157e308, 1e-280, np.nextafter(1e280, 0.0),
    1000000000000000.25, 1500000000000000.75, -2000000000000001.25, 1e23,
    9.999999999999999e22, 1e16, 1.0, np.nextafter(1.0, 0.0), -900000.0])


def random_values(rng, shape) -> np.ndarray:
    """Floats of the given shape: special values, random bit patterns and
    random decimal magnitudes, in equal measure."""
    size = math.prod(shape)
    pool = np.stack([
        rng.choice(SPECIAL_VALUES, size),
        rng.integers(0, 2 ** 64, size, dtype=np.uint64).view(np.float64),
        rng.standard_normal(size) * 10.0 ** rng.integers(-320, 308, size)])
    return pool[rng.integers(0, 3, size), np.arange(size)].reshape(shape)


# what a label may hold: write_table refuses a NUL and a lone surrogate
LABEL_CHARACTERS = st.characters(exclude_categories=("Cs",), exclude_characters="\0")


@st.composite
def open_tables(draw):
    """A header and columns for write_table: a grid of 1 to 3 axes, and 1 to
    6 columns, each a float column broadcast along a random subset of the
    axes (dense, open or a scalar) or a Labels column, so that the table's
    fields fall on both sides of table._TABLE_MIN_FIELDS."""
    ndim = draw(st.integers(1, 3))
    tail = draw(st.lists(st.integers(1, 4), min_size=ndim - 1, max_size=ndim - 1))
    n_columns = draw(st.integers(1, 6))
    most = 3 * csv_table._TABLE_MIN_FIELDS // (n_columns * math.prod(tail))
    shape = (draw(st.integers(1, max(1, most))), *tail)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for _ in range(n_columns):
        along = draw(st.lists(st.booleans(), min_size=ndim, max_size=ndim))
        lead = draw(st.integers(0, ndim))  # leading axes left to broadcasting
        col_shape = tuple(n if keep else 1 for n, keep in zip(shape, along))[lead:]
        if draw(st.booleans()):
            columns.append(random_values(rng, col_shape))
        else:
            labels = draw(st.lists(st.text(LABEL_CHARACTERS, max_size=5),
                                   min_size=1, max_size=4))
            columns.append(Labels(labels, rng.integers(0, len(labels), col_shape)))
    return tuple(f"c{i}" for i in range(n_columns)), tuple(columns)


@settings(max_examples=150, deadline=None)
@given(table=open_tables())
def test_write_table_equals_the_row_by_row_reference_on_both_paths(table):
    header, columns = table
    chunks = []
    csv_table.write_table(chunks.append, header, columns)
    assert b"".join(chunks) == reference_table(header, columns)


@pytest.mark.parametrize("rows", [2, 300])
@pytest.mark.parametrize("label, reason", [("a\0b", "holds a NUL"),
                                           ("\ud800", "is not encodable as UTF-8")])
def test_write_table_refuses_a_label_on_both_paths(rows, label, reason):
    """A 2-row table goes row by row and a 300-row one by blocks: both
    refuse the label by name and write nothing."""
    columns = (np.linspace(0.0, 1.0, rows), Labels(("ok", label), np.arange(rows) % 2))
    chunks = []
    with pytest.raises(ValueError, match=re.escape(f"label {label!r} {reason}")):
        csv_table.write_table(chunks.append, ("x", "label"), columns)
    assert chunks == []


@pytest.mark.parametrize("below", [True, False])
def test_write_table_calls_the_kernel_from_its_threshold_on(monkeypatch, below):
    """Fewer fields (rows times columns) than _TABLE_MIN_FIELDS go row by
    row, without the kernel; at the threshold the kernel renders them."""
    rows = csv_table._TABLE_MIN_FIELDS - below  # one column
    columns = (random_values(np.random.default_rng(rows), (rows,)),)
    calls = []
    real = csv_table._e16_fields
    monkeypatch.setattr(csv_table, "_e16_fields", lambda x: (calls.append(np.size(x)),
                                                             real(x))[1])
    chunks = []
    csv_table.write_table(chunks.append, ("x",), columns)
    assert b"".join(chunks) == reference_table(("x",), columns)
    assert calls == ([] if below else [rows])


@pytest.mark.parametrize("to_file", [False, True])
def test_write_table_spans_row_blocks(tmp_path, capsys, to_file):
    n = 2 * (csv_table._BLOCK_VALUES // 2) + 1  # two dense float columns: three blocks
    rng = np.random.default_rng(3)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    x[:6] = [0.0, -0.0, math.inf, -math.nan, 5e-324, 1000000000000000.25]
    y = np.linspace(-1.0, 1.0, n)
    labels = Labels(("ok", "warn", "invalid", "", "\u03b8"), np.arange(n) % 5)
    blank = Labels(("",), np.zeros(n, np.int8))
    out = str(tmp_path / "table.csv") if to_file else "-"
    with csv_table.csv_sink(out) as (write, _):
        csv_table.write_table(write, ("x", "label", "y", "blank"), (x, labels, y, blank))
    assert written(out, capsys) == expected_csv(
        ("x", "label", "y", "blank"),
        zip(x.tolist(), label_cells(labels), y.tolist(), label_cells(blank)))


@pytest.mark.parametrize("dense", [1, 2, 7])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_write_table_block_edges(tmp_path, capsys, dense, offset):
    """A table of one block less a row, one block and one block and a row,
    where a block holds _BLOCK_VALUES // dense rows, beside a broadcast
    float column and two Labels columns."""
    n = csv_table._BLOCK_VALUES // dense + offset
    rng = np.random.default_rng(dense)
    floats = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
              for _ in range(dense)]
    floats[0][:6] = [0.0, -0.0, math.inf, -math.nan, 5e-324, 1000000000000000.25]
    codes = rng.integers(0, 3, n).astype(np.int8)
    labels = ("ok", "", "\u03b8")
    text = Labels(("a", "bb", ""), np.arange(n) % 3)
    header = ("scale", *(f"x{i}" for i in range(dense)), "label", "text")
    out = tmp_path / "table.csv"
    with csv_table.csv_sink(str(out)) as (write, _):
        csv_table.write_table(write, header, (2.5, *floats, Labels(labels, codes), text))
    assert written(out, capsys) == expected_csv(header, zip(
        [2.5] * n, *(f.tolist() for f in floats), [labels[c] for c in codes],
        label_cells(text)))


@pytest.mark.parametrize("widest", [False, True])
def test_write_table_fields_all_of_one_width(tmp_path, capsys, widest):
    """Every float field negative with a 3-digit exponent (24 bytes), or
    every one positive with a 2-digit exponent (22 bytes), on the rendered-once
    and the block-by-block path, across block boundaries."""
    shape = (97, 43)  # 4171 rows, so two blocks of the two dense columns
    rng = np.random.default_rng(13)
    def draw(size):
        scale = 10.0 ** (rng.integers(100, 280, size) * rng.choice([-1, 1], size) if widest
                         else rng.integers(-99, 99, size))
        return (-1.0 if widest else 1.0) * rng.uniform(1.0, 9.0, size) * scale
    table = (draw(97)[:, None], draw(43)[None, :], draw(shape), draw(shape))
    header = ("u", "v", "w", "z")
    out = tmp_path / "table.csv"
    with csv_table.csv_sink(str(out)) as (write, _):
        csv_table.write_table(write, header, table)
    text = written(out, capsys)
    assert text == expected_csv(header, zip(*(np.broadcast_to(c, shape).ravel().tolist()
                                              for c in table)))
    assert {len(line) for line in text.splitlines()[1:]} == {4 * (24 if widest else 22) + 3}


# 8330 rows, so two blocks of the one dense float column; every axis is
# shorter than the kernel's minimum
OPEN_SHAPE = (17, 5, 7, 14)


def open_axis(values, axis, ndim):
    """values laid along one axis of an ndim-dimensional open grid."""
    return np.reshape(values, [-1 if d == axis else 1 for d in range(ndim)])


def write_both_ways(tmp_path, capsys, to_file, header, columns) -> tuple[str, str]:
    """The table as given, then as dense 1-D columns, each as written."""
    shape = np.broadcast_shapes(*(np.shape(col.codes if isinstance(col, Labels) else col)
                                  for col in columns))
    dense = [col._replace(codes=np.broadcast_to(col.codes, shape).ravel())
             if isinstance(col, Labels) else np.broadcast_to(col, shape).ravel()
             for col in columns]
    texts = []
    for name, cols in (("open", columns), ("dense", dense)):
        out = str(tmp_path / f"{name}.csv") if to_file else "-"
        with csv_table.csv_sink(out) as (write, _):
            csv_table.write_table(write, header, cols)
        texts.append(written(out, capsys))
    return texts[0], texts[1]


@pytest.mark.parametrize("to_file", [False, True])
def test_write_table_renders_each_stored_value_once(tmp_path, capsys, monkeypatch,
                                                    to_file):
    rng = np.random.default_rng(11)
    axes = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
            for n in OPEN_SHAPE]
    axes[0][:5] = [-0.0, 5e-324, math.inf, -math.nan, 1000000000000000.25]
    columns = [open_axis(a, i, 4) for i, a in enumerate(axes)]
    full = rng.standard_normal(OPEN_SHAPE)
    labels = Labels(("ok", "warn", "invalid", "\u03b8"), rng.integers(0, 4, OPEN_SHAPE))
    open_labels = Labels(("a", "", "bb", "c", "\u03b8"), open_axis(np.arange(5), 1, 4))
    header = ("tau", "label", "gamma", "theta", "full", "g", "open_label")
    table = (columns[0], labels, columns[1], columns[2], full, columns[3], open_labels)
    rendered, encoded = [], []
    real, real_encoded = csv_table._e16_fields, csv_table._encoded
    monkeypatch.setattr(csv_table, "_e16_fields",
                        lambda x: (rendered.append(np.size(x)), real(x))[1])
    monkeypatch.setattr(csv_table, "_encoded",
                        lambda x, end: (encoded.append(len(x)), real_encoded(x, end))[1])
    got, want = write_both_ways(tmp_path, capsys, to_file, header, table)
    assert got == want
    rows = math.prod(OPEN_SHAPE)
    assert want.count("\n") == rows + 1
    # the open table renders each axis value once, all four axes in its
    # first kernel call, and the dense one every cell
    assert rendered[0] == sum(OPEN_SHAPE)
    assert sum(rendered) == sum(OPEN_SHAPE) + rows + 5 * rows
    # each label column is encoded once per table, not once per block, one
    # string per label: the open table's two, then the dense table's two
    assert encoded == [4, 5, 4, 5]
    assert want == expected_csv(header, zip(*(
        label_cells(c, OPEN_SHAPE) if isinstance(c, Labels)
        else np.broadcast_to(c, OPEN_SHAPE).ravel().tolist() for c in table)))


@pytest.mark.parametrize("to_file", [False, True])
def test_write_table_takes_a_figure_shaped_table(tmp_path, capsys, to_file):
    # 120 taus and 40 thetas, rendered once per table in one kernel call
    tau = np.linspace(0.0, 4.0 * math.pi, 120)
    theta = np.linspace(0.0, 2.0 * math.pi, 40)
    surface = analytic.scaled_delta_x(tau[:, None], theta[None, :], 1.5)
    got, want = write_both_ways(tmp_path, capsys, to_file, ("tau", "theta", "delta_scaled"),
                                (tau[:, None], theta[None, :], surface))
    assert got == want
    assert want == expected_csv(("tau", "theta", "delta_scaled"), zip(
        np.repeat(tau, 40).tolist(), np.tile(theta, 120).tolist(), surface.ravel().tolist()))


def test_sweep_keeps_the_grid_open(tmp_path, monkeypatch):
    """A 25 x 8 x 5 x 10 sweep: each phase table holds the 25 taus, and only
    the seven columns that meet g are rendered cell by cell."""
    axes = {"tau": np.linspace(0.0, 4.0 * math.pi, 25), "gamma": np.linspace(0.0, 3.0, 8),
            "theta": np.linspace(0.0, 6.0, 5), "g": np.logspace(-5.0, 0.0, 10)}
    config = tmp_path / "sweep.cfg"
    config.write_text("".join(f"{axis} = {', '.join(map(repr, values.tolist()))}\n"
                              for axis, values in axes.items()))
    tables, rendered = [], []
    real_table, real_fields = analytic._phase_table, csv_table._e16_fields
    monkeypatch.setattr(analytic, "_phase_table",
                        lambda tau: (tables.append(np.size(tau)), real_table(tau))[1])
    monkeypatch.setattr(csv_table, "_e16_fields",
                        lambda x: (rendered.append(np.size(x)), real_fields(x))[1])
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    assert tables and set(tables) == {25}
    assert sum(rendered) == 7 * 10 ** 4 + 48
    assert out.read_bytes().count(b"\n") == 10 ** 4 + 1


@pytest.mark.parametrize("g, labels", [("1e-8,0.05,0.5", {"ok", "warn", "invalid"}),
                                       ("1e-8,1e-7", {"ok"})])
def test_sweep_writes_validity_as_label_codes(tmp_path, g, labels):
    """The validity column goes to the writer as labels and codes, and each
    row reads the label of its secular scale."""
    axes = {"tau": "0,12.5,25.0", "gamma": "0,1", "theta": "0,0.5", "g": g}
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *(f"--{k}={v}" for k, v in axes.items()), "--out", str(out)]) == 0
    grid = analytic.variance_grid(*np.meshgrid(
        *([float(v) for v in values.split(",")] for values in axes.values()), indexing="ij"))
    secular = grid["secular"]
    validity = np.where(secular > analytic.SECULAR_REFUSE, "invalid",
                        np.where(secular > analytic.SECULAR_WARN, "warn", "ok"))
    assert set(validity.ravel().tolist()) == labels
    assert out.read_text() == expected_csv(SWEEP_COLUMNS, zip(
        *(grid[name].ravel().tolist() for name in SWEEP_COLUMNS[:-1]),
        validity.ravel().tolist()))


def test_validity_labels_and_the_record_policy_meet_at_the_thresholds(tmp_path):
    """At tau 1 and gamma 0 the secular scale is g itself: a scale on a
    threshold keeps the lower label, one ulp above it takes the next, and
    the library warns and raises exactly where the sweep's labels change."""
    gs = (0.1, math.nextafter(0.1, math.inf), 10.0, math.nextafter(10.0, math.inf))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--tau", "1", "--gamma", "0", "--theta", "0",
                 "--g", ",".join(map(repr, gs)), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [r[-1] for r in rows] == ["ok", "warn", "warn", "invalid"]
    variance_record(1.0, gs[0], 0.0)  # silent: any warning fails the suite
    for g in gs[1:3]:
        with pytest.warns(analytic.SecularValidityWarning):
            variance_record(1.0, g, 0.0)
    with pytest.raises(analytic.SecularValidityError):
        variance_record(1.0, gs[3], 0.0)


def test_grid_limit_admits_exactly_max_cells():
    cli._check_grid(1000, 1000)
    with pytest.raises(ConfigError, match="1000 x 1001 cells is above 1000000"):
        cli._check_grid(1000, 1001)


# ---------------------------------------------------------------------------
# bad input


@pytest.mark.parametrize("argv, config, message", [
    (["oracle-compare", "--dim", "1"], None, "--dim"),
    (["sweep", "--tau", "abc"], None, "non-numeric"),
    (["sweep"], "tau = 1.0\njobs = 2\n", "invalid config keys: jobs"),
    (["sweep"], "tau = 1.0\nbananas = 3\n", "invalid config keys: bananas"),
    (["sweep"], "tau = 1.0\ntau_min = 0\ntau_max = 1\ntau_points = 3\n", "not both"),
    (["sweep"], "tau_min = 0\ntau_max = 1\n", "need all of"),
    (["sweep"], "tau_min = 0\ntau_max = x\ntau_points = 3\n", "tau"),
    (["sweep"], "tau_min = 0\ntau_max = 1\ntau_points = 1\n", ">= 2"),
    (["sweep"], "tau = ,\n", "empty tau axis"),
    (["sweep", "--theta=--"], None, "empty theta axis"),
    (["sweep"], "tau = 1.0\nhbar = 1\nmass = 1\n", "needs all of"),
    (["sweep"], "tau = 1.0\nhbar = x\nmass = 1\nomega = 1\n", "SI parameters"),
    (["sweep"], "tau = 1.0\nhbar = -1\nmass = 1\nomega = 1\n", "hbar"),
    (["sweep"], "tau 1.0\n", "expected 'key = value'"),
    (["sweep"], "tau = 1\nhbar = 1\nmass = 1e-200\nomega = 1e-200\n", "hbar/(m omega)"),
    (["sweep"], "tau = 1\nhbar = 1e-200\nmass = 1e200\nomega = 1e200\n", "hbar/(m omega)"),
    (["sweep"], "tau = 1\nhbar = 1e200\nmass = 1\nomega = 1\n", "hbar^2"),
    (["sweep"], "tau = 1\ngamma = 1\ntheta = 0.5\ng = 1e-3\nhbar = 1e-160\nmass = 1\n"
                "omega = 1\n", "smallest normal float"),
    (["sweep"], b"\xff\xfe", "cannot read config"),
    (["sweep", "--config", "/nonexistent-dir/sweep.cfg"], None, "cannot read config"),
    (["sweep", "--tau", "1", "--gamma=-1"], None, "gamma >= 0"),
    (["sweep", "--tau", "1", "--gamma=nan"], None, "finite"),
    (["sweep", "--tau", "1", "--theta", "inf"], None, "finite"),
    (["sweep", "--tau", "nan"], None, "finite"),
    (["sweep", "--tau", "1", "--g", "inf"], None, "finite"),
    (["sweep", "--tau", "1", "--gamma", "1e200", "--g", "1"], None, "float range"),
    (["uncertainty-check", "--gamma-max=-1"], None, "gamma >= 0"),
    (["figure", "--id", "3", "--tau-max", "nan"], None, "finite"),
    (["oracle-compare", "--gamma=-1"], None, "gamma must be >= 0"),
    (["oracle-compare", "--gamma", "nan"], None, "gamma must be >= 0"),
    (["oracle-compare", "--theta", "inf"], None, "theta must be finite"),
    (["oracle-compare", "--tau", "nan"], None, "--tau"),
    (["oracle-compare", "--tau", "0.5", "inf"], None, "--tau"),
    (["oracle-compare", "--tol", "nan"], None, "--tol"),
    (["oracle-compare", "--gamma", "100"], None, "Fock dimension 11030 is above 2048"),
    (["oracle-compare", "--gamma", "1e200"], None, "Fock dimension inf is above 2048"),
    (["oracle-compare", "--dim", "2049"], None, "Fock dimension 2049 is above 2048"),
    (["oracle-compare", "--tau", "1e308"], None, "unitarity"),
    (["oracle-compare", "--dim", "20", "--gamma", "1e200"], None, "keeps no norm"),
    (["figure", "--id", "1", "--gamma", "nan"], None, "gamma=nan"),
    (["figure", "--id", "2", "--gamma=-1"], None, "gamma=-1"),
    (["figure", "--id", "1", "--gamma", "1", "--tau-max", "nan"], None, "--tau-max=nan"),
    (["figure", "--id", "2", "--tau-max", "inf"], None, "--tau-max=inf"),
    (["figure", "--id", "1", "--gamma", "1", "--tau-points", "10000000000000"], None,
     "cells is above 1000000"),
    (["figure", "--id", "2", "--tau-points", "1001", "--theta-points", "1000"], None,
     "1001 x 1000 cells is above"),
    (["figure", "--id", "3", "--tau-points", "10000000000000"], None, "cells is above"),
    (["uncertainty-check", "--tau-points", "10000000000000"], None, "cells is above"),
    (["sweep"], "tau_min = 0\ntau_max = 1\ntau_points = 10000000000000\n",
     "cells is above"),
    (["sweep"], "tau_min = 0\ntau_max = 1\ntau_points = 1001\n"
                "gamma_min = 0\ngamma_max = 1\ngamma_points = 1000\n",
     "1001 x 1000 x 1 x 1 cells is above"),
    (["figure", "--id", "1", "--tau-points", "4", "--theta-points", "4",
      "--out", "/nonexistent-dir/out.csv"], None, "cannot write"),
    (["figure", "--id", "3", "--tau-points", "4", "--out", "/nonexistent-dir/out.csv"],
     None, "cannot write"),
    (["sweep", "--tau", "1", "--out", "/nonexistent-dir/out.csv"], None, "cannot write"),
    (["oracle-compare", "--tau", "0.5", "--out", "/nonexistent-dir/out.csv"], None,
     "cannot write"),
    (["preset", "--out", "/nonexistent-dir/out.csv"], None, "cannot write"),
    (["figure", "--id", "3", "--preset", "/nonexistent-dir/preset.txt"], None,
     "cannot load preset"),
    (["figure", "--id", "3"], "name = electron\n", "cannot load preset"),
    (["figure", "--id", "3", "--tau-points", "4"], physics_config.preset_to_document(
        electron_preset()).replace("mass = 9.1093837015e-31", "mass = 1e-300").replace(
        "omega = 1000000000000.0", "omega = 1e-300"), "hbar/(m omega)"),
    (["figure", "--id", "3"], b"\xff\xfe", "cannot load preset"),
    (["figure", "--id", "3", "--gamma", "nan"], None, "--gamma is for figures 1 and 2"),
    (["figure", "--id", "3", "--theta-points", "7", "--tau-points", "5"], None,
     "figure 3 has no theta axis; --theta-points is for figures 1 and 2"),
    (["figure", "--id", "3", "--theta-points", "100"], "name = electron\n",
     "--theta-points is for figures 1 and 2"),
    (["figure", "--id", "1", "--gamma", "1"], "name = electron\n",
     "--preset is for figure 3"),
    (["figure", "--id", "2", "--tau-points", "4", "--theta-points", "4"],
     "name = electron\n", "--preset is for figure 3"),
    (["figure", "--id", "1", "--out", "-"], None, "--out - needs --gamma"),
    (["figure", "--id", "2", "--tau-points", "4", "--theta-points", "4", "--out", "-"],
     None, "--out - needs --gamma"),
    *((["figure", "--id", "1", "--out", out], None, f"--out {out} needs --gamma")
      for out in ("", ".", "/", "sub/", "..")),
    (["sweep"], "tau = 1\ng = 1e-3\ng = 1e-2\n", "line 3: key 'g' repeats line 2"),
    (["figure", "--id", "3"], physics_config.preset_to_document(electron_preset())
     + "beta = 1.0\n", "key 'beta' repeats line 5"),
    (["uncertainty-check", "--g-max=-1"], None, "--g-max must be > 0"),
    (["uncertainty-check", "--g-max", "0"], None, "--g-max must be > 0"),
    (["uncertainty-check", "--tol", "nan"], None, "--tol must be finite"),
    (["uncertainty-check", "--tol=-1"], None, "--tol must be finite and > 0"),
    (["uncertainty-check", "--tol", "0"], None, "--tol must be finite and > 0"),
    (["oracle-compare", "--tol=-1"], None, "--tol must be > 0"),
    (["oracle-compare", "--tol", "0"], None, "--tol must be > 0"),
    (["oracle-compare", "--tau", *["1"] * 200001], None,
     "grid of 200001 x 5 cells is above 1000000"),
    (["verify-bch", "--max-order", "10001"], None, "--max-order 10001 is above 10000"),
], ids=["dim-one", "tau-not-numeric", "config-jobs-is-unknown",
        "config-unknown-key", "config-list-and-triple", "config-partial-triple",
        "config-triple-not-numeric", "config-one-point", "config-empty-axis",
        "theta-double-dash",
        "config-partial-si", "config-si-not-numeric", "config-negative-hbar",
        "config-malformed-line", "config-si-factor-divides-by-zero",
        "config-si-factors-leave-float-range", "config-si-hbar-squared-overflows",
        "config-si-hbar-squared-subnormal",
        "config-not-utf8", "config-unreadable", "gamma-negative",
        "gamma-nan", "theta-inf", "tau-nan", "g-inf", "record-overflows",
        "uncertainty-check-gamma-negative", "figure-3-tau-max-nan",
        "oracle-gamma-negative", "oracle-gamma-nan", "oracle-theta-inf",
        "oracle-tau-nan", "oracle-tau-inf",
        "oracle-tol-nan", "oracle-heuristic-dim-too-large",
        "oracle-heuristic-dim-overflows", "oracle-dim-too-large",
        "oracle-time-beyond-float-range", "oracle-amplitude-beyond-float-range",
        "figure-1-gamma-nan",
        "figure-2-gamma-negative", "figure-1-tau-max-nan",
        "figure-2-default-gammas-tau-max-inf", "figure-1-oversized-grid",
        "figure-2-default-gammas-oversized-grid", "figure-3-oversized-grid",
        "uncertainty-check-oversized-grid", "sweep-oversized-axis",
        "sweep-oversized-product", "figure-1-unwritable-out", "figure-3-unwritable-out",
        "sweep-unwritable-out", "oracle-unwritable-out", "preset-unwritable-out",
        "figure-3-preset-missing", "figure-3-preset-malformed",
        "figure-3-preset-si-factor-divides-by-zero", "figure-3-preset-not-utf8",
        "figure-3-gamma", "figure-3-theta-points", "figure-3-preset-theta-points",
        "figure-1-preset", "figure-2-default-gammas-preset",
        "figure-1-default-gammas-to-stdout", "figure-2-default-gammas-to-stdout",
        "figure-1-default-gammas-stem-empty", "figure-1-default-gammas-stem-dot",
        "figure-1-default-gammas-stem-root", "figure-1-default-gammas-stem-directory",
        "figure-1-default-gammas-stem-dotdot", "config-repeated-key",
        "figure-3-preset-repeated-key",
        "uncertainty-check-g-max-negative", "uncertainty-check-g-max-zero",
        "uncertainty-check-tol-nan", "uncertainty-check-tol-negative",
        "uncertainty-check-tol-zero", "oracle-tol-negative", "oracle-tol-zero",
        "oracle-oversized-tau-list", "verify-bch-order-above-cap"])
def test_bad_input_is_one_error_line_and_exit_2(tmp_path, monkeypatch, capsys, argv,
                                                 config, message):
    monkeypatch.chdir(tmp_path)  # figures 1-2 would suffix "-" into the cwd
    if config is not None:
        Path("input.cfg").write_bytes(config if isinstance(config, bytes)
                                      else config.encode())
        argv = argv + ["--preset" if argv[0] == "figure" else "--config", "input.cfg"]
    if argv[0] not in ("uncertainty-check", "verify-bch") and "--out" not in argv:
        argv = argv + ["--out", "out.csv"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert message in err
    assert sorted(os.listdir()) == (["input.cfg"] if config is not None else [])


@pytest.mark.parametrize("argv, option", [
    (["figure", "--id", "1", "--gamma", "1", "--tau-points", "1", "--out", "f.csv"],
     "--tau-points"),
    (["uncertainty-check", "--g-points", "1"], "--g-points"),
])
def test_a_grid_of_one_point_is_refused_by_the_parser(tmp_path, monkeypatch, capsys,
                                                       argv, option):
    """A grid axis of fewer than 2 points is a usage error: argparse's usage
    lines, then its one error line, exit 2 and no file."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: gupsqueeze ")
    assert err.endswith(f"error: argument {option}: grid resolution must be >= 2, "
                        f"got 1\n")
    assert not os.listdir()


def run_quietly(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


numbers = st.floats(allow_nan=True, allow_infinity=True).map(repr)
axis_strings = st.one_of(
    st.text(alphabet="0123456789.,-+eE_ nainf", max_size=12),
    st.lists(numbers, min_size=1, max_size=3).map(",".join))


# --out targets: a new file, a regular file, a symlink to one, a directory,
# a file in a missing directory, and a device
OUT_KINDS = ("new", "existing", "symlink", "directory", "missing-directory", "devnull")


def out_target(tmp: str, kind: str) -> str:
    """An --out of this kind in tmp, with what it needs made first."""
    if kind == "devnull":
        return os.devnull
    out = os.path.join(tmp, "out.csv")
    if kind == "existing":
        Path(out).write_bytes(b"an earlier table\n")
        os.chmod(out, 0o640)
    elif kind == "symlink":
        os.mkdir(os.path.join(tmp, "data"))
        Path(tmp, "data", "real.csv").write_bytes(b"an earlier table\n")
        os.symlink(os.path.join("data", "real.csv"), out)
    elif kind == "directory":
        os.mkdir(out)
    elif kind == "missing-directory":
        out = os.path.join(tmp, "missing", "out.csv")
    return out


def assert_exit_0_or_2_leaving(argv, tmp, kind):
    """The command exits 0, or 2 with one error line and tmp as it was; a
    symlink stays one, and no staged file is left either way."""
    before = listing(tmp)
    code, err = run_quietly(argv)
    assert code in (0, 2)
    if kind == "missing-directory":
        assert code == 2
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert listing(tmp) == before
    if kind == "symlink":
        assert os.path.islink(os.path.join(tmp, "out.csv"))
    assert not staged_files(tmp)
    return code


@settings(max_examples=200, deadline=None)
@given(axes=st.tuples(*[axis_strings] * 4), kind=st.sampled_from(OUT_KINDS))
def test_sweep_axis_fuzz_exits_0_or_2(axes, kind):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["sweep", "--out", out_target(tmp, kind)]
        argv += [f"--{name}={value}"
                 for name, value in zip(("tau", "gamma", "theta", "g"), axes)]
        if assert_exit_0_or_2_leaving(argv, tmp, kind) == 0:
            assert kind != "directory"


@settings(max_examples=100, deadline=None)
@given(fig=st.sampled_from(["1", "2"]), gamma=st.one_of(st.none(), numbers),
       tau_max=numbers, kind=st.sampled_from(OUT_KINDS))
@example(fig="1", gamma=None, tau_max="2.2975366850929185e+306",  # gamma 1 finite, 10 not
         kind="new")
def test_figure_argv_fuzz_exits_0_or_2(fig, gamma, tau_max, kind):
    # without --gamma the suffixed files land beside --out, so not in /dev
    assume(gamma is not None or kind != "devnull")
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["figure", "--id", fig, f"--tau-max={tau_max}", "--tau-points", "3",
                "--theta-points", "2", "--out", out_target(tmp, kind)]
        if gamma is not None:
            argv.append(f"--gamma={gamma}")
        if assert_exit_0_or_2_leaving(argv, tmp, kind) == 0:
            assert gamma is None or kind != "directory"


def usual_or_any(low, high):
    return st.one_of(st.floats(low, high).map(repr), numbers)


@settings(max_examples=60, deadline=None)
@given(gamma=(st.floats(0.0, 2.0) | st.floats(max_value=2.0) | st.just(math.nan)).map(repr),
       theta=numbers, tol=usual_or_any(1e-4, 1e-2),
       taus=st.one_of(st.lists(st.floats(0.0, 6.0), min_size=1, max_size=3),
                      st.lists(st.floats(min_value=0.0) | st.just(math.nan),
                               min_size=1, max_size=3)).map(lambda t: [*map(repr, t)]))
def test_oracle_compare_argv_fuzz_exits_0_1_or_2(gamma, theta, tol, taus):
    # gamma <= 2 keeps the heuristic Fock dimension at 54 or below; taus are
    # not negative because argparse reads '-1e-05' as an option
    code, err = run_quietly(["oracle-compare", f"--gamma={gamma}", f"--theta={theta}",
                             f"--tol={tol}", "--tau", *taus, "--out", os.devnull])
    assert code in (0, 1, 2)
    if not float(tol) > 0.0:
        assert code == 2
    if code == 2:
        assert err.startswith("error: ")
        assert err.count("\n") == 1


# 0, signed zeros, negatives, NaN and the infinities, with ordinary values
edge_numbers = st.sampled_from(
    [0.0, -0.0, -1.0, 1e-8, 1e-2, 1e300, math.nan, math.inf, -math.inf]).map(repr) | numbers


@settings(max_examples=100, deadline=None)
@given(g_min=edge_numbers, g_max=edge_numbers, tol=edge_numbers, tau_max=edge_numbers,
       gamma_max=edge_numbers, points=st.lists(st.sampled_from("23"), min_size=4,
                                               max_size=4))
@example(g_min="1e-08", g_max="-1.0", tol="1e-12", tau_max="12.0", gamma_max="2.0",
         points=["2", "2", "2", "2"])  # the log grid of a non-positive --g-max
@example(g_min="1e-08", g_max="0.01", tol="-1", tau_max="12.0", gamma_max="2.0",
         points=["2", "2", "2", "2"])  # no point can meet a negative --tol
def test_uncertainty_check_argv_fuzz_exits_0_1_or_2(g_min, g_max, tol, tau_max,
                                                     gamma_max, points):
    argv = ["uncertainty-check", f"--g-min={g_min}", f"--g-max={g_max}", f"--tol={tol}",
            f"--tau-max={tau_max}", f"--gamma-max={gamma_max}"]
    for axis, n in zip(("tau", "gamma", "theta", "g"), points):
        argv += [f"--{axis}-points", n]
    code, err = run_quietly(argv)
    assert code in (0, 1, 2)
    if not float(tol) > 0.0:
        assert code == 2
    if code == 2:
        assert err.startswith("error: ")
        assert err.count("\n") == 1


# edge numbers, magnitudes near 1e+-200 whose products leave the float range,
# and those near 1e-160 whose squares are subnormal
unit_numbers = edge_numbers | (st.floats(1e-210, 1e-190) | st.floats(1e190, 1e210)
                               | st.floats(1e-163, 1e-154)).map(repr)


def assert_exit_0_or_2(argv, out) -> int:
    """The command exits 0, or 2 with one error line and out not written."""
    code, err = run_quietly(argv)
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not os.path.exists(out)
    return code


@settings(max_examples=100, deadline=None)
@given(hbar=unit_numbers, mass=unit_numbers, omega=unit_numbers)
@example(hbar="1.0", mass="1e-200", omega="1e-200")  # m omega underflows to 0
@example(hbar="1e-200", mass="1e+200", omega="1e+200")  # every factor 0 or inf
@example(hbar="1e-160", mass="1.0", omega="1.0")  # hbar^2 = 1e-320 is subnormal
def test_sweep_si_config_fuzz_exits_0_or_2(hbar, mass, omega):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = os.path.join(tmp, "sweep.cfg"), os.path.join(tmp, "out.csv")
        Path(config).write_text(f"tau = 0, 1\ngamma = 1\ntheta = 0.5\ng = 1e-3\n"
                                f"hbar = {hbar}\nmass = {mass}\nomega = {omega}\n")
        if assert_exit_0_or_2(["sweep", "--config", config, "--out", out], out) == 0:
            # every restoration factor was a normal float
            h, m, w = float(hbar), float(mass), float(omega)
            assert all(sys.float_info.min <= f < math.inf
                       for f in (h / (m * w), h * m * w, h ** 2))


PRESET_NUMBERS = ("mass", "omega", "hbar", "beta", "gamma", "theta")


@settings(max_examples=100, deadline=None)
@given(values=st.tuples(*[unit_numbers] * len(PRESET_NUMBERS)))
@example(values=("1e-300", "1e-300", "1.054571817e-34", "2.43478e+48", "1.0", "0.5"))
def test_figure_3_preset_fuzz_exits_0_or_2(values):
    with tempfile.TemporaryDirectory() as tmp:
        preset, out = os.path.join(tmp, "preset.cfg"), os.path.join(tmp, "out.csv")
        Path(preset).write_text("name = fuzz\n" + "".join(
            f"{key} = {value}\n" for key, value in zip(PRESET_NUMBERS, values)))
        if assert_exit_0_or_2(["figure", "--id", "3", "--preset", preset, "--tau-points",
                               "3", "--out", out], out) == 0:
            loaded = physics_config.preset_from_document(Path(preset).read_text())
            _, rows = read_csv(out)
            assert all(analytic.secular_scale(float(row[0]), loaded.params.g,
                                              loaded.amplitude.gamma)
                       <= analytic.SECULAR_REFUSE for row in rows)


SRC = Path(__file__).resolve().parent.parent / "src"


def test_entry_point_stderr_is_the_error_line_or_nothing(tmp_path):
    """Run as a program, pytest's warning capture is gone: nothing but the
    error line may reach stderr."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "gupsqueeze.cli", *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)

    for argv in (["uncertainty-check", "--gamma-max", "inf"],
                 ["figure", "--id", "1", "--gamma", "nan", "--out", "fig.csv"]):
        result = run(*argv)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1
    result = run("uncertainty-check", "--tau-points", "2", "--gamma-points", "2",
                 "--theta-points", "2", "--g-points", "2")
    assert result.returncode == 0
    assert result.stderr == ""
    assert not list(tmp_path.iterdir())


def test_one_parser_serves_every_call_like_a_fresh_process(monkeypatch, capsys, tmp_path):
    """main builds its parser once per process.  A call that leaves its
    options behind in a shared default would show in the next call's output,
    so each second call must print what a fresh process prints."""
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        # oracle-compare writes its table to stdout and its verdict to stderr
        for first, second, err in (
                (["oracle-compare", "--tau", "3"], ["oracle-compare"],
                 r"oracle-compare: worst relative slope error \S+ \(PASS at 0\.001\)\n"),
                (["sweep", "--tau", "1"], ["sweep"], "")):
            assert main(first) == 0
            capsys.readouterr()
            assert main(second) == 0
            fresh = subprocess.run([sys.executable, "-m", "gupsqueeze.cli", *second],
                                   env={**os.environ, "PYTHONPATH": str(SRC)},
                                   cwd=tmp_path, capture_output=True, text=True,
                                   timeout=60)
            assert fresh.returncode == 0 and re.fullmatch(err, fresh.stderr)
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def parse_outcome(parse, argv, capsys):
    """A parse's namespace, or the exit code it raised, with what it printed."""
    try:
        outcome = vars(parse(argv))
    except SystemExit as exc:
        outcome = exc.code
    return outcome, *capsys.readouterr()


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["nope"], ["verify"], ["-h", "sweep"],
    ["verify-bch", "--max-order", "2", "--bogus"],
    ["verify-bch", "--max-order", "2", "extra"],
    ["verify-bch"], ["verify-bch", "--max-order", "two"], ["verify-bch", "--max-order", "0"],
    ["oracle-compare", "--gamma", "wide"], ["figure", "--id", "4", "--out", "-"],
    ["preset", "--omega-reading", "sideways"], ["sweep", "-h"], ["verify-bch", "--help"],
    ["--", "verify-bch", "--max-order", "2"], ["verify-bch", "--", "--max-order", "2"],
    ["verify-bch", "--max-order=3"], ["verify-bch", "--max", "3"],
    ["oracle-compare", "--gamma", "-1.5", "--tau", "-2", "-0.5", "--dim=-3"],
    ["oracle-compare", "--tau", "1", "--tau", "2", "--tol", "1e-4", "--tol", "1e-5"],
    ["sweep", "--tau=--", "--jobs", "2"], ["figure", "--id", "3", "--out", "f.csv"],
    ["oracle-compare"],
], ids=repr)
def test_main_parses_as_the_full_parser_does(capsys, argv):
    """main hands a command's arguments to that command's parser alone: each
    argv must give the namespace, or the exit code, stdout and stderr, that
    a fresh full parser gives."""
    assert parse_outcome(cli._parse, argv, capsys) == parse_outcome(
        cli.build_parser().parse_args, argv, capsys)


# perfbench's seed-1 oracle_compare amplitudes: Fock dimensions 41 and 229
ORACLE_SMALL = ("--gamma", "0.9293750129474533", "--theta", "4.896301531456875", "--tau",
                "0.6802076197161011", "1.4936911971276052", "2.966189425398554",
                "3.1318953653235155")
ORACLE_LARGE = ("--gamma", "9.935228099574964", "--theta", "2.4137944263264024", "--tau",
                "0.4682085081608594", "2.012136264117072", "2.548639532620857",
                "3.5317217520044237")


def test_warm_oracle_compare_prints_and_writes_what_a_fresh_process_does(
        monkeypatch, capsys, tmp_path):
    """oracle_slopes keeps each Fock dimension's tables for the process, so
    a later call at a dimension seen before starts warm: each call must
    print and write the bytes a fresh process does."""
    fock_oracle._slope_operators.cache_clear()
    for n, options in enumerate((ORACLE_SMALL, ORACLE_LARGE, ORACLE_SMALL,
                                 ORACLE_SMALL + ("--dim", "60"))):
        argv = ["oracle-compare", *options, "--out", "oracle.csv"]
        warm, fresh = tmp_path / f"warm{n}", tmp_path / f"fresh{n}"
        warm.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(warm)
        assert main(argv) == 0
        done = subprocess.run([sys.executable, "-m", "gupsqueeze.cli", *argv],
                              env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=fresh,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and done.stderr == ""
        assert capsys.readouterr().out == done.stdout
        assert (warm / "oracle.csv").read_bytes() == (fresh / "oracle.csv").read_bytes()
    # misses 41, 229 and 60 (each certified, so no 2 dim tables); the one hit
    # is the third call's dim 41
    assert fock_oracle._slope_operators.cache_info().hits == 1


def test_closed_pipe_on_stdout_ends_quietly(tmp_path):
    """`sweep --out - | head -1`: the reader goes after one line of 4500 rows."""
    argv = ["sweep", "--tau", ",".join(map(str, range(30))), "--gamma", "0,1,2",
            "--theta", "0,1,3,4,5", "--g", ",".join(f"1e-{k}" for k in range(1, 11)),
            "--out", "-"]
    proc = subprocess.Popen([sys.executable, "-m", "gupsqueeze.cli", *argv],
                            env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=tmp_path,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().decode() == ",".join(SWEEP_COLUMNS) + "\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""


def test_closed_fifo_out_is_one_error_line_and_exit_2(tmp_path):
    """A broken --out other than stdout is an unwritable --out, not a quiet
    141: the FIFO's reader goes after one line of 4500 rows."""
    fifo = tmp_path / "table.csv"
    os.mkfifo(fifo)
    argv = ["sweep", "--tau", ",".join(map(str, range(30))), "--gamma", "0,1,2",
            "--theta", "0,1,3,4,5", "--g", ",".join(f"1e-{k}" for k in range(1, 11)),
            "--out", str(fifo)]
    proc = subprocess.Popen([sys.executable, "-m", "gupsqueeze.cli", *argv],
                            env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=tmp_path,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with open(fifo, "rb") as reader:
        assert reader.readline().decode() == ",".join(SWEEP_COLUMNS) + "\n"
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert stdout == b""
    assert stderr.decode().startswith(f"error: cannot write {str(fifo)!r}: ")
    assert stderr.decode().count("\n") == 1


# ---------------------------------------------------------------------------
# what a command leaves on disk: table.csv_sink stages every regular file

# 30 x 3 x 5 x 10 = 4500 rows, four blocks of a sweep's seven dense columns
BLOCKS_SWEEP = ["sweep", "--tau", ",".join(map(str, range(30))), "--gamma", "0,1,2",
                "--theta", "0,1,3,4,5", "--g", ",".join(f"1e-{k}" for k in range(1, 11))]


def listing(root) -> dict[str, tuple]:
    """Every path under root: a file's bytes and mode bits, a symlink's
    target, a directory as such."""
    found = {}
    for path in sorted(Path(root).rglob("*")):
        name = str(path.relative_to(root))
        if path.is_symlink():
            found[name] = ("link", os.readlink(path))
        elif path.is_dir():
            found[name] = ("dir",)
        else:
            found[name] = (path.read_bytes(), stat.S_IMODE(path.stat().st_mode))
    return found


def staged_files(root) -> list[str]:
    """csv_sink's staging files (".<name>.<random hex>.tmp") anywhere under root."""
    return [p.name for p in Path(root).rglob(".*.tmp")]


def failing_after_one_block(error: BaseException):
    """A write_table whose write raises error once the header and one block
    have gone through."""
    real = csv_table.write_table

    def write_table(write, header, columns):
        passed = []

        def failing(data):
            if len(passed) == 2:
                raise error
            passed.append(data)
            write(data)
        real(failing, header, columns)
    return write_table


@pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"),
                                   KeyboardInterrupt()], ids=["enospc", "interrupt"])
@pytest.mark.parametrize("existing", [False, True])
def test_a_write_failing_mid_table_leaves_the_target_as_it_was(tmp_path, monkeypatch,
                                                               capsys, error, existing):
    out = tmp_path / "sweep.csv"
    if existing:
        out.write_bytes(b"an earlier table\n")
        out.chmod(0o640)
    before = listing(tmp_path)
    monkeypatch.setattr(cli, "write_table", failing_after_one_block(error))
    argv = [*BLOCKS_SWEEP, "--out", str(out)]
    if isinstance(error, OSError):
        assert main(argv) == 2
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err == (f"error: cannot write {str(out)!r}: "
                       "[Errno 28] No space left on device\n")
    else:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    assert listing(tmp_path) == before
    assert not staged_files(tmp_path)


@pytest.mark.parametrize("existing", [False, True])
def test_figure_default_gammas_rename_neither_file_unless_both_are_written(
        tmp_path, monkeypatch, capsys, existing):
    """The second table fails after the first is written whole: neither
    target changes, and no "wrote" line is printed."""
    if existing:
        for g in ("1", "10"):
            (tmp_path / f"fig_gamma{g}.csv").write_bytes(f"gamma {g}\n".encode())
    before = listing(tmp_path)
    real, tables = csv_table.write_table, []

    def second_fails(write, header, columns):
        tables.append(header)
        if len(tables) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        real(write, header, columns)
    monkeypatch.setattr(cli, "write_table", second_fails)
    assert main(["figure", "--id", "1", "--out", str(tmp_path / "fig.csv"),
                 "--tau-points", "4", "--theta-points", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert listing(tmp_path) == before
    assert not staged_files(tmp_path)


def test_figure_default_gammas_close_both_files_before_renaming_either(
        tmp_path, monkeypatch, capsys):
    """Both tables are written whole, but fig_gamma1.csv's staged file cannot
    take the target's mode bits: neither target changes, and no staged file
    is left."""
    for g in ("1", "10"):
        (tmp_path / f"fig_gamma{g}.csv").write_bytes(f"gamma {g}\n".encode())
    before = listing(tmp_path)
    real_fchmod = os.fchmod

    def refuse_gamma1(fd, mode):
        inode = os.fstat(fd).st_ino
        if any(p.stat().st_ino == inode for p in tmp_path.glob(".fig_gamma1.csv.*.tmp")):
            raise PermissionError(errno.EPERM, "Operation not permitted")
        real_fchmod(fd, mode)
    monkeypatch.setattr(os, "fchmod", refuse_gamma1)
    assert main(["figure", "--id", "1", "--out", str(tmp_path / "fig.csv"),
                 "--tau-points", "4", "--theta-points", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: cannot write {str(tmp_path / 'fig_gamma1.csv')!r}: "
                   "[Errno 1] Operation not permitted\n")
    assert listing(tmp_path) == before
    assert not staged_files(tmp_path)


BAD_TARGET_COMMANDS = {
    "figure-1": ["figure", "--id", "1", "--gamma", "1", "--tau-points", "4",
                 "--theta-points", "4"],
    "figure-3": ["figure", "--id", "3", "--tau-points", "4"],
    "sweep": ["sweep", "--tau", "1"],
    "oracle-compare": ["oracle-compare", "--tau", "0.5"],
    "preset": ["preset"],
}


@pytest.mark.parametrize("command", sorted(BAD_TARGET_COMMANDS))
@pytest.mark.parametrize("target", ["directory", "missing-directory", "trailing-slash"])
def test_an_unwritable_target_is_one_error_line_and_leaves_the_directory_unchanged(
        tmp_path, capsys, command, target):
    """A name ending in "/" names a directory, so no out.csv is made for it."""
    out = str(tmp_path / "out.csv")
    if target == "directory":
        os.mkdir(out)
        Path(out, "inside.txt").write_bytes(b"kept\n")
    elif target == "missing-directory":
        out = str(tmp_path / "missing" / "out.csv")
    else:
        out += os.sep
    before = listing(tmp_path)
    assert main([*BAD_TARGET_COMMANDS[command], "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out!r}: ")
    assert err.count("\n") == 1
    assert listing(tmp_path) == before


@pytest.mark.parametrize("dangling", [False, True])
def test_a_symlinked_target_is_written_through_and_the_link_kept(tmp_path, capsys,
                                                                  dangling):
    """The link points into another directory, where the staged file goes."""
    (tmp_path / "data").mkdir()
    real = tmp_path / "data" / "sweep.csv"
    if not dangling:
        real.write_bytes(b"an earlier table\n")
        real.chmod(0o600)
    link = tmp_path / "link.csv"
    link.symlink_to(Path("data") / "sweep.csv")
    assert main([*BLOCKS_SWEEP, "--out", str(link)]) == 0
    capsys.readouterr()
    assert main([*BLOCKS_SWEEP, "--out", "-"]) == 0
    assert real.read_bytes() == capsys.readouterr().out.encode()
    assert os.readlink(link) == str(Path("data") / "sweep.csv")
    if not dangling:
        assert stat.S_IMODE(real.stat().st_mode) == 0o600
    assert sorted(listing(tmp_path)) == ["data", "data/sweep.csv", "link.csv"]


def run_cli(argv, cwd, **popen) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "gupsqueeze.cli", *argv],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=cwd,
                          timeout=120, **popen)


def test_out_dev_stdout_and_dev_fd_stream_to_a_pipe(tmp_path):
    """/dev/stdout is stdout's own pipe, so it is written as "--out -" is;
    /dev/fd/N leads through /proc to another pipe, written directly with
    the same bytes."""
    argv = ["sweep", "--tau", "0,1,2", "--gamma", "0,1"]
    dash = run_cli([*argv, "--out", "-"], tmp_path, capture_output=True)
    assert dash.returncode == 0 and dash.stderr == b""
    csv_bytes = dash.stdout
    assert csv_bytes.startswith(b"tau,") and b"wrote" not in csv_bytes
    piped = run_cli([*argv, "--out", "/dev/stdout"], tmp_path, capture_output=True)
    assert piped.returncode == 0 and piped.stderr == b""
    assert piped.stdout == csv_bytes
    read_end, write_end = os.pipe()
    try:
        done = run_cli([*argv, "--out", f"/dev/fd/{write_end}"], tmp_path,
                       pass_fds=(write_end,), capture_output=True)
        os.close(write_end)
        with open(read_end, "rb") as reader:
            assert reader.read() == csv_bytes
    finally:
        with contextlib.suppress(OSError):
            os.close(write_end)
    assert done.returncode == 0 and done.stderr == b""
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv", [
    ["sweep", "--tau", "0,1"],
    ["figure", "--id", "2", "--gamma", "1", "--tau-points", "3", "--theta-points", "2"],
    ["figure", "--id", "3", "--tau-points", "3"],
    ["oracle-compare", "--gamma", "0.5", "--tau", "1"],
    ["preset"],
], ids=["sweep", "figure2", "figure3", "oracle-compare", "preset"])
def test_out_dev_stdout_redirected_to_a_file_writes_that_file_in_place(tmp_path, argv):
    """/dev/stdout names the file a shell redirected stdout to, so the
    command writes it as stdout, with the bytes "--out -" gives: the table
    is not written over by the status line, and the file is not replaced.
    oracle-compare's verdict goes to stderr then, so the file is the table."""
    def redirected(name, out):
        target = tmp_path / name
        with open(target, "wb") as stdout:
            inode = os.fstat(stdout.fileno()).st_ino
            done = run_cli([*argv, "--out", out], tmp_path, stdout=stdout,
                           stderr=subprocess.PIPE)
        assert done.returncode == 0
        assert target.stat().st_ino == inode
        return target.read_bytes(), done.stderr

    (table, err), dash = redirected("dev_stdout.out", "/dev/stdout"), redirected("dash.out", "-")
    assert (table, err) == dash
    if argv[0] == "oracle-compare":
        assert table.startswith(b"tau,quantity,") and table.count(b"\n") == 1 + 5
        assert re.fullmatch(rb"oracle-compare: worst relative slope error \S+ "
                            rb"\(PASS at 0\.001\)\n", err)
    else:
        assert err == b""
    assert sorted(os.listdir(tmp_path)) == ["dash.out", "dev_stdout.out"]


def test_figure_default_gammas_refuse_dev_stdout_as_they_refuse_dash(tmp_path):
    """Without --gamma, --out is a stem; /dev/stdout, a link to stdout's
    pipe, names no file to put one beside, so it is refused as "-" is."""
    argv = ["figure", "--id", "1", "--tau-points", "3", "--theta-points", "2"]
    for out in ("-", "/dev/stdout"):
        done = run_cli([*argv, "--out", out], tmp_path, capture_output=True)
        assert done.returncode == 2 and done.stdout == b""
        assert done.stderr == (f"error: figure 1 without --gamma writes one file per "
                               f"default gamma; --out {out} needs --gamma\n").encode()
    assert not os.listdir(tmp_path)


def test_figure_default_gammas_take_the_file_stdout_is_redirected_to_as_a_stem(tmp_path):
    """A regular file is a stem even where stdout was redirected to it: each
    gamma's file is written beside it, and the status lines go to it."""
    argv = ["figure", "--id", "1", "--tau-points", "3", "--theta-points", "2"]
    target = tmp_path / "fig.csv"
    with open(target, "wb") as stdout:
        done = run_cli([*argv, "--out", "fig.csv"], tmp_path, stdout=stdout,
                       stderr=subprocess.PIPE)
    assert done.returncode == 0 and done.stderr == b""
    assert sorted(os.listdir(tmp_path)) == ["fig.csv", "fig_gamma1.csv", "fig_gamma10.csv"]
    lines = target.read_text().splitlines()
    assert len(lines) == 2
    for gamma, line in zip((1, 10), lines):
        assert line.startswith(f"figure 1 gamma={gamma}: wrote fig_gamma{gamma}.csv; ")
    for gamma in (1, 10):
        assert (tmp_path / f"fig_gamma{gamma}.csv").read_text().startswith(
            "tau,theta,delta_scaled\n")


def test_a_staging_name_left_by_a_killed_run_blocks_nothing(tmp_path, capsys):
    out = tmp_path / "out.csv"
    left = [tmp_path / f".out.csv.{os.getpid()}.tmp", tmp_path / ".out.csv.00000000.tmp"]
    for path in left:
        path.write_bytes(b"a killed run's rows\n")
    assert main(["sweep", "--tau", "0,1", "--out", str(out)]) == 0
    assert main(["sweep", "--tau", "0,1", "--out", "-"]) == 0
    assert out.read_bytes().decode() in capsys.readouterr().out
    assert sorted(staged_files(tmp_path)) == sorted(path.name for path in left)


def test_a_target_with_no_room_for_a_staged_file_beside_it_is_written_in_place(
        tmp_path, monkeypatch, capsys):
    """Where the directory refuses a new file (EACCES; root is never refused,
    so the refusal is simulated), a writable target is written as given."""
    out = tmp_path / "out.csv"
    out.write_bytes(b"an earlier table\n")
    inode = out.stat().st_ino
    real_open = os.open

    def no_new_files(name, flags, *mode):
        if flags & os.O_CREAT:
            raise PermissionError(errno.EACCES, "Permission denied", name)
        return real_open(name, flags, *mode)
    monkeypatch.setattr(os, "open", no_new_files)
    assert main([*BLOCKS_SWEEP, "--out", str(out)]) == 0
    monkeypatch.undo()
    assert main([*BLOCKS_SWEEP, "--out", "-"]) == 0
    assert out.read_bytes().decode() in capsys.readouterr().out
    assert out.stat().st_ino == inode
    assert not staged_files(tmp_path)


def test_a_target_that_refuses_writes_stays_refused(tmp_path, monkeypatch, capsys):
    """A read-only target in a writable directory is not replaced by a
    staged file (the refusal is simulated, since root is never refused)."""
    out = tmp_path / "out.csv"
    out.write_bytes(b"an earlier table\n")
    before = listing(tmp_path)
    real_open = os.open

    def read_only_target(name, flags, *mode):
        if os.fspath(name) == str(out) and flags & (os.O_WRONLY | os.O_RDWR):
            raise PermissionError(errno.EACCES, "Permission denied", name)
        return real_open(name, flags, *mode)
    monkeypatch.setattr(os, "open", read_only_target)
    assert main(["sweep", "--tau", "0,1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: cannot write {str(out)!r}: "
                                       f"[Errno 13] Permission denied: {str(out)!r}\n")
    assert listing(tmp_path) == before


@pytest.mark.parametrize("code", [errno.EBUSY, errno.EXDEV])
def test_a_target_that_cannot_be_replaced_is_rewritten_in_place(tmp_path, monkeypatch,
                                                                capsys, code):
    """A file bind-mounted on its own refuses a rename onto it (simulated)."""
    out = tmp_path / "out.csv"
    out.write_bytes(b"an earlier table\n")
    inode = out.stat().st_ino

    def refused(source, target):
        raise OSError(code, os.strerror(code), source, target)
    monkeypatch.setattr(os, "replace", refused)
    assert main([*BLOCKS_SWEEP, "--out", str(out)]) == 0
    monkeypatch.undo()
    assert main([*BLOCKS_SWEEP, "--out", "-"]) == 0
    assert out.read_bytes().decode() in capsys.readouterr().out
    assert out.stat().st_ino == inode
    assert not staged_files(tmp_path)


def test_a_rename_refused_for_another_reason_is_one_error_line(tmp_path, monkeypatch,
                                                               capsys):
    """A rename refused with an errno other than EBUSY or EXDEV (EACCES,
    simulated) is not worked round: the error names the target, which keeps
    its bytes and inode, and the staged file is removed."""
    out = tmp_path / "out.csv"
    out.write_bytes(b"an earlier table\n")
    inode = out.stat().st_ino

    def refused(source, target):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), source, target)
    monkeypatch.setattr(os, "replace", refused)
    assert main(["sweep", "--tau", "0,1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: cannot write {str(out)!r}: "
                                       f"[Errno 13] Permission denied: {str(out)!r}\n")
    assert out.read_bytes() == b"an earlier table\n"
    assert out.stat().st_ino == inode
    assert not staged_files(tmp_path)


def test_a_target_in_a_symlink_loop_is_one_error_line(tmp_path, monkeypatch, capsys):
    """A link that leads back to itself is followed no further than the
    link limit, then opened as given: the kernel's ELOOP is the error, the
    link is kept and no staged file is left."""
    monkeypatch.chdir(tmp_path)
    os.symlink("loop.csv", "loop.csv")
    assert main(["sweep", "--tau", "0,1", "--out", "loop.csv"]) == 2
    assert capsys.readouterr().err == ("error: cannot write 'loop.csv': [Errno 40] Too "
                                       "many levels of symbolic links: 'loop.csv'\n")
    assert os.readlink("loop.csv") == "loop.csv"
    assert os.listdir() == ["loop.csv"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_figure_pair_names_the_first_file_when_it_fails(tmp_path, capsys):
    """fig_gamma1.csv leads to /dev/full, so its first write fails: the error
    names it, not the fig_gamma10.csv sink it passes on its way out, and
    fig_gamma10.csv is not made."""
    (tmp_path / "fig_gamma1.csv").symlink_to("/dev/full")
    before = listing(tmp_path)
    assert main(["figure", "--id", "1", "--out", str(tmp_path / "fig.csv"),
                 "--tau-points", "4", "--theta-points", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: cannot write {str(tmp_path / 'fig_gamma1.csv')!r}: "
                   "[Errno 28] No space left on device\n")
    assert listing(tmp_path) == before


# ---------------------------------------------------------------------------
# preset


def test_preset_document_output(capsys):
    assert main(["preset"]) == 0
    doc = capsys.readouterr().out
    assert "name = electron" in doc
    assert "beta = 2.43478e+48" in doc
    assert "annotation.omega_reading = angular" in doc


@pytest.mark.parametrize("reading", ["angular", "cyclic"])
def test_preset_out_file_and_stdout_write_the_document(tmp_path, capsys, reading):
    doc = physics_config.preset_to_document(electron_preset(reading))
    path = tmp_path / "preset.txt"
    assert main(["preset", "--omega-reading", reading, "--out", str(path)]) == 0
    assert path.read_bytes() == doc.encode()
    assert capsys.readouterr().out == f"preset: wrote {path}\n"
    assert main(["preset", "--omega-reading", reading, "--out", "-"]) == 0
    assert capsys.readouterr().out == doc


# ---------------------------------------------------------------------------
# tools/compare_outputs.py, the byte-identity check between two trees

COMPARE_OUTPUTS = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


def test_compare_outputs_finds_a_tree_equal_to_itself():
    done = subprocess.run([sys.executable, str(COMPARE_OUTPUTS), "--parent",
                           str(COMPARE_OUTPUTS.parent.parent), "--only", "preset_stdout",
                           "bad_sweep_nan"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == ["same  preset_stdout  (exit 0)",
                                        "same  bad_sweep_nan  (exit 2)",
                                        "2 of 2 commands byte-identical"]


def test_compare_outputs_names_each_difference(monkeypatch):
    spec = importlib.util.spec_from_file_location("compare_outputs", COMPARE_OUTPUTS)
    tool = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tool)  # its dataclasses look it up
    spec.loader.exec_module(tool)
    base = tool.Result(0, b"out", b"", {"a.csv": b"1\n", "b.csv": b"2\n"})
    assert tool.differences(base, base) == []
    other = tool.Result(2, b"out", b"error: x\n", {"a.csv": b"1\n", "c.csv": b"3\n"})
    assert tool.differences(base, other) == ["code", "stderr", "file b.csv", "file c.csv"]
