"""CLI behavior: exit codes, CSV schemas, determinism, config handling."""

import contextlib
import csv
import io
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gupsqueeze import analytic, cli, fock_oracle, physics_config
from gupsqueeze.analytic import variance_record
from gupsqueeze.cli import FIGURE3_COLUMNS, SWEEP_COLUMNS, main
from gupsqueeze.fock_oracle import (
    ORACLE_QUANTITIES, FockSpace, fock_dim_for, oracle_slopes,
)
from gupsqueeze.physics_config import (
    CoherentAmplitude, ConfigError, PhysicalParams, electron_preset, to_natural,
)


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
    assert "truncation audit FAILED" in capsys.readouterr().err


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


@pytest.mark.parametrize("which", [1, 2])
def test_figure_surface_bytes_follow_the_format(tmp_path, capsys, which):
    out = tmp_path / "fig.csv"
    assert main(["figure", "--id", str(which), "--gamma", "1.5", "--tau-max", "3.0",
                 "--tau-points", "4", "--theta-points", "3", "--out", str(out)]) == 0
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
    text = capsys.readouterr().out
    assert text.startswith(expected_csv(FIGURE3_COLUMNS, rows))
    assert text.count("\n") == len(rows) + 2  # table, then the "wrote" line


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
    assert capsys.readouterr().out.startswith(expected_csv(header, rows))


def kernel_text(values) -> list[str]:
    """What the writer's float kernel renders for each value, NULs dropped;
    short inputs are tiled so that the vectorised path, not the one-by-one
    path for small blocks, renders them."""
    values = np.asarray(values, dtype=np.float64)
    tiled = np.tile(values, -(-cli._KERNEL_MIN_VALUES // len(values)))
    return [row.tobytes().replace(b"\0", b"").decode()
            for row in cli._e16_fields(tiled)[:len(values)]]


def float_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


POWERS_OF_TEN = [float(f"1e{k}") for k in range(-323, 309)]


@settings(max_examples=500, deadline=None)
@given(x=st.integers(0, 2 ** 64 - 1).map(float_from_bits))
@example(x=1000000000000000.25)  # an exact decimal tie: rounds half-even
@example(x=1e23)
@example(x=1e-14)  # its 17 digits round up to 10**17: the carry
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


@pytest.mark.parametrize("to_file", [False, True])
def test_write_table_spans_row_blocks(tmp_path, capsys, to_file):
    n = 2 * cli._BLOCK_ROWS + 1
    rng = np.random.default_rng(3)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    x[:6] = [0.0, -0.0, math.inf, -math.nan, 5e-324, 1000000000000000.25]
    y = np.linspace(-1.0, 1.0, n)
    labels = [("ok", "warn", "invalid", "", "\u03b8")[i % 5] for i in range(n)]
    out = str(tmp_path / "table.csv") if to_file else "-"
    cli._write_table(out, ("x", "label", "y"), (x, labels, y))
    assert written(out, capsys) == expected_csv(
        ("x", "label", "y"), zip(x.tolist(), labels, y.tolist()))


# 4165 rows, so three blocks; every axis is shorter than the kernel's minimum
OPEN_SHAPE = (17, 5, 7, 7)


def open_axis(values, axis, ndim):
    """values laid along one axis of an ndim-dimensional open grid."""
    return np.reshape(values, [-1 if d == axis else 1 for d in range(ndim)])


def write_both_ways(tmp_path, capsys, to_file, header, columns) -> tuple[str, str]:
    """The table as given, then as dense 1-D columns, each as written."""
    shape = np.broadcast_shapes(*(np.shape(col) for col in columns))
    dense = [np.broadcast_to(col, shape).ravel() for col in columns]
    texts = []
    for name, cols in (("open", columns), ("dense", dense)):
        out = str(tmp_path / f"{name}.csv") if to_file else "-"
        cli._write_table(out, header, cols)
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
    labels = np.array(["ok", "warn", "invalid", "\u03b8"])[rng.integers(0, 4, OPEN_SHAPE)]
    open_labels = open_axis(["a", "", "bb", "c", "\u03b8"], 1, 4)
    header = ("tau", "label", "gamma", "theta", "full", "g", "open_label")
    table = (columns[0], labels, columns[1], columns[2], full, columns[3], open_labels)
    rendered = []
    real = cli._e16_fields
    monkeypatch.setattr(cli, "_e16_fields",
                        lambda x: (rendered.append(np.size(x)), real(x))[1])
    got, want = write_both_ways(tmp_path, capsys, to_file, header, table)
    assert got == want
    rows = math.prod(OPEN_SHAPE)
    assert want.count("\n") == rows + 1
    # the open table renders each axis value once, the dense one every cell
    assert sum(rendered) == sum(OPEN_SHAPE) + rows + 5 * rows
    assert want == expected_csv(header, zip(*(np.broadcast_to(c, OPEN_SHAPE).ravel().tolist()
                                              for c in table)))


@pytest.mark.parametrize("to_file", [False, True])
def test_write_table_takes_a_figure_shaped_table(tmp_path, capsys, to_file):
    # 120 taus go through the vector kernel, 40 thetas one by one
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
    real_table, real_fields = analytic._phase_table, cli._e16_fields
    monkeypatch.setattr(analytic, "_phase_table",
                        lambda tau: (tables.append(np.size(tau)), real_table(tau))[1])
    monkeypatch.setattr(cli, "_e16_fields",
                        lambda x: (rendered.append(np.size(x)), real_fields(x))[1])
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    assert tables and set(tables) == {25}
    assert sum(rendered) == 7 * 10 ** 4 + 48
    assert out.read_bytes().count(b"\n") == 10 ** 4 + 1


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
    (["figure", "--id", "1", "--out", "-"], None, "--out - needs --gamma"),
    (["figure", "--id", "2", "--tau-points", "4", "--theta-points", "4", "--out", "-"],
     None, "--out - needs --gamma"),
    (["uncertainty-check", "--g-max=-1"], None, "--g-max must be > 0"),
    (["uncertainty-check", "--g-max", "0"], None, "--g-max must be > 0"),
    (["uncertainty-check", "--tol", "nan"], None, "--tol must be finite"),
    (["uncertainty-check", "--tol=-1"], None, "--tol must be finite and > 0"),
    (["uncertainty-check", "--tol", "0"], None, "--tol must be finite and > 0"),
    (["oracle-compare", "--tol=-1"], None, "--tol must be > 0"),
    (["oracle-compare", "--tol", "0"], None, "--tol must be > 0"),
], ids=["dim-one", "tau-not-numeric", "config-jobs-is-unknown",
        "config-unknown-key", "config-list-and-triple", "config-partial-triple",
        "config-triple-not-numeric", "config-one-point", "config-empty-axis",
        "theta-double-dash",
        "config-partial-si", "config-si-not-numeric", "config-negative-hbar",
        "config-malformed-line", "config-unreadable", "gamma-negative",
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
        "figure-1-default-gammas-to-stdout", "figure-2-default-gammas-to-stdout",
        "uncertainty-check-g-max-negative", "uncertainty-check-g-max-zero",
        "uncertainty-check-tol-nan", "uncertainty-check-tol-negative",
        "uncertainty-check-tol-zero", "oracle-tol-negative", "oracle-tol-zero"])
def test_bad_input_is_one_error_line_and_exit_2(tmp_path, monkeypatch, capsys, argv,
                                                 config, message):
    monkeypatch.chdir(tmp_path)  # figures 1-2 would suffix "-" into the cwd
    if config is not None:
        Path("input.cfg").write_text(config)
        argv = argv + ["--preset" if argv[0] == "figure" else "--config", "input.cfg"]
    if argv[0] != "uncertainty-check" and "--out" not in argv:
        argv = argv + ["--out", "out.csv"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert message in err
    assert sorted(os.listdir()) == (["input.cfg"] if config is not None else [])


def run_quietly(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


numbers = st.floats(allow_nan=True, allow_infinity=True).map(repr)
axis_strings = st.one_of(
    st.text(alphabet="0123456789.,-+eE_ nainf", max_size=12),
    st.lists(numbers, min_size=1, max_size=3).map(",".join))


@settings(max_examples=200, deadline=None)
@given(axes=st.tuples(*[axis_strings] * 4))
def test_sweep_axis_fuzz_exits_0_or_2(axes):
    argv = ["sweep", "--out", os.devnull]
    argv += [f"--{name}={value}"
             for name, value in zip(("tau", "gamma", "theta", "g"), axes)]
    code, err = run_quietly(argv)
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: ")
        assert err.count("\n") == 1


@settings(max_examples=100, deadline=None)
@given(fig=st.sampled_from(["1", "2"]), gamma=st.one_of(st.none(), numbers),
       tau_max=numbers)
@example(fig="1", gamma=None, tau_max="2.2975366850929185e+306")  # gamma 1 finite, 10 not
def test_figure_argv_fuzz_exits_0_or_2(fig, gamma, tau_max):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["figure", "--id", fig, f"--tau-max={tau_max}", "--tau-points", "3",
                "--theta-points", "2", "--out", os.path.join(tmp, "out.csv")]
        if gamma is not None:
            argv.append(f"--gamma={gamma}")
        code, err = run_quietly(argv)
        assert code in (0, 2)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not os.listdir(tmp)


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
