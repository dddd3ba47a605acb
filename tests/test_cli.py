"""CLI behavior: exit codes, CSV schemas, determinism, config handling."""

import csv
import math

import pytest

from gupsqueeze import analytic
from gupsqueeze.analytic import variance_record
from gupsqueeze.cli import main
from gupsqueeze.physics_config import CoherentAmplitude


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
    with pytest.raises(SystemExit, match="cannot write"):
        main(["figure", "--id", "1", "--gamma", "1",
              "--out", "/nonexistent-dir/fig.csv",
              "--tau-points", "4", "--theta-points", "4"])


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
    real = analytic.uncertainty_product

    def faulty(*args, **kwargs):
        product, bound = real(*args, **kwargs)
        return product + 1e-6, bound

    monkeypatch.setattr(analytic, "uncertainty_product", faulty)
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


def test_sweep_jobs_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GUPSQUEEZE_JOBS", "2")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--tau", "0.5,1.0", "--gamma", "0.5",
                 "--theta", "0", "--g", "1e-6", "--out", str(out)]) == 0
    assert "jobs=2" in capsys.readouterr().out


def test_sweep_flags_validity_column(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    # secular scale: 0.5 * 25 * 2 = 25 > 10 -> invalid; 0.05*25*2 = 2.5 -> warn
    assert main(["sweep", "--tau", "25.0", "--gamma", "1.0", "--theta", "0",
                 "--g", "1e-8,0.05,0.5", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [r[-1] for r in rows] == ["ok", "warn", "invalid"]


def test_sweep_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("tau = 1.0\nbananas = 3\n")
    with pytest.raises(SystemExit, match="invalid config keys: bananas"):
        main(["sweep", "--config", str(config)])


def test_sweep_rejects_conflicting_axis_spec(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("tau = 1.0\ntau_min = 0\ntau_max = 1\ntau_points = 3\n")
    with pytest.raises(SystemExit, match="not both"):
        main(["sweep", "--config", str(config)])


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
# bad input


@pytest.mark.parametrize("argv, config", [
    (["oracle-compare", "--g-step", "0", "--tau", "0.5"], None),
    (["oracle-compare", "--dim", "1"], None),
    (["sweep", "--tau", "abc"], None),
    (["sweep"], "tau = 1.0\njobs = two\n"),
], ids=["g-step-zero", "dim-one", "tau-not-numeric", "config-jobs-not-integer"])
def test_bad_input_is_one_error_line_and_exit_2(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "sweep.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# preset


def test_preset_document_output(capsys):
    assert main(["preset"]) == 0
    doc = capsys.readouterr().out
    assert "name = electron" in doc
    assert "beta = 2.43478e+48" in doc
    assert "annotation.omega_reading = angular" in doc
