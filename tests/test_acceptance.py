"""Acceptance suite: the package's exit criteria.

Each test enforces one criterion at its stated tolerance and prints a
PASS/FAIL line (visible under ``pytest -s`` or with ``-rP``).  Tolerances are
pinned here, not deferred; the oracle quantities, grids and budgets are the
contract for this package.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gupsqueeze.analytic import (
    analytic_slopes, deformed_variances, quadrature_variances,
    squeezing_deltas, squeezing_region_scan, uncertainty_product,
)
from gupsqueeze.boson_algebra import (
    A, A3, A_DAG, A_DAG2_A, A_DAG3, A_DAG_A2, ComplexRational,
    OperatorPolynomial, bch_bodies, hamiltonian_polynomial,
    verify_bch_collection,
)
from gupsqueeze.cli import main
from gupsqueeze.fock_oracle import (
    ORACLE_QUANTITIES, fock_dim_for, oracle_slopes, oracle_variances,
)
from gupsqueeze.physics_config import (
    CoherentAmplitude, PhysicalParams, electron_preset, to_natural,
)

F = Fraction


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {name}: {'PASS' if passed else 'FAIL'}{tail}")
    assert passed, f"criterion {number} failed: {name} {tail}"


# ---------------------------------------------------------------------------
# 1. exact coefficient-collection verification through order 12


# Reference coefficient tables for nesting depths 1..5, as commonly
# tabulated.  One entry is known to disagree with the exact algebra; the
# engine is ground truth and the discrepancy is documented here rather
# than silently patched.
REFERENCE_TABLES = {
    1: {A: F(-1), A_DAG: F(1), A3: F(1, 3), A_DAG3: F(-1, 3),
        A_DAG_A2: F(-1), A_DAG2_A: F(1)},
    2: {A: F(2), A3: F(-4, 3), A_DAG3: F(-4, 3), A_DAG_A2: F(2)},
    3: {A: F(-3), A_DAG: F(1), A3: F(13, 3), A_DAG3: F(-7, 3),
        A_DAG_A2: F(-3), A_DAG2_A: F(1)},
    4: {A: F(4), A3: F(-40, 3), A_DAG3: F(-20, 3), A_DAG_A2: F(4)},
    5: {A: F(-5), A_DAG: F(1), A3: F(121, 3), A_DAG3: F(-61, 3),
        A_DAG_A2: F(-5), A_DAG2_A: F(1)},
}

# (depth, monomial) -> (tabulated value, engine value): the tabulated entry
# contradicts the closed-form general term -(3^k - (-1)^k)/12
DOCUMENTED_TABLE_ERRATA = {
    (2, A_DAG3): (F(-4, 3), F(-2, 3)),
}


def test_criterion_1_bch_verification():
    start = time.perf_counter()
    result = verify_bch_collection(12)
    h = hamiltonian_polynomial()
    a = OperatorPolynomial.monomial(A)
    bodies = list(bch_bodies(max(REFERENCE_TABLES), h, a))
    table_ok = True
    for depth, table in REFERENCE_TABLES.items():
        engine = {mono: c1 for mono, (_, c1) in bodies[depth].terms.items() if c1}
        for mono, tabulated in table.items():
            got = engine.pop(mono, ComplexRational())
            if (depth, mono) in DOCUMENTED_TABLE_ERRATA:
                _, corrected = DOCUMENTED_TABLE_ERRATA[(depth, mono)]
                table_ok &= got == ComplexRational(corrected)
            else:
                table_ok &= got == ComplexRational(tabulated)
        table_ok &= not engine  # no extra monomials beyond the table
    elapsed = time.perf_counter() - start
    report(1, "coefficient series vs closed forms through order 12",
           result.all_passed and table_ok and elapsed < 10.0,
           f"{elapsed:.2f}s; reference-table errata: "
           f"{len(DOCUMENTED_TABLE_ERRATA)} documented")


# ---------------------------------------------------------------------------
# 2. canonical limit at beta = 0


def test_criterion_2_canonical_limit():
    worst = 0.0
    for gamma in (0.0, 1.0, 2.0):
        amp = CoherentAmplitude(gamma=gamma, theta=0.6)
        for tau in np.linspace(0.0, 20.0, 11):
            v = oracle_variances(float(tau), amp, PhysicalParams.natural(0.0))
            worst = max(worst,
                        abs(v["var_x1"] - 0.25), abs(v["var_x2"] - 0.25),
                        abs(v["var_x_hat"] - 0.5), abs(v["var_p_hat"] - 0.5))
            q = quadrature_variances(float(tau), 0.0, amp, strict=False)
            assert (q.var_x1, q.var_x2) == (0.25, 0.25)
            assert deformed_variances(float(tau), 0.0, amp, strict=False) \
                == (0.5, 0.5)
    report(2, "all variances canonical at beta = 0 over tau in [0, 20]",
           worst < 1e-9, f"worst oracle deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. minimum-uncertainty identity on a 10^4-point grid


def test_criterion_3_minimum_uncertainty_identity():
    taus = np.linspace(0.0, 12.0, 10)
    gammas = np.linspace(0.0, 2.0, 10)
    thetas = np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)
    gs = np.logspace(-8, -2, 10)
    worst = 0.0
    for tau in taus:
        for gamma in gammas:
            for theta in thetas:
                amp = CoherentAmplitude(gamma=float(gamma), theta=float(theta))
                for g in gs:
                    product, bound = uncertainty_product(
                        float(tau), float(g), amp, strict=False)
                    worst = max(worst, abs(product - bound))
    n = len(taus) * len(gammas) * len(thetas) * len(gs)
    report(3, f"product equals deformed bound on {n}-point grid",
           worst < 1e-12, f"worst |product - bound| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. quadrature product stays minimal through first order


def test_criterion_4_quadrature_coherence():
    worst_exponent = math.inf
    for tau, gamma, theta in ((1.0, 0.0, 0.0), (2.3, 1.0, 0.7), (5.1, 2.0, 2.9)):
        amp = CoherentAmplitude(gamma=gamma, theta=theta)

        def residual(g: float) -> float:
            q = quadrature_variances(tau, g, amp, strict=False)
            return q.var_x1 * q.var_x2 - 1.0 / 16.0

        g = 1e-3
        exponent = math.log2(abs(residual(g) / residual(g / 2.0)))
        worst_exponent = min(worst_exponent, exponent)
    report(4, "quadrature product deviates from 1/16 at second order only",
           worst_exponent >= 1.9, f"fitted exponent >= {worst_exponent:.3f}")


# ---------------------------------------------------------------------------
# 5. oracle agreement on the standard grid


def test_criterion_5_oracle_agreement():
    start = time.perf_counter()
    worst = 0.0
    worst_at = None
    for gamma in (0.0, 1.0, 2.0):
        for theta in (0.0, math.pi / 4.0, math.pi / 2.0):
            amp = CoherentAmplitude(gamma=gamma, theta=theta)
            dim = fock_dim_for(amp)
            for tau in (0.5, 1.0, 2.0, 4.0, 6.0):
                slopes_a = analytic_slopes(tau, amp)
                slopes_o = oracle_slopes(tau, amp)
                for q in ORACLE_QUANTITIES:
                    assert slopes_o[q].converged, (gamma, theta, tau, q)
                    rel = abs(slopes_a[q] - slopes_o[q].slope) / max(
                        abs(slopes_a[q]), abs(slopes_o[q].slope), 1e-300)
                    if rel > worst:
                        worst, worst_at = rel, (gamma, theta, tau, q, dim)
    elapsed = time.perf_counter() - start
    report(5, "analytic first-order slopes match Fock-oracle differences",
           worst < 1e-3 and elapsed < 120.0,
           f"worst rel err {worst:.2e} at {worst_at}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. squeezing exists where claimed


def test_criterion_6_squeezing_existence():
    surfaces_ok = True
    for gamma in (1.0, 10.0):
        scan = squeezing_region_scan(gamma)
        surfaces_ok &= scan.any_negative_x and scan.any_negative_p
        surfaces_ok &= scan.delta_x.min() < 0.0 and scan.delta_p.min() < 0.0

    preset = electron_preset()
    params, amp = preset.params, preset.amplitude
    _, factors = to_natural(params)
    canonical_product = factors.product / 4.0
    product_above = True
    for tau in np.linspace(0.0, 4.0 * math.pi, 200):
        product, _ = uncertainty_product(float(tau), params.g, amp,
                                         params=params, strict=False)
        product_above &= product > canonical_product
    report(6, "negative squeezing cells at gamma 1 and 10; product curve "
              "always above canonical", surfaces_ok and product_above)


# ---------------------------------------------------------------------------
# 7. closed-form spot values


def test_criterion_7_spot_values():
    g = 1e-4
    vacuum = CoherentAmplitude()
    worst = 0.0
    for tau in np.linspace(0.0, 10.0, 41):
        q = quadrature_variances(float(tau), g, vacuum)
        s2 = math.sin(float(tau)) ** 2
        worst = max(worst,
                    abs(q.var_x1 - (0.25 + 0.5 * g * s2)),
                    abs(q.var_x2 - (0.25 - 0.5 * g * s2)))
    params = PhysicalParams(mass=2.0, omega=1.5, hbar=0.7, beta=1e-6)
    _, d_p, _ = squeezing_deltas(math.pi / 2.0, params.g, vacuum, params=params)
    expected_dp = -params.hbar ** 2 * params.mass ** 2 * params.omega ** 2 \
        * params.beta / 2.0
    dp_ok = d_p == pytest.approx(expected_dp, rel=1e-12)
    report(7, "vacuum-amplitude spot formulas (quadratures, momentum delta)",
           worst < 1e-12 and dp_ok, f"worst quadrature deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. electron preset


def test_criterion_8_electron_preset():
    preset = electron_preset()
    params, amp = preset.params, preset.amplitude
    g = params.g
    _, factors = to_natural(params)
    var_x0 = factors.x_var / 2.0
    var_p0 = factors.p_var / 2.0
    worst_ratio = 0.0
    for tau in np.linspace(0.0, 4.0 * math.pi, 100):
        d_x, d_p, _ = squeezing_deltas(float(tau), g, amp, params=params,
                                       strict=False)
        worst_ratio = max(worst_ratio, abs(d_x) / var_x0, abs(d_p) / var_p0)
    report(8, "electron preset: tiny squeezing degree, bound honored",
           0.0 < g < 1e-3 and worst_ratio < 0.01 and preset.honors_beta0_bound(),
           f"g = {g:.3e}, worst delta/canonical = {worst_ratio:.2e}, "
           f"beta0(source precision) = {preset.beta0_at_source_precision():.6e}")


# ---------------------------------------------------------------------------
# 9. sweep determinism


def test_criterion_9_sweep_determinism(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "tau_min = 0.0\ntau_max = 12.0\ntau_points = 10\n"
        "gamma_min = 0.0\ngamma_max = 2.0\ngamma_points = 10\n"
        "theta_min = 0.0\ntheta_max = 6.0\ntheta_points = 10\n"
        "g = 1e-8,1e-7,1e-6,1e-5,1e-4,1e-3,2e-3,4e-3,6e-3,1e-2\n")
    out1 = tmp_path / "jobs1.csv"
    out4 = tmp_path / "jobs4.csv"
    assert main(["sweep", "--config", str(config), "--jobs", "1",
                 "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(config), "--jobs", "4",
                 "--out", str(out4)]) == 0
    identical = out1.read_bytes() == out4.read_bytes()
    with open(out1) as fh:
        n_rows = sum(1 for _ in fh) - 1
    with capsys.disabled():
        report(9, "sweep output byte-identical across parallelism degrees",
               identical and n_rows == 10_000, f"{n_rows} rows")
