"""Closed-form layer tests: evolved operators, variances, product/bound
identity, squeezing deltas, moment identities, validity policy."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gupsqueeze import analytic
from gupsqueeze.analytic import (
    ConsistencyError, SecularValidityError, SecularValidityWarning,
    analytic_slopes, coherent_expectation, deformed_variances,
    evolved_annihilation, evolved_ladder_polynomial, evolved_position_momentum,
    ladder_taylor_check, quadrature_moments, quadrature_polynomials,
    quadrature_variances, scaled_delta_p, scaled_delta_product, scaled_delta_x,
    secular_scale, squeezing_deltas, squeezing_region_scan,
    uncertainty_product, variance_grid, variance_record,
)
from gupsqueeze.boson_algebra import (
    A, A3, A_DAG, A_DAG2_A, A_DAG3, A_DAG_A2, OperatorPolynomial,
)
from gupsqueeze.physics_config import (
    CoherentAmplitude, ConfigError, PhysicalParams, VarianceRecord,
)

VACUUM = CoherentAmplitude()
SQRT_HALF = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# evolved annihilation operator


def test_evolved_annihilation_undeformed_limit():
    for tau in (0.0, 0.9, 4.2):
        ladder = evolved_annihilation(tau, 0.0)
        assert ladder[A] == pytest.approx(cmath.exp(-1j * tau), abs=1e-15)
        for mono in (A_DAG, A3, A_DAG3, A_DAG_A2, A_DAG2_A):
            assert ladder[mono] == 0.0


def test_evolved_annihilation_adag3_node_at_pi():
    # (e^{-i pi} - e^{3 i pi})/12 = 0
    ladder = evolved_annihilation(math.pi, 1.0, strict=False)
    assert abs(ladder[A_DAG3]) < 1e-15


def test_closed_forms_match_exact_taylor_resummation():
    # small tau: depth 12 already leaves the exact partial sums within 1e-12
    assert ladder_taylor_check(0.2, 12) < 1e-12
    # larger tau needs deeper collection (terms grow like (3 tau)^k / k!)
    assert ladder_taylor_check(2.0, 35) < 1e-12


def test_evolved_ladder_pairs_drift_and_sine_coefficients():
    ladder = evolved_annihilation(1.3, 1e-3)
    assert ladder[A_DAG] == ladder[A_DAG2_A]
    drift_part = ladder[A] - cmath.exp(-1j * 1.3)  # cancellation-limited
    assert drift_part == pytest.approx(ladder[A_DAG_A2], abs=1e-15)


def test_evolved_ladder_matches_evolved_matrix():
    """Operator-level check: the closed-form decomposition reconstructs the
    numerically evolved annihilation matrix up to O(g^2) on the leading
    block (residual quarters when g halves)."""
    from gupsqueeze.fock_oracle import (
        FockSpace, eigensystem, evolution_operator, hamiltonian, ladder_ops,
        monomial_matrix,
    )

    tau = 1.3
    space = FockSpace(40)
    a, _ = ladder_ops(space)
    half = space.dim // 2

    def residual(g: float) -> float:
        u = evolution_operator(
            eigensystem(hamiltonian(space, PhysicalParams.natural(g))), tau)
        evolved = u.conj().T @ a.matrix @ u
        ladder = evolved_annihilation(tau, g)
        rebuilt = sum(c * monomial_matrix(space, mono)
                      for mono, c in ladder.items())
        return float(abs((evolved - rebuilt)[:half, :half]).max())

    # remainder elements grow with level index, so only the g-scaling is a
    # sharp statement: halving g must quarter the residual
    r_full, r_half = residual(1e-4), residual(0.5e-4)
    assert r_full < 1e-4
    assert r_full / r_half == pytest.approx(4.0, rel=5e-2)


# ---------------------------------------------------------------------------
# secular validity policy


def test_secular_scale_value():
    assert secular_scale(2.0, 0.05, 1.0) == pytest.approx(0.2)


def test_secular_warning_emitted():
    with pytest.warns(SecularValidityWarning):
        quadrature_variances(4.0, 0.1, CoherentAmplitude(gamma=1.0))


@pytest.mark.parametrize("record", [
    variance_record, deformed_variances, uncertainty_product, squeezing_deltas])
def test_secular_warning_names_the_callers_file(record):
    with pytest.warns(SecularValidityWarning) as caught:
        record(1.0, 0.5, VACUUM)
    assert [w.filename for w in caught] == [__file__]


def test_secular_refusal():
    with pytest.raises(SecularValidityError):
        quadrature_variances(30.0, 1.0, CoherentAmplitude(gamma=1.0))


def test_strict_false_suppresses_policy():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quadrature_variances(30.0, 1.0, CoherentAmplitude(gamma=1.0), strict=False)


# ---------------------------------------------------------------------------
# quadrature variances


def test_quadrature_variances_undeformed():
    q = quadrature_variances(1.7, 0.0, CoherentAmplitude(gamma=2.0, theta=1.0))
    assert q.var_x1 == 0.25
    assert q.var_x2 == 0.25


def test_vacuum_quadrature_variances_closed_form():
    g = 1e-4
    for tau in (0.3, 1.0, math.pi / 2.0, 5.5):
        q = quadrature_variances(tau, g, VACUUM)
        assert q.var_x1 == pytest.approx(0.25 + 0.5 * g * math.sin(tau) ** 2,
                                         abs=1e-16)
        assert q.var_x2 == pytest.approx(0.25 - 0.5 * g * math.sin(tau) ** 2,
                                         abs=1e-16)


def test_quadrature_product_residual_is_second_order():
    amp = CoherentAmplitude(gamma=1.0, theta=0.4)
    tau = 1.2
    def residual(g):
        q = quadrature_variances(tau, g, amp)
        return q.var_x1 * q.var_x2 - 1.0 / 16.0
    g = 1e-3
    exponent = math.log2(abs(residual(g) / residual(g / 2.0)))
    assert exponent >= 1.9


def test_quadrature_reality_residual_small():
    worst = 0.0
    for tau in (0.5, 5.0, 20.0):
        for gamma in (0.0, 3.0, 10.0):
            for theta in (0.0, 1.1, 4.4):
                q = quadrature_variances(tau, 1.0,
                                         CoherentAmplitude(gamma=gamma, theta=theta),
                                         strict=False)
                worst = max(worst, q.residual_imag)
    assert worst < 1e-10


def test_quadrature_variances_match_polynomial_engine():
    """The literal bracket equals the mechanically derived coherent-state
    variance of X1, and X2's correction is its negation."""
    for tau in (0.4, 2.2, 7.9):
        x1, x2 = quadrature_polynomials(tau)
        for amp in (VACUUM, CoherentAmplitude(1.0, 0.7), CoherentAmplitude(2.0, 3.9)):
            v1_0, v1_1 = x1.variance_graded(amp.alpha)
            v2_0, v2_1 = x2.variance_graded(amp.alpha)
            g = 1e-3
            q = quadrature_variances(tau, g, amp, strict=False)
            assert q.var_x1 == pytest.approx(v1_0.real + g * v1_1.real, abs=1e-13)
            assert q.var_x2 == pytest.approx(v2_0.real + g * v2_1.real, abs=1e-13)
            # engine-level cancellation of the first-order corrections
            assert v1_1.real + v2_1.real == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# evolved position and momentum


def test_evolved_position_momentum_undeformed():
    x_t, p_t = evolved_position_momentum(1.1, 0.0)
    assert x_t.coefficient(A, 0.0) == pytest.approx(cmath.exp(-1.1j), abs=1e-15)
    assert x_t.coefficient(A_DAG, 0.0) == pytest.approx(cmath.exp(1.1j), abs=1e-15)
    assert p_t.coefficient(A, 0.0) == pytest.approx(-1j * cmath.exp(-1.1j), abs=1e-15)
    assert p_t.coefficient(A_DAG, 0.0) == pytest.approx(1j * cmath.exp(1.1j), abs=1e-15)


def test_evolved_operators_at_time_zero_are_initial_operators():
    """x(0) = x and p(0) = p + (beta/3) p^3 as polynomials, natural units."""
    params = PhysicalParams.natural(0.0)
    x_t, p_t = evolved_position_momentum(0.0, 0.5, params=params)
    x0 = OperatorPolynomial({A: (SQRT_HALF, 0.0), A_DAG: (SQRT_HALF, 0.0)})
    p0 = OperatorPolynomial({A: (-1j * SQRT_HALF, 0.0), A_DAG: (1j * SQRT_HALF, 0.0)})
    p0_cubed = p0 @ p0 @ p0
    expected_p = p0 + p0_cubed.scale(0.0, 1.0 / 3.0)  # + (g/3) p^3
    assert x_t.max_abs_diff(x0) < 1e-15
    assert p_t.max_abs_diff(expected_p) < 1e-15


def test_evolved_operators_consistent_with_ladder_construction():
    """The printed coefficient tables equal sqrt(2) X1 and
    sqrt(2)(X2 + (2/3) g X2^3) built from the evolved annihilation operator."""
    for tau in (0.7, 2.9, 6.1):
        x_t, p_t = evolved_position_momentum(tau, 0.3, strict=False)
        a_t = evolved_ladder_polynomial(tau)
        ad_t = a_t.adjoint()
        x_built = a_t + ad_t           # in units sqrt(hbar / 2 m w)
        x2 = (a_t - ad_t).scale(1.0 / 2.0j)
        x2_cubed = x2 @ x2 @ x2
        p_built = x2.scale(2.0) + x2_cubed.scale(0.0, 4.0 / 3.0)
        assert x_t.max_abs_diff(x_built) < 1e-12
        assert p_t.max_abs_diff(p_built) < 1e-12


def test_evolved_position_expectation_matches_oracle():
    from gupsqueeze.fock_oracle import (
        FockSpace, coherent_vector, deformed_ops, expect, hamiltonian,
        heisenberg_evolve,
    )

    g = 1e-5
    tau = 1.0
    amp = CoherentAmplitude(gamma=1.0, theta=0.0)
    params = PhysicalParams.natural(g)
    x_t, p_t = evolved_position_momentum(tau, g, params=params)
    space = FockSpace(60)
    h = hamiltonian(space, params)
    x_hat, p_hat = deformed_ops(space, params)
    state = coherent_vector(amp, space)
    x_oracle = expect(state, heisenberg_evolve(x_hat, h, tau)).real
    p_oracle = expect(state, heisenberg_evolve(p_hat, h, tau)).real
    assert coherent_expectation(x_t, amp, g).real == pytest.approx(
        x_oracle, abs=1e-3 * g)
    assert coherent_expectation(p_t, amp, g).real == pytest.approx(
        p_oracle, abs=1e-3 * g)


# ---------------------------------------------------------------------------
# coherent-state moments


def test_moments_reproduce_quadrature_variances():
    g = 2e-4
    for tau in (0.6, 3.3):
        for amp in (VACUUM, CoherentAmplitude(1.4, 2.2)):
            m = quadrature_moments(tau, g, amp)
            q = quadrature_variances(tau, g, amp)
            var1 = m.at("x1_sq", g) - m.at("x1_mean_sq", g)
            var2 = m.at("x2_sq", g) - m.at("x2_mean_sq", g)
            assert var1 == pytest.approx(q.var_x1, abs=1e-12)
            assert var2 == pytest.approx(q.var_x2, abs=1e-12)


def test_moments_match_polynomial_engine():
    """Each closed-form moment equals the graded engine expectation."""
    for tau in (0.5, 2.4, 8.8):
        x1, x2 = quadrature_polynomials(tau)
        for amp in (VACUUM, CoherentAmplitude(1.0, 0.9), CoherentAmplitude(2.5, 5.1)):
            a = amp.alpha
            m = quadrature_moments(tau, 0.0, amp, strict=False)
            x1sq = (x1 @ x1).expectation(a)
            x1mean = x1.expectation(a)
            x2sq = (x2 @ x2).expectation(a)
            x2mean = x2.expectation(a)
            for got, want in (
                (m.x1_sq, x1sq),
                (m.x1_mean_sq, (x1mean[0] ** 2, 2 * x1mean[0] * x1mean[1])),
                (m.x2_sq, x2sq),
                (m.x2_mean_sq, (x2mean[0] ** 2, 2 * x2mean[0] * x2mean[1])),
            ):
                assert got[0] == pytest.approx(want[0].real, abs=1e-12)
                assert got[1] == pytest.approx(want[1].real, abs=1e-11)
            assert m.residual_imag < 1e-11


def test_deformed_momentum_mean_square_engine_check():
    """p_hat^2 mean: 2<X2^2> + (8/3) g <X2^4> against the engine."""
    for tau in (0.8, 4.4):
        _, x2 = quadrature_polynomials(tau)
        x2_sq = x2 @ x2
        x2_quart = x2_sq @ x2_sq
        for amp in (VACUUM, CoherentAmplitude(1.7, 1.3)):
            a = amp.alpha
            m = quadrature_moments(tau, 0.0, amp, strict=False)
            sq = x2_sq.expectation(a)
            quart = x2_quart.expectation(a)
            want0 = 2.0 * sq[0].real
            want1 = 2.0 * sq[1].real + (8.0 / 3.0) * quart[0].real
            assert m.p_hat_sq[0] == pytest.approx(want0, abs=1e-12)
            assert m.p_hat_sq[1] == pytest.approx(want1, abs=1e-10)


def test_vacuum_moments_at_rest():
    m = quadrature_moments(0.0, 0.0, VACUUM)
    assert m.x1_sq[0] == pytest.approx(0.25, abs=1e-15)
    assert m.x1_mean_sq[0] == pytest.approx(0.0, abs=1e-15)
    assert m.p_hat_sq[0] == pytest.approx(0.5, abs=1e-15)
    # first-order stiffening of the vacuum momentum spread: <p^2> = 1/2 + g/2
    assert m.p_hat_sq[1] == pytest.approx(0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# deformed variances


def test_deformed_variances_undeformed_limits():
    var_x, var_p = deformed_variances(2.3, 0.0, VACUUM)
    assert (var_x, var_p) == (0.5, 0.5)
    params = PhysicalParams(mass=2.0, omega=0.5, hbar=3.0, beta=0.0)
    var_x, var_p = deformed_variances(2.3, 0.0, VACUUM, params=params)
    assert var_x == pytest.approx(params.hbar / (2 * params.mass * params.omega))
    assert var_p == pytest.approx(params.hbar * params.mass * params.omega / 2)


def test_vacuum_momentum_squeezed_at_quarter_period():
    g = 1e-4
    _, var_p = deformed_variances(math.pi / 2.0, g, VACUUM)
    assert var_p == pytest.approx(0.5 - 0.5 * g, abs=1e-16)


def test_deformed_variances_slopes_match_oracle():
    from gupsqueeze.fock_oracle import oracle_slopes

    amp = CoherentAmplitude(gamma=1.0, theta=math.pi / 4.0)
    tau = 2.0
    slopes = analytic_slopes(tau, amp)
    oracle = oracle_slopes(tau, amp)
    for q, s in slopes.items():
        assert s == pytest.approx(oracle[q], rel=1e-8)


# ---------------------------------------------------------------------------
# uncertainty product and bound


def test_uncertainty_product_undeformed():
    product, bound = uncertainty_product(1.0, 0.0, VACUUM)
    assert product == 0.25
    assert bound == 0.25


def test_uncertainty_product_vacuum_time_independent():
    g = 1e-3
    values = [uncertainty_product(tau, g, VACUUM)[0] for tau in (0.0, 1.0, 2.5, 9.0)]
    for v in values:
        assert v == pytest.approx(0.25 + 0.25 * g, abs=1e-16)


def test_uncertainty_product_real_amplitude_spot_value():
    # gamma=1, theta=0, tau=pi/2: bracket = 1 + 2(1 - cos(pi)) = 5
    g = 1e-4
    product, _ = uncertainty_product(math.pi / 2.0, g, CoherentAmplitude(gamma=1.0))
    assert product == pytest.approx(0.25 + 1.25 * g, abs=1e-16)
    params = PhysicalParams(mass=2.0, omega=3.0, hbar=1.5, beta=1e-5)
    product_si, _ = uncertainty_product(
        math.pi / 2.0, params.g, CoherentAmplitude(gamma=1.0), params=params)
    expected = params.hbar ** 2 / 4.0 + 1.25 * params.hbar ** 3 * params.mass \
        * params.omega * params.beta
    assert product_si == pytest.approx(expected, rel=1e-12)


def test_product_equals_bound_across_grid():
    worst = 0.0
    for tau in np.linspace(0.0, 12.0, 7):
        for gamma in (0.0, 1.0, 2.0):
            for theta in (0.0, 2.1):
                for g in (1e-8, 1e-4, 1e-2):
                    amp = CoherentAmplitude(gamma=gamma, theta=theta)
                    product, bound = uncertainty_product(
                        float(tau), g, amp, strict=False)
                    worst = max(worst, abs(product - bound))
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# squeezing deltas and scans


def test_vacuum_deltas_at_quarter_period():
    params = PhysicalParams(mass=1.7, omega=2.2, hbar=0.8, beta=1e-6)
    d_x, d_p, d_prod = squeezing_deltas(
        math.pi / 2.0, params.g, VACUUM, params=params)
    assert d_x == pytest.approx(params.hbar ** 2 * params.beta, rel=1e-12)
    assert d_p == pytest.approx(
        -params.hbar ** 2 * params.mass ** 2 * params.omega ** 2 * params.beta / 2.0,
        rel=1e-12)
    assert d_prod == pytest.approx(
        params.hbar ** 3 * params.mass * params.omega * params.beta / 4.0, rel=1e-12)


def test_delta_product_floor():
    g = 1e-5
    floor = 0.25 * g
    for tau in np.linspace(0.1, 11.0, 23):
        for gamma in (0.0, 1.0, 10.0):
            for theta in (0.0, 0.9, 5.2):
                amp = CoherentAmplitude(gamma=gamma, theta=theta)
                _, _, d_prod = squeezing_deltas(float(tau), g, amp, strict=False)
                assert d_prod >= floor - 1e-18


def test_position_delta_small_time_expansion():
    # leading behavior hbar^2 beta tau^2 at theta=0 (gamma-independent)
    params = PhysicalParams(mass=1.0, omega=1.0, hbar=1.0, beta=1e-6)
    tau = 1e-3
    d_x, _, _ = squeezing_deltas(tau, params.g, CoherentAmplitude(gamma=1.0),
                                 params=params)
    assert d_x > 0.0
    assert d_x == pytest.approx(params.hbar ** 2 * params.beta * tau ** 2, rel=1e-3)


def test_deltas_equal_variance_offsets():
    g = 3e-4
    amp = CoherentAmplitude(gamma=1.2, theta=2.7)
    for tau in (0.4, 5.0):
        d_x, d_p, d_prod = squeezing_deltas(tau, g, amp, strict=False)
        var_x, var_p = deformed_variances(tau, g, amp, strict=False)
        product, _ = uncertainty_product(tau, g, amp, strict=False)
        assert d_x == pytest.approx(var_x - 0.5, abs=1e-14)
        assert d_p == pytest.approx(var_p - 0.5, abs=1e-14)
        assert d_prod == pytest.approx(product - 0.25, abs=1e-14)


def test_region_scan_squeezing_structure():
    scan1 = squeezing_region_scan(1.0)
    assert scan1.any_negative_x and scan1.any_negative_p
    scan0 = squeezing_region_scan(0.0)
    assert not scan0.any_negative_x     # 2 sin^2(tau) >= 0
    assert scan0.any_negative_p         # 2 cos(2 tau) dips below zero
    scan10 = squeezing_region_scan(10.0)
    assert scan10.any_negative_x and scan10.any_negative_p
    assert scan10.delta_x.min() < scan1.delta_x.min()


def test_region_scan_resolution_guard():
    with pytest.raises(ValueError):
        squeezing_region_scan(1.0, resolution=(1, 50))


def test_scaled_delta_vectorization():
    tau = np.linspace(0.0, 2.0, 5)
    theta = np.zeros(5)
    x = scaled_delta_x(tau, theta, 1.0)
    p = scaled_delta_p(tau, theta, 1.0)
    prod = scaled_delta_product(tau, theta, 1.0)
    assert x.shape == p.shape == prod.shape == (5,)
    assert x[0] == pytest.approx(0.0, abs=1e-15)
    assert p[0] == pytest.approx(2.0, abs=1e-15)   # 2 + gamma^2 (4 - 3 - 1 + 0)
    assert prod[0] == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# variance record assembly


def test_variance_record_invariants():
    g = 1e-4
    rec = variance_record(1.5, g, CoherentAmplitude(gamma=1.0, theta=0.3))
    assert rec.product >= rec.gup_bound - 1e-12
    assert rec.delta_product >= 0.0
    assert rec.secular == pytest.approx(secular_scale(1.5, g, 1.0))
    assert rec.g == g and rec.tau == 1.5


def test_variance_record_si_units():
    params = PhysicalParams(mass=3.0, omega=0.7, hbar=2.0, beta=1e-7)
    amp = CoherentAmplitude(gamma=0.5, theta=1.0)
    rec = variance_record(2.0, params.g, amp, params=params)
    nat = variance_record(2.0, params.g, amp)
    assert rec.var_x_hat == pytest.approx(
        nat.var_x_hat * params.hbar / (params.mass * params.omega), rel=1e-14)
    assert rec.product == pytest.approx(
        nat.product * params.hbar ** 2, rel=1e-14)


def test_variance_record_rejects_non_finite_input():
    for fn in (variance_record, uncertainty_product):
        for tau, g in ((math.nan, 1e-4), (1.0, math.inf)):
            with pytest.raises(ConfigError, match="finite"):
                fn(tau, g, CoherentAmplitude(gamma=1.0), strict=False)


# ---------------------------------------------------------------------------
# the record kernel and its cross-audits


# the momentum audit sums terms of ~236 to |var_p| = 0.63 here, so its two
# routes differ by cancellation error of order 1e-12
PROBE_POINT = (10.105263157894736, 3.0, 0.6666666666666666, 5.0)
ORDINARY_POINT = (1.3, 1.0, 0.4, 0.05)
RECORD_FIELDS = list(VarianceRecord.__dataclass_fields__)


def test_variance_grid_broadcasts_and_keeps_grid_order():
    tau = np.linspace(0.0, 3.0, 4)
    grid = variance_grid(tau[:, None], 1.0, 0.3, np.array([1e-4, 1e-3]))
    assert list(grid) == RECORD_FIELDS
    assert all(col.shape == (4, 2) for col in grid.values())
    rec = variance_record(tau[2], 1e-3, CoherentAmplitude(gamma=1.0, theta=0.3))
    assert grid["var_p_hat"][2, 1] == rec.var_p_hat


def test_momentum_audit_scales_with_the_summed_magnitude(monkeypatch):
    """Noise of 3e-12 on var_p is rounding level against terms of ~236."""
    real = analytic._p_correction
    g = PROBE_POINT[3]
    monkeypatch.setattr(analytic, "_p_correction",
                        lambda *args: real(*args) + 3e-12 / g)
    grid = variance_grid(*PROBE_POINT)
    assert grid["secular"] > analytic.SECULAR_REFUSE


def test_momentum_audit_catches_a_relative_perturbation(monkeypatch):
    real = analytic._p_correction
    monkeypatch.setattr(analytic, "_p_correction",
                        lambda *args: real(*args) * (1.0 + 1e-9))
    with pytest.raises(ConsistencyError, match="momentum variance routes disagree "
                                               r"at \(tau, gamma, theta, g\) = \(1\.3, "):
        variance_grid(*ORDINARY_POINT)


def test_audit_names_the_first_failing_point_in_grid_order(monkeypatch):
    real = analytic.scaled_delta_x
    monkeypatch.setattr(analytic, "scaled_delta_x",
                        lambda tau, theta, gamma: real(tau, theta, gamma) * (1.0 + 1e-6))
    first = r"delta_x routes disagree at .* = \(0\.5, 0\.0, 0\.0, 0\.01\)"
    with pytest.raises(ConsistencyError, match=first):
        variance_grid(np.array([0.0, 0.5, 1.0]), 0.0, 0.0, 0.01)


def test_variance_grid_rejects_bad_points_by_name():
    with pytest.raises(ConfigError, match=r"\(1\.0, -1\.0, 0\.0, 0\.001\)"):
        variance_grid([0.5, 1.0], [0.0, -1.0], 0.0, 1e-3)
    with pytest.raises(ConfigError, match="float range"):
        variance_grid(1.0, 1e200, 0.0, 1.0)


# ---------------------------------------------------------------------------
# property tests

taus = st.floats(-50.0, 50.0)
gammas = st.floats(0.0, 10.0)
thetas = st.floats(-10.0, 10.0)
gs = st.floats(-1.0, 1.0)
units = st.one_of(st.none(), st.builds(
    PhysicalParams, mass=st.floats(0.1, 10.0), omega=st.floats(0.1, 10.0),
    hbar=st.floats(0.1, 10.0)))


def _with_point(values, value, position):
    """values with value inserted at position (wrapped), and its index."""
    index = position % (len(values) + 1)
    return values[:index] + [value] + values[index:], index


@settings(max_examples=150, deadline=None)
@given(point=st.tuples(taus, gammas, thetas, gs),
       axes=st.tuples(*(st.lists(s, max_size=3) for s in (taus, gammas, thetas, gs))),
       positions=st.tuples(*[st.integers(0, 3)] * 4), params=units)
def test_record_equals_grid_bit_for_bit(point, axes, positions, params):
    axes, index = zip(*(_with_point(*args) for args in zip(axes, point, positions)))
    grid = variance_grid(*np.meshgrid(*axes, indexing="ij"), params=params)
    tau, gamma, theta, g = point
    rec = variance_record(tau, g, CoherentAmplitude(gamma=gamma, theta=theta),
                          params=params, strict=False)
    want = np.array([getattr(rec, name) for name in RECORD_FIELDS])
    got = np.array([grid[name][index] for name in RECORD_FIELDS])
    assert got.tobytes() == want.tobytes()


def _grid_outcome(axes, params, sparse):
    """The grid's columns as bytes, or the error it raises, by type and text."""
    try:
        grid = variance_grid(*np.meshgrid(*axes, indexing="ij", sparse=sparse),
                             params=params)
    except (ConfigError, ConsistencyError) as exc:
        return type(exc), str(exc)
    shape = tuple(map(len, axes))
    assert all(col.shape == shape for col in grid.values())
    return {name: np.ascontiguousarray(col).tobytes() for name, col in grid.items()}


# every axis 1-4 values long, -0.0 among the draws
open_axes = st.tuples(*(st.lists(s | st.just(-0.0), min_size=1, max_size=4)
                        for s in (taus, gammas, thetas, gs)))


@settings(max_examples=150, deadline=None)
@given(axes=open_axes, params=units)
def test_open_axes_equal_dense_axes_bit_for_bit(axes, params):
    dense = _grid_outcome(axes, params, sparse=False)
    assert isinstance(dense, dict)
    assert _grid_outcome(axes, params, sparse=True) == dense


@settings(max_examples=100, deadline=None)
@given(axes=open_axes, positions=st.tuples(*[st.integers(0, 4)] * 4), params=units)
def test_open_axes_name_the_same_first_failing_point(axes, positions, params):
    # a negative gamma raises the ConfigError; with the momentum correction
    # perturbed, the ordinary point fails the audit
    bad_gamma = (axes[0], _with_point(axes[1], -1.0, positions[1])[0], *axes[2:])
    failing = tuple(_with_point(*args)[0]
                    for args in zip(axes, ORDINARY_POINT, positions))
    dense = _grid_outcome(bad_gamma, params, sparse=False)
    assert dense[0] is ConfigError
    assert _grid_outcome(bad_gamma, params, sparse=True) == dense
    real = analytic._p_correction
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analytic, "_p_correction", lambda *args: real(*args) * (1.0 + 1e-6))
        dense = _grid_outcome(failing, params, sparse=False)
        assert dense[0] is ConsistencyError
        assert _grid_outcome(failing, params, sparse=True) == dense


@settings(max_examples=200, deadline=None)
@given(tau=taus, gamma=gammas, theta=thetas, g=gs)
def test_quadrature_corrections_are_antisymmetric(tau, gamma, theta, g):
    q = quadrature_variances(tau, g, CoherentAmplitude(gamma=gamma, theta=theta),
                             strict=False)
    # one bracket, negated: equal up to the rounding of the two sums
    ulp = math.ulp(max(abs(q.var_x1), abs(q.var_x2)))
    assert abs((q.var_x1 - 0.25) + (q.var_x2 - 0.25)) <= 2.0 * ulp


@settings(max_examples=100, deadline=None)
@given(points=st.lists(st.tuples(taus, gammas, thetas, gs), min_size=1, max_size=20))
def test_product_equals_bound_on_random_points(points):
    grid = variance_grid(*np.array(points).T)
    product, bound = grid["product"], grid["gup_bound"]
    assert (np.abs(product - bound) <= 1e-12 * np.maximum(1.0, np.abs(product))).all()
    for tau, gamma, theta, g in points:
        product, bound = uncertainty_product(
            tau, g, CoherentAmplitude(gamma=gamma, theta=theta), strict=False)
        assert abs(product - bound) <= 1e-12 * max(1.0, abs(product))
