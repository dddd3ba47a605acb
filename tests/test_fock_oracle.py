"""Truncated Fock-space oracle tests: operator construction, evolution,
coherent-state variances, finite differencing, truncation audits."""

import math

import numpy as np
import pytest

from gupsqueeze import fock_oracle
from gupsqueeze.fock_oracle import (
    DEFAULT_G_STEP, ORACLE_QUANTITIES, FockOperator, FockSpace,
    OracleError, canonical_xp, coherent_vector, deformed_ops, eigensystem,
    evolution_operator, expect, first_order_coefficient, fock_dim_for,
    hamiltonian, heisenberg_evolve, ladder_ops, oracle_slopes,
    oracle_variances, truncation_audit, variance_numeric,
)
from gupsqueeze.physics_config import CoherentAmplitude, PhysicalParams

NAT = PhysicalParams.natural


def leading_block(matrix, dim=None):
    half = (dim or matrix.shape[0]) // 2
    return matrix[:half, :half]


# ---------------------------------------------------------------------------
# ladder operators and canonical pairs


def test_ladder_minimal_dimension():
    a, adag = ladder_ops(FockSpace(2))
    expected = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    np.testing.assert_array_equal(a.matrix, expected)
    np.testing.assert_array_equal(adag.matrix, expected.T)


def test_ladder_commutator_identity_up_to_edge():
    space = FockSpace(40)
    a, adag = ladder_ops(space)
    comm = a.matrix @ adag.matrix - adag.matrix @ a.matrix
    np.testing.assert_allclose(np.diag(comm)[:39], np.ones(39), atol=1e-12)
    # the truncation artifact is confined to the last diagonal entry
    assert comm[39, 39] == pytest.approx(-39.0)


def test_coherent_state_is_ladder_eigenvector():
    space = FockSpace(60)
    a, _ = ladder_ops(space)
    state = coherent_vector(1.0 + 0.0j, space)
    residual = a.matrix @ state.components - 1.0 * state.components
    assert np.linalg.norm(residual) < 1e-10
    assert state.truncation_loss < 1e-15


def test_canonical_xp_ground_state_variance():
    params = PhysicalParams(mass=2.0, omega=3.0, hbar=1.5, beta=0.0)
    space = FockSpace(30)
    x, p = canonical_xp(space, params)
    vacuum = coherent_vector(0.0j, space)
    assert variance_numeric(vacuum, x) == pytest.approx(
        params.hbar / (2 * params.mass * params.omega), rel=1e-12)
    assert variance_numeric(vacuum, p) == pytest.approx(
        params.hbar * params.mass * params.omega / 2, rel=1e-12)


def test_canonical_commutator():
    params = PhysicalParams(mass=1.3, omega=0.7, hbar=2.0, beta=0.0)
    space = FockSpace(24)
    x, p = canonical_xp(space, params)
    comm = x.matrix @ p.matrix - p.matrix @ x.matrix
    expected = 1j * params.hbar * np.eye(space.dim)
    np.testing.assert_allclose(leading_block(comm), leading_block(expected),
                               atol=1e-12)


def test_x_matrix_entry_natural_units():
    x, _ = canonical_xp(FockSpace(4), NAT())
    assert x.matrix[0, 1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)


# ---------------------------------------------------------------------------
# deformed operators and Hamiltonian


def test_deformed_reduces_to_canonical_at_beta_zero():
    space = FockSpace(20)
    x, p = canonical_xp(space, NAT())
    x_hat, p_hat = deformed_ops(space, NAT())
    np.testing.assert_array_equal(x_hat.matrix, x.matrix)
    np.testing.assert_array_equal(p_hat.matrix, p.matrix)


def test_deformed_commutator_is_modified_identity():
    # [x_hat, p_hat] = i hbar (1 + beta p^2): an operator identity, exact on
    # the leading block even at finite beta
    params = PhysicalParams(mass=1.0, omega=1.0, hbar=1.0, beta=1e-3)
    space = FockSpace(40)
    x, p = canonical_xp(space, params)
    x_hat, p_hat = deformed_ops(space, params)
    comm = x_hat.matrix @ p_hat.matrix - p_hat.matrix @ x_hat.matrix
    expected = 1j * params.hbar * (np.eye(space.dim)
                                   + params.beta * p.matrix @ p.matrix)
    np.testing.assert_allclose(leading_block(comm), leading_block(expected),
                               atol=1e-10)


def test_deformed_momentum_mean_square_slope_matches_vacuum_formula():
    """d<0|p_hat^2|0>/dg at g=0 equals the first-order coefficient of the
    closed-form mean square at alpha=0, t=0."""
    from gupsqueeze.analytic import quadrature_moments

    space = FockSpace(40)

    def f(beta: float) -> dict[str, float]:
        _, p_hat = deformed_ops(space, NAT(beta))
        vacuum = coherent_vector(0.0j, space)
        return {"p_hat_sq": variance_numeric(vacuum, p_hat)
                + expect(vacuum, p_hat).real ** 2}

    est = first_order_coefficient(f, 1e-4)["p_hat_sq"]
    expected = quadrature_moments(0.0, 0.0, CoherentAmplitude()).p_hat_sq[1]
    assert est.converged
    assert est.slope == pytest.approx(expected, rel=1e-6)


def test_hamiltonian_spectrum_undeformed():
    space = FockSpace(40)
    h = hamiltonian(space, NAT())
    eig = eigensystem(h)
    expected = np.arange(10) + 0.5
    np.testing.assert_allclose(eig.eigenvalues[:10], expected, atol=1e-9)


def test_hamiltonian_two_forms_differ_at_second_order_only():
    # p_hat^2/2m + m w^2 x_hat^2/2 - H = beta^2 p^6 / 18 m exactly
    params = PhysicalParams(mass=1.0, omega=1.0, hbar=1.0, beta=1e-2)
    space = FockSpace(30)
    x_hat, p_hat = deformed_ops(space, params)
    _, p = canonical_xp(space, params)
    h = hamiltonian(space, params)
    alt = (p_hat.matrix @ p_hat.matrix / (2 * params.mass)
           + 0.5 * params.mass * params.omega ** 2 * x_hat.matrix @ x_hat.matrix)
    p6 = np.linalg.matrix_power(p.matrix, 6)
    expected_diff = params.beta ** 2 / (18.0 * params.mass) * p6
    np.testing.assert_allclose(leading_block(alt - h.matrix),
                               leading_block(expected_diff), atol=1e-12)


def test_hamiltonian_deformation_raises_low_eigenvalues():
    space = FockSpace(80)
    eig0 = eigensystem(hamiltonian(space, NAT(0.0)))
    eig1 = eigensystem(hamiltonian(space, NAT(1e-3)))
    assert np.all(eig1.eigenvalues[:20] > eig0.eigenvalues[:20])


# ---------------------------------------------------------------------------
# Heisenberg evolution


def test_evolution_at_time_zero_is_identity():
    space = FockSpace(25)
    a, _ = ladder_ops(space)
    h = hamiltonian(space, NAT(1e-3))
    evolved = heisenberg_evolve(a, h, 0.0)
    np.testing.assert_allclose(evolved.matrix, a.matrix, atol=1e-12)


def test_free_evolution_rotates_annihilation_operator():
    space = FockSpace(40)
    a, _ = ladder_ops(space)
    h = hamiltonian(space, NAT(0.0))
    for t in (0.3, 1.7, 4.0):
        evolved = heisenberg_evolve(a, h, t)
        expected = np.exp(-1j * t) * a.matrix
        np.testing.assert_allclose(leading_block(evolved.matrix),
                                   leading_block(expected), atol=1e-10)


def test_evolution_preserves_spectrum():
    space = FockSpace(30)
    h = hamiltonian(space, NAT(1e-4))
    x_hat, _ = deformed_ops(space, NAT(1e-4))
    evolved = heisenberg_evolve(x_hat, h, 2.5)
    before = np.linalg.eigvalsh(x_hat.matrix)
    after = np.linalg.eigvalsh(evolved.matrix)
    np.testing.assert_allclose(after, before, atol=1e-9)


def test_evolution_preserves_hermiticity():
    space = FockSpace(30)
    h = hamiltonian(space, NAT(2e-4))
    _, p_hat = deformed_ops(space, NAT(2e-4))
    evolved = heisenberg_evolve(p_hat, h, 3.1)
    defect = np.abs(evolved.matrix - evolved.matrix.conj().T).max()
    assert defect < 1e-10


def test_evolution_operator_unitarity():
    space = FockSpace(50)
    eig = eigensystem(hamiltonian(space, NAT(5e-4)))
    for t in (0.1, 1.0, 10.0, 50.0):
        u = evolution_operator(eig, t)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(space.dim), atol=1e-10)


def test_eigensystem_rejects_non_hermitian():
    space = FockSpace(5)
    a, _ = ladder_ops(space)
    with pytest.raises(OracleError, match="non-Hermitian"):
        eigensystem(a)


# ---------------------------------------------------------------------------
# expectations and variances


def test_expect_identity_is_one():
    space = FockSpace(30)
    state = coherent_vector(0.5 + 0.5j, space)
    identity = FockOperator(space, np.eye(space.dim, dtype=complex))
    assert expect(state, identity) == pytest.approx(1.0, abs=1e-14)


def test_expect_annihilation_gives_amplitude():
    space = FockSpace(80)
    a, _ = ladder_ops(space)
    state = coherent_vector(2.0 + 0.0j, space)
    assert expect(state, a) == pytest.approx(2.0, abs=1e-10)


def test_expect_number_operator():
    space = FockSpace(60)
    a, adag = ladder_ops(space)
    number = FockOperator(space, adag.matrix @ a.matrix)
    state = coherent_vector(1.0 + 1.0j, space)
    assert expect(state, number).real == pytest.approx(2.0, abs=1e-10)


def test_expect_dimension_mismatch():
    state = coherent_vector(0.0j, FockSpace(10))
    identity = FockOperator(FockSpace(12), np.eye(12, dtype=complex))
    with pytest.raises(ValueError, match="dim"):
        expect(state, identity)


def test_vacuum_quadrature_variance():
    space = FockSpace(20)
    a, adag = ladder_ops(space)
    x1 = FockOperator(space, 0.5 * (a.matrix + adag.matrix))
    vacuum = coherent_vector(0.0j, space)
    assert variance_numeric(vacuum, x1) == pytest.approx(0.25, abs=1e-12)


def test_coherent_quadratures_stay_canonical_without_deformation():
    amp = CoherentAmplitude(gamma=1.5, theta=0.8)
    for tau in (0.0, 1.0, 7.5, 20.0):
        v = oracle_variances(tau, amp, NAT(0.0))
        assert v["var_x1"] == pytest.approx(0.25, abs=1e-9)
        assert v["var_x2"] == pytest.approx(0.25, abs=1e-9)
        assert v["var_x_hat"] == pytest.approx(0.5, abs=1e-9)
        assert v["var_p_hat"] == pytest.approx(0.5, abs=1e-9)


def test_variance_matches_first_order_formula_at_small_g():
    """At g = 1e-5 the oracle variance agrees with the first-order closed
    form up to an O(g^2) residual: halving g quarters the disagreement."""
    from gupsqueeze.analytic import quadrature_variances

    amp = CoherentAmplitude(gamma=1.0, theta=0.0)
    space = FockSpace(60)

    def residuals(g: float) -> tuple[float, float]:
        v = oracle_variances(2.0, amp, NAT(g), space)
        q = quadrature_variances(2.0, g, amp)
        return v["var_x1"] - q.var_x1, v["var_x2"] - q.var_x2

    r1_full, r2_full = residuals(1e-5)
    r1_half, r2_half = residuals(0.5e-5)
    assert abs(r1_full) < 1e-8 and abs(r2_full) < 1e-8
    assert r1_full / r1_half == pytest.approx(4.0, rel=1e-2)
    assert r2_full / r2_half == pytest.approx(4.0, rel=1e-2)


def test_all_variances_non_negative_on_grid():
    amp = CoherentAmplitude(gamma=1.0, theta=0.5)
    for tau in (0.1, 2.0, 6.0):
        for g in (0.0, 1e-6, 1e-4):
            v = oracle_variances(tau, amp, NAT(g))
            assert all(value >= -1e-12 for value in v.values())


# ---------------------------------------------------------------------------
# finite differencing


def test_first_order_coefficient_recovers_linear_slope():
    est = first_order_coefficient(lambda b: {"f": 3.0 + 7.5 * b, "g": -2.0 * b}, 1e-5)
    assert est["f"].converged and est["g"].converged
    assert est["f"].slope == pytest.approx(7.5, rel=1e-10)
    assert est["g"].slope == pytest.approx(-2.0, rel=1e-10)


def test_first_order_coefficient_rejects_bad_step():
    for step in (0.0, -1e-6):
        with pytest.raises(ValueError, match="must be positive"):
            first_order_coefficient(lambda b: {"f": b}, step)


def test_oracle_slopes_runs_four_pipeline_evaluations(monkeypatch):
    """All five quantities share the +-step and +-step/2 pipeline runs."""
    betas = []
    pipeline = fock_oracle.oracle_variances

    def counting(tau, amplitude, params, space=None):
        betas.append(params.beta)
        return pipeline(tau, amplitude, params, space)

    monkeypatch.setattr(fock_oracle, "oracle_variances", counting)
    slopes = oracle_slopes(1.0, CoherentAmplitude(), FockSpace(30), g_step=1e-5)
    assert betas == [1e-5, -1e-5, 5e-6, -5e-6]
    assert set(slopes) == set(ORACLE_QUANTITIES)


def test_vacuum_quadrature_slopes():
    # (dX1^2)/dg = sin^2(tau)/2 at alpha=0 -> 1/2 at tau=pi/2; X2 mirrors it
    amp = CoherentAmplitude()
    slopes = oracle_slopes(math.pi / 2.0, amp)
    assert slopes["var_x1"].converged
    assert slopes["var_x1"].slope == pytest.approx(0.5, rel=1e-3)
    assert slopes["var_x2"].slope == pytest.approx(-0.5, rel=1e-3)


def test_oracle_slope_pipeline_converges_for_displaced_state():
    amp = CoherentAmplitude(gamma=1.0, theta=math.pi / 4.0)
    slopes = oracle_slopes(1.0, amp, g_step=DEFAULT_G_STEP)
    assert all(slopes[q].converged for q in ORACLE_QUANTITIES)


# ---------------------------------------------------------------------------
# truncation audit


def test_truncation_audit_vacuum_passes_small_dim():
    audit = truncation_audit(FockSpace(20), CoherentAmplitude(), g=1e-6, tau_max=6.0)
    assert audit.passed


def test_truncation_audit_heuristic_dim_passes_for_displaced_state():
    amp = CoherentAmplitude(gamma=2.0, theta=0.3)
    space = FockSpace(fock_dim_for(amp))
    audit = truncation_audit(space, amp, g=1e-6, tau_max=6.0)
    assert audit.passed


def test_truncation_audit_designed_failure():
    # |alpha|^2 = 4 > dim/4 = 2: state pressed against the truncation edge
    amp = CoherentAmplitude(gamma=2.0, theta=0.0)
    audit = truncation_audit(FockSpace(8), amp, g=1e-6, tau_max=2.0)
    assert not audit.passed
    assert audit.max_rel_deviation > 1e-3


def test_fock_dim_heuristic():
    assert fock_dim_for(CoherentAmplitude()) == 30
    assert fock_dim_for(CoherentAmplitude(gamma=1.0)) == 41
    assert fock_dim_for(CoherentAmplitude(gamma=2.0)) == 54


def test_fock_space_validation():
    with pytest.raises(ValueError):
        FockSpace(1)
