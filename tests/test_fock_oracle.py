"""Truncated Fock-space oracle tests: operator construction, evolution,
coherent-state variances, linear-response slopes, truncation audits."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from gupsqueeze import fock_oracle
from gupsqueeze.analytic import analytic_slopes, secular_scale, validity_codes
from gupsqueeze.cli import main
from gupsqueeze.fock_oracle import (
    ORACLE_QUANTITIES, FockOperator, FockSpace,
    OracleError, ParityEigensystem, coherent_vector, eigensystem,
    evolve, fock_dim_for,
    hamiltonian, oracle_slopes,
    oracle_variances, slope_scale, truncation_audit, truncation_bound,
    variance_numeric,
)
from gupsqueeze.physics_config import CoherentAmplitude, PhysicalParams
from reference import (
    canonical_xp, deformed_ops, expect, heisenberg_evolve, ladder_ops,
    reference_coherent_vector,
)

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


def test_coherent_state_at_large_amplitude_keeps_its_norm():
    # exp(-|alpha|^2/2) = e^-800 underflows; the coefficients must not
    amp = CoherentAmplitude(gamma=40.0, theta=0.3)
    space = FockSpace(fock_dim_for(amp))
    c = coherent_vector(amp, space).components
    assert np.isfinite(c).all()
    assert np.vdot(c, c).real == pytest.approx(1.0, abs=1e-12)
    assert coherent_vector(amp, space).truncation_loss < 1e-12
    # ladder eigenvector row by row: sqrt(n+1) c_{n+1} = alpha c_n
    n = np.arange(1, space.dim)
    assert np.abs(np.sqrt(n) * c[1:] - amp.alpha * c[:-1]).max() < 1e-12
    # Poisson weights at the peak, n = |alpha|^2
    peak = 1600
    log_weight = -1600.0 + peak * math.log(1600.0) - math.lgamma(peak + 1)
    assert abs(c[peak]) ** 2 == pytest.approx(math.exp(log_weight), rel=1e-9)


def test_coherent_state_without_norm_in_the_space_raises():
    with pytest.raises(OracleError, match="keeps no norm"):
        coherent_vector(CoherentAmplitude(gamma=40.0), FockSpace(10))
    with pytest.raises(OracleError, match="keeps no norm"):
        coherent_vector(CoherentAmplitude(gamma=10.0), FockSpace(5))


@pytest.mark.parametrize("gamma", [1e15, 1e129, 1e150, 1e200])
def test_coherent_state_beyond_the_float_range_raises(gamma):
    # 0.5|alpha|^2 overflows at 1e200; below that the exponent split of the
    # recursion lost its precision (OverflowError, NaN or a wrong vector)
    with pytest.raises(OracleError, match="keeps no norm"):
        coherent_vector(CoherentAmplitude(gamma=gamma), FockSpace(20))


def coherent_outcome(make, amplitude, space):
    """The components' bytes and the truncation loss's bits, or the
    message of the OracleError raised."""
    try:
        state = make(amplitude, space)
    except OracleError as exc:
        return str(exc)
    return state.components.tobytes(), state.truncation_loss.hex()


@settings(max_examples=200, deadline=None)
@given(gamma=st.one_of(st.floats(0.0, 12.0), st.floats(44.0, 50.0)),
       theta=st.floats(0.0, 2.0 * math.pi),
       dim=st.one_of(st.integers(2, 400), st.integers(1200, 4500)))
@example(gamma=46.0, theta=0.3, dim=2048)  # rescaled by 2**-400 at n = 1324
@example(gamma=50.0, theta=2.0, dim=4500)  # rescaled twice
@example(gamma=46.0, theta=0.3, dim=1200)  # keeps no norm
@example(gamma=10.0, theta=0.0, dim=5)  # keeps no norm, small
def test_coherent_vector_equals_the_array_recursion_bit_for_bit(gamma, theta, dim):
    amp, space = CoherentAmplitude(gamma=gamma, theta=theta), FockSpace(dim)
    assert (coherent_outcome(coherent_vector, amp, space)
            == coherent_outcome(reference_coherent_vector, amp, space))


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
    vacuum = coherent_vector(0.0j, space)

    def p_hat_sq(beta: float) -> float:
        _, p_hat = deformed_ops(space, NAT(beta))
        return variance_numeric(vacuum, p_hat) + expect(vacuum, p_hat).real ** 2

    step = 1e-4
    slope = (p_hat_sq(step) - p_hat_sq(-step)) / (2.0 * step)
    expected = quadrature_moments(0.0, CoherentAmplitude()).p_hat_sq[1]
    assert slope == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("dim", [2, 3, 5, 24])
@pytest.mark.parametrize("params", [
    NAT(1e-3), PhysicalParams(mass=1.3, omega=0.7, hbar=2.0, beta=-2e-3)])
def test_banded_operators_equal_truncated_matrix_products(dim, params):
    # x, p, H and p_hat are built from their bands; they must equal the
    # products of the truncated ladder matrices, truncation edge included
    space = FockSpace(dim)
    a, adag = (op.matrix for op in ladder_ops(space))
    x = math.sqrt(params.hbar / (2.0 * params.mass * params.omega)) * (a + adag)
    p = 1j * math.sqrt(params.hbar * params.mass * params.omega / 2.0) * (adag - a)
    x_op, p_op = canonical_xp(space, params)
    np.testing.assert_array_equal(x_op.matrix, x)
    np.testing.assert_array_equal(p_op.matrix, p)
    p2 = p @ p
    dense_h = (p2 / (2.0 * params.mass)
               + 0.5 * params.mass * params.omega ** 2 * (x @ x)
               + params.beta / (3.0 * params.mass) * (p2 @ p2))
    h = hamiltonian(space, params).matrix
    assert h.dtype == np.float64
    np.testing.assert_array_equal(h, h.T)
    np.testing.assert_allclose(h, dense_h, rtol=0, atol=1e-13 * np.abs(dense_h).max())
    x_hat, p_hat = deformed_ops(space, params)
    dense_p_hat = p + params.beta / 3.0 * (p2 @ p)
    assert not p_hat.matrix.real.any()
    np.testing.assert_allclose(p_hat.matrix, dense_p_hat, rtol=0,
                               atol=1e-13 * np.abs(dense_p_hat).max())
    np.testing.assert_array_equal(x_hat.matrix, x)


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
        u = evolve(eig, np.eye(space.dim), t)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(space.dim), atol=1e-10)


def test_evolution_operator_fails_on_non_finite_time():
    space = FockSpace(10)
    eig = eigensystem(hamiltonian(space, NAT(1e-3)))
    for t in (math.nan, math.inf):
        for vectors in (np.eye(space.dim), coherent_vector(0.5, space).components):
            with pytest.raises(OracleError, match="unitarity"):
                evolve(eig, vectors, t)


def test_evolution_fails_on_eigenvectors_that_stretch_a_vector():
    """Even-block eigenvectors 2 * eye(2) multiply the even half of a unit
    vector by 4, so its norm goes 1 -> sqrt(8.5), a defect of 1.92."""
    eig = ParityEigensystem(((np.ones(2), 2.0 * np.eye(2)), (np.ones(2), np.eye(2))))
    with pytest.raises(OracleError,
                       match=r"^evolution operator lost unitarity: defect 1\.92e\+00$"):
        evolve(eig, np.full(4, 0.5), 1.0)


def test_fock_operator_refuses_a_matrix_of_another_dimension():
    with pytest.raises(ValueError, match=r"^matrix shape \(2, 2\) does not match dim 3$"):
        FockOperator(FockSpace(3), np.zeros((2, 2)))


@pytest.mark.parametrize("tau", [math.nan, math.inf])
def test_oracle_variances_fail_on_non_finite_time(tau):
    with pytest.raises(OracleError, match="unitarity"):
        oracle_variances([1.0, tau], CoherentAmplitude(gamma=1.0), NAT(1e-4),
                         FockSpace(20))


def test_eigensystem_orthonormality_gate(monkeypatch):
    # eigenvectors 1e-8 too long: the unitarity gate now lives in eigensystem
    eigh = np.linalg.eigh

    def stretched(matrix):
        values, vectors = eigh(matrix)
        return values, vectors * (1.0 + 1e-8)

    monkeypatch.setattr(fock_oracle.np.linalg, "eigh", stretched)
    with pytest.raises(OracleError, match="unitarity"):
        eigensystem(hamiltonian(FockSpace(20), NAT(1e-3)))


def test_eigensystem_reconstruction_gate_fails_on_nan(monkeypatch):
    monkeypatch.setattr(fock_oracle, "RECONSTRUCTION_TOL", math.nan)
    with pytest.raises(OracleError, match="reconstruction"):
        eigensystem(hamiltonian(FockSpace(10), NAT()))


def test_eigensystem_rejects_non_hermitian():
    space = FockSpace(5)
    a, _ = ladder_ops(space)
    with pytest.raises(OracleError, match="non-Hermitian"):
        eigensystem(a)


def test_eigensystem_rejects_complex_and_parity_mixing_matrices():
    space = FockSpace(6)
    h = hamiltonian(space, NAT(1e-3)).matrix
    complex_h = h.astype(complex)
    with pytest.raises(OracleError, match="complex matrix"):  # imaginary part 0
        eigensystem(FockOperator(space, complex_h))
    complex_h[0, 2] += 1e-3j
    complex_h[2, 0] -= 1e-3j  # still Hermitian
    with pytest.raises(OracleError, match="complex matrix"):
        eigensystem(FockOperator(space, complex_h))
    x, _ = canonical_xp(space, NAT())
    mixed = h + x.matrix.real  # real symmetric, couples n and n +- 1
    with pytest.raises(OracleError, match="even and odd"):
        eigensystem(FockOperator(space, mixed))


@pytest.mark.parametrize("dim", [41, 230])
@pytest.mark.parametrize("params", [
    NAT(1e-3), PhysicalParams(mass=1.3, omega=0.7, hbar=2.0, beta=2e-4)])
def test_parity_split_matches_plain_eigh(dim, params):
    space = FockSpace(dim)
    h = hamiltonian(space, params).matrix
    eig = eigensystem(FockOperator(space, h))
    values, vectors = np.linalg.eigh(h.astype(complex))
    scale = max(np.abs(h).max(), 1.0)
    assert np.abs(eig.eigenvalues - values).max() <= 1e-12 * scale
    psi = coherent_vector(CoherentAmplitude(gamma=math.sqrt(dim) / 3.0, theta=0.4),
                          space).components
    for t in (0.3, 2.0, 7.5):
        ref = vectors @ (np.exp(-1j * values * t / params.hbar)
                         * (vectors.conj().T @ psi))
        assert np.abs(evolve(eig, psi, t, params.hbar) - ref).max() <= 1e-10


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


def test_ok_label_holds_first_order_to_a_measured_bound():
    """On a grid of points the validity label reads ok (secular scale
    g tau (1 + gamma^2) up to SECULAR_WARN), the oracle's x_hat and p_hat
    variances at g are their g = 0 values plus g times the analytic slope
    to within 0.05 g (1 + gamma^2)^2 (1 + tau).  The error over g (1 + gamma^2)^2
    (1 + tau) peaks at 0.0028 at scale 0.01 and at 0.023 at scale 0.1, about
    half the bound at the warn threshold."""
    taus = (1.0, 4.0, 12.0)
    for gamma in (0.0, 1.0, 3.0):
        amp = CoherentAmplitude(gamma=gamma, theta=0.4)
        space = FockSpace(fock_dim_for(amp) + 40)
        base = oracle_variances(taus, amp, NAT(0.0), space)
        for i, tau in enumerate(taus):
            slopes = analytic_slopes(tau, amp)
            for scale in (0.01, 0.1):
                g = scale / (tau * (1.0 + gamma * gamma))
                assert validity_codes(secular_scale(tau, g, gamma)) == 0
                var = oracle_variances(tau, amp, NAT(g), space)
                for q in ("var_x_hat", "var_p_hat"):
                    error = abs(var[q] - base[q][i] - g * slopes[q])
                    assert error <= 0.05 * g * slope_scale(tau, gamma), (gamma, tau, scale, q)


def heisenberg_variances(tau, amplitude, params, space):
    """Reference route: evolve a, x_hat and p_hat (U^dag O U), keep the state."""
    a, _ = ladder_ops(space)
    x_hat, p_hat = deformed_ops(space, params)
    h = hamiltonian(space, params)
    state = coherent_vector(amplitude, space)
    t = tau / params.omega

    def variance(matrix):
        return variance_numeric(state, FockOperator(space, matrix))

    def evolved(op):
        return heisenberg_evolve(op, h, t, params.hbar).matrix

    a_t = evolved(a)
    out = {
        "var_x1": variance(0.5 * (a_t + a_t.conj().T)),
        "var_x2": variance((a_t - a_t.conj().T) / 2j),
        "var_x_hat": variance(evolved(x_hat)),
        "var_p_hat": variance(evolved(p_hat)),
    }
    out["product"] = out["var_x_hat"] * out["var_p_hat"]
    return out


@pytest.mark.parametrize("dim, gamma, params", [
    (20, 0.0, NAT(1e-3)),
    (30, 1.0, NAT(0.0)),
    (30, 1.0, NAT(-1e-6)),
    (40, 1.5, NAT(1e-6)),
    (40, 0.7, PhysicalParams(mass=1.3, omega=0.7, hbar=2.0, beta=1e-3)),
])
def test_schrodinger_variances_match_heisenberg_reference(dim, gamma, params):
    amp = CoherentAmplitude(gamma=gamma, theta=0.6)
    space = FockSpace(dim)
    taus = [0.0, 0.5, 2.0, 7.0]
    batch = oracle_variances(taus, amp, params, space)
    for i, tau in enumerate(taus):
        ref = heisenberg_variances(tau, amp, params, space)
        for q in ORACLE_QUANTITIES:
            assert abs(batch[q][i] - ref[q]) <= 1e-12 * max(1.0, abs(ref[q])), (q, tau)


def test_oracle_variances_shaped_like_tau():
    amp = CoherentAmplitude(gamma=1.0)
    taus = np.array([[0.5, 1.0, 2.0], [3.0, 4.0, 5.0]])
    batch = oracle_variances(taus, amp, NAT(1e-4), FockSpace(30))
    single = oracle_variances(4.0, amp, NAT(1e-4), FockSpace(30))
    for q in ORACLE_QUANTITIES:
        assert batch[q].shape == taus.shape
        assert np.ndim(single[q]) == 0
        assert batch[q][1, 1] == single[q]


@pytest.mark.parametrize("n_taus", [1, 8])
def test_oracle_variances_make_two_half_size_real_eigensolves(monkeypatch, n_taus):
    solves = []
    eigh = np.linalg.eigh

    def recording(matrix):
        solves.append((matrix.shape, matrix.dtype))
        return eigh(matrix)

    monkeypatch.setattr(fock_oracle.np.linalg, "eigh", recording)
    oracle_variances(np.linspace(0.5, 4.0, n_taus), CoherentAmplitude(gamma=10.0),
                     NAT(1e-6), FockSpace(230))
    assert solves == [((115, 115), np.float64)] * 2


def test_all_variances_non_negative_on_grid():
    amp = CoherentAmplitude(gamma=1.0, theta=0.5)
    for tau in (0.1, 2.0, 6.0):
        for g in (0.0, 1e-6, 1e-4):
            v = oracle_variances(tau, amp, NAT(g))
            assert all(value >= -1e-12 for value in v.values())


# ---------------------------------------------------------------------------
# linear-response slopes


def agree(a, o, tau, gamma, rel=1e-8):
    """|a - o| within rel of the larger slope, plus the rounding floor
    1e-12 slope_scale: a zero slope comes out as rounding noise."""
    return abs(a - o) <= rel * max(abs(a), abs(o)) + 1e-12 * slope_scale(tau, gamma)


def test_oracle_slopes_never_calls_eigensystem(monkeypatch, tmp_path):
    def refuse(op):
        raise AssertionError("eigensystem called")

    monkeypatch.setattr(fock_oracle, "eigensystem", refuse)
    amp = CoherentAmplitude(gamma=1.0, theta=0.4)
    slopes = oracle_slopes([0.5, 2.0], amp)
    assert set(slopes) == set(ORACLE_QUANTITIES)
    assert truncation_audit(FockSpace(41), amp, [0.5, 2.0]).passed
    assert main(["oracle-compare", "--gamma", "1", "--theta", "0.4",
                 "--out", str(tmp_path / "oracle.csv")]) == 0


def test_both_passes_read_one_model(monkeypatch, tmp_path):
    """V scaled by 1.5 in _model alone: the slopes leave the closed forms,
    and the dense finite-beta pass moves with them, so its central
    difference still matches them."""
    model = fock_oracle._model

    def scaled(space, params):
        observables, d_p_hat, h0, v = model(space, params)
        return observables, d_p_hat, h0, 1.5 * v

    fock_oracle._slope_operators.cache_clear()
    monkeypatch.setattr(fock_oracle, "_model", scaled)
    try:
        assert main(["oracle-compare", "--gamma", "1", "--theta", "0.4", "--tau", "1", "2",
                     "--out", str(tmp_path / "oracle.csv")]) == 1
        amp = CoherentAmplitude(gamma=1.0, theta=0.4)
        space, taus, step = FockSpace(fock_dim_for(amp)), [0.5, 2.0, 4.0], 1e-4
        assert space.dim == 41
        up, down = (oracle_variances(taus, amp, NAT(g), space) for g in (step, -step))
        slopes = oracle_slopes(taus, amp, space)
        for q in ORACLE_QUANTITIES:
            np.testing.assert_allclose((up[q] - down[q]) / (2.0 * step), slopes[q],
                                       rtol=1e-3, err_msg=q)
    finally:
        fock_oracle._slope_operators.cache_clear()  # tables of the scaled model


def test_oracle_compare_fails_when_p_hat_takes_beta_over_2(monkeypatch, tmp_path, capsys):
    """p_hat = p + beta p^3/2 in _model alone (d p_hat/dbeta scaled by 3/2):
    the slopes leave the closed forms, and oracle-compare says FAIL."""
    model = fock_oracle._model

    def mutated(space, params):
        observables, d_p_hat, h0, v = model(space, params)
        return observables, 1.5 * d_p_hat, h0, v

    fock_oracle._slope_operators.cache_clear()
    monkeypatch.setattr(fock_oracle, "_model", mutated)
    try:
        assert main(["oracle-compare", "--gamma", "1", "--theta", "0.4",
                     "--out", str(tmp_path / "oracle.csv")]) == 1
    finally:
        fock_oracle._slope_operators.cache_clear()  # tables of the mutated model
    line = capsys.readouterr().out
    assert line.startswith("oracle-compare: worst relative slope error ")
    assert line.endswith(" (FAIL at 0.001)\n")
    assert float(line.split()[5]) > 1.0


def reference_slopes(tau, amplitude, space):
    """oracle_slopes as it ran before its array pass: one Python step per tau,
    F(D, t) on every offset.  Kept to pin the array pass's bits.  The model's
    bands are spelled here, not read from fock_oracle._model, so this pins
    the model too.  H0's energies are snapped to half-integers and e^{-iEt}
    is w^{2E} = e^{i 2E arg w}, w = e^{-it/2}, as in the array pass."""
    edge = fock_oracle.BANDS
    params = NAT(0.0)
    ladder = fock_oracle._ladder
    s, q, q2, q3 = fock_oracle._quadrature_bands(space)
    lx, lp = fock_oracle._lengths(params)
    p_hat = 1j * (lp * q - (params.beta / 3.0) * lp ** 3 * q3)
    bands = np.stack([0.5 * s, 0.5j * q, lx * s, p_hat])
    d_bands = np.zeros_like(bands)
    d_bands[3] = -1j * lp ** 3 / 3.0 * q3
    p2 = -lp ** 2 * q2
    h0 = (p2 / (2.0 * params.mass)
          + 0.5 * params.mass * params.omega ** 2 * lx ** 2 * ladder(s, 1.0))
    two_e = np.rint(2.0 * h0[edge])
    assert np.abs(2.0 * h0[edge] - two_e).max() < 1e-9
    energies = 0.5 * two_e
    gaps = sliding_window_view(np.pad(energies, edge), space.dim) - energies
    v_bands = -lp ** 2 * ladder(ladder(p2, -1.0), -1.0) / (3.0 * params.mass)
    psi = coherent_vector(amplitude, space).components

    def apply(m, v):
        padded = np.zeros(v.shape[0] + 2 * edge, dtype=complex)
        padded[edge:-edge] = v
        return (m * sliding_window_view(padded, v.shape[0])).sum(axis=-2)

    def at(t):
        f = t * np.exp(-0.5j * gaps * t) * np.sinc(gaps * t / (2.0 * np.pi))
        if not np.isfinite(f).all():
            raise OracleError(f"evolution operator lost unitarity: time {t} "
                              "is beyond the float range")
        phase = np.exp(1j * (two_e * np.angle(np.exp(-0.5j * t))))
        psi_t = phase * psi
        chi = -1j * phase * apply(v_bands * f, psi)
        o_psi, o_chi = apply(bands, psi_t), apply(bands, chi)
        d_o_psi = o_chi + apply(d_bands, psi_t)
        mean = (o_psi @ psi_t.conj()).real
        d_mean = ((o_chi + d_o_psi) @ psi_t.conj()).real
        slopes = 2.0 * (o_psi.conj() * d_o_psi).real.sum(axis=-1) - 2.0 * mean * d_mean
        var = fock_oracle._variance(psi_t, o_psi)
        return [*slopes, var[2] * slopes[3] + var[3] * slopes[2]]

    return fock_oracle._per_tau(tau, at)


def assert_same_bits(got, want):
    for q in ORACLE_QUANTITIES:
        assert type(got[q]) is type(want[q]), q
        assert np.shape(got[q]) == np.shape(want[q]), q
        assert np.asarray(got[q]).tobytes() == np.asarray(want[q]).tobytes(), q


def outcome(slopes, *args):
    """The slopes, or the message of the OracleError they raise; a time
    beyond the float range overflows on its way there, as under cli.main."""
    try:
        with np.errstate(all="ignore"):
            return slopes(*args)
    except OracleError as exc:
        return str(exc)


special_taus = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -2.0, 1e-300, 1e308])


@settings(max_examples=150, deadline=None)
@given(gamma=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
       theta=st.floats(0.0, 2.0 * math.pi), dim=st.integers(2, 120),
       taus=st.lists(st.one_of(special_taus, st.floats(-20.0, 20.0)), min_size=1,
                     max_size=6),
       form=st.sampled_from(["scalar", "list", "2-d"]))
@example(gamma=0.0, theta=0.0, dim=2, taus=[0.0, -0.0, -2.0, 5e-324], form="list")
@example(gamma=1.0, theta=0.4, dim=41, taus=[0.0, -0.0, -2.0, 5e-324], form="2-d")
@example(gamma=1.0, theta=0.4, dim=41, taus=[-0.0], form="scalar")
@example(gamma=2.0, theta=1.0, dim=30, taus=[1.0, 1e308, -1e308], form="list")
@example(gamma=9.95, theta=2.4, dim=229, taus=[0.3, 1.2, 2.5, 4.0], form="list")
@example(gamma=9.95, theta=2.4, dim=458, taus=[0.47, 2.0, 2.55, 3.53], form="2-d")
def test_batched_slopes_equal_the_per_tau_reference_bit_for_bit(gamma, theta, dim, taus,
                                                                form):
    tau = {"scalar": taus[0], "list": taus,
           "2-d": np.array(taus * 2).reshape(2, len(taus))}[form]
    amp, space = CoherentAmplitude(gamma=gamma, theta=theta), FockSpace(dim)
    got = outcome(oracle_slopes, tau, amp, space)
    want = outcome(reference_slopes, tau, amp, space)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_bits(got, want)


def test_batched_slopes_span_several_chunks_bit_for_bit():
    amp, space = CoherentAmplitude(gamma=2.0, theta=0.3), FockSpace(120)
    chunk = fock_oracle._SLOPE_CHUNK_CELLS // space.dim
    taus = np.linspace(-1.0, 9.0, 2 * chunk + 7)
    assert_same_bits(oracle_slopes(taus, amp, space), reference_slopes(taus, amp, space))


def test_slope_pass_makes_as_many_calls_for_40_taus_as_for_4(monkeypatch):
    """One array pass: the banded products and ladders do not grow with the
    taus; each band is laddered once, on the dimension's first call, and not
    again while its tables stay cached."""
    names = ("_apply", "_ladder")
    counts = Counter()
    for name in names:
        def counted(*args, _real=getattr(fock_oracle, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(fock_oracle, name, counted)
    amp, space = CoherentAmplitude(gamma=1.0, theta=0.4), FockSpace(41)

    def calls(n_taus, cold):
        if cold:
            fock_oracle._slope_operators.cache_clear()
        counts.clear()
        oracle_slopes(np.linspace(0.5, 4.0, n_taus), amp, space)
        return {name: counts[name] for name in names}

    assert calls(4, cold=True) == calls(40, cold=True) == {"_apply": 4, "_ladder": 7}
    assert calls(4, cold=False) == calls(40, cold=False) == {"_apply": 4, "_ladder": 0}


def test_slope_tables_are_cached_read_only_and_bounded():
    """A warm call gives the cold call's bits; the shared tables own their
    data and refuse writes, and hold no all-zero band row of the
    observables; the cache keeps at most _SLOPE_TABLES_KEPT dimensions."""
    amp, taus = CoherentAmplitude(gamma=2.0, theta=0.3), [-0.0, 0.5, 3.0]
    fock_oracle._slope_operators.cache_clear()
    cold = oracle_slopes(taus, amp, FockSpace(60))
    assert fock_oracle._slope_operators.cache_info().misses == 1
    assert_same_bits(oracle_slopes(taus, amp, FockSpace(60)), cold)
    assert fock_oracle._slope_operators.cache_info().hits == 1
    tables = fock_oracle._slope_operators(60)
    for table in tables:
        assert table.base is None  # no larger array kept alive behind it
        with pytest.raises(ValueError):
            table[..., 0] = 1.0
    bands, observed, d_p_hat, two_e, gaps, gap_index, v_bands = tables
    # the observables keep only the odd offsets where one of them is not
    # zero: +-1 at beta = 0, where p_hat = p; p^3/3 keeps all four
    assert all(bands[:, i].any() for i in range(bands.shape[1]))
    assert observed.tolist() == [fock_oracle.BANDS - 1, fock_oracle.BANDS + 1]
    assert bands.shape == (4, 2, 60) and d_p_hat.shape == (4, 60)
    # each (even offset, number state) gap is read from the distinct gaps
    energies = 0.5 * two_e
    full = (sliding_window_view(np.pad(energies, fock_oracle.BANDS), 60) - energies)[
        fock_oracle.EVEN]
    assert gaps.size == np.unique(full).size < full.size
    assert gap_index.shape == v_bands.shape == full.shape
    assert gaps[gap_index].tobytes() == full.tobytes()
    kept = fock_oracle._slope_operators.cache_info().maxsize
    for dim in range(2, 2 * kept + 3):
        oracle_slopes(taus, amp, FockSpace(dim))
    assert fock_oracle._slope_operators.cache_info().currsize <= kept
    assert_same_bits(oracle_slopes(taus, amp, FockSpace(60)), cold)  # rebuilt


@pytest.mark.parametrize("gamma", [0.0, 1.0, 3.0])
def test_oracle_compare_passes_at_large_tau(gamma, tmp_path, capsys):
    """The product's slope is var_x_hat s_p_hat + var_p_hat s_x_hat, two terms
    of size tau (1 + gamma^2)^2 that cancel to O(1), so at tau = 1e8 it needs
    phases that do not round E t.  Its analytic value is 1.249 at gamma 1."""
    out = tmp_path / "oracle.csv"
    assert main(["oracle-compare", "--gamma", repr(gamma), "--theta", "0.4",
                 "--tau", "1e8", "1e10", "1e11", "--out", str(out)]) == 0
    assert "PASS at 0.001" in capsys.readouterr().out
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 15
    if gamma == 1.0:
        product = next(r for r in rows if r[:2] == ["1.0000000000000000e+08", "product"])
        assert float(product[2]) == pytest.approx(1.2492105, abs=1e-7)
        assert float(product[4]) < 1e-6


def test_slope_tables_refuse_energies_off_the_half_integers(monkeypatch):
    """The slope pass snaps H0's energies to half-integers; a model whose
    energies are not half-integers is refused, not snapped."""
    model = fock_oracle._model

    def shifted(space, params):
        observables, d_p_hat, h0, v = model(space, params)
        h0 = h0.copy()
        h0[fock_oracle.BANDS] += 1e-6
        return observables, d_p_hat, h0, v

    fock_oracle._slope_operators.cache_clear()
    monkeypatch.setattr(fock_oracle, "_model", shifted)
    try:
        with pytest.raises(OracleError, match="not half-integers"):
            oracle_slopes(1.0, CoherentAmplitude(), FockSpace(12))
    finally:
        fock_oracle._slope_operators.cache_clear()


def test_time_beyond_float_range_names_the_first_such_tau(capsys):
    assert main(["oracle-compare", "--tau", "1", "1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: oracle: evolution operator lost unitarity: "
                            "time 1e+308 is beyond the float range\n")


def test_batched_slopes_equal_single_tau_bit_for_bit():
    amp = CoherentAmplitude(gamma=1.0, theta=0.4)
    batch = oracle_slopes([0.5, 2.0], amp)
    for i, tau in enumerate((0.5, 2.0)):
        single = oracle_slopes(tau, amp)
        for q in ORACLE_QUANTITIES:
            assert batch[q].shape == (2,) and np.shape(single[q]) == ()
            assert batch[q][i] == single[q], q


@settings(max_examples=100, deadline=None)
@given(gamma=st.floats(0.0, 3.0), theta=st.floats(0.0, 2.0 * math.pi),
       tau=st.floats(0.0, 4.0))
def test_analytic_and_oracle_slopes_agree_on_random_points(gamma, theta, tau):
    amp = CoherentAmplitude(gamma=gamma, theta=theta)
    analytic = analytic_slopes(tau, amp)
    oracle = oracle_slopes(tau, amp)
    for q in ORACLE_QUANTITIES:
        assert agree(analytic[q], oracle[q], tau, gamma), q


def test_analytic_and_oracle_slopes_agree_at_large_amplitude():
    taus = [0.5, 1.9, 3.2]
    for gamma, dim in ((10.0, 230), (20.0, 630)):
        amp = CoherentAmplitude(gamma=gamma, theta=0.9)
        assert fock_dim_for(amp) == dim
        oracle = oracle_slopes(taus, amp)
        for i, tau in enumerate(taus):
            analytic = analytic_slopes(tau, amp)
            for q in ORACLE_QUANTITIES:
                assert agree(analytic[q], oracle[q][i], tau, gamma), (gamma, q, tau)


def test_vacuum_quadrature_slopes():
    # (dX1^2)/dg = sin^2(tau)/2 at alpha=0 -> 1/2 at tau=pi/2; X2 mirrors it
    slopes = oracle_slopes(math.pi / 2.0, CoherentAmplitude())
    assert slopes["var_x1"] == pytest.approx(0.5, rel=1e-12)
    assert slopes["var_x2"] == pytest.approx(-0.5, rel=1e-12)


def test_oracle_slope_pipeline_converges_for_displaced_state():
    """Central differences of the finite-beta oracle converge to the
    linear-response slopes at O(h^2): each halving of h quarters the gap."""
    amp = CoherentAmplitude(gamma=1.0, theta=0.4)
    space = FockSpace(fock_dim_for(amp))
    taus = [0.5, 2.0, 4.0]
    slopes = oracle_slopes(taus, amp, space)

    def worst_gap(h: float) -> float:
        plus = oracle_variances(taus, amp, NAT(h), space)
        minus = oracle_variances(taus, amp, NAT(-h), space)
        return max(np.max(np.abs((plus[q] - minus[q]) / (2.0 * h) - slopes[q])
                          / np.abs(slopes[q])) for q in ORACLE_QUANTITIES)

    gaps = [worst_gap(h) for h in (1e-3, 5e-4, 2.5e-4)]
    assert gaps[0] < 1e-3
    for coarse, fine in zip(gaps, gaps[1:]):
        assert coarse / fine == pytest.approx(4.0, rel=0.05)


# ---------------------------------------------------------------------------
# truncation audit


def test_truncation_audit_vacuum_passes_small_dim():
    audit = truncation_audit(FockSpace(20), CoherentAmplitude(), [0.5, 6.0])
    assert audit.passed
    assert audit.bound == 0.0 and audit.max_rel_deviation is None  # no tail at all


def test_truncation_audit_heuristic_dim_passes_for_displaced_state():
    amp = CoherentAmplitude(gamma=2.0, theta=0.3)
    space = FockSpace(fock_dim_for(amp))
    taus = [0.0, 1.0, 6.0]
    audit = truncation_audit(space, amp, taus)
    assert audit.passed
    for q, slope in oracle_slopes(taus, amp, space).items():
        np.testing.assert_array_equal(audit.slopes[q], slope)


def test_truncation_audit_designed_failure():
    # |alpha|^2 = 4 > dim/4 = 2: state pressed against the truncation edge
    amp = CoherentAmplitude(gamma=2.0, theta=0.0)
    audit = truncation_audit(FockSpace(8), amp, 2.0)
    assert not audit.passed
    assert audit.bound >= fock_oracle.AUDIT_TOL
    assert audit.max_rel_deviation > 1e-3


def nan_at_dim(monkeypatch, dim):
    """oracle_slopes patched to give NaN slopes at one Fock dimension."""
    slopes = fock_oracle.oracle_slopes

    def patched(tau, amplitude, space=None):
        values = slopes(tau, amplitude, space)
        return {q: math.nan for q in values} if space.dim == dim else values

    monkeypatch.setattr(fock_oracle, "oracle_slopes", patched)


def test_truncation_audit_fails_on_nan(monkeypatch):
    # uncertified (bound 7.7e-4) but passing (deviation 1.9e-16) without the NaN
    amp, space = CoherentAmplitude(gamma=2.0, theta=0.3), FockSpace(36)
    audit = truncation_audit(space, amp, 2.0)
    assert audit.passed and audit.bound >= fock_oracle.AUDIT_TOL
    nan_at_dim(monkeypatch, 72)
    audit = truncation_audit(space, amp, 2.0)
    assert not audit.passed
    assert math.isnan(audit.max_rel_deviation)


def test_truncation_audit_fails_on_nan_where_certified(monkeypatch, tmp_path, capsys):
    """A non-finite slope at a certified dimension still fails the audit, so
    oracle-compare exits 2 on the oracle gate, not 1 on a NaN error."""
    nan_at_dim(monkeypatch, 20)
    audit = truncation_audit(FockSpace(20), CoherentAmplitude(), 2.0)
    assert audit.bound == 0.0 and not audit.passed
    assert math.isnan(audit.max_rel_deviation)
    nan_at_dim(monkeypatch, 41)
    assert main(["oracle-compare", "--gamma", "1", "--theta", "0.4",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: oracle: truncation audit FAILED at dim=41: max relative deviation "
        "nan (vs dim=82); increase --dim\n")
    assert not (tmp_path / "x.csv").exists()


def test_every_heuristic_dim_up_to_gamma_40_is_certified():
    for gamma in np.linspace(0.0, 40.0, 801):
        amp = CoherentAmplitude(gamma=float(gamma))
        assert truncation_bound(fock_dim_for(amp), amp) < fock_oracle.AUDIT_TOL, gamma


def test_certified_oracle_compare_takes_the_slopes_once(monkeypatch, tmp_path):
    dims = []
    slopes = fock_oracle.oracle_slopes

    def recorded(tau, amplitude, space=None):
        dims.append(space.dim)
        return slopes(tau, amplitude, space)

    monkeypatch.setattr(fock_oracle, "oracle_slopes", recorded)
    out = str(tmp_path / "x.csv")
    assert main(["oracle-compare", "--gamma", "1", "--theta", "0.4", "--out", out]) == 0
    assert main(["oracle-compare", "--gamma", "40", "--tau", "1", "--out", out]) == 0
    assert main(["oracle-compare", "--gamma", "2", "--theta", "0.3", "--dim", "36",
                 "--out", out]) == 0
    assert dims == [41, 2030, 36, 72]


# the rounding both passes leave in a slope, relative to slope_scale; the
# bound is on the slopes in exact arithmetic
ROUNDING = 1e-13


@settings(max_examples=120, deadline=None)
@given(gamma=st.floats(0.0, 12.0), theta=st.floats(0.0, 2.0 * math.pi),
       taus=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=3),
       share=st.floats(0.02, 1.2))
@example(gamma=0.0, theta=0.0, taus=[0.3, 40.0], share=0.02)
@example(gamma=1.0, theta=0.4, taus=[2.0], share=12 / 41)
@example(gamma=2.0, theta=0.3, taus=[2.0, -7.5], share=36 / 54)
@example(gamma=5.0, theta=1.0, taus=[7.5], share=12 / 105)
@example(gamma=10.0, theta=0.4, taus=[0.3, 40.0], share=40 / 230)
@example(gamma=10.0, theta=0.4, taus=[2.0], share=172 / 230)
def test_truncation_bound_holds_at_every_dim(gamma, theta, taus, share):
    """|slopes at dim - slopes at 2 dim| / slope_scale <= truncation_bound,
    at dims from far below the heuristic to above it, certified or not."""
    amp = CoherentAmplitude(gamma=gamma, theta=theta)
    dim = max(2, round(share * fock_dim_for(amp)))
    try:
        small = oracle_slopes(taus, amp, FockSpace(dim))
    except OracleError:  # the state keeps no norm at dim
        assume(False)
    big = oracle_slopes(taus, amp, FockSpace(2 * dim))
    scale = slope_scale(np.asarray(taus), gamma)
    deviation = max(np.max(np.abs(small[q] - big[q]) / scale) for q in ORACLE_QUANTITIES)
    assert deviation <= truncation_bound(dim, amp) + ROUNDING


def test_fock_dim_heuristic():
    assert fock_dim_for(CoherentAmplitude()) == 30
    assert fock_dim_for(CoherentAmplitude(gamma=1.0)) == 41
    assert fock_dim_for(CoherentAmplitude(gamma=2.0)) == 54


def test_fock_space_validation():
    with pytest.raises(ValueError):
        FockSpace(1)
