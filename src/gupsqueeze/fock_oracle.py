"""Truncated Fock-space numerics: the independent ground truth.

Everything here is exact finite-beta linear algebra on the space spanned by
number states |0> .. |N-1>: build the deformed Hamiltonian as a dense matrix,
evolve operators with the exact unitary from its eigendecomposition, and take
coherent-state variances.  First-order formulas elsewhere in the package are
validated against this module by central differencing in beta; nothing in
this module knows about the order-g expansion.

Truncation caveat: the last rows of a truncated ladder algebra are necessarily
wrong, so operator identities are only asserted on the leading half of the
basis, and states are kept far from the truncation edge (see fock_dim_for).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .boson_algebra import Monomial, OperatorPolynomial
from .physics_config import CoherentAmplitude, PhysicalParams

UNITARITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
AUDIT_TOL = 1e-6
DEFAULT_G_STEP = 1e-6

ORACLE_QUANTITIES = ("var_x1", "var_x2", "var_x_hat", "var_p_hat", "product")


class OracleError(RuntimeError):
    """Numerical contract violation (non-Hermitian input, lost unitarity...)."""


@dataclass(frozen=True)
class FockSpace:
    """Number basis |0> .. |dim-1|."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"Fock dimension must be >= 2, got {self.dim}")


@dataclass(frozen=True, eq=False)
class FockOperator:
    space: FockSpace
    matrix: np.ndarray

    def __post_init__(self):
        n = self.space.dim
        if self.matrix.shape != (n, n):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match dim {n}")

    def dagger(self) -> "FockOperator":
        return FockOperator(self.space, self.matrix.conj().T)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        scale = max(np.abs(self.matrix).max(), 1.0)
        return np.abs(self.matrix - self.matrix.conj().T).max() <= tol * scale


@dataclass(frozen=True, eq=False)
class CoherentVector:
    """Truncated coherent state, renormalized; the clipped tail is recorded."""

    amplitude: CoherentAmplitude
    components: np.ndarray
    truncation_loss: float


@dataclass(frozen=True, eq=False)
class HermitianEigensystem:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruction_error(self, matrix: np.ndarray) -> float:
        v = self.eigenvectors
        rebuilt = (v * self.eigenvalues) @ v.conj().T
        return float(np.abs(rebuilt - matrix).max())


def ladder_ops(space: FockSpace) -> tuple[FockOperator, FockOperator]:
    """Annihilation and creation matrices: a|n> = sqrt(n)|n-1>."""
    a = np.diag(np.sqrt(np.arange(1, space.dim, dtype=float)), k=1).astype(complex)
    return FockOperator(space, a), FockOperator(space, a.conj().T)


def canonical_xp(space: FockSpace,
                 params: PhysicalParams) -> tuple[FockOperator, FockOperator]:
    """x = sqrt(hbar/2m w)(a + a^dag), p = i sqrt(hbar m w/2)(a^dag - a)."""
    a, adag = ladder_ops(space)
    lx = math.sqrt(params.hbar / (2.0 * params.mass * params.omega))
    lp = math.sqrt(params.hbar * params.mass * params.omega / 2.0)
    x = FockOperator(space, lx * (a.matrix + adag.matrix))
    p = FockOperator(space, 1j * lp * (adag.matrix - a.matrix))
    return x, p


def deformed_ops(space: FockSpace,
                 params: PhysicalParams) -> tuple[FockOperator, FockOperator]:
    """Deformed pair x_hat = x, p_hat = p + (beta/3) p^3.

    Satisfies [x_hat, p_hat] = i hbar (1 + beta p^2) exactly in the truncated
    space away from the edge.
    """
    x, p = canonical_xp(space, params)
    p3 = p.matrix @ p.matrix @ p.matrix
    p_hat = FockOperator(space, p.matrix + (params.beta / 3.0) * p3)
    return x, p_hat


def hamiltonian(space: FockSpace, params: PhysicalParams) -> FockOperator:
    """H = p^2/2m + m w^2 x^2 / 2 + beta p^4 / 3m."""
    x, p = canonical_xp(space, params)
    p2 = p.matrix @ p.matrix
    h = (p2 / (2.0 * params.mass)
         + 0.5 * params.mass * params.omega ** 2 * (x.matrix @ x.matrix)
         + (params.beta / (3.0 * params.mass)) * (p2 @ p2))
    h = 0.5 * (h + h.conj().T)  # scrub rounding asymmetry
    return FockOperator(space, h)


def eigensystem(op: FockOperator) -> HermitianEigensystem:
    """Eigendecomposition of a Hermitian operator, with reconstruction audit."""
    if not op.is_hermitian(tol=1e-10):
        raise OracleError("eigendecomposition requested for non-Hermitian matrix")
    eigenvalues, eigenvectors = np.linalg.eigh(op.matrix)
    eig = HermitianEigensystem(eigenvalues, eigenvectors)
    scale = max(float(np.abs(op.matrix).max()), 1.0)
    if eig.reconstruction_error(op.matrix) > RECONSTRUCTION_TOL * scale:
        raise OracleError("eigendecomposition failed the reconstruction audit")
    return eig


def evolution_operator(eig: HermitianEigensystem, t: float,
                       hbar: float = 1.0) -> np.ndarray:
    """U = exp(-i H t / hbar) from the eigensystem; unitarity is verified."""
    v = eig.eigenvectors
    u = (v * np.exp(-1j * eig.eigenvalues * t / hbar)) @ v.conj().T
    defect = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if defect > UNITARITY_TOL:
        raise OracleError(f"evolution operator lost unitarity: defect {defect:.2e}")
    return u


def heisenberg_evolve(op: FockOperator, h: FockOperator, t: float,
                      hbar: float = 1.0) -> FockOperator:
    """O(t) = U^dag O U with U = exp(-i H t / hbar)."""
    u = evolution_operator(eigensystem(h), t, hbar)
    return FockOperator(op.space, u.conj().T @ op.matrix @ u)


def coherent_vector(alpha: complex | CoherentAmplitude,
                    space: FockSpace) -> CoherentVector:
    """First dim coefficients of exp(-|a|^2/2) a^n/sqrt(n!), renormalized."""
    amp = alpha if isinstance(alpha, CoherentAmplitude) \
        else CoherentAmplitude.from_complex(alpha)
    a = amp.alpha
    comps = np.empty(space.dim, dtype=complex)
    comps[0] = math.exp(-0.5 * abs(a) ** 2)
    for n in range(1, space.dim):
        comps[n] = comps[n - 1] * a / math.sqrt(n)
    norm_sq = float(np.vdot(comps, comps).real)
    loss = max(0.0, 1.0 - norm_sq)
    return CoherentVector(amp, comps / math.sqrt(norm_sq), loss)


def expect(state: CoherentVector, op: FockOperator) -> complex:
    if state.components.shape[0] != op.space.dim:
        raise ValueError(
            f"state dim {state.components.shape[0]} != operator dim {op.space.dim}")
    return complex(np.vdot(state.components, op.matrix @ state.components))


def variance_numeric(state: CoherentVector, op: FockOperator) -> float:
    """<O^2> - <O>^2 for Hermitian O."""
    vec = op.matrix @ state.components
    mean = float(np.vdot(state.components, vec).real)
    second = float(np.vdot(vec, vec).real)  # <O^dag O> = <O^2> for Hermitian O
    return second - mean * mean


def monomial_matrix(space: FockSpace, mono: Monomial) -> np.ndarray:
    """Matrix of a^dag^m a^n on the truncated space."""
    a, adag = ladder_ops(space)
    m, n = mono
    out = np.eye(space.dim, dtype=complex)
    for _ in range(m):
        out = out @ adag.matrix
    for _ in range(n):
        out = out @ a.matrix
    return out


def polynomial_matrix(poly: OperatorPolynomial, space: FockSpace,
                      g: float = 0.0) -> np.ndarray:
    """Matrix of an exact graded polynomial, coefficients evaluated at g."""
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for mono, (c0, c1) in poly.terms.items():
        out += (complex(c0) + g * complex(c1)) * monomial_matrix(space, mono)
    return out


def fock_dim_for(amplitude: CoherentAmplitude, floor: int = 30) -> int:
    """Dimension heuristic |alpha|^2 + 10|alpha| + floor.

    Poisson tail of the coherent state plus headroom for quartic level
    mixing; truncation_audit doubles it when this is not enough.
    """
    gamma = amplitude.gamma
    return math.ceil(gamma * gamma + 10.0 * gamma + floor)


def oracle_variances(tau: float, amplitude: CoherentAmplitude,
                     params: PhysicalParams,
                     space: FockSpace | None = None) -> dict[str, float]:
    """All five variances at one time, exact in beta on the truncated space.

    Returns var_x1, var_x2 (quadratures of the evolved annihilation
    operator), var_x_hat, var_p_hat (deformed observables), and their
    product.  tau is the dimensionless time omega * t.
    """
    if space is None:
        space = FockSpace(fock_dim_for(amplitude))
    t = tau / params.omega
    a, _ = ladder_ops(space)
    x_hat, p_hat = deformed_ops(space, params)
    h = hamiltonian(space, params)
    u = evolution_operator(eigensystem(h), t, params.hbar)

    def evolve(op: FockOperator) -> FockOperator:
        return FockOperator(space, u.conj().T @ op.matrix @ u)

    a_t = evolve(a)
    x1 = FockOperator(space, 0.5 * (a_t.matrix + a_t.matrix.conj().T))
    x2 = FockOperator(space, (a_t.matrix - a_t.matrix.conj().T) / 2j)
    state = coherent_vector(amplitude, space)
    var_x1 = variance_numeric(state, x1)
    var_x2 = variance_numeric(state, x2)
    var_x_hat = variance_numeric(state, evolve(x_hat))
    var_p_hat = variance_numeric(state, evolve(p_hat))
    return {
        "var_x1": var_x1,
        "var_x2": var_x2,
        "var_x_hat": var_x_hat,
        "var_p_hat": var_p_hat,
        "product": var_x_hat * var_p_hat,
    }


@dataclass(frozen=True)
class SlopeEstimate:
    """Central-difference derivative with a half-step refinement check."""

    slope: float
    slope_refined: float
    rel_deviation: float
    converged: bool


def first_order_coefficient(f: Callable[[float], Mapping[str, float]], step: float,
                            rel_tol: float = 1e-3) -> dict[str, SlopeEstimate]:
    """d f / d beta at 0 by central difference, checked at half step, for
    every quantity of the mapping f returns.

    f runs exactly four times (+-step, +-step/2), shared by all quantities.
    The two estimates must agree to rel_tol or the result is flagged as
    non-converged (truncation dimension too small, or the step poorly
    chosen for the scale of f).
    """
    if step <= 0.0:
        raise ValueError(f"difference step must be positive, got {step}")
    half = step / 2.0
    plus, minus = f(step), f(-step)
    plus_half, minus_half = f(half), f(-half)
    out = {}
    for q in plus:
        slope = (plus[q] - minus[q]) / (2.0 * step)
        refined = (plus_half[q] - minus_half[q]) / (2.0 * half)
        denom = max(abs(slope), abs(refined), 1e-300)
        rel_dev = abs(slope - refined) / denom
        out[q] = SlopeEstimate(slope, refined, rel_dev, rel_dev <= rel_tol)
    return out


def oracle_slopes(tau: float, amplitude: CoherentAmplitude,
                  space: FockSpace | None = None,
                  g_step: float = DEFAULT_G_STEP,
                  rel_tol: float = 1e-3) -> dict[str, SlopeEstimate]:
    """dV/dg at g = 0 for all five oracle variances, natural units."""
    if space is None:
        space = FockSpace(fock_dim_for(amplitude))
    return first_order_coefficient(
        lambda g: oracle_variances(tau, amplitude, PhysicalParams.natural(g), space),
        g_step, rel_tol)


@dataclass(frozen=True)
class TruncationAudit:
    dim: int
    dim_doubled: int
    max_rel_deviation: float
    passed: bool


def truncation_audit(space: FockSpace, amplitude: CoherentAmplitude,
                     g: float, tau_max: float,
                     tol: float = AUDIT_TOL) -> TruncationAudit:
    """Re-run the variance pipeline at dim and 2*dim and compare.

    The late-time point is the worst case (quartic mixing spreads support),
    so agreement there certifies the dimension for the whole tau range.
    """
    params = PhysicalParams.natural(g)
    small = oracle_variances(tau_max, amplitude, params, space)
    big_space = FockSpace(2 * space.dim)
    big = oracle_variances(tau_max, amplitude, params, big_space)
    worst = 0.0
    for q in ORACLE_QUANTITIES:
        denom = max(abs(big[q]), 1e-300)
        worst = max(worst, abs(small[q] - big[q]) / denom)
    return TruncationAudit(space.dim, big_space.dim, worst, worst < tol)
