"""Truncated Fock-space numerics: the independent ground truth.

Everything here is linear algebra on the space spanned by number states
|0> .. |N-1>.  Exact in beta: build the deformed Hamiltonian from its bands
as a real symmetric matrix, diagonalise its even and odd number-state blocks,
evolve the coherent state with the exact unitary, and take variances in the
evolved state.  First-order formulas elsewhere in the package are validated
against oracle_slopes, the exact beta-derivatives by linear response at
beta = 0; nothing in this module knows about the order-g expansion.

Truncation caveat: the last rows of a truncated ladder algebra are necessarily
wrong, so operator identities are only asserted on the leading half of the
basis, and states are kept far from the truncation edge (see fock_dim_for).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .boson_algebra import Monomial, OperatorPolynomial
from .physics_config import CoherentAmplitude, PhysicalParams

UNITARITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
AUDIT_TOL = 1e-6

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

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        scale = max(np.abs(self.matrix).max(), 1.0)
        return np.abs(self.matrix - self.matrix.conj().T).max() <= tol * scale


@dataclass(frozen=True, eq=False)
class CoherentVector:
    """Truncated coherent state, renormalized; the clipped tail is recorded."""

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


# Number states of each parity: H couples n only to n, n +- 2, n +- 4.
PARITY = (slice(0, None, 2), slice(1, None, 2))


@dataclass(frozen=True, eq=False)
class ParityEigensystem:
    """Real eigensystems of the even (|0>, |2>, ..) and odd (|1>, |3>, ..)
    blocks of a real symmetric operator that keeps number parity."""

    blocks: tuple[HermitianEigensystem, HermitianEigensystem]

    @property
    def eigenvalues(self) -> np.ndarray:
        """The whole spectrum, ascending."""
        return np.sort(np.concatenate([b.eigenvalues for b in self.blocks]))


# Operators are built from their bands: bands[BANDS + k, r] = M[r, r + k].
# H and p_hat reach offsets +-4.
BANDS = 4


def _ladder(bands: np.ndarray, sign: float) -> np.ndarray:
    """Bands of (a^dag + sign a) M from the bands of M, O(n) work.

    a^dag M takes row r from sqrt(r) M[r-1] (offset k+1 becomes k), a M
    takes it from sqrt(r+1) M[r+1] (offset k-1 becomes k); rows beyond the
    truncation edge drop out exactly as in the product of truncated
    matrices.  The outermost bands of M must be zero."""
    root = np.sqrt(np.arange(1, bands.shape[1]))
    out = np.zeros_like(bands)
    out[:-1, 1:] = root * bands[1:, :-1]
    out[1:, :-1] += sign * root * bands[:-1, 1:]
    return out


def _quadrature_bands(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Bands of a + a^dag and a^dag - a (x is their first, p i times the
    second, each times its length scale)."""
    identity = np.zeros((2 * BANDS + 1, space.dim))
    identity[BANDS] = 1.0
    return _ladder(identity, 1.0), _ladder(identity, -1.0)


def _matrix(bands: np.ndarray, dtype=float) -> np.ndarray:
    """The dense matrix with these bands."""
    n = bands.shape[1]
    out = np.zeros((n, n), dtype=dtype)
    flat = out.reshape(-1)
    for k in range(-min(BANDS, n - 1), min(BANDS, n - 1) + 1):
        start = k if k >= 0 else -k * n  # entry (0, k) or (-k, 0)
        flat[start::n + 1][:n - abs(k)] = bands[BANDS + k, max(0, -k):n - max(0, k)]
    return out


def _lengths(params: PhysicalParams) -> tuple[float, float]:
    """x = lx (a + a^dag), p = i lp (a^dag - a)."""
    return (math.sqrt(params.hbar / (2.0 * params.mass * params.omega)),
            math.sqrt(params.hbar * params.mass * params.omega / 2.0))


def ladder_ops(space: FockSpace) -> tuple[FockOperator, FockOperator]:
    """Annihilation and creation matrices: a|n> = sqrt(n)|n-1>."""
    a = np.diag(np.sqrt(np.arange(1, space.dim, dtype=float)), k=1).astype(complex)
    return FockOperator(space, a), FockOperator(space, a.conj().T)


def canonical_xp(space: FockSpace,
                 params: PhysicalParams) -> tuple[FockOperator, FockOperator]:
    """x = sqrt(hbar/2m w)(a + a^dag), p = i sqrt(hbar m w/2)(a^dag - a)."""
    s, q = _quadrature_bands(space)
    lx, lp = _lengths(params)
    return (FockOperator(space, _matrix(lx * s, complex)),
            FockOperator(space, _matrix(1j * lp * q, complex)))


def _deformed_bands(s: np.ndarray, q: np.ndarray,
                    params: PhysicalParams) -> tuple[np.ndarray, np.ndarray]:
    """Bands of x_hat = x (real) and p_hat = p + (beta/3) p^3 from the
    quadrature bands s, q, where p^3 = -i lp^3 q^3: purely imaginary, at
    offsets +-1, +-3."""
    lx, lp = _lengths(params)
    q3 = _ladder(_ladder(q, -1.0), -1.0)
    return lx * s, 1j * (lp * q - (params.beta / 3.0) * lp ** 3 * q3)


def deformed_ops(space: FockSpace,
                 params: PhysicalParams) -> tuple[FockOperator, FockOperator]:
    """Deformed pair x_hat = x, p_hat = p + (beta/3) p^3.

    Satisfies [x_hat, p_hat] = i hbar (1 + beta p^2) exactly in the truncated
    space away from the edge.
    """
    x_hat, p_hat = _deformed_bands(*_quadrature_bands(space), params)
    return (FockOperator(space, _matrix(x_hat, complex)),
            FockOperator(space, _matrix(p_hat, complex)))


def _oscillator_bands(space: FockSpace,
                      params: PhysicalParams) -> tuple[np.ndarray, np.ndarray]:
    """Bands of H0 = p^2/2m + m w^2 x^2 / 2 (diagonal up to rounding) and p^4."""
    s, q = _quadrature_bands(space)
    lx, lp = _lengths(params)
    p2 = -lp ** 2 * _ladder(q, -1.0)
    p4 = -lp ** 2 * _ladder(_ladder(p2, -1.0), -1.0)
    h0 = (p2 / (2.0 * params.mass)
          + 0.5 * params.mass * params.omega ** 2 * lx ** 2 * _ladder(s, 1.0))
    return h0, p4


def hamiltonian(space: FockSpace, params: PhysicalParams) -> FockOperator:
    """H = p^2/2m + m w^2 x^2 / 2 + beta p^4 / 3m: real symmetric, at
    offsets 0, +-2, +-4, built from its bands."""
    h0, p4 = _oscillator_bands(space, params)
    h = h0 + (params.beta / (3.0 * params.mass)) * p4
    n = space.dim
    for k in range(1, min(BANDS, n - 1) + 1):  # scrub rounding asymmetry
        upper, lower = h[BANDS + k, :n - k], h[BANDS - k, k:]
        upper[:] = lower[:] = 0.5 * (upper + lower)
    return FockOperator(space, _matrix(h))


def eigensystem(op: FockOperator) -> ParityEigensystem:
    """Eigendecomposition of a real symmetric operator that keeps number
    parity, as H does: one float64 eigh per parity block, each audited for
    orthonormal eigenvectors (the unitarity gate) and for reconstruction."""
    if not op.is_hermitian(tol=1e-10):
        raise OracleError("eigendecomposition requested for non-Hermitian matrix")
    matrix = op.matrix
    if np.iscomplexobj(matrix):
        if np.any(matrix.imag):
            raise OracleError("eigendecomposition requested for a matrix with "
                              "an imaginary part")
        matrix = matrix.real
    even, odd = PARITY
    if np.any(matrix[even, odd]) or np.any(matrix[odd, even]):
        raise OracleError("eigendecomposition requested for a matrix that "
                          "couples even and odd number states")
    scale = max(float(matrix.max()), float(-matrix.min()), 1.0)
    blocks = []
    for rows in PARITY:
        block = matrix[rows, rows]
        eig = HermitianEigensystem(*np.linalg.eigh(block))
        v = eig.eigenvectors
        defect = np.abs(v.T @ v - np.eye(v.shape[1])).max()
        if not defect <= UNITARITY_TOL:
            raise OracleError(f"eigenvectors lost unitarity: defect {defect:.2e}")
        if not eig.reconstruction_error(block) <= RECONSTRUCTION_TOL * scale:
            raise OracleError("eigendecomposition failed the reconstruction audit")
        blocks.append(eig)
    return ParityEigensystem(tuple(blocks))


def evolve(eig: ParityEigensystem, vectors: np.ndarray, t: float,
           hbar: float = 1.0) -> np.ndarray:
    """exp(-i H t / hbar) applied to a vector or to the columns of a matrix:
    V (e^{-iEt/hbar} (V^T vectors)) per parity block, O(n^2) per vector.

    The eigenvectors are audited once in eigensystem; here OracleError is
    raised if t is not finite or an evolved column's norm moves by more
    than UNITARITY_TOL."""
    if not math.isfinite(t):
        raise OracleError(f"evolution operator lost unitarity: time {t} is not finite")
    vectors = np.asarray(vectors)
    out = np.empty(vectors.shape, dtype=complex)
    for rows, block in zip(PARITY, eig.blocks):
        v = block.eigenvectors
        phase = np.exp(-1j * block.eigenvalues * t / hbar)
        coeff = _real_matmul(v.T, vectors[rows])
        out[rows] = _real_matmul(v, (phase * coeff.T).T)  # phase per row
    before = np.linalg.norm(vectors, axis=0)
    defect = np.max(np.abs(np.linalg.norm(out, axis=0) - before)
                    / np.maximum(before, 1e-300))  # NaN propagates
    if not defect <= UNITARITY_TOL:
        raise OracleError(f"evolution operator lost unitarity: defect {defect:.2e}")
    return out


def _real_matmul(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for real m and complex z: two real products, since NumPy
    multiplies mixed real and complex operands without BLAS."""
    return m @ z.real + 1j * (m @ z.imag)


def evolution_operator(eig: ParityEigensystem, t: float,
                       hbar: float = 1.0) -> np.ndarray:
    """U = exp(-i H t / hbar) as a dense matrix: evolve on the identity."""
    return evolve(eig, np.eye(eig.eigenvalues.size), t, hbar)


def heisenberg_evolve(op: FockOperator, h: FockOperator, t: float,
                      hbar: float = 1.0) -> FockOperator:
    """O(t) = U^dag O U with U = exp(-i H t / hbar): the Heisenberg picture,
    kept as the reference the Schrodinger-picture oracle is tested against."""
    u = evolution_operator(eigensystem(h), t, hbar)
    return FockOperator(op.space, u.conj().T @ op.matrix @ u)


def coherent_vector(alpha: complex | CoherentAmplitude,
                    space: FockSpace) -> CoherentVector:
    """First dim coefficients of exp(-|a|^2/2) a^n/sqrt(n!), renormalized.

    The recursion runs on the coefficients times 2**shift (log space in base
    2), so nothing underflows; powers of two scale exactly, so in range this
    is the plain recursion bit for bit.  OracleError if no norm is kept."""
    amp = CoherentAmplitude.from_complex(alpha)
    a = amp.alpha
    no_norm = OracleError(f"coherent state |alpha| = {amp.gamma:g} keeps no norm "
                          f"in Fock dimension {space.dim}")
    mod = abs(a)
    if _keeps_no_norm(mod * mod, space.dim):  # mod * mod overflows to inf, ** raises
        raise no_norm
    half_mod2 = 0.5 * mod ** 2
    shift = max(0, math.ceil(half_mod2 / math.log(2.0)) - 1000)  # start >= 2**-1000
    comps = np.empty(space.dim, dtype=complex)
    comps[0] = math.exp(shift * math.log(2.0) - half_mod2)
    for n in range(1, space.dim):
        comps[n] = comps[n - 1] * a / math.sqrt(n)
        if abs(comps[n]) > 2.0 ** 400:  # keep the peak in range too
            comps[:n + 1] /= 2.0 ** 400
            shift -= 400
    norm_sq = float(np.vdot(comps, comps).real)
    loss = 1.0 - math.ldexp(norm_sq, -2 * shift)
    if not loss < 1.0:  # NaN too
        raise no_norm
    return CoherentVector(comps / math.sqrt(norm_sq), max(0.0, loss))


def _keeps_no_norm(mod2: float, dim: int) -> bool:
    """True when the Poisson(|alpha|^2) weight of n < dim is below e^-50,
    so 1 - weight rounds to 1: for |alpha|^2 > dim - 1 the weights rise up
    to n = dim - 1 and their sum is at most dim times the last.  Decided
    before the recursion, whose exponent split loses its precision (and
    0.5|alpha|^2 its finiteness) at such amplitudes."""
    last = dim - 1
    if not mod2 < math.inf:
        return True
    return mod2 > last and (math.log(dim) - mod2 + last * math.log(mod2)
                            - math.lgamma(dim)) < -50.0


def expect(state: CoherentVector, op: FockOperator) -> complex:
    if state.components.shape[0] != op.space.dim:
        raise ValueError(
            f"state dim {state.components.shape[0]} != operator dim {op.space.dim}")
    return complex(np.vdot(state.components, op.matrix @ state.components))


def variance_numeric(state: CoherentVector, op: FockOperator) -> float:
    """<O^2> - <O>^2 for Hermitian O."""
    return float(_variance(state.components, op.matrix @ state.components))


def _variance(psi: np.ndarray, o_psi: np.ndarray) -> np.ndarray:
    """<O^2> - <O>^2 for Hermitian O from |psi> and O|psi>, for each O whose
    O|psi> is a row of o_psi."""
    mean = (o_psi @ psi.conj()).real
    second = (o_psi.conj() * o_psi).real.sum(axis=-1)  # <O^dag O> = <O^2>
    return second - mean * mean


def _apply(bands: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v from the bands of M (or of a stack of M), O(n) per M:
    (M v)[r] = sum_k M[r, r+k] v[r+k]."""
    padded = np.zeros(v.shape[0] + 2 * BANDS, dtype=complex)
    padded[BANDS:-BANDS] = v
    return (bands * sliding_window_view(padded, v.shape[0])).sum(axis=-2)


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


def fock_dim_for(amplitude: CoherentAmplitude) -> int:
    """Dimension heuristic |alpha|^2 + 10|alpha| + 30.

    Poisson tail of the coherent state plus headroom for quartic level
    mixing; where this is not enough, truncation_audit fails.
    """
    gamma = amplitude.gamma
    return math.ceil(gamma * gamma + 10.0 * gamma + 30)


def oracle_variances(tau, amplitude: CoherentAmplitude, params: PhysicalParams,
                     space: FockSpace | None = None) -> dict[str, float | np.ndarray]:
    """All five variances, exact in beta on the truncated space, at every tau.

    tau is the dimensionless time omega * t, a float or a sequence; each
    value comes back shaped like tau.  Returns var_x1, var_x2 (quadratures
    of the evolved annihilation operator), var_x_hat, var_p_hat (deformed
    observables) and their product.  Schrodinger picture: H is diagonalised
    once per call (two real parity blocks), and the variance of O(t) in
    |psi> is taken as the variance of the fixed, banded O in U|psi>: O(n^2)
    work per tau, O(n) per operator.
    """
    if space is None:
        space = FockSpace(fock_dim_for(amplitude))
    s, q = _quadrature_bands(space)
    x_hat, p_hat = _deformed_bands(s, q, params)
    # bands of X1 = (a + a^dag)/2, X2 = (a - a^dag)/2i, x_hat, p_hat
    bands = np.stack([0.5 * s, 0.5j * q, x_hat, p_hat])
    eig = eigensystem(hamiltonian(space, params))
    psi = coherent_vector(amplitude, space).components

    def at(t):  # the five variances at one tau
        psi_t = evolve(eig, psi, t / params.omega, params.hbar)  # U|psi>
        var = _variance(psi_t, _apply(bands, psi_t))
        return [*var, var[2] * var[3]]

    return _per_tau(tau, at)


def _per_tau(tau, at) -> dict[str, float | np.ndarray]:
    """at(t) for each t in tau, by quantity; each comes back shaped like tau."""
    taus = np.asarray(tau, dtype=float)
    values = np.empty(taus.shape + (len(ORACLE_QUANTITIES),))
    for i, t in np.ndenumerate(taus):
        values[i] = at(t)
    return {q: v[()] for q, v in zip(ORACLE_QUANTITIES, np.moveaxis(values, -1, 0))}


def slope_scale(tau, gamma: float):
    """(1 + gamma^2)^2 (1 + |tau|): the size first-order slopes reach, natural
    units; the scale of their rounding error where a slope passes through 0."""
    return (1.0 + gamma * gamma) ** 2 * (1.0 + np.abs(tau))


def oracle_slopes(tau, amplitude: CoherentAmplitude,
                  space: FockSpace | None = None) -> dict[str, float | np.ndarray]:
    """d/dbeta at beta = 0 of all five oracle variances, natural units, shaped
    like tau, by linear response: no eigensolve, O(n) work per tau.

    H0 is diagonal (energies E), so Duhamel's formula gives d(U psi)/dbeta =
    -i e^{-iEt} (W psi) exactly: W has the bands of V = p^4/3m times
    F(D, t) = int_0^t e^{-iDs} ds, D = E[r+k] - E[r].  Each variance slope is
    2Re<O psi, d(O psi)> - 2<O> d<O>; d p_hat/dbeta = p^3/3 adds to d(O psi).
    """
    if space is None:
        space = FockSpace(fock_dim_for(amplitude))
    params = PhysicalParams.natural(0.0)
    s, q = _quadrature_bands(space)
    bands = np.stack([0.5 * s, 0.5j * q, *_deformed_bands(s, q, params)])
    d_bands = np.zeros_like(bands)
    d_bands[3] = -1j * _lengths(params)[1] ** 3 / 3.0 * _ladder(_ladder(q, -1.0), -1.0)
    h0, p4 = _oscillator_bands(space, params)
    energies = h0[BANDS]
    gaps = sliding_window_view(np.pad(energies, BANDS), space.dim) - energies
    v_bands = p4 / (3.0 * params.mass)  # zero wherever a gap runs off the space
    psi = coherent_vector(amplitude, space).components

    def at(t):  # the five slopes at one tau
        phase = np.exp(-1j * energies * t)
        if not np.isfinite(phase).all():  # NaN t too
            raise OracleError(f"evolution operator lost unitarity: time {t} "
                              "is beyond the float range")
        psi_t = phase * psi
        # F(D, t) = t e^{-iDt/2} sinc(Dt/2pi), stable as D t -> 0
        f = t * np.exp(-0.5j * gaps * t) * np.sinc(gaps * t / (2.0 * np.pi))
        chi = -1j * phase * _apply(v_bands * f, psi)
        o_psi, o_chi = _apply(bands, psi_t), _apply(bands, chi)
        d_o_psi = o_chi + _apply(d_bands, psi_t)
        mean = (o_psi @ psi_t.conj()).real
        d_mean = ((o_chi + d_o_psi) @ psi_t.conj()).real  # 2Re<psi, O chi> + <O'>
        slopes = 2.0 * (o_psi.conj() * d_o_psi).real.sum(axis=-1) - 2.0 * mean * d_mean
        var = _variance(psi_t, o_psi)
        return [*slopes, var[2] * slopes[3] + var[3] * slopes[2]]

    return _per_tau(tau, at)


@dataclass(frozen=True, eq=False)
class TruncationAudit:
    dim_doubled: int
    max_rel_deviation: float
    passed: bool
    slopes: dict[str, float | np.ndarray]  # oracle_slopes at dim


def truncation_audit(space: FockSpace, amplitude: CoherentAmplitude, tau) -> TruncationAudit:
    """oracle_slopes at dim and at 2*dim, compared at every tau, each relative
    to the larger of its doubled-dimension value and slope_scale.  The slopes
    at dim come back with the verdict, so a caller evaluates them once."""
    small = oracle_slopes(tau, amplitude, space)
    big_space = FockSpace(2 * space.dim)
    big = oracle_slopes(tau, amplitude, big_space)
    scale = slope_scale(tau, amplitude.gamma)
    worst = float(np.max([np.abs(small[q] - big[q]) / np.maximum(np.abs(big[q]), scale)
                          for q in ORACLE_QUANTITIES]))  # NaN propagates
    return TruncationAudit(big_space.dim, worst, worst < AUDIT_TOL, small)
