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

import functools
import math
from dataclasses import dataclass
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .physics_config import CoherentAmplitude, PhysicalParams

UNITARITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
AUDIT_TOL = 1e-6

ORACLE_QUANTITIES = ("var_x1", "var_x2", "var_x_hat", "var_p_hat", "product")


class OracleError(RuntimeError):
    """Numerical contract violation (non-Hermitian input, lost unitarity...)."""


@dataclass(frozen=True)
class FockSpace:
    """Number basis |0> .. |dim-1>."""

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


@dataclass(frozen=True, eq=False)
class CoherentVector:
    """Truncated coherent state, renormalized; the clipped tail is recorded."""

    components: np.ndarray
    truncation_loss: float


# Number states of each parity: H couples n only to n, n +- 2, n +- 4.
PARITY = (slice(0, None, 2), slice(1, None, 2))


@dataclass(frozen=True, eq=False)
class ParityEigensystem:
    """Real eigensystems, each an (eigenvalues, eigenvectors) pair, of the
    even (|0>, |2>, ..) and odd (|1>, |3>, ..) blocks of a real symmetric
    operator that keeps number parity."""

    blocks: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]

    @property
    def eigenvalues(self) -> np.ndarray:
        """The whole spectrum, ascending."""
        return np.sort(np.concatenate([values for values, _ in self.blocks]))


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


def _quadrature_bands(space: FockSpace) -> tuple[np.ndarray, ...]:
    """Bands of a + a^dag and of (a^dag - a)^k for k = 1, 2, 3 (x is the
    first, p i times the second, each times its length scale)."""
    identity = np.zeros((2 * BANDS + 1, space.dim))
    identity[BANDS] = 1.0
    q = _ladder(identity, -1.0)
    q2 = _ladder(q, -1.0)
    return _ladder(identity, 1.0), q, q2, _ladder(q2, -1.0)


def _matrix(bands: np.ndarray) -> np.ndarray:
    """The dense matrix with these bands, of their dtype."""
    n = bands.shape[1]
    out = np.zeros((n, n), dtype=bands.dtype)
    flat = out.reshape(-1)
    for k in range(-min(BANDS, n - 1), min(BANDS, n - 1) + 1):
        start = k if k >= 0 else -k * n  # entry (0, k) or (-k, 0)
        flat[start::n + 1][:n - abs(k)] = bands[BANDS + k, max(0, -k):n - max(0, k)]
    return out


def _lengths(params: PhysicalParams) -> tuple[float, float]:
    """x = lx (a + a^dag), p = i lp (a^dag - a)."""
    return (math.sqrt(params.hbar / (2.0 * params.mass * params.omega)),
            math.sqrt(params.hbar * params.mass * params.omega / 2.0))


def _model(space: FockSpace, params: PhysicalParams) -> tuple[np.ndarray, ...]:
    """The deformed oscillator H = H0 + beta V, observed through x_hat = x and
    p_hat = p + beta p^3/3: the one place its terms are spelled.  Returns the
    bands of the observables X1 = (a + a^dag)/2, X2 = (a - a^dag)/2i, x_hat
    and p_hat, stacked (at offsets +-1, +-3); of d p_hat/dbeta = p^3/3; of
    H0 = p^2/2m + m w^2 x^2/2 (diagonal up to rounding); and of V = p^4/3m.
    p = i lp q, so p^3 = -i lp^3 q^3 is purely imaginary."""
    s, q, q2, q3 = _quadrature_bands(space)
    lx, lp = _lengths(params)
    d_p_hat = -1j * lp ** 3 / 3.0 * q3
    p_hat = 1j * lp * q + params.beta * d_p_hat
    observables = np.stack([0.5 * s, 0.5j * q, lx * s, p_hat])
    p2 = -lp ** 2 * q2
    h0 = (p2 / (2.0 * params.mass)
          + 0.5 * params.mass * params.omega ** 2 * lx ** 2 * _ladder(s, 1.0))
    v = -lp ** 2 * _ladder(_ladder(p2, -1.0), -1.0) / (3.0 * params.mass)
    return observables, d_p_hat, h0, v


def hamiltonian(space: FockSpace, params: PhysicalParams) -> FockOperator:
    """H = H0 + beta V (see _model): real symmetric, at offsets 0, +-2, +-4,
    built from its bands."""
    _, _, h0, v = _model(space, params)
    h = h0 + params.beta * v
    n = space.dim
    for k in range(1, min(BANDS, n - 1) + 1):  # scrub rounding asymmetry
        upper, lower = h[BANDS + k, :n - k], h[BANDS - k, k:]
        upper[:] = lower[:] = 0.5 * (upper + lower)
    return FockOperator(space, _matrix(h))


def eigensystem(op: FockOperator) -> ParityEigensystem:
    """Eigendecomposition of a real symmetric operator that keeps number
    parity, as H does: one float64 eigh per parity block, each audited for
    orthonormal eigenvectors (the unitarity gate) and for reconstruction.
    A complex matrix is refused, even one whose imaginary part is zero."""
    matrix = op.matrix
    scale = max(np.abs(matrix).max(), 1.0)
    if not np.abs(matrix - matrix.conj().T).max() <= 1e-10 * scale:
        raise OracleError("eigendecomposition requested for non-Hermitian matrix")
    if np.iscomplexobj(matrix):
        raise OracleError("eigendecomposition requested for a complex matrix")
    even, odd = PARITY
    if np.any(matrix[even, odd]) or np.any(matrix[odd, even]):
        raise OracleError("eigendecomposition requested for a matrix that "
                          "couples even and odd number states")
    blocks = []
    for rows in PARITY:
        block = matrix[rows, rows]
        values, vectors = np.linalg.eigh(block)
        defect = np.abs(vectors.T @ vectors - np.eye(values.size)).max()
        if not defect <= UNITARITY_TOL:
            raise OracleError(f"eigenvectors lost unitarity: defect {defect:.2e}")
        rebuilt = (vectors * values) @ vectors.T
        if not np.abs(rebuilt - block).max() <= RECONSTRUCTION_TOL * scale:
            raise OracleError("eigendecomposition failed the reconstruction audit")
        blocks.append((values, vectors))
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
    for rows, (values, v) in zip(PARITY, eig.blocks):
        phase = np.exp(-1j * values * t / hbar)
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


def coherent_vector(alpha: complex | CoherentAmplitude,
                    space: FockSpace) -> CoherentVector:
    """First dim coefficients of exp(-|a|^2/2) a^n/sqrt(n!), renormalized.

    The recursion runs on the coefficients times 2**shift (log space in base
    2), so nothing underflows; powers of two scale exactly, so in range this
    is the plain recursion bit for bit.  It steps one complex128 scalar and
    lists the coefficients, and a 2**-400 rescale divides the list as an
    array.  OracleError if no norm is kept."""
    amp = CoherentAmplitude.from_complex(alpha)
    a = amp.alpha
    no_norm = OracleError(f"coherent state |alpha| = {amp.gamma:g} keeps no norm "
                          f"in Fock dimension {space.dim}")
    mod = abs(a)
    if _keeps_no_norm(mod * mod, space.dim):  # mod * mod overflows to inf, ** raises
        raise no_norm
    half_mod2 = 0.5 * mod ** 2
    shift = max(0, math.ceil(half_mod2 / math.log(2.0)) - 1000)  # start >= 2**-1000
    a, coeff = np.complex128(a), np.complex128(math.exp(shift * math.log(2.0) - half_mod2))
    comps = [coeff]
    for root in np.sqrt(np.arange(1, space.dim)).tolist():  # sqrt(n), as math.sqrt rounds it
        coeff = coeff * a / root
        comps.append(coeff)
        if abs(coeff) > 2.0 ** 400:  # keep the peak in range too
            comps = list(np.divide(comps, 2.0 ** 400))
            coeff = comps[-1]
            shift -= 400
    comps = np.array(comps)
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


def variance_numeric(state: CoherentVector, op: FockOperator) -> float:
    """<O^2> - <O>^2 for Hermitian O."""
    return float(_variance(state.components, op.matrix @ state.components))


def _variance(psi: np.ndarray, o_psi: np.ndarray) -> np.ndarray:
    """<O^2> - <O>^2 for Hermitian O from |psi> and O|psi>, for each O whose
    O|psi> is a row of o_psi."""
    mean = (o_psi @ psi.conj()).real
    second = (o_psi.conj() * o_psi).real.sum(axis=-1)  # <O^dag O> = <O^2>
    return second - mean * mean


# The rows of a full band table: row BANDS + k holds offset k.
_BAND_ROWS = range(2 * BANDS + 1)


def _apply(bands: np.ndarray, v: np.ndarray, rows=_BAND_ROWS) -> np.ndarray:
    """M v from the bands of M (or of a stack of M), O(n) per M and vector:
    (M v)[r] = sum_k M[r, r+k] v[r+k], one band slice at a time.  v may be
    a stack of vectors along its leading axes, which broadcast against those
    of bands.  bands holds the band rows given by rows (offset + BANDS, in
    order): all of them, or only those of the offsets where M is not zero."""
    n = v.shape[-1]
    padded = np.zeros(v.shape[:-1] + (n + 2 * BANDS,), dtype=complex)
    padded[..., BANDS:-BANDS] = v
    terms = (bands[..., i, :] * padded[..., start:start + n]
             for i, start in enumerate(rows))
    return sum(terms, 0.0)  # from 0, in offset order, as sum(axis=-2) adds


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
    bands = _model(space, params)[0]
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
    return _by_quantity(values)


def _by_quantity(values: np.ndarray) -> dict[str, float | np.ndarray]:
    """The last axis of values, one entry per quantity; a scalar where tau was."""
    return {q: v[()] for q, v in zip(ORACLE_QUANTITIES, np.moveaxis(values, -1, 0))}


def slope_scale(tau, gamma: float):
    """(1 + gamma^2)^2 (1 + |tau|): the size first-order slopes reach, natural
    units; the scale of their rounding error where a slope passes through 0."""
    return (1.0 + gamma * gamma) ** 2 * (1.0 + np.abs(tau))


# Taus per chunk of oracle_slopes' array pass, times the Fock dimension.  Its
# largest arrays hold 5 complex numbers per (tau, number state), V's even
# bands times F, so each stays near 320 kB at any dimension.  With all 9
# bands per quantity, 5000 taus at gamma = 10 ran no faster with 4 times
# larger chunks and took 20 MiB more.
_SLOPE_CHUNK_CELLS = 2 ** 12

# Band rows by the parity of their offset (BANDS is even): H, p^4 and V sit at
# the even offsets, the observables X1, X2, x_hat and p_hat at +-1, +-3.
EVEN, ODD = PARITY

# Fock dimensions whose slope tables a process keeps: a certified truncation
# audit (see truncation_bound) needs dim alone, so 4 serves four amplitudes
# in turn; an uncertified one needs dim and 2 dim as well.
_SLOPE_TABLES_KEPT = 4


@functools.lru_cache(maxsize=_SLOPE_TABLES_KEPT)
def _slope_operators(dim: int) -> tuple[np.ndarray, ...]:
    """oracle_slopes' tables at one Fock dimension, read-only: the bands of
    X1, X2, x_hat and p_hat at the odd offsets where one of them is not zero,
    and those offsets' band rows (offset + BANDS); the bands of d p_hat/dbeta
    = p^3/3 at all four odd offsets; twice the energies E of H0 (ints, as
    floats); the distinct gaps D = E[r+k] - E[r] at the even offsets
    (ascending; at most 17, against 5 per number state), the index that
    gathers them into that (offset, number state) table; and the bands of
    V = p^4/3m at the even offsets.

    At beta = 0, p_hat = p, so every observable is linear in a and a^dag:
    their rows at +-3 are zero and are dropped, and each observable is
    applied on +-1 alone.  The rows kept are read from the bands, so a model
    whose observables reach +-3 keeps them.  p^3/3 reaches +-3 and keeps
    all four.

    H0's energies are half-integers, n + 1/2 and (dim - 1)/2 for the
    truncated top state, but its bands give them only to rounding (1.7e-13
    at dim 458); they are snapped to the half-integers here, so every gap is
    exact and no phase carries that rounding.  OracleError if one is 1e-9 or
    more from its snap.

    Keyed on dim alone, which holds only because oracle_slopes always works
    at PhysicalParams.natural(0.0): the tables depend on nothing else."""
    bands, d_p_hat, h0, v = _model(FockSpace(dim), PhysicalParams.natural(0.0))
    two_e = np.rint(2.0 * h0[BANDS])
    if not np.abs(2.0 * h0[BANDS] - two_e).max() < 1e-9:
        raise OracleError("the energies of H0 are not half-integers")
    energies = 0.5 * two_e
    gaps = (sliding_window_view(np.pad(energies, BANDS), dim) - energies)[EVEN]
    gaps, gap_index = np.unique(gaps, return_inverse=True)
    v_bands = v[EVEN]  # zero wherever a gap runs off the space
    observed = np.array([row for row in _BAND_ROWS[ODD] if bands[:, row].any()])
    # copies, so the cache keeps none of the arrays these slice
    tables = tuple(table.copy() for table in (
        bands[:, observed], observed, d_p_hat[ODD], two_e, gaps,
        gap_index.reshape(v_bands.shape), v_bands))
    for table in tables:
        table.flags.writeable = False
    return tables


def oracle_slopes(tau, amplitude: CoherentAmplitude,
                  space: FockSpace | None = None) -> dict[str, float | np.ndarray]:
    """d/dbeta at beta = 0 of all five oracle variances, natural units, shaped
    like tau, by linear response: no eigensolve, O(n) work per tau.  The taus
    run as one array pass, in chunks of at most _SLOPE_CHUNK_CELLS / n taus,
    so memory stays bounded however many are given; the tables that depend
    on the dimension alone are built once per process (_slope_operators).

    H0 is diagonal (energies E, half-integers), so U = e^{-iEt} = w^{2E} with
    w = e^{-it/2}, taken as e^{i 2E arg w}: exp reduces t/2 exactly, so
    arg w lies in (-pi, pi], no E t is rounded, and the phases' rounding
    does not grow with t.  Duhamel's formula gives d(U psi)/dbeta =
    -i e^{-iEt} (W psi) exactly: W has the bands of V = p^4/3m times
    F(D, t) = int_0^t e^{-iDs} ds, D = E[r+k] - E[r], taken once per tau and
    distinct gap and gathered into the bands.  Each variance slope is
    2Re<O psi, d(O psi)> - 2<O> d<O>; d p_hat/dbeta = p^3/3 adds to d(p_hat psi).
    V is zero at odd offsets and the observables at even ones, so each is
    applied on the other's offsets alone, and the observables only on the
    odd offsets _slope_operators keeps.
    """
    if space is None:
        space = FockSpace(fock_dim_for(amplitude))
    bands, observed, d_p_hat, two_e, gaps, gap_index, v_bands = _slope_operators(space.dim)
    observed = observed.tolist()
    psi = coherent_vector(amplitude, space).components
    taus = np.asarray(tau, dtype=float)
    flat = taus.reshape(-1)
    values = np.empty((flat.size, len(ORACLE_QUANTITIES)))
    chunk = max(1, _SLOPE_CHUNK_CELLS // space.dim)
    for start in range(0, flat.size, chunk):
        # axes (tau, quantity or band, number state)
        t = flat[start:start + chunk, None]
        # F(D, t) = t e^{-iDt/2} sinc(Dt/2pi), stable as D t -> 0, per distinct D
        f = t * np.exp(-0.5j * gaps * t) * np.sinc(gaps * t / (2.0 * np.pi))
        finite = np.isfinite(f).all(axis=-1)
        if not finite.all():  # NaN t too
            raise OracleError(f"evolution operator lost unitarity: time "
                              f"{t[np.argmin(finite), 0]} is beyond the float range")
        phase = np.exp(1j * (two_e * np.angle(np.exp(-0.5j * t))))  # w^{2E}
        psi_t = phase * psi
        chi = -1j * phase * _apply(v_bands * np.take(f, gap_index, axis=1), psi,
                                   _BAND_ROWS[EVEN])
        o_psi = _apply(bands, psi_t[:, None], observed)
        o_chi = _apply(bands, chi[:, None], observed)
        d_o_psi = o_chi.copy()
        d_o_psi[:, 3] += _apply(d_p_hat, psi_t, _BAND_ROWS[ODD])
        bra = psi_t.conj()[:, :, None]
        mean = (o_psi @ bra)[..., 0].real
        d_mean = ((o_chi + d_o_psi) @ bra)[..., 0].real  # 2Re<psi, O chi> + <O'>
        slopes = 2.0 * (o_psi.conj() * d_o_psi).real.sum(axis=-1) - 2.0 * mean * d_mean
        var = (o_psi.conj() * o_psi).real.sum(axis=-1) - mean * mean
        values[start:start + chunk, :4] = slopes
        values[start:start + chunk, 4] = var[:, 2] * slopes[:, 3] + var[:, 3] * slopes[:, 2]
    return _by_quantity(values.reshape(taus.shape + (len(ORACLE_QUANTITIES),)))


# The slopes at dim and at 2 dim differ only through the coherent state's
# weight at n >= dim - _TRUNCATION_REACH (see truncation_bound).
_TRUNCATION_REACH = 10


def _poisson_tail(mod2: float, start: int) -> float:
    """An upper bound on P(n >= start) for n ~ Poisson(mod2): the first term,
    taken in log space with lgamma as _keeps_no_norm does, times the
    geometric series of the term ratio mod2/(n + 1) <= mod2/(start + 1).  1
    where that ratio is not below 1; exactly 0 in the vacuum."""
    if start <= 0:
        return 1.0
    if mod2 == 0.0:
        return 0.0
    ratio = mod2 / (start + 1)
    if not ratio < 1.0:  # inf too
        return 1.0
    first = math.exp(start * math.log(mod2) - mod2 - math.lgamma(start + 1))
    return min(1.0, first / (1.0 - ratio))


def truncation_bound(dim: int, amplitude: CoherentAmplitude) -> float:
    """An a priori bound on |oracle_slopes at dim - oracle_slopes at 2 dim|
    / slope_scale, for every quantity and tau (exact arithmetic).

    Each slope is built from quadratic forms <psi|B|psi>, or products of two:
    B is at most O O W (O an observable; W has V's bands times F, so
    |W| <= |t| |V|), 6 ladder steps in all.  A product of truncated ladders
    keeps the untruncated entry wherever no path of its steps leaves
    n <= dim - 2 (H0's top energy is the one truncated), so the forms at dim
    and 2 dim share every entry with both ends below dim - 4, and a B that
    reaches 6 bands couples that block to the rest only through
    n >= dim - _TRUNCATION_REACH.  With T the Poisson(|alpha|^2) mass there,
    each form moves by at most 10 T |B|, renormalisation included.  On 2 dim
    = M states |x_hat|, |p_hat| <= sqrt(2M), |p^3/3| <= (2M)^1.5/3 and
    |V| <= 4M^2/3; the product's slope, the largest, then moves by at most
    T (8960/3 M^4 |t| + 960 M^3) <= T 8960/3 M^4 (1 + |t|), and slope_scale's
    (1 + |t|) cancels.  Not T's square root: the band structure keeps both
    ends of every changed term in the tail."""
    mod2 = amplitude.gamma * amplitude.gamma
    tail = _poisson_tail(mod2, dim - _TRUNCATION_REACH)
    return tail * (8960.0 / 3.0) * (2.0 * dim) ** 4 / (1.0 + mod2) ** 2


@dataclass(frozen=True, eq=False)
class TruncationAudit:
    """oracle_slopes at dim with the verdict on its truncation.  bound is
    truncation_bound's; where it is below AUDIT_TOL and every slope is
    finite, the truncation is certified without a second pass and
    max_rel_deviation is None.  Otherwise max_rel_deviation is the deviation
    measured against the slopes at dim_doubled."""

    dim_doubled: int
    bound: float
    max_rel_deviation: float | None
    passed: bool
    slopes: dict[str, float | np.ndarray]  # oracle_slopes at dim


def truncation_audit(space: FockSpace, amplitude: CoherentAmplitude, tau) -> TruncationAudit:
    """oracle_slopes at dim, certified by truncation_bound where it is below
    AUDIT_TOL and the slopes are finite (a NaN still fails the audit).
    Elsewhere, for example at a small --dim, the slopes at dim and 2*dim are
    compared at every tau, each relative to the larger of its
    doubled-dimension value and slope_scale.  The slopes at dim come back
    with the verdict, so a caller evaluates them once."""
    small = oracle_slopes(tau, amplitude, space)
    bound = truncation_bound(space.dim, amplitude)
    dim_doubled = 2 * space.dim
    if bound < AUDIT_TOL and all(np.isfinite(small[q]).all() for q in ORACLE_QUANTITIES):
        return TruncationAudit(dim_doubled, bound, None, True, small)
    big = oracle_slopes(tau, amplitude, FockSpace(dim_doubled))
    scale = slope_scale(tau, amplitude.gamma)
    worst = float(np.max([np.abs(small[q] - big[q]) / np.maximum(np.abs(big[q]), scale)
                          for q in ORACLE_QUANTITIES]))  # NaN propagates
    return TruncationAudit(dim_doubled, bound, worst, worst < AUDIT_TOL, small)
