"""Reference routes the tests check the package against.

Nothing in the package calls these: the ring's product summed pair by
pair as whole polynomials from ``monomial_product``, the commutator as the
difference of two such products, the nested-commutator chain as the
commutator of H with each whole body, one step of the chain's seven
coordinates as a loop over the step map's triples, the six evolved
monomials' series collected whole off one chain before any is summed, a Taylor series summed
from its ``Fraction`` coefficients, a polynomial's adjoint and the graded
pair it holds at one monomial, the evolved operators as graded
polynomials of boson_algebra's ring (with complex coefficients), the ring's
coherent-state expectations, figure 2's surface with its angle sums taken
whole on the broadcast grid, the dense truncated-Fock operators of the
Heisenberg picture, the coherent state's recursion on an array, a
table's CSV bytes formatted row by row with ``'%.16e' %``, and the electron
preset's beta0 at the precision of its source.  Each gives a second,
independent way to the numbers the commands compute, or reads what the
package only stores.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

import numpy as np

from gupsqueeze.analytic import _check_validity, _ladder_parts, _phase_table
from gupsqueeze.boson_algebra import (
    _ORDER1_AT, A, A3, A_DAG, A_DAG2_A, A_DAG3, A_DAG_A2, G_HAT_SCALE, Monomial,
    OperatorPolynomial, _coordinates, commutator, monomial_product,
)
from gupsqueeze.fock_oracle import (
    CoherentVector, FockOperator, FockSpace, OracleError, _keeps_no_norm,
    _lengths, _matrix, _quadrature_bands, eigensystem, evolution_operator,
)
from gupsqueeze.physics_config import (
    BETA0_BOUND, PLANCK_MOMENTUM_SQ_CODATA, CoherentAmplitude, PhysicalParams, Preset,
)
from gupsqueeze.table import Labels

# ---------------------------------------------------------------------------
# the graded ring


def adjoint(p: OperatorPolynomial) -> OperatorPolynomial:
    """P^dag: each a^dag^m a^n becomes a^dag^n a^m, its entries conjugated."""
    return OperatorPolynomial({
        (n, m): (c0.conjugate(), c1.conjugate()) for (m, n), (c0, c1) in p.terms.items()})


def coefficient(p: OperatorPolynomial, mono: Monomial) -> tuple:
    """The graded pair of ``mono`` in P, (0, 0) if absent."""
    return p.terms.get(mono, (0, 0))


def reference_product(p: OperatorPolynomial, q: OperatorPolynomial) -> OperatorPolynomial:
    """PQ as the sum over monomial pairs of each pair's graded coefficient
    times its fresh monomial_product, g-truncated."""
    total = OperatorPolynomial()
    for mono1, (p0, p1) in p.terms.items():
        for mono2, (q0, q1) in q.terms.items():
            c0, c1 = p0 * q0, p0 * q1 + p1 * q0
            total = total + OperatorPolynomial({
                mono: (c0 * factor, c1 * factor)
                for mono, factor in monomial_product(mono1, mono2).items()})
    return total


def reference_commutator(p: OperatorPolynomial, q: OperatorPolynomial) -> OperatorPolynomial:
    """[P, Q] as PQ - QP: both products in full, then their difference."""
    return reference_product(p, q) - reference_product(q, p)


def reference_bch_bodies(k_max: int, hamiltonian: OperatorPolynomial,
                         operator: OperatorPolynomial) -> Iterator[OperatorPolynomial]:
    """Bodies 0..k_max of [H, [H, ..., [H, B]...]], each the commutator of H
    with the whole previous body."""
    body = operator
    yield body
    for _ in range(k_max):
        body = commutator(hamiltonian, body)
        yield body


def reference_step(step, state) -> list[int]:
    """One step of the chain's seven coordinates: at each target, the sum of
    factor * (state at source) over the step map's (target, source, factor)
    triples (see boson_algebra._step_map)."""
    stepped = [0] * 7
    for target, source, factor in step:
        stepped[target] += factor * state[source]
    return stepped


def reference_series_value(coefficients, tau: float) -> complex:
    """sum_k c_k (i tau)^k / k!, each c_k read as complex(c_k)."""
    total = 0.0 + 0.0j
    power = 1.0 + 0.0j
    fact = 1.0
    for k, c in enumerate(coefficients):
        if k > 0:
            power *= 1j * tau
            fact *= k
        total += complex(c) * power / fact
    return total


def evolved_series(k_max: int) -> dict[Monomial, tuple[Fraction, ...]]:
    """Exact order-g coefficient series of the six evolved monomials, all
    read off one nested-commutator chain of depth k_max."""
    columns = tuple(zip(*_coordinates(k_max)))
    return {mono: tuple(Fraction(n, G_HAT_SCALE) for n in columns[at])
            for mono, at in _ORDER1_AT.items()}


def reference_ladder_taylor_check(tau: float, k_max: int) -> float:
    """analytic.ladder_taylor_check with each series summed from its
    Fraction coefficients."""
    series = evolved_series(k_max)
    return max(abs(reference_series_value(series[mono], tau) - c1)
               for mono, (_, c1) in _ladder_parts(tau, _phase_table(tau)).items())


def expectation(poly: OperatorPolynomial, alpha: complex) -> tuple[complex, complex]:
    """Graded coherent-state expectation: <a^dag^m a^n> = conj(a)^m a^n."""
    e0 = 0.0 + 0.0j
    e1 = 0.0 + 0.0j
    for (m, n), (c0, c1) in poly.terms.items():
        w = alpha.conjugate() ** m * alpha ** n
        e0 += c0 * w
        e1 += c1 * w
    return e0, e1


def variance_graded(poly: OperatorPolynomial, alpha: complex) -> tuple[complex, complex]:
    """Graded <P^2> - <P>^2 in a coherent state (P assumed Hermitian)."""
    sq0, sq1 = expectation(poly @ poly, alpha)
    m0, m1 = expectation(poly, alpha)
    return sq0 - m0 * m0, sq1 - 2.0 * m0 * m1


def max_abs_diff(p: OperatorPolynomial, q: OperatorPolynomial) -> float:
    worst = 0.0
    for mono in set(p.terms) | set(q.terms):
        p0, p1 = coefficient(p, mono)
        q0, q1 = coefficient(q, mono)
        worst = max(worst, abs(p0 - q0), abs(p1 - q1))
    return worst


# ---------------------------------------------------------------------------
# evolved operators as ring polynomials


def evolved_annihilation(tau: float, g: float,
                         strict: bool = True) -> dict[Monomial, complex]:
    """Closed-form Heisenberg-evolved annihilation operator, first order in g,
    as its coefficients over {a, a^dag, a^3, a^dag^3, a^dag a^2, a^dag^2 a}.

    a(t) = e^{-i tau} a
         + g [ -i tau e^{-i tau} (a + a^dag a^2) + i sin(tau) (a^dag + a^dag^2 a)
               + (e^{-i tau} - e^{-3 i tau}) a^3 / 6
               + (e^{-i tau} - e^{3 i tau}) a^dag^3 / 12 ]
    """
    _check_validity(tau, g, 0.0, strict)
    return {mono: c0 + g * c1
            for mono, (c0, c1) in _ladder_parts(tau, _phase_table(tau)).items()}


def quadrature_polynomials(tau: float) -> tuple[OperatorPolynomial, OperatorPolynomial]:
    """X1 = (a(t) + a(t)^dag)/2 and X2 = (a(t) - a(t)^dag)/2i."""
    a_t = OperatorPolynomial(_ladder_parts(tau, _phase_table(tau)))
    ad_t = adjoint(a_t)
    x1 = (a_t + ad_t).scale(0.5)
    x2 = (a_t - ad_t).scale(1.0 / 2.0j)
    return x1, x2


def evolved_position_momentum(
        tau: float, g: float, params: PhysicalParams | None = None,
        strict: bool = True) -> tuple[OperatorPolynomial, OperatorPolynomial]:
    """Deformed x(t) and p(t) as graded normal-ordered polynomials.

    Natural units unless params are given, in which case coefficients carry
    sqrt(hbar/2m w) and sqrt(hbar m w/2).  The closed-form coefficient
    functions below agree, through order g, with building sqrt(2)*X1 and
    sqrt(2)*(X2 + (2/3) g X2^3) out of the evolved annihilation operator.
    """
    _check_validity(tau, g, 0.0, strict)
    e = _phase_table(tau)
    s = np.sin(tau)
    x_first = {
        A: -6.0 * e(2) * (-1.0 + e(2) + 2j * tau),
        A_DAG: 12j * e(3) * (e(1) * tau + s),
        A3: 2.0 * e(2) - 3.0 + e(4),
        A_DAG_A2: -(12j * e(2) * tau + 12j * e(3) * s),
        A_DAG2_A: 12j * e(4) * tau + 12j * e(3) * s,
        A_DAG3: e(2) + 2.0 * e(4) - 3.0 * e(6),
    }
    p_first = {
        A: 6.0 * e(2) * (1j * e(2) + 2.0 * tau),
        A_DAG: 6.0 * e(2) * (-1j + 2.0 * e(2) * tau),
        A_DAG_A2: 6j * e(4) + 12.0 * e(2) * tau,
        A_DAG2_A: -6j * e(2) + 12.0 * e(4) * tau,
        A3: 1j * (-3.0 + 2.0 * e(2) - e(4)),
        A_DAG3: 1j * (e(2) - 2.0 * e(4) + 3.0 * e(6)),
    }
    phase = e(-3) / 12.0
    x_t = OperatorPolynomial({
        A: (e(-1), phase * x_first[A]),
        A_DAG: (e(1), phase * x_first[A_DAG]),
        **{m: (0.0, phase * x_first[m]) for m in (A3, A_DAG_A2, A_DAG2_A, A_DAG3)},
    })
    p_t = OperatorPolynomial({
        A: (-1j * e(-1), -phase * p_first[A]),
        A_DAG: (1j * e(1), -phase * p_first[A_DAG]),
        **{m: (0.0, -phase * p_first[m]) for m in (A3, A_DAG_A2, A_DAG2_A, A_DAG3)},
    })
    if params is not None:
        x_t = x_t.scale(math.sqrt(params.hbar / (2.0 * params.mass * params.omega)))
        p_t = p_t.scale(math.sqrt(params.hbar * params.mass * params.omega / 2.0))
    return x_t, p_t


def reference_scaled_delta_p(tau, theta, gamma):
    """analytic.scaled_delta_p with cos and sin of 2tau, 2tau - 2theta and
    2tau + 2theta each taken on the broadcast grid."""
    tau = np.asarray(tau, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return (2.0 * np.cos(2.0 * tau) + gamma * gamma * (
        4.0 * np.cos(2.0 * tau)
        - 3.0 * np.cos(2.0 * tau - 2.0 * theta)
        - np.cos(2.0 * tau + 2.0 * theta)
        + 4.0 * tau * np.sin(2.0 * tau - 2.0 * theta)))


# ---------------------------------------------------------------------------
# dense truncated-Fock operators


def ladder_ops(space: FockSpace) -> tuple[FockOperator, FockOperator]:
    """Annihilation and creation matrices: a|n> = sqrt(n)|n-1>."""
    a = np.diag(np.sqrt(np.arange(1, space.dim, dtype=float)), k=1).astype(complex)
    return FockOperator(space, a), FockOperator(space, a.conj().T)


def canonical_xp(space: FockSpace,
                 params: PhysicalParams) -> tuple[FockOperator, FockOperator]:
    """x = sqrt(hbar/2m w)(a + a^dag), p = i sqrt(hbar m w/2)(a^dag - a)."""
    s, q, *_ = _quadrature_bands(space)
    lx, lp = _lengths(params)
    return (FockOperator(space, _matrix(lx * s)),
            FockOperator(space, _matrix(1j * lp * q)))


def deformed_ops(space: FockSpace,
                 params: PhysicalParams) -> tuple[FockOperator, FockOperator]:
    """Deformed pair x_hat = x, p_hat = p + (beta/3) p^3.

    Satisfies [x_hat, p_hat] = i hbar (1 + beta p^2) exactly in the truncated
    space away from the edge.
    """
    s, q, _, q3 = _quadrature_bands(space)
    lx, lp = _lengths(params)
    p_hat = 1j * (lp * q - (params.beta / 3.0) * lp ** 3 * q3)  # p^3 = -i lp^3 q^3
    return (FockOperator(space, _matrix(lx * s)),
            FockOperator(space, _matrix(p_hat)))


def heisenberg_evolve(op: FockOperator, h: FockOperator, t: float,
                      hbar: float = 1.0) -> FockOperator:
    """O(t) = U^dag O U with U = exp(-i H t / hbar): the Heisenberg picture,
    kept as the reference the Schrodinger-picture oracle is tested against."""
    u = evolution_operator(eigensystem(h), t, hbar)
    return FockOperator(op.space, u.conj().T @ op.matrix @ u)


def expect(state: CoherentVector, op: FockOperator) -> complex:
    if state.components.shape[0] != op.space.dim:
        raise ValueError(
            f"state dim {state.components.shape[0]} != operator dim {op.space.dim}")
    return complex(np.vdot(state.components, op.matrix @ state.components))


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


# ---------------------------------------------------------------------------
# the coherent state


def reference_coherent_vector(alpha: complex | CoherentAmplitude,
                              space: FockSpace) -> CoherentVector:
    """fock_oracle.coherent_vector with its recursion written into a
    complex array in place, each coefficient read back from the array, and
    every 2**400 rescale applied to the array's filled prefix."""
    amp = CoherentAmplitude.from_complex(alpha)
    a = amp.alpha
    no_norm = OracleError(f"coherent state |alpha| = {amp.gamma:g} keeps no norm "
                          f"in Fock dimension {space.dim}")
    mod = abs(a)
    if _keeps_no_norm(mod * mod, space.dim):
        raise no_norm
    half_mod2 = 0.5 * mod ** 2
    shift = max(0, math.ceil(half_mod2 / math.log(2.0)) - 1000)
    comps = np.empty(space.dim, dtype=complex)
    comps[0] = math.exp(shift * math.log(2.0) - half_mod2)
    for n in range(1, space.dim):
        comps[n] = comps[n - 1] * a / math.sqrt(n)
        if abs(comps[n]) > 2.0 ** 400:
            comps[:n + 1] /= 2.0 ** 400
            shift -= 400
    norm_sq = float(np.vdot(comps, comps).real)
    loss = 1.0 - math.ldexp(norm_sq, -2 * shift)
    if not loss < 1.0:
        raise no_norm
    return CoherentVector(comps / math.sqrt(norm_sq), max(0.0, loss))


# ---------------------------------------------------------------------------
# the CSV table


def reference_table(header, columns) -> bytes:
    """table.write_table's bytes, one cell at a time: the header, then a row
    per cell of the shape the columns broadcast to, in C order, each float
    as '%.16e' % x and each Labels cell as its label, joined by "," and
    ended by "\\n"."""
    shape = np.broadcast_shapes(*(np.shape(col.codes if isinstance(col, Labels) else col)
                                  for col in columns))
    cells = []
    for col in columns:
        if isinstance(col, Labels):
            codes = np.broadcast_to(col.codes, shape).ravel().tolist()
            cells.append([col.labels[code] for code in codes])
        else:
            values = np.broadcast_to(np.asarray(col, dtype=float), shape).ravel().tolist()
            cells.append(["%.16e" % x for x in values])
    lines = [",".join(header)]
    for row in zip(*cells):
        lines.append(",".join(row))
    return "".join(line + "\n" for line in lines).encode()


# ---------------------------------------------------------------------------
# the preset's bound


def round_significant(x: float, digits: int) -> float:
    """x rounded to ``digits`` significant decimal digits; 0 stays 0."""
    if x == 0.0:
        return 0.0
    exponent = math.floor(math.log10(abs(x)))
    return round(x, digits - 1 - exponent)


def beta0_at_source_precision(preset: Preset) -> float:
    """beta0 under the preset's own momentum convention, rounded to the six
    significant digits the stored beta carries."""
    convention = float(preset.annotations.get(
        "planck_momentum_sq", PLANCK_MOMENTUM_SQ_CODATA))
    return round_significant(preset.params.beta0(convention), 6)


def honors_beta0_bound(preset: Preset, bound: float = BETA0_BOUND) -> bool:
    """True if beta0 does not exceed the bound at the precision of the
    stored beta.  The electron preset saturates the bound exactly."""
    return beta0_at_source_precision(preset) <= bound
