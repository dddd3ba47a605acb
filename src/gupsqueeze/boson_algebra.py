"""Exact normal-ordered bosonic operator algebra, graded by deformation order.

Operators are finite sums of normal-ordered monomials a^dag^m a^n.  Every
coefficient is a pair (order g^0, order g^1) in the dimensionless deformation
strength g; products discard g^2 and higher, so the algebra is the quotient
ring C[g]/(g^2).  The ring is generic in the entry type.  The exact route
grades the Hamiltonian in g_hat = g/12, where every entry is a Python int, so
the nested-commutator chain is integer arithmetic and its coefficient tables
(121/3 is 484 in g_hat) come out as equalities, not float approximations;
``Fraction`` appears only in the Taylor series read off the chain.  With
complex entries the same ring derives coherent-state moments in floating
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping

import numpy as np

#: (dagger_power, annihilation_power); (0, 0) is the identity.
Monomial = tuple[int, int]

IDENTITY: Monomial = (0, 0)
A: Monomial = (0, 1)
A_DAG: Monomial = (1, 0)
A3: Monomial = (0, 3)
A_DAG3: Monomial = (3, 0)
A_DAG_A2: Monomial = (1, 2)
A_DAG2_A: Monomial = (2, 1)

#: The six monomials carrying the first-order part of the evolved annihilation
#: operator, in reporting order.
EVOLVED_MONOMIALS: tuple[Monomial, ...] = (A, A_DAG, A3, A_DAG3, A_DAG_A2, A_DAG2_A)

MONOMIAL_LABELS: dict[Monomial, str] = {
    A: "a",
    A_DAG: "adag",
    A3: "a^3",
    A_DAG3: "adag^3",
    A_DAG_A2: "adag.a^2",
    A_DAG2_A: "adag^2.a",
}


def monomial_product(left: Monomial, right: Monomial) -> dict[Monomial, int]:
    """Integer expansion of (a^dag^m1 a^n1)(a^dag^m2 a^n2) in normal order.

    Repeated use of [a, a^dag] = 1 gives
        a^n a^dag^m = sum_k C(n,k) C(m,k) k! a^dag^(m-k) a^(n-k),
    so the product is a sum over k of integer multiples of single monomials.
    """
    m1, n1 = left
    m2, n2 = right
    out: dict[Monomial, int] = {}
    for k in range(min(n1, m2) + 1):
        coeff = math.comb(n1, k) * math.comb(m2, k) * math.factorial(k)
        key = (m1 + m2 - k, n1 + n2 - k)
        out[key] = out.get(key, 0) + coeff
    return out


class OperatorPolynomial:
    """Finite sum of normal-ordered monomials with graded coefficients.

    Each term maps a monomial to a pair (c0, c1) meaning c0 + c1*g; the
    entries are ints on the exact route and complex on the float route.
    Canonical form: no stored all-zero pair, so dict equality is polynomial
    equality.  Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, tuple] | None = None):
        self.terms: dict[Monomial, tuple] = {
            mono: pair for mono, pair in (terms or {}).items() if pair[0] or pair[1]
        }

    @classmethod
    def monomial(cls, mono: Monomial) -> "OperatorPolynomial":
        """The bare monomial, with int entries (1, 0)."""
        return cls({mono: (1, 0)})

    def coefficient(self, mono: Monomial, g: float | None = None):
        """The graded pair of ``mono`` ((0, 0) if absent), or its value at g."""
        c0, c1 = self.terms.get(mono, (0, 0))
        if g is None:
            return (c0, c1)
        return c0 + g * c1

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "OperatorPolynomial") -> "OperatorPolynomial":
        terms = dict(self.terms)
        for mono, (q0, q1) in other.terms.items():
            prev = terms.get(mono)
            terms[mono] = (q0, q1) if prev is None else (prev[0] + q0, prev[1] + q1)
        return OperatorPolynomial(terms)

    def __sub__(self, other: "OperatorPolynomial") -> "OperatorPolynomial":
        return self + (-other)

    def __neg__(self) -> "OperatorPolynomial":
        return OperatorPolynomial({m: (-c0, -c1) for m, (c0, c1) in self.terms.items()})

    def scale(self, s0, s1=0) -> "OperatorPolynomial":
        """Multiply by the graded scalar s0 + s1*g."""
        return OperatorPolynomial({
            m: (c0 * s0, c0 * s1 + c1 * s0) for m, (c0, c1) in self.terms.items()})

    def __matmul__(self, other: "OperatorPolynomial") -> "OperatorPolynomial":
        """Operator product, normal ordered, g-truncated."""
        terms: dict[Monomial, tuple] = {}
        for mono1, (p0, p1) in self.terms.items():
            for mono2, (q0, q1) in other.terms.items():
                c0 = p0 * q0
                c1 = p0 * q1 + p1 * q0
                if not (c0 or c1):
                    continue
                for mono, factor in monomial_product(mono1, mono2).items():
                    prev = terms.get(mono)
                    if prev is None:
                        terms[mono] = (c0 * factor, c1 * factor)
                    else:
                        terms[mono] = (prev[0] + c0 * factor, prev[1] + c1 * factor)
        return OperatorPolynomial(terms)

    def adjoint(self) -> "OperatorPolynomial":
        return OperatorPolynomial({
            (n, m): (c0.conjugate(), c1.conjugate())
            for (m, n), (c0, c1) in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "OperatorPolynomial(0)"
        bits = []
        for mono in sorted(self.terms):
            c0, c1 = self.terms[mono]
            bits.append(f"{MONOMIAL_LABELS.get(mono, mono)}: {c0!r} + g*{c1!r}")
        return "OperatorPolynomial({" + ", ".join(bits) + "})"

    # numeric helpers for complex entries

    def expectation(self, alpha: complex) -> tuple[complex, complex]:
        """Graded coherent-state expectation: <a^dag^m a^n> = conj(a)^m a^n."""
        e0 = 0.0 + 0.0j
        e1 = 0.0 + 0.0j
        for (m, n), (c0, c1) in self.terms.items():
            w = alpha.conjugate() ** m * alpha ** n
            e0 += c0 * w
            e1 += c1 * w
        return e0, e1

    def variance_graded(self, alpha: complex) -> tuple[complex, complex]:
        """Graded <P^2> - <P>^2 in a coherent state (P assumed Hermitian)."""
        sq0, sq1 = (self @ self).expectation(alpha)
        m0, m1 = self.expectation(alpha)
        return sq0 - m0 * m0, sq1 - 2.0 * m0 * m1

    def max_abs_diff(self, other: "OperatorPolynomial") -> float:
        worst = 0.0
        for mono in set(self.terms) | set(other.terms):
            p0, p1 = self.coefficient(mono)
            q0, q1 = other.coefficient(mono)
            worst = max(worst, abs(p0 - q0), abs(p1 - q1))
        return worst


def commutator(p: OperatorPolynomial, q: OperatorPolynomial) -> OperatorPolynomial:
    """[P, Q] = PQ - QP, normal ordered, g-truncated."""
    return (p @ q) - (q @ p)


#: g / g_hat: the exact chain is graded in g_hat = g/12, where it has int entries.
G_HAT_SCALE = 12


def hamiltonian_polynomial() -> OperatorPolynomial:
    """Deformed oscillator Hamiltonian over hbar*omega, less its zero-point 1/2,
    graded in g_hat = g/12.

    H/(hbar omega) = a^dag a + 1/2 + (g/12)(a - a^dag)^4 with g = hbar m omega
    beta.  The central 1/2 drops out of every commutator, so this returns
    a^dag a + g_hat (a - a^dag)^4: every entry, and every nested-commutator
    coefficient built from it, is an int, and an order-1 coefficient is
    G_HAT_SCALE times its value in g.
    """
    q = OperatorPolynomial.monomial(A) - OperatorPolynomial.monomial(A_DAG)
    q2 = q @ q
    return OperatorPolynomial.monomial((1, 1)) + (q2 @ q2).scale(0, 1)


def bch_bodies(k_max: int, hamiltonian: OperatorPolynomial,
               operator: OperatorPolynomial) -> Iterator[OperatorPolynomial]:
    """Yield nested-commutator bodies for k = 0..k_max, computed incrementally."""
    body = operator
    yield body
    for _ in range(k_max):
        body = commutator(hamiltonian, body)
        yield body


@dataclass(frozen=True)
class TaylorSeries:
    """Exact rational coefficients c_k of a series sum_k c_k (i tau)^k / k!."""

    coefficients: tuple[Fraction, ...]

    def evaluate(self, tau: float) -> complex:
        """Numeric partial sum at real tau."""
        total = 0.0 + 0.0j
        power = 1.0 + 0.0j
        fact = 1.0
        for k, c in enumerate(self.coefficients):
            if k > 0:
                power *= 1j * tau
                fact *= k
            total += complex(c) * power / fact
        return total


def _chain(k_max: int) -> list[OperatorPolynomial]:
    """Bodies 0..k_max of the nested-commutator chain on a, int entries in g_hat."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    return list(bch_bodies(k_max, hamiltonian_polynomial(), OperatorPolynomial.monomial(A)))


def _order1_series(bodies: list[OperatorPolynomial], mono: Monomial) -> TaylorSeries:
    return TaylorSeries(tuple(Fraction(body.coefficient(mono)[1], G_HAT_SCALE)
                              for body in bodies))


def collect_monomial_series(mono: Monomial, k_max: int) -> TaylorSeries:
    """Order-g coefficients of ``mono`` across nested-commutator depths 0..k_max."""
    return _order1_series(_chain(k_max), mono)


def evolved_series(k_max: int) -> dict[Monomial, TaylorSeries]:
    """Order-g coefficient series of the six evolved monomials, all read off
    one nested-commutator chain of depth k_max."""
    bodies = _chain(k_max)
    return {mono: _order1_series(bodies, mono) for mono in EVOLVED_MONOMIALS}


#: The closed forms the collected coefficient series resum to, as (exact Taylor
#: coefficient c_k in the basis (i tau)^k / k!, value at real tau given the
#: phases e(k) = e^{i k tau}):
#: base   e^{-i tau}                     c_k = (-1)^k
#: drift  -i tau e^{-i tau}              c_k = k (-1)^k
#: sine   i sin tau                      c_k = 1 (k odd), 0 (k even)
#: a3     (e^{-i tau} - e^{-3 i tau})/6  c_k = -(-1)^k (3^k - 1)/6
#: adag3  (e^{-i tau} - e^{3 i tau})/12  c_k = -(3^k - (-1)^k)/12
_FORMS: dict[str, tuple[Callable[[int], Fraction], Callable]] = {
    "base": (lambda k: Fraction((-1) ** k), lambda tau, e: e(-1)),
    "drift": (lambda k: Fraction(k * (-1) ** k), lambda tau, e: -1j * tau * e(-1)),
    "sine": (lambda k: Fraction(k % 2), lambda tau, e: 1j * np.sin(tau)),
    "a3": (lambda k: Fraction(-((-1) ** k) * (3 ** k - 1), 6),
           lambda tau, e: (e(-1) - e(-3)) / 6.0),
    "adag3": (lambda k: Fraction(-(3 ** k - (-1) ** k), 12),
              lambda tau, e: (e(-1) - e(3)) / 12.0),
}


def _form(form_id: str) -> tuple[Callable[[int], Fraction], Callable]:
    if form_id not in _FORMS:
        raise ValueError(f"unknown form {form_id!r}; expected one of {tuple(_FORMS)}")
    return _FORMS[form_id]


def closed_form_taylor(form_id: str, k_max: int) -> TaylorSeries:
    """Exact Taylor coefficients of a closed form (see _FORMS) through k_max."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    rule, _ = _form(form_id)
    return TaylorSeries(tuple(rule(k) for k in range(k_max + 1)))


def closed_form_value(form_id: str, tau):
    """Numeric value of a closed form at real tau; array-generic."""
    _, value = _form(form_id)
    return value(tau, lambda k: np.exp(1j * k * tau))


#: Closed form resumming each evolved monomial's order-g coefficient series.
MONOMIAL_FORMS: dict[Monomial, str] = {
    A: "drift",
    A_DAG: "sine",
    A3: "a3",
    A_DAG3: "adag3",
    A_DAG_A2: "drift",
    A_DAG2_A: "sine",
}


@dataclass(frozen=True)
class MonomialVerification:
    monomial: Monomial
    label: str
    form_id: str
    verified_through: int
    first_mismatch: int | None

    @property
    def passed(self) -> bool:
        return self.first_mismatch is None


@dataclass(frozen=True)
class BchVerification:
    k_max: int
    rows: tuple[MonomialVerification, ...]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)


def verify_bch_collection(k_max: int) -> BchVerification:
    """Check, exactly, that each evolved monomial's collected order-g series
    matches its closed-form Taylor coefficients through depth k_max.

    A mismatch is reported per monomial (first offending depth), not raised:
    it signals a transcription error in one of the two routes.
    """
    series = evolved_series(k_max)
    rows = []
    for mono in EVOLVED_MONOMIALS:
        form_id = MONOMIAL_FORMS[mono]
        expected = closed_form_taylor(form_id, k_max).coefficients
        first_mismatch = next(
            (k for k, (got, want) in enumerate(zip(series[mono].coefficients, expected))
             if got != want), None)
        verified = k_max if first_mismatch is None else first_mismatch - 1
        rows.append(MonomialVerification(
            monomial=mono, label=MONOMIAL_LABELS[mono], form_id=form_id,
            verified_through=verified, first_mismatch=first_mismatch))
    return BchVerification(k_max=k_max, rows=tuple(rows))
