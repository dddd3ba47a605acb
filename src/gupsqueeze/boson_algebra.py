"""Exact normal-ordered bosonic operator algebra, graded by deformation order.

Operators are finite sums of normal-ordered monomials a^dag^m a^n.  Every
coefficient is a pair (order g^0, order g^1) in the dimensionless deformation
strength g; products discard g^2 and higher, so the algebra is the quotient
ring C[g]/(g^2).  The ring is generic in the entry type.  The exact route
grades the Hamiltonian in g_hat = g/12, where every entry is a Python int, so
the nested-commutator chain is integer arithmetic and its coefficient tables
(121/3 is 484 in g_hat) come out as equalities, not float approximations.
``verify_bch_collection`` compares those ints with integer closed forms
(``_FORMS``, scaled by G_HAT_SCALE) body by body as the chain streams;
``closed_form_taylor`` and ``collect_monomial_series`` hand out the same
numbers as exact ``Fraction``s, each int over G_HAT_SCALE.  The tests also
run the ring on complex entries, to derive coherent-state moments in
floating point (see tests/reference.py).

``@`` is the ring's product, the bilinear extension of one Wick formula
(``monomial_product``), and ``commutator`` is PQ - QP.  ``bch_bodies`` is
the generic chain, each body the commutator of H with the one before.  The
chain on a never leaves seven int coordinates (a at order 0, the six
MONOMIAL_FORMS monomials at order g), so ``verify_bch_collection``,
``collect_monomial_series`` and ``analytic.ladder_taylor_check`` step those
seven ints with a linear map L read off body 1 of ``bch_bodies``
(``_step_map``, streamed by ``_coordinates``): a process calls
``commutator`` six times for them, on the first chain, whatever its depth.
L is a diagonal plus one feed column.  [a^dag a, a^dag^m a^n] =
(m - n) a^dag^m a^n, so each coordinate keeps its own factor (-1 for a);
g^2 = 0, so only a at order 0 feeds the others.  ``_stepper`` spells L so,
as one straight-line step.
"""

from __future__ import annotations

import functools
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


def _label(mono: Monomial) -> str:
    """a^dag^m a^n as "adag^m.a^n", an exponent 1 dropped: "adag.a^2" for
    (1, 2), "a" for (0, 1) and "1" for the identity."""
    return ".".join(name if power == 1 else f"{name}^{power}"
                    for name, power in zip(("adag", "a"), mono) if power) or "1"


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
        """Operator product, normal ordered, g-truncated: the sum over monomial
        pairs (u of self, v of other) of coeff_u coeff_v monomial_product(u, v)."""
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
            bits.append(f"{_label(mono)}: {c0!r} + g*{c1!r}")
        return "OperatorPolynomial({" + ", ".join(bits) + "})"


def commutator(p: OperatorPolynomial, q: OperatorPolynomial) -> OperatorPolynomial:
    """[P, Q] = PQ - QP, normal ordered, g-truncated."""
    return p @ q - q @ p


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
    """Yield nested-commutator bodies for k = 0..k_max, each [H, previous
    body].  This is the generic chain, on any H and operator; the package's
    own chain on a steps its coordinates instead (``_step_map``), and the
    tests hold the two equal.
    """
    body = operator
    yield body
    for _ in range(k_max):
        body = commutator(hamiltonian, body)
        yield body


#: The closed forms the collected coefficient series resum to, as (the exact
#: Taylor coefficient c_k in the basis (i tau)^k / k!, spelled as the int
#: G_HAT_SCALE c_k, whose denominators 1, 6 and 12 all divide 12, by a rule of
#: k, s = (-1)^k and p3 = 3^k, the sign and power its callers step; value at
#: real tau given the phases e(k) = e^{i k tau}):
#: base   e^{-i tau}                     G_HAT_SCALE c_k = 12 s
#: drift  -i tau e^{-i tau}              G_HAT_SCALE c_k = 12 k s
#: sine   i sin tau                      G_HAT_SCALE c_k = 12 (k odd), 0 (k even)
#: a3     (e^{-i tau} - e^{-3 i tau})/6  G_HAT_SCALE c_k = -2 s (p3 - 1)
#: adag3  (e^{-i tau} - e^{3 i tau})/12  G_HAT_SCALE c_k = -(p3 - s)
_FORMS: dict[str, tuple[Callable[[int, int, int], int], Callable]] = {
    "base": (lambda k, s, p3: 12 * s, lambda tau, e: e(-1)),
    "drift": (lambda k, s, p3: 12 * k * s, lambda tau, e: -1j * tau * e(-1)),
    "sine": (lambda k, s, p3: 12 * (k % 2), lambda tau, e: 1j * np.sin(tau)),
    "a3": (lambda k, s, p3: -2 * s * (p3 - 1), lambda tau, e: (e(-1) - e(-3)) / 6.0),
    "adag3": (lambda k, s, p3: -(p3 - s), lambda tau, e: (e(-1) - e(3)) / 12.0),
}


def _form(form_id: str) -> tuple[Callable[[int, int, int], int], Callable]:
    if form_id not in _FORMS:
        raise ValueError(f"unknown form {form_id!r}; expected one of {tuple(_FORMS)}")
    return _FORMS[form_id]


def closed_form_taylor(form_id: str, k_max: int) -> tuple[Fraction, ...]:
    """Exact Taylor coefficients c_0..c_k_max of a closed form (see _FORMS)."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    rule, _ = _form(form_id)
    coefficients = []
    s, p3 = 1, 1
    for k in range(k_max + 1):
        coefficients.append(Fraction(rule(k, s, p3), G_HAT_SCALE))
        s, p3 = -s, 3 * p3
    return tuple(coefficients)


def closed_form_value(form_id: str, tau, e):
    """Numeric value of a closed form at real tau, given tau's phases
    e(k) = e^{i k tau}; array-generic."""
    _, value = _form(form_id)
    return value(tau, e)


#: The six monomials carrying the first-order part of the evolved annihilation
#: operator, in reporting order, each with the closed form (see _FORMS) that
#: its order-g coefficient series resums to.
MONOMIAL_FORMS: dict[Monomial, str] = {
    A: "drift",
    A_DAG: "sine",
    A3: "a3",
    A_DAG3: "adag3",
    A_DAG_A2: "drift",
    A_DAG2_A: "sine",
}

#: The MONOMIAL_FORMS monomials' labels, in reporting order (see _label).
_MONOMIAL_LABELS: tuple[str, ...] = tuple(map(_label, MONOMIAL_FORMS))

#: Where each MONOMIAL_FORMS monomial's order-g coefficient sits among the
#: chain's seven coordinates; coordinate 0 is a's order-0 coefficient.
_ORDER1_AT: dict[Monomial, int] = {mono: j for j, mono in enumerate(MONOMIAL_FORMS, 1)}


class ChainSpanError(ArithmeticError):
    """An image [H, m] of the exact chain has a term outside its seven
    coordinates, or a step map entry is neither diagonal nor fed by a, so
    the chain on a is not the step map those coordinates assume."""


@functools.cache
def _step_map() -> tuple[tuple[int, int, int], ...]:
    """The chain on a as a constant linear map L on its seven int coordinates,
    as (target, source, factor) triples: body k+1 holds, at each target, the
    sum of factor * (body k at source).

    L is read off body 1 of ``bch_bodies`` for each MONOMIAL_FORMS monomial
    m, the image [H, m]: g m goes to the order-0 part of [H, m] times g, and
    a itself, the one coordinate at order 0, to all of [H, a].  So a process
    takes six commutators, on the first call.  ChainSpanError if an image
    reaches a term that no coordinate holds.

    The triples are a diagonal plus one feed column.  The order-0 part of H
    is a^dag a, and [a^dag a, a^dag^m a^n] = (m - n) a^dag^m a^n, so g m
    goes to (m - n) g m alone, and a to -a plus g terms.  H's order-g part
    reaches g m only as g^2, which is 0, so a, the one order-0 coordinate,
    is the only source that feeds another coordinate.
    """
    hamiltonian = hamiltonian_polynomial()
    triples = []

    def add(mono: Monomial, out: Monomial, order: int, source: int, factor: int):
        target = _ORDER1_AT.get(out) if order else (0 if out == A else None)
        if target is None:
            raise ChainSpanError(f"[H, {_label(mono)}] has an order-{order} "
                                 f"{_label(out)} term, outside the chain's seven "
                                 f"coordinates")
        triples.append((target, source, factor))

    for mono, source in _ORDER1_AT.items():
        _, image = bch_bodies(1, hamiltonian, OperatorPolynomial.monomial(mono))
        for out, (i0, i1) in image.terms.items():
            if i0:
                add(mono, out, 1, source, i0)
            if mono == A:
                for order, factor in enumerate((i0, i1)):
                    if factor:
                        add(mono, out, order, 0, factor)
    return tuple(triples)


@functools.cache
def _stepper(step: tuple[tuple[int, int, int], ...]) -> Callable[..., tuple[int, ...]]:
    """The step map's triples (see _step_map) as one function of the seven
    coordinates that returns the next seven, in straight-line code.

    The triples split into a diagonal, each coordinate's own factor, and a
    feed column, a's factor into each other coordinate; triples at one
    place add up.  ChainSpanError, naming both coordinates, for a triple
    that is neither: L is stepped in that shape or not at all.
    """
    diagonal = [0] * 7
    feed = [0] * 7
    for target, source, factor in step:
        if target == source:
            diagonal[target] += factor
        elif source == 0:
            feed[target] += factor
        else:
            names = ("a", *(f"g {label}" for label in _MONOMIAL_LABELS))
            raise ChainSpanError(
                f"the step map feeds coordinate {target} ({names[target]}) from "
                f"coordinate {source} ({names[source]}); only coordinate 0 (a) "
                f"feeds another")
    d0, d1, d2, d3, d4, d5, d6 = diagonal
    _, f1, f2, f3, f4, f5, f6 = feed

    def stepped(s0, s1, s2, s3, s4, s5, s6):
        return (d0 * s0, d1 * s1 + f1 * s0, d2 * s2 + f2 * s0, d3 * s3 + f3 * s0,
                d4 * s4 + f4 * s0, d5 * s5 + f5 * s0, d6 * s6 + f6 * s0)
    return stepped


def _coordinates(k_max: int) -> Iterator[tuple[int, ...]]:
    """Bodies 0..k_max of the nested-commutator chain on a, int entries in
    g_hat, one at a time as their seven coordinates, each body the step map
    L of the one before (see _step_map and _stepper: each coordinate times
    its own factor, plus a's feed into it); ValueError before any is
    built."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    step = _stepper(_step_map())
    state = (1, 0, 0, 0, 0, 0, 0)
    yield state
    for _ in range(k_max):
        state = step(*state)
        yield state


def collect_monomial_series(mono: Monomial, k_max: int) -> tuple[Fraction, ...]:
    """Exact order-g coefficients of ``mono`` across nested-commutator depths
    0..k_max; zero for a monomial the chain never reaches."""
    at = _ORDER1_AT.get(mono)
    return tuple(Fraction(0 if at is None else state[at], G_HAT_SCALE)
                 for state in _coordinates(k_max))


@dataclass(frozen=True)
class MonomialVerification:
    label: str
    verified_through: int
    first_mismatch: int | None

    @property
    def passed(self) -> bool:
        return self.first_mismatch is None


@dataclass(frozen=True)
class BchVerification:
    rows: tuple[MonomialVerification, ...]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)


def verify_bch_collection(k_max: int) -> BchVerification:
    """Check, exactly, that each evolved monomial's collected order-g series
    matches its closed-form Taylor coefficients through depth k_max.

    The chain streams on its seven int coordinates (see _step_map): each
    body's order-g coefficients are compared with the integer closed forms
    (_FORMS) and dropped, so memory does not grow with depth.  A mismatch is
    reported per monomial (first offending depth), not raised: it signals a
    transcription error in one of the two routes.
    """
    rules = [(_ORDER1_AT[mono], _form(form_id)[0])
             for mono, form_id in MONOMIAL_FORMS.items()]
    first_mismatch: list[int | None] = [None] * len(rules)
    s, p3 = 1, 1
    for k, state in enumerate(_coordinates(k_max)):
        for j, (at, rule) in enumerate(rules):
            if state[at] != rule(k, s, p3) and first_mismatch[j] is None:
                first_mismatch[j] = k
        s, p3 = -s, 3 * p3
    return BchVerification(rows=tuple(
        MonomialVerification(label=label,
                             verified_through=k_max if k is None else k - 1,
                             first_mismatch=k)
        for label, k in zip(_MONOMIAL_LABELS, first_mismatch)))
