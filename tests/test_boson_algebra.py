"""Exact operator-algebra tests: normal ordering, commutators, the
nested-commutator coefficient tables, and their closed-form resummations."""

import random
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gupsqueeze import boson_algebra
from gupsqueeze.boson_algebra import (
    A, A3, A_DAG, A_DAG2_A, A_DAG3, A_DAG_A2, G_HAT_SCALE, IDENTITY,
    OperatorPolynomial,
    bch_bodies, closed_form_taylor, closed_form_value, collect_monomial_series,
    commutator, hamiltonian_polynomial, monomial_product,
    verify_bch_collection,
)
from gupsqueeze.analytic import _phase_table, ladder_taylor_check
from gupsqueeze.fock_oracle import FockSpace
from reference import (
    adjoint, coefficient, max_abs_diff, monomial_matrix, polynomial_matrix,
    reference_bch_bodies, reference_commutator, reference_ladder_taylor_check,
    reference_product, reference_series_value, reference_step,
)

F = Fraction


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex rational, so the ring identities below run on exact
    complex entries; the package's exact route is real and integer."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, int):  # monomial_product's integer factors
            return GaussianRational(self.re * other, self.im * other)
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)


def gaussian(p):
    """``p`` with every entry an exact GaussianRational."""
    return OperatorPolynomial({mono: (GaussianRational(F(c0)), GaussianRational(F(c1)))
                               for mono, (c0, c1) in p.terms.items()})


def in_g(p):
    """Entries of an int polynomial graded in g_hat = g/12, read in g."""
    return OperatorPolynomial({mono: (F(c0), F(c1, G_HAT_SCALE))
                               for mono, (c0, c1) in p.terms.items()})


def poly(spec):
    """Build a polynomial from {monomial: (order0, order1)} with int/Fraction
    entries; single numbers mean order0 only."""
    terms = {}
    for mono, coeffs in spec.items():
        if isinstance(coeffs, tuple):
            c0, c1 = coeffs
        else:
            c0, c1 = coeffs, 0
        terms[mono] = (F(c0), F(c1))
    return OperatorPolynomial(terms)


def normal_order(left, right):
    """Normal-ordered expansion of the product of two monomials."""
    return OperatorPolynomial.monomial(left) @ OperatorPolynomial.monomial(right)


def random_polynomial(rng, max_power=2, n_terms=3, graded=False):
    terms = {}
    for _ in range(n_terms):
        mono = (rng.randint(0, max_power), rng.randint(0, max_power))
        c0 = GaussianRational(F(rng.randint(-4, 4), rng.randint(1, 3)),
                              F(rng.randint(-4, 4), rng.randint(1, 3)))
        c1 = GaussianRational(F(rng.randint(-4, 4), rng.randint(1, 3)),
                              F(rng.randint(-4, 4), rng.randint(1, 3))) \
            if graded else GaussianRational()
        terms[mono] = (c0, c1)
    return OperatorPolynomial(terms)


# ---------------------------------------------------------------------------
# normal ordering


def test_normal_order_single_commutator():
    # a . a^dag = a^dag a + 1
    assert normal_order(A, A_DAG) == poly({(1, 1): 1, IDENTITY: 1})


def test_normal_order_already_ordered():
    # (a^dag a) . a needs no reordering
    assert normal_order((1, 1), A) == poly({(1, 2): 1})


def test_normal_order_a2_adag2():
    # a^2 a^dag^2 = a^dag^2 a^2 + 4 a^dag a + 2
    assert normal_order((0, 2), (2, 0)) == poly({(2, 2): 1, (1, 1): 4, IDENTITY: 2})


def test_normal_order_a2_adag2_matrix_oracle():
    """Brute-force check on a 10-dimensional truncated space: diagonal of
    a^2 a^dag^2 is the exact integer (n+1)(n+2)."""
    space = FockSpace(10)
    product = monomial_matrix(space, (0, 2)) @ monomial_matrix(space, (2, 0))
    expansion = polynomial_matrix(normal_order((0, 2), (2, 0)), space)
    # away from the truncation edge both agree and are exactly integer
    for n in range(6):
        assert product[n, n] == pytest.approx((n + 1) * (n + 2), abs=1e-9)
    np.testing.assert_allclose(expansion[:6, :6], product[:6, :6], atol=1e-9)


def test_normal_order_matches_matrix_product_randomized():
    """Matrix representation of the normal-ordered expansion equals the plain
    matrix product on the first 10 basis vectors of a dim-20 space."""
    rng = random.Random(7)
    space = FockSpace(20)
    for _ in range(25):
        left = (rng.randint(0, 4), rng.randint(0, 4))
        right = (rng.randint(0, 4), rng.randint(0, 4))
        direct = monomial_matrix(space, left) @ monomial_matrix(space, right)
        expanded = polynomial_matrix(normal_order(left, right), space)
        np.testing.assert_allclose(expanded[:, :10], direct[:, :10],
                                   atol=1e-9, rtol=1e-12)


def test_monomial_product_identity_cases():
    assert monomial_product(IDENTITY, (2, 1)) == {(2, 1): 1}
    assert monomial_product((2, 1), IDENTITY) == {(2, 1): 1}


# ---------------------------------------------------------------------------
# commutators


def test_commutator_number_operator_lowers():
    number = poly({(1, 1): 1})
    a = poly({A: 1})
    assert commutator(number, a) == poly({A: -1})


def test_commutator_hamiltonian_with_a():
    # [H/(hbar w), a] = -a + g(-a + a^dag + a^3/3 - a^dag^3/3 - a^dag a^2 + a^dag^2 a)
    h = hamiltonian_polynomial()
    a = poly({A: 1})
    expected = poly({
        A: (-1, -1),
        A_DAG: (0, 1),
        A3: (0, F(1, 3)),
        A_DAG3: (0, F(-1, 3)),
        A_DAG_A2: (0, -1),
        A_DAG2_A: (0, 1),
    })
    assert in_g(commutator(h, a)) == expected


def test_commutator_self_is_zero():
    rng = random.Random(3)
    for _ in range(10):
        p = random_polynomial(rng, graded=True)
        assert commutator(p, p) == OperatorPolynomial()


def test_a_polynomial_equals_no_other_type():
    # __eq__ returns NotImplemented, so Python compares by identity: False
    a = OperatorPolynomial.monomial(A)
    assert a.__eq__(3) is NotImplemented
    assert (a == 3) is False and a != 3
    assert a == OperatorPolynomial.monomial(A)


def test_repr_names_the_zero_polynomial_and_each_term():
    assert repr(OperatorPolynomial()) == "OperatorPolynomial(0)"
    assert repr(OperatorPolynomial.monomial(A)) == "OperatorPolynomial({a: 1 + g*0})"


def test_commutator_antisymmetry_and_bilinearity():
    rng = random.Random(11)
    for _ in range(10):
        p = random_polynomial(rng, graded=True)
        q = random_polynomial(rng, graded=True)
        r = random_polynomial(rng, graded=True)
        assert commutator(p, q) == -commutator(q, p)
        assert commutator(p, q + r) == commutator(p, q) + commutator(p, r)


def test_jacobi_identity_leading_order():
    rng = random.Random(19)
    for _ in range(8):
        p = random_polynomial(rng)
        q = random_polynomial(rng)
        r = random_polynomial(rng)
        total = (commutator(p, commutator(q, r))
                 + commutator(q, commutator(r, p))
                 + commutator(r, commutator(p, q)))
        assert total == OperatorPolynomial()


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 6), st.integers(1, 6))
def test_commutator_equals_the_difference_of_products(rng, max_power, n_terms):
    p = random_polynomial(rng, max_power, n_terms, graded=True)
    q = random_polynomial(rng, max_power, n_terms, graded=True)
    assert commutator(p, q) == reference_commutator(p, q)


def test_no_order_g2_leakage():
    # two order-g factors multiply to zero in the truncated ring
    p = poly({A: (0, 1)})
    q = poly({A_DAG: (0, 1)})
    assert p @ q == OperatorPolynomial()


# ---------------------------------------------------------------------------
# ring identities on random graded polynomials


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
complex_rationals = st.builds(GaussianRational, rationals, rationals)
graded_polynomials = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.tuples(complex_rationals, complex_rationals),
    max_size=3,
).map(OperatorPolynomial)


def as_complex(p):
    return OperatorPolynomial(
        {mono: (complex(c0), complex(c1)) for mono, (c0, c1) in p.terms.items()})


@settings(max_examples=30, deadline=None)
@given(graded_polynomials, graded_polynomials, graded_polynomials)
def test_product_is_associative(p, q, r):
    assert (p @ q) @ r == p @ (q @ r)


@settings(max_examples=30, deadline=None)
@given(graded_polynomials, graded_polynomials)
def test_adjoint_reverses_products(p, q):
    assert adjoint(p @ q) == adjoint(q) @ adjoint(p)


@settings(max_examples=30, deadline=None)
@given(graded_polynomials, graded_polynomials, graded_polynomials)
def test_jacobi_identity_graded(p, q, r):
    total = (commutator(p, commutator(q, r))
             + commutator(q, commutator(r, p))
             + commutator(r, commutator(p, q)))
    assert total == OperatorPolynomial()


small_polynomials = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.tuples(complex_rationals, complex_rationals),
    max_size=4,
).map(OperatorPolynomial)


@settings(max_examples=40, deadline=None)
@given(small_polynomials, small_polynomials)
def test_product_and_commutator_equal_the_reference_cold_and_warm(p, q):
    """Each pair is expanded afresh on every call, so one check covers a
    cold process and a warm one."""
    assert p @ q == reference_product(p, q)
    assert commutator(p, q) == reference_commutator(p, q)


@settings(max_examples=30, deadline=None)
@given(graded_polynomials, graded_polynomials)
def test_float_product_matches_exact_product(p, q):
    assert max_abs_diff(as_complex(p) @ as_complex(q), as_complex(p @ q)) <= 1e-12


# ---------------------------------------------------------------------------
# nested-commutator terms and their coefficient tables


def g1_coefficients(polynomial):
    return {mono: c1 for mono, (_, c1) in polynomial.terms.items() if c1}


def bch_body(k, hamiltonian, operator):
    """The k-fold nested commutator [H,[H,...,[H, B]...]]."""
    return list(bch_bodies(k, hamiltonian, operator))[k]


# order-g coefficient tables for nesting depths 1..5, exact rationals
# (depth 2 a^dag^3 is -2/3, consistent with the general term -(3^k-(-1)^k)/12
# and re-derivable by hand; -4/3 sometimes quoted there is a typo)
DEPTH_TABLES = {
    1: {A: F(-1), A_DAG: F(1), A3: F(1, 3), A_DAG3: F(-1, 3),
        A_DAG_A2: F(-1), A_DAG2_A: F(1)},
    2: {A: F(2), A3: F(-4, 3), A_DAG3: F(-2, 3), A_DAG_A2: F(2)},
    3: {A: F(-3), A_DAG: F(1), A3: F(13, 3), A_DAG3: F(-7, 3),
        A_DAG_A2: F(-3), A_DAG2_A: F(1)},
    4: {A: F(4), A3: F(-40, 3), A_DAG3: F(-20, 3), A_DAG_A2: F(4)},
    5: {A: F(-5), A_DAG: F(1), A3: F(121, 3), A_DAG3: F(-61, 3),
        A_DAG_A2: F(-5), A_DAG2_A: F(1)},
}


def test_bch_term_depth_zero_is_a():
    h = hamiltonian_polynomial()
    assert bch_body(0, h, poly({A: 1})) == poly({A: 1})


@pytest.mark.parametrize("depth", sorted(DEPTH_TABLES))
def test_bch_term_coefficient_tables(depth):
    """Each nesting depth reproduces its reference coefficient table exactly,
    including the absence of a^dag and a^dag^2 a at even depths."""
    h = hamiltonian_polynomial()
    body = in_g(bch_body(depth, h, poly({A: 1})))
    assert g1_coefficients(body) == DEPTH_TABLES[depth]
    # leading order is (-1)^k times a
    assert coefficient(body, A)[0] == F((-1) ** depth)


def test_chain_through_depth_60_equals_the_reference_route():
    """Every body of the chain the package builds, against the chain built
    with PQ - QP."""
    h = hamiltonian_polynomial()
    body = OperatorPolynomial.monomial(A)
    for k, built in enumerate(bch_bodies(60, h, body)):
        assert built == body, k
        body = reference_commutator(h, body)


@pytest.fixture
def cold_step_map():
    """The chain's step map unbuilt before the test and after it, so a patched
    Hamiltonian or commutator reaches no other test."""
    boson_algebra._step_map.cache_clear()
    yield
    boson_algebra._step_map.cache_clear()


def coordinate_body(state):
    """The body whose seven chain coordinates are ``state``: a at order 0,
    the six MONOMIAL_FORMS monomials at order 1, and no other term."""
    terms = {mono: (0, state[at]) for mono, at in boson_algebra._ORDER1_AT.items()}
    terms[A] = (state[0], state[1])
    return OperatorPolynomial(terms)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 60))
@example(1)
@example(60)
def test_coordinates_are_the_chain_at_every_depth(k_max):
    """Each body bch_bodies builds on a is the one its seven coordinates
    spell: the same entries, and no term outside them."""
    h = hamiltonian_polynomial()
    for k, (state, body) in enumerate(zip(
            boson_algebra._coordinates(k_max),
            bch_bodies(k_max, h, OperatorPolynomial.monomial(A)), strict=True)):
        assert coordinate_body(state) == body, k


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-10**30, 10**30), min_size=7, max_size=7))
def test_step_map_steps_any_body_in_the_coordinates(state):
    """L is linear on the whole span, not only on the states a reaches."""
    stepped = reference_step(boson_algebra._step_map(), state)
    _, body = bch_bodies(1, hamiltonian_polynomial(), coordinate_body(state))
    assert coordinate_body(stepped) == body


@pytest.mark.parametrize("entry, delta",
                         [(None, 0), *((entry, delta) for entry in range(13) for delta in (-1, 1))])
@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-10**30, 10**30), min_size=7, max_size=7))
def test_stepper_steps_as_the_triple_loop(entry, delta, state):
    """The straight-line step is the triple loop, on the chain's own map and
    on each map with one of its 13 factors off by one."""
    step = boson_algebra._step_map()
    if entry is not None:
        target, source, factor = step[entry]
        step = (*step[:entry], (target, source, factor + delta), *step[entry + 1:])
    assert list(boson_algebra._stepper(step)(*state)) == reference_step(step, state)


def test_stepper_refuses_an_entry_outside_the_diagonal_and_feed_column():
    """g adag (coordinate 2) fed from g a (coordinate 1) is neither an own
    factor nor a's feed, so no step is built for it."""
    step = (*boson_algebra._step_map(), (2, 1, 1))
    with pytest.raises(boson_algebra.ChainSpanError,
                       match=r"coordinate 2 \(g adag\) from coordinate 1 \(g a\)"):
        boson_algebra._stepper(step)


def test_step_map_has_thirteen_int_entries():
    """[H, a] reaches all seven coordinates, and g m goes to (m's dagger
    power - its annihilation power) g m for each of the six monomials."""
    step = boson_algebra._step_map()
    assert len(step) == 13 == len({(t, s) for t, s, _ in step})
    assert all(type(factor) is int for _, _, factor in step)
    diagonal = {(t, s): f for t, s, f in step if t == s and t}
    assert diagonal == {(at, at): m - n for (m, n), at in boson_algebra._ORDER1_AT.items()}


@pytest.mark.parametrize("hamiltonian, leak", [
    # [adag^2 a^2, a] = -2 adag a^2 lands at order 0, where only a is a coordinate
    (OperatorPolynomial({(1, 1): (1, 0), (2, 2): (1, 0)}), "order-0 adag.a^2"),
    # [adag^3 a^3, a] = -3 adag^2 a^3 lands at order 1 on no MONOMIAL_FORMS monomial
    (OperatorPolynomial({(1, 1): (1, 0), (3, 3): (0, 1)}), "order-1 adag^2.a^3"),
])
def test_step_map_refuses_images_outside_the_coordinates(cold_step_map, monkeypatch,
                                                         hamiltonian, leak):
    monkeypatch.setattr(boson_algebra, "hamiltonian_polynomial", lambda: hamiltonian)
    with pytest.raises(boson_algebra.ChainSpanError, match=rf"\[H, a\] has an {re.escape(leak)} "):
        verify_bch_collection(3)


def test_chain_takes_six_commutators_per_process(cold_step_map, monkeypatch):
    """The first chain builds H from 20 pair products and the step map from
    six images, 108 pair products (H's nine monomials against each of
    a(tau)'s six, both ways); no later chain, at any depth or through any
    entry point, takes another commutator or expands another pair."""
    calls = dict.fromkeys(("commutator", "monomial_product"), 0)

    def counted(name):
        real = getattr(boson_algebra, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    # the chain and the ring look these up through the module globals, as a tracer does
    for name in calls:
        monkeypatch.setattr(boson_algebra, name, counted(name))
    cold = {"commutator": 6, "monomial_product": 128}
    assert verify_bch_collection(12).all_passed
    assert calls == cold
    assert verify_bch_collection(35).all_passed
    ladder_taylor_check(1.5, 35)
    collect_monomial_series(A3, 20)
    assert calls == cold


def test_hamiltonian_polynomial_is_a_fresh_object_each_call():
    assert hamiltonian_polynomial() is not hamiltonian_polynomial()
    assert hamiltonian_polynomial() == hamiltonian_polynomial()


def chain_polynomials(entry, max_size):
    """Polynomials of powers <= 2 with both orders drawn from ``entry``."""
    return st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                           st.tuples(entry, entry), max_size=max_size).map(OperatorPolynomial)


small_ints = st.integers(-3, 3)
# integer-valued complex entries keep every sum exact however it is grouped
CHAIN_ENTRIES = {
    "int": small_ints,
    "gaussian_rational": complex_rationals,
    "complex": st.builds(complex, small_ints, small_ints),
}


@st.composite
def chain_inputs(draw):
    entry = CHAIN_ENTRIES[draw(st.sampled_from(sorted(CHAIN_ENTRIES)))]
    return draw(chain_polynomials(entry, 4)), draw(chain_polynomials(entry, 3))


# an order-0 part off the diagonal (a^2 and a^dag^2 beside a^dag a) and a
# body term with no order-0 part, whose order-0 image is then more than a
# multiple of its own monomial
OFF_DIAGONAL_H = OperatorPolynomial({(1, 1): (1, 0), (2, 0): (1, 2), (0, 2): (-1, 1),
                                     (2, 2): (0, 3)})
ORDER1_ONLY_OPERATOR = OperatorPolynomial({A: (1, 0), A_DAG_A2: (0, 1)})


@settings(max_examples=60, deadline=None)
@given(chain_inputs())
@example((OFF_DIAGONAL_H, ORDER1_ONLY_OPERATOR))
@example((gaussian(OFF_DIAGONAL_H), gaussian(ORDER1_ONLY_OPERATOR)))
@example((as_complex(OFF_DIAGONAL_H), as_complex(ORDER1_ONLY_OPERATOR)))
def test_chain_equals_the_commutator_of_h_with_each_whole_body(inputs):
    hamiltonian, operator = inputs
    for k, (body, expected) in enumerate(zip(
            bch_bodies(6, hamiltonian, operator),
            reference_bch_bodies(6, hamiltonian, operator), strict=True)):
        assert body == expected, k


def test_bch_adjoint_shadow():
    """Nesting applied to a^dag gives (-1)^k times the adjoint of the a result."""
    h = hamiltonian_polynomial()
    a = poly({A: 1})
    adag = poly({A_DAG: 1})
    for k, (body_a, body_adag) in enumerate(zip(bch_bodies(5, h, a),
                                                 bch_bodies(5, h, adag))):
        assert body_adag == adjoint(body_a).scale((-1) ** k)


# ---------------------------------------------------------------------------
# coefficient collection vs closed forms


def test_collect_a3_series():
    series = collect_monomial_series(A3, 5)
    expected = (F(0), F(1, 3), F(-4, 3), F(13, 3), F(-40, 3), F(121, 3))
    assert series == expected
    assert all(type(c) is Fraction for c in series)


def test_collect_adag3_series():
    series = collect_monomial_series(A_DAG3, 5)
    expected = (F(0), F(-1, 3), F(-2, 3), F(-7, 3), F(-20, 3), F(-61, 3))
    assert series == expected


def test_collect_identity_monomial_is_zero():
    series = collect_monomial_series(IDENTITY, 6)
    assert len(series) == 7 and not any(series)


def test_closed_form_taylor_base():
    series = closed_form_taylor("base", 3)
    assert series == (F(1), F(-1), F(1), F(-1))
    assert all(type(c) is Fraction for c in series)


@pytest.mark.parametrize("k", [*range(1, 9), 35, 60])
def test_closed_form_a3_adag3_general_term(k):
    a3_k = closed_form_taylor("a3", k)[k]
    adag3_k = closed_form_taylor("adag3", k)[k]
    assert a3_k == F(-((-1) ** k) * (3 ** k - 1), 6)
    assert adag3_k == F(-(3 ** k - (-1) ** k), 12)


def test_closed_form_unknown_id():
    with pytest.raises(ValueError, match="unknown form"):
        closed_form_taylor("nope", 3)
    with pytest.raises(ValueError, match="unknown form"):
        closed_form_value("nope", 1.0, _phase_table(1.0))


def test_closed_form_taylor_refuses_k_max_below_1():
    with pytest.raises(ValueError, match=r"^k_max must be >= 1, got 0$"):
        closed_form_taylor("base", 0)


def test_closed_form_taylor_partial_sums_match_closed_form():
    # partial sums converge to the closed-form values
    for form in ("base", "drift", "sine", "a3", "adag3"):
        total = reference_series_value(closed_form_taylor(form, 30), 0.7)
        assert total == pytest.approx(
            closed_form_value(form, 0.7, _phase_table(0.7)), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(-20.0, 20.0), st.integers(1, 40))
@example(tau=20.0, k_max=40)
@example(tau=-7.5, k_max=33)
def test_ladder_taylor_check_keeps_every_bit_at_any_tau_and_depth(tau, k_max):
    """Summing n / G_HAT_SCALE gives the bits complex(Fraction) gives, also
    where the chain's numerators pass 2^53 (from depth 33 on)."""
    assert ladder_taylor_check(tau, k_max).hex() == \
        reference_ladder_taylor_check(tau, k_max).hex()


def test_base_series_matches_leading_order_collection():
    """The g^0 coefficient of the bare monomial follows the plain rotation."""
    h = hamiltonian_polynomial()
    a = poly({A: 1})
    base = closed_form_taylor("base", 8)
    for k, body in enumerate(bch_bodies(8, h, a)):
        assert coefficient(body, A)[0] == base[k]


# ---------------------------------------------------------------------------
# full verification


def test_verify_bch_collection_passes_order_6():
    report = verify_bch_collection(6)
    assert report.all_passed
    assert len(report.rows) == 6
    assert all(row.verified_through == 6 for row in report.rows)


def test_verify_bch_collection_reports_the_six_monomials_by_label_in_order():
    """Each label is adag^m.a^n with an exponent 1 dropped, as verify-bch prints it."""
    assert [row.label for row in verify_bch_collection(2).rows] == [
        "a", "adag", "a^3", "adag^3", "adag.a^2", "adag^2.a"]


def test_verify_bch_collection_passes_order_12():
    assert verify_bch_collection(12).all_passed


def test_verify_bch_collection_passes_past_64_bit_coefficients():
    """Depth 60 carries coefficients past the int64 range (97 bits)."""
    h = hamiltonian_polynomial()
    bodies = list(bch_bodies(60, h, OperatorPolynomial.monomial(A)))
    widest = max(abs(c).bit_length() for body in bodies
                 for pair in body.terms.values() for c in pair)
    assert widest > 64
    assert verify_bch_collection(60).all_passed


def test_verify_bch_collection_trivial_order():
    assert verify_bch_collection(1).all_passed


@pytest.mark.parametrize("form, labels", [
    ("a3", {"a^3"}),
    ("adag3", {"adag^3"}),
    ("drift", {"a", "adag.a^2"}),
    ("sine", {"adag", "adag^2.a"}),
])
def test_a_closed_form_off_at_one_order_fails_exactly_its_monomials(
        monkeypatch, capsys, form, labels):
    """A rule one unit of g_hat off at order 5 is the first mismatch of
    every monomial that resums to it and of no other; verify-bch exits 1
    and names them."""
    rule, value = boson_algebra._FORMS[form]
    monkeypatch.setitem(boson_algebra._FORMS, form,
                        (lambda k, s, p3: rule(k, s, p3) + (k == 5), value))
    report = verify_bch_collection(8)
    assert {row.label: (row.first_mismatch, row.verified_through)
            for row in report.rows} == {
        row.label: ((5, 4) if row.label in labels else (None, 8)) for row in report.rows}
    assert not report.all_passed

    from gupsqueeze.cli import main
    assert main(["verify-bch", "--max-order", "8"]) == 1
    out, err = capsys.readouterr()
    assert sorted(line for line in out.splitlines() if "mismatch" in line) == sorted(
        f"{label}, 4, mismatch_at_order_5" for label in labels)
    failed = err.strip().removeprefix("FAILED: ")
    assert err.startswith("FAILED: ") and set(failed.split(", ")) == labels


def test_verify_bch_collection_rejects_bad_order():
    with pytest.raises(ValueError):
        verify_bch_collection(0)


# ---------------------------------------------------------------------------
# Hamiltonian structure


def test_hamiltonian_polynomial_is_hermitian():
    h = hamiltonian_polynomial()
    assert h == adjoint(h)


# H/(hbar w) = N + 1/2 + (g/12)(a - a^dag)^4, normal ordered, graded in g
TRUE_HAMILTONIAN = {
    (1, 1): (1, 1),
    IDENTITY: (F(1, 2), F(1, 4)),
    (0, 4): (0, F(1, 12)),
    (4, 0): (0, F(1, 12)),
    (1, 3): (0, F(-1, 3)),
    (3, 1): (0, F(-1, 3)),
    (2, 2): (0, F(1, 2)),
    (0, 2): (0, F(-1, 2)),
    (2, 0): (0, F(-1, 2)),
}


def test_hamiltonian_quartic_expansion():
    # (a - a^dag)^4 normal ordered, then scaled by g/12 and shifted by N + 1/2;
    # the package's polynomial leaves out the central 1/2 and is graded in g/12
    half = poly({IDENTITY: F(1, 2)})
    assert in_g(hamiltonian_polynomial()) + half == poly(TRUE_HAMILTONIAN)


def test_exact_chain_entries_are_ints():
    """The exact route never leaves Python ints: the Hamiltonian and every
    body of the chain through depth 35."""
    h = hamiltonian_polynomial()
    bodies = [h, *bch_bodies(35, h, OperatorPolynomial.monomial(A))]
    assert all(type(c) is int for body in bodies
               for pair in body.terms.values() for c in pair)


def test_int_chain_equals_gaussian_rational_chain_on_true_hamiltonian():
    """Dropping the central 1/2 and grading in g/12 leave the chain intact:
    order 0 equal, order 1 equal after division by 12, through depth 10."""
    int_bodies = bch_bodies(10, hamiltonian_polynomial(), OperatorPolynomial.monomial(A))
    exact_bodies = bch_bodies(10, gaussian(poly(TRUE_HAMILTONIAN)),
                              gaussian(poly({A: 1})))
    for int_body, exact_body in zip(int_bodies, exact_bodies, strict=True):
        assert gaussian(in_g(int_body)) == exact_body


def test_hamiltonian_matrix_matches_fock_build():
    """The exact polynomial Hamiltonian and the dense Fock-space build agree
    on the leading block (natural units)."""
    from gupsqueeze.fock_oracle import hamiltonian as fock_hamiltonian
    from gupsqueeze.physics_config import PhysicalParams

    g = 1e-3
    space = FockSpace(24)
    dense = fock_hamiltonian(space, PhysicalParams.natural(g)).matrix
    symbolic = (polynomial_matrix(hamiltonian_polynomial(), space, g=g / G_HAT_SCALE)
                + 0.5 * np.eye(space.dim))
    half = space.dim // 2
    np.testing.assert_allclose(symbolic[:half, :half], dense[:half, :half],
                               atol=1e-12)
