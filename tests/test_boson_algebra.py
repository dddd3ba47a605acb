"""Exact operator-algebra tests: normal ordering, commutators, the
nested-commutator coefficient tables, and their closed-form resummations."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gupsqueeze.boson_algebra import (
    A, A3, A_DAG, A_DAG2_A, A_DAG3, A_DAG_A2, IDENTITY,
    ComplexRational, OperatorPolynomial,
    bch_bodies, closed_form_taylor, closed_form_value, collect_monomial_series,
    commutator, hamiltonian_polynomial, monomial_product, verify_bch_collection,
)
from gupsqueeze.fock_oracle import FockSpace, monomial_matrix, polynomial_matrix

F = Fraction


def cr(re, im=0):
    return ComplexRational(F(re), F(im))


def poly(spec):
    """Build a polynomial from {monomial: (order0, order1)} with int/Fraction
    entries; single numbers mean order0 only."""
    terms = {}
    for mono, coeffs in spec.items():
        if isinstance(coeffs, tuple):
            c0, c1 = coeffs
        else:
            c0, c1 = coeffs, 0
        terms[mono] = (ComplexRational.coerce(F(c0)), ComplexRational.coerce(F(c1)))
    return OperatorPolynomial(terms)


def normal_order(left, right):
    """Normal-ordered expansion of the product of two monomials."""
    return OperatorPolynomial.monomial(left) @ OperatorPolynomial.monomial(right)


def random_polynomial(rng, max_power=2, n_terms=3, graded=False):
    terms = {}
    for _ in range(n_terms):
        mono = (rng.randint(0, max_power), rng.randint(0, max_power))
        c0 = ComplexRational(F(rng.randint(-4, 4), rng.randint(1, 3)),
                             F(rng.randint(-4, 4), rng.randint(1, 3)))
        c1 = ComplexRational(F(rng.randint(-4, 4), rng.randint(1, 3)),
                             F(rng.randint(-4, 4), rng.randint(1, 3))) \
            if graded else ComplexRational()
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
    assert commutator(h, a) == expected


def test_commutator_self_is_zero():
    rng = random.Random(3)
    for _ in range(10):
        p = random_polynomial(rng, graded=True)
        assert commutator(p, p).is_zero()


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
        assert total.is_zero()


def test_no_order_g2_leakage():
    # two order-g factors multiply to zero in the truncated ring
    p = poly({A: (0, 1)})
    q = poly({A_DAG: (0, 1)})
    assert (p @ q).is_zero()


# ---------------------------------------------------------------------------
# ring identities on random graded polynomials


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
complex_rationals = st.builds(ComplexRational, rationals, rationals)
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
    assert (p @ q).adjoint() == q.adjoint() @ p.adjoint()


@settings(max_examples=30, deadline=None)
@given(graded_polynomials, graded_polynomials, graded_polynomials)
def test_jacobi_identity_graded(p, q, r):
    total = (commutator(p, commutator(q, r))
             + commutator(q, commutator(r, p))
             + commutator(r, commutator(p, q)))
    assert total.is_zero()


@settings(max_examples=30, deadline=None)
@given(graded_polynomials, graded_polynomials)
def test_float_product_matches_exact_product(p, q):
    assert (as_complex(p) @ as_complex(q)).max_abs_diff(as_complex(p @ q)) <= 1e-12


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
    body = bch_body(depth, h, poly({A: 1}))
    expected = {mono: ComplexRational(v) for mono, v in DEPTH_TABLES[depth].items()}
    assert g1_coefficients(body) == expected
    # leading order is (-1)^k times a
    assert body.coefficient(A)[0] == ComplexRational(F((-1) ** depth))


def test_bch_adjoint_shadow():
    """Nesting applied to a^dag gives (-1)^k times the adjoint of the a result."""
    h = hamiltonian_polynomial()
    a = poly({A: 1})
    adag = poly({A_DAG: 1})
    for k, (body_a, body_adag) in enumerate(zip(bch_bodies(5, h, a),
                                                 bch_bodies(5, h, adag))):
        sign = ComplexRational(F((-1) ** k))
        assert body_adag == body_a.adjoint().scale(sign)


# ---------------------------------------------------------------------------
# coefficient collection vs closed forms


def test_collect_a3_series():
    series = collect_monomial_series(A3, 5)
    expected = (F(0), F(1, 3), F(-4, 3), F(13, 3), F(-40, 3), F(121, 3))
    assert tuple(c.re for c in series.coefficients) == expected
    assert all(c.im == 0 for c in series.coefficients)


def test_collect_adag3_series():
    series = collect_monomial_series(A_DAG3, 5)
    expected = (F(0), F(-1, 3), F(-2, 3), F(-7, 3), F(-20, 3), F(-61, 3))
    assert tuple(c.re for c in series.coefficients) == expected


def test_collect_identity_monomial_is_zero():
    series = collect_monomial_series(IDENTITY, 6)
    assert not any(series.coefficients)


def test_closed_form_taylor_base():
    series = closed_form_taylor("base", 3)
    assert tuple(c.re for c in series.coefficients) == (F(1), F(-1), F(1), F(-1))


@pytest.mark.parametrize("k", range(1, 9))
def test_closed_form_a3_adag3_general_term(k):
    a3_k = closed_form_taylor("a3", k).coefficients[k].re
    adag3_k = closed_form_taylor("adag3", k).coefficients[k].re
    assert a3_k == F(-((-1) ** k) * (3 ** k - 1), 6)
    assert adag3_k == F(-(3 ** k - (-1) ** k), 12)


def test_closed_form_unknown_id():
    with pytest.raises(ValueError, match="unknown form"):
        closed_form_taylor("nope", 3)
    with pytest.raises(ValueError, match="unknown form"):
        closed_form_value("nope", 1.0)


def test_taylor_series_evaluate_matches_closed_form():
    # partial sums converge to the closed-form values
    for form in ("base", "drift", "sine", "a3", "adag3"):
        series = closed_form_taylor(form, 30)
        assert series.evaluate(0.7) == pytest.approx(
            closed_form_value(form, 0.7), abs=1e-12)


def test_base_series_matches_leading_order_collection():
    """The g^0 coefficient of the bare monomial follows the plain rotation."""
    h = hamiltonian_polynomial()
    a = poly({A: 1})
    base = closed_form_taylor("base", 8).coefficients
    for k, body in enumerate(bch_bodies(8, h, a)):
        assert body.coefficient(A)[0] == base[k]


# ---------------------------------------------------------------------------
# full verification


def test_verify_bch_collection_passes_order_6():
    report = verify_bch_collection(6)
    assert report.all_passed
    assert len(report.rows) == 6
    assert all(row.verified_through == 6 for row in report.rows)


def test_verify_bch_collection_passes_order_12():
    assert verify_bch_collection(12).all_passed


def test_verify_bch_collection_trivial_order():
    assert verify_bch_collection(1).all_passed


def test_verify_bch_collection_rejects_bad_order():
    with pytest.raises(ValueError):
        verify_bch_collection(0)


# ---------------------------------------------------------------------------
# Hamiltonian structure


def test_hamiltonian_polynomial_is_hermitian():
    h = hamiltonian_polynomial()
    assert h == h.adjoint()


def test_hamiltonian_quartic_expansion():
    # (a - a^dag)^4 normal ordered, then scaled by g/12 and shifted by N + 1/2
    expected = poly({
        (1, 1): (1, 1),
        IDENTITY: (F(1, 2), F(1, 4)),
        (0, 4): (0, F(1, 12)),
        (4, 0): (0, F(1, 12)),
        (1, 3): (0, F(-1, 3)),
        (3, 1): (0, F(-1, 3)),
        (2, 2): (0, F(1, 2)),
        (0, 2): (0, F(-1, 2)),
        (2, 0): (0, F(-1, 2)),
    })
    assert hamiltonian_polynomial() == expected


def test_hamiltonian_matrix_matches_fock_build():
    """The exact polynomial Hamiltonian and the dense Fock-space build agree
    on the leading block (natural units)."""
    from gupsqueeze.fock_oracle import hamiltonian as fock_hamiltonian
    from gupsqueeze.physics_config import PhysicalParams

    g = 1e-3
    space = FockSpace(24)
    dense = fock_hamiltonian(space, PhysicalParams.natural(g)).matrix
    symbolic = polynomial_matrix(hamiltonian_polynomial(), space, g=g)
    half = space.dim // 2
    np.testing.assert_allclose(symbolic[:half, :half], dense[:half, :half],
                               atol=1e-12)
