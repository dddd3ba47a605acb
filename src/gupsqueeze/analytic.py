"""Closed-form first-order dynamics of the deformed oscillator.

Everything is a function of dimensionless time tau = omega*t, the strength
g = hbar*m*omega*beta, and the coherent amplitude alpha = gamma e^{i theta};
SI prefactors are restored at the boundary when PhysicalParams are supplied.

Literal closed-form expressions for the evolved annihilation operator, the
quadrature and deformed variances, the uncertainty product and its bound, and
the squeezing deltas.  The evolved operators are also available as
complex-coefficient polynomials in boson_algebra's graded ring, which
re-derives the coherent-state moments mechanically.  The closed forms
cross-audit each other at run time where the contract demands it; the
truncated-Fock oracle provides the fully independent check in the test suite.

Validity: the first-order corrections contain secular terms linear in tau, so
results degrade as |g|*tau*(1+gamma^2) grows.  Operations warn above 0.1 and
refuse above 10 unless ``strict=False``.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .boson_algebra import (
    A, A3, A_DAG, A_DAG2_A, A_DAG3, A_DAG_A2, MONOMIAL_FORMS, Monomial,
    OperatorPolynomial, closed_form_value, evolved_series,
)
from .physics_config import (
    CoherentAmplitude, PhysicalParams, VarianceRecord, to_natural,
)

SECULAR_WARN = 0.1
SECULAR_REFUSE = 10.0
CROSS_CHECK_TOL = 1e-12

CANONICAL_VAR_X1 = 0.25
CANONICAL_VAR_X2 = 0.25


class SecularValidityWarning(UserWarning):
    """First-order result entering its degraded-accuracy regime."""


class SecularValidityError(ValueError):
    """Secular scale so large the first-order result is meaningless."""


class ConsistencyError(ArithmeticError):
    """Two supposedly identical internal routes disagreed."""


def secular_scale(tau: float, g: float, gamma: float = 0.0) -> float:
    """|g| * |tau| * (1 + gamma^2), the size of the worst secular term."""
    return abs(g) * abs(tau) * (1.0 + gamma * gamma)


def _check_validity(tau: float, g: float, gamma: float, strict: bool) -> float:
    scale = secular_scale(tau, g, gamma)
    if not strict:
        return scale
    if scale > SECULAR_REFUSE:
        raise SecularValidityError(
            f"secular scale {scale:.3g} > {SECULAR_REFUSE}; the first-order "
            "expansion has no validity here")
    if scale > SECULAR_WARN:
        warnings.warn(
            f"secular scale {scale:.3g} > {SECULAR_WARN}; first-order accuracy "
            "is degrading", SecularValidityWarning, stacklevel=3)
    return scale


def _amplitude(alpha) -> CoherentAmplitude:
    if isinstance(alpha, CoherentAmplitude):
        return alpha
    return CoherentAmplitude.from_complex(complex(alpha))


def _exp(x: float) -> complex:
    return cmath.exp(1j * x)


# ---------------------------------------------------------------------------
# evolved annihilation operator


def _ladder_parts(tau: float) -> dict[Monomial, tuple[complex, complex]]:
    """Graded (order g^0, order g^1) coefficients of a(t)."""
    parts = {mono: (0.0, closed_form_value(form, tau))
             for mono, form in MONOMIAL_FORMS.items()}
    parts[A] = (closed_form_value("base", tau), parts[A][1])
    return parts


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
    return {mono: c0 + g * c1 for mono, (c0, c1) in _ladder_parts(tau).items()}


def ladder_taylor_check(tau: float, k_max: int = 12) -> float:
    """Max deviation between the six closed-form order-g coefficients and the
    exact collected coefficient series summed through depth k_max."""
    series = evolved_series(k_max)
    return max(abs(series[mono].evaluate(tau) - c1)
               for mono, (_, c1) in _ladder_parts(tau).items())


def evolved_ladder_polynomial(tau: float) -> OperatorPolynomial:
    """a(t) as a graded polynomial (coefficients of g supplied symbolically)."""
    return OperatorPolynomial(_ladder_parts(tau))


def quadrature_polynomials(tau: float) -> tuple[OperatorPolynomial, OperatorPolynomial]:
    """X1 = (a(t) + a(t)^dag)/2 and X2 = (a(t) - a(t)^dag)/2i."""
    a_t = evolved_ladder_polynomial(tau)
    ad_t = a_t.adjoint()
    x1 = (a_t + ad_t).scale(0.5)
    x2 = (a_t - ad_t).scale(1.0 / 2.0j)
    return x1, x2


# ---------------------------------------------------------------------------
# first-order brackets (literal closed forms)


def _x1_correction(tau: float, alpha: complex) -> complex:
    """Order-g coefficient of the X1 variance; exactly real for all inputs."""
    a2 = alpha * alpha
    ac = alpha.conjugate()
    ac2 = ac * ac
    re_a = alpha.real
    mod2 = (alpha * ac).real
    bracket = (
        (-2.0 + 3.0 * a2 - 4j * tau * a2 + ac2 - 8.0 * alpha * re_a)
        + 4.0 * _exp(2.0 * tau) * (1.0 + 2.0 * mod2)
        + _exp(4.0 * tau) * (-2.0 + a2 - 4.0 * mod2 + 4j * tau * ac2 - ac2)
    )
    return _exp(-2.0 * tau) * bracket / 16.0


def _p_correction(tau: float, alpha: complex) -> complex:
    """Order-g coefficient of the deformed momentum variance, natural units."""
    a2 = alpha * alpha
    ac = alpha.conjugate()
    ac2 = ac * ac
    re_a = alpha.real
    bracket = (
        2.0 - 7.0 * a2 + 4j * tau * a2 - ac2 + 8.0 * alpha * re_a
        + _exp(4.0 * tau) * (2.0 - 5.0 * a2 - 3.0 * ac2 - 4j * tau * ac2
                             + 8.0 * alpha * re_a)
    )
    return _exp(-2.0 * tau) * bracket / 8.0


def _product_correction(tau: float, alpha: complex) -> complex:
    """Order-g coefficient of the uncertainty product, natural units."""
    a2 = alpha * alpha
    ac2 = alpha.conjugate() ** 2
    mod2 = abs(alpha) ** 2
    return (1.0 - _exp(-2.0 * tau) * a2 + 2.0 * mod2 - _exp(2.0 * tau) * ac2) / 4.0


def _p_hat_sq_leading(tau: float, alpha: complex) -> float:
    """Mean square of the deformed momentum at g = 0, natural units."""
    a2 = alpha * alpha
    ac2 = alpha.conjugate() ** 2
    mod2 = abs(alpha) ** 2
    value = 0.5 * (1.0 - _exp(-2.0 * tau) * a2 + 2.0 * mod2 - _exp(2.0 * tau) * ac2)
    return value.real


# ---------------------------------------------------------------------------
# quadrature variances


@dataclass(frozen=True)
class QuadratureVariances:
    var_x1: float
    var_x2: float
    #: magnitude of the imaginary part discarded when taking the real parts
    residual_imag: float


def quadrature_variances(tau: float, g: float, alpha,
                         strict: bool = True) -> QuadratureVariances:
    """Coherent-state variances of the evolved quadratures X1, X2.

    The two first-order corrections are equal and opposite: unitary evolution
    preserves the quadrature commutator, and coherent states saturate the
    minimum-uncertainty product through order g, so the product stays at
    1/16.  One bracket therefore serves both quadratures, with its negation
    as the X2 correction; the truncated-Fock oracle pins both signs down.
    """
    amp = _amplitude(alpha)
    _check_validity(tau, g, amp.gamma, strict)
    correction = g * _x1_correction(tau, amp.alpha)
    return QuadratureVariances(
        var_x1=CANONICAL_VAR_X1 + correction.real,
        var_x2=CANONICAL_VAR_X2 - correction.real,
        residual_imag=abs(correction.imag),
    )


# ---------------------------------------------------------------------------
# evolved position and momentum operators


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
    e = _exp
    s = math.sin(tau)
    x_first = {
        A: -6.0 * e(2 * tau) * (-1.0 + e(2 * tau) + 2j * tau),
        A_DAG: 12j * e(3 * tau) * (e(tau) * tau + s),
        A3: 2.0 * e(2 * tau) - 3.0 + e(4 * tau),
        A_DAG_A2: -(12j * e(2 * tau) * tau + 12j * e(3 * tau) * s),
        A_DAG2_A: 12j * e(4 * tau) * tau + 12j * e(3 * tau) * s,
        A_DAG3: e(2 * tau) + 2.0 * e(4 * tau) - 3.0 * e(6 * tau),
    }
    p_first = {
        A: 6.0 * e(2 * tau) * (1j * e(2 * tau) + 2.0 * tau),
        A_DAG: 6.0 * e(2 * tau) * (-1j + 2.0 * e(2 * tau) * tau),
        A_DAG_A2: 6j * e(4 * tau) + 12.0 * e(2 * tau) * tau,
        A_DAG2_A: -6j * e(2 * tau) + 12.0 * e(4 * tau) * tau,
        A3: 1j * (-3.0 + 2.0 * e(2 * tau) - e(4 * tau)),
        A_DAG3: 1j * (e(2 * tau) - 2.0 * e(4 * tau) + 3.0 * e(6 * tau)),
    }
    phase = e(-3 * tau) / 12.0
    x_t = OperatorPolynomial({
        A: (e(-tau), phase * x_first[A]),
        A_DAG: (e(tau), phase * x_first[A_DAG]),
        **{m: (0.0, phase * x_first[m]) for m in (A3, A_DAG_A2, A_DAG2_A, A_DAG3)},
    })
    p_t = OperatorPolynomial({
        A: (-1j * e(-tau), -phase * p_first[A]),
        A_DAG: (1j * e(tau), -phase * p_first[A_DAG]),
        **{m: (0.0, -phase * p_first[m]) for m in (A3, A_DAG_A2, A_DAG2_A, A_DAG3)},
    })
    if params is not None:
        x_t = x_t.scale(math.sqrt(params.hbar / (2.0 * params.mass * params.omega)))
        p_t = p_t.scale(math.sqrt(params.hbar * params.mass * params.omega / 2.0))
    return x_t, p_t


def coherent_expectation(poly: OperatorPolynomial, alpha, g: float) -> complex:
    """<alpha| P |alpha> with the graded coefficients evaluated at g."""
    amp = _amplitude(alpha)
    e0, e1 = poly.expectation(amp.alpha)
    return e0 + g * e1


# ---------------------------------------------------------------------------
# coherent-state moments of the quadratures and deformed momentum


@dataclass(frozen=True)
class QuadratureMoments:
    """Graded (order0, order1) coherent-state moments, natural units."""

    x1_sq: tuple[float, float]
    x1_mean_sq: tuple[float, float]
    x2_sq: tuple[float, float]
    x2_mean_sq: tuple[float, float]
    p_hat_sq: tuple[float, float]
    #: largest imaginary residue discarded across the five moments
    residual_imag: float

    def at(self, name: str, g: float) -> float:
        c0, c1 = getattr(self, name)
        return c0 + g * c1


def _mean_a_first_order(tau: float, alpha: complex) -> complex:
    """Order-g part of <a(t)> in a coherent state."""
    ac = alpha.conjugate()
    return (
        -1j * tau * _exp(-tau) * (alpha + ac * alpha * alpha)
        + 1j * math.sin(tau) * (ac + ac * ac * alpha)
        + (_exp(-tau) - _exp(-3 * tau)) / 6.0 * alpha ** 3
        + (_exp(-tau) - _exp(3 * tau)) / 12.0 * ac ** 3
    )


def quadrature_moments(tau: float, g: float, alpha,
                       strict: bool = True) -> QuadratureMoments:
    """The five coherent-state moments behind the variance formulas:
    <X1^2>, <X1>^2, <X2^2>, <X2>^2 and the deformed-momentum mean square,
    each as an (order g^0, order g^1) pair in natural units.

    <X1^2> - <X1>^2 and <X2^2> - <X2>^2 reproduce the quadrature variances
    to float precision; callers relying on that identity get it audited in
    :func:`deformed_variances`.
    """
    amp = _amplitude(alpha)
    _check_validity(tau, g, amp.gamma, strict)
    a = amp.alpha
    ac = a.conjugate()
    a2, a3, a4 = a * a, a ** 3, a ** 4
    ac2, ac3, ac4 = ac * ac, ac ** 3, ac ** 4
    mod2 = (a * ac).real
    mod4 = mod2 * mod2
    re_a = a.real
    e = _exp
    s = math.sin(tau)

    # <X1^2>
    x1sq_0 = 0.25 * (1.0 + e(-2 * tau) * a2 + 2.0 * mod2 + e(2 * tau) * ac2)
    grp_a = (-6.0 + 27.0 * a2 + 2.0 * a3 * ac + 9.0 * (1.0 + 4j * tau) * ac2
             + 6.0 * (1.0 + 4j * tau) * a * ac3 + 4.0 * ac4 - 48.0 * a * re_a)
    grp_b = (-6.0 + a2 * (33.0 - 36j * tau - 2.0 * a2) - 24j * tau * a3 * ac
             + 3.0 * ac2 + 2.0 * a * ac3 + 12.0 * a * (-4.0 + a2) * re_a)
    grp_c = (6.0 + 5.0 * a2 * (-6.0 + a2) + ac2 * (-6.0 - 4.0 * a * ac + ac2)
             - 8.0 * a * (-6.0 + a2) * re_a + 24.0 * mod4 * s * s)
    x1sq_1 = e(-4 * tau) / 48.0 * (
        -6.0 * a4 - 6.0 * e(8 * tau) * ac4
        + e(6 * tau) * grp_a + e(2 * tau) * grp_b + 2.0 * e(4 * tau) * grp_c)

    # <X1>^2
    sum_ = a + e(2 * tau) * ac
    x1m_0 = 0.25 * e(-2 * tau) * sum_ * sum_
    x1m_1 = e(-4 * tau) / 24.0 * sum_ * (
        -3.0 * a3 - 3.0 * e(6 * tau) * ac3
        + e(2 * tau) * (6.0 * (1.0 - 2j * tau) * a * mod2 - 6.0 * a * ac2 + ac3
                        + 2.0 * (a * (6.0 - 6j * tau + a2) - 6.0 * re_a))
        + e(4 * tau) * (-12.0 * a + a3 - 6.0 * a * mod2
                        + 2.0 * ac * (6j * tau + ac * (3.0 * a + 6j * tau * a + ac))
                        + 12.0 * re_a))

    # <X2^2>
    x2sq_0 = 0.25 * (1.0 - e(-2 * tau) * a2 + 2.0 * mod2 - e(2 * tau) * ac2)
    x2sq_1 = e(-4 * tau) / 48.0 * (
        2.0 * a4 - 3.0 * e(6 * tau) * (a2 - 2.0)
        + e(2 * tau) * (6.0 + 3.0 * a2 * (5.0 + 12j * tau) - 4.0 * a4)
        + 2.0 * e(4 * tau) * (-6.0 - 6.0 * a2 + a4)
        + 12.0 * e(2 * tau) * (e(2 * tau) - 1.0) ** 2 * mod4
        + 3.0 * e(2 * tau) * ac2 * (-1.0 - 4.0 * e(2 * tau)
                                    + e(4 * tau) * (5.0 - 12j * tau))
        + 2.0 * e(4 * tau) * ac4 * (e(2 * tau) - 1.0) ** 2
        - 2.0 * e(2 * tau) * mod2 * (
            -12.0 - 5.0 * a2 - 12j * tau * a2 + e(4 * tau) * (a2 - 12.0)
            + 4.0 * e(2 * tau) * (6.0 + a2)
            + (1.0 + 4.0 * e(2 * tau) + e(4 * tau) * (12j * tau - 5.0)) * ac2))

    # <X2>^2 as the square of the graded mean
    w0 = (a * e(-tau) - ac * e(tau)) / 2j
    m1 = _mean_a_first_order(tau, a)
    w1 = (m1 - m1.conjugate()) / 2j
    x2m_0 = w0 * w0
    x2m_1 = 2.0 * w0 * w1

    # deformed momentum mean square
    psq_0 = 0.5 * (1.0 - e(-2 * tau) * a2 + 2.0 * mod2 - e(2 * tau) * ac2)
    psq_1 = e(-4 * tau) / 24.0 * (
        6.0 * e(2 * tau) + 6.0 * e(6 * tau)
        - 3.0 * e(2 * tau) * (3.0 + 4.0 * e(2 * tau) + e(4 * tau) - 12j * tau) * a2
        + 2.0 * (3.0 - 2.0 * e(2 * tau) + e(4 * tau)) * a4
        + 12.0 * e(2 * tau) * (1.0 + e(4 * tau)) * mod4
        + 16.0 * e(2 * tau) * mod2 * (3.0 * e(2 * tau) - a2)
        + (-3.0 * e(2 * tau) - 12.0 * e(4 * tau) - e(6 * tau) * (9.0 + 36j * tau)) * ac2
        - 16.0 * e(6 * tau) * mod2 * ac2
        + 2.0 * e(4 * tau) * (1.0 - 2.0 * e(2 * tau) + 3.0 * e(4 * tau)) * ac4
        - 2.0 * e(2 * tau) * mod2 * (
            -12.0 * (e(2 * tau) - 1.0) ** 2
            + (-5.0 + 4.0 * e(2 * tau) + e(4 * tau) - 12j * tau) * a2
            + (1.0 + 4.0 * e(2 * tau) + e(4 * tau) * (-5.0 + 12j * tau)) * ac2))

    pairs = {
        "x1_sq": (x1sq_0, x1sq_1),
        "x1_mean_sq": (x1m_0, x1m_1),
        "x2_sq": (x2sq_0, x2sq_1),
        "x2_mean_sq": (x2m_0, x2m_1),
        "p_hat_sq": (psq_0, psq_1),
    }
    residual = max(abs(c.imag) for pair in pairs.values() for c in pair)
    real_pairs = {k: (v[0].real, v[1].real) for k, v in pairs.items()}
    return QuadratureMoments(residual_imag=residual, **real_pairs)


# ---------------------------------------------------------------------------
# deformed variances, product, bound, deltas


def deformed_variances(tau: float, g: float, alpha,
                       params: PhysicalParams | None = None,
                       strict: bool = True) -> tuple[float, float]:
    """Variances of the deformed position and momentum in a coherent state.

    Computed from the literal closed forms; the momentum result is
    cross-audited against the independent route via the quadrature moments
    (2*varX2 plus the quartic-moment correction) to 1e-12 before returning.
    """
    amp = _amplitude(alpha)
    _check_validity(tau, g, amp.gamma, strict)
    var_x_nat = 0.5 + 2.0 * g * _x1_correction(tau, amp.alpha).real
    var_p_nat = 0.5 + g * _p_correction(tau, amp.alpha).real

    # independent route: 2 (<X2^2> - <X2>^2) + (8/3) g (<X2^4> - <X2><X2^3>),
    # the quartic combination evaluated at g=0 via Gaussian moments:
    # <X2^4> - <X2><X2^3> = 3 <X2>^2 sigma^2 + 3 sigma^4 with sigma^2 = 1/4
    m = quadrature_moments(tau, g, amp, strict=False)
    mean_sq0 = m.x2_mean_sq[0]
    quartic = 0.75 * mean_sq0 + 3.0 / 16.0
    var_p_alt = (2.0 * (m.x2_sq[0] - m.x2_mean_sq[0])
                 + g * (2.0 * (m.x2_sq[1] - m.x2_mean_sq[1]) + 8.0 / 3.0 * quartic))
    scale = max(abs(var_p_nat), 1.0)
    if abs(var_p_alt - var_p_nat) > CROSS_CHECK_TOL * scale:
        raise ConsistencyError(
            f"momentum variance routes disagree: {var_p_nat!r} vs {var_p_alt!r}")

    if params is None:
        return var_x_nat, var_p_nat
    _, f = to_natural(params)
    return var_x_nat * f.x_var, var_p_nat * f.p_var


def uncertainty_product(tau: float, g: float, alpha,
                        params: PhysicalParams | None = None,
                        strict: bool = True) -> tuple[float, float]:
    """Uncertainty product and the deformed lower bound, first order in g.

    The bound is (1/4)(1 + 2 beta <p_hat^2>) truncated to first order, with
    the mean square taken at g = 0; it coincides with the product exactly at
    this order (minimum uncertainty survives the deformation).
    """
    amp = _amplitude(alpha)
    _check_validity(tau, g, amp.gamma, strict)
    product_nat = 0.25 + g * _product_correction(tau, amp.alpha).real
    bound_nat = 0.25 * (1.0 + 2.0 * g * _p_hat_sq_leading(tau, amp.alpha))
    if params is None:
        return product_nat, bound_nat
    _, f = to_natural(params)
    return product_nat * f.product, bound_nat * f.product


def scaled_delta_x(tau, theta, gamma):
    """Position-variance excess over canonical, stripped of hbar^2 beta / 2.

    Vectorizes over numpy arrays; negative values mark squeezing.
    """
    tau = np.asarray(tau, dtype=float)
    theta = np.asarray(theta, dtype=float)
    s2 = np.sin(tau) ** 2
    return (2.0 * s2 + gamma * gamma * (
        4.0 * s2
        - 2.0 * tau * np.cos(2.0 * theta) * np.sin(2.0 * tau)
        + (2.0 * tau * np.cos(2.0 * tau) - np.sin(2.0 * tau)) * np.sin(2.0 * theta)))


def scaled_delta_p(tau, theta, gamma):
    """Momentum-variance excess, stripped of hbar^2 m^2 w^2 beta / 4."""
    tau = np.asarray(tau, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return (2.0 * np.cos(2.0 * tau) + gamma * gamma * (
        4.0 * np.cos(2.0 * tau)
        - 3.0 * np.cos(2.0 * tau - 2.0 * theta)
        - np.cos(2.0 * tau + 2.0 * theta)
        + 4.0 * tau * np.sin(2.0 * tau - 2.0 * theta)))


def scaled_delta_product(tau, theta, gamma):
    """Product excess stripped of hbar^3 m w beta / 4: 1 + 2 gamma^2
    (1 - cos(2 tau - 2 theta)); strictly positive."""
    tau = np.asarray(tau, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return 1.0 + 2.0 * gamma * gamma * (1.0 - np.cos(2.0 * tau - 2.0 * theta))


def squeezing_deltas(tau: float, g: float, alpha,
                     params: PhysicalParams | None = None,
                     strict: bool = True) -> tuple[float, float, float]:
    """Deviations of the deformed variances and product from their canonical
    values.  Each delta is audited against (variance - canonical constant)
    within 1e-12 in natural units before any unit restoration."""
    amp = _amplitude(alpha)
    _check_validity(tau, g, amp.gamma, strict)
    delta_x_nat = 0.5 * g * float(scaled_delta_x(tau, amp.theta, amp.gamma))
    delta_p_nat = 0.25 * g * float(scaled_delta_p(tau, amp.theta, amp.gamma))
    delta_prod_nat = 0.25 * g * float(scaled_delta_product(tau, amp.theta, amp.gamma))

    var_x_nat, var_p_nat = deformed_variances(tau, g, amp, strict=False)
    prod_nat, _ = uncertainty_product(tau, g, amp, strict=False)
    checks = (
        (delta_x_nat, var_x_nat - 0.5),
        (delta_p_nat, var_p_nat - 0.5),
        (delta_prod_nat, prod_nat - 0.25),
    )
    for direct, via_variance in checks:
        scale = max(abs(direct), abs(via_variance), 1.0)
        if abs(direct - via_variance) > CROSS_CHECK_TOL * scale:
            raise ConsistencyError(
                f"delta routes disagree: {direct!r} vs {via_variance!r}")

    if params is None:
        return delta_x_nat, delta_p_nat, delta_prod_nat
    _, f = to_natural(params)
    return delta_x_nat * f.x_var, delta_p_nat * f.p_var, delta_prod_nat * f.product


@dataclass(frozen=True)
class RegionScan:
    """Sign structure of the scaled deltas over a (tau, theta) grid."""

    gamma: float
    tau: np.ndarray
    theta: np.ndarray
    delta_x: np.ndarray   # shape (len(tau), len(theta))
    delta_p: np.ndarray

    @property
    def any_negative_x(self) -> bool:
        return bool((self.delta_x < 0.0).any())

    @property
    def any_negative_p(self) -> bool:
        return bool((self.delta_p < 0.0).any())


def squeezing_region_scan(gamma: float, tau_range: tuple[float, float] = (0.0, 4.0 * math.pi),
                          theta_range: tuple[float, float] = (0.0, 2.0 * math.pi),
                          resolution: tuple[int, int] = (200, 100)) -> RegionScan:
    """Evaluate the coefficient-stripped deltas on a grid and report whether
    either surface dips below zero (squeezing regions)."""
    n_tau, n_theta = resolution
    if n_tau < 2 or n_theta < 2:
        raise ValueError(f"grid resolutions must be >= 2, got {resolution}")
    tau = np.linspace(tau_range[0], tau_range[1], n_tau)
    theta = np.linspace(theta_range[0], theta_range[1], n_theta)
    tt, hh = np.meshgrid(tau, theta, indexing="ij")
    return RegionScan(
        gamma=gamma, tau=tau, theta=theta,
        delta_x=scaled_delta_x(tt, hh, gamma),
        delta_p=scaled_delta_p(tt, hh, gamma),
    )


def analytic_slopes(tau: float, alpha) -> dict[str, float]:
    """d/dg at g=0 of the five oracle-matched quantities, natural units."""
    amp = _amplitude(alpha)
    f1 = _x1_correction(tau, amp.alpha).real
    return {
        "var_x1": f1,
        "var_x2": -f1,
        "var_x_hat": 2.0 * f1,
        "var_p_hat": _p_correction(tau, amp.alpha).real,
        "product": _product_correction(tau, amp.alpha).real,
    }


def variance_record(tau: float, g: float, alpha,
                    params: PhysicalParams | None = None,
                    strict: bool = True) -> VarianceRecord:
    """One grid point's worth of variances, product, bound, and deltas."""
    amp = _amplitude(alpha)
    scale = _check_validity(tau, g, amp.gamma, strict)
    var_x, var_p = deformed_variances(tau, g, amp, params=params, strict=False)
    product, bound = uncertainty_product(tau, g, amp, params=params, strict=False)
    d_x, d_p, d_prod = squeezing_deltas(tau, g, amp, params=params, strict=False)
    return VarianceRecord(
        tau=tau, gamma=amp.gamma, theta=amp.theta, g=g,
        var_x_hat=var_x, var_p_hat=var_p, product=product, gup_bound=bound,
        delta_x=d_x, delta_p=d_p, delta_product=d_prod, secular=scale)
