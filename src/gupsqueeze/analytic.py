"""Closed-form first-order dynamics of the deformed oscillator.

Everything is a function of dimensionless time tau = omega*t, the strength
g = hbar*m*omega*beta, and the coherent amplitude alpha = gamma e^{i theta};
SI prefactors are restored at the boundary when PhysicalParams are supplied.

Literal closed-form expressions for the evolved annihilation operator, the
quadrature and deformed variances, the uncertainty product and its bound, and
the squeezing deltas, array-generic: variance_grid evaluates whole records
over a broadcast grid.  The closed forms cross-audit each other at run time
where the contract demands it.  The test suite builds the evolved operators
as complex-coefficient polynomials in boson_algebra's graded ring, which
re-derives the coherent-state moments mechanically, and checks everything
against the truncated-Fock oracle (see tests/reference.py).

Validity: the first-order corrections contain secular terms linear in tau, so
results degrade as |g|*tau*(1+gamma^2) grows.  ``validity_codes`` alone
applies the thresholds: operations warn above 0.1 and refuse above 10 unless
``strict=False``, and the sweep labels its rows by the same codes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .boson_algebra import (
    A, G_HAT_SCALE, MONOMIAL_FORMS, Monomial, _coordinates, closed_form_value,
)
from .physics_config import (
    CoherentAmplitude, ConfigError, PhysicalParams, VarianceRecord, from_natural,
)

SECULAR_WARN = 0.1
SECULAR_REFUSE = 10.0
#: A secular scale's validity label, indexed by its code (see validity_codes).
VALIDITY_LABELS = ("ok", "warn", "invalid")
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


def validity_codes(secular):
    """How many of SECULAR_WARN and SECULAR_REFUSE each secular scale
    exceeds: 0, 1 or 2, an int8 index into VALIDITY_LABELS; array-generic."""
    codes = np.greater(secular, SECULAR_WARN).astype(np.int8)
    codes += np.greater(secular, SECULAR_REFUSE)
    return codes


def _check_validity(tau: float, g: float, gamma: float, strict: bool, stacklevel=3) -> None:
    scale = secular_scale(tau, g, gamma)
    if not strict:
        return
    code = validity_codes(scale)
    if code == 2:
        raise SecularValidityError(
            f"secular scale {scale:.3g} > {SECULAR_REFUSE}; the first-order "
            "expansion has no validity here")
    if code == 1:
        warnings.warn(
            f"secular scale {scale:.3g} > {SECULAR_WARN}; first-order accuracy "
            "is degrading", SecularValidityWarning, stacklevel=stacklevel)


def _phase_table(tau):
    """k -> exp(i k tau), each distinct multiple k evaluated once per table."""
    return cache(lambda k: np.exp(1j * (k * tau)))


# ---------------------------------------------------------------------------
# evolved annihilation operator


def _ladder_parts(tau, e) -> dict[Monomial, tuple]:
    """Graded (order g^0, order g^1) coefficients of a(t) from tau's phase
    table e; array-generic."""
    parts = {mono: (0.0, closed_form_value(form, tau, e))
             for mono, form in MONOMIAL_FORMS.items()}
    parts[A] = (closed_form_value("base", tau, e), parts[A][1])
    return parts


def ladder_taylor_check(tau: float, k_max: int = 12) -> float:
    """Max deviation between the six closed-form order-g coefficients and the
    exact collected coefficient series summed through depth k_max.

    The six series are summed at tau as the chain streams, whose coordinates
    1-6 hold the MONOMIAL_FORMS monomials' order-g entries in g_hat, and the
    power and factorial are stepped once per depth for all six.  Int true
    division rounds n / G_HAT_SCALE correctly, as float(Fraction(n,
    G_HAT_SCALE)) does, so each term keeps the bits of its exact coefficient
    however far the chain's ints pass 2^53."""
    t1 = t2 = t3 = t4 = t5 = t6 = 0.0 + 0.0j
    power = 1.0 + 0.0j
    fact = 1.0
    itau = 1j * tau
    for k, (_, n1, n2, n3, n4, n5, n6) in enumerate(_coordinates(k_max)):
        if k:
            power *= itau
            fact *= k
        t1 += n1 / G_HAT_SCALE * power / fact
        t2 += n2 / G_HAT_SCALE * power / fact
        t3 += n3 / G_HAT_SCALE * power / fact
        t4 += n4 / G_HAT_SCALE * power / fact
        t5 += n5 / G_HAT_SCALE * power / fact
        t6 += n6 / G_HAT_SCALE * power / fact
    return max(abs(total - c1) for total, (_, c1) in
               zip((t1, t2, t3, t4, t5, t6), _ladder_parts(tau, _phase_table(tau)).values()))


# ---------------------------------------------------------------------------
# first-order brackets (literal closed forms)


def _x1_correction(tau: float, alpha: complex, e) -> complex:
    """Order-g coefficient of the X1 variance; exactly real for all inputs.
    ``e`` is tau's phase table (see :func:`_phase_table`), as for the other
    brackets and moments."""
    a2 = alpha * alpha
    ac = alpha.conjugate()
    ac2 = ac * ac
    re_a = alpha.real
    mod2 = (alpha * ac).real
    bracket = (
        (-2.0 + 3.0 * a2 - 4j * tau * a2 + ac2 - 8.0 * alpha * re_a)
        + 4.0 * e(2) * (1.0 + 2.0 * mod2)
        + e(4) * (-2.0 + a2 - 4.0 * mod2 + 4j * tau * ac2 - ac2)
    )
    return e(-2) * bracket / 16.0


def _p_correction(tau: float, alpha: complex, e) -> complex:
    """Order-g coefficient of the deformed momentum variance, natural units."""
    a2 = alpha * alpha
    ac = alpha.conjugate()
    ac2 = ac * ac
    re_a = alpha.real
    bracket = (
        2.0 - 7.0 * a2 + 4j * tau * a2 - ac2 + 8.0 * alpha * re_a
        + e(4) * (2.0 - 5.0 * a2 - 3.0 * ac2 - 4j * tau * ac2
                  + 8.0 * alpha * re_a)
    )
    return e(-2) * bracket / 8.0


def _product_correction(alpha: complex, e) -> complex:
    """Order-g coefficient of the uncertainty product, natural units."""
    a2 = alpha * alpha
    ac2 = alpha.conjugate() ** 2
    mod2 = abs(alpha) ** 2
    return (1.0 - e(-2) * a2 + 2.0 * mod2 - e(2) * ac2) / 4.0


def _product_and_bound(g, alpha, e):
    """Natural-unit product and bound (1/4)(1 + 2 g <p_hat^2>_0): the mean
    square is twice the product's correction, so the two agree exactly."""
    c = _product_correction(alpha, e).real
    return 0.25 + g * c, 0.25 * (1.0 + 4.0 * g * c)


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
    amp = CoherentAmplitude.from_complex(alpha)
    _check_validity(tau, g, amp.gamma, strict)
    correction = g * _x1_correction(tau, amp.alpha, _phase_table(tau))
    return QuadratureVariances(
        var_x1=CANONICAL_VAR_X1 + correction.real,
        var_x2=CANONICAL_VAR_X2 - correction.real,
        residual_imag=abs(correction.imag),
    )


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


def quadrature_moments(tau: float, alpha) -> QuadratureMoments:
    """The five coherent-state moments behind the variance formulas:
    <X1^2>, <X1>^2, <X2^2>, <X2>^2 and the deformed-momentum mean square,
    each as an (order g^0, order g^1) pair in natural units, which no g or
    secular policy enters: a caller weighs each pair at its own g.

    <X1^2> - <X1>^2 and <X2^2> - <X2>^2 reproduce the quadrature variances
    to float precision; callers relying on that identity get it audited in
    :func:`variance_grid`.
    """
    pairs = _moments(tau, CoherentAmplitude.from_complex(alpha).alpha)
    residual = max(abs(c.imag) for pair in pairs.values() for c in pair)
    real_pairs = {k: (v[0].real, v[1].real) for k, v in pairs.items()}
    return QuadratureMoments(residual_imag=residual, **real_pairs)


def _moments(tau, a) -> dict[str, tuple]:
    """The five moments as complex (order g^0, order g^1) pairs; array-generic."""
    ac = a.conjugate()
    a2, a3, a4 = a * a, a ** 3, a ** 4
    ac2, ac3, ac4 = ac * ac, ac ** 3, ac ** 4
    mod2 = (a * ac).real
    mod4 = mod2 * mod2
    re_a = a.real
    e = _phase_table(tau)
    s = np.sin(tau)

    # <X1^2>
    x1sq_0 = 0.25 * (1.0 + e(-2) * a2 + 2.0 * mod2 + e(2) * ac2)
    grp_a = (-6.0 + 27.0 * a2 + 2.0 * a3 * ac + 9.0 * (1.0 + 4j * tau) * ac2
             + 6.0 * (1.0 + 4j * tau) * a * ac3 + 4.0 * ac4 - 48.0 * a * re_a)
    grp_b = (-6.0 + a2 * (33.0 - 36j * tau - 2.0 * a2) - 24j * tau * a3 * ac
             + 3.0 * ac2 + 2.0 * a * ac3 + 12.0 * a * (-4.0 + a2) * re_a)
    grp_c = (6.0 + 5.0 * a2 * (-6.0 + a2) + ac2 * (-6.0 - 4.0 * a * ac + ac2)
             - 8.0 * a * (-6.0 + a2) * re_a + 24.0 * mod4 * s * s)
    x1sq_1 = e(-4) / 48.0 * (
        -6.0 * a4 - 6.0 * e(8) * ac4
        + e(6) * grp_a + e(2) * grp_b + 2.0 * e(4) * grp_c)

    # <X1>^2
    sum_ = a + e(2) * ac
    x1m_0 = 0.25 * e(-2) * sum_ * sum_
    x1m_1 = e(-4) / 24.0 * sum_ * (
        -3.0 * a3 - 3.0 * e(6) * ac3
        + e(2) * (6.0 * (1.0 - 2j * tau) * a * mod2 - 6.0 * a * ac2 + ac3
                        + 2.0 * (a * (6.0 - 6j * tau + a2) - 6.0 * re_a))
        + e(4) * (-12.0 * a + a3 - 6.0 * a * mod2
                        + 2.0 * ac * (6j * tau + ac * (3.0 * a + 6j * tau * a + ac))
                        + 12.0 * re_a))

    # deformed momentum mean square
    psq_0 = 0.5 * (1.0 - e(-2) * a2 + 2.0 * mod2 - e(2) * ac2)
    psq_1 = e(-4) / 24.0 * (
        6.0 * e(2) + 6.0 * e(6)
        - 3.0 * e(2) * (3.0 + 4.0 * e(2) + e(4) - 12j * tau) * a2
        + 2.0 * (3.0 - 2.0 * e(2) + e(4)) * a4
        + 12.0 * e(2) * (1.0 + e(4)) * mod4
        + 16.0 * e(2) * mod2 * (3.0 * e(2) - a2)
        + (-3.0 * e(2) - 12.0 * e(4) - e(6) * (9.0 + 36j * tau)) * ac2
        - 16.0 * e(6) * mod2 * ac2
        + 2.0 * e(4) * (1.0 - 2.0 * e(2) + 3.0 * e(4)) * ac4
        - 2.0 * e(2) * mod2 * (
            -12.0 * (e(2) - 1.0) ** 2
            + (-5.0 + 4.0 * e(2) + e(4) - 12j * tau) * a2
            + (1.0 + 4.0 * e(2) + e(4) * (-5.0 + 12j * tau)) * ac2))

    return {
        "x1_sq": (x1sq_0, x1sq_1),
        "x1_mean_sq": (x1m_0, x1m_1),
        **_x2_moments(tau, a, e),
        "p_hat_sq": (psq_0, psq_1),
    }


def _x2_moments(tau, a, e) -> dict[str, tuple]:
    """<X2^2> and <X2>^2 alone, the two moments the momentum audit reads."""
    ac = a.conjugate()
    a2, a4 = a * a, a ** 4
    ac2, ac4 = ac * ac, ac ** 4
    mod2 = (a * ac).real
    mod4 = mod2 * mod2

    # <X2^2>
    x2sq_0 = 0.25 * (1.0 - e(-2) * a2 + 2.0 * mod2 - e(2) * ac2)
    x2sq_1 = e(-4) / 48.0 * (
        2.0 * a4 - 3.0 * e(6) * (a2 - 2.0)
        + e(2) * (6.0 + 3.0 * a2 * (5.0 + 12j * tau) - 4.0 * a4)
        + 2.0 * e(4) * (-6.0 - 6.0 * a2 + a4)
        + 12.0 * e(2) * (e(2) - 1.0) ** 2 * mod4
        + 3.0 * e(2) * ac2 * (-1.0 - 4.0 * e(2) + e(4) * (5.0 - 12j * tau))
        + 2.0 * e(4) * ac4 * (e(2) - 1.0) ** 2
        - 2.0 * e(2) * mod2 * (
            -12.0 - 5.0 * a2 - 12j * tau * a2 + e(4) * (a2 - 12.0)
            + 4.0 * e(2) * (6.0 + a2)
            + (1.0 + 4.0 * e(2) + e(4) * (12j * tau - 5.0)) * ac2))

    # <X2>^2 as the square of the graded mean; the order-g part of <a(t)> sums
    # conj(a)^m a^n over a(t)'s monomials, with the forms verify-bch checks
    w0 = (a * e(-1) - ac * e(1)) / 2j
    m1 = sum(c1 * ac ** m * a ** n for (m, n), (_, c1) in _ladder_parts(tau, e).items())
    w1 = (m1 - m1.conjugate()) / 2j
    x2m_0 = w0 * w0
    x2m_1 = 2.0 * w0 * w1

    return {"x2_sq": (x2sq_0, x2sq_1), "x2_mean_sq": (x2m_0, x2m_1)}


# ---------------------------------------------------------------------------
# deformed variances, product, bound, deltas


def _largest(*terms) -> np.ndarray:
    """max(|term|..., 1): the rounding-error scale of a sum of these terms."""
    return reduce(np.maximum, (np.abs(t) for t in terms), 1.0)


@np.errstate(all="ignore")  # non-finite results are reported as a ConfigError
def variance_grid(tau, gamma, theta, g,
                  params: PhysicalParams | None = None) -> dict[str, np.ndarray]:
    """Every VarianceRecord column, by field name, over the broadcast grid;
    natural units unless params are given.  No secular-validity policy.

    The inputs are not expanded: each factor runs on the broadcast of the
    axes it depends on, so open axes (``np.meshgrid(..., sparse=True)``)
    evaluate the phases e^{i k tau} on tau alone and the brackets on
    (tau, gamma, theta), and only the terms that meet g reach the whole grid.
    Every cell is the IEEE result a dense grid gives.  The columns are
    read-only views broadcast to the grid's shape.

    The momentum variance is audited against the
    quadrature-moment route and each delta against its variance minus the
    canonical value, to 1e-12 of the rounding-error scale, in natural units;
    a ConsistencyError names the first failing point in grid order.  Negative
    gamma, non-finite values and overflowing records raise ConfigError.  Each
    check first runs as one test over the whole grid: the per-cell masks, and
    the audits' rounding-error scales (never below 1), are built only where
    that test finds a cell that needs them, here a gap above 1e-12 itself.
    """
    tau, gamma, theta, g = axes = [np.asarray(v, dtype=float)
                                   for v in (tau, gamma, theta, g)]
    shape = np.broadcast_shapes(*(v.shape for v in axes))
    alpha = gamma * np.exp(1j * theta)
    e = _phase_table(tau)
    var_x = 0.5 + 2.0 * g * _x1_correction(tau, alpha, e).real
    var_p = 0.5 + g * _p_correction(tau, alpha, e).real
    product, bound = _product_and_bound(g, alpha, e)
    d_x = 0.5 * g * scaled_delta_x(tau, theta, gamma)
    d_p = 0.25 * g * scaled_delta_p(tau, theta, gamma)
    d_prod = 0.25 * g * scaled_delta_product(tau, theta, gamma)
    record = VarianceRecord(tau, gamma, theta, g, var_x, var_p, product, bound,
                            d_x, d_p, d_prod, secular_scale(tau, g, gamma))
    columns = vars(record if params is None else from_natural(record, params))

    # independent route: 2 (<X2^2> - <X2>^2) + (8/3) g (<X2^4> - <X2><X2^3>),
    # the quartic combination evaluated at g=0 via Gaussian moments:
    # <X2^4> - <X2><X2^3> = 3 <X2>^2 sigma^2 + 3 sigma^4 with sigma^2 = 1/4
    m = _x2_moments(tau, alpha, e)
    (x2_sq0, x2_sq1), (x2_mean_sq0, x2_mean_sq1) = (
        (c0.real, c1.real) for c0, c1 in (m["x2_sq"], m["x2_mean_sq"]))
    quartic = 0.75 * x2_mean_sq0 + 3.0 / 16.0
    var_p_alt = (2.0 * (x2_sq0 - x2_mean_sq0)
                 + g * (2.0 * (x2_sq1 - x2_mean_sq1) + 8.0 / 3.0 * quartic))

    def at(v, i: int):
        """v's value at index i of the grid in C order."""
        return np.broadcast_to(v, shape).flat[i]

    def point(i: int) -> tuple[float, ...]:
        return tuple(float(at(v, i)) for v in axes)

    def failing(mask) -> np.ndarray:
        return np.flatnonzero(np.broadcast_to(mask, shape))

    # each per-cell mask is built only where a whole-array test finds a cell
    # that fails, to name the first such point
    values = (*columns.values(), var_p_alt)
    if (gamma < 0.0).any() or not all(np.isfinite(v).all() for v in values):
        bad = failing((gamma < 0.0) | ~reduce(np.logical_and, map(np.isfinite, values)))
        if bad.size:
            raise ConfigError(f"(tau, gamma, theta, g) = {point(bad[0])}: need gamma >= 0, "
                              "finite values and a record within the float range")

    audits = (("momentum variance", var_p, var_p_alt), ("delta_x", d_x, var_x - 0.5),
              ("delta_p", d_p, var_p - 0.5), ("delta_product", d_prod, product - 0.25))
    gaps = [np.abs(a - b) for _, a, b in audits]
    # Every tolerance below is CROSS_CHECK_TOL times scales of at least 1 (none
    # is NaN once the values are finite), so gaps within CROSS_CHECK_TOL pass
    # without them.  Rounding-error scales: first-order terms reach
    # |g| (1 + |tau|)(1 + gamma^2), the quadrature moments carry one more
    # factor 1 + gamma^2, and a phase such as e^{i k tau} or
    # cos(2 tau - 2 theta) is off by eps max(|tau|, |theta|).
    if not all((gap <= CROSS_CHECK_TOL).all() for gap in gaps):
        terms = secular_scale(1.0 + np.abs(tau), g, gamma)
        phase = _largest(tau, theta)
        scales = (_largest(var_p, 2.0 * g * x2_sq1, 2.0 * g * x2_mean_sq1,
                           (1.0 + gamma * gamma) * (1.0 + terms)),
                  *(_largest(a, b, terms) for _, a, b in audits[1:]))
        failed = [~(gap <= CROSS_CHECK_TOL * phase * scale)
                  for gap, scale in zip(gaps, scales)]
        bad = failing(reduce(np.logical_or, failed))
        if bad.size:
            name, a, b = next(audit for audit, f in zip(audits, failed) if at(f, bad[0]))
            raise ConsistencyError(
                f"{name} routes disagree at (tau, gamma, theta, g) = {point(bad[0])}: "
                f"{at(a, bad[0])!r} vs {at(b, bad[0])!r}")
    return {name: np.broadcast_to(col, shape) for name, col in columns.items()}


def _record_at(tau: float, g: float, alpha, params: PhysicalParams | None,
               strict: bool) -> VarianceRecord:
    """One point, after the validity policy, bit for bit what any grid gives."""
    amp = CoherentAmplitude.from_complex(alpha)
    _check_validity(tau, g, amp.gamma, strict, stacklevel=4)  # the caller's caller
    grid = variance_grid([tau], [amp.gamma], [amp.theta], [g], params)
    return VarianceRecord(**{name: float(col[0]) for name, col in grid.items()})


def deformed_variances(tau: float, g: float, alpha,
                       params: PhysicalParams | None = None,
                       strict: bool = True) -> tuple[float, float]:
    """Deformed position and momentum variances (see :func:`variance_grid`)."""
    record = _record_at(tau, g, alpha, params, strict)
    return record.var_x_hat, record.var_p_hat


def uncertainty_product(tau: float, g: float, alpha,
                        params: PhysicalParams | None = None,
                        strict: bool = True) -> tuple[float, float]:
    """Uncertainty product and the deformed lower bound, first order in g.

    The bound is (1/4)(1 + 2 beta <p_hat^2>) truncated to first order, with
    the mean square taken at g = 0; it coincides with the product exactly at
    this order (minimum uncertainty survives the deformation).  Both come from
    the record kernel (see :func:`variance_grid`), SI scaling included.
    """
    record = _record_at(tau, g, alpha, params, strict)
    return record.product, record.gup_bound


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
    """Momentum-variance excess, stripped of hbar^2 m^2 w^2 beta / 4:
    2 cos 2tau + gamma^2 (4 cos 2tau - 3 cos(2tau - 2theta)
    - cos(2tau + 2theta) + 4 tau sin(2tau - 2theta)).

    As in scaled_delta_x, the trig runs on the tau and theta axes and the
    angle sums are expanded on the grid.
    """
    tau = np.asarray(tau, dtype=float)
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(2.0 * tau), np.sin(2.0 * tau)
    c_theta, s_theta = np.cos(2.0 * theta), np.sin(2.0 * theta)
    return (2.0 * c + gamma * gamma * (
        4.0 * c * (1.0 - c_theta)
        - 2.0 * s * s_theta
        + 4.0 * tau * (s * c_theta - c * s_theta)))


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
    values, each audited against its variance (see :func:`variance_grid`)."""
    record = _record_at(tau, g, alpha, params, strict)
    return record.delta_x, record.delta_p, record.delta_product


def analytic_slopes(tau: float, alpha) -> dict[str, float]:
    """d/dg at g=0 of the five oracle-matched quantities, natural units."""
    amp = CoherentAmplitude.from_complex(alpha)
    e = _phase_table(tau)
    f1 = _x1_correction(tau, amp.alpha, e).real
    return {
        "var_x1": f1,
        "var_x2": -f1,
        "var_x_hat": 2.0 * f1,
        "var_p_hat": _p_correction(tau, amp.alpha, e).real,
        "product": _product_correction(amp.alpha, e).real,
    }


def variance_record(tau: float, g: float, alpha,
                    params: PhysicalParams | None = None,
                    strict: bool = True) -> VarianceRecord:
    """One grid point's worth of variances, product, bound, and deltas."""
    return _record_at(tau, g, alpha, params, strict)
