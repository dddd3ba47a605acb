"""Parameter validation, unit round trips, preset values and serialization."""

import math
import random

import pytest

from gupsqueeze.analytic import variance_record
from gupsqueeze.physics_config import (
    BETA0_BOUND, HBAR_SI, PLANCK_MOMENTUM_SQ_CODATA, PLANCK_MOMENTUM_SQ_ROUNDED,
    CoherentAmplitude, ConfigError, PhysicalParams, electron_preset,
    from_natural, parse_flat_document, preset_from_document, preset_to_document,
    round_significant, to_natural,
)


# ---------------------------------------------------------------------------
# parameters and amplitudes


def test_params_validation():
    with pytest.raises(ConfigError):
        PhysicalParams(mass=-1.0)
    with pytest.raises(ConfigError):
        PhysicalParams(omega=0.0)
    with pytest.raises(ConfigError):
        PhysicalParams(beta=float("nan"))


def test_g_is_recomputed_product():
    p = PhysicalParams(mass=2.0, omega=3.0, hbar=0.5, beta=1e-3)
    assert p.g == pytest.approx(2.0 * 3.0 * 0.5 * 1e-3, rel=1e-15)
    assert PhysicalParams.natural(0.0).g == 0.0
    assert PhysicalParams(hbar=1, mass=1, omega=1, beta=1e-3).g == 1e-3


def test_negative_beta_allowed_for_differencing():
    p = PhysicalParams.natural(-1e-6)
    assert p.beta == -1e-6
    with pytest.raises(ConfigError):
        _ = p.delta_x_min


def test_delta_x_min():
    p = PhysicalParams(mass=1.0, omega=1.0, hbar=2.0, beta=9.0)
    assert p.delta_x_min == pytest.approx(6.0)


def test_amplitude_validation_and_alpha():
    with pytest.raises(ConfigError):
        CoherentAmplitude(gamma=-0.1)
    amp = CoherentAmplitude(gamma=2.0, theta=math.pi / 2.0)
    assert amp.alpha == pytest.approx(2.0j, abs=1e-15)
    back = CoherentAmplitude.from_complex(1.0 - 1.0j)
    assert back.gamma == pytest.approx(math.sqrt(2.0))
    assert back.alpha == pytest.approx(1.0 - 1.0j, abs=1e-15)


def test_from_complex_returns_an_amplitude_as_is():
    amp = CoherentAmplitude(gamma=2.0, theta=7.0)  # theta outside [0, 2 pi)
    assert CoherentAmplitude.from_complex(amp) is amp


# ---------------------------------------------------------------------------
# natural-unit reduction and restoration


def test_natural_round_trip_is_identity():
    rng = random.Random(5)
    for _ in range(10):
        params = PhysicalParams(
            mass=10 ** rng.uniform(-3, 3), omega=10 ** rng.uniform(-3, 3),
            hbar=10 ** rng.uniform(-2, 2), beta=10 ** rng.uniform(-8, -2))
        g, factors = to_natural(params)
        assert g == pytest.approx(params.g, rel=1e-15)
        rec_nat = variance_record(1.3, g, CoherentAmplitude(gamma=1.0, theta=0.4),
                                  strict=False)
        rec_si = from_natural(rec_nat, params)
        # undo the factors by hand
        assert rec_si.var_x_hat / factors.x_var == pytest.approx(
            rec_nat.var_x_hat, rel=1e-12)
        assert rec_si.var_p_hat / factors.p_var == pytest.approx(
            rec_nat.var_p_hat, rel=1e-12)
        assert rec_si.product / factors.product == pytest.approx(
            rec_nat.product, rel=1e-12)


def test_scale_covariance_of_direct_si_evaluation():
    """Computing in natural units and restoring dimensions agrees with
    evaluating the record directly with SI parameters."""
    rng = random.Random(12)
    for _ in range(8):
        params = PhysicalParams(
            mass=10 ** rng.uniform(-2, 2), omega=10 ** rng.uniform(-2, 2),
            hbar=10 ** rng.uniform(-1, 1), beta=10 ** rng.uniform(-9, -4))
        amp = CoherentAmplitude(gamma=rng.uniform(0, 2), theta=rng.uniform(0, 6))
        tau = rng.uniform(0.1, 8.0)
        direct = variance_record(tau, params.g, amp, params=params, strict=False)
        restored = from_natural(
            variance_record(tau, params.g, amp, strict=False), params)
        for field in ("var_x_hat", "var_p_hat", "product", "gup_bound",
                      "delta_x", "delta_p", "delta_product"):
            assert getattr(direct, field) == pytest.approx(
                getattr(restored, field), rel=1e-10), field


# ---------------------------------------------------------------------------
# electron preset


def test_electron_preset_core_values():
    preset = electron_preset()
    assert preset.name == "electron"
    assert preset.params.beta == 2.43478e48          # stored verbatim
    assert preset.params.omega == 1.0e12             # angular reading
    assert preset.amplitude.gamma == 1.0
    assert preset.amplitude.theta == pytest.approx(math.pi / 4.0)
    assert preset.annotations["n"] == "2"
    g = preset.params.g
    assert 0.0 < g < 1e-3 and math.isfinite(g)
    assert g == pytest.approx(2.339e-4, rel=1e-3)


def test_electron_preset_omega_readings():
    angular = electron_preset("angular")
    cyclic = electron_preset("cyclic")
    assert cyclic.params.omega == pytest.approx(2.0 * math.pi * angular.params.omega)
    with pytest.raises(ConfigError):
        electron_preset("sideways")


def test_electron_preset_bound():
    preset = electron_preset()
    # the source's own conversion reproduces the stored beta from the bound
    implied_beta = BETA0_BOUND / PLANCK_MOMENTUM_SQ_ROUNDED
    assert round_significant(implied_beta, 6) == preset.params.beta
    # at the six-digit precision of the stored value, the bound is saturated
    assert preset.honors_beta0_bound()
    assert preset.beta0_at_source_precision() == pytest.approx(BETA0_BOUND)
    # the CODATA conversion puts the same beta a few percent over: recorded,
    # not hidden
    codata = preset.params.beta0(PLANCK_MOMENTUM_SQ_CODATA)
    assert codata == pytest.approx(1.0365e50, rel=1e-3)
    assert float(preset.annotations["beta0_codata"]) == pytest.approx(codata)


def test_electron_preset_minimal_length_scale():
    preset = electron_preset()
    # hbar sqrt(beta) lands at the atomic scale for the saturated bound
    assert preset.params.delta_x_min == pytest.approx(
        HBAR_SI * math.sqrt(2.43478e48), rel=1e-12)
    assert 1e-10 < preset.params.delta_x_min < 2e-10
    # the minimal length rides along in the serialized annotations
    assert float(preset.annotations["delta_x_min"]) == pytest.approx(
        preset.params.delta_x_min, rel=1e-15)


# ---------------------------------------------------------------------------
# serialization


def test_preset_document_round_trip():
    preset = electron_preset("cyclic")
    doc = preset_to_document(preset)
    back = preset_from_document(doc)
    assert back.name == preset.name
    assert back.params == preset.params
    assert back.amplitude == preset.amplitude
    assert back.annotations == preset.annotations


def test_parse_flat_document():
    fields = parse_flat_document("a = 1\n# comment\n\nb = two words # trailing\n")
    assert fields == {"a": "1", "b": "two words"}
    with pytest.raises(ConfigError, match="key = value"):
        parse_flat_document("not a pair\n")


def test_preset_document_rejects_unknown_and_missing_keys():
    doc = preset_to_document(electron_preset())
    with pytest.raises(ConfigError, match="unknown preset keys: bogus"):
        preset_from_document(doc + "bogus = 1\n")
    clipped = "\n".join(line for line in doc.splitlines()
                        if not line.startswith("beta "))
    with pytest.raises(ConfigError, match="missing preset keys: beta"):
        preset_from_document(clipped)
