"""Physical parameters, unit handling, and the electron cyclotron preset.

Everything downstream computes in natural units (hbar = m = omega = 1) where
the whole first-order problem depends on the single dimensionless strength
g = hbar*m*omega*beta.  This module owns the reduction to natural units, the
restoration of SI prefactors, and the one physical preset shipped with the
package: an electron undergoing cyclotron motion in a strong magnetic field.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field, replace

# CODATA 2018
HBAR_SI = 1.054571817e-34            # J s
ELECTRON_MASS_SI = 9.1093837015e-31  # kg
PLANCK_MASS_SI = 2.176434e-8         # kg
SPEED_OF_LIGHT_SI = 299792458.0      # m / s
GEV_IN_JOULE = 1.602176634e-10

#: Squared Planck momentum (M_Pl c)^2 with CODATA constants, (kg m/s)^2.
PLANCK_MOMENTUM_SQ_CODATA = (PLANCK_MASS_SI * SPEED_OF_LIGHT_SI) ** 2

#: Squared Planck momentum with the rounded constants the electron preset's
#: source values were computed from (Planck energy 1.2e19 GeV, c = 3e8 m/s).
#: Dividing the dimensionless bound 1e50 by this number reproduces the stored
#: preset beta to all six printed digits, so it is the conversion that keeps
#: the preset's beta and its dimensionless form mutually consistent.
PLANCK_MOMENTUM_SQ_ROUNDED = (1.2e19 * GEV_IN_JOULE / 3.0e8) ** 2

#: Dimensionless upper bound on the deformation strength inferred from
#: scanning-tunneling-microscope limits on Landau-level shifts.
BETA0_BOUND = 1.0e50


class ConfigError(ValueError):
    """Invalid physical parameter or preset document."""


@dataclass(frozen=True)
class PhysicalParams:
    """Oscillator parameters plus the deformation parameter beta.

    beta has units of inverse momentum squared.  Physically beta >= 0; negative
    values are accepted because the finite-beta oracle tests evolve under them.
    The SI restoration factors hbar/(m omega), hbar m omega and hbar^2 (see
    to_natural) must come out finite and normal (at least sys.float_info.min),
    or the units are a ConfigError.
    """

    mass: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        for name in ("mass", "omega", "hbar"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ConfigError(f"{name} must be positive and finite, got {v!r}")
        if not math.isfinite(self.beta):
            raise ConfigError(f"beta must be finite, got {self.beta!r}")
        try:
            factors = vars(_scale_factors(self)).values()
        except (ZeroDivisionError, OverflowError):
            factors = (0.0,)
        # a subnormal factor keeps too few digits for a %.16e column
        if not all(sys.float_info.min <= f < math.inf for f in factors):
            need = ("> 0 and finite" if not all(0.0 < f < math.inf for f in factors) else
                    f"at least {sys.float_info.min!r}, the smallest normal float")
            raise ConfigError(
                f"hbar/(m omega), hbar m omega and hbar^2 must be {need}; got "
                f"hbar={self.hbar!r}, mass={self.mass!r}, omega={self.omega!r}")

    @property
    def g(self) -> float:
        """Dimensionless deformation strength hbar*m*omega*beta."""
        return self.hbar * self.mass * self.omega * self.beta

    @property
    def delta_x_min(self) -> float:
        """Minimal measurable length hbar*sqrt(beta)."""
        if self.beta < 0.0:
            raise ConfigError("delta_x_min is defined only for beta >= 0")
        return self.hbar * math.sqrt(self.beta)

    def beta0(self, planck_momentum_sq: float = PLANCK_MOMENTUM_SQ_CODATA) -> float:
        """Dimensionless deformation parameter beta * (M_Pl c)^2."""
        return self.beta * planck_momentum_sq

    @classmethod
    def natural(cls, g: float = 0.0) -> "PhysicalParams":
        """Natural-unit parameters in which beta coincides with g."""
        return cls(mass=1.0, omega=1.0, hbar=1.0, beta=g)


@dataclass(frozen=True)
class CoherentAmplitude:
    """Coherent-state eigenvalue alpha = gamma * exp(i theta)."""

    gamma: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if self.gamma < 0.0 or not math.isfinite(self.gamma):
            raise ConfigError(f"gamma must be >= 0 and finite, got {self.gamma!r}")
        if not math.isfinite(self.theta):
            raise ConfigError(f"theta must be finite, got {self.theta!r}")

    @property
    def alpha(self) -> complex:
        return self.gamma * cmath.exp(1j * self.theta)

    @classmethod
    def from_complex(cls, alpha: complex | CoherentAmplitude) -> "CoherentAmplitude":
        if isinstance(alpha, CoherentAmplitude):
            return alpha
        alpha = complex(alpha)
        return cls(gamma=abs(alpha), theta=cmath.phase(alpha) % (2.0 * math.pi))


@dataclass(frozen=True)
class VarianceRecord:
    """Variances, uncertainty product, bound, and squeezing deltas at one
    (tau, gamma, theta, g) point.  Unit system is whatever produced it."""

    tau: float
    gamma: float
    theta: float
    g: float
    var_x_hat: float
    var_p_hat: float
    product: float
    gup_bound: float
    delta_x: float
    delta_p: float
    delta_product: float
    #: secular scale |g|*tau*(1+gamma^2); first-order accuracy degrades as it grows
    secular: float = 0.0


@dataclass(frozen=True)
class ScaleFactors:
    """Multipliers that restore SI dimensions to natural-unit variances."""

    x_var: float      # hbar / (m omega)
    p_var: float      # hbar m omega
    product: float    # hbar^2


def _scale_factors(params: PhysicalParams) -> ScaleFactors:
    """The restoration factors; m omega is computed before hbar is divided by it."""
    return ScaleFactors(
        x_var=params.hbar / (params.mass * params.omega),
        p_var=params.hbar * params.mass * params.omega,
        product=params.hbar ** 2,
    )


def to_natural(params: PhysicalParams) -> tuple[float, ScaleFactors]:
    """Reduce parameters to the dimensionless strength g plus restoration factors."""
    return params.g, _scale_factors(params)


def from_natural(record: VarianceRecord, params: PhysicalParams) -> VarianceRecord:
    """Restore SI dimensions to a natural-unit variance record."""
    _, f = to_natural(params)
    return replace(
        record,
        var_x_hat=record.var_x_hat * f.x_var,
        var_p_hat=record.var_p_hat * f.p_var,
        product=record.product * f.product,
        gup_bound=record.gup_bound * f.product,
        delta_x=record.delta_x * f.x_var,
        delta_p=record.delta_p * f.p_var,
        delta_product=record.delta_product * f.product,
    )


@dataclass(frozen=True)
class Preset:
    """Named parameter set: oscillator params plus coherent amplitude."""

    name: str
    params: PhysicalParams
    amplitude: CoherentAmplitude
    annotations: dict = field(default_factory=dict)


def electron_preset(omega_reading: str = "angular") -> Preset:
    """Electron in a strong magnetic field; cyclotron motion as the oscillator.

    The cyclotron frequency is quoted as roughly 1e3 GHz without saying
    whether that is omega or omega/(2 pi); ``omega_reading`` selects the
    interpretation ("angular" -> omega = 1e12 rad/s, "cyclic" -> 2 pi * 1e12).
    beta is the largest value compatible with the beta0 < 1e50 bound, stored
    verbatim at the six-digit precision of its source.
    """
    if omega_reading == "angular":
        omega = 1.0e12
    elif omega_reading == "cyclic":
        omega = 2.0 * math.pi * 1.0e12
    else:
        raise ConfigError(f"unknown omega reading {omega_reading!r}")
    params = PhysicalParams(
        mass=ELECTRON_MASS_SI, omega=omega, hbar=HBAR_SI, beta=2.43478e48)
    amplitude = CoherentAmplitude(gamma=1.0, theta=math.pi / 4.0)
    annotations = {
        "n": "2",
        "omega_reading": omega_reading,
        "beta0_bound": repr(BETA0_BOUND),
        # conversion that reproduces the stored beta from the saturated bound
        "planck_momentum_sq": repr(PLANCK_MOMENTUM_SQ_ROUNDED),
        "beta0_codata": repr(params.beta0(PLANCK_MOMENTUM_SQ_CODATA)),
        "delta_x_min": repr(params.delta_x_min),
    }
    return Preset(name="electron", params=params,
                  amplitude=amplitude, annotations=annotations)


# ---------------------------------------------------------------------------
# flat key = value serialization

_PRESET_FLOAT_KEYS = ("mass", "omega", "hbar", "beta", "gamma", "theta")


def preset_to_document(preset: Preset) -> str:
    """Serialize a preset to the flat ``key = value`` text format."""
    lines = [f"name = {preset.name}"]
    p, a = preset.params, preset.amplitude
    for key in _PRESET_FLOAT_KEYS:
        value = getattr(p, key, None)
        if value is None:
            value = getattr(a, key)
        lines.append(f"{key} = {value!r}")
    for key in sorted(preset.annotations):
        lines.append(f"annotation.{key} = {preset.annotations[key]}")
    return "\n".join(lines) + "\n"


def parse_flat_document(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines ignored.
    A key given twice is a ConfigError, not a silent override."""
    out: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in lines:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {lines[key]}")
        lines[key] = lineno
        out[key] = value.strip()
    return out


def preset_from_document(text: str) -> Preset:
    """Inverse of :func:`preset_to_document`."""
    fields = parse_flat_document(text)
    annotations = {k[len("annotation."):]: v for k, v in fields.items()
                   if k.startswith("annotation.")}
    known = {"name", *_PRESET_FLOAT_KEYS}
    unknown = [k for k in fields
               if k not in known and not k.startswith("annotation.")]
    if unknown:
        raise ConfigError(f"unknown preset keys: {', '.join(sorted(unknown))}")
    missing = [k for k in known if k not in fields]
    if missing:
        raise ConfigError(f"missing preset keys: {', '.join(sorted(missing))}")
    try:
        numbers = {k: float(fields[k]) for k in _PRESET_FLOAT_KEYS}
    except ValueError as exc:
        raise ConfigError(f"non-numeric preset value: {exc}") from None
    params = PhysicalParams(mass=numbers["mass"], omega=numbers["omega"],
                            hbar=numbers["hbar"], beta=numbers["beta"])
    amplitude = CoherentAmplitude(gamma=numbers["gamma"], theta=numbers["theta"])
    return Preset(name=fields["name"], params=params,
                  amplitude=amplitude, annotations=annotations)
