"""Minimal-length-deformed harmonic oscillator toolkit.

Three mutually checking routes to the same physics: an exact rational
operator algebra (boson_algebra), literal first-order closed forms
(analytic), and a truncated Fock-space numerical oracle (fock_oracle),
with unit handling and the electron preset in physics_config and a CSV
command-line front end in cli.
"""

from .analytic import (
    ConsistencyError,
    SecularValidityError,
    SecularValidityWarning,
    analytic_slopes,
    deformed_variances,
    quadrature_variances,
    squeezing_deltas,
    uncertainty_product,
)
from .boson_algebra import verify_bch_collection
from .fock_oracle import OracleError, oracle_slopes
from .physics_config import (
    CoherentAmplitude,
    ConfigError,
    PhysicalParams,
    electron_preset,
)

__version__ = "0.1.0"
