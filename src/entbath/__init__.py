"""Entanglement dynamics of two oscillators coupled to a common bath.

Three cross-validating routes to the same physics: exact evolution with a
discretized bath, master-equation moment integration, and closed-form
asymptotics (equilibrium dispersions, the entanglement oscillation law and
the sudden-death phase diagram).
"""

__version__ = "0.1.0"

from .bath import (
    DiscreteBath,
    SpectralDensity,
    asymptotic_gamma,
    counterterm,
    discretize,
    j_omega,
    modes_for_window,
    thermal_bath_covariance,
)
from .errors import (
    ConfigError,
    EntbathError,
    NumericalError,
    OrderingError,
    RecurrenceWindowError,
    UnphysicalStateError,
    UnstableHamiltonianError,
)
from .gaussian import (
    CovarianceMatrix,
    Ordering,
    OscillatorParams,
    basis_change,
    log_negativity,
    partial_transpose,
    separable_squeezed,
    symplectic_eigenvalues,
    two_mode_squeezed,
)

__all__ = [
    "__version__",
    "ConfigError",
    "CovarianceMatrix",
    "DiscreteBath",
    "EntbathError",
    "NumericalError",
    "Ordering",
    "OrderingError",
    "OscillatorParams",
    "RecurrenceWindowError",
    "SpectralDensity",
    "UnphysicalStateError",
    "UnstableHamiltonianError",
    "asymptotic_gamma",
    "basis_change",
    "counterterm",
    "discretize",
    "j_omega",
    "log_negativity",
    "modes_for_window",
    "partial_transpose",
    "separable_squeezed",
    "symplectic_eigenvalues",
    "thermal_bath_covariance",
    "two_mode_squeezed",
]
