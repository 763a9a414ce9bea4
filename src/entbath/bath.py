"""Spectral densities, their discretization and thermal bath states.

The spectral-density family is

    J(w) = (2/pi) m gamma0 w (w/Lambda)^(n-1) theta(Lambda - w)

with ohmicity exponent n (ohmic n=1, sub-ohmic n=1/2, super-ohmic n=3).
Bath masses are fixed to 1; couplings absorb the freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalStateError
from .gaussian import CovarianceMatrix, Ordering

OHMIC = 1.0
SUB_OHMIC = 0.5
SUPER_OHMIC = 3.0
# an evolution window may use this fraction of the bath's recurrence time
RECURRENCE_MARGIN = 0.8


@dataclass(frozen=True)
class SpectralDensity:
    exponent: float
    gamma0: float
    cutoff: float
    mass: float = 1.0

    def __post_init__(self) -> None:
        if self.exponent <= 0:
            raise ValueError("ohmicity exponent must be positive")
        if self.gamma0 <= 0 or self.cutoff <= 0 or self.mass <= 0:
            raise ValueError("gamma0, cutoff and mass must be positive")

    @classmethod
    def ohmic(cls, gamma0: float, cutoff: float, mass: float = 1.0) -> "SpectralDensity":
        return cls(OHMIC, gamma0, cutoff, mass)

    @classmethod
    def sub_ohmic(cls, gamma0: float, cutoff: float, mass: float = 1.0) -> "SpectralDensity":
        return cls(SUB_OHMIC, gamma0, cutoff, mass)

    @classmethod
    def super_ohmic(cls, gamma0: float, cutoff: float, mass: float = 1.0) -> "SpectralDensity":
        return cls(SUPER_OHMIC, gamma0, cutoff, mass)


def j_omega(sd: SpectralDensity, omega):
    """J(omega); accepts scalars or arrays, zero beyond the hard cutoff."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise ValueError("frequency must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (2.0 / math.pi) * sd.mass * sd.gamma0 * w * (w / sd.cutoff) ** (
            sd.exponent - 1.0
        )
    val = np.where(w > sd.cutoff, 0.0, val)
    val = np.where(w == 0.0, 0.0, val)
    return float(val) if np.isscalar(omega) else val


def counterterm(sd: SpectralDensity) -> float:
    """Asymptotic frequency-squared shift of the x+ oscillator (negative).

    delta_omega^2 = -(4/m) Int_0^Lambda J(w)/w dw = -8 gamma0 Lambda / (pi n).
    The factor 4 (instead of the single-oscillator 2) reflects the
    sqrt(2)-enhanced coupling of x+ to the bath.
    """
    return -8.0 * sd.gamma0 * sd.cutoff / (math.pi * sd.exponent)


def asymptotic_gamma(sd: SpectralDensity, omega: float) -> float:
    """Long-time damping rate of the x+ oscillator: 2 gamma0 (omega/Lambda)^(n-1)."""
    if not 0 < omega < sd.cutoff:
        raise ValueError("resonance frequency must lie below the cutoff")
    return 2.0 * sd.gamma0 * (omega / sd.cutoff) ** (sd.exponent - 1.0)


@dataclass(frozen=True)
class DiscreteBath:
    """N oscillators on a uniform frequency grid realizing a SpectralDensity.

    Uniform spacing makes the recurrence time 2 pi / dw explicit; the grid
    w_k = k dw excludes w=0, so sub-ohmic c_k^2/w_k^2 sums stay finite.
    """

    frequencies: np.ndarray
    masses: np.ndarray
    couplings: np.ndarray
    temperature: float

    def __post_init__(self) -> None:
        for name in ("frequencies", "masses", "couplings"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")
        w = self.frequencies
        if len(w) == 0 or np.any(np.diff(w) <= 0) or w[0] <= 0:
            raise ValueError("bath frequencies must be positive and increasing")

    @property
    def n_modes(self) -> int:
        return len(self.frequencies)

    @property
    def spacing(self) -> float:
        if self.n_modes == 1:
            return float(self.frequencies[0])
        return float(self.frequencies[1] - self.frequencies[0])

    @property
    def recurrence_time(self) -> float:
        return 2.0 * math.pi / self.spacing

    def counterterm_sum(self, system_mass: float) -> float:
        """Discrete-sum counterterm -(4/m) sum_k c_k^2/(2 m_k w_k^2)."""
        c, mk, w = self.couplings, self.masses, self.frequencies
        return -(4.0 / system_mass) * float(np.sum(c**2 / (2.0 * mk * w**2)))


def discretize(sd: SpectralDensity, n_modes: int, temperature: float = 0.0) -> DiscreteBath:
    """Uniform-grid bath: w_k = k dw, dw = Lambda/N, c_k^2 = 2 w_k J(w_k) dw.

    The top mode is the cutoff itself: where N dw rounds just above Lambda,
    J is read at Lambda, so the hard cutoff never decouples that mode.
    """
    if n_modes < 1:
        raise ValueError("need at least one bath mode")
    dw = sd.cutoff / n_modes
    w = dw * np.arange(1, n_modes + 1)
    masses = np.ones(n_modes)
    couplings = np.sqrt(2.0 * masses * w * j_omega(sd, np.minimum(w, sd.cutoff)) * dw)
    return DiscreteBath(w, masses, couplings, temperature)


def thermal_bath_variances(bath: DiscreteBath) -> np.ndarray:
    """Diagonal of the thermal bath covariance, interleaved (q, pi)."""
    w, mk = bath.frequencies, bath.masses
    t = bath.temperature
    if t == 0.0:
        occ = np.ones_like(w)
    else:
        occ = 1.0 / np.tanh(w / (2.0 * t))
    diag = np.empty(2 * bath.n_modes)
    diag[0::2] = occ / (2.0 * mk * w)
    diag[1::2] = mk * w * occ / 2.0
    return diag


def thermal_bath_covariance(bath: DiscreteBath) -> CovarianceMatrix:
    """Block-diagonal thermal covariance of the bath modes (interleaved q, pi)."""
    return CovarianceMatrix(np.diag(thermal_bath_variances(bath)), Ordering.FULL)


def modes_for_window(cutoff: float, t_max: float) -> int:
    """Smallest N whose bath keeps t_max inside RECURRENCE_MARGIN of its
    recurrence time, compared as the recurrence guard compares them: t_rec =
    2 pi / spacing, with ``discretize``'s spacing cutoff / N."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    fits = lambda n: t_max <= RECURRENCE_MARGIN * (2.0 * math.pi / (cutoff / n))
    n = max(1, math.ceil(cutoff * t_max / (2.0 * math.pi * RECURRENCE_MARGIN)))
    while n > 1 and fits(n - 1):
        n -= 1
    while not fits(n):
        n += 1
    return n
