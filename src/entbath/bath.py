"""Spectral densities, their discretization and thermal bath states.

The spectral-density family is

    J(w) = (2/pi) m gamma0 w (w/Lambda)^(n-1) theta(Lambda - w)

with ohmicity exponent n (ohmic n=1, sub-ohmic n=1/2, super-ohmic n=3).
The bath acts only through J(w) = sum_k c_k^2/(2 w_k) delta(w - w_k), so its
oscillators have unit mass, H_bath = sum_k (pi_k^2 + w_k^2 q_k^2)/2, and
``quantum_part`` is their one thermal rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RecurrenceWindowError
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
    """N unit-mass oscillators on a uniform frequency grid realizing a
    SpectralDensity, at one temperature.

    Uniform spacing makes the recurrence time 2 pi / dw explicit; the grid
    w_k = k dw excludes w=0, so sub-ohmic c_k^2/w_k^2 sums stay finite.
    """

    frequencies: np.ndarray
    couplings: np.ndarray
    temperature: float

    def __post_init__(self) -> None:
        for name in ("frequencies", "couplings"):
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
        """Discrete-sum counterterm -(4/m) sum_k c_k^2/(2 w_k^2)."""
        c, w = self.couplings, self.frequencies
        return -(4.0 / system_mass) * float(np.sum(c**2 / (2.0 * w**2)))


def discretize(sd: SpectralDensity, n_modes: int, temperature: float = 0.0) -> DiscreteBath:
    """Uniform-grid bath: w_k = k dw, dw = Lambda/N, c_k^2 = 2 w_k J(w_k) dw.

    The top mode is the cutoff itself: where N dw rounds just above Lambda,
    J is read at Lambda, so the hard cutoff never decouples that mode.
    """
    if n_modes < 1:
        raise ValueError("need at least one bath mode")
    dw = sd.cutoff / n_modes
    w = dw * np.arange(1, n_modes + 1)
    couplings = np.sqrt(2.0 * w * j_omega(sd, np.minimum(w, sd.cutoff)) * dw)
    return DiscreteBath(w, couplings, temperature)


# levels of the continued fraction in quantum_part: at x = 1 the cut-off
# tail changes the value by far less than a rounding
_LAMBERT_DEPTH = 12


def quantum_part(omega: np.ndarray, temperature: float) -> np.ndarray:
    """<q^2> of unit-mass oscillators at ``temperature`` less the classical
    T / omega^2: (coth x - 1/x) / 2 omega with x = omega / 2T.  Below x = 1,
    where that difference cancels, it is Lambert's continued fraction
    x / (3 + x^2 / (5 + x^2 / (7 + ...))), cut after _LAMBERT_DEPTH levels."""
    if temperature == 0.0:
        return 0.5 / omega
    x = omega / (2.0 * temperature)
    sq = np.minimum(x, 1.0) ** 2
    tail = np.full_like(x, 2.0 * _LAMBERT_DEPTH + 1.0)
    for odd in range(2 * _LAMBERT_DEPTH - 1, 1, -2):
        tail = odd + sq / tail
    return np.where(x < 1.0, x / tail, 1.0 / np.tanh(x) - 1.0 / x) / (2.0 * omega)


def thermal_bath_variances(bath: DiscreteBath) -> np.ndarray:
    """Diagonal of the thermal bath covariance, interleaved (q, pi):
    <q_k^2> = T / w_k^2 + ``quantum_part`` and <pi_k^2> = w_k^2 <q_k^2>."""
    w, t = bath.frequencies, bath.temperature
    var_q = t / w**2 + quantum_part(w, t)
    return np.ravel([var_q, w**2 * var_q], "F")


def thermal_bath_covariance(bath: DiscreteBath) -> CovarianceMatrix:
    """Block-diagonal thermal covariance of the bath modes (interleaved q, pi)."""
    return CovarianceMatrix(np.diag(thermal_bath_variances(bath)), Ordering.FULL)


def grid_recurrence_time(cutoff: float, n_modes: int) -> float:
    """Recurrence time 2 pi / spacing of ``discretize``'s N-mode bath, whose
    spacing is cutoff / N exactly, without building the bath."""
    return 2.0 * math.pi / (cutoff / n_modes)


def check_recurrence(t_max: float, recurrence_time: float, *, label: str = "t_max",
                     note: str = "; increase the bath mode count") -> None:
    """Refuse ``t_max`` beyond RECURRENCE_MARGIN of the recurrence time;
    ``label`` names the checked quantity and ``note`` ends the message."""
    if t_max > RECURRENCE_MARGIN * recurrence_time:
        raise RecurrenceWindowError(
            f"{label}={t_max:g} exceeds {RECURRENCE_MARGIN} * recurrence time "
            f"= {RECURRENCE_MARGIN * recurrence_time:g}{note}"
        )


def modes_for_window(cutoff: float, t_max: float) -> int:
    """Smallest N whose bath ``check_recurrence`` accepts for t_max, by the
    guard's own comparison on ``grid_recurrence_time``."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    fits = lambda n: t_max <= RECURRENCE_MARGIN * grid_recurrence_time(cutoff, n)
    n = max(1, math.ceil(cutoff * t_max / (2.0 * math.pi * RECURRENCE_MARGIN)))
    if n > 2**52:  # floats no longer tell n from n - 1: no rounding to mend
        return n
    while n > 1 and fits(n - 1):
        n -= 1
    while not fits(n):
        n += 1
    return n
