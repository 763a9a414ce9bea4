"""Closed-form long-time results: equilibrium dispersions, critical
parameters, the entanglement oscillation law and phase classification.

Signed squeezing conventions: ``r`` is the minus-mode squeezing of the
initial state, ``r_crit`` the equilibrium squeezing of the plus mode
measured against the minus-mode scale.  Both are signed; only absolute
values enter the oscillation mean/amplitude and the phase labels.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bath import SpectralDensity, asymptotic_gamma, counterterm, j_omega
from .errors import NumericalError
from .gaussian import squeezing_of

_TINY = 1e-14


# ---------------------------------------------------------------------------
# Master-equation coefficients and equilibrium dispersions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PositionCoefficients:
    """(gamma, D, f) of the position-coupling master equation."""

    gamma: float
    diffusion: float
    anomalous: float


@dataclass(frozen=True)
class SymmetricCoefficients:
    """(gamma~, D~) of the position/momentum-symmetric master equation."""

    gamma: float
    diffusion: float


def equilibrium_dispersions_position(
    coeffs: PositionCoefficients, m: float, omega: float
) -> tuple[float, float]:
    """Asymptotic (dx+, dp+) for position coupling.

    dp+ = sqrt(D/2 gamma), omega dx+ = sqrt(D/(2 m^2 gamma) - f/m);
    a positive anomalous coefficient localizes the state in position.
    """
    g, d, f = coeffs.gamma, coeffs.diffusion, coeffs.anomalous
    if g <= 0 or d <= 0:
        raise ValueError("equilibrium requires positive gamma and D")
    dp2 = d / (2.0 * g)
    dx2 = (d / (2.0 * m * m * g) - f / m) / omega**2
    if dx2 <= 0:
        raise NumericalError(
            "no real equilibrium position dispersion (D/2gamma - m f <= 0); "
            "coefficients outside the validity of the perturbative forms"
        )
    return math.sqrt(dx2), math.sqrt(dp2)


def coefficient_limits(
    sd: SpectralDensity,
    omega: float,
    temperature: float,
    model: str = "position",
):
    """Perturbative asymptotic coefficients in the two tabulated regimes:
    T = 0 takes the zero-temperature forms and T > 0 the high-temperature ones.

    Only the named exponents (1, 1/2, 3) have tabulated position-coupling
    forms; anything else is refused rather than interpolated.  The
    symmetric-model forms hold at any temperature.
    """
    m = sd.mass
    lam = sd.cutoff
    if not 0 < omega < lam:
        raise ValueError("omega must lie below the cutoff")
    if temperature < 0.0:
        raise ValueError("temperature must be nonnegative")
    if model == "symmetric":
        gam = 2.0 * math.pi * j_omega(sd, omega) / (omega * m)
        coth = 1.0 if temperature == 0 else 1.0 / math.tanh(omega / (2.0 * temperature))
        diff = 2.0 * math.pi * j_omega(sd, omega) * coth
        return SymmetricCoefficients(gam, diff)
    if model != "position":
        raise ValueError(f"unknown coupling model {model!r}")

    gam = asymptotic_gamma(sd, omega)
    t = temperature
    log_ratio = math.log((lam + omega) / (lam - omega))
    if sd.exponent == 1.0:
        if t == 0.0:
            d = m * gam * omega + (2.0 * m * gam**2 / math.pi) * (
                2.0 * math.log(lam / omega) - 1.0
            )
            f = (2.0 * gam / math.pi) * math.log(lam / omega)
        else:
            d = 2.0 * m * gam * t
            f = -(2.0 * gam / (math.pi * omega)) * log_ratio * t
    elif sd.exponent == 0.5:
        if t == 0.0:
            d = m * gam * omega
            f = gam * (1.0 - (2.0 / math.pi) * math.sqrt(lam / omega) * log_ratio)
        else:
            d = 2.0 * m * gam * t
            f = -2.0 * gam * t / omega
    elif sd.exponent == 3.0:
        if t == 0.0:
            d = m * omega * gam
            f = 2.0 * sd.gamma0 / math.pi + gam * math.log(
                (lam**2 - omega**2) / omega**2
            ) / math.pi
        else:
            d = 2.0 * m * t * gam
            f = 2.0 * sd.gamma0 * t / (math.pi * lam)
    else:
        raise ValueError(
            f"no tabulated coefficients for exponent {sd.exponent}; "
            "only ohmic (1), sub-ohmic (1/2) and super-ohmic (3) are known"
        )
    return PositionCoefficients(gam, d, f)


# ---------------------------------------------------------------------------
# Critical parameters and the oscillation law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalParams:
    r_crit: float
    s_crit: float

    @property
    def e_c(self) -> float:
        return abs(self.r_crit) - self.s_crit


class Phase(enum.Enum):
    SD = "SD"
    SDR = "SDR"
    NSD = "NSD"


def critical_params(
    dx_plus: float,
    dp_plus: float,
    dx_minus: float,
    dp_minus: float,
    m_minus: float,
    omega_minus: float,
) -> CriticalParams:
    """r_crit and S_crit from equilibrium and initial dispersions."""
    if min(dx_plus, dp_plus, dx_minus, dp_minus) <= 0:
        raise ValueError("all dispersions must be positive")
    r_crit = squeezing_of(dx_plus, dp_plus, m_minus, omega_minus)
    s_crit = 0.5 * math.log(4.0 * dx_plus * dp_plus * dx_minus * dp_minus)
    return CriticalParams(r_crit, s_crit)


def mean_and_amplitude(r: float, r_crit: float, s_crit: float) -> tuple[float, float]:
    """Mean E~ and amplitude dE of the asymptotic oscillation of E(t)."""
    mean = max(abs(r), abs(r_crit)) - s_crit
    amp = min(abs(r), abs(r_crit))
    return mean, amp


def _amplitude_times_g(r: float, r_crit: float, phase: np.ndarray) -> np.ndarray:
    # dE*G(t) = arccosh(B)/2 - max{|r|, |r_crit|} with
    # B = cosh[2(r - r_crit)] cos^2 + cosh[2(r + r_crit)] sin^2; equal to
    # the log-negativity of the rotating block-diagonal state minus its mean.
    c2 = np.cos(phase) ** 2
    s2 = np.sin(phase) ** 2
    b = math.cosh(2.0 * (r - r_crit)) * c2 + math.cosh(2.0 * (r + r_crit)) * s2
    b = np.maximum(b, 1.0)
    return 0.5 * np.arccosh(b) - max(abs(r), abs(r_crit))


def entanglement_oscillation(
    r: float, r_crit: float, s_crit: float, omega_minus: float, t
):
    """E(t) = E~ + dE G(t); the logarithmic negativity is max{0, E(t)}."""
    mean, amp = mean_and_amplitude(r, r_crit, s_crit)
    if amp < _TINY:
        val = mean + 0.0 * np.asarray(t, dtype=float)
        return float(val) if np.isscalar(t) else val
    phase = omega_minus * np.asarray(t, dtype=float)
    # _amplitude_times_g evaluates dE*G(t) directly, no division by dE
    val = mean + _amplitude_times_g(r, r_crit, phase)
    return float(val) if np.isscalar(t) else val


def classify(r: float, r_crit: float, s_crit: float) -> Phase:
    """Phase label from the signs of E~ +- dE; boundary ties resolve to SDR."""
    mean, amp = mean_and_amplitude(r, r_crit, s_crit)
    if mean - amp > 0.0:
        return Phase.NSD
    if mean + amp < 0.0:
        return Phase.SD
    return Phase.SDR


# ---------------------------------------------------------------------------
# Ohmic closed forms (exact and weak-coupling, position coupling, T = 0)
# ---------------------------------------------------------------------------

def ohmic_exact_zero_t_dispersions(
    gamma: float, omega: float, cutoff: float, m: float = 1.0
) -> tuple[float, float]:
    """Exact T=0 equilibrium (dx+, dp+) for an ohmic bath, gamma < omega."""
    g = gamma / omega
    if not 0 < g < 1:
        raise ValueError("requires 0 < gamma < omega")
    arc = math.acos(g)
    root = math.sqrt(1.0 - g * g)
    dx2 = arc / (math.pi * m * omega * root)
    dp2 = m * omega * (
        (1.0 - 2.0 * g * g) * arc / (math.pi * root)
        + (2.0 / math.pi) * g * math.log(cutoff / omega)
    )
    return math.sqrt(dx2), math.sqrt(dp2)


def ohmic_weak_zero_t(gamma: float, omega: float, cutoff: float) -> dict[str, float]:
    """Weak-coupling T=0 criticals for an ohmic bath (r_crit signed).

    Each is a multiple of log(1 + (a multiple of gamma / omega)); the forms
    hold where every log argument is > 0, which r2 and s_crit leave once
    ln(cutoff / omega) < 1 and gamma is large.
    """
    g = gamma / omega
    log_lam = math.log(cutoff / omega)
    forms = {
        "r1": (0.5, 1.0 + 2.0 * g / math.pi),
        "r2": (0.5, 1.0 + (log_lam - 0.5) * 4.0 * g / math.pi),
        "r_crit": (-0.25, 1.0 + (4.0 / math.pi) * log_lam * g),
        "s_crit": (0.25, 1.0 + (log_lam - 1.0) * 4.0 * g / math.pi),
    }
    if min(arg for _, arg in forms.values()) <= 0.0:
        raise ValueError("requires every log argument > 0")
    return {name: scale * math.log(arg) for name, (scale, arg) in forms.items()}


# ---------------------------------------------------------------------------
# r1, r2 and the critical temperature T0
# ---------------------------------------------------------------------------

def r1_r2(dx_plus0: float, dp_plus0: float, m: float, omega: float) -> tuple[float, float]:
    """NSD-island boundaries on the T=0 axis from the T=0 dispersions."""
    r1 = 0.5 * math.log(1.0 / (2.0 * m * omega * dx_plus0**2))
    r2 = 0.5 * math.log(2.0 * dp_plus0**2 / (m * omega))
    return r1, r2


# T0 is bisected on (0, T0_BRACKET omega) down to a width T0_TOL omega
T0_BRACKET = 10.0
T0_TOL = 1e-8


def critical_temperature(position_variance, m: float, omega: float) -> float | None:
    """Bisect m omega <x+^2>(T) = 1/2 for T0; None when there is no crossing.

    ``position_variance`` maps a temperature to the equilibrium <x+^2>.
    """
    lo, hi = 0.0, T0_BRACKET * omega
    f = lambda t: m * omega * position_variance(t) - 0.5
    flo, fhi = f(lo), f(hi)
    if flo > 0.0 or fhi < 0.0:
        return None
    while hi - lo > T0_TOL * omega:
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Exact dispersions from the fluctuation-dissipation integral
# ---------------------------------------------------------------------------

# Nested tanh-sinh rule: abscissae t = k h with |t| <= _DE_T_MAX, h = 2^-level
_DE_T_MAX = 4
_DE_MAX_LEVEL = 9
_DE_RTOL = 1e-11
_PEAK_NEWTON_STEPS = 8


def _principal_value_shift(exponent: float, omega, cutoff: float, gap=None):
    """PV integral of nu^(n+1)/(nu^2 - omega^2) over (0, cutoff), less its
    value cutoff^n / n at omega = 0.

    Accepts a scalar or an array ``omega`` in (0, cutoff).  ``gap`` is
    cutoff - omega, for callers that know it more precisely than the
    subtraction gives it near the cutoff.
    """
    lam = cutoff
    w = np.asarray(omega, dtype=float)
    gap = lam - w if gap is None else np.asarray(gap, dtype=float)
    if exponent == 1.0:
        val = 0.5 * w * np.log(gap / (lam + w))
    elif exponent == 3.0:
        val = w * w * lam + 0.5 * w**3 * np.log(gap / (lam + w))
    elif exponent == 0.5:
        su, sl = np.sqrt(w), math.sqrt(lam)
        # (sl - su)/(sl + su) = gap/(sl + su)^2, free of cancellation
        val = su * (0.5 * np.log(gap / (sl + su) ** 2) - np.arctan(sl / su))
    else:
        raise ValueError(f"no closed-form self-energy for exponent {exponent}")
    return float(val) if val.ndim == 0 else val


def _self_energy_shift(sd: SpectralDensity, omega, gap=None):
    """Re Sigma(omega) - Re Sigma(0); Re Sigma(0) = -m counterterm."""
    return (8.0 * sd.mass * sd.gamma0 / math.pi) * sd.cutoff ** (
        1.0 - sd.exponent
    ) * _principal_value_shift(sd.exponent, omega, sd.cutoff, gap)


def _resonance(sd: SpectralDensity, m: float, omega: float, static: float):
    """(w_p, Gamma): the peak of chi'' and its half width.

    w_p is the root of the real part of the denominator (see
    ``FdtRule``), found by Newton steps from ``omega`` with a
    central-difference slope; Gamma = Im Sigma(w_p) / (2 m w_p).  Without a
    root nearby the last point inside (0, cutoff) is kept: the peak only
    places the nodes, it does not enter the integral.
    """
    lam = sd.cutoff
    wp = omega
    for _ in range(_PEAK_NEWTON_STEPS):
        h = 1e-6 * min(wp, lam - wp)
        dw = np.array([-h, 0.0, h])
        w = wp + dw
        re = m * ((omega - wp) - dw) * (omega + w) + static - _self_energy_shift(sd, w)
        lo, mid, hi = re
        step = 2.0 * h * mid / (hi - lo)
        if not 0.0 < wp - step < lam:
            break
        wp -= step
        if abs(step) <= 1e-15 * wp:
            break
    return wp, math.pi * j_omega(sd, wp) / (m * wp)


def _peak_side_nodes(t: np.ndarray, width: float, length: float):
    """Tanh-sinh nodes on an interval of ``length`` that starts at a peak.

    The offset from the peak is width * tan(theta), which flattens a
    Lorentzian of half width ``width``; theta runs over (0, theta_end) by the
    tanh-sinh map of ``t``.  Returns each node's offset from the peak, its
    distance from the far end (computed directly, not as length - offset)
    and d(offset)/dt.
    """
    hyp = math.hypot(width, length)
    c_end, s_end = width / hyp, length / hyp
    theta_end = math.atan2(length, width)
    u = 0.5 * math.pi * np.sinh(t)
    theta = theta_end / (1.0 + np.exp(-2.0 * u))
    delta = theta_end / (1.0 + np.exp(2.0 * u))  # theta_end - theta
    cos_t = c_end * np.cos(delta) + s_end * np.sin(delta)
    offset = width * np.sin(theta) / cos_t
    far = width * np.sin(delta) / (c_end * cos_t)
    dtheta = 0.25 * math.pi * theta_end * np.cosh(t) / np.cosh(u) ** 2
    return offset, far, width * dtheta / cos_t**2


class FdtRule:
    """Exact equilibrium (dx+, dp+) of one plus oscillator, of any named
    spectral exponent at any temperature, from the fluctuation-dissipation
    theorem: the continuum limit of the discrete-bath equilibrium and the
    non-perturbative route for phase diagrams and T0.  ``omega`` is the
    renormalized frequency of the x+ oscillator.

    <x^2> and <p^2> are integrals of coth(w/2T) chi''(w)/pi (times m^2 w^2)
    over (0, cutoff).  Both come from one nested tanh-sinh rule on
    [0, w_p] and [w_p, cutoff], split and tan-mapped at the resonance
    w_p; h halves until two levels agree, and their difference is the
    error estimate.  T enters only through coth: the resonance, the nodes
    and chi'' at the nodes are built once, each level on first use.
    """

    def __init__(self, sd: SpectralDensity, omega: float, m: float | None = None) -> None:
        if not 0 < omega < sd.cutoff:
            raise ValueError("omega must lie below the cutoff")
        self.sd, self.omega, self.m = sd, omega, sd.mass if m is None else m
        # Re D(w) = m (omega^2 - counterterm - w^2) - Re Sigma(w).  The static
        # parts cancel analytically (exactly when m == sd.mass), and omega - w
        # is formed from the offsets from the peak: at a narrow peak Re D is a
        # small difference that rounding of the O(cutoff) terms would swamp.
        self.static = (sd.mass - self.m) * counterterm(sd)
        self.peak, self.width = _resonance(sd, self.m, omega, self.static)
        self._levels: list[tuple] = []  # (w, chi'' weight without coth, w^2)

    def _build_level(self, level: int) -> tuple:
        if level == 0:
            t = np.arange(-_DE_T_MAX, _DE_T_MAX + 1, dtype=float)
        else:
            odd = 2.0**-level * np.arange(1, _DE_T_MAX * 2**level, 2)
            t = np.concatenate([-odd, odd])
        sd, m, omega, wp = self.sd, self.m, self.omega, self.peak
        left, to_zero, wt_left = _peak_side_nodes(t, self.width, wp)
        right, to_cutoff, wt_right = _peak_side_nodes(t, self.width, sd.cutoff - wp)
        w = np.concatenate([to_zero, wp + right])
        gap = np.concatenate([sd.cutoff - to_zero, to_cutoff])
        below = np.concatenate([(omega - wp) + left, (omega - wp) - right])  # omega - w
        re = m * below * (omega + w) + self.static - _self_energy_shift(sd, w, gap)
        im = 2.0 * math.pi * j_omega(sd, w)
        f = np.concatenate([wt_left, wt_right]) * im / (math.pi * (re * re + im * im))
        return w, f, w * w

    def dispersions(self, temperature: float) -> tuple[float, float]:
        """(dx+, dp+) at ``temperature``; refuses an unconverged rule."""
        m = self.m
        x2 = p2 = 0.0
        for level in range(_DE_MAX_LEVEL + 1):
            if level == len(self._levels):  # levels are visited in order
                self._levels.append(self._build_level(level))
            w, f, w2 = self._levels[level]
            if temperature != 0.0:
                f = f / np.tanh(w / (2.0 * temperature))
            h = 2.0**-level
            x_new, p_new = 0.5 * x2 + h * float(f.sum()), 0.5 * p2 + h * (m * m * float(f @ w2))
            x_err, p_err = abs(x_new - x2), abs(p_new - p2)
            x2, p2 = x_new, p_new
            if level > 0 and x_err <= _DE_RTOL * abs(x2) and p_err <= _DE_RTOL * abs(p2):
                break
        if x2 <= 0 or p2 <= 0 or x_err > 1e-6 * abs(x2) + 1e-12 or p_err > 1e-6 * abs(p2) + 1e-12:
            raise NumericalError("fluctuation-dissipation quadrature failed")
        return math.sqrt(x2), math.sqrt(p2)
