"""Closed-form oracles and reference builds that more than one test
compares the library against.

Each restates a printed formula independently of the route it checks; the
library does not call them.
"""

import math

import numpy as np

from entbath import exact as ex
from entbath.asymptotics import PositionCoefficients, _self_energy_shift
from entbath.bath import (
    DiscreteBath,
    SpectralDensity,
    counterterm,
    j_omega,
)
from entbath.gaussian import (
    MIX,
    CovarianceMatrix,
    Ordering,
    OscillatorParams,
    basis_change,
    free_propagator,
    free_rotation,
    symplectic_form,
)


def symplectic_eigensolver(m: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a matrix or a (k, d, d) stack, ascending, as
    the moduli of the eigenvalues of i J V; they come in equal pairs, so one
    of each pair is kept."""
    eig = np.linalg.eigvals(1j * symplectic_form(m.shape[-1]) @ m)
    return np.sort(np.abs(eig), axis=-1)[..., ::2]


def asymptotic_covariance(
    t: float,
    dx_plus: float,
    dp_plus: float,
    minus_block: np.ndarray,
    m_minus: float,
    omega_minus: float,
) -> CovarianceMatrix:
    """Beam-splitter construction of the asymptotic two-mode state.

    The plus mode sits at its equilibrium dispersions while the initial
    minus block rotates freely; the off-diagonal (+,-) block vanishes.
    """
    v = np.zeros((4, 4))
    v[0, 0] = dx_plus**2
    v[1, 1] = dp_plus**2
    v[2:, 2:] = free_rotation(np.asarray(minus_block, dtype=float), m_minus, omega_minus, t)
    return basis_change(CovarianceMatrix(v, Ordering.NORMAL), Ordering.PHYSICAL)


def r_crit_from_coefficients(coeffs: PositionCoefficients, m: float) -> float:
    """Signed r_crit = (1/4) ln[1 - 2 m gamma f / D] (resonant, C12 = 0)."""
    arg = 1.0 - 2.0 * m * coeffs.gamma * coeffs.anomalous / coeffs.diffusion
    assert arg > 0, "coefficients give no real equilibrium squeezing"
    return 0.25 * math.log(arg)


def bath_self_energy(sd: SpectralDensity, omega: float) -> complex:
    """Retarded self-energy of the x+ oscillator (sqrt(2)-enhanced coupling)."""
    assert 0 < omega < sd.cutoff, "omega must lie below the cutoff"
    re = _self_energy_shift(sd, omega) - sd.mass * counterterm(sd)
    return complex(re, math.pi * 2.0 * j_omega(sd, omega))


def bare_drift(osc: OscillatorParams, bath: DiscreteBath, model: str) -> ex.DriftMatrix:
    """A builder's drift with the configured system block taken as bare: no
    counterterm shift, and the symmetric model's momentum couplings
    (c_k / w_k) / (m w_b) at w_b = omega1."""
    h_sys, w_bare_sq = ex.system_hamiltonian(osc, model)
    c = bath.couplings
    cp = (c / (osc.m * math.sqrt(w_bare_sq) * bath.frequencies)
          if model == "symmetric" else np.zeros_like(c))
    return ex.DriftMatrix(h_sys, np.array([c, cp, c, cp]), bath)


def coth_bath_variances(bath: DiscreteBath) -> tuple[np.ndarray, np.ndarray]:
    """<q_k^2> = coth(w_k/2T) / 2 w_k and <pi_k^2> = w_k coth(w_k/2T) / 2 of
    the unit-mass thermal bath, in the textbook coth form (coth = 1 at T = 0)."""
    w, t = bath.frequencies, bath.temperature
    coth = np.ones_like(w) if t == 0.0 else 1.0 / np.tanh(w / (2.0 * t))
    return coth / (2.0 * w), w * coth / 2.0


def reference_channel(modes: ex.NormalModes, bath: DiscreteBath, times) -> ex.ReducedChannel:
    """``NormalModes.reduced_channel`` through the full W and A^T: each
    sample's system rows, as weights on Q and P, are mapped to coefficients
    on every initial coordinate, and the noise is the bath coefficients
    weighted by the thermal bath variances, O(S k n^2).  Each phase t omega
    and its cos and sin are taken in ``np.longdouble`` and rounded once, so
    the reference does not share the library's rounding of t omega (where
    long double is no wider than double, it does)."""
    om = modes.omega
    n = len(om)
    frame = MIX if modes.minus is None else MIX[:2]
    g = frame[:, 0::2] @ modes.a[:2]        # x rows: g . (cos Q + sin P / omega)
    hs = frame[:, 1::2] @ modes.w[:, :2].T  # p rows: h . (-omega sin Q + cos P)
    k = len(frame)
    times = np.array(times, dtype=float)
    var_q, var_pi = coth_bath_variances(bath)
    z = np.empty((len(times), k, 4))
    noise = np.empty((len(times), k, k))
    for lo in range(0, len(times), ex.SAMPLE_CHUNK):
        part = slice(lo, lo + ex.SAMPLE_CHUNK)
        phase = np.multiply.outer(times[part].astype(np.longdouble), om.astype(np.longdouble))
        cos, sin = (f(phase)[:, None, :].astype(float) for f in (np.cos, np.sin))
        on_q = (cos * g - sin * (om * hs)).reshape(-1, n)
        on_p = (sin * (g / om) + cos * hs).reshape(-1, n)
        sx, sp = (on_q @ modes.w).reshape(-1, k, n), (on_p @ modes.a.T).reshape(-1, k, n)
        z[part] = np.stack([sx[..., 0], sp[..., 0], sx[..., 1], sp[..., 1]], axis=-1)
        bx, bp = sx[..., 2:], sp[..., 2:]
        noise[part] = (bx * var_q) @ bx.transpose(0, 2, 1)
        noise[part] += (bp * var_pi) @ bp.transpose(0, 2, 1)
    z, noise = frame.T @ z, frame.T @ noise @ frame
    if modes.minus is not None:
        free = MIX[2:]
        z += free.T @ free_propagator(*modes.minus, times) @ free
    return ex.ReducedChannel(times, z, noise)
