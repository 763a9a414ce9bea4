"""Closed-form oracles and reference builds that more than one test
compares the library against.

Each restates a printed formula independently of the route it checks; the
library does not call them.
"""

import math

import numpy as np

from entbath import exact as ex
from entbath.asymptotics import PositionCoefficients, _self_energy_shift
from entbath.bath import DiscreteBath, SpectralDensity, counterterm, j_omega
from entbath.gaussian import (
    CovarianceMatrix,
    Ordering,
    OscillatorParams,
    basis_change,
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
    (c_k / m_k w_k) / (m w_b) at w_b = omega1."""
    h_sys, w_bare_sq = ex.system_hamiltonian(osc, model)
    c = bath.couplings
    cp = (c / (osc.m * math.sqrt(w_bare_sq) * bath.masses * bath.frequencies)
          if model == "symmetric" else np.zeros_like(c))
    return ex.DriftMatrix(h_sys, np.array([c, cp, c, cp]), bath)
