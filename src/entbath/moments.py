"""Master-equation second-moment dynamics for the plus mode, free rotation
for the minus mode, read and returned as 2x2 covariance blocks.

Inside ``integrate`` the plus-mode moments y = (<x^2>, <p^2>, <{x,p}>) obey
y' = M y + b, with constant coefficients (damping, diffusion, anomalous
diffusion); the minus mode never sees the bath and simply rotates.  With a
constant 1 appended, one RK4 step is one 4x4 matrix, built once: each
sample spacing is a whole number of equal steps, and the samples are rows
of that matrix's orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalStateError
from .gaussian import free_rotation, log_negativities, mix_modes

UNCERTAINTY_ATOL = 1e-9

# dt ceiling relative to the fastest rate present (spec: dt <= 0.01/max(omega, gamma))
STEP_FACTOR = 0.01
# relative rounding by which a step may exceed its ceiling, in every RK4 route
STEP_SLACK = 1e-12


@dataclass(frozen=True)
class Trajectory:
    """The samples of ``integrate``: ``times`` (k,), the (k, 2, 2) plus
    blocks, and the smallest plus-block determinant over every step."""

    times: np.ndarray
    plus: np.ndarray
    min_plus_det: float


def _require_positive(tag: str, blocks: np.ndarray, times) -> np.ndarray:
    """Determinants of (k, 2, 2) blocks at ``times``; refuses the first
    block whose dispersions or determinant are not positive (NaN included).

    Not the uncertainty bound: the perturbative master equation is not of
    Lindblad form, and its anomalous diffusion, first order in the damping
    rate, dips the plus block a few percent below that bound (measured down
    to det ~ 0.20 at gamma = 0.2 from a vacuum start)."""
    x2, p2, c = blocks[:, 0, 0], blocks[:, 1, 1], blocks[:, 0, 1]
    det = x2 * p2 - c**2
    bad = np.flatnonzero(~((x2 > 0.0) & (p2 > 0.0) & (det > 0.0)))
    if bad.size:
        raise UnphysicalStateError(
            f"{tag} block has nonpositive dispersions or determinant "
            f"({det[bad[0]]:.6e}) at t={times[bad[0]]}"
        )
    return det


def minus_blocks(block: np.ndarray, m: float, omega: float, times: np.ndarray) -> np.ndarray:
    """(k, 2, 2) minus blocks: ``block`` at t = 0 rotated exactly to each of
    ``times``, since the minus mode never sees the bath; each must stay
    positive."""
    rot = free_rotation(block, m, omega, times)
    rot[:, 1, 0] = rot[:, 0, 1]
    _require_positive("minus", rot, times)
    return rot


# ---------------------------------------------------------------------------
# RK4 stepping
# ---------------------------------------------------------------------------

def whole_steps(span: float, rate: float, factor: float = STEP_FACTOR) -> int:
    """Fewest equal steps of ``span``, none above factor / rate by more than
    STEP_SLACK: ceil(span rate / (factor (1 + STEP_SLACK))), moved where
    rounding puts that count one off."""
    fits = lambda n: span / n * rate / factor - 1.0 <= STEP_SLACK
    n = max(1, math.ceil(span / (factor / rate * (1.0 + STEP_SLACK))))
    while n > 1 and fits(n - 1):
        n -= 1
    while not fits(n):
        n += 1
    return n


def _generator(model: str, m: float, w: float, c) -> np.ndarray:
    """The generator A = [[M, b], [0, 0]] of y = (<x^2>, <p^2>, <{x,p}>, 1),
    with O = w and the model's damping, diffusion and anomalous diffusion:

    position    d<x^2>/dt   = <{x,p}>/m
                d<p^2>/dt   = -m O^2 <{x,p}> - 4 gamma <p^2> + 2 D
                d<{x,p}>/dt = 2<p^2>/m - 2 m O^2 <x^2> - 2 gamma <{x,p}> - 2 f
    symmetric   d<x^2>/dt   = <{x,p}>/M - 4 g~ <x^2> + 2 D~/(M^2 O^2)
                d<p^2>/dt   = -M O^2 <{x,p}> - 4 g~ <p^2> + 2 D~
                d<{x,p}>/dt = 2<p^2>/M - 2 M O^2 <x^2> - 4 g~ <{x,p}>
    """
    w2 = w * w
    if model == "position":
        return np.array([[0.0, 0.0, 1.0 / m, 0.0],
                         [0.0, -4.0 * c.gamma, -m * w2, 2.0 * c.diffusion],
                         [-2.0 * m * w2, 2.0 / m, -2.0 * c.gamma, -2.0 * c.anomalous],
                         [0.0, 0.0, 0.0, 0.0]])
    if model == "symmetric":
        return np.array([[-4.0 * c.gamma, 0.0, 1.0 / m, 2.0 * c.diffusion / (m * m * w2)],
                         [0.0, -4.0 * c.gamma, -m * w2, 2.0 * c.diffusion],
                         [-2.0 * m * w2, 2.0 / m, -4.0 * c.gamma, 0.0],
                         [0.0, 0.0, 0.0, 0.0]])
    raise ValueError(f"unknown coupling model {model!r}")


def step_matrix(a: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of y' = A y as a matrix: k1 = A y,
    k2 = A (y + h k1/2), k3 = A (y + h k2/2) and k4 = A (y + h k3), so the
    Taylor polynomial I + hA (I + hA/2 (I + hA/3 (I + hA/4)))."""
    eye = np.eye(len(a))
    k2 = a @ (eye + h / 2.0 * a)
    k3 = a @ (eye + h / 2.0 * k2)
    k4 = a @ (eye + h * k3)
    return eye + h / 6.0 * (a + 2.0 * k2 + 2.0 * k3 + k4)


def _orbit(step: np.ndarray, y0: np.ndarray, n: int) -> np.ndarray:
    """(step^1 y0, ..., step^n y0) as (n, 4): the powers step^1..step^b, with
    b = ceil(sqrt(n)), applied in one batched product to y0 and to the
    orbit of y0 under step^b."""
    b = math.isqrt(n - 1) + 1
    powers = [step]
    for _ in range(b - 1):
        powers.append(step @ powers[-1])
    bases = [y0[None]] + ([_orbit(powers[-1], y0, (n - 1) // b)] if n > b else [])
    return np.einsum("pij,kj->kpi", np.array(powers), np.concatenate(bases)).reshape(-1, 4)[:n]


def integrate(
    block: np.ndarray,
    coeffs,
    m: float,
    omega: float,
    spacing: float,
    samples: int,
    model: str = "position",
) -> Trajectory:
    """The plus-mode ODEs under constant ``coeffs`` from the 2x2 plus
    ``block`` at t = 0, sampled at the ``samples`` times j spacing
    (j = 0, 1, ...).

    Each spacing is ``whole_steps`` equal RK4 steps of one step matrix, none
    above STEP_FACTOR / max(|omega|, |gamma|).  Only the plus block is
    marched: the minus block never sees the bath, and ``minus_blocks``
    rotates it exactly to any times.  The plus block must stay positive at
    every step, not only at the samples.
    """
    a = _generator(model, m, omega, coeffs)
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples={samples!r} must be an integer >= 1")
    if samples > 1 and not (math.isfinite(spacing) and spacing > 0.0):
        raise ValueError(f"spacing={spacing!r} must be finite and positive")
    b = np.asarray(block, dtype=float)
    y0 = np.array([b[0, 0], b[1, 1], 2.0 * b[0, 1], 1.0])
    if samples == 1:
        y, every, spacing = y0[None], 1, 0.0
    else:
        every = whole_steps(spacing, max(abs(omega), abs(coeffs.gamma)))
        step = step_matrix(a, spacing / every)
        y = np.concatenate([y0[None], _orbit(step, y0, every * (samples - 1))])
    plus = np.empty((len(y), 2, 2))
    plus[:, 0, 0], plus[:, 1, 1] = y[:, 0], y[:, 1]
    plus[:, 0, 1] = plus[:, 1, 0] = y[:, 2] / 2.0
    det = _require_positive("plus", plus, np.arange(len(y)) * (spacing / every))
    return Trajectory(np.arange(samples) * spacing, plus[::every], float(det.min()))


# ---------------------------------------------------------------------------
# Entanglement readout
# ---------------------------------------------------------------------------

def negativities(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """E_N of the states assembled from (k, 2, 2) plus and minus blocks
    (``Trajectory.plus``, ``minus_blocks``); valid where the (+,-) cross
    block vanishes."""
    v = np.zeros((len(plus), 4, 4))  # NORMAL ordering, no (+,-) cross block
    v[:, :2, :2], v[:, 2:, 2:] = plus, minus
    return log_negativities(mix_modes(v))
