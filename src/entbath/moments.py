"""Master-equation second-moment dynamics for the plus mode, free rotation
for the minus mode.

The plus-mode moments obey three coupled linear ODEs whose coefficients
(damping, diffusion, anomalous diffusion) are supplied as schedules; the
minus mode never sees the bath and simply rotates.  RK4 with a fixed step
keeps runs bit-for-bit reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .asymptotics import PositionCoefficients, SymmetricCoefficients
from .errors import StepSizeError, UnphysicalStateError
from .gaussian import free_rotation, log_negativities, mix_modes

UNCERTAINTY_ATOL = 1e-9

# dt ceiling relative to the fastest rate present (spec: dt <= 0.01/max(omega, gamma))
_STEP_FACTOR = 0.01


@dataclass(frozen=True)
class MomentState:
    """Second moments of the plus and minus modes at a given time.

    ``xp`` denotes the symmetrized cross moment <{x, p}> of a block.

    Construction only requires positive block determinants.  The perturbative
    master equation is not of Lindblad form: its anomalous-diffusion term is
    first order in the damping rate and drives transient dips of the plus
    block a few percent below the uncertainty bound (measured down to
    det ~ 0.20 at gamma = 0.2 from a vacuum start), so full physicality is an
    explicit check via ``is_physical`` rather than an invariant.
    """

    x2_plus: float
    p2_plus: float
    xp_plus: float
    x2_minus: float
    p2_minus: float
    xp_minus: float
    time: float = 0.0

    def __post_init__(self) -> None:
        _require_positive("plus", self.plus_block_moments(), self.time)
        _require_positive("minus", self.minus_block_moments(), self.time)

    def is_physical(self, atol: float = UNCERTAINTY_ATOL) -> bool:
        for x2, p2, xp in (self.plus_block_moments(), self.minus_block_moments()):
            if x2 * p2 - (xp / 2.0) ** 2 < 0.25 - atol:
                return False
        return True

    def plus_block_moments(self) -> tuple[float, float, float]:
        return self.x2_plus, self.p2_plus, self.xp_plus

    def minus_block_moments(self) -> tuple[float, float, float]:
        return self.x2_minus, self.p2_minus, self.xp_minus

    def minus_block(self) -> np.ndarray:
        xp = self.xp_minus / 2.0
        return np.array([[self.x2_minus, xp], [xp, self.p2_minus]])


def _require_positive(tag: str, block: tuple[float, float, float], time: float) -> None:
    x2, p2, xp = block
    det = x2 * p2 - (xp / 2.0) ** 2
    if min(x2, p2) <= 0.0 or det <= 0.0:
        raise UnphysicalStateError(
            f"{tag} block has nonpositive dispersions or determinant "
            f"({det:.6e}) at t={time}"
        )


def vacuum_state(m: float, omega: float) -> MomentState:
    """Ground state of both modes for mass m and frequency omega."""
    return MomentState(
        1.0 / (2.0 * m * omega), m * omega / 2.0, 0.0,
        1.0 / (2.0 * m * omega), m * omega / 2.0, 0.0,
    )


# ---------------------------------------------------------------------------
# Coefficient schedules
# ---------------------------------------------------------------------------

class ConstantSchedule:
    """Time-independent coefficients (the asymptotic-value default), mass or omega."""

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def __call__(self, t: float):
        return self.coeffs


class TabulatedSchedule:
    """Linear interpolation over a strictly increasing time grid.

    Evaluation outside the grid clamps to the endpoint values.  ``values``
    is a sequence of coefficient tuples matching ``kind`` ("position" gives
    PositionCoefficients, "symmetric" gives SymmetricCoefficients).
    """

    def __init__(self, times: Sequence[float], values, kind: str = "position"):
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1 or len(self.times) < 2:
            raise ValueError("need at least two tabulation times")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("tabulation times must be strictly increasing")
        if kind == "position":
            self._fields = ("gamma", "diffusion", "anomalous")
            self._cls = PositionCoefficients
        elif kind == "symmetric":
            self._fields = ("gamma", "diffusion")
            self._cls = SymmetricCoefficients
        else:
            raise ValueError(f"unknown schedule kind {kind!r}")
        cols = []
        for name in self._fields:
            cols.append(np.array([getattr(v, name) for v in values], dtype=float))
        if any(len(c) != len(self.times) for c in cols):
            raise ValueError("values length must match times length")
        self._cols = cols

    def __call__(self, t: float):
        vals = [float(np.interp(t, self.times, col)) for col in self._cols]
        return self._cls(*vals)


# ---------------------------------------------------------------------------
# RK4 stepping
# ---------------------------------------------------------------------------

def _check_step(dt: float, omega: float, gamma: float) -> None:
    fastest = max(abs(omega), abs(gamma))
    if fastest > 0 and dt > _STEP_FACTOR / fastest * (1.0 + 1e-12):
        raise StepSizeError(
            f"dt={dt:.3e} exceeds {_STEP_FACTOR}/max rate = "
            f"{_STEP_FACTOR / fastest:.3e}"
        )


def _position_form(m, w, c) -> tuple:
    w2 = w ** 2
    return (m, 0.0, 0.0, -m * w2, 4.0 * c.gamma, 2.0 * c.diffusion,
            2.0 * m * w2, 2.0 * c.gamma, 2.0 * c.anomalous)


def _symmetric_form(m, w, c) -> tuple:
    w2 = w * w
    return (m, 4.0 * c.gamma, 2.0 * c.diffusion / (m * m * w2), -m * w2,
            4.0 * c.gamma, 2.0 * c.diffusion, 2.0 * m * w2, 4.0 * c.gamma, 0.0)


# the ODE coefficients (m, a1, ..., a8) of each model for _rates
_FORMS = {"position": _position_form, "symmetric": _symmetric_form}


def _rates(a: tuple, x2: float, p2: float, xp: float) -> tuple:
    """Plus-block moment ODEs of both models in one linear form:

        d<x^2>/dt   = <{x,p}>/m - a1 <x^2> + a2
        d<p^2>/dt   = a3 <{x,p}> - a4 <p^2> + a5
        d<{x,p}>/dt = 2<p^2>/m - a6 <x^2> - a7 <{x,p}> - a8

    The stepper docstrings give each model's equations; every product is
    rounded in the order written there.
    """
    m, a1, a2, a3, a4, a5, a6, a7, a8 = a
    return (
        xp / m - a1 * x2 + a2,
        a3 * xp - a4 * p2 + a5,
        2.0 * p2 / m - a6 * x2 - a7 * xp - a8,
    )


def _environment(model: str, coeffs, mass, omega):
    """t -> (omega, gamma, ODE coefficients), as Python floats (faster than
    numpy scalars in the RK4 loop); constant inputs are resolved once."""
    form = _FORMS[model]
    at = lambda m, w, c: (float(w), float(c.gamma), tuple(map(float, form(m, w, c))))
    if not any(callable(v) for v in (coeffs, mass, omega)):
        fixed = at(mass, omega, coeffs)
        return lambda t: fixed
    cfn, mfn, ofn = (
        v if callable(v) else ConstantSchedule(v) for v in (coeffs, mass, omega)
    )
    return lambda t: at(mfn(t), ofn(t), cfn(t))


def _rk4(env, y: tuple, t: float, dt: float) -> tuple:
    """One checked RK4 step of the plus-block moments y = (x2, p2, xp)."""
    w, gamma, a = env(t)
    _check_step(dt, w, gamma)
    x2, p2, xp = y
    h = dt / 2.0
    mid = env(t + h)[2]
    k1 = _rates(a, x2, p2, xp)
    k2 = _rates(mid, x2 + h * k1[0], p2 + h * k1[1], xp + h * k1[2])
    k3 = _rates(mid, x2 + h * k2[0], p2 + h * k2[1], xp + h * k2[2])
    k4 = _rates(env(t + dt)[2], x2 + dt * k3[0], p2 + dt * k3[1], xp + dt * k3[2])
    h = dt / 6.0
    return (
        x2 + h * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        p2 + h * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        xp + h * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
    )


def _step(model: str, state: MomentState, coeffs, mass, omega, dt: float) -> MomentState:
    env = _environment(model, coeffs, mass, omega)
    x2, p2, xp = _rk4(env, state.plus_block_moments(), state.time, dt)
    return replace(state, x2_plus=x2, p2_plus=p2, xp_plus=xp, time=state.time + dt)


def step_position_model(
    state: MomentState, coeffs, m: float, omega, dt: float
) -> MomentState:
    """One RK4 step of the position-coupling plus-mode moment ODEs.

        d<x^2>/dt   = <{x,p}>/m
        d<{x,p}>/dt = 2<p^2>/m - 2 m O^2 <x^2> - 2 gamma <{x,p}> - 2 f
        d<p^2>/dt   = -m O^2 <{x,p}> - 4 gamma <p^2> + 2 D

    ``coeffs`` and ``omega`` may be callables of time.  The minus block is
    left as it is; ``integrate`` rotates it.
    """
    return _step("position", state, coeffs, m, omega, dt)


def step_symmetric_model(
    state: MomentState, coeffs, mass, omega, dt: float
) -> MomentState:
    """One RK4 step of the symmetric-coupling plus-mode moment ODEs.

        d<p^2>/dt   = -M O^2 <{x,p}> - 4 g~ <p^2> + 2 D~
        d<x^2>/dt   = <{x,p}>/M - 4 g~ <x^2> + 2 D~/(M^2 O^2)
        d<{x,p}>/dt = 2<p^2>/M - 2 M O^2 <x^2> - 4 g~ <{x,p}>

    ``coeffs``, ``mass`` and ``omega`` may be callables of time.
    """
    return _step("symmetric", state, coeffs, mass, omega, dt)


def default_step(omega: float, gamma: float) -> float:
    """Fixed RK4 step: min(0.01/omega, 0.01/gamma)."""
    return _STEP_FACTOR / max(abs(omega), abs(gamma))


def integrate(
    state: MomentState,
    coeffs,
    m,
    omega,
    t_final: float,
    dt: float | None = None,
    model: str = "position",
    m_minus: float | None = None,
    omega_minus: float | None = None,
    sample_every: int = 1,
) -> list[MomentState]:
    """March the plus-mode ODEs to t_final; returns sampled states.

    The minus block is rotated analytically to each sample time, so its
    evolution is exact regardless of dt.  ``m`` and ``omega`` follow the
    conventions of the chosen stepper.
    """
    if model not in _FORMS:
        raise ValueError(f"unknown coupling model {model!r}")
    env = _environment(model, coeffs, m, omega)
    if dt is None:
        dt = default_step(*env(state.time)[:2])

    mm = m_minus if m_minus is not None else (m(0.0) if callable(m) else m)
    wm = omega_minus if omega_minus is not None else (
        omega(0.0) if callable(omega) else omega
    )
    minus0 = state.minus_block()
    t0 = t = float(state.time)
    n_steps = max(1, math.ceil((t_final - t0) / dt))
    out = [state]
    y = tuple(map(float, state.plus_block_moments()))
    for k in range(n_steps):
        step_dt = min(dt, t_final - t)
        if step_dt <= 0:
            break
        y = _rk4(env, y, t, step_dt)
        t += step_dt
        _require_positive("plus", y, t)
        if k % sample_every == sample_every - 1 or t >= t_final:
            rot = free_rotation(minus0, mm, wm, t - t0)
            out.append(MomentState(*y, rot[0, 0], rot[1, 1], 2.0 * rot[0, 1], t))
    return out


# ---------------------------------------------------------------------------
# Minus mode and entanglement readout
# ---------------------------------------------------------------------------

def free_minus_evolution(
    minus_block: np.ndarray, m_minus: float, omega_minus: float, t: float
) -> np.ndarray:
    """Free-oscillator rotation of the decoupled minus-mode block."""
    return free_rotation(minus_block, m_minus, omega_minus, t)


def negativity_from_moments(state: MomentState) -> float:
    """E_N of the two-oscillator state assembled from the two mode blocks.

    Valid in the asymptotic regime where the (+,-) cross block vanishes.
    """
    return float(negativities([state])[0])


def negativities(states: Sequence[MomentState]) -> np.ndarray:
    """``negativity_from_moments`` of every state, read out as one stack."""
    fields = np.fromiter(
        (x for s in states for x in (s.x2_plus, s.p2_plus, s.xp_plus / 2.0,
                                     s.x2_minus, s.p2_minus, s.xp_minus / 2.0)),
        dtype=float, count=6 * len(states)).reshape(-1, 6).T
    v = np.zeros((len(states), 4, 4))  # NORMAL ordering, no (+,-) cross block
    v[:, 0, 0], v[:, 1, 1], v[:, 0, 1], v[:, 2, 2], v[:, 3, 3], v[:, 2, 3] = fields
    v[:, 1, 0], v[:, 3, 2] = fields[2], fields[5]
    return log_negativities(mix_modes(v))
