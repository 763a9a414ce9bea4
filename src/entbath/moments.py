"""Master-equation second-moment dynamics for the plus mode, free rotation
for the minus mode.

The plus-mode moments y = (<x^2>, <p^2>, <{x,p}>) obey y' = M y + b, with
constant coefficients (damping, diffusion, anomalous diffusion); the minus
mode never sees the bath and simply rotates.  With a constant 1 appended,
one RK4 step is one 4x4 matrix, built once: each sample spacing is a whole
number of equal steps, and the samples are rows of that matrix's orbit.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .asymptotics import PositionCoefficients, SymmetricCoefficients
from .errors import StepSizeError, UnphysicalStateError
from .gaussian import free_rotation, log_negativities, mix_modes

UNCERTAINTY_ATOL = 1e-9

# dt ceiling relative to the fastest rate present (spec: dt <= 0.01/max(omega, gamma))
STEP_FACTOR = 0.01
# relative rounding by which a step may exceed its ceiling, in every RK4 route
STEP_SLACK = 1e-12


@dataclass(frozen=True)
class MomentState:
    """Second moments of the plus and minus modes at a given time.

    ``xp`` denotes the symmetrized cross moment <{x, p}> of a block.

    Construction only requires positive block determinants.  The perturbative
    master equation is not of Lindblad form: its anomalous-diffusion term is
    first order in the damping rate and drives transient dips of the plus
    block a few percent below the uncertainty bound (measured down to
    det ~ 0.20 at gamma = 0.2 from a vacuum start), so the uncertainty bound
    is not an invariant of the route.
    """

    x2_plus: float
    p2_plus: float
    xp_plus: float
    x2_minus: float
    p2_minus: float
    xp_minus: float
    time: float = 0.0

    def __post_init__(self) -> None:
        _require_positive("plus", [self.plus_block_moments()], self.time)
        _require_positive("minus", [self.minus_block_moments()], self.time)

    def plus_block_moments(self) -> tuple[float, float, float]:
        return self.x2_plus, self.p2_plus, self.xp_plus

    def minus_block_moments(self) -> tuple[float, float, float]:
        return self.x2_minus, self.p2_minus, self.xp_minus

    def minus_block(self) -> np.ndarray:
        xp = self.xp_minus / 2.0
        return np.array([[self.x2_minus, xp], [xp, self.p2_minus]])

    def minus_rows(self, m: float, omega: float, times: np.ndarray) -> np.ndarray:
        """(k, 3) minus-block rows (<x^2>, <p^2>, <{x,p}>), rotated exactly from
        this state's time to each of ``times``; each must stay positive."""
        rot = free_rotation(self.minus_block(), m, omega, times - self.time)
        rows = np.stack([rot[:, 0, 0], rot[:, 1, 1], 2.0 * rot[:, 0, 1]], axis=1)
        _require_positive("minus", rows, times)
        return rows


@dataclass(frozen=True)
class Trajectory:
    """The samples of ``integrate``: ``times`` (k,), the (k, 3) plus-block rows
    (<x^2>, <p^2>, <{x,p}>), and the smallest plus-block x2 p2 - (xp/2)^2
    over every step.  The minus rows are ``MomentState.minus_rows``."""

    times: np.ndarray
    plus: np.ndarray
    min_plus_det: float


def _require_positive(tag: str, blocks, times) -> np.ndarray:
    """Determinants of (k, 3) moment rows at ``times``; refuses the first row
    whose dispersions or determinant are not positive (NaN included)."""
    x2, p2, xp = np.asarray(blocks, dtype=float).T
    det = x2 * p2 - (xp / 2.0) ** 2
    bad = np.flatnonzero(~((x2 > 0.0) & (p2 > 0.0) & (det > 0.0)))
    if bad.size:
        raise UnphysicalStateError(
            f"{tag} block has nonpositive dispersions or determinant "
            f"({det[bad[0]]:.6e}) at t={np.broadcast_to(times, det.shape)[bad[0]]}"
        )
    return det


# ---------------------------------------------------------------------------
# Coefficient schedules
# ---------------------------------------------------------------------------

class TabulatedSchedule:
    """Linear interpolation over a strictly increasing time grid.

    Evaluation outside the grid clamps to the endpoint values.  ``values``
    is a sequence of coefficient tuples matching ``kind`` ("position" gives
    PositionCoefficients, "symmetric" gives SymmetricCoefficients).
    ``integrate`` takes constant coefficients; nothing consumes a table yet.
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
        nodes = np.array([[getattr(v, f) for f in self._fields] for v in values], dtype=float)
        if len(nodes) != len(self.times):
            raise ValueError("values length must match times length")
        # np.interp's arithmetic, slope (t - t_j) + f_j, as Python floats:
        # one bracket search per call serves every field
        self._grid = self.times.tolist()
        self._nodes = nodes.tolist()
        self._slopes = (np.diff(nodes, axis=0) / np.diff(self.times)[:, None]).tolist()

    def __call__(self, t: float):
        t = float(t)
        j = bisect.bisect_right(self._grid, t) - 1
        if j < 0:
            return self._cls(*self._nodes[0])
        if j == len(self._slopes):
            return self._cls(*self._nodes[-1])
        dt = t - self._grid[j]
        return self._cls(*(s * dt + f for s, f in zip(self._slopes[j], self._nodes[j])))


# ---------------------------------------------------------------------------
# RK4 stepping
# ---------------------------------------------------------------------------

def _excess(dt, omega, gamma=0.0, factor: float = STEP_FACTOR):
    """Relative excess of steps dt over factor / max(|omega|, |gamma|)."""
    return dt * np.maximum(np.abs(omega), np.abs(gamma)) / factor - 1.0


def check_step(dt, omega, gamma=0.0, factor: float = STEP_FACTOR) -> None:
    """Refuse the first step dt above factor / max(|omega|, |gamma|), the
    rates at its start, by more than STEP_SLACK; the arguments broadcast."""
    dt, excess = np.broadcast_arrays(dt, _excess(dt, omega, gamma, factor))
    bad = np.flatnonzero(excess > STEP_SLACK)
    if bad.size:
        h, e = float(dt.flat[bad[0]]), float(excess.flat[bad[0]])
        raise StepSizeError(f"dt={h!r} exceeds {factor}/max rate = {h / (1.0 + e):.6g} "
                            f"by {e:.3g} relative")


def whole_steps(span: float, omega: float, gamma: float) -> int:
    """Fewest equal steps of ``span`` that ``check_step`` accepts at these
    rates: ceil(span / (default_step (1 + STEP_SLACK))), moved where rounding
    puts that count one off."""
    fits = lambda n: _excess(span / n, omega, gamma) <= STEP_SLACK
    n = max(1, math.ceil(span / (default_step(omega, gamma) * (1.0 + STEP_SLACK))))
    while n > 1 and fits(n - 1):
        n -= 1
    while not fits(n):
        n += 1
    return n


def _position_form(m, w, c) -> tuple:
    """d<x^2>/dt   = <{x,p}>/m
    d<p^2>/dt   = -m O^2 <{x,p}> - 4 gamma <p^2> + 2 D
    d<{x,p}>/dt = 2<p^2>/m - 2 m O^2 <x^2> - 2 gamma <{x,p}> - 2 f"""
    w2 = w ** 2
    return (m, 0.0, 0.0, -m * w2, 4.0 * c.gamma, 2.0 * c.diffusion,
            2.0 * m * w2, 2.0 * c.gamma, 2.0 * c.anomalous)


def _symmetric_form(m, w, c) -> tuple:
    """d<x^2>/dt   = <{x,p}>/M - 4 g~ <x^2> + 2 D~/(M^2 O^2)
    d<p^2>/dt   = -M O^2 <{x,p}> - 4 g~ <p^2> + 2 D~
    d<{x,p}>/dt = 2<p^2>/M - 2 M O^2 <x^2> - 4 g~ <{x,p}>"""
    w2 = w * w
    return (m, 4.0 * c.gamma, 2.0 * c.diffusion / (m * m * w2), -m * w2,
            4.0 * c.gamma, 2.0 * c.diffusion, 2.0 * m * w2, 4.0 * c.gamma, 0.0)


# the ODE coefficients (m, a1, ..., a8) of each model for _generators
_FORMS = {"position": _position_form, "symmetric": _symmetric_form}


def _generators(a: np.ndarray) -> np.ndarray:
    """Generators A = [[M, b], [0, 0]] of y = (x2, p2, xp, 1) from stacked
    ODE coefficients (..., 9) = (m, a1, ..., a8) of both models' form
        d<x^2>/dt   = <{x,p}>/m - a1 <x^2> + a2
        d<p^2>/dt   = a3 <{x,p}> - a4 <p^2> + a5
        d<{x,p}>/dt = 2<p^2>/m - a6 <x^2> - a7 <{x,p}> - a8
    """
    m, a1, a2, a3, a4, a5, a6, a7, a8 = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    g = np.zeros(np.shape(m) + (4, 4))
    g[..., 0, 0], g[..., 0, 2], g[..., 0, 3] = -a1, 1.0 / m, a2
    g[..., 1, 1], g[..., 1, 2], g[..., 1, 3] = -a4, a3, a5
    g[..., 2, 0], g[..., 2, 1], g[..., 2, 2], g[..., 2, 3] = -a6, 2.0 / m, -a7, -a8
    return g


def step_matrices(g: np.ndarray, h) -> np.ndarray:
    """Classical RK4 steps of y' = A(t) y as matrices, from the generators
    g (..., 3, d, d) at each step's start, middle and end and the step sizes
    h (...): k1 = A1 y, k2 = A2 (y + h k1/2), k3 = A2 (y + h k2/2) and
    k4 = A3 (y + h k3).  For one constant A this is the Taylor polynomial
    I + hA (I + hA/2 (I + hA/3 (I + hA/4)))."""
    h = np.asarray(h, dtype=float)[..., None, None]
    a1, a2, a3 = g[..., 0, :, :], g[..., 1, :, :], g[..., 2, :, :]
    eye = np.eye(g.shape[-1])
    k2 = a2 @ (eye + h / 2.0 * a1)
    k3 = a2 @ (eye + h / 2.0 * k2)
    k4 = a3 @ (eye + h * k3)
    return eye + h / 6.0 * (a1 + 2.0 * k2 + 2.0 * k3 + k4)


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


def default_step(omega: float, gamma: float) -> float:
    """Fixed RK4 step: min(0.01/omega, 0.01/gamma)."""
    return STEP_FACTOR / max(abs(omega), abs(gamma))


def integrate(
    state: MomentState,
    coeffs,
    m: float,
    omega: float,
    spacing: float,
    samples: int,
    model: str = "position",
) -> Trajectory:
    """The plus-mode ODEs under constant ``coeffs`` from ``state``, sampled
    at the ``samples`` times state.time + j spacing (j = 0, 1, ...).

    Each spacing is ``whole_steps`` equal RK4 steps of one step matrix, so
    every step stays within ``check_step``'s bound.  Only the plus block is
    marched: the minus block never sees the bath, and
    ``MomentState.minus_rows`` rotates it exactly to any times.  The plus
    block must stay positive at every step, not only at the samples.
    """
    if model not in _FORMS:
        raise ValueError(f"unknown coupling model {model!r}")
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples={samples!r} must be an integer >= 1")
    if samples > 1 and not (math.isfinite(spacing) and spacing > 0.0):
        raise ValueError(f"spacing={spacing!r} must be finite and positive")
    t0 = float(state.time)
    y0 = np.array([*state.plus_block_moments(), 1.0])
    if samples == 1:
        y, every, spacing = y0[None], 1, 0.0
    else:
        every = whole_steps(spacing, omega, coeffs.gamma)
        g = np.broadcast_to(_generators(_FORMS[model](m, omega, coeffs)), (3, 4, 4))
        step = step_matrices(g, spacing / every)
        y = np.concatenate([y0[None], _orbit(step, y0, every * (samples - 1))])
    det = _require_positive("plus", y[:, :3], t0 + np.arange(len(y)) * (spacing / every))
    return Trajectory(t0 + np.arange(samples) * spacing, y[::every, :3], float(det.min()))


# ---------------------------------------------------------------------------
# Entanglement readout
# ---------------------------------------------------------------------------

def negativities(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """E_N of the states assembled from (k, 3) plus and minus block moment
    rows (``Trajectory.plus``, ``MomentState.minus_rows``); valid where the
    (+,-) cross block vanishes."""
    v = np.zeros((len(plus), 4, 4))  # NORMAL ordering, no (+,-) cross block
    for i, rows in ((0, plus), (2, minus)):
        x2, p2, xp = np.asarray(rows, dtype=float).T
        v[:, i, i], v[:, i + 1, i + 1] = x2, p2
        v[:, i, i + 1] = v[:, i + 1, i] = xp / 2.0
    return log_negativities(mix_modes(v))
