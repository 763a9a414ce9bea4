"""Exact evolution of the full system+bath covariance matrix.

The total Hamiltonian is quadratic, H = (1/2) r^T H r over the FULL-ordered
phase-space vector (x1, p1, x2, p2, q1, pi1, ...), so the covariance obeys
the Lyapunov equation dV/dt = K V + V K^T with drift K = J H.  A drift holds
the nonzero blocks of H, in O(N): the 4x4 system block, the 4 x N
system-bath couplings and the bath, whose oscillators have unit mass: the
bath block is w_k^2 on q_k and 1 on pi_k.
Traces read a normal-mode channel (below).  ``evolve`` gives the full
covariance by the normal-mode propagator S(t) = exp(Kt) (exactly
symplectic, arbitrary t) or, as the independent oracle that ``validate`` and
the tests compare against, by the RK4 step matrix raised to the steps per
sample by squaring, the one place K is formed.
A drift has no x-p cross terms, H = x^T K x / 2 + p^T B p / 2, so its
normal modes are real and second order, computed once per drift and cached
on it.  The factor of the momentum block B costs O(N^2), because B is an
arrowhead: two system rows beside the identity, B = [[B_ss, C], [C^T, I]],
so B = L L^T with L = [[chol S, C], [0, I]], S = B_ss - C C^T.  For position
coupling the mass-weighted stiffness is an arrowhead too, and its modes
solve a secular equation in O(N^2) time and memory.  So do the symmetric
model's at c12 = c12_tilde, where the plus oscillator meets the bath
through a beam splitter and its frequencies are the eigenvalues of a
first-order arrowhead; those two routes keep omega and the system rows of
the mode matrices, and form the whole (N+2)^2 A and W only when read.  Any
other H takes one real symmetric eigensolve of size N+2.  The reduced
dynamics is a channel V_s(t) = Z V_s(0) Z^T + N(t) whose Z and N do not
depend on the system state; the drift keeps the channel of its latest
sampling plan, so each further state costs one 4x4 congruence per sample.
The channel samples the rows of S(t) in the (x+, p+, x-, p-) basis.  Its
noise is the reduced thermal state of H, which is stationary, less the
sampled rows through a low-rank factor of the gap between that thermal
state and the prepared one (system block zero, bath thermal).  By the
Matsubara sum the gap is a short sum of resolvent gaps, each of low rank
and known from the system rows through the identities
A (Omega^2 + s)^-1 A^T = (K + s B^-1)^-1 and W^T (Omega^2 + s)^-1 W =
B^-1 (K + s B^-1)^-1 B^-1; the factor is found once per channel, with no
product against a bath column of A or W.  Sample times are uniform, so by
angle addition the channel takes cos and sin of the in-chunk offsets
k h omega once and of omega at each chunk's first time, and rotates the
sampled rows' weights, not a table, to each chunk.  When H is unchanged by
exchanging the two oscillators (every resonant builder config), x- and p-
decouple from the rest: only x+ and p+ are sampled, and the minus rows are
the closed-form free rotation, with no bath noise.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bath import DiscreteBath, check_recurrence, quantum_part, thermal_bath_covariance
from .errors import NumericalError, UnstableHamiltonianError
from .gaussian import (
    MIX,
    CovarianceMatrix,
    Ordering,
    OscillatorParams,
    free_propagator,
    log_negativities,
    mix_modes,
    require_physical,
    require_two_mode,
    symplectic_form,
)
from .moments import step_matrix, whole_steps

RK4_STEP_FACTOR = 0.05
REDUCED_PHYSICALITY_ATOL = 1e-9
_PSD_TOL = 1e-10


@dataclass(frozen=True)
class EvolutionConfig:
    """Sampling plan for one evolution.

    Samples fall every ``sample_stride`` steps of ``dt`` up to ``t_max``,
    none past it by more than rounding (a few ulps).
    The normal-mode channel and propagator are evaluated directly at the
    sample times; ``evolve``'s RK4 oracle splits each ``dt`` into whole
    steps and raises its step matrix to the steps per sample by squaring.
    """

    t_max: float
    dt: float
    sample_stride: int = 1

    def __post_init__(self) -> None:
        for name in ("t_max", "dt"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name}={value!r} must be finite and positive")
        stride = self.sample_stride
        if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
            raise ValueError(f"sample_stride={stride!r} must be an integer >= 1")

    def sample_times(self) -> np.ndarray:
        steps = math.floor(self.t_max / self.dt * (1.0 + 4.0 * np.finfo(float).eps))
        return self.dt * np.arange(0, steps + 1, self.sample_stride)


@dataclass(frozen=True)
class DriftMatrix:
    """The total Hamiltonian H of the Lyapunov drift K = J H, as its blocks.

    ``system`` is the 4x4 PHYSICAL block and ``couplings`` the (4, N)
    system-bath block: an x row couples to each q_k and a p row to each
    pi_k, so x-p cross terms can sit only in ``system``, which refuses
    them, as a made drift (``replace`` too) refuses an H that is not positive
    semidefinite.  The unit-mass bath's block is w_k^2 on q_k and 1 on pi_k.
    ``m_minus``/``omega_minus`` are ``mode_scales`` of the system block
    (the bath-free minus oscillator of the bare model), computed once; the
    dense ``hamiltonian`` and ``k`` are formed on each read, for the RK4
    oracle and ``energy_of``.  The normal modes are
    computed on first use and kept, so a drift is factorized at most once.
    Both blocks are kept as given (a float array is not copied), read-only.
    """

    system: np.ndarray
    couplings: np.ndarray
    bath: DiscreteBath

    def __post_init__(self) -> None:
        for name in ("system", "couplings"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.system.shape != (4, 4) or self.couplings.shape != (4, self.bath.n_modes):
            raise ValueError("a drift needs a 4x4 system block and 4 x N couplings")
        if np.any(self.system[0::2, 1::2]):
            raise ValueError("real second-order normal modes need H without x-p terms")
        _check_stable(self)

    @property
    def dim(self) -> int:
        return 4 + 2 * self.bath.n_modes

    @property
    def hamiltonian(self) -> np.ndarray:
        """The dense H in FULL ordering, not kept."""
        h = np.zeros((self.dim, self.dim))
        h[:4, :4] = self.system
        h[0:4:2, 4::2], h[1:4:2, 5::2] = self.couplings[0::2], self.couplings[1::2]
        h[4:, :4] = h[:4, 4:].T
        iq = 4 + 2 * np.arange(self.bath.n_modes)
        h[iq, iq], h[iq + 1, iq + 1] = self.bath.frequencies**2, 1.0
        return h

    @property
    def k(self) -> np.ndarray:
        """K = J H, not kept: J swaps each (x, p) row pair of H and negates the p row."""
        h = self.hamiltonian
        k = np.empty_like(h)
        k[0::2], k[1::2] = h[1::2], -h[0::2]
        return k

    @cached_property
    def _minus_scales(self) -> tuple[float, float]:
        return mode_scales(self.system)

    m_minus = property(lambda self: self._minus_scales[0])
    omega_minus = property(lambda self: self._minus_scales[1])

    @cached_property
    def normal_modes(self) -> NormalModes:
        """Real second-order normal modes of the drift."""
        return normal_modes(self)

    def reduced_channel(self, times: np.ndarray) -> ReducedChannel:
        """Reduced channel at ``times``; the latest plan's is kept, keyed by times."""
        held = self.__dict__.get("_channel")
        if held is None or not np.array_equal(held.times, times):
            held = self.normal_modes.reduced_channel(self.bath, times)
            self.__dict__["_channel"] = held
        return held


def _check_stable(drift: DriftMatrix) -> None:
    """Refuse a total Hamiltonian that is not positive semidefinite, naming
    the block that is not: the stiffness (x, q), checked first, or the
    momentum block (p, pi).  The bath part of each is diagonal and positive,
    diag(w_k^2) and I (a bath refuses frequencies <= 0), so by the Schur
    complement a block is >= 0 exactly when its 2x2 H_ss - C D^-1 C^T is;
    the tolerance is relative to max |H|.
    """
    h_ss, c, w_sq = drift.system, drift.couplings, drift.bath.frequencies**2
    scale = max(1.0, float(np.abs(h_ss).max()), float(np.abs(c).max()), float(w_sq.max()))
    for name, rows, c_over_d in (("stiffness", slice(0, 4, 2), c[0::2] / w_sq),
                                 ("momentum block", slice(1, 4, 2), c[1::2])):
        lo = float(np.linalg.eigvalsh(h_ss[rows, rows] - c_over_d @ c[rows].T)[0])
        if lo < -_PSD_TOL * scale:
            raise UnstableHamiltonianError(
                f"{name} of H has negative Schur-complement eigenvalue {lo:.3e}"
            )


def system_hamiltonian(
    osc: OscillatorParams, model: str, s: float = 0.0
) -> tuple[np.ndarray, float | None]:
    """The 4x4 PHYSICAL system block of H for a bath whose discrete
    counterterm sum is -s, and the symmetric model's bare omega^2 (None for
    position coupling), which scales that model's momentum couplings.

    The configured parameters are renormalized values: completing the square
    in the bath coordinates returns them.  Position coupling shifts omega1^2,
    omega2^2 and c12 by s/2.  The symmetric model requires resonance; its
    bare frequency solves (w_b^2 - s/2)^2 = w_b^2 Omega^2, so the dressed
    plus mode and the bath-free minus mode both reproduce the configured
    ones (and c12 = c12_tilde gives an unsqueezed equilibrium, r_crit = 0).
    With s = 0 this is the system as configured.
    """
    m = osc.m
    if model == "symmetric":
        if not osc.resonant:
            raise ValueError("symmetric model requires resonant oscillators")
        big_omega_sq = w_bare_sq = osc.omega1**2
        c12, c12_t = osc.c12, osc.c12_tilde
        if s:  # s = 0 keeps the configured values exactly
            w_bare_sq = 0.5 * (s + big_omega_sq + math.sqrt((s + big_omega_sq) ** 2 - s * s))
            m_over_big_m = (w_bare_sq - s / 2.0) / w_bare_sq
            c12 = c12 / m_over_big_m + s / 2.0
            c12_t = c12_t * m_over_big_m * w_bare_sq / big_omega_sq + s / 2.0
        w1_sq = w2_sq = w_bare_sq
        b12 = c12_t / (m * w_bare_sq)
    else:
        if osc.c12_tilde != 0.0:
            raise ValueError("momentum coupling requires the symmetric model")
        w1_sq, w2_sq, c12 = (v + s / 2.0 for v in (osc.omega1**2, osc.omega2**2, osc.c12))
        w_bare_sq, b12 = None, 0.0
    h = np.zeros((4, 4))
    h[0, 0], h[2, 2] = m * w1_sq, m * w2_sq
    h[1, 1] = h[3, 3] = 1.0 / m
    h[0, 2] = h[2, 0] = m * c12
    h[1, 3] = h[3, 1] = b12
    return h, w_bare_sq


def mode_scales(h_sys: np.ndarray, sign: float = -1.0) -> tuple[float, float]:
    """(mass, frequency) of the x- (sign -1) or x+ (sign +1) oscillator of a
    4x4 PHYSICAL system block, x± = (x1 ± x2)/sqrt(2).

    Its stiffness is k = (K11 + K22)/2 ± K12 and its inverse mass
    b = (B11 + B22)/2 ± B12, so the mode is (1/b, sqrt(k b)).  For resonant
    oscillators x- never sees the bath, and these are its exact scales.
    """
    k = (h_sys[0, 0] + h_sys[2, 2]) / 2.0 + sign * h_sys[0, 2]
    b = (h_sys[1, 1] + h_sys[3, 3]) / 2.0 + sign * h_sys[1, 3]
    if k <= 0 or b <= 0:
        raise ValueError(f"x{'-+'[sign > 0]} oscillator unstable: stiffness {k:.3e}, "
                         f"inverse mass {b:.3e}")
    return 1.0 / b, math.sqrt(k * b)


def _assemble(osc: OscillatorParams, bath: DiscreteBath, model: str):
    """Drift of either model: the bare system block, the diagonal bath block,
    the position couplings (x1 + x2) sum c_k q_k and, for the symmetric
    model, the momentum couplings ((p1 + p2)/(m w_b)) sum (c_k / w_k) pi_k."""
    h_sys, w_bare_sq = system_hamiltonian(osc, model, -bath.counterterm_sum(osc.m))
    c = bath.couplings
    cp = (c / (osc.m * math.sqrt(w_bare_sq) * bath.frequencies)
          if model == "symmetric" else np.zeros_like(c))
    drift = DriftMatrix(h_sys, np.array([c, cp, c, cp]), bath)
    try:  # an unstable minus mode is refused at build time
        drift._minus_scales
    except ValueError as err:
        raise UnstableHamiltonianError(str(err)) from err
    return drift


def build_position_model(osc: OscillatorParams, bath: DiscreteBath) -> DriftMatrix:
    """Drift matrix for bilinear position coupling (x1 + x2) sum c_k q_k."""
    return _assemble(osc, bath, "position")


def build_symmetric_model(osc: OscillatorParams, bath: DiscreteBath) -> DriftMatrix:
    """Drift matrix for coupling symmetric in position and momentum, with
    equal strengths; requires resonance (see ``system_hamiltonian``)."""
    return _assemble(osc, bath, "symmetric")


def initial_covariance(system_v: CovarianceMatrix, bath: DiscreteBath) -> CovarianceMatrix:
    """Direct sum of a two-mode system state and the thermal bath state."""
    require_two_mode(system_v)
    vb = thermal_bath_covariance(bath)
    dim = 4 + vb.dim
    v = np.zeros((dim, dim))
    v[:4, :4] = system_v.matrix
    v[4:, 4:] = vb.matrix
    return CovarianceMatrix(v, Ordering.FULL)


# ---------------------------------------------------------------------------
# Propagators
# ---------------------------------------------------------------------------

# samples per chunk in NormalModes.reduced_channel: cos and sin are taken of
# the chunk x (N+2) offsets k h omega once per channel (0.6 MB apiece at
# N = 597, whatever the sample count) and of omega at each chunk's base time
SAMPLE_CHUNK = 128
# how far, in eps of the largest |t|, a sample time may sit off the uniform
# grid; dt * arange rounds each time once, about 1.5 eps at worst
_GRID_ULPS = 4.0


@dataclass(frozen=True)
class ReducedChannel:
    """V_s(t) = Z V_s(0) Z^T + N at ``times``: ``z`` is the system block of S(t)
    and ``noise`` the thermal bath's part, (len(times), 4, 4) each, PHYSICAL order.
    For a free minus pair the minus rows of ``z`` are its exact rotation and
    ``noise`` is the plus block's alone."""

    times: np.ndarray
    z: np.ndarray
    noise: np.ndarray

    def blocks(self, system_v: CovarianceMatrix) -> np.ndarray:
        """Reduced 4x4 covariance of ``system_v`` at every sample time,
        symmetrized."""
        require_two_mode(system_v)
        return _symmetrize(self.z @ system_v.matrix @ self.z.transpose(0, 2, 1) + self.noise)


@dataclass(frozen=True, eq=False)
class NormalModes:
    """Real normal modes of H = x^T K x / 2 + p^T B p / 2.

    Positions are ordered (x1, x2, q1, ..., qN) and momenta (p1, p2, pi1,
    ..., piN), and ``omega`` ascends.  The coordinates Q = W x and P = A^T p
    rotate freely, each at its omega, and x = A Q, p = W^T P, so W A = I,
    A A^T = B and K A = W^T diag(omega^2): the exact normal modes of a
    linear bath (Ullersma, Physica 32, 27 (1966)).  With B = L L^T and
    L^T K L = U diag(omega^2) U^T (U orthogonal), A = L U and W = U^T L^-1;
    the unit-mass bath makes L = [[chol S, C], [0, I]], so for position
    coupling (C = 0) L is diagonal.  Also K^-1 = A diag(omega^-2) A^T and
    B^-1 = W^T W, which give the reduced channel its classical thermal part
    from the system rows alone.  ``a_s`` and ``w_s`` are the system rows of
    A and columns of W, all the reduced channel reads; the whole ``a`` and
    ``w`` are formed by ``form`` on first read (for ``propagator``) and
    kept.  ``minus`` is the (mass, frequency) of a minus pair that H leaves
    free, else None.
    """

    omega: np.ndarray
    a_s: np.ndarray
    w_s: np.ndarray
    form: Callable[[], tuple[np.ndarray, np.ndarray]] = field(repr=False)
    minus: tuple[float, float] | None = None

    @classmethod
    def from_matrices(cls, omega, a, w, minus=None) -> NormalModes:
        """Modes whose whole A and W are at hand."""
        return cls(omega, a[:2], w[:, :2], lambda: (a, w), minus)

    @cached_property
    def _matrices(self) -> tuple[np.ndarray, np.ndarray]:
        return self.form()

    a = property(lambda self: self._matrices[0], doc="A, (N+2)^2, formed on first read")
    w = property(lambda self: self._matrices[1], doc="W, (N+2)^2, formed on first read")

    def propagator(self, t: float) -> np.ndarray:
        """The full S(t) = exp(Kt) in FULL ordering."""
        om, a, w = self.omega, self.a, self.w
        cos, sin = np.cos(om * t), np.sin(om * t)
        s = np.empty((2 * len(om), 2 * len(om)))
        s[0::2, 0::2] = (a * cos) @ w
        s[0::2, 1::2] = (a * (sin / om)) @ a.T
        s[1::2, 0::2] = (w.T * (-om * sin)) @ w
        s[1::2, 1::2] = (w.T * cos) @ a.T
        return s

    def reduced_channel(self, bath: DiscreteBath, times: np.ndarray) -> ReducedChannel:
        """The reduced channel at ``times`` of the thermal ``bath``.

        Each system row of S(t) in NORMAL order (x+, p+, x-, p-) is a weight
        on Q and one on P: an x row is cos g on Q and sin g / omega on P, a
        p row -omega sin h on Q and cos h on P.  The prepared state's bath
        part is the thermal state V_th of H, diagonal in normal modes and
        stationary, less Delta = V_th - (0 (+) V_bath), whose Q-P block is
        zero.  So the noise of the sampled rows R(t) is
        N(t) = V_th,red - R(t) Delta R(t)^T, and V_th,red does not depend on
        t.  <Q^2> = coth(omega / 2T) / 2 omega is the Matsubara sum
        sum_n T / (omega^2 + nu_n^2), nu_n = 2 pi n T, so per quadrature
        Delta is a sum of resolvent gaps (``_quantum_gap``), each of low rank
        and known from the system rows alone: its nu = 0 member is T times
        the classical closed form (the block inverse of the arrowheads K and
        B: T Y (A_s Y)^-1 Y^T on Q with Y = Omega^-2 A_s^T, and
        T W_s (W_s^T W_s)^-1 W_s^T on P), and the quantum remainder, with no
        T / omega^2 terms to cancel, is a short rule of shifts
        (``_resolvent_rule``) factored once per channel; below T =
        omega_min / _COLD the Bose factor is under exp(-_COLD) and Delta is
        the ground state's.  The times must be uniform; per chunk of
        samples, products of the offset tables cos and sin(k h omega) with
        the rows' weights rotated to the chunk (``_sampled_coordinates``)
        give Z (the rows through W_s and A_s^T) and the rows' coordinates in
        the r columns of Delta's factor (at T = 0 the remainder's alone).
        With a free minus pair only x+ and p+ are sampled; the minus rows are
        the free rotation at ``minus``, which carries no bath noise.
        """
        om, t = self.omega, bath.temperature
        a_s, w_s = self.a_s, self.w_s
        frame = MIX if self.minus is None else MIX[:2]
        rows = np.concatenate([frame[0::2], frame[1::2]])  # x rows, then p rows
        g = frame[0::2, 0::2] @ a_s    # x rows: g . (cos Q + sin P / omega)
        h = frame[1::2, 1::2] @ w_s.T  # p rows: h . (-omega sin Q + cos P)
        freqs = np.concatenate([om, bath.frequencies])
        t_gap = 0.0 if t <= freqs.min() / _COLD else t  # Delta's temperature
        shifts, weights, inv = _resolvent_rule(freqs, t_gap)
        (u_q, lam_q), (u_p, lam_p) = _quantum_gap(om, g.T, h.T, shifts, weights, inv[:len(om)])
        y = a_s.T / om[:, None] ** 2
        # on Q and P: the columns that give Z, then Delta's factor, and its weights
        on_q, lam_q = _thermal_gap(w_s, y, a_s @ y, t_gap, u_q, lam_q)
        on_p, lam_p = _thermal_gap(a_s.T, w_s, w_s.T @ w_s, t_gap, u_p, lam_p)
        var_q = t / om**2 + quantum_part(om, t)  # <Q^2> of V_th; <P^2> = omega^2 <Q^2>
        kx, k = len(g), len(rows)
        stationary = np.zeros((k, k))
        stationary[:kx, :kx] = (g * var_q) @ g.T
        stationary[kx:, kx:] = (h * (om**2 * var_q)) @ h.T

        # every sampled row weighs Q and P by u_c cos(omega t) + u_s sin(omega t)
        # (x rows, then p rows); axis 0 is the quadrature, Q then P
        u_c, u_s = np.zeros((2, 2, k, len(om)))
        u_c[0, :kx], u_s[0, kx:] = g, -om * h
        u_s[1, :kx], u_c[1, kx:] = g / om, h
        times = np.array(times, dtype=float)
        z = np.empty((len(times), k, 4))
        noise = np.empty((len(times), k, k))
        for part, q, p in _sampled_coordinates(times, om, u_c, u_s, (on_q, on_p)):
            z[part, :, 0::2], z[part, :, 1::2] = q[..., :2], p[..., :2]
            f_q, f_p = q[..., 2:], p[..., 2:]
            noise[part] = stationary - (f_q * lam_q) @ f_q.transpose(0, 2, 1)
            noise[part] -= (f_p * lam_p) @ f_p.transpose(0, 2, 1)
        z, noise = rows.T @ z, rows.T @ noise @ rows
        if self.minus is not None:
            free = MIX[2:]
            z += free.T @ free_propagator(*self.minus, times) @ free
        for arr in (times, z, noise):
            arr.flags.writeable = False
        return ReducedChannel(times, z, noise)


def _sampled_coordinates(times, om, u_c, u_s, on):
    """Per chunk of samples, (samples, each row's coordinates in the columns
    of ``on[0]``, the same in ``on[1]``), for rows whose weights on the
    quadratures of ``on`` are u_c cos(omega t) + u_s sin(omega t).

    The times must be uniform (``_grid_step``), so t = b + k h with b the
    chunk's first time and k < SAMPLE_CHUNK: cos and sin of k h omega are
    taken once, the weights are rotated to b, and per quadrature a chunk is
    two products, cos(k h omega) against (u_c cos b + u_s sin b) . on and
    sin(k h omega) against (u_s cos b - u_c sin b) . on, through one
    coefficient buffer."""
    n, k = len(om), u_c.shape[1]
    # [cos | sin] of the offsets, written in place
    table = np.empty((min(SAMPLE_CHUNK, len(times)), 2 * n))
    np.multiply.outer(_grid_step(times) * np.arange(len(table)), om, out=table[:, n:])
    np.cos(table[:, n:], out=table[:, :n])
    np.sin(table[:, n:], out=table[:, n:])
    coeffs = np.empty((n, k * max(f.shape[1] for f in on)))
    by_sin = np.empty((len(table), coeffs.shape[1]))
    coords = [np.empty((len(table), k * f.shape[1])) for f in on]
    for lo in range(0, len(times), SAMPLE_CHUNK):
        size = min(SAMPLE_CHUNK, len(times) - lo)
        cos_b, sin_b = np.cos(times[lo] * om), np.sin(times[lo] * om)
        rotated = (u_c * cos_b + u_s * sin_b, u_s * cos_b - u_c * sin_b)
        for quad, (f, out) in enumerate(zip(on, coords)):
            width = f.shape[1]
            for weights, trig, dst in zip(rotated, (table[:size, :n], table[:size, n:]),
                                          (out, by_sin)):
                for r, w_row in enumerate(weights[quad]):
                    np.multiply(f, w_row[:, None], out=coeffs[:, r * width:(r + 1) * width])
                np.matmul(trig, coeffs[:, :k * width], out=dst[:size, :k * width])
            out[:size] += by_sin[:size, :k * width]
        yield slice(lo, lo + size), *(out[:size].reshape(size, k, -1) for out in coords)


def _grid_step(times: np.ndarray) -> float:
    """The spacing of ``times``, which must be an arithmetic progression to
    _GRID_ULPS eps times the largest |t| (one time is a progression of one)."""
    if len(times) < 2:
        return 0.0
    step = (times[-1] - times[0]) / (len(times) - 1)
    off = np.abs(times - (times[0] + step * np.arange(len(times)))).max()
    if not off <= _GRID_ULPS * _EPS * np.abs(times).max():
        raise ValueError(f"sample times are not uniform: {off:.3e} off the grid of "
                         f"spacing {step:.6g}")
    return float(step)


def _thermal_gap(lead, cols, gram, temperature, u, lam):
    """One quadrature's Delta = T cols gram^-1 cols^T + U diag(lam) U^T as
    columns [lead | cols V | U] and weights [T / gamma, lam], where
    gram = V diag(gamma) V^T; the ``lead`` columns, which give Z, carry none.
    At T = 0 the closed form weighs nothing and is left out."""
    if temperature == 0.0:
        return np.hstack([lead, u]), lam
    gamma, vec = np.linalg.eigh(gram)
    return np.hstack([lead, cols @ vec, u]), np.concatenate([temperature / gamma, lam])


# the resolvent rule sum_j weight_j / (omega^2 + shift_j) for quantum_part:
# its relative error at every mode and bath frequency, and the refinements
# it may take to get there; the sinc step in ln(nu) at T = 0, whose error is
# about 4 exp(-pi^2 / step), and the Gauss nodes of each of its tails; the
# lowest Matsubara frequencies kept as exact shifts (compressed, they leave
# an error floor near 1.1e-14 at omega_min for T around 3e-3, which no
# refinement lowers), ln(1/error) of the Gauss rule in ln(nu) over the rest
# below 3 omega_max, and the Gauss nodes of those above and of the integral
# past them
_RULE_TOL = 1e-14
_RULE_LEVELS = 4
_SINC_STEP = math.pi**2 / 36.0
_TAIL_NODES = 4
_EXACT_MATSUBARA = 4
_GAUSS_DIGITS = 37.0
_FAR_NODES = 6
# a Bose factor below exp(-_COLD) is dropped
_COLD = 40.0
# relative cuts: of the resolvent basis's singular values (columns of unit
# norm), and of the eigenvalues of Delta's projection
_BASIS_CUT = 1e-14
_RANGE_CUT = 1e-14


def _resolvent_rule(freqs: np.ndarray, temperature: float):
    """(shifts, weights, inv): sum_j weights_j inv[:, j] is quantum_part at
    ``freqs``, inv[i, j] = 1 / (freqs_i^2 + shifts_j), to _RULE_TOL relative.

    At T = 0, 1 / 2 omega = (1/pi) int_0^inf dnu / (omega^2 + nu^2), whose
    trapezoid rule in ln(nu) converges as exp(-pi^2 / step) (``_sinc_rule``);
    at T > 0 the sum is over the Matsubara frequencies (``_matsubara_rule``).
    Each is checked at ``freqs`` and refined until it meets the tolerance:
    a refinement halves the sinc step, doubles the Gauss nodes in ln(nu)
    and the Matsubara frequencies summed, and adds two nodes per tail."""
    want = quantum_part(freqs, temperature)
    lo, hi = float(freqs.min()), float(freqs.max())
    for level in range(_RULE_LEVELS):
        shifts, weights = (_matsubara_rule(lo, hi, temperature, level) if temperature
                           else _sinc_rule(lo, hi, level))
        inv = 1.0 / np.add.outer(freqs**2, shifts)
        if np.abs(inv @ weights / want - 1.0).max() <= _RULE_TOL:
            return shifts, weights, inv
    raise NumericalError(f"resolvent rule for T={temperature!r} on [{lo:.3e}, {hi:.3e}] "
                         f"did not converge in {_RULE_LEVELS} refinements")


def _sinc_rule(lo: float, hi: float, level: int):
    """Trapezoid nodes nu_j = nu_lo e^(j step) from nu_lo = lo / 3 to
    nu_hi, past 3 hi, of weight step nu_j / pi.  Past either end the nodes
    are, scaled to nu = 1, atoms x = e^(-2 k step) of weight (step / pi)
    e^(-k step), k >= 1, with x = (nu / nu_lo)^2 below and (nu_hi / nu)^2
    above; each tail is folded into their Gauss rule, which is exact to
    rounding for omega >= 3 nu_lo and omega <= nu_hi / 3."""
    step = _SINC_STEP / 2**level
    nu = lo / 3.0 * np.exp(step * np.arange(math.ceil(math.log(9.0 * hi / lo) / step) + 1))
    k = np.arange(1, math.ceil(42.0 / step) + 1)
    g, c = _gauss(np.exp(-2.0 * step * k), step / math.pi * np.exp(-step * k),
                  _TAIL_NODES + 2 * level)
    return (np.concatenate([nu[0] ** 2 * g, nu**2, nu[-1] ** 2 / g]),
            np.concatenate([nu[0] * c, step / math.pi * nu, c * nu[-1] / g]))


def _matsubara_rule(lo: float, hi: float, temperature: float, level: int):
    """The Matsubara sum sum_(n >= 1) 2T / (omega^2 + nu_n^2), nu_n = 2 pi n T,
    as a short rule for omega in [lo, hi].

    The first _EXACT_MATSUBARA frequencies up to nu_hi = 3 hi are shifts of
    their own; the others up to nu_hi become a Gauss rule in ln(nu) (an
    integrand analytic in a strip of half-width pi/2 over a span L takes
    about _GAUSS_DIGITS / (2 asinh(pi / L)) nodes), those above it up to n =
    count one in (nu_hi / nu)^2 (``_gauss``), and the rest the integral from
    nu* = 2 pi T (count + 1/2), by Gauss-Legendre in nu* / nu, with the
    first Euler-Maclaurin term (pi T^2 / 6) d/dnu [1 / (omega^2 + nu^2)] at
    nu* as a central difference; count makes the terms left out (about
    4e-3 / T count^5) 1e-17 of quantum_part(hi)."""
    t = temperature
    nu_hi = 3.0 * hi
    bound = 4e-3 / (1e-17 * t * float(quantum_part(np.array([hi]), t)[0]))
    count = max(math.ceil(bound**0.2), math.ceil(nu_hi / (math.pi * t))) * 2**level
    nu = 2.0 * math.pi * t * np.arange(1, count + 1)
    low, nodes = np.count_nonzero(nu <= nu_hi), _FAR_NODES + 2 * level
    exact = min(low, _EXACT_MATSUBARA)
    shifts, weights = [nu[:exact] ** 2], [np.full(exact, 2.0 * t)]
    if low > exact:
        span = max(math.log(nu_hi / nu[exact]), _EPS)
        u, c = _gauss(np.log(nu[exact:low]), np.full(low - exact, 2.0 * t),
                      math.ceil(2**level * _GAUSS_DIGITS / (2.0 * math.asinh(math.pi / span))))
        shifts.append(np.exp(2.0 * u))
        weights.append(c)
    tau, c = _gauss((nu_hi / nu[low:]) ** 2, 2.0 * t / nu[low:] ** 2, nodes)
    shifts.append(nu_hi**2 / tau)
    weights.append(c * nu_hi**2 / tau)
    star = 2.0 * math.pi * t * (count + 0.5)
    sig, g = np.polynomial.legendre.leggauss(nodes)
    sig = (sig + 1.0) / 2.0
    shifts += [star**2 / sig**2, np.array([star - math.pi * t, star + math.pi * t]) ** 2]
    weights += [g * star / (2.0 * math.pi * sig**2), np.array([-t / 12.0, t / 12.0])]
    return np.concatenate(shifts), np.concatenate(weights)


def _gauss(x: np.ndarray, w: np.ndarray, nodes: int):
    """Gauss rule (points, weights) of the measure sum_i w_i delta(. - x_i),
    w_i > 0, with ``nodes`` points (or the atoms themselves, if no more):
    the eigenpairs of its Jacobi matrix, from Lanczos on diag(x) started at
    sqrt(w) and fully reorthogonalized (Golub & Welsch, Math. Comp. 23, 221
    (1969))."""
    if len(x) <= nodes:
        return x, w
    total = w.sum()
    q = np.sqrt(w / total)
    basis = np.empty((nodes, len(x)))
    jacobi = np.zeros((nodes, nodes))
    for i in range(nodes):
        basis[i] = q
        v = x * q
        jacobi[i, i] = q @ v
        for _ in range(2):
            v -= basis[:i + 1].T @ (basis[:i + 1] @ v)
        if i + 1 < nodes:
            jacobi[i, i + 1] = jacobi[i + 1, i] = beta = np.linalg.norm(v)
            q = v / beta
    points, vec = np.linalg.eigh(jacobi)
    return points, total * vec[0] ** 2


def _quantum_gap(om, a, w, shifts, weights, inv):
    """Delta's quantum remainder on Q and on P, each as (U, lam) with U
    orthonormal and U diag(lam) U^T the remainder to rounding, from the
    columns ``a`` (the sampled x rows of A) and ``w`` (the p rows of W^T)
    and a rule sum_j weights_j / (omega^2 + shifts_j), inv the (N+2) x J
    table of 1 / (omega^2 + s_j).

    Each term's gap (Omega^2 + s)^-1 - W_b (D + s)^-1 W_b^T on Q, with W_b
    the bath columns of W and D = diag(w_k^2), is
    X (X0^T X - diag(0, S_B / s))^-1 X^T, X = (Omega^2 + s)^-1 X0 and X0 =
    [a, a - w S_B]: with G = K + s B^-1, A (Omega^2 + s)^-1 A^T = G^-1 and
    W^T (Omega^2 + s)^-1 W = B^-1 G^-1 B^-1, so the gap is W (G^-1 - bath
    block's inverse) W^T, and the bath block of G is D + s plus s C^T
    S_B^-1 C, S_B = (w^T w)^-1 the momentum block's Schur complement
    (Woodbury).  On P, Omega^2 (Omega^2 + s)^-1 - A_b^T D (D + s)^-1 A_b
    is the same with M = B + s K^-1 for G: X = Omega^2 (Omega^2 + s)^-1 X0,
    X0 = [w, w - Omega^-2 a S_K], S_K = (a^T Omega^-2 a)^-1.  No product
    meets a bath column.  Every X lies in the span of w and of
    (Omega^2 + s_j)^-1 a and w (``_resolvent_basis``), onto which the
    weighted sum of the terms is projected and factored, keeping the
    eigenvalues above _RANGE_CUT of the largest."""
    k, om_sq = a.shape[1], om**2
    s_b = np.linalg.inv(w.T @ w)
    s_k = np.linalg.inv((a.T / om_sq) @ a)
    basis = _resolvent_basis(np.hstack([a, w]), om_sq, inv, shifts)
    n, width = len(om), basis.shape[1]
    factors = []
    for x0, scale, schur in ((np.hstack([a, a - w @ s_b]), inv, s_b),
                             (np.hstack([w, w - (a / om_sq[:, None]) @ s_k]),
                              om_sq[:, None] * inv, s_k)):
        size = x0.shape[1]
        gram = (scale.T @ (x0[:, :, None] * x0[:, None, :]).reshape(n, -1)).reshape(-1, size, size)
        gram[:, k:, k:] -= schur / shifts[:, None, None]
        mid = np.linalg.inv(gram) * weights[:, None, None]
        # V^T X_j, as (shift, basis column, column of X0)
        proj = np.stack([(col[:, None] * scale).T @ basis for col in x0.T], axis=2)
        side = (proj @ mid).transpose(1, 0, 2).reshape(width, -1)
        lam, vec = np.linalg.eigh(side @ proj.transpose(1, 0, 2).reshape(width, -1).T)
        keep = np.abs(lam) > _RANGE_CUT * np.abs(lam).max()
        factors.append((basis @ vec[:, keep], lam[keep]))
    return factors


def _resolvent_basis(seed: np.ndarray, om_sq: np.ndarray, inv: np.ndarray,
                     shifts: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning ``seed`` and (Omega^2 + s_j)^-1 seed at
    every shift, the seed's own basis first, so that parallel columns (w
    and a for position coupling) count once.  A shift above the seed's mean
    omega^2 enters as Omega^2 (Omega^2 + s)^-1 seed, the same span less
    the seed, so that P's columns, which are of that form and small beside
    the seed there, are held to working precision too."""
    seed = _orthonormal(seed)
    pivot = float(np.sum(om_sq[:, None] * seed**2)) / seed.shape[1]
    scale = np.where(shifts < pivot, inv, om_sq[:, None] * inv)
    columns = (seed[:, :, None] * scale[:, None, :]).reshape(len(seed), -1)
    return _orthonormal(np.hstack([seed, columns]))


# columns per block of _orthonormal's block Gram-Schmidt
_BLOCK = 16


def _orthonormal(cols: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the span of ``cols``, each scaled to unit
    norm, less directions below _BASIS_CUT: block classical Gram-Schmidt
    run twice per block (BCGS2), each block's remainder factored by QR and
    an SVD of R, its directions above the cut projected once more and
    renormalized.  Most of the work is then matrix products: one QR of the
    98 columns of the shipped symmetric channel took about three times as
    long (N = 597, two cores, OpenBLAS)."""
    cols = cols / np.linalg.norm(cols, axis=0)
    basis = np.empty((len(cols), 0))
    for lo in range(0, cols.shape[1], _BLOCK):
        x = cols[:, lo:lo + _BLOCK]
        for _ in range(2):
            x = x - basis @ (basis.T @ x)
        x = x[:, np.linalg.norm(x, axis=0) > _BASIS_CUT]
        if x.shape[1]:
            q, r = np.linalg.qr(x)
            u, sig, _ = np.linalg.svd(r)
            new = q @ u[:, sig > _BASIS_CUT]
            basis = np.hstack([basis, np.linalg.qr(new - basis @ (basis.T @ new))[0]])
    return basis


def _free_minus(drift: DriftMatrix) -> tuple[float, float] | None:
    """The drift's (m_minus, omega_minus) if H leaves its minus pair free, else None.

    x- and p- are odd under exchanging the oscillators and every other
    coordinate is even, so their rows of H touch nothing but themselves
    exactly when the exchange leaves the system block and couplings unchanged.
    """
    swap = [2, 3, 0, 1]
    free = (np.array_equal(drift.system[swap][:, swap], drift.system)
            and np.array_equal(drift.couplings[swap], drift.couplings))
    return drift._minus_scales if free else None


def normal_modes(drift: DriftMatrix) -> NormalModes:
    """Real normal modes in O(N^2) when H couples through positions only or
    through a beam splitter, else one real symmetric eigh of size N+2
    around an O(N^2) factor.

    The momentum block is an arrowhead, B = [[B_ss, C], [C^T, I]] (a unit-mass
    bath), so with the 2x2 Schur complement S = B_ss - C C^T the factor
    L = [[chol S, C], [0, I]] has L L^T = B.

    Position coupling (decided here from the blocks, once per drift) has B
    diagonal and both system rows coupled to the bath through the same
    mass-weighted vector.  In the mass-weighted (x+, x-, bath) coordinates
    only x+ touches the bath, and x- touches x+ alone, so L^T K L is an
    arrowhead with tip x+: its modes solve a secular equation
    (``_arrowhead``).  The symmetric model at c12 = c12_tilde (decided
    from the blocks too, ``_beam_scales``) couples its plus oscillator to
    each bath mode through a beam splitter, so its frequencies are the
    eigenvalues of a first-order arrowhead solved the same way, with the
    free x- an uncoupled pole (``_beam_splitter_modes``).  Any other H (the
    symmetric model at c12 != c12_tilde, hand-built ones) forms L^T K L,
    A = L U and W = U^T L^-1 with row and column scalings plus n x 2 by
    2 x n products, around one ``eigh``.  The two secular routes return
    omega and the system rows of A and W, the whole matrices formed on
    first read; the eigh route forms them.  Whether the minus pair is free
    is decided here too (``_free_minus``).  A drift is stable when made;
    the refusals here (``UnstableHamiltonianError``) guard the boundary
    against rounding.
    """
    h_sys, cx, c = drift.system, drift.couplings[0::2], drift.couplings[1::2]
    freq = drift.bath.frequencies
    try:
        low = np.linalg.cholesky(h_sys[1::2, 1::2] - c @ c.T)
    except np.linalg.LinAlgError as err:
        raise UnstableHamiltonianError(
            "momentum block of H not positive definite; no normal-mode form"
        ) from err
    l_sys = np.diagonal(low)
    if not np.any(c) and low[1, 0] == 0.0 and np.array_equal(l_sys[0] * cx[0], l_sys[1] * cx[1]):
        w_sq, *rows = _position_modes(h_sys[0::2, 0::2], cx[0], freq**2, l_sys)
        return NormalModes(np.sqrt(w_sq), *rows, _free_minus(drift))
    if (scales := _beam_scales(drift)) is not None:
        return NormalModes(*_beam_splitter_modes(cx[0], freq, *scales), scales[1])
    k = np.diag(np.concatenate([np.zeros(2), freq**2]))  # the (N+2)^2 position block K of H
    k[:2, :2], k[:2, 2:], k[2:, :2] = h_sys[0::2, 0::2], cx, cx.T
    w_sq, a, w = _factored_modes(k, low, c)
    return NormalModes.from_matrices(np.sqrt(w_sq), a, w, _free_minus(drift))


def _beam_scales(drift: DriftMatrix):
    """((m+, omega+), (m-, omega-)) if H is a free minus pair beside a plus
    oscillator that meets each bath mode through a beam splitter, else None.

    The free pair (``_free_minus``) has equal x1/x2 and p1/p2 bath rows.
    The plus-bath terms sqrt(2) (c_k x+ q_k + cp_k p+ pi_k) conserve quanta
    when cp_k m+ omega+ omega_k = c_k for the unit-mass bath (no a+ b_k or
    a+^dag b_k^dag terms), which is checked to 8 eps relative.  An x+ or x-
    without stiffness is left to the eigh route, which refuses it.
    """
    h_sys = drift.system
    # x+ and x- have stiffness K11 +- K12 once K11 = K22 (a free pair)
    if h_sys[0, 0] <= abs(h_sys[0, 2]) or (minus := _free_minus(drift)) is None:
        return None
    plus = mode_scales(h_sys, +1.0)
    c, cp = drift.couplings[0], drift.couplings[1]
    mw = plus[0] * plus[1] * drift.bath.frequencies
    if not np.all(np.abs(cp * mw - c) <= 8.0 * _EPS * np.abs(c)):
        return None
    return plus, minus


def _beam_splitter_modes(c, freq, plus, minus):
    """(omega, A_s, W_s, form) of a beam-form H (``_beam_scales``), in
    O(N^2): the system rows of A and columns of W, and ``form()``, which
    gives the whole (A, W).

    In the quadratures X_i = sqrt(m_i omega_i) x_i, P_i = p_i / sqrt(m_i
    omega_i) of (x+, x-, bath), H = (X^T M X + P^T M P) / 2 with the
    first-order arrowhead M = [[omega+, g], [g, diag(omega-, omega_k)]],
    g = (0, sqrt(2) c_k / sqrt(m+ omega+ omega_k)): the free x- is a pole
    without coupling, which ``_arrowhead`` deflates.  M = U diag(lam)
    U^T gives the frequencies lam and A_ij = u_ij sqrt(lam_j / (m_i
    omega_i)), W^T_ij = u_ij sqrt(m_i omega_i / lam_j), whose x+ and x-
    rows ``_unmix`` takes to x1 and x2.
    """
    root_mw = np.sqrt(np.concatenate([[plus[0] * plus[1], minus[0] * minus[1]], freq]))
    border = np.concatenate([[0.0], math.sqrt(2.0) * c / (root_mw[0] * root_mw[2:])])
    lam, vectors = _arrowhead(plus[1], border, np.concatenate([[minus[1]], freq]))
    root_lam = np.sqrt(lam)

    def scaled(u):
        a = u * root_lam
        a /= root_mw[:len(u), None]
        u /= root_lam
        u *= root_mw[:len(u), None]
        return _unmix(a), _unmix(u).T

    return (lam, *scaled(vectors((0, 1))), lambda: scaled(vectors()))


def _unmix(rows: np.ndarray) -> np.ndarray:
    """``rows`` with its x+ and x- rows (0 and 1) replaced in place by x1 and
    x2: x1 = (x+ + x-)/sqrt(2) and x2 = (x+ - x-)/sqrt(2)."""
    plus, minus = rows[0] / math.sqrt(2.0), rows[1] / math.sqrt(2.0)
    rows[0], rows[1] = plus + minus, plus - minus
    return rows


def _factored_modes(k, low, c):
    """(omega^2, A, W) from one eigh of L^T K L, L = [[low, C], [0, I]], low = chol S."""
    # (L^T K) L in that order: with C = 0 it rounds as the dense product did
    lk = np.empty_like(k)
    lk[:2] = low.T @ k[:2]
    lk[2:] = c.T @ k[:2] + k[2:]
    m = np.empty_like(k)
    m[:, :2] = lk[:, :2] @ low
    m[:, 2:] = lk[:, :2] @ c + lk[:, 2:]
    w_sq, u = np.linalg.eigh(m)
    if w_sq[0] <= 0.0:
        raise UnstableHamiltonianError(
            f"normal-mode frequency^2 {w_sq[0]:.3e} <= 0; no normal-mode form"
        )
    a = u.copy()
    a[:2] = low @ u[:2] + c @ u[2:]
    w = np.empty_like(u)
    w[:, :2] = np.linalg.solve(low.T, u[:2]).T
    w[:, 2:] = u[2:].T - w[:, :2] @ c
    return w_sq, a, w


def _position_modes(k_ss, c, w_sq_bath, l_sys):
    """(omega^2, A_s, W_s, form) of a position-coupled H, L = diag(l_sys, I)
    (unit-mass bath), as ``_beam_splitter_modes`` returns them.

    With y = x / L, M = L K L has equal system-bath rows v, so in the
    (y+, y-, bath) coordinates, y± = (y1 ± y2)/sqrt(2), it is the arrowhead
    with tip y+ (stiffness a++), border (a+-, sqrt(2) v) and poles
    (a--, w_k^2).  A = L R U and W = U^T R^T L^-1, R the ± rotation.
    """
    m_ss = l_sys[:, None] * k_ss * l_sys
    mean, half = (m_ss[0, 0] + m_ss[1, 1]) / 2.0, (m_ss[0, 0] - m_ss[1, 1]) / 2.0
    border = np.empty(len(c) + 1)
    border[0] = half
    border[1:] = math.sqrt(2.0) * l_sys[0] * c
    poles = np.empty_like(border)
    poles[0] = mean - m_ss[0, 1]
    poles[1:] = w_sq_bath
    w_sq, vectors = _arrowhead(mean + m_ss[0, 1], border, poles)

    def scaled(u):
        _unmix(u)
        a = np.concatenate([u[:2] * l_sys[:, None], u[2:]])
        u[:2] /= l_sys[:, None]
        return a, u.T

    return (w_sq, *scaled(vectors((0, 1))), lambda: scaled(vectors()))


# secular tables are (block, K) for a block of roots or poles; K * block
# stays near this many doubles (512 kB, which stays in cache)
_SECULAR_TABLE = 1 << 16
_SECULAR_MAX_ITER = 50
_EPS = np.finfo(float).eps


def _arrowhead(alpha: float, border: np.ndarray, poles: np.ndarray):
    """Eigenvalues (ascending) of the symmetric arrowhead [[alpha,
    border^T], [border, diag(poles)]] in O(n^2), and ``vectors(rows)``,
    which forms the given rows (the tip is row 0) of its orthonormal
    eigenvectors in O(n) each, or all of them.

    A border entry below tol = 8 eps ||M|| is dropped, and two poles less
    than tol apart share one coupling after a Givens rotation (as LAPACK
    dlaed2 deflates): each pole left uncoupled is an eigenvalue.  The
    live poles p_j > 0 with weights z_j^2 = border_j^2 / p_j, and the pole
    0 with z_0^2 = alpha - sum z_j^2 (the Schur complement, which must be
    > 0), make the rank-one problem diag(0, p) + z z^T with the same
    eigenvalues; ``_secular_roots`` solves it.  Each eigenvector is
    (-1, bh_j / (p_j - lam)) normalized, with bh from the computed roots
    (Loewner; Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172 (1995)),
    so the vectors are orthogonal to working precision.  bh and the norms
    come from one pass over the gaps, which keeps no vector.
    """
    n = len(poles)
    if poles.min() <= 0.0:
        raise UnstableHamiltonianError(
            f"arrowhead pole {poles.min():.3e} <= 0: an uncoupled mode without a positive "
            "frequency; no normal-mode form"
        )
    border = border.copy()
    tol = 8.0 * _EPS * max(abs(alpha), float(poles.max()), math.sqrt(border @ border))
    border[np.abs(border) <= tol] = 0.0

    def by_pole(idx):
        return idx[np.argsort(poles[idx], kind="stable")]

    live = by_pole(np.flatnonzero(border))
    rotations = []  # (i, j, c, s): slot i holds c e_i - s e_j, slot j s e_i + c e_j
    for at in np.flatnonzero(np.diff(poles[live]) <= tol):
        i, j = live[at], live[at + 1]
        r = math.hypot(border[i], border[j])
        rotations.append((i, j, border[j] / r, border[i] / r))
        border[i], border[j] = 0.0, r
    live = by_pole(np.flatnonzero(border))
    deflated = np.setdiff1d(np.arange(n), live)
    p, b2 = poles[live], border[live] ** 2
    z0_sq = alpha - float(np.sum(b2 / p))
    if z0_sq <= 0.0:
        raise UnstableHamiltonianError(
            f"arrowhead Schur complement {z0_sq:.3e} <= 0: the lowest normal-mode "
            "frequency is not positive; no normal-mode form"
        )
    pole = np.concatenate([[0.0], p])
    origin, tau = _secular_roots(pole, np.concatenate([[z0_sq], b2 / p]))
    lam = np.concatenate([pole[origin] + tau, poles[deflated]])
    order = np.argsort(lam, kind="stable")
    col = np.empty(n + 1, dtype=np.intp)
    col[order] = np.arange(n + 1)
    sec = col[:len(p) + 1]
    bh = np.empty(len(p))
    sq = np.ones(n + 1)  # squared norms of the secular columns
    step = max(1, _SECULAR_TABLE // len(pole))
    for lo in range(0, len(p), step):
        blk = slice(lo, lo + step)
        gap = (p[blk, None] - pole[origin]) - tau  # p_j - lam_i
        bh[blk] = np.sqrt(_loewner_sq(gap, p[blk], p, lo)) * np.sign(border[live[blk]])
        vec = np.divide(bh[blk, None], gap, out=gap)
        sq[sec] += np.einsum("ji,ji->i", vec, vec)

    def vectors(rows=None):
        # the wanted rows, and every row a rotation mixes into one of them
        want = set(range(n + 1) if rows is None else rows)
        pairs = [{i + 1, j + 1} for i, j, _, _ in rotations]
        for _ in pairs:
            want = want.union(*[pair for pair in pairs if pair & want])
        slot = np.full(n + 1, -1)
        slot[sorted(want)] = np.arange(len(want))
        u = np.zeros((len(want), n + 1))
        if slot[0] >= 0:
            u[slot[0], sec] = -1.0
        held = slot[deflated + 1] >= 0
        u[slot[deflated[held] + 1], col[len(p) + 1:][held]] = 1.0
        formed = np.flatnonzero(slot[live + 1] >= 0)
        for lo in range(0, len(formed), step):
            j = formed[lo:lo + step]
            u[np.ix_(slot[live[j] + 1], sec)] = bh[j, None] / ((p[j, None] - pole[origin]) - tau)
        u /= np.sqrt(sq)
        for i, j, c, s in reversed(rotations):
            if slot[i + 1] >= 0:
                ui, uj = u[slot[i + 1]], u[slot[j + 1]]
                u[slot[i + 1]], u[slot[j + 1]] = c * ui + s * uj, c * uj - s * ui
        return u if rows is None else u[slot[list(rows)]]

    return lam[order], vectors


def _loewner_sq(gap, pj, p, lo):
    """bh_j^2 for the live poles ``pj`` = p[lo:lo + len(pj)] from their gaps
    p_j - lam_i to every root: -prod_i (p_j - lam_i) / prod_(k != j) (p_j - p_k),
    as |p_j - lam_0| |p_j - lam_j| times the ratios (p_j - lam_k) / (p_j - p_k)."""
    rows = np.arange(len(pj))
    denom = pj[:, None] - p
    denom[rows, lo + rows] = gap[rows, lo + rows + 1]  # ratio 1 at k = j
    return np.abs(gap[:, 0] * gap[rows, lo + rows + 1] * np.prod(gap[:, 1:] / denom, axis=1))


def _secular_roots(pole: np.ndarray, z_sq: np.ndarray):
    """Roots of f(lam) = 1 + sum_j z_sq_j / (pole_j - lam), the eigenvalues
    of diag(pole) + z z^T, for ascending poles and z_sq > 0.

    Root i lies in (pole_i, pole_i+1), the last in (pole_-1, pole_-1 +
    sum z_sq).  Each is kept as (origin, tau), root = pole[origin] + tau,
    with the origin the nearer pole, so every gap pole_j - root is
    (pole_j - pole[origin]) - tau to high relative accuracy.  The start is
    LAPACK dlaed4's two-pole guess at the bracket's midpoint; the steps are
    its fixed-weight (middle way) rational steps, bisecting whenever one
    leaves the bracket, over the still-live roots of a block at once.  A
    root has converged when |f| is within the rounding of its evaluation
    or the step is below the rounding of tau.
    """
    size = len(pole)
    if size == 1:
        return np.zeros(1, dtype=np.intp), z_sq.copy()
    total = float(np.sum(z_sq))
    origin = np.empty(size, dtype=np.intp)
    tau = np.empty(size)
    step = max(1, _SECULAR_TABLE // size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, size, step):
            idx = np.arange(start, min(size, start + step))
            origin[idx], tau[idx] = _secular_block(pole, z_sq, total, idx)
    return origin, tau


def _secular_block(pole, z_sq, total, idx):
    """(origin, tau) of the roots ``idx`` of ``_secular_roots``."""
    size = len(pole)
    lo = np.minimum(idx, size - 2)
    hi = lo + 1
    last = idx == size - 1
    gap = pole[hi] - pole[lo]
    half = np.where(last, total / 2.0, gap / 2.0)
    zlo, zhi = z_sq[lo], z_sq[hi]
    # f at the midpoint, from the pole below the root
    below = np.where(last, pole[hi], pole[lo])
    w = z_sq / ((pole - below[:, None]) - half[:, None])
    f_mid = 1.0 + w.sum(axis=1)
    rows = np.arange(len(idx))
    c = f_mid - w[rows, lo] - w[rows, hi]
    # the two-pole model c + zlo/(p_lo - lam) + zhi/(p_hi - lam) = 0
    left = ~last & (f_mid > 0.0)  # root nearer p_lo: origin p_lo, tau in (0, half)
    a_l = c * gap + zlo + zhi
    b_l = zlo * gap
    disc_l = np.sqrt(np.abs(a_l * a_l - 4.0 * b_l * c))
    tau_l = np.where(a_l > 0.0, 2.0 * b_l / (a_l + disc_l), (a_l - disc_l) / (2.0 * c))
    a_r = -c * gap + zlo + zhi
    b_r = zhi * gap
    disc_r = np.sqrt(np.abs(a_r * a_r + 4.0 * b_r * c))
    tau_r = np.where(a_r > 0.0, -2.0 * b_r / (a_r + disc_r), (a_r - disc_r) / (2.0 * c))
    tau_last = np.where(a_r < 0.0, 2.0 * b_r / (disc_r - a_r), (a_r + disc_r) / (2.0 * c))
    beyond = last & (f_mid <= 0.0)  # last root past the midpoint
    tau_last = np.where(beyond & (c <= zlo / (gap + total) + zhi / total), total, tau_last)
    tau = np.where(left, tau_l, np.where(last, tau_last, tau_r))
    lower = np.where(left, 0.0, np.where(last, np.where(beyond, half, 0.0), -half))
    upper = np.where(left, half, np.where(last, np.where(beyond, total, half), 0.0))
    origin = np.where(left, lo, hi)
    # iterate on the roots still live, in two reused tables
    live = np.arange(len(idx))
    shifted = pole - pole[origin][:, None]
    inv, work = np.empty_like(shifted), np.empty_like(shifted)
    for _ in range(_SECULAR_MAX_ITER):
        lv, t = live, tau[live]
        r = np.arange(len(lv))
        delta = np.subtract(shifted, t[:, None], out=inv[:len(lv)])
        d_lo, d_hi = delta[r, lo[lv]], delta[r, hi[lv]]
        np.reciprocal(delta, out=delta)
        f = 1.0 + delta @ z_sq
        df = np.multiply(delta, delta, out=work[:len(lv)]) @ z_sq
        spread = np.abs(delta, out=work[:len(lv)]) @ z_sq  # sum_j |z_sq_j / delta_j|
        done = np.abs(f) <= _EPS * (16.0 * spread + 2.0 + np.abs(t) * df)
        g, l_last = gap[lv], last[lv]
        cc = np.where(left[lv], f - d_hi * df + g * zlo[lv] / d_lo**2,
                      f - d_lo * df - g * zhi[lv] / d_hi**2)
        aa = (d_lo + d_hi) * f - d_lo * d_hi * df
        bb = d_lo * d_hi * f
        cc = np.where(l_last, np.abs(cc), cc)
        disc = np.sqrt(np.abs(aa * aa - 4.0 * bb * cc))
        eta = np.where(aa <= 0.0, (aa - disc) / (2.0 * cc), 2.0 * bb / (aa + disc))
        eta_last = np.where(aa >= 0.0, (aa + disc) / (2.0 * cc), 2.0 * bb / (aa - disc))
        eta = np.where(l_last, eta_last, eta)
        eta = np.where((f * eta >= 0.0) | ~np.isfinite(eta), -f / df, eta)
        right = f < 0.0  # the root lies above t
        lower[lv] = np.where(right, np.maximum(lower[lv], t), lower[lv])
        upper[lv] = np.where(right, upper[lv], np.minimum(upper[lv], t))
        new = t + eta
        new = np.where((new >= upper[lv]) | (new <= lower[lv]),
                       (np.where(right, upper[lv], lower[lv]) + t) / 2.0, new)
        tau[lv] = np.where(done, t, new)
        done |= np.abs(new - t) <= 2.0 * _EPS * np.abs(new)
        live, shifted = live[~done], shifted[~done]
        if not len(live):
            return origin, tau
    raise NumericalError(f"secular equation: {len(live)} roots did not converge")


def evolve(
    v0: CovarianceMatrix, drift: DriftMatrix, cfg: EvolutionConfig, rk4: bool = False
) -> tuple[np.ndarray, list[CovarianceMatrix]]:
    """Full-covariance time series at the configured sample times, by the
    normal-mode propagator or, with ``rk4``, by the RK4 oracle: V <- hop V
    hop^T per sample, RK4 on every phase-space trajectory, with hop the
    step matrix raised to the steps per sample."""
    v0.require(Ordering.FULL)
    if v0.dim != drift.dim:
        raise ValueError("state and drift dimensions differ")
    check_recurrence(cfg.t_max, drift.bath.recurrence_time)
    times = cfg.sample_times()
    if not rk4:
        modes = drift.normal_modes
        out = []
        for t in times:
            s = modes.propagator(float(t))
            out.append(CovarianceMatrix(_symmetrize(s @ v0.matrix @ s.T), Ordering.FULL))
        return times, out
    hop = _rk4_hop(drift, cfg)
    out = [v0]
    for _ in times[1:]:
        out.append(CovarianceMatrix(_symmetrize(hop @ out[-1].matrix @ hop.T), Ordering.FULL))
    return times, out


def _symmetrize(v: np.ndarray) -> np.ndarray:
    return 0.5 * (v + np.swapaxes(v, -1, -2))


def _rk4_hop(drift: DriftMatrix, cfg: EvolutionConfig) -> np.ndarray:
    """The moment route's RK4 step matrix of K over one sample stride: each
    dt is ``whole_steps`` equal steps, none above RK4_STEP_FACTOR / (fastest
    bath frequency)."""
    n = whole_steps(cfg.dt, float(drift.bath.frequencies[-1]), RK4_STEP_FACTOR)
    return np.linalg.matrix_power(step_matrix(drift.k, cfg.dt / n), n * cfg.sample_stride)


# ---------------------------------------------------------------------------
# Negativity traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NegativityTrace:
    """Entanglement and Normal-ordered second moments along an evolution."""

    times: np.ndarray
    e_n: np.ndarray
    dx_plus_sq: np.ndarray
    dp_plus_sq: np.ndarray
    dx_minus_sq: np.ndarray
    dp_minus_sq: np.ndarray


def negativity_trace(
    system_v: CovarianceMatrix, drift: DriftMatrix, cfg: EvolutionConfig
) -> NegativityTrace:
    """E_N(t) and plus/minus dispersions from the exact evolution: the
    drift's reduced channel, sampled once per plan, applied to ``system_v``.
    Every recorded reduced state is checked for physicality.
    """
    require_two_mode(system_v)
    check_recurrence(cfg.t_max, drift.bath.recurrence_time)
    times = cfg.sample_times()
    return _trace_from_blocks(times, drift.reduced_channel(times).blocks(system_v))


def _trace_from_blocks(times: np.ndarray, v: np.ndarray) -> NegativityTrace:
    require_physical(v, REDUCED_PHYSICALITY_ATOL)
    nm = mix_modes(v)
    return NegativityTrace(
        np.asarray(times, dtype=float), log_negativities(v),
        nm[:, 0, 0], nm[:, 1, 1], nm[:, 2, 2], nm[:, 3, 3],
    )


# ---------------------------------------------------------------------------
# Invariant helpers (used by tests and the validate subcommand)
# ---------------------------------------------------------------------------

def symplecticity_defect(s: np.ndarray) -> float:
    """max |S J S^T - J| for a candidate symplectic matrix."""
    j = symplectic_form(s.shape[0])
    return float(np.abs(s @ j @ s.T - j).max())


def energy_of(drift: DriftMatrix, v: CovarianceMatrix) -> float:
    """Mean energy tr(H V) of a zero-mean Gaussian state."""
    return float(np.trace(drift.hamiltonian @ v.matrix))
