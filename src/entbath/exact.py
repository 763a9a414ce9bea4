"""Exact evolution of the full system+bath covariance matrix.

The total Hamiltonian is quadratic, H = (1/2) r^T H r over the FULL-ordered
phase-space vector (x1, p1, x2, p2, q1, pi1, ...), so the covariance obeys
the Lyapunov equation dV/dt = K V + V K^T with drift K = J H.  Two
integration paths are provided: a normal-mode propagator S(t) = exp(Kt)
(exactly symplectic, arbitrary t) and, as an independent cross-check, the
RK4 step matrix raised to the stride by squaring.  Both coupling models
leave H without x-p cross terms, H = x^T K x / 2 + p^T B p / 2, so their
normal modes are real and second order: one Cholesky factor of the momentum
block B and one real symmetric eigensolve of size N+2, computed once per
drift and cached on it.  The reduced dynamics is a channel
V_s(t) = Z V_s(0) Z^T + N(t) whose Z and N do not depend on the system
state; the drift keeps the channel of its latest sampling plan, so each
further state costs one 4x4 congruence per sample.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat

import numpy as np

from .bath import DiscreteBath, thermal_bath_covariance, thermal_bath_variances
from .errors import (
    RecurrenceWindowError,
    StepSizeError,
    UnphysicalStateError,
    UnstableHamiltonianError,
)
from .gaussian import (
    CovarianceMatrix,
    Ordering,
    OscillatorParams,
    log_negativities,
    mix_modes,
    symplectic_eigenvalues,
    symplectic_form,
)

RECURRENCE_MARGIN = 0.8
RK4_STEP_FACTOR = 0.05
REDUCED_PHYSICALITY_ATOL = 1e-9
_PSD_TOL = 1e-10


class Integrator(enum.Enum):
    RK4 = "rk4"
    NORMAL_MODE = "normal_mode"


@dataclass(frozen=True)
class EvolutionConfig:
    """Sampling plan for one evolution.

    ``dt`` is the RK4 step (also the sample spacing before striding); the RK4
    path raises its step matrix to the stride by squaring, and the
    normal-mode path evaluates S(t) directly at the sample times.
    """

    t_max: float
    dt: float
    sample_stride: int = 1
    integrator: Integrator = Integrator.NORMAL_MODE

    def __post_init__(self) -> None:
        if self.t_max <= 0 or self.dt <= 0:
            raise ValueError("t_max and dt must be positive")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")

    def sample_times(self) -> np.ndarray:
        return self.dt * np.arange(0, int(round(self.t_max / self.dt)) + 1, self.sample_stride)


@dataclass(frozen=True)
class DriftMatrix:
    """Drift K = J H of the Lyapunov equation plus the decoupled minus mode.

    ``m_minus``/``omega_minus`` are ``mode_scales`` of the drift's system
    block: the bath-free minus oscillator of the (bare) model.  The
    normal modes are computed on first use and kept, so a drift is
    factorized at most once however many states are evolved with it.
    """

    k: np.ndarray
    hamiltonian: np.ndarray
    bath: DiscreteBath
    model: str
    m_minus: float
    omega_minus: float

    def __post_init__(self) -> None:
        for name in ("k", "hamiltonian"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.k.shape[0]

    @cached_property
    def normal_modes(self) -> NormalModes:
        """Real second-order normal modes of the drift."""
        return normal_modes(self)

    def reduced_channel(self, times: np.ndarray) -> ReducedChannel:
        """Reduced channel at ``times``; the latest plan's is kept, keyed by times."""
        held = self.__dict__.get("_channel")
        if held is None or not np.array_equal(held.times, times):
            held = self.normal_modes.reduced_channel(thermal_bath_variances(self.bath), times)
            self.__dict__["_channel"] = held
        return held


def _drift_of(h: np.ndarray) -> np.ndarray:
    """K = J H: J swaps each (x, p) row pair of H and negates the p row."""
    k = np.empty_like(h)
    k[0::2], k[1::2] = h[1::2], -h[0::2]
    return k


def _check_stable(h: np.ndarray) -> None:
    """Refuse a total Hamiltonian that is not positive semidefinite.

    The bath block is diagonal in both models, so by the Schur complement
    H >= 0 exactly when every bath diagonal entry is positive and the 4x4
    system block H_ss - C D^-1 C^T is >= 0.  O(N) instead of a dense
    eigensolve; the tolerance is relative to max |H| as before.
    """
    h_ss, c, d = h[:4, :4], h[:4, 4:], np.diag(h)[4:]
    if d.min() <= 0.0:
        raise UnstableHamiltonianError(
            f"total Hamiltonian has bath diagonal entry {d.min():.3e} <= 0"
        )
    lo = float(np.linalg.eigvalsh(h_ss - (c / d) @ c.T)[0])
    scale = max(1.0, float(np.abs(h_ss).max()), float(np.abs(c).max()),
                float(d.max()))
    if lo < -_PSD_TOL * scale:
        raise UnstableHamiltonianError(
            f"total Hamiltonian has negative Schur-complement eigenvalue {lo:.3e}"
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


def _assemble(osc: OscillatorParams, bath: DiscreteBath, model: str, renormalize: bool):
    """Drift of either model: the system block, the diagonal bath block, the
    position couplings (x1 + x2) sum c_k q_k and, for the symmetric model,
    the momentum couplings ((p1 + p2)/(m w_b)) sum (c_k / m_k w_k) pi_k."""
    s = -bath.counterterm_sum(osc.m) if renormalize else 0.0
    h_sys, w_bare_sq = system_hamiltonian(osc, model, s)
    dim = 4 + 2 * bath.n_modes
    h = np.zeros((dim, dim))
    h[:4, :4] = h_sys
    iq = 4 + 2 * np.arange(bath.n_modes)
    h[iq, iq] = bath.masses * bath.frequencies**2
    h[iq + 1, iq + 1] = 1.0 / bath.masses
    c = bath.couplings
    h[0, iq] = h[iq, 0] = h[2, iq] = h[iq, 2] = c
    if model == "symmetric":
        cp = c / (osc.m * math.sqrt(w_bare_sq) * bath.masses * bath.frequencies)
        h[1, iq + 1] = h[iq + 1, 1] = h[3, iq + 1] = h[iq + 1, 3] = cp
    _check_stable(h)
    try:
        m_minus, omega_minus = mode_scales(h_sys)
    except ValueError as err:
        raise UnstableHamiltonianError(str(err)) from err
    return DriftMatrix(_drift_of(h), h, bath, model, m_minus, omega_minus)


def build_position_model(
    osc: OscillatorParams, bath: DiscreteBath, renormalize: bool = True
) -> DriftMatrix:
    """Drift matrix for bilinear position coupling (x1 + x2) sum c_k q_k;
    ``renormalize=False`` takes the configured system as bare."""
    return _assemble(osc, bath, "position", renormalize)


def build_symmetric_model(
    osc: OscillatorParams, bath: DiscreteBath, renormalize: bool = True
) -> DriftMatrix:
    """Drift matrix for coupling symmetric in position and momentum, with
    equal strengths; requires resonance (see ``system_hamiltonian``)."""
    return _assemble(osc, bath, "symmetric", renormalize)


def _require_two_mode(system_v: CovarianceMatrix) -> None:
    system_v.require(Ordering.PHYSICAL)
    if system_v.dim != 4:
        raise ValueError("system state must be two-mode")


def initial_covariance(system_v: CovarianceMatrix, bath: DiscreteBath) -> CovarianceMatrix:
    """Direct sum of a two-mode system state and the thermal bath state."""
    _require_two_mode(system_v)
    vb = thermal_bath_covariance(bath)
    dim = 4 + vb.dim
    v = np.zeros((dim, dim))
    v[:4, :4] = system_v.matrix
    v[4:, 4:] = vb.matrix
    return CovarianceMatrix(v, Ordering.FULL)


# ---------------------------------------------------------------------------
# Propagators
# ---------------------------------------------------------------------------

# samples per batched product in NormalModes.reduced_channel; bounds the
# working set to a few MB at N ~ 1200
SAMPLE_CHUNK = 128


@dataclass(frozen=True)
class ReducedChannel:
    """V_s(t) = Z V_s(0) Z^T + N at ``times``: ``z`` is the system block of S(t)
    and ``noise`` the thermal bath's part, (len(times), 4, 4) each, PHYSICAL order."""

    times: np.ndarray
    z: np.ndarray
    noise: np.ndarray

    def blocks(self, system_v: CovarianceMatrix) -> np.ndarray:
        """Reduced 4x4 covariance of ``system_v`` at every sample time."""
        _require_two_mode(system_v)
        return self.z @ system_v.matrix @ self.z.transpose(0, 2, 1) + self.noise


@dataclass(frozen=True)
class NormalModes:
    """Real normal modes of H = x^T K x / 2 + p^T B p / 2.

    Positions are ordered (x1, x2, q1, ..., qN) and momenta (p1, p2, pi1,
    ..., piN).  With B = L L^T and L^T K L = U diag(omega^2) U^T (U
    orthogonal), the coordinates Q = W x and P = A^T p, with A = L U and
    W = U^T L^-1, rotate freely, each at its omega, and x = A Q, p = W^T P:
    the exact normal modes of a linear bath (Ullersma, Physica 32, 27
    (1966)).  For position coupling L = M^(-1/2).
    """

    omega: np.ndarray
    a: np.ndarray
    w: np.ndarray

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

    def reduced_channel(self, bath_variances: np.ndarray, times: np.ndarray) -> ReducedChannel:
        """The reduced channel at ``times`` of a diagonal thermal bath.

        The four system rows of S(t) are built per chunk of samples as
        weights on Q and on P, then mapped to coefficients on the initial
        positions (through W) and momenta (through A^T).
        """
        om = self.omega
        n = len(om)
        g = self.a[:2]      # x_s(t) = g_s . (cos Q + sin P / omega)
        hs = self.w[:, :2].T  # p_s(t) = h_s . (-omega sin Q + cos P)
        zero = np.zeros(n)
        # cos(omega t) and sin(omega t) weights on Q of the rows in PHYSICAL
        # order (x1, p1, x2, p2), then on P of the same rows
        cos_w = np.array([g[0], zero, g[1], zero, zero, hs[0], zero, hs[1]])
        sin_w = np.array(
            [zero, -om * hs[0], zero, -om * hs[1], g[0] / om, zero, g[1] / om, zero]
        )
        times = np.array(times, dtype=float)

        def chunks():
            for lo in range(0, len(times), SAMPLE_CHUNK):
                phase = np.multiply.outer(times[lo:lo + SAMPLE_CHUNK], om)[:, None, :]
                rows = np.cos(phase) * cos_w + np.sin(phase) * sin_w
                yield ((rows[:, :4].reshape(-1, n) @ self.w).reshape(-1, 4, n),
                       (rows[:, 4:].reshape(-1, n) @ self.a.T).reshape(-1, 4, n))

        return _channel_from_rows(times, chunks(), bath_variances)


def _channel_from_rows(times: np.ndarray, chunks, bath_variances: np.ndarray) -> ReducedChannel:
    """The reduced channel from the four system rows of S(t).  ``chunks``
    yields, in sample order, their coefficients on the initial positions
    (x1, x2, q1, ...) and momenta (p1, p2, pi1, ...), (k, 4, N+2) each."""
    var_q, var_pi = bath_variances[0::2], bath_variances[1::2]
    z = np.empty((len(times), 4, 4))
    noise = np.empty_like(z)
    lo = 0
    for sx, sp in chunks:
        part = slice(lo, lo + len(sx))
        lo += len(sx)
        z[part] = np.stack([sx[..., 0], sp[..., 0], sx[..., 1], sp[..., 1]], axis=-1)
        bx, bp = sx[..., 2:], sp[..., 2:]
        noise[part] = (bx * var_q) @ bx.transpose(0, 2, 1)
        noise[part] += (bp * var_pi) @ bp.transpose(0, 2, 1)
    for arr in (times, z, noise):
        arr.flags.writeable = False
    return ReducedChannel(times, z, noise)


def normal_modes(drift: DriftMatrix) -> NormalModes:
    """One Cholesky factor and one real symmetric eigh of size N+2.

    Refuses a Hamiltonian with x-p cross terms (``ValueError``); neither
    coupling model has them.
    """
    h = drift.hamiltonian
    if np.any(h[0::2, 1::2]):
        raise ValueError("real second-order normal modes need H without x-p terms")
    try:
        low = np.linalg.cholesky(h[1::2, 1::2])
    except np.linalg.LinAlgError as err:
        raise UnstableHamiltonianError(
            "momentum block of H not positive definite; no normal-mode form"
        ) from err
    w_sq, u = np.linalg.eigh(low.T @ h[0::2, 0::2] @ low)
    if w_sq[0] <= 0.0:
        raise UnstableHamiltonianError(
            f"normal-mode frequency^2 {w_sq[0]:.3e} <= 0; no normal-mode form"
        )
    return NormalModes(np.sqrt(w_sq), low @ u, np.linalg.solve(low.T, u).T)


def check_recurrence(
    t_max: float, recurrence_time: float, *, label: str = "t_max",
    note: str = "; increase the bath mode count",
) -> None:
    """Refuse ``t_max`` beyond RECURRENCE_MARGIN of the recurrence time.

    ``label`` names the checked quantity and ``note`` ends the message.
    """
    limit = RECURRENCE_MARGIN * recurrence_time
    if t_max > limit:
        raise RecurrenceWindowError(
            f"{label}={t_max:g} exceeds {RECURRENCE_MARGIN} * recurrence time "
            f"= {limit:g}{note}"
        )


def check_rk4_step(
    dt: float, fastest: float, *, label: str = "RK4 dt", note: str = ""
) -> None:
    """Refuse an RK4 step above RK4_STEP_FACTOR / (fastest frequency)."""
    limit = RK4_STEP_FACTOR / fastest
    if dt > limit * (1.0 + 1e-12):
        raise StepSizeError(
            f"{label}={dt:g} exceeds {RK4_STEP_FACTOR}/Lambda = {limit:g}{note}"
        )


def evolve(
    v0: CovarianceMatrix, drift: DriftMatrix, cfg: EvolutionConfig
) -> tuple[np.ndarray, list[CovarianceMatrix]]:
    """Full-covariance time series at the configured sample times.  The RK4
    path takes V <- hop V hop^T per sample: RK4 on every phase-space
    trajectory, with hop the step matrix raised to the stride."""
    v0.require(Ordering.FULL)
    if v0.dim != drift.dim:
        raise ValueError("state and drift dimensions differ")
    check_recurrence(cfg.t_max, drift.bath.recurrence_time)
    times = cfg.sample_times()
    if cfg.integrator is Integrator.NORMAL_MODE:
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


def _rk4_step(k: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of dx/dt = K x as a matrix, in Horner form:
    T = I + hK (I + hK/2 (I + hK/3 (I + hK/4)))."""
    hk = dt * k
    eye = np.eye(k.shape[0])
    step = eye + hk / 4.0
    for order in (3.0, 2.0, 1.0):
        step = eye + (hk @ step) / order
    return step


def _rk4_hop(drift: DriftMatrix, cfg: EvolutionConfig) -> np.ndarray:
    """The RK4 step matrix raised to the sample stride, after the step refusal."""
    check_rk4_step(cfg.dt, float(drift.bath.frequencies[-1]))
    return np.linalg.matrix_power(_rk4_step(drift.k, cfg.dt), cfg.sample_stride)


def reduce_to_system(v_full: CovarianceMatrix) -> CovarianceMatrix:
    """Partial trace over the bath: the leading 4x4 block."""
    v_full.require(Ordering.FULL)
    return CovarianceMatrix(v_full.matrix[:4, :4], Ordering.PHYSICAL)


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
    xp_plus: np.ndarray


def negativity_trace(
    system_v: CovarianceMatrix, drift: DriftMatrix, cfg: EvolutionConfig
) -> NegativityTrace:
    """E_N(t) and plus/minus dispersions from the exact evolution.

    The normal-mode path applies the drift's reduced channel, sampled once
    per plan; the RK4 path builds its own from the system rows of hop^k, one
    row product per sample.  Every recorded reduced state is checked for
    physicality.
    """
    _require_two_mode(system_v)
    check_recurrence(cfg.t_max, drift.bath.recurrence_time)
    times = cfg.sample_times()
    if cfg.integrator is Integrator.RK4:
        hop = _rk4_hop(drift, cfg)
        rows = accumulate(repeat(hop, len(times) - 1), np.matmul, initial=np.eye(4, drift.dim))
        chunks = ((r[None, :, 0::2], r[None, :, 1::2]) for r in rows)
        channel = _channel_from_rows(times, chunks, thermal_bath_variances(drift.bath))
    else:
        channel = drift.reduced_channel(times)
    return _trace_from_blocks(times, channel.blocks(system_v))


def physicality_margins(blocks: np.ndarray) -> np.ndarray:
    """nu_min - 1/2 of each symmetrized block of a (k, 4, 4) stack."""
    return symplectic_eigenvalues(_symmetrize(blocks))[:, 0] - 0.5


def _trace_from_blocks(times: np.ndarray, blocks: np.ndarray) -> NegativityTrace:
    v, margin = _symmetrize(blocks), physicality_margins(blocks)
    bad = np.flatnonzero(margin < -REDUCED_PHYSICALITY_ATOL)
    if bad.size:
        raise UnphysicalStateError(
            f"smallest symplectic eigenvalue {0.5 + margin[bad[0]]:.3e} < 1/2"
        )
    nm = mix_modes(v)
    return NegativityTrace(
        np.asarray(times, dtype=float), log_negativities(v),
        nm[:, 0, 0], nm[:, 1, 1], nm[:, 2, 2], nm[:, 3, 3], 2.0 * nm[:, 0, 1],
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
