"""Gaussian-state algebra: covariance matrices, symplectic spectra and
logarithmic negativity.

Conventions (natural units, hbar = 1):

* phase-space vectors interleave position and momentum per mode,
* ``V_ij = <{r_i, r_j}>/2 - <r_i><r_j>``, so the vacuum is ``V = I/2``,
* a physical state has every symplectic eigenvalue >= 1/2.

Three orderings are used and every matrix carries a tag so they cannot be
mixed silently: ``PHYSICAL`` is ``(x1, p1, x2, p2)``, ``NORMAL`` is the
rotated ``(x+, p+, x-, p-)`` basis with ``x± = (x1 ± x2)/sqrt(2)``, and
``FULL`` is system-then-bath, ``(x1, p1, x2, p2, q1, pi1, ...)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OrderingError, UnphysicalStateError

SYMMETRY_RTOL = 1e-12
PHYSICALITY_ATOL = 1e-10


class Ordering(enum.Enum):
    PHYSICAL = "physical"
    NORMAL = "normal"
    FULL = "full"


def symplectic_form(dim: int) -> np.ndarray:
    """Block-diagonal symplectic form J with 2x2 blocks [[0, 1], [-1, 0]]."""
    if dim <= 0 or dim % 2:
        raise ValueError(f"symplectic form needs an even positive dim, got {dim}")
    return np.kron(np.eye(dim // 2), [[0.0, 1.0], [-1.0, 0.0]])


def _check_symmetric(matrix: np.ndarray) -> None:
    # one matrix or a stack, each checked against its own scale
    scale = np.maximum(1.0, np.abs(matrix).max(axis=(-2, -1)))
    diff = matrix - np.swapaxes(matrix, -1, -2)
    asym = np.abs(diff, out=diff).max(axis=(-2, -1))
    if np.any(asym > SYMMETRY_RTOL * scale):
        raise UnphysicalStateError("covariance matrix is not symmetric")


@dataclass(frozen=True)
class CovarianceMatrix:
    """A real symmetric matrix of second moments with an ordering tag.

    Immutable: the stored array is a read-only copy of the input.
    """

    matrix: np.ndarray
    ordering: Ordering

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError(f"covariance matrix must be even square, got {m.shape}")
        _check_symmetric(m)
        m = 0.5 * (m + m.T)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_modes(self) -> int:
        return self.dim // 2

    def require(self, ordering: Ordering) -> None:
        if self.ordering is not ordering:
            raise OrderingError(
                f"expected {ordering.value} ordering, got {self.ordering.value}"
            )

    def symplectic_eigenvalues(self) -> np.ndarray:
        return symplectic_eigenvalues(self)

    def is_physical(self, atol: float = PHYSICALITY_ATOL) -> bool:
        nu = symplectic_eigenvalues(self)
        return bool(nu[0] >= 0.5 - atol)

    def validate_physical(self, atol: float = PHYSICALITY_ATOL) -> None:
        nu = symplectic_eigenvalues(self)
        if nu[0] < 0.5 - atol:
            raise UnphysicalStateError(
                f"smallest symplectic eigenvalue {nu[0]:.3e} < 1/2"
            )


def _as_matrix(v: CovarianceMatrix | np.ndarray) -> np.ndarray:
    if isinstance(v, CovarianceMatrix):
        return v.matrix
    m = np.asarray(v, dtype=float)
    _check_symmetric(m)
    return m


def _two_mode_closed_form(v: np.ndarray) -> np.ndarray:
    # nu±² = (Δ̃ ± sqrt(Δ̃² − 4 det V))/2 with Δ̃ = det A + det B + 2 det C,
    # for a (k, 4, 4) stack at once
    delta = (
        np.linalg.det(v[:, :2, :2])
        + np.linalg.det(v[:, 2:, 2:])
        + 2.0 * np.linalg.det(v[:, :2, 2:])
    )
    det = np.linalg.det(v)
    root = np.sqrt(np.maximum(delta * delta - 4.0 * det, 0.0))
    hi = (delta + root) / 2.0
    # nu_min^2 = (delta - root)/2 cancels when 4 det << delta^2; the
    # algebraically equal quotient form det/hi is stable there
    lo = np.divide(det, hi, out=np.zeros_like(hi), where=hi > 0.0)
    return np.sqrt(np.clip(np.stack([lo, hi], axis=-1), 0.0, None))


def _eigensolver(m: np.ndarray) -> np.ndarray:
    # moduli of the eigenvalues of i J V come in equal pairs; keep one per mode
    eig = np.linalg.eigvals(1j * symplectic_form(m.shape[-1]) @ m)
    return np.sort(np.abs(eig), axis=-1)[..., ::2]


def symplectic_eigenvalues(
    v: CovarianceMatrix | np.ndarray, *, general: bool = False
) -> np.ndarray:
    """Symplectic eigenvalues of a symmetric matrix, ascending, one per mode.

    They are the moduli of the eigenvalues of ``i J V``.  A (k, d, d) stack
    gives one row per matrix.  For 4x4 input the two-mode closed form is
    the default fast path; ``general=True`` forces the eigensolver route
    (used as an independent oracle in tests).
    """
    m = _as_matrix(v)
    if m.shape[-1] != 4 or general:
        return _eigensolver(m)
    stack = m.reshape(-1, 4, 4)
    nu = _two_mode_closed_form(stack)
    # the closed form cancels catastrophically near the purity boundary
    # (|nu - 1/2| ~ 1e-8 observed for squeezed pure states); refine there
    near = np.abs(nu[:, 0] - 0.5) < 1e-6
    if near.any():
        nu[near] = _eigensolver(stack[near])
    return nu.reshape(m.shape[:-2] + (2,))


# momentum-sign flip of mode 2: the congruence by diag(1, 1, 1, -1)
_TRANSPOSE_SIGNS = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])


def _require_two_mode_physical(v: CovarianceMatrix) -> None:
    v.require(Ordering.PHYSICAL)
    if v.dim != 4:
        raise ValueError("partial transpose is defined for two-mode matrices")


def partial_transpose(v: CovarianceMatrix) -> CovarianceMatrix:
    """Momentum-sign flip of mode 2 (time reversal of one oscillator)."""
    _require_two_mode_physical(v)
    return CovarianceMatrix(v.matrix * _TRANSPOSE_SIGNS, Ordering.PHYSICAL)


def log_negativity(v: CovarianceMatrix) -> float:
    """E_N = max{0, -ln(2 nu_min)} of the partially transposed matrix."""
    _require_two_mode_physical(v)
    return float(log_negativities(v.matrix[None])[0])


def log_negativities(v: np.ndarray) -> np.ndarray:
    """E_N of every matrix of a (k, 4, 4) stack of PHYSICAL covariances."""
    nu_min = symplectic_eigenvalues(v * _TRANSPOSE_SIGNS)[:, 0]
    if np.any(nu_min <= 0.0):
        raise UnphysicalStateError("partial transpose has vanishing eigenvalue")
    return np.maximum(0.0, -np.log(2.0 * nu_min))


# x± = (x1 ± x2)/sqrt(2): orthogonal, symplectic and involutive
_MIX = np.kron([[1.0, 1.0], [1.0, -1.0]], np.eye(2)) / math.sqrt(2.0)


def basis_change(v: CovarianceMatrix, to: Ordering) -> CovarianceMatrix:
    """Congruence by the sqrt(2) mixing matrix between PHYSICAL and NORMAL."""
    if v.dim != 4:
        raise ValueError("basis change is defined for two-mode matrices")
    if to is v.ordering:
        return v
    if Ordering.FULL in (to, v.ordering):
        raise OrderingError("basis change maps between physical and normal only")
    return CovarianceMatrix(mix_modes(v.matrix), to)


def mix_modes(v: np.ndarray) -> np.ndarray:
    """The basis change of a 4x4 matrix or a (k, 4, 4) stack, symmetrized."""
    m = _MIX @ v @ _MIX.T
    m += np.swapaxes(m, -1, -2)
    m *= 0.5
    return m


def two_mode_squeezed(r: float, m: float = 1.0, omega: float = 1.0) -> CovarianceMatrix:
    """Two-mode squeezed vacuum, diagonal in the NORMAL ordering.

    Minimum uncertainty in each ± mode with
    ``m omega dx+/dp+ = dp-/(m omega dx-) = exp(2r)``.
    """
    if m <= 0 or omega <= 0:
        raise ValueError("mass and frequency must be positive")
    dx_p2 = math.exp(2.0 * r) / (2.0 * m * omega)
    dp_p2 = m * omega * math.exp(-2.0 * r) / 2.0
    dx_m2 = math.exp(-2.0 * r) / (2.0 * m * omega)
    dp_m2 = m * omega * math.exp(2.0 * r) / 2.0
    return CovarianceMatrix(np.diag([dx_p2, dp_p2, dx_m2, dp_m2]), Ordering.NORMAL)


def separable_squeezed(r: float, m: float = 1.0, omega: float = 1.0) -> CovarianceMatrix:
    """Product of two identical pure squeezed modes, PHYSICAL ordering.

    Each mode satisfies ``m omega dx/dp = exp(2r)`` and ``dx dp = 1/2``;
    r = 0 gives the two-mode vacuum (coherent-state covariance).
    """
    if m <= 0 or omega <= 0:
        raise ValueError("mass and frequency must be positive")
    dx2 = math.exp(2.0 * r) / (2.0 * m * omega)
    dp2 = m * omega * math.exp(-2.0 * r) / 2.0
    return CovarianceMatrix(np.diag([dx2, dp2, dx2, dp2]), Ordering.PHYSICAL)


def von_neumann_entropy(sigma_plus: float, sigma_minus: float) -> float:
    """Entropy of a two-mode Gaussian state from its symplectic eigenvalues."""
    return _entropy_term(sigma_plus) + _entropy_term(sigma_minus)


def _entropy_term(sigma: float) -> float:
    if sigma < 0.5 - PHYSICALITY_ATOL:
        raise UnphysicalStateError(f"symplectic eigenvalue {sigma} < 1/2")
    sigma = max(sigma, 0.5)
    up = (sigma + 0.5) * math.log(sigma + 0.5)
    lo = sigma - 0.5
    return up - (lo * math.log(lo) if lo > 0.0 else 0.0)


def squeezing_of(dx: float, dp: float, m: float, omega: float) -> float:
    """Squeezing factor r = (1/2) ln[m omega dx/dp] of a diagonal mode."""
    if min(dx, dp, m, omega) <= 0:
        raise ValueError("dispersions, mass and frequency must be positive")
    return 0.5 * math.log(m * omega * dx / dp)


def free_rotation(block: np.ndarray, m: float, omega: float, t: float) -> np.ndarray:
    """Evolve a single-mode 2x2 covariance block under a free oscillator."""
    c, s = math.cos(omega * t), math.sin(omega * t)
    s1 = np.array([[c, s / (m * omega)], [-m * omega * s, c]])
    return s1 @ np.asarray(block, dtype=float) @ s1.T


@dataclass(frozen=True)
class OscillatorParams:
    """System parameters as configured: mass, frequencies and couplings.

    ``c12`` couples positions, ``c12_tilde`` momenta (symmetric model only);
    both carry frequency-squared units.
    """

    m: float
    omega1: float
    omega2: float
    c12: float = 0.0
    c12_tilde: float = 0.0

    def __post_init__(self) -> None:
        if self.m <= 0:
            raise ValueError("mass must be positive")

    @property
    def resonant(self) -> bool:
        return self.omega1 == self.omega2
