"""Gaussian-state algebra: covariance matrices, symplectic spectra and
logarithmic negativity.

Conventions (natural units, hbar = 1):

* phase-space vectors interleave position and momentum per mode,
* ``V_ij = <{r_i, r_j}>/2 - <r_i><r_j>``, so the vacuum is ``V = I/2``,
* a physical state has every symplectic eigenvalue >= 1/2.

Symplectic eigenvalues start from one Cholesky factor per matrix
(``symplectic_eigenvalues``): a two-mode matrix reads its larger one from a
closed form and any larger size from a real symmetric eigensolve.  A matrix
that is not positive definite has no Williamson normal form and is refused
as unphysical.

Three orderings are used and every matrix carries a tag so they cannot be
mixed silently: ``PHYSICAL`` is ``(x1, p1, x2, p2)``, ``NORMAL`` is the
rotated ``(x+, p+, x-, p-)`` basis with ``x± = (x1 ± x2)/sqrt(2)``, and
``FULL`` is system-then-bath, ``(x1, p1, x2, p2, q1, pi1, ...)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, OrderingError, UnphysicalStateError

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

    def require(self, ordering: Ordering) -> None:
        if self.ordering is not ordering:
            raise OrderingError(
                f"expected {ordering.value} ordering, got {self.ordering.value}"
            )

    def validate_physical(self) -> None:
        require_physical(self, PHYSICALITY_ATOL)


def _as_matrix(v: CovarianceMatrix | np.ndarray) -> np.ndarray:
    if isinstance(v, CovarianceMatrix):
        return v.matrix
    m = np.asarray(v, dtype=float)
    _check_symmetric(m)
    return m


def symplectic_eigenvalues(v: CovarianceMatrix | np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a positive definite matrix, ascending, one
    per mode; a (k, d, d) stack gives one row per matrix.

    With V = R R^T, X = R^T J R is antisymmetric with the eigenvalues ±i nu
    of V J.  At d = 4, so(4) = su(2) + su(2) splits X into its self-dual and
    anti-self-dual parts, the 3-vectors s and a (``_two_mode_upper``), and
    the larger nu is (|s| + |a|) / 2, a sum of norms with no cancellation.
    At d > 4 each nu appears twice among the singular values of X.  Either
    route gives a small nu only to about eps nu_max, so the smallest is
    taken from prod nu = det R = prod diag R instead, which the factor
    gives to relative accuracy.  A matrix that is not positive definite has
    no symplectic spectrum and is refused with ``UnphysicalStateError``.
    """
    m = _as_matrix(v)
    try:
        r = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise UnphysicalStateError("covariance matrix is not positive definite") from None
    # X = R^T J R = P - P^T with P = (even rows of R)^T (odd rows of R)
    p = np.swapaxes(r[..., 0::2, :], -1, -2) @ r[..., 1::2, :]
    x = p - np.swapaxes(p, -1, -2)
    if m.shape[-1] == 4:
        upper = _two_mode_upper(x)[..., None]
    else:
        upper = np.linalg.svd(x, compute_uv=False)[..., :-2:2]
    # in logs, so that the determinant neither overflows nor underflows
    log_det = np.log(np.diagonal(r, axis1=-2, axis2=-1)).sum(axis=-1)
    lowest = np.exp(log_det - np.log(upper).sum(axis=-1))
    return np.sort(np.concatenate([lowest[..., None], upper], axis=-1), axis=-1)


def _two_mode_upper(x: np.ndarray) -> np.ndarray:
    """The larger singular value of a 4x4 antisymmetric X, or of each of a
    stack: (|s| + |a|) / 2 with s = (X12 + X34, X13 - X24, X14 + X23) and
    a = (X12 - X34, X13 + X24, X14 - X23); the smaller is ||s| - |a|| / 2."""
    first = x[..., [0, 0, 0], [1, 2, 3]]                      # X12, X13, X14
    second = x[..., [2, 1, 1], [3, 3, 2]] * [1.0, -1.0, 1.0]  # X34, -X24, X23
    s, a = first + second, first - second
    return 0.5 * (np.sqrt((s * s).sum(axis=-1)) + np.sqrt((a * a).sum(axis=-1)))


def physicality_margins(v: CovarianceMatrix | np.ndarray) -> np.ndarray:
    """nu_min - 1/2 of a matrix, or of each matrix of a stack."""
    return symplectic_eigenvalues(v)[..., 0] - 0.5


def require_physical(v: CovarianceMatrix | np.ndarray, atol: float) -> None:
    """Refuse a matrix or stack whose smallest symplectic eigenvalue lies
    more than ``atol`` below 1/2, naming the breach."""
    margin = float(np.min(physicality_margins(v)))
    if margin < -atol:
        raise UnphysicalStateError(
            f"smallest symplectic eigenvalue is {-margin:.3e} below 1/2"
        )


# momentum-sign flip of mode 2: the congruence by diag(1, 1, 1, -1)
_TRANSPOSE_SIGNS = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])


def require_two_mode(v: CovarianceMatrix) -> None:
    """Refuse a covariance that is not a two-mode PHYSICAL one."""
    v.require(Ordering.PHYSICAL)
    if v.dim != 4:
        raise ValueError("expected a two-mode covariance matrix")


def partial_transpose(v: CovarianceMatrix) -> CovarianceMatrix:
    """Momentum-sign flip of mode 2 (time reversal of one oscillator)."""
    require_two_mode(v)
    return CovarianceMatrix(v.matrix * _TRANSPOSE_SIGNS, Ordering.PHYSICAL)


def log_negativity(v: CovarianceMatrix) -> float:
    """E_N = max{0, -ln(2 nu_min)} of the partially transposed matrix."""
    require_two_mode(v)
    return float(log_negativities(v.matrix[None])[0])


def log_negativities(v: np.ndarray) -> np.ndarray:
    """E_N of every matrix of a (k, 4, 4) stack of PHYSICAL covariances."""
    nu_min = symplectic_eigenvalues(v * _TRANSPOSE_SIGNS)[:, 0]
    return np.maximum(0.0, -np.log(2.0 * nu_min))


# PHYSICAL -> NORMAL, rows x+, p+, x-, p- with x± = (x1 ± x2)/sqrt(2):
# orthogonal, symplectic and involutive
MIX = np.kron([[1.0, 1.0], [1.0, -1.0]], np.eye(2)) / math.sqrt(2.0)


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
    m = MIX @ v @ MIX.T
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
    dx_p2 = squeezing_exp(2.0 * r, r) / (2.0 * m * omega)
    dp_p2 = m * omega * squeezing_exp(-2.0 * r, r) / 2.0
    dx_m2 = squeezing_exp(-2.0 * r, r) / (2.0 * m * omega)
    dp_m2 = m * omega * squeezing_exp(2.0 * r, r) / 2.0
    return CovarianceMatrix(np.diag([dx_p2, dp_p2, dx_m2, dp_m2]), Ordering.NORMAL)


def separable_squeezed(r: float, m: float = 1.0, omega: float = 1.0) -> CovarianceMatrix:
    """Product of two identical pure squeezed modes, PHYSICAL ordering.

    Each mode satisfies ``m omega dx/dp = exp(2r)`` and ``dx dp = 1/2``;
    r = 0 gives the two-mode vacuum (coherent-state covariance).
    """
    if m <= 0 or omega <= 0:
        raise ValueError("mass and frequency must be positive")
    dx2 = squeezing_exp(2.0 * r, r) / (2.0 * m * omega)
    dp2 = m * omega * squeezing_exp(-2.0 * r, r) / 2.0
    return CovarianceMatrix(np.diag([dx2, dp2, dx2, dp2]), Ordering.PHYSICAL)


def squeezing_exp(x: float, r: float) -> float:
    """exp(x) for an exponent x of the squeezing r; an r whose exponential
    overflows a float is refused with a ``NumericalError`` naming it."""
    try:
        return math.exp(x)
    except OverflowError:
        raise NumericalError(
            f"squeezing r={r!r} is beyond float range: exp({x!r}) overflows"
        ) from None


def squeezing_of(dx: float, dp: float, m: float, omega: float) -> float:
    """Squeezing factor r = (1/2) ln[m omega dx/dp] of a diagonal mode."""
    if min(dx, dp, m, omega) <= 0:
        raise ValueError("dispersions, mass and frequency must be positive")
    return 0.5 * math.log(m * omega * dx / dp)


def free_propagator(m: float, omega: float, t) -> np.ndarray:
    """The 2x2 map of (x, p) under a free oscillator; an array of times gives
    the stack (..., 2, 2)."""
    c, s = np.cos(omega * np.asarray(t)), np.sin(omega * np.asarray(t))
    return np.moveaxis(np.array([[c, s / (m * omega)], [-m * omega * s, c]]), (0, 1), (-2, -1))


def free_rotation(block: np.ndarray, m: float, omega: float, t) -> np.ndarray:
    """Evolve a single-mode 2x2 covariance block under a free oscillator; an
    array of times gives the stack of blocks (..., 2, 2)."""
    s1 = free_propagator(m, omega, t)
    return s1 @ np.asarray(block, dtype=float) @ np.swapaxes(s1, -1, -2)


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
