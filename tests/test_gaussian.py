"""Gaussian-state algebra: closed forms, orderings, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbath.errors import OrderingError, UnphysicalStateError
from entbath.exact import mode_scales, system_hamiltonian
from entbath.gaussian import (
    CovarianceMatrix,
    Ordering,
    OscillatorParams,
    basis_change,
    free_rotation,
    log_negativity,
    mix_modes,
    partial_transpose,
    separable_squeezed,
    squeezing_of,
    symplectic_eigenvalues,
    symplectic_form,
    two_mode_squeezed,
)

from oracles import symplectic_eigensolver


def random_physical(rng: np.random.Generator, n_modes: int = 2) -> CovarianceMatrix:
    # A A^T + I/2 is always a physical covariance matrix
    d = 2 * n_modes
    a = rng.normal(size=(d, d))
    v = a @ a.T + 0.5 * np.eye(d)
    return CovarianceMatrix(v, Ordering.PHYSICAL if n_modes == 2 else Ordering.FULL)


def test_symplectic_form_squares_to_minus_identity():
    j = symplectic_form(6)
    assert np.allclose(j @ j, -np.eye(6))
    assert np.allclose(j.T, -j)


def test_symplectic_form_rejects_odd_dim():
    with pytest.raises(ValueError):
        symplectic_form(3)


def test_vacuum_eigenvalues_are_half():
    v = CovarianceMatrix(0.5 * np.eye(4), Ordering.PHYSICAL)
    assert np.allclose(symplectic_eigenvalues(v), 0.5, atol=1e-14)
    v.validate_physical()


def test_closed_form_matches_eigensolver():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = random_physical(rng)
        fast = symplectic_eigenvalues(v)
        slow = symplectic_eigensolver(v.matrix)
        assert np.allclose(fast, slow, rtol=1e-9, atol=1e-10)


def test_closed_form_refined_at_purity_boundary():
    # squeezed pure states sit exactly on nu = 1/2, where the closed form
    # nu^2 = (delta - sqrt(delta^2 - 4 det V))/2 cancels catastrophically;
    # the real route must stay accurate there
    for r in (0.5, 1.0, 2.0, 3.0):
        v = basis_change(two_mode_squeezed(r), Ordering.PHYSICAL)
        nu = symplectic_eigenvalues(v)
        assert np.allclose(nu, 0.5, atol=1e-12)


def _random_symplectic(rng: np.random.Generator) -> np.ndarray:
    # exp(J X) with X symmetric is symplectic
    from scipy.linalg import expm

    x = rng.normal(scale=0.5, size=(4, 4))
    return expm(symplectic_form(4) @ (x + x.T))


def test_stacked_eigenvalues_match_eigensolver():
    rng = np.random.default_rng(11)
    mixed = [random_physical(rng).matrix for _ in range(40)]
    # pure states and states within 1e-7 of pure
    near_pure = []
    for eps in [0.0] * 10 + list(rng.uniform(0.0, 1e-7, 30)):
        s = _random_symplectic(rng)
        near_pure.append((0.5 + eps) * (s @ s.T))
    stack = np.array(mixed + near_pure)
    nu = symplectic_eigenvalues(stack)
    assert nu.shape == (len(stack), 2)
    for i, v in enumerate(stack):
        ref = symplectic_eigensolver(v)
        assert np.abs(nu[i] - ref).max() <= 1e-12
        # the single-matrix call is a stack of one
        assert np.array_equal(symplectic_eigenvalues(v), nu[i])
    assert np.abs(nu[40:, 0] - 0.5).max() < 1e-7 + 1e-12


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 3.0])
def test_real_refinement_matches_eigensolver_near_half(r):
    # the states an exact trace reads: a thermal, squeezed plus mode beside
    # an exactly pure minus mode squeezed by r, both rotated freely
    rng = np.random.default_rng(17)
    stack = []
    for phase in rng.uniform(0.0, 2.0 * math.pi, 24):
        nm = np.zeros((4, 4))
        r_plus, nu_plus = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 5.0)
        plus = nu_plus * np.diag([math.exp(2.0 * r_plus), math.exp(-2.0 * r_plus)])
        nm[:2, :2] = free_rotation(plus, 1.0, 1.0, rng.uniform(0.0, 2.0 * math.pi))
        minus = np.diag([math.exp(2.0 * r), math.exp(-2.0 * r)]) / 2.0
        nm[2:, 2:] = free_rotation(minus, 1.3, 0.8, phase)
        stack.append(mix_modes(nm))
    stack = np.array(stack)
    nu = symplectic_eigenvalues(stack)
    ref = symplectic_eigensolver(stack)
    # both routes read the rounded input, whose own conditioning moves a
    # pure mode's nu by about eps e^(4|r|) (3.6e-11 at r = 3)
    tol = 1e-12 + np.finfo(float).eps * math.exp(4.0 * abs(r))
    assert np.abs(nu - ref).max() <= tol
    assert np.abs(nu[:, 0] - 0.5).max() <= tol


def test_indefinite_row_is_refused():
    # the indefinite row's eigenvalues of i J V have moduli (1/2, 1/2), as a
    # pure state's do; it has no Williamson normal form and is no covariance
    pure = basis_change(two_mode_squeezed(1.0), Ordering.PHYSICAL).matrix
    indefinite = np.diag([2.0, 0.125, -0.5, -0.5])
    mixed = random_physical(np.random.default_rng(3)).matrix
    assert np.allclose(symplectic_eigensolver(indefinite), 0.5)
    for m in (indefinite, np.array([pure, indefinite, mixed])):
        with pytest.raises(UnphysicalStateError, match="not positive definite"):
            symplectic_eigenvalues(m)
    with pytest.raises(UnphysicalStateError, match="not positive definite"):
        CovarianceMatrix(indefinite, Ordering.PHYSICAL).validate_physical()


def test_many_mode_state_matches_eigensolver():
    # validate's purity check reads a 50-mode state through the same route
    v = random_physical(np.random.default_rng(29), n_modes=50)
    nu = symplectic_eigenvalues(v)
    assert nu.shape == (50,)
    assert np.all(np.diff(nu) >= 0.0)
    np.testing.assert_allclose(nu, symplectic_eigensolver(v.matrix), rtol=1e-9)


def test_refusal_names_the_breach():
    # nu = 1/2 - 2e-6 in both modes
    v = CovarianceMatrix((0.5 - 2e-6) * np.eye(4), Ordering.PHYSICAL)
    with pytest.raises(UnphysicalStateError,
                       match=r"smallest symplectic eigenvalue is 2\.000e-06 below 1/2"):
        v.validate_physical()


def test_ordering_guard():
    v = two_mode_squeezed(1.0)
    with pytest.raises(OrderingError):
        v.require(Ordering.PHYSICAL)
    with pytest.raises(OrderingError):
        partial_transpose(v)  # NORMAL ordering rejected


def test_basis_change_round_trip_and_involution():
    rng = np.random.default_rng(3)
    v = random_physical(rng)
    w = basis_change(basis_change(v, Ordering.NORMAL), Ordering.PHYSICAL)
    assert np.allclose(v.matrix, w.matrix, atol=1e-13)


def test_mix_modes_symmetrizes_the_congruence():
    rng = np.random.default_rng(5)
    stack = np.array([random_physical(rng).matrix for _ in range(64)])
    m = np.kron([[1.0, 1.0], [1.0, -1.0]], np.eye(2)) / math.sqrt(2.0)
    for v in (stack, stack[0]):
        congruence = m @ v @ m.T
        expected = 0.5 * (congruence + np.swapaxes(congruence, -1, -2))
        np.testing.assert_array_equal(mix_modes(v), expected)
    # the stack's congruence alone is symmetric only to rounding
    congruence = m @ stack @ m.T
    assert np.any(congruence != np.swapaxes(congruence, -1, -2))


def test_basis_change_rejects_full():
    v = CovarianceMatrix(0.5 * np.eye(4), Ordering.FULL)
    with pytest.raises(OrderingError):
        basis_change(v, Ordering.NORMAL)


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(5)
    v = random_physical(rng)
    w = partial_transpose(partial_transpose(v))
    assert np.allclose(v.matrix, w.matrix)


def test_non_symmetric_matrix_rejected():
    m = 0.5 * np.eye(4)
    m[0, 1] = 1e-6
    with pytest.raises(UnphysicalStateError):
        CovarianceMatrix(m, Ordering.PHYSICAL)


@given(st.floats(-2.5, 2.5))
@settings(max_examples=40, deadline=None)
def test_tms_negativity_closed_form(r):
    v = basis_change(two_mode_squeezed(r), Ordering.PHYSICAL)
    assert log_negativity(v) == pytest.approx(2.0 * abs(r), abs=1e-9)


@given(st.floats(-2.0, 2.0), st.floats(0.2, 4.0), st.floats(0.2, 4.0))
@settings(max_examples=40, deadline=None)
def test_separable_states_have_zero_negativity(r, m, omega):
    v = separable_squeezed(r, m, omega)
    assert log_negativity(v) <= 1e-12


def test_thermal_scaling_kills_entanglement():
    pure = basis_change(two_mode_squeezed(0.5), Ordering.PHYSICAL)
    hot = CovarianceMatrix(10.0 * pure.matrix, Ordering.PHYSICAL)
    assert log_negativity(hot) == 0.0


def test_squeezing_of_inverts_preparation():
    m, omega, r = 1.7, 0.8, -0.9
    dx = math.exp(r) / math.sqrt(2.0 * m * omega)
    dp = math.sqrt(m * omega / 2.0) * math.exp(-r)
    assert squeezing_of(dx, dp, m, omega) == pytest.approx(r, abs=1e-12)


@given(st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(0.0, 20.0))
@settings(max_examples=40, deadline=None)
def test_free_rotation_preserves_determinant(m, omega, t):
    block = np.array([[0.9, 0.2], [0.2, 1.4]])
    rot = free_rotation(block, m, omega, t)
    assert np.linalg.det(rot) == pytest.approx(np.linalg.det(block), rel=1e-10)


def test_free_rotation_periodicity():
    block = np.array([[0.9, 0.2], [0.2, 1.4]])
    rot = free_rotation(block, 1.3, 0.7, 2.0 * math.pi / 0.7)
    assert np.allclose(rot, block, atol=1e-12)


def test_oscillator_params_mode_scales():
    osc = OscillatorParams(1.0, 1.0, 1.0, c12=0.19, c12_tilde=0.0)
    h_sys = system_hamiltonian(osc, "position")[0]
    m_minus, w_minus = mode_scales(h_sys)
    m_plus, w_plus = mode_scales(h_sys, 1.0)
    assert m_minus == m_plus == 1.0
    assert w_minus == pytest.approx(math.sqrt(0.81))
    assert w_plus == pytest.approx(math.sqrt(1.19))
    # symmetric model with equal couplings keeps M_- Omega_- = m Omega
    osc2 = OscillatorParams(2.0, 1.5, 1.5, c12=0.3, c12_tilde=0.3)
    m2, w2 = mode_scales(system_hamiltonian(osc2, "symmetric")[0])
    f = 1.0 - 0.3 / 1.5**2
    assert m2 == pytest.approx(2.0 / f)
    assert w2 == pytest.approx(1.5 * f)


def test_oscillator_params_detuned_symmetric_rejected():
    osc = OscillatorParams(1.0, 1.0, 1.1)
    with pytest.raises(ValueError):
        system_hamiltonian(osc, "symmetric")
