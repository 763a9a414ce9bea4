"""Master-equation moment integration: fixed points, free limits, the
sample grid, coefficient tables and the entanglement readout."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbath import asymptotics as asy
from entbath import moments as mo
from entbath.bath import SpectralDensity
from entbath.config import load_config
from entbath.errors import UnphysicalStateError
from entbath.gaussian import (
    Ordering,
    basis_change,
    free_rotation,
    log_negativities,
    mix_modes,
    two_mode_squeezed,
)
from entbath.scenario import Scenario

OHMIC = SpectralDensity.ohmic(0.1, 20.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
VACUUM = np.eye(2) / 2.0  # the plus block at m = omega = 1
START = np.array([[1.1, 0.15], [0.15, 0.7]])


def position_coeffs(t=0.0):
    return asy.coefficient_limits(OHMIC, 1.0, t, "position")


def test_nonpositive_determinant_rejected():
    # a start block is refused at t = 0 on either route
    for block in ([[1.0, 1.5], [1.5, 1.0]], [[-1.0, 0.0], [0.0, 1.0]]):
        with pytest.raises(UnphysicalStateError, match=r"^plus block .* at t=0\.0$"):
            mo.integrate(block, position_coeffs(), 1.0, 1.0, 0.1, 1)
        with pytest.raises(UnphysicalStateError, match=r"^minus block .* at t=0\.0$"):
            mo.minus_blocks(np.array(block), 1.0, 1.0, np.zeros(1))


def test_position_fixed_point_is_stationary():
    # one RK4 step at the analytic fixed point must not move (machine eps)
    c = position_coeffs()
    dx, dp = asy.equilibrium_dispersions_position(c, 1.0, 1.0)
    s = np.diag([dx * dx, dp * dp])
    (x2, v01), (_, p2) = mo.integrate(s, c, 1.0, 1.0, 0.005, 2).plus[-1]
    xp = 2.0 * v01  # <{x,p}>
    assert x2 == pytest.approx(s[0, 0], rel=1e-13)
    assert p2 == pytest.approx(s[1, 1], rel=1e-13)
    assert abs(xp) < 1e-13


def test_symmetric_fixed_point_is_stationary():
    # the thermal state at omega = m = 1: dx^2 = dp^2 = coth(omega/2T)/2
    c = asy.coefficient_limits(OHMIC, 1.0, 0.3, "symmetric")
    coth = 1.0 / math.tanh(1.0 / (2.0 * 0.3))
    s = np.eye(2) * coth / 2.0
    (x2, v01), (_, p2) = mo.integrate(s, c, 1.0, 1.0, 0.005, 2, model="symmetric").plus[-1]
    xp = 2.0 * v01  # <{x,p}>
    assert x2 == pytest.approx(s[0, 0], rel=1e-13)
    assert p2 == pytest.approx(s[1, 1], rel=1e-13)
    assert abs(xp) < 1e-13


@pytest.mark.parametrize("t_bath", [0.0, 10.0])
def test_position_model_converges_to_fixed_point(t_bath):
    c = position_coeffs(t_bath)
    dx, dp = asy.equilibrium_dispersions_position(c, 1.0, 1.0)
    (x2, v01), (_, p2) = mo.integrate(VACUUM, c, 1.0, 1.0, 0.5, 121).plus[-1]
    xp = 2.0 * v01  # <{x,p}>
    assert x2 == pytest.approx(dx * dx, rel=1e-6)
    assert p2 == pytest.approx(dp * dp, rel=1e-6)
    assert abs(xp) < 1e-6 * max(1.0, dp * dp)


def test_free_limit_preserves_determinant():
    # vanishing bath coefficients: both blocks rotate freely
    c = asy.PositionCoefficients(1e-300, 1e-300, 0.0)
    traj = mo.integrate(START, c, 1.0, 1.0, 1.0, 13)
    np.testing.assert_allclose(np.linalg.det(traj.plus), np.linalg.det(START), rtol=1e-8)


def test_minus_block_rotation_is_exact():
    # the one place the minus block is rotated: the free rotation from t = 0,
    # its lower off-diagonal taken from the upper one
    r = 0.7
    times = np.linspace(0.0, 5.0, 11)
    start = np.array([[0.6 * math.exp(2 * r), 0.2], [0.2, 0.6 * math.exp(-2 * r)]])
    blocks = mo.minus_blocks(start, 1.2, 0.9, times)
    rot = free_rotation(start, 1.2, 0.9, times)
    np.testing.assert_allclose(blocks, rot, rtol=1e-12, atol=1e-12)
    assert np.array_equal(blocks[:, 1, 0], blocks[:, 0, 1])
    np.testing.assert_allclose(np.linalg.det(blocks), np.linalg.det(start), rtol=1e-12)


def _fits(dt, rate, factor=mo.STEP_FACTOR):
    # the step limit: dt above factor / rate by no more than STEP_SLACK
    return dt * rate / factor - 1.0 <= mo.STEP_SLACK


def test_step_size_guard():
    # a step above the limit is split, never refused: 0.5 at rate 1 takes
    # 50 steps of 0.01, at rate 3 150, and at factor 0.05 10
    assert mo.whole_steps(0.5, 1.0) == 50
    assert mo.whole_steps(0.5, 3.0) == 150
    assert mo.whole_steps(0.5, 1.0, 0.05) == 10
    assert mo.whole_steps(0.004, 1.0) == 1


@pytest.mark.parametrize("k", [1, 2, 20])
@pytest.mark.parametrize("offset", [0.0, 1e-13, -1e-13, 1e-12, -1e-12, 5e-10, 1e-9])
def test_whole_step_fit_is_the_fewest_steps_the_check_accepts(k, offset):
    # a span of k limit steps, off by a relative offset: within STEP_SLACK
    # it takes k steps, beyond it k + 1, and none fewer fits the limit
    rate = 1.3
    span = k * (mo.STEP_FACTOR / rate) * (1.0 + offset)
    n = mo.whole_steps(span, rate)
    assert _fits(span / n, rate)
    if n > 1:
        assert not _fits(span / (n - 1), rate)
    if offset != mo.STEP_SLACK:  # at the slack itself rounding decides
        assert n == (k if offset < mo.STEP_SLACK else k + 1)


@pytest.mark.parametrize("spacing, samples, name", [
    (0.1, 0, "samples"), (0.1, -3, "samples"), (0.1, 2.0, "samples"), (0.1, "2", "samples"),
    (0.0, 2, "spacing"), (-0.1, 2, "spacing"), (math.inf, 2, "spacing"), (math.nan, 2, "spacing"),
])
def test_integrate_refuses_bad_grid_arguments(spacing, samples, name):
    with pytest.raises(ValueError, match=rf"^{name}="):
        mo.integrate(VACUUM, position_coeffs(), 1.0, 1.0, spacing, samples)


@pytest.mark.parametrize("spacing", [0.0, -1.0, math.nan, 0.1])
def test_one_sample_is_the_start_row(spacing):
    # one sample needs no spacing: it is the start block itself, at t = 0
    traj = mo.integrate(START, position_coeffs(), 1.0, 1.0, spacing, 1)
    assert traj.times.tolist() == [0.0]
    assert traj.plus.tolist() == [START.tolist()]
    assert traj.min_plus_det == 1.1 * 0.7 - 0.15**2


def _rates(model, m, w, c, x2, p2, xp):
    """The plus-mode moment ODEs of each model, as the master equation
    states them."""
    mw2 = m * w * w
    if model == "position":
        return (xp / m,
                -mw2 * xp - 4.0 * c.gamma * p2 + 2.0 * c.diffusion,
                2.0 * p2 / m - 2.0 * mw2 * x2 - 2.0 * c.gamma * xp - 2.0 * c.anomalous)
    g = 4.0 * c.gamma
    return (xp / m - g * x2 + 2.0 * c.diffusion / (m * mw2),
            -mw2 * xp - g * p2 + 2.0 * c.diffusion,
            2.0 * p2 / m - 2.0 * mw2 * x2 - g * xp)


def _rk4(rates, y, dt):
    x2, p2, xp = y
    h = dt / 2.0
    k1 = rates(x2, p2, xp)
    k2 = rates(x2 + h * k1[0], p2 + h * k1[1], xp + h * k1[2])
    k3 = rates(x2 + h * k2[0], p2 + h * k2[1], xp + h * k2[2])
    k4 = rates(x2 + dt * k3[0], p2 + dt * k3[1], xp + dt * k3[2])
    h = dt / 6.0
    return tuple(y[i] + h * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(3))


def _float_loop(model, start, coeffs, mass, omega, t_final, dt, every):
    """The oracle: the plus moments from the 2x2 ``start`` block at t = 0,
    marched one float RK4 step at a time, sampled every ``every`` steps and
    at the last, shorter one onto ``t_final``; returns (step counts, times,
    plus blocks)."""
    rates = lambda *y: _rates(model, mass, omega, coeffs, *y)
    y, t = (start[0][0], start[1][1], 2.0 * start[0][1]), 0.0
    out = [(0, t, y)]
    n = math.ceil(t_final / dt)
    for k in range(1, n + 1):
        step = min(dt, t_final - t)
        y = _rk4(rates, y, step)
        t += step
        det = y[0] * y[1] - (y[2] / 2.0) ** 2
        if min(y[0], y[1]) <= 0.0 or det <= 0.0:
            raise UnphysicalStateError(
                f"plus block has nonpositive dispersions or determinant ({det:.6e}) at t={t}")
        if k % every == 0 or k == n:
            out.append((k, t, y))
    steps, times, rows = zip(*out)
    x2, p2, xp = np.array(rows).T
    return np.array(steps), np.array(times), np.stack([x2, xp / 2, xp / 2, p2], -1).reshape(-1, 2, 2)


@pytest.mark.parametrize("model", ["position", "symmetric"],
                         ids=["position-constant", "symmetric-constant"])
def test_integrate_equals_chained_steps(model):
    if model == "position":
        coeffs = position_coeffs()
    else:
        coeffs = asy.coefficient_limits(OHMIC, 1.0, 0.3, "symmetric")
    # 0.175 is no whole number of default steps at omega = 0.9: each spacing
    # takes 16 equal steps, and the oracle steps by that size
    spacing, samples = 0.175, 18
    every = mo.whole_steps(spacing, max(0.9, coeffs.gamma))
    assert every == 16
    traj = mo.integrate(START, coeffs, 1.3, 0.9, spacing, samples, model=model)
    _, times, plus = _float_loop(model, START, coeffs, 1.3, 0.9, (samples - 1) * spacing,
                                 spacing / every, every)
    assert len(traj.times) == len(times) > 10
    np.testing.assert_allclose(traj.times, times, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(traj.plus, plus, rtol=1e-12, atol=0.0)


def _refusal(err):
    det, t = re.search(r"\(([^)]*)\) at t=(.*)$", str(err)).groups()
    return float(det), float(t)


def test_integrate_refuses_like_chained_steps():
    # negative diffusion drains <p^2> until the plus block loses positivity,
    # at step 49: long before the first of the samples every 1000 steps
    c = asy.PositionCoefficients(0.05, -0.5, 0.0)
    with pytest.raises(UnphysicalStateError) as by_integrate:
        mo.integrate(VACUUM, c, 1.0, 1.0, 10.0, 6)
    with pytest.raises(UnphysicalStateError) as by_steps:
        _float_loop("position", VACUUM, c, 1.0, 1.0, 50.0, 0.01, 1000)
    assert str(by_integrate.value).startswith("plus block has nonpositive")
    det, t = _refusal(by_integrate.value)
    oracle_det, oracle_t = _refusal(by_steps.value)
    assert t == pytest.approx(oracle_t, abs=1e-12) and round(t / 0.01) == 49
    assert det == pytest.approx(oracle_det, rel=1e-9)


@pytest.mark.parametrize("name", ["ohmic_trace", "symmetric_trace"])
def test_moment_columns_match_float_loop(name):
    # the moments artifact against the float loop on the shipped configs:
    # plus moments from the oracle at t = k dt, minus blocks rotated exactly
    sc = Scenario(load_config(str(CONFIGS / f"{name}.yaml")))
    names, cols = sc.moments()
    got = dict(zip(names, cols))
    coeffs = sc.moment_coefficients()
    m_plus, m_minus, omega_minus = sc.route_scales()
    omega = sc.plus_frequency()
    nm = basis_change(sc.initial_state(m_minus, omega_minus), Ordering.NORMAL).matrix
    t = got["t"]
    dt = mo.STEP_FACTOR / max(omega, abs(coeffs.gamma))
    steps, _, plus = _float_loop(sc.model, nm[:2, :2], coeffs, m_plus, omega, t[-1], dt, 5)
    grid = np.minimum(steps * dt, t[-1])
    minus = free_rotation(nm[2:, 2:], m_minus, omega_minus, grid)
    v = np.zeros((len(grid), 4, 4))
    v[:, :2, :2], v[:, 2:, 2:] = plus, minus
    want = {
        "E_N_moments": log_negativities(mix_modes(v)),
        "dx_plus_sq": plus[:, 0, 0], "dp_plus_sq": plus[:, 1, 1],
        "dx_minus_sq": minus[:, 0, 0], "dp_minus_sq": minus[:, 1, 1],
    }
    for key, col in want.items():
        np.testing.assert_allclose(got[key], np.interp(t, grid, col), rtol=0.0, atol=1e-12,
                                   err_msg=key)


@given(st.floats(-1.5, 1.5))
@settings(max_examples=30, deadline=None)
def test_negativity_readout_matches_gaussian_module(r):
    nm = basis_change(two_mode_squeezed(r), Ordering.PHYSICAL)
    blocks = basis_change(nm, Ordering.NORMAL).matrix
    assert mo.negativities(blocks[None, :2, :2], blocks[None, 2:, 2:])[0] == pytest.approx(2.0 * abs(r), abs=1e-9)


def test_transient_dips_below_lindblad_bound_but_stays_positive():
    # the anomalous-diffusion term is first order in gamma: transients from
    # the vacuum undershoot det = 1/4 (non-Lindblad) yet never reach zero
    c = position_coeffs()
    traj = mo.integrate(VACUUM, c, 1.0, 1.0, 0.05, 601)
    dets = np.linalg.det(traj.plus)
    assert min(dets) < 0.25 - 1e-3  # genuinely dips
    assert min(dets) > 0.15  # but stays well away from collapse
    # every step, not only the samples, stays away from collapse
    assert 0.15 < traj.min_plus_det <= min(dets)
    # the late-time state is physical again
    assert dets[-1] > 0.25 - 1e-6
