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
from entbath.errors import StepSizeError, UnphysicalStateError
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
VACUUM = mo.MomentState(0.5, 0.5, 0.0, 0.5, 0.5, 0.0)  # both modes, m = omega = 1


def position_coeffs(t=0.0):
    return asy.coefficient_limits(OHMIC, 1.0, t, "position")


def test_nonpositive_determinant_rejected():
    with pytest.raises(UnphysicalStateError):
        mo.MomentState(1.0, 1.0, 3.0, 1.0, 1.0, 0.0)
    with pytest.raises(UnphysicalStateError):
        mo.MomentState(-1.0, 1.0, 0.0, 1.0, 1.0, 0.0)


def test_position_fixed_point_is_stationary():
    # one RK4 step at the analytic fixed point must not move (machine eps)
    c = position_coeffs()
    dx, dp = asy.equilibrium_dispersions_position(c, 1.0, 1.0)
    s = mo.MomentState(dx * dx, dp * dp, 0.0, 0.5, 0.5, 0.0)
    x2, p2, xp = mo.integrate(s, c, 1.0, 1.0, 0.005, 2).plus[-1]
    assert x2 == pytest.approx(s.x2_plus, rel=1e-13)
    assert p2 == pytest.approx(s.p2_plus, rel=1e-13)
    assert abs(xp) < 1e-13


def test_symmetric_fixed_point_is_stationary():
    # the thermal state at omega = m = 1: dx^2 = dp^2 = coth(omega/2T)/2
    c = asy.coefficient_limits(OHMIC, 1.0, 0.3, "symmetric")
    coth = 1.0 / math.tanh(1.0 / (2.0 * 0.3))
    s = mo.MomentState(coth / 2.0, coth / 2.0, 0.0, 0.5, 0.5, 0.0)
    x2, p2, xp = mo.integrate(s, c, 1.0, 1.0, 0.005, 2, model="symmetric").plus[-1]
    assert x2 == pytest.approx(s.x2_plus, rel=1e-13)
    assert p2 == pytest.approx(s.p2_plus, rel=1e-13)
    assert abs(xp) < 1e-13


@pytest.mark.parametrize("t_bath", [0.0, 10.0])
def test_position_model_converges_to_fixed_point(t_bath):
    c = position_coeffs(t_bath)
    dx, dp = asy.equilibrium_dispersions_position(c, 1.0, 1.0)
    start = VACUUM
    x2, p2, xp = mo.integrate(start, c, 1.0, 1.0, 0.5, 121).plus[-1]
    assert x2 == pytest.approx(dx * dx, rel=1e-6)
    assert p2 == pytest.approx(dp * dp, rel=1e-6)
    assert abs(xp) < 1e-6 * max(1.0, dp * dp)


def test_free_limit_preserves_determinant():
    # vanishing bath coefficients: both blocks rotate freely
    c = asy.PositionCoefficients(1e-300, 1e-300, 0.0)
    start = mo.MomentState(1.1, 0.7, 0.3, 0.9, 0.6, -0.2)
    traj = mo.integrate(start, c, 1.0, 1.0, 1.0, 13)
    d0 = start.x2_plus * start.p2_plus - (start.xp_plus / 2.0) ** 2
    for x2, p2, xp in traj.plus:
        assert x2 * p2 - (xp / 2.0) ** 2 == pytest.approx(d0, rel=1e-8)


def test_minus_block_rotation_is_exact():
    # the one place the minus block is rotated: from the state's own time
    r = 0.7
    times = np.linspace(0.0, 5.0, 11)
    for t0 in (0.0, 1.3):
        start = mo.MomentState(0.5, 0.5, 0.0, 0.6 * math.exp(2 * r), 0.6 * math.exp(-2 * r),
                               0.4, time=t0)
        rows = start.minus_rows(1.2, 0.9, t0 + times)
        rot = free_rotation(start.minus_block(), 1.2, 0.9, times)
        np.testing.assert_allclose(rows[:, 0], rot[:, 0, 0], rtol=1e-12)
        np.testing.assert_allclose(rows[:, 1], rot[:, 1, 1], rtol=1e-12)
        np.testing.assert_allclose(rows[:, 2], 2.0 * rot[:, 0, 1], rtol=1e-12, atol=1e-12)


def test_step_size_guard():
    excess = r"dt=0\.5 exceeds 0\.01/max rate = 0\.01 by 49 relative"
    with pytest.raises(StepSizeError, match=excess):
        mo.check_step(0.5, 1.0, 0.2)
    assert mo.default_step(1.0, 0.2) == pytest.approx(0.01)
    assert mo.default_step(1.0, 3.0) == pytest.approx(0.01 / 3.0)


@pytest.mark.parametrize("k", [1, 2, 20])
@pytest.mark.parametrize("offset", [0.0, 1e-13, -1e-13, 1e-12, -1e-12, 5e-10, 1e-9])
def test_whole_step_fit_is_the_fewest_steps_the_check_accepts(k, offset):
    # a span of k default steps, off by a relative offset: within STEP_SLACK
    # it takes k steps, beyond it k + 1, and the limit check agrees
    omega, gamma = 1.3, 0.2
    span = k * mo.default_step(omega, gamma) * (1.0 + offset)
    n = mo.whole_steps(span, omega, gamma)
    mo.check_step(span / n, omega, gamma)
    if n > 1:
        with pytest.raises(StepSizeError):
            mo.check_step(span / (n - 1), omega, gamma)
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
    # one sample needs no spacing: it is the state itself, at its own time
    start = mo.MomentState(1.1, 0.7, 0.3, 0.9, 0.6, -0.2, time=0.25)
    traj = mo.integrate(start, position_coeffs(), 1.0, 1.0, spacing, 1)
    assert traj.times.tolist() == [0.25]
    assert traj.plus.tolist() == [[1.1, 0.7, 0.3]]
    assert traj.min_plus_det == 1.1 * 0.7 - 0.15**2


def _rates(a, x2, p2, xp):
    m, a1, a2, a3, a4, a5, a6, a7, a8 = a
    return (xp / m - a1 * x2 + a2, a3 * xp - a4 * p2 + a5, 2.0 * p2 / m - a6 * x2 - a7 * xp - a8)


def _rk4(a, y, dt):
    x2, p2, xp = y
    h = dt / 2.0
    k1 = _rates(a, x2, p2, xp)
    k2 = _rates(a, x2 + h * k1[0], p2 + h * k1[1], xp + h * k1[2])
    k3 = _rates(a, x2 + h * k2[0], p2 + h * k2[1], xp + h * k2[2])
    k4 = _rates(a, x2 + dt * k3[0], p2 + dt * k3[1], xp + dt * k3[2])
    h = dt / 6.0
    return tuple(y[i] + h * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(3))


def _float_loop(model, start, coeffs, mass, omega, t_final, dt, every):
    """The oracle: the plus moments marched one float RK4 step at a time,
    sampled every ``every`` steps and at the last, shorter one onto
    ``t_final``; returns (step counts, times, plus rows)."""
    a = mo._FORMS[model](mass, omega, coeffs)
    y, t = start.plus_block_moments(), start.time
    out = [(0, t, y)]
    n = math.ceil((t_final - t) / dt)
    for k in range(1, n + 1):
        step = min(dt, t_final - t)
        y = _rk4(a, y, step)
        t += step
        det = y[0] * y[1] - (y[2] / 2.0) ** 2
        if min(y[0], y[1]) <= 0.0 or det <= 0.0:
            raise UnphysicalStateError(
                f"plus block has nonpositive dispersions or determinant ({det:.6e}) at t={t}")
        if k % every == 0 or k == n:
            out.append((k, t, y))
    steps, times, plus = zip(*out)
    return np.array(steps), np.array(times), np.array(plus)


@pytest.mark.parametrize("model", ["position", "symmetric"],
                         ids=["position-constant", "symmetric-constant"])
def test_integrate_equals_chained_steps(model):
    if model == "position":
        coeffs = position_coeffs()
    else:
        coeffs = asy.coefficient_limits(OHMIC, 1.0, 0.3, "symmetric")
    start = mo.MomentState(1.1, 0.7, 0.3, 0.9, 0.6, -0.2, time=0.25)
    # 0.175 is no whole number of default steps at omega = 0.9: each spacing
    # takes 16 equal steps, and the oracle steps by that size
    spacing, samples = 0.175, 18
    every = mo.whole_steps(spacing, 0.9, coeffs.gamma)
    assert every == 16
    traj = mo.integrate(start, coeffs, 1.3, 0.9, spacing, samples, model=model)
    _, times, plus = _float_loop(model, start, coeffs, 1.3, 0.9, 0.25 + (samples - 1) * spacing,
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
    start = VACUUM
    with pytest.raises(UnphysicalStateError) as by_integrate:
        mo.integrate(start, c, 1.0, 1.0, 10.0, 6)
    with pytest.raises(UnphysicalStateError) as by_steps:
        _float_loop("position", start, c, 1.0, 1.0, 50.0, 0.01, 1000)
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
    start = mo.MomentState(nm[0, 0], nm[1, 1], 2 * nm[0, 1], nm[2, 2], nm[3, 3], 2 * nm[2, 3])
    t = got["t"]
    dt = mo.default_step(omega, coeffs.gamma)
    steps, _, plus = _float_loop(sc.model, start, coeffs, m_plus, omega, t[-1], dt, 5)
    grid = np.minimum(steps * dt, t[-1])
    minus = free_rotation(nm[2:, 2:], m_minus, omega_minus, grid)
    v = np.zeros((len(grid), 4, 4))
    v[:, 0, 0], v[:, 1, 1] = plus[:, 0], plus[:, 1]
    v[:, 0, 1] = v[:, 1, 0] = plus[:, 2] / 2
    v[:, 2:, 2:] = minus
    want = {
        "E_N_moments": log_negativities(mix_modes(v)),
        "dx_plus_sq": plus[:, 0], "dp_plus_sq": plus[:, 1],
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
    plus = [[blocks[0, 0], blocks[1, 1], 2 * blocks[0, 1]]]
    minus = [[blocks[2, 2], blocks[3, 3], 2 * blocks[2, 3]]]
    assert mo.negativities(plus, minus)[0] == pytest.approx(2.0 * abs(r), abs=1e-9)


def test_transient_dips_below_lindblad_bound_but_stays_positive():
    # the anomalous-diffusion term is first order in gamma: transients from
    # the vacuum undershoot det = 1/4 (non-Lindblad) yet never reach zero
    c = position_coeffs()
    traj = mo.integrate(VACUUM, c, 1.0, 1.0, 0.05, 601)
    x2, p2, xp = traj.plus.T
    dets = x2 * p2 - (xp / 2.0) ** 2
    assert min(dets) < 0.25 - 1e-3  # genuinely dips
    assert min(dets) > 0.15  # but stays well away from collapse
    # every step, not only the samples, stays away from collapse
    assert 0.15 < traj.min_plus_det <= min(dets)
    # the late-time state is physical again
    assert dets[-1] > 0.25 - 1e-6
