"""Master-equation moment integration: fixed points, free limits,
schedules and the entanglement readout."""

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


def position_coeffs(t=0.0):
    return asy.coefficient_limits(OHMIC, 1.0, t, "position")


def test_vacuum_state_physical():
    s = mo.vacuum_state(1.3, 0.8)
    assert s.is_physical()
    assert s.x2_plus * s.p2_plus == pytest.approx(0.25)


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
    x2, p2, xp = mo.integrate(s, c, 1.0, 1.0, 0.005, dt=0.005).plus[-1]
    assert x2 == pytest.approx(s.x2_plus, rel=1e-13)
    assert p2 == pytest.approx(s.p2_plus, rel=1e-13)
    assert abs(xp) < 1e-13


def test_symmetric_fixed_point_is_stationary():
    c = asy.coefficient_limits(OHMIC, 1.0, 0.3, "symmetric")
    dx, dp = asy.equilibrium_dispersions_symmetric(c, 1.0, 1.0)
    s = mo.MomentState(dx * dx, dp * dp, 0.0, 0.5, 0.5, 0.0)
    x2, p2, xp = mo.integrate(s, c, 1.0, 1.0, 0.005, dt=0.005, model="symmetric").plus[-1]
    assert x2 == pytest.approx(s.x2_plus, rel=1e-13)
    assert p2 == pytest.approx(s.p2_plus, rel=1e-13)
    assert abs(xp) < 1e-13


@pytest.mark.parametrize("t_bath", [0.0, 10.0])
def test_position_model_converges_to_fixed_point(t_bath):
    c = position_coeffs(t_bath)
    dx, dp = asy.equilibrium_dispersions_position(c, 1.0, 1.0)
    start = mo.vacuum_state(1.0, 1.0)
    x2, p2, xp = mo.integrate(start, c, 1.0, 1.0, 60.0, sample_every=50).plus[-1]
    assert x2 == pytest.approx(dx * dx, rel=1e-6)
    assert p2 == pytest.approx(dp * dp, rel=1e-6)
    assert abs(xp) < 1e-6 * max(1.0, dp * dp)


def test_free_limit_preserves_determinant():
    # vanishing bath coefficients: both blocks rotate freely
    c = asy.PositionCoefficients(1e-300, 1e-300, 0.0)
    start = mo.MomentState(1.1, 0.7, 0.3, 0.9, 0.6, -0.2)
    traj = mo.integrate(start, c, 1.0, 1.0, 12.0, dt=0.01, sample_every=100)
    d0 = start.x2_plus * start.p2_plus - (start.xp_plus / 2.0) ** 2
    for x2, p2, xp in traj.plus:
        assert x2 * p2 - (xp / 2.0) ** 2 == pytest.approx(d0, rel=1e-8)


def test_minus_block_rotation_is_exact():
    c = position_coeffs()
    r = 0.7
    start = mo.MomentState(0.5, 0.5, 0.0, math.exp(2 * r) / 2, math.exp(-2 * r) / 2, 0.0)
    traj = mo.integrate(start, c, 1.0, 1.0, 5.0, m_minus=1.0, omega_minus=1.0,
                        sample_every=100)
    rot = free_rotation(start.minus_block(), 1.0, 1.0, traj.times[-1])
    assert traj.minus[-1, 0] == pytest.approx(rot[0, 0], rel=1e-12)
    assert traj.minus[-1, 1] == pytest.approx(rot[1, 1], rel=1e-12)


def test_step_size_guard():
    c = position_coeffs()
    s = mo.vacuum_state(1.0, 1.0)
    with pytest.raises(StepSizeError):
        mo.integrate(s, c, 1.0, 1.0, 0.5, dt=0.5)
    assert mo.default_step(1.0, 0.2) == pytest.approx(0.01)
    assert mo.default_step(1.0, 3.0) == pytest.approx(0.01 / 3.0)


@pytest.mark.parametrize("growing", ["omega", "gamma"])
def test_default_step_follows_growing_rates(growing):
    # rates that outgrow the first step are stepped finer, not refused
    if growing == "omega":
        coeffs, omega = position_coeffs(), lambda t: 1.3 + 0.01 * t
        first = mo.default_step(1.3, coeffs.gamma)
    else:  # gamma grows 30x over the window
        coeffs = mo.TabulatedSchedule([0.0, 10.0], [asy.PositionCoefficients(0.1, 0.1, 0.0),
                                                    asy.PositionCoefficients(3.0, 3.0, 0.0)])
        omega, first = 1.0, mo.default_step(1.0, 0.1)
    start = mo.MomentState(1.1, 0.7, 0.3, 0.9, 0.6, -0.2)
    with pytest.raises(StepSizeError):  # an explicit step stays fixed
        mo.integrate(start, coeffs, 1.0, omega, 10.0, dt=first)
    end = mo.integrate(start, coeffs, 1.0, omega, 10.0)
    fine = mo.integrate(start, coeffs, 1.0, omega, 10.0, dt=1e-3)
    assert end.times[-1] == 10.0
    assert end.plus[-1] == pytest.approx(fine.plus[-1], abs=1e-8)


@pytest.mark.parametrize("t_final, steps", [(10.0, 10000), (10.0004, 10001)])
@pytest.mark.parametrize("scheduled", [False, True], ids=["constant", "callable"])
def test_fixed_step_run_ends_at_t_final(scheduled, t_final, steps):
    # t0 + k dt from the step count, and an explicit last step onto t_final:
    # the final state is sampled although 7 divides neither step count
    omega = (lambda t: 1.3 + 0.01 * t) if scheduled else 1.3
    start = mo.MomentState(1.1, 0.7, 0.3, 0.9, 0.6, -0.2)
    traj = mo.integrate(start, position_coeffs(), 1.0, omega, t_final, dt=1e-3, sample_every=7)
    assert traj.times[-1] == t_final
    assert len(traj.times) == len(traj.plus) == math.ceil(steps / 7) + 1
    assert traj.times[-2] == pytest.approx(7e-3 * (steps // 7), abs=1e-12)


def _rates(a, x2, p2, xp):
    m, a1, a2, a3, a4, a5, a6, a7, a8 = a
    return (xp / m - a1 * x2 + a2, a3 * xp - a4 * p2 + a5, 2.0 * p2 / m - a6 * x2 - a7 * xp - a8)


def _rk4(env, y, t, dt):
    x2, p2, xp = y
    h = dt / 2.0
    mid = env(t + h)
    k1 = _rates(env(t), x2, p2, xp)
    k2 = _rates(mid, x2 + h * k1[0], p2 + h * k1[1], xp + h * k1[2])
    k3 = _rates(mid, x2 + h * k2[0], p2 + h * k2[1], xp + h * k2[2])
    k4 = _rates(env(t + dt), x2 + dt * k3[0], p2 + dt * k3[1], xp + dt * k3[2])
    h = dt / 6.0
    return tuple(y[i] + h * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(3))


def _float_loop(model, start, coeffs, mass, omega, t_final, dt, every):
    """The oracle: the plus moments marched one float RK4 step at a time,
    sampled like ``integrate``; returns (step counts, times, plus rows)."""
    form = mo._FORMS[model]
    env = lambda t: form(*(v(t) if callable(v) else v for v in (mass, omega, coeffs)))
    y, t = start.plus_block_moments(), start.time
    out = [(0, t, y)]
    n = math.ceil((t_final - t) / dt)
    for k in range(1, n + 1):
        step = min(dt, t_final - t)
        y = _rk4(env, y, t, step)
        t += step
        det = y[0] * y[1] - (y[2] / 2.0) ** 2
        if min(y[0], y[1]) <= 0.0 or det <= 0.0:
            raise UnphysicalStateError(
                f"plus block has nonpositive dispersions or determinant ({det:.6e}) at t={t}")
        if k % every == 0 or k == n:
            out.append((k, t, y))
    steps, times, plus = zip(*out)
    return np.array(steps), np.array(times), np.array(plus)


@pytest.mark.parametrize("tabulated", [False, True], ids=["constant", "tabulated"])
@pytest.mark.parametrize("model", ["position", "symmetric"])
def test_integrate_equals_chained_steps(model, tabulated):
    if model == "position":
        coeffs = position_coeffs()
        table = [asy.PositionCoefficients(0.1, 0.2, 0.0),
                 asy.PositionCoefficients(0.3, 0.4, 0.1)]
    else:
        coeffs = asy.coefficient_limits(OHMIC, 1.0, 0.3, "symmetric")
        table = [asy.SymmetricCoefficients(0.1, 0.2), asy.SymmetricCoefficients(0.2, 0.3)]
    omega = 0.9
    if tabulated:
        coeffs = mo.TabulatedSchedule([0.0, 2.0], table, kind=model)
        omega = lambda t: 0.9 + 0.01 * t
    start = mo.MomentState(1.1, 0.7, 0.3, 0.9, 0.6, -0.2, time=0.25)
    # 3.0 / 0.007 is not an integer: the last step is a short one
    traj = mo.integrate(start, coeffs, 1.3, omega, 3.25, dt=0.007, model=model,
                        sample_every=25)
    _, times, plus = _float_loop(model, start, coeffs, 1.3, omega, 3.25, 0.007, 25)
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
    start = mo.vacuum_state(1.0, 1.0)
    with pytest.raises(UnphysicalStateError) as by_integrate:
        mo.integrate(start, c, 1.0, 1.0, 50.0, sample_every=1000)
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


def test_tabulated_schedule_interpolation_and_clamping():
    vals = [asy.PositionCoefficients(0.1, 0.2, 0.0),
            asy.PositionCoefficients(0.3, 0.4, 0.1)]
    sched = mo.TabulatedSchedule([0.0, 1.0], vals)
    assert sched(0.5).gamma == pytest.approx(0.2)
    assert sched(-1.0).gamma == pytest.approx(0.1)  # clamped
    assert sched(5.0).diffusion == pytest.approx(0.4)
    with pytest.raises(ValueError):
        mo.TabulatedSchedule([1.0, 0.0], vals)
    with pytest.raises(ValueError):
        mo.TabulatedSchedule([0.0], vals[:1])


@pytest.mark.parametrize("kind", ["position", "symmetric"])
def test_tabulated_schedule_matches_np_interp(kind):
    # one bracket search per call: every field is np.interp of its column,
    # at the nodes, between them and clamped outside the grid
    rng = np.random.default_rng(7)
    grid = np.cumsum(rng.uniform(0.05, 2.0, 9)) - 3.0
    cls = asy.PositionCoefficients if kind == "position" else asy.SymmetricCoefficients
    fields = ("gamma", "diffusion", "anomalous")[:len(cls.__dataclass_fields__)]
    cols = {f: rng.uniform(-2.0, 2.0, len(grid)) for f in fields}
    sched = mo.TabulatedSchedule(grid, [cls(*row) for row in zip(*cols.values())], kind=kind)
    between = rng.uniform(grid[0], grid[-1], 200)
    outside = [grid[0] - 5.0, grid[0] - 1e-9, grid[-1] + 1e-9, grid[-1] + 5.0]
    for ts in (grid, (grid[1:] + grid[:-1]) / 2.0, between, outside):
        for t in ts:
            got = sched(t)
            for f in fields:
                want = np.interp(t, grid, cols[f])
                assert abs(getattr(got, f) - want) <= 1e-15 * abs(want), (f, t)
    for i, t in enumerate(grid):
        assert all(getattr(sched(t), f) == cols[f][i] for f in fields)


def test_schedule_reaches_time_dependent_fixed_point():
    # coefficients that settle onto the asymptotic values drive the state
    # to the same equilibrium as the constant schedule
    c_end = position_coeffs()
    vals = [asy.PositionCoefficients(0.0, 1e-12, 0.0), c_end, c_end]
    sched = mo.TabulatedSchedule([0.0, 5.0, 10.0], vals)
    start = mo.vacuum_state(1.0, 1.0)
    traj = mo.integrate(start, sched, 1.0, 1.0, 80.0, sample_every=100)
    dx, dp = asy.equilibrium_dispersions_position(c_end, 1.0, 1.0)
    assert traj.plus[-1, 0] == pytest.approx(dx * dx, rel=1e-5)
    assert traj.plus[-1, 1] == pytest.approx(dp * dp, rel=1e-5)


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
    traj = mo.integrate(mo.vacuum_state(1.0, 1.0), c, 1.0, 1.0, 30.0, sample_every=5)
    x2, p2, xp = traj.plus.T
    dets = x2 * p2 - (xp / 2.0) ** 2
    assert min(dets) < 0.25 - 1e-3  # genuinely dips
    assert min(dets) > 0.15  # but stays well away from collapse
    # every step, not only the samples, stays away from collapse
    assert 0.15 < traj.min_plus_det <= min(dets)
    end = mo.MomentState(*traj.plus[-1], *traj.minus[-1])
    assert end.is_physical(atol=1e-3) or dets[-1] > 0.2
    # the late-time state is physical again
    assert dets[-1] > 0.25 - 1e-6
