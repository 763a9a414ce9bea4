"""Master-equation moment integration: fixed points, free limits,
schedules and the entanglement readout."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbath import asymptotics as asy
from entbath import moments as mo
from entbath.bath import SpectralDensity
from entbath.errors import StepSizeError, UnphysicalStateError
from entbath.gaussian import (
    Ordering,
    basis_change,
    log_negativity,
    two_mode_squeezed,
)

OHMIC = SpectralDensity.ohmic(0.1, 20.0)


def position_coeffs(t=0.0):
    regime = asy.Regime.ZERO_T if t == 0.0 else asy.Regime.HIGH_T
    return asy.coefficient_limits(OHMIC, 1.0, t, regime, "position")


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
    s2 = mo.step_position_model(s, c, 1.0, 1.0, 0.005)
    assert s2.x2_plus == pytest.approx(s.x2_plus, rel=1e-13)
    assert s2.p2_plus == pytest.approx(s.p2_plus, rel=1e-13)
    assert abs(s2.xp_plus) < 1e-13


def test_symmetric_fixed_point_is_stationary():
    c = asy.coefficient_limits(OHMIC, 1.0, 0.3, None, "symmetric")
    dx, dp = asy.equilibrium_dispersions_symmetric(c, 1.0, 1.0)
    s = mo.MomentState(dx * dx, dp * dp, 0.0, 0.5, 0.5, 0.0)
    s2 = mo.step_symmetric_model(s, c, 1.0, 1.0, 0.005)
    assert s2.x2_plus == pytest.approx(s.x2_plus, rel=1e-13)
    assert s2.p2_plus == pytest.approx(s.p2_plus, rel=1e-13)
    assert abs(s2.xp_plus) < 1e-13


@pytest.mark.parametrize("t_bath", [0.0, 10.0])
def test_position_model_converges_to_fixed_point(t_bath):
    c = position_coeffs(t_bath)
    dx, dp = asy.equilibrium_dispersions_position(c, 1.0, 1.0)
    start = mo.vacuum_state(1.0, 1.0)
    traj = mo.integrate(start, c, 1.0, 1.0, 60.0, sample_every=50)
    end = traj[-1]
    assert end.x2_plus == pytest.approx(dx * dx, rel=1e-6)
    assert end.p2_plus == pytest.approx(dp * dp, rel=1e-6)
    assert abs(end.xp_plus) < 1e-6 * max(1.0, dp * dp)


def test_free_limit_preserves_determinant():
    # vanishing bath coefficients: both blocks rotate freely
    c = asy.PositionCoefficients(1e-300, 1e-300, 0.0)
    start = mo.MomentState(1.1, 0.7, 0.3, 0.9, 0.6, -0.2)
    traj = mo.integrate(start, c, 1.0, 1.0, 12.0, dt=0.01, sample_every=100)
    d0 = start.x2_plus * start.p2_plus - (start.xp_plus / 2.0) ** 2
    for s in traj:
        d = s.x2_plus * s.p2_plus - (s.xp_plus / 2.0) ** 2
        assert d == pytest.approx(d0, rel=1e-8)


def test_minus_block_rotation_is_exact():
    c = position_coeffs()
    r = 0.7
    start = mo.MomentState(0.5, 0.5, 0.0, math.exp(2 * r) / 2, math.exp(-2 * r) / 2, 0.0)
    traj = mo.integrate(start, c, 1.0, 1.0, 5.0, m_minus=1.0, omega_minus=1.0,
                        sample_every=100)
    end = traj[-1]
    rot = mo.free_minus_evolution(start.minus_block(), 1.0, 1.0, end.time)
    assert end.x2_minus == pytest.approx(rot[0, 0], rel=1e-12)
    assert end.p2_minus == pytest.approx(rot[1, 1], rel=1e-12)


def test_step_size_guard():
    c = position_coeffs()
    s = mo.vacuum_state(1.0, 1.0)
    with pytest.raises(StepSizeError):
        mo.step_position_model(s, c, 1.0, 1.0, 0.5)
    assert mo.default_step(1.0, 0.2) == pytest.approx(0.01)
    assert mo.default_step(1.0, 3.0) == pytest.approx(0.01 / 3.0)


def _chained_steps(step, start, coeffs, mass, omega, t_final, dt, every):
    # the sampling loop of integrate, one public step call at a time
    out = [start]
    s = start
    for k in range(math.ceil((t_final - start.time) / dt)):
        step_dt = min(dt, t_final - s.time)
        if step_dt <= 0:
            break
        s = step(s, coeffs, mass, omega, step_dt)
        if k % every == every - 1 or s.time >= t_final:
            out.append(s)
    return out


@pytest.mark.parametrize("tabulated", [False, True], ids=["constant", "tabulated"])
@pytest.mark.parametrize("model", ["position", "symmetric"])
def test_integrate_equals_chained_steps(model, tabulated):
    if model == "position":
        step = mo.step_position_model
        coeffs = position_coeffs()
        table = [asy.PositionCoefficients(0.1, 0.2, 0.0),
                 asy.PositionCoefficients(0.3, 0.4, 0.1)]
    else:
        step = mo.step_symmetric_model
        coeffs = asy.coefficient_limits(OHMIC, 1.0, 0.3, None, "symmetric")
        table = [asy.SymmetricCoefficients(0.1, 0.2), asy.SymmetricCoefficients(0.2, 0.3)]
    omega = 0.9
    if tabulated:
        coeffs = mo.TabulatedSchedule([0.0, 2.0], table, kind=model)
        omega = lambda t: 0.9 + 0.01 * t
    start = mo.MomentState(1.1, 0.7, 0.3, 0.9, 0.6, -0.2, time=0.25)
    # 3.0 / 0.007 is not an integer: the last step is a short one
    traj = mo.integrate(start, coeffs, 1.3, omega, 3.25, dt=0.007, model=model,
                        sample_every=25)
    chained = _chained_steps(step, start, coeffs, 1.3, omega, 3.25, 0.007, 25)
    assert len(traj) == len(chained) > 10
    for a, b in zip(traj, chained):
        assert (a.x2_plus, a.p2_plus, a.xp_plus, a.time) == (
            b.x2_plus, b.p2_plus, b.xp_plus, b.time
        )


def test_integrate_refuses_like_chained_steps():
    # negative diffusion drains <p^2> until the plus block loses positivity
    c = asy.PositionCoefficients(0.05, -0.5, 0.0)
    start = mo.vacuum_state(1.0, 1.0)
    with pytest.raises(UnphysicalStateError) as by_integrate:
        mo.integrate(start, c, 1.0, 1.0, 50.0, sample_every=1000)
    with pytest.raises(UnphysicalStateError) as by_steps:
        _chained_steps(mo.step_position_model, start, c, 1.0, 1.0, 50.0, 0.01, 1000)
    assert str(by_integrate.value) == str(by_steps.value)
    assert str(by_integrate.value).startswith("plus block has nonpositive")


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


def test_schedule_reaches_time_dependent_fixed_point():
    # coefficients that settle onto the asymptotic values drive the state
    # to the same equilibrium as the constant schedule
    c_end = position_coeffs()
    vals = [asy.PositionCoefficients(0.0, 1e-12, 0.0), c_end, c_end]
    sched = mo.TabulatedSchedule([0.0, 5.0, 10.0], vals)
    start = mo.vacuum_state(1.0, 1.0)
    traj = mo.integrate(start, sched, 1.0, 1.0, 80.0, sample_every=100)
    dx, dp = asy.equilibrium_dispersions_position(c_end, 1.0, 1.0)
    assert traj[-1].x2_plus == pytest.approx(dx * dx, rel=1e-5)
    assert traj[-1].p2_plus == pytest.approx(dp * dp, rel=1e-5)


@given(st.floats(-1.5, 1.5))
@settings(max_examples=30, deadline=None)
def test_negativity_readout_matches_gaussian_module(r):
    nm = basis_change(two_mode_squeezed(r), Ordering.PHYSICAL)
    blocks = basis_change(nm, Ordering.NORMAL).matrix
    s = mo.MomentState(
        blocks[0, 0], blocks[1, 1], 2 * blocks[0, 1],
        blocks[2, 2], blocks[3, 3], 2 * blocks[2, 3],
    )
    assert mo.negativity_from_moments(s) == pytest.approx(2.0 * abs(r), abs=1e-9)


def test_transient_dips_below_lindblad_bound_but_stays_positive():
    # the anomalous-diffusion term is first order in gamma: transients from
    # the vacuum undershoot det = 1/4 (non-Lindblad) yet never reach zero
    c = position_coeffs()
    traj = mo.integrate(mo.vacuum_state(1.0, 1.0), c, 1.0, 1.0, 30.0, sample_every=5)
    dets = [s.x2_plus * s.p2_plus - (s.xp_plus / 2.0) ** 2 for s in traj]
    assert min(dets) < 0.25 - 1e-3  # genuinely dips
    assert min(dets) > 0.15  # but stays well away from collapse
    assert traj[-1].is_physical(atol=1e-3) or dets[-1] > 0.2
    # the late-time state is physical again
    assert dets[-1] > 0.25 - 1e-6
