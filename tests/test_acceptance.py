"""Acceptance suite: ten end-to-end criteria with pinned tolerances.

Each criterion prints a single PASS line (uncaptured) when it holds; a
failure shows up as an ordinary pytest failure.  The expensive exact-engine
runs are shared across criteria through module-scoped fixtures.
"""

import math

import numpy as np
import pytest
from oracles import asymptotic_covariance, r_crit_from_coefficients

from entbath import asymptotics as asy
from entbath import exact as ex
from entbath import moments as mo
from entbath.bath import SpectralDensity, discretize, modes_for_window
from entbath.gaussian import (
    CovarianceMatrix,
    Ordering,
    OscillatorParams,
    basis_change,
    log_negativity,
    separable_squeezed,
    symplectic_eigenvalues,
    two_mode_squeezed,
)

OHMIC = SpectralDensity.ohmic(0.1, 20.0)
OSC = OscillatorParams(1.0, 1.0, 1.0)
EN_FLOOR = 1e-10
VACUUM = np.eye(2) / 2.0  # the plus block at m = omega = 1


@pytest.fixture
def announce(capsys):
    def _p(line: str) -> None:
        with capsys.disabled():
            print(line)

    return _p


def window(tr: ex.NegativityTrace, t_lo: float, t_hi: float) -> np.ndarray:
    return (tr.times >= t_lo) & (tr.times <= t_hi)


def run_trace(drift, v_sys, t_max, dt=0.02, stride=5):
    cfg = ex.EvolutionConfig(t_max, dt, stride)
    return ex.negativity_trace(v_sys, drift, cfg)


# ---------------------------------------------------------------------------
# Shared expensive runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig3():
    """Ohmic desk-scale reproduction: three initial states, t_max = 150."""
    n = modes_for_window(20.0, 150.0)
    bath = discretize(OHMIC, n, 0.0)
    drift = ex.build_position_model(OSC, bath)
    traces = {
        "sep+2": run_trace(drift, separable_squeezed(2.0), 150.0),
        "sep-2": run_trace(drift, separable_squeezed(-2.0), 150.0),
        "coh0": run_trace(drift, separable_squeezed(0.0), 150.0),
    }
    return bath, drift, traces


@pytest.fixture(scope="module")
def symmetric_run():
    n = modes_for_window(20.0, 150.0)
    bath = discretize(OHMIC, n, 0.0)
    drift = ex.build_symmetric_model(OSC, bath)
    v_sys = basis_change(
        two_mode_squeezed(1.0, drift.m_minus, drift.omega_minus), Ordering.PHYSICAL
    )
    return bath, drift, run_trace(drift, v_sys, 150.0)


@pytest.fixture(scope="module")
def super_run():
    sd = SpectralDensity.super_ohmic(0.15, 20.0)
    n = modes_for_window(20.0, 300.0)
    bath = discretize(sd, n, 0.0)
    drift = ex.build_position_model(OSC, bath)
    v_sys = basis_change(two_mode_squeezed(2.0), Ordering.PHYSICAL)
    return sd, bath, drift, run_trace(drift, v_sys, 300.0)


@pytest.fixture(scope="module")
def detuned_runs():
    osc = OscillatorParams(1.0, 1.05, 0.95)
    n = modes_for_window(20.0, 300.0)
    bath = discretize(OHMIC, n, 10.0)
    drift = ex.build_position_model(osc, bath)
    traces = {
        r: run_trace(drift, separable_squeezed(float(r)), 300.0, stride=10)
        for r in (0, 1, 2)
    }
    return bath, drift, traces


def final_system_block(drift, v_sys, t: float) -> np.ndarray:
    block = drift.reduced_channel(np.array([t])).blocks(v_sys)[0]
    return 0.5 * (block + block.T)


# ---------------------------------------------------------------------------
# Criterion 1: two-mode squeezed negativity closed form
# ---------------------------------------------------------------------------

def test_criterion_1_tms_negativity(announce):
    for r in (0.25, 0.5, 1.0, 2.0):
        for sign in (1.0, -1.0):
            v = basis_change(two_mode_squeezed(sign * r), Ordering.PHYSICAL)
            assert log_negativity(v) == pytest.approx(2.0 * r, abs=1e-9)
    announce("PASS: criterion 1 — E_N = 2|r| for r in {0.25, 0.5, 1, 2} (tol 1e-9)")


# ---------------------------------------------------------------------------
# Criterion 2: moment-ODE fixed points
# ---------------------------------------------------------------------------

def test_criterion_2_fixed_points(announce):
    cases = []
    for t_bath in (0.0, 10.0):
        c = asy.coefficient_limits(OHMIC, 1.0, t_bath, "position")
        dx, dp = asy.equilibrium_dispersions_position(c, 1.0, 1.0)
        traj = mo.integrate(VACUUM, c, 1.0, 1.0, 1.0 / c.gamma, 51)
        (x2, v01), (_, p2) = traj.plus[-1]
        xp = 2.0 * v01  # <{x,p}>
        scale = max(dx * dx, dp * dp)
        assert abs(x2 - dx * dx) < 1e-8 * scale
        assert abs(p2 - dp * dp) < 1e-8 * scale
        assert abs(xp) < 1e-8 * scale
        cases.append(f"position T={t_bath:g}")
    # the symmetric fixed point is the thermal state at omega = m = 1
    cs = asy.coefficient_limits(OHMIC, 1.0, 0.3, "symmetric")
    coth = 1.0 / math.tanh(1.0 / (2.0 * 0.3))
    traj = mo.integrate(VACUUM, cs, 1.0, 1.0, 1.0 / cs.gamma, 51, model="symmetric")
    assert abs(traj.plus[-1, 0, 0] - coth / 2.0) < 1e-8
    assert abs(traj.plus[-1, 1, 1] - coth / 2.0) < 1e-8
    cases.append("symmetric T=0.3")
    announce(f"PASS: criterion 2 — moment fixed points within 1e-8 ({', '.join(cases)})")


# ---------------------------------------------------------------------------
# Criterion 3: oscillation law vs beam-splitter construction
# ---------------------------------------------------------------------------

def test_criterion_3_oscillation_law(announce):
    rng = np.random.default_rng(2024)
    for _ in range(100):
        r = rng.uniform(-2.0, 2.0)
        r_crit = rng.uniform(-1.0, 1.0)
        s_crit = rng.uniform(-0.5, 1.0)
        omega = rng.uniform(0.5, 2.0)
        mean, amp = asy.mean_and_amplitude(r, r_crit, s_crit)
        # extrema sit at integer multiples of the quarter period
        e0 = asy.entanglement_oscillation(r, r_crit, s_crit, omega, 0.0)
        eq = asy.entanglement_oscillation(
            r, r_crit, s_crit, omega, math.pi / (2.0 * omega)
        )
        assert max(e0, eq) == pytest.approx(mean + amp, abs=1e-6)
        assert min(e0, eq) == pytest.approx(mean - amp, abs=1e-6)
        # pointwise agreement with the rotating block-diagonal state
        dxdp_plus = math.exp(2.0 * s_crit) / 2.0
        dx_p = math.sqrt(dxdp_plus * math.exp(2.0 * r_crit))
        dp_p = math.sqrt(dxdp_plus * math.exp(-2.0 * r_crit))
        minus = np.diag([math.exp(2.0 * r) / 2.0, math.exp(-2.0 * r) / 2.0])
        for t in rng.uniform(0.0, 2.0 * math.pi / omega, size=3):
            law = asy.entanglement_oscillation(r, r_crit, s_crit, omega, float(t))
            if law > 1e-6:
                v = asymptotic_covariance(float(t), dx_p, dp_p, minus, 1.0 / omega, omega)
                assert log_negativity(v) == pytest.approx(law, abs=1e-8)
    announce("PASS: criterion 3 — oscillation law, 100 random tuples "
             "(extrema 1e-6, pointwise 1e-8)")


# ---------------------------------------------------------------------------
# Criterion 4: ohmic desk-scale reproduction
# ---------------------------------------------------------------------------

def test_criterion_4_fig3_reproduction(fig3, announce):
    _, drift, traces = fig3
    # (a) both states develop entanglement
    assert traces["sep+2"].e_n.max() > 0.5
    assert traces["coh0"].e_n.max() > 0.01
    # (b) late-time oscillation of the separable r=2 trace
    tr = traces["sep+2"]
    sel = window(tr, 120.0, 150.0)
    t, e = tr.times[sel], tr.e_n[sel]
    peaks = [
        t[i] for i in range(1, len(e) - 1) if e[i] >= e[i - 1] and e[i] > e[i + 1]
    ]
    period = float(np.mean(np.diff(peaks)))
    expected = math.pi / drift.omega_minus
    assert period == pytest.approx(expected, rel=0.02)
    # measured mean and amplitude vs the perturbative asymptotics
    c = asy.coefficient_limits(OHMIC, 1.0, 0.0, "position")
    dx, dp = asy.equilibrium_dispersions_position(c, 1.0, 1.0)
    cp = asy.critical_params(dx, dp, math.sqrt(0.5), math.sqrt(0.5), 1.0, 1.0)
    mean_pred, amp_pred = asy.mean_and_amplitude(2.0, cp.r_crit, cp.s_crit)
    mean_obs = 0.5 * (e.max() + e.min())
    amp_obs = 0.5 * (e.max() - e.min())
    assert mean_obs == pytest.approx(mean_pred, rel=0.10)
    assert amp_obs == pytest.approx(amp_pred, rel=0.10)
    announce(
        "PASS: criterion 4 — ohmic reproduction: period "
        f"{period:.4f} vs {expected:.4f}, mean {mean_obs:.3f} vs {mean_pred:.3f}, "
        f"amplitude {amp_obs:.3f} vs {amp_pred:.3f} (10%)"
    )


# ---------------------------------------------------------------------------
# Criterion 5: r <-> -r quarter-period dephasing
# ---------------------------------------------------------------------------

def test_criterion_5_sign_flip_phase_shift(fig3, announce):
    _, drift, traces = fig3
    plus, minus = traces["sep+2"], traces["sep-2"]
    shift = math.pi / (2.0 * drift.omega_minus)
    sel = window(plus, 135.0, 150.0 - shift)
    t = plus.times[sel]
    e_plus = plus.e_n[sel]
    e_minus_shifted = np.interp(t + shift, minus.times, minus.e_n)
    c = asy.coefficient_limits(OHMIC, 1.0, 0.0, "position")
    amp = abs(r_crit_from_coefficients(c, 1.0))
    residual = float(np.abs(e_plus - e_minus_shifted).max())
    assert residual < 0.05 * amp
    announce(
        "PASS: criterion 5 — r=+2 vs r=-2 quarter-period shift, residual "
        f"{residual:.2e} < 5% of dE={amp:.3f}"
    )


# ---------------------------------------------------------------------------
# Criterion 6: symmetric model plateau
# ---------------------------------------------------------------------------

def test_criterion_6_symmetric_plateau(symmetric_run, announce):
    _, drift, tr = symmetric_run
    sel = window(tr, 140.0, 150.0)
    e_late = float(np.mean(tr.e_n[sel]))
    assert e_late == pytest.approx(1.0, rel=0.05)
    scale = drift.m_minus * drift.omega_minus
    dx = math.sqrt(float(np.mean(tr.dx_plus_sq[sel])))
    dp = math.sqrt(float(np.mean(tr.dp_plus_sq[sel])))
    assert scale * dx == pytest.approx(dp, rel=0.02)
    r_crit_obs = 0.5 * math.log(scale * dx / dp)
    assert abs(r_crit_obs) < 0.01
    announce(
        "PASS: criterion 6 — symmetric plateau E_N="
        f"{e_late:.4f} (target 1, 5%), M Omega dx+/dp+ = "
        f"{scale * dx / dp:.4f} (2%), r_crit = {r_crit_obs:.4f}"
    )


# ---------------------------------------------------------------------------
# Criterion 7: phase-label consistency on the (r, T) grid
# ---------------------------------------------------------------------------

def observed_phase(tr: ex.NegativityTrace, omega_minus: float) -> asy.Phase:
    sel = window(tr, tr.times[-1] - 2.0 * math.pi / omega_minus, tr.times[-1])
    e = tr.e_n[sel]
    if e.max() <= EN_FLOOR:
        return asy.Phase.SD
    if e.min() > EN_FLOOR:
        return asy.Phase.NSD
    return asy.Phase.SDR


def test_criterion_7_phase_grid(announce):
    n = modes_for_window(20.0, 150.0)
    rs = (0.02, 0.12, 1.0, 2.0)
    temps = (0.0, 0.3, 10.0)
    matches, rows = 0, []
    for t_bath in temps:
        bath = discretize(OHMIC, n, t_bath)
        drift = ex.build_position_model(OSC, bath)
        dx_p, dp_p = asy.FdtRule(OHMIC, 1.0).dispersions(t_bath)
        for r in rs:
            dx_m = math.exp(r) / math.sqrt(2.0)
            dp_m = math.exp(-r) / math.sqrt(2.0)
            cp = asy.critical_params(dx_p, dp_p, dx_m, dp_m, 1.0, 1.0)
            pred = asy.classify(r, cp.r_crit, cp.s_crit)
            tr = run_trace(drift, separable_squeezed(r), 150.0)
            obs = observed_phase(tr, drift.omega_minus)
            rows.append(f"(r={r:g}, T={t_bath:g}): {obs.value} vs {pred.value}")
            if obs is pred:
                matches += 1
    assert matches >= 10, "\n".join(rows)
    announce(f"PASS: criterion 7 — phase labels match in {matches}/12 cells")


# ---------------------------------------------------------------------------
# Criterion 8: super-ohmic non-equilibration
# ---------------------------------------------------------------------------

def test_criterion_8_super_ohmic_slow_decay(super_run, announce):
    sd, _, drift, tr = super_run
    gamma_sup = 2.0 * sd.gamma0 * (1.0 / sd.cutoff) ** 2
    dx2, dp2 = asy.FdtRule(sd, 1.0).dispersions(0.0)
    r_crit = 0.5 * math.log(dx2 / dp2)
    # squeezing of the plus block relative to its equilibrium value
    r_c = 0.25 * np.log(tr.dx_plus_sq / tr.dp_plus_sq)
    dev = np.abs(r_c - r_crit)
    # block-maximum envelope over ~pi windows
    edges = np.arange(0.0, tr.times[-1] + math.pi, math.pi)
    centers, env = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (tr.times >= lo) & (tr.times < hi)
        if sel.any():
            centers.append(0.5 * (lo + hi))
            env.append(dev[sel].max())
    centers, env = np.array(centers), np.array(env)
    fit_sel = (centers >= 30.0) & (env > 0.0)
    slope = np.polyfit(centers[fit_sel], np.log(env[fit_sel]), 1)[0]
    rate = -slope
    assert gamma_sup / 2.0 < rate < 2.0 * gamma_sup
    # no settling on t <= 0.1/gamma_sup: envelope barely decays
    t_probe = 0.1 / gamma_sup
    e_early = env[np.argmin(np.abs(centers - 30.0))]
    e_probe = env[np.argmin(np.abs(centers - t_probe))]
    assert e_probe > 0.5 * e_early
    announce(
        "PASS: criterion 8 — super-ohmic decay rate "
        f"{rate:.2e} vs gamma_sup {gamma_sup:.2e} (factor "
        f"{rate / gamma_sup:.2f}), envelope at t=0.1/gamma still "
        f"{e_probe / e_early:.2f} of early value"
    )


# ---------------------------------------------------------------------------
# Criterion 9: non-resonant high-temperature sudden death
# ---------------------------------------------------------------------------

def test_criterion_9_detuned_high_t(detuned_runs, announce):
    _, drift, traces = detuned_runs
    tr2 = traces[2]
    # transient entanglement, then permanent death inside the window
    assert tr2.e_n.max() > 0.1
    late = window(tr2, 200.0, 300.0)
    assert tr2.e_n[late].max() <= EN_FLOOR
    # final state forgets the initial squeezing
    finals = {
        r: final_system_block(drift, separable_squeezed(float(r)), 300.0)
        for r in (0, 1, 2)
    }
    scale = max(np.abs(v).max() for v in finals.values())
    worst = 0.0
    for a in (0, 1):
        for b in range(a + 1, 3):
            worst = max(worst, np.abs(finals[a] - finals[b]).max() / scale)
    assert worst < 0.05
    announce(
        "PASS: criterion 9 — detuned high-T: transient E_N "
        f"{tr2.e_n.max():.3f} then permanent death; final covariances "
        f"agree to {worst:.2e} (< 5%)"
    )


# ---------------------------------------------------------------------------
# Criterion 10: invariant suite on the criteria-4..9 trajectories
# ---------------------------------------------------------------------------

def check_invariants(drift, bath, v_sys, t: float):
    s = drift.normal_modes.propagator(t)
    scale = float(np.abs(s).max())
    assert ex.symplecticity_defect(s) < 1e-8 * max(1.0, scale**2)
    v0 = ex.initial_covariance(v_sys, bath)
    v1 = 0.5 * ((s @ v0.matrix @ s.T) + (s @ v0.matrix @ s.T).T)
    # global purity: det V is invariant under symplectic evolution
    sign0, logdet0 = np.linalg.slogdet(v0.matrix)
    sign1, logdet1 = np.linalg.slogdet(v1)
    assert sign0 == sign1 == 1.0
    assert abs(logdet1 - logdet0) < 1e-8 * max(1.0, abs(logdet0))
    e0 = ex.energy_of(drift, v0)
    e1 = ex.energy_of(drift, CovarianceMatrix(v1, Ordering.FULL))
    assert abs(e1 - e0) < 1e-8 * abs(e0)
    # reduced-state physicality at the final time
    nu = symplectic_eigenvalues(0.5 * (v1[:4, :4] + v1[:4, :4].T))
    assert nu[0] >= 0.5 - 1e-9


def test_criterion_10_invariant_suite(fig3, symmetric_run, super_run, detuned_runs,
                                      announce):
    fig3_bath, fig3_drift, _ = fig3
    check_invariants(fig3_drift, fig3_bath, separable_squeezed(2.0), 150.0)
    sym_bath, sym_drift, _ = symmetric_run
    v_sym = basis_change(
        two_mode_squeezed(1.0, sym_drift.m_minus, sym_drift.omega_minus),
        Ordering.PHYSICAL,
    )
    check_invariants(sym_drift, sym_bath, v_sym, 150.0)
    _, sup_bath, sup_drift, _ = super_run
    check_invariants(sup_drift, sup_bath,
                     basis_change(two_mode_squeezed(2.0), Ordering.PHYSICAL), 300.0)
    det_bath, det_drift, _ = detuned_runs
    check_invariants(det_drift, det_bath, separable_squeezed(2.0), 300.0)
    announce(
        "PASS: criterion 10 — symplecticity, purity, energy and reduced "
        "physicality hold on the criteria 4-9 trajectories"
    )
