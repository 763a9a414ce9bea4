"""Exact discrete-bath evolution: propagator structure, cross-validation
of the two integrators, renormalization identities and refusals."""

import math

import numpy as np
import pytest

from entbath import exact as ex
from entbath.bath import DiscreteBath, SpectralDensity, discretize
from entbath.errors import (
    RecurrenceWindowError,
    StepSizeError,
    UnstableHamiltonianError,
)
from entbath.gaussian import (
    CovarianceMatrix,
    Ordering,
    OscillatorParams,
    basis_change,
    separable_squeezed,
    symplectic_eigenvalues,
    two_mode_squeezed,
)

OHMIC = SpectralDensity.ohmic(0.1, 20.0)
OSC = OscillatorParams(1.0, 1.0, 1.0)


def small_setup(n=32, temperature=0.0):
    bath = discretize(OHMIC, n, temperature)
    drift = ex.build_position_model(OSC, bath)
    return bath, drift


# ---------------------------------------------------------------------------
# Structure and renormalization
# ---------------------------------------------------------------------------

def test_position_renormalization_shift_exact():
    bath, drift = small_setup()
    shift = -bath.counterterm_sum(1.0) / 2.0
    h = drift.hamiltonian
    assert h[0, 0] == pytest.approx(1.0 + shift, rel=1e-14)
    assert h[2, 2] == pytest.approx(1.0 + shift, rel=1e-14)
    assert h[0, 2] == pytest.approx(shift, rel=1e-14)
    # bath-free minus mode keeps the renormalized parameters exactly
    assert drift.m_minus == 1.0
    assert drift.omega_minus == pytest.approx(1.0, abs=1e-14)


def test_symmetric_renormalization_restores_minus_mode():
    bath = discretize(OHMIC, 32)
    drift = ex.build_symmetric_model(OSC, bath)
    # with c12 = c12_tilde = 0 the dressed minus mode is (M, Omega) with
    # M/m = w_bare^2/(w_bare^2 - S/2) and omega_minus = Omega exactly
    s = -bath.counterterm_sum(1.0)
    w_bare_sq = 0.5 * (s + 1.0 + math.sqrt((s + 1.0) ** 2 - s * s))
    assert drift.m_minus == pytest.approx(w_bare_sq / (w_bare_sq - s / 2.0), rel=1e-12)
    assert drift.omega_minus == pytest.approx(1.0, abs=1e-12)
    # the defining quadratic: (w_bare^2 - S/2)^2 = w_bare^2 Omega^2
    assert (w_bare_sq - s / 2.0) ** 2 == pytest.approx(w_bare_sq, rel=1e-12)


def test_symmetric_requires_resonance():
    bath = discretize(OHMIC, 8)
    with pytest.raises(ValueError):
        ex.build_symmetric_model(OscillatorParams(1.0, 1.0, 1.2), bath)


def test_unstable_hamiltonian_refused():
    bath = discretize(OHMIC, 16)
    # strongly negative effective frequency once the counterterm is added
    osc = OscillatorParams(1.0, 0.05, 0.05)
    with pytest.raises(UnstableHamiltonianError):
        ex.build_position_model(osc, bath, renormalize=False)


# ---------------------------------------------------------------------------
# Propagator invariants
# ---------------------------------------------------------------------------

def test_propagator_symplectic_and_composes():
    _, drift = small_setup(16)
    form = ex.normal_mode_form(drift)
    s1 = form.propagator(0.7)
    s2 = form.propagator(1.3)
    s3 = form.propagator(2.0)
    assert ex.symplecticity_defect(s1) < 1e-11
    assert np.allclose(s2 @ s1, s3, atol=1e-10)
    assert np.allclose(form.propagator(0.0), np.eye(drift.dim), atol=1e-12)


def test_decoupled_bath_gives_free_periodicity():
    # zero couplings: the system block is exactly periodic with period 2 pi
    w = 0.625 * np.arange(1, 33)
    bath = DiscreteBath(w, np.ones(32), np.zeros(32), 0.0)
    drift = ex.build_position_model(OSC, bath)  # counterterm sum is zero
    v_sys = separable_squeezed(1.0)
    v0 = ex.initial_covariance(v_sys, bath)
    form = ex.normal_mode_form(drift)
    s = form.propagator(2.0 * math.pi)
    v1 = s @ v0.matrix @ s.T
    assert np.allclose(v1[:4, :4], v0.matrix[:4, :4], atol=1e-10)


def test_rk4_matches_normal_mode_two_mode_toy():
    bath = DiscreteBath(np.array([0.5, 1.0]), np.ones(2), np.array([0.2, 0.3]), 0.0)
    drift = ex.build_position_model(OSC, bath)
    v0 = ex.initial_covariance(separable_squeezed(0.8), bath)
    cfg_rk = ex.EvolutionConfig(8.0, 0.002, 4000, ex.Integrator.RK4)
    cfg_nm = ex.EvolutionConfig(8.0, 0.002, 4000, ex.Integrator.NORMAL_MODE)
    _, rk = ex.evolve(v0, drift, cfg_rk)
    _, nm = ex.evolve(v0, drift, cfg_nm)
    assert np.abs(rk[-1].matrix - nm[-1].matrix).max() < 1e-9


def test_rk4_matches_normal_mode_dense_bath():
    sd = SpectralDensity.ohmic(0.1, 10.0)
    bath = discretize(sd, 64)
    drift = ex.build_position_model(OSC, bath)
    v0 = ex.initial_covariance(separable_squeezed(1.0), bath)
    n = 10000
    cfg_rk = ex.EvolutionConfig(10.0, 1e-3, n, ex.Integrator.RK4)
    cfg_nm = ex.EvolutionConfig(10.0, 1e-3, n, ex.Integrator.NORMAL_MODE)
    _, rk = ex.evolve(v0, drift, cfg_rk)
    _, nm = ex.evolve(v0, drift, cfg_nm)
    assert np.abs(rk[-1].matrix - nm[-1].matrix).max() < 1e-5


def test_global_purity_and_energy_conserved():
    bath, drift = small_setup(24, temperature=0.3)
    v0 = ex.initial_covariance(separable_squeezed(1.5), bath)
    form = ex.normal_mode_form(drift)
    t = 0.5 * ex.RECURRENCE_MARGIN * bath.recurrence_time
    s = form.propagator(t)
    v1 = CovarianceMatrix(0.5 * ((s @ v0.matrix @ s.T) + (s @ v0.matrix @ s.T).T),
                          Ordering.FULL)
    nu0 = symplectic_eigenvalues(v0.matrix, general=True)
    nu1 = symplectic_eigenvalues(v1.matrix, general=True)
    assert np.abs(np.sort(nu0) / np.sort(nu1) - 1.0).max() < 1e-9
    assert ex.energy_of(drift, v1) == pytest.approx(ex.energy_of(drift, v0), rel=1e-10)


# ---------------------------------------------------------------------------
# Refusals
# ---------------------------------------------------------------------------

def test_recurrence_window_refusal():
    bath, drift = small_setup(8)  # t_rec = 2 pi * 8 / 20 = 2.51
    v0 = ex.initial_covariance(separable_squeezed(1.0), bath)
    cfg = ex.EvolutionConfig(10.0, 0.002, 1)
    with pytest.raises(RecurrenceWindowError):
        ex.evolve(v0, drift, cfg)
    with pytest.raises(RecurrenceWindowError):
        ex.negativity_trace(separable_squeezed(1.0), drift, cfg)


def test_rk4_step_refusal():
    bath, drift = small_setup(32)
    v0 = ex.initial_covariance(separable_squeezed(1.0), bath)
    cfg = ex.EvolutionConfig(1.0, 0.02, 1, ex.Integrator.RK4)  # > 0.05/20
    with pytest.raises(StepSizeError):
        ex.evolve(v0, drift, cfg)


# ---------------------------------------------------------------------------
# Negativity traces
# ---------------------------------------------------------------------------

def test_fast_path_matches_full_reduction():
    bath, drift = small_setup(24)
    v_sys = basis_change(two_mode_squeezed(1.0), Ordering.PHYSICAL)
    cfg = ex.EvolutionConfig(6.0, 0.05, 10)
    tr = ex.negativity_trace(v_sys, drift, cfg)
    _, series = ex.evolve(ex.initial_covariance(v_sys, bath), drift, cfg)
    for i, v in enumerate(series):
        reduced = ex.reduce_to_system(v)
        nm = basis_change(reduced, Ordering.NORMAL).matrix
        assert tr.dx_plus_sq[i] == pytest.approx(nm[0, 0], abs=1e-11)
        assert tr.dp_plus_sq[i] == pytest.approx(nm[1, 1], abs=1e-11)


def test_initial_negativity_is_two_r():
    _, drift = small_setup(16)
    v_sys = basis_change(two_mode_squeezed(2.0), Ordering.PHYSICAL)
    cfg = ex.EvolutionConfig(0.5, 0.25, 1)
    tr = ex.negativity_trace(v_sys, drift, cfg)
    assert tr.times[0] == 0.0
    assert tr.e_n[0] == pytest.approx(4.0, abs=1e-9)


def test_sample_times_and_stride():
    cfg = ex.EvolutionConfig(1.0, 0.1, 5)
    times = cfg.sample_times()
    assert np.allclose(times, [0.0, 0.5, 1.0])


# ---------------------------------------------------------------------------
# Real second-order normal modes (position coupling)
# ---------------------------------------------------------------------------

def _correlated_state() -> CovarianceMatrix:
    # two-mode squeezing plus local phase-space rotations: x-p correlations
    v = basis_change(two_mode_squeezed(0.7), Ordering.PHYSICAL).matrix
    rot = np.zeros((4, 4))
    for i, angle in ((0, 0.4), (2, -0.9)):
        c, s = math.cos(angle), math.sin(angle)
        rot[i:i + 2, i:i + 2] = [[c, s], [-s, c]]
    return CovarianceMatrix(rot @ v @ rot.T, Ordering.PHYSICAL)


def _complex_system_block(drift, v_sys, t):
    form = drift.normal_form
    v0 = ex.initial_covariance(v_sys, drift.bath)
    f = form.b[:4, :] * np.exp(-1j * form.mu * t)
    block = np.real(f @ (form.c @ v0.matrix @ form.c.T) @ f.T)
    return 0.5 * (block + block.T)


@pytest.mark.parametrize(
    "osc, sd, temperature, n_modes",
    [
        (OSC, OHMIC, 0.0, 32),
        (OscillatorParams(1.0, 1.05, 0.95), OHMIC, 0.0, 48),
        (OSC, OHMIC, 2.0, 48),
        (OscillatorParams(1.0, 1.0, 1.0, 0.2), OHMIC, 0.0, 64),
        (OSC, SpectralDensity.sub_ohmic(0.1, 20.0), 0.5, 48),
        (OSC, SpectralDensity.super_ohmic(0.15, 20.0), 0.0, 48),
        (OscillatorParams(1.0, 1.05, 0.95, -0.1), SpectralDensity.super_ohmic(0.15, 20.0),
         10.0, 64),
    ],
    ids=["resonant", "detuned", "thermal", "c12", "sub-ohmic", "super-ohmic",
         "detuned-c12-hot"],
)
def test_real_modes_match_complex_form(osc, sd, temperature, n_modes):
    from entbath.bath import thermal_bath_variances
    from entbath.gaussian import log_negativity

    bath = discretize(sd, n_modes, temperature)
    drift = ex.build_position_model(osc, bath)
    cfg = ex.EvolutionConfig(0.7 * bath.recurrence_time, 0.05, 7)
    times = cfg.sample_times()
    for v_sys in (separable_squeezed(1.0), _correlated_state()):
        real = drift.position_modes.system_blocks(
            v_sys, thermal_bath_variances(bath), times
        )
        tr = ex.negativity_trace(v_sys, drift, cfg)
        dv = de = 0.0
        for i, t in enumerate(times):
            ref = _complex_system_block(drift, v_sys, float(t))
            dv = max(dv, float(np.abs(real[i] - ref).max()))
            e_ref = log_negativity(CovarianceMatrix(ref, Ordering.PHYSICAL))
            de = max(de, abs(tr.e_n[i] - e_ref))
        assert dv <= 1e-10
        assert de <= 1e-10


def test_drift_factorized_once_per_kind(monkeypatch):
    calls = {"position_normal_modes": 0, "normal_mode_form": 0}

    def count(name):
        original = getattr(ex, name)

        def wrapper(drift):
            calls[name] += 1
            return original(drift)

        monkeypatch.setattr(ex, name, wrapper)

    count("position_normal_modes")
    count("normal_mode_form")
    bath, drift = small_setup(24)
    cfg = ex.EvolutionConfig(3.0, 0.05, 4)
    states = (
        separable_squeezed(1.0),
        separable_squeezed(-0.5),
        basis_change(two_mode_squeezed(1.0), Ordering.PHYSICAL),
    )
    for v_sys in states:
        ex.negativity_trace(v_sys, drift, cfg)
    assert calls == {"position_normal_modes": 1, "normal_mode_form": 0}
    for v_sys in states:
        ex.evolve(ex.initial_covariance(v_sys, bath), drift, cfg)
    assert calls == {"position_normal_modes": 1, "normal_mode_form": 1}
    symmetric = ex.build_symmetric_model(OSC, bath)
    for v_sys in states:
        ex.negativity_trace(v_sys, symmetric, cfg)
    assert calls == {"position_normal_modes": 1, "normal_mode_form": 2}


def test_real_modes_refuse_symmetric_drift():
    drift = ex.build_symmetric_model(OSC, discretize(OHMIC, 8))
    with pytest.raises(ValueError):
        ex.position_normal_modes(drift)


# ---------------------------------------------------------------------------
# Schur-complement stability check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", ["position", "symmetric"])
def test_schur_stability_matches_dense_eigvalsh(model, monkeypatch):
    check = ex._check_stable
    captured = []
    monkeypatch.setattr(ex, "_check_stable", captured.append)
    bath = discretize(OHMIC, 16)
    for omega in np.linspace(0.5, 2.5, 21):
        for c12 in (-0.8, 0.0, 0.8):
            if model == "position":
                osc = OscillatorParams(1.0, omega, 1.1 * omega, c12)
                build = ex.build_position_model
            else:
                osc = OscillatorParams(1.0, omega, omega, c12, -0.5 * c12)
                build = ex.build_symmetric_model
            try:
                build(osc, bath, renormalize=False)
            except UnstableHamiltonianError:
                pass  # the bath-free minus mode; the total H is captured
    refused = []
    for h in captured:
        dense_negative = np.linalg.eigvalsh(h)[0] < 0.0
        try:
            check(h)
            refused.append(False)
        except UnstableHamiltonianError:
            refused.append(True)
        assert refused[-1] == dense_negative
    assert any(refused) and not all(refused)
