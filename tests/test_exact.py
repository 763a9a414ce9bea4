"""Exact discrete-bath evolution: propagator structure, cross-validation
of the two integrators, renormalization identities and refusals."""

import math
from pathlib import Path

import numpy as np
import pytest
from oracles import bare_drift, reference_channel

from entbath import exact as ex
from entbath.bath import RECURRENCE_MARGIN, DiscreteBath, SpectralDensity, discretize
from entbath.errors import RecurrenceWindowError, UnstableHamiltonianError
from entbath.gaussian import (
    CovarianceMatrix,
    Ordering,
    OscillatorParams,
    basis_change,
    free_rotation,
    log_negativities,
    separable_squeezed,
    symplectic_eigenvalues,
    two_mode_squeezed,
)
from entbath.moments import step_matrix

OHMIC = SpectralDensity.ohmic(0.1, 20.0)
OSC = OscillatorParams(1.0, 1.0, 1.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        bare_drift(osc, bath, "position")


def _builder_minus(osc, model, s):
    # the builders' closed-form minus modes before one block decided them
    m = osc.m
    if model == "position":
        w1_sq, w2_sq = osc.omega1**2 + s / 2.0, osc.omega2**2 + s / 2.0
        return m, math.sqrt((w1_sq + w2_sq) / 2.0 - (osc.c12 + s / 2.0))
    big_sq = osc.omega1**2
    w_sq = 0.5 * (s + big_sq + math.sqrt((s + big_sq) ** 2 - s * s))
    ratio = (w_sq - s / 2.0) / w_sq
    c12 = osc.c12 / ratio + s / 2.0
    c12_t = osc.c12_tilde * ratio * w_sq / big_sq + s / 2.0
    fp = 1.0 - c12_t / w_sq
    return m / fp, math.sqrt((w_sq - c12) * fp)


def _configured_minus(osc, model):
    # the same closed forms of the configured, unrenormalized system
    if model == "position":
        return osc.m, math.sqrt((osc.omega1**2 + osc.omega2**2) / 2.0 - osc.c12)
    w_sq = osc.omega1**2
    fx, fp = 1.0 - osc.c12 / w_sq, 1.0 - osc.c12_tilde / w_sq
    return osc.m / fp, math.sqrt(w_sq * fx * fp)


@pytest.mark.parametrize("m", [0.7, 1.3, 2.0])
@pytest.mark.parametrize("model", ["position", "symmetric"])
def test_mode_scales_match_closed_forms(model, m):
    from entbath.config import from_dict, validate
    from entbath.errors import ConfigError
    from entbath.scenario import Scenario

    bath = discretize(SpectralDensity.ohmic(0.01, 20.0), 48)  # stable unrenormalized
    if model == "position":  # a detuned pair
        w1, w2, c12, c12_t, build = 1.05, 0.95, 0.15, 0.0, ex.build_position_model
    else:
        w1, w2, c12, c12_t, build = 1.2, 1.2, 0.15, -0.1, ex.build_symmetric_model

    def scenario(c12):
        system = {"m": m, "omega1": w1, "omega2": w2, "c12": c12, "c12_tilde": c12_t}
        return Scenario(validate(from_dict(
            {"model": model, "spectral": {"n": 1}, "system": system})))

    osc = OscillatorParams(m, w1, w2, c12, c12_t)
    for s, drift in ((-bath.counterterm_sum(m), build(osc, bath)),
                     (0.0, bare_drift(osc, bath, model))):
        assert (drift.m_minus, drift.omega_minus) == pytest.approx(
            _builder_minus(osc, model, s), rel=1e-14)
    assert scenario(c12).route_scales() == pytest.approx(
        (m, *_configured_minus(osc, model)), rel=1e-14)
    # a minus mode with k <= 0 is refused by the block and by the route
    h_sys, _ = ex.system_hamiltonian(OscillatorParams(m, w1, w2, 1.5, c12_t), model)
    with pytest.raises(ValueError, match="stiffness"):
        ex.mode_scales(h_sys)
    with pytest.raises(ConfigError, match="system.c12"):
        scenario(1.5).route_scales()


# ---------------------------------------------------------------------------
# Propagator invariants
# ---------------------------------------------------------------------------

def test_propagator_symplectic_and_composes():
    _, drift = small_setup(16)
    form = drift.normal_modes
    s1 = form.propagator(0.7)
    s2 = form.propagator(1.3)
    s3 = form.propagator(2.0)
    assert ex.symplecticity_defect(s1) < 1e-11
    assert np.allclose(s2 @ s1, s3, atol=1e-10)
    assert np.allclose(form.propagator(0.0), np.eye(drift.dim), atol=1e-12)


def test_decoupled_bath_gives_free_periodicity():
    # zero couplings: the system block is exactly periodic with period 2 pi
    w = 0.625 * np.arange(1, 33)
    bath = DiscreteBath(w, np.zeros(32), 0.0)
    drift = ex.build_position_model(OSC, bath)  # counterterm sum is zero
    v_sys = separable_squeezed(1.0)
    v0 = ex.initial_covariance(v_sys, bath)
    form = drift.normal_modes
    s = form.propagator(2.0 * math.pi)
    v1 = s @ v0.matrix @ s.T
    assert np.allclose(v1[:4, :4], v0.matrix[:4, :4], atol=1e-10)


def _toy_drift():
    bath = DiscreteBath(np.array([0.5, 1.0]), np.array([0.2, 0.3]), 0.0)
    return bath, ex.build_position_model(OSC, bath)


def test_rk4_matches_normal_mode_two_mode_toy():
    bath, drift = _toy_drift()
    v0 = ex.initial_covariance(separable_squeezed(0.8), bath)
    cfg = ex.EvolutionConfig(8.0, 0.002, 4000)
    _, rk = ex.evolve(v0, drift, cfg, rk4=True)
    _, nm = ex.evolve(v0, drift, cfg)
    assert np.abs(rk[-1].matrix - nm[-1].matrix).max() < 1e-9


def test_rk4_matches_normal_mode_dense_bath():
    sd = SpectralDensity.ohmic(0.1, 10.0)
    bath = discretize(sd, 64)
    drift = ex.build_position_model(OSC, bath)
    v0 = ex.initial_covariance(separable_squeezed(1.0), bath)
    n = 10000
    cfg = ex.EvolutionConfig(10.0, 1e-3, n)
    _, rk = ex.evolve(v0, drift, cfg, rk4=True)
    _, nm = ex.evolve(v0, drift, cfg)
    assert np.abs(rk[-1].matrix - nm[-1].matrix).max() < 1e-5


@pytest.mark.parametrize("stride", [1, 2, 7, 16])
def test_rk4_step_matrix_is_classical_rk4(stride):
    _, drift = _toy_drift()
    dt = 0.01
    hop = ex._rk4_hop(drift, ex.EvolutionConfig(1.0, dt, stride))
    k = drift.k
    # the four-stage recurrence, stepped on every column of the identity
    x = np.eye(drift.dim)
    for _ in range(stride):
        k1 = k @ x
        k2 = k @ (x + dt / 2.0 * k1)
        k3 = k @ (x + dt / 2.0 * k2)
        k4 = k @ (x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.abs(hop - x).max() <= 1e-12 * np.abs(x).max()


def test_rk4_is_fourth_order():
    bath, drift = _toy_drift()
    v0 = ex.initial_covariance(separable_squeezed(0.8), bath)
    _, nm = ex.evolve(v0, drift, ex.EvolutionConfig(8.0, 0.04, 200))
    errors = []
    for dt in (0.04, 0.02):
        n = int(round(8.0 / dt))
        _, rk = ex.evolve(v0, drift, ex.EvolutionConfig(8.0, dt, n), rk4=True)
        errors.append(np.abs(rk[-1].matrix - nm[-1].matrix).max())
    assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.25)


def _reduce_to_system(v_full):
    # partial trace over the bath: the leading 4x4 block
    v_full.require(Ordering.FULL)
    return CovarianceMatrix(v_full.matrix[:4, :4], Ordering.PHYSICAL)


def test_global_purity_and_energy_conserved():
    bath, drift = small_setup(24, temperature=0.3)
    v0 = ex.initial_covariance(separable_squeezed(1.5), bath)
    form = drift.normal_modes
    t = 0.5 * RECURRENCE_MARGIN * bath.recurrence_time
    s = form.propagator(t)
    v1 = CovarianceMatrix(0.5 * ((s @ v0.matrix @ s.T) + (s @ v0.matrix @ s.T).T),
                          Ordering.FULL)
    nu0 = symplectic_eigenvalues(v0.matrix)
    nu1 = symplectic_eigenvalues(v1.matrix)
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


def test_rk4_oracle_splits_a_long_step_into_whole_steps():
    # dt = 0.02 is 8 times 0.05/20: each sample takes 8 steps of 0.0025
    bath, drift = small_setup(32)
    v0 = ex.initial_covariance(separable_squeezed(1.0), bath)
    cfg = ex.EvolutionConfig(1.0, 0.02, 1)
    hop = np.linalg.matrix_power(step_matrix(drift.k, 0.0025), 8)
    assert np.array_equal(ex._rk4_hop(drift, cfg), hop)
    _, rk = ex.evolve(v0, drift, cfg, rk4=True)
    _, nm = ex.evolve(v0, drift, cfg)
    first = hop @ v0.matrix @ hop.T
    assert np.array_equal(rk[1].matrix, 0.5 * (first + first.T))
    for a, b in zip(rk, nm):
        assert np.abs(a.matrix - b.matrix).max() <= 3e-7 * np.abs(b.matrix).max()


# ---------------------------------------------------------------------------
# Negativity traces
# ---------------------------------------------------------------------------

def test_fast_path_matches_full_reduction():
    from dataclasses import fields

    bath, drift = small_setup(24)
    v_sys = basis_change(two_mode_squeezed(1.0), Ordering.PHYSICAL)
    cfg = ex.EvolutionConfig(6.0, 0.05, 10)
    tr = ex.negativity_trace(v_sys, drift, cfg)
    _, series = ex.evolve(ex.initial_covariance(v_sys, bath), drift, cfg)
    for i, v in enumerate(series):
        reduced = _reduce_to_system(v)
        nm = basis_change(reduced, Ordering.NORMAL).matrix
        assert tr.dx_plus_sq[i] == pytest.approx(nm[0, 0], abs=1e-11)
        assert tr.dp_plus_sq[i] == pytest.approx(nm[1, 1], abs=1e-11)
    # every column, read out of evolve's reduced normal-mode states
    readout = ex._trace_from_blocks(
        tr.times, np.array([_reduce_to_system(v).matrix for v in series]))
    for field in fields(ex.NegativityTrace):
        np.testing.assert_allclose(getattr(tr, field.name), getattr(readout, field.name),
                                   rtol=0, atol=1e-11)


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
    # the most steps within t_max: a fraction of a step is dropped, half or
    # more included, and a whole step short of t_max by rounding only is kept
    for t_max, dt, stride, count, last in [
        (1.0, 0.6, 1, 2, 0.6), (2.5, 0.45, 1, 6, 2.25), (1.0, 0.35, 2, 2, 0.7),
        (1.0, 0.1, 3, 4, 0.9), (0.3, 0.1, 1, 4, 0.3), (150.0, 0.02, 1, 7501, 150.0),
        (150.0, 0.02, 10, 751, 150.0),
    ]:
        times = ex.EvolutionConfig(t_max, dt, stride).sample_times()
        assert len(times) == count and times[-1] == pytest.approx(last, rel=1e-15)
        assert times[-1] <= t_max + 4 * np.spacing(t_max)


@pytest.mark.parametrize("args, field", [
    ((math.nan, 0.1), "t_max"), ((math.inf, 0.1), "t_max"), ((-1.0, 0.1), "t_max"),
    ((1.0, math.nan), "dt"), ((1.0, math.inf), "dt"), ((1.0, 0.0), "dt"),
    ((1.0, 0.1, 2.5), "sample_stride"), ((1.0, 0.1, 0), "sample_stride"),
    ((1.0, 0.1, True), "sample_stride"),
], ids=["nan-t_max", "inf-t_max", "negative-t_max", "nan-dt", "inf-dt", "zero-dt",
        "fractional-stride", "zero-stride", "bool-stride"])
def test_evolution_config_names_a_bad_field(args, field):
    with pytest.raises(ValueError, match=rf"^{field}="):
        ex.EvolutionConfig(*args)


# ---------------------------------------------------------------------------
# Real second-order normal modes (both coupling models)
# ---------------------------------------------------------------------------

def _correlated_state() -> CovarianceMatrix:
    # two-mode squeezing plus local phase-space rotations: x-p correlations
    v = basis_change(two_mode_squeezed(0.7), Ordering.PHYSICAL).matrix
    rot = np.zeros((4, 4))
    for i, angle in ((0, 0.4), (2, -0.9)):
        c, s = math.cos(angle), math.sin(angle)
        rot[i:i + 2, i:i + 2] = [[c, s], [-s, c]]
    return CovarianceMatrix(rot @ v @ rot.T, Ordering.PHYSICAL)


POSITION = ex.build_position_model
SYMMETRIC = ex.build_symmetric_model


@pytest.mark.parametrize(
    "build, osc, sd, temperature, n_modes",
    [
        (POSITION, OSC, OHMIC, 0.0, 32),
        (POSITION, OscillatorParams(1.0, 1.05, 0.95), OHMIC, 0.0, 48),
        (POSITION, OSC, OHMIC, 2.0, 48),
        (POSITION, OscillatorParams(1.0, 1.0, 1.0, 0.2), OHMIC, 0.0, 64),
        (POSITION, OSC, SpectralDensity.sub_ohmic(0.1, 20.0), 0.5, 48),
        (POSITION, OSC, SpectralDensity.super_ohmic(0.15, 20.0), 0.0, 48),
        (POSITION, OscillatorParams(1.0, 1.05, 0.95, -0.1),
         SpectralDensity.super_ohmic(0.15, 20.0), 10.0, 64),
        (SYMMETRIC, OscillatorParams(1.0, 1.0, 1.0, 0.2, 0.2), OHMIC, 0.0, 48),
        (SYMMETRIC, OSC, OHMIC, 2.0, 48),
        (SYMMETRIC, OSC, SpectralDensity.sub_ohmic(0.1, 20.0), 0.5, 48),
        (SYMMETRIC, OscillatorParams(1.0, 1.0, 1.0, -0.1, -0.1),
         SpectralDensity.super_ohmic(0.15, 20.0), 0.0, 64),
    ],
    ids=["resonant", "detuned", "thermal", "c12", "sub-ohmic", "super-ohmic",
         "detuned-c12-hot", "symmetric-c12", "symmetric-thermal",
         "symmetric-sub-ohmic", "symmetric-super-ohmic"],
)
def test_real_modes_match_complex_form(build, osc, sd, temperature, n_modes):
    # the reference is scipy's exp(Kt) of the drift, made without normal modes
    from scipy.linalg import expm

    from entbath.gaussian import log_negativity

    bath = discretize(sd, n_modes, temperature)
    drift = build(osc, bath)
    cfg = ex.EvolutionConfig(0.7 * bath.recurrence_time, 0.05, 7)
    times = cfg.sample_times()
    states = (separable_squeezed(1.0), _correlated_state())
    real = [drift.reduced_channel(times).blocks(v) for v in states]
    traces = [ex.negativity_trace(v, drift, cfg) for v in states]
    v0s = [ex.initial_covariance(v, bath).matrix for v in states]
    dv = de = 0.0
    for i, t in enumerate(times):
        s4 = expm(drift.k * t)[:4]
        for v0, blocks, tr in zip(v0s, real, traces):
            ref = s4 @ v0 @ s4.T
            ref = 0.5 * (ref + ref.T)
            dv = max(dv, float(np.abs(blocks[i] - ref).max()))
            e_ref = log_negativity(CovarianceMatrix(ref, Ordering.PHYSICAL))
            de = max(de, abs(tr.e_n[i] - e_ref))
    assert dv <= 1e-10
    assert de <= 1e-10
    s_ref = expm(drift.k * times[-1])
    s = drift.normal_modes.propagator(times[-1])
    assert np.abs(s - s_ref).max() <= 1e-10 * np.abs(s_ref).max()
    assert ex.symplecticity_defect(s) <= 1e-12 * np.abs(s_ref).max() ** 2


def test_drift_factorized_once_per_kind(monkeypatch):
    calls = []
    original = ex.normal_modes

    def wrapper(drift):
        calls.append(drift)
        return original(drift)

    monkeypatch.setattr(ex, "normal_modes", wrapper)
    bath = discretize(OHMIC, 24)
    cfg = ex.EvolutionConfig(3.0, 0.05, 4)
    states = (
        separable_squeezed(1.0),
        separable_squeezed(-0.5),
        basis_change(two_mode_squeezed(1.0), Ordering.PHYSICAL),
    )
    drifts = [build(OSC, bath) for build in (ex.build_position_model, ex.build_symmetric_model)]
    for drift in drifts:
        for v_sys in states:
            ex.negativity_trace(v_sys, drift, cfg)
        for v_sys in states:
            ex.evolve(ex.initial_covariance(v_sys, bath), drift, cfg)
    assert len(calls) == len(drifts) and all(c is d for c, d in zip(calls, drifts))


@pytest.mark.parametrize("build", [POSITION, SYMMETRIC], ids=["position", "symmetric"])
def test_channel_built_once_per_drift_and_plan(build, monkeypatch):
    builds = []
    original = ex.NormalModes.reduced_channel

    def counting(self, bath, times):
        builds.append(len(times))
        return original(self, bath, times)

    monkeypatch.setattr(ex.NormalModes, "reduced_channel", counting)
    bath = discretize(OHMIC, 24, 0.5)
    cfg = ex.EvolutionConfig(3.0, 0.05, 4)
    states = (separable_squeezed(1.0), separable_squeezed(-0.5), _correlated_state())
    drift = build(OSC, bath)
    first = [ex.negativity_trace(v, drift, cfg).e_n for v in states]
    assert builds == [16]
    # every state traced last on another drift, and alone on a fresh one
    reverse = build(OSC, bath)
    last = [ex.negativity_trace(v, reverse, cfg).e_n for v in states[::-1]][::-1]
    alone = [ex.negativity_trace(v, build(OSC, bath), cfg).e_n for v in states]
    assert builds == [16] * 5
    for a, b, c in zip(first, last, alone):
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)
    # a second plan on the same drift rebuilds; so does going back
    other = ex.EvolutionConfig(3.0, 0.05, 5)
    tr = ex.negativity_trace(states[0], drift, other)
    assert builds == [16] * 5 + [13]
    assert np.array_equal(tr.times, other.sample_times())
    assert np.array_equal(tr.e_n, ex.negativity_trace(states[0], build(OSC, bath), other).e_n)
    assert np.array_equal(ex.negativity_trace(states[1], drift, cfg).e_n, first[1])
    assert builds == [16] * 5 + [13, 13, 16]
    # the channel is deterministic: fresh drifts of a large bath give the
    # same channel
    big = discretize(OHMIC, 597, 0.5)
    one, two = (build(OSC, big).reduced_channel(cfg.sample_times()) for _ in range(2))
    assert builds == [16] * 5 + [13, 13, 16, 16, 16]
    assert np.array_equal(one.z, two.z) and np.array_equal(one.noise, two.noise)


@pytest.mark.parametrize(
    "build, osc, temperature",
    [
        (POSITION, OSC, 0.0),
        (POSITION, OscillatorParams(1.0, 1.05, 0.95), 10.0),
        (SYMMETRIC, OscillatorParams(1.0, 1.0, 1.0, 0.2, 0.2), 2.0),
    ],
    ids=["position", "detuned-thermal", "symmetric-thermal"],
)
def test_reduced_channel_matches_propagator(build, osc, temperature):
    bath = discretize(OHMIC, 40, temperature)
    drift = build(osc, bath)
    times = ex.EvolutionConfig(0.7 * bath.recurrence_time, 0.05, 9).sample_times()
    channel = drift.reduced_channel(times)
    states = (separable_squeezed(1.0), _correlated_state())
    blocks = [channel.blocks(v) for v in states]
    v0s = [ex.initial_covariance(v, bath).matrix for v in states]
    for i, t in enumerate(times):
        s4 = drift.normal_modes.propagator(t)[:4]
        for v0, block in zip(v0s, blocks):
            ref = s4 @ v0 @ s4.T
            assert np.abs(block[i] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_drift_is_its_hamiltonian_and_bath(monkeypatch):
    from dataclasses import fields, replace

    from entbath.gaussian import symplectic_form

    assert [f.name for f in fields(ex.DriftMatrix)] == ["system", "couplings", "bath"]
    bath = discretize(OHMIC, 8)
    built = ex.build_symmetric_model(OscillatorParams(1.0, 1.0, 1.0, 0.2, 0.2), bath)
    system = np.array(built.system)
    system[0, 0] += 0.3  # an unequal, hand-made block: the minus pair is not free
    drift = replace(built, system=system)
    assert (drift.m_minus, drift.omega_minus) == ex.mode_scales(system)
    assert drift.dim == 20
    # the dense H: x rows couple to q_k, p rows to pi_k, and the bath block
    # is the unit-mass bath's diagonal (w_k^2, 1)
    h = drift.hamiltonian
    assert np.array_equal(h, h.T)
    assert np.array_equal(h[:4, :4], system)
    assert np.array_equal(h[0:4:2, 4::2], drift.couplings[0::2])
    assert np.array_equal(h[1:4:2, 5::2], drift.couplings[1::2])
    assert not np.any(h[0:4:2, 5::2]) and not np.any(h[1:4:2, 4::2])
    bath_block = np.diag(np.ravel([bath.frequencies**2, np.ones(bath.n_modes)], "F"))
    assert np.array_equal(h[4:, 4:], bath_block)
    assert np.array_equal(drift.k, symplectic_form(20) @ h)
    assert not drift.system.flags.writeable and not drift.couplings.flags.writeable
    with pytest.raises(ValueError, match="4 x N"):
        replace(drift, couplings=drift.couplings[:, 1:])
    # a built drift works its minus scales out once, for itself and its modes
    calls = []
    original = ex.mode_scales
    monkeypatch.setattr(ex, "mode_scales", lambda *a: calls.append(a) or original(*a))
    drift = ex.build_position_model(OSC, bath)
    assert drift.normal_modes.minus == (drift.m_minus, drift.omega_minus)
    assert len(calls) == 1


@pytest.mark.parametrize("build", [POSITION, SYMMETRIC], ids=["position", "symmetric"])
def test_drift_build_holds_only_its_blocks(build):
    # at N = 1194 a dense (4+2N)^2 H would take 45.8 MB; the blocks take
    # O(N), and no array the drift holds has more than 4N elements
    import tracemalloc

    n_modes = 1194
    bath = discretize(OHMIC, n_modes)
    tracemalloc.start()
    try:
        drift = build(OSC, bath)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    held = [v for obj in (drift, drift.bath) for v in vars(obj).values()
            if isinstance(v, np.ndarray)]
    assert len(held) == 4 and max(a.size for a in held) <= 4 * n_modes


@pytest.mark.parametrize("build", [POSITION, SYMMETRIC], ids=["position", "symmetric"])
def test_normal_modes_reuse_their_secular_tables(build):
    # the root solve and the Loewner pass each hold two block x N tables of
    # about _SECULAR_TABLE doubles, allocated once per solve: fresh tables
    # per block (and per iteration's compaction) peaked at 2.6 MiB here
    import tracemalloc

    ex.normal_modes(POSITION(OSC, discretize(OHMIC, 8)))  # numpy's lazy imports
    drift = build(OSC, discretize(OHMIC, 1194))
    tracemalloc.start()
    try:
        ex.normal_modes(drift)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * ex._SECULAR_TABLE


def test_real_modes_refuse_xp_coupling():
    # an x row couples to q_k and a p row to pi_k, so an x-p term can sit
    # only in the system block, which the drift refuses when it is made
    from dataclasses import replace

    drift = ex.build_symmetric_model(OSC, discretize(OHMIC, 8))
    system = np.array(drift.system)
    system[0, 3] = system[3, 0] = 0.05  # x1 coupled to p2
    with pytest.raises(ValueError, match="x-p"):
        replace(drift, system=system)


def test_real_modes_refuse_indefinite_momentum_block():
    # refused when the drift is made, before any normal-mode form
    from dataclasses import replace

    drift = ex.build_position_model(OSC, discretize(OHMIC, 8))
    system = np.array(drift.system)
    system[1, 3] = system[3, 1] = 2.0  # p1 p2 coupling beyond 1/m: B is indefinite
    with pytest.raises(UnstableHamiltonianError, match="momentum block"):
        replace(drift, system=system)


def _dense_normal_modes(drift):
    # the dense-Cholesky form the block-arrowhead factor replaced
    h = drift.hamiltonian
    low = np.linalg.cholesky(h[1::2, 1::2])
    w_sq, u = np.linalg.eigh(low.T @ h[0::2, 0::2] @ low)
    return ex.NormalModes.from_matrices(np.sqrt(w_sq), low @ u, np.linalg.solve(low.T, u).T)


@pytest.mark.parametrize("n_modes", [8, 48, 597])
@pytest.mark.parametrize(
    "build, osc",
    [
        (POSITION, OscillatorParams(1.0, 1.0, 1.0)),
        (POSITION, OscillatorParams(1.3, 1.05, 0.95, 0.1)),
        (SYMMETRIC, OscillatorParams(1.0, 1.0, 1.0, 0.2, 0.2)),
        (SYMMETRIC, OscillatorParams(0.7, 1.2, 1.2, -0.1, 0.15)),
    ],
    ids=["position", "position-detuned-c12", "symmetric", "symmetric-m"],
)
def test_arrowhead_factor_matches_dense_cholesky(build, osc, n_modes):
    bath = discretize(OHMIC, n_modes, 1.0)
    drift = build(osc, bath)
    modes, dense = ex.normal_modes(drift), _dense_normal_modes(drift)
    # position modes come from the secular equation, symmetric ones from
    # the arrowhead factor: both within 1e-10 of the dense route
    assert np.abs(modes.omega / dense.omega - 1.0).max() <= 1e-10
    for t in (0.0, 7.3, 0.7 * bath.recurrence_time):
        got, ref = modes.propagator(t)[:4], dense.propagator(t)[:4]
        assert np.abs(got - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())
    _assert_normal_mode_identities(drift, modes)
    if n_modes == 8:
        from scipy.linalg import expm

        t = 0.7 * bath.recurrence_time
        s_ref = expm(drift.k * t)
        assert np.abs(modes.propagator(t) - s_ref).max() <= 1e-10 * np.abs(s_ref).max()


def _assert_normal_mode_identities(drift, modes):
    # K A = W^T Omega^2, W A = I and A A^T = B, with K and B the position
    # and momentum blocks
    k, b = drift.hamiltonian[0::2, 0::2], drift.hamiltonian[1::2, 1::2]
    assert np.abs(k @ modes.a - modes.w.T * modes.omega**2).max() <= 1e-14 * np.abs(k).max()
    assert np.abs(modes.w @ modes.a - np.eye(len(k))).max() <= 1e-13
    assert np.abs(modes.a @ modes.a.T - b).max() <= 1e-13 * np.abs(b).max()


def _factored_oracle(drift):
    # the eigh route, called directly: the reference for the drifts it no
    # longer serves; the unit-mass bath leaves B's bath block the identity
    h = drift.hamiltonian
    k, b = h[0::2, 0::2], h[1::2, 1::2]
    c = b[:2, 2:]
    low = np.linalg.cholesky(b[:2, :2] - c @ c.T)
    w_sq, a, w = ex._factored_modes(k, low, c)
    return ex.NormalModes.from_matrices(np.sqrt(w_sq), a, w, ex._free_minus(drift))


@pytest.mark.parametrize("temperature", [0.0, 1.0])
@pytest.mark.parametrize("exponent", [0.5, 3.0])
def test_beam_splitter_modes_match_the_eigh_route(exponent, temperature):
    # the shipped symmetric config (c12 = c12_tilde) at its trace plan,
    # N = 597, against the eigh route.  That route's omega^2 is good to
    # ~eps ||M||, so its slow modes carry the larger error (its noise is
    # 4.1e-12 off at n = 0.5, T = 1) and frequencies are compared against
    # the top one; test_secular_frequencies_match_mpmath holds the
    # arrowhead's to 1e-14
    bath = discretize(SpectralDensity(exponent, 0.1, 20.0), 597, temperature)
    drift = ex.build_symmetric_model(OSC, bath)
    assert ex._beam_scales(drift) is not None
    modes, ref = ex.normal_modes(drift), _factored_oracle(drift)
    assert np.all(np.diff(modes.omega) >= 0.0)
    assert np.abs(modes.omega - ref.omega).max() <= 1e-11 * ref.omega[-1]
    times = ex.EvolutionConfig(150.0, 0.02, 10).sample_times()
    got, want = (m.reduced_channel(bath, times) for m in (modes, ref))
    assert np.abs(got.z - want.z).max() <= 1e-11
    assert np.abs(got.noise - want.noise).max() <= 1e-11
    _assert_normal_mode_identities(drift, modes)


def _inserted_minus_modes(drift):
    # the (x+, bath) beam-splitter arrowhead alone, its x+ row spread onto
    # x1 and x2, and the free minus pair's column inserted at omega-
    plus, (m_minus, omega_minus) = ex._beam_scales(drift)
    c, freq = drift.couplings[0], drift.bath.frequencies
    root_mw = np.sqrt(np.concatenate([[plus[0] * plus[1]], freq]))
    lam, vectors = ex._arrowhead(plus[1], math.sqrt(2.0) * c / (root_mw[0] * root_mw[1:]), freq)
    u = vectors()
    at = int(np.searchsorted(lam, omega_minus))

    def spread(rows, minus):
        full = np.concatenate([rows[:1], rows])
        full[:2] *= math.sqrt(0.5)
        return np.insert(full, at, np.r_[minus, -minus, np.zeros(len(freq))], axis=1)

    a = spread(u * np.sqrt(lam) / root_mw[:, None], math.sqrt(0.5 / m_minus))
    wt = spread(u / np.sqrt(lam) * root_mw[:, None], math.sqrt(0.5 * m_minus))
    return ex.NormalModes.from_matrices(np.insert(lam, at, omega_minus), a, wt.T,
                                        (m_minus, omega_minus))


@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_beam_splitter_minus_pole_on_a_bath_mode(temperature):
    # the shipped symmetric config at N = 600 puts bath mode 30 at 1.0, the
    # drift's omega- to one ulp: the uncoupled x- pole is deflated beside a
    # live bath pole and appears once, with its free-pair column
    bath = discretize(OHMIC, 600, temperature)
    drift = ex.build_symmetric_model(OSC, bath)
    m_minus, omega_minus = drift._minus_scales
    assert abs(bath.frequencies[29] - omega_minus) <= 4.0 * np.finfo(float).eps
    modes, ref = ex.normal_modes(drift), _inserted_minus_modes(drift)
    assert modes.minus == (m_minus, omega_minus)
    assert np.abs(modes.w @ modes.a - np.eye(drift.dim // 2)).max() <= 1e-14
    assert np.count_nonzero(modes.omega == omega_minus) == 1
    assert np.array_equal(modes.omega, ref.omega)
    j = int(np.flatnonzero(modes.omega == omega_minus)[0])
    x_minus = math.sqrt(0.5 / m_minus)
    np.testing.assert_allclose(modes.a[:, j], np.r_[x_minus, -x_minus, np.zeros(600)],
                               rtol=1e-15, atol=0.0)
    times = ex.EvolutionConfig(150.0, 0.02, 10).sample_times()
    got, want = (m.reduced_channel(bath, times) for m in (modes, ref))
    # (a separable r = 2 state carries ~5e-13 of rounding in E_N, e^(4r) eps,
    # between any two orderings of the same products)
    for v in (basis_change(two_mode_squeezed(1.0), Ordering.PHYSICAL), _correlated_state()):
        e_got = ex._trace_from_blocks(times, got.blocks(v)).e_n
        e_want = ex._trace_from_blocks(times, want.blocks(v)).e_n
        assert np.abs(e_got - e_want).max() <= 1e-13


@pytest.mark.parametrize("build, osc, eighs", [
    (POSITION, OscillatorParams(1.0, 1.0, 1.0, 0.1), 0),
    (SYMMETRIC, OscillatorParams(1.0, 1.0, 1.0, 0.1, 0.1), 0),
    (SYMMETRIC, OscillatorParams(1.0, 1.0, 1.0, 0.1, 0.05), 1),
], ids=["position", "symmetric", "symmetric-c12-ne-c12-tilde"])
def test_normal_modes_make_one_cubic_call(build, osc, eighs, monkeypatch):
    # position modes and the symmetric model's at c12 = c12_tilde are
    # O(N^2): no eigh, and every np.linalg call inside exact factors a 2x2
    # matrix; at c12 != c12_tilde the factor is O(N^2) around one eigh of
    # size N+2
    calls = []

    class Linalg:
        def __getattr__(self, name):
            fn = getattr(np.linalg, name)
            if not callable(fn) or isinstance(fn, type):
                return fn

            def recorded(*args, **kwargs):
                calls.append((name, [np.shape(a) for a in args]))
                return fn(*args, **kwargs)
            return recorded

    class Numpy:
        linalg = Linalg()

        def __getattr__(self, name):
            return getattr(np, name)

    n_modes = 40
    drifts = [build(osc, discretize(SpectralDensity(exponent, 0.1, 20.0), n_modes, temperature))
              for exponent in (0.5, 1.0, 3.0) for temperature in (0.0, 1.0)]
    monkeypatch.setattr(ex, "np", Numpy())
    for drift in drifts:
        calls.clear()
        ex.normal_modes(drift)
        eigh_shapes = [shapes for name, shapes in calls if name == "eigh"]
        assert eigh_shapes == [[(n_modes + 2, n_modes + 2)]] * eighs
        others = [(name, shapes) for name, shapes in calls if name != "eigh"]
        assert {name for name, _ in others} <= {"cholesky", "solve"}
        assert all(shapes[0] == (2, 2) for _, shapes in others), others


def test_trace_reads_out_without_eigensolves_and_few_phases(monkeypatch):
    # the shipped plan (N = 597, 751 samples): the readout factors each
    # block and solves nothing, and the channel takes cos and sin of the
    # SAMPLE_CHUNK x (N+2) offsets once and of N+2 phases per chunk (the
    # free minus pair's closed-form rotation, one phase per sample, is apart)
    import entbath.gaussian as ga

    linalg_calls, phases = [], {"cos": 0, "sin": 0}

    class Linalg:
        def __getattr__(self, name):
            fn = getattr(np.linalg, name)

            def recorded(*args, **kwargs):
                linalg_calls.append(name)
                return fn(*args, **kwargs)
            return recorded

    class Numpy:
        linalg = Linalg()

        def __getattr__(self, name):
            return getattr(np, name)

    class Trig:
        def __getattr__(self, name):
            return getattr(np, name)

        def cos(self, x, **kwargs):
            phases["cos"] += np.size(x)
            return np.cos(x, **kwargs)

        def sin(self, x, **kwargs):
            phases["sin"] += np.size(x)
            return np.sin(x, **kwargs)

    bath = discretize(OHMIC, 597)
    drift = ex.build_position_model(OSC, bath)
    drift.normal_modes
    cfg = ex.EvolutionConfig(150.0, 0.02, 10)
    monkeypatch.setattr(ga, "np", Numpy())
    monkeypatch.setattr(ex, "np", Trig())
    ex.negativity_trace(separable_squeezed(2.0), drift, cfg)
    assert linalg_calls and set(linalg_calls) == {"cholesky"}
    samples = len(cfg.sample_times())
    chunks = -(-samples // ex.SAMPLE_CHUNK)
    assert samples == 751 and chunks == 6
    bound = (ex.SAMPLE_CHUNK + chunks) * (bath.n_modes + 2)
    assert 0 < phases["cos"] <= bound and 0 < phases["sin"] <= bound


def test_channel_refuses_times_off_a_uniform_grid():
    # the channel's phases come by angle addition on a uniform grid; sample
    # times, a time nudged by an ulp and a single time are on one
    drift = ex.build_position_model(OSC, discretize(OHMIC, 24))
    times = ex.EvolutionConfig(3.0, 0.05, 4).sample_times()
    for bad in (np.array([0.0, 0.1, 0.25]), times**1.01, np.append(times, 3.5),
                times + 1e-9 * np.arange(len(times)) ** 2):
        with pytest.raises(ValueError, match="sample times are not uniform"):
            drift.reduced_channel(bad)
    nudged = times.copy()
    nudged[5] = np.nextafter(nudged[5], np.inf)
    plain = drift.normal_modes.reduced_channel(drift.bath, times)
    near = drift.normal_modes.reduced_channel(drift.bath, nudged)
    assert np.abs(near.z - plain.z).max() <= 1e-14
    one = drift.normal_modes.reduced_channel(drift.bath, times[7:8])
    assert np.abs(one.z[0] - plain.z[7]).max() <= 1e-14


# ---------------------------------------------------------------------------
# Position coupling: normal modes from the secular equation
# ---------------------------------------------------------------------------

def _eigh_position_modes(drift):
    # the dense eigh reference for a diagonal momentum block: M = L K L, L = B^(1/2)
    h = drift.hamiltonian
    lw = np.sqrt(np.diagonal(h)[1::2])
    w_sq, u = np.linalg.eigh(lw[:, None] * h[0::2, 0::2] * lw)
    return ex.NormalModes.from_matrices(np.sqrt(w_sq), lw[:, None] * u, (u / lw[:, None]).T,
                                        ex._free_minus(drift))


def _secular_sizes(monkeypatch):
    # the number of poles (0 and the live ones) of every secular solve
    sizes = []
    original = ex._secular_roots

    def spy(pole, z_sq):
        sizes.append(len(pole))
        return original(pole, z_sq)

    monkeypatch.setattr(ex, "_secular_roots", spy)
    return sizes


@pytest.mark.parametrize("exponent", [0.5, 1.0, 3.0])
def test_secular_frequencies_match_mpmath(exponent):
    import mpmath

    mpmath.mp.dps = 40
    bath = discretize(SpectralDensity(exponent, 0.1, 20.0), 24)
    # position coupling, and the symmetric model's beam splitter
    for drift in (ex.build_position_model(OSC, bath),
                  ex.build_position_model(OscillatorParams(1.0, 1.05, 0.95, 0.1), bath),
                  ex.build_symmetric_model(OscillatorParams(1.0, 1.0, 1.0, 0.2, 0.2), bath)):
        h = drift.hamiltonian
        low = mpmath.cholesky(mpmath.matrix(h[1::2, 1::2].tolist()))
        m = low.T * mpmath.matrix(h[0::2, 0::2].tolist()) * low
        ref = np.array(sorted(float(mpmath.sqrt(v)) for v in mpmath.eigsy(m, eigvals_only=True)))
        assert np.abs(ex.normal_modes(drift).omega / ref - 1.0).max() <= 1e-14


def _hand_bath(n_modes, zero_at):
    w = 20.0 / n_modes * np.arange(1, n_modes + 1)
    c = discretize(OHMIC, n_modes).couplings.copy()
    c[zero_at] = 0.0
    return DiscreteBath(w, c, 1.0)


@pytest.mark.parametrize("case, live", [
    ("zero-coupling", 40),
    ("top-mode-147", 148),
    ("minus-on-bath-pole", 41),
], ids=["zero-coupling", "top-mode-147", "minus-on-bath-pole"])
def test_deflated_modes_match_eigh(case, live, monkeypatch):
    # a zero coupling and a minus pole on a bath pole leave the secular
    # problem (LAPACK dlaed2's deflations); N = 147 puts the top mode a
    # rounding above the cutoff
    if case == "zero-coupling":
        drift = ex.build_position_model(OSC, _hand_bath(40, 17))
    elif case == "top-mode-147":
        drift = ex.build_position_model(OSC, discretize(OHMIC, 147, 1.0))
    else:
        osc = OscillatorParams(1.0, 1.05, math.sqrt(2.0 - 1.05**2))
        drift = ex.build_position_model(osc, discretize(OHMIC, 40, 1.0))
        assert 1.0 in drift.bath.frequencies  # the minus frequency
    sizes = _secular_sizes(monkeypatch)
    modes = ex.normal_modes(drift)
    assert sizes == [live]  # pole 0 and the live bath (and minus) poles
    ref = _eigh_position_modes(drift)
    assert np.abs(modes.omega / ref.omega - 1.0).max() <= 1e-10
    for t in (0.0, 7.3, 0.7 * drift.bath.recurrence_time):
        got, want = modes.propagator(t)[:4], ref.propagator(t)[:4]
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
    assert np.abs(modes.w @ modes.a - np.eye(drift.dim // 2)).max() <= 1e-13


@pytest.mark.parametrize("n_modes", [597, 1194])
@pytest.mark.parametrize("exponent", [0.5, 1.0, 3.0])
def test_secular_negativity_matches_eigh(exponent, n_modes):
    sd = SpectralDensity(exponent, 0.1, 20.0)
    times = ex.EvolutionConfig(150.0, 0.02, 50).sample_times()
    states = (separable_squeezed(2.0), separable_squeezed(-2.0), _correlated_state())
    for osc in (OSC, OscillatorParams(1.0, 1.0, 1.0, 0.2), OscillatorParams(1.0, 1.05, 0.95)):
        drift = ex.build_position_model(osc, discretize(sd, n_modes))
        modes, ref = ex.normal_modes(drift), _eigh_position_modes(drift)
        for temperature in (0.0, 10.0):
            bath = discretize(sd, n_modes, temperature)
            got, want = (m.reduced_channel(bath, times) for m in (modes, ref))
            for v in states:
                e_got = ex._trace_from_blocks(times, got.blocks(v)).e_n
                e_want = ex._trace_from_blocks(times, want.blocks(v)).e_n
                assert np.abs(e_got - e_want).max() <= 1e-10


@pytest.mark.parametrize("case", ["spread", "three-coincident", "tiny-border", "uncoupled"])
def test_arrowhead_eigh_is_an_orthonormal_eigenbasis(case):
    rng = np.random.default_rng(7)
    poles = rng.uniform(0.1, 400.0, 60)
    border = rng.normal(size=60) * 10.0 ** rng.uniform(-6.0, 0.0, 60)
    if case == "three-coincident":  # a chain of Givens deflations
        poles[[3, 17, 40]] = poles[5]
    elif case == "tiny-border":
        border[[2, 9]] = 1e-15
    elif case == "uncoupled":
        border[:] = 0.0
    alpha = float(np.sum(border**2 / poles)) + 0.5
    lam, vectors = ex._arrowhead(alpha, border, poles)
    u = vectors()
    m = np.diag(np.concatenate([[alpha], poles]))
    m[0, 1:] = m[1:, 0] = border
    norm = np.abs(m).max()
    assert np.all(np.diff(lam) >= 0.0)
    assert np.abs(lam - np.linalg.eigvalsh(m)).max() <= 1e-14 * norm
    assert np.abs(m @ u - u * lam).max() <= 1e-14 * norm
    assert np.abs(u.T @ u - np.eye(61)).max() <= 1e-14
    # rows formed alone (the tip, a rotated pole, a deflated one) are those rows
    rows = (4, 0, 6, 18, 3)
    assert np.array_equal(vectors(rows), u[list(rows)])


def test_secular_route_is_decided_from_the_hamiltonian(monkeypatch):
    # every position-builder drift, and a symmetric one at c12 = c12_tilde,
    # is solved by the secular equation; a symmetric drift at c12 !=
    # c12_tilde, a hand-built H whose x2 couples at half strength and one
    # whose momentum couplings miss the beam splitter by 1e-9 keep the eigh
    # route, and all of them match exp(Kt)
    from dataclasses import replace

    from scipy.linalg import expm

    bath = discretize(OHMIC, 24, 0.5)
    position, symmetric = ex.build_position_model(OSC, bath), ex.build_symmetric_model(OSC, bath)
    unequal = np.array(position.couplings)
    unequal[2] *= 0.5
    off_beam = np.array(symmetric.couplings)
    off_beam[1::2] *= 1.0 + 1e-9
    cases = [
        (ex.build_position_model(OSC, bath), 1),
        (ex.build_position_model(OscillatorParams(1.0, 1.05, 0.95, 0.1), bath), 1),
        (bare_drift(OscillatorParams(1.3, 3.0, 3.0, 0.2), bath, "position"), 1),
        (ex.build_symmetric_model(OSC, bath), 1),
        (ex.build_symmetric_model(OscillatorParams(1.0, 1.0, 1.0, 0.2, 0.1), bath), 0),
        (replace(position, couplings=unequal), 0),
        (replace(symmetric, couplings=off_beam), 0),
    ]
    t = 0.7 * bath.recurrence_time
    for drift, solves in cases:
        sizes = _secular_sizes(monkeypatch)
        s = ex.normal_modes(drift).propagator(t)
        assert len(sizes) == solves
        s_ref = expm(drift.k * t)
        assert np.abs(s - s_ref).max() <= 1e-10 * np.abs(s_ref).max()


def test_secular_modes_refuse_an_indefinite_stiffness():
    # what the eigh route refused as omega^2 <= 0 is refused when the drift
    # is made, from the stiffness's Schur complement
    from dataclasses import replace

    bath = discretize(OHMIC, 16)
    base = ex.build_position_model(OSC, bath)
    plus = np.array(base.system)
    plus[0, 0] = plus[2, 2] = 0.2  # x+ below the counterterm
    minus = np.array(base.system)
    minus[0, 2] = minus[2, 0] = base.system[0, 0] + 0.5  # x- stiffness < 0
    for system in (plus, minus):
        with pytest.raises(UnstableHamiltonianError, match="stiffness"):
            replace(base, system=system)
    # a bath oscillator without stiffness w_k^2 is refused by the bath
    for frequency in (0.0, -1.0):
        w = np.concatenate([[frequency], bath.frequencies[1:]])
        with pytest.raises(ValueError, match="frequencies"):
            DiscreteBath(w, bath.couplings, 0.0)
    # a beam-form H whose x+ stiffness k+ lies below its counterterm s+ (the
    # momentum couplings are rescaled so that it keeps the beam form): its
    # stiffness is refused first, before the momentum block or the arrowhead
    beam = ex.build_symmetric_model(OSC, bath)
    c, w = beam.couplings[0], beam.bath.frequencies
    system = np.array(beam.system)
    system[0, 2] = system[2, 0] = 0.0
    system[0, 0] = system[2, 2] = 0.5 * np.sum(2.0 * c**2 / w**2)
    m_plus, omega_plus = ex.mode_scales(system, +1.0)
    cp = c / (m_plus * omega_plus * w)
    with pytest.raises(UnstableHamiltonianError, match="stiffness"):
        replace(beam, system=system, couplings=np.array([c, cp, c, cp]))


# ---------------------------------------------------------------------------
# The free minus pair: plus rows sampled, minus rows rotated in closed form
# ---------------------------------------------------------------------------

def _minus_rotation(system_v, m_minus, omega_minus, times):
    nm = basis_change(system_v, Ordering.NORMAL).matrix
    return free_rotation(nm[2:, 2:], m_minus, omega_minus, times)


@pytest.mark.parametrize("build, state", [
    (POSITION, lambda m, w: separable_squeezed(2.0)),
    (POSITION, lambda m, w: separable_squeezed(-2.0)),
    (SYMMETRIC, lambda m, w: basis_change(two_mode_squeezed(1.0, m, w), Ordering.PHYSICAL)),
], ids=["position-r2", "position-r-2", "symmetric-two-mode"])
def test_trace_minus_columns_are_the_free_rotation(build, state):
    # the shipped trace plan (N = 597): the minus dispersions of a resonant
    # drift are the exact rotation at its block's scales (the sampled minus
    # rows were 8.9e-11 off)
    bath = discretize(OHMIC, 597)
    drift = build(OSC, bath)
    m_minus, omega_minus = ex.mode_scales(drift.hamiltonian[:4, :4])
    v_sys = state(m_minus, omega_minus)
    cfg = ex.EvolutionConfig(150.0, 0.02, 10)
    tr = ex.negativity_trace(v_sys, drift, cfg)
    rot = _minus_rotation(v_sys, m_minus, omega_minus, tr.times)
    assert np.abs(tr.dx_minus_sq - rot[:, 0, 0]).max() <= 1e-12
    assert np.abs(tr.dp_minus_sq - rot[:, 1, 1]).max() <= 1e-12


def test_free_minus_pair_is_decided_from_the_hamiltonian():
    from dataclasses import replace

    from scipy.linalg import expm

    bath = discretize(OHMIC, 48, 0.5)
    cfg = ex.EvolutionConfig(0.7 * bath.recurrence_time, 0.05, 7)
    times = cfg.sample_times()
    states = (separable_squeezed(1.0), _correlated_state())
    base = ex.build_symmetric_model(OscillatorParams(1.0, 1.0, 1.0, 0.2, 0.2), bath)
    scales = ex.mode_scales(base.system)
    assert scales[0] > 2.0  # the renormalized block: far from the 1.0 passed below
    # a resonant block, hand-built, rotates its minus pair at the block's scales
    drift = ex.DriftMatrix(np.array(base.system), np.array(base.couplings), bath)
    assert drift.normal_modes.minus == scales
    for v in states:
        tr = ex.negativity_trace(v, drift, cfg)
        rot = _minus_rotation(v, *scales, times)
        assert np.abs(tr.dx_minus_sq - rot[:, 0, 0]).max() <= 1e-12
        assert np.abs(tr.dp_minus_sq - rot[:, 1, 1]).max() <= 1e-12
    # the same block with x2 coupled at half strength: the pair is not
    # free, and the four-row channel matches exp(Kt)
    couplings = np.array(base.couplings)
    couplings[2] *= 0.5
    drift = replace(base, couplings=couplings)
    assert drift.normal_modes.minus is None
    blocks = [drift.reduced_channel(times).blocks(v) for v in states]
    v0s = [ex.initial_covariance(v, bath).matrix for v in states]
    for i, t in enumerate(times):
        s4 = expm(drift.k * t)[:4]
        for v0, block in zip(v0s, blocks):
            ref = s4 @ v0 @ s4.T
            assert np.abs(block[i] - 0.5 * (ref + ref.T)).max() <= 1e-10


@pytest.mark.parametrize("osc, rows", [
    (OSC, 2),
    (OscillatorParams(1.0, 1.0, 1.0, 0.2), 2),
    (OscillatorParams(1.0, 1.05, 0.95), 4),
], ids=["resonant", "resonant-c12", "detuned"])
def test_channel_multiplies_the_sampled_rows_only(osc, rows, monkeypatch):
    # a trace reads omega and the system rows of A and W: the whole A and W
    # are never formed, so no product meets their bath columns, and
    # tracemalloc's peak over a fresh drift's trace (normal modes, channel,
    # readout) stays below one (N+2) x N array of doubles.  Delta's factor
    # is found once per channel from the sampled rows' weights, 2 for a
    # free minus pair and 4 otherwise, the same at one chunk of samples and
    # at several
    import tracemalloc

    seeds = []
    original = ex._quantum_gap
    monkeypatch.setattr(ex, "_quantum_gap", lambda om, a, w, *rule: seeds.append((a, w))
                        or original(om, a, w, *rule))
    n_modes = 1194
    drift = ex.build_position_model(osc, discretize(OHMIC, n_modes, 0.3))
    tracemalloc.start()
    try:
        ex.negativity_trace(separable_squeezed(1.0), drift, ex.EvolutionConfig(150.0, 0.02, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "_matrices" not in drift.normal_modes.__dict__
    assert peak < 8 * (n_modes + 2) * n_modes
    bath = discretize(OHMIC, 40, 1.0)
    modes = ex.normal_modes(ex.build_position_model(osc, bath))
    sizes = [len(modes.reduced_channel(bath, ex.EvolutionConfig(t_max, 0.05, 1).sample_times())
                 .times) for t_max in (5.0, 20.0)]
    assert sizes[0] <= ex.SAMPLE_CHUNK < 3 * ex.SAMPLE_CHUNK < sizes[1]
    assert [a.shape for a, _ in seeds] == [w.shape for _, w in seeds] == \
        [(n_modes + 2, rows // 2)] + [(42, rows // 2)] * 2
    assert all(np.array_equal(x, y) for x, y in zip(seeds[1], seeds[2]))
    # the matrices formed on a later read are the ones the rows came from
    assert np.array_equal(modes.a[:2], modes.a_s) and np.array_equal(modes.w[:, :2], modes.w_s)


# the channel grid: both builders, criterion 9's detuned pair, sub- and
# super-ohmic baths, the symmetric model with c12 != c12_tilde (its general
# eigh route), small and shipped bath sizes, and temperatures from the
# ground state to T >> omega
CHANNEL_CASES = {
    "position": (POSITION, OSC, OHMIC),
    "symmetric": (SYMMETRIC, OSC, OHMIC),
    "detuned": (POSITION, OscillatorParams(1.0, 1.05, 0.95), OHMIC),
    "sub-ohmic": (POSITION, OSC, SpectralDensity(0.5, 0.1, 20.0)),
    "super-ohmic": (SYMMETRIC, OSC, SpectralDensity(3.0, 0.1, 20.0)),
    "symmetric-c12-tilde": (SYMMETRIC, OscillatorParams(1.0, 1.0, 1.0, 0.2, 0.1), OHMIC),
}
channel_grid = pytest.mark.parametrize("temperature", [0.0, 0.01, 0.3, 1.0, 10.0])
channel_cases = pytest.mark.parametrize("case", list(CHANNEL_CASES))
channel_sizes = pytest.mark.parametrize("n_modes", [48, 597])


def _channel_plan(n_modes, case, temperature):
    build, osc, sd = CHANNEL_CASES[case]
    bath = discretize(sd, n_modes, temperature)
    cfg = ex.EvolutionConfig(min(150.0, 0.7 * bath.recurrence_time), 0.02, 10)
    return build(osc, bath), cfg.sample_times()


def _assert_channel_matches_reference(drift, times, z_tol=1e-14):
    # Z to 1e-14, N to 1e-12 of its largest entry, and E_N to 5e-12 on
    # separable r = +-2 and two-mode r = 1
    got = drift.reduced_channel(times)
    want = reference_channel(drift.normal_modes, drift.bath, times)
    assert np.abs(got.z - want.z).max() <= z_tol
    assert np.abs(got.noise - want.noise).max() <= 1e-12 * np.abs(want.noise).max()
    for v in (separable_squeezed(2.0), separable_squeezed(-2.0),
              basis_change(two_mode_squeezed(1.0), Ordering.PHYSICAL)):
        e_got, e_want = (log_negativities(c.blocks(v)) for c in (got, want))
        assert np.abs(e_got - e_want).max() <= 5e-12


@channel_grid
@channel_cases
@channel_sizes
def test_channel_matches_the_full_mode_reference(n_modes, case, temperature):
    _assert_channel_matches_reference(*_channel_plan(n_modes, case, temperature))


@pytest.mark.parametrize("temperature", [0.0, 10.0])
def test_long_window_channel_matches_the_full_mode_reference(temperature):
    # criterion 9's detuned pair over its window, N = 1194 to t_max = 300.
    # A phase omega t is good to about eps omega t, so Z is held to
    # eps t_max sum_m |dZ/d(omega_m t)| omega_m over its four blocks, every
    # phase one eps relative off and all in step: 2.4e-13 here, against
    # 6.9e-15 measured (the reference's phases are long double)
    from entbath.bath import modes_for_window

    build, osc, sd = CHANNEL_CASES["detuned"]
    drift = build(osc, discretize(sd, modes_for_window(sd.cutoff, 300.0), temperature))
    times = ex.EvolutionConfig(300.0, 0.02, 10).sample_times()
    modes = drift.normal_modes
    a, w, om = np.abs(modes.a[:2]), np.abs(modes.w[:, :2]), modes.omega
    # x-x, x-p, p-x and p-p blocks: A cos W, A sin A^T / omega,
    # -W^T omega sin W and W^T cos A^T, each weight times omega
    slope = max(((a * om) @ w).max(), (a @ a.T).max(), ((w.T * om**2) @ w).max(),
                ((w.T * om) @ a.T).max())
    assert drift.bath.n_modes == 1194
    _assert_channel_matches_reference(drift, times, np.finfo(float).eps * 300.0 * slope)


@channel_grid
@channel_cases
@channel_sizes
def test_channel_is_completely_positive(n_modes, case, temperature):
    # a Gaussian channel is completely positive exactly when
    # N + (i/2)(J - Z J Z^T) >= 0 (Holevo & Werner, PRA 63, 032312 (2001))
    from entbath.gaussian import symplectic_form

    drift, times = _channel_plan(n_modes, case, temperature)
    channel = drift.reduced_channel(times)
    j = symplectic_form(4)
    form = channel.noise + 0.5j * (j - channel.z @ j @ channel.z.transpose(0, 2, 1))
    assert np.linalg.eigvalsh(form).min() >= -1e-13


def test_resolvent_rule_refines_a_coarse_start(monkeypatch):
    # a deliberately coarse start (a sinc step of 1, two Gauss nodes per
    # tail, a quarter of the Gauss nodes on the Matsubara frequencies) misses
    # the rule's tolerance at the mode and bath frequencies; the rule refines
    # itself until it meets it, and the channel meets the grid bounds
    levels = []
    for name in ("_sinc_rule", "_matsubara_rule"):
        original = getattr(ex, name)
        monkeypatch.setattr(ex, name, lambda *args, rule=original: levels.append(args[-1])
                            or rule(*args))
    monkeypatch.setattr(ex, "_SINC_STEP", 1.0)
    monkeypatch.setattr(ex, "_TAIL_NODES", 2)
    monkeypatch.setattr(ex, "_FAR_NODES", 2)
    monkeypatch.setattr(ex, "_GAUSS_DIGITS", ex._GAUSS_DIGITS / 4.0)
    for case, temperature in (("position", 0.0), ("symmetric", 0.01), ("detuned", 0.3),
                              ("sub-ohmic", 10.0)):
        levels.clear()
        _assert_channel_matches_reference(*_channel_plan(597, case, temperature))
        assert levels == list(range(len(levels))) and len(levels) >= 2


@pytest.mark.parametrize("name", ["ohmic_trace", "symmetric_trace"])
def test_resolvent_rule_needs_no_refinement_at_low_temperatures(name, monkeypatch):
    # compressed into the Gauss rule, the lowest Matsubara frequencies left
    # a relative error floor near 1.1e-14 at omega_min that no refinement
    # lowered, so T = 0.0032 was refused on the shipped ohmic bath; kept as
    # exact shifts, the rule meets its tolerance at its first level
    from entbath.config import load_config
    from entbath.scenario import Scenario

    monkeypatch.setattr(ex, "_RULE_LEVELS", 1)
    scenario = Scenario(load_config(str(CONFIGS / f"{name}.yaml")))
    drift = scenario.drift(scenario.bath())
    freqs = np.concatenate([drift.normal_modes.omega, drift.bath.frequencies])
    for temperature in np.geomspace(1e-3, 1e-2, 21):
        ex._resolvent_rule(freqs, temperature)


@pytest.mark.parametrize("build, osc", [
    (POSITION, OSC),
    (POSITION, OscillatorParams(1.0, 1.05, 0.95, 0.1)),
    (SYMMETRIC, OSC),
], ids=["position", "detuned", "beam-splitter"])
def test_mode_matrices_formed_on_demand_match_the_eager_ones(build, osc):
    # the secular routes keep omega and the system rows; A and W formed on
    # first read are, bit for bit, the eager construction: the whole
    # arrowhead eigenbasis, scaled and unmixed to x1 and x2 as before
    drift = build(osc, discretize(OHMIC, 147, 1.0))
    modes = ex.normal_modes(drift)
    assert "_matrices" not in modes.__dict__
    h_sys, c, freq = drift.system, drift.couplings[0], drift.bath.frequencies
    if build is POSITION:
        l_sys = np.sqrt(np.diagonal(h_sys)[1::2])
        m_ss = l_sys[:, None] * h_sys[0::2, 0::2] * l_sys
        mean, half = (m_ss[0, 0] + m_ss[1, 1]) / 2.0, (m_ss[0, 0] - m_ss[1, 1]) / 2.0
        lam, vectors = ex._arrowhead(mean + m_ss[0, 1], np.r_[half, math.sqrt(2.0) * l_sys[0] * c],
                                     np.r_[mean - m_ss[0, 1], freq**2])
        u = ex._unmix(vectors())
        a = np.concatenate([u[:2] * l_sys[:, None], u[2:]])
        u[:2] /= l_sys[:, None]
        lam, w = np.sqrt(lam), u.T
    else:
        plus, minus = ex._beam_scales(drift)
        root_mw = np.sqrt(np.r_[plus[0] * plus[1], minus[0] * minus[1], freq])
        border = np.r_[0.0, math.sqrt(2.0) * c / (root_mw[0] * root_mw[2:])]
        lam, vectors = ex._arrowhead(plus[1], border, np.r_[minus[1], freq])
        u = vectors()
        a = u * np.sqrt(lam)
        a /= root_mw[:, None]
        u /= np.sqrt(lam)
        u *= root_mw[:, None]
        a, w = ex._unmix(a), ex._unmix(u).T
    assert np.array_equal(modes.omega, lam)
    assert np.array_equal(modes.a, a) and np.array_equal(modes.w, w)
    assert np.array_equal(modes.a_s, a[:2]) and np.array_equal(modes.w_s, w[:, :2])


def _loop_built(drift, osc, symmetric):
    # the element-by-element construction the vectorized builders replaced
    from entbath.gaussian import symplectic_form

    bath = drift.bath
    h = np.zeros_like(drift.hamiltonian)
    h[:4, :4] = drift.hamiltonian[:4, :4]
    s = -bath.counterterm_sum(osc.m)
    w_bare_sq = 0.5 * (s + osc.omega1**2 + math.sqrt((s + osc.omega1**2) ** 2 - s * s))
    w_bare = math.sqrt(w_bare_sq)
    for k in range(bath.n_modes):
        iq, ip = 4 + 2 * k, 5 + 2 * k
        h[iq, iq] = bath.frequencies[k] ** 2
        h[ip, ip] = 1.0
        c = bath.couplings[k]
        h[0, iq] = h[iq, 0] = c
        h[2, iq] = h[iq, 2] = c
        if symmetric:
            cp = c / (osc.m * w_bare * bath.frequencies[k])
            h[1, ip] = h[ip, 1] = cp
            h[3, ip] = h[ip, 3] = cp
    return h, symplectic_form(h.shape[0]) @ h


@pytest.mark.parametrize("n_modes", [8, 48, 597])
def test_vectorized_build_is_bit_identical(n_modes):
    for sd in (OHMIC, SpectralDensity.sub_ohmic(0.1, 20.0),
               SpectralDensity.super_ohmic(0.15, 20.0)):
        bath = discretize(sd, n_modes, 1.0)
        cases = [
            (ex.build_position_model, OscillatorParams(1.3, 1.05, 0.95, 0.1)),
            (ex.build_symmetric_model, OscillatorParams(1.3, 1.7, 1.7, 0.2, 0.1)),
        ]
        for build, osc in cases:
            drift = build(osc, bath)
            h, k = _loop_built(drift, osc, build is ex.build_symmetric_model)
            assert np.array_equal(drift.hamiltonian, h)
            assert np.array_equal(drift.k, k)


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
            else:
                osc = OscillatorParams(1.0, omega, omega, c12, -0.5 * c12)
            bare_drift(osc, bath, model)
    refused = []
    for drift in captured:
        dense_negative = np.linalg.eigvalsh(drift.hamiltonian)[0] < 0.0
        try:
            check(drift)
            refused.append(False)
        except UnstableHamiltonianError:
            refused.append(True)
        assert refused[-1] == dense_negative
    assert any(refused) and not all(refused)
