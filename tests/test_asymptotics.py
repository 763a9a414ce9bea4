"""Closed-form asymptotics: coefficients, dispersions, oscillation law,
phase classification and the fluctuation-dissipation route.

Frozen numbers are derived values pinned from independent evaluation of
the printed formulas; they guard against regressions, not against the
formulas themselves.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import asymptotic_covariance, bath_self_energy, r_crit_from_coefficients

from entbath import asymptotics as asy
from entbath.bath import SpectralDensity, counterterm
from entbath.errors import NumericalError
from entbath.gaussian import log_negativity

OHMIC = SpectralDensity.ohmic(0.1, 20.0)
SUB = SpectralDensity.sub_ohmic(0.1, 20.0)
SUPER = SpectralDensity.super_ohmic(0.15, 20.0)


# ---------------------------------------------------------------------------
# Coefficients and equilibrium dispersions
# ---------------------------------------------------------------------------

def test_ohmic_zero_t_equilibrium_frozen():
    c = asy.coefficient_limits(OHMIC, 1.0, 0.0)
    assert c.gamma == pytest.approx(0.2)
    dx, dp = asy.equilibrium_dispersions_position(c, 1.0, 1.0)
    assert dx * dx == pytest.approx(0.43633802276324, rel=1e-10)
    assert dp * dp == pytest.approx(0.81776650237607, rel=1e-10)
    assert r_crit_from_coefficients(c, 1.0) == pytest.approx(
        -0.15703990547393, rel=1e-9
    )


def test_high_t_equilibrium_is_classical():
    # D = 2 m gamma T dominates: dp^2 -> T, dx^2 -> T/omega^2 + O(gamma)
    c = asy.coefficient_limits(OHMIC, 1.0, 10.0)
    dx, dp = asy.equilibrium_dispersions_position(c, 1.0, 1.0)
    assert dp * dp == pytest.approx(10.0, rel=1e-12)
    assert dx * dx == pytest.approx(10.0, rel=2e-2)


def test_symmetric_coefficients_any_temperature():
    for t in (0.0, 0.3, 10.0):
        c = asy.coefficient_limits(OHMIC, 1.0, t, "symmetric")
        coth = 1.0 if t == 0 else 1.0 / math.tanh(1.0 / (2.0 * t))
        assert c.diffusion / c.gamma == pytest.approx(coth, rel=1e-12)
        # the fixed point dp^2 = D/(2 gamma), dx = dp/(m omega) is the thermal
        # state at omega = m = 1: dx^2 = coth/(2 m omega), dp^2 = m omega coth/2
        dp = math.sqrt(c.diffusion / (2.0 * c.gamma))
        assert dp * dp == pytest.approx(coth / 2.0, rel=1e-12)


def test_untabulated_exponent_refused():
    odd = SpectralDensity(2.0, 0.1, 20.0)
    with pytest.raises(ValueError):
        asy.coefficient_limits(odd, 1.0, 0.0)


def test_negative_temperature_refused():
    for model in ("position", "symmetric"):
        with pytest.raises(ValueError):
            asy.coefficient_limits(OHMIC, 1.0, -1.0, model)


# ---------------------------------------------------------------------------
# Ohmic closed forms and the harmonic-number variance
# ---------------------------------------------------------------------------

def ohmic_position_variance(
    temperature: float, gamma: float, omega: float, m: float = 1.0
) -> float:
    """Equilibrium <x+^2> for an ohmic bath at temperature T, the oracle of
    the FDT route: T / (m omega^2) + Im H(z) / (pi m omega~) with the
    harmonic number H(z) = psi(z + 1) + Euler's gamma at z = (gamma + i
    omega~) / (2 pi T), omega~ = sqrt(omega^2 - gamma^2); at T = 0 the
    arccos expression."""
    from scipy.special import digamma

    g = gamma / omega
    assert 0 < g < 1
    tilde = math.sqrt(omega**2 - gamma**2)
    if temperature == 0.0:
        return math.acos(g) / (math.pi * m * tilde)
    z = complex(gamma, tilde) / (2.0 * math.pi * temperature)
    return temperature / (omega**2 * m) + digamma(z + 1.0).imag / (math.pi * m * tilde)


def test_ohmic_exact_zero_t_frozen():
    dx, dp = asy.ohmic_exact_zero_t_dispersions(0.2, 1.0, 20.0)
    assert dx * dx == pytest.approx(0.44489, rel=1e-4)
    assert dp * dp == pytest.approx(0.79073, rel=1e-4)


def test_position_variance_limits():
    # T -> 0 reduces to the arccos form; high T reaches equipartition
    v0 = ohmic_position_variance(0.0, 0.2, 1.0)
    assert v0 == pytest.approx(math.acos(0.2) / (math.pi * math.sqrt(1.0 - 0.04)))
    tiny = ohmic_position_variance(1e-4, 0.2, 1.0)
    assert tiny == pytest.approx(v0, rel=1e-4)
    hot = ohmic_position_variance(50.0, 0.2, 1.0)
    assert hot == pytest.approx(50.0, rel=1e-3)


def test_weak_coupling_criticals_close_to_exact():
    weak = asy.ohmic_weak_zero_t(0.2, 1.0, 20.0)
    dx0, dp0 = asy.FdtRule(OHMIC, 1.0).dispersions(0.0)
    r1, r2 = asy.r1_r2(dx0, dp0, 1.0, 1.0)
    assert weak["r1"] == pytest.approx(r1, abs=0.02)
    assert weak["r2"] == pytest.approx(r2, abs=0.02)


@pytest.mark.parametrize("gamma", [3.0, 6.0])
def test_weak_coupling_criticals_refuse_outside_their_domain(gamma):
    # ln(cutoff / omega) = ln 2 < 1 makes the s_crit (and, at large gamma,
    # r2) log argument negative: a named ValueError, not a math domain error
    with pytest.raises(ValueError, match="every log argument > 0"):
        asy.ohmic_weak_zero_t(gamma, 1.0, 2.0)


# ---------------------------------------------------------------------------
# Fluctuation-dissipation route
# ---------------------------------------------------------------------------

def test_fdt_frozen_values():
    dx, dp = asy.FdtRule(OHMIC, 1.0).dispersions(0.0)
    assert dx * dx == pytest.approx(0.44729727582354, rel=1e-6)
    assert dp * dp == pytest.approx(0.80775983228627, rel=1e-6)
    sx, sp = asy.FdtRule(SUB, 1.0).dispersions(0.0)
    assert 0.5 * math.log(sx / sp) == pytest.approx(-0.38197435, rel=1e-5)
    ux, up = asy.FdtRule(SUPER, 1.0).dispersions(0.0)
    assert 0.5 * math.log(ux / up) == pytest.approx(-0.04030212, rel=1e-4)


def test_fdt_converges_to_ohmic_closed_form_with_cutoff():
    errs = []
    for lam in (20.0, 200.0):
        sd = SpectralDensity.ohmic(0.1, lam)
        dx, _ = asy.FdtRule(sd, 1.0).dispersions(0.0)
        ex, _ = asy.ohmic_exact_zero_t_dispersions(0.2, 1.0, lam)
        errs.append(abs(dx * dx - ex * ex) / (ex * ex))
    assert errs[0] < 1e-2
    assert errs[1] < errs[0] / 5.0  # finite-cutoff difference scales ~ 1/Lambda


def test_fdt_matches_harmonic_number_variance_at_finite_t():
    for t in (0.1, 0.3, 1.0):
        dx, _ = asy.FdtRule(OHMIC, 1.0).dispersions(t)
        hn = ohmic_position_variance(t, 0.2, 1.0)
        assert dx * dx == pytest.approx(hn, rel=1e-2)


def test_fdt_high_t_equipartition():
    dx, dp = asy.FdtRule(OHMIC, 1.0).dispersions(10.0)
    assert dp * dp == pytest.approx(10.0, rel=1e-2)
    assert dx * dx == pytest.approx(10.0, rel=2e-2)


def _quad_reference(sd, omega, temperature):
    """<x+^2>, <p+^2> by adaptive quad at epsrel 1e-12, with breakpoints at
    omega and at the resonance: the first downward zero crossing of the
    real part of the denominator, bracketed on a grid and found by brentq."""
    from scipy.integrate import quad
    from scipy.optimize import brentq

    m = sd.mass
    bare = omega**2 - counterterm(sd)

    def denom(w):
        return m * (bare - w * w) - bath_self_energy(sd, w)

    grid = np.geomspace(1e-3 * omega, sd.cutoff * (1.0 - 1e-9), 400)
    re = np.array([denom(w).real for w in grid])
    down = np.flatnonzero((re[:-1] > 0.0) & (re[1:] <= 0.0))
    peak = brentq(lambda w: denom(w).real, grid[down[0]], grid[down[0] + 1], xtol=1e-15)

    def x_integrand(w):
        coth = 1.0 if temperature == 0.0 else 1.0 / math.tanh(w / (2.0 * temperature))
        return coth * bath_self_energy(sd, w).imag / abs(denom(w)) ** 2 / math.pi

    opts = dict(points=sorted({omega, peak}), limit=2000, epsabs=0.0, epsrel=1e-12)
    x2 = quad(x_integrand, 0.0, sd.cutoff, **opts)[0]
    p2 = quad(lambda w: m * m * w * w * x_integrand(w), 0.0, sd.cutoff, **opts)[0]
    return x2, p2


@pytest.mark.parametrize("exponent", [0.5, 1.0, 3.0])
def test_fdt_matches_adaptive_reference(exponent):
    for gamma0 in (0.1, 0.3):
        sd = SpectralDensity(exponent, gamma0, 20.0)
        for omega in (0.2, 1.0, 3.0):
            for t in (0.0, 0.1, 1.0, 10.0):
                dx, dp = asy.FdtRule(sd, omega).dispersions(t)
                x2, p2 = _quad_reference(sd, omega, t)
                assert dx * dx == pytest.approx(x2, rel=1e-10), (gamma0, omega, t)
                assert dp * dp == pytest.approx(p2, rel=1e-10), (gamma0, omega, t)


@pytest.mark.parametrize(
    "exponent, gamma0, omega, t, cutoff",
    [
        (3.0, 0.01, 0.2, 0.0, 200.0),  # peak 2e-8 wide
        (3.0, 0.01, 1.0, 1.0, 200.0),
        (0.5, 1.0, 1.0, 10.0, 5.0),  # w^(-1/2) at the origin
        (1.0, 1.0, 1.0, 0.1, 20.0),
    ],
)
def test_fdt_matches_high_precision_reference(exponent, gamma0, omega, t, cutoff):
    # the whole integrand at 30 digits, integrated by mpmath between cuts
    # around the peak; no rounding in the denominator near resonance
    import mpmath as mp

    sd = SpectralDensity(exponent, gamma0, cutoff)
    with mp.workdps(30):
        n, g, lam = mp.mpf(exponent), mp.mpf(gamma0), mp.mpf(cutoff)

        def pv(w):
            log = mp.log((lam - w) / (lam + w))
            if exponent == 1.0:
                return lam + w * log / 2
            if exponent == 3.0:
                return lam**3 / 3 + w * w * lam + w**3 * log / 2
            su, sl = mp.sqrt(w), mp.sqrt(lam)
            return 2 * sl + su * (mp.log((sl - su) / (sl + su)) / 2 - mp.atan(sl / su))

        def chi(w):
            re = 8 * g / mp.pi * lam ** (1 - n) * pv(w)
            im = 4 * g * w * (w / lam) ** (n - 1)
            d = mp.mpf(omega) ** 2 + 8 * g * lam / (mp.pi * n) - w * w - re
            coth = 1 if t == 0.0 else 1 / mp.tanh(w / (2 * mp.mpf(t)))
            return coth * im / (d * d + im * im) / mp.pi

        peak, width = asy._resonance(sd, 1.0, omega, 0.0)
        cuts = [0.0] + [c for c in (peak + k * width for k in (-1e3, -30, -1, 0, 1, 30, 1e3))
                        if 0.0 < c < cutoff] + [cutoff]
        cuts = [mp.mpf(c) for c in cuts]
        x2 = float(mp.quad(chi, cuts, maxdegree=10))
        p2 = float(mp.quad(lambda w: w * w * chi(w), cuts, maxdegree=10))
    dx, dp = asy.FdtRule(sd, omega).dispersions(t)
    assert dx * dx == pytest.approx(x2, rel=1e-12)
    assert dp * dp == pytest.approx(p2, rel=1e-12)


def test_fdt_refuses_unconverged_rule(monkeypatch):
    # two levels (9 and 17 nodes per side) leave the estimate far above 1e-6
    monkeypatch.setattr(asy, "_DE_MAX_LEVEL", 1)
    with pytest.raises(NumericalError, match="quadrature failed"):
        asy.FdtRule(OHMIC, 1.0).dispersions(0.0)


def test_fdt_refuses_omega_at_or_above_cutoff():
    for omega in (20.0, 25.0, 0.0):
        with pytest.raises(ValueError, match="cutoff"):
            asy.FdtRule(OHMIC, omega)


def test_fdt_rule_reuse_is_bit_identical():
    # temperatures that need the deep levels first, then shallow ones, then
    # repeats: one rule reweighting its cached nodes gives every bit of a
    # fresh rule per temperature
    temps = (0.0, 0.05, 0.3, 1.0, 10.0, 0.3, 0.0)
    for sd in (OHMIC, SUB, SUPER):
        rule = asy.FdtRule(sd, 1.0)
        reused = [rule.dispersions(t) for t in temps]
        assert reused == [asy.FdtRule(sd, 1.0).dispersions(t) for t in temps], sd.exponent
        assert len(set(reused)) == 5, sd.exponent


@pytest.mark.parametrize("sd", [OHMIC, SUB, SUPER], ids=["ohmic", "sub", "super"])
def test_principal_value_against_cauchy_quadrature(sd):
    from scipy.integrate import quad

    n, lam = sd.exponent, sd.cutoff
    w = np.array([0.01, 0.3, 1.0, 5.0, 19.9, 20.0 - 1e-9])
    shift = asy._principal_value_shift(n, w, lam)
    # the array form is the scalar form applied elementwise
    assert list(shift) == [asy._principal_value_shift(n, float(x), lam) for x in w]
    got = shift + lam**n / n  # the PV integral itself
    # quad's Cauchy weight gives PV Int f(nu)/(nu - w); f = nu^(n+1)/(nu + w)
    for x, val in zip(w, got):
        ref = quad(lambda nu: nu ** (n + 1) / (nu + x), 0.0, lam,
                   weight="cauchy", wvar=x, epsabs=0.0, epsrel=1e-12)[0]
        assert val == pytest.approx(ref, rel=1e-10, abs=1e-10 * lam**n)


def test_critical_temperature_frozen():
    t0 = asy.critical_temperature(
        lambda t: asy.FdtRule(OHMIC, 1.0).dispersions(t)[0] ** 2, 1.0, 1.0
    )
    assert t0 == pytest.approx(0.27148244, abs=1e-5)
    t0_hn = asy.critical_temperature(
        lambda t: ohmic_position_variance(t, 0.2, 1.0), 1.0, 1.0
    )
    assert t0_hn == pytest.approx(0.27582468, abs=1e-5)
    # both routes agree at the few-percent level (finite-cutoff effect)
    assert t0 == pytest.approx(t0_hn, rel=2e-2)


def test_critical_temperature_none_without_crossing():
    # variance already above vacuum at T=0 -> no crossing
    assert asy.critical_temperature(lambda t: 1.0 + t, 1.0, 1.0) is None


# ---------------------------------------------------------------------------
# Critical parameters, oscillation law and classification
# ---------------------------------------------------------------------------

def test_critical_params_signs():
    cp = asy.critical_params(0.67, 0.9, 0.5, 1.0, 1.0, 1.0)
    assert cp.r_crit == pytest.approx(0.5 * math.log(0.67 / 0.9))
    assert cp.s_crit == pytest.approx(0.5 * math.log(4.0 * 0.67 * 0.9 * 0.5))
    assert cp.e_c == pytest.approx(abs(cp.r_crit) - cp.s_crit)


def test_mean_amplitude_and_classify():
    # |r| > |r_crit|: mean = |r| - s_crit, amplitude = |r_crit|
    mean, amp = asy.mean_and_amplitude(2.0, -0.15, 0.1)
    assert mean == pytest.approx(1.9)
    assert amp == pytest.approx(0.15)
    assert asy.classify(2.0, -0.15, 0.1) is asy.Phase.NSD
    # deep thermal equilibrium: everything dies
    assert asy.classify(0.1, -0.01, 3.0) is asy.Phase.SD
    # straddling zero: death and revival
    assert asy.classify(0.12, -0.15, 0.1) is asy.Phase.SDR


@given(
    st.floats(-2.0, 2.0),
    st.floats(-1.0, 1.0),
    st.floats(-0.5, 1.0),
    st.floats(0.5, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_g_of_t_bounded_and_periodic(r, r_crit, s_crit, omega):
    # E(t) = E~ + dE G(t) with G in [-1, 1] of period pi/omega, checked on
    # E itself with G's tolerance 1e-9 scaled by the amplitude dE; near
    # dE = 0 that bound falls below E's rounding, so keep away from it
    assume(min(abs(r), abs(r_crit)) > 1e-3)
    mean, amp = asy.mean_and_amplitude(r, r_crit, s_crit)
    t = np.linspace(0.0, 3.0 * math.pi / omega, 301)
    e = asy.entanglement_oscillation(r, r_crit, s_crit, omega, t)
    assert np.all(e <= mean + amp * (1.0 + 1e-9))
    assert np.all(e >= mean - amp * (1.0 + 1e-9))
    e2 = asy.entanglement_oscillation(r, r_crit, s_crit, omega, t + math.pi / omega)
    assert np.allclose(e, e2, rtol=0.0, atol=1e-9 * amp)


def test_oscillation_extrema_at_quarter_periods():
    r, r_crit, s_crit, omega = 1.2, -0.4, 0.3, 0.9
    mean, amp = asy.mean_and_amplitude(r, r_crit, s_crit)
    e0 = asy.entanglement_oscillation(r, r_crit, s_crit, omega, 0.0)
    eq = asy.entanglement_oscillation(r, r_crit, s_crit, omega, math.pi / (2.0 * omega))
    assert max(e0, eq) == pytest.approx(mean + amp, abs=1e-12)
    assert min(e0, eq) == pytest.approx(mean - amp, abs=1e-12)


def test_oscillation_matches_beam_splitter_negativity():
    # E(t) from the law equals the log-negativity of the block-diagonal
    # rotating state wherever it is positive
    rng = np.random.default_rng(11)
    for _ in range(20):
        r = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
        s_crit = rng.uniform(-0.3, 0.5)
        r_crit = rng.uniform(-0.8, 0.8)
        omega = rng.uniform(0.5, 1.5)
        dxdp_plus = math.exp(2.0 * s_crit) / 2.0  # minus mode pure
        dx_p = math.sqrt(dxdp_plus * math.exp(2.0 * r_crit))
        dp_p = math.sqrt(dxdp_plus * math.exp(-2.0 * r_crit))
        minus = np.diag([math.exp(2.0 * r) / 2.0, math.exp(-2.0 * r) / 2.0])
        # dispersions above are measured at scale m_minus omega_minus = 1,
        # so rotate with m_minus = 1/omega
        for t in rng.uniform(0.0, 10.0, size=5):
            law = asy.entanglement_oscillation(r, r_crit, s_crit, omega, float(t))
            v = asymptotic_covariance(float(t), dx_p, dp_p, minus, 1.0 / omega, omega)
            assert log_negativity(v) == pytest.approx(max(0.0, law), abs=1e-8)


def test_equilibrium_refusals():
    with pytest.raises(ValueError):
        asy.equilibrium_dispersions_position(
            asy.PositionCoefficients(-0.1, 0.3, 0.0), 1.0, 1.0
        )
    with pytest.raises(NumericalError):
        # anomalous diffusion too strong: no real position dispersion
        asy.equilibrium_dispersions_position(
            asy.PositionCoefficients(0.2, 0.1, 5.0), 1.0, 1.0
        )


def test_self_energy_imaginary_part_is_spectral_density():
    from entbath.bath import j_omega

    for sd in (OHMIC, SUB, SUPER):
        for w in (0.3, 1.0, 5.0):
            sig = bath_self_energy(sd, w)
            assert sig.imag == pytest.approx(2.0 * math.pi * j_omega(sd, w), rel=1e-12)
