"""Spectral densities, counterterms and discretized baths against
quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from entbath.bath import (
    RECURRENCE_MARGIN,
    DiscreteBath,
    SpectralDensity,
    asymptotic_gamma,
    counterterm,
    discretize,
    j_omega,
    modes_for_window,
    thermal_bath_covariance,
)
from entbath.errors import RecurrenceWindowError
from entbath.exact import check_recurrence

SDS = [
    SpectralDensity.ohmic(0.1, 20.0),
    SpectralDensity.sub_ohmic(0.1, 20.0),
    SpectralDensity.super_ohmic(0.15, 20.0),
    SpectralDensity(1.0, 0.3, 5.0, mass=2.0),
]


def test_j_omega_shapes_and_cutoff():
    sd = SpectralDensity.ohmic(0.1, 20.0)
    assert j_omega(sd, 1.0) == pytest.approx(2.0 / math.pi * 0.1)
    assert j_omega(sd, 0.0) == 0.0
    assert j_omega(sd, 25.0) == 0.0
    w = np.array([0.0, 1.0, 10.0, 21.0])
    vals = j_omega(sd, w)
    assert vals[0] == 0.0 and vals[3] == 0.0
    assert vals[2] == pytest.approx(10.0 * vals[1])


def test_sub_ohmic_integrable_at_origin():
    sd = SpectralDensity.sub_ohmic(0.1, 20.0)
    # J/w ~ w^(-1/2) is integrable; the closed-form counterterm equals the
    # quadrature of -(4/m) J(w)/w
    val, err = quad(lambda w: j_omega(sd, w) / w, 0.0, sd.cutoff)
    assert -4.0 / sd.mass * val == pytest.approx(counterterm(sd), rel=1e-8)


@pytest.mark.parametrize("sd", SDS)
def test_counterterm_quadrature_oracle(sd):
    val, err = quad(lambda w: j_omega(sd, w) / w, 1e-12, sd.cutoff)
    assert counterterm(sd) == pytest.approx(-4.0 / sd.mass * val, rel=1e-6)
    assert counterterm(sd) < 0.0


def test_asymptotic_gamma_values():
    assert asymptotic_gamma(SpectralDensity.ohmic(0.1, 20.0), 1.0) == pytest.approx(0.2)
    assert asymptotic_gamma(SpectralDensity.sub_ohmic(0.1, 20.0), 1.0) == pytest.approx(
        0.2 * math.sqrt(20.0)
    )
    assert asymptotic_gamma(SpectralDensity.super_ohmic(0.15, 20.0), 1.0) == pytest.approx(
        0.3 / 400.0
    )
    with pytest.raises(ValueError):
        asymptotic_gamma(SpectralDensity.ohmic(0.1, 20.0), 25.0)


@pytest.mark.parametrize("sd", SDS)
def test_discrete_counterterm_converges(sd):
    exact = counterterm(sd)
    errs = []
    for n in (64, 256, 1024):
        bath = discretize(sd, n)
        errs.append(abs(bath.counterterm_sum(sd.mass) - exact))
    assert errs[-1] < abs(exact) * 5e-2
    # midpoint sums are exact for the ohmic case, so only require
    # improvement when the coarse grid is not already at machine precision
    if errs[0] > 1e-12 * abs(exact):
        assert errs[2] < errs[0]


def test_discretize_grid_and_couplings():
    sd = SpectralDensity.ohmic(0.1, 20.0)
    bath = discretize(sd, 10)
    assert bath.n_modes == 10
    assert bath.spacing == pytest.approx(2.0)
    assert bath.recurrence_time == pytest.approx(math.pi)
    assert np.allclose(bath.frequencies, 2.0 * np.arange(1, 11))
    expected = np.sqrt(2.0 * bath.frequencies * j_omega(sd, bath.frequencies) * 2.0)
    assert np.allclose(bath.couplings, expected)


@pytest.mark.parametrize("exponent", [0.5, 1.0, 3.0])
def test_every_mode_is_coupled(exponent):
    # N dw rounds just above the cutoff for 45 sizes below 3300 (147, 525,
    # 1050, ...); the top mode must keep its coupling there
    sd = SpectralDensity(exponent, 0.1, 20.0)
    for n_modes in range(1, 3301):
        bath = discretize(sd, n_modes)
        assert bath.couplings.min() > 0.0, n_modes
    # where the top mode sits on the cutoff nothing changes
    for n_modes in (8, 48, 597, 1194):
        bath = discretize(sd, n_modes)
        assert bath.frequencies[-1] == sd.cutoff
        w = bath.frequencies
        dw = sd.cutoff / n_modes
        assert np.array_equal(bath.couplings, np.sqrt(2.0 * w * j_omega(sd, w) * dw))


def test_thermal_covariance_occupancies():
    sd = SpectralDensity.ohmic(0.1, 20.0)
    cold = thermal_bath_covariance(discretize(sd, 4, 0.0))
    d = np.diag(cold.matrix)
    w = discretize(sd, 4).frequencies
    assert np.allclose(d[0::2], 1.0 / (2.0 * w))
    assert np.allclose(d[1::2], w / 2.0)
    hot = thermal_bath_covariance(discretize(sd, 4, 50.0))
    # equipartition: q-variance -> T / w^2 at high temperature
    assert np.allclose(np.diag(hot.matrix)[0::2], 50.0 / w**2, rtol=5e-2)


def test_discrete_bath_validation():
    with pytest.raises(ValueError):
        DiscreteBath(np.array([1.0, 0.5]), np.ones(2), np.ones(2), 0.0)
    with pytest.raises(ValueError):
        DiscreteBath(np.array([1.0, 2.0]), np.ones(2), np.ones(2), -1.0)
    with pytest.raises(ValueError):
        discretize(SpectralDensity.ohmic(0.1, 20.0), 0)


def test_modes_for_window():
    # N modes give t_rec = 2 pi N / cutoff; require t_max <= 0.8 t_rec
    n = modes_for_window(20.0, 150.0)
    assert 2.0 * math.pi * n / 20.0 * 0.8 >= 150.0
    assert 2.0 * math.pi * (n - 1) / 20.0 * 0.8 < 150.0
    assert modes_for_window(20.0, 1e-3) == 1


@pytest.mark.parametrize("cutoff", [20.0, 7.0, 13.3, 50.0])
def test_window_sized_bath_passes_the_recurrence_guard(cutoff):
    # windows t_max = k 2 pi margin / cutoff sit on the sizing's boundary,
    # where its estimate and the guard round differently
    sd = SpectralDensity.ohmic(0.1, cutoff)
    for k in range(1, 3000):
        t_max = k * 2.0 * math.pi * RECURRENCE_MARGIN / cutoff
        n = modes_for_window(cutoff, t_max)
        check_recurrence(t_max, discretize(sd, n).recurrence_time)
        if n > 1:
            with pytest.raises(RecurrenceWindowError):
                check_recurrence(t_max, discretize(sd, n - 1).recurrence_time)
