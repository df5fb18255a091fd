"""Closed-form layer: Ei, RC transport, survival probabilities.

The exponential-integral oracle is mpmath's arbitrary-precision ``ei``;
transport and hazard results are cross-checked against direct ODE
integration and quadrature so none of the closed forms is compared
against itself.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, solve_ivp

from memstoch import (ConstantDriveParams, Density1D, MemristorModel,
                      Waveform, expint_ei, mean_switching_time,
                      no_switch_density, p0_asymptotic, p0_constant_voltage,
                      rc_charge, rc_charge_wave, unidirectional_densities)
from memstoch.analytic import (RegimeError, accumulated_hazard, hazard_integral,
                               p1_constant_voltage, switching_rate_at)

mpmath.mp.dps = 40


@pytest.fixture
def params():
    return ConstantDriveParams.figure2()


# ----------------------------------------------------------------- Ei

EI_POINTS = [-0.1, 0.1, -1.0, 1.0, 5.0, 17.5, 40.0, 100.0]


@pytest.mark.parametrize("x", EI_POINTS)
def test_ei_against_mpmath(x):
    assert expint_ei(x) == pytest.approx(float(mpmath.ei(x)), rel=1e-12)


@pytest.mark.parametrize("x", [-700.0, -30.0, -6.5, -5.9, 1e-6, -1e-6,
                               39.9, 40.1, 600.0])
def test_ei_branch_seams_and_extremes(x):
    assert expint_ei(x) == pytest.approx(float(mpmath.ei(x)), rel=1e-12)


@given(st.floats(min_value=-300.0, max_value=300.0)
       .filter(lambda x: abs(x) > 1e-8))
@settings(max_examples=60, deadline=None)
def test_ei_everywhere(x):
    assert expint_ei(x) == pytest.approx(float(mpmath.ei(x)), rel=5e-12)


def test_ei_singular_at_zero():
    with pytest.raises(ValueError):
        expint_ei(0.0)


@pytest.mark.parametrize("x", EI_POINTS)
def test_ei_derivative(x):
    h = 1e-6 * max(abs(x), 1.0)
    fd = (expint_ei(x + h) - expint_ei(x - h)) / (2 * h)
    assert fd == pytest.approx(math.exp(x) / x, rel=1e-6)


# ----------------------------------------------------------------- RC charge

def test_rc_charge_against_ode(params):
    def rhs(t, q):
        return (params.Va - q[0] / params.C) / params.R0

    sol = solve_ivp(rhs, (0.0, 0.25), [params.q0], rtol=1e-12, atol=1e-18,
                    dense_output=True)
    for t in (0.0, 0.01, 0.1, 0.25):
        assert rc_charge(params, params.R0, t) == pytest.approx(
            float(sol.sol(t)[0]), rel=1e-9, abs=1e-16)


def test_rc_charge_wave_constant_agrees(params):
    w = Waveform.constant(params.Va)
    for t in (0.0, 0.03, 0.2):
        assert rc_charge_wave(params.q0, params.C, params.R0, w, t) == \
            pytest.approx(rc_charge(params, params.R0, t), rel=1e-12, abs=1e-20)


def test_rc_charge_wave_sine_against_ode():
    C, R = 1e-6, 1e4
    w = Waveform.sine(0.1, 0.3, 50.0)

    def rhs(t, q):
        return (w(t) - q[0] / C) / R

    sol = solve_ivp(rhs, (0.0, 0.05), [2e-8], rtol=1e-11, atol=1e-18,
                    dense_output=True)
    for t in (0.005, 0.02, 0.05):
        assert rc_charge_wave(2e-8, C, R, w, t) == pytest.approx(
            float(sol.sol(t)[0]), rel=1e-7, abs=1e-15)


def test_rc_charge_rejects_negative_time(params):
    with pytest.raises(ValueError):
        rc_charge(params, params.R0, -1.0)


# ------------------------------------------------------------- densities

def test_density_uniform_basics():
    d = Density1D.uniform(1.0, 3.0)
    assert d(2.0) == pytest.approx(0.5)
    assert d(0.5) == 0.0 and d(3.5) == 0.0
    assert d.mass() == pytest.approx(1.0, rel=1e-9)
    assert d.max_support() == 3.0
    assert Density1D.delta(2.0, 0.25).mass() == 0.25
    assert Density1D.zero().max_support() == -math.inf


def test_no_switch_density_mass_and_contraction(params):
    w = Waveform.constant(params.Va)
    f = Density1D.uniform(0.0, 0.2 * params.C * params.Va)
    t = params.C * params.R0
    moved = no_switch_density(f, params.R0, params.C, w, t)
    assert moved.mass() == pytest.approx(1.0, rel=1e-8)
    width0 = f.support[1] - f.support[0]
    width = moved.support[1] - moved.support[0]
    assert width == pytest.approx(width0 / math.e, rel=1e-12)


def test_no_switch_density_delta_follows_rc(params):
    w = Waveform.constant(params.Va)
    for t in (0.01, 0.1):
        moved = no_switch_density(Density1D.delta(params.q0), params.R0,
                                  params.C, w, t)
        (q, wgt), = moved.deltas
        assert wgt == 1.0
        assert q == pytest.approx(rc_charge(params, params.R0, t), rel=1e-12)


def test_no_switch_density_pointwise_characteristics():
    # compare against integrating each characteristic ODE backwards
    C, R = 1e-6, 5e4
    w = Waveform.pwl([(0.0, 0.0), (0.01, 0.3), (0.05, 0.3)])
    f = Density1D.uniform(1e-8, 6e-8)
    t = 0.02
    moved = no_switch_density(f, R, C, w, t)

    def backward(q):
        sol = solve_ivp(lambda tt, y: (w(tt) - y[0] / C) / R, (t, 0.0), [q],
                        rtol=1e-11, atol=1e-20)
        return float(sol.y[0, -1])

    for q in np.linspace(moved.support[0], moved.support[1], 7)[1:-1]:
        expected = math.exp(t / (C * R)) * f(backward(float(q)))
        assert moved(float(q)) == pytest.approx(expected, rel=1e-6)


# ------------------------------------------------ constant-drive survival

def test_p0_limits_and_monotonicity(params):
    assert p0_constant_voltage(params, 0.0) == 1.0
    ts = np.linspace(0.0, 1.0, 50)
    vals = [p0_constant_voltage(params, float(t)) for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert p1_constant_voltage(params, 0.4) == pytest.approx(
        1.0 - p0_constant_voltage(params, 0.4), abs=1e-15)


def test_hazard_matches_rate_quadrature(params):
    # independent oracle: integrate the instantaneous rate numerically
    for t in (0.005, 0.05, 1.0):
        direct, _ = quad(lambda s: switching_rate_at(params, s), 0.0, t,
                         epsrel=1e-11, limit=300,
                         points=[x for x in (0.005, 0.05, 0.1) if x < t] or None)
        assert accumulated_hazard(params, t) == pytest.approx(direct, rel=1e-8)


def test_hazard_finite_where_survival_underflows(params):
    # at 0.5 V the survival probability is exp(-899) by 10 ms
    strong = ConstantDriveParams(C=params.C, R0=params.R0, R1=params.R1,
                                 tau0=params.tau0, V0=params.V0, Va=0.5)
    tc = mpmath.mpf(strong.C) * mpmath.mpf(strong.R0)
    x = mpmath.mpf(strong.Va) / mpmath.mpf(strong.V0)
    ref = tc / mpmath.mpf(strong.tau0) * (mpmath.ei(x) - mpmath.ei(x * mpmath.exp(-0.01 / tc)))
    h = accumulated_hazard(strong, 0.01)
    assert math.isfinite(h)
    assert h == pytest.approx(float(ref), rel=1e-12)
    assert p0_constant_voltage(strong, 0.01) == 0.0


@pytest.mark.parametrize("alpha, beta, d0, d1", [
    (0.0, 17.5, 0.0, 10.0),         # Figure-2 segment, into the rate's floor
    (0.0, 45.0, 0.0, 1e-13),        # strong drive, quadrature branch
    (0.0, 17.5, 0.0, 0.06 / 17.5),  # just past the quadrature switch
    (0.0, 17.5, 0.3, 2000.0),       # x underflows to 0 at the end
    (2.0, -20.0, 0.0, 5.0),         # rising rate
    (-3.0, 0.4, 1.0, 4.0),          # |x| < 1 throughout
    (1.0, 0.0, 0.0, 3.0),           # constant rate
    (-650.0, 700.0, 0.0, 0.5),      # Ei(700) overflows on its own
])
def test_hazard_integral_against_mpmath(alpha, beta, d0, d1):
    with mpmath.workdps(40):
        ref = mpmath.quad(lambda u: mpmath.exp(alpha + beta * mpmath.exp(-u)),
                          [d0, d0 + (d1 - d0) / 2, d1] if d1 - d0 < 10 else
                          [d0, d0 + 1, d0 + 10, d1])
    got, scale, rate = hazard_integral(alpha, beta, d0, d1)
    assert got[0] == pytest.approx(float(ref), rel=1e-12)
    assert abs(got[0] - float(ref)) <= 8 * np.finfo(float).eps * scale[0]
    assert rate[0] == pytest.approx(math.exp(alpha + beta * math.exp(-d1)), rel=1e-13)


def test_rate_decays_to_floor(params):
    # V_M -> 0 along the unswitched trajectory, so the rate -> 1/tau0
    assert switching_rate_at(params, 0.0) == pytest.approx(
        math.exp(params.x_drive) / params.tau0, rel=1e-12)
    assert switching_rate_at(params, 50.0) == pytest.approx(
        1.0 / params.tau0, rel=1e-6)


def test_p0_regime_checks():
    bad = ConstantDriveParams(C=1e-6, R0=1e5, R1=1e4, tau0=3e5, V0=0.02,
                              Va=0.1, q0=2e-7)  # q0/C = 0.2 > Va
    with pytest.raises(RegimeError):
        p0_constant_voltage(bad, 0.1)
    with pytest.raises(ValueError):
        p0_constant_voltage(ConstantDriveParams.figure2(), -0.1)


def test_mean_switching_time_validation(params):
    with pytest.raises(ValueError):
        mean_switching_time(params, 0.0)


def test_mean_switching_time_short_horizon(params):
    # on a very short horizon the rate is nearly constant at its t=0
    # value, so <T1> approaches the truncated-exponential mean
    gamma0 = switching_rate_at(params, 0.0)
    t_star = 0.01 / gamma0
    got = mean_switching_time(params, t_star)
    lam = gamma0
    expected = 1.0 / lam - t_star * math.exp(-lam * t_star) / (-math.expm1(-lam * t_star))
    # the rate drifts ~1% over the horizon as the capacitor charges
    assert got == pytest.approx(expected, rel=5e-3)


def test_p0_asymptotic_regime():
    with pytest.raises(RegimeError):
        p0_asymptotic(ConstantDriveParams(C=1e-6, R0=1e5, R1=1e4, tau0=3e5,
                                          V0=0.5, Va=0.4))
    with pytest.warns(UserWarning):
        p0_asymptotic(ConstantDriveParams(C=1e-6, R0=1e5, R1=1e4, tau0=3e5,
                                          V0=0.1, Va=0.3))


# ------------------------------------------------------- coupled densities

@pytest.fixture
def model(params):
    return MemristorModel.binary(params.R0, params.R1, params.tau0, params.V0)


def test_unidirectional_rates_off_reduces_to_transport(params):
    off = MemristorModel.binary(params.R0, params.R1, 1e300, params.V0)
    w = Waveform.constant(params.Va)
    f = Density1D.uniform(0.0, 0.1 * params.C * params.Va)
    t = 0.02
    p0, p1 = unidirectional_densities(f, Density1D.zero(), off, params.C, w, t)
    ref = no_switch_density(f, params.R0, params.C, w, t)
    for q in np.linspace(ref.support[0], ref.support[1], 9)[1:-1]:
        assert p0(float(q)) == pytest.approx(ref(float(q)), rel=1e-9)
    assert p1.mass() == pytest.approx(0.0, abs=1e-12)


def test_unidirectional_delta_survival_weight(params, model):
    # the surviving delta weight must equal the closed-form p0(t)
    w = Waveform.constant(params.Va)
    t = 0.01
    p0, p1 = unidirectional_densities(Density1D.delta(params.q0),
                                      Density1D.zero(), model, params.C, w, t)
    (qd, wgt), = p0.deltas
    assert qd == pytest.approx(rc_charge(params, params.R0, t), rel=1e-12)
    assert wgt == pytest.approx(p0_constant_voltage(params, t), rel=1e-8)
    # switched mass is smooth (R0 != R1) and completes the total
    assert p1.deltas == ()
    assert wgt + p1.mass(rtol=1e-8) == pytest.approx(1.0, rel=1e-6)


def test_unidirectional_equal_resistances_keeps_delta(params):
    same = MemristorModel.binary(params.R0, params.R0, params.tau0, params.V0)
    w = Waveform.constant(params.Va)
    t = 0.01
    p0, p1 = unidirectional_densities(Density1D.delta(params.q0),
                                      Density1D.zero(), same, params.C, w, t)
    (q0d, w0), = p0.deltas
    (q1d, w1), = p1.deltas
    assert q1d == pytest.approx(q0d, rel=1e-12)  # shared trajectory
    assert w0 + w1 == pytest.approx(1.0, rel=1e-8)


def test_unidirectional_smooth_mass_conserved(params, model):
    w = Waveform.constant(params.Va)
    f = Density1D.uniform(0.0, 0.05 * params.C * params.Va)
    t = 0.008
    p0, p1 = unidirectional_densities(f, Density1D.zero(), model, params.C,
                                      w, t, rtol=1e-6)
    # p1 involves a nested switch-time quadrature per point; integrate
    # it on a fixed Simpson grid instead of adaptively
    from scipy.integrate import simpson
    qs = np.linspace(p1.support[0], p1.support[1], 65)
    mass1 = simpson([p1(float(q)) for q in qs], x=qs)
    total = p0.mass(rtol=1e-6) + mass1
    assert total == pytest.approx(1.0, rel=5e-3)


def test_unidirectional_regime_violation(params, model):
    w = Waveform.constant(params.Va)
    over = Density1D.delta(1.5 * params.C * params.Va)  # above C V already
    with pytest.raises(RegimeError):
        unidirectional_densities(over, Density1D.zero(), model, params.C,
                                 w, 0.01)
