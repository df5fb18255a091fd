"""Closed-form layer: Ei, RC transport, survival probabilities.

The exponential-integral oracle is mpmath's arbitrary-precision ``ei``;
transport and hazard results are cross-checked against direct ODE
integration and quadrature so none of the closed forms is compared
against itself.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq
from scipy.special import expi

from memstoch import (ConstantDriveParams, Density1D, MemristorModel,
                      Waveform, expint_ei, mean_switching_time,
                      no_switch_density, p0_asymptotic, p0_constant_voltage,
                      parse_netlist, rc_charge_wave, series_mc,
                      unidirectional_densities)
from memstoch.analytic import (RegimeError, _gauss, accumulated_hazard,
                               hazard_integral, initial_hazard, p1_constant_voltage,
                               switching_rate_at)
from memstoch.circuit import DeviceCharge

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

def rc_charge(params: ConstantDriveParams, R: float, t: float) -> float:
    """The tests' independent reference: the capacitor charge under constant
    drive through resistance R, q0 e^{-t/(CR)} + Va C (1 - e^{-t/(CR)})."""
    e = math.exp(-t / (params.C * R))
    return params.q0 * e + params.Va * params.C * (1.0 - e)


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


# one of each source kind; the step and the PWL have breakpoints inside
# [0, 6 ms], where the characteristics run
WAVES = {"constant": Waveform.constant(0.35),
         "step": Waveform.step(0.3, 2e-3, value_before=0.1),
         "sine": Waveform.sine(0.1, 0.3, 250.0),
         "pwl": Waveform.pwl([(0.0, 0.0), (1e-3, 0.3), (3e-3, 0.3), (4e-3, -0.1), (6e-3, 0.2)])}


def _mp_characteristic(w, C, R, q, t, s):
    """Charge at s on the RC characteristic through (q, t), by mpmath
    quadrature of the convolution e^{-(s - t)/(CR)} q + int_t^s
    e^{-(s - u)/(CR)} V(u)/R du, split at the source's breakpoints."""
    tc, lo, hi = mpmath.mpf(C) * R, min(t, s), max(t, s)
    cuts = [lo] + [b for b in w.breakpoint_times() if lo < b < hi] + [hi]
    conv = mpmath.quad(lambda u: mpmath.exp(-(s - u) / tc) * float(w(float(u))) / R, cuts)
    return mpmath.exp(-(s - t) / tc) * q + (conv if s >= t else -conv)


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("kind", list(WAVES))
def test_rc_characteristic_against_mpmath(kind, direction):
    # one characteristic, from 0 on and back from 6 ms, across every
    # breakpoint.  Backward, the transient grows as e^{(t - s)/(CR)}: with
    # CR = 2 ms it stays within e^3, where its round-off meets the tolerance
    C, R, w = 1e-6, 2e3, WAVES[kind]
    tol = 1e-13 * C * 0.35
    with mpmath.workdps(30):
        for s in (0.5e-3, 2e-3, 3.5e-3, 6e-3):
            if direction == "forward":
                got = rc_charge_wave(2e-8, C, R, w, s)
                ref = _mp_characteristic(w, C, R, 2e-8, 0.0, s)
            else:
                rc = DeviceCharge.of(series_mc(MemristorModel.binary(R, R, 1.0, 1.0), C, w))
                got = float(rc.charge(0, 1e-7, 6e-3, 6e-3 - s))
                ref = _mp_characteristic(w, C, R, 1e-7, 6e-3, 6e-3 - s)
            assert abs(got - float(ref)) <= tol, (s, got, float(ref))


def test_rc_charge_rejects_negative_time(params):
    with pytest.raises(ValueError):
        rc_charge_wave(params.q0, params.C, params.R0, Waveform.constant(params.Va), -1.0)


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
    assert hazard_integral(alpha, beta, d0, d1)[0] == pytest.approx(float(ref), rel=1e-12)


# ------------------------------------- survival of a netlist's initial state

SHUNTED = """
V1 in 0 DC 0.4
M1 in n1 STATES=2 R=100k,10k TAUUP=10 VUP=0.03 TAUDOWN=10 VDOWN=0.03 STATE=0
C1 n1 0 100n IC=35n
R2 n1 0 100k
"""
SIGN_CHANGE = """
V1 in 0 DC 0.4
M1 in n1 STATES=3 R=100k,30k,10k TAUUP=10,10 VUP=0.03,0.03 TAUDOWN=10,10 VDOWN=0.03,0.03 STATE=1
C1 n1 0 100n IC=70n
R2 n1 0 30k
"""
CUT_OFF = """
V1 in 0 DC 0.3
M1 in 0 STATES=2 R=100k,10k TAUUP=10 VUP=0.03 TAUDOWN=10 VDOWN=0.03 STATE=0
C1 n1 0 100n
R2 n1 0 100k
"""


def _relax(vm0, vm_inf, tau):
    """vm = vm_inf + (vm0 - vm_inf) e^{-t / tau}, as an mpmath function."""
    return lambda t: vm_inf + (vm0 - vm_inf) * mpmath.exp(-t / tau)


def _figure2_step(t, t_on=5e-3, tau=0.1):
    # 0.1 V, then 0.35 V from t_on: vm relaxes from 0.1 V, then from
    # 0.35 V less the capacitor's voltage at t_on
    if t < t_on:
        return 0.1 * mpmath.exp(-t / tau)
    return (0.35 - 0.1 * (1 - mpmath.exp(-t_on / tau))) * mpmath.exp(-(t - t_on) / tau)


# netlist, vm(t) of the initial state derived by hand, its (V, tau) up and
# down laws (None: absent), the rate ceiling, times and source breakpoints
SURVIVAL_CASES = {
    # C (100k || 100k) = 5 ms, 0.4 V - 35 nC / 100 nF up to 0.4 V / 2
    "shunted": (SHUNTED, _relax(0.05, 0.2, 5e-3), ((0.03, 10.0), None), math.inf,
                (1e-3, 5e-3, 0.02), ()),
    # C (30k || 30k) = 1.5 ms; vm crosses zero at 1.5 ms ln 2.5
    "sign_change": (SIGN_CHANGE, _relax(-0.3, 0.2, 1.5e-3), ((0.03, 10.0), (0.03, 10.0)),
                    math.inf, (1e-3, 1.5e-3 * math.log(2.5), 5e-3), ()),
    "cut_off": (CUT_OFF, lambda t: mpmath.mpf(0.3), ((0.03, 10.0), None), math.inf,
                (0.01, 0.05), ()),
    # e^{17.5} / 3e5 = 132 /s at first, capped at 100 /s until 2.7 ms
    "decaying_ceiling": ("figure2", _relax(0.35, 0.0, 0.1), ((0.02, 3e5), None), 100.0,
                         (1e-3, 0.01, 0.05), ()),
    # the rate rises through 10 /s at 0.03 ln 100 = 0.138 V
    "rising_ceiling": (SHUNTED, _relax(0.05, 0.2, 5e-3), ((0.03, 10.0), None), 10.0,
                       (1e-3, 5e-3, 0.02), ()),
    "step": ("step", _figure2_step, ((0.02, 3e5), None), math.inf, (2e-3, 5e-3, 0.03), (5e-3,)),
    # state 1 of 3: the up law of 1 -> 2 and the down law of 1 -> 0 differ,
    # and a ceiling of 30 /s binds on both sides of the sign change
    "g3_unequal_laws": (SIGN_CHANGE.replace("TAUUP=10,10 VUP=0.03,0.03", "TAUUP=10,5 VUP=0.03,0.02")
                        .replace("TAUDOWN=10,10 VDOWN=0.03,0.03", "TAUDOWN=8,12 VDOWN=0.04,0.025"),
                        _relax(-0.3, 0.2, 1.5e-3), ((0.02, 5.0), (0.04, 8.0)), 30.0,
                        (5e-4, 2e-3, 5e-3), ()),
}


def _survival_netlist(text, ceiling):
    if text == "figure2":
        model = MemristorModel.binary(1e5, 1e4, 3e5, 0.02, rate_ceiling=ceiling)
        return series_mc(model, 1e-6, Waveform.constant(0.35))
    if text == "step":
        model = MemristorModel.binary(1e5, 1e4, 3e5, 0.02, rate_ceiling=ceiling)
        return series_mc(model, 1e-6, Waveform.step(0.35, 5e-3, value_before=0.1))
    net = parse_netlist(text)
    (mem,) = net.memristors
    model = dataclasses.replace(mem.model, rate_ceiling=ceiling)
    return dataclasses.replace(net, memristors=(dataclasses.replace(mem, model=model),))


def _mp_hazard(vm, laws, cap, t, cuts):
    """mpmath quadrature of the rate min(e^{|vm| / V} / tau, cap) over
    [0, t], with (V, tau) the up law where vm > 0 and the down law where
    vm < 0, split where vm or the capped exponent crosses over (found on a
    grid and refined by bisection) and at the cuts."""
    def law(x):
        return laws[0] if x > 0 else laws[1] if x < 0 else None

    def rate(u):
        x, lw = vm(u), law(vm(u))
        return 0 if lw is None else min(mpmath.exp(abs(x) / lw[0]) / lw[1], cap)

    def over(u):
        x, lw = vm(u), law(vm(u))
        return -1 if lw is None else mpmath.sign(abs(x) / lw[0] - mpmath.log(cap * lw[1]))

    grid = [mpmath.mpf(t) * k / 400 for k in range(401)]
    knots = {mpmath.mpf(c) for c in cuts if 0 < c < t}
    for g in (lambda u: mpmath.sign(vm(u)), over):
        for a, b in zip(grid, grid[1:]):
            if g(a) != g(b):
                for _ in range(100):
                    a, b = (a, (a + b) / 2) if g((a + b) / 2) != g(a) else ((a + b) / 2, b)
                knots.add((a + b) / 2)
    return mpmath.quad(rate, [0, *sorted(knots), mpmath.mpf(t)])


@pytest.mark.parametrize("case", list(SURVIVAL_CASES))
def test_initial_hazard_against_mpmath(case):
    text, vm, laws, cap, times, cuts = SURVIVAL_CASES[case]
    net = _survival_netlist(text, cap)
    got = initial_hazard(net, np.array(times))
    with mpmath.workdps(30):
        ref = [float(_mp_hazard(vm, laws, cap, t, cuts)) for t in times]
    assert got == pytest.approx(ref, rel=1e-10)
    assert np.array_equal(initial_hazard(net, 0.0), 0.0)


def test_initial_hazard_broadcasts_over_times_and_charges():
    # the shunted circuit from 0 (vm falls from 0.4 V), its fixed point
    # (20 nC: vm stays at 0.2 V) and its IC (35 nC: vm rises from 0.05 V)
    net = parse_netlist(SHUNTED)
    times, charges = np.array([1e-3, 4e-3, 0.02]), np.array([0.0, 2e-8, 3.5e-8])
    got = initial_hazard(net, times[:, None], charges)
    assert got.shape == (3, 3)
    with mpmath.workdps(30):
        for j, q0 in enumerate(charges):
            vm = _relax(0.4 - q0 / 1e-7, 0.2, 5e-3)
            ref = [float(_mp_hazard(vm, ((0.03, 10.0), None), math.inf, t, ())) for t in times]
            assert got[:, j] == pytest.approx(ref, rel=1e-10)
    assert np.array_equal(got[:, 2], initial_hazard(net, times))


def test_initial_hazard_refuses_sloped_sources():
    model = MemristorModel.binary(1e5, 1e4, 3e5, 0.02)
    for wave in (Waveform.sine(0.35, 0.05, 50.0), Waveform.pwl([(0.0, 0.0), (1e-3, 0.35)])):
        with pytest.raises(RegimeError, match=f"V1 is a {wave.kind} source"):
            initial_hazard(series_mc(model, 1e-6, wave), 0.01)
    # a PWL of flat segments is piecewise constant
    flat = series_mc(model, 1e-6, Waveform.pwl([(0.0, 0.35), (1.0, 0.35)]))
    const = series_mc(model, 1e-6, Waveform.constant(0.35))
    assert initial_hazard(flat, 0.01) == pytest.approx(initial_hazard(const, 0.01), rel=1e-15)


def test_gauss_panels_raise_rather_than_return_an_unconverged_value():
    # 1.6e6 periods on [0, 1]: no panel count up to the cap resolves them
    assert _gauss(lambda x: np.exp(-x), 0.0, 1.0, 1e-13)[()] == pytest.approx(-math.expm1(-1.0),
                                                                              rel=1e-14)
    with pytest.raises(RuntimeError, match="panels"):
        _gauss(lambda x: np.sin(1e7 * x), 0.0, 1.0, 1e-8)


def test_rate_decays_to_floor(params):
    # V_M -> 0 along the unswitched trajectory, so the rate -> 1/tau0
    assert switching_rate_at(params, 0.0) == pytest.approx(
        math.exp(params.x_drive) / params.tau0, rel=1e-12)
    assert switching_rate_at(params, 50.0) == pytest.approx(
        1.0 / params.tau0, rel=1e-6)


def test_p0_regime_checks():
    # q0/C = 0.2 > Va: vm < 0 relaxes to 0 from below, and state 0 has no
    # down law, so the binary device cannot leave it
    reversed_ = ConstantDriveParams(C=1e-6, R0=1e5, R1=1e4, tau0=3e5, V0=0.02,
                                    Va=0.1, q0=2e-7)
    assert p0_constant_voltage(reversed_, 0.1) == 1.0
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


def test_unidirectional_regime_follows_the_charge():
    # the voltage drops at 2.5 ms below the charge that the faster state
    # reached while it was high: vm = -0.157 V there on the unswitched path,
    # although q0 = 0 lies below C V(s) throughout
    model = MemristorModel.binary(1e3, 500.0, 3e5, 0.02)
    w = Waveform.pwl([(0.0, 0.05), (1e-3, 0.3), (2e-3, 0.3), (2.5e-3, 0.05), (6e-3, 0.05)])
    with pytest.raises(RegimeError):
        unidirectional_densities(Density1D.delta(0.0), Density1D.zero(), model, 1e-6, w, 5e-3)


def _smooth_source_reference(params, width, t, q):
    """Switched density at (q, t) of a uniform state-0 density on [0, width]
    under constant drive, by scipy quad over the switch times ts where the
    state-0 characteristic through the state-1 path's point starts inside
    [0, width]; the hazard in closed form with scipy's Ei."""
    C, cv = params.C, params.C * params.Va
    tc0, tc1 = C * params.R0, C * params.R1

    def q1(ts):      # state-1 characteristic through (q, t), back at ts
        return cv + (q - cv) * math.exp((t - ts) / tc1)

    def start(ts):   # where the state-0 characteristic through (q1(ts), ts) starts
        return cv + (q1(ts) - cv) * math.exp(ts / tc0)

    def integrand(ts):
        x0 = (params.Va - start(ts) / C) / params.V0
        hazard = tc0 / params.tau0 * (expi(x0) - expi(x0 * math.exp(-ts / tc0)))
        p0 = math.exp(ts / tc0) / width * math.exp(-hazard)
        rate = math.exp((params.Va - q1(ts) / C) / params.V0) / params.tau0
        return rate * math.exp((t - ts) / tc1) * p0

    def crossing(edge):   # start() rises with ts, since R1 < R0
        if start(0.0) >= edge:
            return 0.0
        if start(t) <= edge:
            return t
        return brentq(lambda ts: start(ts) - edge, 0.0, t, xtol=1e-18, rtol=1e-15)

    lo, hi = crossing(0.0), crossing(width)
    return quad(integrand, lo, hi, epsrel=1e-12, epsabs=0.0, limit=200)[0] if hi > lo else 0.0


@pytest.mark.parametrize("k", [3, 4, 5, 6, 8])
def test_unidirectional_smooth_source_near_the_support_edge(params, model, k):
    # grid points of the mass test above near p1's lower support edge: at
    # k = 5 the switch-time integrand is non-zero only on [7.985, 8] ms
    w = Waveform.constant(params.Va)
    width, t = 0.05 * params.C * params.Va, 0.008
    _, p1 = unidirectional_densities(Density1D.uniform(0.0, width), Density1D.zero(), model,
                                     params.C, w, t, rtol=1e-10)
    q = k / 64 * params.C * params.Va
    ref = _smooth_source_reference(params, width, t, q)
    assert p1(q) == pytest.approx(ref, rel=1e-8)
    if k == 5:
        assert ref == pytest.approx(17899.07, rel=1e-6)


# in-regime drives that are not constant: the faster state-1 path from 0
# stays below C V throughout [0, 10 ms]
DRIVES = {"rising_pwl": Waveform.pwl([(0.0, 0.2), (3e-3, 0.3), (6e-3, 0.36), (20e-3, 0.4)]),
          "sine": Waveform.sine(0.3, 0.05, 120.0)}


@pytest.mark.parametrize("drive", list(DRIVES))
def test_unidirectional_delta_under_time_varying_drive(params, model, drive):
    # survival weight and total mass of a delta at 0 against the ODE path
    # (solve_ivp) and scipy quad of the rate along it
    w, C, t = DRIVES[drive], params.C, 0.01

    def path(r):
        return solve_ivp(lambda s, q: (w(s) - q[0] / C) / r, (0.0, t), [0.0], method="DOP853",
                         rtol=1e-13, atol=1e-22, dense_output=True).sol

    q0_path = path(params.R0)
    cuts = [b for b in w.breakpoint_times() if 0.0 < b < t] or None
    hazard = quad(lambda s: math.exp((w(s) - q0_path(s)[0] / C) / params.V0) / params.tau0,
                  0.0, t, points=cuts, epsrel=1e-12, epsabs=0.0, limit=200)[0]
    p0, p1 = unidirectional_densities(Density1D.delta(0.0), Density1D.zero(), model, C, w, t,
                                      rtol=1e-11)
    (qd, weight), = p0.deltas
    assert qd == pytest.approx(float(q0_path(t)[0]), rel=1e-10)
    assert weight == pytest.approx(math.exp(-hazard), rel=1e-8)
    # the switched mass lies between the paths that switch at t and at 0
    lo, hi = float(q0_path(t)[0]), float(path(params.R1)(t)[0])
    switched = quad(p1, lo, hi, epsrel=1e-11, epsabs=0.0, limit=200)[0]
    assert weight + switched == pytest.approx(1.0, rel=1e-8)
    assert switched == pytest.approx(-math.expm1(-hazard), rel=1e-8)


@pytest.mark.parametrize("drive", ["constant", *DRIVES])
def test_unidirectional_p1_support_is_the_bounding_paths_span(params, model, drive):
    # from the lowest start through max(R0, R1) to the top start through
    # min(R0, R1): over the former support [0, C max V], the Figure-2 delta
    # at 10 ms took 2205 density calls in Density1D.mass, 21 over this span
    w, t = DRIVES.get(drive, Waveform.constant(params.Va)), 0.01
    p0, p1 = unidirectional_densities(Density1D.delta(0.0), Density1D.zero(), model, params.C,
                                      w, t)
    lo, hi = (rc_charge_wave(0.0, params.C, r, w, t) for r in (params.R0, params.R1))
    assert p1.support == (pytest.approx(lo, rel=1e-12), pytest.approx(hi, rel=1e-12))
    assert p0.deltas[0][1] + p1.mass() == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("ceiling", [50.0, 1e-6, math.inf])
def test_unidirectional_constant_drive_agrees_with_flat_pwl(params, ceiling):
    # the closed form under constant drive against the panels of the same
    # drive written as a flat PWL, with the rate's cap binding at first (50),
    # throughout (below the floor rate 1/tau0) or never
    m = MemristorModel.binary(params.R0, params.R1, params.tau0, params.V0, rate_ceiling=ceiling)
    out = [unidirectional_densities(Density1D.delta(0.0), Density1D.zero(), m, params.C, w, 0.01)
           for w in (Waveform.constant(params.Va), Waveform.pwl([(0.0, params.Va), (1.0, params.Va)]))]
    (_, closed), (_, panels) = (p0.deltas[0] for p0, _ in out)
    assert closed == pytest.approx(panels, rel=1e-8)
    assert out[0][1](1e-7) == pytest.approx(out[1][1](1e-7), rel=1e-8)


def test_unidirectional_flat_pwl_meets_a_tight_rtol_where_the_rate_meets_its_cap():
    # the rate leaves its 50 /s cap inside the flat PWL's first piece; the
    # hazard runs through the closed form piece by piece, where panels of
    # the kinked rate did not converge to rtol 1e-10 by 512 panels
    m = MemristorModel.binary(1e5, 1e4, 3e5, 0.02, rate_ceiling=50)
    out = [unidirectional_densities(Density1D.delta(0.0), Density1D.zero(), m, 1e-6, w, 0.01,
                                    rtol=1e-10)
           for w in (Waveform.constant(0.35), Waveform.pwl([(0.0, 0.35), (1.0, 0.35)]))]
    (_, closed), (_, pieces) = (p0.deltas[0] for p0, _ in out)
    assert pieces == pytest.approx(closed, rel=1e-10)
    for q in (1e-7, 2e-7):
        assert out[1][1](q) == pytest.approx(out[0][1](q), rel=1e-10)


@pytest.mark.parametrize("wave", [Waveform.pwl([(0.0, 0.35), (1.0, 0.36)]),
                                  Waveform.sine(0.35, 0.05, 200.0)], ids=["pwl", "sine"])
def test_unidirectional_hazard_is_cut_where_the_rate_meets_its_cap(wave):
    # the 50 /s cap binds at first under the rising ramp and on every crest
    # of the sine; uncut at its kinks, the panels do not converge to rtol
    # 1e-10 by 512.  Reference: scipy quad of the rate along the solve_ivp
    # path, split where bisection puts the kinks
    R0, C, V0, tau0, ceiling, t = 1e5, 1e-6, 0.02, 3e5, 50.0, 0.01
    m = MemristorModel.binary(R0, 1e4, tau0, V0, rate_ceiling=ceiling)
    path = solve_ivp(lambda s, q: (wave(s) - q[0] / C) / R0, (0.0, t), [0.0], method="DOP853",
                     rtol=1e-13, atol=1e-22, dense_output=True).sol

    def over(s):    # the exponent less its cap: the kinks are its zeros
        return (wave(s) - path(s)[0] / C) / V0 - math.log(ceiling * tau0)

    def bisect(a, b):
        for _ in range(60):
            mid = 0.5 * (a + b)
            if (over(mid) > 0) == (over(a) > 0):
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    s = np.linspace(0.0, t, 401)
    kinks = [bisect(a, b) for a, b in zip(s, s[1:]) if (over(a) > 0) != (over(b) > 0)]
    assert len(kinks) == {"pwl": 1, "sine": 3}[wave.kind]
    edges = [0.0, *kinks, t]
    hazard = sum(quad(lambda u: min(math.exp(over(u)), 1.0) * ceiling, a, b, epsrel=1e-12,
                      epsabs=0.0, limit=200)[0] for a, b in zip(edges, edges[1:]))
    p0, _ = unidirectional_densities(Density1D.delta(0.0), Density1D.zero(), m, C, wave, t,
                                     rtol=1e-10)
    (_, weight), = p0.deltas
    assert -math.log(weight) == pytest.approx(hazard, rel=1e-9)


W_SINE = 2.0 * math.pi * 200.0
# the cap-test sources: the waveform, v(s) and the forced charge per farad
# of an RC circuit of time constant tc, by hand
CAP_SOURCES = {
    "pwl": (Waveform.pwl([(0.0, 0.35), (1.0, 0.36)]), lambda s: 0.35 + 0.01 * s,
            lambda s, tc: 0.35 + 0.01 * (s - tc), (1.5e-7, 1.9e-7)),
    "sine": (Waveform.sine(0.35, 0.05, 200.0), lambda s: 0.35 + 0.05 * math.sin(W_SINE * s),
             lambda s, tc: 0.35 + 0.05 * (math.sin(W_SINE * s) - W_SINE * tc
                                          * math.cos(W_SINE * s)) / (1.0 + (W_SINE * tc) ** 2),
             (1e-7, 1.5e-7, 1.9e-7)),
}


@pytest.mark.parametrize("kind", list(CAP_SOURCES))
def test_unidirectional_switched_density_is_cut_where_the_rate_meets_its_cap(kind):
    # a uniform state-0 density switches where the rate along the state-1
    # characteristic through (q, t) leaves its 50 /s cap; uncut there, the
    # panels did not converge to rtol 1e-10 by 512.  Reference: scipy quad
    # over the switch times on the hand-written RC paths, the hazard and the
    # switch-time integral each split where brentq brackets the kinks
    wave, v, forced, charges = CAP_SOURCES[kind]
    R0, R1, C, V0, tau0, ceiling, t, width = 1e5, 1e4, 1e-6, 0.02, 3e5, 50.0, 0.01, 2e-8
    tc0, tc1, top = C * R0, C * R1, math.log(ceiling * tau0)

    def path(tc, q_at, t_at, s):    # the RC characteristic through (q_at, t_at), at s
        return C * forced(s, tc) + (q_at - C * forced(t_at, tc)) * math.exp((t_at - s) / tc)

    def over(s, q):     # the up exponent less its cap: the kinks are its zeros
        return (v(s) - q / C) / V0 - top

    def rate(s, q):
        return min(math.exp(over(s, q)), 1.0) * ceiling

    def kinks(g, a, b, n):
        s = np.linspace(a, b, n + 1)
        return [brentq(g, lo, hi, xtol=1e-20, rtol=1e-15)
                for lo, hi in zip(s, s[1:]) if (g(lo) > 0.0) != (g(hi) > 0.0)]

    def reference(q):
        def start(ts):      # the state-0 characteristic through (Q1(ts), ts), at 0
            return path(tc0, path(tc1, q, t, ts), ts, 0.0)

        def integrand(ts):
            x = start(ts)
            bends = kinks(lambda u: over(u, path(tc0, x, 0.0, u)), 0.0, ts, 24)
            hazard = quad(lambda u: rate(u, path(tc0, x, 0.0, u)), 0.0, ts, points=bends or None,
                          epsrel=1e-13, epsabs=0.0, limit=400)[0]
            return (rate(ts, path(tc1, q, t, ts)) * math.exp((t - ts) / tc1 + ts / tc0) / width
                    * math.exp(-hazard))

        def crossing(edge):     # start rises with ts, since R1 < R0
            if start(0.0) >= edge or start(t) <= edge:
                return 0.0 if start(0.0) >= edge else t
            return brentq(lambda ts: start(ts) - edge, 0.0, t, xtol=1e-20, rtol=1e-15)

        lo, hi = crossing(0.0), crossing(width)
        cuts = kinks(lambda s: over(s, path(tc1, q, t, s)), lo, hi, 64)
        assert len(cuts) == 1
        edges = [lo, *cuts, hi]
        return sum(quad(integrand, a, b, epsrel=1e-12, epsabs=0.0, limit=200)[0]
                   for a, b in zip(edges, edges[1:]))

    m = MemristorModel.binary(R0, R1, tau0, V0, rate_ceiling=ceiling)
    _, p1 = unidirectional_densities(Density1D.uniform(0.0, width), Density1D.zero(), m, C, wave,
                                     t, rtol=1e-10)
    for q in charges:
        assert p1(q) == pytest.approx(reference(q), rel=1e-9)
