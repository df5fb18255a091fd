"""Switching-rate model tests: sign gating, clamping, validation, and the
one rate kernel against the formulas it replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from memstoch import mc
from memstoch.device import MemristorModel, switching_rate


@pytest.fixture
def binary():
    return MemristorModel.binary(1e5, 1e4, 3e5, 0.02)


def _rate(model, column, v_m):
    """`switching_rate` on column `column` of the model's transition table
    (i: up out of state i; G + i: down out of state i)."""
    return float(switching_rate(v_m, *model.transitions[:, column], model.rate_ceiling))


def test_rate_up_value(binary):
    # exp(0.35 / 0.02) / 3e5, computed independently with mpmath
    import mpmath
    expected = float(mpmath.exp(mpmath.mpf("0.35") / mpmath.mpf("0.02")) / 3e5)
    got = _rate(binary, 0, 0.35)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(132.7492813252541, rel=1e-12)


def test_rates_zero_in_wrong_direction(binary):
    # zero at vm = 0, and for the absent transitions: up out of the top
    # state and down out of the bottom one
    assert _rate(binary, 0, 0.0) == 0.0
    assert _rate(binary, 3, 0.0) == 0.0
    assert _rate(binary, 1, 0.1) == 0.0
    assert _rate(binary, 2, -0.1) == 0.0
    assert np.array_equal(binary.rate_up_array(0, np.array([0.0, -0.1])), [0.0, 0.0])
    assert np.array_equal(binary.rate_down_array(1, np.array([0.0, 0.1])), [0.0, 0.0])


def test_rate_down_mirrors_rate_up(binary):
    # symmetric parameters: down-rate at -V equals up-rate at +V
    for v in (0.01, 0.1, 0.34):
        assert _rate(binary, 3, -v) == pytest.approx(_rate(binary, 0, v), rel=1e-15)


def test_total_exit_rate_boundary_states(binary):
    v = 0.2
    assert binary.total_exit_rate(0, v) == _rate(binary, 0, v)
    assert binary.total_exit_rate(0, -v) == 0.0
    assert binary.total_exit_rate(1, -v) == _rate(binary, 3, -v)
    assert binary.total_exit_rate(1, v) == 0.0


def test_total_exit_rate_middle_state():
    m = MemristorModel.uniform((1e5, 5e4, 1e4), 1.0, 0.1)
    # for a middle state only one direction is active at a time
    assert m.total_exit_rate(1, 0.3) == _rate(m, 1, 0.3)
    assert m.total_exit_rate(1, -0.3) == _rate(m, 4, -0.3)


def test_rate_ceiling_caps_rates():
    m = MemristorModel.binary(1e5, 1e4, 3e5, 0.02)
    r = _rate(m, 0, 50.0)  # exp(2500) overflows
    assert r == m.rate_ceiling == 1e30
    custom = MemristorModel.binary(1e5, 1e4, 3e5, 0.02, rate_ceiling=1e6)
    assert _rate(custom, 0, 1.0) == 1e6
    assert _rate(custom, 3, -1.0) == custom.total_exit_rate(1, -1.0) == 1e6
    assert np.array_equal(custom.rate_up_array(0, np.array([1.0, 0.2, -1.0])),
                          [1e6, math.exp(10.0) / 3e5, 0.0])
    unlimited = MemristorModel.binary(1e5, 1e4, 3e5, 0.02, rate_ceiling=math.inf)
    assert _rate(unlimited, 0, 1.0) == math.exp(50.0) / 3e5
    # without a cap the exponent is still cut at 700; a rate that then
    # overflows in the division by tau meets the ceiling without a warning
    assert _rate(unlimited, 0, 50.0) == math.exp(700.0) / 3e5
    fast = MemristorModel.binary(1e5, 1e4, 1e-10, 0.02)
    assert _rate(fast, 0, 50.0) == fast.rate_ceiling


@pytest.mark.parametrize("ceiling", [0.0, -1.0, math.nan, -math.inf])
def test_rate_ceiling_must_be_positive(ceiling):
    with pytest.raises(ValueError, match="rate_ceiling"):
        MemristorModel.binary(1e5, 1e4, 3e5, 0.02, rate_ceiling=ceiling)


def test_index_errors(binary):
    with pytest.raises(IndexError):
        binary.rate_up_array(1, np.array([0.1]))
    with pytest.raises(IndexError):
        binary.rate_down_array(0, np.array([-0.1]))
    with pytest.raises(IndexError):
        binary.total_exit_rate(2, 0.1)
    with pytest.raises(IndexError):
        binary.resistance(-1)


def test_validation():
    with pytest.raises(ValueError):
        MemristorModel((1e5,), (), (), (), ())  # G < 2
    with pytest.raises(ValueError):
        MemristorModel((1e5, 1e4), (1.0, 1.0), (0.1,), (1.0,), (0.1,))
    with pytest.raises(ValueError):
        MemristorModel((1e5, -1e4), (1.0,), (0.1,), (1.0,), (0.1,))
    with pytest.raises(ValueError):
        MemristorModel.binary(1e5, 1e4, -1.0, 0.02)


def test_binary_down_defaults():
    m = MemristorModel.binary(1e5, 1e4, 3e5, 0.02)
    assert m.tau_down == (3e5,) and m.v_down == (0.02,)
    m2 = MemristorModel.binary(1e5, 1e4, 3e5, 0.02, tau1=7.0, v1=0.5)
    assert m2.tau_down == (7.0,) and m2.v_down == (0.5,)


def test_uniform_replicates():
    m = MemristorModel.uniform((3.0, 2.0, 1.0), 5.0, 0.25)
    assert m.num_states == 3
    assert m.tau_up == m.tau_down == (5.0, 5.0)
    assert m.v_up == m.v_down == (0.25, 0.25)


@given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_vectorized_matches_scalar(vm):
    m = MemristorModel.binary(1e5, 1e4, 3e5, 0.02)
    arr = np.array([vm, -vm, 0.0])
    up = m.rate_up_array(0, arr)
    down = m.rate_down_array(1, arr)
    for k, v in enumerate(arr):
        assert up[k] == pytest.approx(_rate(m, 0, max(float(v), 0.0)), rel=1e-12, abs=0.0)
        assert down[k] == pytest.approx(_rate(m, 3, min(float(v), 0.0)), rel=1e-12, abs=0.0)


# ------------------------------------- the kernel against the old formulas
# The rate law used to be written out four times.  These are those copies,
# frozen: the kernel must reproduce the first three bit for bit, and the
# netlist engine's, which multiplied by 1/V, to round-off.

def _old_scalar(model, i, v_m, up):
    """The deleted MemristorModel.rate_up / rate_down, with their clamp."""
    if (v_m <= 0.0) if up else (v_m >= 0.0):
        return 0.0
    v, tau = (model.v_up[i], model.tau_up[i]) if up else (model.v_down[i - 1],
                                                          model.tau_down[i - 1])
    with np.errstate(over="ignore"):
        rate = float(np.exp(abs(v_m) / v)) / tau
    return model.rate_ceiling if rate > model.rate_ceiling or not np.isfinite(rate) else rate


def _old_pde_arrays(model, k, v):
    """rate_up_array(k, v) and rate_down_array(k + 1, v)."""
    vu, tu, vd, td = model.v_up[k], model.tau_up[k], model.v_down[k], model.tau_down[k]
    with np.errstate(over="ignore"):
        a = np.where(v > 0.0, np.exp(np.minimum(v, 700.0 * vu) / vu) / tu, 0.0)
        b = np.where(v < 0.0, np.exp(np.minimum(-v, 700.0 * vd) / vd) / td, 0.0)
    return np.minimum(a, model.rate_ceiling), np.minimum(b, model.rate_ceiling)


def _old_vector(model, state, vm):
    """The single-device MC engine's rates as first written, up plus down."""
    v_up = np.array(list(model.v_up) + [1.0])
    tau_up = np.array(list(model.tau_up) + [math.inf])
    v_dn = np.array([1.0] + list(model.v_down))
    tau_dn = np.array([math.inf] + list(model.tau_down))
    with np.errstate(over="ignore"):
        up = np.where(vm > 0.0, np.exp(np.minimum(vm / v_up[state], 700.0))
                      / tau_up[state], 0.0)
        dn = np.where(vm < 0.0, np.exp(np.minimum(-vm / v_dn[state], 700.0))
                      / tau_dn[state], 0.0)
    return np.minimum(up, model.rate_ceiling) + np.minimum(dn, model.rate_ceiling)


def _old_netlist(models, s, vm):
    """The netlist MC engine's rates as first written, over the stacked
    parameter table."""
    par = np.full((len(models), max(m.num_states for m in models), 4), math.inf)
    for m, mo in enumerate(models):
        up = [(1.0 / v, t) for v, t in zip(mo.v_up, mo.tau_up)] + [(0.0, math.inf)]
        dn = [(0.0, math.inf)] + [(1.0 / v, t) for v, t in zip(mo.v_down, mo.tau_down)]
        for i, ((iu, tu), (id_, td)) in enumerate(zip(up, dn)):
            par[m, i] = (iu, tu, id_, td)
    p = par[np.arange(len(models)), s]
    pos = vm > 0.0
    x = np.abs(vm) * np.where(pos, p[..., 0], p[..., 2])
    with np.errstate(over="ignore"):
        r = np.exp(np.minimum(x, 700.0)) / np.where(pos, p[..., 1], p[..., 3])
    ceiling = np.array([m.rate_ceiling for m in models])
    return np.minimum(np.where(vm != 0.0, r, 0.0), ceiling)


# G = 3 with distinct parameters per transition and direction
MODEL3 = MemristorModel((1e5, 3e4, 1e4), (2.0, 30.0), (0.05, 0.02), (7.0, 0.5), (0.04, 0.1))
# one rate of state 0 sits exactly on the ceiling
MODEL3_CAPPED = MemristorModel(MODEL3.resistances, MODEL3.tau_up, MODEL3.v_up,
                               MODEL3.tau_down, MODEL3.v_down,
                               rate_ceiling=float(np.exp(0.3 / 0.05)) / 2.0)
# signed zeros, subnormals, ordinary voltages, the ceiling's voltage and
# beyond it, and |vm| / V far above 700
VOLTAGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-9, 0.013, -0.013, 0.3, -0.3,
                     0.35, -0.35, 0.9, -0.9, 40.0, -40.0, 1e3, -1e3])


@pytest.mark.parametrize("model", [MODEL3, MODEL3_CAPPED], ids=["default", "capped"])
def test_kernel_equals_the_old_formulas_bit_for_bit(model):
    g = model.num_states
    state = np.repeat(np.arange(g), VOLTAGES.size)    # every state, boundaries too
    vm = np.tile(VOLTAGES, g)
    par = model.transitions[:, state + g * (vm < 0.0)]
    assert np.array_equal(switching_rate(vm, *par, model.rate_ceiling),
                          _old_vector(model, state, vm))
    assert np.array_equal(mc._Rates([model])(state, vm, dict(rate_ceiling_hits=0))[0],
                          _old_vector(model, state, vm))
    for k in range(g - 1):
        a, b = _old_pde_arrays(model, k, VOLTAGES)
        assert np.array_equal(model.rate_up_array(k, VOLTAGES), a)
        assert np.array_equal(model.rate_down_array(k + 1, VOLTAGES), b)
    for v in VOLTAGES:
        for i in range(g):
            up = _old_scalar(model, i, v, True) if i < g - 1 else 0.0
            down = _old_scalar(model, i, v, False) if i > 0 else 0.0
            assert model.total_exit_rate(i, v) == up + down
            if i < g - 1:
                assert _rate(model, i, max(v, 0.0)) == up
            if i > 0:
                assert _rate(model, g + i, min(v, 0.0)) == down


def test_kernel_counts_only_rates_above_the_ceiling():
    model = MODEL3_CAPPED
    tally = dict(rate_ceiling_hits=0)
    vm = np.array([0.3, 0.31, 0.29, 40.0, 1e3, -1e3])
    par = model.transitions[:, [0, 0, 0, 0, 0, 3]]   # up from 0; down from 0 is absent
    r = switching_rate(vm, *par, model.rate_ceiling, tally)
    assert r[0] == model.rate_ceiling and r[2] < model.rate_ceiling and r[5] == 0.0
    assert np.all(r[[1, 3, 4]] == model.rate_ceiling)
    assert tally["rate_ceiling_hits"] == 3


def test_stacked_memristors_agree_with_the_old_netlist_formula():
    # two memristors with different state counts and ceilings in one call
    m2 = MemristorModel.binary(1e5, 1e4, 3e5, 0.02, rate_ceiling=1e3)
    models = [m2, MODEL3]
    rng = np.random.default_rng(5)
    s = np.column_stack([rng.integers(0, 2, 400), rng.integers(0, 3, 400)])
    vm = rng.choice(np.concatenate([VOLTAGES, rng.uniform(-0.6, 0.6, 40)]), (400, 2))
    tally = dict(rate_ceiling_hits=0)
    got = mc._Rates(models)(s, vm, tally)[0]
    old = _old_netlist(models, s, vm)
    assert np.all(np.abs(got - old) <= 1e-14 * old)
    for m, model in enumerate(models):   # each column is that model's own kernel call
        par = model.transitions[:, s[:, m] + model.num_states * (vm[:, m] < 0.0)]
        assert np.array_equal(got[:, m], switching_rate(vm[:, m], *par, model.rate_ceiling))
    # no rate here lands exactly on a ceiling, so each one there was cut
    assert tally["rate_ceiling_hits"] == np.count_nonzero(got == [1e3, 1e30]) > 0
