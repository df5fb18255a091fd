"""Switching-rate model tests: sign gating, clamping, validation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from memstoch.device import MemristorModel


@pytest.fixture
def binary():
    return MemristorModel.binary(1e5, 1e4, 3e5, 0.02)


def test_rate_up_value(binary):
    # exp(0.35 / 0.02) / 3e5, computed independently with mpmath
    import mpmath
    expected = float(mpmath.exp(mpmath.mpf("0.35") / mpmath.mpf("0.02")) / 3e5)
    got = binary.rate_up(0, 0.35)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(132.7492813252541, rel=1e-12)


def test_rates_zero_in_wrong_direction(binary):
    assert binary.rate_up(0, 0.0) == 0.0
    assert binary.rate_up(0, -0.1) == 0.0
    assert binary.rate_down(1, 0.0) == 0.0
    assert binary.rate_down(1, 0.1) == 0.0


def test_rate_down_mirrors_rate_up(binary):
    # symmetric parameters: down-rate at -V equals up-rate at +V
    for v in (0.01, 0.1, 0.34):
        assert binary.rate_down(1, -v) == pytest.approx(binary.rate_up(0, v), rel=1e-15)


def test_total_exit_rate_boundary_states(binary):
    v = 0.2
    assert binary.total_exit_rate(0, v) == binary.rate_up(0, v)
    assert binary.total_exit_rate(0, -v) == 0.0
    assert binary.total_exit_rate(1, -v) == binary.rate_down(1, -v)
    assert binary.total_exit_rate(1, v) == 0.0


def test_total_exit_rate_middle_state():
    m = MemristorModel.uniform((1e5, 5e4, 1e4), 1.0, 0.1)
    # for a middle state only one direction is active at a time
    assert m.total_exit_rate(1, 0.3) == m.rate_up(1, 0.3)
    assert m.total_exit_rate(1, -0.3) == m.rate_down(1, -0.3)


def test_rate_ceiling_and_clamp_flag():
    m = MemristorModel.binary(1e5, 1e4, 3e5, 0.02)
    assert not m.clamp_hit
    r = m.rate_up(0, 50.0)  # exp(2500) overflows
    assert r == m.rate_ceiling == 1e30
    assert m.clamp_hit
    custom = MemristorModel.binary(1e5, 1e4, 3e5, 0.02, rate_ceiling=1e6)
    assert custom.rate_up(0, 1.0) == 1e6


def test_index_errors(binary):
    with pytest.raises(IndexError):
        binary.rate_up(1, 0.1)
    with pytest.raises(IndexError):
        binary.rate_down(0, -0.1)
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
        assert up[k] == pytest.approx(m.rate_up(0, float(v)), rel=1e-12, abs=0.0)
        assert down[k] == pytest.approx(m.rate_down(1, float(v)), rel=1e-12, abs=0.0)
