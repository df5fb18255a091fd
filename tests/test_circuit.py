"""Netlist parsing, waveforms, and the operating-point solver."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from memstoch.circuit import (Capacitor, CircuitState, DeviceCharge, Memristor, Netlist,
                              NetlistError, Resistor, SingularNetworkError, VoltageSource,
                              Waveform, affine_dynamics, parse_netlist, parse_si, serialize,
                              series_mc, solve_operating_point)
from memstoch.device import MemristorModel
from test_mc import SIGN_CHANGE_TEXT, TWO_SOURCE_TEXT

SERIES_TEXT = """
# series source-memristor-capacitor loop
V1 in 0 DC 0.35
M1 in n1 STATES=2 R=100k,10k TAUUP=300k VUP=0.02 TAUDOWN=300k VDOWN=0.02
C1 n1 0 1u
"""


# ---------------------------------------------------------------- waveforms

def test_waveform_values():
    assert Waveform.constant(0.35)(123.0) == 0.35
    w = Waveform.step(2.0, 1.5, value_before=-1.0)
    assert w(0.0) == -1.0 and w(1.5) == 2.0 and w(3.0) == 2.0
    s = Waveform.sine(0.1, 0.5, 2.0)
    assert s(0.0) == pytest.approx(0.1)
    assert s(0.125) == pytest.approx(0.1 + 0.5)  # quarter period
    p = Waveform.pwl([(0.0, 0.0), (1.0, 2.0), (3.0, 2.0)])
    assert p(0.5) == pytest.approx(1.0)
    assert p(2.0) == pytest.approx(2.0)
    assert p(10.0) == pytest.approx(2.0)  # held after the last point


def test_waveform_bounds_and_breakpoints():
    assert Waveform.constant(3.0).bounds(1.0) == (3.0, 3.0)
    assert Waveform.step(2.0, 0.5, value_before=-1.0).bounds(1.0) == (-1.0, 2.0)
    assert Waveform.step(2.0, 5.0, value_before=-1.0).bounds(1.0) == (-1.0, -1.0)
    s = Waveform.sine(0.1, 0.5, 2.0)
    assert s.bounds(10.0) == (0.1 - 0.5, 0.1 + 0.5) and s.breakpoint_times() == ()
    assert s.omega == 2.0 * math.pi * 2.0 and Waveform.step(2.0, 0.5).omega == 0.0
    w = Waveform.pwl([(0.0, 0.0), (1.0, 2.0)])
    assert w.bounds(0.5) == (0.0, 1.0)
    assert w.breakpoint_times() == (0.0, 1.0)
    # segments: (t0, v0, k) before the first breakpoint and after each
    t0, v0, k = w.segments
    assert t0.tolist() == [0.0, 0.0, 1.0] and v0.tolist() == [0.0, 0.0, 2.0]
    assert k.tolist() == [0.0, 2.0, 0.0]
    t0, v0, k = Waveform.step(2.0, 0.5, value_before=-1.0).segments
    assert (t0.tolist(), v0.tolist(), k.tolist()) == ([0.5, 0.5], [-1.0, 2.0], [0.0, 0.0])
    assert [x.tolist() for x in Waveform.constant(3.0).segments] == [[0.0], [3.0], [0.0]]
    # a sine's offset is one flat segment; the sine term rides on omega
    assert [x.tolist() for x in s.segments] == [[0.0], [0.1], [0.0]]


_VOLTS = st.floats(min_value=-2.0, max_value=2.0)
_TIMES = st.integers(min_value=-100, max_value=200).map(lambda i: i * 1e-4)


@st.composite
def _waveforms(draw):
    kind = draw(st.sampled_from(["constant", "step", "sine", "pwl"]))
    if kind == "constant":
        return Waveform.constant(draw(_VOLTS))
    if kind == "step":     # t_step <= 0 too
        return Waveform.step(draw(_VOLTS), draw(_TIMES), draw(_VOLTS))
    if kind == "sine":
        return Waveform.sine(draw(_VOLTS), draw(_VOLTS), draw(st.floats(1.0, 1e3)))
    times = sorted(set(draw(st.lists(_TIMES, min_size=1, max_size=6))))
    return Waveform.pwl([(t, draw(_VOLTS)) for t in times])


@given(_waveforms(), st.lists(_TIMES | st.floats(-0.02, 0.03), max_size=8),
       st.integers(min_value=1, max_value=250).map(lambda i: i * 1e-4))
def test_waveform_calls_and_bounds_of_every_kind(w, times, t_end):
    bp = list(w.breakpoint_times())
    t = np.array(times + bp + [0.0, t_end])
    # a scalar call is the array call, bit for bit; a PWL is np.interp on its
    # points (equal values: a held end value of -0.0 may read 0.0)
    one = np.array([w(float(x)) for x in t])
    assert one.tobytes() == np.asarray(w(t), dtype=float).tobytes()
    if w.kind == "pwl":
        assert np.array_equal(one, np.interp(t, *np.array(w.breakpoints).T))
    # bounds: the values at 0, at t_end and at each breakpoint inside, with
    # the value before a step; a sine's offset widened by |amplitude|
    vals = [w(x) for x in [0.0, t_end] + [b for b in bp if 0.0 <= b <= t_end]]
    if w.kind == "step" and 0.0 < w.t_step <= t_end:
        vals.append(w.value_before)
    if w.kind == "sine":
        vals = [w.offset - abs(w.amplitude), w.offset + abs(w.amplitude)]
    assert w.bounds(t_end) == (min(vals), max(vals))


def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform("triangle")
    with pytest.raises(ValueError):
        Waveform.pwl([(1.0, 0.0), (1.0, 2.0)])


# ---------------------------------------------------------------- parsing

@pytest.mark.parametrize("text,value", [
    ("100k", 1e5), ("1u", 1e-6), ("3meg", 3e6), ("2.5m", 2.5e-3),
    ("10p", 1e-11), ("4n", 4e-9), ("1g", 1e9), ("-0.35", -0.35),
    ("1e-6", 1e-6), ("300K", 3e5),
])
def test_parse_si(text, value):
    assert parse_si(text) == pytest.approx(value, rel=1e-15)


def test_parse_si_rejects_junk():
    for bad in ("abc", "1x", "", "1 k"):
        with pytest.raises(ValueError):
            parse_si(bad)


def test_parse_series_netlist():
    net = parse_netlist(SERIES_TEXT)
    assert len(net.sources) == len(net.memristors) == len(net.capacitors) == 1
    m = net.memristors[0].model
    assert m.resistances == (1e5, 1e4)
    assert m.tau_up == (3e5,) and m.v_up == (0.02,)
    assert net.capacitors[0].capacitance == pytest.approx(1e-6)
    state = net.initial_state()
    assert state.memristor_states == (0,) and state.capacitor_charges == (0.0,)


def test_roundtrip_serialize_parse():
    model = MemristorModel.binary(1e5, 1e4, 3e5, 0.02)
    net = series_mc(model, 1e-6, Waveform.constant(0.35), initial_charge=1e-8)
    assert parse_netlist(serialize(net)) == net
    # and a richer one with every waveform kind that has a syntax
    rich = parse_netlist("""
V1 a 0 SIN 0.1 0.5 50
V2 b 0 PWL 0 0 1m 2 2m 0
R1 a b 10k
C1 b 0 1u IC=2e-7
M1 a 0 STATES=3 R=9k,5k,1k TAUUP=1,2 VUP=0.1,0.1 TAUDOWN=3,4 VDOWN=0.2,0.2 STATE=1
""")
    assert parse_netlist(serialize(rich)) == rich
    # a step has no netlist syntax: its text is a PWL ramp that parses and
    # equals the step outside [t_step, t_step + eps]
    for t_step in (0.0, -1e-3, 1e-3):
        step = Waveform.step(0.4, t_step, 0.1)
        pwl = parse_netlist(serialize(series_mc(model, 1e-6, step))).sources[0].waveform
        eps = pwl.breakpoints[-1][0] - t_step
        assert 0.0 < eps <= 1e-9
        t = np.r_[np.linspace(-0.01, 0.01, 201), t_step + eps, t_step - 1e-12]
        t = t[(t < t_step) | (t >= t_step + eps)]
        assert np.array_equal(pwl(t), step(t))


def test_parse_errors_carry_location():
    with pytest.raises(NetlistError) as err:
        parse_netlist("V1 in 0 DC abc")
    assert err.value.line == 1 and err.value.column == 12
    with pytest.raises(NetlistError, match="inductors not supported"):
        parse_netlist("V1 in 0 DC 1\nL1 in 0 1m\n")
    with pytest.raises(NetlistError, match="unknown component"):
        parse_netlist("X1 in 0 1k")
    with pytest.raises(NetlistError, match="no components"):
        parse_netlist("# only a comment\n")
    with pytest.raises(NetlistError, match="duplicate"):
        parse_netlist("V1 a 0 DC 1\nR1 a 0 1k\nR1 a 0 2k")
    with pytest.raises(NetlistError, match="STATE=5 out of range"):
        parse_netlist("V1 a 0 DC 1\n"
                      "M1 a 0 STATES=2 R=1k,2k TAUUP=1 VUP=0.1 "
                      "TAUDOWN=1 VDOWN=0.1 STATE=5")


def test_floating_node_is_named():
    with pytest.raises(SingularNetworkError) as err:
        parse_netlist("V1 in 0 DC 1\nR1 in 0 1k\nR2 x y 1k")
    assert {"x", "y"} <= set(err.value.nodes)
    assert "x" in str(err.value) and "y" in str(err.value)


def test_source_or_initial_condition_required():
    with pytest.raises(NetlistError, match="voltage source"):
        parse_netlist("R1 a 0 1k\nC1 a 0 1u")
    # an initial capacitor charge is an acceptable substitute
    parse_netlist("R1 a 0 1k\nC1 a 0 1u IC=1e-7")


# ------------------------------------------------------- operating point

def test_series_operating_point():
    net = parse_netlist(SERIES_TEXT)
    op = solve_operating_point(net, net.initial_state())
    # uncharged capacitor: the whole 0.35 V sits across the memristor
    assert op.memristor_voltages[0] == pytest.approx(0.35, rel=1e-12)
    assert op.charge_derivatives[0] == pytest.approx(0.35 / 1e5, rel=1e-12)
    # half-charged capacitor
    st_half = CircuitState((0,), (0.5 * 1e-6 * 0.35,))
    op = solve_operating_point(net, st_half)
    assert op.memristor_voltages[0] == pytest.approx(0.175, rel=1e-12)


def test_voltage_divider():
    net = parse_netlist("V1 in 0 DC 10\nR1 in mid 3k\nR2 mid 0 1k")
    op = solve_operating_point(net, CircuitState((), ()))
    assert op.node_voltages["mid"] == pytest.approx(2.5, rel=1e-12)


def test_memristor_state_changes_resistance():
    net = parse_netlist(SERIES_TEXT)
    i0 = solve_operating_point(net, CircuitState((0,), (0.0,))).charge_derivatives[0]
    i1 = solve_operating_point(net, CircuitState((1,), (0.0,))).charge_derivatives[0]
    assert i1 / i0 == pytest.approx(10.0, rel=1e-12)  # R drops 100k -> 10k


def test_state_mismatch_rejected():
    net = parse_netlist(SERIES_TEXT)
    with pytest.raises(ValueError, match="memristor count"):
        solve_operating_point(net, CircuitState((0, 0), (0.0,)))
    with pytest.raises(ValueError, match="capacitor count"):
        solve_operating_point(net, CircuitState((0,), ()))


# the series loop; two coupled branches on two sources (K = S = M = 2); a
# 3-state device; a memristor-free divider (M = 0)
AFFINE_NETS = [parse_netlist(text) for text in (
    SERIES_TEXT, TWO_SOURCE_TEXT, SIGN_CHANGE_TEXT, "V1 in 0 DC 1\nR1 in a 20k\nR2 a 0 10k\nC1 a 0 1u")]


@given(st.floats(min_value=-5e-7, max_value=5e-7), st.floats(min_value=0.0, max_value=5e-3))
def test_affine_dynamics_matches_direct_solve(q, t):
    # every configuration of a netlist in one stacked call: each row is the
    # call for that configuration alone, and gives the operating point
    for net in AFFINE_NETS:
        states = list(itertools.product(*(range(m.model.num_states) for m in net.memristors)))
        dyn = affine_dynamics(net, states)
        qv = q * np.linspace(1.0, -0.5, len(net.capacitors))
        vs = np.array([s.waveform(t) for s in net.sources])
        for r, state in enumerate(states):
            one = affine_dynamics(net, [state])
            assert all(np.array_equal(x[r], y[0]) for x, y in zip(
                (dyn.A, dyn.B, dyn.Dq, dyn.Ds), (one.A, one.B, one.Dq, one.Ds)))
            op = solve_operating_point(net, CircuitState(state, qv, t))
            assert dyn.dqdt(qv, vs)[r] == pytest.approx(np.array(op.charge_derivatives),
                                                        rel=1e-9, abs=1e-18)
            assert dyn.memristor_voltages(qv, vs)[r] == pytest.approx(
                np.array(op.memristor_voltages), rel=1e-9, abs=1e-15)
    with pytest.raises(ValueError, match="memristor M2: state 2 out of range"):
        affine_dynamics(AFFINE_NETS[1], [(0, 0), (1, 2), (1, 1)])
    with pytest.raises(ValueError, match="memristor count"):
        affine_dynamics(AFFINE_NETS[1], [(0, 0), (1,)])


def test_two_loop_network():
    # bridge-free two-mesh check against hand-solved node equations
    net = parse_netlist("V1 in 0 DC 6\nR1 in a 1k\nR2 a 0 2k\nR3 a b 3k\nR4 b 0 6k")
    op = solve_operating_point(net, CircuitState((), ()))
    # node a: (6-Va)/1 = Va/2 + (Va-Vb)/3 ; node b: (Va-Vb)/3 = Vb/6
    # -> Vb = (2/3) Va and 36 = (29/3) Va, so Va = 108/29, Vb = 72/29
    assert op.node_voltages["a"] == pytest.approx(108.0 / 29.0, rel=1e-12)
    assert op.node_voltages["b"] == pytest.approx(72.0 / 29.0, rel=1e-12)


# ------------------------------------------------ single-device charge

# one of each source kind; the step and the PWL have breakpoints inside [0, 6 ms]
CHARGE_WAVES = {"constant": Waveform.constant(0.35),
                "step": Waveform.step(0.3, 2e-3, value_before=0.1),
                "sine": Waveform.sine(0.1, 0.3, 250.0),
                "pwl": Waveform.pwl([(0.0, 0.0), (1e-3, 0.3), (3e-3, 0.3), (4e-3, -0.1),
                                     (6e-3, 0.2)])}
CHARGE_MODEL = MemristorModel.binary(1e5, 1e4, 10.0, 0.03)


def _one_capacitor(wave, shunt):
    """The series circuit on 100 nF; with `shunt`, 100 kOhm across the capacitor."""
    return Netlist(sources=(VoltageSource("V1", "in", "0", wave),),
                   resistors=(Resistor("R2", "n1", "0", 1e5),) if shunt else (),
                   capacitors=(Capacitor("C1", "n1", "0", 1e-7),),
                   memristors=(Memristor("M1", "in", "n1", CHARGE_MODEL),))


@pytest.mark.parametrize("shunt", [False, True], ids=["series", "shunted"])
@pytest.mark.parametrize("kind", list(CHARGE_WAVES))
def test_device_charge_agrees_with_the_eigenmode_flow(kind, shunt):
    # the one mode's flow, q(s) = e^{A (s - t)} q + int_t^s e^{A (s - u)} B
    # v(u) du by mpmath quadrature split at the breakpoints, carries the
    # charge from t to s (forward) and the charge that `charge` puts at s
    # back to t (backward), in both states; 1e-12 relative to the charge
    # scale C * 0.4 V, as the PWL's charges pass through 0
    wave = CHARGE_WAVES[kind]
    net = _one_capacitor(wave, shunt)
    dev = DeviceCharge.of(net)

    def flow(state, q, t, s):
        d = affine_dynamics(net, [(state,)])
        a, b = mpmath.mpf(d.A[0, 0, 0]), mpmath.mpf(d.B[0, 0, 0])
        cuts = [x for x in wave.breakpoint_times() if min(t, s) < x < max(t, s)]
        with mpmath.workdps(25):
            drive = mpmath.quad(lambda u: mpmath.exp(a * (s - u)) * b * float(wave(float(u))),
                                [t] + (cuts if t < s else cuts[::-1]) + [s])
            return float(mpmath.exp(a * (s - t)) * q + drive)

    for state in (0, 1):
        for t, s in ((0.0, 0.5e-3), (0.0, 2e-3), (0.5e-3, 3.5e-3), (0.0, 6e-3), (1.5e-3, 5e-3)):
            fwd = float(dev.charge(state, 2e-8, t, s))
            assert fwd == pytest.approx(flow(state, 2e-8, t, s), rel=1e-12, abs=4e-20)
            back = float(dev.charge(state, 3e-8, s, t))
            assert flow(state, back, t, s) == pytest.approx(3e-8, rel=1e-12, abs=4e-20)


def test_device_charge_is_built_once_per_netlist_and_its_cache_stays_bounded():
    net = parse_netlist(SERIES_TEXT)
    dev = DeviceCharge.of(net)
    assert DeviceCharge.of(parse_netlist(SERIES_TEXT)) is dev
    with pytest.raises(ValueError):
        dev.c[0] = 1.0      # shared by every engine: read-only
    size = DeviceCharge.of.cache_info().maxsize
    for k in range(size + 3):
        DeviceCharge.of(series_mc(CHARGE_MODEL, 1e-7 * (1 + k), Waveform.constant(0.35)))
    assert DeviceCharge.of.cache_info().currsize == size
    with pytest.raises(NetlistError):
        DeviceCharge.of(parse_netlist("V1 in 0 DC 1\nR1 in 0 1k"))
