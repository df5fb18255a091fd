"""Finite-volume master-equation solver tests."""

import functools
import math
import time
import types

import numpy as np
import pytest

from memstoch import (ChargeGrid, ConstantDriveParams, Density1D,
                      DistributionField, MemristorModel, Netlist, SeriesCircuitParams,
                      Waveform, no_switch_density, p0_constant_voltage,
                      parse_netlist, run_ensemble, series_mc)
from memstoch import pde
from memstoch.circuit import affine_dynamics
from test_mc import SHUNTED_TEXT, SIGN_CHANGE_TEXT


@pytest.fixture
def params():
    return ConstantDriveParams.figure2()


@pytest.fixture
def model(params):
    return MemristorModel.binary(params.R0, params.R1, params.tau0, params.V0)


@functools.lru_cache
def affine_rows(circuit, model):
    """(A, B, Dq, Ds), one row per state, read from one `affine_dynamics`
    call, and the source: in state i, dq/dt = A[i] q + B[i] V and vm =
    Dq[i] q + Ds[i] V."""
    net = circuit if isinstance(circuit, Netlist) else series_mc(model, circuit.C,
                                                                 circuit.waveform)
    d = affine_dynamics(net, np.arange(model.num_states)[:, None])
    return np.concatenate((d.A, d.B, d.Dq, d.Ds), axis=2)[:, 0], net.sources[0].waveform


def drift_velocity(i, q, t, circuit, model, series=False):
    """Advection velocity of state i at charge q: A_i q + B_i V(t), or with
    series, the series circuit's formula (V(t) - q/C)/R_i."""
    if series:
        return (circuit.waveform(t) - np.asarray(q) / circuit.C) / model.resistance(i)
    rows, wave = affine_rows(circuit, model)
    return rows[i][0] * np.asarray(q) + rows[i][1] * wave(t)


def memristor_voltage(i, q, t, circuit, model, series=False):
    """The memristor voltage in state i at charge q: Dq_i q + Ds_i V(t), or
    with series, the series circuit's formula V(t) - q/C."""
    if series:
        return circuit.waveform(t) - np.asarray(q) / circuit.C
    rows, wave = affine_rows(circuit, model)
    return rows[i][2] * np.asarray(q) + rows[i][3] * wave(t)


def held_cells(p, mass0, dq):
    """(s0, s1): the cells s0..s1-1 from the first to the last where some
    state holds more than FLUSH_EPS * mass0."""
    held = np.flatnonzero((p > pde.FLUSH_EPS * mass0 / dq).any(axis=0))
    return (int(held[0]), int(held[-1]) + 1) if held.size else (0, 0)


def drive_cap(field, circuit, model, series=False):
    """CFL_LIMIT dq over the fastest speed of a fixed charge c_i V(t): c_i =
    -B_i / A_i (C with series) times the largest |V'| of a sine or PWL
    source; none under a constant or step source."""
    rows, wave = affine_rows(circuit, model)
    c = circuit.C if series else max(abs(-b / a) if a < 0 else 0.0 for a, b, _, _ in rows)
    if wave.kind == "sine":
        slope = abs(wave.amplitude) * 2.0 * math.pi * wave.frequency
    elif wave.kind == "pwl":
        ts, vs = np.array(wave.breakpoints).T
        slope = float(np.abs(np.diff(vs) / np.diff(ts)).max())
    else:
        return math.inf
    return pde.CFL_LIMIT * field.grid.dq / (c * slope)


def window_cap(field, circuit, model, support, j, series=False):
    """CFL_LIMIT dq over the largest drift of any state at the faces that
    step j of a block reaches: its start support widened by j cells."""
    (s0, s1), n = support, field.grid.n_cells
    faces = field.grid.faces()[[max(s0 - j, 0), min(s1 + j, n)]]
    vmax = max(float(np.abs(drift_velocity(i, faces, field.time, circuit, model, series)).max())
               for i in range(field.num_states))
    return pde.CFL_LIMIT * field.grid.dq / vmax


def reference_dt(field, circuit, model):
    """The cap on a step from the field, as the first of a block: the
    window cap at its support and the drive cap."""
    support = held_cells(field.p, field.mass(), field.grid.dq)
    return min(window_cap(field, circuit, model, support, 0), drive_cap(field, circuit, model))


def rates_off(params):
    # astronomically slow switching: pure transport
    return MemristorModel.binary(params.R0, params.R0, 1e300, params.V0)


# ---------------------------------------------------------------- grid

def test_grid_validation():
    with pytest.raises(ValueError):
        ChargeGrid(0.0, -1.0, 100)
    with pytest.raises(ValueError):
        ChargeGrid(0.0, 1.0, 4)
    g = ChargeGrid(0.0, 1.0, 10)
    assert g.dq == pytest.approx(0.1)
    assert len(g.centers()) == 10 and len(g.faces()) == 11
    assert g.centers()[0] == pytest.approx(0.05)


def test_grid_for_drive_pads_inward(params):
    w = Waveform.constant(params.Va)
    g = ChargeGrid.for_drive(params.C, w, 0.1, 100)
    assert g.q_min < 0.0 < params.C * params.Va < g.q_max
    # drift must point into the domain at both walls
    assert (w(0.0) - g.q_min / params.C) > 0
    assert (w(0.0) - g.q_max / params.C) < 0


def test_field_constructors_unit_mass():
    g = ChargeGrid(0.0, 1.0, 64)
    d = DistributionField.from_delta(g, 2, 0, 0.37)
    assert d.mass() == pytest.approx(1.0, rel=1e-14)
    assert d.marginals()[0] == pytest.approx(1.0, rel=1e-14)
    u = DistributionField.from_uniform(g, 2, 1, 0.2, 0.61)
    assert u.mass() == pytest.approx(1.0, rel=1e-14)
    assert u.marginals()[1] == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        DistributionField.from_delta(g, 2, 0, 1.5)
    with pytest.raises(ValueError):
        DistributionField.from_uniform(g, 2, 0, 0.5, 0.2)


def test_conditional_moments_of_uniform():
    g = ChargeGrid(0.0, 1.0, 500)
    u = DistributionField.from_uniform(g, 2, 0, 0.2, 0.6)
    mean, var = u.conditional_moments()
    assert mean[0] == pytest.approx(0.4, abs=1e-3)
    assert var[0] == pytest.approx(0.4 ** 2 / 12.0, rel=1e-2)
    assert math.isnan(mean[1]) and math.isnan(var[1])


# ---------------------------------------------------------------- stepping

def test_step_refuses_large_dt(params, model):
    w = Waveform.constant(params.Va)
    g = ChargeGrid.for_drive(params.C, w, 0.01, 100)
    field = DistributionField.from_delta(g, 2, 0, 0.0)
    circ = SeriesCircuitParams(params.C, w)
    dt_ok = pde.admissible_dt(field, circ, model)
    with pytest.raises(pde.StepSizeError) as err:
        pde.step(field, 2.0 * dt_ok, circ, model)
    assert err.value.admissible_dt == pytest.approx(dt_ok)
    # at the admissible dt the step goes through
    pde.step(field, dt_ok, circ, model)


def test_step_zero_dt_is_identity(params, model):
    w = Waveform.constant(params.Va)
    g = ChargeGrid.for_drive(params.C, w, 0.01, 64)
    field = DistributionField.from_uniform(g, 2, 0, 0.0, 1e-7)
    out = pde.step(field, 0.0, SeriesCircuitParams(params.C, w), model)
    assert np.array_equal(out.p, field.p) and out.time == field.time


def test_mass_conserved_and_positive_with_switching(params, model):
    w = Waveform.constant(params.Va)
    g = ChargeGrid.for_drive(params.C, w, 0.01, 300)
    field = DistributionField.from_delta(g, 2, 0, params.q0)
    circ = SeriesCircuitParams(params.C, w)
    for _ in range(200):
        dt = pde.admissible_dt(field, circ, model)
        field = pde.step(field, dt, circ, model)
        assert field.mass() == pytest.approx(1.0, abs=1e-12)
        assert field.p.min() >= 0.0
    assert field.marginals()[1] > 0.05  # switching visibly under way


def test_run_marginals_track_survival(params, model):
    # moderate grid: the occupation probabilities should already be
    # within a couple of percent of the closed form
    w = Waveform.constant(params.Va)
    times = np.linspace(0.0, 0.02, 9)
    g = ChargeGrid.for_drive(params.C, w, 0.02, 500)
    initial = DistributionField.from_delta(g, 2, 0, params.q0)
    res = pde.run(initial, 0.02, times, SeriesCircuitParams(params.C, w), model)
    ref = np.array([p0_constant_voltage(params, float(t)) for t in res.times])
    assert np.max(np.abs(res.marginals[:, 0] - ref)) < 0.03
    assert np.allclose(res.marginals.sum(axis=1), 1.0, atol=1e-10)
    assert res.min_cell_value >= 0.0
    assert res.max_mass_error < 1e-10


def test_run_transport_matches_analytic(params):
    w = Waveform.constant(params.Va)
    t_end = 0.05
    g = ChargeGrid.for_drive(params.C, w, t_end, 1000)
    qa, qb = 0.0, 0.2 * params.C * params.Va
    initial = DistributionField.from_uniform(g, 2, 0, qa, qb)
    res = pde.run(initial, t_end, [t_end], SeriesCircuitParams(params.C, w),
                  rates_off(params))
    moved = no_switch_density(Density1D.uniform(qa, qb), params.R0, params.C,
                              w, t_end)
    centers = g.centers()
    approx = res.fields[-1].p[0]
    exact = np.array([moved(float(q)) for q in centers])
    l1 = np.abs(approx - exact).sum() * g.dq
    assert l1 < 0.15  # first-order scheme, discontinuous data
    # the cumulative distribution is much less sensitive to the edge
    # smearing of the upwind scheme
    cdf_num = np.cumsum(approx) * g.dq
    lo, hi = moved.support
    cdf_exact = np.clip((g.faces()[1:] - lo) / (hi - lo), 0.0, 1.0)
    assert np.max(np.abs(cdf_num - cdf_exact)) < 0.05


def test_refinement_reduces_error(params):
    w = Waveform.constant(params.Va)
    t_end = 0.03
    qa, qb = 0.0, 0.2 * params.C * params.Va
    moved = no_switch_density(Density1D.uniform(qa, qb), params.R0, params.C,
                              w, t_end)
    errs = []
    for n in (200, 400, 800):
        g = ChargeGrid.for_drive(params.C, w, t_end, n)
        initial = DistributionField.from_uniform(g, 2, 0, qa, qb)
        res = pde.run(initial, t_end, [t_end],
                      SeriesCircuitParams(params.C, w), rates_off(params))
        exact = np.array([moved(float(q)) for q in g.centers()])
        errs.append(np.abs(res.fields[-1].p[0] - exact).sum() * g.dq)
    assert errs[0] > errs[1] > errs[2]


def test_three_state_ladder_conserves_mass(params):
    w = Waveform.constant(params.Va)
    model3 = MemristorModel.uniform((1e5, 3e4, 1e4), params.tau0, params.V0)
    g = ChargeGrid.for_drive(params.C, w, 0.02, 200)
    initial = DistributionField.from_delta(g, 3, 0, 0.0)
    res = pde.run(initial, 0.02, np.linspace(0, 0.02, 5),
                  SeriesCircuitParams(params.C, w), model3)
    assert np.allclose(res.marginals.sum(axis=1), 1.0, atol=1e-9)
    assert res.marginals[-1, 1] > 0.01  # middle rung populated
    assert res.min_cell_value >= 0.0


@pytest.mark.parametrize("va, start", [(0.9, 0), (-0.9, 2)])
def test_three_state_exchange_exact_beyond_rate_scale(va, start):
    # at the CFL dt the exit rates exceed 1/dt by orders of magnitude; the
    # exact pair exchanges still conserve mass and stay non-negative
    model3 = MemristorModel.uniform((1e5, 3e4, 1e4), 10.0, 0.05)
    C = 1e-7
    w = Waveform.constant(va)
    g = ChargeGrid.for_drive(C, w, 0.005, 200)
    circ = SeriesCircuitParams(C, w)
    # mass in the fifth of the grid farthest from the driven charge C*va
    fifth = 0.2 * (g.q_max - g.q_min)
    lo = g.q_min if va > 0 else g.q_max - fifth
    field = DistributionField.from_uniform(g, 3, start, lo, lo + fifth)
    vm = va - g.centers() / C
    rate_max = max(float(r.max()) for k in (0, 1)
                   for r in (model3.rate_up_array(k, vm), model3.rate_down_array(k + 1, vm)))
    assert pde.admissible_dt(field, circ, model3) * rate_max > 100.0
    for _ in range(50):
        field = pde.step(field, pde.admissible_dt(field, circ, model3), circ, model3)
        assert field.mass() == pytest.approx(1.0, abs=1e-12)
        assert field.p.min() >= 0.0
    # the strong drive has pushed nearly all mass to the far end state
    assert field.marginals()[2 - start] > 0.99


def test_binary_step_is_closed_two_state_update():
    # rates of infinite time constant are exactly zero, so that step is
    # the advection alone; the switching step must add the closed 2x2
    # exchange on top of it, bit for bit
    w = Waveform.sine(0.02, 0.4, 200.0)
    C = 1e-7
    model2 = MemristorModel.binary(1e5, 1e4, 1e-3, 0.05)
    frozen2 = MemristorModel.binary(1e5, 1e4, math.inf, 0.05)
    g = ChargeGrid.for_drive(C, w, 0.005, 300)
    circ = SeriesCircuitParams(C, w)
    u = DistributionField.from_uniform(g, 2, 0, g.q_min, g.q_max).p[0]
    field = DistributionField(g, np.vstack([0.7 * u, 0.3 * u]), time=0.3e-3)
    dt = pde.admissible_dt(field, circ, model2)
    p = pde.step(field, dt, circ, frozen2).p
    a = model2.rate_up_array(0, memristor_voltage(0, g.centers(), field.time, circ, model2))
    b = model2.rate_down_array(1, memristor_voltage(1, g.centers(), field.time, circ, model2))
    assert (a > 0).any() and (b > 0).any()
    s = a + b
    transfer = (a * p[0] - b * p[1]) * (-np.expm1(-s * dt) / s)
    expected = np.clip(np.vstack([p[0] - transfer, p[1] + transfer]), 0.0, None)
    assert np.array_equal(pde.step(field, dt, circ, model2).p, expected)


@pytest.mark.parametrize("states, wave, t", [
    (2, Waveform.constant(0.35), 0.0),
    (3, Waveform.sine(0.0, 0.4, 200.0), 1.25e-3),
    (3, Waveform.sine(0.0, 0.4, 200.0), 3.9e-3),
    (4, Waveform.sine(0.1, 0.3, 50.0), 7e-3),
])
def test_admissible_dt_is_the_cfl_cap(states, wave, t):
    # the window cap sets the constant and the 50 Hz case, the drive cap the
    # 200 Hz ones; either allows more than the cap at the grid's end faces
    model_g = MemristorModel.uniform((1e5, 1e4, 3e4, 5e3)[:states], 10.0, 0.05)
    C = 1e-7
    g = ChargeGrid.for_drive(C, wave, 0.01, 731)
    field = DistributionField.from_delta(g, states, 0, 0.0, time=t)
    circ = SeriesCircuitParams(C, wave)
    dt = pde.admissible_dt(field, circ, model_g)
    assert dt == reference_dt(field, circ, model_g)
    assert dt > window_cap(field, circ, model_g, (0, g.n_cells), 0)


SINE_MODEL3 = MemristorModel.uniform((1e5, 3e4, 1e4), 10.0, 0.05)
SINE_C, SINE_WAVE, SINE_T_END = 1e-7, Waveform.sine(0.0, 0.4, 200.0), 0.01


@pytest.fixture(scope="module")
def sine_three_state_pde():
    g = ChargeGrid.for_drive(SINE_C, SINE_WAVE, SINE_T_END, 1000)
    start = time.perf_counter()
    res = pde.run(DistributionField.from_delta(g, 3, 0, 0.0), SINE_T_END,
                  np.linspace(0.0, SINE_T_END, 21),
                  SeriesCircuitParams(SINE_C, SINE_WAVE), SINE_MODEL3)
    return res, time.perf_counter() - start


def test_sine_three_state_agrees_with_mc(sine_three_state_pde):
    # reverse-bias drive with no closed form: the PDE and the MC must agree
    # on every marginal within 4 binomial sigma
    res, elapsed = sine_three_state_pde
    times = np.linspace(0.0, SINE_T_END, 21)
    net = series_mc(SINE_MODEL3, SINE_C, SINE_WAVE)
    n = 100_000
    stats = run_ensemble(net, net.initial_state(), SINE_T_END, times, n, master_seed=4242)
    p = res.marginals
    sigma = np.sqrt(np.maximum(p * (1.0 - p), 1.0 / n) / n)
    assert np.all(np.abs(stats.occupancy[0] - p) <= 4.0 * sigma)
    assert stats.events_down > 0 and stats.n_failed == 0
    assert res.max_mass_error < 1e-10 and res.min_cell_value >= 0.0
    assert elapsed < 60.0


def test_first_output_of_the_sine_matches_the_rc_path():
    # from a delta at q = 0 with V(0) = 0, the drift at the faces of the
    # narrow support is tiny: under the window cap alone the first step, at
    # V = 0, spans all 0.25 ms and p1 reads 0; the drive cap keeps dt shrinking
    # with dq.  Until then state 0 almost never leaves, so p1 = 1 - exp(-int
    # r dt) along its RC path, up to 2nd order in p1
    t1, (r0, *_) = 0.25e-3, SINE_MODEL3.resistances
    g = ChargeGrid.for_drive(SINE_C, SINE_WAVE, SINE_T_END, 1000)
    res = pde.run(DistributionField.from_delta(g, 3, 0, 0.0), t1, [t1],
                  SeriesCircuitParams(SINE_C, SINE_WAVE), SINE_MODEL3)
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        vm = SINE_WAVE(t) - y[0] / SINE_C
        return [vm / r0, math.exp(vm / SINE_MODEL3.v_up[0]) / SINE_MODEL3.tau_up[0]]

    sol = solve_ivp(rhs, (0.0, t1), [0.0, 0.0], rtol=1e-12, atol=1e-20)
    p1 = -math.expm1(-sol.y[1, -1])
    assert p1 == pytest.approx(1.0899e-4, rel=1e-3)
    assert res.marginals[-1, 1] == pytest.approx(p1, rel=0.03)


# a 3-state device behind 10k, shunted by 100k, under a sine that reverses
# the bias: vm = Rm / (Rm + 10k) (V - q/C) differs between the states
DIVIDED_SINE_TEXT = """
V1 in 0 SIN 0 0.4 200
R1 in a 10k
M1 a n1 STATES=3 R=100k,30k,10k TAUUP=10,10 VUP=0.05,0.05 TAUDOWN=10,10 VDOWN=0.05,0.05
C1 n1 0 100n
R2 n1 0 100k
"""


def _netlist_field(net, t_end, cells):
    """The netlist's initial delta on a grid built from its fixed charges."""
    (mem,), (cap,) = net.memristors, net.capacitors
    g = ChargeGrid.for_drive(pde.fixed_charges(net), net.sources[0].waveform, t_end, cells,
                             q_extra=cap.initial_charge)
    return DistributionField.from_delta(g, mem.model.num_states, mem.initial_state,
                                        cap.initial_charge)


# cells per case: at these counts |p(n) - p(2n)| stays below the MC sigma of
# 1e5 trajectories at every output and state (0.62, 0.48 and 0.53 sigma)
@pytest.mark.parametrize("text, t_end, cells", [
    (SHUNTED_TEXT, 0.02, 1000), (SIGN_CHANGE_TEXT, 0.005, 2000),
    (DIVIDED_SINE_TEXT, 0.01, 1000),
], ids=["shunted", "sign_change", "divided_sine_three_state"])
def test_netlist_pde_agrees_with_mc(text, t_end, cells):
    # circuits that only the netlist path runs: the PDE and the MC agree on
    # every marginal within 4 binomial sigma
    net, times, n = parse_netlist(text), np.linspace(0.0, t_end, 11), 100_000
    res = pde.run(_netlist_field(net, t_end, cells), t_end, times, net)
    stats = run_ensemble(net, net.initial_state(), t_end, times, n, master_seed=7)
    p = res.marginals
    sigma = np.sqrt(np.maximum(p * (1.0 - p), 1.0 / n) / n)
    assert np.all(np.abs(stats.occupancy[0] - p) <= 4.0 * sigma)
    assert stats.n_failed == 0 and stats.events_up > 0
    assert stats.events_down > 0 or text == SHUNTED_TEXT  # vm stays > 0 when shunted
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-10)
    assert res.max_mass_error < 1e-10 and res.min_cell_value >= 0.0


def test_model_field_mismatch(params, model):
    w = Waveform.constant(params.Va)
    g = ChargeGrid.for_drive(params.C, w, 0.01, 64)
    field = DistributionField.from_delta(g, 3, 0, 0.0)
    with pytest.raises(ValueError, match="mismatch"):
        pde.step(field, 1e-6, SeriesCircuitParams(params.C, w), model)
    # a netlist carries its own model: another one passed with it is refused
    net = series_mc(model, params.C, w)
    with pytest.raises(ValueError, match="differs from the netlist's memristor"):
        pde.admissible_dt(field, net, MemristorModel.binary(1e5, 1e4, 1.0, 0.02))


def test_narrowing_toward_driven_charge(params):
    # the conditional variance of a transported packet must shrink as
    # exp(-2 t / (C R0))
    w = Waveform.constant(params.Va)
    tc = params.C * params.R0
    g = ChargeGrid.for_drive(params.C, w, tc, 1500)
    initial = DistributionField.from_uniform(g, 2, 0, 0.0,
                                             0.2 * params.C * params.Va)
    res = pde.run(initial, tc, [0.0, tc], SeriesCircuitParams(params.C, w),
                  rates_off(params))
    v0 = res.cond_var[0, 0]
    v1 = res.cond_var[1, 0]
    # numerical diffusion only ever widens the packet, so the measured
    # ratio brackets the exact contraction factor from above
    assert math.exp(-2.0) <= v1 / v0 < 1.3 * math.exp(-2.0)


# ------------------------------------------- per-run tables: same fields

def _flush(p, mass0, dq):
    """Zero, in place, the cells beyond the outermost ones where some state
    holds more than FLUSH_EPS * mass0; returns the mass zeroed."""
    s0, s1 = held_cells(p, mass0, dq)
    flushed = (p[:, :s0].sum() + p[:, s1:].sum()) * dq
    p[:, :s0] = p[:, s1:] = 0.0
    return flushed


def _reference_step(field, dt, params, model, flush=True, series=False):
    """The step as written per state, with nothing computed once per run.
    Like `pde.step`, it first flushes the edge tails against the field's
    mass, unless flush is false.  With series, the drift and vm are the
    series circuit's formulas."""
    grid = field.grid
    t = field.time
    faces = grid.faces()
    p = field.p.copy()
    if flush:
        _flush(p, field.mass(), grid.dq)
    for i in range(field.num_states):
        v = drift_velocity(i, faces[1:-1], t, params, model, series)
        flux = np.where(v > 0, v * p[i, :-1], v * p[i, 1:])
        div = np.zeros(grid.n_cells)
        div[:-1] += flux
        div[1:] -= flux
        p[i] -= dt / grid.dq * div
    last = field.num_states - 2
    pairs = []
    for k in range(last + 1):
        # pair k goes up at the rate vm_k drives and down at the one vm_{k+1} drives
        a = model.rate_up_array(k, memristor_voltage(k, grid.centers(), t, params, model,
                                                     series))
        b = model.rate_down_array(k + 1, memristor_voltage(k + 1, grid.centers(), t, params,
                                                           model, series))
        s = a + b
        h = dt if k == last else dt / 2
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(s > 0, -np.expm1(-s * h) / np.where(s > 0, s, 1.0), h)
        pairs.append((k, a, b, w))
    for k, a, b, w in pairs + pairs[-2::-1]:
        transfer = (a * p[k] - b * p[k + 1]) * w
        p[k] -= transfer
        p[k + 1] += transfer
    np.clip(p, 0.0, None, out=p)
    return DistributionField(grid, p, t + dt)


def _reference_run(initial, outputs, params, model, flush=True, series=False, dts=None):
    """Fields at `outputs` (after the initial time), every step's start and
    dt, the steps whose dt the drive cap set, and the flushed mass.  As
    `pde.run` does, blocks of `_RunTables.steps` steps start afresh in each
    output interval; each takes its support against the initial mass at
    its start (flushing the edge tails beyond, unless flush is false), and
    step j of a block is capped at that support widened by j cells and at
    the drive cap; given dts, the steps take those instead.  A step cut at
    an output or a source breakpoint ends exactly there."""
    field = DistributionField(initial.grid, initial.p.copy(), initial.time)
    block = pde._RunTables(initial, params, model).steps
    cuts = affine_rows(params, model)[1].breakpoint_times()
    ref = types.SimpleNamespace(fields=[], starts=[], dts=[], drive_capped=0, flushed=0.0)
    mass0, dq = initial.mass(), initial.grid.dq
    for t_out in outputs:
        k = 0
        while field.time < t_out - 1e-15 * max(t_out, 1.0):
            if k % block == 0:
                support = held_cells(field.p, mass0, dq)
                if flush:
                    ref.flushed += _flush(field.p, mass0, dq)
            t = field.time
            t_cut = min([t_out] + [b for b in cuts if b > t])
            window = window_cap(field, params, model, support, k % block, series)
            drive = drive_cap(field, params, model, series)
            dt = dts[len(ref.dts)] if dts else min(window, drive, t_cut - t)
            field = _reference_step(field, dt, params, model, flush=False, series=series)
            field.time = t + dt if dt < t_cut - t else t_cut
            ref.drive_capped += drive < window and drive < t_cut - t
            ref.starts.append(t)
            ref.dts.append(dt)
            k += 1
        field.time = t_out
        ref.fields.append(field.p.copy())
    return ref


BIT_CASES = ["figure2_constant", "sine_three_state", "pwl_reverse_three_state",
             "step_two_state", "uniform_clamped_at_both_edges", "interval_of_many_blocks",
             "sine_three_state_capped", "constant_uniform_at_both_edges"]
# the sine ladder with a 50 /s ceiling: rates up to exp(0.4/0.04)/20 = 1100 /s
# are capped, and the second pair's down transition has its own (tau, V)
SINE_MODEL3_CAPPED = MemristorModel(SINE_MODEL3.resistances, (10.0, 10.0), (0.05, 0.05),
                                    (10.0, 20.0), (0.05, 0.04), rate_ceiling=50.0)


def _bit_case(case, params, model):
    """(circuit, model, initial field, output times) of one bit-identity case."""
    if case == "divided_sine_three_state":
        net = parse_netlist(DIVIDED_SINE_TEXT)
        return net, net.memristors[0].model, _netlist_field(net, 0.005, 300), np.linspace(
            0.0, 0.005, 6)
    figure2 = SeriesCircuitParams(params.C, Waveform.constant(params.Va))
    sine = SeriesCircuitParams(SINE_C, SINE_WAVE)
    reverse = Waveform.pwl([(0.0, 0.4), (1e-3, 0.4), (2e-3, -0.4), (4e-3, -0.4)])
    circ, m, cells, t_end, outputs = {
        "figure2_constant": (figure2, model, 400, 0.01, 6),
        "sine_three_state": (sine, SINE_MODEL3, 300, 0.005, 6),
        "pwl_reverse_three_state": (SeriesCircuitParams(SINE_C, reverse), SINE_MODEL3, 300,
                                    0.004, 6),
        "step_two_state": (SeriesCircuitParams(params.C, Waveform.step(-params.Va, 3e-3,
                                                                       params.Va)),
                           model, 300, 0.006, 4),
        "uniform_clamped_at_both_edges": (sine, SINE_MODEL3, 200, 0.003, 4),
        "interval_of_many_blocks": (figure2, model, 2000, 0.002, 2),
        "sine_three_state_capped": (sine, SINE_MODEL3_CAPPED, 300, 0.005, 6),
        "constant_uniform_at_both_edges": (figure2, model, 1000, 0.01, 6),
    }[case]
    g = ChargeGrid.for_drive(circ.C, circ.waveform, t_end, cells)
    if case == "uniform_clamped_at_both_edges":
        initial = DistributionField.from_uniform(g, m.num_states, 0, g.q_min + 2 * g.dq,
                                                 g.q_max - 2 * g.dq)
    elif case == "constant_uniform_at_both_edges":
        # mass in both edge cells: every window ends at the top of the grid, and
        # about half start at its bottom, until the fast inward drift there empties it
        initial = DistributionField.from_uniform(g, m.num_states, 0, g.q_min, g.q_max)
    else:
        initial = DistributionField.from_delta(g, m.num_states, 0, 0.0)
    return circ, m, initial, np.linspace(0.0, t_end, outputs)


@pytest.mark.parametrize("case", BIT_CASES + ["divided_sine_three_state"])
def test_run_is_bit_identical_to_the_per_state_step(params, model, case):
    circ, m, initial, outputs = _bit_case(case, params, model)
    g, t_end = initial.grid, outputs[-1]
    res = pde.run(initial, t_end, outputs, circ, m)
    ref = _reference_run(initial, outputs[1:], circ, m)
    for f, p in zip(res.fields[1:], ref.fields):
        assert np.array_equal(f.p, p)
    assert np.array_equal(res.marginals[1:],
                          np.array([p.sum(axis=1) * g.dq for p in ref.fields]))
    dts = ref.dts
    if case == "figure2_constant":
        # dt shrinks within a block as the faces its steps reach widen, and
        # the next block, from the same support, repeats it
        block = pde._RunTables(initial, circ, m).steps
        assert dts[block - 1] < dts[0] == dts[block] and len(set(dts)) < len(dts)
    if case == "interval_of_many_blocks":
        assert len(dts) > 10 * pde._RunTables(initial, circ, m).steps
    if case == "step_two_state":
        # the planning cuts at the source's jump: a step starts on it
        assert circ.waveform.t_step in ref.starts
    diag = dict(res.diagnostics)
    blocks, cell_steps = diag.pop("blocks"), diag.pop("cell_steps")
    assert blocks >= 1 and 0 < cell_steps <= len(dts) * g.n_cells
    # a constant drive reuses the weights of a block whose dts repeat the last one's
    tables = diag.pop("weight_tables")
    if case in ("figure2_constant", "interval_of_many_blocks"):
        assert tables < blocks
    assert tables <= blocks if affine_rows(circ, m)[1].kind == "constant" else tables == blocks
    hits = diag.pop("rate_ceiling_hits")
    assert hits > 0 if case == "sine_three_state_capped" else hits == 0
    # the window sums the tails in other chunks than the whole-grid reference
    assert diag.pop("flushed_mass") == pytest.approx(ref.flushed, rel=1e-12, abs=0.0)
    assert ref.flushed > 0.0 if case == "sine_three_state" else ref.flushed >= 0.0
    # under a constant or step source no drive cap applies
    capped = diag.pop("drive_capped_steps")
    assert capped == ref.drive_capped
    assert capped > 0 if affine_rows(circ, m)[1].kind in ("sine", "pwl") else capped == 0
    assert diag == dict(steps=len(dts), dt_min=min(dts), dt_max=max(dts))


@pytest.mark.parametrize("case", BIT_CASES)
def test_series_fields_match_the_series_formulas(params, model, case):
    # the tables' A q + B V and Dq q + Ds V are (V - q/C)/R_i and V - q/C up to
    # round-off: the same steps, and marginals within 1e-13
    circ, m, initial, outputs = _bit_case(case, params, model)
    res = pde.run(initial, outputs[-1], outputs, circ, m)
    ref = _reference_run(initial, outputs[1:], circ, m, series=True)
    assert res.diagnostics["steps"] == len(ref.dts)
    series = np.array([p.sum(axis=1) * initial.grid.dq for p in ref.fields])
    assert np.max(np.abs(res.marginals[1:] - series)) <= 1e-13


def test_flush_narrows_the_sine_window_and_reports_its_mass():
    # one period of the reverse-bias sine: upwind diffusion leaves sub-1e-16
    # tails across 834 cells; the flush drops them and reports their mass
    g = ChargeGrid.for_drive(SINE_C, SINE_WAVE, 0.005, 1000)
    initial = DistributionField.from_delta(g, 3, 0, 0.0)
    circ, outputs = SeriesCircuitParams(SINE_C, SINE_WAVE), np.linspace(0.0, 0.005, 21)
    res = pde.run(initial, 0.005, outputs, circ, SINE_MODEL3)
    # the steps of the flushing run: the support they are capped at is the flushed one
    dts = _reference_run(initial, outputs[1:], circ, SINE_MODEL3).dts
    ref = _reference_run(initial, outputs[1:], circ, SINE_MODEL3, flush=False, dts=dts)
    unflushed = np.array([p.sum(axis=1) * g.dq for p in ref.fields])
    assert np.max(np.abs(res.marginals[1:] - unflushed)) <= 1e-12
    flushed = res.diagnostics["flushed_mass"]
    assert 0.0 <= flushed <= 1e-12
    assert abs(initial.mass() - res.fields[-1].mass() - flushed) <= 1e-13
    held = np.flatnonzero(res.fields[-1].p.any(axis=0))
    assert held[-1] - held[0] + 1 <= 550


def test_rate_ceiling_hits_count_the_capped_rates(params):
    # under a constant drive the rates are computed once over the grid: a
    # ceiling of 100 /s caps the up rates of the cells with vm = Va - q/C
    # above V0 ln(100 tau0) and the down rates below -V0 ln(100 tau0)
    circ = SeriesCircuitParams(params.C, Waveform.constant(params.Va))
    g = ChargeGrid.for_drive(params.C, circ.waveform, 0.002, 400)
    initial = DistributionField.from_delta(g, 2, 0, 0.0)
    vm = params.Va - g.centers() / params.C
    capped = np.count_nonzero(np.exp(np.abs(vm) / params.V0) / params.tau0 > 100.0)
    assert capped > 0
    for ceiling, hits in ((1e30, 0), (100.0, capped)):
        m = MemristorModel.binary(params.R0, params.R1, params.tau0, params.V0,
                                  rate_ceiling=ceiling)
        res = pde.run(initial, 0.002, [0.002], circ, m)
        assert res.diagnostics["rate_ceiling_hits"] == hits
    # two pairs sharing one law share its rate table, but each counts its hits
    m3 = MemristorModel.uniform((params.R0, params.R1, params.R1), params.tau0, params.V0,
                                rate_ceiling=100.0)
    res = pde.run(DistributionField.from_delta(g, 3, 0, 0.0), 0.002, [0.002], circ, m3)
    assert res.diagnostics["rate_ceiling_hits"] == 2 * capped


@pytest.mark.parametrize("edge", [False, True], ids=["inside", "touching_an_edge"])
def test_standalone_step_is_bit_identical_to_the_per_state_step(edge):
    circ = SeriesCircuitParams(SINE_C, SINE_WAVE)
    g = ChargeGrid.for_drive(SINE_C, SINE_WAVE, SINE_T_END, 300)
    lo = g.q_min if edge else g.q_min + 0.3 * (g.q_max - g.q_min)
    field = DistributionField.from_uniform(g, 3, 0, lo, lo + 0.2 * (g.q_max - g.q_min),
                                           time=1.25e-3)
    assert (field.p[0, 0] > 0) == edge and field.p[0, -1] == 0.0
    ref = field
    for _ in range(30):
        dt = pde.admissible_dt(field, circ, SINE_MODEL3)
        field = pde.step(field, dt, circ, SINE_MODEL3)
        ref = _reference_step(ref, dt, circ, SINE_MODEL3)
        assert np.array_equal(field.p, ref.p) and field.time == ref.time
    assert field.marginals()[1] > 0.0


@pytest.mark.parametrize("case", ["figure2_constant", "sine_three_state"])
def test_standalone_step_equals_one_step_of_run(params, model, case):
    circ, m, initial, _ = _bit_case(case, params, model)
    dt = pde.admissible_dt(initial, circ, m)
    assert (initial.time + dt) - initial.time == dt  # run's one step is this dt
    stepped = pde.step(initial, dt, circ, m)
    res = pde.run(initial, initial.time + dt, [], circ, m)
    assert res.diagnostics["steps"] == 1 and res.diagnostics["dt_max"] == dt
    assert np.array_equal(stepped.p, res.fields[-1].p) and stepped.time == res.times[-1]


def _sine_run(initial, **kw):
    return pde.run(initial, SINE_T_END, np.linspace(0.0, SINE_T_END, 6),
                   SeriesCircuitParams(SINE_C, SINE_WAVE), SINE_MODEL3, **kw)


def test_run_raises_on_mass_loss_with_its_time():
    g = ChargeGrid.for_drive(SINE_C, SINE_WAVE, SINE_T_END, 300)
    initial = DistributionField.from_delta(g, 3, 0, 0.0)
    with pytest.raises(pde.MassLossError, match=r"exceeds 1e-18 at t = \S+ s"):
        _sine_run(initial, mass_tolerance=1e-18)


def test_run_refuses_an_output_time_before_the_initial_time():
    g = ChargeGrid.for_drive(SINE_C, SINE_WAVE, SINE_T_END, 300)
    initial = DistributionField.from_delta(g, 3, 0, 0.0, time=1e-3)
    with pytest.raises(ValueError, match="before the initial time"):
        _sine_run(initial)


def test_run_refuses_an_output_time_after_t_end():
    g = ChargeGrid.for_drive(SINE_C, SINE_WAVE, SINE_T_END, 300)
    initial = DistributionField.from_delta(g, 3, 0, 0.0)
    with pytest.raises(ValueError, match="output time after t_end"):
        pde.run(initial, SINE_T_END, [0.5 * SINE_T_END, 2.0 * SINE_T_END],
                SeriesCircuitParams(SINE_C, SINE_WAVE), SINE_MODEL3)


def test_run_leaves_the_initial_field_unchanged():
    g = ChargeGrid.for_drive(SINE_C, SINE_WAVE, SINE_T_END, 300)
    initial = DistributionField.from_uniform(g, 3, 0, 0.0, 0.3 * g.q_max)
    before = initial.p.copy()
    res = _sine_run(initial)
    assert res.fields[-1].p is not initial.p and np.array_equal(initial.p, before)
    with pytest.raises(pde.MassLossError):
        _sine_run(initial, mass_tolerance=1e-18)
    assert np.array_equal(initial.p, before)


def test_run_diagnostics_without_steps(params, model):
    # a run shorter than the planning loop's 1e-15 s round-off snap takes no step
    w = Waveform.constant(params.Va)
    g = ChargeGrid.for_drive(params.C, w, 0.01, 64)
    res = pde.run(DistributionField.from_delta(g, 2, 0, 0.0), 1e-16, [0.0],
                  SeriesCircuitParams(params.C, w), model)
    assert res.diagnostics["steps"] == 0 and math.isnan(res.diagnostics["dt_min"])


@pytest.mark.parametrize("t_end, outputs, message", [
    # unchecked, the planning loop's inf - 1e-15 inf = nan ended the run at
    # once, with times [0, inf] and a field that never stepped
    (math.inf, [0.0], "t_end must be finite"),
    # unchecked, a NaN output time gave a record at time nan
    (SINE_T_END, [math.nan], "output times must be finite"),
    (0.0, [0.0], "t_end must exceed the initial time"),
], ids=["infinite_t_end", "nan_output_time", "t_end_at_the_initial_time"])
def test_run_checks_its_times_as_the_mc_does(t_end, outputs, message):
    g = ChargeGrid.for_drive(SINE_C, SINE_WAVE, SINE_T_END, 300)
    with pytest.raises(ValueError, match=message):
        pde.run(DistributionField.from_delta(g, 3, 0, 0.0), t_end, outputs,
                SeriesCircuitParams(SINE_C, SINE_WAVE), SINE_MODEL3)
