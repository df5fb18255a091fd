"""Trajectory sampler and ensemble aggregation tests.

Statistical assertions use wide (4-5 sigma) bands around closed-form
references so they are deterministic for the pinned seeds yet would
catch a genuinely wrong sampler.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq
from scipy.stats import kstwo

from memstoch import (ConstantDriveParams, MemristorModel, Waveform,
                      p0_constant_voltage, rc_charge_wave, run_ensemble,
                      series_mc, simulate_trajectory)
from memstoch import mc
from memstoch.analytic import initial_hazard
from memstoch.circuit import (Capacitor, CircuitState, Memristor, Netlist, Resistor,
                              VoltageSource, affine_dynamics, parse_netlist)
from memstoch.device import switching_rate
from test_analytic import rc_charge


@pytest.fixture
def params():
    return ConstantDriveParams.figure2()


@pytest.fixture
def model(params):
    return MemristorModel.binary(params.R0, params.R1, params.tau0, params.V0)


@pytest.fixture
def netlist(params, model):
    return series_mc(model, params.C, Waveform.constant(params.Va), params.q0)


def frozen(params):
    return MemristorModel.binary(params.R0, params.R1, 1e300, params.V0)


# ------------------------------------------------------------ hazard math

def hazard_accumulate(model, state, vm_of_t, t0, t1, threshold, rtol=1e-10):
    """Reference inversion by adaptive quadrature and root finding: the
    time at which the exit hazard of `state` along the voltage vm_of_t
    reaches `threshold`, or None if [t0, t1] does not accumulate it."""
    if t1 <= t0:
        return None

    def rate(t):
        return model.total_exit_rate(state, vm_of_t(t))

    total, _ = quad(rate, t0, t1, epsrel=rtol, epsabs=1e-300, limit=400)
    if total < threshold:
        return None

    def objective(t):
        part, _ = quad(rate, t0, t, epsrel=rtol, epsabs=1e-300, limit=400)
        return part - threshold

    xtol = max(1e-9 * (t1 - t0), 1e-18)
    return float(brentq(objective, t0, t1, xtol=xtol, rtol=8.9e-16))


def test_hazard_inversion_constant_rate(model):
    # constant voltage -> homogeneous Poisson clock: crossing time is
    # threshold / rate
    gamma = float(switching_rate(0.35, *model.transitions[:, 0], model.rate_ceiling))
    thr = 0.5
    t = hazard_accumulate(model, 0, lambda _t: 0.35, 2.0, 2.0 + 1.0, thr)
    assert t == pytest.approx(2.0 + thr / gamma, rel=1e-9)


def test_hazard_exhausted_returns_none(model):
    assert hazard_accumulate(model, 0, lambda t: -0.1, 0.0, 1.0, 0.5) is None
    # reverse-biased state 1 does fire
    t = hazard_accumulate(model, 1, lambda t: -0.35, 0.0, 1.0, 0.001)
    assert t is not None and 0.0 < t < 1.0


def test_hazard_inversion_time_varying(model):
    # linearly decaying voltage: check against a dense numeric inversion
    vm = lambda t: 0.35 - 0.3 * t
    ts = np.linspace(0.0, 1.0, 20001)
    rates = np.array([model.total_exit_rate(0, float(v)) for v in vm(ts)])
    cum = np.concatenate([[0.0], np.cumsum((rates[1:] + rates[:-1]) / 2 * np.diff(ts))])
    thr = 0.7 * cum[-1]
    expected = float(np.interp(thr, cum, ts))
    got = hazard_accumulate(model, 0, vm, 0.0, 1.0, thr)
    assert got == pytest.approx(expected, abs=2e-4)


# ------------------------------------------------------------ trajectories

def test_trajectory_bitwise_reproducible(netlist):
    times = np.linspace(0.0, 0.02, 11)
    a = simulate_trajectory(netlist, netlist.initial_state(), 0.02, 1234, times)
    b = simulate_trajectory(netlist, netlist.initial_state(), 0.02, 1234, times)
    assert a.events == b.events
    assert np.array_equal(a.sample_charges, b.sample_charges)
    assert np.array_equal(a.sample_states, b.sample_states)
    c = simulate_trajectory(netlist, netlist.initial_state(), 0.02, 1235, times)
    assert a.events != c.events or not np.array_equal(a.sample_charges,
                                                     c.sample_charges)


def test_trajectory_deterministic_limit(params):
    # switching off: the sampled charge is the exact RC transient
    net = series_mc(frozen(params), params.C, Waveform.constant(params.Va),
                    params.q0)
    times = np.linspace(0.0, 0.3, 16)
    rec = simulate_trajectory(net, net.initial_state(), 0.3, 7, times)
    assert rec.events == []
    for t, q in zip(rec.sample_times, rec.sample_charges[:, 0]):
        assert q == pytest.approx(rc_charge(params, params.R0, float(t)),
                                  rel=1e-12, abs=1e-18)


def test_trajectory_charge_stays_bounded(netlist, params):
    rec = simulate_trajectory(netlist, netlist.initial_state(), 0.05, 99,
                              np.linspace(0, 0.05, 26))
    qmax = params.C * params.Va
    assert np.all(rec.sample_charges[:, 0] >= -1e-20)
    assert np.all(rec.sample_charges[:, 0] <= qmax * (1 + 1e-9))


def test_event_record_structure(netlist):
    rec = simulate_trajectory(netlist, netlist.initial_state(), 0.05, 3,
                              [0.05])
    for (t, m, old, new) in rec.events:
        assert 0.0 <= t <= 0.05 and m == 0 and (old, new) == (0, 1)
    assert rec.final_state.memristor_states[0] in (0, 1)


def test_records_without_a_capacitor():
    # a memristor across the ideal source alone (K = 0): no charges, no
    # histograms, and the states of the one trajectory at each output
    net = parse_netlist(f"V1 in 0 DC 0.35\nM1 in 0 {DEV}\n")
    times = np.linspace(0.0, 0.005, 4)
    rec = simulate_trajectory(net, net.initial_state(), 0.005, 3, times)
    assert rec.sample_charges.shape == (4, 0) and rec.sample_states.shape == (4, 1)
    switched = [t for t, *_ in rec.events]
    assert np.array_equal(rec.sample_states[:, 0], [sum(t < x for t in switched) for x in times])
    stats = run_ensemble(net, net.initial_state(), 0.005, times, 200, 3)
    assert stats.histograms == [] and np.all(stats.occupancy[0].sum(axis=1) == 1.0)


def test_trajectory_refuses_an_output_time_before_the_initial_time(netlist):
    with pytest.raises(ValueError, match="before the initial time"):
        simulate_trajectory(netlist, netlist.initial_state(), 0.01, 1, [-0.005, 0.005])
    with pytest.raises(ValueError, match="output times must be finite"):
        simulate_trajectory(netlist, netlist.initial_state(), 0.01, 1, [math.nan, 0.005])
    with pytest.raises(ValueError, match="t_end must exceed the initial time"):
        simulate_trajectory(netlist, netlist.initial_state(), 0.0, 1)


def test_trajectory_refuses_an_output_time_after_t_end(netlist):
    with pytest.raises(ValueError, match="output time after t_end"):
        simulate_trajectory(netlist, netlist.initial_state(), 0.01, 1, [0.005, 0.02])
    # unchecked, t_end = inf under a sine never ends and nan returns nan rows
    sine = series_mc(netlist.memristors[0].model, 1e-6, Waveform.sine(0.0, 0.4, 200.0))
    for t_end in (math.inf, math.nan):
        with pytest.raises(ValueError, match="t_end must be finite"):
            simulate_trajectory(sine, sine.initial_state(), t_end, 1)


# ------------------------------------------------------------- ensembles

def test_ensemble_occupancy_tracks_survival(netlist, params):
    times = np.linspace(0.0, 0.02, 9)
    stats = run_ensemble(netlist, netlist.initial_state(), 0.02, times,
                         4000, master_seed=11)
    ref = np.array([p0_constant_voltage(params, float(t)) for t in stats.times])
    occ = stats.occupancy[0]
    dev = np.abs(occ[:, 0] - ref)
    band = 4.0 * np.maximum(stats.stderr[0][:, 0], 1e-3)
    assert np.all(dev <= band)
    # probabilities sum to one exactly (counts over a common n)
    assert np.all(occ.sum(axis=1) == 1.0)
    assert stats.events_down == 0  # forward-biased throughout


def _with_rc_branch(net, initial=None):
    """The netlist with a second capacitor charged through 10 kOhm from the
    first source (K = 2), and `initial` (or its initial state) with that
    capacitor empty: the ideal source keeps the device's law as it was,
    while the kernels run on two modes."""
    src = net.sources[0]
    wide = Netlist(net.sources, net.resistors + (Resistor("R9", src.node_plus, "z9", 1e4),),
                   net.capacitors + (Capacitor("C9", "z9", src.node_minus, 1e-6),),
                   net.memristors)
    initial = net.initial_state() if initial is None else initial
    return wide, CircuitState(initial.memristor_states, initial.capacitor_charges + (0.0,),
                              initial.time)


def test_ensemble_bitwise_reproducible(netlist):
    times = np.linspace(0.0, 0.01, 5)
    runs = [run_ensemble(netlist, netlist.initial_state(), 0.01, times,
                         800, master_seed=21) for _ in range(2)]
    assert np.array_equal(runs[0].occupancy[0], runs[1].occupancy[0])
    assert np.array_equal(runs[0].first_event_times, runs[1].first_event_times,
                          equal_nan=True)
    h0, e0 = runs[0].histograms[-1]
    h1, e1 = runs[1].histograms[-1]
    assert np.array_equal(h0, h1) and np.array_equal(e0, e1)


def test_mean_first_switch_time(netlist, params):
    stats = run_ensemble(netlist, netlist.initial_state(), 1.0,
                         [0.0, 0.5, 1.0], 3000, master_seed=31)
    # 5.3 ms with a ~T1/sqrt(n_switched) standard error
    assert stats.mean_first_switch_time() == pytest.approx(5.26e-3, rel=0.10)
    with pytest.raises(ValueError):
        mc.EnsembleStats(stats.times, stats.occupancy, stats.stderr,
                         stats.histograms, stats.n).mean_first_switch_time()


def test_histogram_counts_match_occupancy(netlist):
    times = [0.0, 0.01]
    stats = run_ensemble(netlist, netlist.initial_state(), 0.01, times,
                         500, master_seed=8, histogram_bins=20)
    counts, edges = stats.histograms[-1]
    assert counts.shape == (2, 20) and len(edges) == 21
    assert counts.sum() == 500
    # per-state totals consistent with the occupancy estimate
    assert counts[0].sum() / 500 == pytest.approx(stats.occupancy[0][-1, 0])


def test_ensemble_input_validation(netlist):
    for n, bins in [(0, 50), (2.5, 50), (10, 0), (10, -1)]:
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            run_ensemble(netlist, netlist.initial_state(), 0.01, [0.01], n, 1,
                         histogram_bins=bins)


DIVIDER_TEXT = """
V1 in 0 DC 1.0
R1 in a 20k
M1 a b STATES=2 R=100k,10k TAUUP=300k VUP=0.02 TAUDOWN=300k VDOWN=0.02
C1 b 0 1u
"""


@pytest.mark.parametrize("path", ["constant", "thinning", "netlist"])
def test_ensemble_refuses_output_times_outside_the_run(params, model, path):
    # unchecked, an output after t_end makes thinning run past t_end;
    # t_end = inf under a sine never ends, and a nan time returns a nan row
    # ("netlist": the device behind a divider)
    net = {"constant": lambda: series_mc(model, params.C, Waveform.constant(params.Va)),
           "thinning": lambda: series_mc(model, params.C, Waveform.sine(0.0, 0.4, 200.0)),
           "netlist": lambda: parse_netlist(DIVIDER_TEXT)}[path]()
    with pytest.raises(ValueError, match="output time after t_end"):
        run_ensemble(net, net.initial_state(), 0.01, [0.005, 0.02], 10, 1)
    with pytest.raises(ValueError, match="output time before the initial time"):
        run_ensemble(net, net.initial_state(), 0.01, [-0.005, 0.005], 10, 1)
    for t_end in (math.inf, math.nan):
        with pytest.raises(ValueError, match="t_end must be finite"):
            run_ensemble(net, net.initial_state(), t_end, [0.005], 10, 1)
    with pytest.raises(ValueError, match="output times must be finite"):
        run_ensemble(net, net.initial_state(), 0.01, [0.005, math.nan], 10, 1)
    with pytest.raises(ValueError, match="t_end must exceed the initial time"):
        run_ensemble(net, net.initial_state(), 0.0, [0.0], 10, 1)


# ------------------------------------------------- beyond the series loop

TWO_MEM_TEXT = """
V1 in 0 DC 0.8
M1 in a STATES=2 R=100k,10k TAUUP=300k VUP=0.02 TAUDOWN=300k VDOWN=0.02
M2 a b STATES=2 R=100k,10k TAUUP=300k VUP=0.02 TAUDOWN=300k VDOWN=0.02
C1 b 0 1u
"""


def test_two_memristor_chain_switches():
    net = parse_netlist(TWO_MEM_TEXT)
    times = np.linspace(0.0, 0.05, 6)
    stats = run_ensemble(net, net.initial_state(), 0.05, times, 60,
                         master_seed=17)
    assert len(stats.occupancy) == 2
    # strong forward drive: most devices reach state 1 by the end
    assert stats.occupancy[0][-1, 1] > 0.5
    assert stats.occupancy[1][-1, 1] > 0.5
    assert stats.events_down == 0
    assert stats.n_failed == 0
    for occ in stats.occupancy:
        assert np.all(occ.sum(axis=1) == 1.0)


def test_two_memristor_chain_reproducible():
    net = parse_netlist(TWO_MEM_TEXT)
    a = run_ensemble(net, net.initial_state(), 0.02, [0.02], 25, master_seed=2)
    b = run_ensemble(net, net.initial_state(), 0.02, [0.02], 25, master_seed=2)
    assert np.array_equal(a.occupancy[0], b.occupancy[0])
    assert np.array_equal(a.occupancy[1], b.occupancy[1])


def test_resistor_divider_circuit_runs():
    # memristor fed through a resistive divider: exercises the generic
    # MNA path where the source is not directly across the device
    net = parse_netlist(DIVIDER_TEXT)
    rec = simulate_trajectory(net, net.initial_state(), 0.05, 123,
                              np.linspace(0, 0.05, 11))
    assert rec.sample_charges[-1, 0] > 0.0


def test_memristor_free_netlist_is_its_rc_charge():
    # no clocks: the envelope sits at its floor, without warnings, and the
    # charge is the closed-form RC charge under the sine
    net = parse_netlist("V1 in 0 SIN 0 0.4 200\nR1 in a 10k\nC1 a 0 1u")
    times = np.linspace(0.0, 0.01, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = simulate_trajectory(net, net.initial_state(), 0.01, 5, times)
    assert rec.events == [] and rec.sample_states.shape == (11, 0)
    ref = [rc_charge_wave(0.0, 1e-6, 1e4, net.sources[0].waveform, t) for t in times]
    assert rec.sample_charges[:, 0] == pytest.approx(ref, rel=1e-12, abs=1e-20)


def test_memristors_across_sources_switch_at_constant_rates():
    # no capacitor: each device sees the source, so its clock has the
    # constant rate e^{V/V_up}/tau_up and p0 = exp(-t e^{V/V_up}/tau_up)
    net = parse_netlist("""
V1 in 0 DC 0.3
M1 in 0 STATES=2 R=100k,10k TAUUP=300k VUP=0.02 TAUDOWN=300k VDOWN=0.02
M2 in 0 STATES=2 R=100k,10k TAUUP=300k VUP=0.02 TAUDOWN=300k VDOWN=0.02
""")
    times = np.linspace(0.0, 0.2, 6)
    stats = run_ensemble(net, net.initial_state(), 0.2, times, 2000, master_seed=5)
    ref = np.exp(-times * math.exp(0.3 / 0.02) / 3e5)
    for occ, se in zip(stats.occupancy, stats.stderr):
        assert np.all(np.abs(occ[:, 0] - ref) <= 5.0 * np.maximum(se[:, 0], 1e-3))
    assert stats.n_failed == 0 and stats.events_down == 0


SIN_PAIR_TEXT = """
V1 in 0 SIN 0 0.3 50
M1 in 0 STATES=2 R=100k,10k TAUUP=300k VUP=0.02 TAUDOWN=300k VDOWN=0.02
M2 in 0 STATES=2 R=100k,10k TAUUP=300k VUP=0.02 TAUDOWN=300k VDOWN=0.02
"""


@pytest.mark.parametrize("dt", [0.04, 0.001])
def test_sine_step_control_does_not_depend_on_the_output_grid(dt):
    # no capacitor: each device sees the sine itself, so dvm/dt is the
    # source's own slope; 40 ms outputs put every Simpson node of a step
    # that ignores it on a zero crossing.  p0 solves the two-state master
    # equation with the rates of +-v
    net = parse_netlist(SIN_PAIR_TEXT)
    t_end, n = 0.12, 2000
    times = np.arange(1, round(t_end / dt) + 1) * dt

    def rhs(t, p):
        v = 0.3 * math.sin(2.0 * math.pi * 50.0 * t)
        up, down = (math.exp(abs(v) / 0.02) / 3e5 * (x > 0.0) for x in (v, -v))
        return [-up * p[0] + down * (1.0 - p[0])]

    ref = solve_ivp(rhs, (0.0, t_end), [1.0], t_eval=times, rtol=1e-11, atol=1e-13,
                    max_step=1e-4).y[0]
    stats = run_ensemble(net, net.initial_state(), t_end, times, n, master_seed=31)
    assert stats.n_failed == 0
    assert np.array_equal(stats.times, times)
    for occ in stats.occupancy:
        assert np.all(np.abs(occ[:, 0] - ref) <= 4.0 * np.sqrt(ref * (1.0 - ref) / n))


def _ladder(wave):
    # two capacitors in series behind a memristor: q1 - q2 never changes,
    # so A is singular
    m = MemristorModel.binary(1e5, 1e4, 10.0, 0.05)
    return Netlist(sources=(VoltageSource("V1", "in", "0", wave),), resistors=(),
                   capacitors=(Capacitor("C1", "a", "b", 1e-7, 2e-8),
                               Capacitor("C2", "b", "0", 4.7e-8, -5e-9)),
                   memristors=(Memristor("M1", "in", "a", m),))


FLOW_WAVES = {
    "constant": (Waveform.constant(0.35), [0.03]),
    "step": (Waveform.step(0.4, 1e-3, -0.2), [1e-3]),
    "pwl": (Waveform.pwl([(0.0, 0.0), (1e-3, 0.4), (2.5e-3, -0.3), (4e-3, -0.3)]),
            [1e-3, 2.5e-3, 4e-3]),
    "sine": (Waveform.sine(0.05, 0.4, 200.0), []),
}


def _source_mp(wave, t0):
    """u -> v(t0 + u) in mpmath on the piece of the waveform that starts at t0."""
    if wave.kind == "sine":
        return lambda u: wave.offset + wave.amplitude * mpmath.sin(
            2 * mpmath.pi * wave.frequency * (t0 + u))
    if wave.kind == "pwl":
        pts = [(mpmath.mpf(a), mpmath.mpf(b)) for a, b in wave.breakpoints]
        i = max(k for k, (a, _) in enumerate(pts) if a <= t0)
        if i + 1 < len(pts):
            (ta, va), (tb, vb) = pts[i], pts[i + 1]
            return lambda u: va + (vb - va) * (t0 + u - ta) / (tb - ta)
    return lambda u: mpmath.mpf(float(wave(t0)))


# two sources: a sine on one branch and a PWL on the other, the branches
# coupled through R3 (K = 2, S = 2)
TWO_SOURCE_TEXT = """
V1 a 0 SIN 0.05 0.4 200
V2 b 0 PWL 0 0 1m 0.4 2.5m -0.3 4m -0.3
M1 a x STATES=2 R=100k,10k TAUUP=10 VUP=0.05 TAUDOWN=10 VDOWN=0.05
C1 x 0 100n IC=20n
M2 b y STATES=2 R=100k,10k TAUUP=10 VUP=0.05 TAUDOWN=10 VDOWN=0.05
C2 y 0 47n IC=-5n
R3 x y 50k
"""


@pytest.mark.parametrize("kind, circuit", [(k, c) for c in ("series", "ladder") for k in FLOW_WAVES]
                         + [("sine_pwl", "two_source")])
def test_flow_matches_the_variation_of_constants_integral(kind, circuit):
    # q(t + s) = e^{A s} q(t) + int_0^s e^{A (s - u)} B v(t + u) du, by
    # mpmath quadrature in each eigenmode of A, from starts on and between
    # breakpoints, over spans that end at most at the next one; the
    # shortest have |lam s| < 1e-3
    if circuit == "two_source":
        net = parse_netlist(TWO_SOURCE_TEXT)
        knots = sorted({b for s in net.sources for b in s.waveform.breakpoint_times()})
    else:
        wave, knots = FLOW_WAVES[kind]
        net = series_mc(MemristorModel.binary(1e5, 1e4, 10.0, 0.05), 1e-7, wave, 2e-8) \
            if circuit == "series" else _ladder(wave)
    waves = [s.waveform for s in net.sources]
    eng = mc._Ensemble(net, 1, 0)
    state = np.zeros((1, eng.M), dtype=np.int64)
    rows, d = eng._rows_of(state), affine_dynamics(net, state)
    tol = 1e-13 * max(c.capacitance for c in net.capacitors) * max(
        np.abs(w.bounds(0.05)).max() for w in waves)
    q0 = np.array([[c.initial_charge for c in net.capacitors]])
    starts, spans, exact = [], [], []
    with mpmath.workdps(25):
        lam, vec = mpmath.eig(mpmath.matrix(d.A[0].tolist()))
        if circuit == "ladder":
            assert min(abs(x) for x in lam) < 1e-9
        inv = mpmath.inverse(vec)
        b, y0 = inv * mpmath.matrix(d.B[0].tolist()), inv * mpmath.matrix(q0[0].tolist())
        for t in [0.0, 4e-4] + knots:
            end = min([x for x in knots if x > t], default=t + 0.03)
            vs = [_source_mp(w, t) for w in waves]
            for s in [3e-7, 5e-6, min(2e-4, end - t), end - t]:
                y = [mpmath.exp(lam[k] * s) * y0[k] + sum(b[k, j] * mpmath.quad(
                    lambda u: mpmath.exp(lam[k] * (s - u)) * v(u), mpmath.linspace(0, s, 9))
                    for j, v in enumerate(vs)) for k in range(eng.K)]
                starts.append(t)
                spans.append(s)
                exact.append([float(x) for x in vec * mpmath.matrix(y)])
    starts, spans, exact = np.array(starts), np.array(spans), np.array(exact)
    assert np.abs(eng.par[:eng.K, rows[0]]).max() * spans.min() < 1e-3

    def flow(r, q, t, s):
        """The flow from charges q at t over s, through the transient at t."""
        dev = eng.dev
        q_p = dev.forced(r, dev.segment(t), slice(eng.K), t).T
        vinv = eng.par[eng.flow_rows:eng.flow_rows + eng.K ** 2, r].reshape(eng.K, eng.K, -1)
        y = np.einsum("klr,rl->rk", vinv, q - q_p)
        return eng._flow(r, None, t, y, t + s)[0]

    # one start per call and every start at once
    one = np.array([flow(rows, q0, np.array([t]), s)[0] for t, s in zip(starts, spans)])
    many = flow(np.repeat(rows, starts.size), np.repeat(q0, starts.size, axis=0), starts, spans)
    assert np.abs(one - exact).max() <= tol
    assert np.abs(many - exact).max() <= tol


def test_a_stiff_network_keeps_its_slow_driven_mode():
    # C1 charges through M1 (tau = 0.1 s) beside a 0.1 Ohm / 0.1 pF branch
    # (tau = 1e-14 s): C1's lam is 1e-13 of the fast one's, at round-off
    # beside it, but its mode is driven, so C1 charges as an RC circuit does
    m = MemristorModel.binary(1e5, 1e4, 1e30, 0.05)
    net = Netlist(sources=(VoltageSource("V1", "in", "0", Waveform.constant(1.0)),),
                  resistors=(Resistor("R2", "in", "b", 0.1),),
                  capacitors=(Capacitor("C1", "a", "0", 1e-6), Capacitor("C2", "b", "0", 1e-13)),
                  memristors=(Memristor("M1", "in", "a", m),))
    times = np.linspace(0.0, 0.3, 4)
    rec = simulate_trajectory(net, net.initial_state(), 0.3, 1, times)
    assert rec.events == []
    expected = np.stack((-1e-6 * np.expm1(-times / 0.1), np.where(times > 0.0, 1e-13, 0.0)), axis=1)
    np.testing.assert_allclose(rec.sample_charges, expected, rtol=1e-12, atol=1e-24)


def test_trajectories_fail_alone():
    # before the 1 ms step to 2 V, M1 switches to 1 kOhm in about half
    # the trajectories; in those the step puts some 1 V on M2, whose rate
    # (~1e18 /s) the thinning draws exactly: M2 switches right after the
    # step, and every trajectory finishes
    m1 = MemristorModel.binary(1e6, 1e3, 1.95e-3, 1.0)
    m2 = MemristorModel.binary(1e3, 1e3, 1e3, 0.02)
    net = Netlist(sources=(VoltageSource("V1", "in", "0", Waveform.step(2.0, 1e-3, 0.3)),),
                  resistors=(), capacitors=(Capacitor("C1", "b", "0", 1e-6),),
                  memristors=(Memristor("M1", "in", "a", m1), Memristor("M2", "a", "b", m2)))
    stats = run_ensemble(net, net.initial_state(), 2e-3, np.linspace(0.0, 2e-3, 5),
                         400, master_seed=9)
    assert stats.n_failed == 0 and stats.n == 400
    for occ in stats.occupancy:
        assert np.all(occ.sum(axis=1) == 1.0)
    assert stats.occupancy[1][-1, 1] > 0.5


def test_boundary_states_jump_inward_under_reverse_bias():
    # 3-state device under a +-0.4 V sine: with this seed a state-0 event
    # lands where vm is slightly negative; state 0 must still jump up
    model = MemristorModel.uniform((1e5, 3e4, 1e4), 10.0, 0.05)
    net = series_mc(model, 1e-7, Waveform.sine(0.0, 0.4, 200.0))
    stats = run_ensemble(net, net.initial_state(), 0.005,
                         np.linspace(0.0, 0.005, 21), 20_000, master_seed=101)
    assert stats.n_failed == 0
    assert stats.events_down > 0
    assert np.allclose(stats.occupancy[0].sum(axis=1), 1.0, rtol=0, atol=1e-12)


# ------------------------------------------------------------------ draws

def test_threshold_streams_are_keyed_by_round_and_clock():
    # draw k of trajectory i is entry i of Philox stream [master_seed, k]:
    # candidate round r reads its acceptance from stream 2r + 1 and the
    # next spacing from stream 2r + 2, whatever the other trajectories do
    th = mc._Thresholds(99, 50)
    got = th.take(np.array([7, 42, 3]), np.array([5, 2, 5]))
    expect = [np.random.Generator(np.random.Philox(key=[99, k])).exponential(size=50)[i]
              for i, k in ((7, 5), (42, 2), (3, 5))]
    assert np.array_equal(got, expect)
    assert np.array_equal(th.take(np.array([7, 3]), np.array([5, 5])), expect[::2])


def _figure2_at(params, va, **model_kw):
    model = MemristorModel.binary(params.R0, params.R1, params.tau0, params.V0,
                                  **model_kw)
    return series_mc(model, params.C, Waveform.constant(va))


SHUNTED_TEXT = """
V1 in 0 DC 0.4
M1 in n1 STATES=2 R=100k,10k TAUUP=10 VUP=0.03 TAUDOWN=10 VDOWN=0.03 STATE=0
C1 n1 0 100n IC=35n
R2 n1 0 100k
"""

CUT_OFF_TEXT = """
V1 in 0 DC 0.3
M1 in 0 STATES=2 R=100k,10k TAUUP=10 VUP=0.03 TAUDOWN=10 VDOWN=0.03 STATE=0
C1 n1 0 100n
R2 n1 0 100k
"""


@pytest.mark.parametrize("path", ["thinning", "netlist"])
def test_rate_ceiling_hits_count_the_capped_rates(params, path):
    # the Figure-2 device under a sine about 0.35 V: its rates stay below
    # the default ceiling, while a ceiling of 100 /s caps them near the
    # crests; "netlist" adds a second capacitor (`_with_rc_branch`)
    counts = []
    for ceiling in (1e30, 100.0):
        model = MemristorModel.binary(params.R0, params.R1, params.tau0, params.V0,
                                      rate_ceiling=ceiling)
        net = series_mc(model, params.C, Waveform.sine(0.35, 0.05, 50.0))
        net, initial = _with_rc_branch(net) if path == "netlist" else (net, net.initial_state())
        stats = run_ensemble(net, initial, 0.01, [0.01], 200, 3)
        counts.append(stats.diagnostics["rate_ceiling_hits"])
    assert counts[0] == 0 and counts[1] > 0


@pytest.mark.parametrize("wave", [Waveform.constant(0.35), Waveform.sine(0.0, 0.4, 200.0)])
def test_engine_reruns_are_bit_identical(params, wave):
    # a rerun must not see thresholds the first run drew over
    model = MemristorModel.uniform((1e5, 3e4, 1e4), 10.0, 0.05)
    net = series_mc(model, 1e-7 if wave.kind == "sine" else params.C, wave)
    t_end = 0.005 if wave.kind == "sine" else 1.0
    times = np.linspace(0.0, t_end, 5)
    eng = mc._Ensemble(net, 1000, 7, 20)
    a = eng.run(net.initial_state(), times)
    b = eng.run(net.initial_state(), times)
    assert np.array_equal(a.occupancy[0], b.occupancy[0])
    assert np.array_equal(a.first_event_times, b.first_event_times, equal_nan=True)
    assert all(np.array_equal(ha, hb) for (ha, _), (hb, _) in zip(a.histograms, b.histograms))


# ---------------------------------- thinning: first events against mpmath

SINE3 = MemristorModel.uniform((1e5, 3e4, 1e4), 10.0, 0.05)
REVERSING_PWL = Waveform.pwl([(0.0, 0.0), (0.002, 0.45), (0.004, -0.45), (0.006, 0.1)])


def _sine3_net():
    return series_mc(SINE3, 1e-7, Waveform.sine(0.0, 0.4, 200.0))


def _series_state0_rate(model, C, wave, r_series=0.0):
    """The exit rate of state 0 of the series circuit (with r_series in
    series with the device) started at q = 0, as an mpmath function of t:
    tau dq/dt + q = C v(t) with tau = (R0 + r_series) C, solved in closed
    form per sine or PWL segment, and vm = R0 / (R0 + r_series) (v - q / C)."""
    mp = mpmath
    r0 = mp.mpf(model.resistances[0])
    tau, share = (r0 + r_series) * C, r0 / (r0 + r_series)
    v_up, tau_up = mp.mpf(model.v_up[0]), mp.mpf(model.tau_up[0])
    if wave.kind == "sine":
        off, amp = mp.mpf(wave.offset), mp.mpf(wave.amplitude)
        om = 2 * mp.pi * wave.frequency
        wt = om * tau

        def vm(t):
            q = C * (off * (1 - mp.exp(-t / tau)) + amp * (
                mp.sin(om * t) - wt * mp.cos(om * t) + wt * mp.exp(-t / tau)) / (1 + wt ** 2))
            return share * (off + amp * mp.sin(om * t) - q / C)
    else:
        knots = [(mp.mpf(a), mp.mpf(b)) for a, b in wave.breakpoints]
        segments, q0 = [], mp.mpf(0)
        for (t0, v0), (t1, v1) in zip(knots, knots[1:] + [(mp.inf, knots[-1][1])]):
            k = (v1 - v0) / (t1 - t0) if t1 < mp.inf else mp.mpf(0)
            # on [t0, t1]: q = C (v - k tau) + (q0 - C (v0 - k tau)) e^{-(t - t0)/tau}
            segments.append((t0, v0, k, q0))
            if t1 < mp.inf:
                q0 = C * (v1 - k * tau) + (q0 - C * (v0 - k * tau)) * mp.exp(-(t1 - t0) / tau)

        def vm(t):
            t0, v0, k, q0 = [seg for seg in segments if seg[0] <= t][-1]
            v = v0 + k * (t - t0)
            return share * (v - (C * (v - k * tau) + (q0 - C * (v0 - k * tau))
                                 * mp.exp(-(t - t0) / tau)) / C)

    def rate(t):
        x = vm(t)
        return mp.exp(x / v_up) / tau_up if x > 0 else mp.mpf(0)
    return rate


def _quad_hazard(rate):
    """nodes -> H, the mpmath integral of rate from 0, computed at the nodes
    and interpolated by cubic Hermite with H' = rate."""
    def at(nodes):
        with mpmath.workdps(15):
            pieces = [mpmath.quad(rate, [a, b]) for a, b in zip(nodes[:-1], nodes[1:])]
            h = np.concatenate([[0.0], np.cumsum([float(x) for x in pieces])])
            dh = np.array([float(rate(mpmath.mpf(float(x)))) for x in nodes])
        return CubicHermiteSpline(nodes, h, dh)
    return at


SIGN_CHANGE_TEXT = """
V1 in 0 DC 0.4
M1 in n1 STATES=3 R=100k,30k,10k TAUUP=10,10 VUP=0.03,0.03 TAUDOWN=10,10 VDOWN=0.03,0.03 STATE=1
C1 n1 0 100n IC=70n
R2 n1 0 30k
"""


def _ks_first_events(first, t_end, hazard_at, knots=()):
    """KS distance of the first events `first` (nan = none by t_end) from
    P(T1 <= t) = 1 - exp(-H(t)), its bound at level 1e-6, and the z-score
    of the mean of min(T1, t_end) against the integral of exp(-H) over
    [0, t_end].  hazard_at(nodes) gives H as a function of t; the nodes are
    sample quantiles, the last sample, the knots and the ends."""
    t1 = np.sort(first[~np.isnan(first)])
    n, m = first.size, t1.size
    knots = [b for b in knots if 0.0 < b < t_end]
    nodes = np.unique(np.concatenate([[0.0, t_end], t1[::max(1, m // 100)], t1[-1:], knots]))
    hazard = hazard_at(nodes)
    cdf = -np.expm1(-hazard(t1))
    i = np.arange(1, m + 1)
    d = max(np.max(i / n - cdf, initial=0.0), np.max(cdf - (i - 1) / n, initial=0.0),
            abs(m / n + np.expm1(-float(hazard(t_end)))))
    x, wx = np.polynomial.legendre.leggauss(8)
    a, b = nodes[:-1, None], nodes[1:, None]
    mean = np.sum((b - a) / 2 * wx * np.exp(-hazard((a + b) / 2 + (b - a) / 2 * x)))
    capped = np.fmin(first, t_end)
    return d, kstwo.isf(1e-6, n), (capped.mean() - mean) / (capped.std() / math.sqrt(n))


def _closed_hazard(net, initial):
    """nodes -> H, the closed-form hazard (`analytic.initial_hazard`) of
    leaving the netlist's initial state from the initial charge; its mpmath
    check is in test_analytic.py."""
    return lambda nodes: lambda t: initial_hazard(net, t, initial.capacitor_charges[0])


KS_CASES = ["sine_three_state", "figure2_strong_sine", "pwl_three_state_reversing",
            "figure2_0.35V", "figure2_0.9V", "shunted", "sign_change", "cut_off",
            "at_asymptote", "step_shift", "rate_ceiling"]


def _ks_case(case, params, model):
    """A first-event law: netlist, initial state, t_end, hazard_at and knots."""
    drives = {"sine_three_state": (SINE3, 1e-7, Waveform.sine(0.0, 0.4, 200.0), 0.005),
              "figure2_strong_sine": (model, params.C, Waveform.sine(0.9, 0.05, 50.0), 0.01),
              "pwl_three_state_reversing": (SINE3, 1e-7, REVERSING_PWL, 0.006)}
    if case in drives:
        m, C, wave, t_end = drives[case]
        net = series_mc(m, C, wave)
        return (net, net.initial_state(), t_end, _quad_hazard(_series_state0_rate(m, C, wave)),
                wave.breakpoint_times())
    if case in ("figure2_0.35V", "figure2_0.9V"):     # vm = va e^{-t / (R0 C)}
        net, t_end, knots = _figure2_at(params, float(case[8:-1])), 0.05, ()
    elif case == "rate_ceiling":
        # at 0.35 V the rate starts at 130 /s; a ceiling of 100 /s holds it
        # until the relaxing voltage brings it below
        net, t_end, knots = _figure2_at(params, params.Va, rate_ceiling=100.0), 0.05, ()
    elif case == "step_shift":      # the constant drive's law, 10 ms later
        net = series_mc(model, params.C, Waveform.step(params.Va, 0.01))
        t_end, knots = 0.06, (0.01,)
    elif case == "shunted":
        # the shunt halves the drive: vm starts at 0.4 - 0.35 = 0.05 V and
        # relaxes up to 0.2 V with tau = 100 nF * (100k || 100k) = 5 ms
        net, t_end, knots = parse_netlist(SHUNTED_TEXT), 0.02, ()
    elif case == "sign_change":
        # the capacitor starts at 0.7 V, so vm = -0.3 V (down events) and
        # rises through zero at 1.5 ms ln 2.5 towards +0.2 V (up events)
        net, t_end, knots = parse_netlist(SIGN_CHANGE_TEXT), 0.005, (1.5e-3 * math.log(2.5),)
    elif case == "cut_off":
        # the capacitor has no path to the device (Dq = 0): vm = 0.3 V
        net, t_end, knots = parse_netlist(CUT_OFF_TEXT), 0.05, ()
    else:
        # the shunted circuit started on its fixed point (20 nC): vm = 0.2 V
        net, t_end, knots = parse_netlist(SHUNTED_TEXT), 0.05, ()
    initial = CircuitState((0,), (2e-8,)) if case == "at_asymptote" else net.initial_state()
    return net, initial, t_end, _closed_hazard(net, initial), knots


def _check_ks(params, model, case, capacitors):
    net, initial, t_end, hazard_at, knots = _ks_case(case, params, model)
    n = 100_000
    if capacitors == 2:
        net, initial = _with_rc_branch(net, initial)
    stats = run_ensemble(net, initial, t_end, [t_end], n, master_seed=17)
    assert stats.n_failed == 0 and stats.n == n
    fired = np.isfinite(stats.first_event_times).sum()
    assert 0 < fired
    d, bound, z_mean = _ks_first_events(stats.first_event_times, t_end, hazard_at, knots)
    assert d < bound and abs(z_mean) < 5.0
    if case in ("figure2_strong_sine", "figure2_0.9V"):
        assert fired == n and np.nanmax(stats.first_event_times) < 1e-12
    if case == "sign_change":
        assert stats.events_up > 0 and stats.events_down > 0
    if case == "rate_ceiling":
        assert stats.diagnostics["rate_ceiling_hits"] > 0


@pytest.mark.parametrize("case", KS_CASES)
def test_first_events_pass_ks_against_mpmath(params, model, case):
    # before its first event every trajectory follows one deterministic
    # path, so T1 has the CDF 1 - exp(-H(t)), with H from mpmath
    # quadrature or the closed form; at 0.9 V the Figure-2 device fires
    # within about 1e-14 s, which the thinning draws exactly
    _check_ks(params, model, case, 1)


@pytest.mark.parametrize("case", KS_CASES)
def test_netlist_engine_first_events_pass_ks_against_mpmath(params, model, case):
    # the same cases with a second capacitor beside the device
    # (`_with_rc_branch`): one clock, two modes
    _check_ks(params, model, case, 2)


def test_thinning_does_not_depend_on_the_ensemble_size():
    # each trajectory reads its own entries of the counter-based streams
    # and runs through its own windows, so the first 1500 trajectories of a
    # 4000-trajectory run are those of a 1500-trajectory run
    for wave in (Waveform.sine(0.0, 0.4, 200.0), REVERSING_PWL):
        net = series_mc(SINE3, 1e-7, wave)
        times = np.linspace(0.0, 0.005, 11)
        a = run_ensemble(net, net.initial_state(), 0.005, times, 4000, master_seed=21)
        b = run_ensemble(net, net.initial_state(), 0.005, times, 1500, master_seed=21)
        assert np.array_equal(a.first_event_times[:1500], b.first_event_times, equal_nan=True)
        assert np.isfinite(b.first_event_times).sum() > 100


def test_vector_runaway_cascade_fails_alone(monkeypatch, model, params):
    # a trajectory with more than MAX_CANDIDATES thinning candidates in one
    # output interval fails, and the others finish
    net = _sine3_net()
    times = np.linspace(0.0, 0.005, 21)
    full = run_ensemble(net, net.initial_state(), 0.005, times, 2000, master_seed=100)
    assert full.n_failed == 0 and full.diagnostics["runaway_failures"] == 0
    monkeypatch.setattr(mc, "MAX_CANDIDATES", 1)
    stats = run_ensemble(net, net.initial_state(), 0.005, times, 2000, master_seed=100)
    assert 0 < stats.n_failed < 2000 and stats.n + stats.n_failed == 2000
    assert stats.diagnostics["runaway_failures"] == stats.n_failed
    assert all("more than 1 candidates within one output interval" in msg
               for _, msg in stats.failures)
    failed = [i for i, _ in stats.failures]
    assert np.all(np.isnan(stats.first_event_times[failed]))
    assert np.allclose(stats.occupancy[0].sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.array_equal(stats.stderr[0], np.sqrt(stats.occupancy[0]
                                                   * (1.0 - stats.occupancy[0]) / stats.n))
    assert all(h.sum() == stats.n for h, _ in stats.histograms)
    # every trajectory of this one switches, so with no candidate allowed
    # all of them fail
    monkeypatch.setattr(mc, "MAX_CANDIDATES", 0)
    net = series_mc(model, params.C, Waveform.sine(0.35, 0.05, 50.0))
    with pytest.raises(mc.TrajectoryFailure, match="all trajectories failed"):
        run_ensemble(net, net.initial_state(), 0.05, [0.05], 50, master_seed=1)


# ------------------------------------------ netlist thinning: two branches

DEV = "STATES=2 R=100k,10k TAUUP=300k VUP=0.02 TAUDOWN=300k VDOWN=0.02"
# the benchmark's netlist_mc circuit: branch a = M1 + C1 and branch
# b = R1 + M2 + C2, both across the ideal source V1
BRANCHES = (f"M1 in a {DEV}\nC1 a 0 1u\n", f"R1 in b 10k\nM2 b c {DEV}\nC2 c 0 1u\n")


def _two_branch(source):
    return parse_netlist(f"V1 in 0 {source}\n" + "".join(BRANCHES))


TWO_BRANCH_CASES = [("DC 0.35", 0.05), ("SIN 0 0.4 200", 0.005)]


def _first_events_of(eng, m):
    """First event times of memristor m per trajectory (nan = none)."""
    te, who, mem, _ = (np.concatenate(x) for x in zip(*eng.log))
    first = np.full(eng.n, np.nan)
    ids, at = np.unique(who[mem == m], return_index=True)
    first[ids] = te[mem == m][at]
    return first


@pytest.mark.parametrize("source, t_end", TWO_BRANCH_CASES, ids=["dc", "sine"])
def test_netlist_first_events_pass_ks(source, t_end):
    # each memristor's first event has the CDF 1 - exp(-H(t)) of its own
    # branch (K = 2).  Under DC, H is the closed form of the branch alone
    # across the source; under the sine, the mpmath integral of the rate
    # along vm = R0 / (R0 + Rs) (v - q / C), Rs = 0 (branch a) or 10k (b)
    net, n = _two_branch(source), 100_000
    device = net.memristors[0].model
    eng = mc._Ensemble(net, n, 17)
    stats = eng.run(net.initial_state(), [t_end])
    assert stats.n_failed == 0 and stats.n == n
    firsts = [_first_events_of(eng, m) for m in range(2)]
    assert np.array_equal(stats.first_event_times, np.fmin(*firsts), equal_nan=True)
    for first, branch, rs in zip(firsts, BRANCHES, (0.0, 1e4)):
        if source.startswith("DC"):     # the branch alone across the source
            alone = parse_netlist(f"V1 in 0 {source}\n{branch}")
            hazard_at = _closed_hazard(alone, alone.initial_state())
        else:
            hazard_at = _quad_hazard(_series_state0_rate(
                device, 1e-6, net.sources[0].waveform, rs))
        d, bound, z_mean = _ks_first_events(first, t_end, hazard_at)
        assert np.isfinite(first).sum() > 0.05 * n
        assert d < bound and abs(z_mean) < 5.0


@pytest.mark.parametrize("source, t_end", TWO_BRANCH_CASES, ids=["dc", "sine"])
def test_netlist_thinning_does_not_depend_on_the_ensemble_size(source, t_end):
    # as on one device: the first 150 trajectories of a 400-trajectory
    # run are those of a 150-trajectory run
    net = _two_branch(source)
    times = np.linspace(0.0, t_end, 11)
    a = run_ensemble(net, net.initial_state(), t_end, times, 400, master_seed=21)
    b = run_ensemble(net, net.initial_state(), t_end, times, 150, master_seed=21)
    assert np.array_equal(a.first_event_times[:150], b.first_event_times, equal_nan=True)
    assert np.isfinite(b.first_event_times).sum() > 30


@pytest.mark.parametrize("case", ["device", "two_branch"])
def test_idle_rows_open_one_window(params, model, case):
    # every memristor in its top state under forward drive: no clock can be
    # driven before t_end, so row 0 opens one window and draws no candidate,
    # and the run visits only the configuration it starts in
    if case == "device":
        net = series_mc(model, params.C, Waveform.constant(params.Va), initial_state=1)
    else:
        net = parse_netlist("V1 in 0 DC 0.35\n" + "".join(b.replace(DEV, DEV + " STATE=1")
                                                          for b in BRANCHES))
    stats = run_ensemble(net, net.initial_state(), 0.01, np.linspace(0.0, 0.01, 11), 100, 1)
    assert stats.diagnostics["windows"] == 1 and stats.diagnostics["candidates"] == 0
    assert stats.events_up == stats.events_down == 0
    assert stats.diagnostics["configurations"] == 1
    assert all(np.all(occ[:, -1] == 1.0) for occ in stats.occupancy)


def test_netlist_results_do_not_depend_on_earlier_runs():
    # a short run visits fewer configurations than the full one; run
    # again after it, its statistics and diagnostics are unchanged
    net = _two_branch("SIN 0 0.4 200")

    def short():
        return run_ensemble(net, net.initial_state(), 0.001, np.linspace(0.0, 0.001, 5), 20, 7)

    first = short()
    full = run_ensemble(net, net.initial_state(), 0.005, np.linspace(0.0, 0.005, 11), 2000, 7)
    again = short()
    assert first.diagnostics["configurations"] < full.diagnostics["configurations"] == 4
    assert first.diagnostics == again.diagnostics
    for a, b in zip(first.occupancy + first.stderr, again.occupancy + again.stderr):
        assert np.array_equal(a, b)
    assert all(np.array_equal(a, b) and np.array_equal(ea, eb)
               for (a, ea), (b, eb) in zip(first.histograms, again.histograms))
    assert np.array_equal(first.first_event_times, again.first_event_times, equal_nan=True)


def test_netlist_runaway_fails_alone(monkeypatch):
    # a trajectory with more than MAX_CANDIDATES thinning candidates in one
    # output interval fails, and the others finish
    net = _two_branch("SIN 0 0.4 200")
    times = np.linspace(0.0, 0.005, 21)
    full = run_ensemble(net, net.initial_state(), 0.005, times, 2000, master_seed=100)
    assert full.n_failed == 0 and full.diagnostics["runaway_failures"] == 0
    monkeypatch.setattr(mc, "MAX_CANDIDATES", 1)
    stats = run_ensemble(net, net.initial_state(), 0.005, times, 2000, master_seed=100)
    assert 0 < stats.n_failed < 2000 and stats.n + stats.n_failed == 2000
    assert stats.diagnostics["runaway_failures"] == stats.n_failed
    assert all("more than 1 candidates within one output interval" in msg
               for _, msg in stats.failures)
    assert np.all(np.isnan(stats.first_event_times[[i for i, _ in stats.failures]]))
    for occ, se in zip(stats.occupancy, stats.stderr):
        assert np.allclose(occ.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.array_equal(se, np.sqrt(occ * (1.0 - occ) / stats.n))


def _histograms_by_loop(state, q, edges, g, weight=None):
    """Reference: one np.histogram per state."""
    weight = np.ones(q.size) if weight is None else weight
    hist = np.zeros((g, edges.size - 1))
    for i in range(g):
        sel = state == i
        if sel.any():
            hist[i], _ = np.histogram(q[sel], bins=edges, weights=weight[sel])
    return hist


def test_histogram_codes_match_np_histogram():
    # charges on the edges, one ulp either side of them, inside and
    # outside them (clipped to the edges)
    rng = np.random.default_rng(3)
    for _ in range(200):
        bins = int(rng.integers(1, 60))
        edges = np.linspace(*np.sort(rng.normal(size=2)), bins + 1)
        near = np.concatenate([edges, np.nextafter(edges, -np.inf),
                               np.nextafter(edges, np.inf)])
        q = np.concatenate([rng.choice(near, 30),
                            rng.uniform(edges[0] - 0.5, edges[-1] + 0.5, 30)])
        state = rng.integers(0, 3, q.size)
        counts = np.bincount(mc._hist_codes(state, q, edges),
                             minlength=3 * bins).reshape(3, bins)
        assert np.array_equal(counts, _histograms_by_loop(
            state, np.clip(q, edges[0], edges[-1]), edges, 3))


@pytest.mark.parametrize("wave, C, t_end", [
    (Waveform.sine(0.0, 0.4, 200.0), 1e-7, 0.005),
    (Waveform.constant(0.35), 1e-6, 0.01),
], ids=["sine", "constant"])
def test_ensemble_histograms_match_the_per_state_loop(monkeypatch, wave, C, t_end):
    seen = []
    codes = mc._hist_codes

    def spy(state, q, edges):
        # one row per output; entry 0 stands for every trajectory that the
        # others leave out
        for s_o, q_o, e_o in zip(state, q, edges):
            weight = np.ones(q_o.size)
            weight[0] += 2000 - q_o.size
            seen.append((_histograms_by_loop(s_o, q_o, e_o, 3, weight), e_o))
        return codes(state, q, edges)

    monkeypatch.setattr(mc, "_hist_codes", spy)
    net = series_mc(SINE3, C, wave)
    stats = run_ensemble(net, net.initial_state(), t_end, np.linspace(0.0, t_end, 6),
                         2000, master_seed=5, histogram_bins=30)
    assert len(seen) == len(stats.histograms) == 6
    for (ref, ref_edges), (h, edges) in zip(seen, stats.histograms):
        assert np.array_equal(h, ref) and np.array_equal(edges, ref_edges)
        assert h.sum() == 2000
    # per output, the edges span the charges: the first output is the
    # initial charge alone, widened
    assert stats.histograms[0][1][0] == 0.0 < stats.histograms[0][1][-1]
    assert all(e[0] < e[-1] for _, e in stats.histograms[1:])


# ---------------------------- thinning: the shared row of unswitched trajectories

def _reference_evolve(self, initial, outputs):
    """The thinning loop as written with one row per trajectory: every
    trajectory, switched or not, runs through windows of its own, cut at
    breakpoints, the slack and t_end alone.  Until its first jump a row
    compares its level, a sum of spacings since the start, with its
    envelope integral lam, as the shared row does; after it, it keeps its
    gap G from the window start."""
    n, t_end = self.n, outputs[-1]
    window, flow, rows_of = mc._Ensemble._window, mc._Ensemble._flow, mc._Ensemble._rows_of
    S = np.tile(np.array(initial.memristor_states, dtype=np.int64), (n, 1))
    Q = np.tile(np.array(initial.capacitor_charges, dtype=float), (n, 1))
    T, R = np.full(n, float(initial.time)), np.full(n, rows_of(self, S[:1])[0])
    E, L0, L1, G = (np.zeros(n) for _ in range(4))
    Q1 = np.zeros_like(Q)
    lam, lev, fresh = np.zeros(n), self.candidates.stream(0).copy(), np.ones(n, dtype=bool)
    self._rounds = np.zeros(n, dtype=np.int64)
    tries = np.zeros(n, dtype=np.int64)
    self._reset()

    def gap(i):
        return np.where(fresh[i], lev[i] - lam[i], G[i])

    def open_windows(i, charged=False):
        E[i], L0[i], L1[i], Q[i], Q1[i] = window(self, R[i], S[i], T[i], Q[i], t_end,
                                                 np.full(i.size, charged))
        assert (E[i] > T[i]).all()

    def total(i):
        """The envelope's integral over the windows of rows i."""
        return mc._integral(L0[i], L1[i], E[i] - T[i])

    def offset(i):
        """Where the next candidates of rows i fall in their windows."""
        return mc._offset(L0[i], L1[i], E[i] - T[i], gap(i), total(i))

    def due(i, t_out):
        """Rows i with a candidate before t_out."""
        x = offset(i)
        return i[(x < math.inf) & ((T[i] + x < t_out) | (E[i] < t_out))]

    open_windows(np.arange(n), True)
    for t_out in outputs:
        tries[:] = 0
        act = np.flatnonzero(T < t_out)
        while act.size:
            j = due(act, t_out)
            while j.size:
                tries[j] += 1
                over = tries[j] > mc.MAX_CANDIDATES
                self.failures += [(int(i), f"more than {mc.MAX_CANDIDATES} candidates within one "
                                   f"output interval at t = {t_out:.9g} s") for i in j[over]]
                T[j[over]] = E[j[over]] = math.inf
                j = j[~over]
                x = offset(j)
                ok, t_c, q_c, m, up, spacing = self._candidates(
                    R[j], S[j], T[j], Q[j], L0[j], L1[j], E[j] - T[j], j, x)
                self.diag["candidates"] += j.size
                self.diag["accepted"] += int(ok.sum())
                i, m = j[ok], m[ok]
                S[i, m] += np.where(up[ok], 1, -1)
                R[i] = rows_of(self, S[i])
                T[i], Q[i], G[i], fresh[i] = t_c[ok], q_c[ok], spacing[ok], False
                open_windows(i, True)
                self.log.append((t_c[ok], i, m, up[ok]))
                k = j[~ok]
                lev[k] += np.where(fresh[k], spacing[~ok], 0.0)
                G[k] += np.where(fresh[k], 0.0, spacing[~ok])
                j = due(k, t_out)
            # windows that end before t_out with no candidate left in them
            act = act[T[act] < math.inf]
            full = total(act)
            ends = act[(E[act] < t_out) & (gap(act) >= full)]
            full = full[(E[act] < t_out) & (gap(act) >= full)]
            lam[ends] += np.where(fresh[ends], full, 0.0)
            G[ends] -= np.where(fresh[ends], 0.0, full)
            T[ends], Q[ends] = E[ends], Q1[ends]
            open_windows(ends)
            act = act[(T[act] < t_out) & ((E[act] < t_out) | np.isin(act, due(act, t_out)))]
        if len(self.failures) == n:
            raise mc.TrajectoryFailure(f"all trajectories failed: {self.failures[-1][1]}")
        live = T < math.inf
        q = Q.copy()
        q[live] = flow(self, R[live], S[live], T[live], Q[live], t_out)[0]
        self._record(S[None], q[None], live[None])
    self.diag["runaway_failures"] = len(self.failures)


@pytest.mark.parametrize("case, seed", [
    ("reverse_bias_g3", 100), ("reverse_bias_g3", 101), ("reverse_bias_g3", 102),
    ("reverse_bias_g3", 103), ("figure2_sine", 3), ("figure2_ramp", 3),
    ("pwl_g3_reversing", 9), ("runaway", 100), ("two_branch_sine", 100),
])
def test_shared_row_is_bit_identical_to_the_per_row_loop(monkeypatch, params, model,
                                                        case, seed):
    n, t_end = 2000, 0.005
    if case == "reverse_bias_g3":       # the benchmark's ensembles
        net, n = _sine3_net(), 20_000
    elif case == "figure2_sine":
        net, t_end = series_mc(model, params.C, Waveform.sine(0.35, 0.05, 50.0)), 0.05
    elif case == "figure2_ramp":        # every trajectory switches: row 0 empties
        net = series_mc(model, params.C, Waveform.pwl([(0.0, 0.35), (0.02, 0.5)]))
        t_end = 0.03
    elif case == "pwl_g3_reversing":
        net, n, t_end = series_mc(SINE3, 1e-7, REVERSING_PWL), 5000, 0.006
    elif case == "two_branch_sine":     # two clocks, two modes
        (source, t_end), = [c for c in TWO_BRANCH_CASES if c[0].startswith("SIN")]
        net = _two_branch(source)
    else:
        net = _sine3_net()
        monkeypatch.setattr(mc, "MAX_CANDIDATES", 1)
    times = np.linspace(0.0, t_end, 21)
    new = run_ensemble(net, net.initial_state(), t_end, times, n, seed)
    monkeypatch.setattr(mc._Ensemble, "_evolve", _reference_evolve)
    ref = run_ensemble(net, net.initial_state(), t_end, times, n, seed)
    for a, b in zip(new.occupancy + new.stderr, ref.occupancy + ref.stderr):
        assert np.array_equal(a, b)
    assert len(new.histograms) == len(ref.histograms) == times.size
    assert all(np.array_equal(a, b) and np.array_equal(ea, eb)
               for (a, ea), (b, eb) in zip(new.histograms, ref.histograms))
    assert np.array_equal(new.first_event_times, ref.first_event_times, equal_nan=True)
    assert (new.n, new.failures) == (ref.n, ref.failures)
    assert (new.events_up, new.events_down) == (ref.events_up, ref.events_down)
    for key in ("candidates", "accepted", "rate_ceiling_hits"):
        assert new.diagnostics[key] == ref.diagnostics[key]
    if case == "runaway":
        assert new.n_failed > 0
    else:
        assert new.n_failed == 0
        assert new.diagnostics["rows_max"] == np.isfinite(new.first_event_times).sum() > 0
    if case in ("pwl_g3_reversing", "two_branch_sine"):
        assert new.events_down > 0
    if case == "figure2_ramp":
        assert new.diagnostics["rows_max"] == n


@pytest.mark.parametrize("case", ["runaway", "figure2_ramp", "two_branch_sine"])
def test_results_do_not_depend_on_the_batch_size(monkeypatch, params, model, case):
    # kernels and the recorder run on at most _BATCH rows at a time: the
    # runaway case has failed own rows, the ramp empties row 0 and the
    # two-branch sine has two clocks and two modes
    n, t_end, seed = 2000, 0.005, 100
    if case == "runaway":
        net = _sine3_net()
        monkeypatch.setattr(mc, "MAX_CANDIDATES", 1)
    elif case == "figure2_ramp":
        net = series_mc(model, params.C, Waveform.pwl([(0.0, 0.35), (0.02, 0.5)]))
        t_end, seed = 0.03, 3
    else:
        (source, t_end), = [c for c in TWO_BRANCH_CASES if c[0].startswith("SIN")]
        net = _two_branch(source)
    times = np.linspace(0.0, t_end, 21)
    runs = []
    for batch in (7, 4096, 1 << 20):
        monkeypatch.setattr(mc, "_BATCH", batch)
        runs.append(run_ensemble(net, net.initial_state(), t_end, times, n, seed))
    ref = runs[1]
    assert (ref.n_failed > 0) == (case == "runaway")
    if case == "figure2_ramp":
        assert ref.diagnostics["rows_max"] == n
    for new in runs[::2]:
        for a, b in zip(new.occupancy + new.stderr, ref.occupancy + ref.stderr):
            assert np.array_equal(a, b)
        assert len(new.histograms) == len(ref.histograms) == times.size
        assert all(np.array_equal(a, b) and np.array_equal(ea, eb)
                   for (a, ea), (b, eb) in zip(new.histograms, ref.histograms))
        assert np.array_equal(new.first_event_times, ref.first_event_times, equal_nan=True)
        assert (new.n, new.failures, new.diagnostics) == (ref.n, ref.failures, ref.diagnostics)
        assert (new.events_up, new.events_down) == (ref.events_up, ref.events_down)


def _grid_case(case, params, model):
    """Netlist, t_end and trajectories of an output-grid case."""
    if case == "mc_const":          # the benchmark's constant drive
        return series_mc(model, params.C, Waveform.constant(params.Va)), 1.0, 10_000
    if case == "step":
        return series_mc(model, params.C, Waveform.step(params.Va, 0.01)), 0.05, 5000
    if case == "reverse_bias_g3":
        return _sine3_net(), 0.005, 20_000
    (source, t_end), = [c for c in TWO_BRANCH_CASES
                        if c[0].startswith({"netlist_dc": "DC", "netlist_sine": "SIN"}[case])]
    return _two_branch(source), t_end, 2000


@pytest.mark.parametrize("case", ["mc_const", "step", "reverse_bias_g3", "netlist_dc",
                                  "netlist_sine"])
def test_windows_do_not_depend_on_the_output_grid(params, model, case):
    # output times only read the rows' charges: 2, 21 and 201 outputs run
    # the same windows and draw the same candidates, bit for bit, in the
    # same passes (the last three: one device under a sine, two under DC
    # and a sine)
    net, t_end, n = _grid_case(case, params, model)
    runs = [run_ensemble(net, net.initial_state(), t_end, np.linspace(0.0, t_end, k), n, 23)
            for k in (2, 21, 201)]
    a = runs[0]
    assert np.isfinite(a.first_event_times).sum() > 0.05 * n
    assert a.diagnostics["passes"] > 0
    for b in runs[1:]:
        assert np.array_equal(a.first_event_times, b.first_event_times, equal_nan=True)
        assert (a.events_up, a.events_down) == (b.events_up, b.events_down)
        for key in ("passes", "windows", "candidates", "accepted", "rows_max"):
            assert a.diagnostics[key] == b.diagnostics[key]
        assert np.array_equal(a.occupancy[0][-1], b.occupancy[0][-1])
        assert all(np.array_equal(x, y) for x, y in zip(a.histograms[-1], b.histograms[-1]))


def _agreement_case(case, params, model):
    """Netlist, t_end and seed of a one-and-two-capacitor case."""
    if case == "sine":
        return series_mc(SINE3, 1e-7, Waveform.sine(0.0, 0.4, 200.0)), 0.005, 100
    if case == "pwl":
        return series_mc(SINE3, 1e-7, REVERSING_PWL), 0.006, 101
    if case == "constant":          # the Figure-2 point
        return series_mc(model, params.C, Waveform.constant(params.Va)), 0.01, 5
    # vm from -0.3 V through zero to +0.2 V within the one DC segment
    return parse_netlist(SIGN_CHANGE_TEXT), 0.005, 3


@pytest.mark.parametrize("case", ["sine", "pwl", "constant", "sign_change"])
def test_scalar_and_matrix_kernels_agree(params, model, case):
    # one device on a one-mode table ("scalar") and beside a second
    # capacitor that the source decouples from it (`_with_rc_branch`, a
    # two-mode table, "matrix"): the kernels draw the same candidates, so
    # they accept the same ones.  Event times agree to round-off, amplified
    # where a level is found as the difference of two large envelope
    # integrals of the shared row
    net, t_end, seed = _agreement_case(case, params, model)
    n = 20_000
    times = np.linspace(0.0, t_end, 21)
    scalar = run_ensemble(net, net.initial_state(), t_end, times, n, seed)
    matrix = run_ensemble(*_with_rc_branch(net), t_end, times, n, seed)
    assert "configurations" in scalar.diagnostics
    assert np.array_equal(scalar.occupancy[0], matrix.occupancy[0])
    assert (scalar.events_up, scalar.events_down) == (matrix.events_up, matrix.events_down)
    assert (scalar.events_down > 0) == (case != "constant")
    a, b = scalar.first_event_times, matrix.first_event_times
    assert np.array_equal(np.isnan(a), np.isnan(b)) and np.isfinite(a).sum() > 1000
    rtol = {"sine": 1e-14, "pwl": 2e-13, "constant": 1e-14, "sign_change": 2e-12}[case]
    assert np.allclose(a, b, rtol=rtol, atol=0.0, equal_nan=True)


def test_stepped_events_count_only_finished_trajectories(monkeypatch):
    # the event totals are the accepted candidates of the trajectories
    # that finish
    accepted = []
    candidates = mc._Ensemble._candidates

    def spy(self, c, s, t, q, l0, l1, dt, ids, x):
        out = candidates(self, c, s, t, q, l0, l1, dt, ids, x)
        accepted.append(ids[out[0]])
        return out

    monkeypatch.setattr(mc._Ensemble, "_candidates", spy)
    monkeypatch.setattr(mc, "MAX_CANDIDATES", 1)
    net = _sine3_net()
    stats = run_ensemble(net, net.initial_state(), 0.005, np.linspace(0.0, 0.005, 21),
                         2000, master_seed=100)
    assert stats.n_failed > 0
    who = np.concatenate(accepted)
    finished = ~np.isin(who, [i for i, _ in stats.failures])
    assert stats.events_up + stats.events_down == finished.sum() < who.size
    assert stats.diagnostics["accepted"] == who.size
