"""Trajectory sampler and ensemble aggregation tests.

Statistical assertions use wide (4-5 sigma) bands around closed-form
references so they are deterministic for the pinned seeds yet would
catch a genuinely wrong sampler.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from memstoch import (ConstantDriveParams, MemristorModel, Waveform,
                      p0_constant_voltage, rc_charge, run_ensemble,
                      series_mc, simulate_trajectory)
from memstoch import mc
from memstoch.circuit import (Capacitor, CircuitState, Memristor, Netlist,
                              VoltageSource, parse_netlist)


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
    gamma = model.rate_up(0, 0.35)
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


def test_generic_engine_agrees_with_vectorized(netlist, params):
    times = np.linspace(0.0, 0.01, 5)
    fast = run_ensemble(netlist, netlist.initial_state(), 0.01, times,
                        1500, master_seed=5)
    slow = mc._NetlistEnsemble(netlist, 1500, 5).run(netlist.initial_state(),
                                                     0.01, times)
    # the netlist engine on a single-device circuit: same law, agree
    # within combined 5 sigma
    for k in range(len(times)):
        se = math.hypot(fast.stderr[0][k, 0], slow.stderr[0][k, 0])
        assert abs(fast.occupancy[0][k, 0] - slow.occupancy[0][k, 0]) <= \
            5.0 * max(se, 1e-3)


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
    with pytest.raises(ValueError):
        run_ensemble(netlist, netlist.initial_state(), 0.01, [0.01], 0, 1)


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
    net = parse_netlist("""
V1 in 0 DC 1.0
R1 in a 20k
M1 a b STATES=2 R=100k,10k TAUUP=300k VUP=0.02 TAUDOWN=300k VDOWN=0.02
C1 b 0 1u
""")
    rec = simulate_trajectory(net, net.initial_state(), 0.05, 123,
                              np.linspace(0, 0.05, 11))
    assert rec.sample_charges[-1, 0] > 0.0


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
    assert stats.diagnostics["path"] == "netlist"


def test_netlist_engine_first_events_match_the_exact_path(netlist):
    # both engines draw round 0 from Philox stream (seed, 0), so each first
    # event is the same clock: Simpson hazards against closed-form ones
    n, seed, t_end = 600, 7, 1.0
    exact = run_ensemble(netlist, netlist.initial_state(), t_end, [t_end], n, seed)
    stepped = mc._NetlistEnsemble(netlist, n, seed).run(netlist.initial_state(),
                                                        t_end, [t_end])
    fired = ~np.isnan(exact.first_event_times)
    assert np.array_equal(fired, ~np.isnan(stepped.first_event_times)) and fired.any()
    t_exact = exact.first_event_times[fired]
    assert np.all(np.abs(stepped.first_event_times[fired] - t_exact) <= 1e-3 * t_exact)
    assert stepped.diagnostics["configurations"] == 2


def test_trajectories_fail_alone():
    # before the 1 ms step to 2 V, M1 switches to 1 kOhm in about half
    # the trajectories; in those the step puts some 1 V on M2, whose rate
    # (~1e18 /s) asks for a step below the floor.  They fail; the others
    # finish, and M2 switches within the step in which M1 does
    m1 = MemristorModel.binary(1e6, 1e3, 1.95e-3, 1.0)
    m2 = MemristorModel.binary(1e3, 1e3, 1e3, 0.02)
    net = Netlist(sources=(VoltageSource("V1", "in", "0", Waveform.step(2.0, 1e-3, 0.3)),),
                  resistors=(), capacitors=(Capacitor("C1", "b", "0", 1e-6),),
                  memristors=(Memristor("M1", "in", "a", m1), Memristor("M2", "a", "b", m2)))
    stats = run_ensemble(net, net.initial_state(), 2e-3, np.linspace(0.0, 2e-3, 5),
                         400, master_seed=9)
    assert stats.n_failed > 0 and stats.n > 0 and stats.n + stats.n_failed == 400
    assert all("below the floor" in msg for _, msg in stats.failures)
    assert np.all(np.isnan(stats.first_event_times[[i for i, _ in stats.failures]]))
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


# ------------------------------------- exact hazard inversion (vector MC)

def _figure2_at(params, va, **model_kw):
    model = MemristorModel.binary(params.R0, params.R1, params.tau0, params.V0,
                                  **model_kw)
    return series_mc(model, params.C, Waveform.constant(va))


def _round0_thresholds(master_seed, n):
    # the first clock of trajectory i draws from Philox stream (seed, 0)
    rng = np.random.Generator(np.random.Philox(key=[master_seed, 0]))
    return rng.exponential(size=n)


def test_threshold_streams_are_keyed_by_round_and_clock():
    # the r-th threshold of clock m of trajectory i is entry i of Philox
    # stream [master_seed, r M + m]; both engines draw through this helper
    th = mc._Thresholds(99, 50, M=3)
    rounds = np.array([[1, 4, 2], [3, 1, 1]])
    got = th.draw(np.array([7, 42]), rounds, ([0, 1], [2, 0]), np.array([2, 0]))
    expect = [np.random.Generator(np.random.Philox(key=[99, r * 3 + m])).exponential(size=50)[i]
              for i, r, m in ((7, 2, 2), (42, 3, 0))]
    assert np.array_equal(got, expect)
    assert rounds.tolist() == [[1, 4, 3], [4, 1, 1]]


def _check_first_events(stats, thresholds, t_end, a, b, tau, tau_x, v_x):
    # deterministic: each first event against a 40-digit inversion of the
    # same threshold along vm = a + b e^{-t/tau} (one sign throughout),
    # H(t) = (tau/tau_x) e^alpha [Ei(beta) - Ei(beta e^{-t/tau})]
    with mpmath.workdps(40):
        a, b, tau, tau_x, v_x = (mpmath.mpf(v) for v in (a, b, tau, tau_x, v_x))
        alpha, beta = a / v_x, b / v_x

        def rate(t):
            return mpmath.exp(alpha + beta * mpmath.exp(-t / tau)) / tau_x

        def hazard(t):
            if beta == 0:
                return rate(0) * t
            return tau / tau_x * mpmath.exp(alpha) * (
                mpmath.ei(beta) - mpmath.ei(beta * mpmath.exp(-t / tau)))

        h_end = hazard(mpmath.mpf(t_end))
        assert np.any(~np.isnan(stats.first_event_times))
        for t, e in zip(stats.first_event_times, thresholds):
            assert (not math.isnan(t)) == (h_end >= e)
            if math.isnan(t):
                continue
            e = mpmath.mpf(float(e))
            assert abs(hazard(mpmath.mpf(float(t))) - e) <= 1e-12 * e
            t_ref = mpmath.findroot(lambda s: hazard(s) - e, mpmath.mpf(float(t)))
            cond = max(1, e / (rate(t_ref) * t_ref))
            assert abs(float(t) - t_ref) <= 1e-12 * t_ref * cond


@pytest.mark.parametrize("va", [0.35, 0.9])
def test_first_events_match_mpmath_inversion(params, va):
    n, seed, t_end = 600, 7, 1.0
    net = _figure2_at(params, va)
    stats = run_ensemble(net, net.initial_state(), t_end, [t_end], n, seed)
    _check_first_events(stats, _round0_thresholds(seed, n), t_end, 0.0, va,
                        params.C * params.R0, params.tau0, params.V0)
    assert stats.diagnostics["path"] == "exact"
    assert stats.diagnostics["newton_max"] <= 20
    assert stats.diagnostics["rate_ceiling_hits"] == 0


SHUNTED_TEXT = """
V1 in 0 DC 0.4
M1 in n1 STATES=2 R=100k,10k TAUUP=10 VUP=0.03 TAUDOWN=10 VDOWN=0.03 STATE=0
C1 n1 0 100n IC=35n
R2 n1 0 100k
"""


def test_shunted_first_events_match_mpmath_inversion():
    # the shunt halves the drive: vm starts at 0.4 - 0.35 = 0.05 V and
    # relaxes up to 0.2 V with tau = 100 nF * (100k || 100k) = 5 ms, so
    # a = 0.2 and b = -0.15 keep vm positive without a sign change
    n, seed, t_end = 500, 11, 0.02
    net = parse_netlist(SHUNTED_TEXT)
    stats = run_ensemble(net, net.initial_state(), t_end, [t_end], n, seed)
    _check_first_events(stats, _round0_thresholds(seed, n), t_end,
                        0.2, -0.15, 5e-3, 10.0, 0.03)
    assert stats.diagnostics["sign_splits"] == 0


CUT_OFF_TEXT = """
V1 in 0 DC 0.3
M1 in 0 STATES=2 R=100k,10k TAUUP=10 VUP=0.03 TAUDOWN=10 VDOWN=0.03 STATE=0
C1 n1 0 100n
R2 n1 0 100k
"""


@pytest.mark.parametrize("case", ["cut_off", "at_asymptote"])
def test_constant_voltage_segments_fire_at_threshold_over_rate(case):
    # b = 0: vm is constant, so the first event is E tau_up e^{-vm/V_up}
    n, seed, t_end = 500, 13, 0.05
    if case == "cut_off":
        # the capacitor has no path to the device (A = B = 0); vm = 0.3 V
        net = parse_netlist(CUT_OFF_TEXT)
        initial, vm = net.initial_state(), 0.3
    else:
        # the shunted circuit started on its fixed point, vm = 0.2 V
        net = parse_netlist(SHUNTED_TEXT)
        eng = mc._VectorEnsemble(net, n, seed, 10)
        q_inf = eng.B[0] * 0.4 * eng.tau[0]
        initial, vm = CircuitState((0,), (q_inf,)), 0.2
    stats = run_ensemble(net, initial, t_end, [t_end], n, seed)
    expect = _round0_thresholds(seed, n) * 10.0 * math.exp(-vm / 0.03)
    fired = ~np.isnan(stats.first_event_times)
    assert np.array_equal(fired, expect <= t_end) and fired.any()
    assert np.allclose(stats.first_event_times[fired], expect[fired],
                       rtol=1e-12, atol=0.0)


def test_step_drive_shifts_the_constant_drive_events(params, model):
    n, seed, t_step, t_end = 800, 19, 0.01, 0.05
    const = series_mc(model, params.C, Waveform.constant(params.Va))
    step = series_mc(model, params.C, Waveform.step(params.Va, t_step))
    a = run_ensemble(const, const.initial_state(), t_end, [t_end], n, seed)
    b = run_ensemble(step, step.initial_state(), t_step + t_end, [t_step + t_end],
                     n, seed)
    fired = ~np.isnan(a.first_event_times)
    assert np.array_equal(fired, ~np.isnan(b.first_event_times)) and fired.any()
    shifted = t_step + a.first_event_times[fired]
    assert np.all(np.abs(b.first_event_times[fired] - shifted) <= 1e-12 * shifted)


def test_rate_ceiling_segments_are_exact(params):
    # at 0.35 V the rate starts at 130 /s; a ceiling of 100 /s holds it
    # constant until the relaxing voltage brings it below
    ceiling, n, seed, t_end = 100.0, 300, 5, 0.05
    net = _figure2_at(params, params.Va, rate_ceiling=ceiling)
    stats = run_ensemble(net, net.initial_state(), t_end, [t_end], n, seed)
    assert stats.diagnostics["ceiling_splits"] > 0
    # every trajectory starts on a capped piece
    assert stats.diagnostics["rate_ceiling_hits"] >= n
    with mpmath.workdps(40):
        tau = mpmath.mpf(params.C) * mpmath.mpf(params.R0)
        tau0 = mpmath.mpf(params.tau0)
        x = mpmath.mpf(params.Va) / mpmath.mpf(params.V0)
        t_cap = tau * mpmath.log(x / mpmath.log(ceiling * tau0))

        def hazard(t):
            if t <= t_cap:
                return ceiling * t
            return ceiling * t_cap + tau / tau0 * (
                mpmath.ei(x * mpmath.exp(-t_cap / tau)) - mpmath.ei(x * mpmath.exp(-t / tau)))

        for t, e in zip(stats.first_event_times, _round0_thresholds(seed, n)):
            assert (not math.isnan(t)) == (hazard(mpmath.mpf(t_end)) >= e)
            if not math.isnan(t):
                assert abs(hazard(mpmath.mpf(float(t))) - e) <= 1e-12 * e


@pytest.mark.parametrize("path", ["stepped", "netlist"])
def test_rate_ceiling_hits_count_the_capped_rates(params, path):
    # the Figure-2 device under a sine about 0.35 V: its rates stay below
    # the default ceiling, while a ceiling of 100 /s caps them near the crests
    counts = []
    for ceiling in (1e30, 100.0):
        model = MemristorModel.binary(params.R0, params.R1, params.tau0, params.V0,
                                      rate_ceiling=ceiling)
        net = series_mc(model, params.C, Waveform.sine(0.35, 0.05, 50.0))
        if path == "netlist":
            stats = mc._NetlistEnsemble(net, 200, 3).run(net.initial_state(), 0.01, [0.01])
        else:
            stats = run_ensemble(net, net.initial_state(), 0.01, [0.01], 200, 3)
        assert stats.diagnostics["path"] == path
        counts.append(stats.diagnostics["rate_ceiling_hits"])
    assert counts[0] == 0 and counts[1] > 0


SIGN_CHANGE_TEXT = """
V1 in 0 DC 0.4
M1 in n1 STATES=3 R=100k,30k,10k TAUUP=10,10 VUP=0.03,0.03 TAUDOWN=10,10 VDOWN=0.03,0.03 STATE=1
C1 n1 0 100n IC=70n
R2 n1 0 30k
"""


def test_sign_change_within_a_segment_agrees_with_generic_engine():
    # the capacitor starts at 0.7 V, so vm = -0.3 V and then rises through
    # zero towards +0.2 V (state 1): down events first, up events after
    net = parse_netlist(SIGN_CHANGE_TEXT)
    times = np.linspace(0.0, 0.005, 6)
    fast = run_ensemble(net, net.initial_state(), 0.005, times, 4000, master_seed=3)
    slow = mc._NetlistEnsemble(net, 400, 3).run(net.initial_state(), 0.005, times)
    assert fast.diagnostics["sign_splits"] > 0
    assert fast.events_up > 0 and fast.events_down > 0
    se = np.hypot(fast.stderr[0], slow.stderr[0])
    assert np.all(np.abs(fast.occupancy[0] - slow.occupancy[0])
                  <= 5.0 * np.maximum(se, 1e-3))


@pytest.mark.parametrize("wave", [Waveform.constant(0.35), Waveform.sine(0.0, 0.4, 200.0)])
def test_engine_reruns_are_bit_identical(params, wave):
    # a rerun must not see thresholds the first run drew over
    model = MemristorModel.uniform((1e5, 3e4, 1e4), 10.0, 0.05)
    net = series_mc(model, 1e-7 if wave.kind == "sine" else params.C, wave)
    t_end = 0.005 if wave.kind == "sine" else 1.0
    times = np.linspace(0.0, t_end, 5)
    eng = mc._VectorEnsemble(net, 1000, 7, 20)
    a = eng.run(net.initial_state(), t_end, times)
    b = eng.run(net.initial_state(), t_end, times)
    assert np.array_equal(a.occupancy[0], b.occupancy[0])
    assert np.array_equal(a.first_event_times, b.first_event_times, equal_nan=True)
    assert all(np.array_equal(ha, hb) for (ha, _), (hb, _) in zip(a.histograms, b.histograms))


def test_stepped_path_raises_instead_of_jumping(model, params):
    # at 0.9 V the step control asks for h below the floor at t = 0
    net = series_mc(model, params.C, Waveform.sine(0.9, 0.05, 50.0))
    with pytest.raises(mc.TrajectoryFailure, match="t = 0 s"):
        run_ensemble(net, net.initial_state(), 0.01, [0.01], 100, master_seed=1)
    fine = series_mc(model, params.C, Waveform.sine(0.35, 0.05, 50.0))
    stats = run_ensemble(fine, fine.initial_state(), 0.002, [0.002], 100, master_seed=1)
    assert stats.diagnostics["path"] == "stepped"
    assert stats.diagnostics["shared_steps"] > 0


# ------------------------------------------ stepped path: shared-step work

SINE3 = MemristorModel.uniform((1e5, 3e4, 1e4), 10.0, 0.05)


def _sine3_net():
    return series_mc(SINE3, 1e-7, Waveform.sine(0.0, 0.4, 200.0))


def test_shared_step_map_matches_per_trajectory_advance():
    # the affine map of one shared step must reproduce the per-trajectory
    # RK4 half steps to 1e-12 of the charge scale C max|v|
    eng = mc._VectorEnsemble(_sine3_net(), 10, 1, 10)
    rng = np.random.default_rng(11)
    scale = 1e-7 * 0.4
    state = rng.integers(0, 3, 500)
    q = rng.uniform(-scale, scale, 500)
    for t, h in [(0.0, 1e-5), (1.3e-3, 4e-5), (3.9e-3, 2e-6), (4.4e-3, 1e-4)]:
        for shared, own in zip(eng._advance_shared(state, q, t, h),
                               eng._advance(state, q, t, h)):
            assert np.abs(shared - own).max() <= 1e-12 * scale


def test_carried_rates_equal_fresh_start_rates(monkeypatch):
    # every step's start rates, carried from the last step's end or
    # recomputed for the rows that fired, equal a fresh evaluation
    step_size = mc._VectorEnsemble._step_size
    checked = []

    def spy(self, state, q, t, t_limit, h_floor, v, rate, entry):
        fresh = self.rates(state, self._vm(state, q, self.wave(t)), dict(rate_ceiling_hits=0))
        assert np.array_equal(rate, fresh[0]) and np.array_equal(entry, fresh[1])
        checked.append(t)
        return step_size(self, state, q, t, t_limit, h_floor, v, rate, entry)

    monkeypatch.setattr(mc._VectorEnsemble, "_step_size", spy)
    net = _sine3_net()
    stats = run_ensemble(net, net.initial_state(), 0.005, np.linspace(0.0, 0.005, 11),
                         2000, master_seed=100)
    assert len(checked) == stats.diagnostics["shared_steps"] > 0
    assert stats.events_up > 0 and stats.events_down > 0


def test_vector_runaway_cascade_fails_alone(monkeypatch, model, params):
    # this ensemble reaches a cascade depth of 2; with the limit at 1 the
    # trajectories that go deeper fail, and the others finish
    net = _sine3_net()
    times = np.linspace(0.0, 0.005, 21)
    full = run_ensemble(net, net.initial_state(), 0.005, times, 2000, master_seed=100)
    assert full.diagnostics["max_cascade"] == 2 and full.n_failed == 0
    monkeypatch.setattr(mc, "MAX_CASCADE", 1)
    stats = run_ensemble(net, net.initial_state(), 0.005, times, 2000, master_seed=100)
    assert 0 < stats.n_failed < 2000 and stats.n + stats.n_failed == 2000
    assert all("more than 1 events within one step" in msg for _, msg in stats.failures)
    failed = [i for i, _ in stats.failures]
    assert np.all(np.isnan(stats.first_event_times[failed]))
    assert np.allclose(stats.occupancy[0].sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.array_equal(stats.stderr[0], np.sqrt(stats.occupancy[0]
                                                   * (1.0 - stats.occupancy[0]) / stats.n))
    assert all(h.sum() == stats.n for h, _ in stats.histograms)
    # every trajectory of this one switches, so with no event allowed in a
    # step all of them fail
    monkeypatch.setattr(mc, "MAX_CASCADE", 0)
    net = series_mc(model, params.C, Waveform.sine(0.35, 0.05, 50.0))
    with pytest.raises(mc.TrajectoryFailure, match="all trajectories failed"):
        run_ensemble(net, net.initial_state(), 0.05, [0.05], 50, master_seed=1)


def _histograms_by_loop(state, q, edges, g):
    """Reference: one np.histogram per state."""
    hist = np.zeros((g, edges.size - 1))
    for i in range(g):
        sel = state == i
        if sel.any():
            hist[i], _ = np.histogram(q[sel], bins=edges)
    return hist


def test_histogram_codes_match_np_histogram():
    # charges on the edges, one ulp either side of them, inside and
    # outside them
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
                             minlength=3 * (bins + 1)).reshape(3, bins + 1)
        assert np.array_equal(counts[:, :-1], _histograms_by_loop(state, q, edges, 3))


@pytest.mark.parametrize("wave, C, t_end", [
    (Waveform.sine(0.0, 0.4, 200.0), 1e-7, 0.005),
    (Waveform.constant(0.35), 1e-6, 0.01),
], ids=["sine", "constant"])
def test_ensemble_histograms_match_the_per_state_loop(monkeypatch, wave, C, t_end):
    seen = []
    codes = mc._hist_codes

    def spy(state, q, edges):
        seen.append(_histograms_by_loop(state, q, edges, 3))
        return codes(state, q, edges)

    monkeypatch.setattr(mc, "_hist_codes", spy)
    net = series_mc(SINE3, C, wave)
    stats = run_ensemble(net, net.initial_state(), t_end, np.linspace(0.0, t_end, 6),
                         2000, master_seed=5, histogram_bins=30)
    assert stats.diagnostics["path"] == ("stepped" if wave.kind == "sine" else "exact")
    assert len(seen) == len(stats.histograms) == 6
    for ref, (h, _) in zip(seen, stats.histograms):
        assert np.array_equal(h, ref)


# ------------------------- stepped path: the shared row of unswitched trajectories

def _reference_stepped(self, state, q_init, t, t_end, outputs, record, first_event):
    """The stepped path as written with one row per trajectory: every
    trajectory, switched or not, is stepped on its own row."""
    n = self.n
    ids = np.arange(n)
    s = state.copy()
    q = np.full(n, q_init)
    q_out = q.copy()
    lam = np.zeros(n)
    thr = self.thresholds.stream(0).copy()
    draw = np.ones(n, dtype=np.int64)
    events_up = events_down = 0
    failures = []
    self._diag = dict(path="stepped", shared_steps=0, max_cascade=0, rate_ceiling_hits=0)
    h_floor = 1e-15 * max(t_end, 1.0)
    t_rates, stale = None, ids[:0]
    for t_out in outputs:
        while t < t_out - h_floor:
            v0 = self.wave(t)
            if t != t_rates:
                r0, e0 = self.rates(s, self._vm(s, q, v0), self._diag)
            else:
                r0, e0 = r1, e1
                if stale.size:
                    r0[stale], e0[stale] = self.rates(
                        s[stale], self._vm(s[stale], q[stale], v0), self._diag)
            h = self._step_size(s, q, t, t_out, h_floor, v0, r0, e0)
            if h <= h_floor:
                raise mc.TrajectoryFailure(
                    f"step size control needs h = {h:.3g} s at t = {t:.9g} s, "
                    f"below the floor {h_floor:.3g} s")
            self._diag["shared_steps"] += 1
            q_mid, q_end = self._advance_shared(s, q, t, h)
            rm, _ = self.rates(s, self._vm(s, q_mid, self.wave(t + h / 2)), self._diag)
            r1, e1 = self.rates(s, self._vm(s, q_end, self.wave(t + h)), self._diag)
            delta = h / 6.0 * (r0 + 4.0 * rm + r1)
            crossed = lam + delta >= thr
            idx = np.nonzero(crossed)[0]
            keep = ~crossed
            q = np.where(keep, q_end, q)
            lam = np.where(keep, lam + delta, lam)
            t_rates, stale = t + h, idx
            if idx.size:
                evu, evd, runaway = _reference_events(
                    self, idx, ids, q, s, lam, thr, draw, first_event,
                    t, h, q_mid, q_end, r0, rm, r1)
                events_up += evu
                events_down += evd
                if runaway.size:
                    failures += [(int(i), f"more than {mc.MAX_CASCADE} events within "
                                  f"one step at t = {t:.9g} s") for i in ids[runaway]]
                    live = ~np.isin(np.arange(ids.size), runaway)
                    ids, s, q, lam, thr = (x[live] for x in (ids, s, q, lam, thr))
                    t_rates = None
                    if not ids.size:
                        raise mc.TrajectoryFailure(
                            f"all trajectories failed: {failures[-1][1]}")
            t += h
        t = t_out
        state[ids] = s
        q_out[ids] = q
        record(t, q_out)
    return events_up, events_down, failures, self._diag


def _reference_events(self, idx, ids, q, state, lam, thr, draw, first_event,
                      t, h, q_mid, q_end, r0, rm, r1):
    """The cascade of `_reference_stepped`, counting events as they happen
    (trajectories that fail later included)."""
    events_up = events_down = 0
    active = idx
    t0 = np.full(active.size, float(t))
    h_sub = np.full(active.size, float(h))
    qa0, qam, qae, ra0, ram, ra1 = (x[active] for x in (q, q_mid, q_end, r0, rm, r1))
    for depth in range(1, mc.MAX_CASCADE + 1):
        if not active.size:
            break
        self._diag["max_cascade"] = max(self._diag["max_cascade"], depth)
        target = thr[active] - lam[active]
        te = mc._invert_step_vec(t0, h_sub, target, ra0, ram, ra1)
        frac = (te - t0) / h_sub
        q_e = mc._hermite(qa0, qam, qae, frac)
        v_e = self.wave(te)
        s_a = state[active]
        vm_e = self._vm(s_a, q_e, v_e)
        up = (s_a == 0) | ((vm_e > 0) & (s_a < self.model.num_states - 1))
        events_up += int(up.sum())
        events_down += int((~up).sum())
        who = ids[active]
        fe = first_event[who]
        first_event[who] = np.where(np.isnan(fe), te, fe)
        state[active] = s_a + np.where(up, 1, -1)
        q[active] = q_e
        lam[active] = 0.0
        thr[active] = self.thresholds.draw(who, draw, who)
        rem = (t + h) - te
        qm2, qe2 = self._advance(state[active], q_e, te, rem)
        rr0 = self.rates(state[active], self._vm(state[active], q_e, v_e), self._diag)[0]
        rrm = self.rates(state[active], self._vm(state[active], qm2, self.wave(te + rem / 2)),
                         self._diag)[0]
        rr1 = self.rates(state[active], self._vm(state[active], qe2, self.wave(te + rem)),
                         self._diag)[0]
        ddelta = rem / 6.0 * (rr0 + 4.0 * rrm + rr1)
        fire_again = ddelta >= thr[active]
        done = ~fire_again
        q[active[done]] = qe2[done]
        lam[active[done]] = ddelta[done]
        active, t0, h_sub, qa0, qam, qae, ra0, ram, ra1 = (
            x[fire_again] for x in (active, te, rem, q_e, qm2, qe2, rr0, rrm, rr1))
    return events_up, events_down, active


@pytest.mark.parametrize("case, seed", [
    ("reverse_bias_g3", 100), ("reverse_bias_g3", 101), ("reverse_bias_g3", 102),
    ("reverse_bias_g3", 103), ("figure2_sine", 3), ("figure2_ramp", 3),
    ("pwl_g3_reversing", 9), ("runaway", 100),
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
        wave = Waveform.pwl([(0.0, 0.0), (0.002, 0.45), (0.004, -0.45), (0.006, 0.1)])
        net, n, t_end = series_mc(SINE3, 1e-7, wave), 5000, 0.006
    else:
        net = _sine3_net()
        monkeypatch.setattr(mc, "MAX_CASCADE", 1)
    times = np.linspace(0.0, t_end, 21)
    new = run_ensemble(net, net.initial_state(), t_end, times, n, seed)
    monkeypatch.setattr(mc._VectorEnsemble, "_run_stepped", _reference_stepped)
    ref = run_ensemble(net, net.initial_state(), t_end, times, n, seed)
    assert new.diagnostics["path"] == "stepped"
    assert np.array_equal(new.occupancy[0], ref.occupancy[0])
    assert np.array_equal(new.stderr[0], ref.stderr[0])
    assert all(np.array_equal(a, b) and np.array_equal(ea, eb)
               for (a, ea), (b, eb) in zip(new.histograms, ref.histograms))
    assert np.array_equal(new.first_event_times, ref.first_event_times, equal_nan=True)
    assert (new.n, new.failures) == (ref.n, ref.failures)
    for key in ("shared_steps", "max_cascade"):
        assert new.diagnostics[key] == ref.diagnostics[key]
    if case == "runaway":
        assert new.n_failed > 0
    else:
        assert new.n_failed == 0
        assert (new.events_up, new.events_down) == (ref.events_up, ref.events_down)
        assert new.diagnostics["rows_max"] == np.isfinite(new.first_event_times).sum() > 0
    if case == "pwl_g3_reversing":
        assert new.events_down > 0
    if case == "figure2_ramp":
        assert new.diagnostics["rows_max"] == n


def test_stepped_events_count_only_finished_trajectories(monkeypatch):
    # every event draws the trajectory's next threshold once, so the event
    # totals equal the draws made for the trajectories that finish
    drawn = []
    draw = mc._Thresholds.draw

    def spy(self, ids, rounds, at, m=0):
        drawn.append(ids.copy())
        return draw(self, ids, rounds, at, m)

    monkeypatch.setattr(mc._Thresholds, "draw", spy)
    monkeypatch.setattr(mc, "MAX_CASCADE", 1)
    net = _sine3_net()
    stats = run_ensemble(net, net.initial_state(), 0.005, np.linspace(0.0, 0.005, 21),
                         2000, master_seed=100)
    assert stats.n_failed > 0
    who = np.concatenate(drawn)
    finished = ~np.isin(who, [i for i, _ in stats.failures])
    assert stats.events_up + stats.events_down == finished.sum() < who.size
