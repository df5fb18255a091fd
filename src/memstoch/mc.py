"""Monte Carlo sampling of circuit trajectories.

A trajectory is a piecewise-deterministic Markov process: between
switching events the capacitor charges follow the Kirchhoff ODE of the
instantaneous resistive network, and each memristor carries an
independent exponential clock whose hazard is the time integral of its
voltage-dependent exit rate along the trajectory.  A switch happens when
the hazard reaches an exponential threshold (no fixed-step Bernoulli
trials).

Two engines share the same contracts: a generic per-trajectory engine
for arbitrary netlists, and a vectorized ensemble engine for circuits
with a single memristor, a single capacitor and a single source (any
resistive padding).  Under constant and step drives the ensemble engine
moves every trajectory from event to event and inverts the closed-form
hazard of each RC segment, so its jump times are exact to round-off.
Under sine and PWL drives it evolves all trajectories on a shared
adaptive time grid with Simpson-integrated hazards, and it raises
TrajectoryFailure where its step control asks for a step below the
floor.  The generic engine also integrates hazards by Simpson's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .analytic import ei_term, hazard_integral
from .circuit import CircuitState, Netlist, affine_dynamics
from .device import MemristorModel

# step-size control for the deterministic segments
HAZARD_STEP_FACTOR = 0.1    # dt <= 0.1 / current total rate
RATE_CURVATURE_FACTOR = 0.3  # dt <= 0.3 / |d ln(rate)/dt|


class TrajectoryFailure(RuntimeError):
    """A trajectory could not be completed (e.g. ODE step underflow)."""


@dataclass
class TrajectoryRecord:
    """One realization: the switching events, the charges sampled at the
    requested output times, and the terminal circuit state."""

    events: list                 # (time, memristor index, from_state, to_state)
    sample_times: np.ndarray     # (T,)
    sample_charges: np.ndarray   # (T, K)
    sample_states: np.ndarray    # (T, M) memristor states at sample times
    final_state: CircuitState


@dataclass
class EnsembleStats:
    """Aggregated trajectory statistics on a shared output time grid.

    occupancy[m][t, i] estimates the probability that memristor m is in
    state i at output time t; stderr is sqrt(p (1-p) / n).  Conditional
    charge histograms refer to capacitor 0 conditioned on the state of
    memristor 0.
    """

    times: np.ndarray
    occupancy: list              # per memristor: (T, G_m) arrays
    stderr: list                 # same shapes
    histograms: list             # per output time: (counts (G0, bins), edges)
    n: int
    n_failed: int = 0
    failures: list = field(default_factory=list)   # (trajectory index, message)
    events_up: int = 0
    events_down: int = 0
    first_event_times: Optional[np.ndarray] = None  # (n,), nan = no event
    # what the vector engine did: rounds, Newton iterations and splits on
    # the exact path; shared steps and the deepest cascade on the stepped one
    diagnostics: dict = field(default_factory=dict)

    def mean_first_switch_time(self, t_max: Optional[float] = None) -> float:
        """Empirical mean of the first switching time over trajectories
        that switched (by t_max if given)."""
        t1 = self.first_event_times
        if t1 is None:
            raise ValueError("first event times were not recorded")
        sel = ~np.isnan(t1)
        if t_max is not None:
            sel &= t1 <= t_max
        if not sel.any():
            raise ValueError("no switched trajectories")
        return float(t1[sel].mean())


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic 64-bit per-trajectory seed from (master seed,
    trajectory index) via the splittable SeedSequence construction."""
    ss = np.random.SeedSequence([int(master_seed), int(index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# --------------------------------------------------------------------------
# Hazard inversion on an explicit segment

def hazard_accumulate(model: MemristorModel, state: int,
                      vm_of_t: Callable[[float], float],
                      t0: float, t1: float, threshold: float,
                      rtol: float = 1e-10) -> Optional[float]:
    """Invert the accumulated exit hazard of one memristor along a
    deterministic segment with continuous voltage vm_of_t.

    Returns the time at which the integral of the exit rate from `state`
    reaches `threshold`, or None if the segment's hazard is exhausted
    below the threshold.
    """
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


# --------------------------------------------------------------------------
# Generic per-trajectory engine

class _GenericEngine:
    """Stepwise PDMP integration for an arbitrary netlist."""

    def __init__(self, netlist: Netlist, rtol: float = 1e-9):
        self.netlist = netlist
        self.rtol = rtol
        self.models = [m.model for m in netlist.memristors]
        self.constant_sources = all(s.waveform.is_constant()
                                    for s in netlist.sources)
        self._dyn_cache = {}

    def dynamics(self, states: tuple):
        dyn = self._dyn_cache.get(states)
        if dyn is None:
            dyn = affine_dynamics(self.netlist, states)
            self._dyn_cache[states] = dyn
        return dyn

    def source_vector(self, t: float) -> np.ndarray:
        return np.array([s.waveform(t) for s in self.netlist.sources])

    def _advance(self, dyn, q: np.ndarray, t: float, h: float):
        """Charge update over [t, t+h]; returns (q_mid, q_end, error
        estimate).

        Exact exponential update for a single capacitor with constant
        sources (zero error), otherwise two RK4 half steps (which also
        furnish the midpoint) with a Richardson error estimate against a
        single full step."""
        if self.constant_sources and len(q) == 1:
            vs = self.source_vector(t)
            a = float((dyn.B @ vs)[0])
            b = -float(dyn.A[0, 0])
            if b > 0:
                q_inf = a / b
                q_mid = q_inf + (q[0] - q_inf) * math.exp(-b * h / 2)
                q_end = q_inf + (q[0] - q_inf) * math.exp(-b * h)
            else:
                q_mid = q[0] + a * h / 2
                q_end = q[0] + a * h
            return np.array([q_mid]), np.array([q_end]), 0.0

        def f(qq, tt):
            return dyn.dqdt(qq, self.source_vector(tt))

        def rk4(qq, tt, hh):
            k1 = f(qq, tt)
            k2 = f(qq + hh / 2 * k1, tt + hh / 2)
            k3 = f(qq + hh / 2 * k2, tt + hh / 2)
            k4 = f(qq + hh * k3, tt + hh)
            return qq + hh / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        q_mid = rk4(q, t, h / 2)
        q_end = rk4(q_mid, t + h / 2, h / 2)
        q_full = rk4(q, t, h)
        scale = float(np.max(np.abs(q_end))) + 1e-300
        err = float(np.max(np.abs(q_end - q_full))) / 15.0 / scale
        return q_mid, q_end, err

    def _step_size(self, dyn, q, t, states, t_limit):
        vs = self.source_vector(t)
        vm = dyn.memristor_voltages(q, vs)
        total = sum(m.total_exit_rate(s, v)
                    for m, s, v in zip(self.models, states, vm))
        h = t_limit - t
        if total > 0:
            h = min(h, HAZARD_STEP_FACTOR / total)
        # resolve the circuit's own time scales
        a_scale = float(np.abs(dyn.A).max())
        if a_scale > 0:
            h = min(h, 0.25 / a_scale)
        # resolve how fast the rates themselves change: d ln(rate)/dt of
        # the exponential law is |dvm/dt| / V-scale
        dq = dyn.dqdt(q, vs)
        for m, s, (dvm,) in zip(self.models, states,
                                (dyn.Dq @ dq).reshape(-1, 1)):
            scales = []
            if s < m.num_states - 1:
                scales.append(m.v_up[s])
            if s > 0:
                scales.append(m.v_down[s - 1])
            if scales and dvm != 0.0:
                h = min(h, RATE_CURVATURE_FACTOR * min(scales) / abs(dvm))
        for src in self.netlist.sources:
            for bp in src.waveform.breakpoint_times():
                if t < bp <= t + h:
                    h = bp - t
        return max(h, 0.0)

    def simulate(self, initial: CircuitState, t_end: float, seed: int,
                 output_times: Optional[Sequence[float]] = None
                 ) -> TrajectoryRecord:
        rng = np.random.Generator(np.random.Philox(key=int(seed)))
        n_mem = len(self.netlist.memristors)
        states = tuple(initial.memristor_states)
        q = np.array(initial.capacitor_charges, dtype=float)
        t = float(initial.time)
        if t_end <= t:
            raise ValueError("t_end must exceed the initial time")

        thresholds = np.array([rng.exponential() for _ in range(n_mem)])
        hazards = np.zeros(n_mem)
        events = []

        outputs = sorted(float(x) for x in
                         ([] if output_times is None else output_times))
        outputs = [x for x in outputs if t <= x <= t_end]
        if not outputs or outputs[-1] < t_end:
            outputs.append(t_end)
        sample_t, sample_q, sample_s = [], [], []
        out_iter = iter(outputs)
        next_out = next(out_iter)
        if next_out == t:
            sample_t.append(t)
            sample_q.append(q.copy())
            sample_s.append(states)
            next_out = next(out_iter, None)

        h_floor = 1e-15 * max(t_end, 1.0)
        while t < t_end - h_floor:
            dyn = self.dynamics(states)
            t_limit = next_out if next_out is not None else t_end
            h = self._step_size(dyn, q, t, states, t_limit)
            if h <= h_floor:
                if abs(t_limit - t) <= h_floor:
                    h = t_limit - t
                else:
                    raise TrajectoryFailure(
                        f"ODE step size underflow at t = {t:g} s")
            while True:
                q_mid, q_end, err = self._advance(dyn, q, t, h)
                if err <= self.rtol or h <= h_floor:
                    break
                h /= 2.0
            if h <= h_floor and err > self.rtol:
                raise TrajectoryFailure(
                    f"ODE step size underflow at t = {t:g} s")

            vs0 = self.source_vector(t)
            vsm = self.source_vector(t + h / 2)
            vs1 = self.source_vector(t + h)
            vm0 = dyn.memristor_voltages(q, vs0)
            vmm = dyn.memristor_voltages(q_mid, vsm)
            vm1 = dyn.memristor_voltages(q_end, vs1)

            rates0 = np.array([m.total_exit_rate(s, v) for m, s, v
                               in zip(self.models, states, vm0)])
            ratesm = np.array([m.total_exit_rate(s, v) for m, s, v
                               in zip(self.models, states, vmm)])
            rates1 = np.array([m.total_exit_rate(s, v) for m, s, v
                               in zip(self.models, states, vm1)])
            delta = h / 6.0 * (rates0 + 4.0 * ratesm + rates1)

            crossed = np.nonzero(hazards + delta >= thresholds)[0]
            if crossed.size:
                # earliest firing memristor in this step
                best = None
                for j in crossed:
                    te = self._invert_in_step(
                        t, h, hazards[j], thresholds[j],
                        rates0[j], ratesm[j], rates1[j])
                    if best is None or te < best[0]:
                        best = (te, int(j))
                te, j = best
                frac = (te - t) / h
                q_event = _hermite(q, q_mid, q_end, frac)
                # hazards of the other clocks accumulate up to te
                part = _simpson_partial(h, rates0, ratesm, rates1, frac)
                hazards += part
                vs_e = self.source_vector(te)
                vm_e = dyn.memristor_voltages(q_event, vs_e)
                old = states[j]
                direction = 1 if vm_e[j] > 0 else -1
                new = old + direction
                model = self.models[j]
                if not 0 <= new < model.num_states:
                    # the wrong-direction rate is zero, so a boundary
                    # state can only fire toward the interior
                    raise TrajectoryFailure(
                        f"impossible transition {old} -> {new} at t = {te:g} s")
                events.append((float(te), j, old, new))
                states = states[:j] + (new,) + states[j + 1:]
                hazards[j] = 0.0
                thresholds[j] = rng.exponential()
                q = q_event
                t = float(te)
                continue

            hazards += delta
            q = q_end
            t = t + h
            if next_out is not None and t >= next_out - h_floor:
                sample_t.append(next_out)
                sample_q.append(q.copy())
                sample_s.append(states)
                next_out = next(out_iter, None)

        final = CircuitState(states, tuple(q), t_end)
        return TrajectoryRecord(events, np.array(sample_t),
                                np.array(sample_q).reshape(len(sample_t), -1),
                                np.array(sample_s).reshape(len(sample_t), -1),
                                final)

    @staticmethod
    def _invert_in_step(t, h, accumulated, threshold, r0, rm, r1):
        """Event time within [t, t+h] where the hazard reaches the
        threshold, using the piecewise-linear rate through the three
        Simpson nodes."""
        target = threshold - accumulated
        half = h / 2.0
        area1 = half * (r0 + rm) / 2.0
        if target <= area1 or area1 >= target:
            s = _invert_trapezoid(r0, rm, half, min(target, area1))
            return t + s
        s = _invert_trapezoid(rm, r1, half, target - area1)
        return t + half + s


def _invert_trapezoid(ra, rb, width, target):
    """Solve int_0^s (ra + (rb-ra) u/width) du = target for s in
    [0, width]."""
    if target <= 0:
        return 0.0
    slope = (rb - ra) / width
    if abs(slope) < 1e-300:
        return min(target / max(ra, 1e-300), width)
    disc = ra * ra + 2.0 * slope * target
    if disc < 0:
        return width
    s = (-ra + math.sqrt(disc)) / slope
    return min(max(s, 0.0), width)


def _hermite(q0, q_mid, q1, frac):
    """Quadratic interpolation of the charge path through the three
    step nodes."""
    # Lagrange basis on nodes 0, 1/2, 1
    l0 = 2.0 * (frac - 0.5) * (frac - 1.0)
    l1 = -4.0 * frac * (frac - 1.0)
    l2 = 2.0 * frac * (frac - 0.5)
    return q0 * l0 + q_mid * l1 + q1 * l2


def _simpson_partial(h, r0, rm, r1, frac):
    """Approximate per-memristor hazard over [t, t + frac h] from the
    piecewise-linear rate through the Simpson nodes."""
    half = h / 2.0
    s = frac * h
    if s <= half:
        u = s / half
        return half * (r0 * u + (rm - r0) * u * u / 2.0)
    u = (s - half) / half
    first = half * (r0 + rm) / 2.0
    return first + half * (rm * u + (r1 - rm) * u * u / 2.0)


def simulate_trajectory(netlist: Netlist, initial: CircuitState,
                        t_end: float, seed: int,
                        output_times: Optional[Sequence[float]] = None,
                        rtol: float = 1e-9) -> TrajectoryRecord:
    """Sample one exact trajectory of the circuit's jump process.

    Identical (inputs, seed) give bitwise-identical records.
    """
    return _GenericEngine(netlist, rtol).simulate(initial, t_end, seed,
                                                  output_times)


# --------------------------------------------------------------------------
# Vectorized single-memristor single-capacitor ensemble

def _is_single_device(netlist: Netlist) -> bool:
    return (len(netlist.memristors) == 1 and len(netlist.capacitors) == 1
            and len(netlist.sources) == 1)


class _VectorEnsemble:
    """All trajectories as (n,) arrays of charge, state and clock.

    Constant and step drives take exact event-to-event rounds (`_run_exact`);
    sine and PWL drives advance on a shared adaptive time grid
    (`_run_stepped`)."""

    def __init__(self, netlist: Netlist, n: int, master_seed: int,
                 histogram_bins: int):
        self.netlist = netlist
        self.model = netlist.memristors[0].model
        self.n = n
        self.master_seed = int(master_seed)
        self.bins = histogram_bins
        self.wave = netlist.sources[0].waveform
        g = self.model.num_states
        dyn = [affine_dynamics(netlist, (i,)) for i in range(g)]
        self.A = np.array([float(d.A[0, 0]) for d in dyn])
        self.B = np.array([float(d.B[0, 0]) for d in dyn])
        self.Dq = np.array([float(d.Dq[0, 0]) for d in dyn])
        self.Ds = np.array([float(d.Ds[0, 0]) for d in dyn])
        inf = math.inf
        self.tau_up = np.array(list(self.model.tau_up) + [inf])
        self.v_up = np.array(list(self.model.v_up) + [1.0])
        self.tau_dn = np.array([inf] + list(self.model.tau_down))
        self.v_dn = np.array([1.0] + list(self.model.v_down))
        # exact path: RC time constant per state (1 s where the capacitor
        # is cut off, A = 0) and the log of each rate's ceiling times tau_x
        self.tau = np.where(self.A < 0.0, -1.0 / np.where(self.A < 0.0, self.A, -1.0),
                            1.0)
        with np.errstate(divide="ignore"):
            self.log_cap_up = np.log(self.model.rate_ceiling * self.tau_up)
            self.log_cap_dn = np.log(self.model.rate_ceiling * self.tau_dn)
        self._threshold_rounds = {}

    # -- counter-based threshold streams -------------------------------
    def _thresholds(self, round_idx: int) -> np.ndarray:
        """The round_idx-th exponential threshold of every trajectory
        (read-only; cached for the engine's lifetime)."""
        arr = self._threshold_rounds.get(round_idx)
        if arr is None:
            rng = np.random.Generator(
                np.random.Philox(key=[self.master_seed, round_idx]))
            arr = rng.exponential(size=self.n)
            arr.flags.writeable = False
            self._threshold_rounds[round_idx] = arr
        return arr

    def _draw(self, idx, draw):
        """Next thresholds of trajectories idx, each from its own round."""
        rounds = draw[idx]
        out = np.empty(idx.size)
        for rnd in np.unique(rounds):
            sel = rounds == rnd
            out[sel] = self._thresholds(int(rnd))[idx[sel]]
        draw[idx] += 1
        return out

    # -- vectorized physics --------------------------------------------
    def _vm(self, state, q, v):
        return self.Dq[state] * q + self.Ds[state] * v

    def _rates(self, state, vm):
        ceiling = self.model.rate_ceiling
        with np.errstate(over="ignore"):
            up = np.where(vm > 0.0,
                          np.exp(np.minimum(vm / self.v_up[state], 700.0))
                          / self.tau_up[state], 0.0)
            dn = np.where(vm < 0.0,
                          np.exp(np.minimum(-vm / self.v_dn[state], 700.0))
                          / self.tau_dn[state], 0.0)
        return np.minimum(up, ceiling), np.minimum(dn, ceiling)

    def run(self, initial: CircuitState, t_end: float,
            output_times: Sequence[float]) -> EnsembleStats:
        n = self.n
        g = self.model.num_states
        q_init = float(initial.capacitor_charges[0])
        state = np.full(n, int(initial.memristor_states[0]), dtype=np.int64)
        first_event = np.full(n, np.nan)

        t = float(initial.time)
        outputs = sorted(set(float(x) for x in output_times) | {float(t_end)})
        if outputs[0] < t:
            raise ValueError("output time before the initial time")

        # shared histogram range covering the reachable charges
        vmin, vmax = self.wave.bounds(t_end)
        cap = self.netlist.capacitors[0].capacitance
        lo = min(q_init, cap * vmin, 0.0)
        hi = max(q_init, cap * vmax)
        pad = 0.05 * max(hi - lo, abs(hi), 1e-30)
        edges = np.linspace(lo - pad, hi + pad, self.bins + 1)

        times, occ, se, hists = [], [], [], []

        def record(t_now, q):
            counts = np.bincount(state, minlength=g).astype(float)
            p = counts / n
            times.append(t_now)
            occ.append(p)
            se.append(np.sqrt(p * (1.0 - p) / n))
            hist = np.zeros((g, self.bins))
            for i in range(g):
                sel = state == i
                if sel.any():
                    hist[i], _ = np.histogram(q[sel], bins=edges)
            hists.append(hist)

        if outputs[0] == t:
            record(t, np.full(n, q_init))
            outputs = outputs[1:]

        run_path = (self._run_exact if self.wave.kind in ("constant", "step")
                    else self._run_stepped)
        events_up, events_down, diagnostics = run_path(
            state, q_init, t, float(t_end), outputs, record, first_event)

        occ_arr = np.vstack(occ)
        se_arr = np.vstack(se)
        return EnsembleStats(
            times=np.array(times),
            occupancy=[occ_arr],
            stderr=[se_arr],
            histograms=[(h, edges) for h in hists],
            n=n,
            events_up=events_up,
            events_down=events_down,
            first_event_times=first_event,
            diagnostics=diagnostics,
        )

    # -- exact event-to-event rounds (constant and step drives) ---------
    def _run_exact(self, state, q_init, t, t_end, outputs, record, first_event):
        """Each trajectory jumps from stop to stop: its next event, or the
        end of its RC segment (the step time or t_end).  Within a segment
        the source is constant, so vm = a + b e^{-(t - t0)/tau} and the
        hazard is inverted in closed form (`_next_stops`)."""
        A, B = self.A, self.B
        if np.any((A > 0.0) | ((A == 0.0) & (B != 0.0))):
            raise ValueError(
                "exact hazard inversion needs the capacitor to relax in every "
                "state (dq/dt = A q + B v with A < 0, or A = B = 0)")
        n = self.n
        self._diag = dict(path="exact", rounds=0, newton_iterations=0,
                          newton_max=0, sign_splits=0, ceiling_splits=0)
        t0 = np.full(n, t)
        q0 = np.full(n, q_init)
        remaining = self._thresholds(0).copy()
        draw = np.ones(n, dtype=np.int64)
        stop = _Stops(n)
        everyone = np.arange(n)
        self._next_stops(everyone, state, t0, q0, remaining, t_end, stop)
        self._diag["rounds"] += 1
        events_up = 0
        events_down = 0
        for t_out in outputs:
            while True:
                due = np.nonzero(stop.t < t_out)[0]
                if not due.size:
                    break
                fired = due[stop.fires[due]]
                up = stop.up[fired]
                events_up += int(up.sum())
                events_down += int(up.size - up.sum())
                state[fired] += np.where(up, 1, -1)
                fe = first_event[fired]
                first_event[fired] = np.where(np.isnan(fe), stop.t[fired], fe)
                remaining[fired] = self._draw(fired, draw)
                q0[due] = stop.q_at(due, stop.d[due])
                t0[due] = stop.t[due]
                self._next_stops(due, state, t0, q0, remaining, t_end, stop)
                self._diag["rounds"] += 1
            record(t_out, stop.q_at(everyone, (t_out - t0) / self.tau[state]))
        return events_up, events_down, self._diag

    def _next_stops(self, idx, state, t0, q0, remaining, t_end, stop):
        """Fill `stop` for trajectories idx, whose segments start at
        (t0, q0) in `state`, with their next event or segment end.  A
        segment end carries the unspent hazard forward in `remaining`."""
        if idx.size > _STOP_BATCH:
            for part in np.array_split(idx, -(-idx.size // _STOP_BATCH)):
                self._next_stops(part, state, t0, q0, remaining, t_end, stop)
            return
        w = self.wave
        s = state[idx]
        tau = self.tau[s]
        start = t0[idx]
        if w.kind == "step":
            before = start < w.t_step
            v = np.where(before, w.value_before, w.amplitude)
            seg_end = np.where(before, min(w.t_step, t_end), t_end)
        else:
            v = np.full(idx.size, w.amplitude)
            seg_end = np.full(idx.size, t_end)
        qs = q0[idx]
        q_inf = np.where(self.A[s] < 0.0, self.B[s] * v * tau, qs)
        a = self.Dq[s] * q_inf + self.Ds[s] * v
        b = self.Dq[s] * (qs - q_inf)
        d_end = (seg_end - start) / tau
        left = remaining[idx].copy()
        d = np.zeros(idx.size)
        d_stop = d_end.copy()
        fires = np.zeros(idx.size, dtype=bool)
        up_out = np.zeros(idx.size, dtype=bool)
        # vm changes sign once, at d_sign, when |b| > |a| and a b < 0
        with np.errstate(divide="ignore", invalid="ignore"):
            d_sign = np.where((a * b < 0.0) & (np.abs(b) > np.abs(a)),
                              np.log(-b / a), math.inf)
        pend = np.arange(idx.size)
        while pend.size:
            p = self._piece(s[pend], a[pend], b[pend], d[pend],
                            d_sign[pend], d_end[pend])
            dp, dq, tp = d[pend], p.end, tau[pend]
            haz = np.zeros(pend.size)
            at_cap = p.live & p.above
            haz[at_cap] = self.model.rate_ceiling * tp[at_cap] * (dq - dp)[at_cap]
            curve = np.nonzero(p.live & ~p.above)[0]
            begin = ei_term(p.alpha[curve], p.beta[curve], dp[curve])
            integral, _, _ = hazard_integral(p.alpha[curve], p.beta[curve],
                                             dp[curve], dq[curve], begin)
            haz[curve] = tp[curve] / p.tau_x[curve] * integral
            need = left[pend]
            fire = p.live & (haz >= need)
            # events at the ceiling: the rate is constant
            hit = np.nonzero(fire & at_cap)[0]
            d_stop[pend[hit]] = np.minimum(
                dp[hit] + need[hit] / (self.model.rate_ceiling * tp[hit]), dq[hit])
            # events on the exponential law: Newton on the hazard
            sub = np.nonzero(fire[curve])[0]
            if sub.size:
                c = curve[sub]
                d_stop[pend[c]] = self._invert(
                    p.alpha[c], p.beta[c], dp[c], dq[c],
                    need[c] * p.tau_x[c] / tp[c],
                    tuple(x[sub] for x in begin))
            fires[pend[fire]] = True
            up_out[pend[fire]] = p.up[fire]
            # no event in this piece: spend its hazard, move to the next
            go_on = ~fire
            left[pend[go_on]] -= haz[go_on]
            split = go_on & (dq < d_end[pend])
            self._diag["sign_splits"] += int(np.sum(split & (dq == p.sign_end)))
            self._diag["ceiling_splits"] += int(np.sum(split & (dq != p.sign_end)))
            d[pend[split]] = dq[split]
            pend = pend[split]
        remaining[idx] = left
        stop.t[idx] = np.minimum(start + tau * d_stop, seg_end)
        stop.d[idx] = d_stop
        stop.fires[idx] = fires
        stop.up[idx] = up_out
        stop.q_inf[idx] = q_inf
        stop.q0[idx] = qs

    def _invert(self, alpha, beta, d0, d1, target, begin):
        """d in (d0, d1] where hazard_integral(alpha, beta, d0, d) equals
        target (<= its value at d1).

        Newton's method with the exponent linearized at each iterate: the
        step solves (r/x)(1 - e^{-x s}) = target - I, where r is the rate
        and x = beta e^{-d} its log-slope, so a decaying rate does not
        stall it.  Every iterate shrinks a bracket, and a step that
        leaves it bisects it instead."""
        lo, hi = d0.copy(), d1.copy()
        d = d0 + _exp_step(beta * np.exp(-d0), begin[2], target)
        d = np.where((d > lo) & (d < hi), d, 0.5 * (lo + hi))
        iters = np.zeros(d.size, dtype=np.int64)
        act = np.arange(d.size)
        while act.size:
            iters[act] += 1
            if iters[act[0]] > _NEWTON_MAX_ITER:
                raise TrajectoryFailure(
                    f"hazard inversion did not converge in {_NEWTON_MAX_ITER} "
                    "iterations")
            da = d[act]
            integral, scale, rate = hazard_integral(
                alpha[act], beta[act], d0[act], da, tuple(x[act] for x in begin))
            f = integral - target[act]
            done = np.abs(f) <= 16.0 * _EPS * np.maximum(target[act], scale)
            lo[act] = np.where(f < 0.0, da, lo[act])
            hi[act] = np.where(f > 0.0, da, hi[act])
            step = _exp_step(beta[act] * np.exp(-da), rate, -f)
            new = da + step
            inside = (new > lo[act]) & (new < hi[act])
            new = np.where(inside, new, 0.5 * (lo[act] + hi[act]))
            done |= (np.abs(step) <= 1e-14 * da) | (new == da)
            d[act] = np.where(done & ~inside, da, new)
            act = act[~done]
        self._diag["newton_iterations"] += int(iters.sum())
        self._diag["newton_max"] = max(self._diag["newton_max"], int(iters.max()))
        return d

    def _piece(self, s, a, b, d, d_sign, d_end):
        """The stretch of a segment from offset d on over which the exit
        rate keeps one form: one direction (vm does not change sign) and
        either below or at the rate ceiling."""
        g = self.model.num_states
        # vm = a + b e^{-d} has the sign of b before a sign change and the
        # sign of a after one or where there is none (b's when a = 0)
        before = d < d_sign
        sgn = np.where((before & (d_sign < math.inf)) | (a == 0.0),
                       np.sign(b), np.sign(a))
        up = (sgn > 0) & (s < g - 1)
        live = up | ((sgn < 0) & (s > 0))
        v_x = np.where(up, self.v_up[s], self.v_dn[s])
        tau_x = np.where(up, self.tau_up[s], self.tau_dn[s])
        log_cap = np.where(up, self.log_cap_up[s], self.log_cap_dn[s])
        alpha = sgn * a / v_x
        beta = sgn * b / v_x
        # the exponent alpha + beta e^{-d} is monotone and meets log_cap
        # once, at d_cap, when 0 < r < 1
        with np.errstate(divide="ignore", invalid="ignore"):
            r = (log_cap - alpha) / beta
            d_cap = np.where((r > 0.0) & (r < 1.0), -np.log(r), math.inf)
        crosses = d_cap < math.inf
        above = np.where(beta > 0.0, (r <= 0.0) | (crosses & (d < d_cap)),
                         np.where(beta < 0.0, (r >= 1.0) | (crosses & (d >= d_cap)),
                                  alpha > log_cap))
        sign_end = np.where(before, d_sign, math.inf)
        cap_end = np.where(live & (d < d_cap), d_cap, math.inf)
        end = np.minimum(np.minimum(sign_end, cap_end), d_end)
        return _Piece(live, up, above, alpha, beta, tau_x, end, sign_end)

    # -- shared adaptive grid (sine and PWL drives) ---------------------
    def _advance(self, state, q, t, h):
        """(q_mid, q_end) over [t, t+h] by two RK4 half steps; h may be a
        scalar or per trajectory."""
        a = self.A[state]

        def f(qq, tt):
            return a * qq + self.B[state] * self.wave(tt)

        def rk4(qq, tt, hh):
            k1 = f(qq, tt)
            k2 = f(qq + hh / 2 * k1, tt + hh / 2)
            k3 = f(qq + hh / 2 * k2, tt + hh / 2)
            k4 = f(qq + hh * k3, tt + hh)
            return qq + hh / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        q_mid = rk4(q, t, h / 2)
        q_end = rk4(q_mid, t + h / 2, h / 2)
        return q_mid, q_end

    def _step_size(self, state, q, t, t_limit, h_floor):
        v = self.wave(t)
        vm = self._vm(state, q, v)
        up, dn = self._rates(state, vm)
        total = up + dn
        h = t_limit - t
        rmax = float(total.max())
        if rmax > 0:
            h = min(h, HAZARD_STEP_FACTOR / rmax)
        a_scale = float(np.abs(self.A[state]).max())
        if a_scale > 0:
            h = min(h, 0.25 / a_scale)
        # rate-curvature cap: |d ln rate / dt| = |dvm/dt| / V-scale
        dq = self.A[state] * q + self.B[state] * v
        dvm = np.abs(self.Dq[state] * dq)
        vs_up = np.where(up > 0, self.v_up[state], math.inf)
        vs_dn = np.where(dn > 0, self.v_dn[state], math.inf)
        vscale = np.minimum(vs_up, vs_dn)
        with np.errstate(divide="ignore", invalid="ignore"):
            cap = np.where((dvm > 0) & np.isfinite(vscale),
                           RATE_CURVATURE_FACTOR * vscale / dvm, math.inf)
        cmin = float(cap.min())
        if math.isfinite(cmin):
            h = min(h, cmin)
        # a breakpoint within the floor of t counts as passed
        for bp in self.wave.breakpoint_times():
            if t + h_floor < bp <= t + h:
                h = bp - t
        return max(h, 0.0)

    def _run_stepped(self, state, q_init, t, t_end, outputs, record, first_event):
        n = self.n
        q = np.full(n, q_init)
        lam = np.zeros(n)
        thr = self._thresholds(0).copy()
        draw = np.ones(n, dtype=np.int64)
        events_up = 0
        events_down = 0
        self._diag = dict(path="stepped", shared_steps=0, max_cascade=0)
        h_floor = 1e-15 * max(t_end, 1.0)
        for t_out in outputs:
            while t < t_out - h_floor:
                h = self._step_size(state, q, t, t_out, h_floor)
                if h <= h_floor:
                    raise TrajectoryFailure(
                        f"step size control needs h = {h:.3g} s at t = {t:.9g} s, "
                        f"below the floor {h_floor:.3g} s")
                self._diag["shared_steps"] += 1
                q_mid, q_end = self._advance(state, q, t, h)
                v0, vm_, v1 = self.wave(t), self.wave(t + h / 2), self.wave(t + h)
                r0u, r0d = self._rates(state, self._vm(state, q, v0))
                rmu, rmd = self._rates(state, self._vm(state, q_mid, vm_))
                r1u, r1d = self._rates(state, self._vm(state, q_end, v1))
                r0 = r0u + r0d
                rm = rmu + rmd
                r1 = r1u + r1d
                delta = h / 6.0 * (r0 + 4.0 * rm + r1)
                crossed = lam + delta >= thr
                idx = np.nonzero(crossed)[0]
                # non-crossing trajectories advance to t + h
                keep = ~crossed
                q = np.where(keep, q_end, q)
                lam = np.where(keep, lam + delta, lam)
                if idx.size:
                    evu, evd = self._handle_events(
                        idx, q, state, lam, thr, draw, first_event,
                        t, h, q_mid, q_end, r0, rm, r1)
                    events_up += evu
                    events_down += evd
                t += h
            t = t_out
            record(t, q)
        return events_up, events_down, self._diag

    def _handle_events(self, idx, q, state, lam, thr, draw, first_event,
                       t, h, q_mid, q_end, r0, rm, r1):
        """Process the trajectories whose hazard crossed within the step;
        repeats on the remaining sub-interval after each flip until no
        clock fires before t + h."""
        events_up = 0
        events_down = 0
        # per-active-subset views of the current sub-interval
        active = idx
        t0 = np.full(active.size, float(t))
        h_sub = np.full(active.size, float(h))
        qa0 = q[active].copy()
        qam = q_mid[active].copy()
        qae = q_end[active].copy()
        ra0 = r0[active].copy()
        ram = rm[active].copy()
        ra1 = r1[active].copy()
        guard = 0
        while active.size:
            guard += 1
            if guard > 64:
                raise TrajectoryFailure(
                    f"runaway switching cascade within one step at t = {t:g} s")
            self._diag["max_cascade"] = max(self._diag["max_cascade"], guard)
            target = thr[active] - lam[active]
            te = _invert_step_vec(t0, h_sub, target, ra0, ram, ra1)
            frac = (te - t0) / h_sub
            q_e = _hermite(qa0, qam, qae, frac)
            v_e = self.wave(te)
            s_a = state[active]
            vm_e = self._vm(s_a, q_e, v_e)
            # boundary states can only jump inward (the event time is
            # interpolated, so vm there may have the wrong sign); interior
            # states jump along the sign of vm
            up = (s_a == 0) | ((vm_e > 0) & (s_a < self.model.num_states - 1))
            new_state = s_a + np.where(up, 1, -1)
            events_up += int(up.sum())
            events_down += int((~up).sum())
            fe = first_event[active]
            first_event[active] = np.where(np.isnan(fe), te, fe)
            state[active] = new_state
            q[active] = q_e
            lam[active] = 0.0
            thr[active] = self._draw(active, draw)
            # integrate the remainder (te -> t + h) in the new state
            rem = (t + h) - te
            qm2, qe2 = self._advance(state[active], q_e, te, rem)
            v_m = self.wave(te + rem / 2)
            v_1 = self.wave(te + rem)
            ru0, rd0 = self._rates(state[active], self._vm(state[active], q_e, v_e))
            rum, rdm = self._rates(state[active], self._vm(state[active], qm2, v_m))
            ru1, rd1 = self._rates(state[active], self._vm(state[active], qe2, v_1))
            rr0 = ru0 + rd0
            rrm = rum + rdm
            rr1 = ru1 + rd1
            ddelta = rem / 6.0 * (rr0 + 4.0 * rrm + rr1)
            fire_again = ddelta >= thr[active]
            done = ~fire_again
            q[active[done]] = qe2[done]
            lam[active[done]] = ddelta[done]
            # trajectories firing again loop with the sub-interval as
            # their new step
            active = active[fire_again]
            t0 = te[fire_again]
            h_sub = rem[fire_again]
            qa0 = q_e[fire_again]
            qam = qm2[fire_again]
            qae = qe2[fire_again]
            ra0 = rr0[fire_again]
            ram = rrm[fire_again]
            ra1 = rr1[fire_again]
        return events_up, events_down


def _exp_step(x, rate, gap):
    """s with (rate / x)(1 - e^{-x s}) = gap: the hazard still to go when
    the exponent falls linearly with slope x from here (gap / rate when
    x = 0; nan beyond the reach of a decaying rate)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(x != 0.0, -np.log1p(-gap * x / rate) / x, gap / rate)


_EPS = float(np.finfo(float).eps)
_NEWTON_MAX_ITER = 100
# trajectories per `_next_stops` pass: it holds some sixty temporaries of
# this length, so batches keep its memory O(batch) rather than O(n)
_STOP_BATCH = 4096


class _Stops:
    """Per trajectory: the next stop (time t, offset d = (t - t0)/tau into
    the segment, whether a clock fires there and in which direction) and
    the segment's charge endpoints q0 -> q_inf."""

    def __init__(self, n):
        self.t = np.empty(n)
        self.d = np.empty(n)
        self.fires = np.zeros(n, dtype=bool)
        self.up = np.zeros(n, dtype=bool)
        self.q_inf = np.empty(n)
        self.q0 = np.empty(n)

    def q_at(self, idx, d):
        return self.q_inf[idx] + (self.q0[idx] - self.q_inf[idx]) * np.exp(-d)


@dataclass
class _Piece:
    live: np.ndarray      # a rate is on (state and sign of vm allow it)
    up: np.ndarray        # its direction
    above: np.ndarray     # the rate sits at the ceiling
    alpha: np.ndarray     # rate = exp(alpha + beta e^{-d}) / tau_x
    beta: np.ndarray
    tau_x: np.ndarray
    end: np.ndarray       # where the piece ends
    sign_end: np.ndarray  # the sign change, if that ends it


def _invert_step_vec(t0_arr, h_arr, target, r0, rm, r1):
    """Vectorized event-time inversion on per-trajectory sub-intervals
    [t0, t0 + h] using the piecewise-linear rate through the Simpson
    nodes (r0, rm, r1 at start, midpoint, end)."""
    half = h_arr / 2.0
    area1 = half * (r0 + rm) / 2.0
    in_first = target <= area1
    s = np.where(
        in_first,
        _invert_trapezoid_vec(r0, rm, half, np.minimum(target, area1)),
        half + _invert_trapezoid_vec(rm, r1, half, target - area1),
    )
    return t0_arr + s


def _invert_trapezoid_vec(ra, rb, width, target):
    target = np.maximum(target, 0.0)
    width = np.maximum(width, 1e-300)
    slope = (rb - ra) / width
    lin = np.abs(slope) < 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        s_lin = target / np.maximum(ra, 1e-300)
        disc = ra * ra + 2.0 * slope * target
        s_quad = (-ra + np.sqrt(np.maximum(disc, 0.0))) / np.where(lin, 1.0, slope)
    s = np.where(lin, s_lin, s_quad)
    return np.clip(s, 0.0, width)


# --------------------------------------------------------------------------
# Ensemble driver

def run_ensemble(netlist: Netlist, initial: CircuitState, t_end: float,
                 output_times: Sequence[float], n: int, master_seed: int,
                 histogram_bins: int = 50,
                 force_generic: bool = False) -> EnsembleStats:
    """Aggregate n independent trajectories into occupation-probability
    estimates with standard errors and conditional charge histograms.

    Single-memristor single-capacitor circuits use a vectorized engine;
    everything else loops over simulate_trajectory with per-trajectory
    seeds derived from (master_seed, index).  Failed trajectories are
    excluded and reported, never silently retried.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if _is_single_device(netlist) and not force_generic:
        eng = _VectorEnsemble(netlist, n, master_seed, histogram_bins)
        return eng.run(initial, t_end, output_times)
    return _generic_ensemble(netlist, initial, t_end, output_times, n,
                             master_seed, histogram_bins)


def _generic_ensemble(netlist, initial, t_end, output_times, n,
                      master_seed, histogram_bins):
    outputs = sorted(set(float(x) for x in output_times) | {float(t_end)})
    engine = _GenericEngine(netlist)
    models = [m.model for m in netlist.memristors]
    gs = [m.num_states for m in models]
    T = len(outputs)
    counts = [np.zeros((T, g)) for g in gs]
    first_event = np.full(n, np.nan)
    events_up = 0
    events_down = 0
    failures = []
    charge_samples = [[] for _ in range(T)]  # (state0, q0) pairs
    n_ok = 0

    for i in range(n):
        seed = derive_seed(master_seed, i)
        try:
            rec = engine.simulate(initial, t_end, seed, outputs)
        except TrajectoryFailure as exc:
            failures.append((i, str(exc)))
            continue
        n_ok += 1
        for ti, t_out in enumerate(outputs):
            k = int(np.searchsorted(rec.sample_times, t_out))
            k = min(k, len(rec.sample_times) - 1)
            for m in range(len(models)):
                counts[m][ti, rec.sample_states[k, m]] += 1
            if netlist.capacitors:
                charge_samples[ti].append((rec.sample_states[k, 0],
                                           rec.sample_charges[k, 0]))
        for (te, j, old, new) in rec.events:
            if new > old:
                events_up += 1
            else:
                events_down += 1
        if rec.events:
            first_event[i] = rec.events[0][0]

    if n_ok == 0:
        raise TrajectoryFailure("all trajectories failed")

    occupancy = [c / n_ok for c in counts]
    stderr = [np.sqrt(p * (1.0 - p) / n_ok) for p in occupancy]

    hists = []
    if netlist.capacitors:
        allq = [qv for tlist in charge_samples for _, qv in tlist]
        lo, hi = (min(allq), max(allq)) if allq else (0.0, 1.0)
        if hi <= lo:
            hi = lo + max(abs(lo), 1e-30)
        edges = np.linspace(lo, hi, histogram_bins + 1)
        for tlist in charge_samples:
            hist = np.zeros((gs[0], histogram_bins))
            for s0, qv in tlist:
                b = min(int((qv - lo) / (hi - lo) * histogram_bins),
                        histogram_bins - 1)
                hist[s0, b] += 1
            hists.append((hist, edges))

    return EnsembleStats(
        times=np.array(outputs),
        occupancy=occupancy,
        stderr=stderr,
        histograms=hists,
        n=n_ok,
        n_failed=len(failures),
        failures=failures,
        events_up=events_up,
        events_down=events_down,
        first_event_times=first_event,
    )
