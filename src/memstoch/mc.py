"""Monte Carlo sampling of circuit trajectories.

A trajectory is a piecewise-deterministic Markov process: between
switching events the capacitor charges follow the Kirchhoff ODE of the
instantaneous resistive network, and each memristor carries an
independent exponential clock whose hazard is the time integral of its
voltage-dependent exit rate along the trajectory.  A switch happens when
the hazard reaches an exponential threshold (no fixed-step Bernoulli
trials).

Both engines run all trajectories as arrays.  `_VectorEnsemble` takes
circuits with one memristor, one capacitor and one source, and draws
exact jump times: under constant and step drives it inverts the
closed-form hazard of each RC segment; under sine and PWL drives it thins
candidates drawn from a bound of the rate along the closed-form charge,
with one shared row for every trajectory that has not switched yet.
`_NetlistEnsemble` takes every other netlist and steps on a shared grid,
with charges from one closed-form flow in the eigenmodes of the Kirchhoff
ODE for every source kind, and Simpson-integrated hazards.  A step below
the floor fails, never jumps.

Both engines take exit rates from `device.switching_rate` (`_Rates` stacks
the memristors' transition tables so that one call covers every clock) and
thresholds from the same counter-based Philox streams (`_Thresholds`).
Their diagnostics count `rate_ceiling_hits`: the rates cut at the model's
ceiling or, on the exact path, the hazard pieces run at it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .analytic import ei_term, hazard_integral
from .circuit import CircuitState, Netlist, affine_dynamics
from .device import switching_rate

# step control of the netlist engine, then thinning in the vector engine
HAZARD_STEP_FACTOR = 0.1    # dt <= 0.1 / current total rate
RATE_CURVATURE_FACTOR = 0.3  # dt <= 0.3 / |d ln(rate)/dt|
MAX_CASCADE = 64            # events of one trajectory within one step
MAX_CANDIDATES = 10_000     # candidates of one trajectory within one output interval
_WINDOW_SLACK = 1.0         # bound on the envelope's excess over the log-rate


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
    # what the engine did: its path, step, window, candidate and cascade
    # counts, Newton iterations and splits (see each engine)
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


# --------------------------------------------------------------------------
# Array engine for any netlist

def _mv(a, x):
    """Batched matrix-vector product: a (..., I, J) times x (..., J)."""
    return np.einsum("...ij,...j->...i", a, x)


class _Rates:
    """Exit rates of the clocks of M memristors in one `switching_rate`
    call: each model's `transitions`, padded to the largest state count
    gmax with absent ones, flattened so that entry base[m] + s + gmax (vm < 0)
    is the transition out of state s of memristor m that vm drives."""

    def __init__(self, models):
        self.gmax = max((m.num_states for m in models), default=1)
        table = np.full((len(models), 2, 2, self.gmax), math.inf)
        for m, model in enumerate(models):
            table[m, ..., :model.num_states] = model.transitions.reshape(2, 2, -1)
        self.v_scale, self.tau = table[:, 0].ravel(), table[:, 1].ravel()
        # (M, gmax): the smallest voltage scale out of each state
        self.v_min = table[:, 0].min(axis=1)
        self.base = np.arange(len(models)) * 2 * self.gmax
        self.ceiling = np.array([m.rate_ceiling for m in models])

    def __call__(self, s, vm, diag):
        """Rates of clocks in states s at voltages vm (the last axis over
        memristors) and their entries; ceiling hits are tallied in diag."""
        i = self.base + s + self.gmax * (vm < 0.0)
        return switching_rate(vm, self.v_scale[i], self.tau[i], self.ceiling, diag), i


class _Thresholds:
    """Counter-based exponential thresholds: Philox stream [master_seed, k]
    holds, for k = round * M + m, the round-th threshold of clock m of each
    of the n trajectories (read-only, cached)."""

    def __init__(self, master_seed: int, n: int, M: int = 1):
        self.key, self.n, self.M = int(master_seed), n, M
        self.streams = {}

    def stream(self, k: int) -> np.ndarray:
        if k not in self.streams:
            rng = np.random.Generator(np.random.Philox(key=[self.key, k]))
            self.streams[k] = rng.exponential(size=self.n)
            self.streams[k].flags.writeable = False
        return self.streams[k]

    def take(self, ids, k):
        """Entry ids[i] of stream k[i], for each i."""
        if k.size and (k == k[0]).all():
            return self.stream(int(k[0]))[ids]
        out = np.empty(k.size)
        for kk in np.unique(k):
            sel = k == kk
            out[sel] = self.stream(int(kk))[ids[sel]]
        return out

    def draw(self, ids, rounds, at, m=0):
        """Next thresholds of clocks m of trajectories ids, whose rounds
        are rounds[at]; advances those rounds."""
        out = self.take(ids, rounds[at] * self.M + m)
        rounds[at] += 1
        return out


class _NetlistEnsemble:
    """All n trajectories of any netlist as arrays: charges (n, K), states,
    hazards and thresholds (n, M).  Each memristor-state configuration (a
    mixed-radix index) gets a row of tables on first use: its
    `affine_dynamics` and an eigenbasis of A.  Trajectories share one
    adaptive time grid, with steps that end at breakpoints and last at most
    0.25 / w of the fastest sine.  Charges follow the exact flow of
    dq/dt = A q + B v(t) under every source kind (`_flow`), also to an event
    time.  Hazards are Simpson-integrated; an event inverts the
    piecewise-linear rate through the Simpson nodes, and the rest of the
    step runs in the new configuration.  A trajectory that needs a step below
    the floor, or more than MAX_CASCADE events in one step, fails alone."""

    def __init__(self, netlist: Netlist, n: int, master_seed: int,
                 histogram_bins: int = 50):
        self.netlist = netlist
        self.n = n
        self.bins = histogram_bins
        self.waves = [s.waveform for s in netlist.sources]
        self.piecewise_constant = all(w.kind in ("constant", "step") for w in self.waves)
        self.breakpoints = sorted({b for w in self.waves for b in w.breakpoint_times()})
        # sines v = offset + amp sin(w t), and the slopes of each PWL segment
        sines = [(k, w) for k, w in enumerate(self.waves) if w.kind == "sine"]
        self.sine = np.array([k for k, _ in sines], dtype=np.intp)
        self.omega, self.amp, self.offset = np.array(
            [(2.0 * math.pi * w.frequency, w.amplitude, w.offset) for _, w in sines]).reshape(-1, 3).T
        self.h_wave = 0.25 / float(self.omega.max()) if self.omega.any() else math.inf
        self.ramps = [(k, ts, np.r_[0.0, np.diff(vs) / np.diff(ts), 0.0])
                      for k, w in enumerate(self.waves) if w.kind == "pwl"
                      for ts, vs in [np.array(w.breakpoints, dtype=float).T]]
        models = [m.model for m in netlist.memristors]
        self.gs = [m.num_states for m in models]
        self.M, self.K = len(models), len(netlist.capacitors)
        self.strides = np.cumprod([1] + self.gs[:-1])[:self.M].astype(np.int64)
        self.top = np.array(self.gs, dtype=np.int64) - 1
        self.rates = _Rates(models)
        self.mi = np.arange(self.M)
        self.sqrt_c = np.sqrt([c.capacitance for c in netlist.capacitors])
        self.config_row = {}     # configuration index -> table row
        self.tables = []
        self.thresholds = _Thresholds(master_seed, n, self.M)

    # -- configuration tables ------------------------------------------
    def _add_configuration(self, index: int, states: tuple) -> None:
        d = affine_dynamics(self.netlist, states)
        # A = -L C^{-1} with L symmetric, so C^{-1/2} A C^{1/2} is symmetric
        # negative semi-definite: A = V diag(lam) V^{-1} with real lam <= 0
        c = self.sqrt_c
        sym = d.A * c[None, :] / c[:, None]
        lam, u = np.linalg.eigh(0.5 * (sym + sym.T))
        vec, inv = c[:, None] * u, u.T / c[None, :]
        if self.K and np.abs(vec * lam @ inv - d.A).max() > 1e-9 * np.abs(d.A).max():
            raise ValueError(f"configuration {states}: the network is not reciprocal")
        self.tables.append((d.A, d.B, d.Dq, d.Ds, vec, inv, lam, inv @ d.B))
        (self.A, self.B, self.Dq, self.Ds, self.V, self.Vinv,
         self.eig, self.Bhat) = (np.stack(x) for x in zip(*self.tables))
        self.a_scale = np.abs(self.A).max(axis=(1, 2), initial=0.0)
        self.config_row[index] = len(self.tables) - 1

    def _rows_of(self, s):
        """Table rows of the configurations of states s (rows, M)."""
        index = s @ self.strides
        rows = np.empty(index.size, dtype=np.int64)
        for c, i in zip(*np.unique(index, return_index=True)):
            if c not in self.config_row:
                self._add_configuration(c, tuple(s[i].tolist()))
            rows[index == c] = self.config_row[c]
        return rows

    # -- vectorized physics --------------------------------------------
    def _v(self, t):
        """Source voltages at t: (S,) for a scalar t, (n, S) for an array."""
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (len(self.waves),))
        for k, w in enumerate(self.waves):
            out[..., k] = w(t)
        return out

    def _vm(self, rows, q, v):
        return _mv(self.Dq[rows], q) + _mv(self.Ds[rows], v)

    def _parts(self, t, v):
        """At t (scalar or per row), with v the source values there: v
        without its sine parts, the PWL slopes and amp e^{iwt} of the sines."""
        t = np.asarray(t, dtype=float)
        v0 = v + np.zeros(t.shape + (1,))
        v0[..., self.sine] = self.offset
        k = np.zeros_like(v0)
        for j, ts, slope in self.ramps:
            k[..., j] = slope[np.searchsorted(ts, t, "right")]
        return v0, k, self.amp * np.exp(1j * self.omega * t[..., None])

    def _flow(self, rows, q, t, v, *spans):
        """Exact charges after each span (scalar or per row) from q at t,
        with v = v(t).  In mode lam of A, with y = V^{-1} q and b = V^{-1} B,
        y moves by s phi1(lam s)(lam y + b v0) + s^2 phi2(lam s) b k
        + b amp Im[e^{iwt} (e^{iws} - e^{lam s}) / (iw - lam)], where v0 is v
        without its sine parts and k the PWL slopes (`_parts`); piecewise-
        constant sources have the first term only, and lam = 0 is taken
        through the phi limits."""
        ramp = not self.piecewise_constant
        if ramp:
            v, k, ph = self._parts(t, v)
            bk, b = _mv(self.Bhat[rows], k), self.Bhat[rows][..., self.sine]
        g = _mv(self.Vinv[rows], _mv(self.A[rows], q) + _mv(self.B[rows], v))
        eig, vec = self.eig[rows], self.V[rows]
        out = []
        for span in spans:
            s = np.reshape(span, (-1, 1))
            z = eig * s
            with np.errstate(divide="ignore", invalid="ignore"):
                phi = np.where(z != 0.0, np.expm1(z) / z, 1.0)
                dy = phi * s * g
                if ramp:
                    phi2 = np.where(z != 0.0, (phi - 1.0) / z, 0.5)
                    den = 1j * self.omega - eig[..., None]
                    wave = ((np.expm1(1j * self.omega * s[..., None]) - np.expm1(z)[..., None])
                            / np.where(den != 0.0, den, 1.0))
                    dy += phi2 * s * s * bk + (b * np.imag(ph[..., None, :] * wave)).sum(axis=-1)
            out.append(q + _mv(vec, dy))
        return out

    def _nodes(self, rows, s, q, t, h, v):
        """Charges and rates at the middle and end of [t, t + h] (t and h
        scalar or per row), starting from q, with v = v(t)."""
        q_mid, q_end = self._flow(rows, q, t, v, h / 2, h)
        if self.piecewise_constant:
            v_mid = v_end = v
        else:
            v_mid, v_end = self._v(t + h / 2), self._v(t + h)
        return (q_mid, q_end, self.rates(s, self._vm(rows, q_mid, v_mid), self.diag)[0],
                self.rates(s, self._vm(rows, q_end, v_end), self.diag)[0])

    # -- the run --------------------------------------------------------
    def _evolve(self, initial: CircuitState, t_end: float, outputs):
        """Run every trajectory from `initial` to t_end and sample it at
        `outputs` (ascending, within [initial time, t_end], ending at
        t_end).  Running trajectories are the rows of the state arrays;
        `ids` maps rows to trajectory indices."""
        t = float(initial.time)
        if t_end <= t:
            raise ValueError("t_end must exceed the initial time")
        if outputs[0] < t:
            raise ValueError("output time before the initial time")
        n, M = self.n, self.M
        self.ids = np.arange(n)
        self.q = np.tile(np.array(initial.capacitor_charges, dtype=float), (n, 1))
        self.s = np.tile(np.array(initial.memristor_states, dtype=np.int64), (n, 1))
        self.slot = self._rows_of(self.s)
        self.haz = np.zeros((n, M))
        self.thr = np.array([self.thresholds.stream(m) for m in range(M)]).reshape(M, n).T.copy()
        self.round = np.ones((n, M), dtype=np.int64)
        self.sample_q = np.zeros((len(outputs), n, self.K))
        self.sample_s = np.zeros((len(outputs), n, M), dtype=np.int64)
        # per event batch: time, trajectory, memristor, from and to state
        self.log = [(np.zeros(0),) + (np.zeros(0, dtype=np.int64),) * 4]
        self.failures = []
        self.diag = dict(path="netlist", shared_steps=0,
                         h_min=math.inf, max_cascade=0, configurations=0,
                         rate_ceiling_hits=0)
        h_floor = 1e-15 * max(t_end, 1.0)
        for k, t_out in enumerate(outputs):
            while t < t_out - h_floor and self.ids.size:
                t = self._step(t, t_out, h_floor)
            if not self.ids.size:
                break
            t = t_out
            self.sample_q[k, self.ids] = self.q
            self.sample_s[k, self.ids] = self.s
        self.diag["configurations"] = len(self.tables)

    def _fail(self, rows, messages):
        """Drop running trajectories `rows` (an index array), recording why."""
        self.failures += [(int(i), m) for i, m in zip(self.ids[rows], messages)]
        keep = ~np.isin(np.arange(self.ids.size), rows)
        for name in ("ids", "q", "s", "slot", "haz", "thr", "round"):
            setattr(self, name, getattr(self, name)[keep])

    def _step(self, t, t_out, h_floor):
        """One shared step from t; returns the new time (t itself when
        trajectories failed and the step is to be retried)."""
        q, s, rows = self.q, self.s, self.slot
        v = self._v(t)
        r0 = self.rates(s, self._vm(rows, q, v), self.diag)[0]
        # d vm / dt = Dq (A q + B v) + Ds v'
        dvm = _mv(self.Dq[rows], _mv(self.A[rows], q) + _mv(self.B[rows], v))
        total = r0.sum(axis=1)
        if self.piecewise_constant:
            dvm = np.abs(dvm)
            # a rate that cannot change within the step needs no hazard cap
            total = np.where((dvm > 0.0).any(axis=1), total, 0.0)
        else:
            _, slope, ph = self._parts(t, v)
            slope[self.sine] += self.omega * ph.real
            dvm = np.abs(dvm + _mv(self.Ds[rows], slope))
        with np.errstate(divide="ignore"):
            h_own = np.minimum(
                np.minimum(HAZARD_STEP_FACTOR / total, 0.25 / self.a_scale[rows]),
                (RATE_CURVATURE_FACTOR * self.rates.v_min[self.mi, s] / dvm).min(
                    axis=1, initial=math.inf))
        low = np.nonzero(h_own <= h_floor)[0]
        if low.size:
            self._fail(low, [f"step size control needs h = {h:.3g} s at t = {t:.9g} s, "
                             f"below the floor {h_floor:.3g} s" for h in h_own[low]])
            return t
        t_next = min(t_out, t + float(h_own.min()), t + self.h_wave)
        # a breakpoint within the floor of t counts as passed
        t_next = min([t_next] + [b for b in self.breakpoints if t + h_floor < b <= t_next])
        h = t_next - t
        _, q_end, rm, r1 = self._nodes(rows, s, q, t, h, v)
        self.diag["shared_steps"] += 1
        self.diag["h_min"] = min(self.diag["h_min"], h)
        delta = h / 6.0 * (r0 + 4.0 * rm + r1)
        fire = (self.haz + delta >= self.thr).any(axis=1)
        self.q = np.where(fire[:, None], q, q_end)
        self.haz = np.where(fire[:, None], self.haz, self.haz + delta)
        c = np.nonzero(fire)[0]
        if c.size:
            runaway = self._events(c, t, t_next, v, q[c], r0[c], rm[c], r1[c], delta[c])
            if runaway.size:
                self._fail(runaway, [f"more than {MAX_CASCADE} events within one "
                                     f"step at t = {t:.9g} s"] * runaway.size)
        return t_next

    def _events(self, c, t, t_next, v, q0, r0, rm, r1, delta):
        """Fire the clocks of running trajectories c whose hazard crosses
        its threshold within [t, t_next], then run the rest of the step in
        the new configuration, until no clock fires before t_next.
        Returns the rows still firing after MAX_CASCADE events."""
        t0 = np.full(c.size, t)
        span = np.full(c.size, t_next - t)
        v0 = v     # the sources at t0
        for depth in range(1, MAX_CASCADE + 1):
            self.diag["max_cascade"] = max(self.diag["max_cascade"], depth)
            lam, thr = self.haz[c], self.thr[c]
            te = np.where(lam + delta >= thr,
                          _invert_step_vec(t0[:, None], span[:, None], thr - lam,
                                           r0, rm, r1), math.inf)
            j = te.argmin(axis=1)
            at = np.arange(c.size)
            te = te[at, j]
            ds = te - t0
            self.haz[c] = lam + _linear_hazard(span[:, None], r0, rm, r1, ds[:, None])
            rows = self.slot[c]
            (q_e,) = self._flow(rows, q0, t0, v0, ds)
            v_e = v if self.piecewise_constant else self._v(te)
            vm_e = self._vm(rows, q_e, v_e)[at, j]
            # the rate that fired: boundary states only jump inward,
            # interior states along the sign of vm
            old = self.s[c, j]
            up = (old == 0) | ((vm_e > 0.0) & (old < self.top[j]))
            new = old + np.where(up, 1, -1)
            self.log.append((te, self.ids[c], j, old, new))
            self.s[c, j] = new
            self.haz[c, j] = 0.0
            self.thr[c, j] = self.thresholds.draw(self.ids[c], self.round, (c, j), j)
            self.slot[c] = rows = self._rows_of(self.s[c])
            # the rest of the step, te -> t_next, in the new configuration
            rem = t_next - te
            s = self.s[c]
            r0 = self.rates(s, self._vm(rows, q_e, v_e), self.diag)[0]
            _, qe, rm, r1 = self._nodes(rows, s, q_e, te, rem, v_e)
            delta = rem[:, None] / 6.0 * (r0 + 4.0 * rm + r1)
            again = (self.haz[c] + delta >= self.thr[c]).any(axis=1)
            done = c[~again]
            self.q[done] = qe[~again]
            self.haz[done] += delta[~again]
            if not again.any():
                return c[:0]
            c, t0, span, q0 = c[again], te[again], rem[again], q_e[again]
            v0 = v if self.piecewise_constant else v_e[again]
            r0, rm, r1, delta = (x[again] for x in (r0, rm, r1, delta))
        return c

    def run(self, initial: CircuitState, t_end: float,
            output_times: Sequence[float]) -> EnsembleStats:
        n = self.n
        outputs = sorted(set(float(x) for x in output_times) | {float(t_end)})
        self._evolve(initial, float(t_end), outputs)
        ok = ~np.isin(np.arange(n), [i for i, _ in self.failures])
        n_ok = int(ok.sum())
        if n_ok == 0:
            raise TrajectoryFailure("all trajectories failed")
        T = len(outputs)
        states = self.sample_s[:, ok]
        when = np.arange(T)[:, None]
        occupancy = [np.bincount((when * g + states[:, :, m]).ravel(),
                                 minlength=T * g).reshape(T, g) / n_ok
                     for m, g in enumerate(self.gs)]
        hists = []
        if self.K and self.M:
            # capacitor 0 given memristor 0, edges at the sample min and max
            q, g0, bins = self.sample_q[:, ok, 0], self.gs[0], self.bins
            lo, hi = float(q.min()), float(q.max())
            hi = hi if hi > lo else lo + max(abs(lo), 1e-30)
            b = np.minimum(((q - lo) / (hi - lo) * bins).astype(np.int64), bins - 1)
            counts = np.bincount(((when * g0 + states[:, :, 0]) * bins + b).ravel(),
                                 minlength=T * g0 * bins).reshape(T, g0, bins)
            edges = np.linspace(lo, hi, bins + 1)
            hists = [(counts[k].astype(float), edges) for k in range(T)]
        te, who, _, old, new = (np.concatenate(x) for x in zip(*self.log))
        counted = ok[who]
        first_event = np.full(n, np.nan)
        first, at = np.unique(who[counted], return_index=True)
        first_event[first] = te[counted][at]
        return EnsembleStats(
            times=np.array(outputs),
            occupancy=occupancy,
            stderr=[np.sqrt(p * (1.0 - p) / n_ok) for p in occupancy],
            histograms=hists,
            n=n_ok,
            n_failed=len(self.failures),
            failures=sorted(self.failures),
            events_up=int((counted & (new > old)).sum()),
            events_down=int((counted & (new < old)).sum()),
            first_event_times=first_event,
            diagnostics=dict(self.diag),
        )


def _linear_hazard(span, r0, rm, r1, ds):
    """Hazard over [0, ds] of the piecewise-linear rate through r0, rm, r1
    at 0, span/2 and span."""
    half = np.maximum(span / 2.0, 1e-300)
    a = np.minimum(ds, half)
    b = np.maximum(ds - half, 0.0)
    return (a * (r0 + (rm - r0) * a / (2.0 * half))
            + b * (rm + (r1 - rm) * b / (2.0 * half)))


def simulate_trajectory(netlist: Netlist, initial: CircuitState,
                        t_end: float, seed: int,
                        output_times: Optional[Sequence[float]] = None) -> TrajectoryRecord:
    """Sample one trajectory of the circuit's jump process: the n = 1 case
    of the netlist engine (closed-form charges under every source kind,
    Simpson-integrated hazards), with `seed` as its master seed.

    Identical (inputs, seed) give bitwise-identical records.
    """
    t0 = float(initial.time)
    outputs = sorted(float(x) for x in (() if output_times is None else output_times))
    outputs = [x for x in outputs if t0 <= x <= t_end]
    if not outputs or outputs[-1] < t_end:
        outputs.append(float(t_end))
    eng = _NetlistEnsemble(netlist, 1, seed)
    eng._evolve(initial, float(t_end), outputs)
    if eng.failures:
        raise TrajectoryFailure(eng.failures[0][1])
    te, _, m, old, new = (np.concatenate(x) for x in zip(*eng.log))
    q, s = eng.sample_q[:, 0], eng.sample_s[:, 0]
    return TrajectoryRecord(
        [(float(a), int(b), int(c), int(d)) for a, b, c, d in zip(te, m, old, new)],
        np.array(outputs), q, s, CircuitState(tuple(s[-1]), tuple(q[-1]), t_end))


# --------------------------------------------------------------------------
# Vectorized single-memristor single-capacitor ensemble

def _is_single_device(netlist: Netlist) -> bool:
    return (len(netlist.memristors) == 1 and len(netlist.capacitors) == 1
            and len(netlist.sources) == 1)


class _VectorEnsemble:
    """All trajectories as (n,) arrays of charge, state and clock, jumping
    from event to event: by closed-form hazard inversion under constant and
    step drives (`_run_exact`), by thinning under sine and PWL drives
    (`_run_thinning`), where `diagnostics["rows_max"]` counts the switched
    trajectories, each on a row of its own."""

    def __init__(self, netlist: Netlist, n: int, master_seed: int,
                 histogram_bins: int):
        self.netlist = netlist
        self.model = netlist.memristors[0].model
        self.n = n
        self.bins = histogram_bins
        self.wave = netlist.sources[0].waveform
        g = self.model.num_states
        dyn = [affine_dynamics(netlist, (i,)) for i in range(g)]
        self.A, self.B, self.Dq, self.Ds = np.array(
            [[d.A[0, 0], d.B[0, 0], d.Dq[0, 0], d.Ds[0, 0]] for d in dyn], dtype=float).T
        # rate entries are s + G (vm < 0) for state s
        self.rates = _Rates([self.model])
        self.thresholds = _Thresholds(master_seed, n)
        # thinning: candidate round r's spacing in stream 2r, acceptance in 2r + 1
        self.candidates = _Thresholds(master_seed, n, 2)
        # exact path: RC time constant per state (1 s where the capacitor
        # is cut off, A = 0) and the log of the ceiling times each tau
        self.tau = np.where(self.A < 0.0, -1.0 / np.where(self.A < 0.0, self.A, -1.0),
                            1.0)
        self.log_cap = np.log(self.model.rate_ceiling * self.rates.tau)

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

        times, codes = [], []
        # per output: state and histogram bin, tallied once failures are known
        width = self.bins + 1
        dtype = np.min_scalar_type(g * width)

        def record(t_now, s, q, ids=None):
            # with ids, entry 0 stands for every trajectory not in ids
            c = _hist_codes(s, q, edges).astype(dtype)
            if ids is not None:
                c, c[ids] = np.full(n, c[0], dtype), c[1:]
            times.append(t_now)
            codes.append(c)

        if outputs[0] == t:
            record(t, state[:1], np.array([q_init]), state[:0])
            outputs = outputs[1:]

        if np.any((self.A > 0.0) | ((self.A == 0.0) & (self.B != 0.0))):
            raise ValueError("the vector engine needs the capacitor to relax in every "
                             "state (dq/dt = A q + B v with A < 0, or A = B = 0)")
        run_path = (self._run_exact if self.wave.kind in ("constant", "step")
                    else self._run_thinning)
        events_up, events_down, failures, diagnostics = run_path(
            state, q_init, t, float(t_end), outputs, record, first_event)

        ok = np.ones(n, dtype=bool)
        ok[[i for i, _ in failures]] = False
        n_ok = int(ok.sum())
        first_event[~ok] = np.nan
        counts = np.array([np.bincount(c if n_ok == n else c[ok], minlength=g * width)
                           for c in codes]).reshape(-1, g, width)
        occ = counts.sum(axis=2) / n_ok
        return EnsembleStats(
            times=np.array(times), occupancy=[occ],
            stderr=[np.sqrt(occ * (1.0 - occ) / n_ok)],
            histograms=[(c[:, :-1].astype(float), edges) for c in counts],
            n=n_ok, n_failed=len(failures), failures=sorted(failures),
            events_up=events_up, events_down=events_down,
            first_event_times=first_event, diagnostics=diagnostics)

    # -- exact event-to-event rounds (constant and step drives) ---------
    def _run_exact(self, state, q_init, t, t_end, outputs, record, first_event):
        """Each trajectory jumps from stop to stop: its next event, or the
        end of its RC segment (the step time or t_end).  Within a segment
        the source is constant, so vm = a + b e^{-(t - t0)/tau} and the
        hazard is inverted in closed form (`_next_stops`)."""
        n = self.n
        self._diag = dict(path="exact", rounds=0, newton_iterations=0,
                          newton_max=0, sign_splits=0, ceiling_splits=0,
                          rate_ceiling_hits=0)
        t0 = np.full(n, t)
        q0 = np.full(n, q_init)
        remaining = self.thresholds.stream(0).copy()
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
                remaining[fired] = self.thresholds.draw(fired, draw, fired)
                q0[due] = stop.q_at(due, stop.d[due])
                t0[due] = stop.t[due]
                self._next_stops(due, state, t0, q0, remaining, t_end, stop)
                self._diag["rounds"] += 1
            record(t_out, state, stop.q_at(everyone, (t_out - t0) / self.tau[state]))
        return events_up, events_down, [], self._diag

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
            self._diag["rate_ceiling_hits"] += int(np.count_nonzero(at_cap))
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
        i = s + g * ~up
        v_x, tau_x, log_cap = self.rates.v_scale[i], self.rates.tau[i], self.log_cap[i]
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

    # -- thinning (sine and PWL drives) ---------------------------------
    def _forcing(self):
        """Tables of the closed-form charge q_p(t) + (q(t0) - q_p(t0)) e^{A (t - t0)}
        per state: q_p = -B off / A + B amp Im[e^{iwt} / (iw - A)] for a sine,
        -(B / A)(v + k / A) on a PWL segment of slope k; A = 0 (so B = 0) keeps q.
        _coef[:, i, s]: basis function i's coefficients in q_p, u = Dq q_p +
        Ds v (vm without the transient) and du/dt.  _par[s]: A, Dq, A^2, a
        bound on |u''|, the window slack in volts, 1 / V and ln tau up and
        down, the log of the rate's cap."""
        A, B, w, g = self.A, self.B, self.wave, self.model.num_states
        ia = np.divide(1.0, A, out=np.zeros_like(A), where=A < 0.0)
        if w.kind == "sine":
            self._omega = om = 2.0 * math.pi * w.frequency
            den = np.where(A * A + om * om > 0.0, A * A + om * om, 1.0)
            fq = -B * np.array([w.offset * ia, w.amplitude * A / den, w.amplitude * om / den])
            fu = self.Dq * fq + self.Ds * np.array([w.offset, w.amplitude, 0.0])[:, None]
            du, curve = om * np.array([0.0 * A, -fu[2], fu[1]]), om * om * np.hypot(fu[1], fu[2])
        else:
            self._knots = ts, vs = np.array(w.breakpoints, dtype=float).T
            self._slope, self._bp_next = np.r_[0.0, np.diff(vs) / np.diff(ts), 0.0], np.r_[ts, math.inf]
            fq = -B * np.array([ia, ia * ia])
            fu = self.Dq * fq + self.Ds * np.array([1.0, 0.0])[:, None]
            du, curve = np.array([0.0 * A, fu[0]]), 0.0 * A
        self._coef = np.array([fq, fu, du])
        v, lt = self.rates.v_scale, np.log(self.rates.tau)
        cap = np.minimum(math.log(self.model.rate_ceiling), 700.0 - np.minimum(lt[:g], lt[g:]))
        self._par = np.array([A, self.Dq, A * A, curve, _WINDOW_SLACK * np.minimum(v[:g], v[g:]),
                              1.0 / v[:g], 1.0 / v[g:], lt[:g], lt[g:], cap]).T.copy()

    def _forced(self, s, t, seg, rows=3):
        """The first `rows` of q_p, u, du/dt in states s at times t: basis (1, sin wt,
        cos wt) or (v(t), k) on PWL segments seg, summed per state if one for all."""
        if seg is None:
            basis = 1.0, np.sin(self._omega * t), np.cos(self._omega * t)
        else:
            basis = np.interp(t, *self._knots), self._slope[seg]
        one = np.ndim(t) == 0 and np.ndim(seg) == 0
        coef = self._coef[:rows] if one else np.take(self._coef[:rows], s, axis=2)
        out = sum(coef[:, i] * b for i, b in enumerate(basis))
        return np.take(out, s, axis=1) if one else out

    def _window(self, s, t, q, t_stop):
        """Windows [t, t1] of rows in states s with charges q, and on them
        the envelope e^{l0 + (l1 - l0) x / dt} of the exit rate (x the time
        into the window).  +-vm lie below their tangents at t plus K dt x / 2
        (K bounds |vm''|); a window ends by t_stop, at a PWL breakpoint and
        where K dt^2 reaches _WINDOW_SLACK voltage scales.  The envelope
        covers the transitions the sign of vm can drive there, floored at
        e^-700 and flat at the rate's cap.  Returns (s, t, segments, t1, dt,
        l0, l1, its integral, the transient q - q_p(t), the charge at t1)."""
        seg = None if self.wave.kind == "sine" else np.searchsorted(self._bp_next[:-1], t, "right")
        qp, u, du = self._forced(s, t, seg)
        a, dq, a2, curve, slack, iv_up, iv_down, lt_up, lt_down, cap = (
            np.take(self._par, s, axis=0).T)
        cq = q - qp
        c = dq * cq                   # vm's transient, decaying as e^{A x}
        k = curve + a2 * np.abs(c)
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.minimum(np.minimum(t + np.sqrt(slack / k), t_stop),
                            math.inf if seg is None else self._bp_next[seg])
            dt = t1 - t
            rise, bend = (du + a * c) * dt, 0.5 * k * dt * dt
            vm0 = u + c
            vm1, mv1 = vm0 + rise + bend, bend - rise - vm0   # vm, -vm at t1
            on_up, on_down = (vm0 > 0.0) | (vm1 > 0.0), (vm0 < 0.0) | (mv1 > 0.0)
            l0, l1 = (np.maximum(np.maximum(np.where(on_up, x * iv_up - lt_up, -700.0),
                                            np.where(on_down, y * iv_down - lt_down, -700.0)),
                                 -700.0) for x, y in ((vm0, -vm0), (vm1, mv1)))
            top = np.maximum(l0, l1)
            # from l1 - 50 at least: the inversion cannot overflow
            l0, l1 = (np.where(top > cap, cap, x) for x in (np.maximum(l0, l1 - 50.0), l1))
            z = -np.abs(l1 - l0)
            total = np.exp(np.minimum(top, cap)) * dt * np.where(z < 0.0, np.expm1(z) / z, 1.0)
        q1 = self._forced(s, t_stop, seg, 1)[0]       # most windows end at t_stop
        short = np.flatnonzero(t1 < t_stop)
        if short.size:
            q1[short] = self._forced(s[short], t1[short], _pick(seg, short), 1)[0]
        return s, t, seg, t1, dt, l0, l1, total, cq, q1 + cq * np.exp(a * dt)

    def _candidates(self, w, at, ids, gap):
        """Trajectories ids' candidates where the envelope's integral into
        windows `at` of w reaches gap: times, charges, acceptance (with
        probability rate / envelope), direction and next spacing draws."""
        s, tw, seg, _, dt, l0, l1, _, cq, _ = w
        s, dt, l0, l1, cq = (x[at] for x in (s, dt, l0, l1, cq))
        b = (l1 - l0) / dt
        x = np.clip(_exp_step(-b, np.exp(l0), gap), 0.0, dt)
        a, dq = np.take(self._par[:, :2], s, axis=0).T
        trans = cq * np.exp(a * x)
        qp, u = self._forced(s, _pick(tw, at) + x, _pick(seg, at), 2)
        vm = u + dq * trans
        rate, _ = self.rates(s, vm, self._diag)
        k = 2 * self._rounds[ids]
        self._rounds[ids] += 1
        with np.errstate(divide="ignore"):
            ok = self.candidates.take(ids, k + 1) > l0 + b * x - np.log(rate)
        return ok, _pick(tw, at) + x, qp + trans, vm > 0.0, self.candidates.take(ids, k + 2)

    def _run_thinning(self, state, q_init, t, t_end, outputs, record, first_event):
        """Thinning (Lewis & Shedler 1979): each trajectory runs on its own
        clock through windows (`_window`); a candidate falls where the
        envelope's integral since the last jump reaches the trajectory's
        level (a sum of spacing draws) and is accepted with probability
        rate / envelope.  Row i + 1 carries trajectory i once it switched;
        until then row 0, one path through the same windows, stands for it
        and keeps only its level (sorted, unsorted once rejected), so a
        window touches only the members with a candidate in it."""
        n = self.n
        self._forcing()
        S, T, Q = np.full(n + 1, state[0]), np.full(n + 1, t), np.full(n + 1, q_init)
        # the envelope's integral since the last jump, and where the next candidate is
        lam_all, lev_all = np.zeros(n + 1), np.zeros(n + 1)
        self._rounds = np.zeros(n, dtype=np.int64)
        order = np.argsort(self.candidates.stream(0))
        levels, left = self.candidates.stream(0)[order], 0    # row 0: order[left:], pend_id
        pend_id, pend_lev, own = order[:0], levels[:0], order[:0]
        tries = np.zeros(n, dtype=np.int64)
        counts, failures = np.zeros((2, n), dtype=np.int64), []   # events up, down
        diag = self._diag = dict(path="thinning", windows=0, candidates=0, accepted=0,
                                 rows_max=0, runaway_failures=0, rate_ceiling_hits=0)
        for t_out in outputs:
            tries[:] = 0
            act, fresh = own[T[own] < t_out], True    # all rows start at t
            while True:
                shared = (left < n or pend_id.size > 0) and T[0] < t_out
                rows = np.concatenate(([0], act)) if shared else act
                if not rows.size:
                    break
                lam, lev = lam_all[rows], lev_all[rows]
                w = self._window(S[rows], t if fresh else T[rows], Q[rows], t_out)
                s, _, _, t1, dt, _, _, total, _, q1 = w
                fresh, live = False, np.ones(rows.size, dtype=bool)
                diag["windows"] += rows.size
                if not (dt > 0.0).all():
                    raise TrajectoryFailure(f"a window before {t_out:.9g} s is below the time step")
                # the candidates in the window: own rows, then members of row 0
                hit = lev - lam < total
                hit[0] &= not shared
                at = np.flatnonzero(hit)
                ids, gap_end = rows[at] - 1, lev[at]
                if shared:
                    lam0, tot0 = lam[0], total[0]
                    end = left + int(np.searchsorted(levels[left:], lam0 + tot0))
                    while end < n and levels[end] - lam0 < tot0:   # the own rows' test
                        end += 1
                    while end > left and not levels[end - 1] - lam0 < tot0:
                        end -= 1
                    inside = pend_lev - lam0 < tot0
                    ids = np.concatenate((ids, order[left:end], pend_id[inside]))
                    gap_end = np.concatenate((gap_end, levels[left:end], pend_lev[inside]))
                    at = np.concatenate((at, np.zeros(ids.size - at.size, dtype=np.intp)))
                    left, pend_id, pend_lev = end, pend_id[~inside], pend_lev[~inside]
                born = [own[:0]]
                while ids.size:
                    tries[ids] += 1
                    over = tries[ids] > MAX_CANDIDATES
                    if over.any():      # a runaway trajectory fails alone
                        failures += [(int(i), f"more than {MAX_CANDIDATES} candidates within one "
                                      f"output interval at t = {t_out:.9g} s") for i in ids[over]]
                        T[ids[over] + 1], live[at[over & (rows[at] > 0)]] = math.inf, False
                        at, ids, gap_end = at[~over], ids[~over], gap_end[~over]
                    ok, t_c, q_c, up, spacing = self._candidates(w, at, ids, gap_end - lam[at])
                    diag["candidates"] += ids.size
                    diag["accepted"] += int(ok.sum())
                    # accepted: the trajectory jumps, and its window ends
                    j, u, mine = ids[ok], up[ok], rows[at] == 0
                    S[j + 1] = s[at[ok]] + np.where(u, 1, -1)
                    T[j + 1], Q[j + 1], lam_all[j + 1], lev_all[j + 1] = (
                        t_c[ok], q_c[ok], 0.0, spacing[ok])
                    counts[:, j] += [u, ~u]
                    first_event[j] = np.where(np.isnan(first_event[j]), t_c[ok], first_event[j])
                    live[at[ok & ~mine]] = False
                    born.append(j[mine[ok]] + 1)
                    # rejected: the next candidate, in this window or a later one
                    at, ids, mine = at[~ok], ids[~ok], mine[~ok]
                    gap_end = gap_end[~ok] + spacing[~ok]
                    lev_all[ids + 1] = gap_end
                    again = gap_end - lam[at] < total[at]
                    pend_id = np.concatenate((pend_id, ids[mine & ~again]))
                    pend_lev = np.concatenate((pend_lev, gap_end[mine & ~again]))
                    at, ids, gap_end = at[again], ids[again], gap_end[again]
                # the other rows reach the window's end
                rk = rows[live]
                T[rk], Q[rk], lam_all[rk] = t1[live], q1[live], lam[live] + total[live]
                born = np.concatenate(born)
                own = np.concatenate((own, born))
                act = np.concatenate((rows[(T[rows] < t_out) & (rows > 0)], born[T[born] < t_out]))
                diag["rows_max"] = own.size
            if len(failures) == n:
                raise TrajectoryFailure(f"all trajectories failed: {failures[-1][1]}")
            at = np.concatenate(([0], own))
            record(t_out, S[at], Q[at], own - 1)
            t = t_out
        diag["runaway_failures"] = len(failures)
        counts[:, [i for i, _ in failures]] = 0
        return int(counts[0].sum()), int(counts[1].sum()), failures, diag


def _hist_codes(state, q, edges):
    """state * (bins + 1) + np.histogram's bin of each charge over the uniform
    `edges` (the last bin closed; `bins` outside them): as in np.histogram,
    the arithmetic bin moves by at most one to agree with the edges."""
    bins = edges.size - 1
    inside = (q >= edges[0]) & (q <= edges[-1])
    b = np.where(inside, (q - edges[0]) * (bins / (edges[-1] - edges[0])), 0.0)
    b = np.minimum(b.astype(np.intp), bins - 1)
    b -= q < edges[b]
    b += (q >= edges[b + 1]) & (b < bins - 1)
    return state * (bins + 1) + np.where(inside, b, bins)


def _pick(x, at):
    """x[at], or x itself where it is one value (or None) for all rows."""
    return x if x is None or np.ndim(x) == 0 else x[at]


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
                 histogram_bins: int = 50) -> EnsembleStats:
    """Aggregate n independent trajectories into occupation-probability
    estimates with standard errors and conditional charge histograms.

    Single-memristor single-capacitor single-source circuits go to the
    vector engine; every other netlist to the netlist engine, which runs
    all n trajectories as arrays.  Thresholds come from counter-based
    Philox streams keyed by master_seed, so results do not depend on
    batching.  Failed trajectories are excluded and reported, never
    silently retried.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    engine = _VectorEnsemble if _is_single_device(netlist) else _NetlistEnsemble
    return engine(netlist, n, master_seed, histogram_bins).run(initial, t_end, output_times)
