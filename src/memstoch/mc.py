"""Monte Carlo sampling of circuit trajectories.

A trajectory is a piecewise-deterministic Markov process: between
switching events the capacitor charges follow the Kirchhoff ODE of the
instantaneous resistive network, and each memristor carries an
independent exponential clock whose hazard is the time integral of its
voltage-dependent exit rate along the trajectory.  Jump times are exact
(no fixed-step Bernoulli trials).

Both engines run all trajectories as arrays and jump from event to event.
`_VectorEnsemble` takes circuits with one memristor, one capacitor and one
source: under constant and step drives it inverts the closed-form hazard
of each RC segment; under sine and PWL drives it thins candidates drawn
from a bound of the rate along the closed-form charge.  `_NetlistEnsemble`
takes every other netlist and thins under every source kind, with charges
from one closed-form flow in the eigenmodes of the Kirchhoff ODE and one
envelope of the summed rate of the M clocks.  Both carry every trajectory
that has not switched yet on one shared row.

Both engines take exit rates from `device.switching_rate` (`_Rates` stacks
the memristors' transition tables so that one call covers every clock) and
draws from the same counter-based Philox streams (`_Thresholds`).  Their
diagnostics count `rate_ceiling_hits`: the rates cut at the model's
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

# thinning in both engines
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
    # what the engine did: its path, window, candidate and round counts,
    # Newton iterations and splits (see each engine)
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
    """All n trajectories of any netlist as arrays: states (n, M), charges
    (n, K).  Each memristor-state configuration (a mixed-radix index) gets a
    row of tables on first use: its `affine_dynamics`, an eigenbasis of A
    and the sine factors of the flow.  Trajectories jump from event to event
    by thinning, each on its own clock (`_evolve`): charges follow the exact
    flow of dq/dt = A q + B v(t) under every source kind (`_flow`), and the
    candidates come from one exponential-linear envelope of the summed exit
    rate of the M clocks per window (`_window`).  A trajectory with more
    than MAX_CANDIDATES candidates in one output interval fails alone."""

    def __init__(self, netlist: Netlist, n: int, master_seed: int,
                 histogram_bins: int = 50):
        self.netlist = netlist
        self.n = n
        self.bins = histogram_bins
        self.waves = [s.waveform for s in netlist.sources]
        self.piecewise_constant = all(w.kind in ("constant", "step") for w in self.waves)
        self.breakpoints = np.array(
            sorted({b for w in self.waves for b in w.breakpoint_times()}) + [math.inf])
        # sines v = offset + amp sin(w t), and the slopes of each PWL segment
        sines = [(k, w) for k, w in enumerate(self.waves) if w.kind == "sine"]
        self.sine = np.array([k for k, _ in sines], dtype=np.intp)
        self.omega, self.amp, self.offset = np.array(
            [(2.0 * math.pi * w.frequency, w.amplitude, w.offset) for _, w in sines]).reshape(-1, 3).T
        self.ramps = [(k, ts, np.r_[0.0, np.diff(vs) / np.diff(ts), 0.0])
                      for k, w in enumerate(self.waves) if w.kind == "pwl"
                      for ts, vs in [np.array(w.breakpoints, dtype=float).T]]
        models = [m.model for m in netlist.memristors]
        self.gs = [m.num_states for m in models]
        self.M, self.K = len(models), len(netlist.capacitors)
        self.strides = np.cumprod([1] + self.gs[:-1])[:self.M].astype(np.int64)
        self.rates = r = _Rates(models)
        # per rate entry: 1 / V, ln tau and the log of the rate's cap, where
        # the exponent cut at 700 or the model's ceiling stops it
        self.inv_v, self.log_tau = 1.0 / r.v_scale, np.log(r.tau)
        self.log_cap = np.minimum(np.repeat(np.log(r.ceiling), 2 * r.gmax), 700.0 - self.log_tau)
        self.mi = np.arange(self.M)
        self.sqrt_c = np.sqrt([c.capacitance for c in netlist.capacitors])
        self.config_row = {}     # configuration index -> table row
        self.tables = []
        # candidate round r's spacing in stream 2r, its acceptance in 2r + 1
        self.candidates = _Thresholds(master_seed, n, 2)

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
        bhat, dqv = inv @ d.B, d.Dq @ vec
        # the sines through mode lam: b / (iw - lam), and lam^2 times that
        den = 1j * self.omega - lam[:, None]
        bw = bhat[:, self.sine] / np.where(den != 0.0, den, 1.0)
        # |vm''| of the forced sines: w^2 amp |Dq V b / (iw - lam) + Ds|
        curve = np.abs(dqv @ bw + d.Ds[:, self.sine]) @ (self.omega ** 2 * np.abs(self.amp))
        self.tables.append((d.A, d.B, d.Dq, d.Ds, vec, inv, lam, bhat, bw,
                            lam[:, None] ** 2 * bw, np.abs(dqv), curve))
        (self.A, self.B, self.Dq, self.Ds, self.V, self.Vinv, self.eig, self.Bhat,
         self.bw, self.bw2, self.abs_dqv, self.curve) = (np.stack(x) for x in zip(*self.tables))
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

    def _modes(self, rows, q, t, v):
        """What the flow from q at t (scalar or per row) needs, with v = v(t):
        g = lam y + b v0 per mode (y = V^{-1} q, b = V^{-1} B, v0 = v without
        its sine parts), b k for the PWL slopes k, amp e^{iwt} of the sines,
        v0 and k; all but g are None under piecewise-constant sources."""
        if self.piecewise_constant:
            return (_mv(self.Vinv[rows], _mv(self.A[rows], q) + _mv(self.B[rows], v)),) + (None,) * 4
        t, v0 = np.asarray(t, dtype=float), v.copy()
        v0[..., self.sine] = self.offset
        k = np.zeros_like(v0)
        for j, ts, slope in self.ramps:
            k[..., j] = slope[np.searchsorted(ts, t, "right")]
        g = _mv(self.Vinv[rows], _mv(self.A[rows], q) + _mv(self.B[rows], v0))
        return g, _mv(self.Bhat[rows], k), self.amp * np.exp(1j * self.omega * t[..., None]), v0, k

    def _flow(self, rows, q, modes, span):
        """Exact charges after span (scalar or per row) from q at t, with
        modes = `_modes` there: in mode lam, y moves by s phi1(lam s) g
        + s^2 phi2(lam s) b k + Im[amp e^{iwt} (e^{iws} - e^{lam s}) b / (iw - lam)],
        with lam = 0 taken through the phi limits and b / (iw - lam) tabled
        per configuration."""
        g, bk, ph = modes[:3]
        s = np.reshape(span, (-1, 1))
        z = self.eig[rows] * s
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = np.where(z != 0.0, np.expm1(z) / z, 1.0)
            dy = phi * s * g
            if bk is not None:
                phi2 = np.where(z != 0.0, (phi - 1.0) / z, 0.5)
                wave = np.expm1(1j * self.omega * s[..., None]) - np.expm1(z)[..., None]
                dy += phi2 * s * s * bk + np.imag(ph[..., None, :] * wave * self.bw[rows]).sum(axis=-1)
        return q + _mv(self.V[rows], dy)

    def _vm(self, rows, q, v):
        return _mv(self.Dq[rows], q) + _mv(self.Ds[rows], v)

    # -- thinning ----------------------------------------------------------
    def _window(self, c, s, t, q, t_stop):
        """Windows [t, t1] of rows in configurations c (states s, charges q)
        and on them the envelope e^{l0 + (l1 - l0) x / dt} of the summed exit
        rate (x the time into the window).  Per clock, +-vm lie below their
        tangents at t plus kk dt x / 2, where kk bounds |vm''|: the forced
        sines' curve plus sum_k |(Dq V)_k| lam_k^2 |y_k - y_p,k| over the
        decaying modes.  A window ends by t_stop, at a breakpoint and where
        kk dt^2 reaches _WINDOW_SLACK voltage scales.  Each clock's envelope
        covers the transitions the sign of vm can drive, floored at e^-700
        and flat at the rate's cap; their sum is bounded by the chord of its
        (convex) log.  Returns (c, s, t, t1, dt, l0, l1, the envelope's
        integral, q, v, the flow's modes, the charge at t1)."""
        v = self._v(t)
        modes = self._modes(c, q, t, v)
        g, bk, ph = modes[:3]
        dq, dv = _mv(self.A[c], q) + _mv(self.B[c], v), 0.0
        lam_c = self.eig[c] * g                     # lam^2 (y - y_p)
        if bk is not None:
            dv = modes[4].copy()
            dv[..., self.sine] += self.omega * ph.real
            dv = _mv(self.Ds[c], dv)
            lam_c += bk - np.imag(ph[..., None, :] * self.bw2[c]).sum(axis=-1)
        vm0, dvm = self._vm(c, q, v), _mv(self.Dq[c], dq) + dv
        kk = self.curve[c] + _mv(self.abs_dqv[c], np.abs(lam_c))
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = np.sqrt(_WINDOW_SLACK * self.rates.v_min[self.mi, s] / kk).min(
                axis=1, initial=math.inf)
            t1 = np.minimum(np.minimum(t + reach, t_stop),
                            self.breakpoints[np.searchsorted(self.breakpoints, t, "right")])
            dt = t1 - t
            rise, bend = dvm * dt[:, None], 0.5 * kk * (dt * dt)[:, None]
            vm1, mv1 = vm0 + rise + bend, bend - rise - vm0   # vm, -vm at t1
            on_up, on_down = (vm0 > 0.0) | (vm1 > 0.0), (vm0 < 0.0) | (mv1 > 0.0)
            up, down = self.rates.base + s, self.rates.base + s + self.rates.gmax
            l0, l1 = (np.maximum(np.maximum(
                np.where(on_up, x * self.inv_v[up] - self.log_tau[up], -700.0),
                np.where(on_down, y * self.inv_v[down] - self.log_tau[down], -700.0)), -700.0)
                for x, y in ((vm0, -vm0), (vm1, mv1)))
            cap = np.maximum(self.log_cap[up], self.log_cap[down])
            top = np.maximum(l0, l1) > cap
            l0, l1 = (_log_sum_exp(np.where(top, cap, x)) for x in (l0, l1))
            # from l1 - 50 at least: the inversion cannot overflow
            l0 = np.maximum(l0, l1 - 50.0)
            z = -np.abs(l1 - l0)
            total = np.exp(np.maximum(l0, l1)) * dt * np.where(z < 0.0, np.expm1(z) / z, 1.0)
        return c, s, t, t1, dt, l0, l1, total, q, v, modes, self._flow(c, q, modes, dt)

    def _candidates(self, w, at, ids, gap):
        """Trajectories ids' candidates where the envelope's integral into
        windows `at` of w reaches gap: times, charges, acceptance (with
        probability summed rate / envelope), the clock that fires (in
        proportion to the clocks' rates), its direction (the one its rate
        drives, so boundary states jump inward) and next spacing draws."""
        c, s, t, _, dt, l0, l1, _, q, v, modes, _ = w
        c, s, t, dt, l0, l1, q, v = (x[at] for x in (c, s, t, dt, l0, l1, q, v))
        modes = tuple(None if x is None else x[at] for x in modes)
        b = (l1 - l0) / dt
        x = np.clip(_exp_step(-b, np.exp(l0), gap), 0.0, dt)
        q_c = self._flow(c, q, modes, x)
        if modes[1] is not None:        # the sources along their segments
            v = modes[3] + modes[4] * x[:, None]
            v[:, self.sine] += self.amp * np.sin(self.omega * (t + x)[:, None])
        vm = self._vm(c, q_c, v)
        rate, _ = self.rates(s, vm, self.diag)
        cum = np.cumsum(rate, axis=1)
        k = 2 * self._rounds[ids]
        self._rounds[ids] += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            excess = self.candidates.take(ids, k + 1) - (l0 + b * x - np.log(cum[:, -1]))
        # given acceptance the excess is exponential, so e^-excess is uniform
        u = np.exp(-np.maximum(excess, 0.0)) * cum[:, -1]
        m = np.argmax((cum >= u[:, None]) & (rate > 0.0), axis=1)
        up = vm[np.arange(m.size), m] > 0.0
        return excess > 0.0, t + x, q_c, m, up, self.candidates.take(ids, k + 2)

    def _evolve(self, initial: CircuitState, t_end: float, outputs):
        """Thinning (Lewis & Shedler 1979) from `initial` to t_end, sampled
        at `outputs` (ascending, within [initial time, t_end], ending at
        t_end).  Each trajectory runs on its own clock through windows; a
        candidate falls where the envelope's integral since the last jump
        reaches the trajectory's level (a sum of spacing draws) and is
        accepted with probability summed rate / envelope.  Row i + 1 carries
        trajectory i once it switched; until then row 0, one path through
        the same windows, stands for it and keeps only its level (sorted,
        unsorted once rejected), so a window touches only the members with
        a candidate in it."""
        t = float(initial.time)
        if t_end <= t:
            raise ValueError("t_end must exceed the initial time")
        n = self.n
        S = np.tile(np.array(initial.memristor_states, dtype=np.int64), (n + 1, 1))
        Q = np.tile(np.array(initial.capacitor_charges, dtype=float), (n + 1, 1))
        T, R = np.full(n + 1, t), np.full(n + 1, self._rows_of(S[:1])[0])
        # the envelope's integral since the last jump, and where the next candidate is
        lam_all, lev_all = np.zeros(n + 1), np.zeros(n + 1)
        self._rounds = np.zeros(n, dtype=np.int64)
        order = np.argsort(self.candidates.stream(0))
        levels, left = self.candidates.stream(0)[order], 0    # row 0: order[left:], pend_id
        pend_id, pend_lev, own = order[:0], levels[:0], order[:0]
        tries = np.zeros(n, dtype=np.int64)
        self.sample_q = np.zeros((len(outputs), n, self.K))
        self.sample_s = np.zeros((len(outputs), n, self.M), dtype=np.int64)
        # per accepted batch: time, trajectory, memristor, from and to state
        self.log = [(np.zeros(0),) + (np.zeros(0, dtype=np.int64),) * 4]
        self.failures = []
        diag = self.diag = dict(path="netlist", windows=0, candidates=0, accepted=0,
                                rows_max=0, runaway_failures=0, configurations=0,
                                rate_ceiling_hits=0)
        for i_out, t_out in enumerate(outputs):
            tries[:] = 0
            act = own[T[own] < t_out]
            while True:
                shared = (left < n or pend_id.size > 0) and T[0] < t_out
                rows = np.concatenate(([0], act)) if shared else act
                if not rows.size:
                    break
                lam, lev = lam_all[rows], lev_all[rows]
                w = self._window(R[rows], S[rows], T[rows], Q[rows], t_out)
                _, s, _, t1, dt, _, _, total, _, _, _, q1 = w
                live = np.ones(rows.size, dtype=bool)
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
                        self.failures += [(int(i), f"more than {MAX_CANDIDATES} candidates within "
                                           f"one output interval at t = {t_out:.9g} s")
                                          for i in ids[over]]
                        T[ids[over] + 1], live[at[over & (rows[at] > 0)]] = math.inf, False
                        at, ids, gap_end = at[~over], ids[~over], gap_end[~over]
                    ok, t_c, q_c, m, up, spacing = self._candidates(w, at, ids, gap_end - lam[at])
                    diag["candidates"] += ids.size
                    diag["accepted"] += int(ok.sum())
                    # accepted: clock m of the trajectory jumps, and its window ends
                    j, m, mine = ids[ok], m[ok], rows[at] == 0
                    old = s[at[ok], m]
                    new = old + np.where(up[ok], 1, -1)
                    S[j + 1] = s[at[ok]]
                    S[j + 1, m] = new
                    R[j + 1] = self._rows_of(S[j + 1])
                    T[j + 1], Q[j + 1], lam_all[j + 1], lev_all[j + 1] = (
                        t_c[ok], q_c[ok], 0.0, spacing[ok])
                    self.log.append((t_c[ok], j, m, old, new))
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
            self.sample_q[i_out], self.sample_q[i_out, own - 1] = Q[0], Q[own]
            self.sample_s[i_out], self.sample_s[i_out, own - 1] = S[0], S[own]
            t = t_out
        diag["runaway_failures"] = len(self.failures)
        diag["configurations"] = len(self.tables)

    def run(self, initial: CircuitState, t_end: float,
            output_times: Sequence[float]) -> EnsembleStats:
        n = self.n
        outputs = sorted(set(float(x) for x in output_times) | {float(t_end)})
        self._evolve(initial, float(t_end), outputs)
        ok = ~np.isin(np.arange(n), [i for i, _ in self.failures])
        n_ok = int(ok.sum())
        if n_ok == 0:
            raise TrajectoryFailure(f"all trajectories failed: {self.failures[-1][1]}")
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
            times=np.array(outputs), occupancy=occupancy,
            stderr=[np.sqrt(p * (1.0 - p) / n_ok) for p in occupancy],
            histograms=hists, n=n_ok, n_failed=len(self.failures),
            failures=sorted(self.failures), events_up=int((counted & (new > old)).sum()),
            events_down=int((counted & (new < old)).sum()),
            first_event_times=first_event, diagnostics=dict(self.diag))


def _log_sum_exp(x):
    """log sum_m e^{x_m} over the last axis."""
    top = x.max(axis=-1, initial=-700.0)
    return top + np.log(np.exp(x - top[..., None]).sum(axis=-1))


def simulate_trajectory(netlist: Netlist, initial: CircuitState,
                        t_end: float, seed: int,
                        output_times: Optional[Sequence[float]] = None) -> TrajectoryRecord:
    """Sample one trajectory of the circuit's jump process: the n = 1 case
    of the netlist engine (closed-form charges under every source kind,
    exact jump times by thinning), with `seed` as its master seed.

    Identical (inputs, seed) give bitwise-identical records.  Output
    times outside [initial time, t_end] raise ValueError.
    """
    outputs = sorted(float(x) for x in (() if output_times is None else output_times))
    if min(outputs, default=t_end) < initial.time:
        raise ValueError("output time before the initial time")
    if max(outputs, default=t_end) > t_end:
        raise ValueError("output time after t_end")
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
    if min(output_times, default=t_end) < initial.time:
        raise ValueError("output time before the initial time")
    if max(output_times, default=t_end) > t_end:
        raise ValueError("output time after t_end")
    engine = _VectorEnsemble if _is_single_device(netlist) else _NetlistEnsemble
    return engine(netlist, n, master_seed, histogram_bins).run(initial, t_end, output_times)
