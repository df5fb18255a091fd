"""Monte Carlo sampling of circuit trajectories.

A trajectory is a piecewise-deterministic Markov process: between
switching events the capacitor charges follow the Kirchhoff ODE of the
instantaneous resistive network, and each memristor carries an
independent exponential clock whose hazard is the time integral of its
voltage-dependent exit rate along the trajectory.  Jump times are exact
(no fixed-step Bernoulli trials).

One engine, `_Ensemble`, runs all trajectories as arrays and jumps from
event to event on one of two paths.  A circuit with one memristor, one
capacitor and one source under a constant or step drive takes the exact
path (`_run_exact`): it inverts the closed-form hazard of each RC segment.
Every other run thins (`_evolve`): candidates drawn from an envelope of
the summed exit rate along the closed-form charges are accepted with
probability rate / envelope, and one shared row carries every trajectory
that has not switched yet.  The thinning loop runs one of two kernel
pairs (window and candidates), bound at construction: the scalar pair,
with the charge in closed form per state, for one memristor, one
capacitor and one sine or PWL source; the matrix pair, with one flow in
the eigenmodes of the Kirchhoff ODE, for every other netlist.

Exit rates come from `device.switching_rate` (`_Rates` stacks the
memristors' transition tables so that one call covers every clock) and
draws from counter-based Philox streams (`_Thresholds`).  Both paths
record through one recorder (`_record`: a compact code per trajectory and
output) and one event log, which one aggregator (`_tally`) turns into
`EnsembleStats`.  The diagnostics count `rate_ceiling_hits`: the rates cut
at the model's ceiling or, on the exact path, the hazard pieces run at it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from .analytic import ei_term, hazard_integral
from .circuit import CircuitState, Netlist, affine_dynamics
from .device import switching_rate

# thinning
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
    state i at output time t; stderr is sqrt(p (1-p) / n).  histograms[t]
    is (counts, edges): counts[i] holds the charges of capacitor 0 of the
    trajectories with memristor 0 in state i, over `histogram_bins` uniform
    bins with edges from the smallest to the largest charge at output t
    of the trajectories that had not failed by then (widened when these
    are all equal).  Netlists without a capacitor or memristor have none.
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
    # what the engine did: its path ("exact" or "thinning") and the
    # counters of that path
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


class _Ensemble:
    """All n trajectories of a netlist as arrays: states (n, M), charges
    (n, K).  Each memristor-state configuration (a mixed-radix index) gets a
    row of tables on first use: its `affine_dynamics`, an eigenbasis of A
    and the sine factors of the flow.  A single device (one memristor, one
    capacitor, one source) needs only A, B, Dq and Ds per state, built up
    front.  `run` takes the exact path for a single device under a constant
    or step drive and thins otherwise.  The thinning kernels are bound here:
    the scalar pair for a single device under a sine or PWL drive, its
    table rows being its states; the matrix pair for everything else.  Both
    take the table rows c, states s (rows, M), times t, charges q (rows, K)
    and the output time t_stop."""

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
        # record codes: memristor states, the first with capacitor 0's charge bin
        self.code_type = np.min_scalar_type(
            max([self.gs[0] * histogram_bins] + self.gs) if self.M else 0)
        self.rates = r = _Rates(models)
        # per rate entry: 1 / V, ln tau and the log of the rate's cap, where
        # the exponent cut at 700 or the model's ceiling stops it
        self.inv_v, self.log_tau = 1.0 / r.v_scale, np.log(r.tau)
        self.log_cap = np.minimum(np.repeat(np.log(r.ceiling), 2 * r.gmax), 700.0 - self.log_tau)
        self.mi = np.arange(self.M)
        self.sqrt_c = np.sqrt([c.capacitance for c in netlist.capacitors])
        self.config_row = {}     # configuration index -> table row
        self.tables = []
        self.thresholds = _Thresholds(master_seed, n)          # exact path
        # candidate round r's spacing in stream 2r, its acceptance in 2r + 1
        self.candidates = _Thresholds(master_seed, n, 2)
        single = _is_single_device(netlist)
        self.exact = single and self.piecewise_constant
        if single:
            # per state: A, B, Dq, Ds of the one capacitor and memristor, all
            # that the exact path and the scalar pair read
            dyn = [affine_dynamics(netlist, (i,)) for i in range(self.gs[0])]
            self.per_state = tuple(np.array([[d.A[0, 0], d.B[0, 0], d.Dq[0, 0], d.Ds[0, 0]]
                                             for d in dyn]).T)
        # window, candidates and table rows, as functions of the engine:
        # bound methods kept on it would hold its arrays in a reference cycle
        if single and not self.exact:
            self._forcing()
            self.kernels = _Ensemble._scalar_window, _Ensemble._scalar_candidates, _Ensemble._state_rows
        else:
            self.kernels = _Ensemble._matrix_window, _Ensemble._matrix_candidates, _Ensemble._rows_of

    def run(self, initial: CircuitState, outputs: Sequence[float]) -> EnsembleStats:
        """The ensemble from `initial`, sampled at `outputs` (ascending,
        within [initial time, t_end], ending at t_end)."""
        (self._run_exact if self.exact else self._evolve)(initial, outputs)
        return self._tally(outputs)

    # -- configuration tables ------------------------------------------
    def _add_configurations(self, configurations) -> None:
        """Table rows for the (configuration index, states) pairs, in order."""
        if not configurations:
            return
        for index, states in configurations:
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
            self.config_row[index] = len(self.tables) - 1
        (self.A, self.B, self.Dq, self.Ds, self.V, self.Vinv, self.eig, self.Bhat,
         self.bw, self.bw2, self.abs_dqv, self.curve) = (np.stack(x) for x in zip(*self.tables))

    def _rows_of(self, s):
        """Table rows of the configurations of states s (rows, M)."""
        index = s @ self.strides
        found, at = np.unique(index, return_index=True)
        self._add_configurations([(c, tuple(s[i].tolist())) for c, i in zip(found, at)
                                  if c not in self.config_row])
        rows = np.empty(index.size, dtype=np.int64)
        for c in found:
            rows[index == c] = self.config_row[c]
        return rows

    def _state_rows(self, s):
        """Table rows of a single device's states s (rows, 1): the states."""
        return s[:, 0]

    # -- record ----------------------------------------------------------
    def _reset(self, diag: dict) -> None:
        """An empty record and event log; diag counts what the path does."""
        self.codes, self.q_min, self.edges, self.failures, self.diag = [], [], [], [], diag
        # per accepted batch: times, trajectories, memristors, up (or down)
        self.log = [(np.zeros(0), np.zeros(0, np.intp), np.zeros(0, np.intp),
                     np.zeros(0, bool))]

    def _record(self, s, q, live=None, own=None) -> None:
        """Record an output from rows in states s with charges q: each
        capacitor's smallest charge over the `live` rows (a mask, or all),
        `bins` uniform bins from capacitor 0's smallest to its largest
        charge there (`_edges`) and, per trajectory, a row of codes: its
        memristors' states, the first as state * bins + capacitor 0's bin
        (`_hist_codes`).  Row i is trajectory i or, with `own`, row 0 stands
        for every trajectory but own - 1 and row i + 1 for trajectory
        own[i] - 1; the codes are kept with `own`."""
        code = s.astype(self.code_type)
        if self.K:
            q_live = q if live is None else q[live]
            self.q_min.append(q_live.min(axis=0, initial=math.inf))
            hi = q_live[:, 0].max(initial=-math.inf)
            self.edges.append(_edges(self.q_min[-1][0], hi, self.bins))
        if self.M:
            code[:, 0] = (_hist_codes(s[:, 0], q[:, 0], self.edges[-1]) if self.K
                          else s[:, 0] * self.bins)
        self.codes.append((code, own))

    def _tally(self, outputs) -> EnsembleStats:
        """The statistics of the record, leaving out failed trajectories."""
        n = self.n
        ok = np.ones(n, dtype=bool)
        ok[[i for i, _ in self.failures]] = False
        n_ok = int(ok.sum())
        occupancy = [np.zeros((len(outputs), g)) for g in self.gs]
        hists = []
        for k, (code, own) in enumerate(self.codes):
            if n_ok < n:
                code = code[ok if own is None else np.concatenate(([True], ok[own - 1]))]
            for m, g in enumerate(self.gs):
                counts = np.bincount(code[:, m], minlength=g * self.bins if m == 0 else g)
                if own is not None:     # row 0 counts the trajectories not in own
                    counts[code[0, m]] += n_ok - code.shape[0]
                if m == 0:
                    counts = counts.reshape(g, self.bins)
                    if self.K:
                        hists.append((counts.astype(float), self.edges[k]))
                    counts = counts.sum(axis=1)
                occupancy[m][k] = counts / n_ok
        te, who, _, up = (np.concatenate(x) for x in zip(*self.log))
        counted = ok[who]
        first_event = np.full(n, np.nan)
        np.fmin.at(first_event, who[counted], te[counted])
        return EnsembleStats(
            times=np.array(outputs), occupancy=occupancy,
            stderr=[np.sqrt(p * (1.0 - p) / n_ok) for p in occupancy],
            histograms=hists, n=n_ok, n_failed=len(self.failures),
            failures=sorted(self.failures), events_up=int((counted & up).sum()),
            events_down=int((counted & ~up).sum()),
            first_event_times=first_event, diagnostics=dict(self.diag))

    # -- thinning ----------------------------------------------------------
    def _evolve(self, initial: CircuitState, outputs) -> None:
        """Thinning (Lewis & Shedler 1979) from `initial`, recorded at
        `outputs` (ascending, ending at t_end), with the kernels bound at
        construction.  Each trajectory runs on its own clock through
        windows; a candidate falls where the envelope's integral since the
        last jump reaches the trajectory's level (a sum of spacing draws)
        and is accepted with probability summed rate / envelope.  Row i + 1
        carries trajectory i once it switched; until then row 0, one path
        through the same windows, stands for it and keeps only its level
        (sorted, unsorted once rejected), so a window touches only the
        members with a candidate in it.  A trajectory with more than
        MAX_CANDIDATES candidates in one output interval fails alone."""
        n, (window, candidates, rows_of) = self.n, self.kernels
        S = np.tile(np.array(initial.memristor_states, dtype=np.int64), (n + 1, 1))
        Q = np.tile(np.array(initial.capacitor_charges, dtype=float), (n + 1, 1))
        T, R = np.full(n + 1, float(initial.time)), np.full(n + 1, rows_of(self, S[:1])[0])
        # the envelope's integral since the last jump, and where the next candidate is
        lam_all, lev_all = np.zeros(n + 1), np.zeros(n + 1)
        self._rounds = np.zeros(n, dtype=np.int64)
        order = np.argsort(self.candidates.stream(0))
        levels, left = self.candidates.stream(0)[order], 0    # row 0: order[left:], pend_id
        pend_id, pend_lev, own = order[:0], levels[:0], order[:0]
        tries = np.zeros(n, dtype=np.int64)
        self._reset(dict(path="thinning", windows=0, candidates=0, accepted=0, rows_max=0,
                         runaway_failures=0, configurations=0, rate_ceiling_hits=0))
        diag = self.diag
        for t_out in outputs:
            tries[:] = 0
            act = own[T[own] < t_out]
            while True:
                shared = (left < n or pend_id.size > 0) and T[0] < t_out
                rows = np.concatenate(([0], act)) if shared else act
                if not rows.size:
                    break
                lam, lev, s = lam_all[rows], lev_all[rows], S[rows]
                t1, dt, total, q1, w = window(self, R[rows], s, T[rows], Q[rows], t_out)
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
                    ok, t_c, q_c, m, up, spacing = candidates(self, w, at, ids, gap_end - lam[at])
                    diag["candidates"] += ids.size
                    diag["accepted"] += int(ok.sum())
                    # accepted: clock m of the trajectory jumps, and its window ends
                    j, m, mine = ids[ok], m[ok], rows[at] == 0
                    S[j + 1] = s[at[ok]]
                    S[j + 1, m] += np.where(up[ok], 1, -1)
                    R[j + 1] = rows_of(self, S[j + 1])
                    T[j + 1], Q[j + 1], lam_all[j + 1], lev_all[j + 1] = (
                        t_c[ok], q_c[ok], 0.0, spacing[ok])
                    self.log.append((t_c[ok], j, m, up[ok]))
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
            if len(self.failures) == n:
                raise TrajectoryFailure(f"all trajectories failed: {self.failures[-1][1]}")
            # row 0 is live while it has members; own rows until they fail
            rows = np.concatenate(([0], own))
            live = T[rows] < math.inf
            live[0] = left < n or pend_id.size > 0
            self._record(S[rows], Q[rows], live, own)
        diag["runaway_failures"] = len(self.failures)
        # the scalar pair's tables are its device's states
        diag["configurations"] = len(self.tables) or self.gs[0]

    # -- matrix kernels (any netlist) -----------------------------------
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

    def _matrix_window(self, c, s, t, q, t_stop):
        """Windows [t, t1] of rows in configurations c (states s, charges q)
        and on them the envelope e^{l0 + (l1 - l0) x / dt} of the summed exit
        rate (x the time into the window).  Per clock, +-vm lie below their
        tangents at t plus kk dt x / 2, where kk bounds |vm''|: the forced
        sines' curve plus sum_k |(Dq V)_k| lam_k^2 |y_k - y_p,k| over the
        decaying modes.  A window ends by t_stop, at a breakpoint and where
        kk dt^2 reaches _WINDOW_SLACK voltage scales.  Each clock's envelope
        covers the transitions the sign of vm can drive, floored at e^-700
        and flat at the rate's cap; their sum is bounded by the chord of its
        (convex) log.  Returns t1, dt, the envelope's integral, the charge at
        t1 and what `_matrix_candidates` reads."""
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
        return t1, dt, total, self._flow(c, q, modes, dt), (c, s, t, dt, l0, l1, q, v, modes)

    def _matrix_candidates(self, w, at, ids, gap):
        """Trajectories ids' candidates where the envelope's integral into
        windows `at` of w reaches gap: acceptance (with probability summed
        rate / envelope), times, charges, the clock that fires (in
        proportion to the clocks' rates), its direction (up: the one its
        rate drives, so boundary states jump inward) and next spacing draws."""
        c, s, t, dt, l0, l1, q, v = (x[at] for x in w[:8])
        modes = tuple(None if x is None else x[at] for x in w[8])
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

    # -- scalar kernels (one memristor and capacitor, sine or PWL) -------
    def _forcing(self):
        """Tables of the closed-form charge q_p(t) + (q(t0) - q_p(t0)) e^{A (t - t0)}
        per state: q_p = -B off / A + B amp Im[e^{iwt} / (iw - A)] for a sine,
        -(B / A)(v + k / A) on a PWL segment of slope k; A = 0 (so B = 0) keeps q.
        _coef[:, i, s]: basis function i's coefficients in q_p, u = Dq q_p +
        Ds v (vm without the transient) and du/dt.  _par[s]: A, Dq, A^2, a
        bound on |u''|, the window slack in volts, 1 / V and ln tau up and
        down, the log of the rate's cap."""
        A, B, Dq, Ds = self.per_state
        w, g = self.waves[0], self.gs[0]
        ia = np.divide(1.0, A, out=np.zeros_like(A), where=A < 0.0)
        if w.kind == "sine":
            om = self.omega[0]
            den = np.where(A * A + om * om > 0.0, A * A + om * om, 1.0)
            fq = -B * np.array([w.offset * ia, w.amplitude * A / den, w.amplitude * om / den])
            fu = Dq * fq + Ds * np.array([w.offset, w.amplitude, 0.0])[:, None]
            du, curve = om * np.array([0.0 * A, -fu[2], fu[1]]), om * om * np.hypot(fu[1], fu[2])
        else:
            self._knots = np.array(w.breakpoints, dtype=float).T
            fq = -B * np.array([ia, ia * ia])
            fu = Dq * fq + Ds * np.array([1.0, 0.0])[:, None]
            du, curve = np.array([0.0 * A, fu[0]]), 0.0 * A
        self._coef = np.array([fq, fu, du])
        v, lt = self.rates.v_scale, np.log(self.rates.tau)
        cap = np.minimum(math.log(self.rates.ceiling[0]), 700.0 - np.minimum(lt[:g], lt[g:]))
        self._par = np.array([A, Dq, A * A, curve, _WINDOW_SLACK * np.minimum(v[:g], v[g:]),
                              1.0 / v[:g], 1.0 / v[g:], lt[:g], lt[g:], cap]).T.copy()

    def _forced(self, s, t, seg, rows=3):
        """The first `rows` of q_p, u, du/dt in states s at times t: basis (1, sin wt,
        cos wt) or (v(t), k) on PWL segments seg, summed per state if one for all."""
        if seg is None:
            basis = 1.0, np.sin(self.omega[0] * t), np.cos(self.omega[0] * t)
        else:   # the one PWL source's value and slope
            basis = np.interp(t, *self._knots), self.ramps[0][2][seg]
        one = np.ndim(t) == 0 and np.ndim(seg) == 0
        coef = self._coef[:rows] if one else np.take(self._coef[:rows], s, axis=2)
        out = sum(coef[:, i] * b for i, b in enumerate(basis))
        return np.take(out, s, axis=1) if one else out

    def _scalar_window(self, c, s, t, q, t_stop):
        """`_matrix_window` for one device, whose table rows c are its
        states: +-vm lie below their tangents at t plus K dt x / 2 (K bounds
        |vm''|); a window ends by t_stop, at a PWL breakpoint and where
        K dt^2 reaches _WINDOW_SLACK voltage scales, and the envelope covers
        the transitions the sign of vm can drive there."""
        q = q[:, 0]
        # rows that start together (at an output time) share one forced response
        t0 = t[0] if (t == t[0]).all() else t
        bp = self.breakpoints
        seg = None if self.waves[0].kind == "sine" else np.searchsorted(bp[:-1], t0, "right")
        qp, u, du = self._forced(c, t0, seg)
        a, dq, a2, curve, slack, iv_up, iv_down, lt_up, lt_down, cap = (
            np.take(self._par, c, axis=0).T)
        cq = q - qp
        vc = dq * cq                  # vm's transient, decaying as e^{A x}
        k = curve + a2 * np.abs(vc)
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.minimum(np.minimum(t + np.sqrt(slack / k), t_stop),
                            math.inf if seg is None else bp[seg])
            dt = t1 - t
            rise, bend = (du + a * vc) * dt, 0.5 * k * dt * dt
            vm0 = u + vc
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
        q1 = self._forced(c, t_stop, seg, 1)[0]       # most windows end at t_stop
        short = np.flatnonzero(t1 < t_stop)
        if short.size:
            q1[short] = self._forced(c[short], t1[short], _pick(seg, short), 1)[0]
        return t1, dt, total, (q1 + cq * np.exp(a * dt))[:, None], (c, t, seg, dt, l0, l1, cq)

    def _scalar_candidates(self, w, at, ids, gap):
        """`_matrix_candidates` for one device: its one clock (m = 0) fires
        with probability rate / envelope."""
        c, t, seg, dt, l0, l1, cq = w
        s, t, dt, l0, l1, cq = (x[at] for x in (c, t, dt, l0, l1, cq))
        b = (l1 - l0) / dt
        x = np.clip(_exp_step(-b, np.exp(l0), gap), 0.0, dt)
        a, dq = np.take(self._par[:, :2], s, axis=0).T
        trans = cq * np.exp(a * x)
        qp, u = self._forced(s, t + x, _pick(seg, at), 2)
        vm = u + dq * trans
        rate, _ = self.rates(s, vm, self.diag)
        k = 2 * self._rounds[ids]
        self._rounds[ids] += 1
        with np.errstate(divide="ignore"):
            ok = self.candidates.take(ids, k + 1) > l0 + b * x - np.log(rate)
        return (ok, t + x, (qp + trans)[:, None], np.zeros(at.size, np.intp), vm > 0.0,
                self.candidates.take(ids, k + 2))

    # -- exact event-to-event rounds (single device, constant and step) --
    def _run_exact(self, initial: CircuitState, outputs) -> None:
        """Each trajectory jumps from stop to stop: its next event, or the
        end of its RC segment (the step time or t_end).  Within a segment
        the source is constant, so vm = a + b e^{-(t - t0)/tau} and the
        hazard is inverted in closed form (`_next_stops`)."""
        A, B = self.per_state[:2]
        if np.any((A > 0.0) | ((A == 0.0) & (B != 0.0))):
            raise ValueError("the exact path needs the capacitor to relax in every "
                             "state (dq/dt = A q + B v with A < 0, or A = B = 0)")
        # RC time constant per state (1 s where the capacitor is cut off,
        # A = 0) and the log of the ceiling times each rate entry's tau
        self.tau = np.where(A < 0.0, -1.0 / np.where(A < 0.0, A, -1.0), 1.0)
        self.log_cap_tau = np.log(self.rates.ceiling[0] * self.rates.tau)
        n, t_end = self.n, outputs[-1]
        self._reset(dict(path="exact", rounds=0, newton_iterations=0, newton_max=0,
                         sign_splits=0, ceiling_splits=0, rate_ceiling_hits=0))
        state = np.full(n, int(initial.memristor_states[0]), dtype=np.int64)
        t0 = np.full(n, float(initial.time))
        q0 = np.full(n, float(initial.capacitor_charges[0]))
        remaining = self.thresholds.stream(0).copy()
        draw = np.ones(n, dtype=np.int64)
        stop = _Stops(n)
        everyone = np.arange(n)
        self._next_stops(everyone, state, t0, q0, remaining, t_end, stop)
        self.diag["rounds"] += 1
        for t_out in outputs:
            while True:
                due = np.nonzero(stop.t < t_out)[0]
                if not due.size:
                    break
                fired = due[stop.fires[due]]
                up = stop.up[fired]
                state[fired] += np.where(up, 1, -1)
                # memristor 0, as a view that stores no column
                self.log.append((stop.t[fired], fired, np.broadcast_to(0, fired.shape), up))
                remaining[fired] = self.thresholds.draw(fired, draw, fired)
                q0[due] = stop.q_at(due, stop.d[due])
                t0[due] = stop.t[due]
                self._next_stops(due, state, t0, q0, remaining, t_end, stop)
                self.diag["rounds"] += 1
            # charges straight into the record: held in a local, they would
            # stay alive through the next rounds' temporaries
            self._record(state[:, None],
                         stop.q_at(everyone, (t_out - t0) / self.tau[state])[:, None])

    def _next_stops(self, idx, state, t0, q0, remaining, t_end, stop):
        """Fill `stop` for trajectories idx, whose segments start at
        (t0, q0) in `state`, with their next event or segment end.  A
        segment end carries the unspent hazard forward in `remaining`."""
        if idx.size > _STOP_BATCH:
            for part in np.array_split(idx, -(-idx.size // _STOP_BATCH)):
                self._next_stops(part, state, t0, q0, remaining, t_end, stop)
            return
        w = self.waves[0]
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
        A, B, Dq, Ds = self.per_state
        q_inf = np.where(A[s] < 0.0, B[s] * v * tau, qs)
        a = Dq[s] * q_inf + Ds[s] * v
        b = Dq[s] * (qs - q_inf)
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
        ceiling = self.rates.ceiling[0]
        pend = np.arange(idx.size)
        while pend.size:
            p = self._piece(s[pend], a[pend], b[pend], d[pend],
                            d_sign[pend], d_end[pend])
            dp, dq, tp = d[pend], p.end, tau[pend]
            haz = np.zeros(pend.size)
            at_cap = p.live & p.above
            self.diag["rate_ceiling_hits"] += int(np.count_nonzero(at_cap))
            haz[at_cap] = ceiling * tp[at_cap] * (dq - dp)[at_cap]
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
                dp[hit] + need[hit] / (ceiling * tp[hit]), dq[hit])
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
            self.diag["sign_splits"] += int(np.sum(split & (dq == p.sign_end)))
            self.diag["ceiling_splits"] += int(np.sum(split & (dq != p.sign_end)))
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
        self.diag["newton_iterations"] += int(iters.sum())
        self.diag["newton_max"] = max(self.diag["newton_max"], int(iters.max()))
        return d

    def _piece(self, s, a, b, d, d_sign, d_end):
        """The stretch of a segment from offset d on over which the exit
        rate keeps one form: one direction (vm does not change sign) and
        either below or at the rate ceiling."""
        g = self.gs[0]
        # vm = a + b e^{-d} has the sign of b before a sign change and the
        # sign of a after one or where there is none (b's when a = 0)
        before = d < d_sign
        sgn = np.where((before & (d_sign < math.inf)) | (a == 0.0),
                       np.sign(b), np.sign(a))
        up = (sgn > 0) & (s < g - 1)
        live = up | ((sgn < 0) & (s > 0))
        i = s + g * ~up
        v_x, tau_x, log_cap = self.rates.v_scale[i], self.rates.tau[i], self.log_cap_tau[i]
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


def _log_sum_exp(x):
    """log sum_m e^{x_m} over the last axis."""
    top = x.max(axis=-1, initial=-700.0)
    return top + np.log(np.exp(x - top[..., None]).sum(axis=-1))


def _edges(lo, hi, bins):
    """`bins` uniform bins from lo to hi, widened where lo == hi."""
    return np.linspace(lo, hi if hi > lo else lo + max(abs(lo), 1e-30), bins + 1)


def _hist_codes(state, q, edges):
    """state * bins + np.histogram's bin of each charge over the uniform
    `edges` (the last bin closed), with charges outside them clipped to the
    edges: as in np.histogram, the arithmetic bin moves by at most one to
    agree with the edges."""
    bins, lo, hi = edges.size - 1, edges[0], edges[-1]
    q = np.minimum(np.maximum(q, lo), hi)
    b = np.minimum(((q - lo) * (bins / (hi - lo))).astype(np.intp), bins - 1)
    b -= q < edges[b]
    b += q >= edges[b + 1]
    return state * bins + np.minimum(b, bins - 1)


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
# Entry points

def _is_single_device(netlist: Netlist) -> bool:
    return (len(netlist.memristors) == 1 and len(netlist.capacitors) == 1
            and len(netlist.sources) == 1)


def _output_grid(initial: CircuitState, t_end: float, output_times) -> list:
    """The distinct output times and t_end, ascending.  A run that does not
    end after the initial time, or a time that is not finite or lies
    outside [initial time, t_end], raises ValueError."""
    t_end, times = float(t_end), np.asarray(output_times, dtype=float).ravel()
    if not math.isfinite(t_end):
        raise ValueError("t_end must be finite")
    if not np.isfinite(times).all():
        raise ValueError("output times must be finite")
    if not t_end > initial.time:
        raise ValueError("t_end must exceed the initial time")
    if min(times, default=t_end) < initial.time:
        raise ValueError("output time before the initial time")
    if max(times, default=t_end) > t_end:
        raise ValueError("output time after t_end")
    return sorted(set(times.tolist()) | {t_end})


def simulate_trajectory(netlist: Netlist, initial: CircuitState,
                        t_end: float, seed: int,
                        output_times: Optional[Sequence[float]] = None) -> TrajectoryRecord:
    """Sample one trajectory of the circuit's jump process: the n = 1 case
    of the thinning path (closed-form charges under every source kind,
    exact jump times), with `seed` as its master seed.  Its charges at the
    output times are the smallest charges of the record, which for one
    trajectory are its own; if it fails, TrajectoryFailure is raised.

    Identical (inputs, seed) give bitwise-identical records.  A non-finite
    t_end or output time, t_end not after the initial time, or an output
    time outside [initial time, t_end] raises ValueError.
    """
    outputs = _output_grid(initial, t_end, () if output_times is None else output_times)
    eng = _Ensemble(netlist, 1, seed)
    eng._evolve(initial, outputs)
    # the one trajectory is the last row of each record
    states = np.array([code[-1] for code, _ in eng.codes], dtype=np.int64)
    states[:, :1] //= eng.bins
    charges = np.array(eng.q_min).reshape(len(outputs), eng.K)
    te, _, mem, up = (np.concatenate(x) for x in zip(*eng.log))
    now, events = list(initial.memristor_states), []
    for t, m, u in zip(te.tolist(), mem.tolist(), up.tolist()):
        events.append((t, m, now[m], now[m] + (1 if u else -1)))
        now[m] = events[-1][3]
    return TrajectoryRecord(events, np.array(outputs), charges, states,
                            CircuitState(tuple(states[-1]), tuple(charges[-1]), outputs[-1]))


def run_ensemble(netlist: Netlist, initial: CircuitState, t_end: float,
                 output_times: Sequence[float], n: int, master_seed: int,
                 histogram_bins: int = 50) -> EnsembleStats:
    """Aggregate n independent trajectories into occupation-probability
    estimates with standard errors and conditional charge histograms
    (see `EnsembleStats`).

    A circuit with one memristor, one capacitor and one source under a
    constant or step drive takes the exact path; every other run thins.
    Thresholds come from counter-based Philox streams keyed by
    master_seed, so results do not depend on batching.  Failed
    trajectories are excluded and reported, never silently retried.  n and
    histogram_bins must be integers >= 1, and the times as for
    `simulate_trajectory`, else ValueError.
    """
    if not isinstance(n, Integral) or n < 1:
        raise ValueError("n must be an integer >= 1")
    if not isinstance(histogram_bins, Integral) or histogram_bins < 1:
        raise ValueError("histogram_bins must be an integer >= 1")
    outputs = _output_grid(initial, t_end, output_times)
    return _Ensemble(netlist, int(n), master_seed, int(histogram_bins)).run(initial, outputs)
