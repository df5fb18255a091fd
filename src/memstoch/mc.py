"""Monte Carlo sampling of circuit trajectories.

A trajectory is a piecewise-deterministic Markov process: between
switching events the capacitor charges follow the Kirchhoff ODE of the
instantaneous resistive network, and each memristor carries an
independent exponential clock whose hazard is the time integral of its
voltage-dependent exit rate along the trajectory.  Jump times are exact
(no fixed-step Bernoulli trials).

One engine, `_Ensemble`, runs all trajectories as arrays and samples
them by thinning (`_evolve`): candidates drawn from an envelope of the
summed exit rate along the closed-form charges are accepted with
probability rate / envelope, and one shared row carries every trajectory
that has not switched yet.  Windows end at source breakpoints and where
the envelope would loosen, never at output times; at an output the
recorder takes each row's charge in closed form from its window start,
on contiguous slices of the rows in place.  One kernel pair, a window and
a charge flow, serves every netlist: it reads the closed-form charge of
each visited memristor-state configuration from `circuit.DeviceCharge`,
a forced part tabled per source segment plus a transient that decays in
the eigenmodes of the Kirchhoff ODE.

Exit rates come from `device.switching_rate` (`_Rates` stacks the
memristors' transition tables so that one call covers every clock) and
draws from counter-based Philox streams (`_Thresholds`).  One recorder
(`_record`: a compact code per trajectory and output) and one event log
feed one aggregator (`_tally`) that returns `EnsembleStats`.  The
diagnostics count `rate_ceiling_hits`: the rates cut at the model's
ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from .circuit import CircuitState, DeviceCharge, Netlist, output_grid
from .device import switching_rate

# thinning
MAX_CANDIDATES = 10_000     # candidates of one trajectory within one output interval
_WINDOW_SLACK = 1.0         # bound on the envelope's excess over the log-rate
# rows per kernel call: a kernel holds some dozens of temporaries of this
# length, so batches keep its memory O(batch) rather than O(n); the recorder
# flows contiguous slices of this many rows in place
_BATCH = 4096


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
    # what the sampler did: windows, candidates, accepted events, ...
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
    """Counter-based exponential draws: Philox stream [master_seed, k]
    holds draw k of each of the n trajectories (read-only, cached)."""

    def __init__(self, master_seed: int, n: int):
        self.key, self.n = int(master_seed), n
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


class _Ensemble:
    """All n trajectories of a netlist as arrays: states (n, M), charges
    (n, K).  Each memristor-state configuration (a mixed-radix index) gets a
    table row on first visit: its closed-form charge (a row of
    `circuit.DeviceCharge`) and, in `par`, what the kernels read of it and
    of its clocks.  The two thinning kernels, the window and the flow, take
    the table rows c, states s (rows, M), window start times t and the
    rows' transients z (rows, K) there (the window turns the charges of
    `fresh` rows into them)."""

    def __init__(self, netlist: Netlist, n: int, master_seed: int,
                 histogram_bins: int = 50):
        self.n = n
        self.bins = histogram_bins
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
        # the configuration indices with table rows, sorted, and their rows;
        # the largest index last, with no row
        self.keys, self.key_rows = np.array([np.iinfo(np.int64).max]), np.array([-1])
        self.dev = DeviceCharge(netlist)
        # par's rows, per table row: lam, V and Dq V (the flow's), then V^-1,
        # lam^2 and, per memristor, u's curve under sines, the window slack
        # in volts, 1 / V and ln tau up and down and the log of the rate's cap
        K, M = self.K, self.M
        self.par = np.zeros((K * (2 * K + M + 2) + 7 * M, 0))
        self.flow_rows = K * (K + M + 1)
        # candidate round r's spacing in stream 2r, its acceptance in 2r + 1
        self.candidates = _Thresholds(master_seed, n)

    def run(self, initial: CircuitState, outputs: Sequence[float]) -> EnsembleStats:
        """The ensemble from `initial`, sampled at `outputs` (ascending,
        within [initial time, t_end], ending at t_end)."""
        self._evolve(initial, outputs)
        return self._tally(outputs)

    # -- configuration tables ------------------------------------------
    def _rows_of(self, s):
        """Table rows of the configurations of states s (rows, M), each
        added on its first visit."""
        index = s @ self.strides
        at = self.keys.searchsorted(index)
        miss = self.keys[at] != index
        if miss.any():
            new, first = np.unique(index[miss], return_index=True)
            start = self.par.shape[1]
            self._add_configurations(s[miss][first].astype(np.intp))
            keys = np.concatenate((self.keys, new))
            order = keys.argsort()
            self.keys = keys[order]
            self.key_rows = np.concatenate((self.key_rows, start + np.arange(new.size)))[order]
            at = self.keys.searchsorted(index)
        return self.key_rows[at]

    def _add_configurations(self, states):
        """Table rows for the configurations of states (k, M), in order: a
        row of `dev` each, and of `par`, from what `dev.add` returns."""
        _, _, _, (lam, vec, inv, dqv, curve) = self.dev.add(states)
        k = len(states)
        up = self.rates.base + states
        down = up + self.rates.gmax
        self.par = np.concatenate((self.par, np.concatenate([
            lam, vec.reshape(-1, k), dqv.reshape(-1, k), inv.reshape(-1, k), lam ** 2, curve] + [
                x.T for x in (_WINDOW_SLACK * self.rates.v_min[self.mi, states], self.inv_v[up],
                              self.inv_v[down], self.log_tau[up], self.log_tau[down],
                              np.maximum(self.log_cap[up], self.log_cap[down]))])), axis=1)

    # -- record ----------------------------------------------------------
    def _reset(self) -> None:
        """An empty record, event log and diagnostics."""
        self.codes, self.q_min, self.edges, self.failures = [], [], [], []
        self.diag = dict(windows=0, candidates=0, accepted=0, rows_max=0, runaway_failures=0,
                         configurations=0, rate_ceiling_hits=0)
        # per accepted batch: times, trajectories, memristors, up (or down)
        self.log = [(np.zeros(0), np.zeros(0, np.intp), np.zeros(0, np.intp),
                     np.zeros(0, bool))]

    def _record(self, s, q, live=None, n_own=None) -> None:
        """Record an output from rows in states s with charges q: each
        capacitor's smallest charge over the `live` rows (indices, or all),
        `bins` uniform bins from capacitor 0's smallest to its largest
        charge there (`_edges`) and, per trajectory, a row of codes: its
        memristors' states, the first as state * bins + capacitor 0's bin
        (`_hist_codes`).  Row i is trajectory i or, with n_own, row i + 1
        is trajectory own[i], with own = self.own[:n_own] (a prefix of the
        final one), and row 0 stands for every other trajectory."""
        code = s.astype(self.code_type)
        if self.K:
            q_live = q if live is None else q[live]
            self.q_min.append(q_live.min(axis=0, initial=math.inf))
            hi = q_live[:, 0].max(initial=-math.inf)
            self.edges.append(_edges(self.q_min[-1][0], hi, self.bins))
        if self.M:
            code[:, 0] = (_hist_codes(s[:, 0], q[:, 0], self.edges[-1]) if self.K
                          else s[:, 0] * self.bins)
        self.codes.append((code, n_own))

    def _tally(self, outputs) -> EnsembleStats:
        """The statistics of the record, leaving out failed trajectories."""
        n = self.n
        ok = np.ones(n, dtype=bool)
        ok[[i for i, _ in self.failures]] = False
        n_ok = int(ok.sum())
        occupancy = [np.zeros((len(outputs), g)) for g in self.gs]
        hists = []
        for k, (code, n_own) in enumerate(self.codes):
            own = None if n_own is None else self.own[:n_own]
            if n_ok < n:
                code = code[ok if own is None else np.concatenate(([True], ok[own]))]
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
        """Thinning (Lewis & Shedler 1979) from `initial` to t_end =
        outputs[-1], recorded at `outputs`.  Each row runs through windows
        that end at a source breakpoint, at the curvature reach
        (_WINDOW_SLACK) or at t_end; output times do not cut them.  Of its
        open window a row keeps the start T with its transient Q, the end E
        with the transient Q1, the envelope's log-rates L0 and L1 at both
        ends and its integral TOT.  A candidate falls where that integral
        from the window start reaches
        the row's gap G (a sum of spacing draws, less the windows passed), X
        into the window (inf: none in it), and is accepted with probability
        summed rate / envelope; A is when the row next acts, at its candidate
        or at its window's end.  A trajectory gets a row of its own when it
        first switches; until then row 0, one path through the same windows,
        stands for it and keeps only its level (measured from the initial
        time against row 0's integral lam0; sorted, unsorted once rejected),
        so a window touches only the members with a candidate in it.  Before
        each output, passes draw every candidate ahead of it and open the
        windows that end before it; the recorder then takes each row's
        charge there in closed form, on contiguous slices of rows 0..k in
        place.  A trajectory with more than MAX_CANDIDATES candidates in one
        output interval fails alone."""
        n, t_end = self.n, outputs[-1]
        # row r > 0 carries trajectory traj[r]
        S, traj = np.zeros((n + 1, self.M), dtype=np.int16), np.zeros(n + 1, dtype=np.int32)
        S[0] = initial.memristor_states
        R, T = np.zeros(n + 1, dtype=np.int64), np.zeros(n + 1)
        R[0], T[0] = self._rows_of(S[:1])[0], initial.time
        Q, Q1 = (np.zeros((n + 1, self.K)) for _ in range(2))
        Q[0] = initial.capacitor_charges
        E, L0, L1, TOT, G, X, A = (np.zeros(n + 1) for _ in range(7))
        self._rounds = np.zeros(n, dtype=np.int32)
        order = np.argsort(self.candidates.stream(0))
        levels, left = self.candidates.stream(0)[order], 0    # row 0: order[left:], pend_id
        pend_id, pend_lev, lam0, k = order[:0], levels[:0], 0.0, 0
        tries = np.zeros(n, dtype=np.int32)
        self._reset()

        def batched(fn, r, *args):
            """fn(self, R, S, T, Q of rows r, *args) over _BATCH rows at a
            time; array args go along with the rows."""
            out = [fn(self, R[b], S[b], T[b], Q[b],
                      *(a[i:i + _BATCH] if isinstance(a, np.ndarray) else a for a in args))
                   for i in range(0, r.size, _BATCH) for b in [r[i:i + _BATCH]]]
            return out[0] if len(out) == 1 else tuple(np.concatenate(x) for x in zip(*out))

        def open_windows(r, fresh):
            """Windows from the starts of rows r, and their next candidates;
            the first `fresh` rows hold the charges they jumped with."""
            if not r.size:
                return
            t = T[r]
            t1, l0, l1, Q[r], Q1[r] = batched(_Ensemble._window, r, t_end,
                                              np.arange(r.size) < fresh)
            dt = t1 - t
            if not (dt > 0.0).all():
                raise TrajectoryFailure(f"a window at {t.min():.9g} s is below the time step")
            E[r], L0[r], L1[r] = t1, l0, l1
            TOT[r] = tot = _integral(l0, l1, dt)
            X[r] = x = _offset(l0, l1, dt, G[r], tot)
            A[r] = np.minimum(t + x, t1)
            self.diag["windows"] += r.size

        def draw(r, ids, gap, x, t_out):
            """Candidates of trajectories ids at offsets x into the windows
            of rows r (0: a member of row 0 at level gap, else its own row
            with G = gap) before t_out, each until accepted or none is left
            (members then go back to row 0).  Returns the rows that jumped."""
            nonlocal pend_id, pend_lev, k
            jumped = [r[:0]]
            while True:
                due = (x < math.inf) & ((T[r] + x < t_out) | (E[r] < t_out))
                if not due.all():
                    later = ~due & (r == 0)
                    pend_id = np.concatenate((pend_id, ids[later]))
                    pend_lev = np.concatenate((pend_lev, gap[later]))
                    r, ids, gap, x = r[due], ids[due], gap[due], x[due]
                tries[ids] += 1
                over = tries[ids] > MAX_CANDIDATES
                if over.any():      # a runaway trajectory fails alone
                    self.failures += [(int(i), f"more than {MAX_CANDIDATES} candidates within "
                                       f"one output interval at t = {t_out:.9g} s")
                                      for i in ids[over]]
                    gone = r[over & (r > 0)]      # own rows; members just drop out
                    T[gone] = A[gone] = math.inf
                    r, ids, gap, x = r[~over], ids[~over], gap[~over], x[~over]
                if not ids.size:
                    return np.concatenate(jumped)
                ok, t_c, q_c, m, up, spacing = batched(
                    _Ensemble._candidates, r, L0[r], L1[r], E[r] - T[r], ids, x)
                self.diag["candidates"] += ids.size
                self.diag["accepted"] += int(ok.sum())
                # accepted: clock m of the trajectory jumps (a member into
                # a new row), and a window opens at the next pass (until then
                # A = inf)
                j, m, jr = ids[ok], m[ok], r[ok]
                new = np.flatnonzero(jr == 0)
                jr[new], traj[k + 1:k + 1 + new.size] = np.arange(k + 1, k + 1 + new.size), j[new]
                k += new.size
                S[jr] = S[r[ok]]
                S[jr, m] += np.where(up[ok], 1, -1)
                R[jr] = self._rows_of(S[jr])
                T[jr], G[jr], A[jr], Q[jr] = t_c[ok], spacing[ok], math.inf, q_c[ok]
                self.log.append((t_c[ok], j, m, up[ok]))
                jumped.append(jr)
                # rejected: the next candidate, in this window or a later one
                r, ids, gap = r[~ok], ids[~ok], gap[~ok] + spacing[~ok]
                mine = r == 0
                x = _offset(L0[r], L1[r], E[r] - T[r], np.where(mine, gap - lam0, gap), TOT[r])
                o = r[~mine]
                G[o], X[o], A[o] = gap[~mine], x[~mine], np.minimum(T[o] + x[~mine], E[o])

        pending = np.zeros(1, dtype=np.intp)    # rows that jumped, whose windows open next
        for t_out in outputs:
            tries[:] = 0
            # own rows that act before t_out: at a candidate, or where their
            # window ends with none left in it (then the next one opens, with
            # those of the rows that jumped and row 0's once its members are
            # drawn); swept: row 0's members drawn up to t_out
            rows, swept = 1 + np.flatnonzero(A[1:k + 1] < t_out), False
            while True:
                shared = left < n or pend_id.size > 0
                turn = shared and swept and E[0] < t_out
                if not (rows.size or pending.size or turn or shared and not swept):
                    break
                x = X[rows]
                ends, c = rows[x == math.inf], rows[x < math.inf]
                if turn:
                    lam0 += TOT[0]
                    ends, swept = np.concatenate(([0], ends)), False
                G[ends] -= TOT[ends]
                T[ends], Q[ends] = E[ends], Q1[ends]
                opened = np.concatenate((pending, ends))
                open_windows(opened, pending.size)
                opened = opened[opened > 0]
                opened = opened[A[opened] < t_out]     # those that act before t_out
                r = np.concatenate((c, opened[X[opened] < math.inf]))
                ids, gap, x = traj[r], G[r], X[r]
                if shared and not swept:    # the members with a candidate in row 0's window
                    tot = TOT[0]
                    end = left + int(np.searchsorted(levels[left:], lam0 + tot))
                    while end < n and levels[end] - lam0 < tot:
                        end += 1
                    while end > left and not levels[end - 1] - lam0 < tot:
                        end -= 1
                    inside = pend_lev - lam0 < tot
                    m_id = np.concatenate((order[left:end], pend_id[inside]))
                    m_lev = np.concatenate((levels[left:end], pend_lev[inside]))
                    left, pend_id, pend_lev = end, pend_id[~inside], pend_lev[~inside]
                    r = np.concatenate((r, np.zeros(m_id.size, dtype=r.dtype)))
                    ids, gap = np.concatenate((ids, m_id)), np.concatenate((gap, m_lev))
                    x = np.concatenate((x, _offset(L0[0], L1[0], E[0] - T[0], m_lev - lam0, tot)))
                    swept = True
                pending = draw(r, ids, gap, x, t_out) if r.size else r
                rows = np.concatenate((c, opened))
                rows = rows[A[rows] < t_out]
                self.diag["rows_max"] = k
            if len(self.failures) == n:
                raise TrajectoryFailure(f"all trajectories failed: {self.failures[-1][1]}")
            # every row's charge flows in place, a failed row's (T = inf)
            # over no time; row 0 is live while it has members, own rows
            # until they fail, and only live rows bound the bins (a dead
            # row's code is dropped or cancelled in _tally)
            q = np.empty((k + 1, self.K))
            for i in range(0, k + 1, _BATCH):
                j = slice(i, min(i + _BATCH, k + 1))
                q[j] = self._flow(R[j], S[j], np.minimum(T[j], t_out), Q[j], t_out)[0]
            live = T[:k + 1] < math.inf
            live[0] = left < n or pend_id.size > 0
            self._record(S[:k + 1], q, None if live.all() else np.flatnonzero(live), k)
        self.own = traj[1:k + 1]
        self.diag["runaway_failures"] = len(self.failures)
        self.diag["configurations"] = self.keys.size - 1

    def _candidates(self, c, s, t, q, l0, l1, dt, ids, x):
        """Trajectories ids' candidates at offsets x into their windows
        (from row states q at t, in configurations c and states s, under
        the envelope e^{l0 + (l1 - l0) x / dt}): acceptance (with probability
        summed rate / envelope), times, charges, the clock that fires (in
        proportion to the clocks' rates), its direction (up: the one its
        rate drives, so boundary states jump inward) and next spacing draws."""
        t_c = t + x
        q_c, vm = self._flow(c, s, t, q, t_c, True)
        rate, _ = self.rates(s, vm, self.diag)
        cum = np.cumsum(rate, axis=1)
        k = 2 * self._rounds[ids]
        self._rounds[ids] += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            excess = self.candidates.take(ids, k + 1) - (
                l0 + (l1 - l0) / dt * x - np.log(cum[:, -1]))
        # given acceptance the excess is exponential, so e^-excess is uniform
        u = np.exp(-np.maximum(excess, 0.0)) * cum[:, -1]
        m = np.argmax((cum >= u[:, None]) & (rate > 0.0), axis=1)
        up = vm[np.arange(m.size), m] > 0.0
        return excess > 0.0, t_c, q_c, m, up, self.candidates.take(ids, k + 2)

    # -- kernels ---------------------------------------------------------
    def _window(self, c, s, t, z, t_end, fresh):
        """Windows [t, t1] of rows in configurations c (states s) from their
        transients z at t and on them the envelope e^{l0 + (l1 - l0) x / dt}
        of the summed exit rate (x the time into the window).  Per clock,
        +-vm lie below their tangents at t plus kk dt x / 2, where kk bounds
        |vm''|: u's curve under sines plus sum_k |(Dq V)_k y_k| lam_k^2 over
        the decaying modes.  A window ends by t_end, at a breakpoint and where
        kk dt^2 reaches _WINDOW_SLACK voltage scales.  Each clock's envelope
        covers the transitions the sign of vm can drive, floored at e^-700 and
        flat at the rate's cap; their sum is bounded by the chord of its
        (convex) log.  Off sines, a window in which no clock can be driven up
        to the segment's end runs to it.  Returns t1, l0, l1, and the
        transients at t and t1.  Inside, rows run along the last axis."""
        dev, K, M, n = self.dev, self.K, self.M, c.size
        seg = dev.segment(t)
        p = self.par.take(c, axis=1)
        lam, dqv = p[:K], p[K * (K + 1):self.flow_rows].reshape(M, K, n)
        o = self.flow_rows + K * K
        vinv, lam2 = p[self.flow_rows:o].reshape(K, K, n), p[o:o + K]
        curve, slack, iv_up, iv_down, lt_up, lt_down, cap = p[o + K:].reshape(7, M, n)
        new = fresh.any()       # then charges to transients, through q_p
        f = dev.forced(c, seg, slice(0 if new else K, None), t)
        o = f.shape[0] - 2 * M
        u, du, z = f[o:o + M], f[o + M:], z.T
        if new:
            z = np.where(fresh, _mv(vinv, z - f[:K]), z)
        vc = dqv * z[None]      # each mode's part of vm's transient
        vm0, kk = u + _msum(vc), curve + _msum(np.abs(vc) * lam2[None])
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.minimum(np.minimum(t + _over(np.minimum, np.sqrt(slack / kk), 0, math.inf),
                                       t_end), dev.ends[seg])
            dt = (t1 - t)[None]
            rise, bend = (du + _msum(vc * lam[None])) * dt, 0.5 * kk * dt * dt
            vm1, mv1 = vm0 + rise + bend, bend - rise - vm0   # vm, -vm at t1
            on_up, on_down = (vm0 > 0.0) | (vm1 > 0.0), (vm0 < 0.0) | (mv1 > 0.0)
            l0, l1 = (np.maximum(np.maximum(np.where(on_up, x * iv_up - lt_up, -700.0),
                                            np.where(on_down, y * iv_down - lt_down, -700.0)),
                                 -700.0) for x, y in ((vm0, -vm0), (vm1, mv1)))
            if not dev.sine:
                # up to the segment's end b, vm runs between the forced part
                # u (linear) and u plus each mode's part of the transient:
                # where no sign it takes drives a clock, no candidate falls
                # before b
                b = np.minimum(dev.ends[seg], t_end)
                ub = u + du * (b - t)[None]
                lo = np.minimum(u, ub) + _msum(np.minimum(vc, 0.0))
                hi = np.maximum(u, ub) + _msum(np.maximum(vc, 0.0))
                idle = ((np.where(hi > 0.0, hi * iv_up - lt_up, -700.0) <= -700.0)
                        & (np.where(lo < 0.0, -lo * iv_down - lt_down, -700.0) <= -700.0))
                idle = _over(np.logical_and, idle, 0, True)
                t1 = np.where(idle, b, t1)
                l0, l1 = np.where(idle[None], -700.0, l0), np.where(idle[None], -700.0, l1)
        top = np.maximum(l0, l1) > cap
        l0, l1 = _log_sum_exp(np.where(top, cap, l0)), _log_sum_exp(np.where(top, cap, l1))
        z1 = z * np.exp(lam * (t1 - t)[None])
        if dev.bp.size:     # at a breakpoint the transient takes up q_p's jump
            at = np.flatnonzero(t1 == dev.ends[seg])
            z1[:, at] += dev.jump.take(c[at] * dev.t0.size + seg[at], axis=1)
        # from l1 - 50 at least: the inversion cannot overflow
        return t1, np.maximum(l0, l1 - 50.0), l1, z.T, z1.T

    def _flow(self, c, s, t, z, t1, with_vm=False):
        """Charges at times t1 from the transients z at t (on t's source
        segment) in configurations c: q_p plus V times the transient decayed
        by e^{lam (t1 - t)} and, with_vm, vm = u + (Dq V) times it."""
        K, M, n = self.K, self.M, c.size
        p = self.par[:self.flow_rows].take(c, axis=1)
        y = z.T * np.exp(p[:K] * (t1 - t)[None])
        f = self.dev.forced(c, self.dev.segment(t), slice(K + M if with_vm else K), t1)
        q1 = (f[:K] + _mv(p[K:K * (K + 1)].reshape(K, K, n), y)).T
        if not with_vm:
            return q1,
        return q1, (f[K:] + _mv(p[K * (K + 1):].reshape(M, K, n), y)).T


def _over(ufunc, x, axis=0, initial=None):
    """ufunc reduced over `axis` of x from `initial`: a view of the one entry
    where there is one (one clock or one mode, the single device's case)."""
    if x.shape[axis] == 1:
        return x[(slice(None),) * axis + (0,)]
    return ufunc.reduce(x, axis=axis, initial=initial)


def _msum(x):
    """The sum over axis 1, the modes of (I, K, ...) products."""
    return _over(np.add, x, 1, 0.0)


def _mv(a, x):
    """Matrix-vector products with the rows on the last axis: a (I, J, ...)
    times x (J, ...)."""
    return _msum(a * x[None])


def _log_sum_exp(x):
    """log sum_m e^{x_m} over the first axis (the clocks): x[0] for one,
    the floor -700 for none."""
    if len(x) == 1:
        return x[0]
    top = x.max(axis=0, initial=-700.0)
    if not len(x):
        return top
    return top + np.log(np.exp(x - top).sum(axis=0))


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


def _integral(l0, l1, dt):
    """The integral of e^{l0 + (l1 - l0) x / dt} over a window of length dt."""
    d = l1 - l0
    nz = d != 0.0
    return np.exp(l0) * dt * np.where(nz, np.expm1(d) / np.where(nz, d, 1.0), 1.0)


def _offset(l0, l1, dt, gap, total):
    """Where the integral of e^{l0 + b x} (b = (l1 - l0) / dt) from 0
    reaches gap: x = ln(1 + gap b e^{-l0}) / b (gap e^{-l0} where b = 0),
    or inf where the window's integral, total, does not reach it."""
    hit = gap < total
    if not hit.any():       # no candidate in any of the windows
        return np.full(hit.shape, math.inf)
    b, rate = (l1 - l0) / dt, np.exp(l0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.where(b != 0.0, np.log1p(gap * b / rate) / b, gap / rate)
    return np.where(hit, np.minimum(np.maximum(x, 0.0), dt), math.inf)


# --------------------------------------------------------------------------
# Entry points

def simulate_trajectory(netlist: Netlist, initial: CircuitState,
                        t_end: float, seed: int,
                        output_times: Optional[Sequence[float]] = None) -> TrajectoryRecord:
    """Sample one trajectory of the circuit's jump process: the n = 1 case
    of `run_ensemble` (closed-form charges under every source kind,
    exact jump times), with `seed` as its master seed.  Its charges at the
    output times are the smallest charges of the record, which for one
    trajectory are its own; if it fails, TrajectoryFailure is raised.

    Identical (inputs, seed) give bitwise-identical records.  A non-finite
    t_end or output time, t_end not after the initial time, or an output
    time outside [initial time, t_end] raises ValueError.
    """
    outputs = output_grid(initial.time, t_end, () if output_times is None else output_times)
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

    Every run thins, with one kernel pair for every netlist.  Draws come
    from counter-based Philox streams keyed by master_seed, so results do
    not depend on batching or on the output times.  Failed
    trajectories are excluded and reported, never silently retried.  n and
    histogram_bins must be integers >= 1, and the times as for
    `simulate_trajectory`, else ValueError.
    """
    if not isinstance(n, Integral) or n < 1:
        raise ValueError("n must be an integer >= 1")
    if not isinstance(histogram_bins, Integral) or histogram_bins < 1:
        raise ValueError("histogram_bins must be an integer >= 1")
    outputs = output_grid(initial.time, t_end, output_times)
    return _Ensemble(netlist, int(n), master_seed, int(histogram_bins)).run(initial, outputs)
