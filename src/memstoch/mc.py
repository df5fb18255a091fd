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
the envelope would loosen, never at output times: the kernels follow the
events, and outputs are read in closed form as the rows pass them.  One
kernel pair, a window and a charge flow, serves every netlist: it reads
the closed-form charge of each visited memristor-state configuration from
`circuit.DeviceCharge`, a forced part tabled per source segment plus a
transient that decays in the eigenmodes of the Kirchhoff ODE.

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
# length, so batches keep its memory O(batch) rather than O(n); outputs
# close together while their rows number at most this many
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
        self.diag = dict(passes=0, windows=0, candidates=0, accepted=0, rows_max=0,
                         runaway_failures=0, configurations=0, rate_ceiling_hits=0)
        # per accepted batch: times, trajectories, memristors, up (or down)
        self.log = [(np.zeros(0), np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0, bool))]

    def _record(self, s, q, live, n_own=None) -> None:
        """Record outputs from rows in states s (outputs, rows, M) with
        charges q (outputs, rows, K): each capacitor's smallest charge over
        the `live` rows (a mask), `bins` uniform bins over capacitor 0's
        range there and a code per row: its memristors' states, the first
        times bins plus capacitor 0's bin (`_hist_codes`).  Row i is
        trajectory i or, with n_own, row i + 1 is trajectory self.own[i]
        for i < n_own, and row 0 stands for every other one."""
        code = s.astype(self.code_type)
        if self.K:
            live = True if live.all() else live[..., None]    # the masked reductions are slower
            self.q_min.append(q.min(axis=1, initial=math.inf, where=live))
            # capacitor 0's range, widened where it is a point (np.linspace's arithmetic)
            lo, hi = self.q_min[-1][:, :1], q[..., :1].max(axis=1, initial=-math.inf, where=live)
            hi = np.where(hi > lo, hi, lo + np.maximum(np.abs(lo), 1e-30))
            self.edges.append(lo + np.arange(self.bins + 1.0) * ((hi - lo) / self.bins))
            self.edges[-1][:, -1:] = hi
        if self.M:
            code[..., 0] = (_hist_codes(s[..., 0], q[..., 0], self.edges[-1]) if self.K
                            else s[..., 0] * self.bins)
        self.codes.append((code, n_own))

    def _tally(self, outputs) -> EnsembleStats:
        """The statistics of the record, leaving out failed trajectories."""
        n = self.n
        ok = np.ones(n, dtype=bool)
        ok[[i for i, _ in self.failures]] = False
        n_ok = int(ok.sum())
        occupancy, hists = [[] for _ in self.gs], []
        for k, (code, n_own) in enumerate(self.codes):
            own = None if n_own is None else self.own[:n_own]
            if n_ok < n:
                code = code[:, ok if own is None else np.concatenate(([True], ok[own]))]
            for m, g in enumerate(self.gs):
                counts = np.array([np.bincount(c, minlength=g * self.bins if m == 0 else g)
                                   for c in code[..., m]])
                if own is not None:     # row 0 counts the trajectories not in own
                    counts[np.arange(len(code)), code[:, 0, m]] += n_ok - code.shape[1]
                if m == 0:
                    counts = counts.reshape(-1, g, self.bins)
                    if self.K:
                        hists += zip(counts.astype(float), self.edges[k])
                    counts = counts.sum(axis=2)
                occupancy[m].append(counts / n_ok)
        occupancy = [np.concatenate(p) for p in occupancy]
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
        outputs[-1], recorded at `outputs`.  A row's windows end at source
        breakpoints, at the curvature reach (_WINDOW_SLACK) and at t_end,
        never at an output.  Of its window a row keeps the start T with its
        transient Q, the end E with Q1, the envelope's log-rates L0, L1 and
        its integral TOT; its next candidate falls where that integral
        reaches its gap G (spacing draws less the windows passed), and A is
        when it next acts.  A trajectory gets a row of its own at its first
        switch; until then row 0, one path through the same windows, stands
        for it with its level alone (against row 0's integral, -G[0]).  The
        kernels follow the events: each pass opens every window that is due
        (row 0's once its members are drawn) and draws the candidates in
        them, until no row acts before t_end.  Outputs are read as the rows
        pass them: a row about to act past open outputs keeps the window it
        leaves once, with the outputs it covers (a ghost; P: the outputs
        passed), and the outputs before the next act close together.  Rows
        keep the order of their first jump's output interval, so an output's
        own rows are a prefix.  A trajectory with more than MAX_CANDIDATES
        candidates in one output interval fails alone."""
        n, t_end, nout, K, M = self.n, outputs[-1], len(outputs), self.K, self.M
        outputs = np.asarray(outputs)
        # the rows, row 0 alone at first; row r > 0 carries trajectory traj[r]
        S, Q, Q1 = np.zeros((1, M), np.int16), np.zeros((1, K)), np.zeros((1, K))
        traj, R, P = (np.zeros(1, dtype=np.int64) for _ in range(3))
        T, E, L0, L1, TOT, G, A = (np.zeros(1) for _ in range(7))
        S[0] = initial.memristor_states
        Q[0] = initial.capacitor_charges
        T[0] = initial.time
        R[0] = self._rows_of(S[:1])[0]
        A[0] = math.inf
        # row 0's members' levels (inf while drawn, once switched or failed)
        lev = self.candidates.stream(0).copy()
        k = 0
        self._rounds = np.zeros(n, dtype=np.int32)
        # per trajectory: the output interval of its last candidate and its
        # candidates in it; per interval: first jumps (born) and members
        # that failed (lost)
        try_at = np.full(n, -1, dtype=np.int32)
        try_count = np.zeros(n, dtype=np.int32)
        msg = "more than %d candidates within one output interval at t = %%.9g s" % MAX_CANDIDATES
        born, lost = np.zeros(nout, int), np.zeros(nout, int)
        ghosts, closed = {}, 0
        self._reset()

        def batched(fn, *args):
            """fn(self, *args) over _BATCH rows (array args) at a time."""
            out = [fn(self, *(a[i:i + _BATCH] if isinstance(a, np.ndarray) else a for a in args))
                   for i in range(0, args[0].size, _BATCH)]
            return out[0] if len(out) == 1 else tuple(np.concatenate(x) for x in zip(*out))

        def keep(r, at):
            """Rows r act in output intervals `at`: each leaves the window it
            is in to the open outputs it passes, from P[r] on, once."""
            lo = np.maximum(P[r], closed)
            past = lo < at
            if past.any():      # filed under the first output they cover
                g = r[past]
                ghosts.setdefault(lo[past].min(), []).append(
                    (lo[past], at[past], g, R[g], S[g], T[g], Q[g]))
            P[r] = at

        def close(b):
            """Record the outputs before b, some _BATCH rows of them at a time."""
            nonlocal closed
            if len(self.failures) == n:     # the last failed at its last candidate
                raise TrajectoryFailure(f"all trajectories failed: {msg % outputs[try_at.max()]}")
            firsts, gone = np.cumsum(born), np.cumsum(lost)
            while closed < b:
                e = min(b, closed + max(1, _BATCH // (1 + firsts[b - 1])))
                m, o, kk = 1 + firsts[e - 1], e - closed, np.arange(closed, e)
                # each output's rows in their present windows: output i's row r at i * m + r
                rows = [np.concatenate([a[:m]] * o) for a in (R, S, T, Q)]
                chunks = [x for j in kk for x in ghosts.pop(j, ())]
                if chunks:      # a row that passed an output reads the window it left
                    lo, hi, g, *kept = (np.concatenate(x) for x in zip(*chunks))
                    for i, j in enumerate(kk):
                        w = np.flatnonzero((lo <= j) & (j < hi))
                        for a, x in zip(rows, kept):
                            a[i * m + g[w]] = x[w]
                    left = np.flatnonzero(hi > e)
                    if left.size:
                        ghosts.setdefault(max(e, lo[left].min()), []).append(
                            tuple(x[left] for x in (lo, hi, g, *kept)))
                for i in np.flatnonzero(firsts[kk] < m - 1):   # later first jumps: row 0's members
                    for a in rows:
                        a[i * m + 1 + firsts[closed + i]:(i + 1) * m] = a[i * m]
                # a failed row counts at the outputs it passed before it failed
                live = (rows[2] < math.inf).reshape(o, m)
                live[:, 0] = firsts[kk] + gone[kk] < n
                t1 = np.repeat(outputs[closed:e], m)
                q, = batched(_Ensemble._flow, *rows[:2], np.minimum(rows[2], t1), rows[3], t1)
                self._record(rows[1].reshape(o, m, M), q.reshape(o, m, K), live, m - 1)
                closed = e

        pending = np.zeros(1, dtype=np.intp)    # rows that jumped (first: row 0's start)
        while True:
            ends = np.flatnonzero(A[:k + 1] < t_end)     # windows with no candidate left
            r = np.concatenate((ends, pending))
            if not r.size:
                break
            self.diag["passes"] += 1
            keep(ends, outputs.searchsorted(E[ends], "right"))
            G[ends] -= TOT[ends]
            T[ends] = E[ends]
            Q[ends] = Q1[ends]
            # their windows (pending rows hold the charges they jumped with)
            t = T[r]
            t1, l0, l1, Q[r], Q1[r] = batched(_Ensemble._window, R[r], S[r], t, Q[r], t_end,
                                              np.arange(r.size) >= ends.size)
            if not (t1 > t).all():
                raise TrajectoryFailure(f"a window at {t.min():.9g} s is below the time step")
            E[r], L0[r], L1[r] = t1, l0, l1
            TOT[r] = _integral(l0, l1, t1 - t)
            x = _offset(l0, l1, t1 - t, G[r], TOT[r])
            A[r] = np.minimum(t + x, t1)
            self.diag["windows"] += r.size
            sweep = r[0] == 0
            drawn = (r > 0) & (x < math.inf)
            r, x = r[drawn], x[drawn]
            ids, gap = traj[r], G[r]
            if sweep:      # the members with a candidate in row 0's window
                m_id = np.flatnonzero(lev + G[0] < TOT[0])
                x0 = _offset(L0[0], L1[0], E[0] - T[0], lev[m_id] + G[0], TOT[0])
                r, x = np.concatenate((r, np.zeros(m_id.size, r.dtype))), np.concatenate((x, x0))
                ids, gap = np.concatenate((ids, m_id)), np.concatenate((gap, lev[m_id]))
                lev[m_id] = math.inf
                if k + 1 + m_id.size > T.size:     # room for the members' rows, doubling
                    size = min(n + 1, max(k + 1 + m_id.size, 2 * T.size))
                    S, Q, Q1, traj, R, P, T, E, L0, L1, TOT, G, A = (
                        np.concatenate((a, np.empty((size - len(a),) + a.shape[1:], a.dtype)))
                        for a in (S, Q, Q1, traj, R, P, T, E, L0, L1, TOT, G, A))
            # every candidate in them (of members at level gap, of own rows
            # with G = gap), until accepted or none is left before t_end
            k0, jumped = k, [r[:0]]
            while r.size:
                # each candidate's output interval (nout: none before t_end)
                at = np.where(x < math.inf,
                              outputs.searchsorted(np.minimum(T[r] + x, E[r]), "right"), nout)
                if not (at < nout).all():
                    later = (at == nout) & (r == 0)
                    lev[ids[later]] = gap[later]
                    r, ids, gap, x, at = (a[at < nout] for a in (r, ids, gap, x, at))
                try_count[ids] = np.where(try_at[ids] == at, try_count[ids] + 1, 1)
                try_at[ids] = at
                over = try_count[ids] > MAX_CANDIDATES
                if over.any():      # a runaway trajectory fails alone
                    self.failures += [(int(i), msg % outputs[a])
                                      for i, a in zip(ids[over], at[over])]
                    mine = over & (r > 0)       # own rows; members just drop out
                    keep(r[mine], at[mine])
                    T[r[mine]] = A[r[mine]] = math.inf
                    lost += np.bincount(at[over & (r == 0)], minlength=nout)
                    r, ids, gap, x, at = (a[~over] for a in (r, ids, gap, x, at))
                if not r.size:
                    break
                ok, t_c, q_c, m, up, spacing = batched(_Ensemble._candidates, R[r], S[r], T[r],
                                                       Q[r], L0[r], L1[r], E[r] - T[r], ids, x)
                self.diag["candidates"] += ids.size
                self.diag["accepted"] += int(ok.sum())
                # accepted: clock m of the trajectory jumps (a member into a
                # new row), and a window opens at the next pass
                j, m, jr, at = ids[ok], m[ok], r[ok], at[ok]
                keep(jr[jr > 0], at[jr > 0])
                new = np.flatnonzero(jr == 0)
                jr[new] = np.arange(k + 1, k + 1 + new.size)
                traj[k + 1:k + 1 + new.size] = j[new]
                born += np.bincount(at[new], minlength=nout)
                k += new.size
                S[jr] = S[r[ok]]
                S[jr, m] += np.where(up[ok], 1, -1)
                R[jr] = self._rows_of(S[jr])
                T[jr], Q[jr], G[jr] = t_c[ok], q_c[ok], spacing[ok]
                A[jr] = math.inf
                P[jr] = at
                self.log.append((t_c[ok], j, m, up[ok]))
                jumped.append(jr)
                # rejected: the next candidate, in this window or a later one
                r, ids, gap = r[~ok], ids[~ok], gap[~ok] + spacing[~ok]
                x = _offset(L0[r], L1[r], E[r] - T[r], np.where(r == 0, gap + G[0], gap), TOT[r])
                mine = r > 0
                o = r[mine]
                G[o] = gap[mine]
                A[o] = np.minimum(T[o] + x[mine], E[o])
            if (np.diff(P[k0 + 1:k + 1]) < 0).any():   # the new rows in first-jump order
                perm = k0 + 1 + np.argsort(P[k0 + 1:k + 1], kind="stable")
                for a in (S, Q, traj, R, P, T, G):
                    a[k0 + 1:k + 1] = a[perm]
            pending = np.concatenate([p[p <= k0] for p in jumped] + [np.arange(k0 + 1, k + 1)])
            # row 0 acts at its window's end once its members are drawn
            A[0] = E[0] if born.sum() + lost.sum() < n else math.inf
            close(min(outputs.searchsorted(A[:k + 1].min(), "right"), P[pending].min(initial=nout)))
        self.own = traj[1:k + 1]
        self.diag.update(rows_max=k, runaway_failures=len(self.failures),
                         configurations=self.keys.size - 1)

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


def _hist_codes(state, q, edges):
    """state * bins + np.histogram's bin of each charge over the uniform
    `edges` (the last bin closed; a row of edges per row of q, or one),
    with charges outside them clipped to the edges: as in np.histogram,
    the arithmetic bin moves by at most one to agree with the edges."""
    bins, lo, hi = edges.shape[-1] - 1, edges[..., :1], edges[..., -1:]
    q = np.minimum(np.maximum(q, lo), hi)
    b = np.minimum(((q - lo) * (bins / (hi - lo))).astype(np.intp), bins - 1)
    # edge b of each row of edges, through one flat index
    flat, row = edges.ravel(), np.arange(0, edges.size, bins + 1).reshape(lo.shape)
    b -= q < flat.take(row + b)
    b += q >= flat.take(row + b + 1)
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
    states = np.concatenate([code[:, -1] for code, _ in eng.codes]).astype(np.int64)
    states[:, :1] //= eng.bins
    charges = np.concatenate(eng.q_min or [np.zeros((len(outputs), 0))])
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
