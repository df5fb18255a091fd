"""Finite-volume solver for the coupled advection-reaction master
equations of a circuit of one stochastic memristor, one capacitor and one
source, with any resistors: a `Netlist`, or the series circuit as
`SeriesCircuitParams` and a model.  The circuit enters only through the
per-state tables of its closed-form charge (`circuit.DeviceCharge`): in
state s the charge drifts at A_s q + B_s V(t) towards c_s V(t), and the
memristor sees vm_s = Dq_s q + Ds_s V(t).

Each state density p_s(q, t) is advected with its drift (conservative
first-order upwind, split at the face of c_s V) and exchanges
mass with adjacent states: pair (k, k+1) goes up at the rate vm_k drives
and down at the one vm_{k+1} drives.  The reaction splits each cell's
birth-death generator into adjacent-pair exchanges, each solved exactly
(2x2 matrix exponential) and swept symmetrically (Strang 1968); for G = 2
this is the single exact 2x2 update.  Every exchange conserves mass and
keeps cells non-negative for any dt, so dt is limited by transport
only.  Grid bounds are chosen so the drift points inward at both edges,
making zero-flux boundaries exact and conserving mass to round-off.

`run` takes its steps in blocks.  A block starts from the support of the
mass: the cells between the outermost ones where a state holds more than
FLUSH_EPS of it.  The edge tails beyond, left by upwind diffusion, are
zeroed, and their mass, which counts in the mass error, is reported as
diagnostics["flushed_mass"].  Upwind transport moves mass by at most one
cell per step, so step j of the block reaches only the faces of that
support widened by j cells, and its dt is the CFL cap there.  Every step
also obeys the drive cap CFL_LIMIT dq / (max_s |c_s| max_t |V'(t)|), with
c_s the `fixed_charges`: no state's fixed charge c_s V moves more than
CFL_LIMIT cells in a step, so dt shrinks with dq even where the support is
narrow and its drift slow.  Steps end at output times and at the source's
breakpoints.  The block's steps are then tabulated, about 64 KB, over the
support widened by their number plus one cell: face velocities split into
their upwind parts below and above each state's split face, pair rates and
reaction weights (one vm and one rate table per law for states with equal
(Dq, Ds) rows).  Under a constant drive the velocities, rates and CFL caps
are computed once per run over the whole grid and each block slices them,
and the whole-grid reaction weights of the last block's dt sequence are
kept: a block whose dts equal them slices those too
(diagnostics["weight_tables"] counts the tables computed).  One kernel
steps a contiguous copy of the block's window of one working copy of the
field, checking positivity and mass after every step, and writes it back;
`step` runs it on a copy of its field, as a block of one.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import DeviceCharge, Netlist, Waveform, output_grid, series_mc
from .device import MemristorModel, switching_rate

CFL_LIMIT = 0.9
FLUSH_EPS = 1e-16  # edge cells below this share of the mass are flushed


class StepSizeError(ValueError):
    """Requested dt violates a stability constraint."""

    def __init__(self, message: str, admissible_dt: float):
        self.admissible_dt = admissible_dt
        super().__init__(f"{message} (admissible dt <= {admissible_dt:g} s)")


class MassLossError(RuntimeError):
    """Probability mass left the grid beyond tolerance."""


@dataclass(frozen=True)
class ChargeGrid:
    """Uniform 1-D grid of cell-averaged charge densities."""

    q_min: float
    q_max: float
    n_cells: int

    def __post_init__(self):
        if self.q_max <= self.q_min:
            raise ValueError("need q_max > q_min")
        if self.n_cells < 8:
            raise ValueError("need at least 8 cells")

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.q_min + (np.arange(self.n_cells) + 0.5) * self.dq

    def faces(self) -> np.ndarray:
        return self.q_min + np.arange(self.n_cells + 1) * self.dq

    @classmethod
    def for_drive(cls, C, waveform: Waveform, t_end: float,
                  n_cells: int, q_extra: float = 0.0,
                  pad: float = 0.1) -> "ChargeGrid":
        """Grid covering the dynamically reachable charges, padded so the
        drift is inward at both boundaries for all t in [0, t_end].

        C is the series capacitance or the per-state `fixed_charges`.
        q_extra extends the covered range to include e.g. the initial
        charge.  Raises if the waveform range makes inward drift at the
        boundaries impossible to guarantee.
        """
        vmin, vmax = waveform.bounds(t_end)
        cv = np.asarray(C, dtype=float)[..., None] * [vmin, vmax]
        lo = min(0.0, q_extra, float(cv.min()))
        hi = max(float(cv.max()), q_extra)
        span = hi - lo
        if span <= 0:
            span = max(abs(hi), 1.0) * 0.1
        grid = cls(lo - pad * span, hi + pad * span, n_cells)
        # inward drift: A (q_min - c v) > 0 and A (q_max - c v) < 0
        if not (grid.q_min < cv.min() and grid.q_max > cv.max()):
            raise ValueError("grid bounds do not guarantee inward drift")
        return grid


@dataclass
class DistributionField:
    """G arrays of cell-averaged densities on a shared charge grid."""

    grid: ChargeGrid
    p: np.ndarray  # shape (G, n_cells), units 1/coulomb
    time: float = 0.0

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        if self.p.ndim != 2 or self.p.shape[1] != self.grid.n_cells:
            raise ValueError("p must have shape (G, n_cells)")

    @property
    def num_states(self) -> int:
        return self.p.shape[0]

    def mass(self) -> float:
        return float(self.p.sum() * self.grid.dq)

    def marginals(self) -> np.ndarray:
        """Per-state occupation probabilities."""
        return self.p.sum(axis=1) * self.grid.dq

    def conditional_moments(self) -> tuple:
        """Per-state conditional mean and variance of q (nan if the
        state carries no mass)."""
        qc = self.grid.centers()
        w = self.p * self.grid.dq
        mass = w.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = (w * qc).sum(axis=1) / mass
            var = (w * qc ** 2).sum(axis=1) / mass - mean ** 2
        mean[mass <= 0] = np.nan
        var[mass <= 0] = np.nan
        return mean, np.maximum(var, 0.0)

    @classmethod
    def from_delta(cls, grid: ChargeGrid, num_states: int, state: int,
                   q0: float, time: float = 0.0) -> "DistributionField":
        """All mass in the single cell containing q0 (mass-preserving
        deposition of a delta initial condition)."""
        if not grid.q_min <= q0 <= grid.q_max:
            raise ValueError("q0 outside the grid")
        p = np.zeros((num_states, grid.n_cells))
        cell = min(int((q0 - grid.q_min) / grid.dq), grid.n_cells - 1)
        p[state, cell] = 1.0 / grid.dq
        return cls(grid, p, time)

    @classmethod
    def from_uniform(cls, grid: ChargeGrid, num_states: int, state: int,
                     q_alpha: float, q_beta: float,
                     time: float = 0.0) -> "DistributionField":
        """Step density on (q_alpha, q_beta), cell-averaged exactly via
        overlap fractions."""
        if not (grid.q_min <= q_alpha < q_beta <= grid.q_max):
            raise ValueError("interval outside the grid")
        faces = grid.faces()
        overlap = (np.minimum(faces[1:], q_beta)
                   - np.maximum(faces[:-1], q_alpha)).clip(min=0.0)
        p = np.zeros((num_states, grid.n_cells))
        p[state] = overlap / (q_beta - q_alpha) / grid.dq
        return cls(grid, p, time)


@dataclass(frozen=True)
class SeriesCircuitParams:
    """The series source-memristor-capacitor circuit by its capacitance and
    drive waveform; `netlist` builds it for a memristor model."""

    C: float
    waveform: Waveform

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError("C must be positive")

    def netlist(self, model: MemristorModel) -> Netlist:
        return series_mc(model, self.C, self.waveform)


def _device(circuit, model):
    """(`DeviceCharge`, model) of a netlist (and its own model) or params."""
    net = circuit.netlist(model) if isinstance(circuit, SeriesCircuitParams) else circuit
    dev = DeviceCharge.of(net)
    if model not in (None, net.memristors[0].model):
        raise ValueError("model differs from the netlist's memristor")
    return dev, net.memristors[0].model


def fixed_charges(circuit, model: MemristorModel = None) -> np.ndarray:
    """c_s per state s: under a source v, state s drifts toward the charge
    c_s v.  `ChargeGrid.for_drive` takes them for C."""
    return _device(circuit, model)[0].c.copy()  # the cached array stays put


def admissible_dt(field: DistributionField, circuit, model: MemristorModel = None) -> float:
    """Largest dt a step from the field may take: `run`'s rule for a block
    of one step, the CFL cap at the end faces of the field's support (the
    cells where some state holds more than FLUSH_EPS of its mass) and the
    drive cap."""
    dev = _device(circuit, model)[0]
    s0, s1 = _support(field.p, field.mass(), field.grid.dq)
    return _caps(field.grid, dev)(dev.wave(field.time), s0, s1, 0)[0]


def _support(p, mass0, dq):
    """(s0, s1): the cells s0..s1-1 from the first to the last where some
    state holds more than FLUSH_EPS * mass0; (0, 0) if there are none."""
    held = np.flatnonzero((p > FLUSH_EPS * mass0 / dq).any(axis=0))
    return (int(held[0]), int(held[-1]) + 1) if held.size else (0, 0)


def _caps(grid, dev):
    """dt_ok(v, s0, s1, j) -> (cap, whether the drive cap set it): the cap on
    step j of a block whose start support is the cells s0..s1-1, at source
    voltage v.  It is the lesser of the CFL cap at the faces that step can
    reach (s0 - j and s1 + j, clipped to the grid; the drift A_s q + B_s v is
    affine in q, so fastest at one of them) and the drive cap CFL_LIMIT dq /
    (max |c_s| max |V'|), under which no state's fixed charge c_s V moves
    more than CFL_LIMIT cells in one step.  Under a constant drive the
    fastest drift of every face, max_s |A_s f + B_s v|, is tabulated once."""
    faces, n, dq, wave = grid.faces().tolist(), grid.n_cells, grid.dq, dev.wave
    rows = list(zip(dev.A.tolist(), dev.B.tolist()))
    slope = float(np.abs(wave.segments[2]).max()) + (
        abs(wave.amplitude) * 2.0 * math.pi * wave.frequency if wave.omega else 0.0)
    top = float(np.abs(dev.c).max()) * slope
    drive = CFL_LIMIT * dq / top if top > 0 else math.inf
    speed = (np.abs(dev.A[:, None] * grid.faces() + (dev.B * wave.amplitude)[:, None]).max(axis=0)
             .tolist() if wave.kind == "constant" else None)
    def dt_ok(v, s0, s1, j):
        i, k = max(s0 - j, 0), min(s1 + j, n)
        vmax = max(speed[i], speed[k]) if speed else max(
            [max(abs(a * faces[i] + b * v), abs(a * faces[k] + b * v)) for a, b in rows])
        window = CFL_LIMIT * dq / vmax if vmax > 0 else math.inf
        return (drive, True) if drive < window else (window, False)
    return dt_ok


_BLOCK_BYTES = 1 << 16  # one block table (steps x cells): 8 steps at 1000 cells


class _RunTables:
    """Face velocities split into their lower and upper upwind parts, pair
    rates and reaction weights of a block of planned steps over the cells
    mass can reach in it (see the module docstring), and the kernel that
    takes those steps in place."""

    def __init__(self, field: DistributionField, circuit, model: MemristorModel = None):
        dev, self.model = _device(circuit, model)
        if self.model.num_states != field.num_states:
            raise ValueError("model/field state-count mismatch")
        # state s drifts at A_s q + B_s v: upward below its split face at c_s v
        grid, faces, self.b, self.c, self.wave = field.grid, field.grid.faces(), dev.B, dev.c, dev.wave
        self.dq, self.dt_ok = grid.dq, _caps(grid, dev)
        self.faces, self.a_face = faces[1:-1], dev.A[:, None] * faces[1:-1]
        # one vm = Dq q + Ds v per distinct (Dq, Ds) row; vrow[s] is state s's
        rows = list(dict.fromkeys(keys := list(zip(dev.Dq.tolist(), dev.Ds.tolist()))))
        self.vrow, (dq, ds) = [rows.index(k) for k in keys], np.array(rows).T
        self.vm_q, self.vm_v = dq[:, None] * grid.centers(), ds
        self.steps = max(1, _BLOCK_BYTES // (8 * grid.n_cells))
        g = self.model.num_states  # pairs up the ladder, then back down
        self.sweep = list(range(g - 1)) + list(range(g - 3, -1, -1))
        self.fixed, self.wkey, self.wgrid = None, None, None
        self.lo, self.hi, self.min_cell, self.mass_err = 0, grid.n_cells, math.inf, 0.0
        self.diag = dict(rate_ceiling_hits=0, blocks=0, cell_steps=0, flushed_mass=0.0,
                         drive_capped_steps=0, weight_tables=0)

    def _drive(self, v, lo, hi):
        """Face velocities below and above the split faces (steps, G, faces),
        zero elsewhere, and pair rates (up, down, their sum) per drive value in
        v, over the cells lo..hi-1."""
        vms = self.vm_q[:, lo:hi] + (self.vm_v * v[:, None])[:, :, None]
        g, par, cap = self.model.num_states, self.model.transitions, self.model.rate_ceiling
        rates, laws = [], {}
        for k in range(g - 1):
            # one kernel call per law and vm rows: k -> k+1 where vm_k > 0, else k+1 -> k where
            # vm_{k+1} < 0 (vm, Thevenin voltage times Rm / (Rm + R_th), has one sign in all states)
            (vu, vd), (tu, td) = law = par[:, [k, g + k + 1]]
            u, d = self.vrow[k], self.vrow[k + 1]
            if (key := (u, d, *law.ravel())) not in laws:
                tally, up = dict(rate_ceiling_hits=0), vms[:, u] > 0.0
                x = np.where(up, vms[:, u], np.minimum(vms[:, d], 0.0))
                r = switching_rate(x, vu if vu == vd else np.where(up, vu, vd),
                                   tu if tu == td else np.where(up, tu, td), cap, tally)
                laws[key] = (np.where(up, r, 0.0), np.where(up, 0.0, r), r), tally
            rates.append(laws[key][0])
            self.diag["rate_ceiling_hits"] += laws[key][1]["rate_ceiling_hits"]
        vel = self.a_face[:, lo:hi - 1] + (self.b * v[:, None])[:, :, None]
        low = self.faces[lo:hi - 1] < np.multiply.outer(v, self.c)[:, :, None]
        return (np.where(low, vel, 0.0), np.where(low, 0.0, vel)), rates

    @staticmethod
    def _weights(rates, dt):
        """(1 - exp(-r h)) / r of every pair's rate r, its up plus down
        rate, with its limit h where r = 0; h is dt for the last pair and
        dt/2 for the others."""
        last, ws = len(rates) - 1, []
        for k, (_, _, r) in enumerate(rates):
            rh = r * (h := dt if k == last else dt / 2)
            ws.append(np.divide(-np.expm1(-rh), r, out=np.full(rh.shape, h), where=r > 0))
        return ws

    def flush(self, p: np.ndarray, mass0: float):
        """The support (s0, s1) of p in grid cells, searched in the last
        window (p is 0 outside it); the window's cells beyond are zeroed."""
        pw = p[:, self.lo:self.hi]
        s0, s1 = _support(pw, mass0, self.dq)
        self.diag["flushed_mass"] += float(pw[:, :s0].sum() + pw[:, s1:].sum()) * self.dq
        pw[:, :s0] = pw[:, s1:] = 0.0
        return self.lo + s0, self.lo + s1

    def plan(self, rows, s0: int, s1: int):
        """Tables of the steps rows = [(t, v, dt, dt_ok), ...] over the
        support s0..s1-1 widened by the number of steps plus one cell on
        each side."""
        m = len(rows)
        lo, hi = max(s0 - 1 - m, 0), min(s1 + 1 + m, self.vm_q.shape[1])
        self.lo, self.hi = lo, hi
        ts, vs, dts, oks = zip(*rows)
        if self.wave.kind != "constant":  # rows of step i: velocities, (up, down) per pair
            (vl, vr), rates = self._drive(np.array(vs), lo, hi)
            ab = zip(*(zip(up, down) for up, down, _ in rates))
            ws = self._weights(rates, np.array(dts)[:, None])
            self.diag["weight_tables"] += 1
        else:  # one row over the grid, sliced to the window; weights kept per dt sequence
            self.fixed = self.fixed or self._drive(np.array(vs[:1]), 0, self.vm_q.shape[1])
            vl, vr = (itertools.repeat(v[0, :, lo:hi - 1]) for v in self.fixed[0])
            ab = itertools.repeat([(up[0, lo:hi], down[0, lo:hi])
                                   for up, down, _ in self.fixed[1]])
            if dts != self.wkey:
                self.wkey = dts
                self.wgrid = self._weights(self.fixed[1], np.array(dts)[:, None])
                self.diag["weight_tables"] += 1
            ws = [w[:, lo:hi] for w in self.wgrid]
        self.block = list(zip(ts, dts, oks, vl, vr, ab, zip(*ws)))
        self.diag["blocks"] += 1
        self.diag["cell_steps"] += m * (hi - lo)

    def advance(self, p: np.ndarray, mass0: float, mass_tolerance: float) -> None:
        """Take the planned block's steps on p in place: on a contiguous copy
        of the window, written back at the end."""
        pw = np.ascontiguousarray(p[:, self.lo:self.hi])
        (g, n), dq = pw.shape, self.dq
        rows, left, right = list(pw), pw[:, :-1], pw[:, 1:]
        padded = np.zeros((g, n + 1))  # face fluxes, zero at the window's ends
        flux, upper = padded[:, 1:-1], np.empty((g, n - 1))
        div, transfer, back = np.empty(pw.shape), np.empty(n), np.empty(n)
        for t, dt, dt_ok, vl, vr, ab, ws in self.block:
            if dt > dt_ok:
                raise StepSizeError(f"dt = {dt:g} s too large", dt_ok)
            # ---- advection: upwind fluxes at interior faces, zero at boundaries
            np.multiply(vl, left, out=flux)
            flux += np.multiply(vr, right, out=upper)
            np.subtract(padded[:, 1:], padded[:, :-1], out=div)
            div *= dt / dq
            pw -= div
            # ---- reaction at cell centers: pair exchanges up the ladder, then down
            for k in self.sweep:
                np.multiply(ab[k][0], rows[k], out=transfer)
                transfer -= np.multiply(ab[k][1], rows[k + 1], out=back)
                transfer *= ws[k]
                rows[k] -= transfer
                rows[k + 1] += transfer
            # a window short of a grid edge ends in an empty cell: its min is the grid's
            min_val = float(pw.min())
            if min_val < 0.0:
                if min_val < -1e-12 * max(float(pw.max()), 1.0):
                    raise RuntimeError(
                        f"positivity violated: min cell value {min_val:g} at t = {t:g} s")
                np.maximum(pw, 0.0, out=pw)  # round-off-level negatives only
            self.min_cell = min(self.min_cell, max(min_val, 0.0))
            # the window's sum is the whole mass: the cells outside hold none
            err = abs(float(pw.sum()) * dq - mass0)
            self.mass_err = max(self.mass_err, err)
            if err > mass_tolerance:
                raise MassLossError(f"mass error {err:g} exceeds {mass_tolerance:g} at "
                                    f"t = {t + dt:g} s (boundary outflow?)")
        p[:, self.lo:self.hi] = pw


def step(field: DistributionField, dt: float, circuit,
         model: MemristorModel = None) -> DistributionField:
    """One Lie-split step: conservative upwind advection of every state,
    then the reaction substep coupling adjacent states.

    The reaction sweeps exact pair exchanges symmetrically: pairs
    (0, 1) ... (G-3, G-2) over dt/2, the last pair over dt, then back
    down over dt/2.  Refuses dt beyond `admissible_dt`, carrying it: the
    CFL cap (0.9) at the end faces of the field's support, and the drive
    cap.  Mass is conserved to round-off plus the edge tails below
    FLUSH_EPS of the field's mass, flushed before the step (`run` reports
    them as flushed_mass); no cell goes negative.  The step is `run`'s
    kernel on a block of one step, on a copy of the field: bit for bit one
    step of `run`.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    tables, p = _RunTables(field, circuit, model), field.p.copy()
    if dt > 0.0:
        v, (s0, s1) = tables.wave(field.time), tables.flush(p, field.mass())
        tables.plan([(field.time, v, dt, tables.dt_ok(v, s0, s1, 0)[0])], s0, s1)
        tables.advance(p, 0.0, math.inf)
    return DistributionField(field.grid, p, field.time + dt)


@dataclass
class PdeResult:
    """Time series produced by run(): marginals and conditional charge
    moments per state, plus the stored fields at output instants."""

    times: np.ndarray            # (T,)
    marginals: np.ndarray        # (T, G)
    cond_mean: np.ndarray        # (T, G)
    cond_var: np.ndarray         # (T, G)
    fields: list                 # DistributionField at each output time
    min_cell_value: float
    max_mass_error: float
    # what the run did: steps taken, the smallest and largest dt, how many
    # computed rates the ceiling capped, blocks planned, cells worked, flushed
    # mass, the steps whose dt the drive cap set, and reaction-weight tables
    # computed
    diagnostics: dict


def run(initial: DistributionField, t_end: float,
        output_times: Sequence[float], circuit,
        model: MemristorModel = None,
        mass_tolerance: float = 1e-6) -> PdeResult:
    """Advance the field to t_end, recording marginals and conditional
    moments at the requested output times.

    Raises MassLossError if more than mass_tolerance of the initial mass
    leaks (indicating boundary outflow).  `initial` is not modified.  The
    times are checked by `circuit.output_grid`, as in the MC.
    """
    outputs = output_grid(initial.time, t_end, output_times)
    tables = _RunTables(initial, circuit, model)
    cuts = sorted(tables.wave.breakpoint_times()) + [math.inf]
    p, t, dts, fields = initial.p.copy(), initial.time, [], []
    mass0, tables.min_cell = initial.mass(), float(p.min())
    for t_out in outputs:
        t_stop = t_out - 1e-15 * max(t_out, 1.0)  # round-off short of t_out
        while t < t_stop:
            # a block: the support at its start, then its steps, each capped at
            # the faces it can reach and cut at t_out and the source breakpoints
            s0, s1 = tables.flush(p, mass0)
            rows = []
            while len(rows) < tables.steps and t < t_stop:
                v = tables.wave(t)
                ok, capped = tables.dt_ok(v, s0, s1, len(rows))
                t_cut = min(t_out, cuts[bisect.bisect_right(cuts, t)])
                rows.append((t, v, min(ok, t_cut - t), ok))
                tables.diag["drive_capped_steps"] += capped and ok < t_cut - t
                t = t + ok if ok < t_cut - t else t_cut
            tables.plan(rows, s0, s1)
            tables.advance(p, mass0, mass_tolerance)
            dts += [row[2] for row in rows]
        t = t_out  # snap round-off
        fields.append(DistributionField(initial.grid, p.copy(), t))

    mean, var = zip(*(f.conditional_moments() for f in fields))
    return PdeResult(np.array([f.time for f in fields]),
                     np.vstack([f.marginals() for f in fields]), np.vstack(mean),
                     np.vstack(var), fields, tables.min_cell, tables.mass_err,
                     dict(steps=len(dts), dt_min=min(dts, default=math.nan),
                          dt_max=max(dts, default=math.nan), **tables.diag))
