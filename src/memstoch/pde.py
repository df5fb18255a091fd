"""Finite-volume solver for the coupled advection-reaction master
equations of the series memristor-capacitor circuit.

Each of the G state densities p_i(q, t) is advected along the charge
axis with velocity (V(t) - q/C)/R_i (conservative first-order upwind)
and exchanges mass with adjacent states through the voltage-dependent
switching rates.  The reaction splits each cell's birth-death generator
into adjacent-pair exchanges, each solved exactly (2x2 matrix
exponential) and swept symmetrically (Strang 1968); for G = 2 this is
the single exact 2x2 update.  Every exchange conserves mass and keeps
cells non-negative for any dt, so dt is limited by the CFL condition
only.  Grid bounds are chosen so the drift points inward at both edges,
making zero-flux boundaries exact and conserving mass to round-off.

dt depends on t only (the CFL cap at the grid's end faces), so `run` plans
each output interval's steps before it takes them.  For each block of
planned steps it evaluates face velocities, upwind split faces, pair rates
and reaction weights as tables of about 64 KB (under a constant drive the
rates once per run and the weights once per dt).  Upwind transport moves
mass by at most one cell per step, so a block works only on its start's
support widened by the block length; the cells outside stay exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import Waveform
from .device import MemristorModel, switching_rate

CFL_LIMIT = 0.9


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
    def for_drive(cls, C: float, waveform: Waveform, t_end: float,
                  n_cells: int, q_extra: float = 0.0,
                  pad: float = 0.1) -> "ChargeGrid":
        """Grid covering the dynamically reachable charges, padded so the
        drift is inward at both boundaries for all t in [0, t_end].

        q_extra extends the covered range to include e.g. the initial
        charge.  Raises if the waveform range makes inward drift at the
        boundaries impossible to guarantee.
        """
        vmin, vmax = waveform.bounds(t_end)
        lo = min(0.0, q_extra, C * vmin)
        hi = max(C * vmax, q_extra)
        span = hi - lo
        if span <= 0:
            span = max(abs(hi), 1.0) * 0.1
        grid = cls(lo - pad * span, hi + pad * span, n_cells)
        # inward drift: v(q_min) = (V - q_min/C)/R > 0 and v(q_max) < 0
        if not (grid.q_min < C * vmin and grid.q_max > C * vmax):
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
    """Parameters of the series source-memristor-capacitor circuit as
    seen by the PDE: capacitance and drive waveform; the per-state
    resistances come from the memristor model."""

    C: float
    waveform: Waveform

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError("C must be positive")


def admissible_dt(field: DistributionField, params: SeriesCircuitParams,
                  model: MemristorModel) -> float:
    """Largest dt satisfying the CFL cap at the field's current time.

    The drift (V - q/C)/R_i is monotone in q and largest for the smallest
    R_i, so the fastest face is an end face of the fastest state.
    """
    grid, v, r = field.grid, params.waveform(field.time), min(model.resistances)
    vmax = float(max(abs((v - (grid.q_min + k * grid.dq) / params.C) / r)
                     for k in (0, grid.n_cells)))
    return CFL_LIMIT * grid.dq / vmax if vmax > 0 else math.inf


_BLOCK_BYTES = 1 << 16  # one block table (steps x cells): 8 steps at 1000 cells


class _RunTables:
    """Face velocities, upwind split faces, pair rates and reaction weights
    of one block of planned steps, over the cells that mass can reach
    during the block (see the module docstring)."""

    def __init__(self, grid: ChargeGrid, params: SeriesCircuitParams, model: MemristorModel):
        self.params, self.model = params, model
        # the drift (V - q/C)/R_i is > 0 at the faces with V > face_v
        self.face_v, self.cell_v = grid.faces()[1:-1] / params.C, grid.centers() / params.C
        self.r = np.array(model.resistances)[:, None]
        self.steps = max(1, _BLOCK_BYTES // (8 * grid.n_cells))
        self.fixed = self.w_dt = self.w = None
        self.diag = dict(rate_ceiling_hits=0)   # over the rates computed
        if params.waveform.kind == "constant":
            self.fixed = self._drive(np.array([params.waveform(0.0)]), 0, grid.n_cells)
        self.rows = {}

    def _drive(self, v, lo, hi):
        """Face velocities, split faces and pair rates per drive value in v,
        over the cells lo..hi-1."""
        vm = v[:, None] - self.cell_v[lo:hi]
        g, par, cap = self.model.num_states, self.model.transitions, self.model.rate_ceiling
        up, rates = vm > 0.0, []
        for k in range(g - 1):
            # one kernel call per pair: k -> k+1 where vm > 0, k+1 -> k where vm < 0
            (vu, vd), (tu, td) = par[:, [k, g + k + 1]]
            r = switching_rate(vm, np.where(up, vu, vd), np.where(up, tu, td), cap, self.diag)
            rates.append((np.where(up, r, 0.0), np.where(up, 0.0, r)))
        return ((v[:, None] - self.face_v[lo:hi - 1])[:, None] / self.r,
                np.searchsorted(self.face_v, v) - lo, rates)

    @staticmethod
    def _weights(rates, dt):
        """(1 - exp(-s h)) / s of every pair, with its limit h where s = 0;
        h is dt for the last pair and dt/2 for the others."""
        last, ws = len(rates) - 1, []
        with np.errstate(divide="ignore", invalid="ignore"):
            for k, (a, b) in enumerate(rates):
                s = a + b
                h = dt if k == last else dt / 2
                ws.append(np.where(s > 0, -np.expm1(-s * h) / np.where(s > 0, s, 1.0), h))
        return ws

    def plan(self, p: np.ndarray, ts, dts, dts_ok):
        """Tables of the steps (ts[i], dts[i]), admissible up to dts_ok[i],
        from the densities p: over p's support widened by the block length
        plus one cell on each side."""
        m = len(ts)
        held = np.flatnonzero(p.any(axis=0))
        s0, s1 = (held[0], held[-1]) if held.size else (0, 0)
        self.lo, self.hi = lo, hi = max(s0 - 1 - m, 0), min(s1 + 2 + m, self.cell_v.size)
        if self.fixed is None:
            vel, split, rates = self._drive(np.array([self.params.waveform(t) for t in ts]), lo, hi)
            ws = self._weights(rates, np.array(dts)[:, None])
            pairs = [[(k, a[i], b[i], w[i]) for k, ((a, b), w) in enumerate(zip(rates, ws))]
                     for i in range(m)]
        else:  # rates once per run and weights once per distinct dt, sliced
            vel, split, rates = self.fixed
            vel, split, pairs = [vel[0, :, lo:hi - 1]] * m, np.repeat(split, m) - lo, []
            for dt in dts:
                if dt != self.w_dt:
                    self.w_dt, self.w = dt, self._weights(rates, dt)
                pairs.append([(k, a[0, lo:hi], b[0, lo:hi], w[0, lo:hi])
                              for k, ((a, b), w) in enumerate(zip(rates, self.w))])
        split = np.clip(split, 0, hi - lo - 1)
        self.rows = {t: (dt, ok, vel[i], split[i], pairs[i])
                     for i, (t, dt, ok) in enumerate(zip(ts, dts, dts_ok))}


def step(field: DistributionField, dt: float, params: SeriesCircuitParams,
         model: MemristorModel, *, _tables: _RunTables = None) -> DistributionField:
    """One Lie-split step: conservative upwind advection of every state,
    then the reaction substep coupling adjacent states.

    The reaction sweeps exact pair exchanges symmetrically: pairs
    (0, 1) ... (G-3, G-2) over dt/2, the last pair over dt, then back
    down over dt/2.  Refuses dt beyond the CFL cap (0.9), carrying the
    admissible dt.  Mass is conserved to round-off and no cell goes
    negative.  `run` passes the tables of its planned block as `_tables`,
    and a planned step takes its admissible dt from the plan; any other
    step plans itself as a block of one.  Only the block's window of cells
    is worked on; the cells outside hold no mass and stay zero.
    """
    if model.num_states != field.num_states:
        raise ValueError("model/field state-count mismatch")
    if dt < 0:
        raise ValueError("dt must be >= 0")
    if dt == 0.0:
        return DistributionField(field.grid, field.p.copy(), field.time)
    grid, t = field.grid, field.time
    row = _tables.rows.get(t) if _tables else None
    dt_ok = row[1] if row else admissible_dt(field, params, model)
    if dt > dt_ok:
        raise StepSizeError(f"dt = {dt:g} s too large", dt_ok)
    if not row or row[0] != dt:
        _tables = _RunTables(grid, params, model)
        _tables.plan(field.p, [t], [dt], [dt_ok])
        row = _tables.rows[t]
    _, _, v, f, pairs = row
    p = field.p.copy()
    pw = p[:, _tables.lo:_tables.hi]

    # ---- advection: upwind fluxes at interior faces, zero at boundaries
    flux = np.empty(v.shape)
    flux[:, :f] = v[:, :f] * pw[:, :f]
    flux[:, f:] = v[:, f:] * pw[:, f + 1:]
    div = np.zeros(pw.shape)
    div[:, :-1] += flux
    div[:, 1:] -= flux
    pw -= dt / grid.dq * div

    # ---- reaction at cell centers: up the ladder of pair exchanges, then
    # back down without repeating the last pair
    for k, a, b, w in pairs + pairs[-2::-1]:
        transfer = (a * pw[k] - b * pw[k + 1]) * w
        pw[k] -= transfer
        pw[k + 1] += transfer

    # a window short of a grid edge ends in an empty cell: its min is the grid's
    min_val = float(pw.min())
    if min_val < -1e-12 * max(float(pw.max()), 1.0):
        raise RuntimeError(
            f"positivity violated: min cell value {min_val:g} at t = {t:g} s")
    np.maximum(pw, 0.0, out=pw)  # round-off-level negatives only
    _tables.min_cell = max(min_val, 0.0)
    return DistributionField(grid, p, t + dt)


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
    # what the run did: steps taken, the smallest and largest dt and how
    # many computed rates the ceiling capped
    diagnostics: dict


def run(initial: DistributionField, t_end: float,
        output_times: Sequence[float], params: SeriesCircuitParams,
        model: MemristorModel,
        mass_tolerance: float = 1e-6) -> PdeResult:
    """Advance the field to t_end, recording marginals and conditional
    moments at the requested output times.

    Raises MassLossError if more than mass_tolerance of the initial mass
    leaks (indicating boundary outflow).
    """
    outputs = sorted(set(float(t) for t in output_times) | {float(t_end)})
    if outputs[0] < initial.time:
        raise ValueError("output time before the initial time")
    tables = _RunTables(initial.grid, params, model)
    field = DistributionField(initial.grid, initial.p.copy(), initial.time)
    mass0 = field.mass()
    dts, fields = [], []
    min_cell = float(field.p.min())
    max_mass_err = 0.0
    for t_out in outputs:
        # dt depends on t only: plan the interval's steps, then take them
        t0, plan = field.time, []
        while field.time < t_out - 1e-15 * max(t_out, 1.0):
            dt_ok = admissible_dt(field, params, model)
            plan.append((field.time, min(dt_ok, t_out - field.time), dt_ok))
            field.time += plan[-1][1]
        field.time = t0
        for b in range(0, len(plan), tables.steps):
            tables.plan(field.p, *zip(*plan[b:b + tables.steps]))
            for _, dt, _ in plan[b:b + tables.steps]:
                field = step(field, dt, params, model, _tables=tables)
                dts.append(dt)
                min_cell = min(min_cell, tables.min_cell)
                err = abs(field.mass() - mass0)
                max_mass_err = max(max_mass_err, err)
                if err > mass_tolerance:
                    raise MassLossError(
                        f"mass error {err:g} exceeds {mass_tolerance:g} at "
                        f"t = {field.time:g} s (boundary outflow?)")
        field.time = t_out  # snap round-off
        fields.append(DistributionField(field.grid, field.p.copy(), field.time))

    mean, var = zip(*(f.conditional_moments() for f in fields))
    return PdeResult(np.array([f.time for f in fields]),
                     np.vstack([f.marginals() for f in fields]), np.vstack(mean),
                     np.vstack(var), fields, min_cell, max_mass_err,
                     dict(steps=len(dts), dt_min=min(dts, default=math.nan),
                          dt_max=max(dts, default=math.nan), **tables.diag))
