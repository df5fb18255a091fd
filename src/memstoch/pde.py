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

`run` computes faces, centres and resistances once and advects all states
in one array operation; under a constant drive it also computes the face
velocities and pair rates once, and the reaction weights once per dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import Waveform
from .device import MemristorModel

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
    grid = field.grid
    ends = grid.q_min + np.array([0, grid.n_cells]) * grid.dq
    r = min(model.resistances)
    vmax = float(np.abs((params.waveform(field.time) - ends / params.C) / r).max())
    return CFL_LIMIT * grid.dq / vmax if vmax > 0 else math.inf


class _RunTables:
    """What `step` needs that one `run` does not change (see the module
    docstring)."""

    def __init__(self, grid: ChargeGrid, params: SeriesCircuitParams, model: MemristorModel):
        self.params, self.model = params, model
        self.inner, self.centers = grid.faces()[1:-1], grid.centers()
        self.r = np.array(model.resistances)[:, None]
        self.fixed = params.waveform.kind == "constant"
        self.rates = self.velocity = self.pairs = self.dt = None

    def at(self, t: float, dt: float):
        """Face velocities (G, n-1) and reaction pairs (k, a, b, w) at t."""
        if self.rates is None or not self.fixed:
            v, C = self.params.waveform(t), self.params.C
            self.velocity = (v - self.inner / C) / self.r
            vm = v - self.centers / C
            self.rates = [(self.model.rate_up_array(k, vm),        # k -> k+1
                           self.model.rate_down_array(k + 1, vm))  # k+1 -> k
                          for k in range(self.model.num_states - 1)]
            self.dt = None
        if dt != self.dt:
            self.dt, last = dt, len(self.rates) - 1
            self.pairs = []
            with np.errstate(divide="ignore", invalid="ignore"):
                for k, (a, b) in enumerate(self.rates):
                    s = a + b
                    h = dt if k == last else dt / 2
                    # (1 - exp(-s h)) / s, with its limit h where s = 0
                    w = np.where(s > 0, -np.expm1(-s * h) / np.where(s > 0, s, 1.0), h)
                    self.pairs.append((k, a, b, w))
        return self.velocity, self.pairs


def step(field: DistributionField, dt: float, params: SeriesCircuitParams,
         model: MemristorModel, *, _tables: _RunTables = None) -> DistributionField:
    """One Lie-split step: conservative upwind advection of every state,
    then the reaction substep coupling adjacent states.

    The reaction sweeps exact pair exchanges symmetrically: pairs
    (0, 1) ... (G-3, G-2) over dt/2, the last pair over dt, then back
    down over dt/2.  Refuses dt beyond the CFL cap (0.9), carrying the
    admissible dt.  Mass is conserved to round-off and no cell goes
    negative.  `run` passes its per-run tables as `_tables`.
    """
    if model.num_states != field.num_states:
        raise ValueError("model/field state-count mismatch")
    if dt < 0:
        raise ValueError("dt must be >= 0")
    if dt == 0.0:
        return DistributionField(field.grid, field.p.copy(), field.time)
    dt_ok = admissible_dt(field, params, model)
    if dt > dt_ok:
        raise StepSizeError(f"dt = {dt:g} s too large", dt_ok)

    grid = field.grid
    t = field.time
    tables = _tables or _RunTables(grid, params, model)
    v, pairs = tables.at(t, dt)
    p = field.p.copy()

    # ---- advection: upwind fluxes at interior faces, zero at boundaries
    flux = v * np.where(v > 0, p[:, :-1], p[:, 1:])
    div = np.zeros_like(p)
    div[:, :-1] += flux
    div[:, 1:] -= flux
    p -= dt / grid.dq * div

    # ---- reaction at cell centers: up the ladder of pair exchanges, then
    # back down without repeating the last pair
    for k, a, b, w in pairs + pairs[-2::-1]:
        transfer = (a * p[k] - b * p[k + 1]) * w
        p[k] -= transfer
        p[k + 1] += transfer

    min_val = float(p.min())
    if min_val < -1e-12 * max(float(p.max()), 1.0):
        raise RuntimeError(
            f"positivity violated: min cell value {min_val:g} at t = {t:g} s")
    np.clip(p, 0.0, None, out=p)  # round-off-level negatives only
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
    # what the run did: steps taken and the smallest and largest dt
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
    dts = []

    times, marg, mean, var, fields = [], [], [], [], []
    min_cell = float(field.p.min())
    max_mass_err = 0.0

    def record(f):
        times.append(f.time)
        marg.append(f.marginals())
        m, v = f.conditional_moments()
        mean.append(m)
        var.append(v)
        fields.append(DistributionField(f.grid, f.p.copy(), f.time))

    if outputs[0] == field.time:
        record(field)
        outputs = outputs[1:]

    for t_out in outputs:
        while field.time < t_out - 1e-15 * max(t_out, 1.0):
            dt = min(admissible_dt(field, params, model), t_out - field.time)
            field = step(field, dt, params, model, _tables=tables)
            dts.append(dt)
            min_cell = min(min_cell, float(field.p.min()))
            err = abs(field.mass() - mass0)
            max_mass_err = max(max_mass_err, err)
            if err > mass_tolerance:
                raise MassLossError(
                    f"mass error {err:g} exceeds {mass_tolerance:g} at "
                    f"t = {field.time:g} s (boundary outflow?)")
        field.time = t_out  # snap round-off
        record(field)

    return PdeResult(np.array(times), np.vstack(marg), np.vstack(mean),
                     np.vstack(var), fields, min_cell, max_mass_err,
                     dict(steps=len(dts), dt_min=min(dts, default=math.nan),
                          dt_max=max(dts, default=math.nan)))
