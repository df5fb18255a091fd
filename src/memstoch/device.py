"""Discrete-state stochastic memristor model.

A device has G resistance levels R_0..R_{G-1} and voltage-dependent
switching rates between adjacent levels only.  A positive voltage across
the device drives i -> i+1 transitions, a negative voltage drives
i+1 -> i transitions; the rate in the "wrong" direction is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# Computed rates are clamped here to avoid overflow of exp(V/V0) at
# large drive voltages.  Crossing the ceiling sets `clamp_hit`.
DEFAULT_RATE_CEILING = 1e30


@dataclass(frozen=True)
class MemristorModel:
    """Immutable parameter set of a G-state stochastic memristor.

    resistances[i] is the resistance of state i (ohms).  tau_up[i] and
    v_up[i] parameterize the i -> i+1 rate, tau_down[i] and v_down[i]
    the i+1 -> i rate, so all four lists have length G-1.
    """

    resistances: tuple
    tau_up: tuple
    v_up: tuple
    tau_down: tuple
    v_down: tuple
    rate_ceiling: float = DEFAULT_RATE_CEILING
    # Diagnostic: set (via object.__setattr__, the model is otherwise
    # frozen) the first time a computed rate hits the ceiling.
    clamp_hit: bool = field(default=False, compare=False)

    def __post_init__(self):
        res = tuple(float(r) for r in self.resistances)
        tu = tuple(float(x) for x in self.tau_up)
        vu = tuple(float(x) for x in self.v_up)
        td = tuple(float(x) for x in self.tau_down)
        vd = tuple(float(x) for x in self.v_down)
        object.__setattr__(self, "resistances", res)
        object.__setattr__(self, "tau_up", tu)
        object.__setattr__(self, "v_up", vu)
        object.__setattr__(self, "tau_down", td)
        object.__setattr__(self, "v_down", vd)
        g = len(res)
        if g < 2:
            raise ValueError("a memristor needs at least 2 states")
        for name, seq in (("tau_up", tu), ("v_up", vu),
                          ("tau_down", td), ("v_down", vd)):
            if len(seq) != g - 1:
                raise ValueError(
                    f"{name} must have length G-1 = {g - 1}, got {len(seq)}")
            if any(x <= 0 for x in seq):
                raise ValueError(f"all {name} entries must be positive")
        if any(r <= 0 for r in res):
            raise ValueError("all resistances must be positive")

    @property
    def num_states(self) -> int:
        return len(self.resistances)

    @classmethod
    def binary(cls, r_off: float, r_on: float,
               tau0: float, v0: float,
               tau1: float | None = None, v1: float | None = None,
               **kw) -> "MemristorModel":
        """Two-state device; down-transition parameters default to the
        up-transition ones."""
        tau1 = tau0 if tau1 is None else tau1
        v1 = v0 if v1 is None else v1
        return cls((r_off, r_on), (tau0,), (v0,), (tau1,), (v1,), **kw)

    @classmethod
    def uniform(cls, resistances: Sequence[float],
                tau: float, v_scale: float, **kw) -> "MemristorModel":
        """Multi-state device with one (tau, V) pair replicated across
        every transition in both directions."""
        g = len(resistances)
        ones = tuple([tau] * (g - 1))
        vs = tuple([v_scale] * (g - 1))
        return cls(tuple(resistances), ones, vs, ones, vs, **kw)

    def resistance(self, i: int) -> float:
        if not 0 <= i < self.num_states:
            raise IndexError(f"state index {i} out of range [0, {self.num_states - 1}]")
        return self.resistances[i]

    def _clamp(self, rate: float) -> float:
        if rate > self.rate_ceiling or not np.isfinite(rate):
            object.__setattr__(self, "clamp_hit", True)
            return self.rate_ceiling
        return rate

    def rate_up(self, i: int, v_m: float) -> float:
        """Rate of the i -> i+1 transition at memristor voltage v_m.

        Nonzero only for v_m > 0: 1 / (tau_up[i] * exp(-v_m / v_up[i])).
        """
        if not 0 <= i <= self.num_states - 2:
            raise IndexError(
                f"up-transition index {i} out of range [0, {self.num_states - 2}]")
        if v_m <= 0.0:
            return 0.0
        with np.errstate(over="ignore"):
            rate = float(np.exp(v_m / self.v_up[i])) / self.tau_up[i]
        return self._clamp(rate)

    def rate_down(self, i: int, v_m: float) -> float:
        """Rate of the i -> i-1 transition at memristor voltage v_m.

        Nonzero only for v_m < 0: 1 / (tau_down[i-1] * exp(-|v_m| / v_down[i-1])).
        """
        if not 1 <= i <= self.num_states - 1:
            raise IndexError(
                f"down-transition index {i} out of range [1, {self.num_states - 1}]")
        if v_m >= 0.0:
            return 0.0
        with np.errstate(over="ignore"):
            rate = float(np.exp(abs(v_m) / self.v_down[i - 1])) / self.tau_down[i - 1]
        return self._clamp(rate)

    def total_exit_rate(self, i: int, v_m: float) -> float:
        """Sum of the rates out of state i; boundary states lack one
        direction, which contributes zero."""
        if not 0 <= i < self.num_states:
            raise IndexError(f"state index {i} out of range [0, {self.num_states - 1}]")
        rate = 0.0
        if i < self.num_states - 1:
            rate += self.rate_up(i, v_m)
        if i > 0:
            rate += self.rate_down(i, v_m)
        return rate

    # Vectorized helpers used by the PDE and ensemble engines.  v_m may
    # be an array; the state index is fixed.
    def rate_up_array(self, i: int, v_m: np.ndarray) -> np.ndarray:
        if not 0 <= i <= self.num_states - 2:
            raise IndexError(f"up-transition index {i} out of range")
        v = np.asarray(v_m, dtype=float)
        with np.errstate(over="ignore"):
            r = np.where(v > 0.0, np.exp(np.minimum(v, 700.0 * self.v_up[i])
                                         / self.v_up[i]) / self.tau_up[i], 0.0)
        return np.minimum(r, self.rate_ceiling)

    def rate_down_array(self, i: int, v_m: np.ndarray) -> np.ndarray:
        if not 1 <= i <= self.num_states - 1:
            raise IndexError(f"down-transition index {i} out of range")
        v = np.asarray(v_m, dtype=float)
        with np.errstate(over="ignore"):
            r = np.where(v < 0.0, np.exp(np.minimum(-v, 700.0 * self.v_down[i - 1])
                                         / self.v_down[i - 1]) / self.tau_down[i - 1], 0.0)
        return np.minimum(r, self.rate_ceiling)
