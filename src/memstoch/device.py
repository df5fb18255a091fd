"""Discrete-state stochastic memristor model.

A device has G resistance levels R_0..R_{G-1} and voltage-dependent
switching rates between adjacent levels only.  A positive voltage across
the device drives i -> i+1 transitions, a negative voltage drives
i+1 -> i transitions; the rate in the "wrong" direction is exactly zero.

`switching_rate` is the one place that evaluates the rate law; every
engine calls it with parameters taken from `MemristorModel.transitions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

# Computed rates are capped here; exponents are cut at 700 before the
# exponential so that exp(V/V0) cannot overflow at large drive voltages.
DEFAULT_RATE_CEILING = 1e30


def switching_rate(vm, v_scale, tau, ceiling, tally=None):
    """The switching law: the rate exp(|vm| / v_scale) / tau of the
    transition that the sign of the memristor voltage vm drives, given
    that transition's voltage scale and time constant.  The rate is 0 at
    vm = 0 and for an absent transition (v_scale = tau = inf).  The
    exponent is cut at 700 against overflow and the rate at `ceiling`.
    Arguments are floats or arrays that broadcast together.  With a
    diagnostics dict as `tally`, the number of rates cut at the ceiling
    is added to its "rate_ceiling_hits"."""
    x = np.minimum(np.abs(vm) / v_scale, 700.0)
    with np.errstate(over="ignore"):
        r = np.where(vm != 0.0, np.exp(x) / tau, 0.0)
    if tally is not None:
        tally["rate_ceiling_hits"] += int(np.count_nonzero(r > ceiling))
    return np.minimum(r, ceiling)


@dataclass(frozen=True)
class MemristorModel:
    """Immutable parameter set of a G-state stochastic memristor.

    resistances[i] is the resistance of state i (ohms).  tau_up[i] and
    v_up[i] parameterize the i -> i+1 rate, tau_down[i] and v_down[i]
    the i+1 -> i rate, so all four lists have length G-1.  rate_ceiling
    caps every rate; it must be positive (inf turns the cap off).
    """

    resistances: tuple
    tau_up: tuple
    v_up: tuple
    tau_down: tuple
    v_down: tuple
    rate_ceiling: float = DEFAULT_RATE_CEILING

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
        if not self.rate_ceiling > 0:
            raise ValueError(
                f"rate_ceiling must be positive (inf: no cap), got {self.rate_ceiling!r}")

    @property
    def num_states(self) -> int:
        return len(self.resistances)

    @cached_property
    def transitions(self) -> np.ndarray:
        """(2, 2G) array: column i holds (V, tau) of the up transition out
        of state i, which a positive voltage drives, and column G + i those
        of the down transition out of state i (negative voltage).  The
        absent ones, up from G-1 and down from 0, hold inf: rate 0 and no
        voltage scale."""
        inf = (np.inf,)
        return np.array([self.v_up + inf + inf + self.v_down,
                         self.tau_up + inf + inf + self.tau_down])

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

    def _check(self, i: int, lo: int, hi: int, what: str) -> None:
        if not lo <= i <= hi:
            raise IndexError(f"{what} index {i} out of range [{lo}, {hi}]")

    def resistance(self, i: int) -> float:
        self._check(i, 0, self.num_states - 1, "state")
        return self.resistances[i]

    # The rates below are `switching_rate` on one transition; v_m is a
    # float for the first and may be an array for the other two.
    def total_exit_rate(self, i: int, v_m: float) -> float:
        """Sum of the rates out of state i: the one that the sign of v_m
        drives, zero where state i lacks that direction."""
        self._check(i, 0, self.num_states - 1, "state")
        return float(switching_rate(v_m, *self.transitions[:, i + self.num_states * (v_m < 0.0)],
                                    self.rate_ceiling))

    def rate_up_array(self, i: int, v_m: np.ndarray) -> np.ndarray:
        self._check(i, 0, self.num_states - 2, "up-transition")
        return switching_rate(np.maximum(v_m, 0.0), *self.transitions[:, i], self.rate_ceiling)

    def rate_down_array(self, i: int, v_m: np.ndarray) -> np.ndarray:
        self._check(i, 1, self.num_states - 1, "down-transition")
        return switching_rate(np.minimum(v_m, 0.0), *self.transitions[:, self.num_states + i],
                              self.rate_ceiling)
