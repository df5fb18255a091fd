"""Simulation toolkit for heterogeneous circuits of discrete-state
stochastic memristors, capacitors and voltage sources.

Three cross-validating engines share one device and circuit model:

- ``memstoch.mc``: Monte Carlo trajectory sampling of the underlying
  piecewise-deterministic Markov process,
- ``memstoch.pde``: a finite-volume solver for the coupled
  advection-reaction master equations of any circuit of one memristor,
  one capacitor and one source, read from its per-state affine tables,
- ``memstoch.analytic``: closed forms: the survival of the initial state
  of any such single-device circuit under a constant or step source
  (``initial_hazard``, from the same tables), and the no-switching and
  unidirectional-switching solutions of the binary series circuit.

``memstoch.circuit`` provides the SPICE-like netlist front end and the
modified-nodal-analysis operating-point solver; ``memstoch.cli`` the
command-line interface.
"""

__version__ = "0.1.0"

from .device import MemristorModel
from .circuit import (CircuitState, Netlist, NetlistError,
                      SingularNetworkError, Waveform, parse_netlist,
                      serialize, series_mc, solve_operating_point)
from .analytic import (ConstantDriveParams, Density1D, expint_ei,
                       initial_hazard, mean_switching_time, no_switch_density,
                       p0_asymptotic, p0_constant_voltage, rc_charge_wave,
                       unidirectional_densities)
from .pde import ChargeGrid, DistributionField, SeriesCircuitParams
from .mc import EnsembleStats, TrajectoryRecord, run_ensemble, simulate_trajectory

__all__ = [
    "MemristorModel",
    "CircuitState", "Netlist", "NetlistError", "SingularNetworkError",
    "Waveform", "parse_netlist", "serialize", "series_mc",
    "solve_operating_point",
    "ConstantDriveParams", "Density1D", "expint_ei", "initial_hazard",
    "mean_switching_time",
    "no_switch_density", "p0_asymptotic", "p0_constant_voltage",
    "rc_charge_wave", "unidirectional_densities",
    "ChargeGrid", "DistributionField", "SeriesCircuitParams",
    "EnsembleStats", "TrajectoryRecord", "run_ensemble", "simulate_trajectory",
]
