"""Spans and probes installed from outside the program.

Nothing in memstoch is edited: the benchmark replaces module attributes and
class methods with wrappers after import.  A module that imported a
function by name (``from .circuit import affine_dynamics``) holds its own
binding, so `patch` replaces every binding of the same object in every
loaded memstoch module.

`Probes` is on in every run: it times `mc.run_ensemble` (for
trajectories_per_s), marks a segment boundary before and after each
ensemble (where the run calibrates the machine's speed), and keeps the
table `cli.cmd_simulate` returns (for the CSV round-trip check).

`Tracer` is on only with --trace 1.  Each wrapped call appends one span
(name, start, end, parent) to flat arrays in memory; `Tracer.take` turns
the spans recorded since the previous call into per-name call counts,
inclusive time and self time (inclusive minus the time of child spans).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (span name, dotted path of the wrapped callable inside memstoch).  Names
# listed twice are one layer metric covering both callables.
TRACED = (
    ("cli.cmd_simulate", "cli.cmd_simulate"),
    ("cli.write_csv", "cli.ResultTable.write_csv"),
    ("analytic.p0_constant_voltage", "analytic.p0_constant_voltage"),
    ("analytic.expint_ei", "analytic.expint_ei"),
    ("pde.run", "pde.run"),
    ("pde.step", "pde.step"),
    ("pde.admissible_dt", "pde.admissible_dt"),
    ("mc.run_ensemble", "mc.run_ensemble"),
    ("circuit.parse_netlist", "circuit.parse_netlist"),
    ("circuit.affine_dynamics", "circuit.affine_dynamics"),
    ("circuit.AffineDynamics", "circuit.AffineDynamics.dqdt"),
    ("circuit.AffineDynamics", "circuit.AffineDynamics.memristor_voltages"),
    ("circuit.Waveform", "circuit.Waveform.__call__"),
    ("device.total_exit_rate", "device.MemristorModel.total_exit_rate"),
    ("device.rate_array", "device.MemristorModel.rate_up_array"),
    ("device.rate_array", "device.MemristorModel.rate_down_array"),
)


def patch(package, dotted: str, make_wrapper) -> None:
    """Replace the callable at `dotted` (relative to `package`) by
    make_wrapper(original), wherever a memstoch module binds it."""
    *owner_path, attr = dotted.split(".")
    owner = package
    for part in owner_path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr]
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    prefix = package.__name__
    for name, module in list(sys.modules.items()):
        if name == prefix or name.startswith(prefix + "."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


class Probes:
    """Always-on measurements at the two places the end-to-end metrics and
    checks need to see inside a user-facing call."""

    def __init__(self, package):
        self.reset()
        self.last_table = None
        self.boundary = lambda: None   # called before and after each ensemble
        patch(package, "mc.run_ensemble", self._meter)
        patch(package, "cli.cmd_simulate", self._capture)

    def reset(self) -> None:
        self.failed_ensembles = 0
        self.ensemble_s = 0.0
        self.trajectories = 0
        self.failed_trajectories = 0
        self.events = 0

    def snapshot(self) -> dict:
        return {key: getattr(self, key) for key in (
            "failed_ensembles", "ensemble_s", "trajectories",
            "failed_trajectories", "events")}

    def _meter(self, fn):
        @functools.wraps(fn)
        def run_ensemble(*args, **kwargs):
            self.boundary()
            t0 = time.perf_counter()
            stats = None
            try:
                stats = fn(*args, **kwargs)
            except Exception:
                self.failed_ensembles += 1
                raise
            finally:
                self.ensemble_s += time.perf_counter() - t0
                if stats is not None:
                    self.trajectories += stats.n
                    self.failed_trajectories += stats.n_failed
                    self.events += stats.events_up + stats.events_down
                self.boundary()
            return stats
        return run_ensemble

    def _capture(self, fn):
        @functools.wraps(fn)
        def cmd_simulate(*args, **kwargs):
            self.last_table = fn(*args, **kwargs)
            return self.last_table
        return cmd_simulate


class Tracer:
    """In-memory span recorder for the callables in TRACED."""

    def __init__(self, package):
        self.names = sorted({name for name, _ in TRACED}
                            | {"bench.setup", "bench.pass", "bench.calibrate"})
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")   # dt of pde.step calls, 0 elsewhere
        self._stack = []
        for name, dotted in TRACED:
            value_of = (lambda a, k: a[1]) if name == "pde.step" else None
            patch(package, dotted,
                  lambda fn, name=name, value_of=value_of: self.wrap(name, fn, value_of))

    def wrap(self, name, fn, value_of=None):
        nid = self._ids[name]
        name_id, parent, start, end, value = (self.name_id, self.parent, self.start,
                                              self.end, self.value)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            value.append(value_of(args, kwargs) if value_of else 0.0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
        return traced

    def take(self):
        """(raw spans, per-name summary) of the spans since the last take;
        the arrays are then emptied."""
        ids = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        value = np.array(self.value, dtype=float)
        for arr in (self.name_id, self.parent, self.start, self.end, self.value):
            del arr[:]
        dur = end - start
        k = len(self.names)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=ids.size)
        own = dur - covered
        summary = {}
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        value_sum = np.bincount(ids, weights=value, minlength=k)
        for i, name in enumerate(self.names):
            summary[name] = {"calls": int(calls[i]), "s": float(total[i]),
                             "self_s": float(self_s[i]), "value": float(value_sum[i])}
        return (ids, parent, start, end), summary

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside one span of benchmark code."""
        return self.wrap(name, fn)(*args, **kwargs)
