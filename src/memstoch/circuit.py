"""Netlist front-end and resistive-network solver.

Circuits are built from voltage sources, resistors, capacitors and
discrete-state stochastic memristors.  For an operating-point solve the
capacitors are replaced by ideal voltage sources of value q/C and each
memristor by the resistor of its current state; the remaining linear
network is solved by modified nodal analysis.  The capacitor charges are
therefore the only continuous state variables, and dq/dt is the current
into each capacitor.

Netlist text format (one component per line, '#' comments, kinds
case-insensitive, SI suffixes p/n/u/m/k/meg/g):

    V<name> <node+> <node-> DC <volts>
    V<name> <node+> <node-> SIN <offset> <amplitude> <hz>
    V<name> <node+> <node-> PWL <t1> <v1> <t2> <v2> ...
    R<name> <node1> <node2> <ohms>
    C<name> <node1> <node2> <farads> [IC=<coulombs>]
    M<name> <node+> <node-> STATES=<G> R=<r0,...> TAUUP=<...> VUP=<...>
            TAUDOWN=<...> VDOWN=<...> [STATE=<i>]

Node "0" is ground.  Memristor voltage is node+ minus node-; positive
voltage drives up-transitions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .device import MemristorModel

GROUND = "0"


class NetlistError(ValueError):
    """Malformed netlist text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, col {column}: {message}"
        super().__init__(message)


class SingularNetworkError(ValueError):
    """The network matrix is singular (e.g. a floating subcircuit)."""

    def __init__(self, message: str, nodes: Sequence[str] = ()):
        self.nodes = tuple(nodes)
        super().__init__(message)


# --------------------------------------------------------------------------
# Waveforms

@dataclass(frozen=True)
class Waveform:
    """Time-dependent source voltage, evaluable for all t >= 0.

    kind is one of 'constant', 'step', 'sine', 'pwl'.
    """

    kind: str
    amplitude: float = 0.0
    offset: float = 0.0
    frequency: float = 0.0
    t_step: float = 0.0
    value_before: float = 0.0
    breakpoints: tuple = ()  # ((t, v), ...) strictly increasing in t

    def __post_init__(self):
        if self.kind not in ("constant", "step", "sine", "pwl"):
            raise ValueError(f"unknown waveform kind {self.kind!r}")
        if self.kind == "pwl":
            ts = [t for t, _ in self.breakpoints]
            if len(ts) < 1:
                raise ValueError("PWL waveform needs at least one breakpoint")
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ValueError("PWL breakpoints must be strictly increasing in time")

    @classmethod
    def constant(cls, volts: float) -> "Waveform":
        return cls("constant", amplitude=float(volts))

    @classmethod
    def step(cls, value_after: float, t_step: float,
             value_before: float = 0.0) -> "Waveform":
        return cls("step", amplitude=float(value_after), t_step=float(t_step),
                   value_before=float(value_before))

    @classmethod
    def sine(cls, offset: float, amplitude: float, frequency: float) -> "Waveform":
        return cls("sine", amplitude=float(amplitude), offset=float(offset),
                   frequency=float(frequency))

    @classmethod
    def pwl(cls, points: Sequence[tuple]) -> "Waveform":
        return cls("pwl", breakpoints=tuple((float(t), float(v)) for t, v in points))

    def __call__(self, t):
        if self.kind == "constant":
            return self.amplitude if np.isscalar(t) else np.full(np.shape(t), self.amplitude)
        if self.kind == "step":
            return np.where(np.asarray(t) >= self.t_step, self.amplitude,
                            self.value_before)[()] if not np.isscalar(t) else (
                self.amplitude if t >= self.t_step else self.value_before)
        if self.kind == "sine":
            return self.offset + self.amplitude * np.sin(2.0 * math.pi * self.frequency * np.asarray(t))[()] \
                if not np.isscalar(t) else \
                self.offset + self.amplitude * math.sin(2.0 * math.pi * self.frequency * t)
        return np.interp(t, *self._pwl)

    def bounds(self, t_end: float) -> tuple:
        """(min, max) of the waveform over [0, t_end]."""
        if self.kind == "constant":
            return (self.amplitude, self.amplitude)
        if self.kind == "step":
            vals = [self.value_before] if self.t_step > 0 else []
            if self.t_step <= t_end:
                vals.append(self.amplitude)
            if not vals:
                vals = [self.value_before]
            return (min(vals), max(vals))
        if self.kind == "sine":
            # conservative envelope
            return (self.offset - abs(self.amplitude), self.offset + abs(self.amplitude))
        ts, vs = self._pwl
        sample = np.interp(np.clip([0.0, t_end], ts[0], ts[-1]), ts, vs)
        inside = vs[(ts >= 0.0) & (ts <= t_end)]
        allv = np.concatenate([sample, inside]) if inside.size else sample
        return (float(allv.min()), float(allv.max()))

    @cached_property
    def _pwl(self) -> tuple:
        """Breakpoint times and values of a PWL source as arrays."""
        return (np.array([t for t, _ in self.breakpoints]),
                np.array([v for _, v in self.breakpoints]))

    def breakpoint_times(self) -> tuple:
        """Times where the waveform is non-smooth: the ends of its segments."""
        if self.kind == "step":
            return (self.t_step,)
        if self.kind == "pwl":
            return tuple(t for t, _ in self.breakpoints)
        return ()

    @cached_property
    def segments(self) -> tuple:
        """(t0, v0, k) of a source without sines: on segment j, the times
        from breakpoint j - 1 (-inf for j = 0) to breakpoint j (inf after
        the last), the voltage is v0[j] + k[j] (t - t0[j])."""
        bp = np.array(self.breakpoint_times())
        t0 = np.r_[bp[:1], bp] if bp.size else np.zeros(1)
        v0 = np.array([self(b) for b in np.r_[-math.inf, bp]])
        k = np.zeros(bp.size + 1)
        if self.kind == "pwl":
            k = np.r_[0.0, np.diff(self._pwl[1]) / np.diff(self._pwl[0]), 0.0]
        return t0, v0, k


# --------------------------------------------------------------------------
# Components and the netlist

@dataclass(frozen=True)
class VoltageSource:
    name: str
    node_plus: str
    node_minus: str
    waveform: Waveform


@dataclass(frozen=True)
class Resistor:
    name: str
    node1: str
    node2: str
    resistance: float


@dataclass(frozen=True)
class Capacitor:
    name: str
    node1: str  # positive plate; q = C * (v1 - v2)
    node2: str
    capacitance: float
    initial_charge: float = 0.0


@dataclass(frozen=True)
class Memristor:
    name: str
    node_plus: str
    node_minus: str
    model: MemristorModel
    initial_state: int = 0


@dataclass(frozen=True)
class CircuitState:
    """Discrete memristor states plus continuous capacitor charges."""

    memristor_states: tuple
    capacitor_charges: tuple
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "memristor_states", tuple(int(s) for s in self.memristor_states))
        object.__setattr__(self, "capacitor_charges", tuple(float(q) for q in self.capacitor_charges))


@dataclass(frozen=True)
class OperatingPoint:
    node_voltages: dict          # node name -> volts (includes ground)
    memristor_voltages: tuple    # node+ minus node-, per memristor
    charge_derivatives: tuple    # dq/dt per capacitor, coulombs/second


@dataclass(frozen=True)
class Netlist:
    sources: tuple
    resistors: tuple
    capacitors: tuple
    memristors: tuple

    def __post_init__(self):
        names = [c.name for c in self.components()]
        dup = {n for n in names if names.count(n) > 1}
        if dup:
            raise ValueError(f"duplicate component name(s): {sorted(dup)}")
        if not self.components():
            raise ValueError("no components")
        if not self.sources and not any(c.initial_charge != 0.0 for c in self.capacitors):
            raise ValueError(
                "netlist needs at least one voltage source or a fully "
                "specified initial condition (capacitor IC)")
        floating = self.nodes_not_connected_to_ground()
        if floating:
            raise SingularNetworkError(
                f"node(s) not connected to ground: {sorted(floating)}", floating)

    def components(self) -> tuple:
        return self.sources + self.resistors + self.capacitors + self.memristors

    def nodes(self) -> list:
        seen = []
        for c in self.components():
            for n in _terminals(c):
                if n not in seen:
                    seen.append(n)
        return seen

    def nodes_not_connected_to_ground(self) -> set:
        nodes = set(self.nodes())
        nodes.add(GROUND)
        reach = {GROUND}
        frontier = [GROUND]
        adj = {n: set() for n in nodes}
        for c in self.components():
            a, b = _terminals(c)
            adj[a].add(b)
            adj[b].add(a)
        while frontier:
            n = frontier.pop()
            for m in adj[n]:
                if m not in reach:
                    reach.add(m)
                    frontier.append(m)
        return nodes - reach

    def initial_state(self, time: float = 0.0) -> CircuitState:
        return CircuitState(
            tuple(m.initial_state for m in self.memristors),
            tuple(c.initial_charge for c in self.capacitors),
            time,
        )


def _terminals(c) -> tuple:
    if isinstance(c, (VoltageSource, Memristor)):
        return (c.node_plus, c.node_minus)
    return (c.node1, c.node2)


# --------------------------------------------------------------------------
# Parsing

_SI = {"p": 1e-12, "n": 1e-9, "u": 1e-6, "m": 1e-3,
       "k": 1e3, "meg": 1e6, "g": 1e9}
_NUM_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(p|n|u|m|meg|k|g)?$",
                     re.IGNORECASE)


def parse_si(text: str) -> float:
    """Parse a number with an optional SPICE SI suffix ('100k', '1u')."""
    m = _NUM_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a number: {text!r}")
    value = float(m.group(1))
    suffix = m.group(2)
    if suffix:
        value *= _SI[suffix.lower()]
    return value


def _num(tok: str, line: int, col: int, what: str) -> float:
    try:
        return parse_si(tok)
    except ValueError:
        raise NetlistError(f"non-numeric {what}: {tok!r}", line, col) from None


def _num_list(tok: str, line: int, col: int, what: str) -> list:
    return [_num(p, line, col, what) for p in tok.split(",") if p != ""]


def parse_netlist(text: str) -> Netlist:
    """Parse netlist text into a Netlist; raises NetlistError with line
    and column information on malformed input."""
    sources, resistors, capacitors, memristors = [], [], [], []
    any_line = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        any_line = True
        tokens = line.split()
        cols = []
        pos = 0
        for tok in tokens:
            pos = line.index(tok, pos)
            cols.append(pos + 1)
            pos += len(tok)
        name = tokens[0]
        kind = name[0].upper()
        if kind == "V":
            sources.append(_parse_vsource(tokens, cols, lineno))
        elif kind == "R":
            resistors.append(_parse_resistor(tokens, cols, lineno))
        elif kind == "C":
            capacitors.append(_parse_capacitor(tokens, cols, lineno))
        elif kind == "M":
            memristors.append(_parse_memristor(tokens, cols, lineno))
        elif kind == "L":
            raise NetlistError("inductors not supported", lineno, cols[0])
        else:
            raise NetlistError(f"unknown component kind {name!r}", lineno, cols[0])
    if not any_line:
        raise NetlistError("no components")
    try:
        return Netlist(tuple(sources), tuple(resistors),
                       tuple(capacitors), tuple(memristors))
    except SingularNetworkError:
        raise
    except ValueError as exc:
        raise NetlistError(str(exc)) from None


def _expect(tokens, cols, lineno, n, usage):
    if len(tokens) < n:
        raise NetlistError(f"expected {usage}", lineno,
                           cols[-1] + len(tokens[-1]))


def _parse_vsource(tokens, cols, lineno) -> VoltageSource:
    _expect(tokens, cols, lineno, 5, "V<name> <n+> <n-> DC|SIN|PWL <params>")
    name, np_, nm, mode = tokens[0], tokens[1], tokens[2], tokens[3].upper()
    if mode == "DC":
        wave = Waveform.constant(_num(tokens[4], lineno, cols[4], "DC value"))
    elif mode == "SIN":
        _expect(tokens, cols, lineno, 7, "SIN <offset> <amplitude> <hz>")
        wave = Waveform.sine(_num(tokens[4], lineno, cols[4], "SIN offset"),
                             _num(tokens[5], lineno, cols[5], "SIN amplitude"),
                             _num(tokens[6], lineno, cols[6], "SIN frequency"))
    elif mode == "PWL":
        vals = [_num(t, lineno, cols[4 + i], "PWL value")
                for i, t in enumerate(tokens[4:])]
        if len(vals) < 2 or len(vals) % 2:
            raise NetlistError("PWL needs an even number of values (t v pairs)",
                               lineno, cols[3])
        try:
            wave = Waveform.pwl(list(zip(vals[0::2], vals[1::2])))
        except ValueError as exc:
            raise NetlistError(str(exc), lineno, cols[3]) from None
    else:
        raise NetlistError(f"unknown source mode {tokens[3]!r}", lineno, cols[3])
    return VoltageSource(name, np_, nm, wave)


def _parse_resistor(tokens, cols, lineno) -> Resistor:
    _expect(tokens, cols, lineno, 4, "R<name> <n1> <n2> <ohms>")
    r = _num(tokens[3], lineno, cols[3], "resistance")
    if r <= 0:
        raise NetlistError("resistance must be positive", lineno, cols[3])
    return Resistor(tokens[0], tokens[1], tokens[2], r)


def _parse_capacitor(tokens, cols, lineno) -> Capacitor:
    _expect(tokens, cols, lineno, 4, "C<name> <n1> <n2> <farads> [IC=<coulombs>]")
    c = _num(tokens[3], lineno, cols[3], "capacitance")
    if c <= 0:
        raise NetlistError("capacitance must be positive", lineno, cols[3])
    ic = 0.0
    for tok, col in zip(tokens[4:], cols[4:]):
        key, _, val = tok.partition("=")
        if key.upper() == "IC":
            ic = _num(val, lineno, col, "initial charge")
        else:
            raise NetlistError(f"unknown capacitor option {tok!r}", lineno, col)
    return Capacitor(tokens[0], tokens[1], tokens[2], c, ic)


def _parse_memristor(tokens, cols, lineno) -> Memristor:
    _expect(tokens, cols, lineno, 4, "M<name> <n+> <n-> STATES=... R=... ...")
    kv = {}
    for tok, col in zip(tokens[3:], cols[3:]):
        key, eq, val = tok.partition("=")
        if not eq:
            raise NetlistError(f"expected KEY=VALUE, got {tok!r}", lineno, col)
        kv[key.upper()] = (val, col)
    required = ("STATES", "R", "TAUUP", "VUP", "TAUDOWN", "VDOWN")
    for key in required:
        if key not in kv:
            raise NetlistError(f"memristor missing {key}=", lineno, cols[0])
    val, col = kv["STATES"]
    g = int(_num(val, lineno, col, "STATES"))
    lists = {}
    for key in ("R", "TAUUP", "VUP", "TAUDOWN", "VDOWN"):
        val, col = kv[key]
        lists[key] = _num_list(val, lineno, col, key)
    expected = {"R": g, "TAUUP": g - 1, "VUP": g - 1, "TAUDOWN": g - 1, "VDOWN": g - 1}
    for key, n in expected.items():
        if len(lists[key]) != n:
            raise NetlistError(
                f"{key} needs {n} value(s) for STATES={g}, got {len(lists[key])}",
                lineno, kv[key][1])
    state = 0
    if "STATE" in kv:
        val, col = kv["STATE"]
        state = int(_num(val, lineno, col, "STATE"))
        if not 0 <= state < g:
            raise NetlistError(f"STATE={state} out of range [0, {g - 1}]", lineno, col)
    try:
        model = MemristorModel(tuple(lists["R"]), tuple(lists["TAUUP"]),
                               tuple(lists["VUP"]), tuple(lists["TAUDOWN"]),
                               tuple(lists["VDOWN"]))
    except ValueError as exc:
        raise NetlistError(str(exc), lineno, cols[0]) from None
    return Memristor(tokens[0], tokens[1], tokens[2], model, state)


# --------------------------------------------------------------------------
# Serialization (inverse of parse_netlist up to formatting)

def _fmt(x: float) -> str:
    return repr(float(x))


def serialize(netlist: Netlist) -> str:
    lines = []
    for s in netlist.sources:
        w = s.waveform
        if w.kind == "constant":
            lines.append(f"{s.name} {s.node_plus} {s.node_minus} DC {_fmt(w.amplitude)}")
        elif w.kind == "sine":
            lines.append(f"{s.name} {s.node_plus} {s.node_minus} SIN "
                         f"{_fmt(w.offset)} {_fmt(w.amplitude)} {_fmt(w.frequency)}")
        elif w.kind == "pwl":
            pts = " ".join(f"{_fmt(t)} {_fmt(v)}" for t, v in w.breakpoints)
            lines.append(f"{s.name} {s.node_plus} {s.node_minus} PWL {pts}")
        else:  # step has no netlist syntax; emit the equivalent PWL ramp
            eps = max(1e-12, 1e-9 * max(abs(w.t_step), 1.0))
            pts = f"{_fmt(0.0)} {_fmt(w.value_before)} {_fmt(w.t_step)} " \
                  f"{_fmt(w.value_before)} {_fmt(w.t_step + eps)} {_fmt(w.amplitude)}"
            lines.append(f"{s.name} {s.node_plus} {s.node_minus} PWL {pts}")
    for r in netlist.resistors:
        lines.append(f"{r.name} {r.node1} {r.node2} {_fmt(r.resistance)}")
    for c in netlist.capacitors:
        ic = f" IC={_fmt(c.initial_charge)}" if c.initial_charge else ""
        lines.append(f"{c.name} {c.node1} {c.node2} {_fmt(c.capacitance)}{ic}")
    for m in netlist.memristors:
        mo = m.model
        def csv(xs):
            return ",".join(_fmt(x) for x in xs)
        state = f" STATE={m.initial_state}" if m.initial_state else ""
        lines.append(
            f"{m.name} {m.node_plus} {m.node_minus} STATES={mo.num_states} "
            f"R={csv(mo.resistances)} TAUUP={csv(mo.tau_up)} VUP={csv(mo.v_up)} "
            f"TAUDOWN={csv(mo.tau_down)} VDOWN={csv(mo.v_down)}{state}")
    return "\n".join(lines) + "\n"


def series_mc(model: MemristorModel, capacitance: float,
              waveform: Waveform, initial_charge: float = 0.0,
              initial_state: int = 0) -> Netlist:
    """The canonical series source-memristor-capacitor circuit."""
    if capacitance <= 0:
        raise ValueError("capacitance must be positive")
    return Netlist(
        sources=(VoltageSource("V1", "in", GROUND, waveform),),
        resistors=(),
        capacitors=(Capacitor("C1", "n1", GROUND, capacitance, initial_charge),),
        memristors=(Memristor("M1", "in", "n1", model, initial_state),),
    )


# --------------------------------------------------------------------------
# Modified nodal analysis

def solve_operating_point(netlist: Netlist, state: CircuitState) -> OperatingPoint:
    """Solve the instantaneous resistive network.

    Capacitors appear as ideal voltage sources of value q/C, memristors
    as the resistor of their current state.  Returns node voltages, the
    memristor voltage drops used for rate evaluation, and dq/dt (the
    current into each capacitor's positive plate).
    """
    if len(state.memristor_states) != len(netlist.memristors):
        raise ValueError("state/netlist mismatch: memristor count")
    if len(state.capacitor_charges) != len(netlist.capacitors):
        raise ValueError("state/netlist mismatch: capacitor count")
    source_values = [s.waveform(state.time) for s in netlist.sources]
    volts, mem_v, dqdt = _solve_network(netlist, state.memristor_states,
                                        source_values, state.capacitor_charges)
    return OperatingPoint(volts, tuple(mem_v), tuple(dqdt))


def _solve_network(netlist: Netlist, mem_states, source_values, charges):
    """MNA solve with explicit source values and capacitor charges."""
    for m, s in zip(netlist.memristors, mem_states):
        if not 0 <= s < m.model.num_states:
            raise ValueError(f"memristor {m.name}: state {s} out of range")

    node_names = [n for n in netlist.nodes() if n != GROUND]
    index = {n: i for i, n in enumerate(node_names)}
    n = len(node_names)
    branches = list(netlist.sources) + list(netlist.capacitors)
    m = len(branches)
    A = np.zeros((n + m, n + m))
    rhs = np.zeros(n + m)

    def node_idx(name):
        return None if name == GROUND else index[name]

    def stamp_conductance(a, b, g):
        ia, ib = node_idx(a), node_idx(b)
        if ia is not None:
            A[ia, ia] += g
        if ib is not None:
            A[ib, ib] += g
        if ia is not None and ib is not None:
            A[ia, ib] -= g
            A[ib, ia] -= g

    for r in netlist.resistors:
        stamp_conductance(r.node1, r.node2, 1.0 / r.resistance)
    for mem, s in zip(netlist.memristors, mem_states):
        stamp_conductance(mem.node_plus, mem.node_minus,
                          1.0 / mem.model.resistances[s])

    n_src = len(netlist.sources)
    for k, br in enumerate(branches):
        if isinstance(br, VoltageSource):
            a, b = br.node_plus, br.node_minus
            value = source_values[k]
        else:
            a, b = br.node1, br.node2
            value = charges[k - n_src] / br.capacitance
        ia, ib = node_idx(a), node_idx(b)
        row = n + k
        if ia is not None:
            A[ia, row] += 1.0
            A[row, ia] += 1.0
        if ib is not None:
            A[ib, row] -= 1.0
            A[row, ib] -= 1.0
        rhs[row] = value

    try:
        x = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        raise SingularNetworkError(
            "singular network matrix; check for floating subcircuits among "
            f"nodes {node_names}", node_names) from None

    volts = {GROUND: 0.0}
    for name, i in index.items():
        volts[name] = float(x[i])
    mem_v = [volts[mm.node_plus] - volts[mm.node_minus]
             for mm in netlist.memristors]
    dqdt = [float(x[n + n_src + k]) for k in range(len(netlist.capacitors))]
    return volts, mem_v, dqdt


@dataclass(frozen=True)
class AffineDynamics:
    """For a fixed memristor state configuration the resistive network
    is linear, so dq/dt = A q + B vs and vm = Dq q + Ds vs, where q are
    the capacitor charges and vs the instantaneous source voltages."""

    A: np.ndarray   # (K, K)
    B: np.ndarray   # (K, S)
    Dq: np.ndarray  # (M, K)
    Ds: np.ndarray  # (M, S)

    def dqdt(self, q: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self.A @ q + self.B @ vs

    def memristor_voltages(self, q: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self.Dq @ q + self.Ds @ vs


def affine_dynamics(netlist: Netlist, mem_states) -> AffineDynamics:
    """Extract the affine operating-point maps for one state config by
    probing the linear network with unit charges and unit sources."""
    n_cap = len(netlist.capacitors)
    n_src = len(netlist.sources)
    n_mem = len(netlist.memristors)
    A = np.zeros((n_cap, n_cap))
    B = np.zeros((n_cap, n_src))
    Dq = np.zeros((n_mem, n_cap))
    Ds = np.zeros((n_mem, n_src))
    zero_q = [0.0] * n_cap
    zero_s = [0.0] * n_src
    for k in range(n_cap):
        probe = list(zero_q)
        probe[k] = 1.0
        _, vm, dqdt = _solve_network(netlist, mem_states, zero_s, probe)
        A[:, k] = dqdt
        Dq[:, k] = vm
    for s in range(n_src):
        probe = list(zero_s)
        probe[s] = 1.0
        _, vm, dqdt = _solve_network(netlist, mem_states, probe, zero_q)
        B[:, s] = dqdt
        Ds[:, s] = vm
    return AffineDynamics(A, B, Dq, Ds)


def is_single_device(netlist: Netlist) -> bool:
    """One memristor, one capacitor and one source, with any resistors."""
    return (len(netlist.memristors) == 1 and len(netlist.capacitors) == 1
            and len(netlist.sources) == 1)


def _cancelled_sum(a, b):
    """a + b, with sums that cancel to round-off set to 0 (so that vm's
    forced response keeps the sign it has in exact arithmetic)."""
    s = a + b
    return np.where(np.abs(s) <= 4.0 * np.finfo(float).eps * (np.abs(a) + np.abs(b)), 0.0, s)


class DeviceCharge:
    """The capacitor charge of a single device in closed form, per state s
    of its memristor: dq/dt = A[s] q + B[s] v(t) and vm = Dq[s] q + Ds[s]
    v(t), with A <= 0 (A = 0: B = 0, the charge stays put).  Under a constant
    source v the charge relaxes to c v (c = -B / A, 0 where A = 0) and vm to
    u v (u = Dq c + Ds).  In general it is the forced charge q_p plus a
    transient that decays as e^{A t} and at breakpoint bp[b] takes up
    jump[b, s], q_p before less q_p after: under a sine v = off + amp
    sin(wt), q_p = -B off / A + B amp Im[e^{iwt} / (iw - A)]; on a segment
    of another source where v has slope k, q_p = -(B / A)(v + k / A).
    coef[i, j, col]: basis function j's coefficient in q_p (i = 0), vm's
    forced part Dq q_p + Ds v (i = 1) and its derivative (i = 2), with col
    the state under a sine (basis 1, sin wt, cos wt), else segment * G +
    state (basis 1, t - t0[segment], on the source's `segments`)."""

    def __init__(self, A, B, Dq, Ds, waveform: Waveform):
        self.A, self.B, self.Dq, self.Ds = (np.array(x, dtype=float) for x in (A, B, Dq, Ds))
        self.wave, self.G, A = waveform, self.A.size, self.A
        ia = np.divide(1.0, A, out=np.zeros_like(A), where=A < 0.0)
        self.c = -self.B * ia
        self.u = _cancelled_sum(self.Dq * self.c, self.Ds)
        self.sine = waveform.kind == "sine"
        if self.sine:
            self.omega = om = 2.0 * math.pi * waveform.frequency
            den = np.where(A * A + om * om > 0.0, A * A + om * om, 1.0)
            fq = -self.B * np.array([waveform.offset * ia, waveform.amplitude * A / den,
                                     waveform.amplitude * om / den])
            fu = _cancelled_sum(self.Dq * fq,
                                self.Ds * np.array([waveform.offset, waveform.amplitude, 0.0])[:, None])
            self.coef = np.array([fq, fu, om * np.array([0.0 * A, -fu[2], fu[1]])])
            self.bp, self.jump = np.zeros(0), np.zeros((0, self.G))
        else:
            self.t0, v0, k = waveform.segments
            v0, k = v0[:, None], k[:, None]
            fq = -self.B * np.array([ia, ia * ia])
            fu = _cancelled_sum(self.Dq * fq, self.Ds * np.array([1.0, 0.0])[:, None])
            self.coef = np.array([[f[0] * v0 + f[1] * k, f[0] * k] for f in (fq, fu)]
                                 + [[fu[0] * k, 0.0 * k * A]]).reshape(3, 2, -1)
            self.bp = self.t0[1:]
            seg, s, b = np.arange(self.bp.size)[:, None], np.arange(self.G), self.bp[:, None]
            self.jump = self.forced(s, seg, slice(1), b)[0] - self.forced(s, seg + 1, slice(1), b)[0]
        for x in (self.A, self.B, self.Dq, self.Ds, self.c, self.u, self.coef, self.jump):
            x.flags.writeable = False   # shared by every caller of `of`

    @classmethod
    @lru_cache(maxsize=32)
    def of(cls, netlist: Netlist) -> "DeviceCharge":
        """The charge of a single-device netlist (one memristor, one capacitor
        and one source, with any resistors) from one `affine_dynamics` per
        state, kept for the last 32 netlists; NetlistError for any other."""
        if not is_single_device(netlist):
            raise NetlistError("need one memristor, one capacitor and one source")
        dyn = [affine_dynamics(netlist, (i,)) for i in range(netlist.memristors[0].model.num_states)]
        return cls(*np.array([[d.A[0, 0], d.B[0, 0], d.Dq[0, 0], d.Ds[0, 0]] for d in dyn]).T,
                   netlist.sources[0].waveform)

    def segment(self, t):
        """Source segments of times t (0 for all without breakpoints)."""
        return self.bp.searchsorted(t, "right") if self.bp.size else 0

    def forced(self, s, seg, rows, t):
        """The `rows` (a slice of q_p, vm's forced part and its derivative)
        in states s on the source segments seg at times t; where the basis
        is one for all times, per table column first."""
        if self.sine:
            j, basis = s, (np.sin(self.omega * t), np.cos(self.omega * t))
        else:
            j, basis = seg * self.G + s, (t - self.t0[seg],)
        one = np.ndim(basis[0]) == 0
        coef = self.coef[rows] if one else self.coef[rows].take(j, axis=2)
        out = coef[:, 0] + coef[:, 1] * basis[0]
        for i, b in enumerate(basis[1:], 2):
            out += coef[:, i] * b
        return out.take(j, axis=1) if one else out

    def charge(self, state, q, t, s):
        """The charges at times s, earlier or later, on the characteristics
        of `state` through the charges q at times t (q, t and s broadcast)."""
        a = self.A[state]
        out = self._q_p(state, s) + np.exp(a * (s - t)) * (q - self._q_p(state, t))
        if self.bp.size:    # the jumps at the breakpoints between t and s
            b, t, s = self.bp, np.asarray(t)[..., None], np.asarray(s)[..., None]
            sign = ((t < b) & (b <= s)).astype(float) - ((s < b) & (b <= t))
            out += (sign * self.jump[:, state] * np.exp(a * np.where(sign != 0.0, s - b, 0.0))).sum(-1)
        return out

    def _q_p(self, state, t):
        t = np.asarray(t, dtype=float)     # under a sine the state indexes each time's column
        state = np.broadcast_to(state, t.shape) if self.sine else state
        return self.forced(state, self.segment(t), slice(1), t)[0]


def output_grid(t0: float, t_end: float, output_times) -> list:
    """The distinct output times and t_end, ascending, of a run from t0;
    ValueError unless t_end > t0 and every time is finite and in [t0, t_end]."""
    t_end, times = float(t_end), np.asarray(output_times, dtype=float).ravel()
    if not math.isfinite(t_end):
        raise ValueError("t_end must be finite")
    if not np.isfinite(times).all():
        raise ValueError("output times must be finite")
    if not t_end > t0:
        raise ValueError("t_end must exceed the initial time")
    if min(times, default=t_end) < t0:
        raise ValueError("output time before the initial time")
    if max(times, default=t_end) > t_end:
        raise ValueError("output time after t_end")
    return sorted(set(times.tolist()) | {t_end})
