"""Netlist front-end and resistive-network solver.

Circuits are built from voltage sources, resistors, capacitors and
discrete-state stochastic memristors.  For an operating-point solve the
capacitors are replaced by ideal voltage sources of value q/C and each
memristor by the resistor of its current state; the remaining linear
network is solved by modified nodal analysis.  The capacitor charges are
therefore the only continuous state variables, and dq/dt is the current
into each capacitor.

Every way from a netlist to its per-configuration tables runs through this
module: `affine_dynamics` gives the linear maps of a stack of memristor-state
configurations from one MNA system, stamped once per call, and
`DeviceCharge(netlist).add(states)` turns them into closed-form charge rows.

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

import bisect
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
    """Time-dependent source voltage, evaluable at any finite time.

    kind is one of 'constant', 'step', 'sine', 'pwl'.  Every kind is one
    piecewise form: the piecewise-linear `segments` plus amplitude
    sin(omega t), where omega is 0 but for a sine.
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
        if np.isscalar(t):
            bp, t0, v0, k = self._lists
            j = bisect.bisect_right(bp, t)
            v = v0[j] + k[j] * (t - t0[j])
            return v + self.amplitude * math.sin(self.omega * t) if self.omega else v
        t = np.asarray(t, dtype=float)
        v = self._linear(t)
        return (v + self.amplitude * np.sin(self.omega * t) if self.omega else v)[()]

    def bounds(self, t_end: float) -> tuple:
        """(min, max) of the waveform over [0, t_end]: of the piecewise-linear
        part at 0, at t_end and where each segment inside starts, widened by
        |amplitude| under a sine."""
        t0, v0, _ = self.segments
        inside = (t0[1:] > 0.0) & (t0[1:] <= t_end)
        vals = np.concatenate((self._linear(np.array([0.0, t_end])), v0[1:][inside]))
        lo, hi = float(vals.min()), float(vals.max())
        if self.omega:
            lo, hi = lo - abs(self.amplitude), hi + abs(self.amplitude)
        return (lo, hi)

    def breakpoint_times(self) -> tuple:
        """Times where the waveform is non-smooth: the ends of its segments."""
        return tuple(self._lists[0])

    @cached_property
    def segments(self) -> tuple:
        """(t0, v0, k) of the piecewise-linear part: on segment j, the times
        from breakpoint j - 1 (-inf for j = 0) to breakpoint j (inf after
        the last), it is v0[j] + k[j] (t - t0[j]).  A constant or a sine
        has one flat segment, at its value or offset."""
        if self.kind == "pwl":
            ts, vs = np.array(self.breakpoints).T
            k = np.r_[0.0, np.diff(vs) / np.diff(ts), 0.0]
            return np.r_[ts[:1], ts], np.r_[vs[:1], vs], k
        if self.kind == "step":
            return np.full(2, self.t_step), np.array([self.value_before, self.amplitude]), np.zeros(2)
        flat = self.offset if self.kind == "sine" else self.amplitude
        return np.zeros(1), np.array([flat]), np.zeros(1)

    @cached_property
    def omega(self) -> float:
        """Angular frequency of the sine term: 2 pi frequency for a sine, else 0."""
        return 2.0 * math.pi * self.frequency if self.kind == "sine" else 0.0

    @cached_property
    def _lists(self) -> tuple:
        """The breakpoints and the segments as lists, for scalar calls."""
        t0, v0, k = self.segments
        return t0[1:].tolist(), t0.tolist(), v0.tolist(), k.tolist()

    def _linear(self, t):
        """The piecewise-linear part at times t (an array)."""
        t0, v0, k = self.segments
        j = t0[1:].searchsorted(t, "right")
        return v0[j] + k[j] * (t - t0[j])


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
        else:  # step: no netlist syntax; the equal PWL ramp (held before its first point)
            eps = max(1e-12, 1e-9 * max(abs(w.t_step), 1.0))
            pts = f"{_fmt(w.t_step)} {_fmt(w.value_before)} " \
                  f"{_fmt(w.t_step + eps)} {_fmt(w.amplitude)}"
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
    values = state.capacitor_charges + tuple(s.waveform(state.time) for s in netlist.sources)
    volts, mem_v, dqdt = _solve_network(netlist, [state.memristor_states],
                                        np.array(values, dtype=float)[:, None])
    names = [n for n in netlist.nodes() if n != GROUND]
    return OperatingPoint({GROUND: 0.0, **dict(zip(names, volts[0, :, 0].tolist()))},
                          tuple(mem_v[0, :, 0].tolist()), tuple(dqdt[0, :, 0].tolist()))


def _solve_network(netlist: Netlist, states, values):
    """Modified nodal analysis (Ho, Ruehli & Brennan 1975) of the
    configurations states (R, M), with the capacitor charges and then the
    source voltages in the rows of values (K + S, P), one column per
    right-hand side.  The resistors and the branch rows of the sources and
    capacitors (ideal sources of value q/C) are stamped once; each
    configuration adds its memristors' conductances on a copy, in netlist
    order, and one stacked solve follows.  Returns the node voltages
    (R, nodes, P), in the order of `Netlist.nodes` without ground, the
    memristor voltages (R, M, P) and dq/dt (R, K, P)."""
    index = {name: i for i, name in enumerate(n for n in netlist.nodes() if n != GROUND)}
    n, K, S = len(index), len(netlist.capacitors), len(netlist.sources)
    base = np.zeros((n + S + K,) * 2)
    rhs = np.zeros((1, n + S + K) + np.shape(values)[1:])

    def stamp(a, node1, node2, g):
        i, j = index.get(node1), index.get(node2)
        if i is not None:
            a[i, i] += g
        if j is not None:
            a[j, j] += g
        if i is not None and j is not None:
            a[i, j] -= g
            a[j, i] -= g

    for r in netlist.resistors:
        stamp(base, r.node1, r.node2, 1.0 / r.resistance)
    for k, br in enumerate(netlist.sources + netlist.capacitors, start=n):
        for node, sign in zip(_terminals(br), (1.0, -1.0)):
            if node != GROUND:
                base[index[node], k] += sign
                base[k, index[node]] += sign
    rhs[0, n:n + S] = values[K:]
    for k, c in enumerate(netlist.capacitors):
        rhs[0, n + S + k] = values[k] / c.capacitance
    mat = base[None].repeat(len(states), axis=0)
    for a, row in zip(mat, states):
        if len(row) != len(netlist.memristors):
            raise ValueError("state/netlist mismatch: memristor count")
        for m, s in zip(netlist.memristors, row):
            if not 0 <= s < len(m.model.resistances):
                raise ValueError(f"memristor {m.name}: state {s} out of range")
            stamp(a, m.node_plus, m.node_minus, 1.0 / m.model.resistances[s])
    try:
        x = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        raise SingularNetworkError(
            "singular network matrix; check for floating subcircuits among "
            f"nodes {list(index)}", list(index)) from None
    # node+ minus node- of each memristor, with ground in column n
    inc = np.zeros((len(netlist.memristors), n + 1))
    for i, m in enumerate(netlist.memristors):
        inc[i, index.get(m.node_plus, n)] += 1.0
        inc[i, index.get(m.node_minus, n)] -= 1.0
    return x[:, :n], inc[:, :n] @ x[:, :n], x[:, n + S:]


@dataclass(frozen=True)
class AffineDynamics:
    """For each memristor-state configuration r the resistive network is
    linear, so dq/dt = A[r] q + B[r] vs and vm = Dq[r] q + Ds[r] vs, where q
    are the capacitor charges and vs the instantaneous source voltages;
    the configurations run along the leading axis."""

    A: np.ndarray   # (R, K, K)
    B: np.ndarray   # (R, K, S)
    Dq: np.ndarray  # (R, M, K)
    Ds: np.ndarray  # (R, M, S)

    def dqdt(self, q: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self.A @ q + self.B @ vs

    def memristor_voltages(self, q: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self.Dq @ q + self.Ds @ vs


def affine_dynamics(netlist: Netlist, states) -> AffineDynamics:
    """The affine operating-point maps of the configurations states (R, M),
    from one `_solve_network` call that probes the network with unit
    charges and unit sources, one right-hand side each."""
    K = len(netlist.capacitors)
    _, vm, dqdt = _solve_network(netlist, states, np.eye(K + len(netlist.sources)))
    return AffineDynamics(dqdt[..., :K], dqdt[..., K:], vm[..., :K], vm[..., K:])


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
    """Capacitor charges in closed form for the K capacitors, M memristors
    and S sources of a netlist, one table row per memristor-state
    configuration (`add`, from its `affine_dynamics`): dq/dt = A q + B v(t)
    and vm = Dq q + Ds v(t).  The network is reciprocal, so A
    = V diag(lam) V^-1 with real lam <= 0, V's columns scaled to a largest
    entry of magnitude 1 (a single device has V = 1); a mode whose lam and
    drive b are both at round-off is conserved (lam = 0, no forced part),
    and a driven mode that does not decay is a ValueError.  The charge is
    the forced charge q_p plus a transient V y whose modes decay as
    e^{lam x}, and vm = u + (Dq V) y with u = Dq q_p + Ds v, vm's forced
    part.  Per volt of a constant source q_p is c and u is u (= Dq c + Ds).
    Segment j runs up to ends[j], the breakpoints bp of all sources and
    then inf; on it a source is v0 + k (t - t0[j]) (its `Waveform.segments`)
    plus amp sin(wt) where w = omega > 0, and in mode lam q_p is
    -b (v0 + k (t - t0) + k / lam) / lam plus b amp Im[e^{iwt} / (iw - lam)]
    per sine (b = V^-1 B).  Tables keep rows on their last axis:
    coef[i, col, r * len(t0) + j] holds basis function i's coefficients
    (basis: 1, t - t0[j] where a source has slopes, then sin wt and cos wt
    per sine) in q_p, u and u' (col :K, K:K + M and K + M:) on segment j;
    jump[:, r * len(t0) + j] is the transient's jump at ends[j], V^-1 (q_p
    before - q_p after), 0 at inf.  A single device (K = M = S = 1, `of`)
    has one row per state, and its A, B, Dq, Ds, c and u hold one value per
    state."""

    def __init__(self, netlist: Netlist):
        """No rows yet, for the sources and capacitors of `netlist`; the
        capacitances make A symmetric."""
        self.netlist = netlist
        self.waves = tuple(s.waveform for s in netlist.sources)
        self.wave = self.waves[0] if self.waves else None
        K, M, S = len(netlist.capacitors), len(netlist.memristors), len(self.waves)
        self.K, self.M = K, M
        self.sqrt_c = np.sqrt([c.capacitance for c in netlist.capacitors])
        # the sources on the segments: v0 and k per segment, the sines apart
        self.bp = np.array(sorted({b for w in self.waves for b in w.breakpoint_times()}))
        self.ends = np.concatenate((self.bp, [math.inf]))
        starts = np.concatenate(([-math.inf], self.bp))
        self.t0 = np.concatenate((self.bp[:1], self.bp)) if self.bp.size else np.zeros(1)
        self.v0, self.k = np.zeros((2, self.t0.size, S))
        for j, w in enumerate(self.waves):
            t0, v0, k = w.segments
            i = t0[1:].searchsorted(starts, "right")
            self.v0[:, j], self.k[:, j] = v0[i] + k[i] * (self.t0 - t0[i]), k[i]
        self.sine = [j for j, w in enumerate(self.waves) if w.omega]
        self.omega = [self.waves[j].omega for j in self.sine]
        self.slopes = bool(self.k.any())
        nb = 1 + self.slopes + 2 * len(self.sine)       # basis functions
        self.coef, self.jump = np.zeros((nb, K + 2 * M, 0)), np.zeros((K, 0))

    def add(self, states):
        """Rows for the configurations states (R, M), in order; returns their
        `affine_dynamics`, their q_p and u per volt of a constant source, and
        lam, V, V^-1, Dq V and u's curve (a bound on |u''| under the sines),
        rows on the last axis."""
        dyn = affine_dynamics(self.netlist, states)
        A, B, Dq, Ds = dyn.A, dyn.B, dyn.Dq, dyn.Ds
        R, K, M, n = len(A), self.K, self.M, self.t0.size
        c = self.sqrt_c
        # A = -L C^-1 with L symmetric, so C^-1/2 A C^1/2 is symmetric negative
        # semi-definite (its diagonal is A's, exactly)
        sym = A * (c / c[:, None])
        lam, u = np.linalg.eigh(0.5 * (sym + np.swapaxes(sym, 1, 2)))
        scale = np.abs(c[:, None] * u).max(axis=1, keepdims=True, initial=0.0)
        vec, inv = c[:, None] * u / scale, np.swapaxes(scale * u, 1, 2) / c
        err = np.abs(vec * lam[:, None] @ inv - A).max(initial=0.0)
        if err > 1e-9 * np.abs(A).max(initial=0.0):
            raise ValueError("the network is not reciprocal")
        # a mode is conserved where lam and its drive b are both at round-off
        # (a stiff network's slow modes keep theirs); any other mode decays
        b = inv @ B
        small = np.abs(lam) <= 1e-12 * np.abs(lam).max(axis=1, keepdims=True, initial=0.0)
        if small.any():
            still = small & (np.abs(b) <= 1e-12 * (np.abs(inv) @ np.abs(B))).all(axis=2)
            if (small & ~still & (lam >= 0.0)).any():
                raise ValueError("a mode of the network that does not decay is driven")
            lam, b = np.where(still, 0.0, lam), np.where(still[..., None], 0.0, b)
        ia = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam != 0.0)
        # q_p, u and u' per volt of a constant source (resp) and per volt/s
        # of a slope (slope), then on the segments
        cv = vec @ (-ia[..., None] * b)
        uv = _cancelled_sum(Dq @ cv, Ds)
        resp = np.concatenate((cv, uv, np.zeros_like(uv)), axis=1)
        basis = [np.einsum("ris,js->irj", resp, self.v0)]
        if self.slopes:
            cs = vec @ (-(ia * ia)[..., None] * b)
            slope = np.concatenate((cs, Dq @ cs, uv), axis=1)
            basis = [basis[0] + np.einsum("ris,js->irj", slope, self.k),
                     np.einsum("ris,js->irj", resp, self.k)]
        curve = np.zeros((M, R))
        for j, om in zip(self.sine, self.omega):
            amp = self.waves[j].amplitude
            den = lam * lam + om * om
            den = np.where(den > 0.0, den, 1.0)
            qs, qc = (vec @ (-b[..., j] * (amp * x / den))[..., None] for x in (lam, om))
            us_, uc = _cancelled_sum(Dq @ qs, Ds[..., j:j + 1] * amp), Dq @ qc
            curve += (om * om * np.hypot(us_, uc))[..., 0].T
            for part in ((qs, us_, -om * uc), (qc, uc, om * us_)):   # sin wt, cos wt
                basis.append(np.broadcast_to(np.concatenate(part, axis=1).transpose(1, 0, 2),
                                             (K + 2 * M, R, n)))
        coef = np.stack(basis)      # (basis, column, R, n)
        # at ends[j] the transient takes up q_p's jump
        jump = np.zeros((K, R, n))
        if self.bp.size:
            j = np.arange(self.bp.size)
            step = (self._eval(coef[:, :K, :, :-1], j, self.bp)
                    - self._eval(coef[:, :K, :, 1:], j + 1, self.bp))
            jump[..., :-1] = np.einsum("rkl,lrj->krj", inv, step)
        self.coef = np.concatenate((self.coef, coef.reshape(coef.shape[:2] + (R * n,))), axis=-1)
        self.jump = np.concatenate((self.jump, jump.reshape(K, R * n)), axis=-1)
        return dyn, cv, uv, (lam.T, vec.transpose(1, 2, 0), inv.transpose(1, 2, 0),
                             (Dq @ vec).transpose(1, 2, 0), curve)

    @classmethod
    @lru_cache(maxsize=32)
    def of(cls, netlist: Netlist) -> "DeviceCharge":
        """The charge of a single-device netlist (one memristor, one capacitor
        and one source, with any resistors), a row per state, kept for the
        last 32 netlists; NetlistError for any other."""
        if not is_single_device(netlist):
            raise NetlistError("need one memristor, one capacitor and one source")
        dev = cls(netlist)
        d, c, u, _ = dev.add(np.arange(netlist.memristors[0].model.num_states)[:, None])
        dev.A, dev.B, dev.Dq, dev.Ds, dev.c, dev.u = (
            x.reshape(-1) for x in (d.A, d.B, d.Dq, d.Ds, c, u))
        for x in vars(dev).values():
            if isinstance(x, np.ndarray):
                x.flags.writeable = False   # shared by every caller of `of`
        return dev

    def segment(self, t):
        """Segments of times t (0 for all without breakpoints)."""
        return self.bp.searchsorted(t, "right") if self.bp.size else 0

    def forced(self, r, seg, cols, t):
        """The columns `cols` (a slice of q_p, u and u', on the first axis, or
        one of them) of rows r on segments seg at times t (r, seg and t
        broadcast)."""
        t = np.asarray(t, dtype=float)
        at = r * self.t0.size + seg
        if isinstance(cols, slice) and np.ndim(at) < t.ndim:
            at = np.broadcast_to(at, t.shape)
        return self._eval(self.coef[:, cols].take(at, axis=-1), seg, t)

    def _eval(self, coef, seg, t):
        """The forced part with coefficients coef (basis, column, ...) or
        (basis, ...) for one column."""
        if coef.ndim > t.ndim + 1:
            t = t[None]
        out, i = coef[0], 1
        if self.slopes:
            out, i = out + coef[1] * (t - self.t0[seg]), 2
        for om in self.omega:
            wt = om * t
            out = out + coef[i] * np.sin(wt) + coef[i + 1] * np.cos(wt)
            i += 2
        return out

    def charge(self, state, q, t, s):
        """A single device's charges at times s, earlier or later, on the
        characteristics of `state` through the charges q at times t (q, t and
        s broadcast)."""
        a = self.A[state]
        out = self._q_p(state, s) + np.exp(a * (s - t)) * (q - self._q_p(state, t))
        if self.bp.size:    # the jumps at the breakpoints between t and s (V = 1)
            b, t, s = self.bp, np.asarray(t)[..., None], np.asarray(s)[..., None]
            sign = ((t < b) & (b <= s)).astype(float) - ((s < b) & (b <= t))
            jump = self.jump[0, state * self.t0.size:(state + 1) * self.t0.size - 1]
            out += (sign * jump * np.exp(a * np.where(sign != 0.0, s - b, 0.0))).sum(-1)
        return out

    def _q_p(self, state, t):
        return self.forced(state, self.segment(t), 0, t)


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
