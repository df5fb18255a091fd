"""Closed-form results on the single device's closed-form charge that the
PDE and the MC read (`circuit.DeviceCharge`).

`initial_hazard` gives the survival of the initial state of any circuit of
one memristor, one capacitor and one source, any state count, under a
constant or step source: `hazard_integral` of the rate along the relaxing
device voltage, through its sign changes and the rate's ceiling.  For the
binary series circuit (`ConstantDriveParams`): Ei, the no-switching
transport of a charge density along the characteristics
(`DeviceCharge.charge`), the survival under constant drive
(`p0_constant_voltage`, `initial_hazard`'s series case), the mean switching
time, the large-drive asymptote and the unidirectional two-density
solution, whose integrals run on Gauss-Legendre panels over array calls of
`device.switching_rate` or `initial_hazard`.  scipy is imported on first
use: `scipy.special` by Ei, `scipy.integrate` by `Density1D.mass`.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .circuit import DeviceCharge, Netlist, Waveform, series_mc
from .device import MemristorModel, switching_rate

EULER_GAMMA = 0.57721566490153286061


class RegimeError(ValueError):
    """Inputs outside the validity region of a closed-form result."""


def _expi(x):
    from scipy.special import expi
    return expi(x)


# --------------------------------------------------------------------------
# Exponential integral and the hazard of an exponential rate on an RC
# relaxation

def expint_ei(x: float) -> float:
    """Principal-value exponential integral Ei(x), x != 0."""
    x = float(x)
    if x == 0.0:
        raise ValueError("Ei has a logarithmic singularity at x = 0")
    return float(_expi(x))


# 12-point Gauss-Legendre rule on [-1, 1] (numpy.polynomial.legendre.
# leggauss(12), written out: computing it at import initializes LAPACK,
# which costs about 2 MB of resident memory)
_GL_HALF = ((0.1252334085114689, 0.2491470458134027),
            (0.3678314989981802, 0.2334925365383546),
            (0.5873179542866175, 0.20316742672306573),
            (0.7699026741943047, 0.16007832854334642),
            (0.9041172563704748, 0.10693932599531907),
            (0.9815606342467192, 0.04717533638651141))
_GL_NODES = np.array([-x for x, _ in reversed(_GL_HALF)] + [x for x, _ in _GL_HALF])
_GL_WEIGHTS = np.array([w for _, w in reversed(_GL_HALF)] + [w for _, w in _GL_HALF])
# Quadrature replaces the Ei difference when (d1 - d0) * max(|x0|, 1) is
# below this: there the two Ei values cancel, while the integrand's
# exponent varies by less than it.
_GL_SWITCH = 0.05
# 1 / (k k!) for the series of Ei(x) - gamma - ln|x|, k = 1..18
_EIN_COEF = np.array([1.0 / (k * math.factorial(k)) for k in range(1, 19)])


def _ei_log_free(x):
    """Ei(x) - gamma - ln|x| = sum x^k / (k k!), for |x| < 1."""
    p = np.zeros_like(x)
    for c in _EIN_COEF[::-1]:
        p = p * x + c
    return p * x


def _ei_scaled(x):
    """Ei(x) e^{-x} for |x| >= 1; an asymptotic series beyond |x| = 500,
    where Ei over- or underflows."""
    out = np.empty_like(x)
    far = np.abs(x) > 500.0
    near = ~far
    out[near] = _expi(x[near]) * np.exp(-x[near])
    if far.any():
        xf = x[far]
        s = np.ones_like(xf)
        for k in range(8, 0, -1):
            s = 1.0 + s * k / xf
        out[far] = s / xf
    return out


def ei_term(alpha, beta, d):
    """One end of the hazard integral below, at u = d.

    Returns (T, small) with x = beta e^{-d}: for |x| >= 1, T = e^alpha
    Ei(x); for |x| < 1 (small) T = e^alpha (Ei(x) - gamma - ln|beta|),
    which stays finite when x underflows to 0 and is exact for beta = 0."""
    x = beta * np.exp(-d)
    small = np.abs(x) < 1.0
    # e^alpha Ei(x) as a product while neither factor over- or underflows
    direct = ~small & (np.abs(x) <= 500.0) & (np.abs(alpha) <= 200.0)
    scaled = ~small & ~direct
    t = np.empty_like(x)
    with np.errstate(over="ignore", under="ignore"):
        t[small] = np.exp(alpha[small]) * (_ei_log_free(x[small]) - d[small])
        if direct.any():
            t[direct] = np.exp(alpha[direct]) * _expi(x[direct])
        if scaled.any():
            t[scaled] = np.exp(alpha[scaled] + x[scaled]) * _ei_scaled(x[scaled])
    return t, small


def hazard_integral(alpha, beta, d0, d1):
    """I = int_{d0}^{d1} exp(alpha + beta e^{-u}) du, elementwise, d1 >= d0.

    With u = (t - t_s)/tau this is tau_x/tau times the hazard of the rate
    exp(vm/V_x)/tau_x along vm = a + b e^{-(t - t_s)/tau} (alpha = a/V_x,
    beta = b/V_x): the closed form e^alpha [Ei(beta e^{-d0}) - Ei(beta
    e^{-d1})], or one Gauss-Legendre panel where that difference cancels."""
    alpha, beta, d0, d1 = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (alpha, beta, d0, d1)))
    t0, small0 = ei_term(alpha, beta, d0)
    t1, small1 = ei_term(alpha, beta, d1)
    out = t0 - t1
    mixed = small1 & ~small0
    if mixed.any():
        # T1 lacks e^alpha (gamma + ln|beta|); beta != 0 since |x0| >= 1
        out[mixed] -= np.exp(alpha[mixed]) * (EULER_GAMMA + np.log(np.abs(beta[mixed])))
    quad_ = (d1 - d0) * np.maximum(np.abs(beta * np.exp(-d0)), 1.0) < _GL_SWITCH
    if quad_.any():
        with np.errstate(under="ignore"):
            out[quad_] = _panels(lambda u, a, b: np.exp(a + b * np.exp(-u)), d0[quad_],
                                 d1[quad_], 1, alpha[quad_], beta[quad_])
    return out


# --------------------------------------------------------------------------
# Gauss-Legendre panels and bracket search on arrays

# panels of one integral at most; more raise rather than return a value
# that has not met its tolerance
_GL_MAX_PANELS = 512
# a pass of `_crossing` cuts its bracket into _PIECES; _PASSES of them take
# a bracket [0, t] to round-off in t (256^7 = 2^56)
_PIECES, _PASSES = 256, 7
# equal intervals of [0, s] in which `_Switching` looks for the rate's cap
_CAP_SAMPLES = 64


def _panels(fn, a, b, n, *args):
    """The 12-point Gauss-Legendre rule on n equal panels of [a, b] for
    int fn(x, *args) dx, elementwise over a, b and args (which broadcast);
    fn gets the nodes along a new last axis."""
    h = np.asarray((b - a) / n, dtype=float)[..., None]
    x = np.asarray(a)[..., None] + h * (np.arange(n)[:, None] + 0.5 * (_GL_NODES + 1.0)).ravel()
    vals = fn(x, *(np.asarray(p)[..., None] for p in args))
    return 0.5 * h[..., 0] * (vals @ np.tile(_GL_WEIGHTS, n))


def _gauss(fn, a, b, rtol, *args):
    """`_panels` with n = 1, 2, 4, ... panels until n and 2n agree to rtol
    everywhere; RuntimeError if they do not by _GL_MAX_PANELS."""
    n, coarse = 1, _panels(fn, a, b, 1, *args)
    while n < _GL_MAX_PANELS:
        n *= 2
        fine = _panels(fn, a, b, n, *args)
        if np.all(np.abs(fine - coarse) <= rtol * np.abs(fine)):
            return fine
        coarse = fine
    raise RuntimeError(f"Gauss-Legendre panels disagree beyond rtol = {rtol:g} "
                       f"at {n} panels")


def _pieces(fn, lo, hi, cuts, rtol, *args):
    """`_gauss` of fn over [lo, hi], split at the cuts inside it."""
    shape = np.broadcast_shapes(np.shape(lo), np.shape(hi), *map(np.shape, args))
    lo, hi = (np.broadcast_to(np.asarray(x, dtype=float), shape)[..., None] for x in (lo, hi))
    edges = np.concatenate([lo, np.clip(cuts, lo, hi), hi], axis=-1)
    return _gauss(fn, edges[..., :-1], edges[..., 1:], rtol,
                  *(np.asarray(p)[..., None] for p in args)).sum(axis=-1)


def _crossing(g, lo, hi, rising, *args):
    """Where g(x, *args), rising (falling) in x on [lo, hi] elementwise,
    crosses 0: each pass cuts the bracket into _PIECES and keeps the piece
    where g changes sign.  The upper end where g <= 0 (> 0) throughout, the
    lower end where g > 0 (<= 0) throughout."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    inner = np.arange(1, _PIECES) / _PIECES
    for _ in range(_PASSES):
        width = hi - lo
        x = lo[..., None] + width[..., None] * inner
        left = ((g(x, *(np.asarray(p)[..., None] for p in args)) <= 0.0) == rising).sum(axis=-1)
        lo, hi = lo + width * left / _PIECES, lo + width * (left + 1) / _PIECES
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# Parameters and densities

@dataclass(frozen=True)
class ConstantDriveParams:
    """Series binary circuit under constant applied voltage V_a."""

    C: float
    R0: float
    R1: float
    tau0: float
    V0: float
    Va: float
    q0: float = 0.0

    def __post_init__(self):
        for name in ("C", "R0", "R1", "tau0", "V0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def figure2(cls) -> "ConstantDriveParams":
        """The constant-drive parameter point used throughout the tests:
        C = 1 uF, R0 = 100 kOhm, Va = 0.35 V, V0 = 0.02 V, tau0 = 3e5 s,
        q0 = 0.  R1 does not affect the state-occupation probabilities;
        10 kOhm is used wherever a state-1 resistance is needed."""
        return cls(C=1e-6, R0=1e5, R1=1e4, tau0=3e5, V0=0.02, Va=0.35, q0=0.0)

    @property
    def x_drive(self) -> float:
        """Dimensionless initial drive (Va - q0/C) / V0."""
        return (self.Va - self.q0 / self.C) / self.V0

    @functools.cached_property
    def netlist(self) -> Netlist:
        """The series circuit of these parameters (`circuit.series_mc`)."""
        model = MemristorModel.binary(self.R0, self.R1, self.tau0, self.V0)
        return series_mc(model, self.C, Waveform.constant(self.Va), self.q0)


@dataclass(frozen=True)
class Density1D:
    """Charge probability density: an optional smooth part on a support
    interval plus optional symbolic delta components (location, weight).
    """

    fn: Optional[Callable[[float], float]] = None
    support: tuple = (0.0, 0.0)
    deltas: tuple = ()  # ((q, weight), ...)

    @classmethod
    def uniform(cls, q_alpha: float, q_beta: float, mass: float = 1.0) -> "Density1D":
        if q_beta <= q_alpha:
            raise ValueError("need q_beta > q_alpha")
        h = mass / (q_beta - q_alpha)
        return cls(fn=lambda q, a=q_alpha, b=q_beta, h=h:
                   h if a < q < b else 0.0,
                   support=(q_alpha, q_beta))

    @classmethod
    def delta(cls, q0: float, weight: float = 1.0) -> "Density1D":
        return cls(deltas=((float(q0), float(weight)),))

    @classmethod
    def zero(cls) -> "Density1D":
        return cls()

    def __call__(self, q: float) -> float:
        if self.fn is None:
            return 0.0
        lo, hi = self.support
        if q < lo or q > hi:
            return 0.0
        return self.fn(q)

    def mass(self, rtol: float = 1e-9) -> float:
        total = sum(w for _, w in self.deltas)
        if self.fn is not None and self.support[1] > self.support[0]:
            from scipy.integrate import quad
            val, _ = quad(self, self.support[0], self.support[1],
                          epsrel=rtol, epsabs=1e-14, limit=200)
            total += val
        return total

    def max_support(self) -> float:
        """Upper end of the region carrying probability mass."""
        vals = [q for q, w in self.deltas if w != 0.0]
        if self.fn is not None and self.support[1] > self.support[0]:
            vals.append(self.support[1])
        if not vals:
            return -math.inf
        return max(vals)


# --------------------------------------------------------------------------
# RC charge evolution

def rc_charge_wave(q0: float, C: float, R: float, waveform: Waveform,
                   t: float) -> float:
    """General-waveform RC charge at t from q0 at time 0, in closed form:
    q0 e^{-t/(CR)} plus the convolution of V with the exponential kernel,
    read from the `DeviceCharge` of the series circuit of a memristor of
    resistance R in both states."""
    if t < 0:
        raise ValueError("t must be >= 0")
    rc = DeviceCharge.of(series_mc(MemristorModel.binary(R, R, 1.0, 1.0), C, waveform))
    return float(rc.charge(0, q0, 0.0, t))


# --------------------------------------------------------------------------
# No-switching transport

def no_switch_density(f: Density1D, R: float, C: float,
                      waveform: Waveform, t: float) -> Density1D:
    """Transport an initial density along the RC characteristics with
    switching off: p(q, t) = e^{t/(CR)} f((q - q_z) e^{t/(CR)}), where q_z
    is the charge at t of the characteristic that starts at 0.

    The change of variables preserves total mass exactly; the support
    contracts by e^{-t/(CR)} while drifting toward the driven charge.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return f
    b = math.exp(-t / (C * R))
    qz = rc_charge_wave(0.0, C, R, waveform, t)
    # a delta at q0 moves along the deterministic RC trajectory
    deltas = tuple((q0 * b + qz, w) for q0, w in f.deltas)
    fn = None
    support = (0.0, 0.0)
    if f.fn is not None:
        lo, hi = f.support
        support = (lo * b + qz, hi * b + qz)
        fn = lambda q, b=b, qz=qz, f=f: f((q - qz) / b) / b
    return Density1D(fn=fn, support=support, deltas=deltas)


# --------------------------------------------------------------------------
# Survival of the initial state of a single-device netlist

def _piecewise_constant(w: Waveform) -> bool:
    return not w.omega and not np.any(w.segments[2])


def _capped_integral(a, y, top, d0, d1):
    """int_{d0}^{d1} min(e^{a + y e^{-u}}, e^top) du, elementwise, d1 >= d0.
    The exponent is monotone in u, so the cap binds up to d_cap where it
    falls (y >= 0) and from d_cap on where it rises (y < 0)."""
    z = top - a
    falling = y >= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        d_cap = np.where(np.where(falling, z > 0.0, z < 0.0), np.log(y / z), np.inf)
    c = np.clip(d_cap, d0, d1)
    lo, hi = np.where(falling, c, d0), np.where(falling, d1, c)
    h = np.exp(top) * (d1 - d0 - (hi - lo))
    live = hi > lo
    if live.any():
        h[live] += hazard_integral(a[live], y[live], lo[live], hi[live])
    return h


def _piece_hazard(vm_inf, b, A, laws, top, ceiling, dt):
    """The hazard over [0, dt] of one piece, on which vm = vm_inf + b e^{-d}
    with d = -A t: the up law (column 0 of laws, top) where vm > 0, the
    down law where vm < 0, split where vm changes sign, at d_sign =
    ln(-b / vm_inf) (0 where it does not and vm_inf != 0: vm has vm_inf's
    sign throughout); A = 0 (cut off) keeps vm and the rate constant."""
    vm0 = vm_inf + b
    if A == 0.0:
        return switching_rate(vm0, *(np.where(vm0 > 0.0, x[0], x[1]) for x in laws),
                              ceiling) * dt
    d = -A * dt + 0.0 * b       # over the broadcast of times and charges
    d_sign = d if vm_inf == 0.0 else np.minimum(np.log(np.maximum(-b / vm_inf, 1.0)), d)
    # vm has the sign of vm0 on [0, d_sign] and that of vm_inf on [d_sign, d]
    sign = np.sign([vm0 + 0.0 * d, vm_inf + 0.0 * d])
    v, tau, cap = (np.where(sign > 0.0, x[0], x[1]) for x in (*laws, top))
    h = _capped_integral(sign * vm_inf / v, sign * b / v, cap,
                         np.stack([0.0 * d, d_sign]), np.stack([d_sign, d]))
    return np.where(sign != 0.0, h / tau, 0.0).sum(axis=0) / -A


def initial_hazard(netlist: Netlist, t, q0=None) -> np.ndarray:
    """The hazard H(t) of leaving the initial state s of a single-device
    netlist (one memristor, one capacitor, one source, any resistors), at
    times t from the capacitor charge q0 (default its IC); t and q0
    broadcast.  exp(-H) is the survival of state s.  The circuit enters
    through its `circuit.DeviceCharge`: under a constant source vm(t)
    = vm_inf + (vm0 - vm_inf) e^{A_s t}, vm = Dq_s q + Ds_s V, and the
    hazard is `hazard_integral` of the up law where vm > 0 and the down law
    where vm < 0, with the rate ceiling and the exponent cut at 700 of
    `device.switching_rate`.  A step source (or a PWL of flat segments)
    runs piece by piece.  RegimeError for a sine or a sloped PWL source,
    NetlistError for any other netlist."""
    dev = DeviceCharge.of(netlist)
    (mem,), (src,), (cap,) = netlist.memristors, netlist.sources, netlist.capacitors
    model, s, w = mem.model, mem.initial_state, src.waveform
    if not _piecewise_constant(w):
        raise RegimeError(f"source {src.name} is a {w.kind} source with slopes: the "
                          "closed-form survival needs a constant or piecewise-constant one")
    A, Dq, q_inf, vm_inf = dev.A[s], dev.Dq[s], dev.c[s], dev.u[s]   # the last two per volt
    laws = model.transitions[:, [s, model.num_states + s]]     # (V, tau) of up and down
    top = np.minimum(math.log(model.rate_ceiling) + np.log(laws[1]), 700.0)
    t = np.asarray(t, dtype=float)
    q = np.asarray(cap.initial_charge if q0 is None else q0, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be >= 0")
    # one piece per source segment, from the charge at its start
    starts = [0.0] + [b for b in w.breakpoint_times() if b > 0.0]
    h = 0.0
    for t0, t1 in zip(starts, starts[1:] + [math.inf]):
        v = w(t0)
        dt = np.clip(t - t0, 0.0, t1 - t0)
        h = h + _piece_hazard(vm_inf * v, Dq * (q - q_inf * v), A, laws, top,
                              model.rate_ceiling, dt)
        if t1 < math.inf:   # relaxed towards q_inf v up to t1, before q_p's jump there
            q = q_inf * v + (q - q_inf * v) * math.exp(A * (t1 - t0))
    return h


# --------------------------------------------------------------------------
# Constant-voltage closed forms of the series circuit

def _check_unidirectional(params: ConstantDriveParams):
    if params.Va - params.q0 / params.C <= 0:
        raise RegimeError(
            "unidirectional regime requires Va - q0/C > 0 "
            f"(got Va={params.Va}, q0/C={params.q0 / params.C})")


def p0_constant_voltage(params: ConstantDriveParams, t: float) -> float:
    """Probability of no switching event up to time t under constant
    drive: exp{-(C R0/tau0) [Ei(x) - Ei(x e^{-t/(C R0)})]} with
    x = (Va - q0/C)/V0 (1 if x <= 0: state 0 has no down law)."""
    return math.exp(-accumulated_hazard(params, t))


def p1_constant_voltage(params: ConstantDriveParams, t: float) -> float:
    return 1.0 - p0_constant_voltage(params, t)


def switching_rate_at(params: ConstantDriveParams, t):
    """Instantaneous 0->1 rate along the unswitched trajectory, at times t
    (a float or an array): gamma(t) = exp(x e^{-t/(C R0)}) / tau0."""
    x = params.x_drive
    return np.exp(x * np.exp(-np.asarray(t) / (params.C * params.R0))) / params.tau0


def accumulated_hazard(params: ConstantDriveParams, t: float) -> float:
    """Integral of the 0->1 rate along the unswitched trajectory; the
    survival probability is exp(-hazard).  `initial_hazard` of the series
    netlist, so it stays finite where the survival probability underflows."""
    return float(initial_hazard(params.netlist, t))


def mean_switching_time(params: ConstantDriveParams, t_star: float,
                        rtol: float = 1e-9) -> float:
    """Mean switching time <T1> = (1/p1(t*)) int_0^{t*} t dp1/dt dt.

    Evaluated both directly (dp1/dt = p0 gamma) and via integration by
    parts (t* - (1/p1(t*)) int p1 dt), each on Gauss-Legendre panels to
    rtol over array calls of `initial_hazard`, cut at 1e-3, 1e-2, 0.1 and 1
    times C R0; the two routes must agree to 1e-6 relative or a ValueError
    is raised.
    """
    if t_star <= 0:
        raise ValueError("t_star must be positive")
    _check_unidirectional(params)
    p1_end = p1_constant_voltage(params, t_star)
    if p1_end <= 0.0:
        raise RegimeError("p1(t_star) = 0; mean switching time undefined")
    tc, net = params.C * params.R0, params.netlist
    hint = [p for p in (1e-3 * tc, 1e-2 * tc, 0.1 * tc, tc) if 0 < p < t_star]

    direct = _pieces(lambda t: t * np.exp(-initial_hazard(net, t)) * switching_rate_at(params, t),
                     0.0, t_star, hint, rtol) / p1_end
    tail = _pieces(lambda t: -np.expm1(-initial_hazard(net, t)), 0.0, t_star, hint, rtol)
    by_parts = t_star - tail / p1_end
    if abs(direct - by_parts) > 1e-6 * max(abs(direct), abs(by_parts)):
        raise ValueError(
            f"quadrature routes disagree: {direct} vs {by_parts}")
    return float(direct)


def p0_asymptotic(params: ConstantDriveParams) -> float:
    """Large-drive approximation of the no-switch probability:
    exp[-(C R0/tau0) e^x / (x - 1)], x = (Va - q0/C)/V0 >> 1."""
    _check_unidirectional(params)
    x = params.x_drive
    if x <= 1.0:
        raise RegimeError(f"asymptotic form singular for x <= 1 (x = {x})")
    if x < 5.0:
        warnings.warn(f"asymptotic no-switch probability requested at x = {x} < 5; "
                      "accuracy degrades", stacklevel=2)
    return math.exp(-(params.C * params.R0 / params.tau0) * math.exp(x) / (x - 1.0))


# --------------------------------------------------------------------------
# Unidirectional-switching general solution

class _Switching:
    """The integrals of the unidirectional solution up to time t: the
    state-0 and state-1 characteristics, the 0 -> 1 rate along them and
    the hazard it accumulates, on Gauss-Legendre panels to rtol.  The
    circuit enters through the `DeviceCharge` of `series_mc(model, C,
    waveform)`."""

    def __init__(self, model: MemristorModel, C: float, waveform: Waveform,
                 t: float, rtol: float):
        self.model, self.w, self.t, self.rtol = model, waveform, t, rtol
        self.net = series_mc(model, C, waveform)
        self.dev = DeviceCharge.of(self.net)
        self.paths = tuple(functools.partial(self.dev.charge, i) for i in (0, 1))

    def vm(self, s, q):
        """The device voltage Dq q + Ds V(s) at times s and charges q."""
        return self.dev.Dq[0] * q + self.dev.Ds[0] * self.w(s)

    def rate(self, s, q):
        """The 0 -> 1 rate at times s and charges q (0 where vm <= 0)."""
        return switching_rate(np.maximum(self.vm(s, q), 0.0), *self.model.transitions[:, 0],
                              self.model.rate_ceiling)

    def hazard(self, q, s):
        """The hazard accumulated over [0, s] along the state-0
        characteristics through (q, s): the closed form `initial_hazard`
        under a piecewise-constant source, else panels of the rate, cut at
        the source's breakpoints and where the rate meets its cap."""
        p0 = self.paths[0]
        if _piecewise_constant(self.w):
            return initial_hazard(self.net, s, p0(q, s, 0.0))
        return _pieces(lambda u, q, s: self.rate(u, p0(q, s, u)), 0.0, s,
                       self._cuts(p0, q, s, 0.0, s), self.rtol, q, s)

    def _cuts(self, path, q, s, lo, hi):
        """The source's breakpoints and where the up exponent vm / V along
        the characteristics `path` (one of `paths`) through (q, s) crosses
        its cap, ln(ceiling tau) or 700, on [lo, hi], ascending: the
        crossings by `_crossing`, in each of _CAP_SAMPLES equal intervals at
        whose ends the sign of the difference differs, padded with hi to the
        most of any element."""
        v, tau = self.model.transitions[:, 0]
        top = min(math.log(self.model.rate_ceiling) + math.log(tau), 700.0)

        def over(u, q, s, d):   # d (vm / V - top), with d = +-1: rising in u
            return d * (self.vm(u, path(q, s, u)) / v - top)

        q, s, lo, hi = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (q, s, lo, hi)))
        u = lo[..., None] + (hi - lo)[..., None] * np.linspace(0.0, 1.0, _CAP_SAMPLES + 1)
        above = over(u, q[..., None], s[..., None], 1.0) > 0.0
        change = above[..., 1:] != above[..., :-1]
        cut = np.repeat(hi[..., None], change.sum(axis=-1).max(initial=0), axis=-1)
        if change.any():    # an element's n-th crossing is its cut n
            *at, _ = np.nonzero(change)
            cut[(*at, np.cumsum(change, axis=-1)[change] - 1)] = _crossing(
                over, u[..., :-1][change], u[..., 1:][change], True,
                *(np.broadcast_to(x[..., None], change.shape)[change] for x in (q, s)),
                np.where(above[..., 1:][change], 1.0, -1.0))
        bp = np.broadcast_to(self.dev.bp, s.shape + self.dev.bp.shape)
        return np.sort(np.concatenate((bp, cut), axis=-1), axis=-1)

    def switched(self, f: Density1D, q):
        """State-1 density at (q, t) of the smooth f's mass switched at ts
        in [0, t]: int rate e^{-A_1 (t - ts)} p0(Q1(ts), ts) dts along the
        state-1 characteristic Q1 through (q, t).  p0 is non-zero where the
        state-0 characteristic through (Q1(ts), ts) starts inside f's
        support, and that start is monotone in ts (vm > 0): `_crossing`
        finds where it crosses the support's edges.  The panels are cut at
        the source's breakpoints and where the rate along Q1 meets its cap."""
        p0, p1 = self.paths
        t, (a0, a1), (b0, b1) = self.t, self.dev.A[:2], self.dev.B[:2]
        fvals = np.vectorize(f, otypes=[float])

        rising = b1 > b0
        ends = _crossing(lambda ts, q, edge: p0(p1(q, t, ts), ts, 0.0) - edge, 0.0, t, rising,
                         np.asarray(q)[..., None], np.array(f.support))
        lo, hi = (ends[..., 0], ends[..., 1]) if rising else (ends[..., 1], ends[..., 0])
        hi = np.maximum(lo, hi)

        def integrand(ts, q):
            qs = p1(q, t, ts)
            p0_value = np.exp(-a0 * ts) * fvals(p0(qs, ts, 0.0)) * np.exp(-self.hazard(qs, ts))
            return self.rate(ts, qs) * np.exp(a1 * (ts - t)) * p0_value

        return _pieces(integrand, lo, hi, self._cuts(p1, q, t, lo, hi), self.rtol, q)

    def delta_source(self, q_init: float, weight: float) -> tuple:
        """State-1 density produced by a state-0 delta of given weight.

        Mass switching at time ts leaves the deterministic state-0
        trajectory q0(ts) and rides the state-1 characteristic to time t.
        If the states' drifts differ the arrival position is monotone in
        ts and the result is a smooth density; if they are equal all
        switched mass arrives at the same point and stays a delta.
        Returns (density, delta)."""
        p0, p1 = self.paths
        t, (a0, a1), (b0, b1) = self.t, self.dev.A[:2], self.dev.B[:2]

        def arrival(ts):        # position at t of mass that switched at ts
            return p1(p0(q_init, 0.0, ts), ts, t)

        if abs(a0 - a1) <= 1e-12 * abs(a0) and abs(b0 - b1) <= 1e-12 * abs(b0):
            # switched mass shares the unswitched trajectory
            q_t = p0(q_init, 0.0, t)
            return None, (float(arrival(t)), weight * (1.0 - math.exp(-float(self.hazard(q_t, t)))))
        lo, hi = sorted((float(arrival(0.0)), float(arrival(t))))

        def density(q):
            ts = _crossing(lambda s, q: arrival(s) - q, 0.0, t, b0 > b1, q)
            qs = p0(q_init, 0.0, ts)
            # d(arrival)/dts: the state-1 flow of the drifts' difference
            jac = np.abs(np.exp(a1 * (t - ts)) * ((a0 - a1) * qs + (b0 - b1) * self.w(ts)))
            value = weight * self.rate(ts, qs) * np.exp(-self.hazard(qs, ts)) / jac
            return np.where((lo <= q) & (q <= hi), value, 0.0)

        return density, None


def unidirectional_densities(f: Density1D, g: Density1D,
                             model: MemristorModel, C: float,
                             waveform: Waveform, t: float,
                             rtol: float = 1e-8) -> tuple:
    """Solve the coupled densities when only 0->1 transitions can occur
    (all mass in the region q < C V(s) throughout [0, t]).

    p0 is the no-switching transport of f damped by the accumulated
    hazard along each characteristic; p1 is the transport of g plus the
    source term integrating the switched flux over switch times.  Delta
    initial conditions are handled symbolically and reduce, for constant
    drive, to the exact Ei-weighted delta transport.  The integrals meet
    rtol on Gauss-Legendre panels or raise RuntimeError.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    r0, r1 = model.resistances[0], model.resistances[1]
    sw = _Switching(model, C, waveform, t, rtol)
    upper = max(f.max_support(), g.max_support())
    # while vm > 0 on it, the path of the top charge through the smaller
    # resistance bounds every path, switched or not
    top, slow = sw.paths if r0 < r1 else sw.paths[::-1]
    if upper > -math.inf:
        s = np.union1d(np.linspace(0.0, t, 1025), np.clip(sw.dev.bp, 0.0, t))
        bad = sw.vm(s, top(upper, 0.0, s)) <= 0.0
        if bad.any():
            raise RegimeError(
                f"mass reaches q >= C V(t) first at t = {s[np.argmax(bad)]:g} s; "
                "unidirectional solution invalid there")
    if t == 0.0:
        return f, g

    # ---- state 0: transported f times the survival factor
    transported_f = no_switch_density(f, r0, C, waveform, t)
    p0_deltas = tuple((qd, w * math.exp(-float(sw.hazard(qd, t))))
                      for qd, w in transported_f.deltas)
    p0_fn = None
    if transported_f.fn is not None:
        def p0_fn(q, tf=transported_f):
            base = tf(q)
            return base * math.exp(-float(sw.hazard(q, t))) if base != 0.0 else 0.0
    p0 = Density1D(fn=p0_fn, support=transported_f.support, deltas=p0_deltas)

    # ---- state 1: transported g plus the mass switched out of state 0
    transported_g = no_switch_density(g, r1, C, waveform, t)
    p1_deltas = list(transported_g.deltas)
    source_fns = [lambda q: sw.switched(f, q)] if f.fn is not None else []
    for qd0, w in f.deltas:
        smooth, delta = sw.delta_source(qd0, w)
        if smooth is not None:
            source_fns.append(smooth)
        if delta is not None:
            p1_deltas.append(delta)

    p1_fn = None
    support1 = transported_g.support
    if source_fns or transported_g.fn is not None:
        # while vm > 0 every path rises no slower than through max(R0, R1):
        # the paths of the lowest start through it and of the top one
        # through min(R0, R1) bound p1's mass
        starts = ([qd for qd, _ in f.deltas] + [f.support[0]] * (f.fn is not None)
                  + [g.support[0]] * (g.fn is not None))
        support1 = (float(slow(min(starts), 0.0, t)),
                    float(top(upper, 0.0, t)))

        def p1_fn(q, tg=transported_g, fns=tuple(source_fns)):
            return tg(q) + sum(float(fn(q)) for fn in fns)

    p1 = Density1D(fn=p1_fn, support=support1, deltas=tuple(p1_deltas))
    return p0, p1
