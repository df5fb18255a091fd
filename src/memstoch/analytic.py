"""Closed-form results for the series binary memristor-capacitor circuit.

Contains Ei and the hazard of an exponential rate along an RC relaxation,
the RC charge trajectory, the no-switching
transport of a charge density along the circuit's characteristics, and the
unidirectional-switching solutions: exact survival under constant drive, the
mean switching time, the large-drive asymptotic no-switch probability and the
general two-density quadrature solution.  scipy is imported on first use:
`scipy.special` by Ei, `scipy.integrate` and `scipy.optimize` by the other
closed forms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .circuit import Waveform
from .device import MemristorModel

EULER_GAMMA = 0.57721566490153286061


class RegimeError(ValueError):
    """Inputs outside the validity region of a closed-form result."""


def _expi(x):
    from scipy.special import expi
    return expi(x)


def _quad(*args, **kwargs):
    from scipy.integrate import quad
    return quad(*args, **kwargs)


def _brentq(*args, **kwargs):
    from scipy.optimize import brentq
    return brentq(*args, **kwargs)


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

    Returns (T, small, rate, noise) with x = beta e^{-d} and rate =
    exp(alpha + x).  For |x| >= 1, T = e^alpha Ei(x); for |x| < 1 (small)
    T = e^alpha (Ei(x) - gamma - ln|beta|), which stays finite when x
    underflows to 0 and is exact for beta = 0.  noise / eps bounds the
    rounding error of T, which the rounding of alpha and x sets."""
    x = beta * np.exp(-d)
    small = np.abs(x) < 1.0
    # e^alpha Ei(x) as a product while neither factor over- or underflows
    direct = ~small & (np.abs(x) <= 500.0) & (np.abs(alpha) <= 200.0)
    scaled = ~small & ~direct
    t = np.empty_like(x)
    cond = 1.0 + np.abs(alpha) + np.abs(x)
    with np.errstate(over="ignore", under="ignore"):
        rate = np.exp(alpha + x)
        t[small] = np.exp(alpha[small]) * (_ei_log_free(x[small]) - d[small])
        if direct.any():
            xu, inv = np.unique(x[direct], return_inverse=True)
            t[direct] = np.exp(alpha[direct]) * _expi(xu)[inv]
        if scaled.any():
            t[scaled] = rate[scaled] * _ei_scaled(x[scaled])
    return t, small, rate, np.abs(t) * cond


def hazard_integral(alpha, beta, d0, d1):
    """I = int_{d0}^{d1} exp(alpha + beta e^{-u}) du, elementwise, d1 >= d0.

    With u = (t - t_s)/tau this is tau_x/tau times the hazard of the rate
    exp(vm/V_x)/tau_x along vm = a + b e^{-(t - t_s)/tau} (alpha = a/V_x,
    beta = b/V_x): the closed form e^alpha [Ei(beta e^{-d0}) - Ei(beta
    e^{-d1})], or Gauss-Legendre where that difference cancels.

    Returns (I, scale, rate_end): |I - exact| is a few eps * scale, the
    rounding of the terms I was formed from; rate_end = exp(alpha +
    beta e^{-d1}) is dI/dd1."""
    alpha, beta, d0, d1 = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (alpha, beta, d0, d1)))
    t0, small0, _, noise0 = ei_term(alpha, beta, d0)
    t1, small1, rate1, noise1 = ei_term(alpha, beta, d1)
    out = t0 - t1
    scale = noise0 + noise1
    mixed = small1 & ~small0
    if mixed.any():
        # T1 lacks e^alpha (gamma + ln|beta|); beta != 0 since |x0| >= 1
        am = alpha[mixed]
        k = np.exp(am) * (EULER_GAMMA + np.log(np.abs(beta[mixed])))
        out[mixed] -= k
        scale[mixed] += np.abs(k) * (1.0 + np.abs(am))
    width = d1 - d0
    abs_x0 = np.abs(beta * np.exp(-d0))
    quad_ = width * np.maximum(abs_x0, 1.0) < _GL_SWITCH
    if quad_.any():
        a, b, lo, w = alpha[quad_], beta[quad_], d0[quad_], width[quad_]
        acc = np.zeros_like(a)
        with np.errstate(under="ignore"):
            for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
                u = lo + 0.5 * w * (node + 1.0)
                acc += weight * np.exp(a + b * np.exp(-u))
        out[quad_] = 0.5 * w * acc
        scale[quad_] = out[quad_] * (1.0 + np.abs(a) + abs_x0[quad_])
    return out, scale, rate1


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
            val, _ = _quad(self, self.support[0], self.support[1],
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

def rc_charge(params: ConstantDriveParams, R: float, t: float) -> float:
    """Capacitor charge under constant drive through resistance R:
    q0 e^{-t/(CR)} + Va C (1 - e^{-t/(CR)})."""
    if t < 0:
        raise ValueError("t must be >= 0")
    e = math.exp(-t / (params.C * R))
    return params.q0 * e + params.Va * params.C * (1.0 - e)


def rc_charge_wave(q0: float, C: float, R: float, waveform: Waveform,
                   t: float, rtol: float = 1e-9) -> float:
    """General-waveform RC charge: q0 e^{-t/(CR)} plus the convolution
    of V with the exponential kernel, by adaptive quadrature."""
    if t < 0:
        raise ValueError("t must be >= 0")
    tc = C * R
    if t == 0.0:
        return q0
    if waveform.is_constant():
        e = math.exp(-t / tc)
        return q0 * e + waveform.amplitude * C * (1.0 - e)
    pts = [p for p in waveform.breakpoint_times() if 0.0 < p < t] or None
    integral, _ = _quad(lambda tau: math.exp((tau - t) / tc) * waveform(tau) / R,
                        0.0, t, epsrel=rtol, epsabs=1e-16, limit=400, points=pts)
    return q0 * math.exp(-t / tc) + integral


def _char_shift(R: float, C: float, waveform: Waveform, t: float,
                rtol: float = 1e-9) -> float:
    """S(t) = int_0^t e^{tau/(CR)} V(tau)/R dtau (characteristics shift)."""
    tc = C * R
    if waveform.is_constant():
        return waveform.amplitude * C * (math.exp(t / tc) - 1.0)
    pts = [p for p in waveform.breakpoint_times() if 0.0 < p < t] or None
    val, _ = _quad(lambda tau: math.exp(tau / tc) * waveform(tau) / R,
                   0.0, t, epsrel=rtol, epsabs=1e-16, limit=400, points=pts)
    return val


# --------------------------------------------------------------------------
# No-switching transport

def no_switch_density(f: Density1D, R: float, C: float,
                      waveform: Waveform, t: float,
                      rtol: float = 1e-9) -> Density1D:
    """Transport an initial density along the RC characteristics with
    switching off: p(q, t) = e^{t/(CR)} f(q e^{t/(CR)} - S(t)).

    The change of variables preserves total mass exactly; the support
    contracts by e^{-t/(CR)} while drifting toward the driven charge.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return f
    a = math.exp(t / (C * R))
    s = _char_shift(R, C, waveform, t, rtol)
    # a delta at q0 moves along the deterministic RC trajectory
    deltas = tuple(((q0 + s) / a, w) for q0, w in f.deltas)
    fn = None
    support = (0.0, 0.0)
    if f.fn is not None:
        lo, hi = f.support
        support = ((lo + s) / a, (hi + s) / a)
        fn = lambda q, a=a, s=s, f=f: a * f(q * a - s)
    return Density1D(fn=fn, support=support, deltas=deltas)


# --------------------------------------------------------------------------
# Constant-voltage closed forms

def _check_unidirectional(params: ConstantDriveParams):
    if params.Va - params.q0 / params.C <= 0:
        raise RegimeError(
            "unidirectional regime requires Va - q0/C > 0 "
            f"(got Va={params.Va}, q0/C={params.q0 / params.C})")


def p0_constant_voltage(params: ConstantDriveParams, t: float) -> float:
    """Probability of no switching event up to time t under constant
    drive: exp{-(C R0/tau0) [Ei(x) - Ei(x e^{-t/(C R0)})]} with
    x = (Va - q0/C)/V0."""
    return math.exp(-accumulated_hazard(params, t))


def p1_constant_voltage(params: ConstantDriveParams, t: float) -> float:
    return 1.0 - p0_constant_voltage(params, t)


def switching_rate_at(params: ConstantDriveParams, t: float) -> float:
    """Instantaneous 0->1 rate along the unswitched trajectory:
    gamma(t) = exp(x e^{-t/(C R0)}) / tau0."""
    x = params.x_drive
    return math.exp(x * math.exp(-t / (params.C * params.R0))) / params.tau0


def accumulated_hazard(params: ConstantDriveParams, t: float) -> float:
    """Integral of the 0->1 rate along the unswitched trajectory; the
    survival probability is exp(-hazard).  Computed directly, so it stays
    finite where the survival probability underflows."""
    _check_unidirectional(params)
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    tc = params.C * params.R0
    integral, _, _ = hazard_integral(0.0, params.x_drive, 0.0, t / tc)
    return tc / params.tau0 * float(integral[0])


def mean_switching_time(params: ConstantDriveParams, t_star: float,
                        rtol: float = 1e-9) -> float:
    """Mean switching time <T1> = (1/p1(t*)) int_0^{t*} t dp1/dt dt.

    Evaluated both directly (dp1/dt = p0 gamma) and via integration by
    parts (t* - (1/p1(t*)) int p1 dt); the two routes must agree to 1e-6
    relative or a ValueError is raised.
    """
    if t_star <= 0:
        raise ValueError("t_star must be positive")
    _check_unidirectional(params)
    p1_end = p1_constant_voltage(params, t_star)
    if p1_end <= 0.0:
        raise RegimeError("p1(t_star) = 0; mean switching time undefined")
    tc = params.C * params.R0
    hint = [p for p in (1e-3 * tc, 1e-2 * tc, 0.1 * tc, tc) if 0 < p < t_star] or None

    def dp1dt(t):
        return p0_constant_voltage(params, t) * switching_rate_at(params, t)

    direct, _ = _quad(lambda t: t * dp1dt(t), 0.0, t_star,
                      epsrel=rtol, epsabs=1e-16, points=hint, limit=400)
    direct /= p1_end
    tail, _ = _quad(lambda t: p1_constant_voltage(params, t), 0.0, t_star,
                    epsrel=rtol, epsabs=1e-16, points=hint, limit=400)
    by_parts = t_star - tail / p1_end
    if abs(direct - by_parts) > 1e-6 * max(abs(direct), abs(by_parts)):
        raise ValueError(
            f"quadrature routes disagree: {direct} vs {by_parts}")
    return direct


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

def _backward_charge(q: float, t: float, t_ref: float, R: float, C: float,
                     waveform: Waveform, rtol: float) -> float:
    """Charge at time t_ref on the RC characteristic (resistance R)
    passing through (q, t)."""
    tc = C * R
    if waveform.is_constant():
        cv = C * waveform.amplitude
        return cv + (q - cv) * math.exp((t - t_ref) / tc)
    # q_char(t_ref) = q e^{(t - t_ref)/tc} + int_t^{t_ref} e^{(tau-t_ref)/tc} V/R dtau
    val, _ = _quad(lambda tau: math.exp((tau - t_ref) / tc) * waveform(tau) / R,
                   t, t_ref, epsrel=rtol, epsabs=1e-16, limit=200)
    return q * math.exp((t - t_ref) / tc) + val


def _hazard_along_characteristic(q: float, t: float, model: MemristorModel,
                                 C: float, waveform: Waveform,
                                 rtol: float) -> float:
    """Accumulated 0->1 hazard along the state-0 characteristic ending
    at (q, t)."""
    r0 = model.resistances[0]

    def gamma(tt):
        qc = _backward_charge(q, t, tt, r0, C, waveform, rtol)
        return model.rate_up(0, waveform(tt) - qc / C)

    val, _ = _quad(gamma, 0.0, t, epsrel=rtol, epsabs=1e-16, limit=200)
    return val


def _first_regime_violation(upper_q: float, C: float, waveform: Waveform,
                            t: float) -> Optional[float]:
    """First time in [0, t] where the mass region reaches q >= C V(s)."""
    for s in np.linspace(0.0, t, 257):
        if upper_q >= C * waveform(float(s)):
            return float(s)
    return None


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
    drive, to the exact Ei-weighted delta transport.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    upper = max(f.max_support(), g.max_support())
    if upper > -math.inf:
        bad = _first_regime_violation(upper, C, waveform, t)
        if bad is not None:
            raise RegimeError(
                f"mass reaches q >= C V(t) first at t = {bad:g} s; "
                "unidirectional solution invalid there")
    if t == 0.0:
        return f, g
    r0, r1 = model.resistances[0], model.resistances[1]

    # ---- state 0: transported f times the survival factor
    transported_f = no_switch_density(f, r0, C, waveform, t, rtol)
    p0_deltas = tuple((qd, w * math.exp(-_hazard_along_characteristic(
        qd, t, model, C, waveform, rtol)))
        for qd, w in transported_f.deltas)
    p0_fn = None
    if transported_f.fn is not None:
        def p0_fn(q, tf=transported_f):
            base = tf(q)
            if base == 0.0:
                return 0.0
            return base * math.exp(-_hazard_along_characteristic(
                q, t, model, C, waveform, rtol))
    p0 = Density1D(fn=p0_fn, support=transported_f.support, deltas=p0_deltas)

    # ---- state 1: transported g
    transported_g = no_switch_density(g, r1, C, waveform, t, rtol)
    p1_parts_deltas = list(transported_g.deltas)

    # source term: mass switched from state 0 at time t~, then carried
    # by the state-1 characteristics to time t
    def p0_value_at(qq, tt):
        """Smooth part of the Eq-(21)-type solution at an earlier time."""
        tf = no_switch_density(f, r0, C, waveform, tt, rtol)
        base = tf(qq)
        if base == 0.0:
            return 0.0
        return base * math.exp(-_hazard_along_characteristic(
            qq, tt, model, C, waveform, rtol))

    source_fns = []
    if f.fn is not None:
        def source_smooth(q):
            tc1 = C * r1

            def integrand(ts):
                qs = _backward_charge(q, t, ts, r1, C, waveform, rtol)
                vm = waveform(ts) - qs / C
                rate = model.rate_up(0, vm)
                if rate == 0.0:
                    return 0.0
                return rate * math.exp((t - ts) / tc1) * p0_value_at(qs, ts)

            val, _ = _quad(integrand, 0.0, t, epsrel=rtol, epsabs=1e-16, limit=100)
            return val
        source_fns.append(source_smooth)

    extra_delta_parts = []
    for qd0, w in f.deltas:
        smooth, delta_part = _delta_source_state1(
            qd0, w, model, C, waveform, t, rtol)
        if smooth is not None:
            source_fns.append(smooth)
        if delta_part is not None:
            extra_delta_parts.append(delta_part)
    p1_parts_deltas.extend(extra_delta_parts)

    p1_fn = None
    support1 = transported_g.support
    if source_fns or transported_g.fn is not None:
        # conservative support: from the lowest initial mass up to the
        # driven charge bound C V over the window
        cv_hi = C * max(waveform(float(s)) for s in np.linspace(0.0, t, 65))
        lo_candidates = []
        if transported_g.fn is not None:
            lo_candidates.append(support1[0])
        if f.deltas:
            lo_candidates.append(min(qd for qd, _ in f.deltas))
        if f.fn is not None:
            lo_candidates.append(f.support[0])
        lo = min(lo_candidates) if lo_candidates else 0.0
        support1 = (lo, max(support1[1], cv_hi))

        def p1_fn(q, tg=transported_g, fns=tuple(source_fns)):
            return tg(q) + sum(fn(q) for fn in fns)

    p1 = Density1D(fn=p1_fn, support=support1, deltas=tuple(p1_parts_deltas))
    return p0, p1


def _delta_source_state1(q_init: float, weight: float, model: MemristorModel,
                         C: float, waveform: Waveform, t: float,
                         rtol: float) -> tuple:
    """State-1 density produced by a state-0 delta of given weight.

    Mass switching at time ts leaves the deterministic state-0
    trajectory q0(ts) and rides the state-1 characteristic to time t.
    If R0 != R1 the arrival position is monotone in ts and the result is
    a smooth density; if R0 == R1 all switched mass arrives at the same
    point and stays a delta.
    """
    r0, r1 = model.resistances[0], model.resistances[1]
    tc1 = C * r1

    def q0_of(ts):
        return rc_charge_wave(q_init, C, r0, waveform, ts, rtol)

    def survival(ts):
        return math.exp(-_hazard_from_delta(q_init, model, C, waveform, ts, rtol))

    def arrival(ts):
        # position at time t of mass that switched at ts
        q_sw = q0_of(ts)
        if waveform.is_constant():
            cv = C * waveform.amplitude
            return cv + (q_sw - cv) * math.exp(-(t - ts) / tc1)
        val, _ = _quad(lambda tau: math.exp((tau - t) / tc1) * waveform(tau) / r1,
                       ts, t, epsrel=rtol, epsabs=1e-16, limit=200)
        return q_sw * math.exp(-(t - ts) / tc1) + val

    if abs(r0 - r1) <= 1e-12 * max(r0, r1):
        # switched mass shares the unswitched trajectory
        w1 = weight * (1.0 - survival(t))
        return None, (arrival(t), w1)

    def darrival(ts):
        # d(arrival)/dts = e^{(ts-t)/tc1} (V(ts) - q0/C)(1/R0 - 1/R1)
        vm = waveform(ts) - q0_of(ts) / C
        return math.exp((ts - t) / tc1) * vm * (1.0 / r0 - 1.0 / r1)

    def density(q):
        lo, hi = sorted((arrival(0.0), arrival(t)))
        if not lo <= q <= hi:
            return 0.0
        try:
            ts = _brentq(lambda s: arrival(s) - q, 0.0, t,
                         xtol=1e-15 * max(t, 1.0), rtol=8.9e-16)
        except ValueError:
            return 0.0
        rate = model.rate_up(0, waveform(ts) - q0_of(ts) / C)
        jac = abs(darrival(ts))
        if jac == 0.0:
            return math.inf
        return weight * rate * survival(ts) / jac

    return density, None


def _hazard_from_delta(q_init: float, model: MemristorModel, C: float,
                       waveform: Waveform, t: float, rtol: float) -> float:
    """Accumulated 0->1 hazard along the deterministic state-0
    trajectory started at q_init."""
    r0 = model.resistances[0]
    if waveform.is_constant():
        # closed form via Ei under constant drive
        va = waveform.amplitude
        vm0 = va - q_init / C
        if vm0 <= 0:
            return 0.0
        integral, _, _ = hazard_integral(0.0, vm0 / model.v_up[0], 0.0, t / (C * r0))
        return C * r0 / model.tau_up[0] * float(integral[0])
    val, _ = _quad(lambda ts: model.rate_up(
        0, waveform(ts) - rc_charge_wave(q_init, C, r0, waveform, ts, rtol) / C),
        0.0, t, epsrel=rtol, epsabs=1e-16, limit=200)
    return val
