"""References computed apart from memstoch, and the statistical bounds the
benchmark checks the program's outputs against.

Survival of state 0 of a binary device in series with a resistor R_s and a
capacitor C, driven by a constant Va from q = 0 (unidirectional switching):

    p0(t) = exp{-(tc/tau0) [Ei(x) - Ei(x e^{-t/tc})]},
    tc = C (R0 + R_s),   x = Va R0 / ((R0 + R_s) V0).

The device voltage on the unswitched path is x V0 e^{-t/tc}, so the hazard
is the integral of exp(x e^{-s/tc}) / tau0, which the substitution
u = x e^{-s/tc} turns into the Ei difference above.  Ei is scipy's `expi`;
nothing here imports memstoch.

Run this file to check the reference itself (`python3 bench/reference.py`);
`run.py` runs the same check before every benchmark run.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expi

# Every statistical check allows Z_BOUND standard errors.  A two-sided
# normal tail beyond 5 sigma has probability 5.7e-7, so the checks of one
# run (at most ~100 compared values) raise a false alarm less than once in
# 1e4 seeds, while a bias of a few percent still fails them.
Z_BOUND = 5.0
# Level of the Kolmogorov-Smirnov test on first-event times.
KS_ALPHA = 1e-6

FIGURE2 = dict(C=1e-6, R0=1e5, R1=1e4, tau0=3e5, V0=0.02, Va=0.35)


def p0_series(t, *, C, R0, tau0, V0, Va, Rs=0.0, **_):
    """Closed-form survival probability p0(t) (array in, array out)."""
    t = np.asarray(t, dtype=float)
    tc = C * (R0 + Rs)
    x = Va * R0 / ((R0 + Rs) * V0)
    hazard = (tc / tau0) * (expi(x) - expi(x * np.exp(-t / tc)))
    return np.exp(-hazard)


def binomial_sigma(p, n):
    """Standard error of an occupancy estimated from n trajectories when
    the true value is p; floored at one trajectory's worth so that p = 0
    or 1 still allows a count of a few."""
    p = np.asarray(p, dtype=float)
    return np.sqrt(np.maximum(p * (1.0 - p), 1.0 / n) / n)


def z_excess(estimate, p_ref, n):
    """Largest |estimate - p_ref| in units of binomial_sigma(p_ref, n)."""
    dev = np.abs(np.asarray(estimate, dtype=float) - np.asarray(p_ref, dtype=float))
    return float(np.max(dev / binomial_sigma(p_ref, n)))


def ks_distance(first_event_times, cdf, t_end: float) -> float:
    """Kolmogorov-Smirnov distance on [0, t_end] between the empirical
    distribution of first-event times (nan = no event by t_end) and a
    defective reference CDF."""
    t = np.asarray(first_event_times, dtype=float)
    n = t.size
    hits = np.sort(t[~np.isnan(t)])
    f = cdf(hits)
    i = np.arange(1, hits.size + 1)
    tail = float(cdf(t_end)) - hits.size / n
    return float(max(np.max(i / n - f, initial=0.0),
                     np.max(f - (i - 1) / n, initial=0.0), tail))


def ks_critical(n: int, alpha: float = KS_ALPHA) -> float:
    """Asymptotic one-sample Kolmogorov critical distance at level alpha."""
    return math.sqrt(-math.log(alpha / 2.0) / 2.0) / math.sqrt(n)


def self_check() -> list:
    """Problems found in the reference itself (empty when it is sound)."""
    import mpmath

    problems = []
    p1s = float(p0_series(1.0, **FIGURE2))
    if abs(p1s - 0.446) > 1e-3:
        problems.append(f"reference p0(1 s) = {p1s:.6f}, expected 0.446 +- 1e-3")

    mpmath.mp.dps = 40
    for rs in (0.0, 1e4):
        tc = FIGURE2["C"] * (FIGURE2["R0"] + rs)
        x = FIGURE2["Va"] * FIGURE2["R0"] / ((FIGURE2["R0"] + rs) * FIGURE2["V0"])
        for t in (1e-4, 1e-3, 1e-2, 3e-2, 0.1, 1.0):
            exact = mpmath.exp(-(tc / FIGURE2["tau0"]) * (
                mpmath.ei(x) - mpmath.ei(x * mpmath.exp(-mpmath.mpf(t) / tc))))
            got = float(p0_series(t, Rs=rs, **FIGURE2))
            rel = abs(got - float(exact)) / float(exact)
            if rel > 1e-12:
                problems.append(f"p0(t={t:g}, Rs={rs:g}) differs from mpmath "
                                f"by {rel:.2e} relative (> 1e-12)")

    # With R_s = 0 the formula is the Figure-2 one: tc = C R0, x = Va/V0.
    p = FIGURE2
    t = np.linspace(0.0, 1.0, 101)
    fig2 = np.exp(-(p["C"] * p["R0"] / p["tau0"]) * (
        expi(p["Va"] / p["V0"]) - expi(p["Va"] / p["V0"] * np.exp(-t / (p["C"] * p["R0"])))))
    dev = float(np.max(np.abs(p0_series(t, Rs=0.0, **p) - fig2)))
    if dev > 1e-15:
        problems.append(f"R_s = 0 deviates from the Figure-2 formula by {dev:.2e}")
    return problems


if __name__ == "__main__":
    found = self_check()
    for line in found:
        print("FAIL:", line)
    print("reference self-check:", "FAIL" if found else "PASS")
    raise SystemExit(1 if found else 0)
