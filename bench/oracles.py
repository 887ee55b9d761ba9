"""Known answers, computed without tsvar.

Every function here works on plain Python data (sorted point lists,
dicts of values, exponent-tuple polynomials) with ``fractions`` and
``math`` only.  This module must never import tsvar: it is the
independent side of every comparison the benchmark makes.
"""

from __future__ import annotations

import math
from fractions import Fraction

# -- one-variable discrete scales --------------------------------------------


def delta_sum(points, f, a, b):
    """Sum of mu(t) f(t) over the points t of [a, b)."""
    total = Fraction(0)
    for t, nxt in zip(points, points[1:]):
        if a <= t < b:
            total += (nxt - t) * f(t)
    return total


def nabla_sum(points, f, a, b):
    """Sum of nu(t) f(t) over the points t of (a, b]."""
    total = Fraction(0)
    for prev, t in zip(points, points[1:]):
        if a < t <= b:
            total += (t - prev) * f(t)
    return total


def jump_quotient(points, f, i):
    """(f(sigma(t)) - f(t)) / mu(t) at t = points[i], i < len(points) - 1."""
    t, st = points[i], points[i + 1]
    return (f(st) - f(t)) / (st - t)


def el_v2_max_residual(points, y):
    """Max |r| of the integral-form residual for L = v^2 on a discrete scale.

    On [a, rho(b)] the state partial vanishes, so r(t) = 2 y_delta(t)
    minus its mean over those points."""
    core = points[:-1]
    raw = [2 * jump_quotient(points, y, i) for i in range(len(core))]
    mean = sum(raw) / len(raw)
    return max(abs(r - mean) for r in raw)


def delta_kernel_sets(points):
    """(constrained, unconstrained) for the delta pairing over the whole scale.

    Column t pairs with the variation at sigma(t); only the penultimate
    point jumps onto b, where every variation vanishes."""
    return tuple(points[:-2]), (points[-2],)


def nabla_kernel_sets(points):
    """(constrained, unconstrained) for the nabla pairing: endpoints are free."""
    return tuple(points[1:-1]), (points[0], points[-1])


def quadratic_minimizer_1d(points, A, B, C, D, ya, yb):
    """Exact minimizer of sum mu L(t, y(sigma), y_delta) for
    L = A v^2 + B y^2 + C t y + D y with fixed end values.

    Stationarity in each interior value gives a tridiagonal system,
    solved by elimination in rationals."""
    n = len(points)
    mu = [points[i + 1] - points[i] for i in range(n - 1)]
    lower, diag, upper, rhs = [], [], [], []
    for k in range(1, n - 1):
        lower.append(-2 * A / mu[k - 1])
        diag.append(2 * B * mu[k - 1] + 2 * A / mu[k - 1] + 2 * A / mu[k])
        upper.append(-2 * A / mu[k])
        rhs.append(-mu[k - 1] * (C * points[k - 1] + D))
    m = len(diag)
    if m == 0:
        return [ya, yb]
    rhs[0] -= lower[0] * ya
    rhs[-1] -= upper[-1] * yb
    for i in range(1, m):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    x = [Fraction(0)] * m
    x[-1] = rhs[-1] / diag[-1]
    for i in range(m - 2, -1, -1):
        x[i] = (rhs[i] - upper[i] * x[i + 1]) / diag[i]
    return [ya] + x + [yb]


# -- polynomials in several variables ---------------------------------------


def poly_eval(terms, values):
    """Evaluate {exponent tuple: coefficient} at a tuple of values."""
    total = Fraction(0)
    for expo, c in terms.items():
        term = c
        for v, e in zip(values, expo):
            if e:
                term = term * v ** e
        total = total + term
    return total


def poly_diff(terms, index):
    out = {}
    for expo, c in terms.items():
        if expo[index]:
            lowered = list(expo)
            lowered[index] -= 1
            key = tuple(lowered)
            out[key] = out.get(key, Fraction(0)) + c * expo[index]
    return {k: v for k, v in out.items() if v}


def poly_text(terms, names):
    """Render for the tsvar expression parser: ``3/4*y0^2 - 2*t1*y1 + ...``."""
    parts = []
    for expo, c in sorted(terms.items(), reverse=True):
        if not c:
            continue
        factors = [f"{abs(c)}"]
        for name, e in zip(names, expo):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        sign = "-" if c < 0 else "+"
        parts.append((sign, "*".join(factors)))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# -- two-variable discrete scales -------------------------------------------


def double_delta_sum(p1, p2, f, a1, b1, a2, b2):
    """Sum of mu1 mu2 f over [a1, b1) x [a2, b2)."""
    total = Fraction(0)
    for t1, n1 in zip(p1, p1[1:]):
        if not a1 <= t1 < b1:
            continue
        inner = Fraction(0)
        for t2, n2 in zip(p2, p2[1:]):
            if a2 <= t2 < b2:
                inner += (n2 - t2) * f(t1, t2)
        total += (n1 - t1) * inner
    return total


def double_el_map(p1, p2, terms, u):
    """Kernel L_y0 - (L_y1)^delta1 - (L_y2)^delta2 along a tabulated u.

    Variables are (t1, t2, y0, y1, y2); ``u`` maps (t1, t2) to values on
    the full grid.  Returns (max |r| over defined points, number of
    defined points, number of undefined points) on
    [a1, rho1(b1)] x [a2, rho2(b2)].  A point is defined when both
    axis quotients of the trajectory partials stay below the maxima."""
    d0, d1, d2 = poly_diff(terms, 2), poly_diff(terms, 3), poly_diff(terms, 4)
    s1 = dict(zip(p1, p1[1:]))
    s2 = dict(zip(p2, p2[1:]))

    def args(t1, t2):
        a, b = s1[t1], s2[t2]
        uss = u[(a, b)]
        return (t1, t2, uss, (uss - u[(t1, b)]) / (a - t1), (uss - u[(a, t2)]) / (b - t2))

    best = Fraction(0)
    defined = 0
    core1, core2 = p1[:-1], p2[:-1]
    for t1 in core1:
        for t2 in core2:
            if t1 == core1[-1] or t2 == core2[-1]:
                continue
            a, b = s1[t1], s2[t2]
            here = args(t1, t2)
            r = (poly_eval(d0, here)
                 - (poly_eval(d1, args(a, t2)) - poly_eval(d1, here)) / (a - t1)
                 - (poly_eval(d2, args(t1, b)) - poly_eval(d2, here)) / (b - t2))
            best = max(best, abs(r))
            defined += 1
    return best, defined, len(core1) * len(core2) - defined


# -- hybrid scales (floats) ----------------------------------------------------

# name -> (f, antiderivative, derivative)
CLOSED_FORMS = {
    "exp": (math.exp, math.exp, math.exp),
    "sin": (math.sin, lambda x: -math.cos(x), math.cos),
    "cauchy": (lambda x: 1.0 / (1.0 + x * x), math.atan,
               lambda x: -2.0 * x / (1.0 + x * x) ** 2),
}


def hybrid_delta_integral(pieces, name):
    """Delta integral over a whole hybrid scale: classical integrals over
    the interval pieces plus mu(t) f(t) at every right-scattered point."""
    f, F, _ = CLOSED_FORMS[name]
    total = 0.0
    for k, (lo, hi) in enumerate(pieces):
        if hi > lo:
            total += F(hi) - F(lo)
        if k + 1 < len(pieces):
            total += (pieces[k + 1][0] - hi) * f(hi)
    return total


def hybrid_el_v2_max_residual(pieces, y, dy, refinement):
    """Max |r| for L = v^2 along y on a hybrid scale, on the grid
    el_residual samples: each interval's ends plus ``refinement`` equally
    spaced interior points, each isolated point, all up to rho(max).

    y_delta is the classical slope ``dy`` on right-dense points and the
    jump quotient on right-scattered ones."""
    last_lo, last_hi = pieces[-1]
    keep = pieces if last_hi > last_lo else pieces[:-1]
    grid = []
    for lo, hi in keep:
        grid.append(lo)
        if hi > lo:
            w = hi - lo
            grid.extend(lo + w * Fraction(k, refinement + 1) for k in range(1, refinement + 1))
            grid.append(hi)
    succ = {hi: pieces[k + 1][0] for k, (_, hi) in enumerate(pieces[:-1])}
    raw = []
    for t in grid:
        st = succ.get(t)
        if st is not None:
            raw.append(2 * float((y(st) - y(t)) / (st - t)))
        else:
            raw.append(2 * float(dy(t)))
    mean = sum(raw) / len(raw)
    return max(abs(r - mean) for r in raw)


# -- point classification ------------------------------------------------------


def classify(pieces, t):
    """(label, sigma, rho) of t on sorted disjoint pieces [(lo, hi), ...]."""
    i = next(k for k, (lo, hi) in enumerate(pieces) if lo <= t <= hi)
    lo, hi = pieces[i]
    sigma = t if t < hi else (pieces[i + 1][0] if i + 1 < len(pieces) else t)
    rho = t if t > lo else (pieces[i - 1][1] if i > 0 else t)
    flags = [name for name, hit in (("min", t == pieces[0][0]), ("max", t == pieces[-1][1]))
             if hit]
    label = ("left-dense" if rho == t else "left-scattered") + " " + (
        "right-dense" if sigma == t else "right-scattered")
    if flags:
        label += f" ({', '.join(flags)})"
    return label, sigma, rho
