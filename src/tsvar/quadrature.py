"""Adaptive Simpson quadrature and Richardson-extrapolated limits.

Both routines work in binary floats.  Exact arithmetic never reaches
this module: discrete contributions are summed exactly elsewhere and
only genuinely continuous pieces are handed to the quadrature.
"""

from __future__ import annotations

from .errors import ConvergenceError

QUAD_TOL = 1e-10
QUAD_MAX_DEPTH = 40

LIMIT_TOL = 1e-10
LIMIT_MAX_STEPS = 20


def _simpson(a, fa, b, fb, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(a, fa, m, fm, flm)
    right = _simpson(m, fm, b, fb, frm)
    err = (left + right - whole) / 15.0
    if depth <= 0 or abs(err) <= tol:
        # Richardson correction: one extrapolation order beyond Simpson.
        return left + right + err, abs(err)
    lv, le = _adapt(f, a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1)
    rv, re = _adapt(f, m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1)
    return lv + rv, le + re


def adaptive_simpson(f, a: float, b: float, tol: float = QUAD_TOL):
    """Integrate ``f`` over [a, b], returning ``(value, error_estimate)``.

    Raises ``ConvergenceError`` carrying both when the estimate misses
    ``tol``.  Leaf tolerances sum to ``tol``, so only leaves cut off at
    depth ``QUAD_MAX_DEPTH`` can make it miss.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0, 0.0
    fa = f(a)
    fb = f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(a, fa, b, fb, fm)
    value, err = _adapt(f, a, fa, b, fb, m, fm, whole, tol, QUAD_MAX_DEPTH)
    if err > tol:
        raise ConvergenceError(
            f"adaptive Simpson hit depth {QUAD_MAX_DEPTH} with error estimate {err:.3e} "
            f"above tolerance {tol:.3e} (best estimate {value!r})",
            estimate=value,
            error=err,
        )
    return value, err


def richardson_limit(sample, h0: float, order: int, tol: float = LIMIT_TOL):
    """Extrapolate ``sample(h)`` to h -> 0 by halving steps.

    ``order`` is the leading error exponent: 1 for one-sided difference
    quotients, 2 for centered ones.  Returns ``(value, error_estimate)``
    or, after ``LIMIT_MAX_STEPS`` halvings, raises ``ConvergenceError``
    carrying the best estimate seen.
    """
    if h0 <= 0:
        raise ValueError("h0 must be positive")
    rows = []
    best_val = None
    best_err = float("inf")
    h = float(h0)
    for i in range(LIMIT_MAX_STEPS):
        row = [float(sample(h))]
        for j in range(1, i + 1):
            fac = 2.0 ** (order * j)
            row.append((fac * row[j - 1] - rows[i - 1][j - 1]) / (fac - 1.0))
        rows.append(row)
        if i > 0:
            err = abs(row[i] - rows[i - 1][i - 1])
            if err < best_err:
                best_val = row[i]
                best_err = err
            if err <= tol:
                return row[i], err
        h *= 0.5
    if best_err <= tol:
        return best_val, best_err
    raise ConvergenceError(
        f"difference quotients did not settle within {LIMIT_MAX_STEPS} halvings "
        f"(best estimate {best_val!r}, spread {best_err:.3e})",
        estimate=best_val,
        error=best_err,
    )
