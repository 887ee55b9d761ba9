"""Adaptive Simpson quadrature and Richardson-extrapolated limits.

Both routines work in binary floats.  Exact arithmetic never reaches
this module: discrete contributions are summed exactly elsewhere and
only genuinely continuous pieces are handed to the quadrature.

Adaptive Simpson walks its bisection tree in one loop over an explicit
stack, left child first, and sums each node's children as ``left +
right``, so value and error are the same floats a recursion would give.
Once one finished node's error is above the call's ``tol``, the call is
certain to miss: its final error is a float sum of non-negative terms
that includes that node.  From then on every remaining leaf is accepted
at its share of that known miss instead of its share of ``tol``, so a
call that will raise stops refining early and still carries a close
estimate.

Adaptive Simpson's refinement past its root and every Richardson sample
draw from one evaluation budget of ``QUAD_MAX_EVALS``, held in a context
variable.  The command line opens one budget per command.  A Simpson
call's five root evaluations draw from none: a call that converges at
once, as most do, is bounded by the caller's grid and piece caps, not by
the budget.  A Simpson call that refines with no budget open opens one
for itself, shared from then on by any quadrature nested in its
integrand; a Richardson call with none open draws from none, as it is
bounded by ``LIMIT_MAX_STEPS`` samples.  A spent budget raises
``ConvergenceError`` with the estimate and error so far, so every
command ends in bounded time.  A non-finite Simpson sum (a float
overflow) raises ``DomainError``: it passes no comparison with a
tolerance, so it would otherwise be refined to the depth limit.
"""

from __future__ import annotations

from contextvars import ContextVar
from math import isfinite

from .errors import ConvergenceError, DomainError

QUAD_TOL = 1e-10
QUAD_MAX_DEPTH = 40
# Simpson evaluations past each call's root, and Richardson samples, per
# budget.  The largest successful Simpson call in the tests makes 18,473
# evaluations.
QUAD_MAX_EVALS = 50_000

LIMIT_TOL = 1e-10
LIMIT_MAX_STEPS = 20


class _Budget:
    """Evaluations left to the open budget: the value of ``_BUDGET``."""

    __slots__ = ("left",)

    def __init__(self):
        self.left = QUAD_MAX_EVALS


_BUDGET = ContextVar("tsvar_evaluation_budget", default=None)


def _spent(what: str, estimate, error):
    return ConvergenceError(
        f"{what} spent the evaluation budget of {QUAD_MAX_EVALS} "
        f"(estimate so far {estimate!r}, error {error!r})",
        estimate=estimate,
        error=error,
    )


def _overflow():
    return DomainError("a Simpson sum of the integrand is past the float range")


def adaptive_simpson(f, a: float, b: float, tol: float = QUAD_TOL):
    """Integrate ``f`` over [a, b], returning ``(value, error_estimate)``.

    Raises ``ConvergenceError`` carrying both when the estimate misses
    ``tol``.  Leaf tolerances sum to ``tol``, so only leaves cut off at
    depth ``QUAD_MAX_DEPTH`` can make it miss; once a finished node's
    error alone is above ``tol``, the rest of the tree is refined only to
    its share of that error.  Each evaluation of ``f`` past the root's
    five draws from the open evaluation budget (module docstring); a spent
    budget raises ``ConvergenceError`` and a non-finite sum ``DomainError``.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0, 0.0
    fa = f(a)
    fb = f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    # The walk refines one node at a time, left child first.  Unevaluated
    # right children wait in ``pending`` as (a, fa, b, fb, m, fm, whole,
    # node_tol, depth, parent's |err|), finished left siblings in ``done`` as
    # (value, error, depth).  Both, the open budget, and one of the call's
    # own when none is open, are looked up or made only once the root splits.
    node_tol, depth, perr = tol, QUAD_MAX_DEPTH, 0.0
    pending = done = budget = token = None
    miss = tol  # a finished node's error above this makes the miss certain
    try:
        while True:
            if pending is not None:
                if budget.left < 2:
                    # An unrefined node's error is taken as its parent's |S2 - S1|.
                    pending.append((a, fa, b, fb, m, fm, whole, node_tol, depth, perr))
                    raise _spent("adaptive Simpson",
                                 sum(n[0] for n in done) + sum(n[6] for n in pending),
                                 sum(n[1] for n in done) + 15.0 * sum(n[9] for n in pending))
                budget.left -= 2
            lm = 0.5 * (a + m)
            rm = 0.5 * (m + b)
            flm = f(lm)
            frm = f(rm)
            left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
            right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
            err = (left + right - whole) / 15.0
            if abs(err) <= node_tol:
                pass
            elif not isfinite(err):
                raise _overflow()
            elif depth > 0:
                if pending is None:
                    pending, done = [], []
                    budget = _BUDGET.get()
                    if budget is None:
                        budget = _Budget()
                        token = _BUDGET.set(budget)
                node_tol *= 0.5
                depth -= 1
                perr = abs(err)
                pending.append((m, fm, b, fb, rm, frm, right, node_tol, depth, perr))
                b, fb, m, fm, whole = m, fm, lm, flm, left
                continue
            # A leaf: Richardson correction, one extrapolation order beyond Simpson.
            value = left + right + err
            error = abs(err)
            if pending is None:
                break
            while done and done[-1][2] == depth:
                lv, le, _ = done.pop()
                value = lv + value
                error = le + error
                depth += 1
            if not pending:
                break
            if error > miss:
                scale = error / tol
                pending[:] = [n[:7] + (n[7] * scale,) + n[8:] for n in pending]
                miss = float("inf")
            done.append((value, error, depth))
            a, fa, b, fb, m, fm, whole, node_tol, depth, perr = pending.pop()
    finally:
        if token is not None:
            _BUDGET.reset(token)
    if not isfinite(value):
        raise _overflow()
    if error > tol:
        raise ConvergenceError(
            f"adaptive Simpson hit depth {QUAD_MAX_DEPTH} with error estimate {error:.3e} "
            f"above tolerance {tol:.3e} (best estimate {value!r})",
            estimate=value,
            error=error,
        )
    return value, error


def richardson_limit(sample, h0: float, order: int, tol: float = LIMIT_TOL):
    """Extrapolate ``sample(h)`` to h -> 0 by halving steps.

    ``order`` is the leading error exponent: 1 for one-sided difference
    quotients, 2 for centered ones.  Returns ``(value, error_estimate)``
    or, after ``LIMIT_MAX_STEPS`` halvings or once the open evaluation
    budget (module docstring) is spent, raises ``ConvergenceError``
    carrying the best estimate seen.
    """
    if h0 <= 0:
        raise ValueError("h0 must be positive")
    budget = _BUDGET.get()
    rows = []
    best_val = None
    best_err = float("inf")
    h = float(h0)
    for i in range(LIMIT_MAX_STEPS):
        if budget is not None:
            if budget.left < 1:
                raise _spent("Richardson extrapolation", best_val, best_err)
            budget.left -= 1
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
    raise ConvergenceError(
        f"difference quotients did not settle within {LIMIT_MAX_STEPS} halvings "
        f"(best estimate {best_val!r}, spread {best_err:.3e})",
        estimate=best_val,
        error=best_err,
    )
