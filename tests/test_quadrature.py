import inspect
import math
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsvar import (ConvergenceError, DomainError, adaptive_simpson, brute_force_minimizer,
                   brute_force_minimizer_2d, quadrature, richardson_limit, variational)
from tsvar.quadrature import _BUDGET, QUAD_MAX_DEPTH, _Budget


def singular(x):
    return x ** -0.5 if x > 0 else 0.0


def counted(f):
    """``f`` and a one-element list counting its evaluations."""
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)

    return g, calls


@contextmanager
def open_budget():
    """An evaluation budget open for the block, as the command line opens one."""
    token = _BUDGET.set(_Budget())
    try:
        yield
    finally:
        _BUDGET.reset(token)


def test_iteration_caps_are_module_constants():
    # Depth and step caps, the minimizers' Newton step cap, gradient
    # tolerance and bound on unknowns are fixed constants, not per-call
    # settings.
    signatures = {fn.__name__: list(inspect.signature(fn).parameters)
                  for fn in (adaptive_simpson, richardson_limit,
                             brute_force_minimizer, brute_force_minimizer_2d)}
    assert signatures == {
        "adaptive_simpson": ["f", "a", "b", "tol"],
        "richardson_limit": ["sample", "h0", "order", "tol"],
        "brute_force_minimizer": ["p"],
        "brute_force_minimizer_2d": ["dp"],
    }
    assert type(variational.NEWTON_MAX_STEPS) is int and variational.NEWTON_MAX_STEPS > 0
    assert type(variational.MINIMIZER_MAX_UNKNOWNS) is int
    assert variational.MINIMIZER_MAX_UNKNOWNS > 0
    assert 0 < variational.NEWTON_GRAD_TOL < 1e-9
    assert type(quadrature.QUAD_MAX_EVALS) is int and quadrature.QUAD_MAX_EVALS > 0


class TestAdaptiveSimpson:
    def test_cubic_is_exact_for_simpson(self):
        value, err = adaptive_simpson(lambda x: x**3 - 2 * x, 0.0, 2.0, 1e-10)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert err <= 1e-10

    def test_sine_quarter_wave(self):
        value, err = adaptive_simpson(math.sin, 0.0, math.pi, 1e-10)
        assert abs(value - 2.0) <= 1e-9
        assert abs(value - 2.0) <= max(err * 100, 1e-12)

    def test_sharp_peak_subdivides(self):
        value, _ = adaptive_simpson(lambda x: 1.0 / (1e-4 + x * x), -1.0, 1.0, 1e-10)
        exact = 2.0 / 1e-2 * math.atan(1.0 / 1e-2)
        assert abs(value - exact) <= 1e-6 * exact

    def test_depth_limit_miss_raises(self):
        # The singularity of x^(-1/2) at 0 exhausts the depth before the
        # tolerance is met; the best estimate travels with the error.
        with pytest.raises(ConvergenceError) as exc_info:
            adaptive_simpson(lambda x: x ** -0.5 if x > 0 else 0.0, 0.0, 1.0, 1e-10)
        assert abs(exc_info.value.estimate - 2.0) < 1e-5
        assert exc_info.value.error > 1e-10

    def test_a_certain_miss_stops_refining(self):
        # The first leaf cut off at the depth limit is already above tol, so
        # the rest of the tree is refined only to its share of that miss:
        # 7,701 evaluations, where refining to tol's share took 23,757.
        f, calls = counted(singular)
        with pytest.raises(ConvergenceError) as exc_info:
            adaptive_simpson(f, 0.0, 1.0, 1e-10)
        assert calls[0] <= 8000
        assert abs(exc_info.value.estimate - 2.0) < 1e-6

    def test_the_walk_needs_no_stack_depth(self):
        # With fewer frames left than QUAD_MAX_DEPTH, a recursion over the
        # bisection tree could not reach its leaves; the walk makes the same
        # 7,701 evaluations at any caller depth.
        frames, frame = 0, sys._getframe()
        while frame is not None:
            frames, frame = frames + 1, frame.f_back
        f, calls = counted(singular)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frames + QUAD_MAX_DEPTH // 2)
        try:
            with pytest.raises(ConvergenceError):
                adaptive_simpson(f, 0.0, 1.0, 1e-10)
        finally:
            sys.setrecursionlimit(limit)
        assert calls[0] == 7701

    def test_empty_range(self):
        value, err = adaptive_simpson(math.sin, 1.0, 1.0, 1e-10)
        assert value == 0.0 and err == 0.0


class TestNonFinite:
    """A float overflow raises DomainError: it never returns nan or hangs."""

    def test_at_the_root(self):
        with pytest.raises(DomainError, match="past the float range"):
            adaptive_simpson(lambda x: 1e308 * (x + 1.0), 0.0, 2.0, 1e-10)

    def test_at_a_leaf_cut_off_at_the_depth_limit(self):
        # sqrt refines to the depth limit at 0; only the nodes of that last
        # leaf, below 2^-41, read nan.
        def f(x):
            return math.sqrt(x) if x == 0.0 or x >= 2.0 ** -41 else math.nan

        with pytest.raises(DomainError):
            adaptive_simpson(f, 0.0, 1.0, 1e-10)

    def test_in_the_sum_of_finite_subtrees(self):
        # Every node's Simpson sums are finite, and so is the root's first
        # estimate, which reads f only at 0, 4, 8, 12 and 16; the halves'
        # values, near 1e308 each, are not when added.
        def f(x):
            return {0.0: 0.0, 4.0: 1e300, 8.0: 0.0, 12.0: 0.0, 16.0: 0.0}.get(x, 2.5e307)

        with pytest.raises(DomainError):
            adaptive_simpson(f, 0.0, 16.0, 1e290)


class TestEvaluationBudget:
    def test_a_spent_budget_raises_with_the_estimate_so_far(self, monkeypatch):
        # With no budget open, the call opens its own once it refines.
        monkeypatch.setattr(quadrature, "QUAD_MAX_EVALS", 1000)
        f, calls = counted(lambda x: 1.0 / (1e-4 + x * x))
        with pytest.raises(ConvergenceError, match="evaluation budget of 1000") as exc:
            adaptive_simpson(f, -1.0, 1.0, 1e-10)
        assert calls[0] <= 5 + 1000
        exact = 2.0 / 1e-2 * math.atan(1.0 / 1e-2)
        assert abs(exc.value.estimate - exact) <= exc.value.error

    def test_a_call_that_refines_opens_one_budget_for_its_nested_calls(self, monkeypatch):
        # Each inner integral alone takes 1,809 evaluations, well within the
        # budget.  The outer call's five root evaluations draw from no budget,
        # so those inner calls open their own; once the outer call refines,
        # every inner call draws from the budget it opened, and spends it.
        monkeypatch.setattr(quadrature, "QUAD_MAX_EVALS", 20_000)
        peak, calls = counted(lambda x: 1.0 / (1e-4 + x * x))
        assert adaptive_simpson(peak, -1.0, 1.0, 1e-6) and calls[0] == 1809
        with pytest.raises(ConvergenceError, match="evaluation budget of 20000"):
            adaptive_simpson(lambda y: math.exp(y) * adaptive_simpson(peak, -1.0, 1.0, 1e-6)[0],
                             0.0, 1.0, 1e-10)
        assert calls[0] <= 1809 + 6 * 20_000

    def test_a_root_that_converges_draws_nothing(self, monkeypatch):
        # A spent budget refuses only refinement: a call that converges at
        # its root still returns, and one that refines raises at once.
        monkeypatch.setattr(quadrature, "QUAD_MAX_EVALS", 0)
        f, calls = counted(lambda x: 3.0 * x * x)
        with open_budget():
            assert adaptive_simpson(f, 0.0, 1.0, 1e-10) == (1.0, 0.0)
            with pytest.raises(ConvergenceError, match="evaluation budget of 0"):
                adaptive_simpson(f, 0.0, 1.0, -1.0)
        assert calls[0] == 5 + 5

    def test_richardson_draws_from_an_open_budget(self, monkeypatch):
        monkeypatch.setattr(quadrature, "QUAD_MAX_EVALS", 5)
        sample, calls = counted(lambda h: math.sin(1.0 / h))
        with open_budget(), pytest.raises(ConvergenceError, match="evaluation budget") as exc:
            richardson_limit(sample, 0.3, order=1)
        assert calls[0] == 5 and exc.value.estimate is not None


class TestRichardsonLimit:
    def test_first_order_sequence(self):
        value, est = richardson_limit(lambda h: (math.exp(h) - 1.0) / h, 0.5, order=1)
        assert abs(value - 1.0) <= 1e-10
        assert abs(value - 1.0) <= max(10 * est, 1e-12)

    def test_second_order_sequence(self):
        def central(h):
            return (math.sin(1.0 + h) - math.sin(1.0 - h)) / (2.0 * h)

        value, _ = richardson_limit(central, 0.25, order=2)
        assert abs(value - math.cos(1.0)) <= 1e-11

    def test_non_convergent_raises_with_estimate(self):
        def wobble(h):
            return math.sin(1.0 / h)

        with pytest.raises(ConvergenceError) as exc_info:
            richardson_limit(wobble, 0.3, order=1)
        assert exc_info.value.estimate is not None
        assert exc_info.value.error > 1e-10


# -- the walk against the recursion it replaced --------------------------------


class _Cut(Exception):
    """The reference refined past its root further than one budget allows."""


def recursive_simpson(f, a, b, tol):
    """adaptive_simpson as the plain recursion it was before the walk, with
    no budget: the oracle for the walk's bits."""

    def simpson(a, fa, b, fb, fm):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def adapt(a, fa, b, fb, m, fm, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        left = simpson(a, fa, m, fm, flm)
        right = simpson(m, fm, b, fb, frm)
        err = (left + right - whole) / 15.0
        if depth <= 0 or abs(err) <= tol:
            return left + right + err, abs(err)
        lv, le = adapt(a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1)
        rv, re = adapt(m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1)
        return lv + rv, le + re

    a = float(a)
    b = float(b)
    if a == b:
        return 0.0, 0.0
    fa = f(a)
    fb = f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    value, err = adapt(a, fa, b, fb, m, fm, simpson(a, fa, b, fb, fm), tol, QUAD_MAX_DEPTH)
    if err > tol:
        raise ConvergenceError("miss", estimate=value, error=err)
    return value, err


@st.composite
def integrands(draw):
    """An integrand: a polynomial, sin, exp, a sharp peak or |x - x0|^1.5, which
    are smooth; or a step or |x - x0|^(-1/2), which are not."""
    kind = draw(st.sampled_from(["poly", "sin", "exp", "peak", "kink", "step", "cusp"]))
    x0 = draw(st.floats(-2.0, 2.0))
    if kind == "poly":
        coeffs = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=9))

        def f(x):
            total = 0.0
            for c in coeffs:
                total = total * x + c
            return total
    elif kind == "sin":
        k = draw(st.floats(0.1, 30.0))
        f = lambda x: math.sin(k * x + x0)  # noqa: E731
    elif kind == "exp":
        k = draw(st.floats(-5.0, 5.0))
        f = lambda x: math.exp(k * x)  # noqa: E731
    elif kind == "peak":
        eps = 10.0 ** draw(st.floats(-5.0, -1.0))
        f = lambda x: 1.0 / (eps + (x - x0) ** 2)  # noqa: E731
    elif kind == "kink":
        f = lambda x: abs(x - x0) ** 1.5  # noqa: E731
    elif kind == "step":
        f = lambda x: 1.0 if x > x0 else -2.0  # noqa: E731
    else:
        f = lambda x: abs(x - x0) ** -0.5 if x != x0 else 0.0  # noqa: E731
    return f


@settings(max_examples=300, deadline=None)
@given(f=integrands(), a=st.floats(-2.0, 2.0), width=st.floats(1e-3, 4.0),
       log_tol=st.floats(-11.0, -4.0))
def test_the_walk_keeps_the_recursions_bits(f, a, width, log_tol):
    # Where the recursion succeeds within one budget, the walk returns the
    # same (value, error), bit for bit, from the same evaluations.  Where the
    # recursion misses, or needs more than one budget, the walk raises.
    b = a + width
    tol = 10.0 ** log_tol
    calls = [0]

    def capped(x):
        calls[0] += 1
        if calls[0] > 5 + quadrature.QUAD_MAX_EVALS:
            raise _Cut
        return f(x)

    try:
        want = recursive_simpson(capped, a, b, tol)
    except (ConvergenceError, _Cut):
        with pytest.raises(ConvergenceError):
            adaptive_simpson(f, a, b, tol)
        return
    g, walked = counted(f)
    got = adaptive_simpson(g, a, b, tol)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert walked[0] == calls[0]
