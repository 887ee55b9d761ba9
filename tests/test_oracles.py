"""Differential oracles: sympy recomputes what tsvar computes exactly.

Random polynomial text is read by both ``Poly.parse`` and sympy, and the
two must agree term by term, in value and in derivative.  On random
discrete scales the exact delta derivative (the jump quotient) and the
delta integral (the sum of mu(t) f(t)) are recomputed in sympy from the
point list alone.  On random rational hybrid scales the exact delta
integral, one- and two-dimensional, is recomputed as sympy's exact gap
terms plus its ``integrate`` over each interval piece.  The minimizers
are checked against the stationary point of the discrete action, built
in sympy from the point lists and solved with ``sympy.solve``.  Skipped
when sympy is absent; the runtime never imports it.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_discrete_scale, rand_fraction
from tsvar import (DoubleProblem, Poly, ProductScale, ScaleFn, SurfaceFn, TimeScale,
                   VariationalProblem, brute_force_minimizer, brute_force_minimizer_2d,
                   delta_deriv, delta_integral, double_integral)

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")


def rand_poly_text(rng, depth=3, top=True) -> str:
    """Polynomial text in t over sums, differences, products, powers and
    negation.  Constants are parenthesized and powers sit on ``t`` or a
    parenthesized group, so both grammars read the same tree.  The top
    is never a bare leaf."""
    if depth == 0 or (not top and rng.random() < 0.25):
        r = rng.random()
        if r < 0.6:
            return "t"
        if r < 0.75:
            c = rand_fraction(rng)
            return f"({c.numerator}/{c.denominator})"
        if r < 0.9:
            return str(rng.randint(0, 20))
        return f"{rng.randint(0, 9)}.{rng.randint(0, 99):02d}"
    kind = rng.choice("+-*^n")
    left = rand_poly_text(rng, depth - 1, False)
    if kind == "^":
        return f"({left})^{rng.randint(0, 3)}"
    if kind == "n":
        return f"(-{left})"
    return f"({left} {kind} {rand_poly_text(rng, depth - 1, False)})"


def as_fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def sympy_terms(expr) -> dict:
    poly = sympy.Poly(expr, T)
    return {k: as_fraction(c) for k, c in poly.terms() if c != 0}


class TestPolyAgainstSympy:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_parse_evaluate_and_diff(self, seed):
        rng = random.Random(seed)
        text = rand_poly_text(rng, depth=4)
        p = Poly.parse(text, ("t",))
        expr = sympy.expand(sympy.sympify(text, rational=True))
        assert p.terms == sympy_terms(expr)
        dp = p.diff("t")
        dexpr = sympy.diff(expr, T)
        assert dp.terms == sympy_terms(dexpr)
        for _ in range(3):
            x = rand_fraction(rng)
            xs = sympy.Rational(x.numerator, x.denominator)
            assert p(x) == as_fraction(expr.subs(T, xs))
            assert dp(x) == as_fraction(dexpr.subs(T, xs))


class TestDiscreteCalculusAgainstSympy:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_jump_quotient_and_integral(self, seed):
        rng = random.Random(seed)
        s = rand_discrete_scale(rng, rng.randint(2, 10))
        pts = [sympy.Rational(t.numerator, t.denominator) for t in s.points()]
        text = rand_poly_text(rng, depth=2)
        f = ScaleFn.from_callable(s, Poly.parse(text, ("t",)))
        expr = sympy.sympify(text, rational=True)

        def value(x):
            return expr.subs(T, x)

        k = rng.randrange(len(pts) - 1)
        res = delta_deriv(s, f, s.points()[k])
        quotient = (value(pts[k + 1]) - value(pts[k])) / (pts[k + 1] - pts[k])
        assert res.method == "exact-quotient"
        assert res.value == as_fraction(quotient)

        i = rng.randrange(len(pts))
        j = rng.randrange(i, len(pts))
        total = sum(((pts[m + 1] - pts[m]) * value(pts[m]) for m in range(i, j)),
                    sympy.Integer(0))
        got = delta_integral(s, f, s.points()[i], s.points()[j])
        assert isinstance(got, Fraction) and got == as_fraction(total)


def rand_hybrid_pieces(rng, k) -> list:
    """``k`` ascending pieces with rational ends, the first an interval,
    the rest intervals or isolated points at random, with gaps between."""
    x = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    pieces = []
    for i in range(k):
        if i == 0 or rng.random() < 0.5:
            w = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            pieces.append((x, x + w))
            x = x + w
        else:
            pieces.append((x, x))
        x = x + Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return pieces


def as_scale(pieces) -> TimeScale:
    return TimeScale(tuple(lo if lo == hi else (lo, hi) for lo, hi in pieces))


def sympy_delta_integral(expr, var, pieces, a, b):
    """The delta integral of ``expr`` in ``var`` over [a, b], read off the
    piece list: sympy's integral over each dense stretch plus mu(t)
    f(t) at each right-scattered point of [a, b)."""
    rat = lambda x: sympy.Rational(x.numerator, x.denominator)
    total = sympy.Integer(0)
    for i, (lo, hi) in enumerate(pieces):
        c, d = max(lo, a), min(hi, b)
        if c > d:
            continue
        if c < d:
            total += sympy.integrate(expr, (var, rat(c), rat(d)))
        if d == hi and d < b:
            total += (rat(pieces[i + 1][0]) - rat(hi)) * expr.subs(var, rat(hi))
    return sympy.expand(total)


class TestRationalHybridAgainstSympy:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_delta_integral(self, seed):
        rng = random.Random(seed)
        pieces = rand_hybrid_pieces(rng, rng.randint(1, 5))
        s = as_scale(pieces)
        text = rand_poly_text(rng, depth=3)
        f = ScaleFn.from_callable(s, Poly.parse(text, ("t",)))
        expr = sympy.sympify(text, rational=True)
        i = rng.randrange(len(pieces))
        j = rng.randrange(i, len(pieces))
        a, b = pieces[i][0], pieces[j][1]
        got = delta_integral(s, f, a, b)
        assert isinstance(got, Fraction)
        assert got == as_fraction(sympy_delta_integral(expr, T, pieces, a, b))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_double_integral(self, seed):
        rng = random.Random(seed)
        p1 = rand_hybrid_pieces(rng, rng.randint(1, 3))
        p2 = rand_hybrid_pieces(rng, rng.randint(1, 3))
        s1, s2 = as_scale(p1), as_scale(p2)
        text = " + ".join(
            f"({rand_fraction(rng)})*t1^{rng.randint(0, 2)}*t2^{rng.randint(0, 2)}"
            for _ in range(rng.randint(1, 4)))
        surf = SurfaceFn.from_callable(s1, s2, Poly.parse(text, ("t1", "t2")))
        t1, t2 = sympy.symbols("t1 t2")
        expr = sympy.sympify(text, rational=True)
        got = double_integral(ProductScale(s1, s2), surf, (s1.min, s1.max, s2.min, s2.max))
        inner = sympy_delta_integral(expr, t2, p2, s2.min, s2.max)
        assert isinstance(got, Fraction)
        assert got == as_fraction(sympy_delta_integral(inner, t1, p1, s1.min, s1.max))


def rand_points(rng, n) -> list:
    """``n`` ascending rational points with uneven gaps."""
    pts = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))]
    for _ in range(n - 1):
        pts.append(pts[-1] + Fraction(rng.randint(1, 4), rng.randint(1, 3)))
    return pts


def rand_quadratic_text(rng, convex: dict, linear: tuple) -> str:
    """A random quadratic: each ``convex`` monomial gets a coefficient in
    its (lo, hi) range, each ``linear`` monomial one in [-3, 3]."""
    terms = [f"({rng.randint(lo, hi)})*{m}" for m, (lo, hi) in convex.items()]
    terms += [f"({rand_fraction(rng, -3, 3, 3)})*{m}" for m in linear]
    return " + ".join(terms)


def stationary_point(action, unknowns) -> dict:
    """Solve the stationarity equations of ``action``; Fractions by symbol."""
    sol = sympy.solve([sympy.diff(action, u) for u in unknowns], unknowns, dict=True)
    assert len(sol) == 1
    return {u: as_fraction(v) for u, v in sol[0].items()}


class TestMinimizersAgainstSympy:
    """Strictly convex quadratic Lagrangians: 4ab > e^2 for the pure
    quadratic part, so each discrete action has one stationary point,
    its minimizer, and the exact minimizers must land on it."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_one_variable(self, seed):
        rng = random.Random(seed)
        pts = rand_points(rng, rng.randint(3, 9))
        text = rand_quadratic_text(rng, {"v^2": (1, 3), "y^2": (1, 3), "v*y": (-1, 1)},
                                   ("t*y", "t*v", "y", "v"))
        ya, yb = rand_fraction(rng), rand_fraction(rng)
        t, y, v = sympy.symbols("t y v")
        lag = sympy.sympify(text, rational=True)
        rat = lambda x: sympy.Rational(x.numerator, x.denominator)
        ys = [rat(ya)] + list(sympy.symbols(f"u1:{len(pts) - 1}")) + [rat(yb)]
        act = sum(rat(b - a) * lag.subs({t: rat(a), y: ys[i + 1],
                                         v: (ys[i + 1] - ys[i]) / rat(b - a)})
                  for i, (a, b) in enumerate(zip(pts, pts[1:])))
        expect = stationary_point(act, ys[1:-1])

        p = VariationalProblem(TimeScale.discrete(pts), pts[0], pts[-1],
                               Poly.parse(text, ("t", "y", "v")), ya=ya, yb=yb)
        got = brute_force_minimizer(p)
        for k, u in enumerate(ys[1:-1], 1):
            assert type(got(pts[k])) is Fraction and got(pts[k]) == expect[u]

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_two_variables_on_a_4x4_grid(self, seed):
        rng = random.Random(seed)
        p1, p2 = rand_points(rng, 4), rand_points(rng, 4)
        text = rand_quadratic_text(
            rng, {"y1^2": (1, 3), "y2^2": (1, 3), "y0^2": (0, 2), "y1*y2": (-1, 1)},
            ("t1*y0", "t2*y1", "t1*y2", "y0", "y1", "y2"))
        edge = f"({rand_fraction(rng)})*t1 + ({rand_fraction(rng)})*t2*t1 + ({rand_fraction(rng)})"
        t1, t2, y0, y1, y2 = sympy.symbols("t1 t2 y0 y1 y2")
        lag = sympy.sympify(text, rational=True)
        boundary = sympy.sympify(edge, rational=True)
        rat = lambda x: sympy.Rational(x.numerator, x.denominator)
        u = [[sympy.Symbol(f"u{i}_{j}") if 0 < i < 3 and 0 < j < 3
              else boundary.subs({t1: rat(a), t2: rat(b)})
              for j, b in enumerate(p2)] for i, a in enumerate(p1)]
        act = 0
        for i in range(3):
            for j in range(3):
                m1, m2 = rat(p1[i + 1] - p1[i]), rat(p2[j + 1] - p2[j])
                act += m1 * m2 * lag.subs({
                    t1: rat(p1[i]), t2: rat(p2[j]), y0: u[i + 1][j + 1],
                    y1: (u[i + 1][j + 1] - u[i][j + 1]) / m1,
                    y2: (u[i + 1][j + 1] - u[i + 1][j]) / m2})
        unknowns = [u[i][j] for i in (1, 2) for j in (1, 2)]
        expect = stationary_point(act, unknowns)

        s1, s2 = TimeScale.discrete(p1), TimeScale.discrete(p2)
        dp = DoubleProblem(ProductScale(s1, s2), p1[0], p1[-1], p2[0], p2[-1],
                           Poly.parse(text, ("t1", "t2", "y0", "y1", "y2")),
                           Poly.parse(edge, ("t1", "t2")))
        got = brute_force_minimizer_2d(dp)
        for i in (1, 2):
            for j in (1, 2):
                value = got.val(p1[i], p2[j])
                assert type(value) is Fraction and value == expect[u[i][j]]
