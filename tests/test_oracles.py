"""Differential oracles: sympy recomputes what tsvar computes exactly.

Random polynomial text is read by both ``Poly.parse`` and sympy, and the
two must agree term by term, in value and in derivative.  On random
discrete scales the exact delta derivative (the jump quotient) and the
delta integral (the sum of mu(t) f(t)) are recomputed in sympy from the
point list alone.  Skipped when sympy is absent; the runtime never
imports it.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_discrete_scale, rand_fraction
from tsvar import Poly, ScaleFn, delta_deriv, delta_integral

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
