"""hybrid-numeric: scales that mix interval pieces with isolated points.

The only workload where quadrature and Richardson limits do most of the
work.  Scales stay small, so scale lookups cost little here.
"""

from __future__ import annotations

from fractions import Fraction

import oracles
from cases import Case, all_of, at_most, close_to, exactly, rand_fraction, round_rng

NAME = "hybrid-numeric"

TOL = 1e-10
# Sizes repeat on purpose: the median and the 90th percentile of a
# round's verdict times should each fall inside a block of verdicts of
# one kind (integrals over 24 pieces; Euler-Lagrange residuals over 4
# pieces, with the three chain checks alone above them), so that
# run-to-run noise moves them little.  Each repeat draws new inputs.
FLOAT_PIECES = (4, 12, 24, 24, 24, 24, 40)
DERIVS_PER_SCALE = 2
IBP_PIECES = (4, 12, 24, 40, 40)
EL_PIECES = (4, 4, 4)
EL_REFINE = 32
PRODUCT_POINTS = (2, 4, 6)


def hybrid_pieces(rng, k: int, rational: bool) -> list:
    """``k`` intervals, each followed by one isolated point, inside [0, 2].

    Rational endpoints are dyadic so that every quadrature node, a
    binary float, is exactly a point of the scale."""
    unit = Fraction(1, 2 ** (k.bit_length() + 3))
    x = Fraction(rng.randint(0, 3), 8)
    pieces = []
    for _ in range(k):
        w = unit * rng.randint(2, 6)
        pieces.append((x, x + w))
        x = x + w + unit * rng.randint(1, 3)
        pieces.append((x, x))
        x = x + unit * rng.randint(1, 3)
    if rational:
        return pieces
    return [(float(lo), float(hi)) for lo, hi in pieces]


def as_scale(ts, pieces, mode):
    return ts.TimeScale(tuple(lo if lo == hi else (lo, hi) for lo, hi in pieces), mode)


def rand_poly_text(rng, degree: int) -> str:
    coeffs = [rand_fraction(rng, -3, 3, 4) for _ in range(degree + 1)]
    return " + ".join(f"({c.numerator}/{c.denominator})*t^{k}" for k, c in enumerate(coeffs))


class Workload:
    def __init__(self, ts, seed: int):
        self.ts = ts
        self.seed = seed

    def round(self, r: int) -> list:
        ts = self.ts
        rng = round_rng(self.seed, r)
        cases = []

        for k in FLOAT_PIECES:
            pieces = hybrid_pieces(rng, k, rational=False)
            scale = as_scale(ts, pieces, ts.FLOAT)
            for name, (f, _, df) in oracles.CLOSED_FORMS.items():
                fn = ts.ScaleFn.from_callable(scale, f)
                cases.append(Case(
                    f"delta_integral.{name}.k{k}",
                    lambda s=scale, fn=fn: ts.delta_integral(s, fn, s.min, s.max, tol=TOL),
                    close_to(oracles.hybrid_delta_integral(pieces, name), 1e-8)))
            dense = [(lo, hi) for lo, hi in pieces if hi > lo]
            for lo, hi in rng.sample(dense, DERIVS_PER_SCALE):
                t = lo + (hi - lo) * rng.uniform(0.1, 0.9)
                name = rng.choice(sorted(oracles.CLOSED_FORMS))
                f, _, df = oracles.CLOSED_FORMS[name]
                fn = ts.ScaleFn.from_callable(scale, f)
                expect = df(t)
                cases.append(Case(
                    f"delta_deriv.{name}.k{k}",
                    lambda s=scale, fn=fn, t=t: ts.delta_deriv(s, fn, t),
                    all_of(exactly("numeric-limit", lambda d: d.method),
                           lambda d, e=expect: None if abs(d.value - e) <= max(1e-8, d.est_error)
                           else f"derivative {d.value!r} vs {e!r} beyond max(1e-8, {d.est_error!r})")))

        for k in IBP_PIECES:
            pieces = hybrid_pieces(rng, k, rational=True)
            scale = as_scale(ts, pieces, ts.RATIONAL)
            f = ts.ScaleFn.from_callable(scale, ts.Poly.parse(rand_poly_text(rng, 2), ("t",)))
            g = ts.ScaleFn.from_callable(scale, ts.Poly.parse(rand_poly_text(rng, 2), ("t",)))
            for form in (1, 2):
                cases.append(Case(
                    f"ibp_residual.form{form}.k{k}",
                    lambda s=scale, f=f, g=g, form=form: ts.ibp_residual(
                        s, f, g, s.min, s.max, form=form, tol=TOL),
                    at_most(1e-8)))

        for k in EL_PIECES:
            pieces = hybrid_pieces(rng, k, rational=True)
            problem = ts.VariationalProblem.from_json({
                "scale": as_scale(ts, pieces, ts.RATIONAL).to_json(),
                "a": str(pieces[0][0]), "b": str(pieces[-1][1]),
                "lagrangian": "builtin:v2"})
            line = ts.ScaleFn.from_callable(problem.scale,
                                            ts.Poly.parse(rand_poly_text(rng, 1), ("t",)))
            cases.append(Case(f"el_residual.linear.k{k}",
                              lambda p=problem, y=line: ts.el_residual(p, y, EL_REFINE, TOL),
                              at_most(1e-9, lambda rep: rep.max_abs_residual)))
            # Planted negative: y = t^2 is not stationary for v^2.
            square = ts.ScaleFn.from_callable(problem.scale, ts.Poly.parse("t^2", ("t",)))
            expect = oracles.hybrid_el_v2_max_residual(pieces, lambda t: t * t,
                                                       lambda t: 2 * t, EL_REFINE)
            cases.append(Case(f"el_residual.planted.k{k}",
                              lambda p=problem, y=square: ts.el_residual(p, y, EL_REFINE, TOL),
                              close_to(expect, 1e-6, lambda rep: rep.max_abs_residual)))

        for n in PRODUCT_POINTS:
            # Isolated points followed by one final interval: no point is
            # left-dense and right-scattered, so the chain is not refused.
            unit = Fraction(1, 4)
            pts = sorted({unit * rng.randint(0, 3) + unit * 4 * i for i in range(n)})
            top = pts[-1] + unit * rng.randint(1, 3)
            axis = ts.TimeScale(tuple(pts) + ((top, top + unit * rng.randint(2, 6)),))
            ps = ts.ProductScale(axis, axis)
            k1, k2, k3 = (rng.randint(-3, 3) for _ in range(3))
            surf = ts.SurfaceFn.from_callable(axis, axis, ts.Poly.parse(
                f"({k1})*t1^2 + ({k2})*t1*t2 + ({k3})*t2 + 1", ("t1", "t2")))
            rect = (axis.min, axis.max, axis.min, axis.max)
            cases.append(Case(f"fubini_residual.hybrid.n{n}",
                              lambda ps=ps, f=surf, rect=rect: ts.fubini_residual(ps, f, rect, TOL),
                              at_most(1e-8)))
            dp = ts.DoubleProblem.from_json({"scale1": axis.to_json(), "scale2": axis.to_json(),
                                             "lagrangian": "builtin:grad2"})
            lo, hi = axis.min, axis.max
            c1, c2 = rng.randint(-3, 3), rng.randint(-3, 3)
            u = ts.SurfaceFn.from_callable(
                axis, axis, ts.Poly.parse(f"({c1})*t1 + ({c2})*t2 + t1*t2", ("t1", "t2")))
            eta = ts.SurfaceFn.from_callable(axis, axis, ts.Poly.parse(
                f"(t1-{lo})*({hi}-t1)*(t2-{lo})*({hi}-t2)", ("t1", "t2")))
            cases.append(Case(
                f"derivation_chain_check.hybrid.n{n}",
                lambda dp=dp, u=u, eta=eta: ts.derivation_chain_check(dp, u, eta, TOL),
                all_of(exactly(("first-variation-vs-kernel-form",),
                               lambda steps: tuple(s.label for s in steps)),
                       at_most(4 * TOL, lambda steps: steps[0].residual))))

        # README contract: a numeric branch meets its tolerance or raises
        # ConvergenceError.  The integrable singularity of x^(-1/2) at 0
        # makes adaptive Simpson run out of depth; at the seed it returns
        # a value 5.8e-7 from 2 without raising, a known failure.
        unit = ts.TimeScale.interval(0.0, 1.0, mode=ts.FLOAT)
        inv_sqrt = ts.ScaleFn.from_callable(unit, lambda x: x ** -0.5 if x > 0 else 0.0)
        cases.append(Case(
            "delta_integral.singular",
            lambda: ts.delta_integral(unit, inv_sqrt, 0.0, 1.0, tol=TOL),
            lambda out: None if isinstance(out, ts.ConvergenceError) or (
                isinstance(out, float) and abs(out - 2.0) <= TOL)
            else f"neither within {TOL:g} of 2 nor ConvergenceError: {out!r}",
            known_failure=True))
        return cases
