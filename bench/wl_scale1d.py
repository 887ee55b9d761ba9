"""scale-1d: one-variable identities on long discrete rational scales.

Many pieces and few queries per piece, so the cost of locating a point
in a scale grows with its length.  Quadrature never runs here.
"""

from __future__ import annotations

from fractions import Fraction

import oracles
from cases import Case, all_of, at_most, exactly, rand_fraction, rand_points, round_rng

NAME = "scale-1d"

# Sizes repeat on purpose: the median and the 90th percentile of a
# round's verdict times should each fall inside a block of verdicts of
# one kind (jump quotients at n = 1000; the O(n^2) sums around 0.1 s), so
# that run-to-run noise moves them little.  Each repeat draws new inputs.
INTEGRAL_SIZES = (100, 300, 1000, 1000, 1000, 2000)
IBP_SIZES = (100, 300, 1000)
DERIV_COUNTS = {100: 8, 300: 12, 1000: 20, 3000: 4}
EL_SIZES = (50, 100, 200)
KERNEL_SIZES = (50, 100, 200, 300)
MINIMIZER_SIZES = (6, 9, 12)


class Workload:
    def __init__(self, ts, seed: int):
        self.ts = ts
        self.seed = seed

    def round(self, r: int) -> list:
        ts = self.ts
        rng = round_rng(self.seed, r)
        cases = []

        def tabulated(n):
            pts = rand_points(rng, n)
            values = {t: rand_fraction(rng) for t in pts}
            scale = ts.TimeScale.discrete(pts)
            return pts, values, scale, ts.ScaleFn.from_table(scale, values)

        for n in INTEGRAL_SIZES:
            pts, fv, scale, f = tabulated(n)
            a, b = pts[0], pts[-1]
            cases.append(Case(f"delta_integral.n{n}",
                              lambda s=scale, f=f, a=a, b=b: ts.delta_integral(s, f, a, b),
                              exactly(oracles.delta_sum(pts, fv.__getitem__, a, b))))
            cases.append(Case(f"nabla_integral_discrete.n{n}",
                              lambda s=scale, f=f, a=a, b=b: ts.nabla_integral_discrete(s, f, a, b),
                              exactly(oracles.nabla_sum(pts, fv.__getitem__, a, b))))

        for n in IBP_SIZES:
            _, _, scale, f = tabulated(n)
            g = ts.ScaleFn.from_table(scale, {t: rand_fraction(rng) for t in scale.points()})
            for form in (1, 2):
                cases.append(Case(
                    f"ibp_residual.form{form}.n{n}",
                    lambda s=scale, f=f, g=g, form=form: ts.ibp_residual(
                        s, f, g, s.min, s.max, form=form),
                    exactly(Fraction(0))))

        for n, count in DERIV_COUNTS.items():
            pts = rand_points(rng, n)
            coeffs = [rand_fraction(rng, -4, 4, 4) for _ in range(4)]
            text = " + ".join(f"({c.numerator}/{c.denominator})*t^{k}"
                              for k, c in enumerate(coeffs))
            poly = ts.Poly.parse(text, ("t",))
            scale = ts.TimeScale.discrete(pts)
            fn = ts.ScaleFn.from_callable(scale, poly)

            def exact_poly(t, coeffs=coeffs):
                return sum(c * t ** k for k, c in enumerate(coeffs))

            for i in sorted(rng.sample(range(n - 1), count)):
                cases.append(Case(
                    f"delta_deriv.n{n}",
                    lambda s=scale, fn=fn, t=pts[i]: ts.delta_deriv(s, fn, t),
                    all_of(exactly("exact-quotient", lambda d: d.method),
                           exactly(oracles.jump_quotient(pts, exact_poly, i),
                                   lambda d: d.value))))

        for n in EL_SIZES:
            pts = rand_points(rng, n)
            problem = ts.VariationalProblem.from_json({
                "scale": {"mode": "rational",
                          "pieces": [{"point": str(t)} for t in pts]},
                "a": str(pts[0]), "b": str(pts[-1]), "lagrangian": "builtin:v2",
            })
            c0, c1 = rand_fraction(rng), rand_fraction(rng, 1, 9)
            line = ts.ScaleFn.from_callable(problem.scale, lambda t, c0=c0, c1=c1: c0 + c1 * t)
            cases.append(Case(f"el_residual.linear.n{n}",
                              lambda p=problem, y=line: ts.el_residual(p, y),
                              exactly(Fraction(0), lambda rep: rep.max_abs_residual)))
            # Planted negative: y = t^2 is not stationary for v^2 on an
            # uneven scale; the oracle gives the exact residual.
            square = ts.ScaleFn.from_callable(problem.scale, lambda t: t * t)
            cases.append(Case(f"el_residual.planted.n{n}",
                              lambda p=problem, y=square: ts.el_residual(p, y),
                              exactly(oracles.el_v2_max_residual(pts, lambda t: t * t),
                                      lambda rep: rep.max_abs_residual)))

        for n in KERNEL_SIZES:
            pts = rand_points(rng, n)
            scale = ts.TimeScale.discrete(pts)
            for variant, sets in (("delta", oracles.delta_kernel_sets),
                                  ("nabla", oracles.nabla_kernel_sets)):
                constrained, free = sets(pts)
                cases.append(Case(
                    f"fl_kernel.{variant}.n{n}",
                    lambda s=scale, v=variant: ts.fl_kernel(s, v),
                    all_of(exactly(free, lambda k: k.unconstrained),
                           exactly(constrained, lambda k: k.constrained))))

        for n in MINIMIZER_SIZES:
            pts = rand_points(rng, n)
            A, B, C, D = rng.randint(1, 3), rng.randint(0, 3), rng.randint(-3, 3), rng.randint(-3, 3)
            ya, yb = rand_fraction(rng), rand_fraction(rng)
            problem = ts.VariationalProblem.from_poly(
                ts.TimeScale.discrete(pts), pts[0], pts[-1],
                ts.Poly.parse(f"{A}*v^2 + {B}*y^2 + ({C})*t*y + ({D})*y", ("t", "y", "v")),
                ya=ya, yb=yb)
            expect = oracles.quadratic_minimizer_1d(pts, A, B, C, D, ya, yb)
            holder = {}

            def minimize(p=problem, holder=holder):
                holder["y"] = y = ts.brute_force_minimizer(p)
                return y

            def near(y, pts=pts, expect=expect):
                return all(abs(float(y(t) - e)) <= 1e-7 * max(1.0, abs(float(e)))
                           for t, e in zip(pts, expect))

            cases.append(Case(f"brute_force_minimizer.n{n}", minimize, exactly(True, near)))
            cases.append(Case(f"el_residual.minimizer.n{n}",
                              lambda p=problem, holder=holder: ts.el_residual(p, holder["y"]),
                              at_most(1e-9, lambda rep: rep.max_abs_residual)))

        origin = rng.randint(-5, 5)
        cases.append(Case("cx_nabla_endpoints",
                          lambda o=origin: ts.cx_nabla_endpoints(origin=o),
                          exactly(True, lambda v: v.confirmed)))
        # Planted negative: a nonzero interior value is pinned by the
        # pairing, so the refutation must come back unconfirmed.
        inner = origin + rng.randint(1, 3)
        cases.append(Case("cx_nabla_endpoints.override",
                          lambda o=origin, k=inner: ts.cx_nabla_endpoints(
                              origin=o, f_override={k: 1}),
                          exactly(False, lambda v: v.confirmed)))
        return cases
