"""grid-2d: two-variable identities on discrete rational product scales.

Each axis has few pieces, but the rewriting chain makes millions of
jump and lookup calls and re-evaluates trajectory partials at the same
grid point many times.
"""

from __future__ import annotations

from fractions import Fraction

import oracles
from cases import Case, all_of, at_most, exactly, rand_fraction, rand_points, round_rng

NAME = "grid-2d"

# Sizes repeat on purpose: the median and the 90th percentile of a
# round's verdict times should each fall inside a block of verdicts of
# one kind (Fubini swaps at N = 12; chains at N = 8), so that run-to-run
# noise moves them little.  Each repeat draws new inputs.  Larger chains
# (N = 10 ... 30) are timed separately by the traced run's probe.
CHAIN_SIZES = (5, 8, 8, 8, 8, 8, 8, 10, 14)
SUM_SIZES = (5, 6, 8, 10, 16, 30)
FUBINI_BLOCK = (12,) * 12
EL_SIZES = (5, 8, 10)
MINIMIZER_SIZES = (5, 6)

VARS2 = ("t1", "t2", "y0", "y1", "y2")
CHAIN_LABELS = (
    "region-split", "core-by-parts", "t1-strip-single-cell",
    "strip-collapse-identity", "t1-strip-substitute", "t1-strip-drop-d2",
    "t2-strip-reduce", "combine",
)


def _mono(*names):
    return tuple(names.count(v) for v in VARS2)


# The quadratic pool of the acceptance suite, as exponent tuples.
POOL = (
    _mono("y0", "y0"), _mono("y1", "y1"), _mono("y2", "y2"),
    _mono("y0", "y1"), _mono("y0", "y2"), _mono("y1", "y2"),
    _mono("t1", "y0"), _mono("t2", "y1"), _mono("t1", "y2"), _mono("t1", "t2"),
    _mono("y0"), _mono("y1"), _mono("y2"),
)


def rand_quadratic(rng) -> dict:
    terms = {m: rand_fraction(rng, -4, 4, 4) for m in POOL}
    return {m: c for m, c in terms.items() if c}


def scale_json(pts) -> dict:
    return {"mode": "rational", "pieces": [{"point": str(t)} for t in pts]}


def rand_table(rng, p1, p2, zero_edge=False) -> dict:
    def value(t1, t2):
        if zero_edge and (t1 in (p1[0], p1[-1]) or t2 in (p2[0], p2[-1])):
            return Fraction(0)
        return rand_fraction(rng)

    return {(t1, t2): value(t1, t2) for t1 in p1 for t2 in p2}


class Workload:
    def __init__(self, ts, seed: int):
        self.ts = ts
        self.seed = seed

    def problem(self, p1, p2, terms, boundary=None):
        spec = {"scale1": scale_json(p1), "scale2": scale_json(p2),
                "lagrangian": "poly:" + oracles.poly_text(terms, VARS2)}
        if boundary is not None:
            spec["boundary"] = boundary
        return self.ts.DoubleProblem.from_json(spec)

    def round(self, r: int) -> list:
        ts = self.ts
        rng = round_rng(self.seed, r)
        cases = []

        for n in CHAIN_SIZES:
            p1, p2 = rand_points(rng, n), rand_points(rng, n)
            dp = self.problem(p1, p2, rand_quadratic(rng))
            u = ts.SurfaceFn.from_table(dp.ax1, dp.ax2, rand_table(rng, p1, p2))
            eta = ts.SurfaceFn.from_table(dp.ax1, dp.ax2, rand_table(rng, p1, p2, zero_edge=True))
            cases.append(Case(
                f"derivation_chain_check.n{n}",
                lambda dp=dp, u=u, eta=eta: ts.derivation_chain_check(dp, u, eta),
                all_of(exactly(CHAIN_LABELS, lambda steps: tuple(s.label for s in steps)),
                       exactly(True, lambda steps: all(
                           s.residual == 0 and type(s.residual) is not float for s in steps)))))

        for n in SUM_SIZES + FUBINI_BLOCK:
            p1, p2 = rand_points(rng, n), rand_points(rng, n)
            s1, s2 = ts.TimeScale.discrete(p1), ts.TimeScale.discrete(p2)
            table = rand_table(rng, p1, p2)
            f = ts.SurfaceFn.from_table(s1, s2, table)
            ps = ts.ProductScale(s1, s2)
            rect = (p1[0], p1[-1], p2[0], p2[-1])
            cases.append(Case(f"fubini_residual.n{n}",
                              lambda ps=ps, f=f, rect=rect: ts.fubini_residual(ps, f, rect),
                              exactly(Fraction(0))))
            if n not in SUM_SIZES:
                continue
            expect = oracles.double_delta_sum(p1, p2, lambda a, b, t=table: t[(a, b)], *rect)
            cases.append(Case(f"double_integral.n{n}",
                              lambda ps=ps, f=f, rect=rect: ts.double_integral(ps, f, rect),
                              exactly(expect)))

        # Planted negative: a random surface is not stationary; the
        # oracle computes the exact kernel map.
        for n in EL_SIZES:
            p1, p2 = rand_points(rng, n), rand_points(rng, n)
            terms = rand_quadratic(rng)
            dp = self.problem(p1, p2, terms)
            table = rand_table(rng, p1, p2)
            u = ts.SurfaceFn.from_table(dp.ax1, dp.ax2, table)
            best, defined, undefined = oracles.double_el_map(p1, p2, terms, table)
            cases.append(Case(
                f"double_el_residual.planted.n{n}",
                lambda dp=dp, u=u: ts.double_el_residual(dp, u),
                all_of(exactly(best, lambda rep: rep.max_abs_residual),
                       exactly((defined, undefined),
                               lambda rep: (len(rep.residuals), len(rep.gaps))))))

        for n in MINIMIZER_SIZES:
            p1, p2 = rand_points(rng, n), rand_points(rng, n)
            terms = {_mono("y1", "y1"): Fraction(rng.randint(1, 3)),
                     _mono("y2", "y2"): Fraction(rng.randint(1, 3)),
                     _mono("y0", "y0"): Fraction(rng.randint(0, 2)),
                     _mono("t1", "y0"): Fraction(rng.randint(-3, 3)),
                     _mono("y0"): Fraction(rng.randint(-3, 3))}
            terms = {m: c for m, c in terms.items() if c}
            bp, bq, br = (rng.randint(-3, 3) for _ in range(3))
            dp = self.problem(p1, p2, terms, boundary=f"({bp})*t1 + ({bq})*t2 + ({br})")
            holder = {}

            def minimize(dp=dp, holder=holder):
                holder["u"] = u = ts.brute_force_minimizer_2d(dp)
                return u

            def stationary(u, p1=p1, p2=p2, terms=terms, bp=bp, bq=bq, br=br):
                table = {(a, b): u.val(a, b) for a in p1 for b in p2}
                edge_ok = all(
                    abs(float(table[(a, b)] - (bp * a + bq * b + br))) <= 1e-12 * (1 + abs(float(a)) + abs(float(b)))
                    for a in p1 for b in p2
                    if a in (p1[0], p1[-1]) or b in (p2[0], p2[-1]))
                return edge_ok and oracles.double_el_map(p1, p2, terms, table)[0] <= 1e-9

            cases.append(Case(f"brute_force_minimizer_2d.n{n}", minimize,
                              exactly(True, stationary)))
            cases.append(Case(f"double_el_residual.minimizer.n{n}",
                              lambda dp=dp, holder=holder: ts.double_el_residual(dp, holder["u"]),
                              at_most(1e-9, lambda rep: rep.max_abs_residual)))
        return cases
