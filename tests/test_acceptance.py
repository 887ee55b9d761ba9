"""Acceptance gate: one criterion per test, one printed verdict line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every numeric threshold and time budget is stated inline; exact checks
use ``==`` on rational values, never a tolerance.
"""

import io
import json
import math
import pathlib
import random
import time
from fractions import Fraction

from conftest import rand_discrete_scale, rand_fraction, rand_poly1, rand_quadratic2
import tsvar.calculus
from tsvar import (
    FLOAT,
    DoubleProblem,
    Poly,
    ProductScale,
    ScaleFn,
    SurfaceFn,
    TimeScale,
    VariationalProblem,
    brute_force_minimizer,
    brute_force_minimizer_2d,
    cx_eta_not_c1,
    cx_omega_degenerate,
    delta_deriv,
    delta_integral,
    derivation_chain_check,
    double_el_residual,
    double_integral,
    el_residual,
    first_variation,
    fl_kernel,
    fubini_residual,
    ibp_residual,
    nabla_integral_discrete,
    product_rule_residual,
    richardson_limit,
    simple_useful_check,
)
from tsvar.cli import run

FIX = pathlib.Path(__file__).resolve().parent / "fixtures"
VARS2 = ("t1", "t2", "y0", "y1", "y2")

CHAIN_LABELS = [
    "region-split",
    "core-by-parts",
    "t1-strip-single-cell",
    "strip-collapse-identity",
    "t1-strip-substitute",
    "t1-strip-drop-d2",
    "t2-strip-reduce",
    "combine",
]


def verdict(num, ok, detail, elapsed, budget=None):
    if budget is not None:
        ok = ok and elapsed < budget
        detail = f"{detail}; {elapsed:.2f}s of {budget:.0f}s budget"
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def random_surface_tables(rng, s1, s2):
    """A random surface and a random variation vanishing on the rectangle edge."""
    u = {(t1, t2): rand_fraction(rng) for t1 in s1.points() for t2 in s2.points()}
    eta = {
        (t1, t2): rand_fraction(rng)
        if s1.min < t1 < s1.max and s2.min < t2 < s2.max
        else Fraction(0)
        for t1 in s1.points()
        for t2 in s2.points()
    }
    return SurfaceFn.from_table(s1, s2, u), SurfaceFn.from_table(s1, s2, eta)


def test_criterion_01_endpoint_values_invisible_to_nabla_pairing():
    t0 = time.monotonic()
    scale = TimeScale.discrete([1, 2, 3, 4, 5])
    f = ScaleFn.from_table(scale, {1: 1, 2: 0, 3: 0, 4: 0, 5: 1})
    pairings_zero = True
    for mid in (2, 3, 4):
        g = ScaleFn.from_table(scale, {t: 1 if t == mid else 0 for t in scale.points()})
        pairings_zero = pairings_zero and (
            nabla_integral_discrete(scale, lambda t: f(t) * g(t), 1, 5) == 0
        )
    endpoints_nonzero = f(1) == 1 and f(5) == 1
    code = run(["counterexample", "nabla-endpoints"], out=io.StringIO())
    elapsed = time.monotonic() - t0
    verdict(
        1,
        pairings_zero and endpoints_nonzero and code == 0,
        f"all interior-indicator pairings are exactly 0 with f(1)=f(5)=1, CLI exit {code}",
        elapsed, budget=1.0,
    )


def test_criterion_02_fundamental_lemma_kernels_exact():
    t0 = time.monotonic()
    delta = fl_kernel(TimeScale.discrete(range(6)), "delta")
    nabla = fl_kernel(TimeScale.discrete(range(1, 6)), "nabla")
    ok = (
        set(delta.unconstrained) == {4}
        and set(delta.constrained) == {0, 1, 2, 3}
        and delta.claim_holds
        and set(nabla.unconstrained) == {1, 5}
        and not nabla.claim_holds
    )
    elapsed = time.monotonic() - t0
    verdict(
        2,
        ok,
        "delta kernel on {0..5} frees exactly {4} and forces {0..3}; "
        "nabla kernel on {1..5} frees exactly {1, 5}",
        elapsed, budget=1.0,
    )


def test_criterion_03_admissible_variation_with_discontinuous_derivative():
    t0 = time.monotonic()
    v = cx_eta_not_c1()
    d = dict(v.details)
    quotient = float(d["delta derivative at t0 (jump quotient)"])
    left = float(d["left limit of the classical slope"])
    jump = float(d["discontinuity of the derivative at t0"])
    ok = (
        v.confirmed
        and quotient == -0.28125
        and abs(left + 0.1875) <= 1e-9
        and abs(jump - 0.09375) <= 1e-9
    )
    elapsed = time.monotonic() - t0
    verdict(
        3,
        ok,
        f"jump quotient {quotient}, left slope limit {left!r}, |jump - 0.09375| <= 1e-9",
        elapsed, budget=1.0,
    )


def test_criterion_04_grid_cell_bump_degenerates():
    t0 = time.monotonic()
    v = cx_omega_degenerate()
    axis = TimeScale.discrete(range(6))
    ps = ProductScale(axis, axis)
    lo, hi = Fraction(1), Fraction(2)

    def bump(t1, t2):
        if lo <= t1 <= hi and lo <= t2 <= hi:
            return (t1 - lo) ** 2 * (t1 - hi) ** 2 * (t2 - lo) ** 2 * (t2 - hi) ** 2
        return Fraction(0)

    zero_on_grid = all(
        bump(t1, t2) == 0 for t1 in axis.points() for t2 in axis.points()
    )
    rng = random.Random(404)
    pairings_zero = True
    rect = (Fraction(0), Fraction(5), Fraction(0), Fraction(5))
    for _ in range(5):
        m = {(p, q): rand_fraction(rng) for p in axis.points() for q in axis.points()}
        f = SurfaceFn.from_callable(
            axis, axis,
            lambda t1, t2, m=m: m[(t1, t2)] * bump(axis.sigma(t1), axis.sigma(t2)),
        )
        pairings_zero = pairings_zero and double_integral(ps, f, rect) == 0
    elapsed = time.monotonic() - t0
    verdict(
        4,
        v.confirmed and zero_on_grid and pairings_zero,
        "cell bump vanishes at all 36 grid points and pairs to exactly 0 "
        "with 5 random tabulated test functions",
        elapsed, budget=1.0,
    )


def test_criterion_05_derivation_chain_exact_on_random_problems():
    t0 = time.monotonic()
    rng = random.Random(505)
    fixed = Poly.parse("y0^2 + y1^2 + y2^2", VARS2)
    jobs = [fixed] * 20 + [rand_quadratic2(rng) for _ in range(5)]
    checked = 0
    ok = True
    for poly in jobs:
        s1 = rand_discrete_scale(rng, rng.randint(4, 6))
        s2 = rand_discrete_scale(rng, rng.randint(4, 6))
        dp = DoubleProblem(ProductScale(s1, s2), s1.min, s1.max, s2.min, s2.max, poly)
        u, eta = random_surface_tables(rng, s1, s2)
        steps = derivation_chain_check(dp, u, eta)
        ok = ok and [s.label for s in steps] == CHAIN_LABELS
        ok = ok and all(s.residual == 0 for s in steps)
        checked += len(steps)
    elapsed = time.monotonic() - t0
    verdict(
        5,
        ok,
        f"{checked} labeled rewriting steps across 25 random problems, "
        "each residual exactly 0 in rational arithmetic",
        elapsed, budget=30.0,
    )


def test_criterion_06_pointwise_and_by_parts_identities_exact():
    t0 = time.monotonic()
    rng = random.Random(606)
    ok = True
    scales = 0
    for _ in range(50):
        scale = rand_discrete_scale(rng, rng.randint(3, 12))
        pts = scale.points()
        fp = rand_poly1(rng)
        gp = rand_poly1(rng)
        f = ScaleFn.from_table(scale, {t: fp(t) for t in pts})
        g = ScaleFn.from_table(scale, {t: gp(t) for t in pts})
        for t in pts[:-1]:
            ok = ok and simple_useful_check(scale, f, t) == 0
            ok = ok and product_rule_residual(scale, f, g, t) == (0, 0)
            cell = delta_integral(scale, f, t, scale.sigma(t))
            ok = ok and cell == scale.mu(t) * f(t)
        ok = ok and ibp_residual(scale, f, g, scale.min, scale.max, form=1) == 0
        ok = ok and ibp_residual(scale, f, g, scale.min, scale.max, form=2) == 0
        scales += 1
    elapsed = time.monotonic() - t0
    verdict(
        6,
        ok,
        f"forward-value, both product rules, single-cell integral, and both "
        f"by-parts forms exact on {scales} random discrete scales",
        elapsed, budget=30.0,
    )


def test_criterion_07_minimizers_are_stationary():
    t0 = time.monotonic()
    rng = random.Random(707)
    ok = True
    worst_1d = 0.0
    for _ in range(10):
        scale = rand_discrete_scale(rng, rng.randint(4, 12))
        spec = (
            f"{rng.randint(1, 3)}*v^2 + {rng.randint(0, 3)}*y^2 "
            f"+ ({rng.randint(-3, 3)})*t*y + ({rng.randint(-3, 3)})*y"
        )
        p = VariationalProblem(
            scale, scale.min, scale.max, Poly.parse(spec, ("t", "y", "v")),
            ya=rand_fraction(rng), yb=rand_fraction(rng),
        )
        y = brute_force_minimizer(p)
        rep = el_residual(p, y)
        worst_1d = max(worst_1d, abs(float(rep.max_abs_residual)))
        ok = ok and float(rep.max_abs_residual) <= 1e-9

    dp = DoubleProblem.from_json(
        json.loads((FIX / "dprob_grad2.json").read_text())
    )
    u = brute_force_minimizer_2d(dp)
    rep2 = double_el_residual(dp, u)
    ok = ok and float(rep2.max_abs_residual) <= 1e-9
    worst_fv = 0.0
    pts = dp.ax1.points()
    for i in pts[1:-1]:
        for j in pts[1:-1]:
            probe = SurfaceFn.from_table(
                dp.ax1, dp.ax2,
                {
                    (t1, t2): Fraction(1 if (t1, t2) == (i, j) else 0)
                    for t1 in pts for t2 in pts
                },
            )
            worst_fv = max(worst_fv, abs(float(first_variation(dp, u, probe))))
    ok = ok and worst_fv <= 1e-9
    elapsed = time.monotonic() - t0
    verdict(
        7,
        ok,
        f"10 random convex problems: max stationarity residual {worst_1d:.2e} <= 1e-9; "
        f"5x5 Dirichlet minimizer: kernel max {float(rep2.max_abs_residual):.2e} and "
        f"first variation max {worst_fv:.2e} <= 1e-9 over the spanning basis",
        elapsed, budget=60.0,
    )


def test_criterion_08_fubini():
    t0 = time.monotonic()
    rng = random.Random(808)
    discrete_exact = True
    for _ in range(5):
        s1 = rand_discrete_scale(rng, rng.randint(2, 6))
        s2 = rand_discrete_scale(rng, rng.randint(2, 6))
        table = {
            (t1, t2): rand_fraction(rng) for t1 in s1.points() for t2 in s2.points()
        }
        f = SurfaceFn.from_table(s1, s2, table)
        r = fubini_residual(ProductScale(s1, s2), f, (s1.min, s1.max, s2.min, s2.max))
        discrete_exact = discrete_exact and r == 0
    hyb = TimeScale(((0.0, 1.0), (2.0, 2.0)), mode=FLOAT)
    fh = SurfaceFn.from_callable(hyb, hyb, lambda a, b: a * b)
    rh = fubini_residual(ProductScale(hyb, hyb), fh, (0.0, 2.0, 0.0, 2.0))
    elapsed = time.monotonic() - t0
    verdict(
        8,
        discrete_exact and abs(float(rh)) <= 2e-10,
        f"order swap exactly 0 on 5 random discrete rational rectangles; "
        f"{float(rh):.2e} <= 2e-10 on the hybrid square with f = t1*t2",
        elapsed, budget=10.0,
    )


def test_criterion_09_numeric_derivative_branch_accuracy(monkeypatch):
    t0 = time.monotonic()
    scale = TimeScale.interval(0.0, 1.0, mode=FLOAT)
    limits = []

    def counted_limit(*args, **kwargs):
        limits.append(1)
        return richardson_limit(*args, **kwargs)

    monkeypatch.setattr(tsvar.calculus, "richardson_limit", counted_limit)
    # Closed forms carry no derivative, so every slope is a Richardson limit.
    closed_forms = [
        (math.sin, math.cos),
        (math.exp, math.exp),
        (lambda t: 1.0 / (1.0 + t * t), lambda t: -2.0 * t / (1.0 + t * t) ** 2),
        (lambda t: math.sqrt(1.0 + t), lambda t: 0.5 / math.sqrt(1.0 + t)),
    ]
    rng = random.Random(909)
    ok = True
    sampled = 0
    worst = 0.0
    for f, df in closed_forms:
        fn = ScaleFn.from_callable(scale, f)
        for _ in range(25):
            t = rng.uniform(0.0, 0.99)
            res = delta_deriv(scale, fn, t)
            err = abs(res.value - df(t))
            worst = max(worst, err)
            ok = ok and res.method == "numeric-limit"
            ok = ok and err <= max(1e-8, res.est_error)
            sampled += 1
    numeric_limits = len(limits)
    # Polynomial data brings its own derivative: no limit, exact slope.
    analytic = 0
    for src in ("t^2", "t^3", "t^4 - t", "3*t^3 - 2*t^2 + 5*t - 1"):
        poly = Poly.parse(src, ("t",))
        fn = ScaleFn.from_callable(scale, poly)
        for _ in range(5):
            t = rng.uniform(0.0, 0.99)
            res = delta_deriv(scale, fn, t)
            ok = ok and (res.method, res.est_error) == ("analytic", 0.0)
            ok = ok and res.value == float(poly.diff("t")(t))
            analytic += 1
    elapsed = time.monotonic() - t0
    verdict(
        9,
        ok and sampled == 100 and numeric_limits >= sampled and len(limits) == numeric_limits,
        f"numeric limit matches the closed-form derivative at {sampled} right-dense "
        f"points ({numeric_limits} Richardson limits), worst error {worst:.2e} within "
        f"max(1e-8, reported estimate); polynomial data reports the analytic slope "
        f"at {analytic} points with no limit",
        elapsed, budget=10.0,
    )


def test_criterion_10_cli_determinism_and_exit_contract():
    t0 = time.monotonic()

    def invoke(*argv):
        buf = io.StringIO()
        code = run(list(argv), out=buf)
        return code, buf.getvalue()

    z6 = str(FIX / "z6.json")
    args = ("deriv", "--scale", z6, "--fn", "t^2", "--t", "3", "--format", "json")
    first = invoke(*args)
    stable = first == invoke(*args) and first[0] == 0

    rep = json.loads(first[1])
    reloaded = TimeScale.from_json(rep["inputs"]["scale"])
    original = TimeScale.from_json(json.loads(pathlib.Path(z6).read_text()))
    round_trip = reloaded == original
    code_tab, text_tab = invoke(
        "deriv", "--scale", z6, "--fn", str(FIX / "table_tsq.json"), "--t", "3"
    )
    round_trip = round_trip and (code_tab, text_tab) == (0, "7\n")

    contract = True
    for name in ("malformed_syntax.json", "malformed_nan.json", "malformed_interval.json"):
        code, text = invoke("classify", "--scale", str(FIX / name), "--t", "0")
        contract = contract and code == 2 and text == ""
    elapsed = time.monotonic() - t0
    verdict(
        10,
        stable and round_trip and contract,
        "byte-identical JSON across repeated runs, embedded scale and tabulated "
        "function reload cleanly, and all 3 malformed fixtures exit 2",
        elapsed,
    )
