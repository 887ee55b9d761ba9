import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (rand_discrete_scale, rand_fraction, rand_poly1, rand_quadratic2,
                      rand_tabulation)
import tsvar.calculus
from tsvar import (
    ANALYTIC,
    ConvergenceError,
    DomainError,
    DoubleProblem,
    EXACT_QUOTIENT,
    FLOAT,
    NUMERIC_LIMIT,
    Poly,
    ProductScale,
    ScaleFn,
    SurfaceFn,
    TimeScale,
    UnsupportedScaleError,
    VariationalProblem,
    delta_deriv,
    delta_integral,
    derivation_chain_check,
    el_residual,
    first_variation,
    fubini_residual,
    ibp_residual,
    junction_audit,
    nabla_integral_discrete,
    product_rule_residual,
    simple_useful_check,
    tabulated_from_json,
)
from tsvar.double import _el_kernel_at, _jump, _kernel_pairing, _traj_args
from tsvar.quadrature import QUAD_TOL

HYBRID = TimeScale(((0.0, 2.0), (3.0, 3.0)), mode=FLOAT)
# Rational, with interval ends that are not binary floats.  Each end
# rounds into its piece, so every quadrature node is a point of the scale.
RAT_HYBRID = TimeScale(
    ((Fraction(1, 10), Fraction(2, 3)), 1, (Fraction(5, 4), Fraction(11, 6)), Fraction(5, 2))
)


class TestDeltaDerivative:
    def test_square_at_scattered_point_is_exact(self):
        s = TimeScale.discrete(range(6))
        fn = ScaleFn.from_callable(s, lambda t: t * t)
        res = delta_deriv(s, fn, 3)
        assert res.value == Fraction(7)
        assert res.method == EXACT_QUOTIENT
        assert res.est_error == 0

    def test_numeric_limit_at_dense_point(self):
        fn = ScaleFn.from_callable(HYBRID, math.sin)
        res = delta_deriv(HYBRID, fn, 1.0)
        assert res.method == NUMERIC_LIMIT
        assert abs(res.value - math.cos(1.0)) <= max(1e-10, res.est_error)

    def test_one_sided_at_piece_bottom(self):
        fn = ScaleFn.from_callable(HYBRID, lambda t: t**3)
        res = delta_deriv(HYBRID, fn, 0.0)
        assert abs(res.value - 0.0) <= max(1e-8, res.est_error)

    def test_quotient_beats_slope_at_piece_top(self):
        fn = ScaleFn.from_callable(HYBRID, lambda t: t**3)
        res = delta_deriv(HYBRID, fn, 2.0)
        assert res.method == EXACT_QUOTIENT
        assert res.value == pytest.approx((27.0 - 8.0) / 1.0)

    def test_undefined_at_left_scattered_max(self):
        s = TimeScale.discrete(range(4))
        fn = ScaleFn.from_callable(s, lambda t: t)
        with pytest.raises(DomainError):
            delta_deriv(s, fn, 3)

    def test_defined_at_left_dense_max(self):
        s = TimeScale.interval(0.0, 1.0, mode=FLOAT)
        fn = ScaleFn.from_callable(s, lambda t: t * t)
        res = delta_deriv(s, fn, 1.0)
        assert abs(res.value - 2.0) <= max(1e-8, res.est_error)

    def test_unbounded_slope_raises_convergence_error(self):
        fn = ScaleFn.from_callable(HYBRID, lambda t: math.sqrt(abs(t)))
        with pytest.raises(ConvergenceError) as exc_info:
            delta_deriv(HYBRID, fn, 0.0)
        assert exc_info.value.estimate is not None

    def test_analytic_derivative_bypasses_sampling(self):
        fn = ScaleFn.from_callable(HYBRID, math.sin, deriv=math.cos)
        res = delta_deriv(HYBRID, fn, 0.5)
        assert res.value == math.cos(0.5)
        assert res.est_error == 0


class TestScaleFn:
    def test_table_lookup_and_missing_point(self):
        s = TimeScale.discrete([0, 1, 2])
        fn = ScaleFn.from_table(s, {0: 5, 1: "7", 2: Fraction(1, 3)})
        assert fn(1) == Fraction(7)
        assert fn(2) == Fraction(1, 3)
        with pytest.raises(DomainError):
            ScaleFn.from_table(s, {0: 1, 5: 2})

    def test_table_requires_discrete_scale(self):
        with pytest.raises(UnsupportedScaleError):
            ScaleFn.from_table(TimeScale.interval(0, 1), {0: 1})

    def test_tabulated_from_json(self):
        s = TimeScale.discrete(range(3))
        fn = tabulated_from_json(
            {"scale": s.to_json(), "values": {"0": 0, "1": "1/2", "2": 2}}
        )
        assert fn(1) == Fraction(1, 2)
        with pytest.raises(DomainError):
            tabulated_from_json({"scale": s.to_json(), "values": {"oops": 1}})
        with pytest.raises(DomainError):
            tabulated_from_json({"scale": s.to_json()})


class TestTableProbe:
    """A Fraction probe reads a table directly; every other argument still
    goes through the scale's coercion, snapping and refusals."""

    S = TimeScale.discrete([0, Fraction(1, 2), 1])
    FN = ScaleFn.from_table(S, {0: 3, Fraction(1, 2): 5, 1: 7})
    SURF = SurfaceFn.from_table(S, S, [[3 * i + j for j in range(3)] for i in range(3)])
    FLOAT_S = TimeScale.discrete([0.0, 0.5, 1.0], mode=FLOAT, eps=1e-9)

    def test_fraction_probe_reads_the_table(self):
        assert self.FN(Fraction(1, 2)) == 5
        assert self.SURF.val(Fraction(1, 2), Fraction(1)) == 5

    def test_booleans_are_still_refused(self):
        with pytest.raises(DomainError, match="booleans are not scalars"):
            self.FN(True)
        for args in ((True, Fraction(0)), (Fraction(0), True)):
            with pytest.raises(DomainError, match="booleans are not scalars"):
                self.SURF.val(*args)

    def test_a_fraction_off_the_scale_is_still_refused(self):
        with pytest.raises(DomainError, match=r"^1/3 is not a point of the scale$"):
            self.FN(Fraction(1, 3))
        for args in ((Fraction(1, 3), Fraction(0)), (Fraction(0), Fraction(1, 3))):
            with pytest.raises(DomainError, match=r"^1/3 is not a point of the scale$"):
                self.SURF.val(*args)

    def test_a_point_missing_from_the_table_is_still_refused(self):
        # Tables are lists over the scale's point index; None marks a gap.
        fn = ScaleFn(self.S, table=[Fraction(1), None, None])
        with pytest.raises(DomainError, match="^1/2 is not tabulated$"):
            fn(Fraction(1, 2))
        surf = SurfaceFn(self.S, self.S, table=[[Fraction(1), None, None]] + [[None] * 3] * 2)
        with pytest.raises(DomainError, match=r"^\(0, 1/2\) is not tabulated$"):
            surf.val(Fraction(0), Fraction(1, 2))

    def test_point_text_is_still_accepted(self):
        assert self.FN("1/2") == 5
        assert self.SURF.val("1/2", 1) == 5

    def test_float_table_with_eps_still_snaps(self):
        fn = ScaleFn.from_table(self.FLOAT_S, {0.0: 1.0, 0.5: 2.0, 1.0: 4.0})
        surf = SurfaceFn.from_table(self.FLOAT_S, self.FLOAT_S,
                                    [[3.0 * i + j for j in range(3)] for i in range(3)])
        near = Fraction(1, 2) + Fraction(1, 10**12)
        for probe in (0.5 + 1e-12, near, Fraction(1, 2)):
            assert fn(probe) == 2.0
            assert surf.val(probe, 1.0) == 5.0
        with pytest.raises(DomainError, match="is not a point of the scale"):
            fn(Fraction(1, 4))


class TestPolyData:
    """A Poly handed to from_callable brings its own derivative."""

    def test_poly_carries_its_derivative(self):
        poly = Poly.parse("t^3 - 2*t", ("t",))
        assert ScaleFn.from_callable(RAT_HYBRID, poly).partials == (poly.diff("t"),)
        mine = lambda t: 0
        assert ScaleFn.from_callable(RAT_HYBRID, poly, deriv=mine).partials[0] is mine

    def test_dense_slope_is_exact(self):
        fn = ScaleFn.from_callable(RAT_HYBRID, Poly.parse("t^3 - 2*t", ("t",)))
        res = delta_deriv(RAT_HYBRID, fn, Fraction(1, 3))
        assert type(res.value) is Fraction and res.value == Fraction(-5, 3)
        assert (res.method, res.est_error) == (ANALYTIC, 0)

    def test_a_bare_poly_slopes_by_its_own_derivative(self):
        # A one-variable Poly handed as it is, not wrapped in a ScaleFn: exact
        # on a rational scale, and a float of the same slope on a float one.
        scale = TimeScale(((0, Fraction(3, 4)), 1, (Fraction(5, 4), 2)))
        square = Poly.parse("t^2", ("t",))
        res = delta_deriv(scale, square, Fraction(1, 2))
        assert type(res.value) is Fraction and res.value == 1 and res.method == ANALYTIC
        p = VariationalProblem(scale, 0, 2, Poly.parse("v^2", ("t", "y", "v")))
        for y in (square, ScaleFn.from_callable(scale, square)):
            worst = el_residual(p, y, dense_refinement=2).max_abs_residual
            assert type(worst) is Fraction and worst == Fraction(37, 9)
        floats = TimeScale(((0.0, 0.75), 1.0, (1.25, 2.0)), mode=FLOAT)
        res = delta_deriv(floats, square, 0.5)
        assert (repr(res.value), res.method) == ("1.0", ANALYTIC)

    def test_no_richardson_limit_on_poly_data(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("richardson_limit called on polynomial data")

        monkeypatch.setattr(tsvar.calculus, "richardson_limit", refuse)
        f = ScaleFn.from_callable(RAT_HYBRID, Poly.parse("t^2 - 1/3", ("t",)))
        g = ScaleFn.from_callable(RAT_HYBRID, Poly.parse("2*t^3 + t", ("t",)))
        for form in (1, 2):
            assert ibp_residual(RAT_HYBRID, f, g, RAT_HYBRID.min, RAT_HYBRID.max, form) <= 1e-9
        assert max(product_rule_residual(RAT_HYBRID, f, g, Fraction(1, 3))) <= 1e-9
        p = VariationalProblem.from_json({
            "scale": RAT_HYBRID.to_json(), "a": "1/10", "b": "5/2", "lagrangian": "builtin:v2",
        })
        line = ScaleFn.from_callable(p.scale, Poly.parse("3*t - 1/7", ("t",)))
        assert el_residual(p, line, dense_refinement=8).max_abs_residual <= 1e-9


class TestExactDenseIntegrals:
    """On a rational scale, polynomial data integrate every dense piece
    exactly: no Simpson, no Richardson limit, a Fraction result.  Any
    other data, and any float scale, still take the numeric branch."""

    AXIS = TimeScale((0, Fraction(1, 2), (1, 2)))

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"simpson": 0, "richardson": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for key, name in (("simpson", "adaptive_simpson"), ("richardson", "richardson_limit")):
            monkeypatch.setattr(tsvar.calculus, name, counted(key, getattr(tsvar.calculus, name)))
        return counts

    def poly_fns(self, scale):
        f = ScaleFn.from_callable(scale, Poly.parse("t^2 - 1/3", ("t",)))
        g = ScaleFn.from_callable(scale, Poly.parse("2*t^3 + t", ("t",)))
        return f, g

    def double_problem(self, u_text="2*t1 - t2 + t1*t2"):
        axis = self.AXIS
        ps = ProductScale(axis, axis)
        dp = DoubleProblem.from_json({"scale1": axis.to_json(), "scale2": axis.to_json(),
                                      "lagrangian": "builtin:grad2"})
        u = SurfaceFn.from_callable(axis, axis, Poly.parse(u_text, ("t1", "t2")))
        eta = SurfaceFn.from_callable(axis, axis, Poly.parse("t1*(2-t1)*t2*(2-t2)", ("t1", "t2")))
        return ps, dp, u, eta

    def test_poly_data_take_no_numeric_branch(self, calls):
        f, g = self.poly_fns(RAT_HYBRID)
        a, b = RAT_HYBRID.min, RAT_HYBRID.max
        # 1/10..2/3 and 5/4..11/6 by antiderivative, 1 and 11/6 across gaps.
        prim = lambda t: t ** 3 / 3 - t / 3
        expect = (prim(Fraction(2, 3)) - prim(Fraction(1, 10)) + (Fraction(5, 4) - 1) * f(1)
                  + prim(Fraction(11, 6)) - prim(Fraction(5, 4))
                  + (Fraction(5, 2) - Fraction(11, 6)) * f(Fraction(11, 6))
                  + (1 - Fraction(2, 3)) * f(Fraction(2, 3)))
        value = delta_integral(RAT_HYBRID, f, a, b)
        assert isinstance(value, Fraction) and value == expect
        for form in (1, 2):
            r = ibp_residual(RAT_HYBRID, f, g, a, b, form)
            assert isinstance(r, Fraction) and r == 0
        p = VariationalProblem.from_json({
            "scale": RAT_HYBRID.to_json(), "a": "1/10", "b": "5/2", "lagrangian": "builtin:v2",
        })
        line = ScaleFn.from_callable(p.scale, Poly.parse("3*t - 1/7", ("t",)))
        assert el_residual(p, line, dense_refinement=8).max_abs_residual == 0
        ps, dp, u, eta = self.double_problem()
        rect = (self.AXIS.min, self.AXIS.max, self.AXIS.min, self.AXIS.max)
        r = fubini_residual(ps, u, rect)
        assert isinstance(r, Fraction) and r == 0
        (step,) = derivation_chain_check(dp, u, eta)
        assert isinstance(step.residual, Fraction) and step.residual == 0
        assert calls == {"simpson": 0, "richardson": 0}

    def test_jump_onto_a_dense_piece_takes_the_analytic_slope(self, calls):
        # The gap point 1/2 jumps to 1, where the dense piece [1, 2] starts,
        # so its kernel reads the trajectory at 1 with sigma(1) = 1: a
        # right-dense point, whose slope is u's own partial, not a quotient
        # over a zero gap and not a Richardson limit.
        ps, dp, u, eta = self.double_problem("t1^2*t2")
        half, one = Fraction(1, 2), Fraction(1)
        assert self.AXIS.sigma(half) == one == self.AXIS.sigma(one)
        # grad2 with u = t1^2 t2 at (1/2, 1/2): L_y1 = 2 u_delta1(., sigma2) is
        # 3 at t1 = 1/2 and 2 * 2 t1 t2 = 4 at (1, 1), so its quotient is 2;
        # L_y2 = 2 u_delta2(sigma1, .) is 2 at both ends; L_y0 = 0.
        place = _jump(self.AXIS, half)
        assert place[2:] == (one, half)
        assert _el_kernel_at(dp, u, place, place) == -2
        pairing = _kernel_pairing(dp, u, eta, QUAD_TOL)
        assert isinstance(pairing, Fraction) and pairing == first_variation(dp, u, eta)
        (step,) = derivation_chain_check(dp, u, eta)
        assert step.residual == 0
        assert calls == {"simpson": 0, "richardson": 0}

    def test_plain_callables_take_simpson(self, calls):
        # Reads a symbolic node as x * x; only Simpson may see it.
        square = lambda x: 0 if x == 0 else x * x
        a, b = RAT_HYBRID.min, RAT_HYBRID.max
        for fn in (square, ScaleFn.from_callable(RAT_HYBRID, square)):
            before = calls["simpson"]
            assert isinstance(delta_integral(RAT_HYBRID, fn, a, b), float)
            assert calls["simpson"] > before
        f, g = self.poly_fns(RAT_HYBRID)
        before = calls["simpson"]
        plain_g = ScaleFn.from_callable(RAT_HYBRID, g.func, deriv=lambda t: 6 * t * t + 1)
        assert ibp_residual(RAT_HYBRID, f, plain_g, a, b) <= 1e-9
        assert calls["simpson"] > before
        p = VariationalProblem.from_json({
            "scale": RAT_HYBRID.to_json(), "a": "1/10", "b": "5/2", "lagrangian": "builtin:v2",
        })
        before = calls["simpson"]
        assert el_residual(p, lambda t: 3 * t, dense_refinement=4).max_abs_residual <= 1e-9
        assert calls["simpson"] > before
        ps, dp, u, eta = self.double_problem()
        rect = (self.AXIS.min, self.AXIS.max, self.AXIS.min, self.AXIS.max)
        before = calls["simpson"]
        surf = SurfaceFn.from_callable(self.AXIS, self.AXIS, lambda t1, t2: t1 * t2,
                                       d1=lambda t1, t2: t2, d2=lambda t1, t2: t1)
        assert fubini_residual(ps, surf, rect) <= 1e-9
        assert calls["simpson"] > before
        # A Poly surface whose axis-1 slope is a plain callable.
        before = calls["simpson"]
        u_plain = SurfaceFn.from_callable(self.AXIS, self.AXIS, u.func,
                                          d1=lambda t1, t2: 2 + t2)
        (step,) = derivation_chain_check(dp, u_plain, eta)
        assert step.residual <= 1e-8
        assert calls["simpson"] > before

    def test_float_scales_take_simpson(self, calls):
        f, g = self.poly_fns(HYBRID)
        assert isinstance(delta_integral(HYBRID, f, 0.0, 3.0), float)
        assert calls["simpson"] > 0
        before = calls["simpson"]
        assert ibp_residual(HYBRID, f, g, 0.0, 3.0) <= 1e-9
        assert calls["simpson"] > before

    def test_tolerance_reaches_the_limits(self, monkeypatch):
        # Without a derivative, every dense slope is a Richardson limit,
        # and ibp_residual hands it its own tolerance.
        seen = []
        real = tsvar.calculus.richardson_limit

        def spy(sample, h0, order, tol):
            seen.append(tol)
            return real(sample, h0, order=order, tol=tol)

        monkeypatch.setattr(tsvar.calculus, "richardson_limit", spy)
        f = ScaleFn(HYBRID, func=math.sin)
        g = ScaleFn(HYBRID, func=math.exp)
        for tol in (1e-6, 1e-9):
            seen.clear()
            assert ibp_residual(HYBRID, f, g, 0.0, 3.0, tol=tol) <= 10 * tol
            assert seen and set(seen) == {tol}


class TestBeyondFloatRange:
    """A rational hybrid scale whose gap sum is past the largest float."""

    BIG = TimeScale.from_json({"mode": "rational", "pieces": [
        {"interval": ["0", "1"]}, {"point": "1e400"}, {"point": "2e400"}]})

    def test_poly_data_stay_exact(self):
        fn = ScaleFn.from_callable(self.BIG, Poly.parse("t", ("t",)))
        value = delta_integral(self.BIG, fn, 0, self.BIG.max)
        assert value == (2 * Fraction(10) ** 800 + 2 * Fraction(10) ** 400 - 1) / 2

    def test_plain_callable_raises_domain_error(self):
        fn = ScaleFn.from_callable(self.BIG, lambda t: t)
        with pytest.raises(DomainError, match=r"10\^800"):
            delta_integral(self.BIG, fn, 0, self.BIG.max)


class TestDeltaIntegral:
    def test_discrete_oracle_values(self):
        s = TimeScale.discrete(range(6))
        sq = ScaleFn.from_callable(s, lambda t: t * t)
        assert delta_integral(s, sq, 3, 4) == Fraction(9)
        one = ScaleFn.from_callable(s, lambda t: Fraction(1))
        assert delta_integral(s, one, 0, 5) == Fraction(5)

    def test_hybrid_oracle_value(self):
        s = TimeScale(((Fraction(0), Fraction(1)), (Fraction(2), Fraction(2))))
        fn = ScaleFn.from_callable(s, lambda t: t, deriv=lambda t: 1)
        v = delta_integral(s, fn, 0, 2)
        # 1/2 from the interval plus 1 * f(1) across the gap
        assert abs(v - 1.5) <= 1e-10

    def test_float_interval_matches_antiderivative(self):
        fn = ScaleFn.from_callable(HYBRID, math.sin)
        v = delta_integral(HYBRID, fn, 0.0, 3.0)
        exact = (1 - math.cos(2.0)) + 1.0 * math.sin(2.0)
        assert abs(v - exact) <= 1e-9

    def test_empty_and_reversed_ranges(self):
        s = TimeScale.discrete(range(6))
        fn = ScaleFn.from_callable(s, lambda t: t)
        assert delta_integral(s, fn, 2, 2) == 0
        with pytest.raises(DomainError):
            delta_integral(s, fn, 3, 1)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_additive_over_subranges(self, seed):
        rng = random.Random(seed)
        s = rand_discrete_scale(rng, rng.randint(3, 8))
        fn = rand_tabulation(rng, s)
        pts = s.points()
        i, j, k = sorted(rng.sample(range(len(pts)), 3))
        a, c, b = pts[i], pts[j], pts[k]
        whole = delta_integral(s, fn, a, b)
        assert whole == delta_integral(s, fn, a, c) + delta_integral(s, fn, c, b)
        assert isinstance(whole, Fraction)


def _clip_walk(scale, a, b):
    """Reference decomposition: clip every piece from a's on to [a, b],
    with the forward jump and graininess of each gap point from
    ``scale.sigma`` and ``scale.mu``."""
    pieces = scale.pieces
    for i in range(scale._locate(a)[0], len(pieces)):
        lo, hi = pieces[i]
        if lo > b:
            break
        c = max(lo, a)
        d = min(hi, b)
        if c > d:
            continue
        if c < d:
            yield ("dense", (i, c, d))
        if d < b and d == hi:
            yield ("gap", (d, scale.sigma(d), scale.mu(d)))


def _assert_walks_agree(scale, a, b):
    start, end = scale._find(a), scale._find(b)
    a, b = start[1], end[1]
    got = list(tsvar.calculus._decompose(scale, start, end))
    want = list(_clip_walk(scale, a, b))
    # repr tells types and float signs apart.
    assert repr(got) == repr(want)


# Walk scales: an isolated point, a dense piece, two touching-free dense
# pieces with a point between, and a trailing point.
_WALK_RAW = (0, (1, 3), 4, (5, 6), 8)


@pytest.mark.parametrize("mode", ["rational", "float", "float-eps"])
def test_decompose_matches_clip_walk_on_every_range(mode):
    scalar = {"rational": Fraction, "float": float, "float-eps": float}[mode]
    pieces = tuple(tuple(map(scalar, p)) if isinstance(p, tuple) else scalar(p) for p in _WALK_RAW)
    s = TimeScale(pieces, FLOAT if mode != "rational" else "rational",
                  eps=1e-9 if mode == "float-eps" else 0.0)
    # Every piece end and an interior point of each dense piece: this
    # covers a at a dense right end, b at a dense left end, a == b and
    # ranges inside one dense piece.
    pts = sorted({x for lo, hi in s.pieces for x in (lo, hi, (lo + hi) / 2)})
    for i, a in enumerate(pts):
        for b in pts[i:]:
            _assert_walks_agree(s, a, b)
    if s.eps:
        # Queries within eps snap onto the piece ends first.
        _assert_walks_agree(s, 3.0 + 5e-10, 5.0 - 5e-10)
    if s.mode == FLOAT:
        # -0.0 is the point 0.0; the dense bounds keep the piece's own zero.
        _assert_walks_agree(TimeScale(((0.0, 1.0), 2.0), FLOAT, s.eps), -0.0, 2.0)


@settings(max_examples=80, deadline=None)
@given(raw=st.lists(st.one_of(st.integers(-20, 20),
                              st.tuples(st.integers(-20, 20), st.integers(0, 6))),
                    min_size=1, max_size=10),
       den=st.integers(1, 4), mode=st.sampled_from(["rational", "float", "float-eps"]),
       ij=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))
def test_decompose_matches_clip_walk(raw, den, mode, ij):
    if mode == "rational":
        scalar = lambda k: Fraction(k, den)
    else:
        scalar = lambda k: k / den
    pieces = tuple((scalar(p[0]), scalar(p[0] + p[1])) if isinstance(p, tuple) else scalar(p)
                   for p in raw)
    s = TimeScale(pieces, "rational" if mode == "rational" else FLOAT,
                  eps=0.25 / den if mode == "float-eps" else 0.0)
    pts = sorted({x for lo, hi in s.pieces for x in (lo, hi, (lo + hi) / 2)})
    i, j = sorted(k % len(pts) for k in ij)
    a, b = pts[i], pts[j]
    if s.eps:
        # Nudge a query off its point; require snaps it back.
        a = a - s.eps / 2 if a in s and (a - s.eps / 2) in s else a
    _assert_walks_agree(s, a, b)


class TestNablaIntegral:
    def test_oracle_value(self):
        s = TimeScale.discrete([1, 2, 3])
        fn = ScaleFn.from_callable(s, lambda t: t)
        # backward-weighted sum over (1, 3]: 1*2 + 1*3
        assert nabla_integral_discrete(s, fn, 1, 3) == Fraction(5)

    def test_requires_discrete_range(self):
        fn = ScaleFn.from_callable(HYBRID, lambda t: t)
        with pytest.raises(UnsupportedScaleError):
            nabla_integral_discrete(HYBRID, fn, 0.0, 3.0)

    def test_range_ends_at_dense_pieces(self):
        s = TimeScale((0, (1, 2), 3, (4, 5)))
        fn = ScaleFn.from_callable(s, lambda t: t * t)
        # Starting inside, ending inside, or spanning a dense piece is refused.
        for a, b in ((Fraction(3, 2), 3), (0, Fraction(9, 2)), (0, 2)):
            with pytest.raises(UnsupportedScaleError):
                nabla_integral_discrete(s, fn, a, b)
        # From a dense piece's right end the range is discrete:
        # nu(3) f(3) + nu(4) f(4) = 1 * 9 + 1 * 16.
        assert nabla_integral_discrete(s, fn, 2, 4) == 25
        # So is a range up to a dense piece's left end: nu(1) f(1) = 1.
        assert nabla_integral_discrete(s, fn, 0, 1) == 1
        for a in (0, 2, Fraction(3, 2), 5):
            assert nabla_integral_discrete(s, fn, a, a) == 0


# Denominators from 1 up to large primes, so the running common
# denominator of _exact_sum both divides and grows.
_DENOMINATORS = st.one_of(
    st.integers(1, 12),
    st.sampled_from([97, 7919, 104_729, 1_000_000_007, 2**61 - 1]),
)
_EXACT_SCALARS = st.one_of(
    st.integers(-10**12, 10**12),
    st.builds(Fraction, st.integers(-10**12, 10**12), _DENOMINATORS),
)
_EXACT_PAIRS = st.lists(st.tuples(_EXACT_SCALARS, _EXACT_SCALARS), max_size=30)


def _naive_sum(zero, terms):
    total = zero
    for w, v in terms:
        total = total + w * v
    return total


class TestExactSum:
    """``_exact_sum`` against the plain left-to-right sum it replaces."""

    @settings(max_examples=200, deadline=None)
    @given(terms=_EXACT_PAIRS)
    def test_exact_terms_equal_the_naive_sum(self, terms):
        got = tsvar.calculus._exact_sum(Fraction(0), terms)
        assert type(got) is Fraction and got == _naive_sum(Fraction(0), terms)
        # An int start gives a Fraction too, even when every term is an int.
        got = tsvar.calculus._exact_sum(0, iter(terms))
        assert type(got) is Fraction and got == _naive_sum(Fraction(0), terms)

    @settings(max_examples=200, deadline=None)
    @given(terms=_EXACT_PAIRS, where=st.integers(0, 10**6), side=st.integers(0, 1),
           x=st.floats(-1e6, 1e6))
    def test_a_float_term_gives_the_naive_float_bits(self, terms, where, side, x):
        k = where % (len(terms) + 1)
        pair = (x, Fraction(3, 7)) if side == 0 else (Fraction(-5, 11), x)
        terms = terms[:k] + [pair] + terms[k:]
        got = tsvar.calculus._exact_sum(Fraction(0), terms)
        want = _naive_sum(Fraction(0), terms)
        assert type(got) is float and got.hex() == want.hex()
        # A float start (a float scale) never takes the integer path.
        got = tsvar.calculus._exact_sum(0.0, terms)
        assert type(got) is float and got.hex() == _naive_sum(0.0, terms).hex()

    @settings(max_examples=100, deadline=None)
    @given(terms=_EXACT_PAIRS, where=st.integers(0, 10**6),
           coeffs=st.tuples(_EXACT_SCALARS, _EXACT_SCALARS))
    def test_poly_terms_equal_the_generic_sum(self, terms, where, coeffs):
        k = where % (len(terms) + 1)
        node = tsvar.calculus._X1 * coeffs[0] + coeffs[1]
        terms = terms[:k] + [(Fraction(2, 3), node)] + terms[k:] + [(node, -1)]
        got = tsvar.calculus._exact_sum(Fraction(0), terms)
        assert got == _naive_sum(Fraction(0), terms)


_NONZERO_FRACTIONS = st.builds(Fraction, st.integers(-10**12, 10**12).filter(bool), _DENOMINATORS)
_FLOATS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e12, 1e12))


class TestQuotient:
    """``_quotient`` against the written ``(hi - lo) / gap`` it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(hi=_EXACT_SCALARS, lo=_EXACT_SCALARS, gap=_NONZERO_FRACTIONS)
    def test_exact_operands_equal_the_written_quotient(self, hi, lo, gap):
        got = tsvar.calculus._quotient(hi, lo, gap)
        assert type(got) is Fraction and got == (hi - lo) / gap

    @settings(max_examples=300, deadline=None)
    @given(hi=st.one_of(_FLOATS, _EXACT_SCALARS), lo=st.one_of(_FLOATS, _EXACT_SCALARS),
           gap=st.one_of(_FLOATS.filter(bool), _NONZERO_FRACTIONS), which=st.integers(0, 2))
    def test_a_float_operand_gives_the_written_bits(self, hi, lo, gap, which):
        hi, lo, gap = [float(x) if k == which else x for k, x in enumerate((hi, lo, gap))]
        got = tsvar.calculus._quotient(hi, lo, gap)
        assert type(got) is float and repr(got) == repr((hi - lo) / gap)

    @settings(max_examples=100, deadline=None)
    @given(x=_EXACT_SCALARS, y=_EXACT_SCALARS, gap=_NONZERO_FRACTIONS, side=st.integers(0, 1))
    def test_a_poly_operand_gives_the_written_poly(self, x, y, gap, side):
        node = tsvar.calculus._X1 * x + y
        hi, lo = (node, y) if side == 0 else (x, node)
        got = tsvar.calculus._quotient(hi, lo, gap)
        assert type(got) is Poly and got == (hi - lo) / gap

    @settings(max_examples=200, deadline=None)
    @given(hi=_EXACT_SCALARS, lo=_EXACT_SCALARS,
           gap=st.integers(-10**6, 10**6).filter(bool))
    @example(hi=7, lo=2, gap=2)  # int / int is a float, 2.5
    def test_an_int_gap_keeps_the_written_result_and_type(self, hi, lo, gap):
        got = tsvar.calculus._quotient(hi, lo, gap)
        want = (hi - lo) / gap
        assert type(got) is type(want) and repr(got) == repr(want)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_first_variation_on_a_float_grid_keeps_the_written_bits(seed):
    rng = random.Random(seed)

    def axis():
        pts = [float(rng.randint(-3, 3))]
        for _ in range(rng.randint(2, 6)):
            pts.append(pts[-1] + rng.randint(1, 9) / rng.choice((2, 3, 7)))
        return TimeScale.discrete(pts, FLOAT)

    ax1, ax2 = axis(), axis()
    p1, p2 = ax1.points(), ax2.points()
    dp = DoubleProblem(ProductScale(ax1, ax2), p1[0], p1[-1], p2[0], p2[-1], rand_quadratic2(rng))
    u = SurfaceFn.from_table(ax1, ax2, [[rng.uniform(-3, 3) for _ in p2] for _ in p1])
    eta = SurfaceFn.from_table(ax1, ax2, [
        [rng.uniform(-3, 3) if 0 < i < len(p1) - 1 and 0 < j < len(p2) - 1 else 0.0
         for j in range(len(p2))] for i in range(len(p1))])

    def G(p1, p2):
        args = _traj_args(dp, u, p1, p2)
        _, _, e_ss, e_d1, e_d2 = _traj_args(dp, eta, p1, p2)
        return (dp.partial_y0(*args) * e_ss + dp.partial_y1(*args) * e_d1
                + dp.partial_y2(*args) * e_d2)

    want = tsvar.calculus._iterated(ax1, ax2, p1[0], p1[-1], p2[0], p2[-1], G, QUAD_TOL)
    got = first_variation(dp, u, eta)
    assert type(got) is float and repr(got) == repr(want)


class TestExactSumEndToEnd:
    SCALE = TimeScale.discrete([Fraction(-1, 3), 0, Fraction(2, 7), 1, Fraction(9, 4), 5])

    def test_constant_one_integrates_to_a_fraction(self):
        one = ScaleFn.from_callable(self.SCALE, lambda t: 1)
        value = delta_integral(self.SCALE, one, self.SCALE.min, self.SCALE.max)
        # The golden rendering of a result depends on its type.
        assert type(value) is Fraction and value == Fraction(16, 3)

    def test_float_values_keep_the_loop_bits(self):
        fn = ScaleFn.from_callable(self.SCALE, lambda t: float(t) / 3)
        pts = self.SCALE.points()
        delta = nabla = Fraction(0)
        for t, s in zip(pts, pts[1:]):
            delta = delta + (s - t) * fn(t)
            nabla = nabla + (s - t) * fn(s)
        got = delta_integral(self.SCALE, fn, pts[0], pts[-1])
        assert type(got) is float and got.hex() == delta.hex()
        got = nabla_integral_discrete(self.SCALE, fn, pts[0], pts[-1])
        assert type(got) is float and got.hex() == nabla.hex()

    def test_fubini_on_a_rational_hybrid_product_stays_exact(self):
        ps = ProductScale(RAT_HYBRID, TimeScale((0, Fraction(1, 2), (1, 2))))
        u = SurfaceFn.from_callable(ps.scale1, ps.scale2,
                                    Poly.parse("t1^2*t2 - 3*t1 + 1/5*t2^3", ("t1", "t2")))
        rect = (ps.scale1.min, ps.scale1.max, ps.scale2.min, ps.scale2.max)
        r = fubini_residual(ps, u, rect)
        assert type(r) is Fraction and r == 0


class TestIdentities:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_forward_value_identity_exact(self, seed):
        # f(sigma(t)) = f(t) + mu(t) f_delta(t) at right-scattered points
        rng = random.Random(seed)
        s = rand_discrete_scale(rng, rng.randint(3, 8))
        fn = rand_tabulation(rng, s)
        for t in s.truncate_k().points():
            assert simple_useful_check(s, fn, t) == 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_single_cell_integral_identity(self, seed):
        # the integral from t to sigma(t) is mu(t) f(t), exactly
        rng = random.Random(seed)
        s = rand_discrete_scale(rng, rng.randint(3, 8))
        fn = rand_tabulation(rng, s)
        for t in s.truncate_k().points():
            assert delta_integral(s, fn, t, s.sigma(t)) == s.mu(t) * fn(t)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_product_rule_both_forms_exact(self, seed):
        rng = random.Random(seed)
        s = rand_discrete_scale(rng, rng.randint(3, 8))
        f = rand_tabulation(rng, s)
        g = rand_tabulation(rng, s)
        for t in s.truncate_k().points():
            r1, r2 = product_rule_residual(s, f, g, t)
            assert r1 == 0 and r2 == 0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_integration_by_parts_exact_on_discrete(self, seed):
        rng = random.Random(seed)
        s = rand_discrete_scale(rng, rng.randint(3, 8))
        f = rand_tabulation(rng, s)
        g = rand_tabulation(rng, s)
        a, b = s.min, s.max
        assert ibp_residual(s, f, g, a, b, form=1) == 0
        assert ibp_residual(s, f, g, a, b, form=2) == 0

    def test_integration_by_parts_numeric_on_hybrid(self):
        f = ScaleFn.from_callable(HYBRID, math.sin, deriv=math.cos)
        g = ScaleFn.from_callable(HYBRID, lambda t: t * t, deriv=lambda t: 2 * t)
        assert abs(ibp_residual(HYBRID, f, g, 0.0, 3.0, form=1)) <= 1e-9
        assert abs(ibp_residual(HYBRID, f, g, 0.0, 3.0, form=2)) <= 1e-9

    def test_product_rule_numeric_on_dense_point(self):
        f = ScaleFn.from_callable(HYBRID, math.sin, deriv=math.cos)
        g = ScaleFn.from_callable(HYBRID, lambda t: t * t, deriv=lambda t: 2 * t)
        r1, r2 = product_rule_residual(HYBRID, f, g, 0.5)
        assert abs(r1) <= 1e-9 and abs(r2) <= 1e-9


class TestJunctionAudit:
    def test_a_bare_poly_uses_its_own_slope(self, monkeypatch):
        # Every public entry point wraps a bare Poly once: its dense slopes are
        # its derivative, not Richardson limits, as for the wrapped data.
        limits = []
        real = tsvar.calculus.richardson_limit
        monkeypatch.setattr(tsvar.calculus, "richardson_limit",
                            lambda *args, **kwargs: limits.append(args) or real(*args, **kwargs))
        scale = TimeScale(((0.0, 1.0), 1.5, (2.0, 3.0)), FLOAT)
        poly = Poly.parse("t^3 - 2*t", ("t",))
        wrapped = ScaleFn.from_callable(scale, poly)
        for call in (lambda f: junction_audit(scale, f),
                     lambda f: ibp_residual(scale, f, f, 0.0, 3.0)):
            got = call(poly)
            assert limits == []
            assert repr(got) == repr(call(wrapped))

    def test_flags_derivative_jump_at_piece_top(self):
        fn = ScaleFn.from_callable(HYBRID, math.sin)
        findings = junction_audit(HYBRID, fn)
        assert len(findings) == 1
        assert "t=2.0" in findings[0]

    def test_silent_when_slopes_agree(self):
        fn = ScaleFn.from_callable(HYBRID, lambda t: 2.0 * t, deriv=lambda t: 2.0)
        assert junction_audit(HYBRID, fn) == []

    def test_skips_junction_without_dense_side_in_range(self):
        # a = 1 leaves [1, 1] of the interval: nothing dense to take a slope on.
        s = TimeScale(((0, 1), 2))
        fn = ScaleFn.from_callable(s, lambda t: t * t)
        assert junction_audit(s, fn, a=1) == []
        assert len(junction_audit(s, fn, a=0)) == 1
