import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (rand_discrete_scale, rand_fraction, rand_poly1, rand_quadratic2,
                      rand_tabulation)
import tsvar.calculus
from tsvar.calculus import _delta_at
from tsvar import (
    ANALYTIC,
    ConvergenceError,
    DomainError,
    DoubleProblem,
    EXACT_QUOTIENT,
    FLOAT,
    NUMERIC_LIMIT,
    Poly,
    PreconditionError,
    ProductScale,
    ScaleFn,
    SurfaceFn,
    TimeScale,
    UnsupportedScaleError,
    VariationalProblem,
    delta_deriv,
    delta_integral,
    derivation_chain_check,
    double_integral,
    el_residual,
    first_variation,
    fubini_residual,
    ibp_residual,
    junction_audit,
    nabla_integral_discrete,
    tabulated_from_json,
)
from tsvar.double import _el_kernel_at, _first_variation, _kernel_pairing, _place, _traj_args
from tsvar.quadrature import QUAD_TOL
from tsvar.scales import fmt_scalar

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

    @pytest.mark.parametrize("scale", [TimeScale.discrete(range(4)), HYBRID])
    def test_left_scattered_max_is_refused_with_or_without_its_jump(self, scale):
        # A caller that hands the maximum as its own jump gets the refusal a
        # lookup of the jump gives.
        fn = ScaleFn.from_callable(scale, lambda t: t)
        at = scale._find(scale.max)
        for jump in (None, at[1]):
            with pytest.raises(DomainError) as exc_info:
                _delta_at(scale, fn, at, jump)
            assert str(exc_info.value) == ("delta derivative undefined at the "
                                           f"left-scattered maximum {fmt_scalar(scale.max)}")

    @pytest.mark.parametrize("points, t", [(range(4), 2), ([Fraction(1, 3)], Fraction(1, 3))])
    def test_an_isolated_point_as_its_own_jump_has_no_classical_slope(self, points, t):
        scale = TimeScale.discrete(points)
        at = scale._find(t)
        with pytest.raises(DomainError, match="no dense neighborhood"):
            _delta_at(scale, ScaleFn.from_callable(scale, lambda t: t), at, at[1])

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
        fp, gp = Poly.parse("t^2 - 1/3", ("t",)), Poly.parse("2*t^3 + t", ("t",))
        f, g, fg = (ScaleFn.from_callable(RAT_HYBRID, h) for h in (fp, gp, fp * gp))
        for form in (1, 2):
            assert ibp_residual(RAT_HYBRID, f, g, RAT_HYBRID.min, RAT_HYBRID.max, form) <= 1e-9
        t = Fraction(1, 3)
        dfg, df, dg = (delta_deriv(RAT_HYBRID, h, t).value for h in (fg, f, g))
        assert dfg == df * g(t) + f(t) * dg
        p = VariationalProblem.from_json({
            "scale": RAT_HYBRID.to_json(), "a": "1/10", "b": "5/2", "lagrangian": "builtin:v2",
        })
        line = ScaleFn.from_callable(p.scale, Poly.parse("3*t - 1/7", ("t",)))
        assert el_residual(p, line, dense_refinement=8).max_abs_residual <= 1e-9


    @pytest.mark.parametrize("entry", ["delta_integral", "nabla_integral_discrete",
                                       "delta_deriv", "ibp_residual"])
    def test_a_scalar_in_place_of_data_is_refused_by_its_type(self, entry):
        # A constant Poly called on a Poly argument is a bare Fraction.
        t = Poly.var(("t",), "t")
        scalar = Poly.constant(("t",), Fraction(3, 2))(-t)
        assert type(scalar) is Fraction
        scale = TimeScale.discrete(range(4))
        call = {
            "delta_integral": lambda: delta_integral(scale, scalar, 0, 3),
            "nabla_integral_discrete": lambda: nabla_integral_discrete(scale, scalar, 0, 3),
            "delta_deriv": lambda: delta_deriv(scale, scalar, 1),
            "ibp_residual": lambda: ibp_residual(scale, scalar, t, 0, 3),
        }[entry]
        with pytest.raises(PreconditionError, match="not Fraction"):
            call()


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
        place = _place(self.AXIS, *self.AXIS._find(half))
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


class TestFloatOverflow:
    """A float scale whose gap sums are past the largest float."""

    HUGE = TimeScale.discrete([1e200, 2e200], FLOAT)

    @pytest.mark.parametrize("integral", [delta_integral, nabla_integral_discrete])
    def test_a_gap_sum_past_the_float_range_raises(self, integral):
        # mu * f = 1e200 * 1e200 (delta) or 1e200 * 2e200 (nabla) is inf.
        with pytest.raises(DomainError, match="past the float range"):
            integral(self.HUGE, lambda t: t, 1e200, 2e200)
        assert integral(self.HUGE, lambda t: 1.0, 1e200, 2e200) == 1e200


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
            yield ("gap", (None, d, scale.sigma(d), scale.mu(d)))


def _assert_walks_agree(scale, a, b):
    start, end = scale._find(a), scale._find(b)
    a, b = start[1], end[1]
    pieces, gaps = scale.pieces, scale._gaps
    # A gap part is named by the index k of the piece it follows; its place
    # is that piece's high, the next piece's low and the gap between.  A run
    # part (i, j) of a discrete scale is the gap parts i through j - 1.
    got = []
    for kind, k in tsvar.calculus._decompose(scale, start, end):
        if kind == "dense":
            got.append((kind, k))
            continue
        for k in range(*k) if kind == "run" else (k,):
            got.append(("gap", (None, pieces[k][1], pieces[k + 1][0], gaps[k])))
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
    # A discrete scale is one run part: over the whole scale, a strict
    # sub-range and a single point.
    d = TimeScale.discrete([scalar(x) for x in (0, 1, 3, 4, 6, 8)], s.mode, s.eps)
    for a, b in ((0, 8), (1, 6), (3, 3)):
        _assert_walks_agree(d, scalar(a), scalar(b))


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
    T2 = Poly.parse("t^2", ("t",))

    def test_oracle_value(self):
        s = TimeScale.discrete([1, 2, 3])
        fn = ScaleFn.from_callable(s, lambda t: t)
        # backward-weighted sum over (1, 3]: 1*2 + 1*3
        assert nabla_integral_discrete(s, fn, 1, 3) == Fraction(5)

    def test_a_hybrid_range_integrates_its_dense_piece(self):
        fn = ScaleFn.from_callable(HYBRID, lambda t: t)
        # Simpson's 2 on [0, 2], plus nu(3) f(3) = 1 * 3.
        value = nabla_integral_discrete(HYBRID, fn, 0.0, 3.0)
        assert type(value) is float and abs(value - 5.0) <= 1e-12

    def test_the_hand_value_on_a_rational_hybrid_scale(self):
        s = TimeScale(((0, 1), Fraction(3, 2), (2, 3)))
        # 1/3 on [0, 1], nu(3/2) f(3/2) = 9/8, nu(2) f(2) = 2, 19/3 on [2, 3].
        value = nabla_integral_discrete(s, self.T2, 0, 3)
        assert type(value) is Fraction and value == Fraction(235, 24)
        assert value == Fraction(1, 3) + Fraction(9, 8) + 2 + Fraction(19, 3)

    def test_ranges_that_start_end_or_pass_in_dense_pieces(self):
        s = TimeScale((0, (1, 2), 3, (4, 5)))
        fn = ScaleFn.from_callable(s, lambda t: t * t)
        # Starting inside, ending inside, or spanning a dense piece: the
        # classical integral there, exact for Poly data and Simpson's for a
        # plain callable.  [3/2, 3]: 37/24 on [3/2, 2] + nu(3) f(3) = 9.
        # [0, 9/2]: nu(1) f(1) = 1, 7/3 on [1, 2], 9 + 16 at 3 and 4, 217/24
        # on [4, 9/2].  [0, 2]: 1 + 7/3.
        for (a, b), want in (((Fraction(3, 2), 3), Fraction(253, 24)),
                             ((0, Fraction(9, 2)), Fraction(299, 8)),
                             ((0, 2), Fraction(10, 3))):
            assert nabla_integral_discrete(s, self.T2, a, b) == want
            assert abs(nabla_integral_discrete(s, fn, a, b) - want) <= 1e-9
        # From a dense piece's right end the range is discrete:
        # nu(3) f(3) + nu(4) f(4) = 1 * 9 + 1 * 16.
        assert nabla_integral_discrete(s, fn, 2, 4) == 25
        # So is a range up to a dense piece's left end: nu(1) f(1) = 1.
        assert nabla_integral_discrete(s, fn, 0, 1) == 1
        for a in (0, 2, Fraction(3, 2), 5):
            assert nabla_integral_discrete(s, fn, a, a) == 0
        with pytest.raises(DomainError):
            nabla_integral_discrete(s, fn, 3, 1)


def _nabla_by_hand(scale, f, a, b):
    """sum nu(t) f(t) over the points t of (a, b] of a discrete scale, read
    off its points one by one and added left to right."""
    pts = scale.points()
    total = Fraction(0) if scale.mode == "rational" else 0.0
    for back, t in zip(pts, pts[1:]):
        if a <= back and t <= b:
            total = total + (t - back) * f(t)
    return total


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), mode=st.sampled_from(["rational", FLOAT]),
       values=st.sampled_from(["exact", "float", "mixed"]), table=st.booleans())
def test_nabla_integral_equals_the_backward_sum_by_hand(seed, mode, values, table):
    rng = random.Random(seed)
    pts = rand_discrete_scale(rng, rng.randint(1, 12)).points()
    if mode == FLOAT:
        pts = [float(t) for t in pts]
    scale = TimeScale.discrete(pts, mode)

    def draw():
        exact = values == "exact" or (values == "mixed" and rng.random() < 0.5)
        return rand_fraction(rng) if exact else rng.uniform(-9, 9)

    tabled = {t: draw() for t in pts}
    fn = ScaleFn.from_table(scale, tabled) if table else tabled.__getitem__
    i, j = sorted(rng.randint(0, len(pts) - 1) for _ in range(2))
    got = nabla_integral_discrete(scale, fn, pts[i], pts[j])
    want = _nabla_by_hand(scale, fn, pts[i], pts[j])
    assert type(got) is type(want)
    assert got.hex() == want.hex() if type(want) is float else got == want


def _walk_outcome(walk):
    """``repr`` of what ``walk()`` returns, type and bits, or the text of
    the ``DomainError`` it raises."""
    try:
        return repr(walk())
    except DomainError as exc:
        return f"refused: {exc}"


def _written_walks(pts, f, g, zero):
    """The delta and nabla integrals of ``f`` and both by-parts residuals of
    ``f`` and ``g`` over the consecutive points ``pts``, written per point
    and read in the order the entry points read their data, each as
    ``_walk_outcome`` tells it."""
    return [_walk_outcome(walk) for walk in _written_sums(pts, f, g, zero)]


def _written_sums(pts, f, g, zero):
    """The four walks of ``_written_walks``, as callables."""
    pairs = list(zip(pts, pts[1:]))

    def delta():
        total = zero
        for t, s in pairs:
            total = total + (s - t) * f(t)
        return total

    def nabla():
        total = zero
        for t, s in pairs:
            total = total + (s - t) * f(s)
        return total

    def by_parts(form):
        a, b = pts[0], pts[-1]
        boundary = f(b) * g(b) - f(a) * g(a)
        lhs = rest = zero
        for t, s in pairs:
            mu = s - t
            lhs = lhs + mu * ((f(s) if form == 1 else f(t)) * ((g(s) - g(t)) / mu))
        for t, s in pairs:
            mu = s - t
            f_s, f_t = f(s), f(t)
            rest = rest + mu * ((g(t) if form == 1 else g(s)) * ((f_s - f_t) / mu))
        return abs(lhs - (boundary - rest))

    return delta, nabla, lambda: by_parts(1), lambda: by_parts(2)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), mode=st.sampled_from(["rational", FLOAT]),
       on=st.sampled_from(["own", "equal", "restricted"]),
       kinds=st.tuples(st.sampled_from(["table", "section"]), st.sampled_from(["table", "section"])),
       holes=st.booleans())
def test_table_walks_equal_the_written_sums(seed, mode, on, kinds, holes):
    # Tables read by index on their own axis or an equal one, and by point
    # anywhere else, give the written sums to the bit, and a hole in the
    # range refuses with the text of the point's own read.
    rng = random.Random(seed)
    pts = rand_discrete_scale(rng, rng.randint(1, 10)).points()
    if mode == FLOAT:
        pts = [float(t) / 3 for t in pts]
    axis = TimeScale.discrete(pts, mode)
    pts = axis.points()
    zero = Fraction(0) if mode == "rational" else 0.0

    def draw():
        if holes and rng.random() < 0.2:
            return None
        return rand_fraction(rng) if mode == "rational" else rng.uniform(-9, 9)

    datum, reference = [], []
    for kind in kinds:
        values = [draw() for _ in pts]
        if kind == "table":
            fn = ScaleFn.from_table(axis, {t: v for t, v in zip(pts, values) if v is not None})
            named = fmt_scalar
        else:
            # A surface table with a hole is built directly: from_table refuses one.
            u = zero + 2
            fn = SurfaceFn(axis, TimeScale.discrete([u], mode), table=[[v] for v in values])
            fn = fn.section(0, (None, u))
            named = lambda t, u=u: f"({fmt_scalar(t)}, {fmt_scalar(u)})"

        def read(t, values=dict(zip(pts, values)), named=named):
            if values[t] is None:
                raise DomainError(f"{named(t)} is not tabulated")
            return values[t]

        datum.append(fn)
        reference.append(read)
    if on == "own":
        scale = axis
    elif on == "equal":
        copy = (lambda t: Fraction(t.numerator, t.denominator)) if mode == "rational" \
            else (lambda t: float.fromhex(t.hex()))
        scale = TimeScale.discrete(map(copy, pts), mode)
        assert scale == axis and scale is not axis
    else:
        i, j = sorted(rng.randint(0, len(pts) - 1) for _ in range(2))
        scale = axis.restrict(pts[i], pts[j])
    spts = scale.points()
    i, j = sorted(rng.randint(0, len(spts) - 1) for _ in range(2))
    a, b = spts[i], spts[j]
    (f, g), (f_ref, g_ref) = datum, reference
    got = [_walk_outcome(lambda: delta_integral(scale, f, a, b)),
           _walk_outcome(lambda: nabla_integral_discrete(scale, f, a, b)),
           _walk_outcome(lambda: ibp_residual(scale, f, g, a, b, 1)),
           _walk_outcome(lambda: ibp_residual(scale, f, g, a, b, 2))]
    assert got == _written_walks(spts[i:j + 1], f_ref, g_ref, zero)


def _same(got, want):
    """Exact results are equal and of one type; float results have one bit
    pattern."""
    assert type(got) is type(want)
    assert got.hex() == want.hex() if type(want) is float else got == want


def _written_iterated(pts1, pts2, start1, start2, G, zero):
    """The iterated delta integral of ``G`` over the consecutive points
    ``pts1`` and ``pts2``, which start at the piece indices ``start1`` and
    ``start2`` of their axes, second axis innermost: written per gap, each
    place ``(k, t, sigma(t), mu(t))`` built from the points, and added left to
    right."""
    def places(pts, start):
        return [(start + k, t, s, s - t) for k, (t, s) in enumerate(zip(pts, pts[1:]))]

    total = zero
    for p1 in places(pts1, start1):
        row = zero
        for p2 in places(pts2, start2):
            row = row + p2[3] * G(p1, p2)
        total = total + p1[3] * row
    return total


def _one_pass_datum(rng, axes, kind, values):
    """Data on the discrete ``axes`` (one or two) and the plain callable that
    reads the same values at a point: a table, a callable or a ``Poly``.
    ``values`` draws one value: an int, a Fraction or a float."""
    pts = [axis.points() for axis in axes]
    if kind == "poly":
        if len(axes) == 1:
            poly = rand_poly1(rng)
            return (poly if rng.random() < 0.5 else ScaleFn.from_callable(axes[0], poly)), poly
        poly = Poly.parse("t1^2*t2 - 3*t2 + 1/2", ("t1", "t2"))
        return SurfaceFn.from_callable(*axes, poly), poly
    if len(axes) == 1:
        drawn = {t: values() for t in pts[0]}
        if kind == "table":
            fn = ScaleFn.from_table(axes[0], drawn)
            return fn, dict(zip(pts[0], fn.table)).__getitem__
        return drawn.__getitem__, drawn.__getitem__
    rows = [[values() for _ in pts[1]] for _ in pts[0]]
    if kind == "table":
        fn = SurfaceFn.from_table(*axes, rows)
        rows = fn.table
    drawn = {(t1, t2): v for t1, row in zip(pts[0], rows) for t2, v in zip(pts[1], row)}
    read = lambda t1, t2: drawn[t1, t2]
    return (fn if kind == "table" else SurfaceFn.from_callable(*axes, read)), read


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), mode=st.sampled_from(["rational", FLOAT]),
       kinds=st.tuples(st.sampled_from(["table", "callable", "poly"]),
                       st.sampled_from(["table", "callable", "poly"])),
       values=st.sampled_from(["int", "fraction", "mixed"]))
def test_one_pass_sums_equal_the_written_per_gap_sums(seed, mode, kinds, values):
    # On a discrete scale each range is summed in one pass.  Its results are
    # those of the written per-gap sum, added left to right: the same exact
    # value and type, or the same float bits.  Points are drawn as ints and
    # Fractions, or as floats; values as ints, Fractions or (mixed, on a
    # rational scale) floats among them.
    rng = random.Random(seed)

    def axis():
        pts = [rng.choice((int, Fraction))(rng.randint(-3, 3))]
        for _ in range(rng.randint(0, 7)):
            pts.append(pts[-1] + rng.choice((1, 2, Fraction(rng.randint(1, 4), rng.randint(2, 3)))))
        if mode == FLOAT:
            pts = [float(t) / 3 for t in pts]
        return TimeScale.discrete(pts, mode)

    def draw():
        if mode == FLOAT or (values == "mixed" and rng.random() < 0.3):
            return rng.uniform(-9, 9)
        return rng.randint(-9, 9) if values == "int" else rand_fraction(rng)

    zero = Fraction(0) if mode == "rational" else 0.0
    scale = axis()
    pts = scale.points()
    (f, f_ref), (g, g_ref) = (_one_pass_datum(rng, (scale,), kind, draw) for kind in kinds)
    i, j = sorted(rng.randint(0, len(pts) - 1) for _ in range(2))
    if rng.random() < 0.2:
        j = i  # a == b
    a, b = pts[i], pts[j]
    got = (delta_integral(scale, f, a, b), nabla_integral_discrete(scale, f, a, b),
           ibp_residual(scale, f, g, a, b, 1), ibp_residual(scale, f, g, a, b, 2))
    for value, written in zip(got, _written_sums(pts[i:j + 1], f_ref, g_ref, zero)):
        _same(value, written())

    ax1, ax2 = axis(), axis()
    if len(ax1.points()) < 2 or len(ax2.points()) < 2:
        return
    p1, p2 = ax1.points(), ax2.points()
    i1, j1 = sorted(rng.sample(range(len(p1)), 2))
    i2, j2 = sorted(rng.sample(range(len(p2)), 2))
    ps = ProductScale(ax1, ax2)
    rect = (p1[i1], p1[j1], p2[i2], p2[j2])
    (u, u_ref), (eta, _) = (_one_pass_datum(rng, (ax1, ax2), kind, draw) for kind in kinds)
    G = lambda q1, q2: u_ref(q1[1], q2[1])
    one = _written_iterated(p1[i1:j1 + 1], p2[i2:j2 + 1], i1, i2, G, zero)
    two = _written_iterated(p2[i2:j2 + 1], p1[i1:j1 + 1], i2, i1,
                            lambda q2, q1: G(q1, q2), zero)
    _same(double_integral(ps, u, rect), one)
    _same(fubini_residual(ps, u, rect), abs(one - two))

    dp = DoubleProblem(ps, *rect, rand_quadratic2(rng))
    u, eta = u.on(ax1, ax2), eta.on(ax1, ax2)

    def first(q1, q2):
        args = _traj_args(dp, u, q1, q2)
        _, _, e_ss, e_d1, e_d2 = _traj_args(dp, eta, q1, q2)
        l0, l1, l2 = dp.joint(*args)
        return zero + l0 * e_ss + l1 * e_d1 + l2 * e_d2

    _same(_first_variation(dp, u, eta),
          _written_iterated(p1[i1:j1 + 1], p2[i2:j2 + 1], i1, i2, first, zero))


def _rand_hybrid(rng) -> TimeScale:
    """A rational scale of 1 to 6 pieces, each an isolated point or an
    interval, with uneven widths and gaps."""
    t, pieces = rand_fraction(rng, -3, 3, 3), []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            pieces.append(t)
        else:
            pieces.append((t, t + Fraction(rng.randint(1, 4), rng.randint(1, 3))))
            t = pieces[-1][1]
        t = t + Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return TimeScale(tuple(pieces))


def _range_points(scale: TimeScale, rng, k: int) -> list:
    """``k`` ascending points of ``scale``, each a piece end or the midpoint
    of an interval."""
    pts = sorted({x for lo, hi in scale.pieces for x in (lo, hi, (lo + hi) / 2)})
    return sorted(rng.choice(pts) for _ in range(k))


class TestExactMetamorphic:
    """Relations that hold exactly for ``Poly`` data on rational hybrid scales."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_nabla_is_the_delta_integral_of_the_reflection(self, seed):
        # int_a^b f(t) nabla t on T = int_{-b}^{-a} f(-s) delta s on -T.
        rng = random.Random(seed)
        s, f = _rand_hybrid(rng), rand_poly1(rng)
        a, b = _range_points(s, rng, 2)
        mirror = TimeScale(tuple((-hi, -lo) for lo, hi in reversed(s.pieces)))
        f_minus = f(-Poly.var(("t",), "t"))
        if not isinstance(f_minus, Poly):  # a constant composes to its value
            f_minus = Poly.constant(("t",), f_minus)
        nabla = nabla_integral_discrete(s, f, a, b)
        assert type(nabla) is Fraction
        assert nabla == delta_integral(mirror, f_minus, -b, -a)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_both_integrals_add_over_a_split_range(self, seed):
        rng = random.Random(seed)
        s, f = _rand_hybrid(rng), rand_poly1(rng)
        a, c, b = _range_points(s, rng, 3)
        for integral in (delta_integral, nabla_integral_discrete):
            whole = integral(s, f, a, b)
            assert type(whole) is Fraction
            assert whole == integral(s, f, a, c) + integral(s, f, c, b)


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

    @settings(max_examples=300, deadline=None)
    @given(hi=_EXACT_SCALARS, lo=_EXACT_SCALARS, gap=_NONZERO_FRACTIONS, c=_EXACT_SCALARS)
    @example(hi=0, lo=0, gap=Fraction(1, 2**61 - 1), c=Fraction(-3, 2**61 - 1))
    def test_a_factor_on_exact_operands_equals_the_written_product(self, hi, lo, gap, c):
        got = tsvar.calculus._quotient(hi, lo, gap, c)
        assert type(got) is Fraction and got == c * (hi - lo) / gap

    @settings(max_examples=300, deadline=None)
    @given(hi=st.one_of(_FLOATS, _EXACT_SCALARS), lo=st.one_of(_FLOATS, _EXACT_SCALARS),
           gap=st.one_of(_FLOATS.filter(bool), _NONZERO_FRACTIONS),
           c=st.one_of(_FLOATS, _EXACT_SCALARS), which=st.integers(0, 3))
    def test_a_factor_with_a_float_operand_gives_the_written_bits(self, hi, lo, gap, c, which):
        hi, lo, gap, c = [float(x) if k == which else x for k, x in enumerate((hi, lo, gap, c))]
        got = tsvar.calculus._quotient(hi, lo, gap, c)
        want = c * ((hi - lo) / gap)
        assert type(got) is float and repr(got) == repr(want)


class _FractionKind(Fraction):
    """A subclass of Fraction: the exact paths leave it to the written
    expression."""


class TestFractionSlots:
    """``_ratio_sum``, ``_quotient`` and ``TimeScale._gaps`` read a Fraction's
    value from the two slots that ``Fraction.__new__`` and ``_fraction``
    write, under a test of its exact type.  On a Python that renamed the
    slots the first test fails by name."""

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(-3, 4), Fraction(10**30, 7),
                                   Fraction("1.25"), Fraction(5), Fraction(-2.5)])
    def test_the_slots_hold_numerator_and_denominator(self, x):
        assert (x._numerator, x._denominator) == (x.numerator, x.denominator)
        built = tsvar.calculus._fraction(x.numerator, x.denominator)
        assert (built._numerator, built._denominator) == (x.numerator, x.denominator)

    @pytest.mark.parametrize("odd", [True, False, _FractionKind(3, 4)], ids=repr)
    def test_bool_and_a_subclass_take_the_written_branch(self, odd, monkeypatch):
        # The integer branch builds its one Fraction with _fraction; the
        # written branch does not.
        built = []
        fraction = tsvar.calculus._fraction
        monkeypatch.setattr(tsvar.calculus, "_fraction",
                            lambda n, d: built.append((n, d)) or fraction(n, d))
        x, gap = Fraction(-5, 3), Fraction(2, 7)
        for hi, lo, c in ((odd, x, None), (x, odd, None), (x, 2, odd), (odd, odd, x)):
            got = tsvar.calculus._quotient(hi, lo, gap, c)
            want = (hi - lo) / gap if c is None else c * ((hi - lo) / gap)
            assert type(got) is type(want) and got == want
        assert built == []
        # _ratio_sum stops at the first pair that holds one, unread, and
        # _exact_sum adds it and the rest as written.
        terms = [(Fraction(1, 5), 3), (odd, x), (2, Fraction(1, 9))]
        for pair in terms[1], terms[1][::-1]:
            terms[1] = pair
            assert tsvar.calculus._ratio_sum(1, 2, iter(terms)) == (1 * 5 + 2 * 3, 10, pair)
            got = tsvar.calculus._exact_sum(Fraction(1, 2), terms)
            want = Fraction(1, 2) + terms[0][0] * terms[0][1] + pair[0] * pair[1] + 2 * Fraction(1, 9)
            assert type(got) is type(want) and got == want
        # A Fraction and an int take the integer branch.
        built.clear()
        assert tsvar.calculus._quotient(x, 2, gap) == (x - 2) / gap and len(built) == 1


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
            assert fn(s.sigma(t)) == fn(t) + s.mu(t) * delta_deriv(s, fn, t).value

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
        # (fg)_delta = f_delta g(sigma) + f g_delta = f_delta g + f(sigma) g_delta,
        # with fg tabulated as the products
        rng = random.Random(seed)
        s = rand_discrete_scale(rng, rng.randint(3, 8))
        f = rand_tabulation(rng, s)
        g = rand_tabulation(rng, s)
        fg = ScaleFn.from_table(s, {t: f(t) * g(t) for t in s.points()})
        for t in s.truncate_k().points():
            dfg, df, dg = (delta_deriv(s, h, t).value for h in (fg, f, g))
            sig = s.sigma(t)
            assert dfg == df * g(sig) + f(t) * dg
            assert dfg == df * g(t) + f(sig) * dg

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
        # Closures with no derivatives: all three slopes are Richardson limits.
        f = ScaleFn.from_callable(HYBRID, math.sin)
        g = ScaleFn.from_callable(HYBRID, lambda t: t * t)
        fg = ScaleFn.from_callable(HYBRID, lambda t: math.sin(t) * t * t)
        dfg, df, dg = (delta_deriv(HYBRID, h, 0.5) for h in (fg, f, g))
        assert dfg.method == df.method == dg.method == NUMERIC_LIMIT
        assert abs(dfg.value - (df.value * g(0.5) + f(0.5) * dg.value)) <= 1e-8


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

    def test_an_exact_jump_below_tol_is_reported(self):
        # Slope 2 against the quotient 2 + 1e-7: tol bounds floats only.
        for gap in (Fraction(1, 10 ** 5), Fraction(1, 10 ** 7)):
            s = TimeScale(((0, 1), 1 + gap))
            findings = junction_audit(s, Poly.parse("t^2", ("t",)))
            assert findings == [f"derivative jump at t=1: dense-side slope 2 vs gap quotient "
                                f"{2 + gap}"]
        s = TimeScale(((0, 1), Fraction(3, 2)))
        assert junction_audit(s, Poly.parse("2*t", ("t",))) == []

    def test_skips_junction_without_dense_side_in_range(self):
        # a = 1 leaves [1, 1] of the interval: nothing dense to take a slope on.
        s = TimeScale(((0, 1), 2))
        fn = ScaleFn.from_callable(s, lambda t: t * t)
        assert junction_audit(s, fn, a=1) == []
        assert len(junction_audit(s, fn, a=0)) == 1
