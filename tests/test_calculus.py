import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_discrete_scale, rand_fraction, rand_poly1, rand_tabulation
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
    fubini_residual,
    ibp_residual,
    junction_audit,
    nabla_integral_discrete,
    product_rule_residual,
    simple_useful_check,
    tabulated_from_json,
)

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


class TestPolyData:
    """A Poly handed to from_callable brings its own derivative."""

    def test_poly_carries_its_derivative(self):
        poly = Poly.parse("t^3 - 2*t", ("t",))
        assert ScaleFn.from_callable(RAT_HYBRID, poly).deriv == poly.diff("t")
        mine = lambda t: 0
        assert ScaleFn.from_callable(RAT_HYBRID, poly, deriv=mine).deriv is mine

    def test_dense_slope_is_exact(self):
        fn = ScaleFn.from_callable(RAT_HYBRID, Poly.parse("t^3 - 2*t", ("t",)))
        res = delta_deriv(RAT_HYBRID, fn, Fraction(1, 3))
        assert type(res.value) is Fraction and res.value == Fraction(-5, 3)
        assert (res.method, res.est_error) == (ANALYTIC, 0)

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
