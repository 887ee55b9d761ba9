import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsvar import Poly
from tsvar.polyfn import POLY_MAX_COEFF_BITS, PolySizeError, PolyTuple


class TestParse:
    def test_integer_coefficients(self):
        p = Poly.parse("2*t^3 - t + 5", ("t",))
        assert p(Fraction(2)) == Fraction(19)

    def test_fraction_literals(self):
        p = Poly.parse("3/2*t + 1/4", ("t",))
        assert p(Fraction(1, 2)) == Fraction(1)

    def test_decimal_literals_become_exact(self):
        p = Poly.parse("0.5*t + .25", ("t",))
        assert p(Fraction(1)) == Fraction(3, 4)

    def test_parentheses_and_unary_minus(self):
        p = Poly.parse("-(t - 1)*(t + 1)", ("t",))
        assert p(Fraction(3)) == Fraction(-8)

    def test_multivariate(self):
        p = Poly.parse("t1*y0 + y1^2", ("t1", "t2", "y0", "y1", "y2"))
        assert p(2, 0, 3, 4, 0) == 22

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            Poly.parse("x + 1", ("t",))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ValueError):
            Poly.parse("t + 1)", ("t",))

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            Poly.parse("t^t", ("t",))


class TestAlgebra:
    def test_diff(self):
        p = Poly.parse("v^2 - y^2 + t*v", ("t", "y", "v"))
        assert p.diff("v")(1, 2, 3) == 2 * 3 + 1
        assert p.diff("y")(1, 2, 3) == -4
        assert p.diff("t")(1, 2, 3) == 3

    def test_diff_of_constant_is_zero(self):
        p = Poly.parse("7", ("t",))
        assert p.diff("t")(Fraction(5)) == 0

    def test_arity_checked(self):
        p = Poly.parse("t", ("t",))
        with pytest.raises(TypeError):
            p(1, 2)

    def test_exact_on_fractions_float_on_floats(self):
        p = Poly.parse("1/4*t^2", ("t",))
        assert p(Fraction(2)) == Fraction(1) and isinstance(p(Fraction(2)), Fraction)
        assert isinstance(p(2.0), float)

    def test_pow_matches_repeated_multiplication(self):
        p = Poly.parse("2*t - 1/3", ("t",))
        naive = Poly.constant(("t",), 1)
        for n in range(13):
            assert p ** n == naive
            naive = naive * p

    @pytest.mark.parametrize("text, variables", [
        ("(t+1)^2000", ("t",)),
        ("t^201", ("t",)),
        ("(t+1)^150*(t+1)^60", ("t",)),
        ("(t1+t2+y0+y1+y2)^40", ("t1", "t2", "y0", "y1", "y2")),
        ("(((2^200)^200)^200)^200", ("t",)),
        ("((2^200)^200)^200", ("t",)),
        ("((1/3)^200)^13 * t", ("t",)),
    ])
    def test_size_limits(self, text, variables):
        with pytest.raises(ValueError, match="limit"):
            Poly.parse(text, variables)

    def test_largest_documented_input_parses(self):
        assert Poly.parse("(t+1)^100", ("t",))(Fraction(1)) == 2 ** 100

    def test_coefficient_bit_limit(self):
        assert Poly.parse("(2^200)^20 * t", ("t",)).terms == {(1,): Fraction(2) ** 4000}
        with pytest.raises(ValueError, match="coefficient too large"):
            Poly.parse("(2^200)^20 * 2^200 * t", ("t",))

    def test_pow_and_ops_compose(self):
        t = Poly.var(("t",), "t")
        p = (t + Poly.constant(("t",), 1)) ** 2 - t * t
        assert p(Fraction(5)) == 11


class TestExactIntegration:
    """The pieces an exact dense integral is built from."""

    XY = ("x1", "x2")

    def test_scalar_arithmetic_on_either_side(self):
        x = Poly.var(self.XY, "x1")
        two = Fraction(2)
        assert (x + 1)(3, 0) == 4 and (1 + x)(3, 0) == 4
        assert (x - two)(3, 0) == 1 and (two - x)(3, 0) == -1
        assert (3 * x)(2, 0) == 6 and (x * Fraction(1, 2))(3, 0) == Fraction(3, 2)
        assert (x / 4)(2, 0) == Fraction(1, 2)

    def test_floats_are_refused(self):
        x = Poly.var(self.XY, "x1")
        for op in (lambda: x * 0.5, lambda: 0.5 + x, lambda: x - 0.5, lambda: x / 2.0):
            with pytest.raises(TypeError):
                op()

    def test_call_with_poly_arguments_composes(self):
        p = Poly.parse("t^2 - 3*t + 1/2", ("t",))
        x = Poly.var(self.XY, "x1")
        q = p(x + 1)
        assert q.variables == self.XY
        for v in (Fraction(-2), Fraction(1, 3), Fraction(7)):
            assert q(v, 0) == p(v + 1)

    def test_integrate_inverts_diff(self):
        p = Poly.parse("3*x1^2*x2 - x2^3 + 5/7*x1 - 2", self.XY)
        for name in self.XY:
            prim = p.integrate(name)
            assert prim.diff(name) == p
            assert prim.subs(self.XY.index(name), 0) == 0

    def test_subs_is_partial_and_scalar_when_nothing_is_left(self):
        p = Poly.parse("x1^2*x2 + x2 + 1", self.XY)
        half = p.subs(1, Fraction(3))
        assert isinstance(half, Poly)
        assert half == Poly.parse("3*x1^2 + 4", self.XY)
        whole = half.subs(0, Fraction(1, 2))
        assert isinstance(whole, Fraction) and whole == Fraction(19, 4)
        assert Poly.constant(self.XY, 0).subs(0, 5) == 0

    def test_size_limits_raise_poly_size_error(self):
        with pytest.raises(PolySizeError):
            Poly.parse("(t+1)^150*(t+1)^60", ("t",))
        with pytest.raises(PolySizeError):
            Poly.parse("t^201", ("t",))


def naive_call(p: Poly, args):
    """Reference evaluation: term by term, one power and one sum at a time."""
    total = None
    for expo, c in p.terms.items():
        term = c
        for v, e in zip(args, expo):
            if e:
                term = term * v ** e
        total = term if total is None else total + term
    if total is None:
        return 0.0 if any(isinstance(a, float) for a in args) else Fraction(0)
    return total


NAMES = ("t1", "t2", "y0", "y1", "y2")
XY = ("x1", "x2")
fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 40))
exact_scalars = st.one_of(st.integers(-20, 20), fractions)


@st.composite
def polys(draw, variables, max_degree=6, max_terms=8):
    """A polynomial over ``variables`` of total degree at most ``max_degree``,
    possibly the zero polynomial."""
    n = len(variables)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        expo = [0] * n
        for _ in range(draw(st.integers(0, max_degree))):
            expo[draw(st.integers(0, n - 1))] += 1
        terms[tuple(expo)] = draw(fractions)
    return Poly(variables, terms)


@st.composite
def poly_and_variables(draw):
    return draw(polys(NAMES[:draw(st.integers(1, 5))]))


class TestEvaluationKernel:
    """Every branch of ``Poly.__call__`` against the term-by-term reference."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_exact_scalars_give_the_same_fraction(self, data):
        p = data.draw(poly_and_variables())
        args = [data.draw(exact_scalars) for _ in p.variables]
        got = p(*args)
        assert type(got) is Fraction
        assert got == naive_call(p, args)

    def test_zero_polynomial_is_a_zero_fraction(self):
        zero = Poly(NAMES, {})
        assert zero(1, 2, 3, 4, 5) == 0 and type(zero(1, 2, 3, 4, 5)) is Fraction
        assert zero(*[Fraction(1, 3)] * 5) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_poly_arguments_compose_like_the_reference(self, data):
        p = data.draw(poly_and_variables())
        args = [
            data.draw(st.one_of(fractions, polys(XY, max_degree=2, max_terms=3)))
            for _ in p.variables
        ]
        got = p(*args)
        want = naive_call(p, args)
        assert type(got) is type(want)
        assert got == want

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_float_arguments_are_bit_identical(self, data):
        p = data.draw(poly_and_variables())
        args = [data.draw(st.floats(-3.0, 3.0)) for _ in p.variables]
        got = p(*args)
        want = naive_call(p, args)
        assert got == want and repr(got) == repr(want)

    def test_symbolic_result_is_a_scalar_when_no_poly_argument_occurs(self):
        x = Poly.var(XY, "x1")
        p = Poly.parse("t1^2 + 3", ("t1", "t2"))
        assert p(x, Fraction(5)) == Poly.parse("x1^2 + 3", XY)
        # Only the scalar argument occurs: the value stays a scalar.
        q = Poly.parse("t2 + 1", ("t1", "t2"))
        assert q(x, Fraction(5)) == 6 and type(q(x, Fraction(5))) is Fraction

    def test_subs_matches_the_full_evaluation(self):
        p = Poly.parse("3/7*x1^3*x2 - 2*x1*x2^2 + 5/3*x2 - 1/4", XY)
        for a, b in ((Fraction(1, 3), Fraction(-2, 5)), (2, Fraction(7, 9)), (0, 3)):
            assert p.subs(0, a).subs(1, b) == p(a, b)
            assert p.subs(1, b).subs(0, a) == p(a, b)

    def test_subs_refuses_floats(self):
        with pytest.raises(TypeError):
            Poly.parse("x1", XY).subs(0, 0.5)


# Exact scalars as wide as a 64-bit word, of either sign.
WORD = 2**61 - 1
wide_scalars = st.one_of(
    st.integers(-WORD, WORD),
    st.builds(Fraction, st.integers(-WORD, WORD), st.integers(1, WORD)),
)


@st.composite
def poly_tuples(draw):
    """``(variables, polys)``: up to four Polys over 1-5 variables, among
    them zero polynomials, constants and tops above 1."""
    variables = NAMES[:draw(st.integers(1, 5))]
    one = st.one_of(polys(variables, max_degree=4, max_terms=5),
                    st.builds(lambda c: Poly.constant(variables, c), fractions),
                    st.just(Poly(variables, {})))
    return variables, draw(st.lists(one, max_size=4))


class TestJointEvaluation:
    """A ``PolyTuple`` gives what each of its Polys gives on its own."""

    @settings(max_examples=200, deadline=None)
    @given(poly_tuples(), st.data())
    def test_exact_scalars_give_each_polys_own_fraction(self, drawn, data):
        variables, ps = drawn
        args = [data.draw(wide_scalars) for _ in variables]
        got = PolyTuple(ps)(*args)
        assert len(got) == len(ps)
        for value, p in zip(got, ps):
            own = p(*args)
            assert type(value) is type(own) is Fraction
            assert value == own == naive_call(p, args)

    @settings(max_examples=100, deadline=None)
    @given(poly_tuples(), st.data())
    def test_float_arguments_keep_each_polys_bits(self, drawn, data):
        variables, ps = drawn
        args = [data.draw(st.floats(-3.0, 3.0)) for _ in variables]
        assert [repr(v) for v in PolyTuple(ps)(*args)] == [repr(p(*args)) for p in ps]

    @settings(max_examples=60, deadline=None)
    @given(poly_tuples(), st.data())
    def test_poly_arguments_stay_symbolic(self, drawn, data):
        variables, ps = drawn
        args = [data.draw(st.one_of(fractions, polys(XY, max_degree=2, max_terms=3)))
                for _ in variables]
        for value, p in zip(PolyTuple(ps)(*args), ps):
            own = p(*args)
            assert type(value) is type(own) and value == own

    def test_no_polys_give_no_values(self):
        assert PolyTuple([])(Fraction(1, 3), 2) == [] and PolyTuple([])(0.5) == []

    def test_arity_and_variables_are_checked(self):
        ps = [Poly.parse("x1^2", XY), Poly.parse("x2 + 1", XY)]
        with pytest.raises(TypeError, match="expected 2 arguments"):
            PolyTuple(ps)(1)
        with pytest.raises(TypeError, match="different variables"):
            PolyTuple([Poly.parse("t", ("t",)), ps[0]])


class TestVariablesMustAgree:
    """Terms of polynomials over different variables never mix."""

    T = Poly.parse("t^2", ("t",))
    T12 = Poly.parse("t1 + t2", ("t1", "t2"))

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_arithmetic_across_variable_tuples_is_refused(self, op):
        with pytest.raises(TypeError, match="different variables"):
            op(self.T, self.T12)
        with pytest.raises(TypeError, match="different variables"):
            op(self.T12, self.T)

    def test_call_with_poly_arguments_over_different_variables_is_refused(self):
        with pytest.raises(TypeError, match="different variables"):
            self.T12(Poly.var(XY, "x1"), Poly.var(("y",), "y"))

    def test_call_refuses_floats_beside_poly_arguments(self):
        with pytest.raises(TypeError):
            self.T12(Poly.var(XY, "x1"), 0.5)


class TestSizeLimitsThroughTheKernel:
    def test_composition_past_the_degree_limit(self):
        p = Poly.parse("(t+1)^100", ("t",))
        with pytest.raises(PolySizeError):
            p(Poly.parse("(x1+1)^3", XY))

    def test_composition_past_the_coefficient_limit(self):
        p = Poly.parse("t^100", ("t",))
        with pytest.raises(PolySizeError, match="coefficient too large"):
            p(Poly.parse("2^50*x1", XY))

    def test_composition_checks_each_term_before_the_sum(self):
        # The two terms pass the limit and cancel; the term is still refused.
        p = Poly.parse("t1*t2^100 - t1*t3^100", ("t1", "t2", "t3"))
        with pytest.raises(PolySizeError, match="coefficient too large"):
            p(Poly.var(XY, "x1"), 2 ** 50, 2 ** 50)

    def test_products_past_the_coefficient_limit(self):
        big = Poly(("t",), {(1,): Fraction(2) ** 4000})
        with pytest.raises(PolySizeError, match="coefficient too large"):
            big * 2 ** 200
        with pytest.raises(PolySizeError, match="coefficient too large"):
            big * big
        widest = Poly(("t",), {(1,): 2 ** POLY_MAX_COEFF_BITS - 1})
        with pytest.raises(PolySizeError, match="coefficient too large"):
            widest + widest
        with pytest.raises(PolySizeError, match="coefficient too large"):
            big.integrate("t") * Fraction(1, 3 ** 2600)

    def test_subs_past_the_coefficient_limit(self):
        p = Poly.parse("x1^100*x2", XY)
        with pytest.raises(PolySizeError, match="coefficient too large"):
            p.subs(0, 2 ** 50)
        assert p.subs(0, 2 ** 40).terms == {(0, 1): Fraction(2) ** 4000}
        # With no variable left the result is a scalar, which no limit bounds.
        assert Poly.parse("x1^100", XY).subs(0, 2 ** 50) == 2 ** 5000
