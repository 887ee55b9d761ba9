from fractions import Fraction

import pytest

from tsvar import Poly


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
