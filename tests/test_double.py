import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_discrete_scale, rand_fraction, rand_quadratic2
from tsvar import (
    FLOAT,
    DomainError,
    DoubleProblem,
    Poly,
    PreconditionError,
    ProductScale,
    SurfaceFn,
    TimeScale,
    UnsupportedScaleError,
    action,
    brute_force_minimizer_2d,
    delta_deriv,
    derivation_chain_check,
    double_el_residual,
    double_integral,
    first_variation,
    fubini_residual,
    sigma_diff_audit,
    surface_from_json,
)
import tsvar.calculus
import tsvar.double
from tsvar.double import (ChainStep, _chain_discrete, _el_kernel_at, _kernel_pairing, _past,
                          _place, _wsum)
from tsvar.quadrature import QUAD_TOL
from tsvar.scales import zero_of
from tsvar.polyfn import PolyTuple
from tsvar.variational import MINIMIZER_MAX_UNKNOWNS

AX4 = TimeScale.discrete(range(4))
AX5 = TimeScale.discrete(range(5))
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


def grad2_problem(scale1=AX5, scale2=AX5, boundary="t1+t2"):
    return DoubleProblem.from_json(
        {
            "scale1": scale1.to_json(),
            "scale2": scale2.to_json(),
            "lagrangian": "builtin:grad2",
            "boundary": boundary,
        }
    )


def boundary_bump(ax1, ax2):
    a1, b1 = ax1.min, ax1.max
    a2, b2 = ax2.min, ax2.max
    return SurfaceFn.from_callable(
        ax1, ax2, lambda s, u: (s - a1) * (b1 - s) * (u - a2) * (b2 - u)
    )


class TestSurfaceFn:
    def test_row_major_table(self):
        sf = SurfaceFn.from_table(AX4, AX4, [[i * 10 + j for j in range(4)] for i in range(4)])
        assert sf.val(2, 3) == 23

    def test_dict_table_and_missing_entries(self):
        table = {(t1, t2): t1 + t2 for t1 in AX4.points() for t2 in AX4.points()}
        sf = SurfaceFn.from_table(AX4, AX4, table)
        assert sf.val(1, 2) == 3
        del table[(Fraction(0), Fraction(0))]
        with pytest.raises(DomainError):
            SurfaceFn.from_table(AX4, AX4, table)

    def test_row_shape_checked(self):
        with pytest.raises(DomainError):
            SurfaceFn.from_table(AX4, AX4, [[0] * 4] * 3)
        with pytest.raises(DomainError):
            SurfaceFn.from_table(AX4, AX4, [[0] * 3] * 4)

    def test_table_requires_discrete_axes(self):
        with pytest.raises(UnsupportedScaleError):
            SurfaceFn.from_table(TimeScale.interval(0, 1), AX4, {})

    def test_axis_derivatives_are_quotients_on_gaps(self):
        sf = SurfaceFn.from_callable(AX4, AX4, lambda a, b: a * a * b)
        assert sf.d1(1, 2) == (4 - 1) * 2  # ((2^2 - 1^2) / 1) * 2
        assert sf.d2(2, 1) == 4

    def test_poly_carries_its_partials(self):
        poly = Poly.parse("t1^2*t2 + 3*t2", ("t1", "t2"))
        sf = SurfaceFn.from_callable(AX4, AX4, poly)
        assert sf.partials == (poly.diff("t1"), poly.diff("t2"))
        mine = lambda a, b: 0
        sf = SurfaceFn.from_callable(AX4, AX4, poly, d1=mine)
        assert sf.partials == (mine, poly.diff("t2")) and sf.partials[0] is mine

    def test_one_point_axis_has_no_classical_slope(self):
        # The single point is right-dense only as the maximum: there is no
        # interval to take a slope along, analytic derivative or not.
        one = TimeScale.discrete([1])
        surfaces = [
            SurfaceFn.from_callable(one, AX4, lambda a, b: a * b),
            SurfaceFn.from_callable(one, AX4, lambda a, b: a * b, d1=lambda a, b: b),
            SurfaceFn.from_callable(one, AX4, Poly.parse("t1*t2", ("t1", "t2"))),
        ]
        for sf in surfaces:
            with pytest.raises(DomainError, match="no dense neighborhood"):
                sf.d1(1, 0)

    def test_from_json_round_trip(self):
        obj = {
            "scale1": AX4.to_json(),
            "scale2": AX4.to_json(),
            "values": [[str(i + j) for j in range(4)] for i in range(4)],
        }
        sf = surface_from_json(obj)
        assert sf.val(3, 3) == 6
        with pytest.raises(DomainError):
            surface_from_json({"scale1": AX4.to_json(), "values": []})


class TestDoubleIntegral:
    def test_unit_integrand(self):
        ps = ProductScale(AX4, AX4)
        one = SurfaceFn.from_callable(AX4, AX4, lambda a, b: Fraction(1))
        assert double_integral(ps, one, (0, 3, 0, 3)) == 9

    def test_product_integrand(self):
        ps = ProductScale(AX4, AX4)
        f = SurfaceFn.from_callable(AX4, AX4, lambda a, b: a * b)
        assert double_integral(ps, f, (0, 3, 0, 3)) == 9

    def test_fubini_exact_on_discrete(self):
        ps = ProductScale(AX4, AX5)
        f = SurfaceFn.from_callable(AX4, AX5, lambda a, b: a * a * b + 3 * b)
        assert fubini_residual(ps, f, (0, 3, 0, 4)) == 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_fubini_exact_on_random_discrete(self, seed):
        rng = random.Random(seed)
        s1 = rand_discrete_scale(rng, rng.randint(2, 6))
        s2 = rand_discrete_scale(rng, rng.randint(2, 6))
        table = {
            (t1, t2): rand_fraction(rng)
            for t1 in s1.points()
            for t2 in s2.points()
        }
        f = SurfaceFn.from_table(s1, s2, table)
        ps = ProductScale(s1, s2)
        assert fubini_residual(ps, f, (s1.min, s1.max, s2.min, s2.max)) == 0

    def test_fubini_on_hybrid_square(self):
        ax = TimeScale(((0.0, 1.0), (2.0, 2.0)), mode=FLOAT)
        ps = ProductScale(ax, ax)
        f = SurfaceFn.from_callable(ax, ax, lambda a, b: a * b)
        assert abs(fubini_residual(ps, f, (0.0, 2.0, 0.0, 2.0))) <= 2e-10

    def test_rect_validation(self):
        ps = ProductScale(AX4, AX4)
        one = SurfaceFn.from_callable(AX4, AX4, lambda a, b: Fraction(1))
        with pytest.raises(PreconditionError):
            double_integral(ps, one, (3, 0, 0, 3))

    @pytest.mark.parametrize("integral", [double_integral, fubini_residual])
    def test_each_axis_is_located_and_decomposed_once(self, integral, monkeypatch):
        # An iterated integral locates and decomposes each axis's range once,
        # not the inner range again at every outer point: the counts are the
        # same on a 5 x 5 and a 12 x 12 grid.
        counts = Counter()
        find, decompose = TimeScale._find, tsvar.calculus._decompose

        def counted_find(self, t):
            counts["find"] += 1
            return find(self, t)

        def counted_decompose(*args):
            counts["decompose"] += 1
            return decompose(*args)

        monkeypatch.setattr(TimeScale, "_find", counted_find)
        monkeypatch.setattr(tsvar.calculus, "_decompose", counted_decompose)
        seen = []
        for n in (5, 12):
            ax1 = TimeScale.discrete([Fraction(k * k, 3) for k in range(n)])
            ax2 = TimeScale.discrete([Fraction(2 * k, 5) for k in range(n)])
            rect = (ax1.min, ax1.max, ax2.min, ax2.max)
            table = SurfaceFn.from_table(ax1, ax2, [[Fraction(i - 2 * j, i + j + 1)
                                                     for j in range(n)] for i in range(n)])
            poly = SurfaceFn.from_callable(ax1, ax2, Poly.parse("t1^2*t2 - 3*t2", ("t1", "t2")))
            for f in (table, poly):
                integral(ProductScale(ax1, ax2), f, rect)  # warm: the axes build their views
                counts.clear()
                integral(ProductScale(ax1, ax2), f, rect)
                seen.append(dict(counts))
        per_call = 1 if integral is double_integral else 2
        # The rectangle's four corners, then the two ends of each axis.
        assert seen == [{"find": 4 + 4 * per_call, "decompose": 2 * per_call}] * 4


class TestProblemAndAudit:
    def test_from_json_defaults_to_full_rectangle(self):
        dp = grad2_problem()
        assert (dp.a1, dp.b1, dp.a2, dp.b2) == (0, 4, 0, 4)

    def test_corners_are_read_in_their_own_axis_mode(self):
        # Axis 1 is rational and axis 2 float: each corner takes its axis's mode.
        base = {"scale1": TimeScale.discrete([Fraction(k, 2) for k in range(5)]).to_json(),
                "scale2": TimeScale.discrete([k / 2 for k in range(5)], FLOAT).to_json(),
                "lagrangian": "builtin:grad2"}
        dp = DoubleProblem.from_json({**base, "a1": "1/2", "b1": 2, "a2": 0.5, "b2": 1.5})
        assert (dp.a1, dp.b1, dp.a2, dp.b2) == (Fraction(1, 2), 2, 0.5, 1.5)
        assert [type(c) for c in (dp.a1, dp.b1, dp.a2, dp.b2)] == [Fraction] * 2 + [float] * 2
        assert (dp.ax1.points(), dp.ax2.points()) == ([Fraction(k, 2) for k in range(1, 5)],
                                                      [0.5, 1.0, 1.5])
        for corner in ({"a1": 0.5}, {"a2": "1/2"}):
            with pytest.raises(DomainError, match="scalars must be"):
                DoubleProblem.from_json({**base, **corner})

    def test_poly_spec(self):
        dp = DoubleProblem.from_json(
            {
                "scale1": AX4.to_json(),
                "scale2": AX4.to_json(),
                "lagrangian": "poly:y1^2 + t1*y0",
            }
        )
        assert dp.partial_y1(0, 0, 0, 3, 0) == 6
        assert dp.partial_y0(2, 0, 0, 0, 0) == 2

    def test_bad_specs_rejected(self):
        base = {"scale1": AX4.to_json(), "scale2": AX4.to_json()}
        for spec in ("builtin:nope", "v^2", 7):
            with pytest.raises(ValueError):
                DoubleProblem.from_json({**base, "lagrangian": spec})

    def test_audit_flags_breaking_axis(self):
        good = AX4
        bad = TimeScale(((0.0, 1.0), (1.5, 1.5)), mode=FLOAT)
        findings = sigma_diff_audit(bad, good)
        assert len(findings) == 1 and "axis 1" in findings[0]
        assert sigma_diff_audit(good, good) == []


class TestFirstVariation:
    def test_boundary_condition_enforced(self):
        dp = grad2_problem()
        u = SurfaceFn.from_callable(AX5, AX5, lambda a, b: a + b)
        leaky = SurfaceFn.from_callable(AX5, AX5, lambda a, b: Fraction(1))
        with pytest.raises(PreconditionError):
            first_variation(dp, u, leaky)

    def test_an_int_past_the_float_range_is_refused(self):
        # An int value is compared exactly, as a Fraction is: 10^400 at
        # (0, 1) is a nonzero boundary value, not a float overflow.
        dp = grad2_problem(AX4, AX4)
        u = SurfaceFn.from_callable(AX4, AX4, lambda a, b: a + b)
        eta = SurfaceFn.from_callable(AX4, AX4, lambda a, b: 10**400 if (a, b) == (0, 1) else 0)
        for call in (first_variation, derivation_chain_check):
            with pytest.raises(PreconditionError, match=r"nonzero at \(0, 1\) and 0 more"):
                call(dp, u, eta)

    def test_a_polynomial_nonzero_along_a_dense_edge_is_refused(self):
        # eta vanishes at every grid(8) sample of the edge t1 = 0, whose axis
        # 2 has the dense piece [1, 2], but not along that piece: a nonzero
        # restriction is refused, not blamed on the rewriting.  A callable
        # with the same values keeps the sampled check.
        axis = TimeScale((0, Fraction(1, 2), (1, 2)))
        dp = grad2_problem(axis, axis)
        t1, t2 = (Poly.var(("t1", "t2"), v) for v in ("t1", "t2"))
        poly = 2 - t1
        for x in axis.grid(8):
            poly = poly * (t2 - x)
        u = SurfaceFn.from_callable(axis, axis, t1 * t2)
        eta = SurfaceFn.from_callable(axis, axis, poly)
        for call in (first_variation, derivation_chain_check):
            with pytest.raises(PreconditionError, match="nonzero along the edge t1 = 0$"):
                call(dp, u, eta)
        first_variation(dp, u, SurfaceFn.from_callable(axis, axis, lambda a, b: poly(a, b)))
        # On a discrete axis the samples are every point of the edge.
        points = TimeScale.discrete(axis.grid(8))
        dp = grad2_problem(points, points)
        u, eta = (SurfaceFn.from_callable(points, points, f) for f in (t1 * t2, poly))
        assert [s.residual for s in derivation_chain_check(dp, u, eta)] == [0] * 8

    def test_a_float_end_is_read_within_the_sample_tolerance(self):
        # On a float axis the end 0.1 is a binary float, not the 1/10 that
        # Poly reads from "0.1": eta vanishes along each edge within rounding,
        # and is not refused.
        axis = TimeScale((0.1, 0.5, (0.75, 1.0)), mode=FLOAT)
        dp = grad2_problem(axis, axis)
        names = ("t1", "t2")
        u = SurfaceFn.from_callable(axis, axis, Poly.parse("t1*t2", names))
        eta = SurfaceFn.from_callable(axis, axis, Poly.parse(
            "(t1 - 0.1)*(1 - t1)*(t2 - 0.1)*(1 - t2)", names))
        first_variation(dp, u, eta)
        assert len(derivation_chain_check(dp, u, eta)) == 1

    def test_a_polynomial_nonzero_along_a_dense_float_edge_is_refused(self):
        # As on a rational axis: eta is 0 at the grid(8) samples of the edge
        # t1 = 0.1, and 0.9 times a nonzero polynomial in t2 along it.
        axis = TimeScale((0.1, 0.5, (0.75, 1.0)), mode=FLOAT)
        dp = grad2_problem(axis, axis)
        names = ("t1", "t2")
        u = SurfaceFn.from_callable(axis, axis, Poly.parse("t1*t2", names))
        t1, t2 = (Poly.var(names, v) for v in names)
        poly = 1 - t1
        for x in axis.grid(8):
            poly = poly * (t2 - Fraction(x))
        leaky = SurfaceFn.from_callable(axis, axis, poly)
        with pytest.raises(PreconditionError, match="nonzero along the edge t1 = 0.1$"):
            first_variation(dp, u, leaky)

    def test_matches_symmetric_difference_of_action(self):
        poly = Poly.parse("y1^2 + y2^2 + y0^2 + t2*y0", VARS2)
        ps = ProductScale(AX5, AX5)
        dp = DoubleProblem(ps, 0, 4, 0, 4, poly)
        u = SurfaceFn.from_callable(AX5, AX5, lambda a, b: a * a + b)
        eta = boundary_bump(AX5, AX5)
        fv = first_variation(dp, u, eta)
        eps = Fraction(1, 10**9)

        def shifted(sign):
            return SurfaceFn.from_callable(
                AX5, AX5, lambda a, b: u.func(a, b) + sign * eps * eta.func(a, b)
            )

        fd = (action(dp, shifted(1)) - action(dp, shifted(-1))) / (2 * eps)
        assert fv == fd  # quadratic integrand: symmetric difference is exact

    def test_vanishes_at_interior_minimum(self):
        dp = grad2_problem()
        u = SurfaceFn.from_callable(
            AX5, AX5, lambda a, b: a + b,
            d1=lambda a, b: Fraction(1), d2=lambda a, b: Fraction(1),
        )
        for i in range(1, 4):
            for j in range(1, 4):
                probe = SurfaceFn.from_table(
                    AX5, AX5,
                    {
                        (t1, t2): Fraction(1 if (t1, t2) == (i, j) else 0)
                        for t1 in AX5.points()
                        for t2 in AX5.points()
                    },
                )
                assert first_variation(dp, u, probe) == 0


class TestDoubleELResidual:
    def test_planar_surface_is_stationary_for_grad2(self):
        dp = grad2_problem()
        u = SurfaceFn.from_callable(AX5, AX5, lambda a, b: a + b)
        rep = double_el_residual(dp, u)
        assert rep.max_abs_residual == 0
        assert len(rep.residuals) == 9

    def test_gaps_reported_at_axis_maxima(self):
        dp = grad2_problem()
        u = SurfaceFn.from_callable(AX5, AX5, lambda a, b: a + b)
        rep = double_el_residual(dp, u)
        assert len(rep.gaps) == 7
        assert all("left-scattered maximum" in reason for _, reason in rep.gaps)
        gap_points = {pt for pt, _ in rep.gaps}
        assert (Fraction(3), Fraction(3)) in gap_points

    def test_gap_text_names_the_axis_maximum(self):
        # Kernels on the last column read u_delta1 at b1 = 3, those on the
        # last row u_delta2 at b2 = 3/2; axis 1 is differenced first.
        ax2 = TimeScale.discrete([0, Fraction(1, 2), Fraction(3, 2)])
        dp = grad2_problem(AX4, ax2)
        u = SurfaceFn.from_callable(AX4, ax2, lambda a, b: a * b)
        rep = double_el_residual(dp, u)
        at_max = "delta derivative undefined at the left-scattered maximum "
        assert [pt for pt, _ in rep.residuals] == [(0, 0), (1, 0)]
        assert rep.gaps == (
            ((0, Fraction(1, 2)), at_max + "3/2"),
            ((1, Fraction(1, 2)), at_max + "3/2"),
            ((2, 0), at_max + "3"),
            ((2, Fraction(1, 2)), at_max + "3"),
        )
        # Handed the maximum as its own jump, the kernel raises the same
        # DomainError, not a zero division.
        with pytest.raises(DomainError) as exc_info:
            _el_kernel_at(dp, u, _place(dp.ax1, *dp.ax1._find(Fraction(3))),
                          _place(dp.ax2, *dp.ax2._find(Fraction(0))))
        assert str(exc_info.value) == at_max + "3"

    def test_nonstationary_surface_detected(self):
        dp = grad2_problem()
        u = SurfaceFn.from_callable(AX5, AX5, lambda a, b: a * a)
        rep = double_el_residual(dp, u)
        assert rep.max_abs_residual > 0

    def test_a_sample_past_a_place_is_placed_from_its_piece(self):
        # Past a gap: sigma's own place, at the next piece.  Past an exact
        # point a float sample stands for the exact point TimeScale._node
        # reads; past a float node it is a node itself.
        axis = TimeScale((0, Fraction(1, 2), (1, 2)))
        half, one = Fraction(1, 2), Fraction(1)
        assert _past(axis, _place(axis, 0, axis.min), half) is axis._places[1]
        assert _past(axis, _place(axis, 1, half), one) == (2, one, one, None)
        exact = _past(axis, _place(axis, 2, Fraction(3, 2)), 1.25)
        assert exact == (2, 1.25, Fraction(5, 4), None) and type(exact[2]) is Fraction
        node = _past(axis, (2, 1.5, 1.5, None), 1.25)
        assert node == (2, 1.25, 1.25, None) and type(node[2]) is float

    @pytest.mark.parametrize("axis", [TimeScale((0, Fraction(1, 2), (1, 2))),
                                      TimeScale.discrete(range(9))])
    def test_a_warm_kernel_map_locates_no_point(self, axis, monkeypatch):
        # Each sample's place is built from its piece index, and a sample
        # past it from the next piece's: no point is looked up.
        dp = grad2_problem(axis, axis)
        u = SurfaceFn.from_callable(dp.ps.scale1, dp.ps.scale2,
                                    Poly.parse("t1^2*t2 - 3*t2", ("t1", "t2")))
        warm = double_el_residual(dp, u, 4)
        finds = []
        original = TimeScale._find

        def counted(self, t):
            finds.append(t)
            return original(self, t)

        monkeypatch.setattr(TimeScale, "_find", counted)
        assert double_el_residual(dp, u, 4) == warm
        assert finds == []


class TestDerivationChain:
    def test_all_steps_exact_on_uneven_rational_scales(self):
        ax2 = TimeScale.discrete([Fraction(0), Fraction(1, 2), Fraction(2), Fraction(3)])
        ps = ProductScale(AX5, ax2)
        poly = Poly.parse("y1^2 + y2^2 + y0^2 + t1*y0 + t2*y1", VARS2)
        dp = DoubleProblem(ps, 0, 4, 0, 3, poly)
        u = SurfaceFn.from_callable(AX5, ax2, lambda a, b: a * a + a * b - 3 * b)
        eta = boundary_bump(AX5, ax2)
        steps = derivation_chain_check(dp, u, eta)
        assert [s.label for s in steps] == CHAIN_LABELS
        for s in steps:
            assert s.residual == 0, s.label

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_chain_exact_on_random_problems(self, seed):
        rng = random.Random(seed)
        s1 = rand_discrete_scale(rng, rng.randint(4, 6))
        s2 = rand_discrete_scale(rng, rng.randint(4, 6))
        ps = ProductScale(s1, s2)
        dp = DoubleProblem(ps, s1.min, s1.max, s2.min, s2.max, rand_quadratic2(rng))
        u_table = {
            (t1, t2): rand_fraction(rng)
            for t1 in s1.points()
            for t2 in s2.points()
        }
        u = SurfaceFn.from_table(s1, s2, u_table)
        eta_table = {
            (t1, t2): rand_fraction(rng)
            if s1.min < t1 < s1.max and s2.min < t2 < s2.max
            else Fraction(0)
            for t1 in s1.points()
            for t2 in s2.points()
        }
        eta = SurfaceFn.from_table(s1, s2, eta_table)
        for step in derivation_chain_check(dp, u, eta):
            assert step.residual == 0, step.label

    def test_hybrid_scales_compare_chain_endpoints(self):
        ax1 = TimeScale(((0.0, 0.0), (1.0, 2.0)), mode=FLOAT)
        ax2 = TimeScale.discrete([0.0, 1.0, 2.0], mode=FLOAT)
        ps = ProductScale(ax1, ax2)
        poly = Poly.parse("y1^2 + y2^2 + y0^2", VARS2)
        dp = DoubleProblem(ps, 0, 2, 0, 2, poly)
        u = SurfaceFn.from_callable(
            ax1, ax2, lambda a, b: a * a + a * b,
            d1=lambda a, b: 2 * a + b, d2=lambda a, b: a,
        )
        eta = SurfaceFn.from_callable(
            ax1, ax2, lambda a, b: a * (2 - a) * b * (2 - b),
            d1=lambda a, b: (2 - 2 * a) * b * (2 - b),
            d2=lambda a, b: a * (2 - a) * (2 - 2 * b),
        )
        steps = derivation_chain_check(dp, u, eta, tol=1e-10)
        assert [s.label for s in steps] == ["first-variation-vs-kernel-form"]
        assert abs(steps[0].residual) <= 4e-10

    @pytest.mark.parametrize("hybrid", [False, True])
    def test_the_boundary_is_checked_once_per_chain(self, hybrid, monkeypatch):
        if hybrid:
            ax1 = TimeScale(((0.0, 0.0), (1.0, 2.0)), mode=FLOAT)
            ax2 = TimeScale.discrete([0.0, 1.0, 2.0], mode=FLOAT)
            dp = DoubleProblem(ProductScale(ax1, ax2), 0, 2, 0, 2,
                               Poly.parse("y1^2 + y2^2 + y0^2", VARS2))
            u = SurfaceFn.from_callable(ax1, ax2, lambda a, b: a * a + a * b,
                                        d1=lambda a, b: 2 * a + b, d2=lambda a, b: a)
            leaky = SurfaceFn.from_callable(ax1, ax2, lambda a, b: 1.0,
                                            d1=lambda a, b: 0.0, d2=lambda a, b: 0.0)
        else:
            dp = grad2_problem()
            ax1, ax2 = AX5, AX5
            u = SurfaceFn.from_callable(AX5, AX5, lambda a, b: a * a + b)
            leaky = SurfaceFn.from_callable(AX5, AX5, lambda a, b: Fraction(1))
        eta = boundary_bump(ax1, ax2)
        checks = []
        original = tsvar.double._require_vanishes_on_boundary

        def counted(dp, eta):
            checks.append(eta)
            return original(dp, eta)

        monkeypatch.setattr(tsvar.double, "_require_vanishes_on_boundary", counted)
        derivation_chain_check(dp, u, eta)
        assert len(checks) == 1
        first_variation(dp, u, eta)  # the public entry point keeps its own check
        assert len(checks) == 2
        for call in (derivation_chain_check, first_variation):
            checks.clear()
            with pytest.raises(PreconditionError, match="must vanish on the rectangle boundary"):
                call(dp, u, leaky)
            assert len(checks) == 1

    def test_refuses_sigma_discontinuous_axes(self):
        bad = TimeScale(((0.0, 1.0), (1.5, 1.5)), mode=FLOAT)
        ps = ProductScale(bad, TimeScale.discrete([0.0, 1.0, 1.5], mode=FLOAT))
        poly = Poly.parse("y1^2 + y2^2", VARS2)
        dp = DoubleProblem(ps, 0.0, 1.5, 0.0, 1.5, poly)
        u = SurfaceFn.from_callable(*ps_axes(ps), lambda a, b: a + b)
        eta = boundary_bump(dp.ax1, dp.ax2)
        with pytest.raises(UnsupportedScaleError) as exc_info:
            derivation_chain_check(dp, u, eta)
        assert "left-dense right-scattered" in str(exc_info.value)


def _reference_chain(dp, u, eta):
    """The chain label by label as first written: every jump, graininess
    and delta quotient looked up on the axes, every value hashed by its
    (t1, t2) key."""
    ax1, ax2 = dp.ax1, dp.ax2
    a1, b1, a2, b2 = dp.a1, dp.b1, dp.a2, dp.b2
    rb1 = ax1.rho(b1)
    rb2 = ax2.rho(b2)
    mu1, mu2 = ax1.mu, ax2.mu
    sg1, sg2 = ax1.sigma, ax2.sigma
    zero = zero_of(ax1)

    def half_open(ax, lo, hi):
        return [t for t in ax.restrict(lo, hi).points() if t < hi]

    P1_full = half_open(ax1, a1, b1)
    P1_core = half_open(ax1, a1, rb1)
    P2_full = half_open(ax2, a2, b2)
    P2_core = half_open(ax2, a2, rb2)

    e = eta.val

    def d1(F, t1, x2):
        return delta_deriv(ax1, lambda s: F(s, x2), t1).value

    def d2(F, x1, t2):
        return delta_deriv(ax2, lambda s: F(x1, s), t2).value

    partials = {}
    for t1 in P1_full:
        for t2 in P2_full:
            s1, s2 = sg1(t1), sg2(t2)
            args = (t1, t2, u.val(s1, s2), d1(u.val, t1, s2), d2(u.val, s1, t2))
            partials[t1, t2] = (dp.partial_y0(*args), dp.partial_y1(*args), dp.partial_y2(*args))

    def partial(k):
        return lambda t1, t2: partials[t1, t2][k]

    Ly0, Ly1, Ly2 = partial(0), partial(1), partial(2)

    def G(t1, t2):
        return (
            Ly0(t1, t2) * e(sg1(t1), sg2(t2))
            + Ly1(t1, t2) * d1(e, t1, sg2(t2))
            + Ly2(t1, t2) * d2(e, sg1(t1), t2)
        )

    def kernel_term(t1, t2):
        return (Ly0(t1, t2) - d1(Ly1, t1, t2) - d2(Ly2, t1, t2)) * e(sg1(t1), sg2(t2))

    def double_sum(pts1, pts2, fn):
        return _wsum(zero, pts1, mu1, lambda t1: _wsum(zero, pts2, mu2, lambda t2: fn(t1, t2)))

    steps = []
    full_sum = double_sum(P1_full, P2_full, G)
    strip1 = half_open(ax1, rb1, b1)
    strip2 = half_open(ax2, rb2, b2)
    A = double_sum(P1_core, P2_core, G)
    B = double_sum(strip1, P2_core, G)
    C = double_sum(P1_full, strip2, G)
    steps.append(ChainStep("region-split", abs(full_sum - (A + B + C))))
    A1 = double_sum(P1_core, P2_core, kernel_term)
    A2 = _wsum(zero, P2_core, mu2, lambda t2: Ly1(rb1, t2), lambda t2: e(rb1, sg2(t2)))
    A3 = _wsum(zero, P1_core, mu1, lambda t1: Ly2(t1, rb2), lambda t1: e(sg1(t1), rb2))
    steps.append(ChainStep("core-by-parts", abs(A - (A1 + A2 + A3))))
    mu1_rb1 = mu1(rb1)
    strip1_sum = _wsum(
        zero, P2_core, mu2, lambda t2: mu1_rb1,
        lambda t2: Ly1(rb1, t2) * d1(e, rb1, sg2(t2)) + Ly2(rb1, t2) * d2(e, sg1(rb1), t2),
    )
    steps.append(ChainStep("t1-strip-single-cell", abs(B - strip1_sum)))
    collapse = max([zero] + [abs(mu1_rb1 * d1(e, rb1, sg2(t2)) + e(rb1, sg2(t2)))
                             for t2 in P2_core])
    steps.append(ChainStep("strip-collapse-identity", collapse))
    strip1_subst = _wsum(
        zero, P2_core, mu2,
        lambda t2: -Ly1(rb1, t2) * e(rb1, sg2(t2)) + mu1_rb1 * Ly2(rb1, t2) * d2(e, sg1(rb1), t2),
    )
    steps.append(ChainStep("t1-strip-substitute", abs(strip1_sum - strip1_subst)))
    I1 = _wsum(zero, P2_core, mu2, lambda t2: Ly2(rb1, t2), lambda t2: d2(e, sg1(rb1), t2))
    I2 = _wsum(zero, P2_core, mu2, lambda t2: d2(Ly2, rb1, t2), lambda t2: e(sg1(rb1), sg2(t2)))
    bracket = Ly2(rb1, rb2) * e(sg1(rb1), rb2) - Ly2(rb1, a2) * e(sg1(rb1), a2)
    strip1_reduced = _wsum(zero, P2_core, mu2, lambda t2: -Ly1(rb1, t2) * e(rb1, sg2(t2)))
    drop = max(abs(I1 - (bracket - I2)), abs(I1), abs(strip1_subst - strip1_reduced))
    steps.append(ChainStep("t1-strip-drop-d2", drop))
    mu2_rb2 = mu2(rb2)

    def strip2_cell(t1):
        return Ly1(t1, rb2) * d1(e, t1, sg2(rb2)) + Ly2(t1, rb2) * d2(e, sg1(t1), rb2)

    C1 = _wsum(zero, P1_full, mu1, lambda t1: mu2_rb2, strip2_cell)
    C2 = _wsum(zero, P1_full, mu1, lambda t1: mu2_rb2,
               lambda t1: Ly2(t1, rb2) * d2(e, sg1(t1), rb2))
    C3 = _wsum(zero, P1_core, mu1, lambda t1: -Ly2(t1, rb2) * e(sg1(t1), rb2))
    steps.append(ChainStep("t2-strip-reduce", max(abs(C - C1), abs(C1 - C2), abs(C2 - C3))))
    fv = first_variation(dp, u, eta)
    steps.append(ChainStep("combine", max(abs(full_sum - A1), abs(fv - A1))))
    return steps


@st.composite
def chain_problems(draw):
    """A discrete product problem, rational or float, with 2 to 8 points
    per axis (2 leaves an empty core), random tabulated u and a random
    tabulated eta that is zero on the boundary."""
    rational = draw(st.booleans())
    num = Fraction if rational else (lambda k, d: k / d)

    def axis():
        gaps = draw(st.lists(st.integers(1, 5), min_size=1, max_size=7))
        den = draw(st.integers(1, 3))
        return [num(k, den) for k in accumulate(gaps, initial=draw(st.integers(-3, 3)))]

    p1, p2 = axis(), axis()
    value = st.builds(num, st.integers(-9, 9), st.integers(1, 9))
    mode = "rational" if rational else FLOAT
    s1, s2 = TimeScale.discrete(p1, mode), TimeScale.discrete(p2, mode)
    u = [[draw(value) for _ in p2] for _ in p1]
    eta = [[draw(value) if 0 < i < len(p1) - 1 and 0 < j < len(p2) - 1 else num(0, 1)
            for j in range(len(p2))] for i in range(len(p1))]
    lagrangian = rand_quadratic2(random.Random(draw(st.integers(0, 10**6))))
    dp = DoubleProblem(ProductScale(s1, s2), p1[0], p1[-1], p2[0], p2[-1], lagrangian)
    return dp, SurfaceFn.from_table(s1, s2, u), SurfaceFn.from_table(s1, s2, eta)


@settings(max_examples=60, deadline=None)
@given(problem=chain_problems())
def test_chain_by_index_matches_the_labelled_walk(problem):
    dp, u, eta = problem
    got = _chain_discrete(dp, u, eta)
    want = _reference_chain(dp, u, eta)
    assert [s.label for s in got] == [s.label for s in want] == CHAIN_LABELS
    for g, w in zip(got, want):
        assert type(g.residual) is type(w.residual), g.label
        if isinstance(w.residual, float):
            assert repr(g.residual) == repr(w.residual), g.label
        else:
            assert g.residual == w.residual, g.label


@st.composite
def hybrid_problems(draw):
    """A rational product problem whose axes are each isolated points
    followed by one closing interval (no left-dense right-scattered point,
    so the chain runs), with a polynomial u and an eta that is the product
    of the four edge factors and a random linear one."""
    def axis():
        den = draw(st.integers(1, 4))
        start = draw(st.integers(-4, 4))
        gaps = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
        *points, lo, hi = (Fraction(k, den) for k in accumulate(gaps, initial=start))
        return TimeScale((*points, (lo, hi)))

    s1, s2 = axis(), axis()
    lagrangian = draw(st.sampled_from(["builtin:grad2", "builtin:grad2+mass",
                                       "poly:t1*y0^2 + y1^2 + 3*y2^2 + y0*y1*t2"]))
    dp = DoubleProblem.from_json({"scale1": s1.to_json(), "scale2": s2.to_json(),
                                  "lagrangian": lagrangian})
    t1, t2 = (Poly.var(("t1", "t2"), v) for v in ("t1", "t2"))
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    u, extra = draw(coeff) * t1 * t2, draw(coeff) + draw(coeff) * t1 + draw(coeff) * t2
    for a in range(3):
        for b in range(3 - a):
            u = u + draw(coeff) * t1 ** a * t2 ** b
    eta = (t1 - s1.min) * (t1 - s1.max) * (t2 - s2.min) * (t2 - s2.max) * extra
    axes = (dp.ps.scale1, dp.ps.scale2)
    return dp, SurfaceFn.from_callable(*axes, u), SurfaceFn.from_callable(*axes, eta)


@settings(max_examples=40, deadline=None)
@given(problem=hybrid_problems())
def test_first_variation_equals_the_kernel_pairing_on_hybrid_products(problem):
    dp, u, eta = problem
    fv = first_variation(dp, u, eta)
    pairing = _kernel_pairing(dp, u, eta, QUAD_TOL)
    assert type(fv) is type(pairing) is Fraction and fv == pairing
    (step,) = derivation_chain_check(dp, u, eta)
    assert step.label == "first-variation-vs-kernel-form"
    assert type(step.residual) is Fraction and step.residual == 0


def ps_axes(ps):
    return ps.scale1, ps.scale2


class TestMinimizer2D:
    def test_mass_term_pulls_interior_down(self):
        dp = DoubleProblem.from_json(
            {
                "scale1": AX5.to_json(),
                "scale2": AX5.to_json(),
                "lagrangian": "builtin:grad2+mass",
                "boundary": "3*t1",
            }
        )
        flat = SurfaceFn.from_callable(AX5, AX5, lambda a, b: 3 * a)
        assert double_el_residual(dp, flat).max_abs_residual > 1
        u = brute_force_minimizer_2d(dp)
        rep = double_el_residual(dp, u)
        assert float(rep.max_abs_residual) <= 1e-9
        # the mass term makes the flat extension non-stationary
        assert abs(float(u.val(2, 2)) - 6.0) > 1e-3

    def test_harmonic_boundary_recovered_exactly(self):
        dp = grad2_problem()
        u = brute_force_minimizer_2d(dp)
        for t1 in AX5.points():
            for t2 in AX5.points():
                assert float(u.val(t1, t2)) == pytest.approx(float(t1 + t2), abs=1e-10)

    def test_boundary_closure_required(self):
        dp = DoubleProblem.from_json(
            {"scale1": AX5.to_json(), "scale2": AX5.to_json(),
             "lagrangian": "builtin:grad2"}
        )
        with pytest.raises(PreconditionError):
            brute_force_minimizer_2d(dp)

    def test_nine_by_nine_solves_exactly(self):
        nine = TimeScale.discrete(range(9))
        dp = grad2_problem(nine, nine, boundary="t1*t2 + t1^2")
        rep = double_el_residual(dp, brute_force_minimizer_2d(dp))
        assert type(rep.max_abs_residual) is Fraction and rep.max_abs_residual == 0

    def test_random_rational_grid_solves_exactly(self):
        rng = random.Random(88)
        ax1, ax2 = rand_discrete_scale(rng, 8), rand_discrete_scale(rng, 8)
        # Coefficients of at least 1/3 keep the action strictly convex.
        c = [rand_fraction(rng, 1, 4, 3) for _ in range(3)]
        poly = Poly.parse(f"({c[0]})*y1^2 + ({c[1]})*y2^2 + ({c[2]})*y0^2 + (1/2)*y1*y2"
                          " + t1*y0 - 2*t2*y1 + y0", VARS2)
        dp = DoubleProblem(ProductScale(ax1, ax2), ax1.min, ax1.max, ax2.min, ax2.max, poly,
                           Poly.parse("t1 - 2*t2 + 1/3", ("t1", "t2")))
        rep = double_el_residual(dp, brute_force_minimizer_2d(dp))
        assert type(rep.max_abs_residual) is Fraction and rep.max_abs_residual == 0

    def test_a_stationary_start_that_is_no_minimizer_is_refused(self):
        # u = 0 is the boundary closure and is stationary, but a bump that
        # vanishes on the boundary has a lower action.
        six = TimeScale.discrete(range(6))
        dp = DoubleProblem.from_json({"scale1": six.to_json(), "scale2": six.to_json(),
                                      "lagrangian": "poly:y1^2 + y2^2 - 10*y0^2",
                                      "boundary": "0"})
        bump = SurfaceFn.from_callable(six, six, lambda t1, t2: t1 * (5 - t1) * t2 * (5 - t2))
        assert action(dp, bump) < 0
        with pytest.raises(PreconditionError, match="pivot -12 at the unknown value at"):
            brute_force_minimizer_2d(dp)

    @pytest.mark.parametrize("spec", ["poly:y1", "poly:y0 + t1*y2"])
    def test_no_second_partial_is_refused_before_a_newton_step(self, spec, monkeypatch):
        calls = []
        call = PolyTuple.__call__
        monkeypatch.setattr(PolyTuple, "__call__",
                            lambda self, *args: calls.append(args) or call(self, *args))
        dp = DoubleProblem.from_json({"scale1": AX5.to_json(), "scale2": AX5.to_json(),
                                      "lagrangian": spec, "boundary": "t1 + t2"})
        with pytest.raises(PreconditionError) as refused:
            brute_force_minimizer_2d(dp)
        assert str(refused.value) == ("the action is not strictly convex: Hessian pivot 0 "
                                      "at the unknown value at (1, 1)")
        # One gradient and one (empty) Hessian evaluation per cell, both at
        # the starting values: no Newton step was taken.
        assert len(calls) == 2 * 16 and calls[:16] == calls[16:]

    def test_unknowns_bound(self):
        long_axis = TimeScale.discrete(range(MINIMIZER_MAX_UNKNOWNS + 3))
        dp = grad2_problem(TimeScale.discrete(range(3)), long_axis)
        with pytest.raises(PreconditionError, match="above the limit"):
            brute_force_minimizer_2d(dp)


class TestAction:
    def test_single_cell_hand_value(self):
        ax = TimeScale.discrete([0, 2])
        ps = ProductScale(ax, ax)
        poly = Poly.parse("y0 + y1 + y2", VARS2)
        dp = DoubleProblem(ps, 0, 2, 0, 2, poly)
        u = SurfaceFn.from_callable(ax, ax, lambda a, b: a * b)
        # one cell: mu1*mu2 * (u(2,2) + quotient1(0, 2) + quotient2(2, 0))
        expect = 4 * (Fraction(4) + Fraction(4 - 0, 2) + Fraction(4 - 0, 2))
        assert action(dp, u) == expect
