import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_discrete_scale, rand_fraction
from tsvar import (
    FLOAT,
    RATIONAL,
    DomainError,
    DoubleProblem,
    Poly,
    PreconditionError,
    ProductScale,
    ScaleFn,
    TimeScale,
    UnsupportedScaleError,
    VariationalProblem,
    brute_force_minimizer,
    definedness_audit,
    delta_integral,
    el_residual,
    fl_kernel,
    lagrangian_from_spec,
    nabla_integral_discrete,
)
from tsvar.calculus import _delta_at, _exact_sum, _integrate, _symbolic
from tsvar.scales import check_grid_size, zero_of
from tsvar.polyfn import PolyTuple
from tsvar.variational import MINIMIZER_MAX_UNKNOWNS

Z6 = TimeScale.discrete(range(6))


def v2_problem(scale=Z6, a=0, b=5, **kw):
    return VariationalProblem.from_json(
        {"scale": scale.to_json(), "a": a, "b": b, "lagrangian": "builtin:v2", **kw}
    )


def discrete_action(p, y):
    """Independent action evaluation: sum of mu * L over [a, b)."""
    world = p.scale.restrict(p.a, p.b)
    total = Fraction(0)
    for t in world.points():
        st_ = world.sigma(t)
        if st_ == t:
            continue
        q = (y(st_) - y(t)) / (st_ - t)
        total += world.mu(t) * p.lagrangian(t, y(st_), q)
    return total


class TestProblemConstruction:
    def test_from_json_minimal(self):
        p = v2_problem()
        assert p.a == 0 and p.b == 5 and p.ya is None

    def test_from_json_with_boundary(self):
        p = v2_problem(boundary={"ya": 0, "yb": "7/2"})
        assert p.yb == Fraction(7, 2)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError):
            VariationalProblem.from_json({"scale": Z6.to_json(), "a": 0, "b": 5})

    def test_reversed_range_rejected(self):
        with pytest.raises(PreconditionError):
            v2_problem(a=5, b=0)

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ValueError):
            lagrangian_from_spec("builtin:nope")
        with pytest.raises(ValueError):
            lagrangian_from_spec("v^2")

    def test_inline_poly_spec(self):
        poly = lagrangian_from_spec("poly:v^2 + t*y")
        assert poly(1, 2, 3) == 11

    def test_lagrangian_must_be_a_poly(self):
        # A callable has no exact partials, and a finite difference would
        # break the exactness of residuals on rational scales.
        with pytest.raises(PreconditionError, match=r"Poly in \(t, y, v\)"):
            VariationalProblem(Z6, 0, 5, lambda t, y, v: v * v)
        with pytest.raises(PreconditionError):
            VariationalProblem(Z6, 0, 5, Poly.parse("v^2", ("t", "v", "y")))
        ps = ProductScale(Z6, Z6)
        with pytest.raises(PreconditionError, match=r"Poly in \(t1, t2, y0, y1, y2\)"):
            DoubleProblem(ps, 0, 5, 0, 5, lambda t1, t2, y0, y1, y2: y1 * y1)
        with pytest.raises(PreconditionError):
            DoubleProblem(ps, 0, 5, 0, 5, Poly.parse("v^2", ("t", "y", "v")))

    def test_partials_worked_out_once(self):
        poly = Poly.parse("v^2 + t*y", ("t", "y", "v"))
        p = VariationalProblem(Z6, 0, 5, poly)
        assert p.partials == (poly.diff("y"), poly.diff("v"))
        assert p.partial_y(2, 1, 3) == 2 and p.partial_v(2, 1, 3) == 6
        assert VariationalProblem.from_poly(Z6, 0, 5, poly) == p


class TestDefinednessAudit:
    def test_left_scattered_endpoint_reported(self):
        findings = definedness_audit(v2_problem())
        assert len(findings) == 2
        assert "left-scattered" in findings[0]
        assert "[0, 4]" in findings[0]

    def test_left_dense_endpoint_clean(self):
        s = TimeScale.interval(0.0, 1.0, mode=FLOAT)
        p = VariationalProblem.from_json(
            {"scale": s.to_json(), "a": 0.0, "b": 1.0, "lagrangian": "builtin:v2"}
        )
        assert definedness_audit(p) == ["no gap"]


class TestELResidual:
    def test_residual_exact_for_cubic_state_term(self):
        # L = v^2 + y^3 along y = t: L_v = 2 is constant while the
        # accumulated L_y = 3 sigma(t)^2 is not, so the residual is real
        # and, on a rational scale, exact.
        p = VariationalProblem(Z6, 0, 5, Poly.parse("v*v + y*y*y", ("t", "y", "v")))
        rep = el_residual(p, ScaleFn.from_callable(Z6, lambda t: t))
        assert type(rep.max_abs_residual) is Fraction
        assert rep.max_abs_residual == Fraction(60)

    def test_linear_trajectory_is_stationary(self):
        rep = el_residual(v2_problem(), ScaleFn.from_callable(Z6, lambda t: t))
        assert rep.c_hat == 2
        assert rep.max_abs_residual == 0
        assert [t for t, _ in rep.residuals] == [Fraction(k) for k in range(5)]

    def test_square_trajectory_misses(self):
        rep = el_residual(v2_problem(), ScaleFn.from_callable(Z6, lambda t: t * t))
        assert rep.max_abs_residual == 8
        assert dict(rep.residuals)[Fraction(0)] == -8

    def test_exact_rational_arithmetic(self):
        rep = el_residual(v2_problem(), ScaleFn.from_callable(Z6, lambda t: t * t))
        assert all(isinstance(r, Fraction) for _, r in rep.residuals)

    def test_hybrid_scale_linear_trajectory(self):
        s = TimeScale(((0.0, 1.0), (2.0, 2.0)), mode=FLOAT)
        p = VariationalProblem.from_json(
            {"scale": s.to_json(), "a": 0.0, "b": 2.0, "lagrangian": "builtin:v2"}
        )
        y = ScaleFn.from_callable(s, lambda t: t, deriv=lambda t: 1.0)
        rep = el_residual(p, y)
        assert rep.max_abs_residual <= 1e-9

    def test_dense_nodes_read_the_continuous_restriction(self):
        # At t = 1, the right end of the interval, quadrature must see
        # y(1) and the classical slope, not y(sigma(1)) and a jump quotient.
        s = TimeScale(((0, 1), 2))
        p = VariationalProblem.from_json(
            {"scale": s.to_json(), "a": 0, "b": 2, "lagrangian": "builtin:v2+y2"}
        )
        y = ScaleFn.from_callable(s, lambda t: t, deriv=lambda t: 1)
        rep = el_residual(p, y, dense_refinement=0)
        assert rep.residuals == ((0, 0.5), (1, -0.5))

    def test_findings_travel_with_report(self):
        rep = el_residual(v2_problem(), ScaleFn.from_callable(Z6, lambda t: t))
        assert len(rep.definedness_findings) == 2


class TestKernel:
    def test_delta_kernel_on_z6(self):
        rep = fl_kernel(Z6, "delta", 0, 5)
        assert rep.unconstrained == (Fraction(4),)
        assert rep.constrained == tuple(Fraction(k) for k in range(4))
        assert rep.claimed_domain == tuple(Fraction(k) for k in range(4))
        assert rep.claim_holds and rep.rank == 4

    def test_nabla_kernel_misses_endpoints(self):
        s = TimeScale.discrete(range(1, 6))
        rep = fl_kernel(s, "nabla", 1, 5)
        assert rep.unconstrained == (Fraction(1), Fraction(5))
        assert rep.constrained == (Fraction(2), Fraction(3), Fraction(4))
        assert not rep.claim_holds and rep.rank == 3

    def test_two_point_delta_scale_constrains_nothing(self):
        rep = fl_kernel(TimeScale.discrete([0, 1]), "delta")
        assert rep.constrained == ()
        assert rep.unconstrained == (Fraction(0),)

    def test_variant_validated(self):
        with pytest.raises(ValueError):
            fl_kernel(Z6, "gamma")

    def test_requires_discrete_range(self):
        with pytest.raises(UnsupportedScaleError):
            fl_kernel(TimeScale.interval(0, 1), "delta")

    def test_relabeling_invariance(self):
        # mapping t -> 2t + 1 must map the kernel sets pointwise
        base = fl_kernel(Z6, "delta", 0, 5)
        mapped_scale = TimeScale.discrete([2 * k + 1 for k in range(6)])
        mapped = fl_kernel(mapped_scale, "delta", 1, 11)
        relabel = {t: 2 * t + 1 for t in Z6.points()}
        assert mapped.unconstrained == tuple(relabel[t] for t in base.unconstrained)
        assert mapped.constrained == tuple(relabel[t] for t in base.constrained)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_delta_kernel_always_frees_exactly_the_last_cell(self, seed):
        rng = random.Random(seed)
        s = rand_discrete_scale(rng, rng.randint(3, 9))
        rep = fl_kernel(s, "delta")
        pts = s.points()
        assert rep.unconstrained == (pts[-2],)
        assert rep.claim_holds


def dense_nullspace_support(rows, ncols):
    """Reference: Gauss-Jordan on dense rows, then the kernel support."""
    m = [list(r) for r in rows if any(r)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    free = [c for c in range(ncols) if c not in pivots]
    support = set(free)
    for j, c in enumerate(pivots):
        if any(m[j][f] != 0 for f in free):
            support.add(c)
    return len(pivots), support


def pairing_matrix(sub, variant, a, b):
    """The kernel's pairing matrix, built from the calculus itself.

    Entry (s, t) pairs the indicator of M at t with the indicator of the
    test function at s: the delta integral over [a, b] of
    [tau = t][sigma(tau) = s], or the nabla integral of [tau = t][tau = s].
    Rows are the interior points, columns the points M lives on."""
    pts = sub.points()
    interior = pts[1:-1]
    if variant == "delta":
        cols = [t for t in pts if t < b]

        def entry(s, t):
            return delta_integral(sub, lambda tau: int(tau == t and sub.sigma(tau) == s), a, b)
    else:
        cols = pts

        def entry(s, t):
            return nabla_integral_discrete(sub, lambda tau: int(tau == t == s), a, b)
    return cols, [[entry(s, t) for t in cols] for s in interior]


class TestKernelOracle:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**6), mode=st.sampled_from([RATIONAL, FLOAT]),
           variant=st.sampled_from(["delta", "nabla"]))
    def test_matches_elimination_of_the_pairing_matrix(self, seed, mode, variant):
        rng = random.Random(seed)
        pts = rand_discrete_scale(rng, rng.randint(2, 12)).points()
        if mode == FLOAT:
            pts = [float(t) for t in pts]
        s = TimeScale.discrete(pts, mode=mode)
        i = rng.randrange(len(pts) - 1)
        j = rng.randrange(i + 1, len(pts))
        a, b = pts[i], pts[j]
        rep = fl_kernel(s, variant, a, b)
        cols, rows = pairing_matrix(s.restrict(a, b), variant, a, b)
        rank, support = dense_nullspace_support(rows, len(cols))
        expected = (tuple(t for k, t in enumerate(cols) if k not in support),
                    tuple(t for k, t in enumerate(cols) if k in support), rank)
        assert (rep.constrained, rep.unconstrained, rep.rank) == expected

    def test_structural_kernel_sets_on_2000_points(self):
        s = rand_discrete_scale(random.Random(7), 2000)
        pts = s.points()
        delta = fl_kernel(s, "delta")
        assert delta.constrained == tuple(pts[:-2])
        assert delta.unconstrained == (pts[-2],)
        assert delta.rank == 1998 and delta.claim_holds
        nabla = fl_kernel(s, "nabla")
        assert nabla.constrained == tuple(pts[1:-1])
        assert nabla.unconstrained == (pts[0], pts[-1])
        assert nabla.rank == 1998 and not nabla.claim_holds


class TestMinimizer:
    def test_straight_line_for_kinetic_action(self):
        s = TimeScale.discrete(range(5))
        p = VariationalProblem.from_json(
            {"scale": s.to_json(), "a": 0, "b": 4, "lagrangian": "builtin:v2",
             "boundary": {"ya": 0, "yb": 4}}
        )
        y = brute_force_minimizer(p)
        for t in s.points():
            assert float(y(t)) == pytest.approx(float(t), abs=1e-9)

    def test_zero_for_symmetric_convex_action(self):
        s = TimeScale.discrete(range(-2, 3))
        p = VariationalProblem.from_json(
            {"scale": s.to_json(), "a": -2, "b": 2, "lagrangian": "builtin:v2+y2",
             "boundary": {"ya": 0, "yb": 0}}
        )
        y = brute_force_minimizer(p)
        for t in s.points():
            assert abs(float(y(t))) <= 1e-9

    def test_minimizer_satisfies_stationarity(self):
        s = TimeScale.discrete(range(5))
        p = VariationalProblem.from_json(
            {"scale": s.to_json(), "a": 0, "b": 4, "lagrangian": "builtin:v2+y2",
             "boundary": {"ya": 0, "yb": 4}}
        )
        y = brute_force_minimizer(p)
        rep = el_residual(p, y)
        assert float(rep.max_abs_residual) <= 1e-9

    def test_minimizer_beats_random_perturbations(self):
        rng = random.Random(7)
        s = TimeScale.discrete(range(5))
        poly = Poly.parse("v^2 + y^2 + t*y", ("t", "y", "v"))
        p = VariationalProblem(s, 0, 4, poly, ya=Fraction(0), yb=Fraction(2))
        y = brute_force_minimizer(p)
        base = discrete_action(p, lambda t: Fraction(y(t)))
        pts = s.points()
        for _ in range(10):
            bump = {t: Fraction(0) for t in pts}
            for t in pts[1:-1]:
                bump[t] = rand_fraction(rng, -2, 2, 1000)
            perturbed = discrete_action(
                p, lambda t: Fraction(y(t)) + bump[t] / 1000
            )
            assert perturbed >= base - Fraction(1, 10**18)

    def test_boundary_values_required(self):
        with pytest.raises(PreconditionError):
            brute_force_minimizer(v2_problem())

    def test_thirteen_points_solve_exactly(self):
        rng = random.Random(13)
        s = rand_discrete_scale(rng, 13)
        poly = Poly.parse("2*v^2 + 3*y^2 - 2*t*y + y", ("t", "y", "v"))
        p = VariationalProblem(s, s.min, s.max, poly,
                               ya=rand_fraction(rng), yb=rand_fraction(rng))
        rep = el_residual(p, brute_force_minimizer(p))
        assert type(rep.max_abs_residual) is Fraction and rep.max_abs_residual == 0

    def test_unknowns_bound(self):
        def problem(unknowns):
            s = TimeScale.discrete(range(unknowns + 2))
            return VariationalProblem(s, s.min, s.max, Poly.parse("v^2", ("t", "y", "v")),
                                      ya=Fraction(0), yb=Fraction(1))

        y = brute_force_minimizer(problem(MINIMIZER_MAX_UNKNOWNS))
        assert y(Fraction(1)) == Fraction(1, MINIMIZER_MAX_UNKNOWNS + 1)
        with pytest.raises(PreconditionError, match="above the limit"):
            brute_force_minimizer(problem(MINIMIZER_MAX_UNKNOWNS + 1))

    @pytest.mark.parametrize("scale, spec", [
        (TimeScale.discrete(range(7)), "v^4 + v^2 + y^2"),
        (TimeScale.discrete([0.0, 0.5, 1.25, 2.0, 3.5, 4.0, 6.0], mode=FLOAT), "v^2 + y^2"),
    ])
    def test_float_loop(self, scale, spec):
        # A quartic Lagrangian, or a float scale, takes the float loop.
        p = VariationalProblem(scale, scale.min, scale.max, Poly.parse(spec, ("t", "y", "v")),
                               ya=1, yb=5)
        y = brute_force_minimizer(p)
        # Its values are binary floats, tabulated as Fractions on a rational scale.
        assert all(y(t) == Fraction(float(y(t))) for t in p.world.points())
        assert abs(el_residual(p, y).max_abs_residual) <= 1e-9

    def test_not_strictly_convex_is_refused_at_once(self):
        p = VariationalProblem.from_json(
            {"scale": TimeScale.discrete(range(7)).to_json(), "a": 0, "b": 6,
             "lagrangian": "builtin:harmonic", "boundary": {"ya": 0, "yb": 1}}
        )
        with pytest.raises(PreconditionError, match="not strictly convex"):
            brute_force_minimizer(p)

    @pytest.mark.parametrize("spec", ["poly:v", "poly:y", "poly:t*v - 2*y"])
    def test_no_second_partial_is_refused_before_a_newton_step(self, spec, monkeypatch):
        # An action affine in the unknowns has an empty Hessian, whose first
        # pivot is 0: refused even where the gradient vanishes (poly:v).
        calls = []
        call = PolyTuple.__call__
        monkeypatch.setattr(PolyTuple, "__call__",
                            lambda self, *args: calls.append(args) or call(self, *args))
        p = VariationalProblem.from_json(
            {"scale": TimeScale.discrete(range(5)).to_json(), "a": 0, "b": 4,
             "lagrangian": spec, "boundary": {"ya": 0, "yb": 1}}
        )
        with pytest.raises(PreconditionError) as refused:
            brute_force_minimizer(p)
        assert str(refused.value) == ("the action is not strictly convex: Hessian pivot 0 "
                                      "at the unknown value at (1)")
        # One gradient and one (empty) Hessian evaluation per cell, both at
        # the starting values: no Newton step was taken.
        assert len(calls) == 2 * 4 and calls[:4] == calls[4:]


# -- the running integral gives what one integral per grid step gives -----------


def _stepwise_el_residual(p, y_hat, refinement, tol):
    """``el_residual`` computed with one ``_integrate`` from each grid point to
    the next, every point located and y read afresh: the reference for the
    running integral."""
    world = p.world
    y_node = y_hat.on(world) if isinstance(y_hat, ScaleFn) else y_hat
    # Slopes are read as el_residual reads them: a bare Poly by its derivative.
    sloped = ScaleFn.from_callable(world, y_hat) if type(y_hat) is Poly else y_hat

    def ly_on(i):
        # At a node x of the dense piece i, sigma(x) = x.
        return lambda x: p.partial_y(x, y_node(x), _delta_at(world, sloped, (i, x), x)[0])

    span = world.restrict(p.a, world.rho(p.b))
    check_grid_size(refinement, span)
    pts = span.grid(refinement)
    node = _symbolic(sloped)
    raw, acc, prev = [], zero_of(world), pts[0]
    for t in pts:
        if t != prev:
            acc = acc + _integrate(world, prev, t, lambda tau, st, mu: p.partial_y(*args),
                                   ly_on, tol, node)
            prev = t
        at = world._find(t)
        args = (t, y_hat(world._sigma_at(*at)), _delta_at(world, sloped, at)[0])
        raw.append((t, p.partial_v(*args) - acc))
    rs = [r for _, r in raw]
    if all(type(r) is Fraction for r in rs):
        c_hat = _exact_sum(0, ((1, r) for r in rs)) / len(rs)
    else:
        c_hat = sum(rs) / len(rs)
    residuals = tuple((t, r - c_hat) for t, r in raw)
    return residuals, c_hat, max(abs(r) for _, r in residuals)


def _outcome(call):
    """What ``call`` returns or raises, by type and repr: float bits, signs and
    Fraction against int all tell apart."""
    try:
        residuals, c_hat, max_abs = call()
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)
    return ([(type(t), repr(t), type(r), repr(r)) for t, r in residuals],
            type(c_hat), repr(c_hat), type(max_abs), repr(max_abs))


@st.composite
def el_scales(draw):
    """Discrete rational, rational hybrid (pieces on a grid of halves, thirds
    or sevenths, so that some ends round off the scale as floats) and float
    hybrid scales, the last sometimes with an eps."""
    kind = draw(st.sampled_from(["discrete", RATIONAL, FLOAT]))
    unit = Fraction(1, draw(st.sampled_from([2, 3, 6, 7])))
    x = unit * draw(st.integers(-6, 6))
    pieces = []
    for _ in range(draw(st.integers(2, 5))):
        w = unit * draw(st.integers(1, 5))
        pieces.append((x, x) if kind == "discrete" else (x, x + w))
        x += (0 if kind == "discrete" else w) + unit * draw(st.integers(1, 3))
        if draw(st.booleans()):
            pieces.append((x, x))
            x += unit * draw(st.integers(1, 3))
    if kind == FLOAT:
        pieces = [(float(lo), float(hi)) for lo, hi in pieces]
        return TimeScale(tuple(pieces), FLOAT, draw(st.sampled_from([0.0, 1e-9])))
    return TimeScale(tuple(pieces) + ((x, x),))


def _trajectory(kind, scale, c):
    """y of the given kind; "raise" refuses every point from c on."""
    poly = Poly.parse(f"({c})*t^2 - t + 1", ("t",))
    if kind == "poly":
        return poly
    if kind == "scalefn-poly":
        return ScaleFn.from_callable(scale, poly)
    if kind == "closure":
        return ScaleFn.from_callable(scale, lambda t: math.sin(t) + c * t * t)
    if kind == "closure-deriv":
        return ScaleFn.from_callable(scale, math.sin, deriv=math.cos)
    if kind == "table":
        return ScaleFn.from_table(scale, {t: c * t * t - t for t in scale.points()})
    if kind == "plain":
        return lambda t: 3 * t - c * t * t

    def refuses(t):
        if t >= c:
            raise DomainError(f"no value at {t!r}")
        return t * t
    return refuses


@settings(max_examples=150, deadline=None)
@given(scale=el_scales(), data=st.data(),
       kind=st.sampled_from(["poly", "scalefn-poly", "closure", "closure-deriv", "table",
                             "plain", "raise"]),
       spec=st.sampled_from(["builtin:v2", "builtin:v2+y2", "builtin:harmonic",
                             "poly:t*y + v^2 + y*v", "poly:y^3 + v^2"]),
       refinement=st.sampled_from([0, 1, 2, 3, 4] * 3 + [-1, 10 ** 5]),
       tol=st.sampled_from([1e-6, 1e-9]))
def test_el_residual_is_one_integral_per_step(scale, data, kind, spec, refinement, tol):
    pts = scale.grid(1)
    i = data.draw(st.integers(0, len(pts) // 3))
    # b is the maximum (left-scattered) or any later grid point.
    j = data.draw(st.sampled_from([len(pts) - 1, data.draw(st.integers(i + 1, len(pts) - 1))]))
    p = VariationalProblem(scale, pts[i], pts[j], lagrangian_from_spec(spec))
    if kind == "table" and not scale.is_discrete:
        kind = "plain"
    c = data.draw(st.sampled_from(pts)) if kind == "raise" else Fraction(data.draw(st.integers(-3, 3)), 2)
    y = _trajectory(kind, scale, c)

    def walked():
        rep = el_residual(p, y, refinement, tol)
        return rep.residuals, rep.c_hat, rep.max_abs_residual

    assert _outcome(walked) == _outcome(lambda: _stepwise_el_residual(p, y, refinement, tol))


def test_el_residual_refusals_match_the_stepwise_reference():
    scale = TimeScale(((0, 1), 2, (3, 4)))
    p = VariationalProblem(scale, 0, 4, lagrangian_from_spec("builtin:v2"))
    y = ScaleFn.from_callable(scale, Poly.parse("t^2", ("t",)))
    for refinement in (-1, 10 ** 5):
        got = _outcome(lambda: (el_residual(p, y, refinement).residuals, 0, 0))
        assert got == _outcome(lambda: _stepwise_el_residual(p, y, refinement, 1e-8))
        assert got[0] in (ValueError, PreconditionError)
