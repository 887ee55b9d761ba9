"""Quadrature nodes lie in their dense piece: the data are evaluated there
with no scale lookup, and each integral locates its two ends once.

The lookup path stays reachable by wrapping the data in a plain lambda,
which hands every node to ``ScaleFn.__call__`` or ``SurfaceFn.val``; the
node path must give the same bits."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsvar import (
    FLOAT,
    RATIONAL,
    DomainError,
    DoubleProblem,
    Poly,
    ProductScale,
    ScaleFn,
    SurfaceFn,
    TimeScale,
    VariationalProblem,
    action,
    delta_deriv,
    delta_integral,
    double_el_residual,
    double_integral,
    el_residual,
    first_variation,
    fubini_residual,
    ibp_residual,
    junction_audit,
    lagrangian_from_spec,
)
from tsvar import calculus, variational
from tsvar.quadrature import QUAD_TOL


def _same(got, want):
    # repr tells types, float bits and signs apart.
    assert (type(got), repr(got)) == (type(want), repr(want))


@st.composite
def hybrid_scales(draw, modes=(FLOAT, RATIONAL), max_intervals=4):
    """A hybrid scale on a dyadic grid: intervals, some followed by an
    isolated point; float scales sometimes carry an eps."""
    mode = draw(st.sampled_from(modes))
    unit = Fraction(1, 2 ** draw(st.integers(1, 5)))
    x = unit * draw(st.integers(-8, 8))
    pieces = []
    for _ in range(draw(st.integers(1, max_intervals))):
        w = unit * draw(st.integers(1, 6))
        pieces.append((x, x + w))
        x += w + unit * draw(st.integers(1, 3))
        if draw(st.booleans()):
            pieces.append((x, x))
            x += unit * draw(st.integers(1, 3))
    if mode == FLOAT:
        pieces = [(float(lo), float(hi)) for lo, hi in pieces]
        return TimeScale(tuple(pieces), FLOAT, draw(st.sampled_from([0.0, 1e-9])))
    return TimeScale(tuple(pieces), RATIONAL)


def _ends(draw, scale):
    """Two points a < b of ``scale``, from its grid with two interior samples
    per interval."""
    pts = scale.grid(2)
    i = draw(st.integers(0, len(pts) - 2))
    j = draw(st.integers(i + 1, len(pts) - 1))
    return pts[i], pts[j]


FUNCS = {
    "sin": math.sin,
    "exp": math.exp,
    "cauchy": lambda x: 1 / (1 + x * x),
    "cubic": lambda x: x * x * x - x / 3,
}


# -- the node path gives the lookup path's bits -------------------------------


@settings(max_examples=60, deadline=None)
@given(scale=hybrid_scales(), name=st.sampled_from(sorted(FUNCS)), data=st.data())
def test_delta_integral_reads_nodes_as_the_lookup_path_does(scale, name, data):
    a, b = _ends(data.draw, scale)
    fn = ScaleFn.from_callable(scale, FUNCS[name])
    _same(delta_integral(scale, fn, a, b, tol=1e-8),
          delta_integral(scale, lambda x: fn(x), a, b, tol=1e-8))


@settings(max_examples=25, deadline=None)
@given(scale=hybrid_scales(modes=(FLOAT,), max_intervals=2),
       names=st.lists(st.sampled_from(sorted(FUNCS)), min_size=2, max_size=2),
       form=st.sampled_from([1, 2]), data=st.data())
def test_ibp_residual_reads_nodes_as_the_lookup_path_does(scale, names, form, data):
    a, b = _ends(data.draw, scale)
    f, g = (ScaleFn.from_callable(scale, FUNCS[n]) for n in names)
    _same(ibp_residual(scale, f, g, a, b, form, tol=1e-6),
          ibp_residual(scale, lambda x: f(x), lambda x: g(x), a, b, form, tol=1e-6))


@settings(max_examples=15, deadline=None)
@given(ax1=hybrid_scales(modes=(FLOAT,), max_intervals=1),
       ax2=hybrid_scales(modes=(FLOAT,), max_intervals=1))
def test_fubini_residual_reads_nodes_as_the_lookup_path_does(ax1, ax2):
    ps = ProductScale(ax1, ax2)
    f = SurfaceFn.from_callable(ax1, ax2, lambda t1, t2: math.sin(t1) * math.exp(t2) + t1 * t2)
    looked_up = SurfaceFn.from_callable(ax1, ax2, lambda t1, t2: f.val(t1, t2))
    rect = (ax1.min, ax1.max, ax2.min, ax2.max)
    _same(fubini_residual(ps, f, rect, 1e-6), fubini_residual(ps, looked_up, rect, 1e-6))


def test_trajectory_integrals_read_nodes_as_the_lookup_path_does():
    # Nodes on either axis reach u, eta and their Richardson slopes.
    ax = TimeScale(((0.0, 0.5), 0.75, (1.0, 1.25)), FLOAT)
    dp = DoubleProblem(ProductScale(ax, ax), 0.0, 1.25, 0.0, 1.25,
                       Poly.parse("y1^2 + y2^2 + t1*y0", ("t1", "t2", "y0", "y1", "y2")))
    u = SurfaceFn.from_callable(ax, ax, lambda t1, t2: math.sin(t1) * math.exp(t2))
    eta = SurfaceFn.from_callable(ax, ax, lambda t1, t2: t1 * (1.25 - t1) * t2 * (1.25 - t2))
    u_looked_up, eta_looked_up = (SurfaceFn.from_callable(ax, ax, lambda t1, t2, f=f: f.val(t1, t2))
                                  for f in (u, eta))
    _same(action(dp, u, 1e-4), action(dp, u_looked_up, 1e-4))
    _same(first_variation(dp, u, eta, 1e-4), first_variation(dp, u_looked_up, eta_looked_up, 1e-4))


# -- what a node costs ---------------------------------------------------------


@pytest.fixture
def lookups(monkeypatch):
    """The points ``TimeScale._locate`` is asked for from now on."""
    asked = []
    original = TimeScale._locate

    def counted(self, t):
        asked.append(t)
        return original(self, t)

    monkeypatch.setattr(TimeScale, "_locate", counted)
    return asked


FLOAT_HYBRID = TimeScale(((0.0, 0.75), 1.0, (1.25, 2.0), 2.5, (3.0, 3.5)), FLOAT)


def test_a_float_integral_locates_its_ends_only(lookups):
    nodes = []
    fn = ScaleFn.from_callable(FLOAT_HYBRID, lambda x: nodes.append(x) or math.sin(x))
    seen = []
    for tol in (1e-4, 1e-10):
        nodes.clear()
        lookups.clear()
        delta_integral(FLOAT_HYBRID, fn, FLOAT_HYBRID.min, FLOAT_HYBRID.max, tol)
        seen.append((len(lookups), len(nodes)))
    (few_lookups, few_nodes), (many_lookups, many_nodes) = seen
    assert few_lookups == many_lookups == 2
    assert many_nodes > few_nodes > 2


def test_a_float_by_parts_residual_locates_no_node(lookups):
    # The dense integrands take their slopes on the piece each integral hands
    # them: the lookups are the ends', located once for the boundary term and
    # once for the range both integrals share, however many nodes Simpson
    # takes.
    scale = TimeScale(((0.0, 1.0), 1.5, (2.0, 3.0)), FLOAT)
    nodes = []
    f = ScaleFn.from_callable(scale, lambda x: nodes.append(x) or math.sin(x))
    g = ScaleFn.from_callable(scale, math.exp)
    seen = []
    for tol in (1e-6, 1e-10):
        nodes.clear()
        lookups.clear()
        ibp_residual(scale, f, g, 0.0, 3.0, 1, tol)
        seen.append((len(lookups), len(nodes)))
    (few_lookups, few_nodes), (many_lookups, many_nodes) = seen
    assert few_lookups == many_lookups == 4
    assert many_nodes > few_nodes > 100


def test_a_sub_scale_reads_nodes_of_data_on_its_parent(lookups):
    sub = FLOAT_HYBRID.restrict(1.0, 3.25).truncate_k()
    fn = ScaleFn.from_callable(FLOAT_HYBRID, math.exp)
    lookups.clear()
    value = delta_integral(sub, fn, 1.0, 3.25)
    assert len(lookups) == 2
    _same(value, delta_integral(sub, lambda x: fn(x), 1.0, 3.25))


def test_a_right_dense_slope_locates_its_point_only(lookups):
    samples = []
    fn = ScaleFn.from_callable(FLOAT_HYBRID, lambda x: samples.append(x) or math.exp(x))
    for t in (0.3, 1.7):
        samples.clear()
        lookups.clear()
        assert delta_deriv(FLOAT_HYBRID, fn, t).method == "numeric-limit"
        # The slope is taken at the located point: t is found once.
        assert len(lookups) == 1 and len(samples) > 4


def test_a_jump_quotient_locates_its_point_once(lookups):
    scale = TimeScale.discrete([Fraction(k, 3) for k in range(8)])
    own = scale.points()[3]
    for fn in (ScaleFn.from_callable(scale, lambda x: x * x),
               ScaleFn.from_table(scale, {t: t * t for t in scale.points()})):
        lookups.clear()
        assert delta_deriv(scale, fn, own).value == Fraction(7, 3)
        assert lookups == [own]
        # An equal copy is located once more when a table reads it; a
        # callable bound to the scale reads it as it is.
        lookups.clear()
        delta_deriv(scale, fn, Fraction(1))
        assert len(lookups) == (1 if fn.table is None else 2)


def _el_problem(scale, spec="builtin:v2+y2"):
    return VariationalProblem(scale, scale.min, scale.max, lagrangian_from_spec(spec))


@pytest.fixture
def el_costs(monkeypatch):
    """Counts of ``Poly.subs`` and of ``_integrate`` calls made from now on."""
    counts = Counter()
    original_subs = Poly.subs

    def subs(self, i, value):
        counts["subs"] += 1
        return original_subs(self, i, value)

    def integrate(*args, **kwargs):
        counts["integrate"] += 1
        return original_integrate(*args, **kwargs)

    original_integrate = calculus._integrate
    monkeypatch.setattr(Poly, "subs", subs)
    monkeypatch.setattr(calculus, "_integrate", integrate)
    monkeypatch.setattr(variational, "_integrate", integrate, raising=False)
    return counts


def test_el_residual_walks_a_rational_hybrid_scale_without_lookups(lookups, el_costs):
    # [0, 3/4] u {1} u [5/4, 2] u {9/4} u [5/2, 3] at refinement 32: 104 grid
    # points, 99 of them past the low end of their dense piece.  F, the
    # antiderivative of L_y, is read once at each dense piece's low end and
    # once at each later point of the piece.
    scale = TimeScale(((0, Fraction(3, 4)), 1, (Fraction(5, 4), 2), Fraction(9, 4),
                       (Fraction(5, 2), 3)))
    p = _el_problem(scale)
    square = Poly.parse("t^2", ("t",))
    for y in (square, ScaleFn.from_callable(scale, square)):
        lookups.clear()
        el_costs.clear()
        report = el_residual(p, y)
        assert len(report.residuals) == 104
        # The one lookup is the definedness audit's, classifying b.
        assert lookups == [p.b]
        assert el_costs == {"subs": 102}


def test_el_residual_walks_a_discrete_scale_without_lookups(lookups, el_costs):
    scale = TimeScale.discrete([Fraction(k, 3) for k in range(200)])
    p = _el_problem(scale)
    for y in (Poly.parse("t^2", ("t",)), ScaleFn.from_table(scale, {t: t * t for t in scale.points()})):
        lookups.clear()
        el_costs.clear()
        assert len(el_residual(p, y).residuals) == 199
        # b is left-scattered: the audit classifies it and finds rho(b).
        assert len(lookups) == 2
        assert el_costs == {}


def test_el_residual_reads_simpson_nodes_in_the_walk_s_piece(lookups):
    # y = sin with its derivative cos on a float scale: every dense step runs
    # Simpson, whose nodes take their slope on the piece the walk is in.
    scale = TimeScale(((0.0, 0.75), 1.0, (1.25, 2.0)), FLOAT)
    nodes = []
    y = ScaleFn.from_callable(scale, lambda x: nodes.append(x) or math.sin(x), deriv=math.cos)
    p = _el_problem(scale)
    lookups.clear()
    el_residual(p, y, 4)
    assert len(nodes) > 100
    assert lookups == [2.0]


# -- what a node stands for ----------------------------------------------------


THIRDS = TimeScale(((Fraction(1, 3), Fraction(2, 3)),))


def test_a_node_rounded_off_the_scale_is_read_as_the_piece_end():
    # float(1/3) lies below 1/3: it is the one Simpson node off the piece.
    seen = []
    fn = ScaleFn.from_callable(THIRDS, lambda x: seen.append(x) or x * x)
    value = delta_integral(THIRDS, fn, THIRDS.min, THIRDS.max)
    assert abs(value - Fraction(7, 81)) <= QUAD_TOL
    assert Fraction(1, 3) in seen
    assert all(type(x) is Fraction and THIRDS.min <= x <= THIRDS.max for x in seen)


def test_every_numeric_path_reads_the_rounded_end():
    a, b = THIRDS.min, THIRDS.max
    f = ScaleFn.from_callable(THIRDS, lambda x: x * x)
    g = ScaleFn.from_callable(THIRDS, lambda x: x + 1)
    for form in (1, 2):
        assert ibp_residual(THIRDS, f, g, a, b, form) <= 1e-9
    # A Richardson limit at 1/3 samples float(1/3) itself.
    assert abs(delta_deriv(THIRDS, f, a).value - Fraction(2, 3)) <= 1e-8
    surface = SurfaceFn.from_callable(THIRDS, THIRDS, lambda t1, t2: t1 * t2)
    ps = ProductScale(THIRDS, THIRDS)
    assert abs(double_integral(ps, surface, (a, b, a, b)) - Fraction(1, 36)) <= 1e-9


def test_node_points():
    assert THIRDS._node(float(Fraction(1, 3))) == Fraction(1, 3)
    # float(2/3) lies inside the piece, and so does every other node.
    for x in (0.5, float(Fraction(2, 3))):
        assert THIRDS._node(x) == Fraction(x) and type(THIRDS._node(x)) is Fraction
    assert FLOAT_HYBRID._node(0.5) == 0.5
    # Where the rounded end is itself a point of the scale, it is read as itself.
    below = Fraction(float(Fraction(1, 3)))
    touching = TimeScale(((0, below), (Fraction(1, 3), Fraction(2, 3))))
    assert touching._rounded_ends == {}


def test_data_on_a_smaller_scale_still_refuse_nodes_off_it():
    small = TimeScale.interval(0.0, 1.0, mode=FLOAT)
    big = TimeScale.interval(0.0, 2.0, mode=FLOAT)
    with pytest.raises(DomainError, match=r"^2\.0 is not a point of the scale$"):
        delta_integral(big, ScaleFn.from_callable(small, math.sin), 0.0, 2.0)
    surface = SurfaceFn.from_callable(small, small, lambda t1, t2: t1 * t2)
    with pytest.raises(DomainError, match="is not a point of the scale"):
        double_integral(ProductScale(big, big), surface, (0.0, 2.0, 0.0, 2.0))
    # A scale equal to the data's counts as cut from it; a larger one does not.
    twin = TimeScale.interval(0.0, 1.0, mode=FLOAT)
    assert twin._cut_from(small) and small.restrict(0.0, 0.5)._cut_from(small)
    assert not big._cut_from(small)
    # A discrete scale has no nodes, and an equal copy of one is not compared.
    dots = TimeScale.discrete([0, Fraction(1, 2), 1])
    assert not TimeScale.discrete([0, Fraction(1, 2), 1])._cut_from(dots)


def test_repeated_bindings_on_an_equal_copy_compare_the_scales_once(monkeypatch):
    pieces = tuple((float(k), k + 0.5) for k in range(200))
    scale, twin = TimeScale(pieces, FLOAT), TimeScale(pieces, FLOAT)
    f = ScaleFn.from_callable(twin, lambda t: t * t)
    fresh = [delta_deriv(scale, f, 3.5), delta_integral(scale, f, 0.0, 10.0)]
    compared = []
    original = TimeScale.__eq__

    def counted(self, other):
        compared.append(other)
        return original(self, other)

    monkeypatch.setattr(TimeScale, "__eq__", counted)
    scale, twin = TimeScale(pieces, FLOAT), TimeScale(pieces, FLOAT)
    f = ScaleFn.from_callable(twin, lambda t: t * t)
    for _ in range(5):
        assert [delta_deriv(scale, f, 3.5), delta_integral(scale, f, 0.0, 10.0)] == fresh
    assert compared == [twin]
    # A third equal scale is compared once too, and then remembered instead.
    other = ScaleFn.from_callable(TimeScale(pieces, FLOAT), lambda t: t * t)
    for _ in range(3):
        assert delta_integral(scale, other, 0.0, 10.0) == fresh[1]
    assert len(compared) == 2


@pytest.mark.parametrize("axes", [
    (TimeScale.discrete([0, Fraction(1, 2), 1, 2]), TimeScale.discrete([0, 1, 3])),
    (TimeScale(((0, 1), 2)), TimeScale(((0, 1), Fraction(3, 2)))),
])
def test_a_section_is_data_for_the_one_axis_entry_points(axes):
    surface = SurfaceFn.from_callable(*axes, lambda t1, t2: t1 * t1 * t2 + t2)
    for t1, t2 in ((Fraction(1, 2), 1), (1, 1), (0, 0)):
        along1, along2 = surface.section(0, (t1, t2)), surface.section(1, (t1, t2))
        assert delta_deriv(axes[0], along1, t1).value == surface.d1(t1, t2)
        assert delta_deriv(axes[1], along2, t2).value == surface.d2(t1, t2)
    scale, along = axes[0], surface.section(0, (0, 1))
    a, b = scale.min, scale.max
    assert delta_integral(scale, along, a, b) == delta_integral(scale, lambda x: x * x + 1, a, b)
    assert ibp_residual(scale, along, along, a, b) == 0
    assert junction_audit(scale, along) == junction_audit(scale, lambda x: x * x + 1)


THIRDS_HYBRID = TimeScale(((Fraction(1, 3), Fraction(2, 3)), 1))
HALF_HYBRID = TimeScale(((0, 1), Fraction(3, 2)))


def _copy(scale):
    """A scale equal to ``scale``, with none of its objects."""
    return TimeScale(scale.pieces, scale.mode, scale.eps)


def test_data_on_an_equal_copy_read_nodes_as_data_on_the_scale():
    # float(1/3) rounds below the scale: read by lookup, it would be refused.
    scale, copy = THIRDS_HYBRID, _copy(THIRDS_HYBRID)
    a, b = scale.min, scale.max
    on_scale, on_copy = (ScaleFn.from_callable(s, lambda x: x * x + 1) for s in (scale, copy))
    _same(delta_integral(scale, on_copy, a, b), delta_integral(scale, on_scale, a, b))
    _same(delta_deriv(scale, on_copy, a), delta_deriv(scale, on_scale, a))
    # The same in two variables: the double layer's data on copies of its axes.
    dp = DoubleProblem(ProductScale(scale, HALF_HYBRID), a, b, 0, Fraction(3, 2),
                       Poly.parse("y1^2 + y2^2 + t1*y0", ("t1", "t2", "y0", "y1", "y2")))
    u, eta = (lambda t1, t2: t1 * t1 * t2 + t2 ** 3,
              lambda t1, t2: (t1 - a) * (b - t1) * t2 * (Fraction(3, 2) - t2))
    mine = [SurfaceFn.from_callable(scale, HALF_HYBRID, f) for f in (u, eta)]
    copies = [SurfaceFn.from_callable(copy, _copy(HALF_HYBRID), f) for f in (u, eta)]
    _same(action(dp, copies[0], 1e-6), action(dp, mine[0], 1e-6))
    _same(first_variation(dp, *copies, 1e-6), first_variation(dp, *mine, 1e-6))


def test_a_kernel_at_a_piece_end_rounded_off_the_scale_is_defined():
    # The kernel at t1 = 1/3 takes a one-sided Richardson limit from
    # float(1/3), which lies below the scale.
    dp = DoubleProblem(ProductScale(THIRDS_HYBRID, HALF_HYBRID), Fraction(1, 3), 1, 0,
                       Fraction(3, 2), Poly.parse("y1^2 + y2^2", ("t1", "t2", "y0", "y1", "y2")))
    for u in (lambda t1, t2: t1 * t1 * t2 + t2 ** 3, Poly.parse("t1^2*t2 + t2^3", ("t1", "t2"))):
        report = double_el_residual(dp, SurfaceFn.from_callable(THIRDS_HYBRID, HALF_HYBRID, u), 2)
        assert not [gap for gap in report.gaps if "is not a point of the scale" in gap[1]]
        assert [t for (t, _), _ in report.residuals if t == Fraction(1, 3)]
    surface = SurfaceFn.from_callable(THIRDS_HYBRID, HALF_HYBRID, lambda t1, t2: t1 * t1 * t2)
    assert abs(surface.d1(Fraction(1, 3), Fraction(1, 2)) - Fraction(1, 3)) <= 1e-8


def test_richardson_samples_of_the_kernel_locate_nothing(lookups, monkeypatch):
    # At the right-dense samples of a float hybrid product the kernel's
    # Richardson limits sample L_y1 and L_y2 along the trajectory: a tighter
    # tolerance takes more samples, and no more lookups.
    ax = TimeScale(((0.0, 0.5), 0.75, (1.0, 1.25)), FLOAT)
    dp = DoubleProblem(ProductScale(ax, ax), 0.0, 1.25, 0.0, 1.25,
                       Poly.parse("y1^2 + y2^2", ("t1", "t2", "y0", "y1", "y2")))
    reads = []
    u = SurfaceFn.from_callable(ax, ax,
                                lambda t1, t2: reads.append(t1) or math.sin(t1) * math.exp(t2))
    limit = calculus.richardson_limit
    seen = []
    for tol in (1e-3, 1e-7):
        monkeypatch.setattr(calculus, "richardson_limit",
                            lambda sample, h0, order, tol, _tol=tol: limit(sample, h0, order, _tol))
        reads.clear()
        lookups.clear()
        double_el_residual(dp, u, 1)
        seen.append((len(lookups), len(reads)))
    (few_lookups, few_reads), (many_lookups, many_reads) = seen
    assert few_lookups == many_lookups
    assert many_reads > few_reads
