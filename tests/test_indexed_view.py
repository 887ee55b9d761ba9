"""The indexed view of a discrete scale: gaps computed once, points found
by identity, tables stored as arrays over the point index.

The identity path must answer exactly what the value path answers, and
the exact walks must read the view instead of hashing or subtracting
points."""

import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_discrete_scale, rand_tabulation
from tsvar.calculus import AxesFn, _iterated
from tsvar.quadrature import QUAD_TOL
from tsvar import (
    FLOAT,
    DomainError,
    DoubleProblem,
    Poly,
    ProductScale,
    ScaleFn,
    SurfaceFn,
    TimeScale,
    VariationalProblem,
    delta_integral,
    derivation_chain_check,
    double_el_residual,
    double_integral,
    el_residual,
    first_variation,
    fubini_residual,
    ibp_residual,
    nabla_integral_discrete,
    tabulated_from_json,
)


def _fresh(x):
    """An equal Fraction that is not ``x`` itself: it takes the value path."""
    return Fraction(x.numerator, x.denominator)


# -- what the exact walks cost --------------------------------------------


@pytest.fixture
def fraction_ops(monkeypatch):
    """Counts of Fraction hashes, sums, subtractions, products and divisions
    made from now on."""
    counts = Counter()
    for name, key in (("__hash__", "hash"), ("__add__", "add"), ("__radd__", "add"),
                      ("__sub__", "sub"), ("__rsub__", "sub"),
                      ("__mul__", "mul"), ("__rmul__", "mul"),
                      ("__truediv__", "div"), ("__rtruediv__", "div")):
        original = getattr(Fraction, name)

        def counted(*args, _original=original, _key=key):
            counts[_key] += 1
            return _original(*args)

        monkeypatch.setattr(Fraction, name, counted)
    return counts


def test_exact_walks_read_the_view_without_hashing_or_subtracting(fraction_ops):
    rng = random.Random(16)
    scale = rand_discrete_scale(rng, 1000)
    f, g = rand_tabulation(rng, scale), rand_tabulation(rng, scale)
    a, b = scale.min, scale.max
    sums = (lambda: delta_integral(scale, f, a, b),
            lambda: nabla_integral_discrete(scale, f, a, b))
    by_parts = (lambda: ibp_residual(scale, f, g, a, b, 1),
                lambda: ibp_residual(scale, f, g, a, b, 2))
    for call in sums + by_parts:  # the first walk computes the gaps
        call()
    for call in sums:
        fraction_ops.clear()
        call()
        assert fraction_ops == {}
    for call in by_parts:
        fraction_ops.clear()
        assert call() == 0
        # The jump quotients are formed in integers; what is left is the
        # boundary term [fg] and the residual |lhs - ([fg] - rest)|.
        assert fraction_ops["hash"] == fraction_ops["div"] == 0
        assert fraction_ops["sub"] <= 3


@pytest.mark.parametrize("form", [1, 2])
def test_by_parts_on_a_cold_table_makes_as_many_products_at_any_length(fraction_ops, form):
    # Each gap is built from integers at the first walk, and each gap term,
    # a factor times a jump quotient, is one Fraction built from integers:
    # only the boundary term [fg] and the residual take Fraction operators.
    counts = []
    for n in (50, 400):
        rng = random.Random(n)
        scale = rand_discrete_scale(rng, n)
        f, g = rand_tabulation(rng, scale), rand_tabulation(rng, scale)
        fraction_ops.clear()
        assert ibp_residual(scale, f, g, scale.min, scale.max, form) == 0
        counts.append((fraction_ops["mul"], fraction_ops["sub"]))
    assert counts[0] == counts[1]


def test_a_warm_el_residual_on_a_table_makes_no_hash(fraction_ops):
    # Each grid point's arguments are built once and reused, by position, for
    # the gap term that starts there.
    rng = random.Random(17)
    scale = rand_discrete_scale(rng, 200)
    y = rand_tabulation(rng, scale)
    p = VariationalProblem(scale, scale.min, scale.max, Poly.parse("v^2 + y^2", ("t", "y", "v")))
    el_residual(p, y)
    fraction_ops.clear()
    el_residual(p, y)
    assert fraction_ops["hash"] == 0


def test_a_warm_el_residual_on_a_table_makes_as_many_operators_at_any_length(fraction_ops):
    # The running integral and the raw residuals are carried in integers, and
    # c_hat and each centred residual are built from integers: no sum,
    # difference or product is a Fraction operator, however long the scale.
    counts = []
    for n in (50, 400):
        rng = random.Random(n)
        scale = rand_discrete_scale(rng, n)
        y = rand_tabulation(rng, scale)
        p = VariationalProblem(scale, scale.min, scale.max,
                               Poly.parse("v^2 + y^2", ("t", "y", "v")))
        el_residual(p, y)
        fraction_ops.clear()
        el_residual(p, y)
        counts.append((fraction_ops["add"], fraction_ops["sub"], fraction_ops["mul"]))
    assert counts[0] == counts[1]


@pytest.fixture
def datum_calls(monkeypatch):
    """The number of ``AxesFn.__call__`` calls made from now on."""
    counts = Counter()
    original = AxesFn.__call__

    def counted(*args, **kwargs):
        counts["call"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(AxesFn, "__call__", counted)
    return counts


@pytest.mark.parametrize("n", [50, 500])
def test_aligned_tables_are_read_by_index(datum_calls, n):
    # A table with a value at every point, on the scale walked or on an
    # equal one, is read by piece index: gap points and the by-parts
    # boundary alike, with no call of the datum.  On a sub-scale it is read
    # at each point.
    rng = random.Random(n)
    scale = rand_discrete_scale(rng, n)
    f, g = rand_tabulation(rng, scale), rand_tabulation(rng, scale)
    twin = TimeScale.discrete(map(_fresh, scale.points()))
    for s in (scale, twin):
        walks = (lambda: delta_integral(s, f, s.min, s.max),
                 lambda: nabla_integral_discrete(s, f, s.min, s.max),
                 lambda: ibp_residual(s, f, g, s.min, s.max, 1),
                 lambda: ibp_residual(s, f, g, s.min, s.max, 2))
        for walk in walks:
            walk()  # warm: the first walk computes the gaps
            datum_calls.clear()
            walk()
            assert datum_calls["call"] == 0
    sub = scale.restrict(scale.points()[1], scale.max)
    delta_integral(sub, f, sub.min, sub.max)
    assert datum_calls["call"] == n - 2


def test_an_equal_axis_is_compared_once(monkeypatch):
    # A table on an equal copy of the scale walked is read by index; the two
    # scales are compared at the first integral only.
    rng = random.Random(20)
    scale = rand_discrete_scale(rng, 200)
    f = rand_tabulation(rng, scale)
    twin = TimeScale.discrete(map(_fresh, scale.points()))
    want = delta_integral(scale, f, scale.min, scale.max)
    compared = []
    original = TimeScale.__eq__

    def counted(self, other):
        compared.append(other)
        return original(self, other)

    monkeypatch.setattr(TimeScale, "__eq__", counted)
    assert [delta_integral(twin, f, twin.min, twin.max) for _ in range(20)] == [want] * 20
    assert len(compared) == 1


def test_a_sub_scale_of_an_equal_copy_is_compared_once(monkeypatch):
    # Data bound on a sub-scale cut from an equal copy of their dense axis
    # compare the sub-scale and the copy at the first bind only: later binds,
    # on that sub-scale or another cut from the copy, find the copy's memo
    # by identity.
    pieces = tuple(Fraction(k, 7) for k in range(300)) + ((100, 101),)
    axis, copy = TimeScale(pieces), TimeScale(pieces)
    subs = (copy.restrict(Fraction(3, 7), Fraction(201, 2)),
            copy.restrict(0, Fraction(201, 2)))
    u = SurfaceFn.from_callable(axis, axis, lambda a, b: a + b)
    compared = []
    original = TimeScale.__eq__

    def counted(self, other):
        compared.append(other)
        return original(self, other)

    monkeypatch.setattr(TimeScale, "__eq__", counted)
    counts = []
    for sub in subs:
        compared.clear()
        assert all(u.on(sub, sub).cut == (True, True) for _ in range(20))
        counts.append(len(compared))
    assert counts == [2, 0]
    assert not TimeScale(pieces[1:])._cut_from(axis)


def test_an_iterated_integral_reads_one_place_per_gap_not_per_cell():
    # Every row of the inner walk reads the same place of each inner gap,
    # and each outer gap has one place: no place is built per cell.
    rng = random.Random(11)
    for n in (5, 12):
        ax1, ax2 = rand_discrete_scale(rng, n), rand_discrete_scale(rng, n + 1)
        seen = []

        def G(p1, p2):
            seen.append((p1, p2))  # kept alive, so that no two share an id
            return p1[3] * p2[3]

        _iterated(ax1, ax2, ax1.min, ax1.max, ax2.min, ax2.max, G, QUAD_TOL)
        assert len(seen) == (n - 1) * n
        assert len({id(p1) for p1, _ in seen}) == n - 1
        assert len({id(p2) for _, p2 in seen}) == n


def _table_problem():
    rng = random.Random(8)
    p1 = rand_discrete_scale(rng, 8).points()
    p2 = rand_discrete_scale(rng, 8).points()
    lagrangian = Poly.parse("y1^2 + y2^2 + t1*y0", ("t1", "t2", "y0", "y1", "y2"))
    dp = DoubleProblem(ProductScale(TimeScale.discrete(p1), TimeScale.discrete(p2)),
                       p1[0], p1[-1], p2[0], p2[-1], lagrangian)
    u = SurfaceFn.from_table(dp.ax1, dp.ax2, [[Fraction(i * j, 7) for j in range(8)]
                                              for i in range(8)])
    eta = SurfaceFn.from_table(dp.ax1, dp.ax2, [
        [Fraction(i - j, 3) if 0 < i < 7 and 0 < j < 7 else 0 for j in range(8)]
        for i in range(8)])
    return dp, u, eta


def test_first_variation_on_a_table_makes_no_hash(fraction_ops):
    dp, u, eta = _table_problem()
    fraction_ops.clear()
    first_variation(dp, u, eta)
    assert fraction_ops["hash"] == 0
    # Once the axes hold their gaps, each of the 7 x 7 cells takes four jump
    # quotients, two per trajectory, over the gap it was handed, and sums
    # three products: all of it in integers.
    fraction_ops.clear()
    first_variation(dp, u, eta)
    assert fraction_ops == {}


def test_the_chain_and_the_kernel_map_on_a_table_divide_nothing(fraction_ops):
    dp, u, eta = _table_problem()
    derivation_chain_check(dp, u, eta)
    fraction_ops.clear()
    derivation_chain_check(dp, u, eta)
    assert fraction_ops["hash"] == fraction_ops["div"] == 0
    # Left: L0 - d1 - d2 in each of the 6 x 6 core kernel terms, written so
    # that float grids keep their rounding, and 13 in brackets and residuals.
    assert fraction_ops["sub"] == 6 * 6 * 2 + 13
    # The kernel map looks each sampled jump up with its gap; the 6 x 6
    # points below the last row and column each subtract twice, as above.
    fraction_ops.clear()
    double_el_residual(dp, u)
    assert fraction_ops["div"] == 0 and fraction_ops["sub"] == 6 * 6 * 2


@pytest.fixture
def reads(monkeypatch):
    """Counts of surface reads (``SurfaceFn.val``) and of exact Poly calls
    (``Poly._exact_call``) made from now on."""
    counts = Counter()
    for owner, name in ((SurfaceFn, "val"), (Poly, "_exact_call")):
        original = getattr(owner, name)

        def counted(*args, _original=original, _key=name, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize("call, val, exact_call", [
    # 7 x 7 cells read u(sigma1, sigma2), u(t1, sigma2) and u(sigma1, t2) of
    # u and of eta, after 4 x 8 boundary probes; L's three partials come
    # from one joint call per cell.
    (lambda dp, u, eta: first_variation(dp, u, eta), 7 * 7 * 3 * 2 + 32, 0),
    # The chain probes the boundary once, reads u and eta on the grid once,
    # and runs the first variation, with no second probe, as its cross-check.
    (lambda dp, u, eta: derivation_chain_check(dp, u, eta), 32 + 2 * 64 + 7 * 7 * 3 * 2, 0),
    # 36 kernel points read 3 values at (t1, t2) and 3 at each look-ahead
    # point, the 13 gaps fewer.  The look-ahead partials at sigma stay single
    # calls: 2 per kernel point, and 1 at each of the 6 gaps whose axis-1
    # look-ahead is defined.
    (lambda dp, u, eta: double_el_residual(dp, u), 400, 36 * 2 + 6),
])
def test_each_surface_value_and_partial_tuple_is_read_once(reads, call, val, exact_call):
    dp, u, eta = _table_problem()
    call(dp, u, eta)
    reads.clear()
    call(dp, u, eta)
    assert (reads["val"], reads["_exact_call"]) == (val, exact_call)


# -- the identity path answers what the value path answers ------------------


@st.composite
def tables(draw):
    """A discrete rational scale of 2 to 12 points, and values on a random
    part of it (None where a point is left untabulated)."""
    den = draw(st.integers(1, 4))
    nums = draw(st.lists(st.integers(-40, 40), min_size=2, max_size=12, unique=True))
    points = sorted(Fraction(k, den) for k in nums)
    value = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    values = [draw(st.none() | value) for _ in points]
    return points, values, draw(st.lists(value, min_size=len(points), max_size=len(points)))


def _answer(fn, probe):
    try:
        value = fn(probe)
    except DomainError as exc:
        return "refused", str(exc)
    return type(value), value


@settings(max_examples=80, deadline=None)
@given(drawn=tables(), cut=st.data())
def test_every_probe_of_a_point_reads_one_slot(drawn, cut):
    points, values, _ = drawn
    scale = TimeScale.discrete(points)
    fn = ScaleFn.from_table(scale, {t: v for t, v in zip(points, values) if v is not None})
    twin = TimeScale.discrete(map(_fresh, points))
    i = cut.draw(st.integers(0, len(points) - 1))
    j = cut.draw(st.integers(i, len(points) - 1))
    sub = scale.restrict(points[i], points[j])
    short = scale.truncate_k()
    for k, own in enumerate(scale.points()):
        probes = [own, _fresh(own), str(own), twin.points()[k]]
        if own.denominator == 1:
            probes.append(int(own))
        if i <= k <= j:
            probes.append(sub.points()[k - i])
        if k < len(short.pieces):
            probes.append(short.points()[k])
        want = (("refused", f"{own} is not tabulated") if values[k] is None
                else (Fraction, values[k]))
        assert [_answer(fn, p) for p in probes] == [want] * len(probes)
    # A pickled copy maps the ids of its own objects, not those of the original.
    clone = pickle.loads(pickle.dumps(scale))
    assert clone == scale and set(clone._ids) == {id(t) for t in clone.points()}
    off = points[-1] + Fraction(1, 7)
    assert _answer(fn, off) == ("refused", f"{off} is not a point of the scale")


@settings(max_examples=60, deadline=None)
@given(drawn=tables())
def test_walks_from_own_points_equal_walks_from_copies(drawn):
    points, _, full = drawn
    scale = TimeScale.discrete(points)
    f = ScaleFn.from_table(scale, dict(zip(points, full)))
    g = ScaleFn.from_table(scale, dict(zip(points, reversed(full))))
    a, b = scale.min, scale.max
    for walk in (lambda s, a, b: delta_integral(s, f, a, b),
                 lambda s, a, b: nabla_integral_discrete(s, f, a, b),
                 lambda s, a, b: ibp_residual(s, f, g, a, b, 1),
                 lambda s, a, b: ibp_residual(s, f, g, a, b, 2)):
        own = walk(scale, a, b)
        # Copies at the ends; on the twin scale every point f reads is a copy.
        twin = TimeScale.discrete(map(_fresh, points))
        assert walk(scale, _fresh(a), _fresh(b)) == own == walk(twin, twin.min, twin.max)
        assert type(own) is Fraction
    axis = TimeScale.discrete(points[:3])
    surf = SurfaceFn.from_table(scale, axis, [full[:3]] * len(points))
    ps = ProductScale(scale, axis)
    rect = (a, b, axis.min, axis.max)
    for walk in (double_integral, fubini_residual):
        assert walk(ps, surf, rect) == walk(ps, surf, tuple(map(_fresh, rect)))


# -- each point is named once -----------------------------------------------


def test_two_keys_naming_one_point_are_refused():
    s = TimeScale.discrete([0, Fraction(1, 2), 1])
    with pytest.raises(DomainError, match=r"^the table names 1/2 twice$"):
        tabulated_from_json({"scale": s.to_json(),
                             "values": {"0": 1, "1/2": 2, "0.5": 3, "1": 4}})
    floats = TimeScale.discrete([0.0, 0.5, 1.0], mode=FLOAT, eps=1e-9)
    with pytest.raises(DomainError, match=r"^the table names 0\.5 twice$"):
        ScaleFn.from_table(floats, {0.5: 1.0, 0.5 + 1e-12: 7.0})
    with pytest.raises(DomainError, match=r"^the table names \(0\.5, 0\.0\) twice$"):
        SurfaceFn.from_table(floats, floats, {(0.5, 0.0): 1.0, (0.5 + 1e-12, 0.0): 7.0})
    # One key per point still loads.
    assert tabulated_from_json({"scale": s.to_json(), "values": {"0.5": 3}})("1/2") == 3

