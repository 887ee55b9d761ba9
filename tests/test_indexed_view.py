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
    """Counts of Fraction hashes, subtractions and divisions made from now on."""
    counts = Counter()
    for name, key in (("__hash__", "hash"), ("__sub__", "sub"), ("__rsub__", "sub"),
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
    # The chain probes the boundary, reads u and eta on the grid once, and
    # runs the first variation as its cross-check.
    (lambda dp, u, eta: derivation_chain_check(dp, u, eta), 32 + 2 * 64 + 326, 0),
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

