import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_discrete_scale
from tsvar import (FLOAT, RATIONAL, DomainError, PointClass, PreconditionError, TimeScale,
                   UnsupportedScaleError)
from tsvar.scales import (GRID_MAX_POINTS, RATIONAL_MAX_BITS, RATIONAL_MAX_EXPONENT, as_scalar,
                          check_grid_size, scalar_from_json)


class TestCanonicalization:
    def test_merges_touching_and_overlapping_pieces(self):
        s = TimeScale(((0, 2), (2, 3), (5, 7), (6, 6)))
        assert s.pieces == ((Fraction(0), Fraction(3)), (Fraction(5), Fraction(7)))

    def test_sorts_pieces(self):
        s = TimeScale((5, (0, 1), 3))
        assert s.pieces == (
            (Fraction(0), Fraction(1)),
            (Fraction(3), Fraction(3)),
            (Fraction(5), Fraction(5)),
        )

    def test_duplicate_points_collapse(self):
        s = TimeScale.discrete([1, 1, 2])
        assert s.points() == [Fraction(1), Fraction(2)]

    def test_reversed_piece_rejected(self):
        with pytest.raises(ValueError):
            TimeScale(((2, 1),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TimeScale(())

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            TimeScale(((0.0, float("inf")),), mode=FLOAT)

    def test_rational_eps_rejected(self):
        with pytest.raises(ValueError):
            TimeScale.discrete([0, 1], mode=RATIONAL, eps=1e-9)


class TestJumpOperators:
    def setup_method(self):
        self.s = TimeScale(((0, 1), (2, 2), (3, 4)))

    def test_sigma_inside_interval_is_identity(self):
        assert self.s.sigma(Fraction(1, 2)) == Fraction(1, 2)

    def test_sigma_jumps_at_piece_top(self):
        assert self.s.sigma(1) == 2
        assert self.s.sigma(2) == 3

    def test_sigma_fixes_max(self):
        assert self.s.sigma(4) == 4

    def test_rho_jumps_at_piece_bottom(self):
        assert self.s.rho(2) == 1
        assert self.s.rho(3) == 2

    def test_rho_fixes_min(self):
        assert self.s.rho(0) == 0

    def test_graininess(self):
        assert self.s.mu(1) == 1
        assert self.s.mu(Fraction(1, 2)) == 0
        assert self.s.nu(3) == 1
        assert self.s.nu(4) == 0

    def test_off_scale_rejected(self):
        with pytest.raises(DomainError):
            self.s.sigma(Fraction(3, 2))


class TestClassify:
    def test_isolated_point(self):
        s = TimeScale(((0, 1), (2, 2), (3, 4)))
        c = s.classify(2)
        assert c.isolated and c.left_scattered and c.right_scattered
        assert c.label() == "left-scattered right-scattered"

    def test_interval_interior(self):
        s = TimeScale.interval(0, 1)
        c = s.classify(Fraction(1, 2))
        assert c.left_dense and c.right_dense and not c.isolated

    def test_breaks_sigma_continuity_at_piece_top(self):
        s = TimeScale(((0.0, 1.0), (1.5, 1.5)), mode=FLOAT)
        assert s.classify(1.0).breaks_sigma_continuity
        assert not s.classify(0.5).breaks_sigma_continuity
        assert not s.classify(1.5).breaks_sigma_continuity

    def test_min_never_breaks_sigma_continuity(self):
        s = TimeScale.discrete([0, 1, 2])
        assert not s.classify(0).breaks_sigma_continuity
        assert s.classify(0).label() == "left-dense right-scattered (min)"


class TestDerivedScales:
    def test_truncate_k_drops_left_scattered_max(self):
        s = TimeScale.discrete(range(4))
        assert s.truncate_k().points() == [Fraction(k) for k in range(3)]
        assert s.truncate_k2().points() == [Fraction(k) for k in range(2)]
        # The cut is built once: el_residual truncates its world at every call.
        assert s.truncate_k() is s.truncate_k() and s.truncate_k2() is s.truncate_k2()

    def test_truncate_k_keeps_left_dense_max(self):
        s = TimeScale.interval(0, 1)
        assert s.truncate_k() is s

    def test_restrict_clips_intervals(self):
        s = TimeScale(((0, 4), (6, 6)))
        r = s.restrict(1, 3)
        assert r.pieces == ((Fraction(1), Fraction(3)),)
        with pytest.raises(DomainError):
            s.restrict(3, 1)

    def test_points_requires_discrete(self):
        with pytest.raises(UnsupportedScaleError):
            TimeScale.interval(0, 1).points()

    def test_grid_refinement(self):
        s = TimeScale(((0, 1), (2, 2)))
        g = s.grid(3)
        assert g == [0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1, 2]
        assert all(x in s for x in g)

    def test_grid_size_cap(self):
        # Two intervals and a point: grid(r) holds 2 * (r + 2) + 1 points.
        s = TimeScale(((0, 1), 2, (3, 5)))
        assert [len(s.grid(r)) for r in (0, 1, 7)] == [5, 7, 19]
        largest = (GRID_MAX_POINTS - 5) // 2
        check_grid_size(largest, s)
        with pytest.raises(PreconditionError):
            check_grid_size(largest + 1, s)
        # A product counts both axes: 200 * 500 points is exactly the cap.
        line = TimeScale.interval(0, 1)
        check_grid_size(198, line, TimeScale.discrete(range(500)))
        with pytest.raises(PreconditionError):
            check_grid_size(198, line, TimeScale.discrete(range(501)))


class TestMembership:
    def test_eps_snapping(self):
        s = TimeScale.discrete([0.0, 1.0], mode=FLOAT, eps=1e-9)
        assert s.require(1.0 + 1e-10) == 1.0
        with pytest.raises(DomainError):
            s.require(1.0 + 1e-6)

    def test_exact_float_membership_without_eps(self):
        s = TimeScale.discrete([0.0, 1.0], mode=FLOAT)
        assert 1.0 in s
        assert 1.0 + 1e-12 not in s

    def test_contains_handles_garbage(self):
        s = TimeScale.discrete([0, 1])
        assert "pear" not in s

    def test_zero_denominator_text_is_not_a_point(self):
        s = TimeScale.discrete([0, 1])
        for text in ("1/0", "0/0"):
            assert text not in s
            with pytest.raises(DomainError):
                s.require(text)

    def test_eps_snaps_to_the_nearest_piece(self):
        s = TimeScale.discrete([0.0, 1.0], mode=FLOAT, eps=0.6)
        assert s.require(0.55) == 1.0
        assert s.require(0.45) == 0.0
        assert s.require(0.5) == 0.0  # a tie goes to the lower piece

    def test_huge_point_named_in_rejection(self):
        # str() of 10**5000 exceeds the interpreter's digit limit.
        with pytest.raises(DomainError) as exc_info:
            TimeScale.discrete(range(6)).require(Fraction(10**5000))
        text = str(exc_info.value)
        assert text == "a rational near 10^5000 is not a point of the scale"

    def test_exponent_literal_bounded(self):
        assert as_scalar(f"1e{RATIONAL_MAX_EXPONENT}", RATIONAL) == 10**RATIONAL_MAX_EXPONENT
        for text in (f"1e{RATIONAL_MAX_EXPONENT + 1}", f"-2.5E-{RATIONAL_MAX_EXPONENT + 1}",
                     "1e1_000_000", "1e" + "9" * 5000):
            with pytest.raises(DomainError, match="exponent"):
                as_scalar(text, RATIONAL)
        with pytest.raises(DomainError, match="exponent"):
            scalar_from_json("1e10000000", RATIONAL)

    def test_parsed_rational_size_bounded(self):
        top = 2**RATIONAL_MAX_BITS - 1
        assert as_scalar(top, RATIONAL) == top
        assert as_scalar(f"1/{top}", RATIONAL) == Fraction(1, top)
        for x in (top + 1, f"-1/{top + 1}", "1" * 4000 + "e1000"):
            with pytest.raises(DomainError, match=f"above {RATIONAL_MAX_BITS} bits"):
                as_scalar(x, RATIONAL)
        # A Fraction is taken as it is.
        assert as_scalar(Fraction(top + 1), RATIONAL) == top + 1


class TestSerialization:
    def test_round_trip_rational(self):
        s = TimeScale(((Fraction(1, 3), Fraction(2)), (Fraction(7, 2), Fraction(7, 2))))
        again = TimeScale.from_json(s.to_json())
        assert again == s

    def test_round_trip_float_with_eps(self):
        s = TimeScale(((0.0, 1.0),), mode=FLOAT, eps=1e-9)
        again = TimeScale.loads(json.dumps(s.to_json()))
        assert again.pieces == s.pieces and again.eps == s.eps

    def test_rational_mode_rejects_json_floats(self):
        with pytest.raises(DomainError):
            TimeScale.from_json({"mode": "rational", "pieces": [{"point": 0.5}]})

    def test_nan_literal_rejected(self):
        with pytest.raises(DomainError):
            TimeScale.loads('{"mode": "float", "pieces": [{"point": NaN}]}')

    def test_bad_schema_rejected(self):
        for obj in (
            [],
            {"mode": "rational"},
            {"mode": "decimal", "pieces": [{"point": 0}]},
            {"mode": "rational", "pieces": [{"pt": 0}]},
            {"mode": "rational", "pieces": [{"interval": ["2", "1"]}]},
        ):
            with pytest.raises(DomainError):
                TimeScale.from_json(obj)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), npts=st.integers(2, 9))
def test_jump_operator_properties(seed, npts):
    rng = random.Random(seed)
    s = rand_discrete_scale(rng, npts)
    for t in s.points():
        assert s.sigma(t) >= t
        assert s.rho(t) <= t
        assert s.mu(t) >= 0 and s.nu(t) >= 0
        if s.sigma(t) > t:
            assert s.rho(s.sigma(t)) == t
        if s.rho(t) < t:
            assert s.sigma(s.rho(t)) == t


# -- the lookup index against a linear scan --------------------------------


def _scan_locate(pieces, eps, t):
    """Reference membership: first piece holding t, else the nearest piece
    within eps (the lower one on a tie), with t snapped onto it."""
    for j, (lo, hi) in enumerate(pieces):
        if lo <= t <= hi:
            return j, t
    if eps:
        near = [(max(lo - t, t - hi), j, min(max(t, lo), hi))
                for j, (lo, hi) in enumerate(pieces) if lo - eps <= t <= hi + eps]
        if near:
            return min(near)[1:]
    return None


def _scan_sigma(pieces, t):
    """inf of the points above t, or t when there are none."""
    above = [max(lo, t) for lo, hi in pieces if hi > t]
    return min(above) if above else t


def _scan_rho(pieces, t):
    """sup of the points below t, or t when there are none."""
    below = [min(hi, t) for lo, hi in pieces if lo < t]
    return max(below) if below else t


def _check_against_scan(s, queries):
    pieces = s.pieces
    kind = Fraction if s.mode == RATIONAL else float
    for q in queries:
        assert s._locate(q) == _scan_locate(pieces, s.eps, q)
        hit = _scan_locate(pieces, s.eps, kind(q))
        assert (q in s) == (hit is not None)
        if hit is None:
            for op in (s.require, s.sigma, s.rho, s.mu, s.nu, s.classify):
                with pytest.raises(DomainError):
                    op(q)
            continue
        t = hit[1]
        sig, rho = _scan_sigma(pieces, t), _scan_rho(pieces, t)
        got = s.require(q)
        assert got == t and type(got) is kind
        assert s.sigma(q) == sig and s.rho(q) == rho
        assert s.mu(q) == sig - t and s.nu(q) == t - rho
        assert s.classify(q) == PointClass(
            left_dense=rho == t,
            right_dense=sig == t,
            is_min=t == pieces[0][0],
            is_max=t == pieces[-1][1],
        )


def _near_pieces(pieces, deltas):
    """Both ends and the middle of each piece, and points just outside."""
    out = []
    for lo, hi in pieces:
        out += [lo, hi, (lo + hi) / 2]
        for d in deltas:
            out += [lo - d, hi + d]
    return out


_raw_pieces = st.lists(
    st.one_of(st.integers(-30, 30), st.tuples(st.integers(-30, 30), st.integers(0, 8))),
    min_size=1,
    max_size=12,
)


def _build_pieces(raw, scalar):
    return tuple(
        (scalar(p[0]), scalar(p[0] + p[1])) if isinstance(p, tuple) else scalar(p)
        for p in raw
    )


@settings(max_examples=80, deadline=None)
@given(raw=_raw_pieces, den=st.integers(1, 4), extra=st.lists(st.integers(-130, 130)))
def test_rational_index_matches_linear_scan(raw, den, extra):
    s = TimeScale(_build_pieces(raw, lambda k: Fraction(k, den)))
    near = _near_pieces(s.pieces, (Fraction(1, 10**6), Fraction(1, 2 * den)))
    queries = near + [Fraction(k, 4) for k in extra]
    # Float queries, as the dense quadrature nodes reach _locate.
    queries += [float(q) for q in queries]
    _check_against_scan(s, queries)


@settings(max_examples=80, deadline=None)
@given(raw=_raw_pieces, den=st.sampled_from((1, 3, 4)),
       eps=st.sampled_from((0.0, 1e-9, 0.3, 0.6)), extra=st.lists(st.integers(-130, 130)))
def test_float_index_matches_linear_scan(raw, den, eps, extra):
    s = TimeScale(_build_pieces(raw, lambda k: k / den), mode=FLOAT, eps=eps)
    near = _near_pieces(s.pieces, (1e-12, 1e-6, 0.5))
    _check_against_scan(s, near + [k / 4 for k in extra])


@settings(max_examples=80, deadline=None)
@given(raw=_raw_pieces, num=st.integers(-5, 5), den=st.sampled_from((3, 7, 10)),
       extra=st.lists(st.integers(-200, 200)))
def test_rational_lookups_settle_lows_that_round_to_one_float(raw, num, den, extra):
    # Lows 1e-30 apart round to one float (unless num is 0), so float
    # queries and their exact neighbours land on runs of such lows.
    base, tiny = Fraction(num, den), Fraction(1, 10**30)
    s = TimeScale(_build_pieces(raw, lambda k: base + k * tiny) + ((base + 40 * tiny, base + 1),))
    near = _near_pieces(s.pieces, (tiny, tiny / 2))
    queries = near + [float(q) for q in near] + [base + k * tiny / 4 for k in extra]
    _check_against_scan(s, queries + [10**400, -(10**400), Fraction(10**400, 3)])


def test_a_low_past_float_range_is_looked_up():
    # A low beyond float range: every lookup bisects the exact lows.
    s = TimeScale(((0, 1), 10**400))
    assert s.sigma(1) == 10**400 and s.require(10**400) == 10**400
    assert Fraction(1, 2) in s and 10**401 not in s


# -- sub-scales sliced from the piece tuple --------------------------------


def _clipped(s, a, b):
    """The pieces of s clipped to [a, b], before any index is built."""
    out = []
    for lo, hi in s.pieces:
        c, d = max(lo, a), min(hi, b)
        if c <= d:
            out.append((c, d))
    return tuple(out)


def _fresh(x):
    """An object equal to the scalar ``x`` but not ``x`` itself."""
    return Fraction(x.numerator, x.denominator) if isinstance(x, Fraction) else float(repr(x))


def _assert_same_scale(got, want):
    """Field by field, and the lookup index by what it answers: the piece
    index of each endpoint, probed by identity and by an equal copy."""
    assert got.pieces == want.pieces
    assert [tuple(map(type, p)) for p in got.pieces] == [tuple(map(type, p)) for p in want.pieces]
    assert got._lows == want._lows
    assert got._gaps == want._gaps
    for k, (piece, own) in enumerate(zip(want.pieces, got.pieces)):
        for x in piece + own:
            assert got._locate(x)[0] == want._locate(x)[0] == k
            assert got._locate(_fresh(x))[0] == want._locate(_fresh(x))[0] == k
    assert got.is_discrete == want.is_discrete
    assert (got.mode, got.eps) == (want.mode, want.eps)
    assert got == want


def _check_slices(s, queries):
    public = lambda pieces: TimeScale(pieces, s.mode, s.eps)
    # Read now, the gaps are sliced into every sub-scale made below.
    assert len(s._gaps) == len(s.pieces) - 1
    pts = sorted({s.require(q) for q in queries if q in s})
    for i, a in enumerate(pts):
        for b in pts[i:]:
            r = s.restrict(a, b)
            if (a, b) == (s.min, s.max):
                assert r is s
            _assert_same_scale(r, public(_clipped(s, a, b)))
    for got in (s.truncate_k(), s.truncate_k2()):
        # Truncation drops whole pieces from the top.
        want = public(s.pieces[:len(got.pieces)])
        _assert_same_scale(got, want)
    m = s.max
    assert (s.truncate_k() is s) == (s.rho(m) == m)


@settings(max_examples=60, deadline=None)
@given(raw=_raw_pieces, den=st.integers(1, 4))
def test_rational_slices_match_public_constructor(raw, den):
    s = TimeScale(_build_pieces(raw, lambda k: Fraction(k, den)))
    _check_slices(s, _near_pieces(s.pieces, (Fraction(1, 2 * den),)))


@settings(max_examples=60, deadline=None)
@given(raw=_raw_pieces, den=st.sampled_from((1, 3, 4)), eps=st.sampled_from((0.0, 1e-9, 0.3)))
def test_float_slices_match_public_constructor(raw, den, eps):
    s = TimeScale(_build_pieces(raw, lambda k: k / den), mode=FLOAT, eps=eps)
    _check_slices(s, _near_pieces(s.pieces, (1e-12, 0.5)))


def test_slices_of_a_scale_past_float_range():
    # A point whose numerator is near RATIONAL_MAX_BITS: no float holds it.
    big = Fraction(2 ** (RATIONAL_MAX_BITS - 1) + 1, 3)
    s = TimeScale(((0, 1), Fraction(3, 2), big))
    r = s.restrict(Fraction(1, 2), big)
    assert r.pieces[-1] == (big, big)
    _assert_same_scale(r, TimeScale(_clipped(s, Fraction(1, 2), big)))
    # Truncation drops the big point.
    _assert_same_scale(s.truncate_k(), TimeScale(s.pieces[:-1]))
    _check_slices(s, [0, Fraction(1, 2), 1, Fraction(3, 2), big])


_GAP_DENOMINATORS = st.sampled_from((1, 2, 3, 7, 1_000_000_007, 2**61 - 1))


@st.composite
def _gap_scales(draw):
    """A rational scale whose ends have mixed denominators up to 2^61 - 1 and
    either sign, or a float scale on the same ends, with two of its ends."""
    ends = draw(st.lists(st.builds(Fraction, st.integers(-10**15, 10**15), _GAP_DENOMINATORS),
                         min_size=1, max_size=12, unique=True))
    ends.sort()
    isolated = draw(st.lists(st.booleans(), min_size=len(ends), max_size=len(ends)))
    pieces, k = [], 0
    while k < len(ends):
        if isolated[k] or k + 1 == len(ends):
            pieces.append(ends[k])
            k += 1
        else:
            pieces.append((ends[k], ends[k + 1]))
            k += 2
    if draw(st.booleans()):
        pieces = [tuple(map(float, p)) if isinstance(p, tuple) else float(p) for p in pieces]
        scale = TimeScale(tuple(pieces), mode=FLOAT)
    else:
        scale = TimeScale(tuple(pieces))
    points = [x for piece in scale.pieces for x in piece]
    a, b = sorted(draw(st.sampled_from(points)) for _ in range(2))
    return scale, a, b


@settings(max_examples=150, deadline=None)
@given(drawn=_gap_scales(), warm=st.booleans())
def test_gaps_equal_the_written_differences(drawn, warm):
    scale, a, b = drawn
    if warm:  # the slices below take their gaps from the parent's
        assert len(scale._gaps) == len(scale.pieces) - 1
    for s in (scale, scale.restrict(a, b), scale.truncate_k(), scale.truncate_k2()):
        pieces = s.pieces
        want = [nxt - hi for (_, hi), (nxt, _) in zip(pieces, pieces[1:])]
        assert len(s._gaps) == len(want)
        for got, w in zip(s._gaps, want):
            if s.mode == RATIONAL:
                assert type(got) is Fraction and got == w
            else:
                assert type(got) is float and got.hex() == w.hex()


@settings(max_examples=150, deadline=None)
@given(drawn=_gap_scales(), refinement=st.integers(0, 12))
def test_grid_points_are_the_written_samples(drawn, refinement):
    scale, n = drawn[0], refinement + 1
    want = []
    for lo, hi in scale.pieces:
        if lo == hi:
            want.append(lo)
            continue
        width = hi - lo
        if scale.mode == RATIONAL:
            want += [lo, *(lo + width * Fraction(k, n) for k in range(1, n)), hi]
        else:
            want += [lo, *(lo + width * k / n for k in range(1, n)), hi]
    got = scale.grid(refinement)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if scale.mode == RATIONAL:
            assert type(g) is Fraction and g == w
        else:
            assert type(g) is float and g.hex() == w.hex()
