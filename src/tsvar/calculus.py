"""Delta calculus: derivatives, integrals, and identity residuals.

Derivatives are exact difference quotients across gaps and Richardson
extrapolated limits along dense pieces.  Integrals decompose a range
into scattered points, contributing graininess-weighted values exactly,
and interval pieces.  The nabla integral is the same walk reading each
gap's datum at its far end, sigma(t), where the delta integral reads t.
On purely discrete rational scales every operation here is exact.

Data are ``AxesFn``: one class over a tuple of axes, a table or a
callable with one partial per axis, of which ``ScaleFn`` and the double
layer's ``SurfaceFn`` are the one- and two-axis constructors.  Its call is
the one reader of values and partials; ``section`` is a one-axis view
through a point.  Every public entry point binds its data once to the
axes it integrates or differentiates over (``AxesFn.on``, through
``_data`` on one axis), and wraps a bare ``Poly`` once, so its slope is
its own derivative.

On a rational scale an interval piece is integrated exactly when the
data are polynomial: the integrand is evaluated once at a symbolic
node, a ``Poly`` variable, and the piece [c, d] contributes F(d) - F(c)
of its antiderivative F.  Only ``Poly`` data ever sees the node; anything
else (a plain callable, a polynomial past the size limits, a float scale)
sends the piece to adaptive Simpson in floats, and the integral is a float.
One function, ``_dense_steps``, takes every dense step this way, for
``_integrate`` and for the grid steps of ``el_residual``.

Every point or node an entry point reads lies in a piece of its own
axes: a grid or gap point, or a float quadrature node (of adaptive
Simpson or of a Richardson limit), which lies in its dense piece by
construction.  So the bound datum marks each axis that was cut from the
data's own axis, or equals it and has a dense piece
(``TimeScale._cut_from``), and reads a coordinate on such an axis with no
scale lookup: a float node as ``require`` would, the float itself on a
float scale and ``Fraction(x)`` on a rational one, and an exact point as
it is.  On a rational scale a node that float rounding put just off the
scale beside a piece end, such as ``float(1/3)`` at the low end of
[1/3, 2/3], is read as that end.  On any other axis a coordinate is looked
up, and refused off the data's scale.  A ``section`` is not bound: it
reads its parent as the parent is bound.  An integral locates its two
ends once, a in piece i and b in piece j.  On every scale the gaps of
the range are one slice of the scale's gaps, those after pieces i through
j - 1, each named by the index of the piece it follows.  The range's
dense parts are found by bisecting the indices of the scale's interval
pieces (``TimeScale._dense``), and each dense piece's index is handed to
the integrand, so that a slope at a node (``_delta_at``) is never located
again.  The gap terms are summed in one pass (``_run_reader``): the slice
of the gaps zipped with the aligned slice of a one-axis table with a
value at every point, on its own axis or an equal one, or with the reader
or integrand mapped over the slice of points or places, with no tuple,
generator resume or index per term.  The dense steps follow.  An
iterated integral (``_iterated``) locates and decomposes the range of
each axis once per call, so that every point of the outer axis walks the
same inner parts.

Integrands built from jump compositions (for example f(sigma(t)) or a
delta derivative) are discontinuous exactly at the right endpoint of a
dense piece, where the forward jump leaps across the gap.  Quadrature
therefore never sees jump compositions: on a dense piece the delta
integral equals the classical integral of the continuous restriction,
so dense evaluation substitutes sigma(t) = t and the classical slope.

Exact sums (gap terms mu(t) f(t) or mu(t) f(sigma(t)), the means and
double sums of the other layers, and the short sums of products that make
up an integrand) go through ``_exact_sum``.  While every weight and value is an
int or a Fraction it adds the products in integers over one running
common denominator, the lcm of the term denominators, and normalizes
once, building a single Fraction at the end; each term costs a
multiply-add instead of a Fraction product and sum, each reduced by gcd.
At the first other term (a float, or a ``Poly`` at a symbolic node) the
exact partial sum is handed to the plain left-to-right loop, so float
results keep the rounding of the written grouping.  Exact jump quotients
(f(sigma) - f(t)) / mu go through ``_quotient`` the same way: on int and
Fraction values over a Fraction gap they are formed in integers and
normalized once, and any other operands get the written expression.  A
factor times a jump quotient, such as the gap term f(sigma) g^Delta of a
by-parts integral, is the same one Fraction, and the gaps mu of a rational
scale are themselves built from integers once (``TimeScale._gaps``).  Each
such exact value is built once from its integer numerator and denominator
by ``polyfn._fraction``: one gcd, and none of ``Fraction.__new__``'s type
dispatch.  The exact operands are read the same way back, from the slots
``_numerator`` and ``_denominator`` that ``_fraction`` writes, under a test
of their exact type: an int is its own numerator over 1, and a bool or a
subclass of Fraction gets the written expression.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable
from fractions import Fraction
from itertools import repeat, starmap
from math import gcd, isfinite
from operator import is_not, itemgetter

from .errors import DomainError, PreconditionError, UnsupportedScaleError
from .polyfn import Poly, PolySizeError, _fraction
from .quadrature import LIMIT_TOL, QUAD_TOL, adaptive_simpson, richardson_limit
from .scales import (
    RATIONAL,
    Num,
    TimeScale,
    _Record,
    _ZEROS,
    _magnitude,
    as_scalar,
    fmt_scalar,
    json_object,
    scalar_from_json,
    zero_of,
)

# How a delta derivative was obtained: the jump quotient at a
# right-scattered point, or at a right-dense point the analytic
# derivative of the data or a Richardson limit.
EXACT_QUOTIENT = "exact-quotient"
ANALYTIC = "analytic"
NUMERIC_LIMIT = "numeric-limit"


# Symbolic nodes of exact dense integrals: x1 for a one-variable integral
# or the outer axis of an iterated one, x2 for the inner axis.
_NODE_VARS = ("x1", "x2")
_X1 = Poly.var(_NODE_VARS, "x1")
_X2 = Poly.var(_NODE_VARS, "x2")


class _NotPolynomial(Exception):
    """A symbolic node met data that is not a ``Poly``; the integral
    falls back to Simpson."""


def _exact(func):
    """``func`` when a symbolic node may reach it, that is a ``Poly``."""
    if not isinstance(func, Poly):
        raise _NotPolynomial
    return func


def _node_var(node) -> int:
    """Index of the variable a symbolic node stands for."""
    return next(iter(node.terms)).index(1)


class DerivResult(_Record):
    """A delta derivative value plus how it was obtained."""

    _shown = _compared = ("value", "method", "est_error")

    def __init__(self, value: Num, method: str, est_error: Num):
        vars(self).update(value=value, method=method, est_error=est_error)


def _point_text(points) -> str:
    """``points``, one per axis, as an error message names them."""
    text = ", ".join(map(fmt_scalar, points))
    return text if len(points) == 1 else f"({text})"


def _index(axis: TimeScale, t) -> int:
    if type(t) is Poly:
        raise _NotPolynomial  # a symbolic node meets a table
    return axis._find(t)[0]


class AxesFn:
    """Real-valued data on the product of the time scales ``axes``: a table,
    nested lists over the axes' point indices (None where a point has no
    value), or a callable with one classical partial per axis in
    ``partials`` (None where it has none), which a ``Poly`` supplies itself.
    ``ScaleFn`` and ``SurfaceFn`` are its one- and two-axis constructors.
    ``cut`` marks, per axis, whether the datum was bound (``on``) to a scale
    cut from that axis.  ``full`` tells whether the datum is a one-axis
    table with a value at every point, decided once, at construction."""

    __slots__ = ("axes", "func", "partials", "table", "cut", "full")

    def __init__(self, axes, func, partials, table, cut=None):
        if None in partials and isinstance(func, Poly) and len(func.variables) == len(axes):
            partials = tuple(func.diff(x) if d is None else d
                             for x, d in zip(func.variables, partials))
        self.axes, self.func, self.partials, self.table = axes, func, partials, table
        self.cut = (False,) * len(axes) if cut is None else cut
        # An identity test per value: ``None in table`` would call each
        # Fraction's ``__eq__``.
        self.full = (table is not None and len(axes) == 1
                     and all(map(is_not, table, repeat(None))))

    def __call__(self, t, *more, d=None):
        """The one reader: the value at ``(t, *more)``, one coordinate per
        axis, or with ``d`` the partial along axis ``d``, which takes its
        coordinates as they are.  A table finds each point's index, an axis's
        own points by identity.  A callable gets each coordinate located,
        unless ``cut`` marks its axis: a float quadrature node is then read as
        ``TimeScale._node`` reads it, and anything else as it is.  A symbolic
        node (a ``Poly`` coordinate) reaches ``Poly`` data only."""
        # Written out for one axis and a second: a loop over the axes would
        # double the cost of a read.
        table = self.table
        if table is not None:
            axis = self.axes[0]
            i = axis._ids.get(id(t))
            value = table[_index(axis, t) if i is None else i]
            if more:
                axis, (u,) = self.axes[1], more
                i = axis._ids.get(id(u))
                value = value[_index(axis, u) if i is None else i]
            if value is None:
                points = [axis.require(x) for axis, x in zip(self.axes, (t, *more))]
                raise DomainError(f"{_point_text(points)} is not tabulated")
            return value
        fn = self.func if d is None else self.partials[d]
        if type(t) is Poly or (more and type(more[0]) is Poly):
            return _exact(fn)(t, *more)
        if d is not None:
            return fn(t, *more)
        axis, cut = self.axes[0], self.cut
        if cut[0]:
            x = axis._node(t) if type(t) is float else t
        else:
            x = t if id(t) in axis._ids else axis.require(t)
        if not more:
            return fn(x)
        axis, (u,) = self.axes[1], more
        if cut[1]:
            return fn(x, axis._node(u) if type(u) is float else u)
        return fn(x, u if id(u) in axis._ids else axis.require(u))

    def on(self, *scales: TimeScale) -> "AxesFn":
        """This datum bound to ``scales``, the axes an entry point reads it
        on, one per axis: a copy of the same class whose ``cut`` marks the
        axes cut from its own (``TimeScale._cut_from``); a table is itself."""
        if self.table is not None:
            return self
        bound = object.__new__(type(self))
        AxesFn.__init__(bound, self.axes, self.func, self.partials, None,
                        tuple(map(TimeScale._cut_from, scales, self.axes)))
        return bound

    def section(self, axis: int, point: tuple) -> "AxesFn":
        """The one-axis view along ``axis`` through ``point`` (see ``_Section``)."""
        return _Section(self, axis, point)

    @classmethod
    def _tabulated(cls, axes: tuple, values, refusal: str) -> "AxesFn":
        """``cls`` on the discrete ``axes``, tabulating ``values``: a mapping
        from a point (one axis) or a point tuple, each point named by one key
        only, or rows over the first of two axes.  Two axes need a value at
        every point."""
        if not all(axis.is_discrete for axis in axes):
            raise UnsupportedScaleError(refusal)
        pts = [axis.points() for axis in axes]
        if not isinstance(values, dict):
            rows = [list(row) for row in values]
            if len(rows) != len(pts[0]):
                raise DomainError(f"expected {len(pts[0])} rows, got {len(rows)}")
            for i, row in enumerate(rows):
                if len(row) != len(pts[1]):
                    raise DomainError(f"row {i} has {len(row)} entries, expected {len(pts[1])}")
            values = {(t1, t2): v for t1, row in zip(pts[0], rows) for t2, v in zip(pts[1], row)}
        table = [[None] * len(pts[-1]) for _ in pts[0]] if len(axes) > 1 else [None] * len(pts[0])
        for key, v in values.items():
            key = key if len(axes) > 1 else (key,)
            found = [axis._find(k) for axis, k in zip(axes, key, strict=True)]
            row = table[found[0][0]] if len(axes) > 1 else table
            i = found[-1][0]
            if row[i] is not None:
                raise DomainError(f"the table names {_point_text([t for _, t in found])} twice")
            row[i] = as_scalar(v, axes[0].mode)
        if len(axes) > 1:
            missing = [(t1, t2) for t1, row in zip(pts[0], table)
                       for t2, v in zip(pts[1], row) if v is None]
            if missing:
                raise DomainError(f"table misses {len(missing)} grid points, first {missing[0]}")
        return cls(*axes, table=table)

    @classmethod
    def _from_json(cls, obj) -> "AxesFn":
        """Load ``{<name>: scale, …, "values": …}``, ``cls._json`` naming the
        datum for errors and giving the scale keys: values keyed by point text
        on one axis, list rows over the first of two, in the first axis's mode."""
        what, names = cls._json
        json_object(obj, what, names + ("values",))
        axes = [TimeScale.from_json(obj[name]) for name in names]
        raw, mode = obj["values"], axes[0].mode
        if len(axes) == 1 and not isinstance(raw, dict):
            raise DomainError("'values' must be an object keyed by scale points")
        if len(axes) > 1 and not (isinstance(raw, list)
                                  and all(isinstance(row, list) for row in raw)):
            raise DomainError("'values' must be a list of rows, each a list")
        # from_table reads each key as a point of the scale.
        values = ({k: scalar_from_json(v, mode) for k, v in raw.items()} if len(axes) == 1
                  else [[scalar_from_json(v, mode) for v in row] for row in raw])
        return cls.from_table(*axes, values)


class _Section(AxesFn):
    """``parent`` along its axis ``axis`` through ``point``: a one-axis view
    that reads the parent in place, as the parent is bound, its values and
    its partial along ``axis``, and copies no row or column."""

    __slots__ = ("parent", "axis", "point")

    def __init__(self, parent, axis, point):
        self.parent, self.axis, self.point = parent, axis, point
        self.axes, self.partials = (parent.axes[axis],), (parent.partials[axis],)

    def __call__(self, s, d=None):
        k, point = self.axis, self.point
        return self.parent(*point[:k], s, *point[k + 1:], d=None if d is None else k)

    def on(self, *scales: TimeScale) -> "AxesFn":
        return self  # the view reads its parent, bound or not, as it is


class ScaleFn(AxesFn):
    """Real-valued function on (a sub-domain of) a time scale: an ``AxesFn``
    on the one axis ``scale``, a callable with an optional classical
    derivative, or a table on a purely discrete scale."""

    __slots__ = ()
    _json = ("tabulated function", ("scale",))

    def __init__(self, scale, func=None, deriv=None, table=None):
        super().__init__((scale,), func, (deriv,), table)

    scale = property(lambda self: self.axes[0])

    @classmethod
    def from_callable(cls, scale: TimeScale, func: Callable,
                      deriv: Callable | None = None) -> "ScaleFn":
        """Wrap ``func``; a one-variable ``Poly`` supplies its own
        derivative unless ``deriv`` is given."""
        return cls(scale, func, deriv)

    @classmethod
    def from_table(cls, scale: TimeScale, values) -> "ScaleFn":
        """Tabulate ``values`` (a mapping point -> value) on a discrete scale.
        Each point may be named by one key only."""
        return cls._tabulated((scale,), values,
                              "tabulated functions require a purely discrete scale")


def tabulated_from_json(obj) -> ScaleFn:
    """Load {"scale": …, "values": {"t": v, …}} into a tabulated function;
    keys name scale points, values follow the scale's numeric mode."""
    return ScaleFn._from_json(obj)


def _data(scale: TimeScale, fn) -> tuple:
    """``fn`` as every public entry point on ``scale`` takes it, with the
    callable that reads its values at the points and nodes of ``scale``.
    Data are bound to ``scale`` (``AxesFn.on``); a bare ``Poly`` is wrapped
    once, so that its slope is its own derivative, and reads itself, as does
    any other callable.  Anything else is refused: a constant ``Poly`` called
    on a ``Poly``, say, is a bare scalar."""
    if isinstance(fn, AxesFn):
        fn = fn.on(scale)
        return fn, _reader(fn)
    if not callable(fn):
        raise PreconditionError(f"data must be callable or an AxesFn, not {type(fn).__name__}")
    return (ScaleFn(scale, fn).on(scale) if type(fn) is Poly else fn), fn


def _reader(fn):
    """The callable that reads the values of ``fn``: on a float scale, the
    callable of one-axis data bound to an axis cut from theirs, since a node
    is its own point there; else ``fn`` itself."""
    if isinstance(fn, ScaleFn) and fn.table is None and fn.cut[0] and fn.axes[0].mode != RATIONAL:
        return fn.func
    return fn


def _classical_slope(scale: TimeScale, fn, t, piece, tol: float):
    """Classical derivative of ``fn`` at ``t`` inside the ``piece`` (lo, hi)
    of ``scale``, as ``(value, error_estimate, method)``: the one slope
    channel.

    The data's own partial where it has one, unconverted on a rational
    scale and as a float otherwise.  At a symbolic node, without one, the
    derivative of ``fn``'s polynomial value.  Otherwise a float Richardson
    limit inside the piece, where ``fn`` must be evaluable throughout.
    """
    if isinstance(fn, AxesFn) and fn.partials[0] is not None:
        if type(t) is float and scale.mode == RATIONAL:
            # A node that float rounding put off the scale is read as the
            # piece end it rounds from.
            t = scale._rounded_ends.get(t, t)
        slope = fn(t, d=0)
        return (slope if scale.mode == RATIONAL else float(slope)), 0.0, ANALYTIC
    if type(t) is Poly:
        value = fn(t)
        if isinstance(value, Poly):
            return value.diff(_NODE_VARS[_node_var(t)]), 0.0, ANALYTIC
        if isinstance(value, (int, Fraction)):
            return 0, 0.0, ANALYTIC
        raise _NotPolynomial
    lo, hi = piece
    x = float(t)
    flo, fhi = float(lo), float(hi)
    room_l = x - flo
    room_r = fhi - x
    width = fhi - flo
    read = _reader(fn)

    def value(s):
        return float(read(s))

    # Near (or at) a piece end, a one-sided quotient into the wider side.
    if min(room_l, room_r) < width / 64.0:
        if room_l >= room_r:
            sample = lambda h: (value(x) - value(x - h)) / h
            h0 = room_l / 2.0
        else:
            sample = lambda h: (value(x + h) - value(x)) / h
            h0 = room_r / 2.0
        order = 1
    else:
        sample = lambda h: (value(x + h) - value(x - h)) / (2.0 * h)
        h0 = min(room_l, room_r) / 2.0
        order = 2
    slope, est = richardson_limit(sample, h0, order=order, tol=tol)
    return slope, est, NUMERIC_LIMIT


def _quotient(hi, lo, gap, c=None) -> Num:
    """``(hi - lo) / gap``, or with a factor ``c``, ``c * ((hi - lo) / gap)``.

    When ``hi``, ``lo`` and ``c`` are ints or Fractions and ``gap`` is a
    Fraction, the difference, the quotient and the product are formed in
    integers, each Fraction's read from its two slots as ``_fraction`` writes
    them, and one Fraction is built, reduced once; any other operands (a
    float, a ``Poly`` at a symbolic node, an int gap, a bool or a subclass of
    Fraction) get the written expression."""
    th, tl, tc = type(hi), type(lo), type(c)
    if (type(gap) is Fraction and (th is Fraction or th is int) and (tl is Fraction or tl is int)
            and (c is None or tc is Fraction or tc is int)):
        if th is int:
            hn, hd = hi, 1
        else:
            hn, hd = hi._numerator, hi._denominator
        if tl is int:
            ln, ld = lo, 1
        else:
            ln, ld = lo._numerator, lo._denominator
        num, den = (hn * ld - ln * hd) * gap._denominator, hd * ld * gap._numerator
        if tc is int:
            num *= c
        elif c is not None:
            num, den = c._numerator * num, c._denominator * den
        return _fraction(num, den)
    if c is None:
        return (hi - lo) / gap
    return c * ((hi - lo) / gap)


def _delta_at(scale: TimeScale, fn, at, jump=None, tol: float = LIMIT_TOL):
    """Delta derivative of ``fn`` at the located ``at`` = ``(i, t)``, a point
    or node of piece i of ``scale``, as ``(value, error_estimate, method)``.

    Every delta derivative in the package goes through here.  ``jump`` is
    sigma(t) when the caller knows it, else it is looked up: at a node of a
    dense piece it is t itself, and ``fn`` is read as its continuous
    restriction.  A right-scattered t gives the exact jump quotient
    (``_quotient``); a right-dense one the classical slope
    (``_classical_slope``); an isolated t that is its own jump is refused,
    given or not.  ``method`` names the branch taken: ``EXACT_QUOTIENT``,
    ``ANALYTIC`` or ``NUMERIC_LIMIT``.
    """
    i, t = at
    if jump is None:
        jump = scale._sigma_at(i, t)
    if jump is not t:
        return _quotient(fn(jump), fn(t), jump - t), _ZEROS[scale.mode], EXACT_QUOTIENT
    piece = scale.pieces[i]
    if piece[0] == piece[1]:
        if t == scale.max and scale._rho_at(i, t) < t:
            raise DomainError(
                f"delta derivative undefined at the left-scattered maximum {fmt_scalar(t)}"
            )
        raise DomainError(f"no dense neighborhood at {fmt_scalar(t)} for a classical slope")
    return _classical_slope(scale, fn, t, piece, tol)


def delta_deriv(scale: TimeScale, fn, t, tol: float = LIMIT_TOL) -> DerivResult:
    """Delta derivative of ``fn`` at ``t``.

    Exact quotient at right-scattered points.  At right-dense points the
    analytic derivative a ``ScaleFn`` or a one-variable ``Poly`` carries,
    else a Richardson extrapolated limit of difference quotients along the
    scale.  Undefined at a left-scattered maximum.
    """
    value, est, method = _delta_at(scale, _data(scale, fn)[0], scale._find(t), None, tol)
    return DerivResult(value, method, est)


def _decompose(scale: TimeScale, start, end):
    """Split [a, b] into ``(i, j, dense)``: the gaps after pieces i through
    j - 1, and the list ``dense`` of its dense parts ``(k, c, d)``, in order.

    Each piece k < j ends below b, at a right-scattered point, so the gaps
    of the range are one slice: the gap after piece k has the piece's high,
    ``scale._highs[k]``, as its t in [a, b), the next piece's low,
    ``scale._lows[k + 1]``, as its forward jump sigma(t), and
    ``scale._gaps[k]`` as its graininess mu(t); it contributes mu(t) f(t)
    exactly.  A dense part is an interval piece k from i through j
    (``scale._dense``, bisected) clipped to [c, d], where c < d.  ``start``
    and ``end`` are ``(i, a)`` and ``(j, b)`` as ``TimeScale._find`` located
    them; every other bound is read off the scale's indexed view."""
    (i, a), (j, b) = start, end
    lows, highs, intervals = scale._lows, scale._highs, scale._dense
    dense = []
    for k in intervals[bisect_left(intervals, i):bisect_right(intervals, j)]:
        c = max(lows[k], a) if k == i else lows[k]
        d = min(highs[k], b) if k == j else highs[k]
        if c < d:
            dense.append((k, c, d))
    return i, j, dense


def _by_index(scale: TimeScale, fn):
    """The table of ``fn`` when it is read by piece index on ``scale``: a
    one-axis table with a value at every point (``AxesFn.full``) on
    ``scale`` or on an axis equal to it (``TimeScale._same_as``), whose
    point k is then the piece k of ``scale``.  Else None."""
    if type(fn) is ScaleFn and fn.full and scale._same_as(fn.axes[0]):
        return fn.table
    return None


def _run_reader(scale: TimeScale, table, read, entry: int):
    """The reader of a datum at entry 1, t, or entry 2, sigma(t), of the
    gaps after pieces i through j - 1 of ``scale``, called with i and j:
    the data there, in order, as one iterable.  With the ``table`` of
    ``_by_index`` it is that list's aligned slice, shifted by one for
    sigma(t), and no Python frame runs per read; else it is ``read`` mapped
    over the slice of points."""
    shift = entry - 1
    if table is not None:
        return lambda i, j: table[i + shift:j + shift]
    ends = scale._highs if entry == 1 else scale._lows
    return lambda i, j: map(read, ends[i + shift:j + shift])


def _ratio_sum(num: int, den: int, terms) -> tuple:
    """``num / den`` plus the sum of ``w * v`` over the pairs ``(w, v)`` of
    ``terms``, in integers, each Fraction's read from its two slots as
    ``_fraction`` writes them: the products are added over a running
    denominator kept as the lcm of ``den`` and the term denominators, and
    nothing is normalized.  Returns ``(num, den, None)`` once every pair is
    added, or ``(num, den, (w, v))`` at the first pair that is not two ints
    or Fractions by exact type (a bool or a subclass of Fraction is not);
    that pair is not added, and the rest of ``terms`` is left unread."""
    for w, v in terms:
        tw, tv = type(w), type(v)
        if tw is Fraction:
            wn, wd = w._numerator, w._denominator
        elif tw is int:
            wn, wd = w, 1
        else:
            return num, den, (w, v)
        if tv is Fraction:
            vn, vd = v._numerator, v._denominator
        elif tv is int:
            vn, vd = v, 1
        else:
            return num, den, (w, v)
        q = wd * vd
        if den % q:
            m = q // gcd(den, q)
            num *= m
            den *= m
        num += wn * vn * (den // q)
    return num, den, None


def _exact_sum(zero, terms) -> Num:
    """``zero`` plus the sum of ``w * v`` over the pairs ``(w, v)`` of ``terms``.

    While ``zero`` and every w and v are ints or Fractions, the products
    are added in integers (``_ratio_sum``) and one Fraction is built at the
    end, so the result is a Fraction even when every term is an int.  At
    the first other term the exact partial sum is handed to
    ``total = total + w * v`` and the rest is added left to right, as
    written."""
    total = zero
    terms = iter(terms)
    if type(zero) is int or type(zero) is Fraction:
        num, den = (zero, 1) if type(zero) is int else (zero._numerator, zero._denominator)
        num, den, rest = _ratio_sum(num, den, terms)
        if rest is None:
            return _fraction(num, den)
        w, v = rest
        total = _fraction(num, den) + w * v
    for w, v in terms:
        total = total + w * v
    return total


def _symbolic(*fns):
    """The symbolic node when each of ``fns`` may see it: an ``AxesFn``,
    which hands the node to ``Poly`` data only.  Otherwise None, and dense
    pieces go to Simpson."""
    return _X1 if all(isinstance(f, AxesFn) for f in fns) else None


def _dense_steps(scale: TimeScale, dense_on, i: int, node, tol: float, exact_only: bool):
    """The dense steps of one integral, built at its first dense part, in
    piece i: ``(step, exact)``, where ``step(i, c, d)`` integrates
    ``dense_on(i)`` over [c, d] inside the dense piece i.  A step is F(d) -
    F(c) of the exact antiderivative F of the integrand at the symbolic
    ``node`` on a rational scale, when that is a polynomial within the size
    limits; F at the end of the previous step is kept.  Otherwise it is
    adaptive Simpson's float, where a value no float holds raises
    ``DomainError``, or, with ``exact_only``, ``_NotPolynomial`` is raised."""
    primitive = None
    if node is not None and scale.mode == RATIONAL:
        try:
            value = dense_on(i)(node)
            if isinstance(value, Poly):
                primitive = value.integrate(_NODE_VARS[_node_var(node)])
            elif isinstance(value, (int, Fraction)):
                primitive = node * value
        except (_NotPolynomial, PolySizeError):
            pass
    if primitive is not None:
        k, last_d, last_f = _node_var(node), None, None  # the last step's d and F(d)

        def exact(i, c, d):
            nonlocal last_d, last_f
            f_c = last_f if c is last_d else primitive.subs(k, c)
            last_d, last_f = d, primitive.subs(k, d)
            return last_f - f_c
        return exact, True
    if exact_only:
        raise _NotPolynomial

    def simpson(i, c, d):
        dense = dense_on(i)
        try:
            return adaptive_simpson(lambda x: float(dense(x)), float(c), float(d), tol)[0]
        except OverflowError:
            raise DomainError(
                f"a value of the dense integrand on [{fmt_scalar(c)}, {fmt_scalar(d)}] "
                f"is past the float range"
            ) from None
    return simpson, False


def _parts(scale: TimeScale, a, b):
    """The parts of [a, b] on ``scale``, as ``_decompose`` returns them: the
    two ends located once, and a reversed range refused."""
    start, end = scale._find(a), scale._find(b)
    if start[1] > end[1]:
        raise DomainError("integration range is reversed; integrate forward and negate")
    return _decompose(scale, start, end)


def _integrate(scale: TimeScale, parts, run, dense_on, tol: float,
               node=None, exact_only: bool = False):
    """Integral driver shared by every integral in the package, over the
    ``parts`` ``(i, j, dense)`` of a range of ``scale`` (``_decompose``): as
    ``_parts`` returns them for an integral of one variable, or as
    ``_iterated`` keeps them.

    ``run(i, j)`` gives the exact integrand at the gaps after pieces i
    through j - 1, in order, and ``_exact_sum`` reads it zipped with their
    graininess, in one pass with no tuple, generator or index per term.
    ``dense_on(k)`` is the continuous restriction of the integrand on the
    dense piece k, a callable of a float quadrature node or of the symbolic
    ``node``; each dense part is then one step of ``_dense_steps``, built at
    the first.  Exact steps are added to the gap sum, and Simpson values
    apart, in floats."""
    i, j, dense = parts
    exact = _exact_sum(zero_of(scale), zip(scale._gaps[i:j], run(i, j)))
    if dense:
        step, exact_steps = _dense_steps(scale, dense_on, dense[0][0], node, tol, exact_only)
        if exact_steps:
            exact = _exact_sum(exact, zip(repeat(1), starmap(step, dense)))
        else:
            dense_total = 0.0
            for part in dense:
                dense_total += step(*part)
            try:
                exact = float(exact) + dense_total
            except OverflowError:
                raise DomainError(
                    f"the exact gap sum, {_magnitude(exact)}, is past the float range "
                    f"of the Simpson part of the integral"
                ) from None
    if type(exact) is float and not isfinite(exact):
        raise DomainError(f"the integral, {exact}, is past the float range")
    return exact


def _integral(scale: TimeScale, fn, a, b, entry: int, tol: float) -> Num:
    """The delta (``entry`` 1, t) or nabla (``entry`` 2, sigma(t)) integral of
    ``fn`` over [a, b], reading ``fn`` at that entry of each gap
    (``_run_reader``): nu of sigma(t) is mu(t), and on dense pieces both are
    the classical integral."""
    fn, read = _data(scale, fn)
    run = _run_reader(scale, _by_index(scale, fn), read, entry)
    return _integrate(scale, _parts(scale, a, b), run, lambda k: read, tol, _symbolic(fn))


def delta_integral(scale: TimeScale, fn, a, b, tol: float = QUAD_TOL) -> Num:
    """Delta integral of ``fn`` over [a, b]; exact on a rational scale
    when ``fn`` is polynomial (a ``Poly``, or a ``ScaleFn`` of one)."""
    return _integral(scale, fn, a, b, 1, tol)


def nabla_integral_discrete(scale: TimeScale, fn, a, b) -> Num:
    """Nabla integral of ``fn`` over [a, b], on any range of the scale; exact
    where ``delta_integral`` is, at its default tolerance.  The name, from when
    it took discrete ranges only, stays for existing callers."""
    return _integral(scale, fn, a, b, 2, QUAD_TOL)


def _iterated(ax1: TimeScale, ax2: TimeScale, a1, b1, a2, b2, G, tol: float):
    """Iterated delta integral over [a1, b1] x [a2, b2], second axis innermost.

    ``G(p1, p2)`` is the integrand at a place on each axis, ``(i, t, x,
    mu)``, t a point of piece i: a right-scattered t, the high of piece i,
    with its forward jump x = sigma(t) and graininess mu = x - t, or a node t
    of the dense piece i, with x = t and mu None.  A node is a float, or the
    symbolic node of that axis when both axes are rational.

    Each axis's range is located and decomposed once per call, and every
    row walks the same inner parts.  Each axis keeps the places of its gaps
    by piece index, as it keeps the gaps (``TimeScale._places``), so the gap
    terms of a range are the integrand mapped over one slice of its places,
    with the row's place repeated on an inner one.  Only a dense inner piece
    depends on the row: its antiderivative is built, or Simpson run, per
    row."""
    parts1, parts2 = _parts(ax1, a1, b1), _parts(ax2, a2, b2)
    places1, places2 = ax1._places, ax2._places

    def inner(p1):
        # At a float node of the outer Simpson the inner integral stays
        # numeric; at the outer symbolic node it is exact or refused.
        t1 = p1[1]
        return _integrate(
            ax2, parts2,
            run=lambda i, j: map(G, repeat(p1), places2[i:j]),
            dense_on=lambda k: lambda x: G(p1, (k, x, x, None)),
            tol=tol,
            node=None if isinstance(t1, float) else _X2,
            exact_only=isinstance(t1, Poly),
        )

    return _integrate(
        ax1, parts1,
        run=lambda i, j: map(inner, places1[i:j]),
        dense_on=lambda k: lambda x: inner((k, x, x, None)),
        tol=tol,
        node=_X1 if ax2.mode == RATIONAL else None,
    )


# The lhs gap term of a by-parts integral, read as (f, g(sigma), g(t), mu),
# in the argument order of ``_quotient``.
_LHS_ARGS = itemgetter(1, 2, 3, 0)


def ibp_residual(scale: TimeScale, f, g, a, b, form: int = 1, tol: float = QUAD_TOL) -> Num:
    """Integration-by-parts residual over [a, b] for one of two forms.

    Form 1: int f(sigma) g' = [fg] - int f' g.
    Form 2: int f g' = [fg] - int f' g(sigma).
    The result is |lhs - rhs|, exactly zero on discrete rational scales
    and on rational scales with polynomial ``f`` and ``g``.  ``tol``
    bounds both the quadrature and any Richardson limit.
    """
    if form not in (1, 2):
        raise ValueError("form must be 1 or 2")
    (f, f_at), (g, g_at) = _data(scale, f), _data(scale, g)
    i, a = scale._find(a)
    j, b = scale._find(b)
    f_table, g_table = _by_index(scale, f), _by_index(scale, g)

    def end(table, read, k, t):
        # A table read by index reads the point t of piece k at k.
        return read(t) if table is None else table[k]

    boundary = (end(f_table, f_at, j, b) * end(g_table, g_at, j, b)
                - end(f_table, f_at, i, a) * end(g_table, g_at, i, a))

    # Each datum is read at t and at sigma(t) of each gap.  The forms differ
    # only in which factor takes sigma at gap points: the lhs reads f, and
    # the rest g, at sigma(t) or at t.  On dense pieces sigma(t) = t and both
    # read the same.  Each gap term is one ``_quotient`` with its factor.
    # ``zip`` and ``map`` draw from their iterables in the order written, so
    # both terms read f before g at each gap.
    gaps = scale._gaps
    f_t, f_s = _run_reader(scale, f_table, f_at, 1), _run_reader(scale, f_table, f_at, 2)
    g_t, g_s = _run_reader(scale, g_table, g_at, 1), _run_reader(scale, g_table, g_at, 2)
    f_lhs, g_rest = (f_s, g_t) if form == 1 else (f_t, g_s)
    parts, node = _parts(scale, a, b), _symbolic(f, g)
    lhs = _integrate(
        scale, parts,
        run=lambda i, j: starmap(_quotient, map(_LHS_ARGS, zip(f_lhs(i, j), g_s(i, j),
                                                               g_t(i, j), gaps[i:j]))),
        dense_on=lambda k: lambda x: f_at(x) * _delta_at(scale, g, (k, x), x, tol)[0],
        tol=tol,
        node=node,
    )
    rest = _integrate(
        scale, parts,
        run=lambda i, j: map(_quotient, f_s(i, j), f_t(i, j), gaps[i:j], g_rest(i, j)),
        dense_on=lambda k: lambda x: _delta_at(scale, f, (k, x), x, tol)[0] * g_at(x),
        tol=tol,
        node=node,
    )
    return abs(lhs - (boundary - rest))


def junction_audit(scale: TimeScale, fn, a=None, b=None, tol: float = 1e-6) -> list:
    """Compare dense-side slopes with jump quotients at piece junctions.

    A junction is the right endpoint of an interval piece that is also
    right-scattered.  A continuously differentiable function would make
    both numbers agree; a mismatch is reported, not rejected, since
    rd-continuous calculus remains valid either way.  Two exact numbers
    mismatch when they differ; ``tol`` bounds the difference of floats.
    """
    fn = _data(scale, fn)[0]
    a = scale.require(a) if a is not None else scale.min
    b = scale.require(b) if b is not None else scale.max
    findings = []
    for k, (lo, hi) in enumerate(scale.pieces):
        sigma = scale._sigma_at(k, hi)
        # hi <= a: no dense side of the junction lies inside [a, b].
        if lo == hi or hi <= a or sigma is hi or sigma > b:
            continue
        slope = _classical_slope(scale, fn, hi, (max(lo, a), hi), LIMIT_TOL)[0]
        quot = _delta_at(scale, fn, (k, hi), sigma)[0]
        exact = isinstance(slope, (int, Fraction)) and isinstance(quot, (int, Fraction))
        if slope != quot if exact else abs(slope - float(quot)) > tol:
            findings.append(
                f"derivative jump at t={fmt_scalar(hi)}: dense-side slope "
                f"{fmt_scalar(slope)} vs gap quotient {fmt_scalar(quot)}"
            )
    return findings
