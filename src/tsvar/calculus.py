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
sends the piece to adaptive Simpson in floats, through the ``_simpson``
wrapper that ``_integrate`` shares with the running integral of
``el_residual``, and the integral is a float.

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
ends once, walks the pieces between by index, and hands each dense
piece's index to the integrand, so that a slope at a node (``_delta_at``)
is never located again.  An iterated integral (``_iterated``) locates and
decomposes the range of each axis once per call, so that every point of
the outer axis walks the same list of inner parts.

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
normalized once, and any other operands get the written expression.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import gcd, isfinite

from .errors import DomainError, PreconditionError, UnsupportedScaleError
from .polyfn import Poly, PolySizeError
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
    cut from that axis."""

    __slots__ = ("axes", "func", "partials", "table", "cut")

    def __init__(self, axes, func, partials, table, cut=None):
        if None in partials and isinstance(func, Poly) and len(func.variables) == len(axes):
            partials = tuple(func.diff(x) if d is None else d
                             for x, d in zip(func.variables, partials))
        self.axes, self.func, self.partials, self.table = axes, func, partials, table
        self.cut = (False,) * len(axes) if cut is None else cut

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


def _quotient(hi, lo, gap) -> Num:
    """``(hi - lo) / gap``.

    When ``hi`` and ``lo`` are ints or Fractions and ``gap`` is a Fraction,
    the difference and the quotient are formed in integers and one Fraction
    is built, reduced once; any other operands (a float, a ``Poly`` at a
    symbolic node, an int gap) get the written expression."""
    th, tl = type(hi), type(lo)
    if type(gap) is Fraction and (th is Fraction or th is int) and (tl is Fraction or tl is int):
        hn, hd = hi.as_integer_ratio()
        ln, ld = lo.as_integer_ratio()
        gn, gd = gap.as_integer_ratio()
        return Fraction((hn * ld - ln * hd) * gd, hd * ld * gn)
    return (hi - lo) / gap


def _delta_at(scale: TimeScale, fn, at, jump=None, tol: float = LIMIT_TOL):
    """Delta derivative of ``fn`` at the located ``at`` = ``(i, t)``, a point
    or node of piece i of ``scale``, as ``(value, error_estimate, method)``.

    Every delta derivative in the package goes through here.  ``jump`` is
    sigma(t) when the caller knows it, else it is looked up: at a node of a
    dense piece it is t itself, and ``fn`` is read as its continuous
    restriction.  A right-scattered t gives the exact jump quotient
    (``_quotient``); a right-dense one the classical slope
    (``_classical_slope``).  ``method`` names the branch taken:
    ``EXACT_QUOTIENT``, ``ANALYTIC`` or ``NUMERIC_LIMIT``.
    """
    i, t = at
    if jump is None:
        jump = scale._sigma_at(i, t)
        if jump is t and t == scale.max and scale._rho_at(i, t) < t:
            raise DomainError(
                f"delta derivative undefined at the left-scattered maximum {fmt_scalar(t)}"
            )
    if jump is not t:
        return _quotient(fn(jump), fn(t), jump - t), _ZEROS[scale.mode], EXACT_QUOTIENT
    piece = scale.pieces[i]
    if piece[0] == piece[1]:
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
    """Split [a, b] into ('gap', (None, t, sigma, mu)) and ('dense', (k, c, d))
    parts, in order.

    Gap entries are the places of the right-scattered t in [a, b), as
    ``_iterated`` hands them to its integrand: t with its forward jump
    sigma(t) and graininess mu(t), contributing mu(t) f(t) exactly; dense
    entries carry their piece index k and the clipped bounds.  ``start``
    and ``end`` are ``(i, a)`` and ``(j, b)`` as ``TimeScale._find`` located
    them; every other bound, jump and gap is read off the scale's indexed
    view."""
    pieces, gaps = scale.pieces, scale._gaps
    (i, a), (j, b) = start, end
    c = max(pieces[i][0], a)
    # Each piece k < j ends below b, at a right-scattered point whose
    # forward jump is the low of piece k + 1.  At an isolated point c is
    # usually hi itself, and the identity test spares a Fraction compare.
    for k in range(i, j):
        hi = pieces[k][1]
        nxt = pieces[k + 1][0]
        if c is not hi and c < hi:
            yield ("dense", (k, c, hi))
        yield ("gap", (None, hi, nxt, gaps[k]))
        c = nxt
    d = min(pieces[j][1], b)
    if c < d:
        yield ("dense", (j, c, d))


def _exact_sum(zero, terms) -> Num:
    """``zero`` plus the sum of ``w * v`` over the pairs ``(w, v)`` of ``terms``.

    While ``zero`` and every w and v are ints or Fractions, the products
    are added as integers over a running denominator kept as the lcm of
    the term denominators, and one Fraction is built at the end, so the
    result is a Fraction even when every term is an int.  At the first
    other term the exact partial sum is handed to ``total = total + w * v``
    and the rest is added left to right, as written."""
    total = zero
    terms = iter(terms)
    if type(zero) is int or type(zero) is Fraction:
        num, den = zero.as_integer_ratio()
        for w, v in terms:
            tw, tv = type(w), type(v)
            if not ((tw is Fraction or tw is int) and (tv is Fraction or tv is int)):
                total = Fraction(num, den) + w * v
                break
            wn, wd = w.as_integer_ratio()
            vn, vd = v.as_integer_ratio()
            q = wd * vd
            if den % q:
                m = q // gcd(den, q)
                num *= m
                den *= m
            num += wn * vn * (den // q)
        else:
            return Fraction(num, den)
    for w, v in terms:
        total = total + w * v
    return total


def _symbolic(*fns):
    """The symbolic node when each of ``fns`` may see it: an ``AxesFn``,
    which hands the node to ``Poly`` data only.  Otherwise None, and dense
    pieces go to Simpson."""
    return _X1 if all(isinstance(f, AxesFn) for f in fns) else None


def _primitive(scale: TimeScale, dense, node):
    """The exact antiderivative, in ``node``'s variable, of the dense
    integrand ``dense``, or None when Simpson must run: no node, a float
    scale, data that is not polynomial, or a polynomial past the size
    limits."""
    if node is None or scale.mode != RATIONAL:
        return None
    try:
        value = dense(node)
        if isinstance(value, Poly):
            return value.integrate(_NODE_VARS[_node_var(node)])
        if isinstance(value, (int, Fraction)):
            return node * value
    except (_NotPolynomial, PolySizeError):
        pass
    return None


def _simpson(dense, c, d, tol: float) -> float:
    """Adaptive Simpson's value of the dense integrand ``dense`` over [c, d],
    in floats: every numeric dense integral goes through here.  An exact
    value that no float holds raises ``DomainError``."""
    try:
        return adaptive_simpson(lambda x: float(dense(x)), float(c), float(d), tol)[0]
    except OverflowError:
        raise DomainError(
            f"a value of the dense integrand on [{fmt_scalar(c)}, {fmt_scalar(d)}] "
            f"is past the float range"
        ) from None


def _parts(scale: TimeScale, a, b):
    """The parts of [a, b] on ``scale``, in order, as ``_decompose`` yields
    them: the two ends located once, and a reversed range refused."""
    start, end = scale._find(a), scale._find(b)
    if start[1] > end[1]:
        raise DomainError("integration range is reversed; integrate forward and negate")
    return _decompose(scale, start, end)


def _integrate(scale: TimeScale, parts, point_value, dense_on, tol: float,
               node=None, exact_only: bool = False):
    """Integral driver shared by every integral in the package, over
    the ``parts`` of a range of ``scale`` in order: as ``_parts`` yields them
    for an integral of one variable, or as ``_iterated`` keeps them.

    ``point_value(gap)`` is the exact integrand at a gap part, weighted by
    its graininess mu: ``gap`` is the place ``(None, t, st, mu)`` of a
    right-scattered t, with the forward jump st = sigma(t) and mu that
    ``_decompose`` read off the piece tuple.  ``dense_on(i)`` is the
    continuous restriction of the integrand on the dense piece i, a callable
    of a float quadrature node or of the symbolic ``node``.  Its
    antiderivative is built at the first dense piece; without one, each dense
    piece goes to ``_simpson``, or, with ``exact_only``, ``_NotPolynomial``
    is raised."""
    cache = {}
    simpson = []

    def terms():
        # Gap terms and exact dense pieces, as (weight, value); Simpson
        # pieces are kept apart and added in floats.
        for kind, payload in parts:
            if kind == "gap":
                yield payload[3], point_value(payload)
                continue
            i, c, d = payload
            if "primitive" not in cache:
                cache["primitive"] = _primitive(scale, dense_on(i), node)
            primitive = cache["primitive"]
            if primitive is not None:
                k = _node_var(node)
                yield 1, primitive.subs(k, d) - primitive.subs(k, c)
            elif exact_only:
                raise _NotPolynomial
            else:
                simpson.append(_simpson(dense_on(i), c, d, tol))

    exact = _exact_sum(zero_of(scale), terms())
    if simpson:
        dense_total = 0.0
        for value in simpson:
            dense_total += value
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
    ``fn`` over [a, b], reading ``fn`` at that entry of each gap place: nu of
    sigma(t) is mu(t), and on dense pieces both are the classical integral."""
    fn, read = _data(scale, fn)
    return _integrate(scale, _parts(scale, a, b), lambda gap: read(gap[entry]),
                      lambda i: read, tol, _symbolic(fn))


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

    ``G(p1, p2)`` is the integrand at a place on each axis, ``(i, t, s,
    mu)``: a right-scattered t with its forward jump s = sigma(t) and
    graininess mu = s - t (i is None), or a node t of the dense piece i, with
    s and mu None.  A node is a float, or the symbolic node of that axis
    when both axes are rational.

    Each axis's range is located and decomposed once per call, and every
    row walks the same list of inner parts and gap places.  Only a dense
    inner piece depends on the row: its antiderivative is built, or Simpson
    run, per row."""
    parts1, parts2 = _parts(ax1, a1, b1), list(_parts(ax2, a2, b2))

    def inner(p1):
        # At a float node of the outer Simpson the inner integral stays
        # numeric; at the outer symbolic node it is exact or refused.
        t1 = p1[1]
        return _integrate(
            ax2, parts2,
            point_value=lambda p2: G(p1, p2),
            dense_on=lambda j: lambda x: G(p1, (j, x, None, None)),
            tol=tol,
            node=None if isinstance(t1, float) else _X2,
            exact_only=isinstance(t1, Poly),
        )

    return _integrate(
        ax1, parts1,
        point_value=inner,
        dense_on=lambda i: lambda x: inner((i, x, None, None)),
        tol=tol,
        node=_X1 if ax2.mode == RATIONAL else None,
    )


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
    a = scale.require(a)
    b = scale.require(b)
    boundary = f_at(b) * g_at(b) - f_at(a) * g_at(a)

    # The forms differ only in which factor takes sigma at gap points: of a
    # gap place (None, t, sigma(t), mu(t)) the lhs reads f, and the rest g, at
    # entry 2, sigma(t), or entry 1, t.  On dense pieces sigma(t) = t and
    # both read the same.
    f_entry, g_entry = (2, 1) if form == 1 else (1, 2)

    node = _symbolic(f, g)
    lhs = _integrate(
        scale, _parts(scale, a, b),
        point_value=lambda gap: (f_at(gap[f_entry])
                                 * _quotient(g_at(gap[2]), g_at(gap[1]), gap[3])),
        dense_on=lambda i: lambda x: f_at(x) * _delta_at(scale, g, (i, x), x, tol)[0],
        tol=tol,
        node=node,
    )
    rest = _integrate(
        scale, _parts(scale, a, b),
        point_value=lambda gap: (_quotient(f_at(gap[2]), f_at(gap[1]), gap[3])
                                 * g_at(gap[g_entry])),
        dense_on=lambda i: lambda x: _delta_at(scale, f, (i, x), x, tol)[0] * g_at(x),
        tol=tol,
        node=node,
    )
    return abs(lhs - (boundary - rest))


def junction_audit(scale: TimeScale, fn, a=None, b=None, tol: float = 1e-6) -> list:
    """Compare dense-side slopes with jump quotients at piece junctions.

    A junction is the right endpoint of an interval piece that is also
    right-scattered.  A continuously differentiable function would make
    both numbers agree; a mismatch is reported, not rejected, since
    rd-continuous calculus remains valid either way.
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
        if abs(slope - float(quot)) > tol:
            findings.append(
                f"derivative jump at t={fmt_scalar(hi)}: dense-side slope "
                f"{fmt_scalar(slope)} vs gap quotient {fmt_scalar(quot)}"
            )
    return findings
