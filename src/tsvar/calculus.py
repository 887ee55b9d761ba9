"""Delta calculus: derivatives, integrals, and identity residuals.

Derivatives are exact difference quotients across gaps and Richardson
extrapolated limits along dense pieces.  Integrals decompose a range
into scattered points, contributing graininess-weighted values exactly,
and interval pieces.  On purely discrete rational scales every operation
here is exact.

Data are ``AxesFn``: one class over a tuple of axes, a table or a
callable with one partial per axis, of which ``ScaleFn`` and the double
layer's ``SurfaceFn`` are the one- and two-axis constructors.  Its call is
the one reader of values and partials; ``section`` is a one-axis view
through a point.  Every public entry point wraps a bare ``Poly`` once
(``_data``), so its slope is its own derivative.

On a rational scale an interval piece is integrated exactly when the
data are polynomial: the integrand is evaluated once at a symbolic
node, a ``Poly`` variable, and the piece [c, d] contributes F(d) - F(c)
of its antiderivative F.  Only ``Poly`` data ever sees the node; anything
else (a plain callable, a polynomial past the size limits, a float scale)
sends the piece to adaptive Simpson in floats, through the ``_simpson``
wrapper that ``_integrate`` shares with the running integral of
``el_residual``, and the integral is a float.

A float quadrature node (of adaptive Simpson or of a Richardson limit)
lies in its dense piece by construction, so data are read there with no
scale lookup: the reader hands a callable on an axis the piece was cut
from the node as ``require`` would, the float itself on a float scale and
``Fraction(x)`` on a rational one, and an exact point as it is.  On a
rational scale a node that float rounding put just off the scale beside a
piece end, such as ``float(1/3)`` at the low end of [1/3, 2/3], is read as
that end.  An integral locates its two ends once, walks the pieces
between by index, and hands each dense piece's index to the integrand,
so that a slope at a node (``_delta_at``) is never located again.

Integrands built from jump compositions (for example f(sigma(t)) or a
delta derivative) are discontinuous exactly at the right endpoint of a
dense piece, where the forward jump leaps across the gap.  Quadrature
therefore never sees jump compositions: on a dense piece the delta
integral equals the classical integral of the continuous restriction,
so dense evaluation substitutes sigma(t) = t and the classical slope.

Exact sums (gap terms mu(t) f(t), nabla terms, the means and double sums
of the other layers, and the short sums of products that make up an
integrand) go through ``_exact_sum``.  While every weight and value is an
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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Optional

from .errors import DomainError, UnsupportedScaleError
from .polyfn import Poly, PolySizeError
from .quadrature import LIMIT_TOL, QUAD_TOL, adaptive_simpson, richardson_limit
from .scales import (
    RATIONAL,
    Num,
    TimeScale,
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


@dataclass(frozen=True)
class DerivResult:
    """A delta derivative value plus how it was obtained."""

    value: Num
    method: str
    est_error: Num


# Node marks for a one-axis read (see ``AxesFn.__call__``).
_NODE = (True,)


def _point_text(points) -> str:
    """``points``, one per axis, as an error message names them."""
    text = ", ".join(map(fmt_scalar, points))
    return text if len(points) == 1 else f"({text})"


def _index(axis: TimeScale, t) -> int:
    if type(t) is Poly:
        raise _NotPolynomial  # a symbolic node meets a table
    return axis._find(t)[0]


def _coordinate(axis: TimeScale, t, node: bool):
    if node:
        return axis._node(t) if type(t) is float else t
    return t if id(t) in axis._ids else axis.require(t)


class AxesFn:
    """Real-valued data on the product of the time scales ``axes``: a table,
    nested lists over the axes' point indices (None where a point has no
    value), or a callable with one classical partial per axis in
    ``partials`` (None where it has none), which a ``Poly`` supplies itself.
    ``ScaleFn`` and ``SurfaceFn`` are its one- and two-axis constructors."""

    __slots__ = ("axes", "func", "partials", "table")

    def __init__(self, axes, func, partials, table):
        if isinstance(func, Poly) and len(func.variables) == len(axes):
            partials = tuple(func.diff(x) if d is None else d
                             for x, d in zip(func.variables, partials))
        self.axes, self.func, self.partials, self.table = axes, func, partials, table

    def __call__(self, t, *more, nodes=(), d=None):
        """The one reader: the value at ``(t, *more)``, one coordinate per
        axis, or with ``d`` the partial along axis ``d``, which takes its
        coordinates as they are.  A table finds each point's index, an axis's
        own points by identity.  A callable gets each coordinate located,
        unless ``nodes`` marks it as lying in a piece of an axis cut from
        this one: a float quadrature node is then read as ``TimeScale._node``
        reads it, and anything else as it is.  A symbolic node (a ``Poly``
        coordinate) reaches ``Poly`` data only."""
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
        x = _coordinate(self.axes[0], t, nodes and nodes[0])
        if not more:
            return fn(x)
        return fn(x, _coordinate(self.axes[1], more[0], nodes and nodes[1]))

    def on(self, scale: TimeScale):
        """This one-axis datum as read at the points and nodes of ``scale``:
        with no lookup where ``scale`` was cut from its axis, which on a float
        scale hands the callable each of them as it is."""
        if self.table is not None or not scale._cut_from(self.axes[0]):
            return self
        return self.func if scale.mode != RATIONAL else lambda x: self(x, nodes=_NODE)

    def section(self, axis: int, point: tuple, nodes: tuple = ()) -> "AxesFn":
        """The one-axis view along ``axis`` through ``point`` (see ``_Section``)."""
        return _Section(self, axis, point, nodes)

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
    def _from_json(cls, obj, what: str, names: tuple) -> "AxesFn":
        """Load ``{<name>: scale, …, "values": …}``: values keyed by point text
        on one axis, rows over the first of two, in the first axis's mode."""
        json_object(obj, what, names + ("values",))
        axes = [TimeScale.from_json(obj[name]) for name in names]
        raw, mode = obj["values"], axes[0].mode
        if len(axes) == 1 and not isinstance(raw, dict):
            raise DomainError("'values' must be an object keyed by scale points")
        if len(axes) > 1 and not isinstance(raw, list):
            raise DomainError("'values' must be a list of rows")
        # from_table reads each key as a point of the scale.
        values = ({k: scalar_from_json(v, mode) for k, v in raw.items()} if len(axes) == 1
                  else [[scalar_from_json(v, mode) for v in row] for row in raw])
        return cls.from_table(*axes, values)


class _Section(AxesFn):
    """``parent`` along its axis ``axis`` through ``point``: a one-axis view
    that reads the parent in place, its values with the node marks ``nodes``
    and its partial along ``axis``, and copies no row or column."""

    __slots__ = ("parent", "axis", "point", "nodes")

    def __init__(self, parent, axis, point, nodes):
        self.parent, self.axis, self.point, self.nodes = parent, axis, point, nodes
        self.axes, self.partials = (parent.axes[axis],), (parent.partials[axis],)

    def __call__(self, s, nodes=(), d=None):
        k, point = self.axis, self.point
        return self.parent(*point[:k], s, *point[k + 1:], nodes=self.nodes,
                           d=None if d is None else k)

    def on(self, scale: TimeScale):
        return self  # the view carries its own node marks


class ScaleFn(AxesFn):
    """Real-valued function on (a sub-domain of) a time scale: an ``AxesFn``
    on the one axis ``scale``, a callable with an optional classical
    derivative, or a table on a purely discrete scale."""

    __slots__ = ()

    def __init__(self, scale, func=None, deriv=None, table=None):
        super().__init__((scale,), func, (deriv,), table)

    scale = property(lambda self: self.axes[0])

    @classmethod
    def from_callable(cls, scale: TimeScale, func: Callable,
                      deriv: Optional[Callable] = None) -> "ScaleFn":
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
    return ScaleFn._from_json(obj, "tabulated function", ("scale",))


def _data(scale: TimeScale, fn):
    """``fn`` as every public entry point on ``scale`` takes it: a bare
    ``Poly`` is wrapped once, so that its slope is its own derivative."""
    return ScaleFn(scale, fn) if type(fn) is Poly else fn


def _reader(scale: TimeScale, fn):
    """The callable that reads the values of ``fn``, as handed to a public
    entry point, at the points and nodes of ``scale``: data through
    ``AxesFn.on``, anything else, a bare ``Poly`` too, as it reads itself."""
    return fn.on(scale) if isinstance(fn, AxesFn) else fn


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
    read = _reader(scale, fn)

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
    value, est, method = _delta_at(scale, _data(scale, fn), scale._find(t), None, tol)
    return DerivResult(value, method, est)


def simple_useful_check(scale: TimeScale, fn, t) -> Num:
    """Residual |f(sigma(t)) - f(t) - mu(t) f_delta(t)|.

    Zero by construction at right-dense points, where both sides
    collapse to f(t)."""
    fn, read = _data(scale, fn), _reader(scale, fn)
    i, t = scale._find(t)
    st = scale._sigma_at(i, t)
    if st is t:
        return zero_of(scale)
    d = _delta_at(scale, fn, (i, t), st)[0]
    return abs(read(st) - read(t) - (st - t) * d)


def product_rule_residual(scale: TimeScale, f, g, t, tol: float = LIMIT_TOL):
    """Residuals of both product-rule forms for (fg) at ``t``.

    Returns ``(r1, r2)`` with
    r1 for (fg)' = f' g(sigma) + f g' and
    r2 for (fg)' = f' g + f(sigma) g'.
    """
    at = i, t = scale._find(t)
    st = scale._sigma_at(i, t)
    f = f if isinstance(f, ScaleFn) else ScaleFn(scale, f)
    g = g if isinstance(g, ScaleFn) else ScaleFn(scale, g)
    # fg is handed located points and quadrature nodes of ``scale`` only,
    # so it reads f and g as the nodes' readers do.
    f_at, g_at = f.on(scale), g.on(scale)
    slope = None
    if f.partials[0] is not None and g.partials[0] is not None:
        slope = lambda x: f(x, d=0) * g_at(x) + f_at(x) * g(x, d=0)
    fg = ScaleFn(scale, lambda x: f_at(x) * g_at(x), slope)
    dfg, df, dg = (_delta_at(scale, h, at, tol=tol)[0] for h in (fg, f, g))
    r1 = abs(dfg - (df * g_at(st) + f_at(t) * dg))
    r2 = abs(dfg - (df * g_at(t) + f_at(st) * dg))
    return r1, r2


def _decompose(scale: TimeScale, start, end):
    """Split [a, b] into ('gap', (t, sigma, mu)) and ('dense', (k, c, d)) parts, in order.

    Gap entries are the right-scattered t in [a, b) with their forward
    jump sigma(t) and graininess mu(t), contributing mu(t) f(t) exactly;
    dense entries carry their piece index k and the clipped bounds.  ``start`` and ``end`` are
    ``(i, a)`` and ``(j, b)`` as ``TimeScale._find`` located them; every
    other bound, jump and gap is read off the scale's indexed view."""
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
        yield ("gap", (hi, nxt, gaps[k]))
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
    in floats: every numeric dense integral goes through here."""
    return adaptive_simpson(lambda x: float(dense(x)), float(c), float(d), tol)[0]


def _integrate(scale: TimeScale, a, b, point_value, dense_on, tol: float,
               node=None, exact_only: bool = False):
    """Delta integral driver shared by every integral in the package.

    ``point_value(t, st, mu)`` is the exact integrand at a right-scattered
    t, handed the forward jump st = sigma(t) and the graininess mu = st - t
    that ``_decompose`` read off the piece tuple, and weighted by mu.
    ``dense_on(i)`` is the continuous restriction of the integrand on the
    dense piece i, a callable of a float quadrature node or of the
    symbolic ``node``.  Its antiderivative is built at the first dense piece;
    without one, each dense piece goes to ``_simpson``, or, with
    ``exact_only``, ``_NotPolynomial`` is raised."""
    start, end = scale._find(a), scale._find(b)
    a, b = start[1], end[1]
    if a > b:
        raise DomainError("integration range is reversed; integrate forward and negate")
    if a == b:
        return zero_of(scale)
    cache = {}
    simpson = []

    def terms():
        # Gap terms and exact dense pieces, as (weight, value); Simpson
        # pieces are kept apart and added in floats.
        for kind, payload in _decompose(scale, start, end):
            if kind == "gap":
                t, st, mu = payload
                yield mu, point_value(t, st, mu)
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
    if not simpson:
        return exact
    dense_total = 0.0
    for value in simpson:
        dense_total += value
    try:
        return float(exact) + dense_total
    except OverflowError:
        raise DomainError(
            f"the exact gap sum, {_magnitude(exact)}, is past the float range "
            f"of the Simpson part of the integral"
        ) from None


def delta_integral(scale: TimeScale, fn, a, b, tol: float = QUAD_TOL) -> Num:
    """Delta integral of ``fn`` over [a, b]; exact on a rational scale
    when ``fn`` is polynomial (a ``Poly``, or a ``ScaleFn`` of one)."""
    fn, read = _data(scale, fn), _reader(scale, fn)
    return _integrate(scale, a, b, lambda t, st, mu: read(t), lambda i: read, tol,
                      _symbolic(fn))


def nabla_integral_discrete(scale: TimeScale, fn, a, b) -> Num:
    """Nabla integral over [a, b], supported on purely discrete ranges only.

    Sums nu(t) f(t) over the points of (a, b]."""
    fn = _reader(scale, fn)
    a = scale.require(a)
    b = scale.require(b)
    if a > b:
        raise DomainError("integration range is reversed; integrate forward and negate")
    sub = scale.restrict(a, b)
    if not sub.is_discrete:
        raise UnsupportedScaleError(
            "nabla integrals are implemented for purely discrete ranges only"
        )
    # nu(t) is the gap back to the point before t.
    return _exact_sum(zero_of(scale), zip(sub._gaps, map(fn, sub._lows[1:])))


def _iterated(ax1: TimeScale, ax2: TimeScale, a1, b1, a2, b2, G, tol: float):
    """Iterated delta integral over [a1, b1] x [a2, b2], second axis innermost.

    ``G(p1, p2)`` is the integrand at a place on each axis, ``(i, t, s,
    mu)``: a right-scattered t with its forward jump s = sigma(t) and
    graininess mu = s - t (i is None), or a node t of the dense piece i, with
    s and mu None.  A node is a float, or the symbolic node of that axis
    when both axes are rational."""

    def inner(p1):
        # At a float node of the outer Simpson the inner integral stays
        # numeric; at the outer symbolic node it is exact or refused.
        t1 = p1[1]
        return _integrate(
            ax2, a2, b2,
            point_value=lambda t2, s2, mu2: G(p1, (None, t2, s2, mu2)),
            dense_on=lambda j: lambda x: G(p1, (j, x, None, None)),
            tol=tol,
            node=None if isinstance(t1, float) else _X2,
            exact_only=isinstance(t1, Poly),
        )

    return _integrate(
        ax1, a1, b1,
        point_value=lambda t1, s1, mu1: inner((None, t1, s1, mu1)),
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
    f_at, g_at, f, g = _reader(scale, f), _reader(scale, g), _data(scale, f), _data(scale, g)
    a = scale.require(a)
    b = scale.require(b)
    boundary = f_at(b) * g_at(b) - f_at(a) * g_at(a)

    # The forms differ only in which factor takes sigma at gap points;
    # on dense pieces sigma(t) = t and both read the same.
    node = _symbolic(f, g)
    lhs = _integrate(
        scale, a, b,
        point_value=lambda t, st, mu: (f_at(st if form == 1 else t)
                                       * _quotient(g_at(st), g_at(t), mu)),
        dense_on=lambda i: lambda x: f_at(x) * _delta_at(scale, g, (i, x), x, tol)[0],
        tol=tol,
        node=node,
    )
    rest = _integrate(
        scale, a, b,
        point_value=lambda t, st, mu: (_quotient(f_at(st), f_at(t), mu)
                                       * g_at(t if form == 1 else st)),
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
    fn = _data(scale, fn)
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
