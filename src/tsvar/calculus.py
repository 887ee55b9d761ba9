"""Delta calculus: derivatives, integrals, and identity residuals.

Derivatives are exact difference quotients across gaps and Richardson
extrapolated limits along dense pieces.  Integrals decompose a range
into scattered points, contributing graininess-weighted values exactly,
and interval pieces.  On purely discrete rational scales every operation
here is exact.

On a rational scale an interval piece is integrated exactly when the
data are polynomial: the integrand is evaluated once at a symbolic
node, a ``Poly`` variable, and the piece [c, d] contributes F(d) - F(c)
of its antiderivative F.  Only ``Poly`` data, alone or inside a
``ScaleFn`` or ``SurfaceFn``, ever sees the node; anything else (a plain
callable, a polynomial past the size limits, a float scale) sends the
piece to adaptive Simpson in floats, through the ``_simpson`` wrapper that
``_integrate`` shares with the running integral of ``el_residual``, and
the integral is a float.

A float quadrature node (of adaptive Simpson or of a Richardson limit)
lies in its dense piece by construction, so data are evaluated there with
no scale lookup: a closure-backed ``ScaleFn`` whose scale the piece was
cut from hands its callable the node as ``require`` would, the float
itself on a float scale and ``Fraction(x)`` on a rational one, and an
exact point as it is (``_at_nodes``); a ``SurfaceFn`` does so per axis.  On a rational
scale a node that float rounding put just off the scale beside a piece
end, such as ``float(1/3)`` at the low end of [1/3, 2/3], is read as that
end.  An integral locates its two ends once and walks the pieces between
by index.

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


class ScaleFn:
    """Real-valued function on (a sub-domain of) a time scale.

    Closure-backed instances wrap a callable, optionally with an
    analytic classical derivative used on dense pieces.  Tabulated
    instances carry explicit values on a purely discrete scale, as a list
    over the scale's point index (None where a point has no value), and
    reject evaluation off the table.
    """

    __slots__ = ("scale", "func", "deriv", "table")

    def __init__(self, scale, func=None, deriv=None, table=None):
        self.scale = scale
        self.func = func
        self.deriv = deriv
        self.table = table

    @classmethod
    def from_callable(cls, scale: TimeScale, func: Callable,
                      deriv: Optional[Callable] = None) -> "ScaleFn":
        """Wrap ``func``; a one-variable ``Poly`` supplies its own
        derivative unless ``deriv`` is given."""
        if deriv is None and isinstance(func, Poly) and len(func.variables) == 1:
            deriv = func.diff(func.variables[0])
        return cls(scale, func=func, deriv=deriv)

    @classmethod
    def from_table(cls, scale: TimeScale, values) -> "ScaleFn":
        """Tabulate ``values`` (a mapping point -> value) on a discrete scale.
        Each point may be named by one key only."""
        if not scale.is_discrete:
            raise UnsupportedScaleError("tabulated functions require a purely discrete scale")
        table = [None] * len(scale.pieces)
        for k, v in values.items():
            i, t = scale._find(k)
            if table[i] is not None:
                raise DomainError(f"the table names {fmt_scalar(t)} twice")
            table[i] = as_scalar(v, scale.mode)
        return cls(scale, table=table)

    def __call__(self, t) -> Num:
        # A symbolic node lies in its dense piece by construction.  The
        # test is on the exact type: it runs at every call.
        if type(t) is Poly:
            return _exact(self.func)(t)
        # One of the scale's own points is found by identity; any other
        # argument is coerced, snapped and checked first.
        i = self.scale._ids.get(id(t))
        if i is None:
            i, t = self.scale._find(t)
        if self.table is None:
            return self.func(t)
        value = self.table[i]
        if value is None:
            raise DomainError(f"{fmt_scalar(t)} is not tabulated")
        return value


def tabulated_from_json(obj) -> ScaleFn:
    """Load {"scale": …, "values": {"t": v, …}} into a tabulated function.

    Keys are strings naming scale points; values follow the scale's
    numeric mode."""
    json_object(obj, "tabulated function", ("scale", "values"))
    scale = TimeScale.from_json(obj["scale"])
    raw = obj["values"]
    if not isinstance(raw, dict):
        raise DomainError("'values' must be an object keyed by scale points")
    # from_table reads each key as a point of the scale.
    values = {k: scalar_from_json(v, scale.mode) for k, v in raw.items()}
    return ScaleFn.from_table(scale, values)


def _at_nodes(fn, scale: TimeScale):
    """``fn`` as read at the points and dense-piece nodes of ``scale``.

    A closure-backed ``ScaleFn`` on ``scale``, or on a scale ``scale`` was
    cut from, reads a float node (``TimeScale._node``) or an exact point of
    ``scale`` with no lookup, and a symbolic node through ``__call__``.
    Anything else is returned as it is, and looks its arguments up."""
    if not (isinstance(fn, ScaleFn) and fn.func is not None and scale._cut_from(fn.scale)):
        return fn
    func = fn.func
    if scale.mode != RATIONAL:
        return func
    point = fn.scale._node
    return lambda x: func(point(x)) if type(x) is float else fn(x) if type(x) is Poly else func(x)


def _classical_slope(scale: TimeScale, fn, t, piece, tol: float):
    """Classical derivative of ``fn`` at ``t`` inside a dense piece, as
    ``(value, error_estimate, method)``.

    ``fn`` must be evaluable throughout the piece.  Uses the analytic
    derivative when the ScaleFn carries one, unconverted on a rational
    scale and as a float otherwise, else a float Richardson limit.
    """
    if isinstance(fn, ScaleFn) and fn.deriv is not None:
        slope = fn.deriv(t)
        return (slope if scale.mode == RATIONAL else float(slope)), 0.0, ANALYTIC
    lo, hi = piece
    x = float(t)
    flo, fhi = float(lo), float(hi)
    room_l = x - flo
    room_r = fhi - x
    width = fhi - flo
    at_node = _at_nodes(fn, scale)

    def value(s):
        return float(at_node(s))

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


def _delta_at(scale: TimeScale, fn, t, dense: bool = False,
              d_analytic: Optional[Callable] = None, tol: float = LIMIT_TOL, sigma=None,
              mu=None, piece=None):
    """Delta derivative of ``fn`` at ``t`` as ``(value, error_estimate, method)``.

    Every delta derivative in the package goes through here.  A
    right-scattered point gives the exact jump quotient.  A right-dense
    point inside an interval piece gives the classical slope:
    ``d_analytic(t)`` when supplied (returned unconverted), else a
    Richardson limit inside the piece.  ``method`` names the branch
    taken: ``EXACT_QUOTIENT``, ``ANALYTIC`` or ``NUMERIC_LIMIT``.
    ``dense`` forces the classical slope at a quadrature node of a dense
    piece, where ``fn`` is read as its continuous restriction and ``t``
    is used as given, located unless it lies by the dense piece ``piece``
    (an index).  At a symbolic node the slope is a polynomial
    (``d_analytic``, the data's own derivative, or the derivative of
    ``fn`` at the node) and no limit runs.  A known forward jump ``sigma``
    past ``t`` gives the quotient (``_quotient``) with no lookup; when the
    graininess ``mu`` is handed too, the quotient is returned at once, with
    no comparison of ``sigma`` and ``t``.
    """
    if dense and type(t) is Poly:
        if d_analytic is not None:
            slope = d_analytic(t)
        elif isinstance(fn, ScaleFn) and fn.deriv is not None:
            slope = _exact(fn.deriv)(t)
        else:
            value = fn(t)
            if isinstance(value, Poly):
                slope = value.diff(_NODE_VARS[_node_var(t)])
            elif isinstance(value, (int, Fraction)):
                slope = 0
            else:
                raise _NotPolynomial
        return slope, 0.0, ANALYTIC
    if dense:
        hit = None
        if piece is not None:
            lo, hi = scale.pieces[piece]
            end = t if lo <= t <= hi else scale._rounded_ends.get(t)
            hit = (piece, end) if end is t or end in (lo, hi) else None
        # A node that float rounding put off the scale is read as the piece
        # end it rounds from, as the data read it.
        hit = hit or scale._locate(t) or scale._locate(scale._node(t))
        if hit is None:
            raise DomainError(f"{fmt_scalar(t)} is not a point of the scale")
        i, t = hit
    else:
        if mu is not None:
            return _quotient(fn(sigma), fn(t), mu), _ZEROS[scale.mode], EXACT_QUOTIENT
        if sigma is None or sigma == t:
            i, t = scale._find(t)
            sigma = scale._sigma_at(i, t)
        if sigma > t:
            return _quotient(fn(sigma), fn(t), sigma - t), _ZEROS[scale.mode], EXACT_QUOTIENT
        if t == scale.max and scale._rho_at(i, t) < t:
            raise DomainError(
                f"delta derivative undefined at the left-scattered maximum {fmt_scalar(t)}"
            )
    lo, hi = scale.pieces[i]
    if lo == hi:
        raise DomainError(
            f"no dense neighborhood at {fmt_scalar(t)} for a classical slope"
        )
    if d_analytic is not None:
        return d_analytic(t), 0.0, ANALYTIC
    return _classical_slope(scale, fn, t, (lo, hi), tol)


def delta_deriv(scale: TimeScale, fn, t, tol: float = LIMIT_TOL) -> DerivResult:
    """Delta derivative of ``fn`` at ``t``.

    Exact quotient at right-scattered points.  At right-dense points the
    analytic derivative a ``ScaleFn`` or a one-variable ``Poly`` carries,
    else a Richardson extrapolated limit of difference quotients along the
    scale.  Undefined at a left-scattered maximum.
    """
    i, t = scale._find(t)
    sigma = scale._sigma_at(i, t)
    # sigma is t itself where t is right-dense or the maximum.
    mu = None if sigma is t else sigma - t
    fn = ScaleFn.from_callable(scale, fn) if type(fn) is Poly else fn  # carries its derivative
    value, est, method = _delta_at(scale, fn, t, tol=tol, sigma=sigma, mu=mu)
    return DerivResult(value, method, est)


def simple_useful_check(scale: TimeScale, fn, t) -> Num:
    """Residual |f(sigma(t)) - f(t) - mu(t) f_delta(t)|.

    Zero by construction at right-dense points, where both sides
    collapse to f(t)."""
    t = scale.require(t)
    st = scale.sigma(t)
    if st == t:
        return zero_of(scale)
    d = delta_deriv(scale, fn, t).value
    return abs(fn(st) - fn(t) - (st - t) * d)


def product_rule_residual(scale: TimeScale, f, g, t, tol: float = LIMIT_TOL):
    """Residuals of both product-rule forms for (fg) at ``t``.

    Returns ``(r1, r2)`` with
    r1 for (fg)' = f' g(sigma) + f g' and
    r2 for (fg)' = f' g + f(sigma) g'.
    """
    i, t = scale._find(t)
    st = scale._sigma_at(i, t)
    if not isinstance(f, ScaleFn):
        f = ScaleFn.from_callable(scale, f)
    if not isinstance(g, ScaleFn):
        g = ScaleFn.from_callable(scale, g)
    d = None
    if f.deriv is not None and g.deriv is not None:
        d = lambda x: f.deriv(x) * g.func(x) + f.func(x) * g.deriv(x)
    # fg's callable is handed located points and quadrature nodes of
    # ``scale`` only, so it reads f and g as the nodes' readers do.
    f_at, g_at = _at_nodes(f, scale), _at_nodes(g, scale)
    fg = ScaleFn(scale, func=lambda x: f_at(x) * g_at(x), deriv=d)
    dfg = delta_deriv(scale, fg, t, tol).value
    df = delta_deriv(scale, f, t, tol).value
    dg = delta_deriv(scale, g, t, tol).value
    r1 = abs(dfg - (df * g_at(st) + f_at(t) * dg))
    r2 = abs(dfg - (df * g_at(t) + f_at(st) * dg))
    return r1, r2


def _decompose(scale: TimeScale, start, end):
    """Split [a, b] into ('gap', (t, sigma, mu)) and ('dense', (c, d)) parts, in order.

    Gap entries are the right-scattered t in [a, b) with their forward
    jump sigma(t) and graininess mu(t), contributing mu(t) f(t) exactly;
    dense entries carry the clipped bounds.  ``start`` and ``end`` are
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
            yield ("dense", (c, hi))
        yield ("gap", (hi, nxt, gaps[k]))
        c = nxt
    d = min(pieces[j][1], b)
    if c < d:
        yield ("dense", (c, d))


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
    """The symbolic node when each of ``fns`` may see it: a ``Poly``, or a
    ``ScaleFn``, which hands the node to ``Poly`` data only.  Otherwise
    None, and dense pieces go to Simpson."""
    return _X1 if all(isinstance(f, (Poly, ScaleFn)) for f in fns) else None


def _primitive(scale: TimeScale, dense_value, node):
    """The exact antiderivative, in ``node``'s variable, of the dense
    integrand ``dense_value``, or None when Simpson must run: no node, a
    float scale, data that is not polynomial, or a polynomial past the
    size limits."""
    if node is None or scale.mode != RATIONAL:
        return None
    try:
        value = dense_value(node)
        if isinstance(value, Poly):
            return value.integrate(_NODE_VARS[_node_var(node)])
        if isinstance(value, (int, Fraction)):
            return node * value
    except (_NotPolynomial, PolySizeError):
        pass
    return None


def _simpson(dense_value, c, d, tol: float) -> float:
    """Adaptive Simpson's value of the dense integrand ``dense_value`` over
    [c, d], in floats: every numeric dense integral goes through here."""
    return adaptive_simpson(lambda x: float(dense_value(x)), float(c), float(d), tol)[0]


def _integrate(scale: TimeScale, a, b, point_value, dense_value, tol: float,
               node=None, exact_only: bool = False):
    """Delta integral driver shared by every integral in the package.

    ``point_value(t, st, mu)`` is the exact integrand at a right-scattered
    t, handed the forward jump st = sigma(t) and the graininess mu = st - t
    that ``_decompose`` read off the piece tuple, and weighted by mu.
    ``dense_value(x)`` is the continuous restriction of the integrand on
    a dense piece, at a float quadrature node or at the symbolic
    ``node``.  Its antiderivative is built at the first dense piece;
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
            c, d = payload
            if "primitive" not in cache:
                cache["primitive"] = _primitive(scale, dense_value, node)
            primitive = cache["primitive"]
            if primitive is not None:
                k = _node_var(node)
                yield 1, primitive.subs(k, d) - primitive.subs(k, c)
            elif exact_only:
                raise _NotPolynomial
            else:
                simpson.append(_simpson(dense_value, c, d, tol))

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
    return _integrate(scale, a, b, lambda t, st, mu: fn(t), _at_nodes(fn, scale), tol,
                      _symbolic(fn))


def nabla_integral_discrete(scale: TimeScale, fn, a, b) -> Num:
    """Nabla integral over [a, b], supported on purely discrete ranges only.

    Sums nu(t) f(t) over the points of (a, b]."""
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

    ``G(t1, t2, s1, s2, mu1, mu2)`` is the integrand, handed per axis the
    forward jump s = sigma(t) and the graininess mu = s - t of a
    right-scattered t, or None for both at a node of a dense piece.  A node
    is a float, or the symbolic node of that axis when both axes are
    rational."""

    def inner(t1, s1, mu1=None):
        # At a float node of the outer Simpson the inner integral stays
        # numeric; at the outer symbolic node it is exact or refused.
        return _integrate(
            ax2, a2, b2,
            point_value=lambda t2, s2, mu2: G(t1, t2, s1, s2, mu1, mu2),
            dense_value=lambda x: G(t1, x, s1, None, mu1, None),
            tol=tol,
            node=None if isinstance(t1, float) else _X2,
            exact_only=isinstance(t1, Poly),
        )

    return _integrate(
        ax1, a1, b1,
        point_value=inner,
        dense_value=lambda x: inner(x, None),
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
    a = scale.require(a)
    b = scale.require(b)
    boundary = f(b) * g(b) - f(a) * g(a)

    # The forms differ only in which factor takes sigma at gap points;
    # on dense pieces sigma(t) = t and both read the same.
    node = _symbolic(f, g)
    f_node, g_node = _at_nodes(f, scale), _at_nodes(g, scale)
    lhs = _integrate(
        scale, a, b,
        point_value=lambda t, st, mu: f(st if form == 1 else t) * _quotient(g(st), g(t), mu),
        dense_value=lambda x: f_node(x) * _delta_at(scale, g, x, True, tol=tol)[0],
        tol=tol,
        node=node,
    )
    rest = _integrate(
        scale, a, b,
        point_value=lambda t, st, mu: _quotient(f(st), f(t), mu) * g(t if form == 1 else st),
        dense_value=lambda x: _delta_at(scale, f, x, True, tol=tol)[0] * g_node(x),
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
    a = scale.require(a) if a is not None else scale.min
    b = scale.require(b) if b is not None else scale.max
    findings = []
    for lo, hi in scale.pieces:
        # hi <= a: no dense side of the junction lies inside [a, b].
        if lo == hi or hi <= a or hi > b:
            continue
        if scale.sigma(hi) == hi or scale.sigma(hi) > b:
            continue
        slope = _classical_slope(scale, fn, hi, (max(lo, a), hi), LIMIT_TOL)[0]
        quot = _delta_at(scale, fn, hi)[0]
        if abs(slope - float(quot)) > tol:
            findings.append(
                f"derivative jump at t={fmt_scalar(hi)}: dense-side slope "
                f"{fmt_scalar(slope)} vs gap quotient {fmt_scalar(quot)}"
            )
    return findings
