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
piece to adaptive Simpson in floats, and the integral is a float.

Integrands built from jump compositions (for example f(sigma(t)) or a
delta derivative) are discontinuous exactly at the right endpoint of a
dense piece, where the forward jump leaps across the gap.  Quadrature
therefore never sees jump compositions: on a dense piece the delta
integral equals the classical integral of the continuous restriction,
so dense evaluation substitutes sigma(t) = t and the classical slope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import DomainError, UnsupportedScaleError
from .polyfn import Poly, PolySizeError
from .quadrature import LIMIT_TOL, QUAD_TOL, adaptive_simpson, richardson_limit
from .scales import (
    RATIONAL,
    Num,
    TimeScale,
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
    instances carry explicit values on a purely discrete scale and
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
        """Tabulate ``values`` (a mapping point -> value) on a discrete scale."""
        if not scale.is_discrete:
            raise UnsupportedScaleError("tabulated functions require a purely discrete scale")
        table = {}
        for k, v in dict(values).items():
            table[scale.require(k)] = as_scalar(v, scale.mode)
        return cls(scale, table=table)

    def __call__(self, t) -> Num:
        # A symbolic node lies in its dense piece by construction.  The
        # test is on the exact type: it runs at every quadrature node.
        if type(t) is Poly:
            return _exact(self.func)(t)
        t = self.scale.require(t)
        if self.table is not None:
            try:
                return self.table[t]
            except KeyError:
                raise DomainError(f"{fmt_scalar(t)} is not tabulated") from None
        return self.func(t)


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

    def value(s):
        return float(fn(s))

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


def _delta_at(scale: TimeScale, fn, t, dense: bool = False,
              d_analytic: Optional[Callable] = None, tol: float = LIMIT_TOL):
    """Delta derivative of ``fn`` at ``t`` as ``(value, error_estimate, method)``.

    Every delta derivative in the package goes through here.  A
    right-scattered point gives the exact jump quotient.  A right-dense
    point inside an interval piece gives the classical slope:
    ``d_analytic(t)`` when supplied (returned unconverted), else a
    Richardson limit inside the piece.  ``method`` names the branch
    taken: ``EXACT_QUOTIENT``, ``ANALYTIC`` or ``NUMERIC_LIMIT``.
    ``dense`` forces the classical slope at a quadrature node of a dense
    piece, where ``fn`` is read as its continuous restriction and ``t``
    is used as given.  At a symbolic node the slope is a polynomial
    (``d_analytic``, the data's own derivative, or the derivative of
    ``fn`` at the node) and no limit runs.
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
        hit = scale._locate(t)
        if hit is None:
            raise DomainError(f"{fmt_scalar(t)} is not a point of the scale")
        i, t = hit
    else:
        i, t = scale._find(t)
        st = scale._sigma_at(i, t)
        if st > t:
            return (fn(st) - fn(t)) / (st - t), zero_of(scale), EXACT_QUOTIENT
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
    analytic derivative a ``ScaleFn`` carries, else a Richardson
    extrapolated limit of difference quotients along the scale.
    Undefined at a left-scattered maximum.
    """
    value, est, method = _delta_at(scale, fn, scale.require(t), tol=tol)
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
    t = scale.require(t)
    if not isinstance(f, ScaleFn):
        f = ScaleFn.from_callable(scale, f)
    if not isinstance(g, ScaleFn):
        g = ScaleFn.from_callable(scale, g)
    d = None
    if f.deriv is not None and g.deriv is not None:
        d = lambda x: f.deriv(x) * g.func(x) + f.func(x) * g.deriv(x)
    fg = ScaleFn(scale, func=lambda x: f(x) * g(x), deriv=d)
    dfg = delta_deriv(scale, fg, t, tol).value
    df = delta_deriv(scale, f, t, tol).value
    dg = delta_deriv(scale, g, t, tol).value
    st = scale.sigma(t)
    r1 = abs(dfg - (df * g(st) + f(t) * dg))
    r2 = abs(dfg - (df * g(t) + f(st) * dg))
    return r1, r2


def _decompose(scale: TimeScale, a, b):
    """Split [a, b] into ('gap', t) and ('dense', (c, d)) parts, in order.

    Gap entries are right-scattered points t in [a, b) contributing
    mu(t) f(t) exactly.  Dense entries carry the clipped bounds (c, d).
    ``a`` must be a point of the scale; the walk starts at its piece.
    """
    pieces = scale.pieces
    for i in range(scale._locate(a)[0], len(pieces)):
        lo, hi = pieces[i]
        if lo > b:
            break
        c = max(lo, a)
        d = min(hi, b)
        if c > d:
            continue
        if c < d:
            yield ("dense", (c, d))
        if d < b and d == hi:
            yield ("gap", d)


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


def _integrate(scale: TimeScale, a, b, point_value, dense_value, tol: float,
               node=None, exact_only: bool = False, cache=None):
    """Delta integral driver shared by every integral in the package.

    ``point_value(t)`` is the exact integrand at a right-scattered t.
    ``dense_value(x)`` is the continuous restriction of the integrand on
    a dense piece, at a float quadrature node or at the symbolic
    ``node``.  Its antiderivative is built at the first dense piece and
    kept in ``cache`` (a dict), so that calls sharing one integrand
    build it once.  Without one, each dense piece goes to Simpson, or,
    with ``exact_only``, ``_NotPolynomial`` is raised."""
    a = scale.require(a)
    b = scale.require(b)
    if a > b:
        raise DomainError("integration range is reversed; integrate forward and negate")
    if a == b:
        return zero_of(scale)
    exact = zero_of(scale)
    dense_total = 0.0
    used_dense = False
    cache = {} if cache is None else cache
    for kind, payload in _decompose(scale, a, b):
        if kind == "gap":
            t = payload
            exact = exact + scale.mu(t) * point_value(t)
            continue
        c, d = payload
        if "primitive" not in cache:
            cache["primitive"] = _primitive(scale, dense_value, node)
        primitive = cache["primitive"]
        if primitive is not None:
            k = _node_var(node)
            exact = exact + primitive.subs(k, d) - primitive.subs(k, c)
        elif exact_only:
            raise _NotPolynomial
        else:
            value, _ = adaptive_simpson(lambda x: float(dense_value(x)), float(c), float(d), tol)
            dense_total += value
            used_dense = True
    if not used_dense:
        return exact
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
    return _integrate(scale, a, b, point_value=fn, dense_value=fn, tol=tol, node=_symbolic(fn))


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
    total = zero_of(scale)
    for t in sub.points():
        if t > a:
            total = total + scale.nu(t) * fn(t)
    return total


def _iterated(ax1: TimeScale, ax2: TimeScale, a1, b1, a2, b2, G, tol: float):
    """Iterated delta integral over [a1, b1] x [a2, b2], second axis innermost.

    ``G(t1, t2, dense1, dense2)`` is the integrand, told per axis whether
    it is evaluated at a node of a dense piece (True) or at a
    right-scattered point (False).  A node is a float, or the symbolic
    node of that axis when both axes are rational."""

    def inner(t1, dense1):
        # At a float node of the outer Simpson the inner integral stays
        # numeric; at the outer symbolic node it is exact or refused.
        return _integrate(
            ax2, a2, b2,
            point_value=lambda t2: G(t1, t2, dense1, False),
            dense_value=lambda x: G(t1, x, dense1, True),
            tol=tol,
            node=None if isinstance(t1, float) else _X2,
            exact_only=isinstance(t1, Poly),
        )

    return _integrate(
        ax1, a1, b1,
        point_value=lambda t1: inner(t1, False),
        dense_value=lambda x: inner(x, True),
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
    f_at = scale.sigma if form == 1 else (lambda t: t)
    g_at = (lambda t: t) if form == 1 else scale.sigma
    node = _symbolic(f, g)
    lhs = _integrate(
        scale, a, b,
        point_value=lambda t: f(f_at(t)) * _delta_at(scale, g, t, tol=tol)[0],
        dense_value=lambda x: f(x) * _delta_at(scale, g, x, True, tol=tol)[0],
        tol=tol,
        node=node,
    )
    rest = _integrate(
        scale, a, b,
        point_value=lambda t: _delta_at(scale, f, t, tol=tol)[0] * g(g_at(t)),
        dense_value=lambda x: _delta_at(scale, f, x, True, tol=tol)[0] * g(x),
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
