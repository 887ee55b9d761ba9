"""Delta calculus: derivatives, integrals, and identity residuals.

Derivatives are exact difference quotients across gaps and Richardson
extrapolated limits along dense pieces.  Integrals decompose a range
into scattered points, contributing graininess-weighted values exactly,
and interval pieces, handed to adaptive Simpson in floats.  On purely
discrete rational scales every operation here is exact.

Integrands built from jump compositions (for example f(sigma(t)) or a
delta derivative) are discontinuous exactly at the right endpoint of a
dense piece, where the forward jump leaps across the gap.  Quadrature
therefore never sees jump compositions: on a dense piece the delta
integral equals the classical integral of the continuous restriction,
so dense evaluation substitutes sigma(t) = t and the classical slope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError, UnsupportedScaleError
from .polyfn import Poly
from .quadrature import (
    LIMIT_MAX_STEPS,
    LIMIT_TOL,
    QUAD_TOL,
    adaptive_simpson,
    richardson_limit,
)
from .scales import (
    Num,
    TimeScale,
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

# Evaluation modes of an iterated integrand: at a right-scattered point
# the forward jump applies; at a quadrature node of a dense piece the
# integrand is read as its continuous restriction.
SCATTER = "scatter"
DENSE = "dense"


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

    __slots__ = ("scale", "func", "deriv", "table", "domain")

    def __init__(self, scale, func=None, deriv=None, table=None, domain=None):
        self.scale = scale
        self.func = func
        self.deriv = deriv
        self.table = table
        self.domain = domain if domain is not None else scale

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
        domain = TimeScale.discrete(sorted(table), scale.mode, scale.eps)
        return cls(scale, table=table, domain=domain)

    @property
    def is_tabulated(self) -> bool:
        return self.table is not None

    def __call__(self, t) -> Num:
        t = self.scale.require(t)
        if self.table is not None:
            try:
                return self.table[t]
            except KeyError:
                raise DomainError(f"{fmt_scalar(t)} is not tabulated") from None
        return self.func(t)

    def _binary(self, other, op, dop):
        if isinstance(other, ScaleFn):
            if self.table is not None or other.table is not None:
                base = self if self.table is not None else other
                keys = [t for t in base.domain.points() if t in other.domain or other.table is None]
                return ScaleFn.from_table(self.scale, {t: op(self(t), other(t)) for t in keys})
            deriv = None
            if self.deriv is not None and other.deriv is not None:
                deriv = dop(self, other)
            return ScaleFn(self.scale, func=lambda t: op(self.func(t), other.func(t)), deriv=deriv)
        const = other
        if self.table is not None:
            return ScaleFn.from_table(self.scale, {t: op(v, const) for t, v in self.table.items()})
        deriv = None
        if self.deriv is not None:
            deriv = dop(self, None)
        return ScaleFn(self.scale, func=lambda t: op(self.func(t), const), deriv=deriv)

    def __add__(self, other):
        return self._binary(
            other,
            lambda a, b: a + b,
            lambda f, g: (lambda t: f.deriv(t) + g.deriv(t)) if g is not None else f.deriv,
        )

    __radd__ = __add__

    def __mul__(self, other):
        def dprod(f, g):
            if g is None:
                return lambda t: f.deriv(t) * other
            return lambda t: f.deriv(t) * g.func(t) + f.func(t) * g.deriv(t)

        return self._binary(other, lambda a, b: a * b, dprod)

    __rmul__ = __mul__


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
    ``(float value, error_estimate, method)``.

    ``fn`` must be evaluable throughout the piece.  Uses the analytic
    derivative when the ScaleFn carries one, else a Richardson limit.
    """
    if isinstance(fn, ScaleFn) and fn.deriv is not None:
        return float(fn.deriv(t)), 0.0, ANALYTIC
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
    slope, est = richardson_limit(sample, h0, order=order, tol=tol, max_steps=LIMIT_MAX_STEPS)
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
    is used as given.
    """
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


def delta_quotient(scale: TimeScale, fn, t) -> Num:
    """Exact jump quotient (f(sigma(t)) - f(t)) / mu(t) at a right-scattered t."""
    t = scale.require(t)
    if scale.sigma(t) == t:
        raise DomainError(f"{fmt_scalar(t)} is right-dense, no jump quotient")
    return _delta_at(scale, fn, t)[0]


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
    dfg = delta_deriv(scale, f * g, t, tol).value
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


def _integrate(scale: TimeScale, a, b, point_value, dense_value, tol: float):
    """Delta integral driver shared by every integral in the package.

    ``point_value(t)`` is the exact integrand at a right-scattered t.
    ``dense_value(x)`` is the float-valued continuous restriction of the
    integrand at a quadrature node x of a dense piece."""
    a = scale.require(a)
    b = scale.require(b)
    if a > b:
        raise DomainError("integration range is reversed; integrate forward and negate")
    if a == b:
        return zero_of(scale)
    exact = zero_of(scale)
    dense_total = 0.0
    used_dense = False
    for kind, payload in _decompose(scale, a, b):
        if kind == "gap":
            t = payload
            exact = exact + scale.mu(t) * point_value(t)
        else:
            c, d = payload
            value, _ = adaptive_simpson(dense_value, float(c), float(d), tol)
            dense_total += value
            used_dense = True
    if used_dense:
        return float(exact) + dense_total
    return exact


def delta_integral(scale: TimeScale, fn, a, b, tol: float = QUAD_TOL) -> Num:
    """Delta integral of ``fn`` over [a, b]."""
    return _integrate(
        scale, a, b,
        point_value=fn,
        dense_value=lambda x: float(fn(x)),
        tol=tol,
    )


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

    ``G(t1, t2, m1, m2)`` is the integrand, told per axis whether it is
    evaluated at a right-scattered point (SCATTER) or at a quadrature
    node of a dense piece (DENSE)."""

    def inner(t1, m1):
        return _integrate(
            ax2, a2, b2,
            point_value=lambda t2: G(t1, t2, m1, SCATTER),
            dense_value=lambda x: float(G(t1, x, m1, DENSE)),
            tol=tol,
        )

    return _integrate(
        ax1, a1, b1,
        point_value=lambda t1: inner(t1, SCATTER),
        dense_value=lambda x: float(inner(x, DENSE)),
        tol=tol,
    )


def ibp_residual(scale: TimeScale, f, g, a, b, form: int = 1, tol: float = QUAD_TOL) -> Num:
    """Integration-by-parts residual over [a, b] for one of two forms.

    Form 1: int f(sigma) g' = [fg] - int f' g.
    Form 2: int f g' = [fg] - int f' g(sigma).
    The result is |lhs - rhs|, exactly zero on discrete rational scales.
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
    lhs = _integrate(
        scale, a, b,
        point_value=lambda t: f(f_at(t)) * _delta_at(scale, g, t)[0],
        dense_value=lambda x: float(f(x)) * _delta_at(scale, g, x, True)[0],
        tol=tol,
    )
    rest = _integrate(
        scale, a, b,
        point_value=lambda t: _delta_at(scale, f, t)[0] * g(g_at(t)),
        dense_value=lambda x: _delta_at(scale, f, x, True)[0] * float(g(x)),
        tol=tol,
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
                f"{slope!r} vs gap quotient {fmt_scalar(quot)}"
            )
    return findings
