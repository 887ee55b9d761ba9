"""Single-variable variational layer.

Covers the integral form of the stationarity condition (the velocity
partial along a candidate trajectory must equal the accumulated state
partial plus a constant), the definedness audit at a left-scattered
right endpoint, an exact fundamental-lemma kernel analyzer for finite
discrete scales, and a small coordinate-descent action minimizer used
as the oracle in tests.  The kernel analyzer reads its answer off the
pairing, whose matrix has at most one nonzero per row and per column,
instead of eliminating (see ``fl_kernel``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .calculus import ScaleFn, _delta_at, _integrate
from .errors import ConvergenceError, PreconditionError, UnsupportedScaleError
from .polyfn import Poly
from .quadrature import QUAD_TOL
from .scales import (Num, TimeScale, check_grid_size, fmt_scalar, json_object,
                     scalar_from_json, zero_of)

FD_STEP = 1e-6
# The coordinate-descent minimizers stop once every |gradient| is at most this.
NEWTON_GRAD_TOL = 1e-12

BUILTIN_LAGRANGIANS = {
    "v2": "v^2",
    "v2+y2": "v^2+y^2",
    "harmonic": "v^2-y^2",
}

_POLY_VARS = ("t", "y", "v")


def _lagrangian_partials(poly, variables: tuple, wrt: tuple) -> tuple:
    """The partials of ``poly`` in each of ``wrt``, once ``poly`` is a
    ``Poly`` over exactly ``variables``; anything else is refused."""
    if not (isinstance(poly, Poly) and poly.variables == variables):
        raise PreconditionError(f"the Lagrangian must be a Poly in ({', '.join(variables)})")
    return tuple(poly.diff(x) for x in wrt)


def _parse_lagrangian(spec, builtins: dict, variables: tuple) -> Poly:
    """Resolve ``builtin:<name>`` or ``poly:<expression>`` over ``variables``."""
    if not isinstance(spec, str):
        raise ValueError(f"lagrangian spec must be a string, got {spec!r}")
    if spec.startswith("builtin:"):
        name = spec[len("builtin:"):]
        try:
            return Poly.parse(builtins[name], variables)
        except KeyError:
            known = ", ".join(sorted(builtins))
            raise ValueError(f"unknown builtin Lagrangian {name!r}; known: {known}") from None
    if spec.startswith("poly:"):
        return Poly.parse(spec[len("poly:"):], variables)
    raise ValueError(f"lagrangian spec must start with 'builtin:' or 'poly:', got {spec!r}")


def lagrangian_from_spec(spec) -> Poly:
    """Resolve a Lagrangian definition string to a polynomial in (t, y, v).

    Accepts ``builtin:<name>`` for the registered shapes and
    ``poly:<expression>`` for inline polynomial text.
    """
    return _parse_lagrangian(spec, BUILTIN_LAGRANGIANS, _POLY_VARS)


@dataclass(frozen=True)
class VariationalProblem:
    """Fixed-endpoint problem: minimize the delta integral of
    L(t, y(sigma(t)), y_delta(t)) over [a, b] with y(a), y(b) given."""

    scale: TimeScale
    a: Num
    b: Num
    lagrangian: Poly
    ya: Optional[Num] = None
    yb: Optional[Num] = None
    # The scale restricted to [a, b], built once.
    world: TimeScale = field(init=False, repr=False, compare=False)
    # (L_y, L_v), worked out once.
    partials: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "partials",
                           _lagrangian_partials(self.lagrangian, _POLY_VARS, ("y", "v")))
        object.__setattr__(self, "a", self.scale.require(self.a))
        object.__setattr__(self, "b", self.scale.require(self.b))
        if not self.a < self.b:
            raise PreconditionError("need a < b")
        object.__setattr__(self, "world", self.scale.restrict(self.a, self.b))

    @classmethod
    def from_poly(cls, scale: TimeScale, a, b, poly: Poly,
                  ya=None, yb=None) -> "VariationalProblem":
        """The constructor under its older name."""
        return cls(scale, a, b, poly, ya, yb)

    @classmethod
    def from_json(cls, obj) -> "VariationalProblem":
        json_object(obj, "problem", ("scale", "a", "b", "lagrangian"))
        scale = TimeScale.from_json(obj["scale"])
        a = scalar_from_json(obj["a"], scale.mode)
        b = scalar_from_json(obj["b"], scale.mode)
        poly = lagrangian_from_spec(obj["lagrangian"])
        boundary = obj.get("boundary") or {}
        ya = scalar_from_json(boundary["ya"], scale.mode) if "ya" in boundary else None
        yb = scalar_from_json(boundary["yb"], scale.mode) if "yb" in boundary else None
        return cls(scale, a, b, poly, ya, yb)

    def partial_y(self, t, y, v):
        return self.partials[0](t, y, v)

    def partial_v(self, t, y, v):
        return self.partials[1](t, y, v)


@dataclass(frozen=True)
class ELReport:
    """Residuals of the integral-form stationarity condition."""

    residuals: tuple
    c_hat: Num
    max_abs_residual: Num
    definedness_findings: tuple

    @property
    def residual_fn(self) -> dict:
        return dict(self.residuals)


def definedness_audit(p: VariationalProblem) -> list:
    """Report whether the stationarity condition reaches the right endpoint."""
    if p.world.classify(p.b).left_scattered:
        rb = p.world.rho(p.b)
        return [
            f"b={fmt_scalar(p.b)} is left-scattered: the velocity partial there "
            f"needs the delta derivative of y at b, which is undefined at a "
            f"left-scattered maximum; the integral-form condition holds only on "
            f"[{fmt_scalar(p.a)}, {fmt_scalar(rb)}]",
            "transversality-style conditions that evaluate the velocity partial "
            "at b are unsupported on this scale",
        ]
    return ["no gap"]


def el_residual(p: VariationalProblem, y_hat, dense_refinement: int = 32,
                tol: float = QUAD_TOL) -> ELReport:
    """Residual r(t) = L_v(t) - integral of L_y from a to t - c_hat.

    Evaluated on [a, rho(b)], with dense pieces grid-sampled; c_hat is
    the least-squares constant (the mean of the raw residuals).  A grid
    above ``GRID_MAX_POINTS`` points raises ``PreconditionError``."""
    world = p.world
    rb = world.rho(p.b)

    def traj(t, dense=False):
        """(t, y(sigma(t)), y_delta(t)); sigma(t) = t at dense nodes."""
        return t, y_hat(t if dense else world.sigma(t)), _delta_at(world, y_hat, t, dense)[0]

    def ly_point(tau):
        return p.partial_y(*traj(tau))

    def ly_dense(x):
        return float(p.partial_y(*traj(x, True)))

    span = world.restrict(p.a, rb)
    check_grid_size(dense_refinement, span)
    pts = span.grid(dense_refinement)
    raw = []
    acc = zero_of(world)
    prev = pts[0]
    for t in pts:
        if t != prev:
            acc = acc + _integrate(world, prev, t, ly_point, ly_dense, tol)
            prev = t
        raw.append((t, p.partial_v(*traj(t)) - acc))

    c_hat = sum(r for _, r in raw) / len(raw)
    residuals = tuple((t, r - c_hat) for t, r in raw)
    max_abs = max(abs(r) for _, r in residuals)
    return ELReport(
        residuals=residuals,
        c_hat=c_hat,
        max_abs_residual=max_abs,
        definedness_findings=tuple(definedness_audit(p)),
    )


@dataclass(frozen=True)
class KernelReport:
    """Which points the all-variations orthogonality argument pins to zero."""

    variant: str
    a: Num
    b: Num
    constrained: tuple
    unconstrained: tuple
    claimed_domain: tuple
    claim_holds: bool
    rank: int


def fl_kernel(scale: TimeScale, variant: str, a=None, b=None) -> KernelReport:
    """Fundamental-lemma analysis on a finite discrete range.

    Treats the unknown M as one value per evaluation point and the test
    function as free values at interior points (zero at a and b), then
    reports which M-values orthogonality to every test function forces
    to zero.  The delta variant pairs M(t) with the test function at
    sigma(t) under weight mu(t) over [a, b); the nabla variant pairs
    M(t) with the test function at t under weight nu(t) over (a, b].

    Column t of the pairing matrix (rows: interior points) has one
    possible entry, in the row of its paired point, and that entry is
    mu(t) or nu(t) > 0; sigma is injective, so no two columns share a
    row.  Elimination would pivot on exactly the columns that have their
    entry, so M(t) is forced to zero iff its paired point is interior
    (for delta, sigma(t) > t >= a, so only sigma(t) < b is tested), and
    the rank is the number of such t.
    """
    if variant not in ("delta", "nabla"):
        raise ValueError("variant must be 'delta' or 'nabla'")
    a = scale.require(a) if a is not None else scale.min
    b = scale.require(b) if b is not None else scale.max
    sub = scale.restrict(a, b)
    if not sub.is_discrete:
        raise UnsupportedScaleError("kernel analysis requires a purely discrete range")
    pts = sub.points()
    if len(pts) < 2:
        raise PreconditionError("need at least two points")

    if variant == "delta":
        cols = [t for t in pts if t < b]
        claimed = tuple(sub.truncate_k2().points())
        pinned = {t for t in cols if sub.sigma(t) < b}
    else:
        cols = claimed = tuple(pts)
        pinned = set(pts[1:-1])
    constrained = tuple(t for t in cols if t in pinned)
    return KernelReport(
        variant=variant,
        a=a,
        b=b,
        constrained=constrained,
        unconstrained=tuple(t for t in cols if t not in pinned),
        claimed_domain=claimed,
        claim_holds=set(claimed) <= pinned,
        rank=len(constrained),
    )


def _coordinate_newton(state: dict, keys: list, grad: Callable, finish: Callable,
                       max_sweeps: int):
    """Move ``state[k]`` for each interior key in turn by a Newton step.

    ``grad(k)`` reads the current ``state``; the curvature comes from a
    central difference of ``grad``.  Stops once every |gradient| is at
    most ``NEWTON_GRAD_TOL`` and returns ``finish(state)``; otherwise raises
    ``ConvergenceError`` with ``finish`` of the best state seen."""
    if not keys:
        return finish(state)
    best = (float("inf"), dict(state))
    for _ in range(max_sweeps):
        for k in keys:
            g = grad(k)
            h = FD_STEP * max(1.0, abs(state[k]))
            saved = state[k]
            state[k] = saved + h
            g_hi = grad(k)
            state[k] = saved - h
            g_lo = grad(k)
            state[k] = saved
            curvature = (g_hi - g_lo) / (2.0 * h)
            if curvature > 1e-12:
                state[k] -= g / curvature
            else:
                state[k] -= g
        gmax = max(abs(grad(k)) for k in keys)
        if gmax < best[0]:
            best = (gmax, dict(state))
        if gmax <= NEWTON_GRAD_TOL:
            return finish(state)
    raise ConvergenceError(
        f"coordinate descent stalled at max |gradient| = {best[0]:.3e}",
        estimate=finish(best[1]),
        error=best[0],
    )


def brute_force_minimizer(p: VariationalProblem) -> ScaleFn:
    """Minimize the discrete action by coordinate descent with Newton steps.

    The action is the sum of mu(t) L(t, y(sigma(t)), y_delta(t)) over
    [a, b).  Interior values move one at a time; boundary values stay
    fixed.  Converges to max |gradient| <= ``NEWTON_GRAD_TOL`` within
    2,000 sweeps; intended for convex L.
    """
    if not p.world.is_discrete:
        raise UnsupportedScaleError("brute-force minimization requires a discrete range")
    pts = p.world.points()
    n = len(pts)
    if n > 12:
        raise PreconditionError(f"brute force capped at 12 points, got {n}")
    if p.ya is None or p.yb is None:
        raise PreconditionError("boundary values ya, yb are required")

    fl = [float(t) for t in pts]
    mu = [fl[i + 1] - fl[i] for i in range(n - 1)]
    ya, yb = float(p.ya), float(p.yb)
    y = {i: ya + (yb - ya) * (fl[i] - fl[0]) / (fl[-1] - fl[0]) for i in range(n)}
    y[0], y[n - 1] = ya, yb

    def grad(i):
        # Cells touching y[i]: the cell at rho (via the state and the
        # quotient) and the cell at t itself (via the quotient).
        q_prev = (y[i] - y[i - 1]) / mu[i - 1]
        g = mu[i - 1] * float(p.partial_y(fl[i - 1], y[i], q_prev))
        g += float(p.partial_v(fl[i - 1], y[i], q_prev))
        q_here = (y[i + 1] - y[i]) / mu[i]
        g -= float(p.partial_v(fl[i], y[i + 1], q_here))
        return g

    def finish(values):
        return ScaleFn.from_table(p.scale, {t: values[i] for i, t in enumerate(pts)})

    return _coordinate_newton(y, list(range(1, n - 1)), grad, finish, 2000)
