"""Single-variable variational layer.

Covers the integral form of the stationarity condition (the velocity
partial along a candidate trajectory must equal the accumulated state
partial plus a constant), the definedness audit at a left-scattered
right endpoint, an exact fundamental-lemma kernel analyzer for finite
discrete scales, and a Newton action minimizer on the exact Hessian
used as the oracle in tests.  The kernel analyzer reads its answer off the
pairing, whose matrix has at most one nonzero per row and per column,
instead of eliminating (see ``fl_kernel``).

Exact sums are carried in integers, as ``calculus._exact_sum`` carries them:
``el_residual``'s running integral and raw residuals over one running
denominator, and each entry of the minimizer's gradient and Hessian as one
sum over the cells that touch it.  Float and ``Poly`` operands get the
written expressions, so float results keep their bits.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .calculus import (ScaleFn, _classical_slope, _data, _delta_at, _dense_steps, _exact_sum,
                       _quotient, _ratio_sum, _symbolic)
from .errors import ConvergenceError, PreconditionError, UnsupportedScaleError
from .polyfn import Poly, PolyTuple, _fraction
from .quadrature import LIMIT_TOL, QUAD_TOL
from .scales import (RATIONAL, Num, TimeScale, _Record, check_grid_size, fmt_scalar,
                     json_object, scalar_from_json, zero_of)

# The minimizers' float Newton loop stops at max |gradient| <= NEWTON_GRAD_TOL,
# or fails after NEWTON_MAX_STEPS steps.  They refuse more interior unknowns
# than MINIMIZER_MAX_UNKNOWNS: exact elimination on an n x n grid takes about
# n^4 Fraction operations, on numbers that grow with the fill.
NEWTON_GRAD_TOL = 1e-12
NEWTON_MAX_STEPS = 50
MINIMIZER_MAX_UNKNOWNS = 200

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


class VariationalProblem(_Record):
    """Fixed-endpoint problem: minimize the delta integral of
    L(t, y(sigma(t)), y_delta(t)) over [a, b] with y(a), y(b) given."""

    # Neither shown nor compared: ``world``, the scale restricted to [a, b],
    # built once, and ``partials``, (L_y, L_v), worked out once.
    _shown = _compared = ("scale", "a", "b", "lagrangian", "ya", "yb")

    def __init__(self, scale: TimeScale, a: Num, b: Num, lagrangian: Poly,
                 ya: Num | None = None, yb: Num | None = None):
        partials = _lagrangian_partials(lagrangian, _POLY_VARS, ("y", "v"))
        a, b = scale.require(a), scale.require(b)
        if not a < b:
            raise PreconditionError("need a < b")
        vars(self).update(scale=scale, a=a, b=b, lagrangian=lagrangian, ya=ya, yb=yb,
                          world=scale.restrict(a, b), partials=partials)

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
        boundary = obj.get("boundary")
        boundary = {} if boundary is None else json_object(boundary, "problem 'boundary'")
        ya = scalar_from_json(boundary["ya"], scale.mode) if "ya" in boundary else None
        yb = scalar_from_json(boundary["yb"], scale.mode) if "yb" in boundary else None
        return cls(scale, a, b, poly, ya, yb)

    def partial_y(self, t, y, v):
        return self.partials[0](t, y, v)

    def partial_v(self, t, y, v):
        return self.partials[1](t, y, v)


class ELReport(_Record):
    """Residuals of the integral-form stationarity condition."""

    _shown = _compared = ("residuals", "c_hat", "max_abs_residual", "definedness_findings")

    def __init__(self, residuals: tuple, c_hat: Num, max_abs_residual: Num,
                 definedness_findings: tuple):
        vars(self).update(residuals=residuals, c_hat=c_hat, max_abs_residual=max_abs_residual,
                          definedness_findings=definedness_findings)


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

    Evaluated on the grid of [a, rho(b)]; c_hat is the least-squares
    constant (the mean of the raw residuals).  A walk reads each grid point
    once, by piece index, and lists L_v(t) with the step of the integral
    that ends at t: mu L_y across a gap, or a dense step over [prev, t] of
    ``calculus._dense_steps``, as ``_integrate`` takes it.  One pass then
    adds the steps.  A grid above ``GRID_MAX_POINTS`` points raises
    ``PreconditionError``.

    While every step and L_v is an int or a Fraction, the pass adds in
    integers: the integral and each raw residual over one running
    denominator (``_ratio_sum``), and c_hat, each centred residual and the
    largest |residual| as one Fraction each.  Otherwise it adds the list
    from the top with the written expressions, which give the same
    Fractions on an exact prefix, so floats keep their bits."""
    world = p.world
    span = world.truncate_k()  # [a, rho(b)]
    check_grid_size(dense_refinement, span)
    # Grid points and nodes lie in the scale: y reads them with no lookup.
    y_hat, y = _data(world, y_hat)

    def ly_on(i):
        # (x, y(x), y_delta(x)) at a node x of the dense piece i: sigma(x) = x there.
        return lambda x: p.partial_y(x, y(x), _delta_at(world, y_hat, (i, x), x)[0])

    # The walk: (t, L_v(t), step), the step a (weight, value) pair or None.
    walk, dense, step = [], None, None
    for i, (lo, hi) in enumerate(span.pieces):
        if i:
            # The gap after the last point, whose y(sigma) is y at lo.
            step, y_lo = (world._gaps[i - 1], p.partial_y(*args)), y_st
        for t in world._piece_grid(lo, hi, dense_refinement):
            if t is not lo and t != prev:
                if dense is None:
                    dense = _dense_steps(world, ly_on, i, _symbolic(y_hat), tol, False)[0]
                step = (1, dense(i, prev, t))
            prev = t
            # (t, y(sigma(t)), y_delta(t)), for L_v here and L_y at the gap
            # after a right-scattered t, where y(sigma(t)) is read first.
            st = world._sigma_at(i, t)
            if st is t:
                y_t = y_lo if i and t is lo else y(t)
                args = (t, y_t, _classical_slope(world, y_hat, t, (lo, hi), LIMIT_TOL)[0])
            else:
                y_st = y(st)
                y_t = y_lo if i and t is lo else y(t)
                args = (t, y_st, _quotient(y_st, y_t, world._gaps[i]))
            walk.append((t, p.partial_v(*args), step))
            step = None

    # The pass, in integers: the integral is num / den, and raw holds
    # (t, n, d), the raw residual at t as n / d, where d divides den.
    num, den, raw = 0, 1, []
    if world.mode == RATIONAL:
        for t, lv, step in walk:
            if step is not None:
                num, den, rest = _ratio_sum(num, den, (step,))
                if rest is not None:
                    break
            # L_v - num / den, over a denominator that den then takes on.
            n, d, rest = _ratio_sum(-num, den, ((1, lv),))
            if rest is not None:
                break
            raw.append((t, n, d))
            num, den = num * (d // den), d

    if len(raw) == len(walk):
        # Over den, a multiple of every d, the raw residuals sum to one integer.
        c_hat = _fraction(sum(n * (den // d) for _, n, d in raw), den * len(raw))
        cn, cd = c_hat.as_integer_ratio()
        residuals, top = [], (0, 1)
        for t, n, d in raw:
            n, d = n * cd - cn * d, d * cd
            residuals.append((t, _fraction(n, d)))
            if abs(n) * top[1] > top[0] * d:
                top = abs(n), d
        residuals, max_abs = tuple(residuals), _fraction(*top)
    else:
        # The written fold.  Exact residuals are summed in integers, floats
        # left to right: the builtin sum compensates float sums from Python
        # 3.12 on.
        acc, raw = zero_of(world), []
        for t, lv, step in walk:
            if step is not None:
                acc = acc + step[0] * step[1]
            raw.append((t, lv - acc))
        c_hat = _exact_sum(0, ((1, r) for _, r in raw)) / len(raw)
        residuals = tuple((t, r - c_hat) for t, r in raw)
        max_abs = max(abs(r) for _, r in residuals)
    return ELReport(
        residuals=residuals,
        c_hat=c_hat,
        max_abs_residual=max_abs,
        definedness_findings=tuple(definedness_audit(p)),
    )


class KernelReport(_Record):
    """Which points the all-variations orthogonality argument pins to zero."""

    _shown = _compared = ("variant", "a", "b", "constrained", "unconstrained", "claimed_domain",
                          "claim_holds", "rank")

    def __init__(self, variant: str, a: Num, b: Num, constrained: tuple, unconstrained: tuple,
                 claimed_domain: tuple, claim_holds: bool, rank: int):
        vars(self).update(variant=variant, a=a, b=b, constrained=constrained,
                          unconstrained=unconstrained, claimed_domain=claimed_domain,
                          claim_holds=claim_holds, rank=rank)


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

    # By index among the n points the pinned columns are one run, cols[lo:hi]:
    # sigma(t) < b for all but the last two points (delta), and the interior
    # (nabla).  The claimed domain is a run of points from a, so the claim
    # holds iff that run starts at lo and ends by hi.
    n = len(pts)
    if variant == "delta":
        cols, lo, hi = pts[:-1], 0, n - 2
        claimed = tuple(sub.truncate_k2().points())
    else:
        cols, lo, hi = pts, 1, n - 1
        claimed = tuple(pts)
    return KernelReport(
        variant=variant,
        a=a,
        b=b,
        constrained=tuple(cols[lo:hi]),
        unconstrained=tuple(cols[:lo] + cols[hi:]),
        claimed_domain=claimed,
        claim_holds=lo == 0 and len(claimed) <= hi,
        rank=hi - lo,
    )


def _check_unknowns(count: int) -> None:
    if count > MINIMIZER_MAX_UNKNOWNS:
        raise PreconditionError(f"{count} unknowns is above the limit {MINIMIZER_MAX_UNKNOWNS}")


def _newton_minimize(first: tuple, wrt: tuple, cells: list, values: dict,
                     unknowns: list, rational: bool, finish: Callable):
    """Minimize the sum over ``cells`` of ``w * L(*targs, *states)`` in the
    values at ``unknowns``, the other ``values`` fixed; return ``finish(values)``.

    A cell is ``(w, targs, forms)``: state ``wrt[a]`` is the sum of
    ``c * values[key]`` over the ``(c, key)`` pairs of ``forms[a]``.  The
    gradient and Hessian follow by the chain rule from L's partials
    ``first``: each entry is one ``_exact_sum`` over the cells that touch it,
    in integers on an exact problem and in cell order on floats.  Each
    Newton step is solved by elimination in the order of ``unknowns``,
    without pivoting, so fill stays inside the band; a pivot <= 0 shows that
    the action is not strictly convex, and the Hessian at the returned point
    is always factored.  On a rational problem with L of degree <= 2 in
    ``wrt`` the arithmetic is exact and one step lands on the minimizer;
    otherwise floats run to ``NEWTON_GRAD_TOL``."""
    second = [(a, b, h) for a, d in enumerate(first)
              for b, h in enumerate(d.diff(x) for x in wrt) if h.terms]
    exact = rational and not any(h.diff(x).terms for _, _, h in second for x in wrt)
    first_at, second_at = PolyTuple(first), PolyTuple(h for _, _, h in second)
    num, tol = (Fraction, 0) if exact else (float, NEWTON_GRAD_TOL)
    values = {k: num(v) for k, v in values.items()}
    pos = {k: r for r, k in enumerate(unknowns)}
    # Each form becomes its fixed part and its (c, position) pairs over x.
    cells = [(num(w), tuple(map(num, targs)),
              tuple((sum(num(c) * values[k] for c, k in f if k not in pos),
                     [(num(c), pos[k]) for c, k in f if k in pos]) for f in forms))
             for w, targs, forms in cells]
    # Each gradient entry is a sum of c * (w * L_a) terms and each upper
    # Hessian entry a sum of (c1 * c2) * (w * h) terms: listed once, in the
    # order the cells are walked, as (coefficient, cell, partial).
    grad_terms = [[] for _ in unknowns]
    hess_terms = {}
    for k, (_, _, forms) in enumerate(cells):
        for a, (_, form) in enumerate(forms):
            for c, r in form:
                grad_terms[r].append((c, k, a))
        for j, (a, b, _) in enumerate(second):
            for c1, r in forms[a][1]:
                for c2, s in forms[b][1]:
                    if r <= s:
                        hess_terms.setdefault((r, s), []).append((c1 * c2, k, j))

    def state(c0, form):
        if exact:
            return _exact_sum(c0, ((c, x[r]) for c, r in form))
        return c0 + sum(c * x[r] for c, r in form)

    x = [values[k] for k in unknowns]
    for step in range(NEWTON_MAX_STEPS + 1):
        at = [(w, targs + tuple(state(c0, f) for c0, f in forms)) for w, targs, forms in cells]
        wd = [[w * d for d in first_at(*args)] for w, args in at]
        grad = [_exact_sum(0, ((c, wd[k][a]) for c, k, a in terms)) for terms in grad_terms]
        gmax = max(map(abs, grad), default=0)
        # The Hessian is factored at every point that may be returned, a
        # stationary start included.  An exact problem's is constant, so the
        # one factored at step 0 also certifies the point that step lands on.
        if exact and step:
            break
        wh = [[w * h for h in second_at(*args)] for w, args in at]
        # upper[r]: row r of the Hessian from the diagonal on, {column: entry}.
        upper = [{} for _ in x]
        for (r, s), terms in hess_terms.items():
            upper[r][s] = _exact_sum(0, ((c, wh[k][j]) for c, k, j in terms))
        for r, row in enumerate(upper):
            pivot = row.get(r, 0)
            if not pivot > 0:
                key = unknowns[r] if isinstance(unknowns[r], tuple) else (unknowns[r],)
                raise PreconditionError(f"the action is not strictly convex: Hessian pivot "
                                        f"{fmt_scalar(pivot)} at the unknown value at "
                                        f"({', '.join(map(fmt_scalar, key))})")
            for s, h in row.items():
                if s > r:
                    ratio = h / pivot
                    for c, hc in row.items():
                        if c >= s:
                            upper[s][c] = upper[s].get(c, 0) - ratio * hc
                    grad[s] -= ratio * grad[r]
        if gmax <= tol or step == NEWTON_MAX_STEPS:
            break
        # Back substitution turns grad into the Newton step, last unknown first.
        for r in reversed(range(len(x))):
            row = upper[r]
            grad[r] = (grad[r] - sum(h * grad[c] for c, h in row.items() if c > r)) / row[r]
            x[r] -= grad[r]
    values.update(zip(unknowns, x))
    if gmax > tol:
        raise ConvergenceError(f"Newton's method stopped at max |gradient| = {gmax:.3e} "
                               f"after {NEWTON_MAX_STEPS} steps", estimate=finish(values),
                               error=gmax)
    return finish(values)


def brute_force_minimizer(p: VariationalProblem) -> ScaleFn:
    """Minimize the discrete action, the sum of mu(t) L(t, y(sigma(t)), y_delta(t))
    over [a, b), in the interior values by ``_newton_minimize``.  Its Hessian
    is tridiagonal; the action must be strictly convex."""
    if not p.world.is_discrete:
        raise UnsupportedScaleError("brute-force minimization requires a discrete range")
    pts = p.world.points()
    _check_unknowns(len(pts) - 2)
    if p.ya is None or p.yb is None:
        raise PreconditionError("boundary values ya, yb are required")

    a, b = pts[0], pts[-1]
    values = {t: p.ya + (p.yb - p.ya) * (t - a) / (b - a) for t in pts[1:-1]}
    values[a], values[b] = p.ya, p.yb
    # Cell [t, s): y = y(s) and v = (y(s) - y(t)) / mu.
    cells = [(mu, (t,), (((1, s),), ((1 / mu, s), (-1 / mu, t))))
             for t, s, mu in zip(pts, pts[1:], p.world._gaps)]
    return _newton_minimize(p.partials, ("y", "v"), cells, values, pts[1:-1],
                            p.scale.mode == RATIONAL, lambda v: ScaleFn.from_table(p.scale, v))
