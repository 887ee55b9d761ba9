"""Two-variable layer on product time scales.

Provides double delta integrals (iterated, second axis first) with a
Fubini residual, the first variation of a double-integral action, the
combined stationarity kernel on the truncated rectangle, and a
step-by-step verification of the summation-by-parts chain that reduces
the first variation to the kernel paired with the shifted variation.

The chain is verified exactly on purely discrete rational product
scales.  On hybrid scales only the two endpoints of the chain are
compared, exactly on rational axes with polynomial data and numerically
otherwise; intermediate steps rely on pointwise strip identities that
only make sense with scattered right endpoints.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .calculus import AxesFn, _delta_at, _exact_sum, _iterated, _quotient
from .errors import DomainError, PreconditionError, UnsupportedScaleError
from .polyfn import Poly, PolyTuple
from .quadrature import QUAD_TOL
from .scales import (RATIONAL, Num, TimeScale, _Record, check_grid_size, fmt_scalar,
                     json_object, scalar_from_json, zero_of)
from .variational import (_check_unknowns, _lagrangian_partials, _newton_minimize,
                          _parse_lagrangian)

_POLY2_VARS = ("t1", "t2", "y0", "y1", "y2")

BUILTIN_LAGRANGIANS_2D = {
    "grad2": "y1^2+y2^2",
    "mass": "y0^2",
    "grad2+mass": "y1^2+y2^2+y0^2",
}


class ProductScale(_Record):
    """Two independent axes; the rectangle lives in their product."""

    _shown = _compared = ("scale1", "scale2")

    def __init__(self, scale1: TimeScale, scale2: TimeScale):
        vars(self).update(scale1=scale1, scale2=scale2)

    def rect(self, a1, b1, a2, b2) -> tuple:
        a1 = self.scale1.require(a1)
        b1 = self.scale1.require(b1)
        a2 = self.scale2.require(a2)
        b2 = self.scale2.require(b2)
        if not (a1 < b1 and a2 < b2):
            raise PreconditionError("need a1 < b1 and a2 < b2")
        return (a1, b1, a2, b2)


class SurfaceFn(AxesFn):
    """Real-valued function on a product scale: an ``AxesFn`` on the two axes
    ``scale1``, ``scale2``, a callable with optional classical partials, or
    a table of rows over the first axis's point index, each a list over the
    second's."""

    __slots__ = ()
    _json = ("2-D table", ("scale1", "scale2"))

    def __init__(self, scale1, scale2, func=None, d1fn=None, d2fn=None, table=None):
        super().__init__((scale1, scale2), func, (d1fn, d2fn), table)

    scale1 = property(lambda self: self.axes[0])
    scale2 = property(lambda self: self.axes[1])
    # val(t1, t2): the reader, under the name the double layer reads by; an
    # entry point reads its data bound to the axes it integrates over (``on``).
    val = AxesFn.__call__

    @classmethod
    def from_callable(cls, scale1: TimeScale, scale2: TimeScale, func: Callable,
                      d1: Callable | None = None,
                      d2: Callable | None = None) -> "SurfaceFn":
        """Wrap ``func``; a two-variable ``Poly`` supplies the partial
        derivative on each axis that is not given."""
        return cls(scale1, scale2, func, d1, d2)

    @classmethod
    def from_table(cls, scale1: TimeScale, scale2: TimeScale, values) -> "SurfaceFn":
        """Tabulate on discrete axes: ``values`` is a dict keyed by (t1, t2)
        or a list of rows, row-major by t1, covering the full grid."""
        return cls._tabulated((scale1, scale2), values, "tabulated surfaces require discrete axes")

    def d1(self, t1, t2) -> Num:
        """Axis-1 delta derivative holding t2 fixed."""
        bound = self.on(*self.axes)
        return _delta_at(self.scale1, bound.section(0, (t1, self.scale2.require(t2))),
                         self.scale1._find(t1))[0]

    def d2(self, t1, t2) -> Num:
        """Axis-2 delta derivative holding t1 fixed."""
        bound = self.on(*self.axes)
        return _delta_at(self.scale2, bound.section(1, (self.scale1.require(t1), t2)),
                         self.scale2._find(t2))[0]


def surface_from_json(obj) -> SurfaceFn:
    """Load a 2-D table: {"scale1":…, "scale2":…, "values":[[…],…]} row-major by t1."""
    return SurfaceFn._from_json(obj)


def sigma_diff_audit(ax1: TimeScale, ax2: TimeScale) -> list:
    """Flag axes whose forward jump fails delta differentiability.

    That happens exactly at left-dense right-scattered points, where
    the forward jump is discontinuous from the left."""
    findings = []
    for name, ax in (("axis 1", ax1), ("axis 2", ax2)):
        for lo, hi in ax.pieces:
            if ax.classify(hi).breaks_sigma_continuity:
                findings.append(
                    f"{name}: left-dense right-scattered point at t={fmt_scalar(hi)}; "
                    f"the forward jump is discontinuous there, so it cannot be "
                    f"delta differentiable"
                )
    return findings


class DoubleProblem(_Record):
    """Minimize the double delta integral of
    L(t1, t2, u(sigma1, sigma2), u_delta1(t1, sigma2), u_delta2(sigma1, t2))
    over a rectangle with boundary data fixed."""

    _shown = ("ps", "a1", "b1", "a2", "b2", "lagrangian", "boundary")
    # Compared but not shown: the axes restricted to the rectangle and their
    # audit.  Neither: ``partials``, (L_y0, L_y1, L_y2), worked out once, and
    # ``joint``, their joint evaluator.
    _compared = _shown + ("ax1", "ax2", "audit_findings")

    def __init__(self, ps: ProductScale, a1: Num, b1: Num, a2: Num, b2: Num, lagrangian: Poly,
                 boundary: Callable | None = None):
        partials = _lagrangian_partials(lagrangian, _POLY2_VARS, ("y0", "y1", "y2"))
        a1, b1, a2, b2 = ps.rect(a1, b1, a2, b2)
        ax1, ax2 = ps.scale1.restrict(a1, b1), ps.scale2.restrict(a2, b2)
        vars(self).update(ps=ps, a1=a1, b1=b1, a2=a2, b2=b2, lagrangian=lagrangian,
                          boundary=boundary, ax1=ax1, ax2=ax2,
                          audit_findings=tuple(sigma_diff_audit(ax1, ax2)),
                          partials=partials, joint=PolyTuple(partials))

    @classmethod
    def from_json(cls, obj) -> "DoubleProblem":
        json_object(json_object(obj, "problem"), "double problem",
                    ("scale1", "scale2", "lagrangian"))
        scale1 = TimeScale.from_json(obj["scale1"])
        scale2 = TimeScale.from_json(obj["scale2"])
        ps = ProductScale(scale1, scale2)

        def corner(key, default):
            if key in obj:
                mode = scale1.mode if key[-1] == "1" else scale2.mode
                return scalar_from_json(obj[key], mode)
            return default

        a1 = corner("a1", scale1.min)
        b1 = corner("b1", scale1.max)
        a2 = corner("a2", scale2.min)
        b2 = corner("b2", scale2.max)
        poly = _parse_lagrangian(obj["lagrangian"], BUILTIN_LAGRANGIANS_2D, _POLY2_VARS)
        boundary = None
        if "boundary" in obj:
            boundary = Poly.parse(str(obj["boundary"]), ("t1", "t2"))
        return cls(ps, a1, b1, a2, b2, poly, boundary)

    def partial_y0(self, *args):
        return self.partials[0](*args)

    def partial_y1(self, *args):
        return self.partials[1](*args)

    def partial_y2(self, *args):
        return self.partials[2](*args)


# -- double integrals -------------------------------------------------------


def _surface_integrand(ps: ProductScale, f: SurfaceFn):
    """``f`` bound to the axes of ``ps``, as an ``_iterated`` integrand."""
    f = f.on(ps.scale1, ps.scale2)
    return lambda p1, p2: f.val(p1[1], p2[1])


def double_integral(ps: ProductScale, f: SurfaceFn, rect, tol: float = QUAD_TOL) -> Num:
    """Iterated double delta integral over the rectangle, t2 axis first."""
    a1, b1, a2, b2 = ps.rect(*rect)
    return _iterated(ps.scale1, ps.scale2, a1, b1, a2, b2, _surface_integrand(ps, f), tol)


def fubini_residual(ps: ProductScale, f: SurfaceFn, rect, tol: float = QUAD_TOL) -> Num:
    """|iterated t2-first minus iterated t1-first|; exactly 0 on discrete
    rational scales, and on rational hybrid scales for a polynomial ``f``."""
    a1, b1, a2, b2 = ps.rect(*rect)
    G = _surface_integrand(ps, f)
    one = _iterated(ps.scale1, ps.scale2, a1, b1, a2, b2, G, tol)
    two = _iterated(ps.scale2, ps.scale1, a2, b2, a1, b1, lambda p2, p1: G(p1, p2), tol)
    return abs(one - two)


# -- trajectory plumbing ----------------------------------------------------


def _traj_args(dp: DoubleProblem, u: SurfaceFn, p1, p2) -> tuple:
    """The argument tuple (t1, t2, u(x1,x2), u_delta1(t1,x2), u_delta2(x1,t2))
    at the places ``p1`` on ``dp.ax1`` and ``p2`` on ``dp.ax2``, of ``u``
    bound to those axes.

    A place is ``(i, t, x, mu)``, t a point or node of piece i (``_iterated``,
    ``_place``, ``_past``), and u is read at x: sigma(t) at a gap, with its
    graininess mu, else t or the exact point a float sample stands for (mu
    None).  The slope is the jump quotient across mu, else ``_delta_at`` at
    x, its own jump.  Each distinct value of u is read once."""
    (i1, t1, x1, mu1), (i2, t2, x2, mu2) = p1, p2
    u_ss = u.val(x1, x2)
    u_d1 = (_quotient(u_ss, u.val(t1, x2), mu1) if mu1 is not None
            else _delta_at(dp.ax1, u.section(0, (x1, x2)), (i1, x1), x1)[0])
    u_d2 = (_quotient(u_ss, u.val(x1, t2), mu2) if mu2 is not None
            else _delta_at(dp.ax2, u.section(1, (x1, x2)), (i2, x2), x2)[0])
    return (t1, t2, u_ss, u_d1, u_d2)


def _require_vanishes_on_boundary(dp: DoubleProblem, eta: SurfaceFn):
    bad = []

    def check(t1, t2):
        v = eta.val(t1, t2)
        nonzero = (v != 0) if isinstance(v, (int, Fraction)) else abs(float(v)) > 1e-12
        if nonzero:
            bad.append((t1, t2))

    for t2 in dp.ax2.grid(8):
        check(dp.a1, t2)
        check(dp.b1, t2)
    for t1 in dp.ax1.grid(8):
        check(t1, dp.a2)
        check(t1, dp.b2)
    if bad:
        t1, t2 = bad[0]
        raise PreconditionError(
            f"variation must vanish on the rectangle boundary; nonzero at "
            f"({fmt_scalar(t1)}, {fmt_scalar(t2)}) and {len(bad) - 1} more point(s)"
        )
    # Samples cannot clear a polynomial along a dense edge: its restriction
    # to the edge's line must vanish.
    if isinstance(eta.func, Poly):
        for k, ends, axis, along in ((0, (dp.a1, dp.b1), dp.ax1, dp.ax2),
                                     (1, (dp.a2, dp.b2), dp.ax2, dp.ax1)):
            for end in ends:
                if not along.is_discrete and _nonzero_along(eta.func, k, end, axis.mode):
                    raise PreconditionError(
                        f"variation must vanish on the rectangle boundary; nonzero "
                        f"along the edge t{k + 1} = {fmt_scalar(end)}")


def _nonzero_along(poly: Poly, k: int, end, mode: str) -> bool:
    """Whether ``poly`` with variable k set to ``end`` is not zero.  An exact
    ``end`` must give the zero polynomial.  A float one is the rounding of
    the end as written, which ``poly``'s exact coefficients need not
    share (0.1 is not 1/10), so each coefficient of the restriction, taken at
    the float's exact value, is held to the samples' tolerance 1e-12."""
    if mode == RATIONAL:
        return poly.subs(k, end) != 0
    x, rest = Fraction(end), {}
    for expo, c in poly.terms.items():
        key = expo[:k] + expo[k + 1:]
        rest[key] = rest.get(key, 0) + c * x ** expo[k]
    return any(abs(c) > 1e-12 for c in rest.values())


def action(dp: DoubleProblem, u: SurfaceFn, tol: float = QUAD_TOL) -> Num:
    """The double delta integral of the composed integrand over the rectangle."""
    u = u.on(dp.ax1, dp.ax2)
    return _iterated(dp.ax1, dp.ax2, dp.a1, dp.b1, dp.a2, dp.b2,
                     lambda p1, p2: dp.lagrangian(*_traj_args(dp, u, p1, p2)), tol)


def first_variation(dp: DoubleProblem, u_tilde: SurfaceFn, eta: SurfaceFn,
                    tol: float = QUAD_TOL) -> Num:
    """Directional derivative of the action at u_tilde along eta.

    Integrates L_y0 eta(s1,s2) + L_y1 eta_delta1(t1,s2) + L_y2
    eta_delta2(s1,t2) over the rectangle, t2 axis first.  eta must
    vanish on the boundary."""
    _require_vanishes_on_boundary(dp, eta)
    return _first_variation(dp, u_tilde, eta, tol)


def _first_variation(dp: DoubleProblem, u_tilde: SurfaceFn, eta: SurfaceFn,
                     tol: float = QUAD_TOL) -> Num:
    """``first_variation`` with no boundary check, for a caller that made it."""
    zero = zero_of(dp.ax1)
    u_tilde, eta = u_tilde.on(dp.ax1, dp.ax2), eta.on(dp.ax1, dp.ax2)

    def G(p1, p2):
        args = _traj_args(dp, u_tilde, p1, p2)
        _, _, e_ss, e_d1, e_d2 = _traj_args(dp, eta, p1, p2)
        l0, l1, l2 = dp.joint(*args)
        return _exact_sum(zero, ((l0, e_ss), (l1, e_d1), (l2, e_d2)))

    return _iterated(dp.ax1, dp.ax2, dp.a1, dp.b1, dp.a2, dp.b2, G, tol)


# -- stationarity kernel ----------------------------------------------------


class DoubleELReport(_Record):
    """Kernel values on the truncated rectangle, with definedness gaps."""

    _shown = _compared = ("residuals", "gaps", "max_abs_residual")

    def __init__(self, residuals: tuple, gaps: tuple, max_abs_residual: Num):
        vars(self).update(residuals=residuals, gaps=gaps, max_abs_residual=max_abs_residual)


def _place(ax: TimeScale, i: int, t) -> tuple:
    """The place of ``t``, a point of piece i of ``ax``, as ``_traj_args``
    takes it: the gap's place ``ax._places[i]`` where t is right-scattered,
    and ``(i, t, t, None)`` where it is right-dense or the maximum."""
    return (i, t, t, None) if ax._sigma_at(i, t) is t else ax._places[i]


def _past(ax: TimeScale, p, s) -> tuple:
    """The place of ``s`` past the place ``p`` = (i, t, x, mu) on ``ax``:
    sigma(t) of a right-scattered t, the low of piece i + 1, or else a
    Richardson sample in piece i.  Past a node the sample is a node too;
    past an exact point it stands for ``TimeScale._node(s)``, so that an
    analytic slope there is read at that point, as exactly as at t."""
    i, t, _, mu = p
    if mu is not None:
        return _place(ax, i + 1, s)
    return i, s, (s if type(t) is float else ax._node(s)), None


def _el_kernel_at(dp: DoubleProblem, u: SurfaceFn, p1, p2) -> Num:
    """r(t1,t2) = L_y0 - (L_y1 along trajectory)^delta1 - (L_y2 ...)^delta2
    at the places ``p1``, ``p2`` of ``_traj_args``, of ``u`` bound to
    ``dp``'s axes.  Past (t1, t2) the partials are read at the places
    ``_past`` gives, and each slope is taken as in ``_traj_args``."""
    args = _traj_args(dp, u, p1, p2)
    term0, l1, l2 = dp.joint(*args)
    (i1, t1, x1, mu1), (i2, t2, x2, mu2) = p1, p2

    def F1(s):
        return l1 if s is t1 else dp.partial_y1(*_traj_args(dp, u, _past(dp.ax1, p1, s), p2))

    def F2(s):
        return l2 if s is t2 else dp.partial_y2(*_traj_args(dp, u, p1, _past(dp.ax2, p2, s)))

    d1 = (_quotient(F1(x1), l1, mu1) if mu1 is not None
          else _delta_at(dp.ax1, F1, (i1, x1), x1)[0])
    d2 = (_quotient(F2(x2), l2, mu2) if mu2 is not None
          else _delta_at(dp.ax2, F2, (i2, x2), x2)[0])
    return term0 - d1 - d2


def double_el_residual(dp: DoubleProblem, u_tilde: SurfaceFn,
                       dense_refinement: int = 8) -> DoubleELReport:
    """Kernel map on [a1, rho1(b1)] x [a2, rho2(b2)].

    Points whose kernel needs trajectory data past an axis maximum (the
    same definedness gap the single-variable audit reports) are listed
    in ``gaps`` instead of carrying a value.  A map above
    ``GRID_MAX_POINTS`` points raises ``PreconditionError``."""
    span1, span2 = dp.ax1.truncate_k(), dp.ax2.truncate_k()  # ax is [a, b]: [a, rho(b)]
    check_grid_size(dense_refinement, span1, span2)
    # The place of each grid point, built piece by piece: piece i of a span
    # is piece i of its axis.
    places1, places2 = ([_place(ax, i, t) for i, (lo, hi) in enumerate(span.pieces)
                         for t in span._piece_grid(lo, hi, dense_refinement)]
                        for ax, span in ((dp.ax1, span1), (dp.ax2, span2)))
    residuals = []
    gaps = []
    u_tilde = u_tilde.on(dp.ax1, dp.ax2)
    for p1 in places1:
        for p2 in places2:
            try:
                r = _el_kernel_at(dp, u_tilde, p1, p2)
            except DomainError as exc:
                gaps.append(((p1[1], p2[1]), str(exc)))
            else:
                residuals.append(((p1[1], p2[1]), r))
    max_abs = max((abs(r) for _, r in residuals), default=zero_of(dp.ax1))
    return DoubleELReport(tuple(residuals), tuple(gaps), max_abs)


# -- derivation chain -------------------------------------------------------


class ChainStep(_Record):
    """One rewriting step of the derivation chain and its residual."""

    _shown = _compared = ("label", "residual")

    def __init__(self, label: str, residual: Num):
        vars(self).update(label=label, residual=residual)


def _kernel_pairing(dp: DoubleProblem, u: SurfaceFn, eta: SurfaceFn, tol: float) -> Num:
    """Integral of kernel(t1,t2) * eta(sigma1, sigma2) over the truncated
    rectangle."""
    rb1 = dp.ax1.rho(dp.b1)
    rb2 = dp.ax2.rho(dp.b2)
    u, eta = u.on(dp.ax1, dp.ax2), eta.on(dp.ax1, dp.ax2)

    def G(p1, p2):
        return _el_kernel_at(dp, u, p1, p2) * eta.val(p1[2], p2[2])

    return _iterated(dp.ax1, dp.ax2, dp.a1, rb1, dp.a2, rb2, G, tol)


def derivation_chain_check(dp: DoubleProblem, u_tilde: SurfaceFn, eta: SurfaceFn,
                           tol: float = QUAD_TOL) -> list:
    """Verify each rewriting step from the first variation to the kernel form.

    On purely discrete scales every labeled identity is checked by
    direct summation and all residuals are exact.  On hybrid scales the
    strip identities degenerate, so only the chain endpoints (first
    variation vs kernel pairing) are compared: exactly on rational axes
    with polynomial surfaces, numerically otherwise.
    """
    if dp.audit_findings:
        raise UnsupportedScaleError(
            "derivation chain refused: " + "; ".join(dp.audit_findings)
        )
    _require_vanishes_on_boundary(dp, eta)
    if dp.ax1.is_discrete and dp.ax2.is_discrete:
        return _chain_discrete(dp, u_tilde, eta)
    lhs = _first_variation(dp, u_tilde, eta, tol)
    rhs = _kernel_pairing(dp, u_tilde, eta, tol)
    return [ChainStep("first-variation-vs-kernel-form", abs(lhs - rhs))]


def _wsum(zero, points, *factors) -> Num:
    """Sum over ``points`` of the product of ``factor(t)`` for each factor.

    Products are formed left to right, so on float scales every step
    keeps the rounding of its written grouping: the last factor is the
    value and the product of the others its weight in ``_exact_sum``."""
    *head, last = factors

    def terms():
        for t in points:
            weight = head[0](t)
            for f in head[1:]:
                weight = weight * f(t)
            yield weight, last(t)

    return _exact_sum(zero, terms())


def _chain_discrete(dp: DoubleProblem, u: SurfaceFn, eta: SurfaceFn) -> list:
    # The grid is read once into index arrays (points P, the axes' gaps M,
    # values U and E of u and eta, partials L0..L2 and integrand G on the
    # cells of [a1, b1) x [a2, b2)): sigma is the next index and nothing is
    # looked up again.  Exact quotients are formed in integers (_quotient)
    # and float ones keep _delta_at's written order; sums keep _wsum's
    # grouping.
    P1, P2 = dp.ax1.points(), dp.ax2.points()
    M1, M2 = dp.ax1._gaps, dp.ax2._gaps
    U = [[u.val(t1, t2) for t2 in P2] for t1 in P1]
    E = [[eta.val(t1, t2) for t2 in P2] for t1 in P1]
    mu1, mu2 = M1.__getitem__, M2.__getitem__
    zero = zero_of(dp.ax1)

    def d1(F, i, j):
        return _quotient(F[i + 1][j], F[i][j], M1[i])

    def d2(F, i, j):
        return _quotient(F[i][j + 1], F[i][j], M2[j])

    # Indices of rho1(b1) and rho2(b2): the last cell of each axis.
    r1, r2 = len(M1) - 1, len(M2) - 1
    full1, full2 = range(r1 + 1), range(r2 + 1)
    core1, core2 = range(r1), range(r2)

    def partials_at(i, j):
        return dp.joint(P1[i], P2[j], U[i + 1][j + 1], d1(U, i, j + 1), d2(U, i + 1, j))

    cells = [[partials_at(i, j) for j in full2] for i in full1]
    L0, L1, L2 = ([[c[k] for c in row] for row in cells] for k in range(3))

    G = [[_exact_sum(zero, ((L0[i][j], E[i + 1][j + 1]),
                            (L1[i][j], d1(E, i, j + 1)),
                            (L2[i][j], d2(E, i + 1, j))))
          for j in full2] for i in full1]
    kernel = [[(L0[i][j] - d1(L1, i, j) - d2(L2, i, j)) * E[i + 1][j + 1]
               for j in core2] for i in core1]

    def double_sum(idx1, idx2, F):
        return _wsum(zero, idx1, mu1, lambda i: _wsum(zero, idx2, mu2, F[i].__getitem__))

    steps = []

    full_sum = double_sum(full1, full2, G)

    # The rectangle splits into the core, the last t1 cell against the
    # t2 core, and the last t2 cell against all of t1.
    A = double_sum(core1, core2, G)
    B = double_sum([r1], core2, G)
    C = double_sum(full1, [r2], G)
    steps.append(ChainStep("region-split", abs(full_sum - (A + B + C))))

    # Core rewritten by parts per axis: brackets at the far core edges,
    # derivative weight moved onto the trajectory partials.
    A1 = double_sum(core1, core2, kernel)
    A2 = _wsum(zero, core2, mu2, lambda j: L1[r1][j], lambda j: E[r1][j + 1])
    A3 = _wsum(zero, core1, mu1, lambda i: L2[i][r2], lambda i: E[i + 1][r2])
    steps.append(ChainStep("core-by-parts", abs(A - (A1 + A2 + A3))))

    # Last t1 cell: the strip is the single graininess-weighted column
    # at rho1(b1), and the state term dies because eta(b1, .) = 0.
    mu1_rb1 = M1[r1]
    strip1_sum = _wsum(
        zero, core2, mu2, lambda j: mu1_rb1,
        lambda j: L1[r1][j] * d1(E, r1, j + 1) + L2[r1][j] * d2(E, r1 + 1, j),
    )
    steps.append(ChainStep("t1-strip-single-cell", abs(B - strip1_sum)))

    # Pointwise: mu1(rho1(b1)) eta_delta1(rho1(b1), sigma2(t2)) folds to
    # -eta(rho1(b1), sigma2(t2)) since eta vanishes at t1 = b1.
    collapse = max([zero] + [abs(mu1_rb1 * d1(E, r1, j + 1) + E[r1][j + 1]) for j in core2])
    steps.append(ChainStep("strip-collapse-identity", collapse))

    strip1_subst = _wsum(
        zero, core2, mu2,
        lambda j: -L1[r1][j] * E[r1][j + 1] + mu1_rb1 * L2[r1][j] * d2(E, r1 + 1, j),
    )
    steps.append(ChainStep("t1-strip-substitute", abs(strip1_sum - strip1_subst)))

    # The leftover axis-2 term integrates by parts to zero: bracket and
    # shifted integral both live on the t1 = b1 edge where eta is 0.
    I1 = _wsum(zero, core2, mu2, lambda j: L2[r1][j], lambda j: d2(E, r1 + 1, j))
    I2 = _wsum(zero, core2, mu2, lambda j: d2(L2, r1, j), lambda j: E[r1 + 1][j + 1])
    bracket = L2[r1][r2] * E[r1 + 1][r2] - L2[r1][0] * E[r1 + 1][0]
    strip1_reduced = _wsum(zero, core2, mu2, lambda j: -L1[r1][j] * E[r1][j + 1])
    drop = max(abs(I1 - (bracket - I2)), abs(I1), abs(strip1_subst - strip1_reduced))
    steps.append(ChainStep("t1-strip-drop-d2", drop))

    # Last t2 cell: collapse, kill the eta_delta1 term on the top edge,
    # then fold the axis-2 quotient exactly as in the other strip.
    mu2_rb2 = M2[r2]

    def strip2_cell(i):
        return L1[i][r2] * d1(E, i, r2 + 1) + L2[i][r2] * d2(E, i + 1, r2)

    C1 = _wsum(zero, full1, mu1, lambda i: mu2_rb2, strip2_cell)
    C2 = _wsum(zero, full1, mu1, lambda i: mu2_rb2, lambda i: L2[i][r2] * d2(E, i + 1, r2))
    C3 = _wsum(zero, core1, mu1, lambda i: -L2[i][r2] * E[i + 1][r2])
    reduce_resid = max(abs(C - C1), abs(C1 - C2), abs(C2 - C3))
    steps.append(ChainStep("t2-strip-reduce", reduce_resid))

    # Everything recombines into the kernel paired with the shifted
    # variation over the core (A1); the generic first variation agrees too.
    fv = _first_variation(dp, u, eta)
    steps.append(ChainStep("combine", max(abs(full_sum - A1), abs(fv - A1))))
    return steps


# -- minimizer oracle -------------------------------------------------------


def brute_force_minimizer_2d(dp: DoubleProblem) -> SurfaceFn:
    """Minimize the discrete double action in the interior values by
    ``_newton_minimize``, with boundary values from the boundary closure.

    Cell [t1, s1) x [t2, s2) reads u at (s1, s2), (t1, s2) and (s1, t2), so
    the Hessian is banded, about as wide as the second axis is long.  The
    action must be strictly convex."""
    if not (dp.ax1.is_discrete and dp.ax2.is_discrete):
        raise UnsupportedScaleError("brute-force minimization requires discrete axes")
    if dp.boundary is None:
        raise PreconditionError("boundary data is required")
    pts1, pts2 = dp.ax1.points(), dp.ax2.points()
    _check_unknowns((len(pts1) - 2) * (len(pts2) - 2))

    values = {(t1, t2): dp.boundary(t1, t2) for t1 in pts1 for t2 in pts2}
    cells = [(m1 * m2, (t1, t2),
              (((1, (s1, s2)),),
               ((1 / m1, (s1, s2)), (-1 / m1, (t1, s2))),
               ((1 / m2, (s1, s2)), (-1 / m2, (s1, t2)))))
             for t1, s1, m1 in zip(pts1, pts1[1:], dp.ax1._gaps)
             for t2, s2, m2 in zip(pts2, pts2[1:], dp.ax2._gaps)]
    interior = [(t1, t2) for t1 in pts1[1:-1] for t2 in pts2[1:-1]]
    return _newton_minimize(dp.partials, ("y0", "y1", "y2"), cells, values, interior,
                            dp.ax1.mode == RATIONAL and dp.ax2.mode == RATIONAL,
                            lambda v: SurfaceFn.from_table(dp.ax1, dp.ax2, v))
