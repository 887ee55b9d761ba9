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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .calculus import AxesFn, _delta_at, _exact_sum, _iterated, _quotient
from .errors import DomainError, PreconditionError, UnsupportedScaleError
from .polyfn import Poly, PolyTuple
from .quadrature import QUAD_TOL
from .scales import (RATIONAL, Num, TimeScale, check_grid_size, fmt_scalar, json_object,
                     scalar_from_json, zero_of)
from .variational import (_check_unknowns, _lagrangian_partials, _newton_minimize,
                          _parse_lagrangian)

_POLY2_VARS = ("t1", "t2", "y0", "y1", "y2")

BUILTIN_LAGRANGIANS_2D = {
    "grad2": "y1^2+y2^2",
    "mass": "y0^2",
    "grad2+mass": "y1^2+y2^2+y0^2",
}


@dataclass(frozen=True)
class ProductScale:
    """Two independent axes; the rectangle lives in their product."""

    scale1: TimeScale
    scale2: TimeScale

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

    def __init__(self, scale1, scale2, func=None, d1fn=None, d2fn=None, table=None):
        super().__init__((scale1, scale2), func, (d1fn, d2fn), table)

    scale1 = property(lambda self: self.axes[0])
    scale2 = property(lambda self: self.axes[1])
    # val(t1, t2, nodes=()): the reader, under the name the double layer reads by.
    val = AxesFn.__call__

    @classmethod
    def from_callable(cls, scale1: TimeScale, scale2: TimeScale, func: Callable,
                      d1: Optional[Callable] = None,
                      d2: Optional[Callable] = None) -> "SurfaceFn":
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
        return _delta_at(self.scale1, self.section(0, (t1, self.scale2.require(t2))),
                         self.scale1._find(t1))[0]

    def d2(self, t1, t2) -> Num:
        """Axis-2 delta derivative holding t1 fixed."""
        return _delta_at(self.scale2, self.section(1, (self.scale1.require(t1), t2)),
                         self.scale2._find(t2))[0]


def surface_from_json(obj) -> SurfaceFn:
    """Load a 2-D table: {"scale1":…, "scale2":…, "values":[[…],…]} row-major by t1."""
    return SurfaceFn._from_json(obj, "2-D table", ("scale1", "scale2"))


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


@dataclass(frozen=True)
class DoubleProblem:
    """Minimize the double delta integral of
    L(t1, t2, u(sigma1, sigma2), u_delta1(t1, sigma2), u_delta2(sigma1, t2))
    over a rectangle with boundary data fixed."""

    ps: ProductScale
    a1: Num
    b1: Num
    a2: Num
    b2: Num
    lagrangian: Poly
    boundary: Optional[Callable] = None
    ax1: TimeScale = field(init=False, repr=False)
    ax2: TimeScale = field(init=False, repr=False)
    audit_findings: tuple = field(init=False, repr=False)
    # (L_y0, L_y1, L_y2), worked out once, and their joint evaluator.
    partials: tuple = field(init=False, repr=False, compare=False)
    joint: PolyTuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "partials", _lagrangian_partials(
            self.lagrangian, _POLY2_VARS, ("y0", "y1", "y2")))
        object.__setattr__(self, "joint", PolyTuple(self.partials))
        a1, b1, a2, b2 = self.ps.rect(self.a1, self.b1, self.a2, self.b2)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "b2", b2)
        object.__setattr__(self, "ax1", self.ps.scale1.restrict(a1, b1))
        object.__setattr__(self, "ax2", self.ps.scale2.restrict(a2, b2))
        object.__setattr__(
            self, "audit_findings", tuple(sigma_diff_audit(self.ax1, self.ax2))
        )

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


def _surface_integrand(f: SurfaceFn, ax1: TimeScale, ax2: TimeScale):
    """``f`` as an ``_iterated`` integrand over ``ax1`` x ``ax2``: per axis, a
    node (s is None) is read as one when the axis was cut from ``f``'s own;
    a gap term's points go straight to ``val``."""
    in1, in2 = ax1._cut_from(f.scale1), ax2._cut_from(f.scale2)
    return lambda p1, p2: (
        f.val(p1[1], p2[1]) if p1[2] is not None and p2[2] is not None
        else f.val(p1[1], p2[1], nodes=(in1 and p1[2] is None, in2 and p2[2] is None)))


def double_integral(ps: ProductScale, f: SurfaceFn, rect, tol: float = QUAD_TOL) -> Num:
    """Iterated double delta integral over the rectangle, t2 axis first."""
    a1, b1, a2, b2 = ps.rect(*rect)
    return _iterated(ps.scale1, ps.scale2, a1, b1, a2, b2,
                     _surface_integrand(f, ps.scale1, ps.scale2), tol)


def fubini_residual(ps: ProductScale, f: SurfaceFn, rect, tol: float = QUAD_TOL) -> Num:
    """|iterated t2-first minus iterated t1-first|; exactly 0 on discrete
    rational scales, and on rational hybrid scales for a polynomial ``f``."""
    a1, b1, a2, b2 = ps.rect(*rect)
    one = double_integral(ps, f, rect, tol)
    G = _surface_integrand(f, ps.scale1, ps.scale2)
    two = _iterated(ps.scale2, ps.scale1, a2, b2, a1, b1, lambda p2, p1: G(p1, p2), tol)
    return abs(one - two)


# -- trajectory plumbing ----------------------------------------------------


def _traj_args(dp: DoubleProblem, u: SurfaceFn, p1, p2) -> tuple:
    """The argument tuple (t1, t2, u(x1,x2), u_delta1(t1,x2), u_delta2(x1,t2))
    at the places ``p1`` on ``dp.ax1`` and ``p2`` on ``dp.ax2``.

    A place is ``(i, t, s, mu)``, as ``_iterated`` hands it: per axis x = s,
    the forward jump of t that a gap term is handed with its graininess mu,
    or a sampled point of piece i (s is t, mu None: the slope is looked up),
    or x = t at a node of the dense piece i, where s is None.  At a node
    every sample of the slope along that axis is a node too.  Each distinct
    value of u is read once: an axis handed its mu takes the jump quotient
    from u(x1, x2) and u at t on that axis."""
    (i1, t1, s1, mu1), (i2, t2, s2, mu2) = p1, p2
    x1 = t1 if s1 is None else s1
    x2 = t2 if s2 is None else s2
    nodes = (s1 is None and dp.ax1._cut_from(u.scale1), s2 is None and dp.ax2._cut_from(u.scale2))
    u_ss = u.val(x1, x2, nodes=nodes)
    # Without a graininess, the slope at x: a node is its own jump, and a
    # sampled point's jump is looked up.
    u_d1 = (_quotient(u_ss, u.val(t1, x2, nodes=nodes), mu1) if mu1 is not None
            else _delta_at(dp.ax1, u.section(0, (x1, x2), nodes), (i1, x1),
                           x1 if s1 is None else None)[0])
    u_d2 = (_quotient(u_ss, u.val(x1, t2, nodes=nodes), mu2) if mu2 is not None
            else _delta_at(dp.ax2, u.section(1, (x1, x2), nodes), (i2, x2),
                           x2 if s2 is None else None)[0])
    return (t1, t2, u_ss, u_d1, u_d2)


def _require_vanishes_on_boundary(dp: DoubleProblem, eta: SurfaceFn):
    bad = []

    def check(t1, t2):
        v = eta.val(t1, t2)
        nonzero = (v != 0) if isinstance(v, Fraction) else abs(float(v)) > 1e-12
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


def action(dp: DoubleProblem, u: SurfaceFn, tol: float = QUAD_TOL) -> Num:
    """The double delta integral of the composed integrand over the rectangle."""

    return _iterated(dp.ax1, dp.ax2, dp.a1, dp.b1, dp.a2, dp.b2,
                     lambda p1, p2: dp.lagrangian(*_traj_args(dp, u, p1, p2)), tol)


def first_variation(dp: DoubleProblem, u_tilde: SurfaceFn, eta: SurfaceFn,
                    tol: float = QUAD_TOL) -> Num:
    """Directional derivative of the action at u_tilde along eta.

    Integrates L_y0 eta(s1,s2) + L_y1 eta_delta1(t1,s2) + L_y2
    eta_delta2(s1,t2) over the rectangle, t2 axis first.  eta must
    vanish on the boundary."""
    _require_vanishes_on_boundary(dp, eta)
    zero = zero_of(dp.ax1)

    def G(p1, p2):
        args = _traj_args(dp, u_tilde, p1, p2)
        _, _, e_ss, e_d1, e_d2 = _traj_args(dp, eta, p1, p2)
        l0, l1, l2 = dp.joint(*args)
        return _exact_sum(zero, ((l0, e_ss), (l1, e_d1), (l2, e_d2)))

    return _iterated(dp.ax1, dp.ax2, dp.a1, dp.b1, dp.a2, dp.b2, G, tol)


# -- stationarity kernel ----------------------------------------------------


@dataclass(frozen=True)
class DoubleELReport:
    """Kernel values on the truncated rectangle, with definedness gaps."""

    residuals: tuple
    gaps: tuple
    max_abs_residual: Num


def _jump(ax: TimeScale, t) -> tuple:
    """The place ``(i, t, sigma(t), mu(t))`` of a sampled ``t`` on ``ax``, as
    ``_traj_args`` takes it: the graininess read off the axis's gaps at the
    index i that ``t`` was found at, and ``(sigma(t), None)`` where ``t`` is
    right-dense or the maximum, and ``sigma(t)`` is ``t`` itself."""
    i, x = ax._find(t)
    sigma = ax._sigma_at(i, x)
    return i, t, sigma, (None if sigma is x else ax._gaps[i])


def _el_kernel_at(dp: DoubleProblem, u: SurfaceFn, p1, p2) -> Num:
    """r(t1,t2) = L_y0 - (L_y1 along trajectory)^delta1 - (L_y2 ...)^delta2
    at the places ``p1``, ``p2`` of ``_traj_args``.  Past (t1, t2) the
    partials are read at sigma(t), whose own place is looked up
    (``_jump``)."""
    args = _traj_args(dp, u, p1, p2)
    term0, l1, l2 = dp.joint(*args)
    (i1, t1, s1, mu1), (i2, t2, s2, mu2) = p1, p2

    def F1(s):
        if s is t1:
            return l1
        return dp.partial_y1(*_traj_args(
            dp, u, (i1, s, None, None) if s1 is None else _jump(dp.ax1, s), p2))

    def F2(s):
        if s is t2:
            return l2
        return dp.partial_y2(*_traj_args(
            dp, u, p1, (i2, s, None, None) if s2 is None else _jump(dp.ax2, s)))

    # As in _traj_args: a node is its own jump, a sampled point's is looked up.
    x1, x2 = (t1 if s1 is None else s1), (t2 if s2 is None else s2)
    d1 = (_quotient(F1(s1), l1, mu1) if mu1 is not None
          else _delta_at(dp.ax1, F1, (i1, x1), x1 if s1 is None else None)[0])
    d2 = (_quotient(F2(s2), l2, mu2) if mu2 is not None
          else _delta_at(dp.ax2, F2, (i2, x2), x2 if s2 is None else None)[0])
    return term0 - d1 - d2


def double_el_residual(dp: DoubleProblem, u_tilde: SurfaceFn,
                       dense_refinement: int = 8) -> DoubleELReport:
    """Kernel map on [a1, rho1(b1)] x [a2, rho2(b2)].

    Points whose kernel needs trajectory data past an axis maximum (the
    same definedness gap the single-variable audit reports) are listed
    in ``gaps`` instead of carrying a value.  A map above
    ``GRID_MAX_POINTS`` points raises ``PreconditionError``."""
    rb1 = dp.ax1.rho(dp.b1)
    rb2 = dp.ax2.rho(dp.b2)
    span1 = dp.ax1.restrict(dp.a1, rb1)
    span2 = dp.ax2.restrict(dp.a2, rb2)
    check_grid_size(dense_refinement, span1, span2)
    pts1 = span1.grid(dense_refinement)
    pts2 = span2.grid(dense_refinement)
    residuals = []
    gaps = []
    places2 = [_jump(dp.ax2, t2) for t2 in pts2]  # sampled: each looked up once
    for t1 in pts1:
        p1 = _jump(dp.ax1, t1)
        for p2 in places2:
            try:
                r = _el_kernel_at(dp, u_tilde, p1, p2)
            except DomainError as exc:
                gaps.append(((t1, p2[1]), str(exc)))
            else:
                residuals.append(((t1, p2[1]), r))
    max_abs = max((abs(r) for _, r in residuals), default=zero_of(dp.ax1))
    return DoubleELReport(tuple(residuals), tuple(gaps), max_abs)


# -- derivation chain -------------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    label: str
    residual: Num


def _kernel_pairing(dp: DoubleProblem, u: SurfaceFn, eta: SurfaceFn, tol: float) -> Num:
    """Integral of kernel(t1,t2) * eta(sigma1, sigma2) over the truncated
    rectangle."""
    rb1 = dp.ax1.rho(dp.b1)
    rb2 = dp.ax2.rho(dp.b2)

    def G(p1, p2):
        (_, t1, s1, _), (_, t2, s2, _) = p1, p2
        return _el_kernel_at(dp, u, p1, p2) * eta.val(
            t1 if s1 is None else s1, t2 if s2 is None else s2,
            nodes=(s1 is None and dp.ax1._cut_from(eta.scale1),
                   s2 is None and dp.ax2._cut_from(eta.scale2)))

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
    lhs = first_variation(dp, u_tilde, eta, tol)
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
    C2 = _wsum(zero, [*core1, r1], mu1, lambda i: mu2_rb2, strip2_cell)
    C3 = _wsum(zero, core1, mu1, lambda i: -L2[i][r2] * E[i + 1][r2])
    reduce_resid = max(abs(C - C1), abs(C1 - C2), abs(C2 - C3))
    steps.append(ChainStep("t2-strip-reduce", reduce_resid))

    # Everything recombines into the kernel paired with the shifted
    # variation over the core (A1); the generic first variation agrees too.
    fv = first_variation(dp, u, eta)
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
