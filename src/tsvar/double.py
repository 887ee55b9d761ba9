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

from .calculus import _delta_at, _exact, _iterated
from .errors import DomainError, PreconditionError, UnsupportedScaleError
from .polyfn import Poly
from .quadrature import QUAD_TOL
from .scales import (RATIONAL, Num, TimeScale, as_scalar, check_grid_size, fmt_scalar,
                     json_object, scalar_from_json, zero_of)
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


class SurfaceFn:
    """Real-valued function on a product scale, closure-backed or tabulated."""

    __slots__ = ("scale1", "scale2", "func", "d1fn", "d2fn", "table")

    def __init__(self, scale1, scale2, func=None, d1fn=None, d2fn=None, table=None):
        self.scale1 = scale1
        self.scale2 = scale2
        self.func = func
        self.d1fn = d1fn
        self.d2fn = d2fn
        self.table = table

    @classmethod
    def from_callable(cls, scale1: TimeScale, scale2: TimeScale, func: Callable,
                      d1: Optional[Callable] = None,
                      d2: Optional[Callable] = None) -> "SurfaceFn":
        """Wrap ``func``; a two-variable ``Poly`` supplies the partial
        derivative on each axis that is not given."""
        if isinstance(func, Poly) and len(func.variables) == 2:
            x1, x2 = func.variables
            d1 = func.diff(x1) if d1 is None else d1
            d2 = func.diff(x2) if d2 is None else d2
        return cls(scale1, scale2, func=func, d1fn=d1, d2fn=d2)

    @classmethod
    def from_table(cls, scale1: TimeScale, scale2: TimeScale, values) -> "SurfaceFn":
        """Tabulate on discrete axes.

        ``values`` is either a dict keyed by (t1, t2) or a list of rows,
        row-major by t1, covering the full grid."""
        if not (scale1.is_discrete and scale2.is_discrete):
            raise UnsupportedScaleError("tabulated surfaces require discrete axes")
        pts1 = scale1.points()
        pts2 = scale2.points()
        table = {}
        if isinstance(values, dict):
            for (k1, k2), v in values.items():
                key = (scale1.require(k1), scale2.require(k2))
                table[key] = as_scalar(v, scale1.mode)
        else:
            rows = list(values)
            if len(rows) != len(pts1):
                raise DomainError(f"expected {len(pts1)} rows, got {len(rows)}")
            for i, row in enumerate(rows):
                row = list(row)
                if len(row) != len(pts2):
                    raise DomainError(
                        f"row {i} has {len(row)} entries, expected {len(pts2)}"
                    )
                for j, v in enumerate(row):
                    table[(pts1[i], pts2[j])] = as_scalar(v, scale1.mode)
        missing = [(t1, t2) for t1 in pts1 for t2 in pts2 if (t1, t2) not in table]
        if missing:
            raise DomainError(f"table misses {len(missing)} grid points, first {missing[0]}")
        return cls(scale1, scale2, table=table)

    def val(self, t1, t2) -> Num:
        if type(t1) is Poly or type(t2) is Poly:
            # A symbolic node lies in its dense piece by construction.
            return _exact(self.func)(t1, t2)
        t1 = self.scale1.require(t1)
        t2 = self.scale2.require(t2)
        if self.table is not None:
            try:
                return self.table[(t1, t2)]
            except KeyError:
                raise DomainError(
                    f"({fmt_scalar(t1)}, {fmt_scalar(t2)}) is not tabulated"
                ) from None
        return self.func(t1, t2)

    def _partial(self, axis: int, t1, t2) -> Num:
        """The analytic classical partial on ``axis`` (1 or 2) at (t1, t2)."""
        fn = self.d1fn if axis == 1 else self.d2fn
        if type(t1) is Poly or type(t2) is Poly:
            fn = _exact(fn)
        return fn(t1, t2)

    def d1(self, t1, t2) -> Num:
        """Axis-1 delta derivative holding t2 fixed."""
        t2 = self.scale2.require(t2)
        dan = (lambda s: self._partial(1, s, t2)) if self.d1fn is not None else None
        return _delta_at(self.scale1, lambda s: self.val(s, t2), t1, d_analytic=dan)[0]

    def d2(self, t1, t2) -> Num:
        """Axis-2 delta derivative holding t1 fixed."""
        t1 = self.scale1.require(t1)
        dan = (lambda s: self._partial(2, t1, s)) if self.d2fn is not None else None
        return _delta_at(self.scale2, lambda s: self.val(t1, s), t2, d_analytic=dan)[0]


def surface_from_json(obj) -> SurfaceFn:
    """Load a 2-D table: {"scale1":…, "scale2":…, "values":[[…],…]} row-major by t1."""
    json_object(obj, "2-D table", ("scale1", "scale2", "values"))
    scale1 = TimeScale.from_json(obj["scale1"])
    scale2 = TimeScale.from_json(obj["scale2"])
    rows = obj["values"]
    if not isinstance(rows, list):
        raise DomainError("'values' must be a list of rows")
    parsed = [[scalar_from_json(v, scale1.mode) for v in row] for row in rows]
    return SurfaceFn.from_table(scale1, scale2, parsed)


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
    # (L_y0, L_y1, L_y2), worked out once.
    partials: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "partials", _lagrangian_partials(
            self.lagrangian, _POLY2_VARS, ("y0", "y1", "y2")))
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


def double_integral(ps: ProductScale, f: SurfaceFn, rect, tol: float = QUAD_TOL) -> Num:
    """Iterated double delta integral over the rectangle, t2 axis first."""
    a1, b1, a2, b2 = ps.rect(*rect)
    return _iterated(ps.scale1, ps.scale2, a1, b1, a2, b2,
                     lambda t1, t2, dense1, dense2: f.val(t1, t2), tol)


def fubini_residual(ps: ProductScale, f: SurfaceFn, rect, tol: float = QUAD_TOL) -> Num:
    """|iterated t2-first minus iterated t1-first|; exactly 0 on discrete
    rational scales, and on rational hybrid scales for a polynomial ``f``."""
    a1, b1, a2, b2 = ps.rect(*rect)
    one = double_integral(ps, f, rect, tol)
    two = _iterated(ps.scale2, ps.scale1, a2, b2, a1, b1,
                    lambda t2, t1, dense2, dense1: f.val(t1, t2), tol)
    return abs(one - two)


# -- trajectory plumbing ----------------------------------------------------


def _traj_args(dp: DoubleProblem, u: SurfaceFn, t1, t2, dense1: bool, dense2: bool) -> tuple:
    """The argument tuple (t1, t2, u(s1,s2), u_delta1(t1,s2), u_delta2(s1,t2)),
    with s the forward jump of t, or t itself at a dense quadrature node."""
    s1 = t1 if dense1 else dp.ax1.sigma(t1)
    s2 = t2 if dense2 else dp.ax2.sigma(t2)
    u_ss = u.val(s1, s2)
    dan1 = (lambda s: u._partial(1, s, s2)) if u.d1fn is not None else None
    u_d1 = _delta_at(dp.ax1, lambda s: u.val(s, s2), t1, dense1, dan1)[0]
    dan2 = (lambda s: u._partial(2, s1, s)) if u.d2fn is not None else None
    u_d2 = _delta_at(dp.ax2, lambda s: u.val(s1, s), t2, dense2, dan2)[0]
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

    def G(t1, t2, dense1, dense2):
        return dp.lagrangian(*_traj_args(dp, u, t1, t2, dense1, dense2))

    return _iterated(dp.ax1, dp.ax2, dp.a1, dp.b1, dp.a2, dp.b2, G, tol)


def first_variation(dp: DoubleProblem, u_tilde: SurfaceFn, eta: SurfaceFn,
                    tol: float = QUAD_TOL) -> Num:
    """Directional derivative of the action at u_tilde along eta.

    Integrates L_y0 eta(s1,s2) + L_y1 eta_delta1(t1,s2) + L_y2
    eta_delta2(s1,t2) over the rectangle, t2 axis first.  eta must
    vanish on the boundary."""
    _require_vanishes_on_boundary(dp, eta)

    def G(t1, t2, dense1, dense2):
        args = _traj_args(dp, u_tilde, t1, t2, dense1, dense2)
        _, _, e_ss, e_d1, e_d2 = _traj_args(dp, eta, t1, t2, dense1, dense2)
        return (
            dp.partial_y0(*args) * e_ss
            + dp.partial_y1(*args) * e_d1
            + dp.partial_y2(*args) * e_d2
        )

    return _iterated(dp.ax1, dp.ax2, dp.a1, dp.b1, dp.a2, dp.b2, G, tol)


# -- stationarity kernel ----------------------------------------------------


@dataclass(frozen=True)
class DoubleELReport:
    """Kernel values on the truncated rectangle, with definedness gaps."""

    residuals: tuple
    gaps: tuple
    max_abs_residual: Num


def _el_kernel_at(dp: DoubleProblem, u: SurfaceFn, t1, t2,
                  dense1: bool = False, dense2: bool = False) -> Num:
    """r(t1,t2) = L_y0 - (L_y1 along trajectory)^delta1 - (L_y2 ...)^delta2."""
    args = _traj_args(dp, u, t1, t2, dense1, dense2)
    term0 = dp.partial_y0(*args)

    def F1(s):
        return dp.partial_y1(*_traj_args(dp, u, s, t2, dense1, dense2))

    def F2(s):
        return dp.partial_y2(*_traj_args(dp, u, t1, s, dense1, dense2))

    d1 = _delta_at(dp.ax1, F1, t1, dense1)[0]
    d2 = _delta_at(dp.ax2, F2, t2, dense2)[0]
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
    for t1 in pts1:
        for t2 in pts2:
            try:
                r = _el_kernel_at(dp, u_tilde, t1, t2)
            except DomainError as exc:
                gaps.append(((t1, t2), str(exc)))
            else:
                residuals.append(((t1, t2), r))
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

    def G(t1, t2, dense1, dense2):
        r = _el_kernel_at(dp, u, t1, t2, dense1, dense2)
        return r * eta.val(t1 if dense1 else dp.ax1.sigma(t1),
                           t2 if dense2 else dp.ax2.sigma(t2))

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
    keeps the rounding of its written grouping."""
    total = zero
    for t in points:
        term = factors[0](t)
        for f in factors[1:]:
            term = term * f(t)
        total = total + term
    return total


def _chain_discrete(dp: DoubleProblem, u: SurfaceFn, eta: SurfaceFn) -> list:
    ax1, ax2 = dp.ax1, dp.ax2
    a1, b1, a2, b2 = dp.a1, dp.b1, dp.a2, dp.b2
    rb1 = ax1.rho(b1)
    rb2 = ax2.rho(b2)
    mu1, mu2 = ax1.mu, ax2.mu
    sg1, sg2 = ax1.sigma, ax2.sigma
    zero = zero_of(ax1)

    def half_open(ax, lo, hi):
        return [t for t in ax.restrict(lo, hi).points() if t < hi]

    P1_full = half_open(ax1, a1, b1)
    P1_core = half_open(ax1, a1, rb1)
    P2_full = half_open(ax2, a2, b2)
    P2_core = half_open(ax2, a2, rb2)

    # Every step reads the trajectory partials inside P1_full x P2_full only.
    partials = {}
    for t1 in P1_full:
        for t2 in P2_full:
            args = _traj_args(dp, u, t1, t2, False, False)
            partials[t1, t2] = (dp.partial_y0(*args), dp.partial_y1(*args), dp.partial_y2(*args))

    def partial(k):
        return lambda t1, t2: partials[t1, t2][k]

    Ly0, Ly1, Ly2 = partial(0), partial(1), partial(2)

    e = eta.val

    def d1(F, t1, x2):
        return _delta_at(ax1, lambda s: F(s, x2), t1)[0]

    def d2(F, x1, t2):
        return _delta_at(ax2, lambda s: F(x1, s), t2)[0]

    def G(t1, t2):
        return (
            Ly0(t1, t2) * e(sg1(t1), sg2(t2))
            + Ly1(t1, t2) * d1(e, t1, sg2(t2))
            + Ly2(t1, t2) * d2(e, sg1(t1), t2)
        )

    def kernel_term(t1, t2):
        return (Ly0(t1, t2) - d1(Ly1, t1, t2) - d2(Ly2, t1, t2)) * e(sg1(t1), sg2(t2))

    def double_sum(pts1, pts2, fn):
        return _wsum(zero, pts1, mu1, lambda t1: _wsum(zero, pts2, mu2, lambda t2: fn(t1, t2)))

    steps = []

    full_sum = double_sum(P1_full, P2_full, G)

    # The rectangle splits into the core, the last t1 cell against the
    # t2 core, and the last t2 cell against all of t1.
    strip1 = half_open(ax1, rb1, b1)
    strip2 = half_open(ax2, rb2, b2)
    A = double_sum(P1_core, P2_core, G)
    B = double_sum(strip1, P2_core, G)
    C = double_sum(P1_full, strip2, G)
    steps.append(ChainStep("region-split", abs(full_sum - (A + B + C))))

    # Core rewritten by parts per axis: brackets at the far core edges,
    # derivative weight moved onto the trajectory partials.
    A1 = double_sum(P1_core, P2_core, kernel_term)
    A2 = _wsum(zero, P2_core, mu2, lambda t2: Ly1(rb1, t2), lambda t2: e(rb1, sg2(t2)))
    A3 = _wsum(zero, P1_core, mu1, lambda t1: Ly2(t1, rb2), lambda t1: e(sg1(t1), rb2))
    steps.append(ChainStep("core-by-parts", abs(A - (A1 + A2 + A3))))

    # Last t1 cell: the strip is the single graininess-weighted column
    # at rho1(b1), and the state term dies because eta(b1, .) = 0.
    mu1_rb1 = mu1(rb1)
    strip1_sum = _wsum(
        zero, P2_core, mu2, lambda t2: mu1_rb1,
        lambda t2: Ly1(rb1, t2) * d1(e, rb1, sg2(t2)) + Ly2(rb1, t2) * d2(e, sg1(rb1), t2),
    )
    steps.append(ChainStep("t1-strip-single-cell", abs(B - strip1_sum)))

    # Pointwise: mu1(rho1(b1)) eta_delta1(rho1(b1), sigma2(t2)) folds to
    # -eta(rho1(b1), sigma2(t2)) since eta vanishes at t1 = b1.
    collapse = max([zero] + [abs(mu1_rb1 * d1(e, rb1, sg2(t2)) + e(rb1, sg2(t2)))
                             for t2 in P2_core])
    steps.append(ChainStep("strip-collapse-identity", collapse))

    strip1_subst = _wsum(
        zero, P2_core, mu2,
        lambda t2: -Ly1(rb1, t2) * e(rb1, sg2(t2)) + mu1_rb1 * Ly2(rb1, t2) * d2(e, sg1(rb1), t2),
    )
    steps.append(ChainStep("t1-strip-substitute", abs(strip1_sum - strip1_subst)))

    # The leftover axis-2 term integrates by parts to zero: bracket and
    # shifted integral both live on the t1 = b1 edge where eta is 0.
    I1 = _wsum(zero, P2_core, mu2, lambda t2: Ly2(rb1, t2), lambda t2: d2(e, sg1(rb1), t2))
    I2 = _wsum(zero, P2_core, mu2, lambda t2: d2(Ly2, rb1, t2), lambda t2: e(sg1(rb1), sg2(t2)))
    bracket = Ly2(rb1, rb2) * e(sg1(rb1), rb2) - Ly2(rb1, a2) * e(sg1(rb1), a2)
    strip1_reduced = _wsum(zero, P2_core, mu2, lambda t2: -Ly1(rb1, t2) * e(rb1, sg2(t2)))
    drop = max(abs(I1 - (bracket - I2)), abs(I1), abs(strip1_subst - strip1_reduced))
    steps.append(ChainStep("t1-strip-drop-d2", drop))

    # Last t2 cell: collapse, kill the eta_delta1 term on the top edge,
    # then fold the axis-2 quotient exactly as in the other strip.
    mu2_rb2 = mu2(rb2)

    def strip2_cell(t1):
        return Ly1(t1, rb2) * d1(e, t1, sg2(rb2)) + Ly2(t1, rb2) * d2(e, sg1(t1), rb2)

    C1 = _wsum(zero, P1_full, mu1, lambda t1: mu2_rb2, strip2_cell)
    C2 = _wsum(zero, P1_core + [rb1], mu1, lambda t1: mu2_rb2, strip2_cell)
    C3 = _wsum(zero, P1_core, mu1, lambda t1: -Ly2(t1, rb2) * e(sg1(t1), rb2))
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
    cells = [((s1 - t1) * (s2 - t2), (t1, t2),
              (((1, (s1, s2)),),
               ((1 / (s1 - t1), (s1, s2)), (-1 / (s1 - t1), (t1, s2))),
               ((1 / (s2 - t2), (s1, s2)), (-1 / (s2 - t2), (s1, t2)))))
             for t1, s1 in zip(pts1, pts1[1:]) for t2, s2 in zip(pts2, pts2[1:])]
    interior = [(t1, t2) for t1 in pts1[1:-1] for t2 in pts2[1:-1]]
    return _newton_minimize(dp.partials, ("y0", "y1", "y2"), cells, values, interior,
                            dp.ax1.mode == RATIONAL and dp.ax2.mode == RATIONAL,
                            lambda v: SurfaceFn.from_table(dp.ax1, dp.ax2, v))
