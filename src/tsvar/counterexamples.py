"""Machine-checked counterexamples.

Each builder constructs a concrete scale, functions, and pairings, then
re-verifies every claimed property numerically or exactly and returns a
Verdict.  Nothing is asserted by fiat: if a caller perturbs the data
(say, moves the nonzero of f to an interior point) the verdict comes
back unconfirmed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .calculus import ScaleFn, delta_deriv, nabla_integral_discrete
from .errors import PreconditionError
from .quadrature import LIMIT_TOL, richardson_limit
from .scales import FLOAT, RATIONAL, TimeScale, fmt_scalar
from .variational import fl_kernel

_SEED = 12345


@dataclass(frozen=True)
class Verdict:
    """Outcome of re-checking one counterexample from scratch."""

    id: str
    claim: str
    witness: dict
    confirmed: bool
    details: tuple

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "claim": self.claim,
            "witness": dict(self.witness),
            "confirmed": self.confirmed,
            "details": [[name, value] for name, value in self.details],
        }


def _default_hybrid_scale() -> TimeScale:
    return TimeScale(((0.0, 1.0), (1.5, 1.5)), mode=FLOAT)


def cx_nabla_endpoints(origin: int = 1, f_override: dict = None) -> Verdict:
    """Endpoint values are invisible to the nabla pairing.

    On five equally spaced points, f vanishing at the interior but not
    at the endpoints pairs to exactly zero with every variation that
    vanishes at the endpoints, so zero pairings cannot force f to
    vanish at a or b."""
    pts = [Fraction(origin + k) for k in range(5)]
    scale = TimeScale.discrete(pts, mode=RATIONAL)
    a, b = pts[0], pts[-1]
    interior = pts[1:-1]

    f_values = {t: Fraction(0) for t in interior}
    f_values[a] = Fraction(1)
    f_values[b] = Fraction(1)
    if f_override:
        for k, v in f_override.items():
            f_values[scale.require(k)] = Fraction(v)
    f = ScaleFn.from_table(scale, f_values)

    rng = random.Random(_SEED)
    variations = []
    for t_mid in interior:
        vals = {t: Fraction(1 if t == t_mid else 0) for t in pts}
        variations.append((f"indicator at {fmt_scalar(t_mid)}", vals))
    rand_vals = {t: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for t in interior}
    rand_vals[a] = Fraction(0)
    rand_vals[b] = Fraction(0)
    variations.append(("seeded random variation", rand_vals))

    details = []
    all_zero = True
    for name, vals in variations:
        eta = ScaleFn.from_table(scale, vals)
        pairing = nabla_integral_discrete(scale, lambda t: f(t) * eta(t), a, b)
        all_zero = all_zero and pairing == 0
        details.append((f"nabla pairing with {name}", fmt_scalar(pairing)))

    kernel = fl_kernel(scale, "nabla", a, b)
    endpoints_free = a in kernel.unconstrained and b in kernel.unconstrained
    details.append(("f(a)", fmt_scalar(f(a))))
    details.append(("f(b)", fmt_scalar(f(b))))
    details.append(
        ("unconstrained by the pairing", "{" + ", ".join(map(fmt_scalar, kernel.unconstrained)) + "}")
    )
    details.append(("pairing matrix rank", str(kernel.rank)))

    confirmed = all_zero and (f(a) != 0 or f(b) != 0) and endpoints_free
    return Verdict(
        id="nabla-endpoints",
        claim=(
            "zero nabla pairing against all endpoint-vanishing variations "
            "does not force f to vanish at the interval endpoints"
        ),
        witness={
            "scale": "{" + ", ".join(map(fmt_scalar, pts)) + "}",
            "f": "1 at both endpoints, 0 at interior points"
            + (f", overridden at {sorted(f_override)}" if f_override else ""),
        },
        confirmed=confirmed,
        details=tuple(details),
    )


def cx_eta_not_c1(scale: TimeScale = None, u1=0.25, t0=1.0) -> Verdict:
    """An admissible variation need not be classically C1.

    A polynomial bump supported on [sigma(u1), sigma(t0)] is delta
    differentiable everywhere, yet at a left-dense right-scattered t0
    its delta derivative (the forward jump quotient) differs from the
    left limit of its classical slope, so the derivative is
    discontinuous there."""
    if scale is None:
        scale = _default_hybrid_scale()
    t0 = scale.require(t0)
    u1 = scale.require(u1)
    cls = scale.classify(t0)
    if not cls.breaks_sigma_continuity:
        raise PreconditionError(
            f"t0 = {fmt_scalar(t0)} must be left-dense and right-scattered; it is {cls.label()}"
        )
    lo_edge = scale.sigma(u1)
    hi_edge = scale.sigma(t0)
    if not lo_edge < t0:
        raise PreconditionError("need sigma(u1) < t0 to fit the bump")

    def eta(t):
        if lo_edge <= t <= hi_edge:
            return (t - lo_edge) ** 2 * (hi_edge - t) ** 2
        return 0.0

    fn = ScaleFn.from_callable(scale, eta)
    dres = delta_deriv(scale, fn, t0)

    # Square rule per factor, then the product rule, evaluated at t0.
    formula = (t0 + hi_edge - 2 * lo_edge) * (hi_edge - t0) ** 2 + (
        hi_edge - lo_edge
    ) ** 2 * (t0 + hi_edge - 2 * hi_edge)

    # Left limit of the classical slope, from eta values only.
    lo_piece = next(lo for lo, hi in scale.pieces if lo <= t0 <= hi)
    room = float(t0 - lo_piece)

    def back_slope(h):
        return (eta(t0) - eta(t0 - h)) / h

    left_limit, limit_err = richardson_limit(back_slope, room / 4.0, order=1)

    jump = abs(dres.value - left_limit)
    quotient_matches = abs(dres.value - formula) <= 1e-12
    edges_vanish = eta(lo_edge) == 0 and eta(hi_edge) == 0
    confirmed = (
        quotient_matches
        and edges_vanish
        and jump > max(10 * LIMIT_TOL, 10 * limit_err)
    )
    details = (
        ("delta derivative at t0 (jump quotient)", repr(float(dres.value))),
        ("same value from the closed-form product rule", repr(float(formula))),
        ("left limit of the classical slope", repr(float(left_limit))),
        ("left-limit error estimate", repr(float(limit_err))),
        ("discontinuity of the derivative at t0", repr(float(jump))),
        ("bump vanishes at support edges", str(edges_vanish)),
    )
    return Verdict(
        id="eta-not-c1",
        claim=(
            "a variation can be admissible (delta differentiable with "
            "rd-continuous derivative) without being classically C1: its "
            "derivative jumps at a left-dense right-scattered point"
        ),
        witness={
            "scale": "[0, 1] union {1.5}" if scale.pieces == _default_hybrid_scale().pieces
            else "custom",
            "t0": fmt_scalar(t0),
            "bump support": f"[{fmt_scalar(lo_edge)}, {fmt_scalar(hi_edge)}]",
        },
        confirmed=confirmed,
        details=details,
    )


def cx_omega_degenerate() -> Verdict:
    """The classical positive-bump argument dies on a discrete grid.

    On {0..5}^2 the open cell between (1,1) and (2,2) contains no grid
    points, so the canonical bump centered there vanishes at every grid
    point.  Pairing any test function against its shifted values gives
    exactly zero, so the pairing says nothing about the test function
    at (1,1)."""
    from .double import ProductScale, SurfaceFn, double_integral

    axis = TimeScale.discrete(range(6), mode=RATIONAL)
    ps = ProductScale(axis, axis)
    x0, y0 = Fraction(1), Fraction(1)
    x1, y1 = axis.sigma(x0), axis.sigma(y0)

    def eta(t1, t2):
        if x0 <= t1 <= x1 and y0 <= t2 <= y1:
            return (t1 - x0) ** 2 * (t1 - x1) ** 2 * (t2 - y0) ** 2 * (t2 - y1) ** 2
        return Fraction(0)

    grid_vals = [eta(t1, t2) for t1 in axis.points() for t2 in axis.points()]
    identically_zero = all(v == 0 for v in grid_vals)

    rng = random.Random(_SEED)
    tests = [
        ("indicator of (1, 1)", lambda t1, t2: Fraction(1 if (t1, t2) == (x0, y0) else 0)),
        ("constant 1", lambda t1, t2: Fraction(1)),
        (
            "seeded random test function",
            lambda t1, t2, _v={
                (p, q): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for p in axis.points()
                for q in axis.points()
            }: _v[(t1, t2)],
        ),
    ]

    details = [
        ("bump at the shifted probe (2, 2)", fmt_scalar(eta(x1, y1))),
        ("bump vanishes at every grid point", str(identically_zero)),
    ]
    all_zero = True
    rect = (Fraction(0), Fraction(5), Fraction(0), Fraction(5))
    for name, m in tests:
        f = SurfaceFn.from_callable(
            axis, axis, lambda t1, t2, m=m: m(t1, t2) * eta(ps.scale1.sigma(t1), ps.scale2.sigma(t2))
        )
        pairing = double_integral(ps, f, rect)
        all_zero = all_zero and pairing == 0
        details.append((f"pairing with {name}", fmt_scalar(pairing)))

    confirmed = identically_zero and all_zero
    return Verdict(
        id="omega-degenerate",
        claim=(
            "on a discrete grid the bump supported by the cell at (1, 1) is "
            "identically zero, so zero pairings do not pin down the test "
            "function there"
        ),
        witness={
            "scale": "{0..5} x {0..5}",
            "cell": "[1, 2] x [1, 2]",
            "bump": "(t1-1)^2 (t1-2)^2 (t2-1)^2 (t2-2)^2 inside the cell, 0 outside",
        },
        confirmed=confirmed,
        details=tuple(details),
    )


def cx_sigma_discontinuity(scale: TimeScale = None, t=1.0) -> Verdict:
    """The forward jump is discontinuous at a left-dense right-scattered point.

    Approaching t through the dense part gives sigma -> t, while
    sigma(t) sits a positive gap above t."""
    if scale is None:
        scale = _default_hybrid_scale()
    t = scale.require(t)
    cls = scale.classify(t)
    if not cls.breaks_sigma_continuity:
        raise PreconditionError(
            f"t = {fmt_scalar(t)} must be left-dense and right-scattered; it is {cls.label()}"
        )
    lo_piece = next(lo for lo, hi in scale.pieces if lo <= t <= hi)
    d = float(t - lo_piece)

    approach = []
    for n in range(1, 41):
        s = float(t) - d * 2.0 ** (-n)
        approach.append(float(scale.sigma(s)))
    left_limit = approach[-1]
    gap = scale.mu(t)

    confirmed = abs(left_limit - float(t)) <= LIMIT_TOL and float(gap) > 0
    details = (
        ("limit of sigma from the left", repr(left_limit)),
        ("sigma at t", fmt_scalar(scale.sigma(t))),
        ("jump size mu(t)", fmt_scalar(gap)),
        ("last approach distance", repr(abs(left_limit - float(t)))),
    )
    return Verdict(
        id="sigma-discontinuity",
        claim=(
            "the forward jump operator is discontinuous at a left-dense "
            "right-scattered point: its left limit is t but sigma(t) > t"
        ),
        witness={
            "scale": "[0, 1] union {1.5}" if scale.pieces == _default_hybrid_scale().pieces
            else "custom",
            "t": fmt_scalar(t),
        },
        confirmed=confirmed,
        details=details,
    )


ALL_COUNTEREXAMPLES = {
    "nabla-endpoints": cx_nabla_endpoints,
    "eta-not-c1": cx_eta_not_c1,
    "omega-degenerate": cx_omega_degenerate,
    "sigma-discontinuity": cx_sigma_discontinuity,
}
