"""Machine-checked counterexamples.

Each builder constructs a concrete scale, functions, and pairings, then
re-verifies every claimed property in exact arithmetic and returns a
Verdict.  Nothing is asserted by fiat: if a caller perturbs the data
(say, moves the nonzero of f to an interior point) the verdict comes
back unconfirmed.  A float witness scale is read exactly, each point as
the dyadic rational it holds; a detail shown as a float is the float
nearest its exact value.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .calculus import ScaleFn, delta_deriv, nabla_integral_discrete
from .errors import DomainError, PreconditionError
from .polyfn import Poly
from .scales import FLOAT, RATIONAL, TimeScale, _magnitude, _Record, fmt_scalar
from .variational import fl_kernel

_SEED = 12345


class Verdict(_Record):
    """Outcome of re-checking one counterexample from scratch."""

    _shown = _compared = ("id", "claim", "witness", "confirmed", "details")

    def __init__(self, id: str, claim: str, witness: dict, confirmed: bool, details: tuple):
        vars(self).update(id=id, claim=claim, witness=witness, confirmed=confirmed,
                          details=details)

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


def _sigma_jump_point(scale, t, name: str):
    """``(scale, t, low end of t's piece, exact twin of scale, scale witness)``
    for a point ``t`` that must be left-dense and right-scattered; ``scale``
    defaults to [0, 1] union {1.5}.  The exact twin is ``scale`` itself when
    rational, else the rational scale on the dyadic values of its points."""
    default = _default_hybrid_scale()
    if scale is None:
        scale = default
    i, t = scale._find(t)
    cls = scale.classify(t)
    if not cls.breaks_sigma_continuity:
        raise PreconditionError(
            f"{name} = {fmt_scalar(t)} must be left-dense and right-scattered; it is {cls.label()}"
        )
    exact = scale if scale.mode == RATIONAL else TimeScale(
        tuple((Fraction(lo), Fraction(hi)) for lo, hi in scale.pieces))
    witness = "[0, 1] union {1.5}" if scale.pieces == default.pieces else "custom"
    return scale, t, scale.pieces[i][0], exact, witness


def _detail(name: str, x) -> tuple:
    """The detail ``(name, repr of the float nearest the exact x)``;
    ``DomainError`` when no float holds ``x``: it is past the float range,
    or nonzero and rounds to zero."""
    try:
        value = float(x)
    except OverflowError:
        raise DomainError(f"{name}: {_magnitude(x)} is past the float range") from None
    if value == 0 and x != 0:
        raise DomainError(f"{name}: {_magnitude(x)} is below the float range")
    return name, repr(value)


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

    The polynomial bump (t - lo)^2 (hi - t)^2 on [lo, hi] = [sigma(u1),
    sigma(t0)], zero outside, is delta differentiable everywhere, yet at a
    left-dense right-scattered t0 its delta derivative (the forward jump
    quotient) differs from the left limit of its classical slope, the
    bump's derivative at t0, so the derivative is discontinuous there.

    The bump is the ``Poly`` s^2 (w - s)^2 in the shifted variable s = t - lo,
    with w = hi - lo, read at t - lo: its coefficients are powers of w, near
    the size of the points, where the expanded (t - lo)^2 (hi - t)^2 has
    lo^2 hi^2, whose denominator outgrows the ``Poly`` size limit on a
    witness near the bottom of the float range."""
    scale, t0, _, exact, scale_witness = _sigma_jump_point(scale, t0, "t0")
    u1 = scale.require(u1)
    lo_edge = scale.sigma(u1)
    hi_edge = scale.sigma(t0)
    if not lo_edge < t0:
        raise PreconditionError("need sigma(u1) < t0 to fit the bump")
    t, lo, hi = Fraction(t0), Fraction(lo_edge), Fraction(hi_edge)
    s = Poly.var(("s",), "s")
    bump = s ** 2 * (hi - lo - s) ** 2

    # The bump is read at t0 and at sigma(t0) = hi, both in its support.
    quotient = delta_deriv(exact, lambda u: bump(u - lo), t).value
    # Square rule per factor, then the product rule, evaluated at t0.
    formula = (t + hi - 2 * lo) * (hi - t) ** 2 + (hi - lo) ** 2 * (t + hi - 2 * hi)
    left_limit = bump.diff("s")(t - lo)

    jump = abs(quotient - left_limit)
    edges_vanish = bump(0) == 0 and bump(hi - lo) == 0
    confirmed = quotient == formula and edges_vanish and jump != 0
    details = (
        _detail("delta derivative at t0 (jump quotient)", quotient),
        _detail("same value from the closed-form product rule", formula),
        _detail("left limit of the classical slope", left_limit),
        _detail("left-limit error estimate", 0),
        _detail("discontinuity of the derivative at t0", jump),
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
            "scale": scale_witness,
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

    Sigma is the identity on the dense piece below t, so its left limit at
    t is t, while sigma(t) sits a positive gap above t.  Shown at the
    point s of that piece 2^-40 of the way from t down to the piece's low
    end: sigma(s) = s."""
    scale, t, low, exact, scale_witness = _sigma_jump_point(scale, t, "t")
    t_exact = Fraction(t)
    s = t_exact - (t_exact - Fraction(low)) / 2**40
    sigma_s = exact.sigma(s)

    confirmed = sigma_s == s and exact.mu(t_exact) > 0
    details = (
        _detail("limit of sigma from the left", sigma_s),
        ("sigma at t", fmt_scalar(scale.sigma(t))),
        ("jump size mu(t)", fmt_scalar(scale.mu(t))),
        _detail("last approach distance", t_exact - sigma_s),
    )
    return Verdict(
        id="sigma-discontinuity",
        claim=(
            "the forward jump operator is discontinuous at a left-dense "
            "right-scattered point: its left limit is t but sigma(t) > t"
        ),
        witness={
            "scale": scale_witness,
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
