"""Time scales as finite unions of closed intervals and isolated points.

A time scale is a nonempty closed subset of the real line.  This module
restricts attention to finite unions of closed pieces, which keeps the
jump operators exactly computable, and provides the structural
operations everything else builds on: forward and backward jumps,
graininess, point classification, truncation, restriction, and grid
sampling.

A scale commits to a numeric mode at construction.  Rational mode
stores endpoints as ``fractions.Fraction`` and compares exactly; float
mode stores binary floats and matches membership with an optional
absolute tolerance ``eps`` (default 0, exact comparison).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import DomainError, PreconditionError, UnsupportedScaleError

Num = Union[Fraction, float]

RATIONAL = "rational"
FLOAT = "float"

# Residual maps refuse to sample more grid points than this; a
# two-variable map counts the product of its two axis grids.
GRID_MAX_POINTS = 100_000

# Error messages echo at most this many characters of a rejected value.
ECHO_MAX_CHARS = 40

# Rational point text in exponent form, such as "1e10000000", is refused
# when its decimal exponent is larger than this in magnitude: Fraction
# expands the power of ten in full, which takes seconds at that size.
RATIONAL_MAX_EXPONENT = 1000

# A parsed rational point whose numerator or denominator needs more bits
# than this is refused.  4,096 bits is about 1,233 decimal digits, so a
# point and its gap to a neighbour both stay below the interpreter's
# 4,300-digit limit on integer-to-text conversion and always print.
RATIONAL_MAX_BITS = 4096


def _clip(text: str) -> str:
    return text if len(text) <= ECHO_MAX_CHARS else text[:ECHO_MAX_CHARS] + "..."


def _echo_scalar(x) -> str:
    """``fmt_scalar(x)`` clipped for an error message.  ``str`` refuses an
    integer longer than the interpreter's digit limit, so such a rational
    is shown by its order of magnitude instead."""
    try:
        return _clip(fmt_scalar(x))
    except ValueError:
        e = math.log10(abs(x.numerator)) - math.log10(x.denominator)
        return f"a rational near {'-' if x < 0 else ''}10^{e:.6g}"


def as_scalar(x, mode: str) -> Num:
    """Coerce ``x`` into the numeric mode, rejecting non-finite values."""
    if mode == RATIONAL:
        if type(x) is Fraction:
            return x
        if isinstance(x, bool):
            raise DomainError("booleans are not scalars")
        if isinstance(x, str):
            # The exponent's digits, as Fraction reads them: after a sign,
            # with underscores and surrounding blanks allowed.
            exp = x.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
            if exp.isdecimal() and (len(exp) > len(str(RATIONAL_MAX_EXPONENT))
                                    or int(exp) > RATIONAL_MAX_EXPONENT):
                raise DomainError(f"{_clip(repr(x))}: decimal exponent above "
                                  f"{RATIONAL_MAX_EXPONENT} refused")
        try:
            value = Fraction(x)
        except (ValueError, OverflowError, TypeError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot interpret {_clip(repr(x))} as a rational scalar") from exc
        if max(value.numerator.bit_length(), value.denominator.bit_length()) > RATIONAL_MAX_BITS:
            raise DomainError(f"{_echo_scalar(value)}: numerator or denominator above "
                              f"{RATIONAL_MAX_BITS} bits refused")
        return value
    if mode == FLOAT:
        if isinstance(x, bool):
            raise DomainError("booleans are not scalars")
        try:
            value = float(x)
        except (ValueError, OverflowError, TypeError) as exc:
            raise DomainError(f"cannot interpret {_clip(repr(x))} as a float scalar") from exc
        if not math.isfinite(value):
            raise DomainError(f"non-finite scalar {_clip(repr(x))} rejected")
        return value
    raise ValueError(f"unknown numeric mode {mode!r}")


def _reject_constant(name: str):
    raise DomainError(f"non-finite JSON constant {name!r} rejected")


def json_loads_strict(text: str):
    """``json.loads`` that refuses NaN and infinity literals."""
    return json.loads(text, parse_constant=_reject_constant)


def json_object(obj, what: str, keys=()) -> dict:
    """``obj`` itself, once it is a JSON object holding every one of ``keys``."""
    if not isinstance(obj, dict):
        raise DomainError(f"{what} JSON must be an object")
    for key in keys:
        if key not in obj:
            raise DomainError(f"{what} JSON missing {key!r}")
    return obj


def scalar_from_json(v, mode: str) -> Num:
    """Parse one scalar from its JSON form for the given mode."""
    if mode == RATIONAL:
        if not isinstance(v, (int, str)):
            raise DomainError(
                f"rational-mode scalars must be integers or 'p/q' strings, got {_clip(repr(v))}"
            )
    elif not isinstance(v, (int, float)):
        raise DomainError(f"float-mode scalars must be JSON numbers, got {_clip(repr(v))}")
    return as_scalar(v, mode)


def scalar_to_json(x: Num):
    if isinstance(x, Fraction):
        return str(x)
    return float(x)


def fmt_scalar(x) -> str:
    """Deterministic text rendering: fractions as p/q, floats via repr."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


@dataclass(frozen=True)
class PointClass:
    """Density classification of one point of a scale."""

    left_dense: bool
    right_dense: bool
    is_min: bool
    is_max: bool

    @property
    def left_scattered(self) -> bool:
        return not self.left_dense

    @property
    def right_scattered(self) -> bool:
        return not self.right_dense

    @property
    def isolated(self) -> bool:
        return self.left_scattered and self.right_scattered

    @property
    def breaks_sigma_continuity(self) -> bool:
        """True when the forward jump is discontinuous from the left here.

        That happens exactly at left-dense right-scattered points.  The
        minimum is excluded: it is left-dense only by the convention
        rho(min) = min, and the forward jump has no left limit there.
        """
        return self.left_dense and self.right_scattered and not self.is_min

    def label(self) -> str:
        side_l = "left-dense" if self.left_dense else "left-scattered"
        side_r = "right-dense" if self.right_dense else "right-scattered"
        flags = []
        if self.is_min:
            flags.append("min")
        if self.is_max:
            flags.append("max")
        suffix = f" ({', '.join(flags)})" if flags else ""
        return f"{side_l} {side_r}{suffix}"


def _canonical_pieces(pieces, mode: str):
    norm = []
    for p in pieces:
        if isinstance(p, (tuple, list)):
            if len(p) != 2:
                raise ValueError(f"piece {p!r} must be a point or a pair")
            lo = as_scalar(p[0], mode)
            hi = as_scalar(p[1], mode)
        else:
            lo = hi = as_scalar(p, mode)
        if lo > hi:
            raise ValueError(f"piece endpoints out of order: {p!r}")
        norm.append((lo, hi))
    if not norm:
        raise ValueError("a time scale must be nonempty")
    norm.sort()
    merged = [norm[0]]
    for lo, hi in norm[1:]:
        mlo, mhi = merged[-1]
        if lo <= mhi:
            if hi > mhi:
                merged[-1] = (mlo, hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


@dataclass(frozen=True)
class TimeScale:
    """Immutable finite-piece time scale.

    ``pieces`` is canonical after construction: sorted, pairwise
    disjoint, touching pieces merged, each piece a ``(lo, hi)`` pair
    with ``lo == hi`` marking an isolated point.
    """

    pieces: tuple
    mode: str = RATIONAL
    eps: float = 0.0
    # Lookup index, built once from the canonical pieces: the piece lows
    # for bisection and a hash from each isolated point to its piece.
    # Rational scales with an interval piece also keep the lows as floats
    # (``_keys``, else None), so that quadrature nodes bisect without
    # Fraction arithmetic; discrete scales find their points in the hash.
    _lows: tuple = field(init=False, repr=False, compare=False)
    _isolated: dict = field(init=False, repr=False, compare=False)
    _keys: Optional[tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown numeric mode {self.mode!r}")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.eps and self.mode == RATIONAL:
            raise ValueError("eps-based membership applies to float mode only")
        pieces = _canonical_pieces(self.pieces, self.mode)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "_lows", tuple(lo for lo, _ in pieces))
        object.__setattr__(
            self, "_isolated", {lo: i for i, (lo, hi) in enumerate(pieces) if lo == hi}
        )
        keys = None
        if self.mode == RATIONAL and len(self._isolated) < len(pieces):
            try:
                keys = tuple(float(lo) for lo in self._lows)
            except OverflowError:
                pass
        object.__setattr__(self, "_keys", keys)

    @classmethod
    def discrete(cls, points: Iterable, mode: str = RATIONAL, eps: float = 0.0) -> "TimeScale":
        return cls(tuple(points), mode, eps)

    @classmethod
    def interval(cls, lo, hi, mode: str = RATIONAL, eps: float = 0.0) -> "TimeScale":
        return cls(((lo, hi),), mode, eps)

    # -- basic queries ----------------------------------------------------

    @property
    def min(self) -> Num:
        return self.pieces[0][0]

    @property
    def max(self) -> Num:
        return self.pieces[-1][1]

    @property
    def is_discrete(self) -> bool:
        return len(self._isolated) == len(self.pieces)

    def points(self) -> list:
        """All points of a purely discrete scale, ascending."""
        if not self.is_discrete:
            raise UnsupportedScaleError("scale has interval pieces, not purely discrete")
        return list(self._lows)

    def _locate(self, t):
        """``(piece index, t)`` for the piece holding ``t``; else ``t``
        snapped onto the nearest piece within eps (the lower one on a
        tie); else None."""
        i = self._isolated.get(t)
        if i is not None:
            return i, t
        if self._keys is None:
            i = bisect_right(self._lows, t) - 1
        else:
            i = self._key_bisect(t)
        if i >= 0 and t <= self.pieces[i][1]:
            return i, t
        if not self.eps:
            return None
        # t lies in the gap between piece i and piece i + 1.
        hits = []
        if i >= 0 and t <= self.pieces[i][1] + self.eps:
            hits.append((t - self.pieces[i][1], i, self.pieces[i][1]))
        if i + 1 < len(self.pieces) and self._lows[i + 1] - self.eps <= t:
            hits.append((self._lows[i + 1] - t, i + 1, self._lows[i + 1]))
        return min(hits)[1:] if hits else None

    def _key_bisect(self, t) -> int:
        """Index of the last piece whose low is at most ``t``, or -1,
        found by bisecting the float keys."""
        try:
            x = float(t)
        except OverflowError:
            return bisect_right(self._lows, t) - 1
        # Rounding to float is monotone, so a low whose key differs from x
        # lies on the same side of t as its key does of x; only lows that
        # round to x itself need an exact compare.
        keys = self._keys
        j = bisect_right(keys, x)
        while j and keys[j - 1] == x and self._lows[j - 1] > t:
            j -= 1
        return j - 1

    def _find(self, t):
        """Coerce and locate ``t``: ``(piece index, snapped scalar)``."""
        t = as_scalar(t, self.mode)
        hit = self._locate(t)
        if hit is None:
            raise DomainError(f"{_echo_scalar(t)} is not a point of the scale")
        return hit

    def __contains__(self, t) -> bool:
        try:
            t = as_scalar(t, self.mode)
        except DomainError:
            return False
        return self._locate(t) is not None

    def require(self, t) -> Num:
        """Coerce and membership-check ``t``, returning the snapped scalar."""
        return self._find(t)[1]

    # -- jump operators ---------------------------------------------------

    def _sigma_at(self, i, t) -> Num:
        if t < self.pieces[i][1]:
            return t
        if i + 1 < len(self.pieces):
            return self.pieces[i + 1][0]
        return t

    def _rho_at(self, i, t) -> Num:
        if t > self.pieces[i][0]:
            return t
        if i > 0:
            return self.pieces[i - 1][1]
        return t

    def sigma(self, t) -> Num:
        """Forward jump: inf of the scale points above ``t``, or ``t`` at the max."""
        return self._sigma_at(*self._find(t))

    def rho(self, t) -> Num:
        """Backward jump: sup of the scale points below ``t``, or ``t`` at the min."""
        return self._rho_at(*self._find(t))

    def mu(self, t) -> Num:
        """Forward graininess sigma(t) - t."""
        i, t = self._find(t)
        return self._sigma_at(i, t) - t

    def nu(self, t) -> Num:
        """Backward graininess t - rho(t)."""
        i, t = self._find(t)
        return t - self._rho_at(i, t)

    def classify(self, t) -> PointClass:
        i, t = self._find(t)
        return PointClass(
            left_dense=self._rho_at(i, t) == t,
            right_dense=self._sigma_at(i, t) == t,
            is_min=t == self.min,
            is_max=t == self.max,
        )

    # -- derived scales ---------------------------------------------------

    def truncate_k(self) -> "TimeScale":
        """Drop the maximum when it is left-scattered, else return self."""
        m = self.max
        if self.rho(m) < m:
            return TimeScale(self.pieces[:-1], self.mode, self.eps)
        return self

    def truncate_k2(self) -> "TimeScale":
        return self.truncate_k().truncate_k()

    def restrict(self, a, b) -> "TimeScale":
        """The sub-scale [a, b] intersected with this scale."""
        a = self.require(a)
        b = self.require(b)
        if a > b:
            raise DomainError("restriction endpoints out of order")
        if a == self.min and b == self.max:
            return self
        out = []
        for lo, hi in self.pieces:
            c = max(lo, a)
            d = min(hi, b)
            if c <= d:
                out.append((c, d))
        return TimeScale(tuple(out), self.mode, self.eps)

    def grid(self, refinement: int = 0) -> list:
        """Isolated points, interval endpoints, and ``refinement`` equally
        spaced interior samples per interval piece, ascending."""
        if refinement < 0:
            raise ValueError("refinement must be nonnegative")
        pts = []
        for lo, hi in self.pieces:
            pts.append(lo)
            if lo == hi:
                continue
            width = hi - lo
            for k in range(1, refinement + 1):
                if self.mode == RATIONAL:
                    pts.append(lo + width * Fraction(k, refinement + 1))
                else:
                    pts.append(lo + width * k / (refinement + 1))
            pts.append(hi)
        return pts

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        pieces = []
        for lo, hi in self.pieces:
            if lo == hi:
                pieces.append({"point": scalar_to_json(lo)})
            else:
                pieces.append({"interval": [scalar_to_json(lo), scalar_to_json(hi)]})
        obj = {"mode": self.mode, "pieces": pieces}
        if self.eps:
            obj["eps"] = self.eps
        return obj

    @classmethod
    def from_json(cls, obj) -> "TimeScale":
        mode = json_object(obj, "scale").get("mode")
        if mode not in (RATIONAL, FLOAT):
            raise DomainError(f"scale mode must be 'rational' or 'float', got {mode!r}")
        raw = obj.get("pieces")
        if not isinstance(raw, list) or not raw:
            raise DomainError("scale JSON needs a nonempty 'pieces' list")
        pieces = []
        for entry in raw:
            if not isinstance(entry, dict) or len(entry) != 1:
                raise DomainError(f"bad piece entry {entry!r}")
            if "point" in entry:
                pieces.append(scalar_from_json(entry["point"], mode))
            elif "interval" in entry:
                iv = entry["interval"]
                if not isinstance(iv, list) or len(iv) != 2:
                    raise DomainError(f"bad interval entry {entry!r}")
                lo = scalar_from_json(iv[0], mode)
                hi = scalar_from_json(iv[1], mode)
                if lo > hi:
                    raise DomainError(f"interval endpoints out of order: {entry!r}")
                pieces.append((lo, hi))
            else:
                raise DomainError(f"piece entry must name 'point' or 'interval': {entry!r}")
        eps = obj.get("eps", 0.0)
        if not isinstance(eps, (int, float)) or isinstance(eps, bool):
            raise DomainError("eps must be a number")
        return cls(tuple(pieces), mode, float(eps))

    @classmethod
    def loads(cls, text: str) -> "TimeScale":
        return cls.from_json(json_loads_strict(text))


def zero_of(scale: TimeScale) -> Num:
    """Additive zero in the scale's numeric mode."""
    return Fraction(0) if scale.mode == RATIONAL else 0.0


def check_grid_size(refinement: int, *scales: TimeScale) -> None:
    """Refuse a product of ``grid(refinement)`` over ``scales`` with more
    than ``GRID_MAX_POINTS`` points, counted without building any grid.

    A negative refinement is left for ``grid`` to refuse."""
    points = 1
    for scale in scales:
        dense = sum(1 for lo, hi in scale.pieces if lo != hi)
        points *= len(scale.pieces) + dense * (max(refinement, 0) + 1)
    if points > GRID_MAX_POINTS:
        raise PreconditionError(
            f"a grid of {points} points at refinement {refinement} is above "
            f"the limit {GRID_MAX_POINTS}"
        )
