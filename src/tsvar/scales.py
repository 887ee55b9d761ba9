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

Each scale keeps one private indexed view of its pieces, read by every
exact walk: the piece lows and highs, the indices of the interval pieces
(``_dense``, which an integral bisects for the dense pieces of its
range), the gaps between consecutive pieces
(computed once; ``restrict`` and ``truncate_k`` slice their parent's) and
their places ``(k, t, sigma(t), mu(t))`` by piece index k, as iterated
integrals and the two-variable kernel read them, and a map from the ``id``
of each of its own endpoint objects to its piece index.  A point is looked
up by identity first, so a walk that hands a scale its own points never
hashes or compares them.  This is sound because the scale keeps those
objects alive, so no other live object has the same ``id``
(``copy.deepcopy``'s memo relies on the same fact).  Other objects take the
value path: a hash of the isolated points, built at the first such probe,
then bisection and eps snapping.

A float quadrature node of one of a scale's dense pieces is not looked up
at all: it lies in its piece by construction, and ``_node`` reads it as the
point it stands for.  A sub-scale made by ``restrict`` or ``truncate_k``
keeps the scale it was cut from.  Data bound to a scale that is or was cut
from their own, or equals it and has a dense piece (``_cut_from``), know
that its points and nodes lie in their own pieces: no lookup.  A scale
remembers the last scale it was found equal to (``_same_as``), so that
binding data or reading a table on an equal copy compares the two once.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections.abc import Iterable
from functools import cached_property
from fractions import Fraction

from .errors import DomainError, PreconditionError, UnsupportedScaleError
from .polyfn import _fraction

Num = Fraction | float

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


def _magnitude(x) -> str:
    e = math.log10(abs(x.numerator)) - math.log10(x.denominator)
    return f"a rational near {'-' if x < 0 else ''}10^{e:.6g}"


def _echo_scalar(x) -> str:
    """``fmt_scalar(x)`` clipped for an error message, or, for a rational
    too long to print, its order of magnitude."""
    try:
        return _clip(fmt_scalar(x))
    except DomainError:
        return _magnitude(x)


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
    """Deterministic text rendering: fractions as p/q, floats via repr.
    An exact value past the interpreter's digit limit raises DomainError."""
    if isinstance(x, (Fraction, int)):
        try:
            return str(x)
        except ValueError:
            raise DomainError(f"{_magnitude(x)} is too long to print") from None
    return repr(float(x))


class _Record:
    """Base of the package's immutable records.

    A record keeps its fields in its ``__dict__``, written once by its own
    ``__init__`` through ``vars(self).update``, and names them in two class
    tuples: ``_shown``, the fields its repr lists, in order, and
    ``_compared``, the fields ``==`` and ``hash`` read.  A field cannot be
    assigned or deleted afterwards; a ``cached_property`` still stores its
    value, since it writes to ``__dict__`` directly.  Pickling and copying
    restore ``__dict__`` as it is."""

    _shown = _compared = ()

    def _values(self, names: tuple) -> tuple:
        fields = vars(self)
        return tuple([fields[name] for name in names])

    def __repr__(self):
        fields = vars(self)
        text = ", ".join(f"{name}={fields[name]!r}" for name in self._shown)
        return f"{type(self).__qualname__}({text})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self._compared) == other._values(self._compared)

    def __hash__(self):
        return hash(self._values(self._compared))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PointClass(_Record):
    """Density classification of one point of a scale."""

    _shown = _compared = ("left_dense", "right_dense", "is_min", "is_max")

    def __init__(self, left_dense: bool, right_dense: bool, is_min: bool, is_max: bool):
        vars(self).update(left_dense=left_dense, right_dense=right_dense, is_min=is_min,
                          is_max=is_max)

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


class TimeScale(_Record):
    """Immutable finite-piece time scale.

    ``pieces`` is canonical after construction: sorted, pairwise
    disjoint, touching pieces merged, each piece a ``(lo, hi)`` pair
    with ``lo == hi`` marking an isolated point.
    """

    # The indexed view (see the module docstring), built by ``_index``, is
    # neither shown nor compared: ``_lows``, ``_highs``, ``_ids``,
    # ``_dense`` (the indices of the interval pieces, ascending),
    # ``_discrete`` (no interval piece) and ``_parent``; the gaps, their
    # places, the isolated-point hash and the truncation (``truncate_k``)
    # are cached properties.
    _shown = _compared = ("pieces", "mode", "eps")
    # The last scale ``_same_as`` found equal to this one.
    _equal = None

    def __init__(self, pieces: tuple, mode: str = RATIONAL, eps: float = 0.0):
        vars(self).update(pieces=pieces, mode=mode, eps=eps)
        # Called through the instance: bench/spans.py counts built scales
        # by wrapping this method.
        self.__post_init__()

    def __post_init__(self):
        if self.mode not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown numeric mode {self.mode!r}")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.eps and self.mode == RATIONAL:
            raise ValueError("eps-based membership applies to float mode only")
        self._index(_canonical_pieces(self.pieces, self.mode))

    def _index(self, pieces: tuple, parent: "TimeScale | None" = None) -> None:
        """Store the canonical ``pieces``, cut from ``parent`` if given, and
        build the indexed view."""
        lows = tuple(lo for lo, _ in pieces)
        # The pieces of ``discrete`` scales and their slices hold one object
        # as lo and hi: one tuple serves as the lows and the highs, and no
        # piece is an interval.
        if all(lo is hi for lo, hi in pieces):
            highs, dense = lows, ()
        else:
            highs = tuple(hi for _, hi in pieces)
            dense = tuple(k for k, (lo, hi) in enumerate(pieces) if lo != hi)
        # Frozen: the index fields are written past the record's __setattr__.
        vars(self).update(pieces=pieces, _lows=lows, _highs=highs, _dense=dense,
                          _discrete=not dense,
                          _ids={id(x): i for i, piece in enumerate(pieces) for x in piece},
                          _parent=parent)

    def _sliced(self, pieces: tuple, cut: slice) -> "TimeScale":
        """This scale's mode and eps on ``pieces``, a clipped run of its own
        canonical pieces, indexed without canonicalizing them again; the
        gaps between them are ``cut`` from this scale's, once known."""
        sub = object.__new__(TimeScale)
        vars(sub).update(mode=self.mode, eps=self.eps)
        sub._index(pieces, self)
        if "_gaps" in vars(self):
            vars(sub)["_gaps"] = self._gaps[cut]
        return sub

    @cached_property
    def _gaps(self) -> tuple:
        """The gap from each piece to the next, computed at the first read.

        On a rational scale each gap is built once by ``_fraction`` from the
        integers in the slots of its two ends, each a Fraction (``as_scalar``),
        which skips the operator dispatch of a Fraction subtraction and the
        type dispatch of ``Fraction.__new__``; a float scale subtracts."""
        pieces = self.pieces
        ends = zip(pieces, pieces[1:])
        if self.mode != RATIONAL:
            return tuple(nxt - hi for (_, hi), (nxt, _) in ends)
        gaps = []
        for (_, hi), (nxt, _) in ends:
            hd, nd = hi._denominator, nxt._denominator
            gaps.append(_fraction(nxt._numerator * hd - hi._numerator * nd, nd * hd))
        return tuple(gaps)

    @cached_property
    def _places(self) -> tuple:
        """The place ``(k, t, sigma(t), mu(t))`` of the right-scattered high t
        of each piece k but the last, by piece index, as an iterated integral
        hands a gap to its integrand (``calculus._iterated``); built at the
        first read."""
        return tuple(zip(range(len(self._gaps)), self._highs, self._lows[1:], self._gaps))

    @cached_property
    def _isolated(self) -> dict:
        """The piece index of each isolated point, for probes that miss ``_ids``."""
        return {lo: i for i, (lo, hi) in enumerate(self.pieces) if lo == hi}

    @cached_property
    def _rounded_ends(self) -> dict:
        """Each float that an interval piece's end rounds to off the scale,
        mapped to that end (to the nearer end, the lower on a tie, when two
        round to it)."""
        ends = {}
        for lo, hi in self.pieces:
            if lo == hi:
                continue
            for end in (lo, hi):
                try:
                    x = float(end)
                except OverflowError:
                    continue
                off = Fraction(x)
                if off != end and off not in self and (
                        x not in ends or abs(end - off) < abs(ends[x] - off)):
                    ends[x] = end
        return ends

    def __reduce__(self):
        # A pickled copy holds new objects, so it builds its own identity map.
        return type(self), (self.pieces, self.mode, self.eps)

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
        return self._discrete

    def points(self) -> list:
        """All points of a purely discrete scale, ascending."""
        if not self.is_discrete:
            raise UnsupportedScaleError("scale has interval pieces, not purely discrete")
        return list(self._lows)

    def _locate(self, t):
        """``(piece index, t)`` for the piece holding ``t``; else ``t``
        snapped onto the nearest piece within eps (the lower one on a
        tie); else None."""
        i = self._ids.get(id(t))
        if i is None:
            i = self._isolated.get(t)
        if i is not None:
            return i, t
        i = bisect_right(self._lows, t) - 1
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

    def _find(self, t):
        """Coerce and locate ``t``: ``(piece index, snapped scalar)``."""
        t = as_scalar(t, self.mode)
        hit = self._locate(t)
        if hit is None:
            raise DomainError(f"{_echo_scalar(t)} is not a point of the scale")
        return hit

    def _same_as(self, other: "TimeScale") -> bool:
        """Whether ``other`` is this scale or equal to it.  The last scale
        found equal is remembered (``_equal``), so that asking again is an
        identity test."""
        if self is other or self._equal is other:
            return True
        if self == other:
            vars(self)["_equal"] = other
            return True
        return False

    def _cut_from(self, other: "TimeScale") -> bool:
        """Whether this scale is ``other``, or was cut from it by ``restrict``
        and ``truncate_k``, so that each of its pieces lies in one of
        ``other``'s.  Where ``other`` has a dense piece, a scale equal to it
        (``_same_as``) counts as ``other``, sparing its float nodes a lookup
        each; a discrete one has no nodes to spare, and is not worth a pass
        over its pieces.  The line of scales, this one and those it was cut
        from, is first walked by identity tests, the memo ``_equal``
        included, and compared only when they find nothing, so that binding
        again on a sub-scale of an equal copy compares no pieces."""
        dense = not other._discrete
        scale = self
        while scale is not other:
            if dense and scale._equal is other:
                return True
            scale = scale._parent
            if scale is None:
                break
        else:
            return True
        scale = self
        while dense and scale is not None:
            if scale._same_as(other):
                return True
            scale = scale._parent
        return False

    def _node(self, x) -> Num:
        """The point that ``x``, a float quadrature node of one of this scale's
        dense pieces, stands for, found without locating it: what ``require``
        would return, ``x`` itself on a float scale and ``Fraction(x)`` on a
        rational one, except that a node float rounding put off the scale
        beside a piece end is read as that end."""
        if self.mode == FLOAT:
            return x
        end = self._rounded_ends.get(x)
        return Fraction(x) if end is None else end

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
        # At an isolated point t is usually hi itself: the identity test
        # spares a Fraction compare, as in _piece_grid.
        hi = self.pieces[i][1]
        if t is not hi and t < hi:
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
        """Drop the maximum when it is left-scattered, else return self.  The
        cut scale is built at the first call and kept."""
        return self._truncated

    @cached_property
    def _truncated(self) -> "TimeScale":
        pieces = self.pieces
        # A left-scattered maximum is an isolated point with a piece below.
        if len(pieces) > 1 and pieces[-1][0] == pieces[-1][1]:
            return self._sliced(pieces[:-1], slice(-1))
        return self

    def truncate_k2(self) -> "TimeScale":
        return self.truncate_k().truncate_k()

    def restrict(self, a, b) -> "TimeScale":
        """The sub-scale [a, b] intersected with this scale."""
        i, a = self._find(a)
        j, b = self._find(b)
        if a > b:
            raise DomainError("restriction endpoints out of order")
        if a == self.min and b == self.max:
            return self
        # The pieces i..j, the first clipped below at a and the last above at b.
        out = list(self.pieces[i:j + 1])
        out[0] = (max(out[0][0], a), out[0][1])
        out[-1] = (out[-1][0], min(out[-1][1], b))
        return self._sliced(tuple(out), slice(i, j))

    def grid(self, refinement: int = 0) -> list:
        """Isolated points, interval endpoints, and ``refinement`` equally
        spaced interior samples per interval piece, ascending."""
        if refinement < 0:
            raise ValueError("refinement must be nonnegative")
        return [t for lo, hi in self.pieces for t in self._piece_grid(lo, hi, refinement)]

    def _piece_grid(self, lo, hi, refinement: int) -> list:
        """The grid points of the piece (lo, hi): lo alone for an isolated
        point, else lo, ``refinement`` equally spaced samples and hi.  The
        pieces of ``discrete`` scales and their slices hold one object as lo
        and hi, so the identity test spares most isolated points a Fraction
        compare.  On a rational scale sample k is lo + (hi - lo) * k / n,
        built from integers over one denominator per piece."""
        if lo is hi or lo == hi:
            return [lo]
        n = refinement + 1
        if self.mode != RATIONAL:
            width = hi - lo
            return [lo, *(lo + width * k / n for k in range(1, n)), hi]
        ln, ld = lo.as_integer_ratio()
        hn, hd = hi.as_integer_ratio()
        base, step, den = ln * hd * n, hn * ld - ln * hd, ld * hd * n
        return [lo, *(_fraction(base + step * k, den) for k in range(1, n)), hi]

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


# The additive zero of each numeric mode, shared: both are immutable.
_ZEROS = {RATIONAL: Fraction(0), FLOAT: 0.0}


def zero_of(scale: TimeScale) -> Num:
    """Additive zero in the scale's numeric mode."""
    return _ZEROS[scale.mode]


def check_grid_size(refinement: int, *scales: TimeScale) -> None:
    """Refuse a product of ``grid(refinement)`` over ``scales`` with more
    than ``GRID_MAX_POINTS`` points, counted without building any grid.

    A negative refinement is then refused as ``grid`` refuses it."""
    points = 1
    for scale in scales:
        dense = sum(1 for lo, hi in scale.pieces if lo is not hi and lo != hi)
        points *= len(scale.pieces) + dense * (max(refinement, 0) + 1)
    if points > GRID_MAX_POINTS:
        raise PreconditionError(
            f"a grid of {points} points at refinement {refinement} is above "
            f"the limit {GRID_MAX_POINTS}"
        )
    if refinement < 0:
        raise ValueError("refinement must be nonnegative")
