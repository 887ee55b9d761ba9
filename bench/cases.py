"""Verdict cases, answer checks and seeded input helpers.

A case is one call into a public tsvar entry point (or one CLI
invocation) plus a check of its answer against a known answer that the
benchmark computed itself.  Only ``call`` is timed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional


@dataclass
class Case:
    name: str
    call: Callable[[], Any]
    # Returns None when the outcome matches the known answer, otherwise
    # a short description of the mismatch.  The outcome is the return
    # value of ``call`` or the exception it raised.
    check: Callable[[Any], Optional[str]]
    # True only for cases that fail at the seed commit for a recorded
    # reason; they still count in ``failed``.
    known_failure: bool = False


def _raised(out) -> Optional[str]:
    if isinstance(out, BaseException):
        return f"raised {type(out).__name__}: {out}"
    return None


def exactly(expected, get=lambda v: v) -> Callable[[Any], Optional[str]]:
    """The answer equals ``expected`` with ``==`` (exact rationals)."""

    def check(out):
        bad = _raised(out)
        if bad:
            return bad
        got = get(out)
        if got == expected and type(got) is not float:
            return None
        return f"expected exactly {expected!r}, got {got!r}"

    return check


def close_to(expected: float, tol: float, get=lambda v: v) -> Callable[[Any], Optional[str]]:
    """|answer - expected| <= tol, as floats."""

    def check(out):
        bad = _raised(out)
        if bad:
            return bad
        got = float(get(out))
        if math.isfinite(got) and abs(got - expected) <= tol:
            return None
        return f"expected {expected!r} within {tol:g}, got {got!r}"

    return check


def at_most(bound: float, get=lambda v: v) -> Callable[[Any], Optional[str]]:
    def check(out):
        bad = _raised(out)
        if bad:
            return bad
        got = float(get(out))
        if math.isfinite(got) and abs(got) <= bound:
            return None
        return f"expected |value| <= {bound:g}, got {got!r}"

    return check


def all_of(*checks) -> Callable[[Any], Optional[str]]:
    def check(out):
        for c in checks:
            msg = c(out)
            if msg:
                return msg
        return None

    return check


def rand_fraction(rng, lo=-9, hi=9, dmax=9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, dmax))


def rand_points(rng, n: int) -> list:
    """Ascending rational points with uneven gaps (denominators divide 6)."""
    t = Fraction(rng.randint(-3, 3))
    pts = [t]
    for _ in range(n - 1):
        t = t + Fraction(rng.randint(1, 4), rng.randint(1, 3))
        pts.append(t)
    return pts


def round_rng(seed: int, round_no: int) -> random.Random:
    """Independent generator for one round of one seed."""
    return random.Random(seed * 1_000_003 + round_no)
