"""Sparse polynomials with exact coefficients and a small expression parser.

The command line accepts only polynomial expressions; anything richer
must arrive as tabulated values.  Polynomials double as Lagrangian
definitions: they evaluate exactly on Fractions and provide analytic
partial derivatives, which keeps every identity check on discrete
rational scales exact.
"""

from __future__ import annotations

import re
from fractions import Fraction

# Size limits on expanded polynomials.  They bound the time and memory a
# short expression such as "(t+1)^2000" or "((2^200)^200)^200" can cost;
# the largest input in the tests, the README and the bench is "(t+1)^100".
POLY_MAX_DEGREE = 200
POLY_MAX_TERM_PAIRS = 20_000
POLY_MAX_COEFF_BITS = 4096

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+/\d+|\d+\.\d*|\.\d+|\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"bad character in expression at position {pos}: {text[pos:]!r}")
        if m.group("num") is not None:
            out.append(("num", Fraction(m.group("num"))))
        elif m.group("name") is not None:
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    out.append(("end", None))
    return out


class Poly:
    """Polynomial over a fixed tuple of named variables.

    ``terms`` maps exponent tuples to Fraction coefficients.  Instances
    are immutable by convention.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean = {}
        for expo, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > POLY_MAX_COEFF_BITS:
                    raise ValueError(
                        f"polynomial coefficient too large: {bits} bits "
                        f"(limit {POLY_MAX_COEFF_BITS})"
                    )
                expo = tuple(int(e) for e in expo)
                clean[expo] = clean.get(expo, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def constant(cls, variables, c) -> "Poly":
        return cls(variables, {tuple([0] * len(tuple(variables))): Fraction(c)})

    @classmethod
    def var(cls, variables, name) -> "Poly":
        variables = tuple(variables)
        expo = [0] * len(variables)
        expo[variables.index(name)] = 1
        return cls(variables, {tuple(expo): Fraction(1)})

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __add__(self, other) -> "Poly":
        merged = dict(self.terms)
        for expo, c in other.terms.items():
            merged[expo] = merged.get(expo, Fraction(0)) + c
        return Poly(self.variables, merged)

    def __neg__(self) -> "Poly":
        return Poly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-other)

    def degree(self) -> int:
        """Total degree; 0 for constants, including the zero polynomial."""
        return max((sum(expo) for expo in self.terms), default=0)

    def __mul__(self, other) -> "Poly":
        pairs = len(self.terms) * len(other.terms)
        degree = self.degree() + other.degree()
        if pairs > POLY_MAX_TERM_PAIRS or degree > POLY_MAX_DEGREE:
            raise ValueError(
                f"polynomial product too large: {pairs} term pairs (limit "
                f"{POLY_MAX_TERM_PAIRS}), degree {degree} (limit {POLY_MAX_DEGREE})"
            )
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                out[expo] = out.get(expo, Fraction(0)) + c1 * c2
        return Poly(self.variables, out)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative exponents are not polynomial")
        if n > POLY_MAX_DEGREE:
            raise ValueError(f"exponent {n} is above the limit {POLY_MAX_DEGREE}")
        if n <= 1:
            return self if n else Poly.constant(self.variables, 1)
        half = self ** (n // 2)
        return half * half * self if n % 2 else half * half

    def diff(self, name: str) -> "Poly":
        i = self.variables.index(name)
        out = {}
        for expo, c in self.terms.items():
            if expo[i] == 0:
                continue
            lowered = list(expo)
            lowered[i] -= 1
            out[tuple(lowered)] = out.get(tuple(lowered), Fraction(0)) + c * expo[i]
        return Poly(self.variables, out)

    def __call__(self, *args):
        if len(args) != len(self.variables):
            raise TypeError(
                f"expected {len(self.variables)} arguments "
                f"({', '.join(self.variables)}), got {len(args)}"
            )
        total = None
        for expo, c in self.terms.items():
            term = c
            for v, e in zip(args, expo):
                if e:
                    term = term * v ** e
            total = term if total is None else total + term
        if total is None:
            return Fraction(0) if not any(isinstance(a, float) for a in args) else 0.0
        return total

    def __repr__(self):
        return f"Poly({self.variables!r}, {self.terms!r})"

    @classmethod
    def parse(cls, text: str, variables) -> "Poly":
        """Parse ``text`` over the given variables.

        Grammar: sums and differences of products of powers, with
        parentheses; numeric literals may be integers, decimals, or
        ``p/q`` fractions; exponents are nonnegative integers.
        """
        variables = tuple(variables)
        tokens = _tokenize(text)
        pos = 0

        def peek():
            return tokens[pos]

        def take():
            nonlocal pos
            tok = tokens[pos]
            pos += 1
            return tok

        def parse_expr() -> "Poly":
            sign = 1
            if peek() == ("op", "+"):
                take()
            elif peek() == ("op", "-"):
                take()
                sign = -1
            node = parse_term()
            if sign < 0:
                node = -node
            while peek()[0] == "op" and peek()[1] in "+-":
                op = take()[1]
                rhs = parse_term()
                node = node + rhs if op == "+" else node - rhs
            return node

        def parse_term() -> "Poly":
            node = parse_factor()
            while peek() == ("op", "*"):
                take()
                node = node * parse_factor()
            return node

        def parse_factor() -> "Poly":
            node = parse_atom()
            if peek() == ("op", "^"):
                take()
                kind, val = take()
                if kind != "num" or val.denominator != 1 or val < 0:
                    raise ValueError("exponent must be a nonnegative integer")
                node = node ** int(val)
            return node

        def parse_atom() -> "Poly":
            kind, val = take()
            if kind == "num":
                return cls.constant(variables, val)
            if kind == "name":
                if val not in variables:
                    raise ValueError(
                        f"unknown variable {val!r}; expected one of {', '.join(variables)}"
                    )
                return cls.var(variables, val)
            if (kind, val) == ("op", "("):
                node = parse_expr()
                if take() != ("op", ")"):
                    raise ValueError("unbalanced parentheses")
                return node
            raise ValueError(f"unexpected token {val!r}")

        node = parse_expr()
        if peek()[0] != "end":
            raise ValueError(f"trailing input after expression: {peek()[1]!r}")
        return node
