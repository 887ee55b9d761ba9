"""Sparse polynomials with exact coefficients and a small expression parser.

The command line accepts only polynomial expressions; anything richer
must arrive as tabulated values.  Polynomials double as Lagrangian
definitions: they evaluate exactly on Fractions and provide analytic
partial derivatives, which keeps every identity check on discrete
rational scales exact.

Calling a ``Poly`` takes one of three branches, chosen by argument type:

- exact scalars (``int``, ``Fraction``): integer arithmetic over one
  common denominator, from a plan of scaled integer coefficients built
  once per ``Poly``, and a single ``Fraction`` at the end;
- any ``Poly`` argument (a symbolic node): each power computed once and
  every term accumulated into one exponent dict;
- anything else (floats): term by term, so that float sums keep one
  fixed order and their exact bits.

``subs`` shares the exact branch's plan and power table.  A ``PolyTuple``
calls several Polys at once, at exact scalars from one plan that builds each
power table once; a ``Poly``'s exact branch is its one-output case.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import add

# Size limits on expanded polynomials.  They bound the time and memory a
# short expression such as "(t+1)^2000" or "((2^200)^200)^200" can cost;
# the largest input in the tests, the README and the bench is "(t+1)^100".
POLY_MAX_DEGREE = 200
POLY_MAX_TERM_PAIRS = 20_000
POLY_MAX_COEFF_BITS = 4096


class PolySizeError(ValueError):
    """An expanded polynomial would pass one of the size limits above."""


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+/\d+|\d+\.\d*|\.\d+|\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()]))"
)


_EXACT = (int, Fraction)


def _check_bits(c: Fraction) -> None:
    bits = max(c.numerator.bit_length(), c.denominator.bit_length())
    if bits > POLY_MAX_COEFF_BITS:
        raise PolySizeError(
            f"polynomial coefficient too large: {bits} bits (limit {POLY_MAX_COEFF_BITS})"
        )


def _check_same_variables(left: tuple, right: tuple) -> None:
    if left != right:
        raise TypeError(
            f"polynomials over different variables: ({', '.join(left)}) and ({', '.join(right)})"
        )


def _power_table(x, top: int):
    """For the exact scalar ``x = p/q`` in lowest terms, the integers
    ``p^e * q^(top - e)`` for e = 0 … top, and ``q^top``."""
    p, q = x.as_integer_ratio()
    if top == 1:
        return (q, p), q
    return [p**e * q ** (top - e) for e in range(top + 1)], q**top


def _plan(polys) -> tuple:
    """``(active, tops, outputs)`` for Polys over the same variables: the variables
    that occur in any of them, the top exponent of each, and per Poly the lcm ``D``
    of its denominators with, per term, ``(D * c, exponents of active)``; no Poly."""
    tops = [max(col) for col in zip(*[expo for p in polys for expo in p.terms])]
    active = tuple(j for j, top in enumerate(tops) if top)
    outputs = []
    for p in polys:
        den = lcm(*(c.denominator for c in p.terms.values()))
        outputs.append((den, tuple((c.numerator * (den // c.denominator),
                                    tuple(expo[j] for j in active))
                                   for expo, c in p.terms.items())))
    return active, tuple(tops[j] for j in active), tuple(outputs)


def _values(plan: tuple, args) -> list:
    """The values of a ``_plan``'s Polys at the exact scalars ``args``: each
    power table is built once and shared, and each value is one Fraction."""
    active, tops, outputs = plan
    tables = []
    scale = 1  # the product of the tables' q^top, shared by every value
    for j, top in zip(active, tops):
        table, q_top = _power_table(args[j], top)
        tables.append(table)
        scale *= q_top
    values = []
    for den, terms in outputs:
        num = 0
        for n, expo in terms:
            for table, e in zip(tables, expo):
                n *= table[e]
            num += n
        values.append(Fraction(num, den * scale))
    return values


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

    __slots__ = ("variables", "terms", "_plan")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean = {}
        for expo, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                _check_bits(c)
                expo = tuple(int(e) for e in expo)
                clean[expo] = clean.get(expo, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c}
        self._plan = None

    @classmethod
    def _make(cls, variables, terms) -> "Poly":
        """A Poly over the tuple ``variables`` from ``terms`` that
        arithmetic produced: distinct tuples of ints mapped to Fractions.
        Zero coefficients are dropped and the bit limit is still checked."""
        self = object.__new__(cls)
        self.variables = variables
        self.terms = {e: c for e, c in terms.items() if c}
        for c in self.terms.values():
            _check_bits(c)
        self._plan = None
        return self

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

    # Arithmetic takes a Poly over the same variables or an exact scalar
    # (int or Fraction) on either side; a float, or a Poly over other
    # variables, is refused with TypeError.

    def __add__(self, other) -> "Poly":
        if isinstance(other, Poly):
            _check_same_variables(self.variables, other.variables)
            pairs = other.terms.items()
        elif isinstance(other, _EXACT):
            pairs = (((0,) * len(self.variables), Fraction(other)),)
        else:
            return NotImplemented
        merged = dict(self.terms)
        for expo, c in pairs:
            merged[expo] = merged[expo] + c if expo in merged else c
        return Poly._make(self.variables, merged)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, (Poly,) + _EXACT):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return -self + other

    def degree(self) -> int:
        """Total degree; 0 for constants, including the zero polynomial."""
        return max((sum(expo) for expo in self.terms), default=0)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, _EXACT):
                return NotImplemented
            return Poly._make(self.variables, {e: c * other for e, c in self.terms.items()})
        _check_same_variables(self.variables, other.variables)
        pairs = len(self.terms) * len(other.terms)
        degree = self.degree() + other.degree()
        if pairs > POLY_MAX_TERM_PAIRS or degree > POLY_MAX_DEGREE:
            raise PolySizeError(
                f"polynomial product too large: {pairs} term pairs (limit "
                f"{POLY_MAX_TERM_PAIRS}), degree {degree} (limit {POLY_MAX_DEGREE})"
            )
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(map(add, e1, e2))
                out[expo] = out[expo] + c1 * c2 if expo in out else c1 * c2
        return Poly._make(self.variables, out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        if not isinstance(other, _EXACT):
            return NotImplemented
        return self * (1 / Fraction(other))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative exponents are not polynomial")
        if n > POLY_MAX_DEGREE:
            raise PolySizeError(f"exponent {n} is above the limit {POLY_MAX_DEGREE}")
        if n <= 1:
            return self if n else Poly.constant(self.variables, 1)
        half = self ** (n // 2)
        return half * half * self if n % 2 else half * half

    def diff(self, name: str) -> "Poly":
        i = self.variables.index(name)
        out = {}
        for expo, c in self.terms.items():
            if expo[i]:
                lowered = expo[:i] + (expo[i] - 1,) + expo[i + 1:]
                out[lowered] = c * expo[i]
        return Poly._make(self.variables, out)

    def integrate(self, name: str) -> "Poly":
        """The antiderivative in ``name`` whose terms all contain ``name``."""
        i = self.variables.index(name)
        out = {}
        for expo, c in self.terms.items():
            raised = expo[:i] + (expo[i] + 1,) + expo[i + 1:]
            out[raised] = c / raised[i]
        return Poly._make(self.variables, out)

    # Evaluation: the three branches of the module docstring.

    def _scalar_plan(self) -> tuple:
        """The ``_plan`` of this Poly alone, built once: its exact branch."""
        if self._plan is None:
            self._plan = _plan((self,))
        return self._plan

    def _exact_call(self, args) -> Fraction:
        return _values(self._scalar_plan(), args)[0]

    def _symbolic_call(self, args):
        variables = None
        for a in args:
            if type(a) is Poly:
                if variables is None:
                    variables = a.variables
                _check_same_variables(variables, a.variables)
            elif not isinstance(a, _EXACT):
                raise TypeError(f"cannot mix {type(a).__name__} with Poly arguments")
        powers = [{} for _ in args]
        out = {}
        scalar = Fraction(0)
        symbolic = False
        for expo, c in self.terms.items():
            node = None
            for j, e in enumerate(expo):
                if e:
                    power = powers[j].get(e)
                    if power is None:
                        power = powers[j][e] = args[j] ** e
                    if type(power) is Poly:
                        node = power if node is None else node * power
                    else:
                        c = c * power
            if node is None:
                scalar += c
                continue
            symbolic = True
            for e, nc in node.terms.items():
                nc = c * nc
                _check_bits(nc)
                out[e] = out[e] + nc if e in out else nc
        if not symbolic:
            return scalar
        zero = (0,) * len(variables)
        out[zero] = out[zero] + scalar if zero in out else scalar
        return Poly._make(variables, out)

    def subs(self, i: int, value):
        """Substitute the exact scalar ``value`` for variable ``i``.

        The result is a scalar once no variable is left, as from
        ``__call__``; otherwise a Poly over the same variables."""
        if not isinstance(value, _EXACT):
            raise TypeError(f"subs takes an int or a Fraction, not {type(value).__name__}")
        active, _, ((den, terms),) = self._scalar_plan()
        if active in ((), (i,)):
            return self._exact_call((0,) * i + (value,) + (0,) * (len(self.variables) - i - 1))
        top = max(expo[i] for expo in self.terms)
        table, q_top = _power_table(value, top)
        den *= q_top
        out = {}
        for expo, (n, _) in zip(self.terms, terms):
            rest = expo[:i] + (0,) + expo[i + 1:]
            n *= table[expo[i]]
            out[rest] = out[rest] + n if rest in out else n
        out = {e: Fraction(n, den) for e, n in out.items() if n}
        if not any(any(expo) for expo in out):
            return sum(out.values(), Fraction(0))
        return Poly._make(self.variables, out)

    def __call__(self, *args):
        if len(args) != len(self.variables):
            raise TypeError(
                f"expected {len(self.variables)} arguments "
                f"({', '.join(self.variables)}), got {len(args)}"
            )
        for a in args:
            if type(a) is not Fraction and type(a) is not int:
                break
        else:
            return self._exact_call(args)
        if Poly in map(type, args):
            return self._symbolic_call(args)
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


class PolyTuple:
    """Polys over the same variables, called together for the list of their values:
    at int and Fraction arguments from one plan, each power table built once and
    each value that Poly's own Fraction; at any other argument by each Poly's call."""

    __slots__ = ("polys", "plan")

    def __init__(self, polys):
        self.polys = tuple(polys)
        for p in self.polys[1:]:
            _check_same_variables(self.polys[0].variables, p.variables)
        self.plan = _plan(self.polys)

    def __call__(self, *args) -> list:
        for a in args:
            if type(a) is not Fraction and type(a) is not int:
                return [p(*args) for p in self.polys]
        if self.polys and len(args) != len(self.polys[0].variables):
            raise TypeError(f"expected {len(self.polys[0].variables)} arguments, got {len(args)}")
        return _values(self.plan, args)
