"""The Python examples in README.md run, and their comments hold.

Every ```python block runs in order, in one namespace.  A top-level
expression statement whose trailing comment is itself an expression
(``ts.sigma(2)  # Fraction(3, 1)``) must equal that value.  A comment in
prose cannot be evaluated; the four prose claims are asserted
explicitly below, on the values their expressions produced.
"""

import ast
import io
import pathlib
import re
import tokenize
from fractions import Fraction

from tsvar import ANALYTIC, EXACT_QUOTIENT

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def _comments(source: str) -> dict:
    """Line number -> comment text (without '#') of each comment."""
    return {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }


def _run_readme():
    """Run the blocks; return (namespace, values by expression text,
    literal checks), each check an (expression text, value, expected) triple."""
    ns = {}
    values = {}
    checks = []
    for source in _blocks():
        comments = _comments(source)
        for stmt in ast.parse(source).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
                continue
            text = ast.get_source_segment(source, stmt)
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns)
            values[text] = value
            comment = comments.get(stmt.end_lineno)
            if comment is None:
                continue
            try:
                expected = eval(comment, ns)
            except SyntaxError:
                continue  # prose
            checks.append((text, value, expected))
    return ns, values, checks


def test_readme_examples():
    ns, values, checks = _run_readme()
    assert len(checks) == 12
    for text, value, expected in checks:
        assert value == expected, text

    # Fraction(7, 1), exact quotient
    quotient = values["delta_deriv(f.scale, f, 3).value"]
    assert type(quotient) is Fraction and quotient == 7
    assert eval("delta_deriv(f.scale, f, 3)", ns).method == EXACT_QUOTIENT

    # value Fraction(147, 4), 'analytic', est_error 0.0
    dres = values['delta_deriv(ts, g, Fraction(7, 2))']
    assert type(dres.value) is Fraction
    assert (dres.value, dres.method, dres.est_error) == (Fraction(147, 4), ANALYTIC, 0.0)

    # Fraction(0): the minimizer is exact on a rational scale
    assert type(values["el_residual(p, y).max_abs_residual"]) is Fraction

    # about 52.75, a float from Simpson
    approx = values["delta_integral(ts, lambda t: t ** 3, 0, 4)"]
    assert type(approx) is float and abs(approx - 52.75) <= 1e-9
    assert type(values["delta_integral(ts, g, 0, 4)"]) is Fraction

    # eight labeled steps, every residual exactly 0
    steps = values["[(s.label, s.residual) for s in derivation_chain_check(dp, u, eta)]"]
    assert len(steps) == 8 and len({label for label, _ in steps}) == 8
    assert all(type(r) is Fraction and r == 0 for _, r in steps)
