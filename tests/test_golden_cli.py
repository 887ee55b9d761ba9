"""CLI output pinned byte for byte on the README examples and fixtures.

``tests/golden/cli.json`` holds, for every command below, the exit code
and the stdout of ``tsvar.cli.run`` in both text and JSON format.  The
numeric paths (quadrature, Richardson limits, jump quotients, the
discrete rewriting chain in float mode) all feed these bytes, so a
refactor that regroups arithmetic shows up here.  Rewrite the file only
when an output change is intended:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import contextlib
import io
from collections import Counter
import json
import os
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli.json"
FIX = "tests/fixtures/"
Z5, Z6, HYBRID = FIX + "z5.json", FIX + "z6.json", FIX + "hybrid01_2.json"
DPROB, DPROB_BAD = FIX + "dprob_grad2.json", FIX + "dprob_bad_axis.json"
DPROB_FLOAT = FIX + "dprob_float_grid.json"
HYBRID_RAT = FIX + "hybrid_rational.json"
README_ETA = "t1*(4-t1)*t2*(4-t2)"

COMMANDS = [
    # README examples
    ["integrate", "--scale", Z6, "--fn", "1", "--a", "0", "--b", "3"],
    ["deriv", "--scale", Z6, "--fn", "t^2", "--t", "3"],
    ["flcv-kernel", "--scale", Z6, "--variant", "delta"],
    ["el-residual", "--problem", FIX + "prob_v2.json", "--y", "t"],
    ["counterexample", "nabla-endpoints"],
    ["derivation-check", "--problem", DPROB, "--u", "t1+t2", "--eta", README_ETA],
    # discrete fixtures
    ["classify", "--scale", Z6, "--t", "2"],
    ["integrate", "--scale", Z6, "--fn", "t^3 - 2/3*t", "--a", "1", "--b", "5"],
    ["deriv", "--scale", Z6, "--fn", FIX + "table_tsq.json", "--t", "2"],
    ["deriv", "--scale", Z6, "--fn", "(t+1)^100", "--t", "4"],
    ["ibp-check", "--scale", Z6, "--f", "t^2 - 3", "--g", "2*t + 1/2", "--a", "0", "--b", "5"],
    ["flcv-kernel", "--scale", Z5, "--variant", "nabla"],
    ["el-residual", "--problem", FIX + "prob_v2.json", "--y", "t^2"],
    ["el-residual", "--problem", FIX + "prob_v2_bc.json", "--y", "t"],
    # an exact nonzero residual fails the default gate, however small
    ["el-residual", "--problem", FIX + "prob_v2.json", "--y", "t + 1/1000000000000*t^2"],
    ["fubini-check", "--scale1", Z5, "--scale2", Z6, "--fn", "t1^2*t2 - 3*t1*t2 + t2"],
    ["double-el", "--problem", DPROB, "--u", "2*t1 - t2 + 1"],
    ["double-el", "--problem", DPROB, "--u", "t1^2 + t1*t2"],
    ["double-el", "--problem", DPROB, "--u", FIX + "table2_sum.json"],
    ["derivation-check", "--problem", DPROB, "--u", "t1*t2 - t2^2", "--eta", README_ETA],
    ["derivation-check", "--problem", DPROB_FLOAT, "--u", "t1*t2 + 0.7*t1 - 1.3*t2^2",
     "--eta", "t1*(2-t1)*t2*(3-t2)"],
    # hybrid fixtures: quadrature, numeric limits, jump quotients
    ["classify", "--scale", HYBRID, "--t", "1.0"],
    ["integrate", "--scale", HYBRID, "--fn", "t^2 + 1", "--a", "0", "--b", "2"],
    ["deriv", "--scale", HYBRID, "--fn", "t^3 - t", "--t", "0.5"],
    ["deriv", "--scale", HYBRID, "--fn", "t^3 - t", "--t", "1.0"],
    ["deriv", "--scale", HYBRID, "--fn", "t^3 - t", "--t", "2.0"],
    ["ibp-check", "--scale", HYBRID, "--f", "t^2", "--g", "t + 1", "--a", "0", "--b", "2"],
    ["fubini-check", "--scale1", HYBRID, "--scale2", HYBRID, "--fn", "t1*t2 + t2^2"],
    ["double-el", "--problem", DPROB_BAD, "--u", "t1*t2"],
    ["double-el", "--problem", DPROB_BAD, "--u", "t1^2*t2 + t2^3", "--refine", "2"],
    ["derivation-check", "--problem", DPROB_BAD, "--u", "t1+t2",
     "--eta", "t1*(1.5-t1)*t2*(1.5-t2)"],
    # rational hybrid fixture: exact antiderivatives on the interval pieces
    ["integrate", "--scale", HYBRID_RAT, "--fn", "t^2 + 1", "--a", "0", "--b", "3"],
    ["integrate", "--scale", HYBRID_RAT, "--fn", "(t+1)^3 - 2/3*t", "--a", "1/2", "--b", "9/4"],
    ["ibp-check", "--scale", HYBRID_RAT, "--f", "t^2 - 1/3", "--g", "2*t^3 + t",
     "--a", "0", "--b", "3"],
    # counterexamples
    ["counterexample", "eta-not-c1"],
    ["counterexample", "eta-not-c1", "--t0", "0.5"],
    ["counterexample", "omega-degenerate"],
    ["counterexample", "sigma-discontinuity"],
    ["counterexample", "nabla-endpoints", "--origin", "3"],
    # malformed input
    ["classify", "--scale", FIX + "malformed_syntax.json", "--t", "0"],
    ["classify", "--scale", FIX + "malformed_nan.json", "--t", "0"],
    ["classify", "--scale", FIX + "malformed_interval.json", "--t", "0"],
]

FORMATS = ("text", "json")

# The numeric branches each command reaches, as (adaptive Simpson calls,
# Richardson limits); every other command runs neither.  A refactor keeps
# these counts, not only the bytes; a change that moves a command to an
# exact path updates them on purpose.
BRANCHES = {
    "integrate --scale tests/fixtures/hybrid01_2.json --fn t^2 + 1 --a 0 --b 2": (1, 0),
    "ibp-check --scale tests/fixtures/hybrid01_2.json --f t^2 --g t + 1 --a 0 --b 2": (4, 0),
    "fubini-check --scale1 tests/fixtures/hybrid01_2.json --scale2 tests/fixtures/hybrid01_2.json"
    " --fn t1*t2 + t2^2": (14, 0),
    "double-el --problem tests/fixtures/dprob_bad_axis.json --u t1*t2": (0, 171),
    "double-el --problem tests/fixtures/dprob_bad_axis.json --u t1^2*t2 + t2^3 --refine 2": (0, 21),
}


def _key(argv, fmt):
    return " ".join(argv + ["--format", fmt])


def _run(argv, fmt):
    from tsvar.cli import run

    out = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        code = run(argv + ["--format", fmt], out=out)
    return {"code": code, "stdout": out.getvalue()}


def _record():
    return {_key(argv, fmt): _run(argv, fmt) for argv in COMMANDS for fmt in FORMATS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(_key(argv, fmt) for argv in COMMANDS for fmt in FORMATS)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv))
def test_cli_output_matches_golden(golden, at_root, argv, fmt):
    assert _run(argv, fmt) == golden[_key(argv, fmt)]


def test_each_command_reaches_its_numeric_branches(at_root, monkeypatch):
    import tsvar.calculus
    import tsvar.quadrature

    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (tsvar.quadrature, tsvar.calculus):
        for name in ("adaptive_simpson", "richardson_limit"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    reached = {}
    for argv in COMMANDS:
        counts.clear()
        _run(argv, "text")
        reached[" ".join(argv)] = (counts["adaptive_simpson"], counts["richardson_limit"])
    assert {cmd: n for cmd, n in reached.items() if n != (0, 0)} == BRANCHES
    assert len(reached) - len(BRANCHES) == 37


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    os.chdir(ROOT)
    GOLDEN.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
