"""cli-readme: the README examples and fixture commands, one process each.

Every command runs as a fresh ``python -m tsvar.cli`` child with the
source tree on PYTHONPATH, so no installed console script is needed.
Interpreter start, ``import tsvar.cli``, argument parsing and rendering
dominate here.  The command list is drawn once per seed and repeated in
every round, so each command's stdout must be byte-identical across
repeats.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import oracles
from cases import Case

NAME = "cli-readme"

FIX = "tests/fixtures/"
Z5, Z6 = FIX + "z5.json", FIX + "z6.json"
HYBRID = FIX + "hybrid01_2.json"
PROB_V2, DPROB, DPROB_BAD = FIX + "prob_v2.json", FIX + "dprob_grad2.json", FIX + "dprob_bad_axis.json"
MALFORMED = ("malformed_syntax.json", "malformed_nan.json", "malformed_interval.json")
README_ETA = "t1*(4-t1)*t2*(4-t2)"
CHAIN_LABELS = (
    "region-split", "core-by-parts", "t1-strip-single-cell",
    "strip-collapse-identity", "t1-strip-substitute", "t1-strip-drop-d2",
    "t2-strip-reduce", "combine",
)
CHILD_TIMEOUT_S = 60
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("TSVAR_TOL", None)
    return env


def spawn(root: str, argv: list):
    """Run one CLI command in a fresh interpreter: (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "tsvar.cli", *argv], cwd=root,
                          env=child_env(root), capture_output=True, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


def run_in_process(cli, argv: list):
    """Run one CLI command through ``tsvar.cli.run`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(list(argv), out=out)
    return code, out.getvalue(), err.getvalue()


# -- answer checks on (exit code, stdout, stderr) ---------------------------------


def expect(code: int, test=None):
    def check(out):
        if isinstance(out, BaseException):
            return f"raised {type(out).__name__}: {out}"
        got, stdout, stderr = out
        if got != code:
            return f"exit {got}, expected {code}; stderr {stderr.strip()[:200]!r}"
        if test is not None and not test(stdout):
            return f"unexpected stdout {stdout[:300]!r}"
        return None

    return check


def lines_include(*wanted):
    return lambda stdout: all(w in stdout.splitlines() for w in wanted)


def json_results(test):
    def check(stdout):
        report = json.loads(stdout)
        return test(report["results"], report["status"])

    return check


def integer_poly(rng) -> tuple:
    """A random quadratic in t with small integer coefficients: (text, coefficients)."""
    coeffs = [rng.randint(-5, 5) for _ in range(3)]
    text = " + ".join(f"({c})*t^{k}" for k, c in enumerate(coeffs))
    return text, coeffs


def commands(seed: int) -> list:
    """(name, argv, check) for every command of one run, drawn from the seed."""
    rng = random.Random(seed)
    z6 = [Fraction(k) for k in range(6)]
    z5 = [Fraction(k) for k in range(1, 6)]
    z6_pieces = [(t, t) for t in z6]
    out = []

    def add(name, argv, check):
        out.append((name, [str(a) for a in argv], check))

    add("readme.integrate", ["integrate", "--scale", Z6, "--fn", "1", "--a", "0", "--b", "3"],
        expect(0, lambda s: s == "3\n"))
    text, coeffs = integer_poly(rng)
    a = rng.randint(0, 3)
    b = rng.randint(a + 1, 5)
    total = oracles.delta_sum(z6, lambda t: sum(c * t ** k for k, c in enumerate(coeffs)), a, b)
    argv = ["integrate", "--scale", Z6, "--fn", text, "--a", a, "--b", b]
    add("integrate.poly", argv, expect(0, lambda s: s == f"{total}\n"))
    add("integrate.poly.json", argv + ["--format", "json"], expect(0, json_results(
        lambda res, status: res == {"value": str(total), "exact": True} and status == "ok")))

    td = rng.randint(0, 4)
    slope = str(2 * td + 1)
    add("readme.deriv.json", ["deriv", "--scale", Z6, "--fn", "t^2", "--t", td, "--format", "json"],
        expect(0, json_results(lambda res, status: res["value"] == slope
                               and res["method"] == "exact-quotient")))
    add("deriv.table", ["deriv", "--scale", Z6, "--fn", FIX + "table_tsq.json", "--t", td],
        expect(0, lambda s: s == slope + "\n"))
    # One large expression: the parser expands a 100th power.
    big = f"{(td + 2) ** 100 - (td + 1) ** 100}\n"
    add("deriv.power100", ["deriv", "--scale", Z6, "--fn", "(t+1)^100", "--t", td],
        expect(0, lambda s: s == big))

    tc = rng.randint(0, 5)
    label, sigma, rho = oracles.classify(z6_pieces, Fraction(tc))
    add("classify", ["classify", "--scale", Z6, "--t", tc],
        expect(0, lines_include(f"t = {tc}: {label}",
                                f"sigma = {sigma}, rho = {rho}, mu = {sigma - tc}, nu = {tc - rho}")))
    x = rng.choice((0.0, 0.5, 1.0, 2.0))
    hybrid_class = oracles.classify([(0.0, 1.0), (2.0, 2.0)], x)
    add("classify.hybrid.json", ["classify", "--scale", HYBRID, "--t", repr(x), "--format", "json"],
        expect(0, json_results(lambda res, status: (res["class"], res["sigma"], res["rho"])
                               == (hybrid_class[0], repr(hybrid_class[1]), repr(hybrid_class[2])))))

    constrained, free = oracles.delta_kernel_sets(z6)
    add("readme.flcv-kernel", ["flcv-kernel", "--scale", Z6, "--variant", "delta"],
        expect(0, lines_include("constrained   = {" + ", ".join(map(str, constrained)) + "}",
                                "unconstrained = {" + ", ".join(map(str, free)) + "}")))
    nabla_sets = [[str(p) for p in side] for side in oracles.nabla_kernel_sets(z5)]
    add("flcv-kernel.nabla.json", ["flcv-kernel", "--scale", Z5, "--variant", "nabla",
                                   "--format", "json"],
        expect(0, json_results(lambda res, status: [res["constrained"], res["unconstrained"]]
                               == nabla_sets and res["claim_holds"] is False)))

    c0, c1 = rng.randint(-5, 5), rng.randint(1, 5)
    add("readme.el-residual", ["el-residual", "--problem", PROB_V2, "--y", f"({c1})*t + ({c0})"],
        expect(0, lines_include("max |residual| = 0 (ok)")))
    worst = oracles.el_v2_max_residual(z6, lambda s: s * s)
    add("el-residual.planted", ["el-residual", "--problem", PROB_V2, "--y", "t^2"],
        expect(1, lines_include(f"max |residual| = {worst} (fail)")))

    f_text, _ = integer_poly(rng)
    g_text, _ = integer_poly(rng)
    add("ibp-check", ["ibp-check", "--scale", Z6, "--f", f_text, "--g", g_text, "--a", 0, "--b", 5],
        expect(0, lines_include("form 1: residual = 0", "form 2: residual = 0")))

    p, q, r = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
    add("double-el", ["double-el", "--problem", DPROB, "--u", f"({p})*t1 + ({q})*t2 + ({r})"],
        expect(0, lines_include("max |residual| = 0 (ok)", "evaluated at 9 points, 7 undefined")))
    # Planted negative: a surface with nonzero Laplacian is not stationary
    # for grad2; the oracle computes the exact kernel maximum.
    k = rng.randint(-3, 3)
    grid = [Fraction(i) for i in range(5)]
    grad2 = {(0, 0, 0, 2, 0): Fraction(1), (0, 0, 0, 0, 2): Fraction(1)}
    table = {(a1, a2): a1 * a1 + k * a1 * a2 for a1 in grid for a2 in grid}
    worst2, defined, undefined = oracles.double_el_map(grid, grid, grad2, table)
    add("double-el.planted.json", ["double-el", "--problem", DPROB, "--u", f"t1^2 + ({k})*t1*t2",
                                   "--format", "json"],
        expect(1, json_results(lambda res, status: res["max_abs_residual"] == str(worst2)
                               and len(res["residuals"]) == defined
                               and len(res["gaps"]) == undefined and status == "fail")))

    a1, a2, a3 = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
    add("fubini-check", ["fubini-check", "--scale1", Z5, "--scale2", Z6,
                         "--fn", f"({a1})*t1^2*t2 + ({a2})*t1*t2 + ({a3})*t2"],
        expect(0, lines_include("|order swap residual| = 0 (ok)")))
    add("fubini-check.hybrid", ["fubini-check", "--scale1", HYBRID, "--scale2", HYBRID,
                                "--fn", "t1*t2"],
        expect(0, lambda s: s.rstrip("\n").endswith("(ok)")))

    zero_steps = [f"{lab}: residual = 0" for lab in CHAIN_LABELS]
    add("readme.derivation-check", ["derivation-check", "--problem", DPROB, "--u", "t1+t2",
                                    "--eta", README_ETA],
        expect(0, lines_include(*zero_steps, "max |residual| = 0.0 (ok)")))
    b1, b2, b3 = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
    add("derivation-check.json", ["derivation-check", "--problem", DPROB,
                                  "--u", f"({b1})*t1 + ({b2})*t2 + ({b3})*t1*t2",
                                  "--eta", README_ETA, "--format", "json"],
        expect(0, json_results(lambda res, status: res["steps"]
                               == [[lab, "0"] for lab in CHAIN_LABELS] and status == "ok")))
    add("derivation-check.refused", ["derivation-check", "--problem", DPROB_BAD, "--u", "t1+t2",
                                     "--eta", "t1*(1.5-t1)*t2*(1.5-t2)"],
        expect(2, lambda s: s == ""))

    add("readme.counterexample", ["counterexample", "nabla-endpoints"],
        expect(0, lines_include("confirmed: true")))
    origin = rng.randint(-5, 5)
    witness = "{" + ", ".join(str(origin + i) for i in range(5)) + "}"
    add("counterexample.origin.json", ["counterexample", "nabla-endpoints", "--origin", origin,
                                       "--format", "json"],
        expect(0, json_results(lambda res, status: res["confirmed"] is True
                               and res["witness"]["scale"] == witness)))
    add("counterexample.omega", ["counterexample", "omega-degenerate"],
        expect(0, lines_include("confirmed: true")))
    add("counterexample.sigma", ["counterexample", "sigma-discontinuity"],
        expect(0, lines_include("confirmed: true")))
    add("counterexample.bad-witness", ["counterexample", "eta-not-c1", "--t0", "0.5"],
        expect(2, lambda s: s == ""))

    for name in MALFORMED:
        add(f"malformed.{name}", ["classify", "--scale", FIX + name, "--t", "0"],
            expect(2, lambda s: s == ""))
    return out


class Workload:
    """The same command list every round; stdout must repeat byte for byte."""

    def __init__(self, ts, seed: int):
        self.root = ROOT
        self.commands = commands(seed)
        self.first_stdout = {}

    def _case(self, index, name, call, check):
        def checked(out):
            msg = check(out)
            if msg or isinstance(out, BaseException):
                return msg
            seen = self.first_stdout.setdefault(index, out[1])
            return None if seen == out[1] else "stdout differs from an earlier repeat"

        return Case(name, call, checked)

    def round(self, r: int) -> list:
        return [self._case(i, name, lambda argv=argv: spawn(self.root, argv), check)
                for i, (name, argv, check) in enumerate(self.commands)]

    def in_process_round(self, cli) -> list:
        return [self._case(i, name, lambda argv=argv: run_in_process(cli, argv), check)
                for i, (name, argv, check) in enumerate(self.commands)]
