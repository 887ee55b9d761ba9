"""Command-line interface.

Exit codes: 0 success, 1 a numeric verdict failed (residual above the
pass threshold, unconfirmed counterexample, non-convergent limit), 2
usage, I/O, or malformed input.  JSON reports are rendered with sorted
keys and pre-formatted numbers, so identical inputs give identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .calculus import ScaleFn, delta_deriv, delta_integral, ibp_residual
from .errors import ConvergenceError, DomainError, UnsupportedScaleError
from .polyfn import Poly
from .quadrature import _BUDGET, QUAD_TOL, _Budget
from .scales import FLOAT, TimeScale, as_scalar, fmt_scalar, json_loads_strict

PASS_TOL_DEFAULT = 1e-9


class CLIError(Exception):
    """Bad usage, unreadable files, malformed JSON."""


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}") from None
    try:
        return json_loads_strict(text)
    except json.JSONDecodeError as exc:
        raise CLIError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except DomainError as exc:
        raise CLIError(f"{path}: {exc}") from None
    except ValueError:
        # json refuses an integer literal above the interpreter's digit limit.
        raise CLIError(
            f"{path}: integer literal above {sys.get_int_max_str_digits()} digits refused"
        ) from None


def _load_scale(path: str) -> TimeScale:
    return TimeScale.from_json(_read_json(path))


def _parse_point(scale: TimeScale, text, default=None):
    """The point of ``scale`` named by ``text``, or ``default`` when absent."""
    return default if text is None else scale.require(text)


def _data_from_arg(cls, axes: tuple, variables: tuple, text: str):
    """The ``cls`` datum on ``axes`` named by ``text``: a table JSON path,
    whose axes must equal ``axes``, or a polynomial in ``variables``."""
    if not text.endswith(".json"):
        return cls(*axes, Poly.parse(text, variables))
    data = cls._from_json(_read_json(text))
    if data.axes != axes:
        raise CLIError("tabulated function scale does not match the problem scale"
                       if len(axes) == 1 else "2-D table scales do not match the problem scales")
    return data


def _gate(r, ns, allowed=None) -> tuple:
    """Whether the residual ``r`` passes, and its findings.  A float passes at
    or below ``allowed``, by default ``--pass-tol`` or ``PASS_TOL_DEFAULT``.
    An exact residual is a proof: it passes only at 0, unless an explicit
    ``--pass-tol`` lets it through, which a finding reports."""
    if allowed is None:
        allowed = PASS_TOL_DEFAULT if ns.pass_tol is None else ns.pass_tol
    exact = isinstance(r, (int, Fraction))
    if exact and (ns.pass_tol is None or r == 0):
        return r == 0, []
    ok = abs(r) <= allowed
    return ok, ["an exact nonzero residual passed only under --pass-tol"] if ok and exact else []


def _emit(ns, out, inputs: dict, results, findings, ok: bool, lines: list) -> int:
    """Render one command's outcome to ``out`` (and ``--out``); the exit code."""
    if ns.format == "json":
        import hashlib

        signed = {"command": ns.command, "inputs": inputs}
        blob = json.dumps(signed, sort_keys=True, separators=(",", ":")).encode("utf-8")
        digest = hashlib.sha256(blob).hexdigest()
        report = {
            "command": ns.command,
            "inputs": dict(inputs, digest=digest),
            "results": results,
            "findings": list(findings),
            "status": "ok" if ok else "fail",
        }
        rendered = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        rendered = "\n".join(lines) + "\n"
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            raise CLIError(f"cannot write {ns.out}: {exc}") from None
    out.write(rendered)
    return 0 if ok else 1


# -- command handlers -------------------------------------------------------
# Each returns (inputs, results, findings, ok, lines) for _emit.


def _cmd_classify(ns):
    scale = _load_scale(ns.scale)
    t = _parse_point(scale, ns.t)
    c = scale.classify(t)
    results = {
        "class": c.label(),
        "sigma": fmt_scalar(scale.sigma(t)),
        "rho": fmt_scalar(scale.rho(t)),
        "mu": fmt_scalar(scale.mu(t)),
        "nu": fmt_scalar(scale.nu(t)),
        "breaks_sigma_continuity": c.breaks_sigma_continuity,
    }
    lines = [
        f"t = {fmt_scalar(t)}: {c.label()}",
        f"sigma = {results['sigma']}, rho = {results['rho']}, "
        f"mu = {results['mu']}, nu = {results['nu']}",
    ]
    inputs = {"scale": scale.to_json(), "t": fmt_scalar(t)}
    return inputs, results, [], True, lines


def _cmd_deriv(ns):
    scale = _load_scale(ns.scale)
    t = _parse_point(scale, ns.t)
    fn = _data_from_arg(ScaleFn, (scale,), ("t",), ns.fn)
    res = delta_deriv(scale, fn, t, tol=ns.tol)
    results = {
        "value": fmt_scalar(res.value),
        "method": res.method,
        "est_error": fmt_scalar(res.est_error),
    }
    inputs = {"scale": scale.to_json(), "fn": ns.fn, "t": fmt_scalar(t)}
    return inputs, results, [], True, [results["value"]]


def _cmd_integrate(ns):
    scale = _load_scale(ns.scale)
    a = _parse_point(scale, ns.a)
    b = _parse_point(scale, ns.b)
    fn = _data_from_arg(ScaleFn, (scale,), ("t",), ns.fn)
    value = delta_integral(scale, fn, a, b, tol=ns.tol)
    results = {
        "value": fmt_scalar(value),
        "exact": isinstance(value, Fraction) or isinstance(value, int),
    }
    inputs = {
        "scale": scale.to_json(),
        "fn": ns.fn,
        "a": fmt_scalar(a),
        "b": fmt_scalar(b),
    }
    return inputs, results, [], True, [results["value"]]


def _cmd_ibp_check(ns):
    scale = _load_scale(ns.scale)
    a = _parse_point(scale, ns.a)
    b = _parse_point(scale, ns.b)
    f, g = (_data_from_arg(ScaleFn, (scale,), ("t",), text) for text in (ns.f, ns.g))
    forms = (1, 2) if ns.form == "both" else (int(ns.form),)
    rs = [ibp_residual(scale, f, g, a, b, form=form, tol=ns.tol) for form in forms]
    residuals = {f"form{form}": fmt_scalar(r) for form, r in zip(forms, rs)}
    # The gate reads the exact maximum; the report prints it as a float.
    ok, findings = _gate(max(map(abs, rs)), ns)
    worst = max(0.0, *(abs(float(r)) for r in rs))
    inputs = {
        "scale": scale.to_json(),
        "f": ns.f,
        "g": ns.g,
        "a": fmt_scalar(a),
        "b": fmt_scalar(b),
        "form": ns.form,
    }
    results = {"residuals": residuals, "max_abs": repr(worst)}
    lines = [f"form {form}: residual = {residuals[f'form{form}']}" for form in forms]
    lines.append(f"max |residual| = {worst!r} ({'ok' if ok else 'fail'})")
    return inputs, results, findings, ok, lines


def _cmd_el_residual(ns):
    from .variational import VariationalProblem, el_residual

    problem = _read_json(ns.problem)
    p = VariationalProblem.from_json(problem)
    y = _data_from_arg(ScaleFn, (p.scale,), ("t",), ns.y)
    rep = el_residual(p, y, dense_refinement=ns.refine, tol=ns.tol)
    ok, gated = _gate(rep.max_abs_residual, ns)
    findings = [*rep.definedness_findings, *gated]
    results = {
        "c_hat": fmt_scalar(rep.c_hat),
        "max_abs_residual": fmt_scalar(rep.max_abs_residual),
        "residuals": [[fmt_scalar(t), fmt_scalar(r)] for t, r in rep.residuals],
    }
    lines = [
        f"c_hat = {results['c_hat']}",
        f"max |residual| = {results['max_abs_residual']} ({'ok' if ok else 'fail'})",
        f"evaluated at {len(rep.residuals)} points",
    ]
    lines.extend(f"finding: {f}" for f in findings)
    inputs = {"problem": problem, "y": ns.y}
    return inputs, results, tuple(findings), ok, lines


def _cmd_flcv_kernel(ns):
    from .variational import fl_kernel

    scale = _load_scale(ns.scale)
    rep = fl_kernel(scale, ns.variant, _parse_point(scale, ns.a), _parse_point(scale, ns.b))
    results = {
        "variant": rep.variant,
        "a": fmt_scalar(rep.a),
        "b": fmt_scalar(rep.b),
        "constrained": [fmt_scalar(t) for t in rep.constrained],
        "unconstrained": [fmt_scalar(t) for t in rep.unconstrained],
        "claimed_domain": [fmt_scalar(t) for t in rep.claimed_domain],
        "claim_holds": rep.claim_holds,
        "rank": rep.rank,
    }
    lines = [
        f"variant = {rep.variant} on [{results['a']}, {results['b']}]",
        "constrained   = {" + ", ".join(results["constrained"]) + "}",
        "unconstrained = {" + ", ".join(results["unconstrained"]) + "}",
        f"rank = {rep.rank}",
        f"claimed domain fully constrained: {rep.claim_holds}",
    ]
    inputs = {"scale": scale.to_json(), "variant": ns.variant}
    return inputs, results, [], True, lines


def _cmd_double_el(ns):
    from .double import DoubleProblem, SurfaceFn, double_el_residual

    problem = _read_json(ns.problem)
    dp = DoubleProblem.from_json(problem)
    u = _data_from_arg(SurfaceFn, (dp.ps.scale1, dp.ps.scale2), ("t1", "t2"), ns.u)
    rep = double_el_residual(dp, u, dense_refinement=ns.refine)
    ok, gated = _gate(rep.max_abs_residual, ns)
    results = {
        "max_abs_residual": fmt_scalar(rep.max_abs_residual),
        "residuals": [
            [fmt_scalar(t1), fmt_scalar(t2), fmt_scalar(r)]
            for (t1, t2), r in rep.residuals
        ],
        "gaps": [
            [fmt_scalar(t1), fmt_scalar(t2), reason]
            for (t1, t2), reason in rep.gaps
        ],
    }
    findings = [f"undefined at ({fmt_scalar(t1)}, {fmt_scalar(t2)}): {reason}"
                for (t1, t2), reason in rep.gaps] + gated
    lines = [
        f"max |residual| = {results['max_abs_residual']} ({'ok' if ok else 'fail'})",
        f"evaluated at {len(rep.residuals)} points, {len(rep.gaps)} undefined",
    ]
    return {"problem": problem, "u": ns.u}, results, findings, ok, lines


def _cmd_fubini_check(ns):
    from .double import ProductScale, SurfaceFn, fubini_residual

    scale1 = _load_scale(ns.scale1)
    scale2 = _load_scale(ns.scale2)
    ps = ProductScale(scale1, scale2)
    f = _data_from_arg(SurfaceFn, (scale1, scale2), ("t1", "t2"), ns.fn)
    a1 = _parse_point(scale1, ns.a1, scale1.min)
    b1 = _parse_point(scale1, ns.b1, scale1.max)
    a2 = _parse_point(scale2, ns.a2, scale2.min)
    b2 = _parse_point(scale2, ns.b2, scale2.max)
    r = fubini_residual(ps, f, (a1, b1, a2, b2), tol=ns.tol)
    ok, findings = _gate(r, ns)
    results = {"residual": fmt_scalar(r)}
    inputs = {
        "scale1": scale1.to_json(),
        "scale2": scale2.to_json(),
        "fn": ns.fn,
        "rect": [fmt_scalar(a1), fmt_scalar(b1), fmt_scalar(a2), fmt_scalar(b2)],
    }
    lines = [f"|order swap residual| = {results['residual']} ({'ok' if ok else 'fail'})"]
    return inputs, results, findings, ok, lines


def _cmd_derivation_check(ns):
    from .double import DoubleProblem, SurfaceFn, derivation_chain_check

    problem = _read_json(ns.problem)
    dp = DoubleProblem.from_json(problem)
    axes = (dp.ps.scale1, dp.ps.scale2)
    u, eta = (_data_from_arg(SurfaceFn, axes, ("t1", "t2"), text) for text in (ns.u, ns.eta))
    steps = derivation_chain_check(dp, u, eta, tol=ns.tol)
    # Hybrid scales compare only the chain endpoints through quadrature,
    # so their pass threshold scales with the quadrature tolerance.
    pass_tol = PASS_TOL_DEFAULT if ns.pass_tol is None else ns.pass_tol
    allowed = pass_tol if len(steps) > 1 else max(pass_tol, 4.0 * ns.tol)
    # The gate reads the exact maximum; the report prints it as a float.
    ok, findings = _gate(max(abs(s.residual) for s in steps), ns, allowed)
    worst = max(abs(float(s.residual)) for s in steps)
    results = {
        "steps": [[s.label, fmt_scalar(s.residual)] for s in steps],
        "max_abs_residual": repr(worst),
        "pass_threshold": repr(allowed),
    }
    lines = [f"{s.label}: residual = {fmt_scalar(s.residual)}" for s in steps]
    lines.append(f"max |residual| = {worst!r} ({'ok' if ok else 'fail'})")
    inputs = {"problem": problem, "u": ns.u, "eta": ns.eta}
    return inputs, results, findings, ok, lines


# The flags each counterexample builder accepts, for every name in
# ALL_COUNTEREXAMPLES; its keys are the command's choices, so parsing
# loads no counterexample.  Point flags (the text ones) are read in the
# mode of --scale, else in float mode like the builders' default scale.
_CX_FLAGS = {
    "nabla-endpoints": ("origin",),
    "eta-not-c1": ("scale", "u1", "t0"),
    "omega-degenerate": (),
    "sigma-discontinuity": ("scale", "t"),
}


def _cmd_counterexample(ns):
    from .counterexamples import ALL_COUNTEREXAMPLES

    scale = _load_scale(ns.scale) if ns.scale else None
    mode = scale.mode if scale is not None else FLOAT
    kwargs = {}
    for flag in _CX_FLAGS[ns.name]:
        value = scale if flag == "scale" else getattr(ns, flag)
        if isinstance(value, str):
            value = as_scalar(value, mode)
        if value is not None:
            kwargs[flag] = value
    verdict = ALL_COUNTEREXAMPLES[ns.name](**kwargs)
    lines = [f"claim: {verdict.claim}"]
    lines.extend(f"witness {k}: {v}" for k, v in sorted(verdict.witness.items()))
    lines.extend(f"{name}: {value}" for name, value in verdict.details)
    lines.append(f"confirmed: {str(verdict.confirmed).lower()}")
    return {"name": ns.name}, verdict.to_json(), [], verdict.confirmed, lines


_DISPATCH = {
    "classify": _cmd_classify,
    "deriv": _cmd_deriv,
    "integrate": _cmd_integrate,
    "ibp-check": _cmd_ibp_check,
    "el-residual": _cmd_el_residual,
    "flcv-kernel": _cmd_flcv_kernel,
    "double-el": _cmd_double_el,
    "fubini-check": _cmd_fubini_check,
    "derivation-check": _cmd_derivation_check,
    "counterexample": _cmd_counterexample,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tsvar",
        description="Delta calculus and variational checks on time scales.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *required):
        """Add the options every command takes, then ``required`` flags."""
        sp.add_argument("--format", choices=("json", "text"), default="text")
        sp.add_argument("--tol", type=float, default=None,
                        help="numeric tolerance (default: TSVAR_TOL or 1e-10)")
        sp.add_argument("--pass-tol", dest="pass_tol", type=float, default=None,
                        help="threshold separating exit 0 from exit 1 (default: 1e-9 for "
                             "a float residual; an exact one must be 0)")
        sp.add_argument("--out", default=None, help="also write the output to a file")
        for flag in required:
            sp.add_argument(flag, required=True)
        return sp

    common(sub.add_parser("classify", help="point class and jump data"), "--scale", "--t")

    sp = common(sub.add_parser("deriv", help="delta derivative at a point"), "--scale")
    sp.add_argument("--fn", required=True,
                    help="polynomial in t, or a tabulated-function JSON path")
    sp.add_argument("--t", required=True)

    common(sub.add_parser("integrate", help="delta integral over [a, b]"),
           "--scale", "--fn", "--a", "--b")

    sp = common(sub.add_parser("ibp-check", help="integration-by-parts residual"),
                "--scale", "--f", "--g", "--a", "--b")
    sp.add_argument("--form", choices=("1", "2", "both"), default="both")

    sp = common(sub.add_parser("el-residual", help="stationarity residual of a trajectory"))
    sp.add_argument("--problem", required=True, help="problem JSON path")
    sp.add_argument("--y", required=True,
                    help="candidate trajectory: polynomial in t or table JSON")
    sp.add_argument("--refine", type=int, default=32,
                    help="interior samples per dense piece")

    sp = common(sub.add_parser("flcv-kernel", help="which points zero pairings constrain"),
                "--scale")
    sp.add_argument("--variant", choices=("delta", "nabla"), required=True)
    sp.add_argument("--a", default=None)
    sp.add_argument("--b", default=None)

    sp = common(sub.add_parser("double-el", help="2-D stationarity residual map"))
    sp.add_argument("--problem", required=True, help="double problem JSON path")
    sp.add_argument("--u", required=True,
                    help="candidate surface: polynomial in t1, t2 or 2-D table JSON")
    sp.add_argument("--refine", type=int, default=8)

    sp = common(sub.add_parser("fubini-check", help="iterated-integral order swap"),
                "--scale1", "--scale2")
    sp.add_argument("--fn", required=True,
                    help="polynomial in t1, t2 or 2-D table JSON")
    for flag in ("--a1", "--b1", "--a2", "--b2"):
        sp.add_argument(flag, default=None)

    common(sub.add_parser(
        "derivation-check",
        help="verify each step from the first variation to the kernel form",
    ), "--problem", "--u", "--eta")

    sp = common(sub.add_parser("counterexample", help="re-check a stored refutation"))
    sp.add_argument("name", choices=sorted(_CX_FLAGS))
    for flag in ("--scale", "--u1", "--t0", "--t"):
        sp.add_argument(flag, default=None)
    sp.add_argument("--origin", type=int, default=None)

    return p


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if ns.tol is None:
            raw = os.environ.get("TSVAR_TOL", repr(QUAD_TOL))
            try:
                ns.tol = float(raw)
            except ValueError:
                raise CLIError(f"TSVAR_TOL is not a number: {raw!r}") from None
        if not ns.tol > 0:
            raise CLIError("tolerance must be positive")
        if ns.pass_tol is not None and not ns.pass_tol >= 0:
            raise CLIError("--pass-tol must be a number >= 0")
        # One evaluation budget for all of the command's quadrature.
        token = _BUDGET.set(_Budget())
        try:
            return _emit(ns, out, *_DISPATCH[ns.command](ns))
        finally:
            _BUDGET.reset(token)
    except ConvergenceError as exc:
        print(f"tsvar: did not converge: {exc}", file=sys.stderr)
        return 1
    except UnsupportedScaleError as exc:
        print(f"tsvar: unsupported: {exc}", file=sys.stderr)
        return 2
    except (CLIError, ValueError, OSError) as exc:
        print(f"tsvar: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
