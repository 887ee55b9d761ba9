"""Command-line interface.

Exit codes: 0 success, 1 a numeric verdict failed (residual above the
pass threshold, unconfirmed counterexample, non-convergent limit), 2
usage, I/O, or malformed input.  JSON reports are rendered with sorted
keys and pre-formatted numbers, so identical inputs give identical
bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

from .calculus import (
    ScaleFn,
    delta_deriv,
    delta_integral,
    ibp_residual,
    tabulated_from_json,
)
from .counterexamples import ALL_COUNTEREXAMPLES
from .double import (
    DoubleProblem,
    ProductScale,
    SurfaceFn,
    derivation_chain_check,
    double_el_residual,
    fubini_residual,
    surface_from_json,
)
from .errors import (
    ConvergenceError,
    DomainError,
    PreconditionError,
    UnsupportedScaleError,
)
from .polyfn import Poly
from .quadrature import QUAD_TOL
from .scales import RATIONAL, TimeScale, fmt_scalar, json_loads_strict
from .variational import VariationalProblem, el_residual, fl_kernel

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


def _load_scale(path: str) -> TimeScale:
    return TimeScale.from_json(_read_json(path))


def _parse_point(scale: TimeScale, text: str):
    try:
        if scale.mode == RATIONAL:
            return scale.require(Fraction(text))
        return scale.require(float(text))
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def _fn_from_arg(scale: TimeScale, text: str) -> ScaleFn:
    if text.endswith(".json"):
        fn = tabulated_from_json(_read_json(text))
        if fn.scale.pieces != scale.pieces or fn.scale.mode != scale.mode:
            raise CLIError("tabulated function scale does not match the problem scale")
        return fn
    poly = Poly.parse(text, ("t",))
    return ScaleFn.from_callable(scale, poly, deriv=poly.diff("t"))


def _surface_from_arg(ps: ProductScale, text: str) -> SurfaceFn:
    if text.endswith(".json"):
        sf = surface_from_json(_read_json(text))
        same = (
            sf.scale1.pieces == ps.scale1.pieces
            and sf.scale2.pieces == ps.scale2.pieces
            and sf.scale1.mode == ps.scale1.mode
        )
        if not same:
            raise CLIError("2-D table scales do not match the problem scales")
        return sf
    poly = Poly.parse(text, ("t1", "t2"))
    return SurfaceFn.from_callable(
        ps.scale1, ps.scale2, poly, d1=poly.diff("t1"), d2=poly.diff("t2")
    )


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _report(command: str, inputs: dict, results, findings, status: str) -> dict:
    inputs = dict(inputs)
    inputs["digest"] = _digest({"command": command, "inputs": inputs})
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "findings": list(findings),
        "status": status,
    }


def _emit(report: dict, lines: list, ns, out) -> None:
    if ns.format == "json":
        rendered = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        rendered = "\n".join(lines) + "\n"
    out.write(rendered)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)


# -- command handlers -------------------------------------------------------


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
    report = _report(
        "classify", {"scale": scale.to_json(), "t": fmt_scalar(t)}, results, [], "ok"
    )
    lines = [
        f"t = {fmt_scalar(t)}: {c.label()}",
        f"sigma = {results['sigma']}, rho = {results['rho']}, "
        f"mu = {results['mu']}, nu = {results['nu']}",
    ]
    return report, lines, 0


def _cmd_deriv(ns):
    scale = _load_scale(ns.scale)
    t = _parse_point(scale, ns.t)
    fn = _fn_from_arg(scale, ns.fn)
    res = delta_deriv(scale, fn, t, tol=ns.tol)
    results = {
        "value": fmt_scalar(res.value),
        "method": res.method,
        "est_error": fmt_scalar(res.est_error),
    }
    inputs = {"scale": scale.to_json(), "fn": ns.fn, "t": fmt_scalar(t)}
    report = _report("deriv", inputs, results, [], "ok")
    return report, [results["value"]], 0


def _cmd_integrate(ns):
    scale = _load_scale(ns.scale)
    a = _parse_point(scale, ns.a)
    b = _parse_point(scale, ns.b)
    fn = _fn_from_arg(scale, ns.fn)
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
    report = _report("integrate", inputs, results, [], "ok")
    return report, [results["value"]], 0


def _cmd_ibp_check(ns):
    scale = _load_scale(ns.scale)
    a = _parse_point(scale, ns.a)
    b = _parse_point(scale, ns.b)
    f = _fn_from_arg(scale, ns.f)
    g = _fn_from_arg(scale, ns.g)
    forms = (1, 2) if ns.form == "both" else (int(ns.form),)
    residuals = {}
    worst = 0.0
    for form in forms:
        r = ibp_residual(scale, f, g, a, b, form=form, tol=ns.tol)
        residuals[f"form{form}"] = fmt_scalar(r)
        worst = max(worst, abs(float(r)))
    ok = worst <= ns.pass_tol
    inputs = {
        "scale": scale.to_json(),
        "f": ns.f,
        "g": ns.g,
        "a": fmt_scalar(a),
        "b": fmt_scalar(b),
        "form": ns.form,
    }
    report = _report(
        "ibp-check", inputs, {"residuals": residuals, "max_abs": repr(worst)},
        [], "ok" if ok else "fail",
    )
    lines = [f"form {form}: residual = {residuals[f'form{form}']}" for form in forms]
    lines.append(f"max |residual| = {worst!r} ({'ok' if ok else 'fail'})")
    return report, lines, 0 if ok else 1


def _cmd_el_residual(ns):
    p = VariationalProblem.from_json(_read_json(ns.problem))
    y = _fn_from_arg(p.scale, ns.y)
    rep = el_residual(p, y, dense_refinement=ns.refine, tol=ns.tol)
    ok = float(rep.max_abs_residual) <= ns.pass_tol
    results = {
        "c_hat": fmt_scalar(rep.c_hat),
        "max_abs_residual": fmt_scalar(rep.max_abs_residual),
        "residuals": [[fmt_scalar(t), fmt_scalar(r)] for t, r in rep.residuals],
    }
    inputs = {"problem": _read_json(ns.problem), "y": ns.y}
    report = _report(
        "el-residual", inputs, results, rep.definedness_findings,
        "ok" if ok else "fail",
    )
    lines = [
        f"c_hat = {results['c_hat']}",
        f"max |residual| = {results['max_abs_residual']} ({'ok' if ok else 'fail'})",
        f"evaluated at {len(rep.residuals)} points",
    ]
    lines.extend(f"finding: {f}" for f in rep.definedness_findings)
    return report, lines, 0 if ok else 1


def _cmd_flcv_kernel(ns):
    scale = _load_scale(ns.scale)
    a = _parse_point(scale, ns.a) if ns.a is not None else None
    b = _parse_point(scale, ns.b) if ns.b is not None else None
    rep = fl_kernel(scale, ns.variant, a, b)
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
    inputs = {"scale": scale.to_json(), "variant": ns.variant}
    report = _report("flcv-kernel", inputs, results, [], "ok")
    lines = [
        f"variant = {rep.variant} on [{results['a']}, {results['b']}]",
        "constrained   = {" + ", ".join(results["constrained"]) + "}",
        "unconstrained = {" + ", ".join(results["unconstrained"]) + "}",
        f"rank = {rep.rank}",
        f"claimed domain fully constrained: {rep.claim_holds}",
    ]
    return report, lines, 0


def _cmd_double_el(ns):
    dp = DoubleProblem.from_json(_read_json(ns.problem))
    u = _surface_from_arg(dp.ps, ns.u)
    rep = double_el_residual(dp, u, dense_refinement=ns.refine)
    ok = float(rep.max_abs_residual) <= ns.pass_tol
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
                for (t1, t2), reason in rep.gaps]
    inputs = {"problem": _read_json(ns.problem), "u": ns.u}
    report = _report("double-el", inputs, results, findings, "ok" if ok else "fail")
    lines = [
        f"max |residual| = {results['max_abs_residual']} ({'ok' if ok else 'fail'})",
        f"evaluated at {len(rep.residuals)} points, {len(rep.gaps)} undefined",
    ]
    return report, lines, 0 if ok else 1


def _cmd_fubini_check(ns):
    scale1 = _load_scale(ns.scale1)
    scale2 = _load_scale(ns.scale2)
    ps = ProductScale(scale1, scale2)
    if ns.fn is None:
        raise CLIError("fubini-check needs --fn (expression in t1, t2 or a 2-D table)")
    f = _surface_from_arg(ps, ns.fn)
    a1 = _parse_point(scale1, ns.a1) if ns.a1 is not None else scale1.min
    b1 = _parse_point(scale1, ns.b1) if ns.b1 is not None else scale1.max
    a2 = _parse_point(scale2, ns.a2) if ns.a2 is not None else scale2.min
    b2 = _parse_point(scale2, ns.b2) if ns.b2 is not None else scale2.max
    r = fubini_residual(ps, f, (a1, b1, a2, b2), tol=ns.tol)
    ok = abs(float(r)) <= ns.pass_tol
    results = {"residual": fmt_scalar(r)}
    inputs = {
        "scale1": scale1.to_json(),
        "scale2": scale2.to_json(),
        "fn": ns.fn,
        "rect": [fmt_scalar(a1), fmt_scalar(b1), fmt_scalar(a2), fmt_scalar(b2)],
    }
    report = _report("fubini-check", inputs, results, [], "ok" if ok else "fail")
    lines = [f"|order swap residual| = {results['residual']} ({'ok' if ok else 'fail'})"]
    return report, lines, 0 if ok else 1


def _cmd_derivation_check(ns):
    dp = DoubleProblem.from_json(_read_json(ns.problem))
    u = _surface_from_arg(dp.ps, ns.u)
    eta = _surface_from_arg(dp.ps, ns.eta)
    steps = derivation_chain_check(dp, u, eta, tol=ns.tol)
    # Hybrid scales compare only the chain endpoints through quadrature,
    # so their pass threshold scales with the quadrature tolerance.
    allowed = ns.pass_tol if len(steps) > 1 else max(ns.pass_tol, 4.0 * ns.tol)
    worst = max(abs(float(s.residual)) for s in steps)
    ok = worst <= allowed
    results = {
        "steps": [[s.label, fmt_scalar(s.residual)] for s in steps],
        "max_abs_residual": repr(worst),
        "pass_threshold": repr(allowed),
    }
    inputs = {"problem": _read_json(ns.problem), "u": ns.u, "eta": ns.eta}
    report = _report(
        "derivation-check", inputs, results, [], "ok" if ok else "fail"
    )
    lines = [f"{s.label}: residual = {fmt_scalar(s.residual)}" for s in steps]
    lines.append(f"max |residual| = {worst!r} ({'ok' if ok else 'fail'})")
    return report, lines, 0 if ok else 1


def _cmd_counterexample(ns):
    builder = ALL_COUNTEREXAMPLES[ns.name]
    scale = _load_scale(ns.scale) if ns.scale else None

    def point(text):
        if text is None:
            return None
        if scale is not None and scale.mode == RATIONAL:
            return Fraction(text)
        return float(text)

    kwargs = {}
    if ns.name == "nabla-endpoints":
        if ns.origin is not None:
            kwargs["origin"] = ns.origin
    elif ns.name == "eta-not-c1":
        if scale is not None:
            kwargs["scale"] = scale
        if ns.u1 is not None:
            kwargs["u1"] = point(ns.u1)
        if ns.t0 is not None:
            kwargs["t0"] = point(ns.t0)
    elif ns.name == "sigma-discontinuity":
        if scale is not None:
            kwargs["scale"] = scale
        if ns.t is not None:
            kwargs["t"] = point(ns.t)
    verdict = builder(**kwargs)
    results = verdict.to_json()
    inputs = {"name": ns.name}
    report = _report(
        "counterexample", inputs, results, [],
        "ok" if verdict.confirmed else "fail",
    )
    lines = [f"claim: {verdict.claim}"]
    lines.extend(f"witness {k}: {v}" for k, v in sorted(verdict.witness.items()))
    lines.extend(f"{name}: {value}" for name, value in verdict.details)
    lines.append(f"confirmed: {str(verdict.confirmed).lower()}")
    return report, lines, 0 if verdict.confirmed else 1


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

    def common(sp):
        sp.add_argument("--format", choices=("json", "text"), default="text")
        sp.add_argument("--tol", type=float, default=None,
                        help="numeric tolerance (default: TSVAR_TOL or 1e-10)")
        sp.add_argument("--pass-tol", dest="pass_tol", type=float,
                        default=PASS_TOL_DEFAULT,
                        help="threshold separating exit 0 from exit 1")
        sp.add_argument("--out", default=None, help="also write the output to a file")
        return sp

    sp = common(sub.add_parser("classify", help="point class and jump data"))
    sp.add_argument("--scale", required=True)
    sp.add_argument("--t", required=True)

    sp = common(sub.add_parser("deriv", help="delta derivative at a point"))
    sp.add_argument("--scale", required=True)
    sp.add_argument("--fn", required=True,
                    help="polynomial in t, or a tabulated-function JSON path")
    sp.add_argument("--t", required=True)

    sp = common(sub.add_parser("integrate", help="delta integral over [a, b]"))
    sp.add_argument("--scale", required=True)
    sp.add_argument("--fn", required=True)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)

    sp = common(sub.add_parser("ibp-check", help="integration-by-parts residual"))
    sp.add_argument("--scale", required=True)
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--form", choices=("1", "2", "both"), default="both")

    sp = common(sub.add_parser("el-residual", help="stationarity residual of a trajectory"))
    sp.add_argument("--problem", required=True, help="problem JSON path")
    sp.add_argument("--y", required=True,
                    help="candidate trajectory: polynomial in t or table JSON")
    sp.add_argument("--refine", type=int, default=32,
                    help="interior samples per dense piece")

    sp = common(sub.add_parser("flcv-kernel", help="which points zero pairings constrain"))
    sp.add_argument("--scale", required=True)
    sp.add_argument("--variant", choices=("delta", "nabla"), required=True)
    sp.add_argument("--a", default=None)
    sp.add_argument("--b", default=None)

    sp = common(sub.add_parser("double-el", help="2-D stationarity residual map"))
    sp.add_argument("--problem", required=True, help="double problem JSON path")
    sp.add_argument("--u", required=True,
                    help="candidate surface: polynomial in t1, t2 or 2-D table JSON")
    sp.add_argument("--refine", type=int, default=8)

    sp = common(sub.add_parser("fubini-check", help="iterated-integral order swap"))
    sp.add_argument("--scale1", required=True)
    sp.add_argument("--scale2", required=True)
    sp.add_argument("--fn", required=True,
                    help="polynomial in t1, t2 or 2-D table JSON")
    sp.add_argument("--a1", default=None)
    sp.add_argument("--b1", default=None)
    sp.add_argument("--a2", default=None)
    sp.add_argument("--b2", default=None)

    sp = common(sub.add_parser(
        "derivation-check",
        help="verify each step from the first variation to the kernel form",
    ))
    sp.add_argument("--problem", required=True)
    sp.add_argument("--u", required=True)
    sp.add_argument("--eta", required=True)

    sp = common(sub.add_parser("counterexample", help="re-check a stored refutation"))
    sp.add_argument("name", choices=sorted(ALL_COUNTEREXAMPLES))
    sp.add_argument("--scale", default=None)
    sp.add_argument("--u1", default=None)
    sp.add_argument("--t0", default=None)
    sp.add_argument("--t", default=None)
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
            raw = os.environ.get("TSVAR_TOL")
            if raw is not None:
                try:
                    ns.tol = float(raw)
                except ValueError:
                    raise CLIError(f"TSVAR_TOL is not a number: {raw!r}") from None
            else:
                ns.tol = QUAD_TOL
        if not ns.tol > 0:
            raise CLIError("tolerance must be positive")
        report, lines, code = _DISPATCH[ns.command](ns)
    except CLIError as exc:
        print(f"tsvar: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"tsvar: did not converge: {exc}", file=sys.stderr)
        return 1
    except UnsupportedScaleError as exc:
        print(f"tsvar: unsupported: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PreconditionError) as exc:
        print(f"tsvar: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"tsvar: {exc}", file=sys.stderr)
        return 2
    _emit(report, lines, ns, out)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
