"""Calculus and variational checks on time scales.

A time scale is a finite union of closed intervals and isolated points.
This package computes delta derivatives and integrals on such sets
(exactly where the structure allows, numerically with error control
elsewhere), evaluates stationarity residuals for one- and two-variable
variational problems, reports which points zero pairings actually
constrain, and re-verifies a set of counterexamples about what
classical arguments break on general time scales.

``import tsvar`` loads no submodule: each public name below is imported
from its submodule on first access (PEP 562) and then cached here, so a
caller pays only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "ALL_COUNTEREXAMPLES",
    "ANALYTIC",
    "BUILTIN_LAGRANGIANS",
    "BUILTIN_LAGRANGIANS_2D",
    "ChainStep",
    "ConvergenceError",
    "DerivResult",
    "DomainError",
    "DoubleELReport",
    "DoubleProblem",
    "ELReport",
    "EXACT_QUOTIENT",
    "FLOAT",
    "KernelReport",
    "NUMERIC_LIMIT",
    "PointClass",
    "Poly",
    "PreconditionError",
    "ProductScale",
    "RATIONAL",
    "ScaleFn",
    "SurfaceFn",
    "TimeScale",
    "UnsupportedScaleError",
    "VariationalProblem",
    "Verdict",
    "action",
    "adaptive_simpson",
    "brute_force_minimizer",
    "brute_force_minimizer_2d",
    "cx_eta_not_c1",
    "cx_nabla_endpoints",
    "cx_omega_degenerate",
    "cx_sigma_discontinuity",
    "definedness_audit",
    "delta_deriv",
    "delta_integral",
    "derivation_chain_check",
    "double_el_residual",
    "double_integral",
    "el_residual",
    "first_variation",
    "fl_kernel",
    "fmt_scalar",
    "fubini_residual",
    "ibp_residual",
    "junction_audit",
    "lagrangian_from_spec",
    "nabla_integral_discrete",
    "product_rule_residual",
    "richardson_limit",
    "sigma_diff_audit",
    "simple_useful_check",
    "surface_from_json",
    "tabulated_from_json",
    "__version__",
]

# The submodule that defines each public name.
_SUBMODULE = {
    "ALL_COUNTEREXAMPLES": "counterexamples",
    "ANALYTIC": "calculus",
    "BUILTIN_LAGRANGIANS": "variational",
    "BUILTIN_LAGRANGIANS_2D": "double",
    "ChainStep": "double",
    "ConvergenceError": "errors",
    "DerivResult": "calculus",
    "DomainError": "errors",
    "DoubleELReport": "double",
    "DoubleProblem": "double",
    "ELReport": "variational",
    "EXACT_QUOTIENT": "calculus",
    "FLOAT": "scales",
    "KernelReport": "variational",
    "NUMERIC_LIMIT": "calculus",
    "PointClass": "scales",
    "Poly": "polyfn",
    "PreconditionError": "errors",
    "ProductScale": "double",
    "RATIONAL": "scales",
    "ScaleFn": "calculus",
    "SurfaceFn": "double",
    "TimeScale": "scales",
    "UnsupportedScaleError": "errors",
    "VariationalProblem": "variational",
    "Verdict": "counterexamples",
    "action": "double",
    "adaptive_simpson": "quadrature",
    "brute_force_minimizer": "variational",
    "brute_force_minimizer_2d": "double",
    "cx_eta_not_c1": "counterexamples",
    "cx_nabla_endpoints": "counterexamples",
    "cx_omega_degenerate": "counterexamples",
    "cx_sigma_discontinuity": "counterexamples",
    "definedness_audit": "variational",
    "delta_deriv": "calculus",
    "delta_integral": "calculus",
    "derivation_chain_check": "double",
    "double_el_residual": "double",
    "double_integral": "double",
    "el_residual": "variational",
    "first_variation": "double",
    "fl_kernel": "variational",
    "fmt_scalar": "scales",
    "fubini_residual": "double",
    "ibp_residual": "calculus",
    "junction_audit": "calculus",
    "lagrangian_from_spec": "variational",
    "nabla_integral_discrete": "calculus",
    "product_rule_residual": "calculus",
    "richardson_limit": "quadrature",
    "sigma_diff_audit": "double",
    "simple_useful_check": "calculus",
    "surface_from_json": "double",
    "tabulated_from_json": "calculus",
}


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
