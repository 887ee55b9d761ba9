"""Runtime span tracing of tsvar, installed from outside the package.

``Tracer.install`` wraps the public functions and methods of every
tsvar layer and rebinds every module attribute that refers to them, so
``tsvar.calculus.adaptive_simpson`` is traced as well as
``tsvar.quadrature.adaptive_simpson``.  Nothing under ``src/`` changes.

A call that enters a layer from outside it (from another layer or from
the benchmark) opens a span: name, start, end, parent span and verdict
id, kept in compact in-memory arrays.  A call between two functions of
the same layer opens no span; its time stays in the caller's span, so a
layer's self time (span time minus child span time) is unaffected.
A few functions also feed counters on every call (see ``_HOOKS``).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("scales", "polyfn", "quadrature", "calculus", "variational",
          "double", "counterexamples", "cli")

# Dunder methods that are part of the public call surface.
_PUBLIC_DUNDERS = ("__call__", "__contains__")


def _public(name: str) -> bool:
    return not name.startswith("_") or name in _PUBLIC_DUNDERS


class Tracer:
    """Span store plus counters for one traced section of a run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.layer_of = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("I")
        self.verdict_of = array("q")
        self.counts = Counter()
        self.partial_keys = set()
        self.verdict = -1
        self._stack = []          # (layer, span index) of open spans
        self._restore = []        # (owner, attribute, original value)

    # -- verdict boundaries -------------------------------------------------

    def begin_verdict(self, vid: int) -> None:
        self.verdict = vid
        self.partial_keys.clear()

    def end_verdict(self) -> None:
        self.counts["double.partial_unique"] += len(self.partial_keys)
        self.partial_keys.clear()

    # -- spans ---------------------------------------------------------------

    def _name(self, layer: str, qualname: str) -> int:
        key = f"{layer}:{qualname}"
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
            self.layer_of.append(layer)
        return nid

    def _wrap(self, layer: str, qualname: str, fn):
        nid = self._name(layer, qualname)
        hook = _HOOKS.get(qualname)
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        start, end, parent, name_id, verdict_of = (
            self.start, self.end, self.parent, self.name_id, self.verdict_of)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, fn, args, kwargs)
            counts[layer + ".calls"] += 1
            idx = len(start)
            parent.append(stack[-1][1] if stack else -1)
            name_id.append(nid)
            verdict_of.append(tracer.verdict)
            end.append(0.0)
            stack.append((layer, idx))
            start.append(clock())
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, fn, args, kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every layer of ``package`` (the imported ``tsvar`` module)."""
        modules = {name: sys.modules[f"{package.__name__}.{name}"] for name in LAYERS
                   if f"{package.__name__}.{name}" in sys.modules}
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if not _public(name) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(layer, name, obj))
        # Rebind every module attribute that holds a wrapped function,
        # including ``from .x import y`` copies in other modules and the
        # values of registries such as ``ALL_COUNTEREXAMPLES``.
        prefix = package.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        hit = replaced.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._restore.append((obj, key, value))
                            obj[key] = hit[1]
                    continue
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def _wrap_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if not (_public(name) or (name == "__post_init__" and cls.__name__ == "TimeScale")):
                continue
            qual = f"{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                new = classmethod(self._wrap(layer, qual, attr.__func__))
            elif isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(layer, qual, attr.__func__))
            elif isinstance(attr, property):
                if attr.fget is None:
                    continue
                new = property(self._wrap(layer, qual, attr.fget), attr.fset, attr.fdel,
                               attr.__doc__)
            elif inspect.isfunction(attr):
                new = self._wrap(layer, qual, attr)
            else:
                continue
            self._restore.append((cls, name, attr))
            setattr(cls, name, new)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def self_seconds(self) -> dict:
        """Per layer: span time minus the time of child spans, in seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            out[self.layer_of[self.name_id[i]]] += dur[i] - child[i]
        return out

    def write(self, path) -> None:
        """Write every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tverdict\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.verdict_of[i]}\n")


# -- counters fed on every call, crossing or not -------------------------------


def _count(key):
    def hook(tracer, fn, args, kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return hook


def _partial(tracer, fn, args, kwargs):
    tracer.counts["double.partial_evals"] += 1
    # args[0] is the problem; the rest is the evaluation point.
    tracer.partial_keys.add((fn.__name__, id(args[0]), args[1:]))
    return fn(*args, **kwargs)


def _simpson(tracer, fn, args, kwargs):
    counts = tracer.counts
    counts["quadrature.simpson_calls"] += 1
    f = args[0]

    def counted(x):
        counts["quadrature.integrand_evals"] += 1
        return f(x)

    return fn(counted, *args[1:], **kwargs)


def _richardson(tracer, fn, args, kwargs):
    counts = tracer.counts
    counts["quadrature.richardson_calls"] += 1
    sample = args[0]

    def counted(h):
        counts["quadrature.richardson_samples"] += 1
        return sample(h)

    result = fn(counted, *args[1:], **kwargs)
    counts["quadrature.richardson_converged"] += 1
    return result


def _deriv(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    exact = result.method == "exact-quotient"
    tracer.counts["calculus.deriv_exact" if exact else "calculus.deriv_numeric"] += 1
    return result


def _parse(tracer, fn, args, kwargs):
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        tracer.counts["polyfn.parse_s"] += time.perf_counter() - t0


_HOOKS = {
    "TimeScale.__post_init__": _count("scales.built"),
    "Poly.__call__": _count("polyfn.evals"),
    "Poly.parse": _parse,
    "SurfaceFn.val": _count("double.surface_evals"),
    "DoubleProblem.partial_y0": _partial,
    "DoubleProblem.partial_y1": _partial,
    "DoubleProblem.partial_y2": _partial,
    "VariationalProblem.partial_y": _count("variational.partial_evals"),
    "VariationalProblem.partial_v": _count("variational.partial_evals"),
    "adaptive_simpson": _simpson,
    "richardson_limit": _richardson,
    "delta_deriv": _deriv,
    "delta_integral": _count("calculus.integrals"),
    "nabla_integral_discrete": _count("calculus.integrals"),
}
