"""Known-answer verdict benchmark for tsvar.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload scale-1d --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1 --seconds 25      # every workload, one process each

A verdict is one call into a public tsvar entry point, or one CLI
invocation, whose answer is compared with a known answer the benchmark
computed without tsvar.  One client runs verdicts in a closed loop: each
starts when the previous one has finished.  Verdicts come in rounds of a
fixed mix drawn from ``--seed``; whole rounds run until ``--seconds``
have passed, so every run measures the same mix.

With ``--trace 0`` the run reports the end-to-end metrics with tracing
off; verdict and set-up times are paced (see pace.py).  With
``--trace 1`` it runs round 0 twice untraced and then traced (see
spans.py), runs the layer probes (probes.py), writes every span under
``.bench_out/`` and reports the per-layer metrics.  The last line of
stdout is always one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import pace  # noqa: E402
import probes  # noqa: E402
import wl_cli  # noqa: E402
import wl_grid2d  # noqa: E402
import wl_hybrid  # noqa: E402
import wl_scale1d  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = {m.NAME: m for m in (wl_scale1d, wl_grid2d, wl_hybrid, wl_cli)}
SETUP_REPEATS = 5
MIN_VERDICTS = 100
OUT_DIR = os.path.join(ROOT, ".bench_out")

END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "verdict_ms.p50": "ms",
    "verdict_ms.p90": "ms",
    "pass_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The checkout cannot be benchmarked (for example, no source tree)."""


def import_tsvar():
    """Import tsvar afresh from ``<root>/src``, dropping any earlier copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tsvar", "__init__.py")):
        raise BenchError(f"no tsvar source tree under {src}")
    if not os.path.isdir(os.path.join(ROOT, "tests", "fixtures")):
        raise BenchError("no tests/fixtures directory in the checkout")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "tsvar" or m.startswith("tsvar.")]:
        del sys.modules[name]
    ts = importlib.import_module("tsvar")
    if not os.path.abspath(ts.__file__).startswith(src + os.sep):
        raise BenchError(f"imported tsvar from {ts.__file__}, not from {src}")
    return ts


def setup(module, seed: int, repeats: int):
    """Import tsvar and generate round 0, ``repeats`` times; median paced seconds."""
    times = []
    for _ in range(repeats):
        gc.collect()
        now = pace.measure()
        t0 = time.perf_counter()
        ts = import_tsvar()
        wl = module.Workload(ts, seed)
        cases = wl.round(0)
        times.append((time.perf_counter() - t0) * pace.REF_PACE_S / now)
    return ts, wl, cases, statistics.median(times)


class Tally:
    """Outcomes of the verdicts of one run."""

    def __init__(self, paced: bool = False):
        self.times = []
        self.paces = [] if paced else None
        self.failed = 0
        self.unexpected = []

    def run(self, cases, tracer=None) -> float:
        """Run cases in order, one at a time; return the wall time."""
        t_round = time.perf_counter()
        for case in cases:
            if self.paces is not None:
                self.paces.append(pace.measure())
            if tracer is not None:
                tracer.begin_verdict(len(self.times))
            t0 = time.perf_counter()
            try:
                out = case.call()
            except Exception as exc:  # a verdict that raises is a wrong answer
                out = exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_verdict()
            self.times.append(dt)
            try:
                problem = case.check(out)
            except Exception as exc:
                problem = f"answer could not be checked: {type(exc).__name__}: {exc}"
            if problem:
                self.failed += 1
                if not case.known_failure:
                    self.unexpected.append(f"{case.name}: {problem}")
        return time.perf_counter() - t_round

    @property
    def attempted(self) -> int:
        return len(self.times)


def timed_run(module, seed: int, seconds: float):
    _, wl, cases, setup_s = setup(module, seed, SETUP_REPEATS)
    tally = Tally(paced=True)
    t_start = time.perf_counter()
    r = 0
    while True:
        gc.collect()
        tally.run(cases)
        r += 1
        if time.perf_counter() - t_start >= seconds and tally.attempted >= MIN_VERDICTS:
            break
        cases = wl.round(r)
    raw = tally.times
    times = pace.paced(raw, tally.paces)
    usage = resource.RUSAGE_CHILDREN if module is wl_cli else resource.RUSAGE_SELF
    metrics = {
        "verdicts_per_s": len(times) / sum(times),
        "verdict_ms.p50": statistics.median(times) * 1e3,
        "verdict_ms.p90": statistics.quantiles(times, n=10)[8] * 1e3,
        "pass_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    print(f"workload {module.NAME}: {r} rounds, {tally.attempted} verdicts attempted, "
          f"{tally.failed} failed (fail_ratio {tally.failed / tally.attempted:.6g} "
          f"over {tally.attempted} verdicts attempted)")
    print(f"unpaced wall clock: {len(raw) / sum(raw):.6g} verdicts/s, "
          f"p50 {statistics.median(raw) * 1e3:.6g} ms, "
          f"p90 {statistics.quantiles(raw, n=10)[8] * 1e3:.6g} ms; "
          f"median pace {statistics.median(tally.paces) * 1e3:.4g} ms "
          f"(reference {pace.REF_PACE_S * 1e3:g} ms)")
    return tally, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def traced_run(module, seed: int):
    ts, wl, _, _ = setup(module, seed, 1)
    if module is wl_cli:
        import tsvar.cli as cli

        def fresh():
            return wl.in_process_round(cli)
    else:
        def fresh():
            return wl.round(0)

    Tally().run(fresh())                         # warm-up: lazy imports and caches
    plain_s = Tally().run(fresh())
    tally = Tally()
    tracer = Tracer()
    tracer.install(ts)
    try:
        traced_s = tally.run(fresh(), tracer)
    finally:
        tracer.uninstall()

    probe_metrics = probes.require_us(ts, seed)
    chain, problems = probes.chain_s(ts, seed)
    probe_metrics.update(chain)
    probe_metrics.update(probes.cli_stages(seed))
    tally.unexpected.extend(problems)

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{module.NAME}-seed{seed}.tsv.gz"))
    print(f"workload {module.NAME}: traced {tally.attempted} verdicts, {len(tracer.start)} spans "
          f"written to {os.path.relpath(OUT_DIR, ROOT)}/")
    return tally, layer_metrics(tracer, tally.attempted, traced_s / plain_s, probe_metrics)


def layer_metrics(tracer, verdicts: int, overhead: float, probe_metrics: dict) -> dict:
    c = tracer.counts
    self_s = tracer.self_seconds()

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "scales.calls": (c["scales.calls"], "count"),
        "scales.self_s": (self_s["scales"], "s"),
        "scales.built": (c["scales.built"], "count"),
        "scales.calls_per_verdict": (ratio(c["scales.calls"], verdicts), "count"),
        "double.calls": (c["double.calls"], "count"),
        "double.self_s": (self_s["double"], "s"),
        "double.partial_evals": (c["double.partial_evals"], "count"),
        "double.partial_unique_ratio": (ratio(c["double.partial_unique"],
                                              c["double.partial_evals"]), "ratio"),
        "double.surface_evals": (c["double.surface_evals"], "count"),
        "quadrature.simpson_calls": (c["quadrature.simpson_calls"], "count"),
        "quadrature.integrand_evals": (c["quadrature.integrand_evals"], "count"),
        "quadrature.richardson_calls": (c["quadrature.richardson_calls"], "count"),
        "quadrature.richardson_samples": (c["quadrature.richardson_samples"], "count"),
        "quadrature.richardson_converged_ratio": (
            ratio(c["quadrature.richardson_converged"], c["quadrature.richardson_calls"]), "ratio"),
        "quadrature.self_s": (self_s["quadrature"], "s"),
        "calculus.deriv_exact": (c["calculus.deriv_exact"], "count"),
        "calculus.deriv_numeric": (c["calculus.deriv_numeric"], "count"),
        "calculus.integrals": (c["calculus.integrals"], "count"),
        "calculus.self_s": (self_s["calculus"], "s"),
        "variational.calls": (c["variational.calls"], "count"),
        "variational.partial_evals": (c["variational.partial_evals"], "count"),
        "variational.self_s": (self_s["variational"], "s"),
        "polyfn.evals": (c["polyfn.evals"], "count"),
        "polyfn.self_s": (self_s["polyfn"], "s"),
        "polyfn.parse_s": (c["polyfn.parse_s"], "s"),
        "counterexamples.self_s": (self_s["counterexamples"], "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    for name, value in probe_metrics.items():
        unit = "us" if "_us." in name else "ms" if name.endswith("_ms") else "s"
        values[name] = (value, unit)
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_one(args) -> int:
    module = WORKLOADS[args.workload]
    os.chdir(ROOT)
    os.environ.pop("TSVAR_TOL", None)
    try:
        if args.trace:
            tally, metrics = traced_run(module, args.seed)
        else:
            tally, metrics = timed_run(module, args.seed, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for line in tally.unexpected[:20]:
        print(f"WRONG {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so set-up time and peak memory
    belong to one workload; prints one table and one JSON object."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
