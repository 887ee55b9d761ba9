"""Layer probes for the traced run, timed with tracing off.

These measure one layer at growing sizes (scale lookups, the discrete
rewriting chain) or one stage of a CLI command (interpreter start,
import, argument parsing, a warm in-process run), independent of the
workload being traced.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time

import wl_cli
import wl_grid2d
from cases import rand_points

REQUIRE_SIZES = (100, 1000, 3000)
REQUIRE_CALLS = 2000
CHAIN_SIZES = (10, 20, 30)
SPAWN_REPEATS = 5


def require_us(ts, seed: int) -> dict:
    """Microseconds per ``TimeScale.require`` on a member point, by scale size."""
    out = {}
    for n in REQUIRE_SIZES:
        rng = random.Random(seed * 31 + n)
        pts = rand_points(rng, n)
        scale = ts.TimeScale.discrete(pts)
        sample = [rng.choice(pts) for _ in range(REQUIRE_CALLS)]
        batches = []
        for _ in range(3):
            t0 = time.perf_counter()
            for p in sample:
                scale.require(p)
            batches.append((time.perf_counter() - t0) / REQUIRE_CALLS * 1e6)
        out[f"scales.require_us.n{n}"] = statistics.median(batches)
    return out


def chain_s(ts, seed: int) -> tuple:
    """Seconds per exact derivation chain on an N x N grid, by N.

    Returns (metrics, problems) where problems lists wrong answers."""
    out, problems = {}, []
    for n in CHAIN_SIZES:
        rng = random.Random(seed * 37 + n)
        p1, p2 = rand_points(rng, n), rand_points(rng, n)
        wl = wl_grid2d.Workload(ts, seed)
        dp = wl.problem(p1, p2, wl_grid2d.rand_quadratic(rng))
        u = ts.SurfaceFn.from_table(dp.ax1, dp.ax2, wl_grid2d.rand_table(rng, p1, p2))
        eta = ts.SurfaceFn.from_table(dp.ax1, dp.ax2,
                                      wl_grid2d.rand_table(rng, p1, p2, zero_edge=True))
        t0 = time.perf_counter()
        steps = ts.derivation_chain_check(dp, u, eta)
        out[f"double.chain_s.n{n}"] = time.perf_counter() - t0
        labels = tuple(s.label for s in steps)
        if labels != wl_grid2d.CHAIN_LABELS or any(s.residual != 0 for s in steps):
            problems.append(f"chain probe n={n}: {[(s.label, s.residual) for s in steps]}")
    return out, problems


def _wall_ms(code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=wl_cli.ROOT, env=wl_cli.child_env(wl_cli.ROOT),
                   check=True, capture_output=True, timeout=wl_cli.CHILD_TIMEOUT_S)
    return (time.perf_counter() - t0) * 1e3


def cli_stages(seed: int) -> dict:
    """Median milliseconds of each stage of a CLI command."""
    import tsvar.cli as cli

    spawn = statistics.median(_wall_ms("pass") for _ in range(SPAWN_REPEATS))
    imported = statistics.median(_wall_ms("import tsvar.cli")
                                 for _ in range(SPAWN_REPEATS))
    argvs = [argv for _, argv, _ in wl_cli.commands(seed)]
    parse, run = [], []
    for argv in argvs:
        wl_cli.run_in_process(cli, argv)          # warm caches before timing
        t0 = time.perf_counter()
        cli.build_parser().parse_args(argv)
        parse.append((time.perf_counter() - t0) * 1e3)
        t0 = time.perf_counter()
        wl_cli.run_in_process(cli, argv)
        run.append((time.perf_counter() - t0) * 1e3)
    return {
        "cli.spawn_ms": spawn,
        "cli.import_ms": imported - spawn,
        "cli.parse_ms": statistics.median(parse),
        "cli.run_ms": statistics.median(run),
    }
