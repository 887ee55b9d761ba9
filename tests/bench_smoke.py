"""Smoke-run the benchmark for 2 s and check the verdicts it reports.

Usage, from the root of a source checkout:

    python3 tests/bench_smoke.py all 1
    python3 tests/bench_smoke.py grid-2d 1 double.partial_evals double.surface_evals

Runs ``bench/run.py`` on WORKLOAD (``all`` for every workload) at SEED and
exits nonzero unless each workload run is correct with no failed verdict.
Naming COUNTERS runs the benchmark traced and also requires each of those
per-layer counters to be above zero.  The name keeps pytest from
collecting it.
"""

import argparse
import json
import pathlib
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent.parent / "bench" / "run.py"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("counters", nargs="*", help="per-layer counters that must be above zero")
    args = p.parse_args(argv)
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "2", "--trace", str(int(bool(args.counters)))],
        capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return f"bench/run.py exited {proc.returncode}"
    result = json.loads(lines[-1])
    runs = result if args.workload == "all" else {args.workload: result}
    bad = []
    for name, run in runs.items():
        counts = {k: run["metrics"][k]["value"] for k in args.counters}
        print(name, args.seed, run.get("correct"), run.get("attempted"), run.get("failed"),
              counts)
        if (run.get("correct") is not True or run.get("failed") != 0
                or not all(v > 0 for v in counts.values())):
            bad.append(name)
    if bad or not runs:
        return f"seed {args.seed}: wrong or failed verdicts, or a zero counter: {bad}"
    return 0


if __name__ == "__main__":
    sys.exit(main())
