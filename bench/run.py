"""Benchmark entry point: one workload, one seed, one measured run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it prints every end-to-end metric; with --trace 1 every
per-layer metric from a separate traced run.  Each measured run happens in
a fresh worker process, pinned to one CPU and with pinned BLAS/OpenMP
threads; timings are in reference seconds (see worker.py).  Set-up time is
the median over eleven fresh processes (ten set-up probes and the worker).
The last line of stdout is the JSON result; the lines before it name each
metric with its unit, the environment and any fingerprint mismatch.
Exits non-zero, printing no result, when the checkout has no llcent
sources or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import OUT, ROOT, pinned_env, program_present  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

TIME_LIMIT_S = 170
SETUP_PROBES = 10


def _worker(args, deadline):
    cmd = [sys.executable, os.path.join(ROOT, "bench", "worker.py"), *args]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, env=pinned_env(), cwd=ROOT, check=False,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def measure(workload, seed, seconds, trace) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        return _worker([*common, "--mode", "trace"], deadline)
    setups = [_worker([*common, "--mode", "setup"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    result = _worker([*common, "--mode", "run"], deadline)
    setups.append(result["metrics"]["setup_s"]["value"])
    result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    result["info"]["setup_samples_s"] = setups
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="llcent benchmark: one workload run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not program_present():
        print(f"error: no llcent sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for key, value in result["info"].items():
        print(f"  {key}: {json.dumps(value)}")
    for problem in result["problems"]:
        print(f"  MISMATCH {problem}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
