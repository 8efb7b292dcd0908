"""Run several workloads and seeds through bench/run.py and summarise them.

Usage (from the root of a checkout):

    python3 bench/report.py                       # every workload, seed 1
    python3 bench/report.py --trace 1             # per-layer metrics instead
    python3 bench/report.py --workloads endo_fields --seeds 1-10

Each run lasts run_seconds from BENCHMARK.json, the length the bounds were
set for.  Prints every metric by name and unit for each workload.  With several
seeds it also prints each metric's median and its spread (interquartile
distance over the median) next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import ROOT, stats  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402


def _seeds(text):
    """'7', '1-10' or a comma list of either."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1", help="seeds, such as 7, 1-10 or 3,17,101")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for name in args.workloads.split(","):
        if name not in WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}")
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, check=False)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: run.py exited with {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            runs.append(result)
            ok = ok and result["correct"]
            print(f"{name} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(
                      f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        if not runs:
            continue
        print(f"{name}: {len(runs)} runs")
        for metric, m in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            line = f"  {metric} [{m['unit']}] median {statistics.median(values):.6g}"
            if len(values) >= 2 and statistics.median(values):
                s = stats.spread(values)
                bound = bounds.get(metric)
                line += f" spread {s:.4f}"
                if bound is not None:
                    line += f" bound {bound} ({'ok' if s <= bound / 3 else 'WIDE'})"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
