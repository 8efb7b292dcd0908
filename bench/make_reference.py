"""Regenerate bench/reference.json: the fingerprint of every catalog unit.

Usage: python3 bench/make_reference.py

Solves every (id, task) of every workload's catalog once and writes the
fingerprints to a fresh reference document, so that all of them come from
one commit.  Run it only at a commit whose results are trusted; the
benchmark counts every later difference as a failure.  Per-unit solve
times go to stdout.
"""

import json
import os
import pickle
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import OUT, REFERENCE  # noqa: E402
from bench.worker import setup  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    doc = {"workloads": {}}
    for name in sorted(WORKLOADS):
        wl = WORKLOADS[name]
        blobs, _ = setup(wl, range(wl.size))
        table = {}
        for j in range(wl.size * len(wl.tasks)):
            i, task = wl.unit(0, j)
            t0 = time.perf_counter()
            table[f"{i}:{task}"] = wl.solve(task, pickle.loads(blobs[i]))
            print(f"{name} {i}:{task} {time.perf_counter() - t0:.3f}s {table[f'{i}:{task}'][:60]}", flush=True)
        doc["workloads"][name] = table
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
