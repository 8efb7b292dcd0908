"""Replay of real inverse-pair checks through llcent.operators.verify_inverse.

Runs one catalog pass of the benchmark's ``automorphism_laws`` workload
(every catalog id, every task) with ``verify_inverse`` wrapped, at every
module that binds it, to record its arguments; then feeds each recorded
pair (f, g), and (f, f) so that pairs that do not verify are seen too, to
``verify_inverse`` and to ``verify_inverse_by_composites`` of
tests/_oracles.py, which builds both composites and compares each with the
identity operator.  It prints how many pairs verified, and the total time
of each check over the recorded pairs (best of 3 replays); it exits 1 when
the two give another verdict on any pair.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/inverse_replay.py [--check]

--check replays once, without the timing, and prints only the mismatches
and the summary line.
"""

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import llcent.entropy  # noqa: E402
import llcent.generators  # noqa: E402
import llcent.operators  # noqa: E402
import llcent.theorems  # noqa: E402
from _oracles import verify_inverse_by_composites  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

NAME = "automorphism_laws"
BINDINGS = (llcent.operators, llcent.entropy, llcent.theorems, llcent.generators)
REPEATS = 3


def record():
    """The (f_op, g_op) pairs of every verify_inverse call in one catalog pass."""
    workload = WORKLOADS[NAME]
    insts = [workload.build(i) for i in range(workload.size)]
    calls = []
    real = llcent.operators.verify_inverse

    def recording(f_op, g_op):
        calls.append((f_op, g_op))
        return real(f_op, g_op)

    for module in BINDINGS:
        module.verify_inverse = recording
    try:
        for inst in insts:
            for task in workload.tasks:
                workload.solve(task, inst)
    finally:
        for module in BINDINGS:
            module.verify_inverse = real
    return calls


def best_s(fn, calls) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for pair in calls:
            fn(*pair)
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="replay once and check; no timing")
    args = ap.parse_args(argv)

    calls = record()
    verify = llcent.operators.verify_inverse
    pairs = calls + [(f_op, f_op) for f_op, _g in calls]
    bad = verified = 0
    for k, (f_op, g_op) in enumerate(pairs):
        got, want = verify(f_op, g_op), verify_inverse_by_composites(f_op, g_op)
        verified += want
        if got != want:
            bad += 1
            print(f"MISMATCH {NAME} pair {k} ({f_op!r}, {g_op!r}): got {got}, oracle {want}")
    print(f"{NAME}: {len(calls)} verify_inverse calls, {len(pairs)} pairs replayed, {verified} verified, {bad} mismatches")
    if not args.check:
        mine, oracle = best_s(verify, calls), best_s(verify_inverse_by_composites, calls)
        print(f"  verify_inverse {mine:.4f} s, composites {oracle:.4f} s, composites/verify {oracle / mine:.2f}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
