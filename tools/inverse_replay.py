"""Replay of real inverse-pair checks and composites through llcent.operators.

Runs one catalog pass of the benchmark's ``automorphism_laws`` workload
(every catalog id, every task) with ``verify_inverse`` and ``compose``
wrapped, at every module that binds them, to record their arguments.
Then:

* feeds each recorded inverse pair (f, g), and (f, f) so that pairs that
  do not verify are seen too, to ``verify_inverse`` and to
  ``verify_inverse_by_composites`` of tests/_oracles.py, which builds both
  composites column by column and compares each with the identity
  operator;
* feeds each recorded ``compose`` call to ``compose`` and to
  ``compose_by_columns`` of tests/_oracles.py, and compares the two
  operators' widths, blocks, boundary regions and columns.

It prints how many pairs verified and how many composites were replayed,
and the total time of each route over the recorded calls (best of 3
replays); it exits 1 on any verdict or composite mismatch.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/inverse_replay.py [--check]

--check replays once, without the timing, and prints only the mismatches
and the summary lines.
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
from _oracles import compose_by_columns, same_operator, verify_inverse_by_composites  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

NAME = "automorphism_laws"
BINDINGS = (llcent.operators, llcent.entropy, llcent.theorems, llcent.generators)
RECORDED = ("verify_inverse", "compose")
REPEATS = 3


def record():
    """{name: the (f_op, g_op) arguments of every call} over one catalog pass."""
    workload = WORKLOADS[NAME]
    insts = [workload.build(i) for i in range(workload.size)]
    calls = {name: [] for name in RECORDED}
    real = {name: getattr(llcent.operators, name) for name in RECORDED}

    def recording(name):
        def wrapped(f_op, g_op):
            calls[name].append((f_op, g_op))
            return real[name](f_op, g_op)
        return wrapped

    patched = [(module, name) for module in BINDINGS for name in RECORDED if hasattr(module, name)]
    for module, name in patched:
        setattr(module, name, recording(name))
    try:
        for inst in insts:
            for task in workload.tasks:
                workload.solve(task, inst)
    finally:
        for module, name in patched:
            setattr(module, name, real[name])
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
    verify, compose = llcent.operators.verify_inverse, llcent.operators.compose
    inverse_calls = calls["verify_inverse"]
    pairs = inverse_calls + [(f_op, f_op) for f_op, _g in inverse_calls]
    bad = verified = 0
    for k, (f_op, g_op) in enumerate(pairs):
        got, want = verify(f_op, g_op), verify_inverse_by_composites(f_op, g_op)
        verified += want
        if got != want:
            bad += 1
            print(f"MISMATCH {NAME} pair {k} ({f_op!r}, {g_op!r}): got {got}, oracle {want}")
    print(f"{NAME}: {len(inverse_calls)} verify_inverse calls, {len(pairs)} pairs replayed, {verified} verified, {bad} mismatches")
    compose_calls = calls["compose"]
    bad_compose = 0
    for k, (f_op, g_op) in enumerate(compose_calls):
        if not same_operator(compose(f_op, g_op), compose_by_columns(f_op, g_op)):
            bad_compose += 1
            print(f"MISMATCH {NAME} composite {k} ({f_op!r}, {g_op!r})")
    print(f"{NAME}: {len(compose_calls)} compose calls replayed, {bad_compose} mismatches")
    if not args.check:
        mine, oracle = best_s(verify, inverse_calls), best_s(verify_inverse_by_composites, inverse_calls)
        print(f"  verify_inverse {mine:.4f} s, composites {oracle:.4f} s, composites/verify {oracle / mine:.2f}")
        mine, oracle = best_s(compose, compose_calls), best_s(compose_by_columns, compose_calls)
        print(f"  compose {mine:.4f} s, by columns {oracle:.4f} s, by columns/compose {oracle / mine:.2f}")
    return 1 if bad or bad_compose else 0


if __name__ == "__main__":
    sys.exit(main())
