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

import sys

from _replay import best_s, catalog_pass, check_only, recorded  # first: it sets the import path

import llcent.operators
from _oracles import compose_by_columns, same_operator, verify_inverse_by_composites
from bench.workloads import WORKLOADS

NAME = "automorphism_laws"
RECORDED = ("verify_inverse", "compose")
REPEATS = 3


def record():
    """{name: the (f_op, g_op) arguments of every call} over one catalog pass."""
    # built first, so that the generators' own calls are not recorded
    workload = WORKLOADS[NAME]
    insts = [workload.build(i) for i in range(workload.size)]
    runs = recorded(lambda: catalog_pass(NAME, insts), {name: (llcent.operators, None) for name in RECORDED})
    return {name: [args for args, _outcome in runs[name]] for name in RECORDED}


def main(argv=None) -> int:
    check = check_only(__doc__, argv)

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
    if not check:
        mine = best_s(verify, inverse_calls, REPEATS)
        oracle = best_s(verify_inverse_by_composites, inverse_calls, REPEATS)
        print(f"  verify_inverse {mine:.4f} s, composites {oracle:.4f} s, composites/verify {oracle / mine:.2f}")
        mine, oracle = best_s(compose, compose_calls, REPEATS), best_s(compose_by_columns, compose_calls, REPEATS)
        print(f"  compose {mine:.4f} s, by columns {oracle:.4f} s, by columns/compose {oracle / mine:.2f}")
    return 1 if bad or bad_compose else 0


if __name__ == "__main__":
    sys.exit(main())
