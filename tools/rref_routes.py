"""Replay of real echelon inputs through the two routes of linalg._rref.

Runs one catalog pass of the benchmark's ``endo_fields`` workload (every
catalog id, every field shape: GF(2), GF(2^31 - 1), Q) and one of
``automorphism_laws`` (small GF(3) inputs) with ``llcent.linalg._rref``
wrapped to record its inputs, then feeds each recorded input to ``_rref``,
which takes the packed route for GF(2) and the per-pivot loop for every
other field, and to ``rref_per_pivot`` of tests/_oracles.py, the oracle
both routes must agree with.  It prints, per field, the shape histogram of
the inputs and the total time of the route against the oracle (best of 5
replays), and exits 1 when a route returns other rows, pivots, dtype or
shape than the oracle on any input, or mutates it.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/rref_routes.py [--check]

--check replays once, without the timing, and prints only the mismatches
and a summary line (a few seconds, most of it the recording).
"""

import collections
import statistics
import sys

import numpy as np

from _replay import best_s, catalog_pass, check_only, recorded  # first: it sets the import path

import llcent.linalg as linalg
from _oracles import rref_per_pivot

REPEATS = 5
TOP_SHAPES = 8
RECORDED = ("endo_fields", "automorphism_laws")


def record():
    """The (field, input) pairs of every _rref call in one pass of each
    recorded workload."""

    def passes():
        for name in RECORDED:
            catalog_pass(name)

    runs = recorded(passes, {"_rref": (linalg, lambda args: (args[0], np.array(args[1], copy=True)))})
    return [args for args, _outcome in runs["_rref"]]


def mismatch(field, a):
    """Why the route's output on a differs from the oracle's, or None."""
    before = np.array(a, copy=True)
    rows, pivots = linalg._rref(field, a)
    want_rows, want_pivots = rref_per_pivot(field, a)
    if not np.array_equal(a, before):
        return "input mutated"
    if rows.dtype != want_rows.dtype or rows.shape != want_rows.shape:
        return f"rows {rows.dtype} {rows.shape}, oracle {want_rows.dtype} {want_rows.shape}"
    if not np.array_equal(rows, want_rows):
        return "rows differ"
    if list(pivots) != list(want_pivots) or not all(type(c) is int for c in pivots):
        return f"pivots {list(pivots)}, oracle {list(want_pivots)}"
    return None


def main(argv=None) -> int:
    check = check_only(__doc__, argv)

    calls = record()
    groups = collections.defaultdict(list)
    for field, a in calls:
        groups[field.name].append((field, a))
    bad = 0
    for name, group in groups.items():
        for k, (field, a) in enumerate(group):
            why = mismatch(field, a)
            if why:
                bad += 1
                print(f"MISMATCH {name} input {k} ({a.shape[0]}x{a.shape[1]}): {why}")
        if check:
            continue
        shapes = collections.Counter(a.shape for _, a in group)
        full = sum(linalg._rref(f, a)[0].shape[0] == a.shape[0] for f, a in group)
        print(
            f"{name}: {len(group)} calls, median {statistics.median(a.shape[0] for _, a in group):g}"
            f"x{statistics.median(a.shape[1] for _, a in group):g}, {full} at full row rank"
        )
        print("  " + ", ".join(f"{m}x{n}: {c}" for (m, n), c in shapes.most_common(TOP_SHAPES)))
        route, oracle = best_s(linalg._rref, group, REPEATS), best_s(rref_per_pivot, group, REPEATS)
        print(f"  route {route:.4f} s, oracle {oracle:.4f} s, oracle/route {oracle / route:.2f}")
    print(f"{len(calls)} inputs over {len(groups)} fields, {bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
