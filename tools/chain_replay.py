"""Replay of real chain-growth calls through llcent.entropy._grow_chain.

Runs one catalog pass of the benchmark's ``endo_fields`` and
``automorphism_laws`` workloads (every catalog id, every task) with
``llcent.entropy._grow_chain`` wrapped to record its arguments, then feeds
each recorded call to ``_grow_chain`` and to ``grow_chain_full_window`` of
tests/_oracles.py, the loop that never stops early.  It prints, per
workload, how many chains stopped at a repeated front state and how many
steps that saved, and the total time of the engine's loop against the
oracle (best of 3 replays); it exits 1 when the two return another value,
status, certificate or step count on any call.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/chain_replay.py [--check]

--check replays once, without the timing, and prints only the mismatches
and a summary line per workload.
"""

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import llcent.entropy as entropy  # noqa: E402
from _oracles import grow_chain_full_window  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

NAMES = ("endo_fields", "automorphism_laws")
REPEATS = 3


def record(name):
    """The argument tuples of every _grow_chain call in one catalog pass."""
    workload = WORKLOADS[name]
    calls = []
    real = entropy._grow_chain

    def recording(*args):
        calls.append(args)
        return real(*args)

    entropy._grow_chain = recording
    try:
        for i in range(workload.size):
            inst = workload.build(i)
            for task in workload.tasks:
                workload.solve(task, inst)
    finally:
        entropy._grow_chain = real
    return calls


def summary(r):
    return (r.value, r.status, r.certificate, r.iterations)


def replay(calls):
    """(mismatches, chains stopped early, steps saved, steps) over the calls."""
    fills = []
    real_fill = entropy._fill_repeated

    def counting_fill(readings, cfg, horizon, u):
        stepped = len(readings)
        r = real_fill(readings, cfg, horizon, u)
        fills.append(r.iterations - stepped)
        return r

    entropy._fill_repeated = counting_fill
    try:
        got = [entropy._grow_chain(*args) for args in calls]
    finally:
        entropy._fill_repeated = real_fill
    bad = []
    for k, (args, r) in enumerate(zip(calls, got)):
        want = grow_chain_full_window(*args)
        if summary(r) != summary(want):
            bad.append(f"call {k} ({args[-1]}): got {summary(r)}, oracle {summary(want)}")
    return bad, len(fills), sum(fills), sum(r.iterations for r in got)


def best_s(fn, calls) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for args in calls:
            fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="replay once and check; no timing")
    args = ap.parse_args(argv)

    total_bad = 0
    for name in NAMES:
        calls = record(name)
        bad, stopped, saved, steps = replay(calls)
        total_bad += len(bad)
        for line in bad:
            print(f"MISMATCH {name} {line}")
        print(
            f"{name}: {len(calls)} chains, {stopped} stopped at a repeated front, "
            f"{saved} of {steps} steps filled ({saved / max(steps, 1):.0%}), {len(bad)} mismatches"
        )
        if not args.check:
            loop, oracle = best_s(entropy._grow_chain, calls), best_s(grow_chain_full_window, calls)
            print(f"  _grow_chain {loop:.4f} s, full window {oracle:.4f} s, oracle/loop {oracle / loop:.2f}")
    return 1 if total_bad else 0


if __name__ == "__main__":
    sys.exit(main())
