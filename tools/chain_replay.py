"""Replay of real chain-growth calls through llcent.entropy._grow_chain.

Runs one catalog pass of the benchmark's ``endo_fields`` and
``automorphism_laws`` workloads (every catalog id, every task), and
``total_entropy`` on a fixed catalog of GF(2) operators with degenerate
right blocks (``degenerate_gf2``: ``generators.degenerate_endomorphism``
from ``random.Random(i)`` for i < 60, d_right 1-4 and band width 1-3 in
turn), with ``llcent.entropy._grow_chain`` wrapped to record its
arguments.  It then feeds each recorded call to ``_grow_chain`` and to
``grow_chain_full_window`` of tests/_oracles.py, the loop that never
stops early.  It prints, per catalog and per shape (field, d_right, band
width), how many chains stopped early at a full-rank leading edge and at
a repeated front state and how many steps that saved, how many of the
leading-edge rank tests of the steps taken the loop skipped because an
earlier one failed (`_grow_chain`), the total time of the engine's loop
against the oracle and the loop's time per shape (best of 3 replays
each); it exits 1 when the two return another value, status, certificate
or step count on any call.

The same passes record every ``llcent.operators._action_rows`` call, at
each module that binds it, with the matrix it returned or the exception
it raised.  Each is replayed through ``action_rows_by_columns`` of
tests/_oracles.py, which fills the dense action one ``column()`` entry at
a time; a call that gives another matrix or dtype, or another exception,
is a mismatch too, and one summary line counts the calls per catalog.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/chain_replay.py [--check]

--check replays once, without the timing, and prints only the mismatches
and the summary lines.
"""

import random
import sys
from collections import defaultdict
from functools import partial

import numpy as np

from _replay import best_s, catalog_pass, check_only, recorded  # first: it sets the import path

import llcent.entropy as entropy
import llcent.gf2rows as gf2rows
import llcent.operators as operators
from _oracles import action_rows_by_columns, grow_chain_full_window
from llcent.fields import PrimeField
from llcent.generators import degenerate_endomorphism
from llcent.spaces import Profile

REPEATS = 3
DEGENERATE = 60  # operators in the degenerate_gf2 catalog


def degenerate_pass():
    """total_entropy on each operator of the degenerate_gf2 catalog."""
    for i in range(DEGENERATE):
        profile = Profile.constant(PrimeField(2), 1 + i % 4)
        entropy.total_entropy(degenerate_endomorphism(random.Random(i), profile, width=1 + i // 4 % 3))


CATALOGS = {
    "endo_fields": partial(catalog_pass, "endo_fields"),
    "automorphism_laws": partial(catalog_pass, "automorphism_laws"),
    "degenerate_gf2": degenerate_pass,
}


def outcome(fn, *args):
    """("ok", matrix) or (exception type, message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the oracle must raise what the action raised
        return type(exc), str(exc)


def record(name):
    """(The argument tuples of every _grow_chain call in one pass of a
    catalog, (arguments, outcome) of every _action_rows call in it)."""
    runs = recorded(CATALOGS[name], {"_grow_chain": (entropy, None), "_action_rows": (operators, None)})
    return [args for args, _outcome in runs["_grow_chain"]], runs["_action_rows"]


def replay_actions(actions):
    """Mismatch descriptions of the recorded _action_rows calls against the oracle."""
    bad = []
    for k, (args, got) in enumerate(actions):
        want = outcome(action_rows_by_columns, *args)
        if got[0] == want[0] == "ok":
            same = got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
        else:
            same = got == want
        if not same:
            bad.append(f"call {k} {args[1:]} of {args[0]!r}: got {described(got)}, oracle {described(want)}")
    return bad


def described(result):
    kind, value = result
    return f"{value.dtype} matrix of shape {value.shape}" if kind == "ok" else f"{kind.__name__}({value!r})"


def summary(r):
    return (r.value, r.status, r.certificate, r.iterations)


def shape(args):
    op = args[0]
    return f"{op.profile.field.name} d={op.profile.d_right} w={op.width}"


KEYS = ("chains", "edge", "front", "filled", "steps", "tests", "skipped")
KERNELS = (entropy._ArrayRows, gf2rows.ChainRows)


def replay(calls):
    """(mismatches, {shape: {key: count for key in KEYS}}) over the calls."""
    stop = []  # "edge" or "front" for the step that ended the stepping, then the steps it saved
    tested = []  # one entry per edge test the current call ran
    real_fixed, real_fill = entropy._readings_fixed, entropy._fill_repeated
    real_edges = [k.edge for k in KERNELS]

    def counting(real):
        def edge(self, *args):
            tested.append(None)
            return real(self, *args)

        return edge

    def fixed(front, prev, edge):
        reason = real_fixed(front, prev, edge)
        stop[:] = ["edge" if edge else "front"] if reason else []
        return reason

    def fill(readings, cfg, horizon, u):
        stepped = len(readings)
        r = real_fill(readings, cfg, horizon, u)
        stop.append(r.iterations - stepped)
        return r

    entropy._readings_fixed, entropy._fill_repeated = fixed, fill
    for kernels, real in zip(KERNELS, real_edges):
        kernels.edge = counting(real)
    got, stops, tests = [], [], []
    try:
        for args in calls:
            stop.clear()
            tested.clear()
            got.append(entropy._grow_chain(*args))
            stops.append(tuple(stop) if len(stop) == 2 else None)
            tests.append(len(tested))
    finally:
        entropy._readings_fixed, entropy._fill_repeated = real_fixed, real_fill
        for kernels, real in zip(KERNELS, real_edges):
            kernels.edge = real
    bad = []
    counts = defaultdict(lambda: dict.fromkeys(KEYS, 0))
    for k, (args, r, s, ran) in enumerate(zip(calls, got, stops, tests)):
        want = grow_chain_full_window(*args)
        if summary(r) != summary(want):
            bad.append(f"call {k} ({args[-1]}): got {summary(r)}, oracle {summary(want)}")
        c = counts[shape(args)]
        c["chains"] += 1
        c["steps"] += r.iterations
        if s:
            c[s[0]] += 1
            c["filled"] += s[1]
        # every step taken after the first has an edge test, run or skipped
        taken = r.iterations - (s[1] if s else 0)
        c["tests"] += taken - 1
        c["skipped"] += taken - 1 - ran
    return bad, dict(counts)


def line(label, c):
    return (
        f"{label}: {c['chains']} chains, {c['edge']} stopped at a leading edge and {c['front']} at a "
        f"repeated front, {c['filled']} of {c['steps']} steps filled ({c['filled'] / max(c['steps'], 1):.0%}), "
        f"{c['skipped']} of {c['tests']} edge rank tests skipped"
    )


def main(argv=None) -> int:
    check = check_only(__doc__, argv)

    total_bad = action_bad = 0
    action_counts = []
    for name in CATALOGS:
        calls, actions = record(name)
        bad_actions = replay_actions(actions)
        action_bad += len(bad_actions)
        action_counts.append(f"{len(actions)} {name}")
        for text in bad_actions:
            print(f"MISMATCH _action_rows {name} {text}")
        bad, counts = replay(calls)
        total_bad += len(bad)
        for text in bad:
            print(f"MISMATCH {name} {text}")
        total = {key: sum(c[key] for c in counts.values()) for key in KEYS}
        print(f"{line(name, total)}, {len(bad)} mismatches")
        for label in sorted(counts):
            print(f"  {line(label, counts[label])}")
        if not check:
            loop, oracle = best_s(entropy._grow_chain, calls, REPEATS), best_s(grow_chain_full_window, calls, REPEATS)
            print(f"  _grow_chain {loop:.4f} s, full window {oracle:.4f} s, oracle/loop {oracle / loop:.2f}")
            by_shape = defaultdict(list)
            for call in calls:
                by_shape[shape(call)].append(call)
            for label in sorted(by_shape):
                print(f"  {label}: _grow_chain {best_s(entropy._grow_chain, by_shape[label], REPEATS):.4f} s")
    print(
        f"_action_rows: {', '.join(action_counts[:-1])} and {action_counts[-1]} calls replayed "
        f"against the column-by-column action, {action_bad} mismatches"
    )
    return 1 if total_bad or action_bad else 0


if __name__ == "__main__":
    sys.exit(main())
