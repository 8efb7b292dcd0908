"""Replay of real calls through llcent's six fast routes against their oracles.

Runs four catalogs, each once, with ``linalg._rref``,
``entropy._grow_chain``, ``operators._action_rows``,
``operators.verify_inverse``, ``operators.compose`` and
``operators._from_rows`` wrapped at every llcent module that binds them,
to record their arguments:

* ``endo_fields`` and ``automorphism_laws``: one catalog pass of the
  benchmark workload (every catalog id, every task), each instance built
  as the pass reaches it, so the generators' own ``verify_inverse`` and
  ``compose`` calls are recorded and replayed too;
* ``degenerate_gf2``: ``total_entropy`` on GF(2) operators with degenerate
  right blocks (``generators.degenerate_endomorphism`` from
  ``random.Random(i)`` for i < 60, d_right 1-4 and band width 1-3 in turn);
* ``wide_composites``: ``compose`` on pairs of ``random_endomorphism`` from
  consecutive seeds, ``random.Random(i)`` and ``random.Random(i + 1)`` for
  i < 3, on constant profiles of GF(2) d=16 band width 4, GF(2^31-1) d=4
  width 2 and Q d=2 width 2: products over many levels of wide blocks,
  which the benchmark workloads do not compose.

Then it replays every recorded call through the route and through its
oracle in tests/_oracles.py, and prints a ``MISMATCH`` line for each of:

* ``_rref`` against ``rref_per_pivot``: other rows, pivots, dtype or
  shape, or a mutated input;
* ``_grow_chain`` against ``grow_chain_full_window``, the loop that never
  stops early: another value, status, certificate or step count.  Per
  catalog and shape (field, d_right, band width) it prints how many chains
  were decided at step one (a fixed point read off the first images,
  with no chain kernel built), how many stopped early at a full-rank
  leading edge and at a repeated front state, how many steps that saved,
  and how many of the leading-edge rank tests of the steps taken the loop
  skipped because an earlier one failed;
* ``_action_rows`` against ``action_rows_by_columns``, which fills the
  dense action one ``column()`` entry at a time: another matrix or dtype
  than the recorded one, or another exception;
* ``verify_inverse`` on each recorded pair (f, g), and on (f, f) so that
  pairs that do not verify are seen too, against
  ``verify_inverse_by_composites``: another verdict;
* ``compose`` against ``compose_by_columns``: another width, block,
  boundary region or column (``same_operator``);
* ``_from_rows``, which keeps its rows as the operator's block, against
  ``from_rows_by_columns``, which reads them as LlcVector columns and
  builds the operator with the constructor: another operator
  (``same_operator``), another block dtype or other block entries over
  the union of the two block windows, or another exception.

It exits 1 on any mismatch.  Without --check it also prints, per catalog,
the shape histogram of the ``_rref`` inputs per field and the total time
of each route against its oracle (best of 3 replays), and of
``_grow_chain`` per shape.  The recorded operators' caches are warm by
then, so each route is also timed cold (best of 3 replays on fresh
unpickled copies of the calls, whose operators are rebuilt from their
stationary blocks and boundary block, every per-operator cache empty).

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/replay.py [--check]
"""

import argparse
import contextlib
import copyreg
import io
import os
import pickle
import random
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from bench.tracer import binding_sites  # noqa: E402
from bench.workloads import WORKLOADS, import_program  # noqa: E402

import_program()  # every llcent layer, so that recorded() finds each binding site

import _oracles as oracles  # noqa: E402
import llcent.entropy as entropy  # noqa: E402
import llcent.gf2rows as gf2rows  # noqa: E402
import llcent.linalg as linalg  # noqa: E402
import llcent.operators as operators  # noqa: E402
from llcent.fields import QQ, PrimeField  # noqa: E402
from llcent.generators import degenerate_endomorphism, random_endomorphism  # noqa: E402
from llcent.spaces import Profile  # noqa: E402

REPEATS = 3
TOP_SHAPES = 8
DEGENERATE = 60  # operators in the degenerate_gf2 catalog
WIDE = ((PrimeField(2), 16, 4), (PrimeField(2**31 - 1), 4, 2), (QQ, 2, 2))  # (field, d, band width)
WIDE_PAIRS = 3  # composite pairs per shape in the wide_composites catalog
TARGETS = {
    "_rref": linalg,
    "_grow_chain": entropy,
    "_action_rows": operators,
    "verify_inverse": operators,
    "compose": operators,
    "_from_rows": operators,
}


def catalog_pass(name):
    """One catalog pass of a benchmark workload: every catalog id, every task."""
    workload = WORKLOADS[name]
    for i in range(workload.size):
        inst = workload.build(i)
        for task in workload.tasks:
            workload.solve(task, inst)


def degenerate_pass():
    """total_entropy on each operator of the degenerate_gf2 catalog."""
    for i in range(DEGENERATE):
        profile = Profile.constant(PrimeField(2), 1 + i % 4)
        entropy.total_entropy(degenerate_endomorphism(random.Random(i), profile, width=1 + i // 4 % 3))


def wide_pass():
    """compose on the pairs of the wide_composites catalog."""
    for field, d, width in WIDE:
        profile = Profile.constant(field, d)
        for i in range(WIDE_PAIRS):
            operators.compose(*(random_endomorphism(random.Random(i + k), profile, width=width) for k in (0, 1)))


CATALOGS = {
    "endo_fields": lambda: catalog_pass("endo_fields"),
    "automorphism_laws": lambda: catalog_pass("automorphism_laws"),
    "degenerate_gf2": degenerate_pass,
    "wide_composites": wide_pass,
}


def outcome(fn, *args):
    """("ok", result) or (exception type, message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the oracle must raise what the route raised
        return type(exc), str(exc)


@contextlib.contextmanager
def patched(patches):
    """Set each (owner, attribute, value) of patches for the block, then restore."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _value in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def recorded(run):
    """Run run() with each function of TARGETS wrapped at every llcent
    module that binds it; returns {name: [the arguments of each call]}.

    ``_rref`` keeps a copy of its matrix, which callers may change later.
    Each ``_action_rows`` entry is (arguments, outcome), the outcome a copy
    of the matrix or the exception, which is raised on.  Every binding site
    holds the real function again when run() returns or raises.
    """
    calls = {name: [] for name in TARGETS}
    patches = []
    for name, module in TARGETS.items():
        real, out = getattr(module, name), calls[name]
        if name == "_rref":

            def wrapped(field, a, real=real, out=out):
                out.append((field, np.array(a, copy=True)))
                return real(field, a)

        elif name == "_action_rows":

            def wrapped(*args, real=real, out=out):
                try:
                    result = real(*args)
                except Exception as exc:
                    out.append((args, (type(exc), str(exc))))
                    raise
                out.append((args, ("ok", result.copy())))
                return result

        else:

            def wrapped(*args, real=real, out=out):
                out.append(args)
                return real(*args)

        patches += [(site, attr, wrapped) for site, attr in binding_sites(real)]
    with patched(patches):
        run()
    return calls


def run_s(fn, calls) -> float:
    """The time of fn(*args) for every args in calls."""
    t0 = time.perf_counter()
    for args in calls:
        fn(*args)
    return time.perf_counter() - t0


def best_s(fn, calls) -> float:
    """The least time over REPEATS replays of the calls."""
    return min(run_s(fn, calls) for _ in range(REPEATS))


def cold_s(fn, calls) -> float:
    """best_s on fresh copies: each replay runs a new unpickled copy of the
    calls, every operator in it rebuilt from its block by `_from_rows`, so
    that no cache it fills on use is warm (shared operators stay shared
    within a copy)."""
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf)
    pickler.dispatch_table = copyreg.dispatch_table.copy()
    pickler.dispatch_table[operators.BandedOperator] = lambda op: (
        operators._from_rows,
        (op.profile, op.width, op.left_blocks, op.right_blocks, op.b_lo, op.b_hi, op.block, *op.block_window),
    )
    pickler.dump(calls)
    return min(run_s(fn, pickle.loads(buf.getvalue())) for _ in range(REPEATS))


def timed(route, oracle, calls):
    """The timing line of a route against its oracle over the calls, and
    the route's cold time."""
    mine, theirs, cold = best_s(route, calls), best_s(oracle, calls), cold_s(route, calls)
    return (
        f"  {route.__name__} {mine:.4f} s (cold {cold:.4f} s), {oracle.__name__} {theirs:.4f} s, "
        f"oracle/route {theirs / mine:.2f}"
    )


def rref_mismatch(field, a):
    """Why _rref's output on a differs from the oracle's, or None."""
    before = np.array(a, copy=True)
    rows, pivots = linalg._rref(field, a)
    want_rows, want_pivots = oracles.rref_per_pivot(field, a)
    if not np.array_equal(a, before):
        return "input mutated"
    if rows.dtype != want_rows.dtype or rows.shape != want_rows.shape:
        return f"rows {rows.dtype} {rows.shape}, oracle {want_rows.dtype} {want_rows.shape}"
    if not np.array_equal(rows, want_rows):
        return "rows differ"
    if list(pivots) != list(want_pivots) or not all(type(c) is int for c in pivots):
        return f"pivots {list(pivots)}, oracle {list(want_pivots)}"
    return None


def replay_rref(name, calls, check) -> int:
    by_field = defaultdict(list)
    for field, a in calls:
        by_field[field.name].append((field, a))
    bad = 0
    for label, group in by_field.items():
        for k, (field, a) in enumerate(group):
            why = rref_mismatch(field, a)
            if why:
                bad += 1
                print(f"MISMATCH {name} _rref {label} input {k} ({a.shape[0]}x{a.shape[1]}): {why}")
        if check:
            continue
        full = sum(linalg._rref(f, a)[0].shape[0] == a.shape[0] for f, a in group)
        print(
            f"  {label}: {len(group)} calls, median {statistics.median(a.shape[0] for _, a in group):g}"
            f"x{statistics.median(a.shape[1] for _, a in group):g}, {full} at full row rank"
        )
        shapes = Counter(a.shape for _, a in group).most_common(TOP_SHAPES)
        print("    " + ", ".join(f"{m}x{n}: {c}" for (m, n), c in shapes))
        print("  " + timed(linalg._rref, oracles.rref_per_pivot, group))
    print(f"{name}: {len(calls)} _rref inputs over {len(by_field)} fields, {bad} mismatches")
    return bad


def summary(r):
    return (r.value, r.status, r.certificate, r.iterations)


def shape(args):
    op = args[0]
    return f"{op.profile.field.name} d={op.profile.d_right} w={op.width}"


KEYS = ("chains", "decided", "edge", "front", "filled", "steps", "tests", "skipped")
KERNELS = (entropy._ArrayRows, gf2rows.ChainRows)


def chain_runs(calls):
    """(mismatches, {shape: {key: count for key in KEYS}}) over the _grow_chain calls."""
    stop = []  # "edge" or "front" for the step that ended the stepping, then the steps it saved
    tested = []  # one entry per edge test the current call ran
    built = []  # one entry per chain kernel the current call built
    real_fixed, real_fill, real_kernels = entropy._readings_fixed, entropy._fill_repeated, entropy._chain_rows

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

    def building(img_op, a0):
        built.append(None)
        return real_kernels(img_op, a0)

    got, stops, tests, decided = [], [], [], []
    counters = [
        (entropy, "_readings_fixed", fixed),
        (entropy, "_fill_repeated", fill),
        (entropy, "_chain_rows", building),
    ]
    with patched(counters + [(kernels, "edge", counting(kernels.edge)) for kernels in KERNELS]):
        for args in calls:
            stop.clear()
            tested.clear()
            built.clear()
            got.append(entropy._grow_chain(*args))
            stops.append(tuple(stop) if len(stop) == 2 else None)
            tests.append(len(tested))
            decided.append(not built)
    bad = []
    counts = defaultdict(lambda: dict.fromkeys(KEYS, 0))
    for k, (args, r, s, ran, first) in enumerate(zip(calls, got, stops, tests, decided)):
        want = oracles.grow_chain_full_window(*args)
        if summary(r) != summary(want):
            bad.append(f"call {k} ({args[-1]}): got {summary(r)}, oracle {summary(want)}")
        c = counts[shape(args)]
        c["chains"] += 1
        c["decided"] += first
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
        f"{label}: {c['chains']} chains, {c['decided']} decided at step one, "
        f"{c['edge']} stopped at a leading edge and {c['front']} at a "
        f"repeated front, {c['filled']} of {c['steps']} steps filled ({c['filled'] / max(c['steps'], 1):.0%}), "
        f"{c['skipped']} of {c['tests']} edge rank tests skipped"
    )


def replay_chains(name, calls, check) -> int:
    bad, counts = chain_runs(calls)
    for text in bad:
        print(f"MISMATCH {name} _grow_chain {text}")
    total = {key: sum(c[key] for c in counts.values()) for key in KEYS}
    print(f"{line(name, total)}, {len(bad)} mismatches")
    for label in sorted(counts):
        print(f"  {line(label, counts[label])}")
    if not check:
        print(timed(entropy._grow_chain, oracles.grow_chain_full_window, calls))
        by_shape = defaultdict(list)
        for call in calls:
            by_shape[shape(call)].append(call)
        for label in sorted(by_shape):
            group = by_shape[label]
            print(
                f"  {label}: _grow_chain {best_s(entropy._grow_chain, group):.4f} s "
                f"(cold {cold_s(entropy._grow_chain, group):.4f} s)"
            )
    return len(bad)


def described(result):
    kind, value = result
    return f"{value.dtype} matrix of shape {value.shape}" if kind == "ok" else f"{kind.__name__}({value!r})"


def replay_actions(name, calls) -> int:
    bad = 0
    for k, (args, got) in enumerate(calls):
        want = outcome(oracles.action_rows_by_columns, *args)
        if got[0] == want[0] == "ok":
            same = got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
        else:
            same = got == want
        if not same:
            bad += 1
            print(f"MISMATCH {name} _action_rows call {k} {args[1:]} of {args[0]!r}: "
                  f"got {described(got)}, oracle {described(want)}")
    print(f"{name}: {len(calls)} _action_rows calls replayed against the column-by-column action, {bad} mismatches")
    return bad


def replay_inverses(name, calls, check) -> int:
    pairs = calls + [(f_op, f_op) for f_op, _g in calls]
    bad = verified = 0
    for k, (f_op, g_op) in enumerate(pairs):
        got, want = operators.verify_inverse(f_op, g_op), oracles.verify_inverse_by_composites(f_op, g_op)
        verified += want
        if got != want:
            bad += 1
            print(f"MISMATCH {name} verify_inverse pair {k} ({f_op!r}, {g_op!r}): got {got}, oracle {want}")
    print(f"{name}: {len(calls)} verify_inverse calls, {len(pairs)} pairs replayed, {verified} verified, {bad} mismatches")
    if calls and not check:
        print(timed(operators.verify_inverse, oracles.verify_inverse_by_composites, calls))
    return bad


def replay_composites(name, calls, check) -> int:
    bad = 0
    for k, (f_op, g_op) in enumerate(calls):
        if not oracles.same_operator(operators.compose(f_op, g_op), oracles.compose_by_columns(f_op, g_op)):
            bad += 1
            print(f"MISMATCH {name} compose call {k} ({f_op!r}, {g_op!r})")
    print(f"{name}: {len(calls)} compose calls replayed, {bad} mismatches")
    if calls and not check:
        print(timed(operators.compose, oracles.compose_by_columns, calls))
    return bad


def same_block(a, b) -> bool:
    """a's and b's blocks have one dtype and the same entries over the union
    of their windows."""
    p = a.profile
    (a_lo, a_hi), (b_lo, b_hi) = a.block_window, b.block_window
    lo, hi = min(a_lo, b_lo), max(a_hi, b_hi)

    def widened(op):
        out = p.field.zeros(op.block.shape[0], p.window_dim(lo, hi))
        at = p.window_dim(lo, op.block_window[0])
        out[:, at : at + op.block.shape[1]] = op.block
        return out

    return a.block.dtype == b.block.dtype and np.array_equal(widened(a), widened(b))


def replay_from_rows(name, calls) -> int:
    bad = 0
    for k, args in enumerate(calls):
        got, want = outcome(operators._from_rows, *args), outcome(oracles.from_rows_by_columns, *args)
        if got[0] == want[0] == "ok":
            same = oracles.same_operator(got[1], want[1]) and same_block(got[1], want[1])
        else:
            same = got == want
        if not same:
            bad += 1
            print(f"MISMATCH {name} _from_rows call {k} (levels {args[4]}..{args[5]} over ({args[7]}, {args[8]}])")
    print(f"{name}: {len(calls)} _from_rows calls replayed against the column route, {bad} mismatches")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="replay once and check; no timing")
    check = ap.parse_args(argv).check

    bad = 0
    for name, run in CATALOGS.items():
        calls = recorded(run)
        bad += replay_rref(name, calls["_rref"], check)
        bad += replay_chains(name, calls["_grow_chain"], check)
        bad += replay_actions(name, calls["_action_rows"])
        bad += replay_inverses(name, calls["verify_inverse"], check)
        bad += replay_composites(name, calls["compose"], check)
        bad += replay_from_rows(name, calls["_from_rows"])
    print(f"{bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
