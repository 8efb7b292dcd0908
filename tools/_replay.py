"""What the replay tools share: the import path, one catalog pass of a
benchmark workload, a recorder that wraps a function at every llcent
module that binds it, a best-of-n timer and the --check parser.

Importing this module puts the repository root, src/ and tests/ on
``sys.path`` and loads every llcent layer, so that ``recorded`` finds each
binding site.
"""

import argparse
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from bench.tracer import binding_sites  # noqa: E402
from bench.workloads import WORKLOADS, import_program  # noqa: E402

import_program()


def catalog_pass(name, insts=None):
    """One catalog pass of a benchmark workload: every catalog id, every
    task.  Each instance is built as the pass reaches it, unless `insts`
    holds them already."""
    workload = WORKLOADS[name]
    for i in range(workload.size):
        inst = workload.build(i) if insts is None else insts[i]
        for task in workload.tasks:
            workload.solve(task, inst)


def recorded(run, targets):
    """Run `run()` with each function of `targets`, {name: (defining module,
    keep)}, wrapped at every llcent module that binds it.

    Returns {name: [(kept arguments, outcome) per call, in the order the
    calls returned]}.  The kept arguments are keep(args), taken before the
    call, or args when keep is None; the outcome is ("ok", result), an
    array result copied as callers may change it, or (exception type,
    message), and the exception is raised on.
    """
    calls = {name: [] for name in targets}
    patches = []
    for name, (module, keep) in targets.items():
        real = getattr(module, name)

        def wrapped(*args, real=real, keep=keep, out=calls[name]):
            kept = args if keep is None else keep(args)
            try:
                result = real(*args)
            except Exception as exc:
                out.append((kept, (type(exc), str(exc))))
                raise
            out.append((kept, ("ok", result.copy() if isinstance(result, np.ndarray) else result)))
            return result

        for site, attr in binding_sites(real):
            patches.append((site, attr, real))
            setattr(site, attr, wrapped)
    try:
        run()
    finally:
        for site, attr, real in reversed(patches):
            setattr(site, attr, real)
    return calls


def best_s(fn, calls, repeats) -> float:
    """The least time over `repeats` replays of fn(*args) for every args in calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in calls:
            fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def check_only(doc, argv=None) -> bool:
    """Parse the tool's command line: whether --check asks for one replay
    and its check, without the timing."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="replay once and check; no timing")
    return ap.parse_args(argv).check
