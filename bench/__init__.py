"""Benchmark harness for llcent: workloads, outside-in tracer and runner.

Run from the root of a checkout::

    python3 bench/run.py --workload endo_fields --seed 1 --seconds 30 --trace 0

See bench/README.md for the workloads and the metric mapping.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")
OUT = os.path.join(BENCH, "out")
REFERENCE = os.path.join(BENCH, "reference.json")

# One fixed BLAS/OpenMP thread count for every process the benchmark starts,
# so that a later float-BLAS kernel is compared under the same threading.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def program_present() -> bool:
    """True when the checkout holds the llcent sources the benchmark drives."""
    return os.path.isfile(os.path.join(SRC, "llcent", "__init__.py"))


def use_checkout_sources():
    """Import llcent from this checkout's src/, never from an installed copy."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def pinned_env() -> dict:
    """Environment for every child process: checkout sources, fixed threads."""
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    env["PYTHONHASHSEED"] = "0"
    return env
