"""One run of one workload, in a fresh process started by bench/run.py.

Modes:
  --mode setup  import llcent and build the catalog; report the time only.
  --mode run    untraced closed loop (one client) for --seconds: end-to-end
                metrics.
  --mode trace  a fixed number of units, each solved untraced and then
                traced: per-layer metrics, tracing overhead, and a check
                that traced fingerprints equal untraced ones.

Prints one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import OUT, REFERENCE, ROOT, THREAD_PINS, pinned_env, use_checkout_sources  # noqa: E402
from bench import stats  # noqa: E402
from bench.tracer import LAYERS, Tracer, merge, traced_leftovers, write_dump  # noqa: E402
from bench.workloads import WORKLOADS, import_program  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "solve_p50_s": "s",
    "solve_tail_s": "s",
    "cpu_per_solve_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "fields.matmul.calls": "count",
    "fields.matmul.self_s": "s",
    "fields.matmul.mac": "count",
    "fields.matmul.chunked_calls": "count",
    "fields.normalize.self_s": "s",
    "linalg.rref.calls": "count",
    "linalg.rref.self_s": "s",
    "linalg.rref_union.self_s": "s",
    "linalg.rref_union.rows_in": "count",
    "linalg.rref_union.rank_gain": "count",
    "linalg.pad_basis_columns.self_s": "s",
    "spaces.cofinal_chain.calls": "count",
    "spaces.canonicalize.self_s": "s",
    "operators.action_rows.self_s": "s",
    "operators.compose.calls": "count",
    "operators.compose.self_s": "s",
    "operators.verify_inverse.calls": "count",
    "operators.verify_inverse.self_s": "s",
    "entropy.limitfree.self_s": "s",
    "entropy.limitfree.steps": "count",
    "entropy.trajectory.self_s": "s",
    "entropy.trajectory.steps": "count",
    "entropy.total.chain_indices": "count",
    "theorems.check.self_s": "s",
    "specfile.parse_spec.self_s": "s",
    "cli.run_command.self_s": "s",
    "cli.render_report.self_s": "s",
    "cli.import_s": "s",
    "trace.overhead_frac": "ratio",
}

# Which per-layer metrics each workload must exercise (nonzero) and which it
# must bypass (zero); a traced run that breaks this mapping is not correct.
_ENGINE_LAYERS = [
    "fields.matmul.calls", "fields.matmul.self_s", "fields.matmul.mac", "fields.normalize.self_s",
    "linalg.rref.calls", "linalg.rref.self_s", "linalg.rref_union.self_s",
    "linalg.rref_union.rows_in", "linalg.rref_union.rank_gain", "linalg.pad_basis_columns.self_s",
    "spaces.cofinal_chain.calls", "spaces.canonicalize.self_s", "operators.action_rows.self_s",
    "entropy.trajectory.self_s", "entropy.trajectory.steps", "entropy.total.chain_indices",
]
_NO_INVERSE = [
    "operators.compose.calls", "operators.verify_inverse.calls", "entropy.limitfree.steps",
    "theorems.check.self_s", "specfile.parse_spec.self_s",
]
EXPECT_NONZERO = {
    "endo_fields": _ENGINE_LAYERS + ["fields.matmul.chunked_calls"],
    "automorphism_laws": _ENGINE_LAYERS + [
        "operators.compose.calls", "operators.compose.self_s",
        "operators.verify_inverse.calls", "operators.verify_inverse.self_s",
        "entropy.limitfree.self_s", "entropy.limitfree.steps", "theorems.check.self_s",
    ],
    "cli_specs": [
        "specfile.parse_spec.self_s", "cli.run_command.self_s", "cli.render_report.self_s",
        "cli.import_s", "entropy.trajectory.steps", "entropy.total.chain_indices",
        "fields.matmul.calls", "linalg.rref.calls",
    ],
}
EXPECT_ZERO = {
    "endo_fields": _NO_INVERSE,
    "automorphism_laws": ["fields.matmul.chunked_calls", "specfile.parse_spec.self_s"],
    "cli_specs": ["fields.matmul.chunked_calls"],
}


def cpu_seconds() -> float:
    """CPU time of this process (all threads) plus its waited-for children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


# Timings are reported in reference seconds.  On a shared VM the speed of a
# vCPU changes from second to second: other tenants slow the same code by up
# to 1.8 times, for a few seconds or for minutes.  So every timed interval
# is bracketed by a fixed piece of pure-Python work, the probe, and scaled
# by PROBE_REF_S over the mean of the two probe times.  PROBE_REF_S is the
# probe's time on an uncontended vCPU of the 2-vCPU VM (Xeon, 2.0 GHz,
# Python 3.11) where the benchmark was written, so a reference second is
# about a second there at its fast speed.  The probe runs no llcent code, so
# a change to llcent moves the scaled times exactly as it moves raw ones.
PROBE_REF_S = 0.0045


def speed_probe() -> float:
    """Wall time of a fixed piece of pure-Python work (about 5 ms)."""
    t0 = time.perf_counter()
    d = {}
    for i in range(15000):
        key = (i % 97, i % 13)
        d[key] = d.get(key, 0) + i * i % 7
    return time.perf_counter() - t0


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, the one the probe measures."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def setup(wl, ids):
    """Import llcent and build catalog instances; returns (pickled instances, seconds)."""
    t0 = time.perf_counter()
    use_checkout_sources()
    import_program()
    blobs = {i: pickle.dumps(wl.build(i)) for i in ids}
    return blobs, time.perf_counter() - t0


def scaled_setup(wl):
    """setup() of the whole catalog, its time in reference seconds, between two probes."""
    before = speed_probe()
    blobs, seconds = setup(wl, range(wl.size))
    return blobs, seconds * PROBE_REF_S / ((before + speed_probe()) / 2)


def load_reference(name) -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)["workloads"][name]


class Checker:
    """Compares fingerprints with the reference and keeps every mismatch by name."""

    def __init__(self, wl, reference):
        self.wl = wl
        self.reference = reference
        self.failed = 0
        self.problems = []  # fingerprint mismatches, by instance
        self.violations = []  # broken layer mapping or tracer leftovers

    def check(self, i, task, got, label=""):
        key = f"{i}:{task}"
        want = self.reference.get(key)
        if got == want:
            return
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(
                f"{self.wl.name} instance {key}{label}: expected {want!r}, got {got!r}"
            )


def _solve(wl, task, inst, **kw) -> str:
    try:
        return wl.solve(task, inst, **kw)
    except Exception:  # a raising solve is a failed instance, reported by name
        return "raised " + traceback.format_exc(limit=2).strip().splitlines()[-1]


def run_window(wl, seed, seconds, reference):
    """Closed loop, one client: cycle through the catalog for `seconds`.

    A catalog pass takes a fraction of the window, so each unit is solved
    several times, the repeats one pass apart.  Each solve's wall and CPU
    time is scaled to reference seconds by the probes before and after it,
    and the timing metrics use each unit's fastest scaled solve.  Every
    solve is checked against the reference.  The solve in progress when the
    window closes runs to completion.
    """
    blobs, setup_s = scaled_setup(wl)
    checker = Checker(wl, reference)
    best = {}  # unit -> (wall, cpu) reference seconds of its fastest solve
    probes = [speed_probe()]
    exit_codes = collections.Counter()
    start = time.perf_counter()
    j = 0
    while not j or time.perf_counter() - start < seconds:
        unit = wl.unit(seed, j)
        inst = pickle.loads(blobs[unit[0]])
        c0, t0 = cpu_seconds(), time.perf_counter()
        got = _solve(wl, unit[1], inst)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        probes.append(speed_probe())
        scale = PROBE_REF_S / ((probes[-2] + probes[-1]) / 2)
        sample = (wall * scale, cpu * scale)
        best[unit] = min(best.get(unit, sample), sample)
        checker.check(*unit, got)
        if wl.cli:
            exit_codes[got.split("|")[0]] += 1
        j += 1
    times = [t for t, _ in best.values()]
    who = resource.RUSAGE_CHILDREN if wl.cli else resource.RUSAGE_SELF
    q, tail = stats.tail_percentile(times)
    metrics = {
        "setup_s": setup_s,
        "solves_per_s": len(times) / sum(times),
        "solve_p50_s": statistics.median(times),
        "solve_tail_s": tail,
        "cpu_per_solve_s": sum(c for _, c in best.values()) / len(times),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    info = {
        "solves": j,
        "units": len(times),
        "passes": round(j / (wl.size * len(wl.tasks)), 2),
        "elapsed_s": time.perf_counter() - start,
        "solve_tail": f"p{q} of {len(times)} units, {sum(t > tail for t in times)} beyond",
        "probe_median_s": statistics.median(probes),
        "fail_frac": checker.failed / j,
    }
    if wl.cli:
        info["exit_codes"] = dict(sorted(exit_codes.items()))
    return metrics, END_TO_END, j, checker, info


def import_probe(repeats=3) -> float:
    """Median wall time of `import llcent.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import llcent.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, env=pinned_env(), cwd=ROOT,
            timeout=60, check=True,
        ).stdout
        samples.append(float(out.decode().strip()))
    return statistics.median(samples)


def run_trace(wl, seed, seconds, reference):
    """Each unit untraced, then traced; per-layer metrics from the traced spans."""
    count = max(1, round(wl.trace_per_second * seconds))
    units = [wl.unit(seed, j) for j in range(count)]
    blobs, _ = setup(wl, sorted({i for i, _ in units}))
    checker = Checker(wl, reference)
    tracer = Tracer()
    dumps = []
    dump_path = os.path.join(OUT, f"cli-spans-{os.getpid()}.json")
    plain = traced = 0.0
    for i, task in units:
        t0 = time.perf_counter()
        got_plain = _solve(wl, task, pickle.loads(blobs[i]))
        plain += time.perf_counter() - t0
        inst = pickle.loads(blobs[i])
        if wl.cli:
            t0 = time.perf_counter()
            got_traced = _solve(wl, task, inst, dump_path=dump_path)
            traced += time.perf_counter() - t0
            with open(dump_path, "r", encoding="utf-8") as fh:
                dumps.append(json.load(fh))
            os.remove(dump_path)
        else:
            tracer.install()
            try:
                t0 = time.perf_counter()
                with tracer.span():
                    got_traced = _solve(wl, task, inst)
                traced += time.perf_counter() - t0
            finally:
                tracer.uninstall()
        checker.check(i, task, got_plain)
        if got_traced != got_plain:
            checker.check(i, task, got_traced, label=" (traced)")
    dump = merge([tracer.dump(), *dumps])
    write_dump(dump, os.path.join(OUT, f"spans-{wl.name}.json.gz"))

    agg = stats.per_name(dump["names"], dump["name_id"], dump["parent"], dump["start"], dump["end"])
    metrics = {}
    for layer in LAYERS:
        calls, self_s = agg[layer]
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
    metrics.update(dump["counters"])
    metrics["cli.import_s"] = import_probe()
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    metrics = {k: metrics[k] for k in PER_LAYER}

    leftovers = traced_leftovers()
    problems = [f"tracer left wrappers in place: {leftovers}"] if leftovers else []
    problems += [
        f"{wl.name}: per-layer metric {k} is 0 but this workload must exercise it"
        for k in EXPECT_NONZERO[wl.name] if not metrics[k]
    ]
    problems += [
        f"{wl.name}: per-layer metric {k} is {metrics[k]} but this workload must bypass it"
        for k in EXPECT_ZERO[wl.name] if metrics[k]
    ]
    checker.violations += problems
    info = {"units": count, "spans": len(dump["start"]), "plain_s": plain, "traced_s": traced}
    return metrics, PER_LAYER, 2 * count, checker, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    pin_to_one_cpu()
    if args.mode == "setup":
        _, setup_s = scaled_setup(wl)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    reference = load_reference(wl.name)
    runner = run_window if args.mode == "run" else run_trace
    metrics, units, attempted, checker, info = runner(wl, args.seed, args.seconds, reference)
    info["env"] = environment()
    print(json.dumps({
        "correct": checker.failed == 0 and not checker.violations,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "problems": checker.problems + checker.violations,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
