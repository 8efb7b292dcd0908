"""Outside-in tracer: wraps llcent's layer functions from the benchmark's side.

Nothing under src/ knows about it.  Installing the tracer replaces each
target function at every place it is bound: the defining module or class,
and every llcent module that imported the name at its top (``entropy``
binds ``verify_inverse`` and ``cofinal_chain``; ``theorems`` and ``cli``
bind ``total_entropy``; the package re-exports most names).  Function-local
imports read the defining module at call time, so they see the wrapper too.

Each call records a span (name, start, end, parent) in memory; spans are
written out only when the run ends.  Counters (multiply-accumulates,
chunked products, rows fed to ``rref_union`` and the rank they added,
engine steps, chain indices) are taken at the same boundaries from the
call's arguments and result.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from array import array

# span name -> [(module, class or None, attribute)]
LAYERS = {
    "fields.matmul": [("llcent.fields", "PrimeField", "matmul"), ("llcent.fields", "RationalField", "matmul")],
    "fields.normalize": [("llcent.fields", "PrimeField", "normalize"), ("llcent.fields", "RationalField", "normalize")],
    "linalg.rref": [("llcent.linalg", None, "_rref")],
    "linalg.rref_union": [("llcent.linalg", None, "rref_union")],
    "linalg.pad_basis_columns": [("llcent.linalg", None, "pad_basis_columns")],
    "spaces.cofinal_chain": [("llcent.spaces", None, "cofinal_chain")],
    "spaces.canonicalize": [("llcent.spaces", "CompactOpenSubspace", "_canonicalize")],
    "operators.action_rows": [("llcent.operators", None, "_action_rows")],
    "operators.compose": [("llcent.operators", None, "compose")],
    "operators.verify_inverse": [("llcent.operators", None, "verify_inverse")],
    "entropy.trajectory": [("llcent.entropy", None, "trajectory_relative_entropy")],
    "entropy.limitfree": [("llcent.entropy", None, "limit_free_relative_entropy")],
    "entropy.total": [("llcent.entropy", None, "total_entropy")],
    "theorems.check": [("llcent.theorems", None, "check_property"), ("llcent.theorems", None, "check_addition")],
    "specfile.parse_spec": [("llcent.specfile", None, "parse_spec")],
    "cli.run_command": [("llcent.cli", None, "run_command")],
    "cli.render_report": [("llcent.cli", None, "render_report")],
}

# The span every workload opens around one solve; it is the root of the tree.
SOLVE = "bench.solve"


def _count_matmul(counters, args, result):
    field, a, b = args[0], args[1], args[2]
    inner = a.shape[-1]
    counters["fields.matmul.mac"] += a.shape[0] * inner * b.shape[-1]
    p = getattr(field, "p", None)
    if p is not None and inner > (1 << 62) // max((p - 1) ** 2, 1):
        counters["fields.matmul.chunked_calls"] += 1


def _count_rref_union(counters, args, result):
    basis, rows = args[0], args[1]
    counters["linalg.rref_union.rows_in"] += rows.shape[0]
    counters["linalg.rref_union.rank_gain"] += result.rank - basis.rank


def _counter_of(attr_of_result, key):
    def count(counters, args, result):
        counters[key] += getattr(result, attr_of_result)
    return count


COUNTERS = {
    "fields.matmul": _count_matmul,
    "linalg.rref_union": _count_rref_union,
    "entropy.trajectory": _counter_of("iterations", "entropy.trajectory.steps"),
    "entropy.limitfree": _counter_of("iterations", "entropy.limitfree.steps"),
    "entropy.total": _counter_of("iterations", "entropy.total.chain_indices"),
}
COUNTER_KEYS = (
    "fields.matmul.mac",
    "fields.matmul.chunked_calls",
    "linalg.rref_union.rows_in",
    "linalg.rref_union.rank_gain",
    "entropy.trajectory.steps",
    "entropy.limitfree.steps",
    "entropy.total.chain_indices",
)


class Tracer:
    """Span recorder plus the patches that feed it; install() / uninstall()."""

    def __init__(self):
        self.names = [SOLVE, *LAYERS]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters = dict.fromkeys(COUNTER_KEYS, 0)
        self._stack = [-1]
        self._patches = []  # (owner, attribute, original value)

    # -- recording -----------------------------------------------------------
    def _open(self, k: int) -> int:
        i = len(self.start)
        self.name_id.append(k)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str = SOLVE):
        """A span opened by the benchmark itself, around one solve."""
        i = self._open(self.names.index(name))
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, fn, k: int, count):
        open_, close = self._open, self._close
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(k)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if count is not None:
                count(counters, args, result)
            return result

        traced.__bench_traced__ = True
        return traced

    # -- patching ------------------------------------------------------------
    def install(self):
        """Wrap every target at every binding site in the loaded llcent modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, targets in LAYERS.items():
            k = self.names.index(name)
            for module_name, class_name, attr in targets:
                module = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(module, class_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(raw.__func__, k, COUNTERS.get(name)))
                    else:
                        wrapped = self._wrap(raw, k, COUNTERS.get(name))
                    self._patch(owner, attr, wrapped)
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(original, k, COUNTERS.get(name))
                for site, site_attr in binding_sites(original):
                    self._patch(site, site_attr, wrapped)

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        """Put back every original, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------
    def dump(self) -> dict:
        """Spans and counters as plain lists, for writing out after the run."""
        return {
            "names": list(self.names),
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": dict(self.counters),
        }


def _llcent_modules():
    return [
        (name, m) for name, m in sorted(sys.modules.items())
        if m is not None and (name == "llcent" or name.startswith("llcent."))
    ]


def binding_sites(fn):
    """(module, global name) for every loaded llcent module that binds `fn`."""
    return [(m, k) for _, m in _llcent_modules() for k, v in list(vars(m).items()) if v is fn]


def traced_leftovers():
    """(owner, attribute) pairs in llcent that still hold a tracer wrapper."""
    found = []
    for name, m in _llcent_modules():
        owners = [m] + [v for v in vars(m).values() if isinstance(v, type) and v.__module__ == name]
        for owner in owners:
            for attr, v in vars(owner).items():
                v = v.__func__ if isinstance(v, classmethod) else v
                if getattr(v, "__bench_traced__", False):
                    found.append((getattr(owner, "__name__", name), attr))
    return found


def merge(dumps) -> dict:
    """Concatenate span dumps from several processes into one."""
    out = {"names": None, "name_id": [], "parent": [], "start": [], "end": [], "counters": {}}
    for d in dumps:
        if out["names"] is None:
            out["names"] = d["names"]
        if d["names"] != out["names"]:
            raise ValueError("span dumps use different name tables")
        base = len(out["start"])
        out["name_id"].extend(d["name_id"])
        out["parent"].extend(p + base if p >= 0 else -1 for p in d["parent"])
        out["start"].extend(d["start"])
        out["end"].extend(d["end"])
        for key, v in d["counters"].items():
            out["counters"][key] = out["counters"].get(key, 0) + v
    return out


def write_dump(dump: dict, path: str):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(dump, fh, separators=(",", ":"))
