"""The workloads: instance catalogs, solves and result fingerprints.

Each workload owns a catalog of consecutive instance ids 0..size-1, each
built from ``random.Random(id)`` through llcent's public generators.  A run
with seed s visits the ids s, s+1, ... (mod size), so a range is always
contiguous from the seed and never hand-picked.  A catalog is small
enough that one run makes several passes over it, so every run solves the
whole catalog, each unit several times, in a seed-dependent rotation, and
runs with different seeds stay comparable.

A solve returns a fingerprint string; the benchmark compares it with the
checked-in reference (bench/reference.json).  Library fingerprints hold
value, status and certificate; CLI fingerprints hold the exit code and a
digest of stdout.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys

from . import BENCH, OUT, pinned_env


def import_program():
    """Import the llcent modules the workloads drive (part of set-up time)."""
    import llcent.cli  # noqa: F401  (pulls in every layer)
    import llcent.generators  # noqa: F401


def _fp_entropy(r) -> str:
    return f"{r.value}|{r.status.value}|{','.join(str(c) for c in r.certificate)}"


def _fp_report(rep) -> str:
    sides = ";".join(f"{label}={_fp_entropy(r)}" for label, r in sorted(rep.sides.items()))
    return f"{rep.name}|{rep.verdict.value}|{sides}"


class Workload:
    name = ""
    size = 0  # catalog ids 0..size-1
    tasks = ("solve",)  # solves per catalog id
    trace_per_second = 0.0  # catalog units a traced run covers per --seconds
    cli = False  # solves run in child processes

    def unit(self, seed: int, j: int):
        """The j-th (id, task) pair of a run: contiguous from the seed, cyclic."""
        t = len(self.tasks)
        return (seed + j // t) % self.size, self.tasks[j % t]

    def build(self, i: int):
        raise NotImplementedError

    def solve(self, task: str, inst) -> str:
        raise NotImplementedError


class EndoFields(Workload):
    """total_entropy, trajectory engine, on random_endomorphism (no inverse).

    Each catalog id gives one instance per field shape, built from
    random.Random(id): GF(2) d=4 width 3 (the field kernels dominate),
    GF(2^31-1) d=4 width 2 (int64 products chunked in a Python loop) and
    Q d=2 width 1 (Fraction object arrays).
    """

    name = "endo_fields"
    size = 3
    tasks = ("gf2", "p31", "qq")
    trace_per_second = 0.35
    SHAPES = {"gf2": ("GF(2)", 4, 3), "p31": (f"GF({2**31 - 1})", 4, 2), "qq": ("Q", 2, 1)}

    def build(self, i):
        from llcent.fields import field_from_name
        from llcent.generators import random_endomorphism
        from llcent.spaces import Profile

        ops = {}
        for task, (field_name, d, width) in self.SHAPES.items():
            profile = Profile.constant(field_from_name(field_name), d)
            ops[task] = random_endomorphism(random.Random(i), profile, width=width)
        return ops

    def solve(self, task, ops):
        from llcent.entropy import total_entropy

        return _fp_entropy(total_entropy(ops[task]))


class AutomorphismLaws(Workload):
    """The Tier-1 campaign loop: log law and conjugation on random automorphisms."""

    name = "automorphism_laws"
    size = 60
    tasks = ("log_law", "conjugation")
    trace_per_second = 4.0

    def build(self, i):
        from llcent.fields import PrimeField
        from llcent.generators import levelwise_change_of_basis, random_automorphism
        from llcent.spaces import Profile

        rng = random.Random(i)
        field = rng.choice([PrimeField(2), PrimeField(3)])
        profile = Profile.constant(field, rng.choice([1, 2]))
        op, inv = random_automorphism(rng, profile)
        k = rng.randint(0, 3)
        alpha, alpha_inv = levelwise_change_of_basis(rng, profile)
        return op, inv, k, alpha, alpha_inv

    def solve(self, task, inst):
        from llcent.entropy import EntropyConfig
        from llcent.theorems import check_property

        op, inv, k, alpha, alpha_inv = inst
        if task == "log_law":
            rep = check_property("log_law", EntropyConfig(), op=op, k=k, inverse=inv)
        else:
            rep = check_property(
                "conjugation", EntropyConfig(), op=op,
                conjugator=alpha, conjugator_inverse=alpha_inv, inverse=inv,
            )
        return _fp_report(rep)


# CLI catalog: kind of spec file by id modulo len(_CLI_KINDS).
_CLI_KINDS = (
    "entropy", "compare-engines", "relative-entropy", "check-log-law",
    "malformed", "strict-lower-bound", "check-conjugation", "entropy-endo-text",
)
_MALFORMED = ("unknown-key", "bad-field", "truncated", "missing-inverse")


class CliSpecs(Workload):
    """Sequential `python -m llcent.cli` processes on generated spec files."""

    name = "cli_specs"
    size = 32
    tasks = ("cli",)
    trace_per_second = 1.4
    cli = True

    def build(self, i):
        """Write spec file i under bench/out/specs and return the CLI arguments."""
        from llcent.entropy import EntropyConfig
        from llcent.fields import PrimeField
        from llcent.generators import (
            levelwise_change_of_basis,
            random_automorphism,
            random_endomorphism,
        )
        from llcent.operators import make_shift
        from llcent.spaces import Profile, cofinal_chain
        from llcent.specfile import SpecFile, serialize_spec

        rng = random.Random(i)
        kind = _CLI_KINDS[i % len(_CLI_KINDS)]
        field = PrimeField(rng.choice([2, 3]))
        profile = Profile.constant(field, 1)
        op, inv = random_automorphism(rng, profile, max_width=1)
        spec = SpecFile(field=field, profile=profile, operator=op, inverse=inv)
        args = []
        if kind == "entropy":
            args = ["entropy"]
        elif kind == "compare-engines":
            args = ["compare-engines"]
        elif kind == "relative-entropy":
            spec.subspace = cofinal_chain(profile, rng.randint(0, 2))
            args = ["relative-entropy", "--format", "text"]
        elif kind == "check-log-law":
            spec.k = rng.randint(1, 2)
            args = ["check", "log_law"]
        elif kind == "check-conjugation":
            spec.conjugator, spec.conjugator_inverse = levelwise_change_of_basis(rng, profile)
            args = ["check", "conjugation"]
        elif kind == "entropy-endo-text":
            spec = SpecFile(field=field, profile=profile, operator=random_endomorphism(rng, profile, width=1))
            args = ["entropy", "--format", "text"]
        elif kind == "strict-lower-bound":
            # the step cap is hit before the shift's plateau: LowerBound, exit 3
            shift_profile = Profile.constant(field, rng.choice([1, 2]))
            spec = SpecFile(
                field=field, profile=shift_profile,
                operator=make_shift(shift_profile, "right"), operator_name="right_shift",
                subspace=cofinal_chain(shift_profile, 1),
                config=EntropyConfig(max_trajectory_steps=2),
            )
            args = ["relative-entropy", "--strict"]
        text = serialize_spec(spec)
        if kind == "malformed":
            how = _MALFORMED[rng.randrange(len(_MALFORMED))]
            args = ["entropy"]
            if how == "unknown-key":
                text = text.replace('"operator":', '"operater":', 1)
            elif how == "bad-field":
                text = text.replace(f'"field":"{field.name}"', '"field":"GF(4)"', 1)
            elif how == "truncated":
                text = text[: len(text) // 2]
            else:
                spec.inverse = None
                text = serialize_spec(spec)
                args = ["compare-engines"]
        specs = os.path.join(OUT, "specs")
        os.makedirs(specs, exist_ok=True)
        path = os.path.join(specs, f"{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return args + [path]

    def solve(self, task, argv, dump_path=None):
        """Run one CLI process; with dump_path, run it under the tracing shim."""
        if dump_path is None:
            cmd = [sys.executable, "-m", "llcent.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(BENCH, "cli_traced.py"), dump_path, *argv]
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=pinned_env(), timeout=120, check=False,
        )
        return f"exit={proc.returncode}|stdout={hashlib.sha256(proc.stdout).hexdigest()[:16]}"


WORKLOADS = {
    w.name: w
    for w in (
        EndoFields(),
        AutomorphismLaws(),
        CliSpecs(),
    )
}
