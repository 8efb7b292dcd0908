"""Command dispatch and deterministic reports.

Exit codes: 0 success/Verified, 1 Violated, 2 parse or validation error,
3 LowerBound/Inconclusive under --strict, 4 engine disagreement, 5 internal
error (a defect in the program, such as a broken engine invariant, reported
as one line on stderr instead of a traceback).
Reports go to stdout (canonical JSON or stable text), diagnostics to
stderr; identical inputs, flags and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import __version__
from .entropy import (
    ENGINES,
    EntropyConfig,
    EntropyResult,
    Status,
    choose_engine,
    h_alg_value,
    relative_entropies,
    shift_closed_form,
    total_entropy,
)
from .errors import EngineDisagreement, LlcentError, ValidationError
from .fields import PrimeField
from .spaces import cofinal_chain
from .specfile import SpecFile, bounded_config, parse_spec, subspace_to_json, to_canonical_dict
from .theorems import Verdict, check_addition, check_property

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_SPEC_ERROR = 2
EXIT_LOWER_BOUND = 3
EXIT_DISAGREEMENT = 4
EXIT_INTERNAL = 5

COMMANDS = ("entropy", "relative-entropy", "check", "shift-closed-form", "compare-engines")
PROPERTIES = (
    "addition", "log_law", "conjugation", "weak_addition",
    "monotonicity", "dd_reduction", "direct_limit",
)


@dataclass
class Flags:
    engine: str = None
    max_iter: int = None
    streak: int = None
    chain_max: int = None
    strict: bool = None
    seed: int = 0
    fmt: str = "json"
    prop: str = None


def _effective_config(spec: SpecFile, flags: Flags) -> EntropyConfig:
    base = spec.config
    return bounded_config(
        "the command line",
        plateau_streak=flags.streak if flags.streak is not None else base.plateau_streak,
        max_trajectory_steps=flags.max_iter if flags.max_iter is not None else base.max_trajectory_steps,
        max_chain_index=flags.chain_max if flags.chain_max is not None else base.max_chain_index,
        strict=flags.strict if flags.strict is not None else base.strict,
    )


def _entropy_json(r: EntropyResult, field) -> dict:
    out = {
        "value": r.value,
        "status": r.status.value,
        "certificate": list(r.certificate),
        "iterations": r.iterations,
    }
    if r.witness is not None:
        out["witness_subspace"] = subspace_to_json(r.witness)
    if isinstance(field, PrimeField):
        unit = h_alg_value(r, field)
        out["h_alg"] = {
            "ent": unit.ent,
            "log_factor": f"log({unit.p})",
            "decimal": unit.decimal,
        }
    return out


def _report_json(rep) -> dict:
    return {
        "property": rep.name,
        "inputs": rep.inputs,
        "verdict": rep.verdict.value,
        "witness": rep.witness,
        "sides": {
            label: {"value": r.value, "status": r.status.value, "certificate": list(r.certificate)}
            for label, r in sorted(rep.sides.items())
        },
    }


def run_command(command: str, spec: SpecFile, flags: Flags):
    """Execute one CLI command; returns (report dict, exit code)."""
    cfg = _effective_config(spec, flags)
    report = {
        "schema_version": 1,
        "tool": {"name": "llcent", "version": __version__},
        "command": command,
        "seed": flags.seed,
        "spec": to_canonical_dict(spec),
        "results": {},
    }
    code = EXIT_OK
    seen: list = []

    try:
        if command == "entropy":
            engine = choose_engine(flags.engine, spec.inverse)
            report["engine"] = engine
            r = total_entropy(spec.operator, cfg, spec.inverse, engine=engine)
            seen.append(r)
            report["results"]["entropy"] = _entropy_json(r, spec.field)

        elif command == "relative-entropy":
            if spec.subspace is None:
                raise ValidationError(["relative-entropy needs a subspace in the spec file"])
            engine = choose_engine(flags.engine, spec.inverse)
            report["engine"] = engine
            for name, r in relative_entropies(spec.operator, spec.subspace, cfg, spec.inverse, engine).items():
                seen.append(r)
                report["results"][name] = _entropy_json(r, spec.field)

        elif command == "compare-engines":
            subspaces = (
                [("subspace", spec.subspace)]
                if spec.subspace is not None
                else [
                    (f"chain_{m}", cofinal_chain(spec.profile, m))
                    for m in range(min(4, cfg.max_chain_index) + 1)
                ]
            )
            pairs = {}
            for label, u in subspaces:
                runs = relative_entropies(spec.operator, u, cfg, spec.inverse, "both")
                seen.extend(runs.values())
                # relative_entropies raises on a disagreement, so every emitted pair agrees
                pairs[label] = {name: _entropy_json(r, spec.field) for name, r in runs.items()}
                pairs[label]["agree"] = True
            report["results"]["comparisons"] = pairs

        elif command == "shift-closed-form":
            if spec.operator_name not in ("right_shift", "left_shift"):
                raise ValidationError(["shift-closed-form needs a named shift operator"])
            k = spec.k if spec.k is not None else 1
            direction = spec.operator_name.split("_")[0]
            value = shift_closed_form(spec.profile, direction, k)
            report["results"]["closed_form"] = {
                "direction": direction,
                "k": k,
                "value": value,
                "status": Status.EXACT.value,
            }

        elif command == "check":
            rep = _dispatch_check(spec, flags, cfg)
            report["results"]["check"] = _report_json(rep)
            seen.extend(rep.sides.values())
            if rep.verdict is Verdict.VIOLATED:
                code = EXIT_VIOLATED
            elif rep.verdict is Verdict.INCONCLUSIVE and cfg.strict:
                code = EXIT_LOWER_BOUND

        else:
            raise ValidationError([f"unknown command {command!r}"])

    except EngineDisagreement as exc:
        report["results"]["error"] = {"kind": "EngineDisagreement", "message": str(exc)}
        return report, EXIT_DISAGREEMENT

    if code == EXIT_OK and cfg.strict and any(not r.reliable() for r in seen):
        code = EXIT_LOWER_BOUND
    return report, code


def _dispatch_check(spec: SpecFile, flags: Flags, cfg: EntropyConfig):
    prop = flags.prop
    if prop is None:
        raise ValidationError(["check needs a property name"])
    if prop == "addition":
        if spec.pattern is None:
            raise ValidationError(["check addition needs a pattern in the spec file"])
        return check_addition(spec.operator, spec.pattern, cfg, spec.inverse)
    if prop == "log_law":
        if spec.k is None:
            raise ValidationError(["check log_law needs k in the spec file"])
        return check_property("log_law", cfg, op=spec.operator, k=spec.k, inverse=spec.inverse)
    if prop == "conjugation":
        if spec.conjugator is None or spec.conjugator_inverse is None:
            raise ValidationError(["check conjugation needs conjugator and conjugator_inverse"])
        return check_property(
            "conjugation", cfg, op=spec.operator,
            conjugator=spec.conjugator, conjugator_inverse=spec.conjugator_inverse,
            inverse=spec.inverse,
        )
    if prop == "weak_addition":
        if spec.second is None:
            raise ValidationError(["check weak_addition needs a second system"])
        return check_property(
            "weak_addition", cfg, op1=spec.operator, op2=spec.second.operator,
            inverse1=spec.inverse, inverse2=spec.second.inverse,
        )
    if prop == "monotonicity":
        if spec.pattern is None:
            raise ValidationError(["check monotonicity needs a pattern in the spec file"])
        return check_property("monotonicity", cfg, op=spec.operator, pattern=spec.pattern, inverse=spec.inverse)
    if prop == "dd_reduction":
        return check_property("dd_reduction", cfg, op=spec.operator, inverse=spec.inverse)
    if prop == "direct_limit":
        if not spec.chain:
            raise ValidationError(["check direct_limit needs a chain of patterns"])
        return check_property("direct_limit", cfg, op=spec.operator, chain=spec.chain, inverse=spec.inverse)
    raise ValidationError([f"unknown property {prop!r}"])


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = [f"llcent {report['tool']['version']} :: {report['command']} (seed {report['seed']})"]
    _flatten("", report["results"], lines)
    return "\n".join(lines) + "\n"


def _flatten(prefix, obj, lines):
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}{key}.", obj[key], lines)
    elif isinstance(obj, list):
        if all(not isinstance(x, (dict, list)) for x in obj):
            lines.append(f"{prefix[:-1]}: {' '.join(str(x) for x in obj)}")
        else:
            for i, x in enumerate(obj):
                _flatten(f"{prefix}{i}.", x, lines)
    else:
        lines.append(f"{prefix[:-1]}: {obj}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llcent",
        description="Exact algebraic entropy of banded endomorphisms of locally linearly compact spaces",
    )
    parser.add_argument("--version", action="version", version=f"llcent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "check":
            p.add_argument("property", choices=PROPERTIES)
        p.add_argument("specfile")
        p.add_argument("--engine", choices=ENGINES)
        p.add_argument("--max-iter", type=int)
        p.add_argument("--streak", type=int)
        p.add_argument("--chain-max", type=int)
        p.add_argument("--strict", action="store_true", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = Flags(
        engine=args.engine,
        max_iter=args.max_iter,
        streak=args.streak,
        chain_max=args.chain_max,
        strict=args.strict,
        seed=args.seed,
        fmt=args.fmt,
        prop=getattr(args, "property", None),
    )
    try:
        with open(args.specfile, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except UnicodeDecodeError as exc:
        print(f"error: {args.specfile} is not UTF-8 text: {exc.reason} at byte {exc.start}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    try:
        spec = parse_spec(text)
        report, code = run_command(args.command, spec, flags)
        rendered = render_report(report, flags.fmt)
    except LlcentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except Exception as exc:  # any other exception is a defect in the program
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
