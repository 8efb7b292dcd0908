"""Declarative spec files: parsing, validation and canonical serialization.

A spec file is a single JSON document describing a field, a dimension
profile, an operator (by name or by explicit blocks) and optional
companions (inverse, subspace, pattern, second system, config).  Unknown
keys are rejected with their JSON path; structural problems surface as
ParseError, model-level problems as ValidationError.  Serialization is
canonical: re-serializing a parsed file is byte-stable.

Sizes are bounded (see the MAX_* limits below): a few bytes of JSON name
sizes that the engines allocate and iterate over, so a spec outside the
limits is a ParseError rather than a request for terabytes of memory.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidOperator, ParseError, ValidationError
from .fields import PrimeField, field_from_name
from .linalg import SubspaceBasis
from .operators import BandedOperator, identity_operator, make_shift
from .spaces import BlockwisePattern, CompactOpenSubspace, LlcVector, Profile, cofinal_chain
from .entropy import DEFAULT_CONFIG, EntropyConfig

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version", "field", "profile", "operator", "inverse", "subspace",
    "pattern", "chain", "second", "k", "conjugator", "conjugator_inverse", "config",
}

# Size limits.  An operator stores a d x d block per shift in [-w, w], and
# the engines hold rows over windows of levels times d coordinates that
# grow by w levels per step, so each limit caps one factor of what a spec
# can ask for.  They do not bound run time, which grows with the caps.
MAX_LEVEL_DIM = 32  # the dimension of any level of a profile
MAX_WIDTH = 8  # the band width of an operator
MAX_LEVEL = 64  # |level| of every level a spec names: profile, boundary columns, vectors, patterns
MAX_DEPTH = 64  # a subspace's chain_index and -tail_cut
MAX_POWER = 16  # k, the power of log_law and of the shift closed form
MAX_TRAJECTORY_STEPS = 1024  # config max_trajectory_steps, and plateau_streak
MAX_CHAIN_INDEX = 64  # config max_chain_index
# Q scalars: digits of the numerator or denominator that Fraction builds
# from a string, its 10**exp included; Python's own int-string limit.
MAX_SCALAR_DIGITS = 4300
MAX_ECHO = 40  # characters of an offending value an error message repeats


@dataclass
class SpecFile:
    field: object
    profile: Profile
    operator: BandedOperator
    operator_name: str = None
    inverse: BandedOperator = None
    inverse_name: str = None
    subspace: CompactOpenSubspace = None
    pattern: BlockwisePattern = None
    chain: list = None
    second: "SpecFile" = None
    k: int = None
    conjugator: BandedOperator = None
    conjugator_inverse: BandedOperator = None
    config: EntropyConfig = DEFAULT_CONFIG

    def __eq__(self, other):
        return isinstance(other, SpecFile) and to_canonical_dict(self) == to_canonical_dict(other)


def _bounded(value, lo: int, hi: int, what: str, path: str) -> int:
    """value as an integer in [lo, hi]; ParseError otherwise."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer", path)
    if not lo <= value <= hi:
        raise ParseError(f"{what} {value} outside [{lo}, {hi}]", path)
    return value


def _reject_unknown(obj: dict, allowed, path: str):
    for key in obj:
        if key not in allowed:
            raise ParseError(f"unknown key {key!r}", f"{path}.{key}")


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ParseError(f"missing required key {key!r}", path)
    return obj[key]


# a superset of the string grammar of Fraction
_RATIONAL = re.compile(
    r"\s*[-+]?(?P<num>[\d_]*)"
    r"(?:\s*/\s*(?P<denom>[\d_]+)|(?:\.(?P<decimal>[\d_]*))?(?:[eE](?P<exp>[-+]?[\d_]+))?)\s*"
)


def _rational_digits(text: str) -> int:
    """The most digits of a numerator or denominator Fraction(text) builds.

    "m.dEe" is read as int(m d) * 10**e / 10**len(d), so the power of ten
    counts even when the mantissa is 0.  Text outside the grammar counts
    0, and Fraction rejects it.
    """
    m = _RATIONAL.fullmatch(text)
    if m is None:
        return 0
    num, denom, decimal, exp = ((part or "").replace("_", "") for part in m.group("num", "denom", "decimal", "exp"))
    if denom:
        return max(len(num), len(denom))
    e = int(exp or 0)
    return max(len(num) + len(decimal) + max(e, 0), len(decimal) + max(-e, 0) + 1)


def _scalar_from_json(field, v, path):
    try:
        if isinstance(field, PrimeField):
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError
            return field.coerce(v)
        if isinstance(v, bool) or isinstance(v, float):
            raise TypeError
        if isinstance(v, str) and _rational_digits(v) > MAX_SCALAR_DIGITS:
            raise ParseError(
                f"scalar with more than {MAX_SCALAR_DIGITS} digits in its numerator or denominator", path
            )
        return field.coerce(v)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ParseError(f"bad scalar {_echo(v)} for {field.name}", path) from None


def _echo(v) -> str:
    """repr(v) for an error message, cut to MAX_ECHO characters with its length added."""
    text = repr(v)
    return text if len(text) <= MAX_ECHO else f"{text[:MAX_ECHO]}... ({len(text)} characters)"


def _scalar_to_json(field, v):
    if isinstance(field, PrimeField):
        return int(v)
    frac = Fraction(v)
    return int(frac) if frac.denominator == 1 else str(frac)


def _matrix_from_json(field, rows, path):
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ParseError("matrix must be a list of rows", path)
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("matrix rows must all have the same length", path)
    return [[_scalar_from_json(field, v, f"{path}[{i}][{j}]") for j, v in enumerate(row)] for i, row in enumerate(rows)]


def _profile_from_json(field, obj, path):
    if not isinstance(obj, dict):
        raise ParseError("profile must be an object", path)
    if "constant" in obj:
        _reject_unknown(obj, {"constant"}, path)
        d = _bounded(obj["constant"], 0, MAX_LEVEL_DIM, "constant profile dimension", f"{path}.constant")
        return Profile.constant(field, d)
    _reject_unknown(obj, {"d_left", "boundary", "d_right", "n_lo", "n_hi"}, path)

    def get(key, lo, hi):
        return _bounded(_require(obj, key, path), lo, hi, key, f"{path}.{key}")

    boundary = _require(obj, "boundary", path)
    if not isinstance(boundary, list):
        raise ParseError("boundary must be a list of dimensions", f"{path}.boundary")
    for i, d in enumerate(boundary):
        _bounded(d, 0, MAX_LEVEL_DIM, "level dimension", f"{path}.boundary[{i}]")
    try:
        return Profile(
            field,
            get("d_left", 0, MAX_LEVEL_DIM),
            tuple(boundary),
            get("d_right", 0, MAX_LEVEL_DIM),
            get("n_lo", -MAX_LEVEL, MAX_LEVEL),
            get("n_hi", -MAX_LEVEL, MAX_LEVEL),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad profile: {exc}", path) from None


def _profile_to_json(profile: Profile):
    if profile.is_constant() and profile.n_lo == 0 and profile.n_hi == 0:
        return {"constant": profile.d_left}
    return {
        "d_left": profile.d_left,
        "boundary": list(profile.boundary),
        "d_right": profile.d_right,
        "n_lo": profile.n_lo,
        "n_hi": profile.n_hi,
    }


def _vector_from_json(profile, triples, path):
    if not isinstance(triples, list):
        raise ParseError("vector must be a list of [level, slot, value] triples", path)
    support = {}
    for t, triple in enumerate(triples):
        if not isinstance(triple, list) or len(triple) != 3:
            raise ParseError("vector entry must be [level, slot, value]", f"{path}[{t}]")
        level, slot, value = triple
        if not isinstance(level, int) or not isinstance(slot, int):
            raise ParseError("level and slot must be integers", f"{path}[{t}]")
        _bounded(level, -MAX_LEVEL, MAX_LEVEL, "level", f"{path}[{t}]")
        support[(level, slot)] = _scalar_from_json(profile.field, value, f"{path}[{t}]")
    try:
        return LlcVector(profile, support)
    except ValueError as exc:
        raise ValidationError([f"{path}: {exc}"]) from None


def _vector_to_json(vec: LlcVector):
    f = vec.profile.field
    return [[n, i, _scalar_to_json(f, vec.support[(n, i)])] for (n, i) in sorted(vec.support)]


def _int_keyed(obj, path, bound=None):
    """The dict with integer keys; with a bound, every key must lie in [-bound, bound]."""
    if not isinstance(obj, dict):
        raise ParseError("must be an object keyed by integer levels", path)
    out = {}
    for key, value in obj.items():
        try:
            out[int(key)] = value
        except ValueError:
            raise ParseError(f"key {key!r} is not an integer level", path) from None
        if bound is not None:
            _bounded(int(key), -bound, bound, "level", f"{path}.{key}")
    return out


def _operator_from_json(profile, obj, path, label):
    """(operator, name) from a spec value; ParseError for a malformed value,
    ValidationError with every violation prefixed by `label` for an operator
    that breaks the banded contract."""
    if isinstance(obj, str):
        if obj == "identity":
            return identity_operator(profile), obj
        if obj in ("right_shift", "left_shift"):
            return make_shift(profile, obj.split("_")[0]), obj
        raise ParseError(f"unknown named operator {obj!r}", path)
    if not isinstance(obj, dict):
        raise ParseError("operator must be a name or an object", path)
    _reject_unknown(obj, {"width", "left_blocks", "right_blocks", "boundary_columns"}, path)
    width = _bounded(_require(obj, "width", path), 0, MAX_WIDTH, "width", f"{path}.width")
    f = profile.field

    def blocks(key):
        raw = obj.get(key, {})
        if not isinstance(raw, dict):
            raise ParseError(f"{key} must map shift offsets to matrices", f"{path}.{key}")
        return {
            j: f.array(_matrix_from_json(f, rows, f"{path}.{key}.{j}"))
            for j, rows in _int_keyed(raw, f"{path}.{key}").items()
        }

    raw_cols = obj.get("boundary_columns", {})
    if not isinstance(raw_cols, dict):
        raise ParseError("boundary_columns must map levels to column lists", f"{path}.boundary_columns")
    columns = {}
    for n, cols in _int_keyed(raw_cols, f"{path}.boundary_columns", MAX_LEVEL).items():
        if not isinstance(cols, list):
            raise ParseError("boundary columns must be a list per level", f"{path}.boundary_columns.{n}")
        columns[n] = [
            _vector_from_json(profile, col, f"{path}.boundary_columns.{n}[{i}]")
            for i, col in enumerate(cols)
        ]
    try:
        return BandedOperator(profile, width, blocks("left_blocks"), blocks("right_blocks"), columns), None
    except InvalidOperator as exc:
        raise ValidationError([f"{label}: {v}" for v in exc.violations]) from None


def _operator_to_json(op: BandedOperator, name):
    if name is not None:
        return name
    f = op.profile.field

    def blocks(blocks_dict):
        out = {}
        for j, mat in sorted(blocks_dict.items()):
            if mat.size and bool((mat != 0).any()):
                out[str(j)] = [[_scalar_to_json(f, v) for v in row] for row in mat]
        return out

    return {
        "width": op.width,
        "left_blocks": blocks(op.left_blocks),
        "right_blocks": blocks(op.right_blocks),
        "boundary_columns": {
            str(n): [_vector_to_json(col) for col in op.columns[n]]
            for n in range(op.b_lo, op.b_hi + 1)
        },
    }


def _subspace_from_json(profile, obj, path):
    if not isinstance(obj, dict):
        raise ParseError("subspace must be an object", path)
    if "chain_index" in obj:
        _reject_unknown(obj, {"chain_index"}, path)
        m = _bounded(obj["chain_index"], 0, MAX_DEPTH, "chain_index", f"{path}.chain_index")
        return cofinal_chain(profile, m)
    _reject_unknown(obj, {"tail_cut", "generators"}, path)
    tail = _bounded(_require(obj, "tail_cut", path), -MAX_DEPTH, 0, "tail_cut", f"{path}.tail_cut")
    raw = obj.get("generators", [])
    if not isinstance(raw, list):
        raise ParseError("generators must be a list of vectors", f"{path}.generators")
    gens = [_vector_from_json(profile, g, f"{path}.generators[{i}]") for i, g in enumerate(raw)]
    return CompactOpenSubspace.make(profile, tail, gens)


def subspace_to_json(w: CompactOpenSubspace):
    return {
        "tail_cut": w.tail,
        "generators": [_vector_to_json(v) for v in w.window_vectors()],
    }


def _pattern_from_json(profile, obj, path):
    if not isinstance(obj, dict):
        raise ParseError("pattern must be an object", path)
    f = profile.field
    if "first_slots" in obj:
        _reject_unknown(obj, {"first_slots"}, path)
        k = obj["first_slots"]
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise ParseError("first_slots must be a natural", f"{path}.first_slots")
        return BlockwisePattern.first_slots(profile, k)
    if "slots" in obj:
        _reject_unknown(obj, {"slots"}, path)
        slots = obj["slots"]
        if not isinstance(slots, list):
            raise ParseError("slots must be a list of slot indices", f"{path}.slots")
        for i, s in enumerate(slots):
            _bounded(s, 0, profile.d_left - 1, "slot", f"{path}.slots[{i}]")
        try:
            return BlockwisePattern.slot_subset(profile, slots)
        except ValueError as exc:
            raise ValidationError([f"{path}: {exc}"]) from None
    _reject_unknown(obj, {"left", "levels", "right"}, path)

    def basis(rows, d, where):
        return SubspaceBasis.span(f, _matrix_from_json(f, rows, where) or [], ambient_dim=d)

    left = basis(_require(obj, "left", path), profile.d_left, f"{path}.left")
    right = basis(_require(obj, "right", path), profile.d_right, f"{path}.right")
    levels = {
        n: basis(rows, profile.dim(n), f"{path}.levels.{n}")
        for n, rows in _int_keyed(obj.get("levels", {}), f"{path}.levels", MAX_LEVEL).items()
    }
    try:
        return BlockwisePattern.make(profile, left, levels, right)
    except ValueError as exc:
        raise ValidationError([f"{path}: {exc}"]) from None


def pattern_to_json(pat: BlockwisePattern):
    f = pat.profile.field

    def rows(basis):
        return [[_scalar_to_json(f, v) for v in row] for row in basis.mat]

    return {
        "left": rows(pat.left),
        "levels": {str(n): rows(pat.level_basis(n)) for n in range(pat.m_lo, pat.m_hi + 1)},
        "right": rows(pat.right),
    }


def _config_from_json(obj, path):
    if not isinstance(obj, dict):
        raise ParseError("config must be an object", path)
    _reject_unknown(obj, {"plateau_streak", "max_trajectory_steps", "max_chain_index", "strict"}, path)
    return bounded_config(
        path,
        plateau_streak=obj.get("plateau_streak", DEFAULT_CONFIG.plateau_streak),
        max_trajectory_steps=obj.get("max_trajectory_steps", DEFAULT_CONFIG.max_trajectory_steps),
        max_chain_index=obj.get("max_chain_index", DEFAULT_CONFIG.max_chain_index),
        strict=obj.get("strict", DEFAULT_CONFIG.strict),
    )


def bounded_config(path, plateau_streak, max_trajectory_steps, max_chain_index, strict) -> EntropyConfig:
    """EntropyConfig with its caps inside the limits and a boolean strict;
    ParseError at path otherwise."""
    if not isinstance(strict, bool):
        raise ParseError("strict must be true or false", path)
    return EntropyConfig(
        plateau_streak=_bounded(plateau_streak, 1, MAX_TRAJECTORY_STEPS, "plateau_streak", path),
        max_trajectory_steps=_bounded(max_trajectory_steps, 1, MAX_TRAJECTORY_STEPS, "max_trajectory_steps", path),
        max_chain_index=_bounded(max_chain_index, 0, MAX_CHAIN_INDEX, "max_chain_index", path),
        strict=strict,
    )


def _config_to_json(cfg: EntropyConfig):
    return {
        "plateau_streak": cfg.plateau_streak,
        "max_trajectory_steps": cfg.max_trajectory_steps,
        "max_chain_index": cfg.max_chain_index,
        "strict": cfg.strict,
    }


def parse_spec(text: str) -> SpecFile:
    """Parse and validate a spec file; raises ParseError or ValidationError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"line {exc.lineno}, column {exc.colno}") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply", "$") from None
    except ValueError:
        # json reads integers with int(), which refuses more digits than
        # Python's int-string limit
        raise ParseError("JSON integer with too many digits", "$") from None
    return spec_from_dict(doc)


def spec_from_dict(doc: dict, path: str = "$") -> SpecFile:
    if not isinstance(doc, dict):
        raise ParseError("spec file must be a JSON object", path)
    _reject_unknown(doc, _TOP_KEYS, path)
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version!r}", f"{path}.schema_version")
    name = _require(doc, "field", path)
    if not isinstance(name, str):
        raise ParseError(f"field must be a name like \"GF(2)\" or \"Q\", got {name!r}", f"{path}.field")
    try:
        field = field_from_name(name)
    except ValueError as exc:
        raise ParseError(str(exc), f"{path}.field") from None
    profile = _profile_from_json(field, _require(doc, "profile", path), f"{path}.profile")
    operator, op_name = _operator_from_json(profile, _require(doc, "operator", path), f"{path}.operator", "operator")
    spec = SpecFile(field=field, profile=profile, operator=operator, operator_name=op_name)
    if "inverse" in doc:
        spec.inverse, spec.inverse_name = _operator_from_json(profile, doc["inverse"], f"{path}.inverse", "inverse")
    if "subspace" in doc:
        spec.subspace = _subspace_from_json(profile, doc["subspace"], f"{path}.subspace")
    if "pattern" in doc:
        spec.pattern = _pattern_from_json(profile, doc["pattern"], f"{path}.pattern")
    if "chain" in doc:
        if not isinstance(doc["chain"], list):
            raise ParseError("chain must be a list of patterns", f"{path}.chain")
        spec.chain = [
            _pattern_from_json(profile, p, f"{path}.chain[{i}]") for i, p in enumerate(doc["chain"])
        ]
    if "second" in doc:
        inner = doc["second"]
        if not isinstance(inner, dict):
            raise ParseError("second must be an object", f"{path}.second")
        _reject_unknown(inner, {"profile", "operator", "inverse"}, f"{path}.second")
        second_profile = _profile_from_json(field, _require(inner, "profile", f"{path}.second"), f"{path}.second.profile")
        second_op, second_name = _operator_from_json(
            second_profile, _require(inner, "operator", f"{path}.second"), f"{path}.second.operator", "second operator"
        )
        spec.second = SpecFile(field=field, profile=second_profile, operator=second_op, operator_name=second_name)
        if "inverse" in inner:
            spec.second.inverse, spec.second.inverse_name = _operator_from_json(
                second_profile, inner["inverse"], f"{path}.second.inverse", "second inverse"
            )
    if "k" in doc:
        spec.k = _bounded(doc["k"], 0, MAX_POWER, "k", f"{path}.k")
    if "conjugator" in doc:
        spec.conjugator, _ = _operator_from_json(profile, doc["conjugator"], f"{path}.conjugator", "conjugator")
    if "conjugator_inverse" in doc:
        spec.conjugator_inverse, _ = _operator_from_json(
            profile, doc["conjugator_inverse"], f"{path}.conjugator_inverse", "conjugator inverse"
        )
    if "config" in doc:
        spec.config = _config_from_json(doc["config"], f"{path}.config")
    return spec


def to_canonical_dict(spec: SpecFile) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "field": spec.field.name,
        "profile": _profile_to_json(spec.profile),
        "operator": _operator_to_json(spec.operator, spec.operator_name),
        "config": _config_to_json(spec.config),
    }
    if spec.inverse is not None:
        doc["inverse"] = _operator_to_json(spec.inverse, spec.inverse_name)
    if spec.subspace is not None:
        doc["subspace"] = subspace_to_json(spec.subspace)
    if spec.pattern is not None:
        doc["pattern"] = pattern_to_json(spec.pattern)
    if spec.chain is not None:
        doc["chain"] = [pattern_to_json(p) for p in spec.chain]
    if spec.second is not None:
        inner = {
            "profile": _profile_to_json(spec.second.profile),
            "operator": _operator_to_json(spec.second.operator, spec.second.operator_name),
        }
        if spec.second.inverse is not None:
            inner["inverse"] = _operator_to_json(spec.second.inverse, spec.second.inverse_name)
        doc["second"] = inner
    if spec.k is not None:
        doc["k"] = spec.k
    if spec.conjugator is not None:
        doc["conjugator"] = _operator_to_json(spec.conjugator, None)
    if spec.conjugator_inverse is not None:
        doc["conjugator_inverse"] = _operator_to_json(spec.conjugator_inverse, None)
    return doc


def serialize_spec(spec: SpecFile) -> str:
    """Canonical text form: sorted keys, stable separators."""
    return json.dumps(to_canonical_dict(spec), sort_keys=True, separators=(",", ":"))
