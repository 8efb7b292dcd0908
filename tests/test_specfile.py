"""Spec-file parsing, validation diagnostics and canonical round-trips."""

import json
import random
from fractions import Fraction

import pytest

from llcent.entropy import EntropyConfig
from llcent.errors import ParseError, ValidationError
from llcent.fields import PrimeField, QQ
from llcent.generators import random_automorphism, random_endomorphism, random_open_subspace
from llcent.specfile import (
    MAX_CHAIN_INDEX,
    MAX_DEPTH,
    MAX_LEVEL,
    MAX_LEVEL_DIM,
    MAX_POWER,
    MAX_SCALAR_DIGITS,
    MAX_TRAJECTORY_STEPS,
    MAX_WIDTH,
    SpecFile,
    _TOP_KEYS,
    parse_spec,
    serialize_spec,
    spec_from_dict,
    to_canonical_dict,
)
from llcent.spaces import BlockwisePattern, Profile, cofinal_chain


BASIC = '{"field":"GF(2)","profile":{"constant":1},"operator":"right_shift"}'


def test_parse_named_operator():
    spec = parse_spec(BASIC)
    assert spec.field == PrimeField(2)
    assert spec.profile == Profile.constant(PrimeField(2), 1)
    assert spec.operator_name == "right_shift"


def test_unknown_key_named_in_error():
    with pytest.raises(ParseError, match="operater"):
        parse_spec('{"field":"GF(2)","profile":{"constant":1},"operater":"right_shift"}')


def test_block_dimension_mismatch_rejected():
    doc = {
        "field": "GF(2)",
        "profile": {"constant": 1},
        "operator": {
            "width": 0,
            "left_blocks": {"0": [[1, 0], [0, 1]]},
            "right_blocks": {"0": [[1]]},
            "boundary_columns": {"0": [[[0, 0, 1]]]},
        },
    }
    with pytest.raises(ValidationError, match="shape"):
        spec_from_dict(doc)


def test_parsed_operators_are_validated_once(monkeypatch):
    import llcent.operators as operators_module
    from llcent.entropy import total_entropy

    field = PrimeField(3)
    profile = Profile.constant(field, 1)
    op, inv = random_automorphism(random.Random(4), profile)
    text = serialize_spec(SpecFile(field=field, profile=profile, operator=op, inverse=inv))
    calls = []
    real = operators_module.validate
    monkeypatch.setattr(operators_module, "validate", lambda op: calls.append(op) or real(op))
    spec = parse_spec(text)
    assert len(calls) == 2 and calls[0] is spec.operator and calls[1] is spec.inverse
    # the engines reuse the parser's verdict
    total_entropy(spec.operator, inverse=spec.inverse)
    assert len(calls) == 2


@pytest.mark.parametrize("field", [{"p": 2}, 2, None, ["Q"]])
def test_non_string_field_is_a_parse_error(field):
    doc = json.loads(BASIC)
    doc["field"] = field
    with pytest.raises(ParseError, match="field must be a name") as exc:
        spec_from_dict(doc)
    assert exc.value.position == "$.field"


def test_ragged_matrix_rows_are_a_parse_error():
    doc = json.loads(BASIC)
    doc["operator"] = {"width": 0, "left_blocks": {"0": [[1], [1, 0]]}, "right_blocks": {"0": [[1]]}}
    with pytest.raises(ParseError, match="same length"):
        spec_from_dict(doc)
    doc = json.loads(BASIC)
    doc["pattern"] = {"left": [[1], [0, 1]], "right": [[1]]}
    with pytest.raises(ParseError, match="same length"):
        spec_from_dict(doc)


def test_json_error_has_position():
    with pytest.raises(ParseError, match="line"):
        parse_spec('{"field": }')


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match=r"nested too deeply at \$$"):
        parse_spec("[" * 100000 + "]" * 100000)


def test_bad_scalar_for_field():
    doc = json.loads(BASIC)
    doc["operator"] = {
        "width": 0,
        "left_blocks": {"0": [["1/2"]]},
        "right_blocks": {"0": [[1]]},
        "boundary_columns": {"0": [[[0, 0, 1]]]},
    }
    with pytest.raises(ParseError, match="scalar"):
        spec_from_dict(doc)


def test_rational_scalars_accepted():
    doc = {
        "field": "Q",
        "profile": {"constant": 1},
        "operator": {
            "width": 0,
            "left_blocks": {"0": [["1/2"]]},
            "right_blocks": {"0": [[2]]},
            "boundary_columns": {"0": [[[0, 0, "2/3"]]]},
        },
    }
    spec = spec_from_dict(doc)
    assert spec.field == QQ


def _q_spec(scalar):
    return {
        "field": "Q",
        "profile": {"constant": 1},
        "operator": {
            "width": 0,
            "left_blocks": {"0": [[scalar]]},
            "right_blocks": {"0": [[1]]},
            "boundary_columns": {"0": [[[0, 0, 1]]]},
        },
    }


def test_rational_scalar_with_zero_denominator_is_a_parse_error():
    with pytest.raises(ParseError, match=r"bad scalar '1/0' for Q at \$\.operator\.left_blocks\.0\[0\]\[0\]"):
        parse_spec(json.dumps(_q_spec("1/0")))


@pytest.mark.parametrize("scalar", ["1e999999999", "0e999999999", "1e-999999999", "2.5e4300", "1e4300"])
def test_rational_scalar_past_the_digit_limit_is_a_parse_error(scalar):
    # Fraction would build 10**exp first: 1e999999999 never finished
    with pytest.raises(ParseError, match=f"more than {MAX_SCALAR_DIGITS} digits"):
        parse_spec(json.dumps(_q_spec(scalar)))


def test_bad_scalar_message_echoes_a_bounded_prefix():
    # int() refuses the 5000-digit exponent; the message repeats 40
    # characters of the value and counts the rest
    scalar = "1e" + "9" * 5000
    with pytest.raises(ParseError) as err:
        parse_spec(json.dumps(_q_spec(scalar)))
    assert str(err.value) == (
        f"bad scalar {repr(scalar)[:40]}... (5004 characters) for Q at $.operator.left_blocks.0[0][0]"
    )


@pytest.mark.parametrize("scalar, value", [("1e4299", 10**4299), ("-1e-4299", Fraction(-1, 10**4299)), ("1.5e3", 1500)])
def test_rational_scalar_at_the_digit_limit_is_read(scalar, value):
    spec = parse_spec(json.dumps(_q_spec(scalar)))
    assert spec.operator.left_blocks[0][0, 0] == value


def test_json_integer_past_the_int_string_limit_is_a_parse_error():
    text = BASIC.replace('"right_shift"', '{"width":0,"left_blocks":{"0":[[' + "7" * 5000 + ']]},"right_blocks":{"0":[[1]]},"boundary_columns":{"0":[[[0,0,1]]]}}')
    with pytest.raises(ParseError, match=r"JSON integer with too many digits at \$$"):
        parse_spec(text)


def test_subspace_forms():
    doc = json.loads(BASIC)
    doc["subspace"] = {"chain_index": 2}
    spec = spec_from_dict(doc)
    assert spec.subspace == cofinal_chain(spec.profile, 2)
    doc["subspace"] = {"tail_cut": 0, "generators": [[[1, 0, 1], [2, 0, 1]]]}
    spec = spec_from_dict(doc)
    assert spec.subspace.top == 2


def test_round_trip_named():
    spec = parse_spec(BASIC)
    text = serialize_spec(spec)
    again = parse_spec(text)
    assert again == spec
    assert serialize_spec(again) == text


def _random_spec(seed):
    rng = random.Random(seed)
    field = rng.choice([PrimeField(2), PrimeField(3)])
    profile = Profile.constant(field, rng.choice([1, 2]))
    spec = SpecFile(field=field, profile=profile, operator=None)
    if rng.random() < 0.5:
        spec.operator, spec.inverse = random_automorphism(rng, profile)
    else:
        spec.operator = random_endomorphism(rng, profile, width=rng.randint(1, 2))
    if rng.random() < 0.5:
        spec.subspace = cofinal_chain(profile, rng.randint(0, 3))
    if rng.random() < 0.5:
        spec.k = rng.randint(0, 3)
    return spec


@pytest.mark.parametrize("seed", range(12))
def test_round_trip_generated_specs(seed):
    spec = _random_spec(seed)
    text = serialize_spec(spec)
    again = parse_spec(text)
    assert again == spec
    assert again.operator == spec.operator
    if spec.inverse is not None:
        assert again.inverse == spec.inverse
    if spec.subspace is not None:
        assert again.subspace == spec.subspace
    assert serialize_spec(again) == text


def test_round_trip_carries_every_key():
    # every top-level key the parser reads, over a non-constant profile,
    # with explicit operators in every operator slot
    rng = random.Random(5)
    field = PrimeField(3)
    profile = Profile.from_dims(field, {-1: 2, 0: 0, 1: 3}, 1, 2)
    second_profile = Profile.constant(field, 1)
    second = SpecFile(
        field=field, profile=second_profile,
        operator=random_endomorphism(rng, second_profile), inverse=random_endomorphism(rng, second_profile),
    )
    spec = SpecFile(
        field=field, profile=profile,
        operator=random_endomorphism(rng, profile), inverse=random_endomorphism(rng, profile, width=2),
        subspace=random_open_subspace(rng, profile), pattern=BlockwisePattern.first_slots(profile, 1),
        chain=[BlockwisePattern.first_slots(profile, 1), BlockwisePattern.full(profile)],
        second=second, k=3,
        conjugator=random_endomorphism(rng, profile), conjugator_inverse=random_endomorphism(rng, profile),
        config=EntropyConfig(plateau_streak=2, max_trajectory_steps=9, max_chain_index=5, strict=True),
    )
    text = serialize_spec(spec)
    doc = json.loads(text)
    assert doc.keys() == _TOP_KEYS and doc["second"].keys() == {"profile", "operator", "inverse"}
    assert doc["profile"] == {"d_left": 1, "boundary": [2, 0, 3], "d_right": 2, "n_lo": -1, "n_hi": 1}
    again = parse_spec(text)
    assert again == spec and serialize_spec(again) == text
    for key in ("operator", "inverse", "conjugator", "conjugator_inverse"):
        assert getattr(again, key) == getattr(spec, key)
    assert again.subspace == spec.subspace and again.config == spec.config


def test_unsupported_schema_version_is_a_parse_error():
    for version in (0, 2, "1", None):
        with pytest.raises(ParseError, match="unsupported schema_version") as exc:
            spec_from_dict({**json.loads(BASIC), "schema_version": version})
        assert exc.value.position == "$.schema_version"


def test_serialization_is_deterministic():
    spec_a = _random_spec(99)
    spec_b = _random_spec(99)
    assert serialize_spec(spec_a) == serialize_spec(spec_b)


def test_canonical_dict_sorted_and_stable():
    spec = parse_spec(BASIC)
    doc = to_canonical_dict(spec)
    assert doc["schema_version"] == 1
    dumped = json.dumps(doc, sort_keys=True)
    assert json.loads(dumped) == doc


def test_pattern_forms():
    doc = json.loads(BASIC)
    doc["profile"] = {"constant": 2}
    doc["pattern"] = {"first_slots": 1}
    spec = spec_from_dict(doc)
    assert spec.pattern.sub_profile().d_left == 1
    doc["pattern"] = {"slots": [1]}
    spec = spec_from_dict(doc)
    assert spec.pattern.sub_profile().d_left == 1
    doc["pattern"] = {"left": [[1, 0]], "levels": {"0": [[1, 0]]}, "right": [[1, 0]]}
    spec = spec_from_dict(doc)
    assert spec.pattern.sub_profile().d_left == 1
    text = serialize_spec(spec)
    assert parse_spec(text) == spec


def test_second_system_and_config():
    doc = json.loads(BASIC)
    doc["second"] = {"profile": {"constant": 1}, "operator": "left_shift"}
    doc["config"] = {"plateau_streak": 4, "strict": True}
    spec = spec_from_dict(doc)
    assert spec.second.operator_name == "left_shift"
    assert spec.config.plateau_streak == 4 and spec.config.strict
    with pytest.raises(ParseError, match="max_iter"):
        spec_from_dict({**json.loads(BASIC), "config": {"max_iter": 3}})


@pytest.mark.parametrize("strict", ["yes", [1], 1, 0, None, {}])
def test_strict_must_be_a_json_boolean(strict):
    with pytest.raises(ParseError, match="strict must be true or false") as exc:
        spec_from_dict({**json.loads(BASIC), "config": {"strict": strict}})
    assert exc.value.position == "$.config"


@pytest.mark.parametrize(
    "extra, position",
    [
        ({"subspace": {"tail_cut": 0, "generators": None}}, "$.subspace.generators"),
        ({"subspace": {"tail_cut": 0, "generators": 3}}, "$.subspace.generators"),
        ({"pattern": {"left": [[1]], "levels": None, "right": [[1]]}}, "$.pattern.levels"),
        ({"pattern": {"left": [[1]], "levels": [[1]], "right": [[1]]}}, "$.pattern.levels"),
    ],
)
def test_generators_and_levels_must_be_containers(extra, position):
    # these raised TypeError / AttributeError, an internal error at the CLI
    with pytest.raises(ParseError) as exc:
        spec_from_dict({**json.loads(BASIC), **extra})
    assert exc.value.position == position


# One spec per size limit, just past it, with the position its error names.
OVER_LIMITS = {
    "constant": ({"profile": {"constant": MAX_LEVEL_DIM + 1}}, "$.profile.constant"),
    "d_left": (
        {"profile": {"d_left": MAX_LEVEL_DIM + 1, "boundary": [1], "d_right": 1, "n_lo": 0, "n_hi": 0}},
        "$.profile.d_left",
    ),
    "boundary": (
        {"profile": {"d_left": 1, "boundary": [MAX_LEVEL_DIM + 1], "d_right": 1, "n_lo": 0, "n_hi": 0}},
        "$.profile.boundary[0]",
    ),
    "n_lo": (
        {"profile": {"d_left": 1, "boundary": [1], "d_right": 1, "n_lo": -MAX_LEVEL - 1, "n_hi": 0}},
        "$.profile.n_lo",
    ),
    "width": ({"operator": {"width": MAX_WIDTH + 1}}, "$.operator.width"),
    "boundary_columns": (
        {"operator": {"width": 0, "boundary_columns": {str(MAX_LEVEL + 1): [[]]}}},
        f"$.operator.boundary_columns.{MAX_LEVEL + 1}",
    ),
    "vector_level": (
        {"subspace": {"tail_cut": 0, "generators": [[[MAX_LEVEL + 1, 0, 1]]]}},
        "$.subspace.generators[0][0]",
    ),
    "pattern_level": (
        {"pattern": {"left": [[1]], "levels": {str(-MAX_LEVEL - 1): [[1]]}, "right": [[1]]}},
        f"$.pattern.levels.{-MAX_LEVEL - 1}",
    ),
    "chain_index": ({"subspace": {"chain_index": MAX_DEPTH + 1}}, "$.subspace.chain_index"),
    "tail_cut": ({"subspace": {"tail_cut": -MAX_DEPTH - 1}}, "$.subspace.tail_cut"),
    "k": ({"k": MAX_POWER + 1}, "$.k"),
    "max_trajectory_steps": ({"config": {"max_trajectory_steps": MAX_TRAJECTORY_STEPS + 1}}, "$.config"),
    "plateau_streak": ({"config": {"plateau_streak": MAX_TRAJECTORY_STEPS + 1}}, "$.config"),
    "max_chain_index": ({"config": {"max_chain_index": MAX_CHAIN_INDEX + 1}}, "$.config"),
}


@pytest.mark.parametrize("what", sorted(OVER_LIMITS))
def test_size_limits_are_parse_errors(what):
    extra, position = OVER_LIMITS[what]
    with pytest.raises(ParseError, match="outside") as exc:
        spec_from_dict({**json.loads(BASIC), **extra})
    assert exc.value.position == position


def test_size_limits_admit_their_bounds():
    doc = {
        **json.loads(BASIC),
        "profile": {
            "d_left": 1, "boundary": [1] * (2 * MAX_LEVEL + 1), "d_right": 1,
            "n_lo": -MAX_LEVEL, "n_hi": MAX_LEVEL,
        },
        "operator": "identity",
        "subspace": {"tail_cut": -MAX_DEPTH, "generators": [[[MAX_LEVEL, 0, 1]]]},
        "k": MAX_POWER,
        "config": {
            "plateau_streak": MAX_TRAJECTORY_STEPS,
            "max_trajectory_steps": MAX_TRAJECTORY_STEPS,
            "max_chain_index": MAX_CHAIN_INDEX,
        },
    }
    spec = spec_from_dict(doc)
    assert spec.config.max_trajectory_steps == MAX_TRAJECTORY_STEPS and spec.k == MAX_POWER
    spec = spec_from_dict({**json.loads(BASIC), "profile": {"constant": MAX_LEVEL_DIM}})
    assert spec.profile.d_left == MAX_LEVEL_DIM
