"""Spec-file parsing, validation diagnostics and canonical round-trips."""

import json
import random

import pytest

from llcent.errors import ParseError, ValidationError
from llcent.fields import PrimeField, QQ
from llcent.generators import random_automorphism, random_endomorphism
from llcent.specfile import (
    SpecFile,
    parse_spec,
    serialize_spec,
    spec_from_dict,
    to_canonical_dict,
)
from llcent.spaces import Profile, cofinal_chain


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
