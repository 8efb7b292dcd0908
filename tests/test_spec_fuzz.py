"""The error contract under fuzzing: mutated spec files never escape it.

Each example starts from a valid spec document and applies a few
mutations at random places: a value of another JSON type, a ragged
matrix row, a dimension, level or count far outside the limits, a Q
scalar in an unusual or invalid form, or a deleted key.  `parse_spec`
must return a spec or raise a `SpecError`, and `cli.main` must return a
documented exit code other than EXIT_INTERNAL, which marks a defect.
"""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from llcent.cli import EXIT_INTERNAL, main
from llcent.errors import SpecError
from llcent.specfile import parse_spec

EXPLICIT = {"width": 1, "left_blocks": {"1": [[1]]}, "right_blocks": {"1": [[1]]},
            "boundary_columns": {"-1": [[[0, 0, 1]]], "0": [[[1, 0, 1]]], "1": [[[2, 0, 1]]]}}
BASES = (
    {"field": "GF(2)", "profile": {"constant": 1}, "operator": "right_shift", "inverse": "left_shift",
     "subspace": {"chain_index": 1}, "config": {"max_chain_index": 4, "strict": False}},
    {"field": "GF(3)", "profile": {"constant": 2}, "operator": "right_shift", "inverse": "left_shift",
     "pattern": {"first_slots": 1}, "k": 2},
    {"field": "Q", "profile": {"constant": 1}, "operator": copy.deepcopy(EXPLICIT),
     "subspace": {"tail_cut": -1, "generators": [[[1, 0, "1/2"]]]}},
    {"field": "GF(5)", "profile": {"d_left": 1, "boundary": [2, 1], "d_right": 1, "n_lo": 0, "n_hi": 1},
     "operator": "identity", "pattern": {"left": [[1]], "levels": {"0": [[1, 0]]}, "right": [[0]]},
     "chain": [{"slots": [0]}], "second": {"profile": {"constant": 1}, "operator": "left_shift"}},
)
COMMANDS = (["entropy"], ["relative-entropy"], ["compare-engines"], ["check", "log_law"])

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4), st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.sampled_from(["0", "1", "x", "constant"]), st.integers(-1, 2), max_size=2),
)
HUGE = st.sampled_from([2**31, 2**63, 10**40, -(2**40), 1e300, -1e300, 10**4000])
Q_SCALARS = st.sampled_from([
    "1/0", "0/0", "1e999999999", "-1e-999999999", "3/-4", " 1/2 ", "0x10", "1_000", "1__0", "nan",
    "inf", "1/2/3", "", "-", "½", "1.5e3", ".5", "5.", "1e", "9" * 5000, 1.5, True, [1, 2],
])


def _sites(node):
    """(container, key) for every value below node, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _sites(value)


def _ragged(draw, value):
    """value with one row of a list of lists made longer or shorter."""
    rows = [r for r in value if isinstance(r, list)] if isinstance(value, list) else []
    if not rows:
        return [[1], [1, 0]]
    row = draw(st.sampled_from(rows))
    if row and draw(st.booleans()):
        row.pop()
    else:
        row.append(0)
    return value


@st.composite
def mutated_specs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(_sites(doc))))
        kind = draw(st.sampled_from(["swap", "ragged", "huge", "scalar", "drop"]))
        if kind == "drop" and isinstance(container, dict):
            del container[key]
        elif kind == "ragged":
            container[key] = _ragged(draw, container[key])
        else:
            # a copy: a later mutation must not reach the strategy's own values
            container[key] = copy.deepcopy(draw({"huge": HUGE, "scalar": Q_SCALARS}.get(kind, JSON_VALUES)))
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(mutated_specs())
def test_parse_spec_raises_only_spec_errors(text):
    try:
        parse_spec(text)
    except SpecError:
        pass


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_specs(), command=st.sampled_from(COMMANDS))
def test_main_returns_a_documented_exit_code(tmp_path, text, command):
    path = tmp_path / "spec.json"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([*command, str(path)])
    assert 0 <= code <= 5
    assert code != EXIT_INTERNAL, err.getvalue()
