"""CLI command dispatch, exit-code contract and report determinism."""

import json
import random
import tracemalloc

import pytest

from llcent.cli import (
    EXIT_DISAGREEMENT,
    EXIT_INTERNAL,
    EXIT_LOWER_BOUND,
    EXIT_OK,
    EXIT_SPEC_ERROR,
    EXIT_VIOLATED,
    Flags,
    main,
    render_report,
    run_command,
)
from llcent.entropy import EntropyResult, Status
from llcent.errors import EngineInvariant
from llcent.fields import PrimeField
from llcent.generators import random_endomorphism
from llcent.spaces import Profile, cofinal_chain
from llcent.specfile import SpecFile, parse_spec, serialize_spec

SHIFT = '{"field":"GF(2)","profile":{"constant":1},"operator":"right_shift","inverse":"left_shift"}'
SPLIT = '{"field":"GF(2)","profile":{"constant":2},"operator":"right_shift","inverse":"left_shift","pattern":{"first_slots":1}}'
# operators on the constant GF(2) profile of dimension 1 that break the
# banded contract: boundary columns at levels -1 and 1 but not 0, and an
# empty column list at level 0
SKIPS_LEVEL_0 = '{"width":0,"left_blocks":{"0":[[1]]},"right_blocks":{"0":[[1]]},"boundary_columns":{"-1":[[[-1,0,1]]],"1":[[[1,0,1]]]}}'
NO_COLUMNS = '{"width":0,"left_blocks":{"0":[[1]]},"right_blocks":{"0":[[1]]},"boundary_columns":{"0":[]}}'
# every input of every property: a pattern, an exhausting chain, a second
# system, a power and a conjugating pair
EVERY_INPUT = {
    "field": "GF(2)",
    "profile": {"constant": 2},
    "operator": "right_shift",
    "inverse": "left_shift",
    "pattern": {"first_slots": 1},
    "chain": [{"first_slots": 1}, {"first_slots": 2}],
    "second": {"profile": {"constant": 1}, "operator": "left_shift", "inverse": "right_shift"},
    "k": 2,
    "conjugator": "right_shift",
    "conjugator_inverse": "left_shift",
}
# lower bounds at every step and chain cap: ent(beta^2) = 2 ent(beta) holds
# on the truncated values too, but the sides are LowerBounds
TRUNCATED_LOG_LAW = (
    '{"field":"GF(2)","profile":{"constant":1},"operator":"right_shift","inverse":"left_shift",'
    '"k":2,"config":{"max_trajectory_steps":1,"max_chain_index":1}}'
)


def write(tmp_path, text, name="spec.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestExitCodes:
    def test_exit_0_entropy(self, tmp_path, capsys):
        assert main(["entropy", write(tmp_path, SHIFT)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["entropy"]["value"] == 1

    def test_exit_0_check_verified(self, tmp_path, capsys):
        assert main(["check", "addition", write(tmp_path, SPLIT)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["check"]["verdict"] == "Verified"

    def test_exit_1_violated(self, tmp_path, capsys, monkeypatch):
        # force a wrong reliable value through one side of the comparison to
        # exercise the Violated exit path
        import llcent.theorems as theorems

        real = theorems.total_entropy
        calls = []

        def lying(op, cfg=None, inverse=None, engine=None):
            r = real(op, cfg, inverse)
            calls.append(op)
            if len(calls) > 1:
                return r
            return EntropyResult(r.value + 1, Status.PLATEAU, r.certificate, r.witness, r.iterations)

        monkeypatch.setattr(theorems, "total_entropy", lying)
        code = main(["check", "dd_reduction", write(tmp_path, SHIFT)])
        assert code == EXIT_VIOLATED

    def test_exit_2_parse_error(self, tmp_path, capsys):
        bad = '{"field":"GF(2)","profile":{"constant":1},"operater":"right_shift"}'
        assert main(["entropy", write(tmp_path, bad)]) == EXIT_SPEC_ERROR
        assert "operater" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [{"p": 2}, 7, None, ["GF(2)"]])
    def test_exit_2_non_string_field(self, tmp_path, capsys, field):
        doc = json.loads(SHIFT)
        doc["field"] = field
        assert main(["entropy", write(tmp_path, json.dumps(doc))]) == EXIT_SPEC_ERROR
        assert "at $.field" in capsys.readouterr().err

    def test_exit_2_ragged_block_rows(self, tmp_path, capsys):
        profile = Profile.constant(PrimeField(2), 2)
        op = random_endomorphism(random.Random(3), profile, width=1)
        doc = json.loads(serialize_spec(SpecFile(field=profile.field, profile=profile, operator=op)))
        doc["operator"]["left_blocks"]["1"] = [[1], [1, 0]]
        assert main(["entropy", write(tmp_path, json.dumps(doc))]) == EXIT_SPEC_ERROR
        err = capsys.readouterr().err
        assert "same length" in err and "$.operator.left_blocks.1" in err

    @pytest.mark.parametrize(
        "extra, command, flags",
        [
            # one 10^6 x 10^6 int64 block would be 7.28 TiB
            ('"profile":{"constant":1000000}', ["entropy"], []),
            ('"operator":{"width":1000000}', ["entropy"], []),
            ('"operator":{"width":0,"boundary_columns":{"1000000000":[[]]}}', ["entropy"], []),
            ('"subspace":{"chain_index":1000000}', ["relative-entropy"], []),
            ('"subspace":{"tail_cut":-1000000}', ["relative-entropy"], []),
            ('"k":1000000', ["check", "log_law"], []),
            ('"config":{"max_trajectory_steps":1000000000}', ["entropy"], []),
            ("", ["entropy"], ["--max-iter", "1000000000"]),
            ("", ["entropy"], ["--chain-max", "1000000"]),
            ("", ["entropy"], ["--streak", "0"]),
        ],
    )
    def test_exit_2_size_limits(self, tmp_path, capsys, extra, command, flags):
        spec = SHIFT[:-1] + (f",{extra}}}" if extra else "}")
        tracemalloc.start()
        try:
            code = main([*command, write(tmp_path, spec), *flags])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_SPEC_ERROR
        assert capsys.readouterr().err.startswith("error: ")
        assert peak < 4 * 2**20

    @pytest.mark.parametrize(
        "check, extra, label",
        [
            ("conjugation", f'"conjugator":{SKIPS_LEVEL_0},"conjugator_inverse":"identity"', "conjugator"),
            ("conjugation", f'"conjugator":"identity","conjugator_inverse":{SKIPS_LEVEL_0}', "conjugator inverse"),
            ("weak_addition", f'"second":{{"profile":{{"constant":1}},"operator":"left_shift","inverse":{SKIPS_LEVEL_0}}}', "second inverse"),
            ("weak_addition", f'"second":{{"profile":{{"constant":1}},"operator":"left_shift","inverse":{NO_COLUMNS}}}', "second inverse"),
        ],
        ids=["conjugator", "conjugator_inverse", "second_inverse", "second_inverse_no_columns"],
    )
    def test_exit_2_invalid_companion_operator(self, tmp_path, capsys, check, extra, label):
        assert main(["check", check, write(tmp_path, SHIFT[:-1] + f",{extra}}}")]) == EXIT_SPEC_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {label}: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "pattern, where",
        [
            ('{"first_slots":true}', "$.pattern.first_slots"),
            ('{"slots":[-1]}', "$.pattern.slots[0]"),
            ('{"slots":[0,-2]}', "$.pattern.slots[1]"),
            ('{"slots":["0"]}', "$.pattern.slots[0]"),
        ],
        ids=["first_slots_bool", "slot_negative", "second_slot_negative", "slot_string"],
    )
    def test_exit_2_bad_pattern_slots(self, tmp_path, capsys, pattern, where):
        spec = SPLIT.replace('{"first_slots":1}', pattern)
        assert main(["check", "addition", write(tmp_path, spec)]) == EXIT_SPEC_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.err.rstrip().endswith(f" at {where}")

    def test_exit_2_missing_inverse(self, tmp_path, capsys):
        noinv = '{"field":"GF(2)","profile":{"constant":1},"operator":"right_shift"}'
        assert main(["compare-engines", write(tmp_path, noinv)]) == EXIT_SPEC_ERROR
        assert "verified inverse" in capsys.readouterr().err

    def test_exit_2_not_an_inverse(self, tmp_path, capsys):
        spec = '{"field":"GF(2)","profile":{"constant":1},"operator":"right_shift","inverse":"right_shift"}'
        assert main(["entropy", write(tmp_path, spec)]) == EXIT_SPEC_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: limit-free engine needs a verified inverse pair\n"

    def test_exit_2_pattern_not_invariant(self, tmp_path, capsys):
        # the operator swaps the two slots of every level, so the first slots
        # are not an invariant pattern
        swap = "[[0,1],[1,0]]"
        spec = (
            '{"field":"GF(2)","profile":{"constant":2},"operator":{"width":0,'
            f'"left_blocks":{{"0":{swap}}},"right_blocks":{{"0":{swap}}},'
            '"boundary_columns":{"0":[[[0,1,1]],[[0,0,1]]]}},"pattern":{"first_slots":1}}'
        )
        assert main(["check", "addition", write(tmp_path, spec)]) == EXIT_SPEC_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: image of e[-1,0] leaves the subspace\n"

    def test_exit_2_chain_not_exhausting(self, tmp_path, capsys):
        spec = '{"field":"GF(2)","profile":{"constant":2},"operator":"right_shift","chain":[{"first_slots":1}]}'
        assert main(["check", "direct_limit", write(tmp_path, spec)]) == EXIT_SPEC_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the chain must exhaust the space (last pattern full)\n"

    def test_exit_3_strict_lower_bound(self, tmp_path, capsys):
        spec = (
            '{"field":"GF(2)","profile":{"constant":1},"operator":"right_shift",'
            '"subspace":{"chain_index":1},"config":{"max_trajectory_steps":2}}'
        )
        code = main(["relative-entropy", write(tmp_path, spec), "--strict"])
        assert code == EXIT_LOWER_BOUND
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["trajectory"]["status"] == "LowerBound"

    def test_exit_3_strict_inconclusive(self, tmp_path, capsys):
        path = write(tmp_path, TRUNCATED_LOG_LAW)
        for flags, code in (([], EXIT_OK), (["--strict"], EXIT_LOWER_BOUND)):
            assert main(["check", "log_law", path, *flags]) == code
            check = json.loads(capsys.readouterr().out)["results"]["check"]
            # the law holds on the values, so no witness of a violation is shown
            assert (check["verdict"], check["witness"]) == ("Inconclusive", "")

    def test_exit_2_block_outside_the_band(self, tmp_path, capsys):
        # shift-1 blocks of a width-0 operator are refused, not dropped
        op = '{"width":0,"left_blocks":{"0":[[1]],"1":[[1]]},"right_blocks":{"0":[[1]],"1":[[1]]},"boundary_columns":{"0":[[[0,0,1]]]}}'
        spec = f'{{"field":"GF(2)","profile":{{"constant":1}},"operator":{op}}}'
        assert main(["entropy", write(tmp_path, spec)]) == EXIT_SPEC_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: operator: left block at shift 1 outside the band [0,0]; "
            "operator: right block at shift 1 outside the band [0,0]\n"
        )

    def test_exit_2_unsupported_schema_version(self, tmp_path, capsys):
        spec = SHIFT[:-1] + ',"schema_version":2}'
        assert main(["entropy", write(tmp_path, spec)]) == EXIT_SPEC_ERROR
        assert capsys.readouterr().err == "error: unsupported schema_version 2 at $.schema_version\n"

    @pytest.mark.parametrize(
        "argv",
        [["entropy"], ["relative-entropy", "--engine", "both"], ["compare-engines"]],
        ids=["entropy", "relative-entropy", "compare-engines"],
    )
    def test_exit_4_engine_disagreement(self, tmp_path, capsys, monkeypatch, argv):
        # the trajectory engine lies on the chain member C_1 only, which the
        # entropy sweep reaches second and the other two read as the spec's subspace
        import llcent.entropy as entropy

        real = entropy.trajectory_relative_entropy
        c1 = cofinal_chain(Profile.constant(PrimeField(2), 1), 1)

        def lying(op, u, cfg):
            r = real(op, u, cfg)
            if u != c1:
                return r
            return EntropyResult(r.value + 1, Status.PLATEAU, r.certificate, r.witness, r.iterations)

        monkeypatch.setattr(entropy, "trajectory_relative_entropy", lying)
        spec = SHIFT[:-1] + ',"subspace":{"chain_index":1}}'
        code = main([argv[0], write(tmp_path, spec), *argv[1:]])
        assert code == EXIT_DISAGREEMENT
        report = json.loads(capsys.readouterr().out)
        assert report["results"] == {
            "error": {"kind": "EngineDisagreement", "message": f"trajectory 2 vs limit-free 1 on {c1!r}"}
        }

    def test_missing_file(self, capsys):
        assert main(["entropy", "/nonexistent/spec.json"]) == EXIT_SPEC_ERROR

    def test_exit_2_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_bytes(b"\xff\xfe")
        assert main(["entropy", str(path)]) == EXIT_SPEC_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path} is not UTF-8 text: invalid start byte at byte 0\n"

    def test_exit_2_deeply_nested_json(self, tmp_path, capsys):
        assert main(["entropy", write(tmp_path, "[" * 100000 + "]" * 100000)]) == EXIT_SPEC_ERROR
        assert capsys.readouterr().err == "error: JSON nested too deeply at $\n"

    @pytest.mark.parametrize(
        "scalar, message",
        [
            ('"1/0"', "bad scalar '1/0' for Q"),
            # Fraction("1e999999999") would build a 10^999999999 integer
            ('"1e999999999"', "scalar with more than 4300 digits in its numerator or denominator"),
            ("1" * 5000, "JSON integer with too many digits"),
        ],
    )
    def test_exit_2_q_scalars(self, tmp_path, capsys, scalar, message):
        spec = (
            '{"field":"Q","profile":{"constant":1},"operator":{"width":0,'
            f'"left_blocks":{{"0":[[{scalar}]]}},"right_blocks":{{"0":[[1]]}},"boundary_columns":{{"0":[[[0,0,1]]]}}}}}}'
        )
        assert main(["entropy", write(tmp_path, spec)]) == EXIT_SPEC_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message} at $")

    def test_exit_2_bad_scalar_message_is_one_short_line(self, tmp_path, capsys):
        scalar = '"1e' + "9" * 5000 + '"'
        spec = (
            '{"field":"Q","profile":{"constant":1},"operator":{"width":0,'
            f'"left_blocks":{{"0":[[{scalar}]]}},"right_blocks":{{"0":[[1]]}},"boundary_columns":{{"0":[[[0,0,1]]]}}}}}}'
        )
        assert main(["entropy", write(tmp_path, spec)]) == EXIT_SPEC_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad scalar '1e999") and "... (5004 characters) for Q at $" in captured.err
        assert captured.err.count("\n") == 1 and len(captured.err) < 200

    @pytest.mark.parametrize("exc", [RuntimeError("boom"), EngineInvariant("increments must be non-increasing")])
    def test_exit_5_internal_error(self, tmp_path, capsys, monkeypatch, exc):
        # a defect in the program, not in the spec: one stderr line, no report
        import llcent.cli as cli

        def broken(command, spec, flags):
            raise exc

        monkeypatch.setattr(cli, "run_command", broken)
        assert main(["entropy", write(tmp_path, SHIFT)]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: {type(exc).__name__}: {exc}\n"


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        spec = parse_spec(SHIFT)
        flags = Flags(seed=7)
        a, _ = run_command("entropy", spec, flags)
        b, _ = run_command("entropy", parse_spec(SHIFT), Flags(seed=7))
        assert render_report(a, "json") == render_report(b, "json")
        assert render_report(a, "text") == render_report(b, "text")

    def test_seed_echoed(self, tmp_path, capsys):
        main(["entropy", write(tmp_path, SHIFT), "--seed", "41"])
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 41
        assert report["tool"]["name"] == "llcent"

    def test_spec_echo_round_trips(self, tmp_path, capsys):
        main(["entropy", write(tmp_path, SHIFT)])
        report = json.loads(capsys.readouterr().out)
        from llcent.specfile import spec_from_dict

        assert spec_from_dict(report["spec"]) == parse_spec(SHIFT)


class TestCommands:
    def test_relative_entropy_both_engines(self, tmp_path, capsys):
        spec = SHIFT[:-1] + ',"subspace":{"chain_index":2}}'
        assert main(["relative-entropy", write(tmp_path, spec), "--engine", "both"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["trajectory"]["value"] == 1
        assert report["results"]["limitfree"]["value"] == 1
        assert report["results"]["limitfree"]["status"] == "Exact"

    def test_relative_needs_subspace(self, tmp_path, capsys):
        assert main(["relative-entropy", write(tmp_path, SHIFT)]) == EXIT_SPEC_ERROR

    def test_compare_engines_on_chain(self, tmp_path, capsys):
        assert main(["compare-engines", write(tmp_path, SHIFT)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert all(v["agree"] for v in report["results"]["comparisons"].values())

    def test_shift_closed_form(self, tmp_path, capsys):
        spec = '{"field":"GF(3)","profile":{"constant":3},"operator":"right_shift","k":2}'
        assert main(["shift-closed-form", write(tmp_path, spec)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["closed_form"]["value"] == 6

    def test_shift_closed_form_needs_named_shift(self, tmp_path):
        spec = '{"field":"GF(2)","profile":{"constant":1},"operator":"identity"}'
        assert main(["shift-closed-form", write(tmp_path, spec)]) == EXIT_SPEC_ERROR

    def test_check_log_law(self, tmp_path, capsys):
        spec = SHIFT[:-1] + ',"k":3}'
        assert main(["check", "log_law", write(tmp_path, spec)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["check"]["verdict"] == "Verified"

    def test_check_weak_addition(self, tmp_path, capsys):
        spec = SHIFT[:-1] + ',"second":{"profile":{"constant":1},"operator":"left_shift","inverse":"right_shift"}}'
        assert main(["check", "weak_addition", write(tmp_path, spec)]) == EXIT_OK

    @pytest.mark.parametrize(
        "prop, needs, message",
        [
            ("addition", ["pattern"], "check addition needs a pattern in the spec file"),
            ("log_law", ["k"], "check log_law needs k in the spec file"),
            ("conjugation", ["conjugator", "conjugator_inverse"], "check conjugation needs conjugator and conjugator_inverse"),
            ("weak_addition", ["second"], "check weak_addition needs a second system"),
            ("monotonicity", ["pattern"], "check monotonicity needs a pattern in the spec file"),
            ("dd_reduction", [], None),
            ("direct_limit", ["chain"], "check direct_limit needs a chain of patterns"),
        ],
    )
    def test_check_every_property(self, tmp_path, capsys, prop, needs, message):
        assert main(["check", prop, write(tmp_path, json.dumps(EVERY_INPUT))]) == EXIT_OK
        check = json.loads(capsys.readouterr().out)["results"]["check"]
        assert (check["property"], check["verdict"], check["witness"]) == (prop, "Verified", "")
        for key in needs:
            doc = {k: v for k, v in EVERY_INPUT.items() if k != key}
            assert main(["check", prop, write(tmp_path, json.dumps(doc))]) == EXIT_SPEC_ERROR
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_check_needs_inputs(self, tmp_path):
        assert main(["check", "addition", write(tmp_path, SHIFT)]) == EXIT_SPEC_ERROR
        assert main(["check", "log_law", write(tmp_path, SHIFT)]) == EXIT_SPEC_ERROR

    def test_h_alg_in_report(self, tmp_path, capsys):
        main(["entropy", write(tmp_path, SHIFT)])
        report = json.loads(capsys.readouterr().out)
        h = report["results"]["entropy"]["h_alg"]
        assert h == {"ent": 1, "log_factor": "log(2)", "decimal": "0.693147"}

    def test_text_format(self, tmp_path, capsys):
        main(["entropy", write(tmp_path, SHIFT), "--format", "text"])
        out = capsys.readouterr().out
        assert "entropy.value: 1" in out
