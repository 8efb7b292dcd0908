"""Structural law checks: contract instances plus randomized campaigns."""

import random

import pytest

from llcent.entropy import EntropyConfig, Status, total_entropy
from llcent.errors import InvarianceFailure, NotAnInverse, ValidationError
from llcent.fields import PrimeField
from llcent.generators import (
    block_diagonal_instance,
    degenerate_endomorphism,
    group_pattern,
    levelwise_change_of_basis,
    random_automorphism,
)
from llcent.operators import BandedOperator, make_shift
from llcent.spaces import BlockwisePattern, Profile
from llcent.theorems import Verdict, check_addition, check_property

F2 = PrimeField(2)
F3 = PrimeField(3)
P1 = Profile.constant(F2, 1)
P2 = Profile.constant(F2, 2)


class TestAddition:
    def test_slot_split_two_is_one_plus_one(self):
        rep = check_addition(
            make_shift(P2, "right"), BlockwisePattern.first_slots(P2, 1),
            inverse=make_shift(P2, "left"),
        )
        assert rep.verdict is Verdict.VERIFIED
        assert rep.sides["ent"].value == 2
        assert rep.sides["ent_restricted"].value == 1
        assert rep.sides["ent_quotient"].value == 1

    def test_full_and_zero_patterns(self):
        beta = make_shift(P1, "right")
        for pattern in (BlockwisePattern.full(P1), BlockwisePattern.zero(P1)):
            rep = check_addition(beta, pattern, inverse=make_shift(P1, "left"))
            assert rep.verdict is Verdict.VERIFIED
            assert rep.sides["ent"].value == 1

    def test_non_invariant_pattern_raises(self):
        from llcent.linalg import SubspaceBasis

        lopsided = BlockwisePattern.make(
            P2, SubspaceBasis.full(F2, 2),
            {0: SubspaceBasis.span(F2, [[1, 0]])}, SubspaceBasis.full(F2, 2),
        )
        with pytest.raises(InvarianceFailure):
            check_addition(make_shift(P2, "right"), lopsided)


class TestLogLaw:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_shift_powers(self, k):
        rep = check_property(
            "log_law", op=make_shift(P1, "right"), k=k, inverse=make_shift(P1, "left")
        )
        assert rep.verdict is Verdict.VERIFIED
        assert rep.sides["ent_power"].value == k

    def test_k_one_runs_total_entropy_once(self, monkeypatch):
        # power(op, 1) is op itself, so one run serves both sides; the report
        # equals the one made from two runs, on copies of the operators
        import llcent.theorems as theorems

        op, inv = random_automorphism(random.Random(5), Profile.constant(F3, 2))
        runs, real = [], theorems.total_entropy

        def counting(*args):
            runs.append(args[0])
            return real(*args)

        monkeypatch.setattr(theorems, "total_entropy", counting)
        rep = check_property("log_law", op=op, k=1, inverse=inv)
        assert len(runs) == 1 and runs[0] is op
        runs.clear()

        def copy(o, k):
            return BandedOperator(o.profile, o.width, o.left_blocks, o.right_blocks, o.columns)

        monkeypatch.setattr(theorems, "power", copy)
        assert check_property("log_law", op=op, k=1, inverse=inv) == rep
        assert len(runs) == 2 and runs[1] is op and runs[0] is not op

    def test_k_zero_is_identity(self):
        rep = check_property("log_law", op=make_shift(P1, "left"), k=0)
        assert rep.verdict is Verdict.VERIFIED
        assert rep.sides["ent_power"].value == 0

    def test_inconclusive_law_that_holds_has_no_witness(self):
        # both sides are lower bounds, and 2 = 2*1 holds on them
        cfg = EntropyConfig(max_trajectory_steps=1, max_chain_index=1)
        rep = check_property("log_law", cfg, op=make_shift(P1, "right"), k=2, inverse=make_shift(P1, "left"))
        assert rep.verdict is Verdict.INCONCLUSIVE and rep.witness == ""
        assert {name: r.status for name, r in rep.sides.items()} == {
            "ent_power": Status.LOWER_BOUND, "ent_base": Status.LOWER_BOUND,
        }

    # ROADMAP item 1 in a law: the degenerate operator of
    # test_entropy.TestLatePlateau._op(9, 1), whose chain-index readings
    # rise after the plateau that the default stop accepts
    LATE = EntropyConfig(plateau_streak=8, max_chain_index=30, max_trajectory_steps=256)

    @staticmethod
    def _late_rise():
        return degenerate_endomorphism(random.Random(9), Profile.constant(F3, 1), width=3, boundary=3)

    def test_late_rise_holds_on_a_long_sweep(self):
        rep = check_property("log_law", self.LATE, op=self._late_rise(), k=2)
        assert rep.verdict is Verdict.VERIFIED
        sides = {name: (r.value, r.status) for name, r in rep.sides.items()}
        assert sides == {"ent_power": (6, Status.PLATEAU), "ent_base": (3, Status.PLATEAU)}

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 1: both sides plateau early, at ent_power 5 and ent_base 2, so the law reads Violated",
    )
    def test_late_rise_holds_under_the_default_config(self):
        rep = check_property("log_law", op=self._late_rise(), k=2)
        assert rep.verdict is Verdict.VERIFIED


class TestConjugation:
    def test_width_zero_conjugator(self):
        rng = random.Random(4)
        alpha, alpha_inv = levelwise_change_of_basis(rng, Profile.constant(F3, 2))
        rep = check_property(
            "conjugation",
            op=make_shift(Profile.constant(F3, 2), "right"),
            conjugator=alpha, conjugator_inverse=alpha_inv,
            inverse=make_shift(Profile.constant(F3, 2), "left"),
        )
        assert rep.verdict is Verdict.VERIFIED

    def test_bad_conjugator_rejected(self):
        beta = make_shift(P1, "right")
        with pytest.raises(NotAnInverse):
            check_property("conjugation", op=beta, conjugator=beta, conjugator_inverse=beta)


class TestWeakAddition:
    def test_shift_pair(self):
        rep = check_property(
            "weak_addition",
            op1=make_shift(P1, "right"), op2=make_shift(P1, "left"),
            inverse1=make_shift(P1, "left"), inverse2=make_shift(P1, "right"),
        )
        assert rep.verdict is Verdict.VERIFIED
        assert rep.sides["ent_product"].value == 1

    def test_two_right_shifts(self):
        p3 = Profile.constant(F2, 3)
        rep = check_property(
            "weak_addition", op1=make_shift(P1, "right"), op2=make_shift(p3, "right")
        )
        assert rep.verdict is Verdict.VERIFIED
        assert rep.sides["ent_product"].value == 4


class TestMonotonicity:
    def test_slot_split(self):
        rep = check_property(
            "monotonicity", op=make_shift(P2, "right"),
            pattern=BlockwisePattern.first_slots(P2, 1), inverse=make_shift(P2, "left"),
        )
        assert rep.verdict is Verdict.VERIFIED

    def test_linearly_compact_equality_case(self):
        # the zero pattern is linearly compact; quotient entropy must equal the total
        rep = check_property(
            "monotonicity", op=make_shift(P1, "right"), pattern=BlockwisePattern.zero(P1)
        )
        assert rep.verdict is Verdict.VERIFIED
        assert rep.sides["ent_quotient"].value == rep.sides["ent"].value


class TestDiscreteCornerReduction:
    def test_both_shifts(self):
        for direction, expected in (("right", 1), ("left", 0)):
            rep = check_property(
                "dd_reduction", op=make_shift(P1, direction),
                inverse=make_shift(P1, "left" if direction == "right" else "right"),
            )
            assert rep.verdict is Verdict.VERIFIED
            assert rep.sides["ent"].value == expected
            assert rep.sides["ent_discrete_corner"].value == expected

    def test_random_automorphisms(self):
        for seed in range(10):
            op, inv = random_automorphism(random.Random(seed), P1)
            rep = check_property("dd_reduction", op=op, inverse=inv)
            assert rep.verdict is Verdict.VERIFIED


class TestDirectLimit:
    def test_exhausting_slot_chain(self):
        p3 = Profile.constant(F2, 3)
        op, inv, groups, _ = block_diagonal_instance(random.Random(11), F2, (1, 1, 1))
        chain = [
            group_pattern(p3, groups, [groups[0]]),
            group_pattern(p3, groups, [groups[0], groups[1]]),
            BlockwisePattern.full(p3),
        ]
        rep = check_property("direct_limit", op=op, chain=chain, inverse=inv)
        assert rep.verdict is Verdict.VERIFIED

    def test_chain_must_end_full(self):
        with pytest.raises(ValidationError, match="the chain must exhaust the space"):
            check_property(
                "direct_limit", op=make_shift(P2, "right"),
                chain=[BlockwisePattern.first_slots(P2, 1)],
            )


class TestAsymmetry:
    def test_shift_entropy_differs_from_inverse(self):
        # the two-sided shifts witness ent(phi) != ent(phi^{-1})
        beta, lam = make_shift(P1, "right"), make_shift(P1, "left")
        assert total_entropy(beta, inverse=lam).value == 1
        assert total_entropy(lam, inverse=beta).value == 0


class TestCampaigns:
    CFG = EntropyConfig()

    def test_log_law_and_conjugation_random(self):
        # one deterministic seed per instance; failures name the seed
        for seed in range(200):
            rng = random.Random(seed)
            field = rng.choice([F2, F3])
            profile = Profile.constant(field, rng.choice([1, 2]))
            op, inv = random_automorphism(rng, profile)
            k = rng.randint(0, 3)
            rep = check_property("log_law", self.CFG, op=op, k=k, inverse=inv)
            assert rep.verdict is not Verdict.VIOLATED, (seed, rep)
            alpha, alpha_inv = levelwise_change_of_basis(rng, profile)
            rep = check_property(
                "conjugation", self.CFG, op=op,
                conjugator=alpha, conjugator_inverse=alpha_inv, inverse=inv,
            )
            assert rep.verdict is not Verdict.VIOLATED, (seed, rep)

    def test_addition_random_block_diagonal(self):
        for seed in range(15):
            rng = random.Random(seed)
            dims = rng.choice([(1, 1), (1, 2), (2, 1), (1, 1, 1)])
            op, inv, groups, ents = block_diagonal_instance(rng, rng.choice([F2, F3]), dims)
            chosen = [g for g in groups if rng.random() < 0.5]
            if not chosen or len(chosen) == len(groups):
                chosen = [groups[0]]
            pattern = group_pattern(op.profile, groups, chosen)
            rep = check_addition(op, pattern, self.CFG, inverse=inv)
            assert rep.verdict is Verdict.VERIFIED, (seed, rep)
            assert rep.sides["ent"].value == sum(ents)
