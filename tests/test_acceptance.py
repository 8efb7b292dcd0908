"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every expected value here is an exact small integer;
the only tolerance appears in the unit-conversion criterion (1e-9 on a
natural logarithm).
"""

import math
import random
import time

from llcent.entropy import (
    h_alg_value,
    relative_entropies,
    shift_closed_form,
    total_entropy,
    trajectory_relative_entropy,
)
from llcent.fields import PrimeField
from llcent.generators import (
    block_diagonal_instance,
    group_pattern,
    random_automorphism,
    random_endomorphism,
    unipotent_pair,
)
from llcent.operators import (
    automorphism_image,
    compose,
    identity_operator,
    image_rows_mod_tail,
    make_shift,
    power,
)
from llcent.spaces import (
    BlockwisePattern,
    CompactOpenSubspace,
    LlcVector,
    Profile,
    cofinal_chain,
    open_combine,
    open_quotient_dim,
)
from llcent.theorems import Verdict, check_addition

from _dense import dim_of, image_plus_tail_bits, span_set, subspace_bits
from _oracles import ent_dim_discrete, inverse_trajectory_subspaces, trajectory_subspaces

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
P1 = Profile.constant(F2, 1)


def _report(number, name, t0, limit):
    elapsed = time.monotonic() - t0
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"[acceptance] criterion {number} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_1_bernoulli_shifts():
    t0 = time.monotonic()
    beta, lam = make_shift(P1, "right"), make_shift(P1, "left")
    for op, inv, expected in ((beta, lam, 1), (lam, beta, 0)):
        t_one = time.monotonic()
        r_traj = total_entropy(op, engine="trajectory")
        r_both = total_entropy(op, inverse=inv, engine="both")
        assert r_traj.value == expected and r_both.value == expected
        assert time.monotonic() - t_one < 1.0
    for d in (2, 3, 5):
        p = Profile.constant(F2, d)
        t_one = time.monotonic()
        right, left = make_shift(p, "right"), make_shift(p, "left")
        assert total_entropy(right, inverse=left).value == d
        assert total_entropy(left, inverse=right).value == 0
        assert time.monotonic() - t_one < 1.0
    _report(1, "Bernoulli shift entropies", t0, 10.0)


def test_criterion_2_identity_and_linearly_compact():
    t0 = time.monotonic()
    profiles = [
        P1,
        Profile.constant(F3, 2),
        Profile(F2, 1, (1, 2, 1), 2, -1, 1),
        Profile(F2, 0, (0, 1), 1, 0, 1),
        Profile(F5, 2, (2, 0), 0, 0, 1),
    ]
    for p in profiles:
        r = total_entropy(identity_operator(p))
        assert r.value == 0
    compact_profiles = [
        Profile(F2, 1, (1, 0), 0, 0, 1),
        Profile(F2, 2, (2, 1, 0), 0, -1, 1),
        Profile(F3, 1, (1, 0), 0, 0, 1),
    ]
    for seed in range(50):
        rng = random.Random(seed)
        p = compact_profiles[seed % len(compact_profiles)]
        op = random_endomorphism(rng, p, width=rng.randint(1, 2))
        r = total_entropy(op)
        assert r.value == 0, (seed, r)
    _report(2, "identity and linearly compact vanishing", t0, 5.0)


def test_criterion_3_logarithmic_law():
    t0 = time.monotonic()
    for d in (1, 2):
        p = Profile.constant(F2, d)
        right, left = make_shift(p, "right"), make_shift(p, "left")
        for k in (0, 1, 2, 3):
            closed = shift_closed_form(p, "right", k)
            assert closed == k * d
            measured = total_entropy(power(right, k), inverse=power(left, k))
            assert measured.value == closed, (d, k, measured)
    _report(3, "logarithmic law for shift powers", t0, 5.0)


def test_criterion_4_cross_engine_validation():
    t0 = time.monotonic()
    agreements = 0
    for seed in range(200):
        rng = random.Random(seed)
        field = rng.choice([F2, F3])
        profile = Profile.constant(field, rng.choice([1, 2]))
        op, inv = random_automorphism(rng, profile, max_width=2, boundary=3)
        assert op.width <= 2 and op.b_lo >= -3 and op.b_hi <= 3
        for m in (0, 2):
            u = cofinal_chain(profile, m)
            r_traj, r_lf = relative_entropies(op, u, inverse=inv).values()
            if r_traj.reliable() and r_lf.reliable():
                assert r_traj.value == r_lf.value, (seed, m, r_traj, r_lf)
                agreements += 1
    assert agreements >= 200
    _report(4, f"limit-free vs trajectory on 200 automorphisms ({agreements} agreements)", t0, 60.0)


def test_criterion_5_addition_theorem():
    t0 = time.monotonic()
    p2 = Profile.constant(F2, 2)
    rep = check_addition(
        make_shift(p2, "right"), BlockwisePattern.first_slots(p2, 1),
        inverse=make_shift(p2, "left"),
    )
    assert rep.verdict is Verdict.VERIFIED
    assert (
        rep.sides["ent"].value,
        rep.sides["ent_restricted"].value,
        rep.sides["ent_quotient"].value,
    ) == (2, 1, 1)
    for seed in range(100):
        rng = random.Random(seed)
        dims = rng.choice([(1, 1), (1, 2), (2, 1), (1, 1, 1), (2, 1, 1)])
        op, inv, groups, _ents = block_diagonal_instance(rng, rng.choice([F2, F3]), dims)
        chosen = [g for g in groups if rng.random() < 0.5] or [groups[0]]
        pattern = group_pattern(op.profile, groups, chosen)
        rep = check_addition(op, pattern, inverse=inv)
        assert rep.verdict is not Verdict.VIOLATED, (seed, rep)
        assert rep.verdict is Verdict.VERIFIED, (seed, rep)
    _report(5, "addition theorem instances (1 + 100 seeded)", t0, 60.0)


def test_criterion_6_unit_conversion():
    t0 = time.monotonic()
    r = total_entropy(make_shift(P1, "right"), inverse=make_shift(P1, "left"))
    unit = h_alg_value(r, F2)
    assert unit.ent == 1 and unit.p == 2
    assert unit.symbolic == "1*log(2)"
    assert abs(unit.value - math.log(2)) < 1e-9
    assert unit.decimal == f"{math.log(2):.6f}"
    _report(6, "group-entropy conversion over GF(2)", t0, 5.0)


def test_criterion_7_discrete_engine_equivalence():
    t0 = time.monotonic()
    disc_profiles = [
        Profile(F2, 0, (0,), 1, 0, 0),
        Profile(F2, 0, (0, 2), 2, 0, 1),
        Profile(F3, 0, (0, 1, 2), 1, 0, 2),
    ]
    for seed in range(50):
        rng = random.Random(seed)
        p = disc_profiles[seed % len(disc_profiles)]
        op = random_endomorphism(rng, p, width=rng.randint(1, 2))
        gens = []
        for _ in range(rng.randint(1, 3)):
            support = {
                (n, i): 1
                for n in range(1, 4)
                for i in range(p.dim(n))
                if rng.random() < 0.4
            }
            gens.append(LlcVector(p, support))
        f = CompactOpenSubspace.make(p, 0, gens)
        a = ent_dim_discrete(op, f)
        b = trajectory_relative_entropy(op, f)
        assert a.value == b.value, (seed, a, b)
    _report(7, "dimension-entropy equivalence on 50 discrete systems", t0, 30.0)


def test_criterion_8_engine_invariants():
    t0 = time.monotonic()
    # non-increasing increments and non-decreasing chain values are asserted
    # inside the engines; exercise them over a mixed batch
    for seed in range(30):
        rng = random.Random(seed)
        profile = Profile.constant(rng.choice([F2, F3]), rng.choice([1, 2]))
        op = random_endomorphism(rng, profile, width=rng.randint(1, 2))
        r = total_entropy(op)
        assert list(r.certificate) == sorted(r.certificate)
        h = trajectory_relative_entropy(op, cofinal_chain(profile, rng.randint(0, 3)))
        assert list(h.certificate) == sorted(h.certificate, reverse=True)

    # inverse-image identity for partial trajectories, n <= 6, shift-like maps
    shift_like = []
    for seed in range(8):
        rng = random.Random(seed)
        beta, lam = make_shift(P1, "right"), make_shift(P1, "left")
        uni, uni_inv = unipotent_pair(rng, P1)
        shift_like.append((beta, lam))
        shift_like.append((lam, beta))
        shift_like.append((compose(beta, uni), compose(uni_inv, lam)))
    for op, inv in shift_like:
        u = cofinal_chain(P1, 2)
        ts = trajectory_subspaces(op, u, 7)
        us = inverse_trajectory_subspaces(op, inv, u, 6)
        for n in range(1, 7):
            lhs = ts[n - 1]
            for _ in range(n):
                lhs = automorphism_image(inv, lhs, op.width)
            rhs = automorphism_image(inv, us[n - 1], op.width)
            assert lhs == rhs, f"inverse-image identity failed at n={n}"
    _report(8, "engine-internal invariants", t0, 60.0)


def test_criterion_9_dense_oracle_equivalence():
    t0 = time.monotonic()
    LO, HI = -6, 6
    cases = 0

    def rand_sub(rng, tail_lo=-4, top_hi=4):
        tail = rng.randint(tail_lo, 0)
        gens = []
        for _ in range(rng.randint(0, 3)):
            support = {(n, 0): 1 for n in range(tail + 1, top_hi + 1) if rng.random() < 0.4}
            gens.append(LlcVector(P1, support))
        return CompactOpenSubspace.make(P1, tail, gens)

    rng = random.Random(2024)
    while cases < 350:
        a = rand_sub(rng)
        b = rand_sub(rng)
        sa, sb = subspace_bits(a, LO, HI), subspace_bits(b, LO, HI)
        total = open_combine(a, b, "sum")
        inter = open_combine(a, b, "intersect")
        assert subspace_bits(total, LO, HI) == span_set(sorted(sa | sb))
        assert subspace_bits(inter, LO, HI) == sa & sb
        assert open_quotient_dim(total, a) == dim_of(span_set(sorted(sa | sb))) - dim_of(sa)
        assert open_quotient_dim(total, inter) == dim_of(span_set(sorted(sa | sb))) - dim_of(sa & sb)
        cases += 1

    img_cases = 0
    while img_cases < 150:
        width = rng.randint(1, 2)
        op = random_endomorphism(rng, P1, width=width, boundary=2)
        w = rand_sub(rng, tail_lo=-(4 - width), top_hi=4 - width)
        a = rng.randint(LO + width, min(0, w.tail + width))
        engine = subspace_bits(CompactOpenSubspace.from_rows(P1, a, *image_rows_mod_tail(op, w, a)), LO, HI)
        oracle = image_plus_tail_bits(op, w, a, LO, HI)
        assert engine == oracle, (img_cases, a, w.tail, w.top)
        img_cases += 1

    assert cases + img_cases >= 500
    _report(9, f"dense-oracle agreement on {cases + img_cases} cases", t0, 120.0)
