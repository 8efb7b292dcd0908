"""Seeded generators: the unipotent inverse series and changes of basis."""

import random
import sys

import numpy as np

import llcent.generators as generators_module
from llcent.fields import QQ, PrimeField
from llcent.generators import (
    levelwise_change_of_basis,
    random_automorphism,
    unipotent_pair,
)
from llcent.linalg import invert_matrix
from llcent.operators import verify_inverse
from llcent.spaces import Profile

from _oracles import random_automorphism_composing_each_attempt, same_operator, unipotent_pair_by_terms

FIELDS = (PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(2**31 - 1), QQ)
PROFILES = [Profile.constant(f, d) for f in FIELDS for d in (1, 2, 3)] + [
    Profile.from_dims(f, {-1: 2, 0: 0, 1: 3}, 1, 2) for f in FIELDS
]


def _automorphism_laws_instance(i):
    """The `automorphism_laws` benchmark instance of id i: (op, inv, alpha, alpha_inv)."""
    rng = random.Random(i)
    field = rng.choice([PrimeField(2), PrimeField(3)])
    profile = Profile.constant(field, rng.choice([1, 2]))
    op, inv = random_automorphism(rng, profile)
    rng.randint(0, 3)
    alpha, alpha_inv = levelwise_change_of_basis(rng, profile)
    return op, inv, alpha, alpha_inv


def _level_block(op, n):
    """The matrix of a width-0 operator at level n, columns the images."""
    f, d = op.profile.field, op.profile.dim(n)
    mat = f.zeros(d, d)
    for i in range(d):
        for (m, r), v in op.column(n, i).support.items():
            assert m == n
            mat[r, i] = v
    return mat


class TestUnipotentPair:
    def test_matches_the_term_by_term_sum(self):
        widths = set()
        for seed in range(240):
            profile = PROFILES[seed % len(PROFILES)]
            mine, theirs = random.Random(seed), random.Random(seed)
            op, inv = unipotent_pair(mine, profile)
            want_op, want_inv = unipotent_pair_by_terms(theirs, profile)
            assert same_operator(op, want_op), seed
            assert same_operator(inv, want_inv), seed
            assert mine.random() == theirs.random(), seed
            widths.add(inv.width)
        # N = 0 (the identity inverse) and N^4 != 0 both occur
        assert 0 in widths and max(widths) >= 4

    def test_pairs_are_inverse(self):
        for seed, profile in enumerate(PROFILES):
            assert verify_inverse(*unipotent_pair(random.Random(seed), profile))

    def test_automorphism_laws_catalog_is_unchanged(self, monkeypatch):
        built = [_automorphism_laws_instance(i) for i in range(60)]
        monkeypatch.setattr(generators_module, "unipotent_pair", unipotent_pair_by_terms)
        for i, got in enumerate(built):
            want = _automorphism_laws_instance(i)
            assert all(same_operator(a, b) for a, b in zip(got, want)), i


class TestRandomAutomorphism:
    def test_automorphism_laws_catalog_is_unchanged(self, monkeypatch):
        # the level change of basis drawn after the pair pins the RNG state
        built = [_automorphism_laws_instance(i) for i in range(60)]
        monkeypatch.setattr(sys.modules[__name__], "random_automorphism", random_automorphism_composing_each_attempt)
        for i, got in enumerate(built):
            want = _automorphism_laws_instance(i)
            assert all(same_operator(a, b) for a, b in zip(got, want)), i

    def test_matches_composing_each_attempt(self):
        for seed in range(200):
            profile = PROFILES[seed % len(PROFILES)]
            mine, theirs = random.Random(seed), random.Random(seed)
            budget = {"max_width": seed % 3 + 1, "boundary": seed % 4 + 1}
            got = random_automorphism(mine, profile, **budget)
            want = random_automorphism_composing_each_attempt(theirs, profile, **budget)
            assert all(same_operator(a, b) for a, b in zip(got, want)), seed
            assert mine.random() == theirs.random(), seed

    def test_only_the_kept_attempt_composes(self, monkeypatch):
        calls = {"compose": 0, "kept": []}
        real_compose, real_reverse = generators_module.compose, generators_module._reverse_inverse

        def counted_compose(f_op, g_op):
            calls["compose"] += 1
            return real_compose(f_op, g_op)

        def recorded_reverse(factors):
            calls["kept"].append(len(factors))
            return real_reverse(factors)

        monkeypatch.setattr(generators_module, "compose", counted_compose)
        monkeypatch.setattr(generators_module, "_reverse_inverse", recorded_reverse)
        for i in range(60):
            calls.update(compose=0, kept=[])
            _automorphism_laws_instance(i)
            # the kept attempt's factors, one forward and one reverse product
            # per factor after the first; a rejected attempt adds nothing
            [factors] = calls["kept"]
            assert calls["compose"] == 2 * (factors - 1), i


class TestLevelwiseChangeOfBasis:
    def test_inverse_blocks_invert_the_drawn_matrices(self):
        for seed, profile in enumerate(PROFILES):
            op, inv = levelwise_change_of_basis(random.Random(seed), profile)
            f = profile.field
            for n in range(op.b_lo - 1, op.b_hi + 2):
                assert np.array_equal(_level_block(inv, n), invert_matrix(f, _level_block(op, n))), (seed, n)
            for blocks, inv_blocks in ((op.left_blocks, inv.left_blocks), (op.right_blocks, inv.right_blocks)):
                assert np.array_equal(inv_blocks[0], invert_matrix(f, blocks[0])), seed

    def test_one_inversion_per_drawn_matrix(self, monkeypatch):
        counts = {"draws": 0, "inversions": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(generators_module, "random_matrix", counted("draws", generators_module.random_matrix))
        monkeypatch.setattr(generators_module, "invert_matrix", counted("inversions", generators_module.invert_matrix))
        for seed, profile in enumerate(PROFILES):
            counts.update(draws=0, inversions=0)
            levelwise_change_of_basis(random.Random(seed), profile)
            # the left and right blocks and one matrix per level of (-1, 1) at least
            assert counts["draws"] >= 5
            assert counts["inversions"] == counts["draws"], seed
