"""Canonical presentations and lattice operations of compact open subspaces."""

import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import llcent.linalg as linalg
from llcent.errors import NotContained, ProfileMismatch
from llcent.fields import PrimeField
from llcent.generators import random_open_subspace
from llcent.linalg import SubspaceBasis
from llcent.spaces import (
    BlockwisePattern,
    CompactOpenSubspace,
    LlcVector,
    Profile,
    blockwise_restrict_quotient,
    cofinal_chain,
    open_combine,
    open_quotient_dim,
)

from _dense import dim_of, level_bit, span_set, subspace_bits, vector_bits

F2 = PrimeField(2)
F3 = PrimeField(3)
P1 = Profile.constant(F2, 1)
P2 = Profile.constant(F2, 2)


def unit(profile, n, i=0):
    return LlcVector.unit(profile, n, i)


class TestCanonicalization:
    def test_tail_generators_absorb(self):
        w = CompactOpenSubspace.make(P1, -2, [unit(P1, -1), unit(P1, 0)])
        assert (w.tail, w.top, w.window.rank) == (0, 0, 0)
        assert w == cofinal_chain(P1, 0)

    def test_window_reduces_to_rref(self):
        g = unit(P1, 1).add(unit(P1, 2))
        w = CompactOpenSubspace.make(P1, 0, [g, unit(P1, 2)])
        assert w.window.mat.tolist() == [[1, 0], [0, 1]]
        assert w == cofinal_chain(P1, 2)

    def test_single_tail_generator(self):
        w = CompactOpenSubspace.make(P1, -1, [unit(P1, 0)])
        assert w == cofinal_chain(P1, 0)

    def test_idempotent(self):
        w = CompactOpenSubspace.make(P1, -3, [unit(P1, -1), unit(P1, 1).add(unit(P1, 2))])
        again = CompactOpenSubspace.make(P1, w.tail, w.window_vectors())
        assert w == again

    def test_partial_block_not_absorbed(self):
        w = CompactOpenSubspace.make(P2, -1, [unit(P2, 0, 0)])
        assert w.tail == -1
        assert w.window.rank == 1

    def test_tail_cap_at_zero(self):
        w = CompactOpenSubspace.make(P1, 0, [unit(P1, 1)])
        assert w.tail == 0 and w.top == 1


class TestMembership:
    def test_tail_members(self):
        c0 = cofinal_chain(P1, 0)
        assert c0.member(unit(P1, -5))
        assert not c0.member(unit(P1, 1))

    def test_window_member(self):
        g = unit(P1, 1).add(unit(P1, 2))
        w = CompactOpenSubspace.make(P1, 0, [g])
        assert w.member(g)
        assert not w.member(unit(P1, 1))
        assert w.member(LlcVector.zero(P1))

    def test_profile_mismatch(self):
        with pytest.raises(ProfileMismatch):
            cofinal_chain(P1, 0).member(unit(P2, 0, 0))


class TestCombine:
    def test_chain_containments(self):
        c2, c5 = cofinal_chain(P1, 2), cofinal_chain(P1, 5)
        assert open_combine(c2, c5, "sum") == c5
        assert open_combine(c2, c5, "intersect") == c2

    def test_tails_merge(self):
        a = CompactOpenSubspace.make(P1, -1)
        b = CompactOpenSubspace.make(P1, 0)
        assert open_combine(a, b, "sum") == b
        assert open_combine(a, b, "intersect") == a

    def test_sum_with_a_summand_below_the_other_tail(self):
        # x lies inside U_0, and y's window starts above x's top
        x = CompactOpenSubspace.make(P1, -3, [unit(P1, -1)])
        y = CompactOpenSubspace.make(P1, 0, [unit(P1, 2)])
        assert open_combine(x, y, "sum") == y
        assert open_combine(y, x, "sum") == y

    def test_rows_over(self):
        w = CompactOpenSubspace.make(P1, -2, [unit(P1, -1).add(unit(P1, 1))])
        # unit rows of the levels (-3, -2], then the window over (-2, 1], padded to 2
        assert w.rows_over(-3, 2).tolist() == [[1, 0, 0, 0, 0], [0, 1, 0, 1, 0]]
        # above the tail, the window column of level -1 is dropped
        assert w.rows_over(-1, 1).tolist() == [[0, 1]]
        assert w.rows_over(1, 1).shape == (1, 0)
        with pytest.raises(ValueError):
            w.rows_over(-3, 0)

    def test_quotient_examples(self):
        for m, k in ((5, 2), (3, 3), (4, 0)):
            got = open_quotient_dim(cofinal_chain(P1, m), cofinal_chain(P1, k))
            assert got == m - k
        assert open_quotient_dim(cofinal_chain(P2, 1), cofinal_chain(P2, 0)) == 2

    def test_not_contained(self):
        with pytest.raises(NotContained):
            open_quotient_dim(cofinal_chain(P1, 1), CompactOpenSubspace.make(P1, 0, [unit(P1, 2)]))


class TestCofinalChain:
    def test_chain_and_canonicalize_make_no_elimination(self, monkeypatch):
        p = Profile.constant(F3, 2)
        # over levels (-2, 2]: the unit rows of levels -1 and 0, one row at
        # level 1 and nothing at level 2
        rows = np.zeros((5, 8), dtype=np.int64)
        rows[:4, :4] = np.eye(4, dtype=np.int64)
        rows[4, 4:6] = (1, 2)
        window = SubspaceBasis.span(F3, rows)
        want = CompactOpenSubspace.make(p, 0, [LlcVector(p, {(1, 0): 1, (1, 1): 2})])
        calls = []
        real = linalg._rref
        monkeypatch.setattr(linalg, "_rref", lambda f, a: calls.append(a.shape) or real(f, a))
        chain = cofinal_chain(p, 4)
        w = CompactOpenSubspace._canonicalize(p, -2, 2, window)
        assert calls == []
        assert (chain.tail, chain.top, chain.window) == (0, 4, SubspaceBasis.full(F3, 8))
        assert (w.tail, w.top) == (0, 1) and w == want

    def test_base(self):
        c0 = cofinal_chain(P1, 0)
        assert (c0.tail, c0.window.rank) == (0, 0)

    def test_nested(self):
        for m in range(20):
            assert open_quotient_dim(cofinal_chain(P1, m + 1), cofinal_chain(P1, m)) == 1

    def test_dimension_count(self):
        for m in range(6):
            assert open_quotient_dim(cofinal_chain(P1, m), cofinal_chain(P1, 0)) == m

    def test_cofinal_for_canonical_subspaces(self):
        rng = random.Random(3)
        for _ in range(20):
            w = random_open_subspace(rng, P1)
            cm = cofinal_chain(P1, max(w.top, 0))
            assert open_quotient_dim(cm, w) >= 0


class TestCanonicalEquality:
    def test_non_canonical_presentations_agree(self):
        rng = random.Random(17)
        for _ in range(60):
            w = random_open_subspace(rng, P1)
            # re-present with a deeper tail and redundant generators
            deeper = w.tail - rng.randint(0, 2)
            gens = [unit(P1, n) for n in range(deeper + 1, w.tail + 1)]
            gens += w.window_vectors()
            mixed = list(gens)
            if len(gens) >= 2:
                mixed.append(gens[0].add(gens[1]))
            rng.shuffle(mixed)
            assert CompactOpenSubspace.make(P1, deeper, mixed) == w

    def test_scaled_generators_gf3(self):
        p = Profile.constant(F3, 1)
        g = unit(p, 1).add(unit(p, 2).scale(2))
        w1 = CompactOpenSubspace.make(p, 0, [g])
        w2 = CompactOpenSubspace.make(p, 0, [g.scale(2)])
        assert w1 == w2


class TestLatticeLaws:
    def test_laws_on_random_triples(self):
        rng = random.Random(29)
        for _ in range(40):
            a, b, c = (random_open_subspace(rng, P1) for _ in range(3))
            for mode in ("sum", "intersect"):
                assert open_combine(a, b, mode) == open_combine(b, a, mode)
                lhs = open_combine(open_combine(a, b, mode), c, mode)
                rhs = open_combine(a, open_combine(b, c, mode), mode)
                assert lhs == rhs
            # absorption
            assert open_combine(a, open_combine(a, b, "intersect"), "sum") == a
            assert open_combine(a, open_combine(a, b, "sum"), "intersect") == a

    def test_modular_dimension_additivity(self):
        rng = random.Random(37)
        for _ in range(40):
            a, b = random_open_subspace(rng, P1), random_open_subspace(rng, P1)
            mid = open_combine(a, b, "sum")
            c = open_combine(mid, cofinal_chain(P1, rng.randint(0, 3)), "sum")
            assert open_quotient_dim(c, a) == open_quotient_dim(c, mid) + open_quotient_dim(mid, a)


class TestDenseOracle:
    LO, HI = -3, 3

    def represent(self, rng, w):
        """w from raw rows over a deeper tail and a higher top, and the span
        of those rows enumerated: the canonical form absorbs the unit rows
        of the levels (deeper, w.tail] and trims the zero levels above."""
        deeper = rng.randint(self.LO, w.tail)
        top = rng.randint(w.top, self.HI)
        rows = np.zeros((w.tail - deeper, top - deeper), dtype=np.int64)
        rows[:, : w.tail - deeper] = np.eye(w.tail - deeper, dtype=np.int64)
        pad = np.zeros((w.window.rank, top - deeper), dtype=np.int64)
        pad[:, w.tail - deeper : w.top - deeper] = w.window.mat
        rows = np.concatenate([rows, pad, (rows.sum(axis=0, keepdims=True) + pad.sum(axis=0)) % 2])
        rows = rows[rng.sample(range(len(rows)), len(rows))]
        bits = [level_bit(self.LO, n) for n in range(self.LO, deeper + 1)]
        bits += [sum(level_bit(self.LO, deeper + 1 + c) for c in np.flatnonzero(row)) for row in rows]
        return CompactOpenSubspace.from_rows(P1, deeper, rows, top), span_set(bits)

    def test_combine_and_quotient_match_enumeration(self):
        rng = random.Random(41)
        for _ in range(120):
            a = random_open_subspace(rng, P1, tail_lo=self.LO, top_hi=self.HI)
            b = random_open_subspace(rng, P1, tail_lo=self.LO, top_hi=self.HI)
            for w in (a, b):
                again, raw = self.represent(rng, w)
                assert again == w and subspace_bits(again, self.LO, self.HI) == raw
            sa, sb = subspace_bits(a, self.LO, self.HI), subspace_bits(b, self.LO, self.HI)
            total = open_combine(a, b, "sum")
            inter = open_combine(a, b, "intersect")
            assert subspace_bits(total, self.LO, self.HI) == span_set(sorted(sa | sb))
            assert subspace_bits(inter, self.LO, self.HI) == sa & sb
            assert open_quotient_dim(total, a) == dim_of(span_set(sorted(sa | sb))) - dim_of(sa)

    # the guards are plain raises, so they still fire under python -O
    def test_support_outside_the_levels_raises(self):
        with pytest.raises(ValueError, match=r"support level 4 outside \[-3,3\]"):
            vector_bits(unit(P1, 4), self.LO, self.HI)

    def test_subspace_tail_below_the_levels_raises(self):
        w = CompactOpenSubspace.make(P1, self.LO - 1, [unit(P1, -2).add(unit(P1, 1))])
        with pytest.raises(ValueError, match=r"subspace tail -4 and top 1 outside \[-3,3\]"):
            subspace_bits(w, self.LO, self.HI)


class TestBlockwise:
    def test_full_pattern_is_identity(self):
        pat = BlockwisePattern.full(P2)
        u = cofinal_chain(P2, 1)
        uw, uq = blockwise_restrict_quotient(pat, u)
        assert uw == cofinal_chain(pat.sub_profile(), 1)
        assert uq.window.rank == 0 and uq.tail == 0

    def test_slot_split(self):
        pat = BlockwisePattern.first_slots(P2, 1)
        uw, uq = blockwise_restrict_quotient(pat, cofinal_chain(P2, 1))
        assert uw == cofinal_chain(pat.sub_profile(), 1)
        assert uq == cofinal_chain(pat.quotient_profile(), 1)

    def test_zero_pattern(self):
        pat = BlockwisePattern.zero(P1)
        u = cofinal_chain(P1, 2)
        uw, uq = blockwise_restrict_quotient(pat, u)
        assert uw.window.rank == 0
        assert uq == cofinal_chain(pat.quotient_profile(), 2)

    def test_diagonal_pattern_restriction(self):
        # W_n = span{(1,1)} at every level; U = C_1
        diag = SubspaceBasis.span(F2, [[1, 1]])
        pat = BlockwisePattern.make(P2, diag, {0: diag}, diag)
        uw, uq = blockwise_restrict_quotient(pat, cofinal_chain(P2, 1))
        assert uw == cofinal_chain(pat.sub_profile(), 1)
        assert uq == cofinal_chain(pat.quotient_profile(), 1)

    def test_window_intersection(self):
        # U with a mixed-slot window generator against the first-slot pattern
        pat = BlockwisePattern.first_slots(P2, 1)
        g = LlcVector(P2, {(1, 0): 1, (1, 1): 1})
        u = CompactOpenSubspace.make(P2, 0, [g])
        uw, uq = blockwise_restrict_quotient(pat, u)
        assert uw.window.rank == 0  # the generator leaves the pattern
        assert uq.window.rank == 1  # but survives in the quotient


class TestProfileShapes:
    def test_flags(self):
        assert P1.is_constant()
        discrete = Profile(F2, 0, (0, 2), 2, 0, 1)
        assert discrete.is_discrete() and not discrete.is_linearly_compact()
        compact = Profile(F2, 1, (1, 0), 0, 0, 1)
        assert compact.is_linearly_compact() and not compact.is_discrete()

    def test_bad_profiles_rejected(self):
        with pytest.raises(ValueError):
            Profile(F2, 1, (1,), 1, 1, 1)
        with pytest.raises(ValueError):
            Profile(F2, 1, (1, 1), 1, 0, 0)

    def test_zero_dim_levels_absorbed(self):
        gappy = Profile(F2, 1, (0, 1, 0), 1, -1, 1)
        w = CompactOpenSubspace.make(gappy, -2, [unit(gappy, 0)])
        assert w.tail == 0 and w.window.rank == 0

    def test_equal_profiles_built_apart_compare_and_hash_equal(self):
        pairs = [
            (Profile.constant(PrimeField(2), 2), Profile(PrimeField(2), 2, (2,), 2, 0, 0)),
            (
                Profile.from_dims(F3, {-1: 1, 0: 2, 2: 3}, 2, 1),
                Profile(PrimeField(3), 2, (1, 2, 1, 3), 1, -1, 2),
            ),
        ]
        for a, b in pairs:
            assert a is not b
            assert a == b and b == a and hash(a) == hash(b)
            assert a.window_dim(-3, 4) == b.window_dim(-3, 4)
            copy = pickle.loads(pickle.dumps(a))
            assert copy == a and hash(copy) == hash(a)
            assert "_hash" not in pickle.loads(pickle.dumps(a)).__dict__
        assert P1 != P2 and P1 != Profile.constant(F3, 1)
        assert Profile(F2, 1, (1, 0), 0, 0, 1) != Profile(F2, 1, (1, 0), 1, 0, 1)
        assert P1 != "P1"

    WINDOWS = [(-4, 3), (-1, 2), (0, 0), (2, 6)]

    @staticmethod
    def windows(p):
        """Per window (a, b]: its width, the column where each level starts
        and the level of each column."""
        return [
            (
                p.window_dim(a, b),
                [p.window_dim(a, n - 1) for n in range(a + 1, b + 1)],
                [p.level_at(a, c) for c in range(p.window_dim(a, b))],
            )
            for a, b in TestProfileShapes.WINDOWS
        ]

    def test_equal_profiles_built_apart_give_identical_windows(self):
        a = Profile.from_dims(F3, {-1: 1, 0: 2, 2: 3}, 2, 1)
        b = Profile(PrimeField(3), 2, (1, 2, 1, 3), 1, -1, 2)
        want = self.windows(a)
        for other in (b, pickle.loads(pickle.dumps(a)), pickle.loads(pickle.dumps(b))):
            assert self.windows(other) == want
        assert self.windows(a)[1] == (6, [0, 2, 3], [0, 0, 1, 2, 2, 2])
        assert a.window_dim(-4, 3) == 2 + 2 + 1 + 2 + 1 + 3 + 1

    @staticmethod
    def assert_window_arithmetic(p, span=6):
        """window_dim(a, b) is the sum of dim(n) over (a, b], and 0 for b <= a,
        on every window within `span` levels of the boundary levels."""
        levels = range(p.n_lo - span, p.n_hi + span + 1)
        for a in levels:
            for b in levels:
                assert p.window_dim(a, b) == sum(p.dim(n) for n in range(a + 1, b + 1)), (a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.dictionaries(st.integers(-4, 4), st.integers(0, 3), max_size=5),
        d_left=st.integers(0, 3),
        d_right=st.integers(0, 3),
    )
    def test_window_dim_is_the_sum_of_level_dims(self, dims, d_left, d_right):
        # windows that start or end left of n_lo, inside the boundary levels
        # and right of n_hi, empty and reversed ones (b <= a) included
        p = Profile.from_dims(F3, dims, d_left, d_right)
        self.assert_window_arithmetic(p)
        assert p.window_dim(p.n_hi + 1, p.n_lo - 2) == 0
        far = 10**6
        assert p.window_dim(-far, far) == p.window_dim(-far, p.n_lo - 1) + p.window_dim(p.n_lo - 1, far)
        assert p.window_dim(p.n_hi, far) == (far - p.n_hi) * d_right

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.dictionaries(st.integers(-4, 4), st.integers(0, 3), max_size=5),
        d_left=st.integers(0, 3),
        d_right=st.integers(0, 3),
    )
    @example(dims={-2: 0, -1: 3, 0: 0, 2: 1}, d_left=2, d_right=1)
    @example(dims={0: 0, 1: 2}, d_left=0, d_right=3)
    def test_level_at_is_the_least_level_past_the_column(self, dims, d_left, d_right):
        # every a within 6 levels of the boundary levels and every column of
        # the window up to n_hi + 6, on profiles with zero-dimension levels
        # and d_left != d_right among them
        p = Profile.from_dims(F3, dims, d_left, d_right)
        span = 6
        for a in range(p.n_lo - span, p.n_hi + span + 1):
            for col in range(p.window_dim(a, p.n_hi + span)):
                n = p.level_at(a, col)
                assert p.window_dim(a, n) > col >= p.window_dim(a, n - 1), (a, col, n)

    def test_level_at_past_the_last_nonzero_level(self):
        p = Profile.from_dims(F3, {-1: 1, 0: 2, 1: 0}, 2, 0)
        assert [p.level_at(-3, c) for c in range(p.window_dim(-3, 5))] == [-2, -2, -1, 0, 0]
        with pytest.raises(ValueError):
            p.level_at(-3, p.window_dim(-3, 5))

    def test_pickled_state_holds_no_window_table(self):
        a = Profile.from_dims(F3, {-1: 1, 0: 2, 2: 3}, 2, 1)
        self.windows(a)
        assert not {"_sums", "_hash"} & set(a.__getstate__())
        copy = pickle.loads(pickle.dumps(a))
        assert self.windows(copy) == self.windows(a)
        self.assert_window_arithmetic(copy)

    def test_lookup_on_fresh_equal_profile_compares_no_profiles(self, monkeypatch):
        a = Profile.from_dims(F3, {-1: 1, 0: 2, 2: 3}, 2, 1)
        self.windows(a)
        calls = []
        real_eq = Profile.__eq__
        monkeypatch.setattr(Profile, "__eq__", lambda x, y: calls.append(1) or real_eq(x, y))
        for fresh in (Profile(PrimeField(3), 2, (1, 2, 1, 3), 1, -1, 2), pickle.loads(pickle.dumps(a))):
            self.windows(fresh)
            self.windows(fresh)
        assert calls == []


