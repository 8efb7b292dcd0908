"""The packed GF(2) kernels against the array kernels they stand in for."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import llcent.entropy as entropy_module
from llcent.entropy import EntropyConfig, limit_free_relative_entropy, trajectory_relative_entropy
from llcent.fields import PrimeField
from llcent.generators import random_automorphism, random_endomorphism
from llcent.gf2rows import ChainRows, echelon, merge, pack, unpack
from llcent.linalg import SubspaceBasis, rref_union
from llcent.spaces import CompactOpenSubspace, LlcVector, Profile, cofinal_chain

from _oracles import action_rows_by_columns, grow_chain_full_window

F2 = PrimeField(2)


def _bits(rng, m, n):
    return np.array([[rng.randint(0, 1) for _ in range(n)] for _ in range(m)], dtype=np.int64).reshape(m, n)


class TestMerge:
    """merge on the pivot map: enters the rows into the block in place, with
    rref_union's pivots, keeps the block's rows as they are, and returns the
    rows it added."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.sampled_from((1, 5, 63, 64, 65, 127, 128, 129)),
        rank=st.integers(0, 12),
        new=st.integers(0, 12),
        zeros=st.integers(0, 2),
        repeats=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_rref_union(self, n, rank, new, zeros, repeats, seed):
        rng = random.Random(seed)
        # an echelon block, in general not reduced: random bits above each pivot
        rows_before = [rng.getrandbits(n) >> low << low | 1 << low for low in sorted(rng.sample(range(n), min(rank, n)))]
        rng.shuffle(rows_before)  # a pivot map holds its rows in any order
        block = {r & -r: r for r in rows_before}
        rows = _bits(rng, new, n)
        pool = [*rows, *unpack(rows_before, n)]
        extra = [np.zeros(n, dtype=np.int64)] * zeros + [rng.choice(pool) for _ in range(repeats if pool else 0)]
        if extra:
            rows = np.concatenate([rows, np.array(extra, dtype=np.int64).reshape(-1, n)])
        want = rref_union(SubspaceBasis.span(F2, unpack(sorted(rows_before, key=lambda r: r & -r), n), ambient_dim=n), rows)
        got, added = merge(block, pack(rows))
        assert got is block  # entered in place
        assert all(low == r & -r for low, r in got.items())  # each row under its own pivot
        assert sorted(got) == [1 << c for c in want.pivots]  # distinct, as the pivots are
        assert echelon(got.values()) == pack(want.mat)
        # the block's rows, verbatim and in their order, then the added ones
        assert list(got.values())[: len(rows_before)] == rows_before
        # the added rows are the merged rows the block lacked, in pivot order
        assert added == [got[low] for low in sorted(got) if got[low] not in rows_before]
        if len(got) == len(rows_before):
            assert added == []

    def test_empty_sides(self):
        block = {1: 0b011}
        assert merge(block, [])[0] is block and merge(block, [0b011])[1] == []
        assert block == {1: 0b011}
        assert merge({}, [0b110, 0b011, 0]) == ({1: 0b011, 2: 0b110}, [0b011, 0b110])
        assert echelon([0b110, 0b011, 0]) == [0b101, 0b110]

    def test_block_rows_kept_unreduced(self):
        # 0b011 holds the new pivot bit 1; a reduced merge would clear it
        assert merge({1: 0b011}, [0b110, 0b011, 0]) == ({1: 0b011, 2: 0b110}, [0b110])


class TestAct:
    """ChainRows.act is the product with the dense action, filled column by
    column (`action_rows_by_columns`), with the images at levels <= a0 dropped."""

    PLACEMENTS = ("left_of", "across", "inside", "right_of")

    @staticmethod
    @st.composite
    def cases(draw):
        width = draw(st.sampled_from((0, 1, 2, 8)))
        dim = st.sampled_from((0, 1, 2, 3, 32)) if width < 8 else st.integers(0, 3)
        if draw(st.booleans()):
            profile = Profile.from_dims(F2, {}, draw(dim), 0)  # nothing right of n_hi
        else:
            dims = draw(st.dictionaries(st.integers(-3, 3), dim, max_size=4))
            profile = Profile.from_dims(F2, dims, draw(dim), draw(dim))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        op = random_endomorphism(rng, profile, width=width, boundary=draw(st.integers(0, 3)))
        placement = draw(st.sampled_from(TestAct.PLACEMENTS))
        if placement == "left_of":
            src_hi = op.b_lo - 1 - draw(st.integers(0, 3))
            src_lo = src_hi - draw(st.integers(0, 4))
        elif placement == "across":
            src_lo, src_hi = op.b_lo - 1 - draw(st.integers(0, 4)), op.b_hi + draw(st.integers(0, 4))
        elif placement == "inside":
            src_lo = draw(st.integers(op.b_lo - 1, op.b_hi))
            src_hi = draw(st.integers(src_lo, op.b_hi))
        else:
            src_lo = op.b_hi + draw(st.integers(0, 3))
            src_hi = src_lo + draw(st.integers(0, 5))
        # a0 <= 0, at or below src_lo, sometimes high enough to cut images off
        a0 = min(0, src_lo - draw(st.integers(0, width + 2)))
        src_lo = max(src_lo, a0)
        src_hi = max(src_hi, src_lo)
        rows = _bits(rng, draw(st.integers(0, 5)), profile.window_dim(src_lo, src_hi))
        return op, rows, a0, src_lo, src_hi

    @staticmethod
    def _check(op, rows, a0, src_lo, src_hi):
        p = op.profile
        want = pack(F2.matmul(rows, action_rows_by_columns(op, src_lo, src_hi, a0, src_hi + op.width)))
        got = ChainRows(op, a0).act([r << p.window_dim(a0, src_lo) for r in pack(rows)])
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(case=cases())
    def test_matches_the_dense_action(self, case):
        self._check(*case)

    @pytest.mark.parametrize(
        "profile, width, window",
        [
            # band width 0, so no slot room below the sources, on two levels
            (Profile.constant(F2, 2), 0, (0, 2)),
            (Profile.constant(F2, 2), 0, (0, 0)),
            # no coordinates right of n_hi: nothing goes through the right blocks
            (Profile.from_dims(F2, {-1: 2, 0: 1}, 2, 0), 1, (-3, 4)),
            # every source bit at or left of b_hi, and some right of it
            (Profile.from_dims(F2, {0: 3}, 1, 2), 2, (-4, 1)),
            (Profile.from_dims(F2, {0: 3}, 1, 2), 2, (-4, 9)),
        ],
    )
    def test_edge_shapes(self, profile, width, window):
        rng = random.Random(7)
        op = random_endomorphism(rng, profile, width=width, boundary=1)
        src_lo, src_hi = window
        a0 = min(0, src_lo)
        for zero_right in (False, True):
            rows = _bits(rng, 4, profile.window_dim(src_lo, src_hi))
            if zero_right and src_hi > op.b_hi:
                rows[:, profile.window_dim(src_lo, max(src_lo, op.b_hi)) :] = 0
            self._check(op, rows, a0, src_lo, src_hi)


class TestStart:
    def test_full_rank_basis_packs_as_the_identity(self):
        # a full-rank member's reduced basis is the identity; other bases pack
        op = random_endomorphism(random.Random(4), Profile.constant(F2, 2), width=1)
        kernels = ChainRows(op, -2)
        partial = CompactOpenSubspace.make(op.profile, -1, [LlcVector.unit(op.profile, 1, 0)])
        for u, full in ((cofinal_chain(op.profile, 1), True), (partial, False)):
            basis = u.expand_window(-2, u.top)
            assert (basis.rank == basis.ambient_dim) is full
            block, rows = kernels.start(basis, basis.mat)
            assert list(block.values()) == pack(basis.mat) and rows == pack(basis.mat)
            assert all(low == r & -r for low, r in block.items())
        block = kernels.start(SubspaceBasis.full(F2, 5), F2.zeros(0, 5))[0]
        assert list(block.values()) == [1, 2, 4, 8, 16] and all(low == r for low, r in block.items())


def _both_loops(run):
    got = run()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(entropy_module, "_grow_chain", grow_chain_full_window)
        want = run()
    return [(r.value, r.status, r.certificate, r.iterations) for r in (got, want)]


class TestPackedLoop:
    """The packed chain loop against the full-window array loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        width=st.integers(1, 3),
        dims=st.dictionaries(st.integers(-2, 2), st.integers(0, 3), max_size=3),
        m=st.integers(0, 3),
        streak=st.integers(1, 3),
        cap=st.integers(2, 40),
    )
    def test_matches_full_window(self, seed, d, width, dims, m, streak, cap):
        rng = random.Random(seed)
        cfg = EntropyConfig(plateau_streak=streak, max_trajectory_steps=cap)
        endo = random_endomorphism(rng, Profile.from_dims(F2, dims, rng.randint(0, 3), d), width=width)
        u = cofinal_chain(endo.profile, m)
        got, want = _both_loops(lambda: trajectory_relative_entropy(endo, u, cfg))
        assert got == want
        op, inv = random_automorphism(rng, Profile.constant(F2, min(d, 2)))
        u = cofinal_chain(op.profile, m)
        for run in (
            lambda: trajectory_relative_entropy(op, u, cfg),
            lambda: limit_free_relative_entropy(op, inv, u, cfg),
            lambda: limit_free_relative_entropy(inv, op, u, cfg),
        ):
            got, want = _both_loops(run)
            assert got == want

    @pytest.mark.parametrize("seed", [0, 1])
    def test_near_the_spec_bounds(self, seed):
        # level dimension 32 and band width 8, the largest a spec file allows
        op = random_endomorphism(random.Random(seed), Profile.constant(F2, 32), width=8)
        u = cofinal_chain(op.profile, 1)
        got, want = _both_loops(lambda: trajectory_relative_entropy(op, u, EntropyConfig(max_trajectory_steps=5)))
        assert got == want
