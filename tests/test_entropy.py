"""Entropy engines: contract values, chain invariants, cross-validation."""

import math
import os
import pickle
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import llcent.entropy as entropy_module
import llcent.operators as operators_module
from llcent.entropy import (
    ENGINES,
    EntropyConfig,
    EntropyResult,
    FrontKey,
    Status,
    h_alg_value,
    limit_free_relative_entropy,
    relative_entropies,
    shift_closed_form,
    total_entropy,
    trajectory_relative_entropy,
)
from llcent.errors import (
    EngineInvariant,
    InfiniteField,
    InvalidOperator,
    LlcentError,
    NonConstantProfile,
    NotAnInverse,
    ProfileMismatch,
)
from llcent.fields import PrimeField, QQ
from llcent.generators import (
    degenerate_endomorphism,
    random_automorphism,
    random_endomorphism,
    random_matrix,
    random_open_subspace,
)
from llcent.gf2rows import ChainRows
from llcent.linalg import SubspaceBasis
from llcent.operators import (
    BandedOperator,
    _action_rows,
    automorphism_image,
    decompose_vc_vd,
    identity_operator,
    make_shift,
    operator_add,
    power,
)
from llcent.spaces import (
    CompactOpenSubspace,
    LlcVector,
    Profile,
    cofinal_chain,
    open_combine,
    open_contains,
    open_quotient_dim,
)

from _oracles import (
    ent_dim_discrete,
    grow_chain_full_window,
    inverse_trajectory_subspaces,
    trajectory_subspaces,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
P1 = Profile.constant(F2, 1)


def _widened(op, width):
    """The same map declared with a wider band: its leading right block is
    zero, so the leading-edge stop (TestEdgeStop) can never end a chain."""
    p = op.profile
    columns = {
        n: [op.column(n, i) for i in range(p.dim(n))]
        for n in range(p.n_lo - width, p.n_hi + width + 1)
    }
    return BandedOperator(p, width, op.left_blocks, op.right_blocks, columns)


def _record_merges(monkeypatch, record):
    """Call record(rank, rows) before every merge of the chain loop: the
    packed merge of a GF(2) chain, which enters the rows into the block's
    pivot map in place (so its rank is read before the merge), and
    rref_union of any other field, each looked up at call time."""
    import llcent.gf2rows as gf2rows
    import llcent.linalg as linalg

    real_merge, real_union = gf2rows.merge, linalg.rref_union

    def merge(block, rows):
        record(len(block), len(rows))
        return real_merge(block, rows)

    def union(basis, rows):
        record(basis.rank, rows.shape[0])
        return real_union(basis, rows)

    monkeypatch.setattr(gf2rows, "merge", merge)
    monkeypatch.setattr(linalg, "rref_union", union)


class TestTrajectoryEngine:
    def test_right_shift_increments_are_ones(self):
        r = trajectory_relative_entropy(make_shift(P1, "right"), cofinal_chain(P1, 2))
        assert r.value == 1
        assert set(r.certificate) == {1}

    def test_left_shift_fixed_point(self):
        r = trajectory_relative_entropy(make_shift(P1, "left"), cofinal_chain(P1, 2))
        assert (r.value, r.status, r.iterations) == (0, Status.EXACT, 1)

    def test_identity_invariant_subspace(self):
        rng = random.Random(2)
        for _ in range(5):
            u = random_open_subspace(rng, P1)
            r = trajectory_relative_entropy(identity_operator(P1), u)
            assert (r.value, r.status) == (0, Status.EXACT)

    def test_invalid_operator_rejected(self):
        # an operator the engines could not run on is never built
        op = make_shift(P1, "right")
        with pytest.raises(InvalidOperator) as exc:
            BandedOperator(P1, 1, op.left_blocks, op.right_blocks, {0: op.columns[0]})
        assert exc.value.violations == ["boundary region [0,0] does not cover [-1,1]"]

    def test_chain_growth_and_alpha_monotone(self):
        rng = random.Random(3)
        for _ in range(10):
            op = random_endomorphism(rng, P1, width=rng.randint(1, 2))
            u = random_open_subspace(rng, P1)
            chain = trajectory_subspaces(op, u, 6)
            for a, b in zip(chain, chain[1:]):
                assert open_contains(b, a)
            r = trajectory_relative_entropy(op, u)
            assert list(r.certificate) == sorted(r.certificate, reverse=True)


class TestLimitFreeEngine:
    def test_right_shift_exact_fixed_point(self):
        beta, lam = make_shift(P1, "right"), make_shift(P1, "left")
        c2 = cofinal_chain(P1, 2)
        # the inverse image lands inside C_2, so the chain is fixed at once
        assert open_contains(c2, automorphism_image(lam, c2, 1))
        r = limit_free_relative_entropy(beta, lam, c2)
        assert (r.value, r.status) == (1, Status.EXACT)
        assert open_quotient_dim(c2, automorphism_image(lam, c2, 1)) == 1

    def test_left_shift_zero(self):
        beta, lam = make_shift(P1, "right"), make_shift(P1, "left")
        r = limit_free_relative_entropy(lam, beta, cofinal_chain(P1, 2))
        assert r.value == 0
        assert set(r.certificate) == {0}

    def test_identity(self):
        ident = identity_operator(P1)
        r = limit_free_relative_entropy(ident, ident, cofinal_chain(P1, 3))
        assert (r.value, r.status, r.iterations) == (0, Status.EXACT, 1)

    def test_refuses_non_inverse(self):
        beta = make_shift(P1, "right")
        with pytest.raises(NotAnInverse):
            limit_free_relative_entropy(beta, beta, cofinal_chain(P1, 0))

    def test_stable_hull_laws_at_fixed_point(self):
        # whenever the chain fixes, the hull is inversely invariant and
        # splits as U + inverse-image, with finite codimension
        rng = random.Random(5)
        checked = 0
        for seed in range(30):
            op, inv = random_automorphism(random.Random(seed), P1)
            u = random_open_subspace(rng, P1)
            chain = inverse_trajectory_subspaces(op, inv, u, 8)
            for a, b in zip(chain, chain[1:]):
                if a == b:
                    hull = a
                    img = automorphism_image(inv, hull, op.width)
                    assert open_contains(hull, img)
                    assert open_combine(u, img, "sum") == hull
                    assert open_quotient_dim(hull, img) >= 0
                    checked += 1
                    break
        assert checked >= 5


class TestCrossEngine:
    def test_random_automorphisms_agree(self):
        for seed in range(40):
            rng = random.Random(seed)
            field = rng.choice([F2, F3])
            profile = Profile.constant(field, rng.choice([1, 2]))
            op, inv = random_automorphism(rng, profile)
            for m in (0, 2):
                rt, rl = relative_entropies(op, cofinal_chain(profile, m), inverse=inv).values()
                assert rt.reliable() and rl.reliable()
                assert rt.value == rl.value

    @pytest.mark.parametrize(
        "engine, keys",
        [
            (None, ["trajectory", "limitfree"]),
            ("both", ["trajectory", "limitfree"]),
            ("trajectory", ["trajectory"]),
            ("limitfree", ["limitfree"]),
        ],
    )
    def test_relative_entropies_runs_the_named_engines(self, engine, keys):
        beta, lam = make_shift(P1, "right"), make_shift(P1, "left")
        u = cofinal_chain(P1, 1)
        alone = {
            "trajectory": trajectory_relative_entropy(beta, u),
            "limitfree": limit_free_relative_entropy(beta, lam, u),
        }
        runs = relative_entropies(beta, u, inverse=lam, engine=engine)
        assert list(runs) == keys
        assert runs == {key: alone[key] for key in keys}
        # without an inverse only the trajectory engine can run
        if "limitfree" in keys:
            with pytest.raises(NotAnInverse):
                relative_entropies(beta, u, engine=engine or "both")
        else:
            assert relative_entropies(beta, u, engine=engine) == {"trajectory": alone["trajectory"]}
        assert relative_entropies(beta, u) == {"trajectory": alone["trajectory"]}

    def test_partial_trajectory_matches_inverse_chain(self):
        # the n-fold inverse image of T_n equals the inverse image of the
        # (n-1)-st member of the inverse chain, for automorphisms
        for seed in range(12):
            rng = random.Random(seed)
            op, inv = random_automorphism(rng, P1)
            u = random_open_subspace(rng, P1)
            ts = trajectory_subspaces(op, u, 7)
            us = inverse_trajectory_subspaces(op, inv, u, 6)
            for n in range(1, 7):
                lhs = ts[n - 1]
                for _ in range(n):
                    lhs = automorphism_image(inv, lhs, op.width)
                rhs = automorphism_image(inv, us[n - 1], op.width)
                assert lhs == rhs


class TestCertificates:
    """Every certificate entry is the codimension of the reference chain."""

    PROFILES = [
        Profile.constant(F2, 1),
        Profile.constant(F2, 2),
        Profile.constant(F3, 1),
        Profile.constant(F3, 2),
        Profile.from_dims(F2, {-1: 1, 0: 2, 1: 1, 2: 3}, 2, 2),
    ]

    @staticmethod
    def _cases():
        for i, profile in enumerate(TestCertificates.PROFILES):
            for seed in range(10):
                rng = random.Random(1000 * i + seed)
                op, inv = random_automorphism(rng, profile)
                yield op, inv, random_open_subspace(rng, profile, tail_lo=-2)

    def test_trajectory_certificate_is_chain_codimensions(self):
        for op, inv, u in self._cases():
            for phi in (op, inv):
                r = trajectory_relative_entropy(phi, u)
                chain = trajectory_subspaces(phi, u, len(r.certificate) + 1)
                codims = [open_quotient_dim(b, a) for a, b in zip(chain, chain[1:])]
                assert list(r.certificate) == codims

    def test_limit_free_certificate_is_inverse_chain_codimensions(self):
        for op, inv, u in self._cases():
            for phi, phi_inv in ((op, inv), (inv, op)):
                r = limit_free_relative_entropy(phi, phi_inv, u)
                chain = inverse_trajectory_subspaces(phi, phi_inv, u, len(r.certificate))
                codims = [
                    open_quotient_dim(b, automorphism_image(phi_inv, a, phi.width))
                    for a, b in zip(chain, chain[1:])
                ]
                assert list(r.certificate) == codims


class TestActiveBlock:
    """The chain loop keeps an active block; the full-window loop is its reference."""

    FIELDS = [F2, F3, PrimeField(2**31 - 1), QQ]
    CFG = EntropyConfig(max_chain_index=4, max_trajectory_steps=24)

    @staticmethod
    def _results(op, inv, endo, subspaces, cfg):
        out = []
        for c in subspaces:
            out.append(trajectory_relative_entropy(op, c, cfg))
            out.append(limit_free_relative_entropy(op, inv, c, cfg))
            out.append(limit_free_relative_entropy(inv, op, c, cfg))
            out.append(trajectory_relative_entropy(endo, c, cfg))
        out.append(total_entropy(op, cfg, inverse=inv))
        out.append(total_entropy(endo, cfg))
        return [(r.value, r.status, r.certificate, r.iterations) for r in out]

    def test_matches_full_window_loop(self, monkeypatch):
        import llcent.gf2rows as gf2rows

        brought_back = []  # (packed, rows) of every re-merge

        def count(kernels, packed):
            real = kernels.bring_back

            def counting(self, *args):
                rows = real(self, *args)
                brought_back.append((packed, len(rows)))
                return rows

            monkeypatch.setattr(kernels, "bring_back", counting)

        count(entropy_module._ArrayRows, False)
        count(gf2rows.ChainRows, True)
        fields_seen, checked = set(), 0
        for seed in range(12):
            rng = random.Random(seed)
            field = self.FIELDS[seed % 4]
            if seed % 8 >= 6:
                d_right = 1 if field is QQ else 2
                profile = Profile.from_dims(field, {-1: 1, 0: 2, 1: 0, 2: 3}, 2, d_right)
            else:
                profile = Profile.constant(field, rng.choice([1, 2]))
            op, inv = random_automorphism(rng, profile)
            width = 1 if field is QQ else rng.choice([2, 3])
            # GF(2) seeds 4 and 8 draw degenerate right blocks, on which
            # echelon and reduced front states can repeat at different steps
            make = degenerate_endomorphism if field is F2 and seed else random_endomorphism
            endo = make(rng, profile, width=width, boundary=rng.randint(0, 3))
            subspaces = [cofinal_chain(profile, 0), cofinal_chain(profile, 2)]
            subspaces += [random_open_subspace(rng, profile, tail_lo=-4, top_hi=4) for _ in range(2)]
            got = self._results(op, inv, endo, subspaces, self.CFG)
            with monkeypatch.context() as m:
                m.setattr(entropy_module, "_grow_chain", grow_chain_full_window)
                want = self._results(op, inv, endo, subspaces, self.CFG)
            assert got == want, f"seed {seed}"
            fields_seen.add(field)
            checked += len(got)
        assert fields_seen == set(self.FIELDS) and checked == 12 * 18
        for packed in (False, True):
            assert sum(n for kind, n in brought_back if kind is packed), f"no re-merge (packed: {packed})"

    def test_left_plus_right_shift_remerges(self, monkeypatch):
        # e_n -> e_{n-1} + e_{n+1}: from U_0 the new rows are e_1, e_2, then
        # e_2 maps onto e_1 + e_3, below the block, and e_1 comes back.
        # Declared with band 2, so the leading edge never stops the chain
        # at step 2; the wider tail gives step 1 two image rows.  GF(2) runs
        # the packed loop, GF(3) the array loop.
        calls = []
        _record_merges(monkeypatch, lambda rank, rows: calls.append((rank, rows)))
        for field in (F2, F3):
            p = Profile.constant(field, 1)
            op = _widened(operator_add(make_shift(p, "right"), make_shift(p, "left")), 2)
            u = cofinal_chain(p, 0)
            calls.clear()
            r = trajectory_relative_entropy(op, u, EntropyConfig(max_trajectory_steps=6))
            assert r.certificate == (1,) * 6 and r.status is Status.LOWER_BOUND
            # step 2 sets e_1 aside; step 3 brings it back to the block {e_2},
            # then adds e_3 (the full window would merge into ranks 0, 1, 2, 3)
            assert calls[:4] == [(0, 2), (0, 1), (1, 1), (2, 1)], field
            with monkeypatch.context() as m:
                m.setattr(entropy_module, "_grow_chain", grow_chain_full_window)
                assert trajectory_relative_entropy(op, u, EntropyConfig(max_trajectory_steps=6)) == r


def _summary(r):
    return (r.value, r.status, r.certificate, r.iterations)


class TestFrontRepeat:
    """Right of b_hi a repeated front state stops the stepping; the full-window
    loop, which never stops early, is the reference."""

    FIELDS = [F2, F3, PrimeField(2**31 - 1), QQ]

    @staticmethod
    def _record_fills(monkeypatch):
        """(steps taken, result) of every run the repeat stopped."""
        fills = []
        real_fill = entropy_module._fill_repeated

        def recording(readings, cfg, horizon, u):
            stepped = len(readings)
            r = real_fill(readings, cfg, horizon, u)
            fills.append((stepped, r))
            return r

        monkeypatch.setattr(entropy_module, "_fill_repeated", recording)
        return fills

    @staticmethod
    def _results(op, inv, endo, subspaces, cfg):
        out = []
        for c in subspaces:
            out.append(trajectory_relative_entropy(op, c, cfg))
            out.append(limit_free_relative_entropy(op, inv, c, cfg))
            out.append(trajectory_relative_entropy(endo, c, cfg))
        return [_summary(r) for r in out]

    def test_matches_full_window_loop(self, monkeypatch):
        fills = self._record_fills(monkeypatch)
        real_repeats, states = entropy_module._front_repeats, set()

        def hashing(front, prev):
            if front is not None:
                states.add(front)  # every kernel's front state is hashable
            return real_repeats(front, prev)

        monkeypatch.setattr(entropy_module, "_front_repeats", hashing)
        fields_seen, checked = set(), 0
        for seed in range(10):
            rng = random.Random(seed)
            field = self.FIELDS[seed % 4]
            if seed % 5 == 4:
                profile = Profile.from_dims(field, {-1: 1, 0: 2, 1: 0, 2: 3}, 2, 1)
            else:
                profile = Profile.constant(field, rng.choice([1, 2]))
            op, inv = random_automorphism(rng, profile)
            endo = random_endomorphism(rng, profile, width=1, boundary=rng.randint(0, 2))
            subspaces = [cofinal_chain(profile, 0), cofinal_chain(profile, 1)]
            subspaces.append(random_open_subspace(rng, profile, tail_lo=-2, top_hi=2))
            for streak in (1, 2, 3):
                for cap in (4, 9, 16):
                    cfg = EntropyConfig(plateau_streak=streak, max_trajectory_steps=cap)
                    got = self._results(op, inv, endo, subspaces, cfg)
                    with monkeypatch.context() as m:
                        m.setattr(entropy_module, "_grow_chain", grow_chain_full_window)
                        want = self._results(op, inv, endo, subspaces, cfg)
                    assert got == want, f"seed {seed}, streak {streak}, cap {cap}"
                    checked += len(got)
            fields_seen.add(field)
        assert fields_seen == set(self.FIELDS) and checked == 10 * 9 * 9
        assert {len(key.full()) for _, key in states} == {2, 5}  # the packed and the array keys
        # the stop fired, saved steps, and filled runs ended both ways
        assert any(r.iterations > stepped for stepped, r in fills)
        assert {r.status for _, r in fills} == {Status.PLATEAU, Status.LOWER_BOUND}

    def test_right_shift_stops_at_step_3(self, monkeypatch):
        # C_1 under e_n -> e_{n+1}, declared with band 2 so that the leading
        # edge cannot stop it: the block above lo holds nothing and the
        # images are one unit row, so step 3 (lo = 3) repeats step 2 (lo = 2
        # = b_hi) one level up; the plateau still waits for the horizon 11.
        # GF(2) runs the packed loop, GF(3) the array loop.
        merges = []
        _record_merges(monkeypatch, lambda rank, rows: merges.append(rows))
        fills = self._record_fills(monkeypatch)
        for field in (F2, F3):
            p = Profile.constant(field, 1)
            op, u = _widened(make_shift(p, "right"), 2), cofinal_chain(p, 1)
            merges.clear()
            fills.clear()
            r = trajectory_relative_entropy(op, u)
            assert _summary(r) == (1, Status.PLATEAU, (1,) * 13, 13)
            assert merges == [3, 1, 1] and [stepped for stepped, _ in fills] == [3], field
            with monkeypatch.context() as m:
                m.setattr(entropy_module, "_grow_chain", grow_chain_full_window)
                assert _summary(trajectory_relative_entropy(op, u)) == _summary(r)

    def test_repeat_below_b_hi_does_not_stop(self, monkeypatch):
        # e_n -> e_{n+1}, except that the boundary column at level 8 is zero:
        # from U_0 the front state repeats one level up at every step, as for
        # the right shift, but left of b_hi = 8 the operator is not yet
        # stationary; the chain gains 1 per step until e_8 maps to 0
        fills = self._record_fills(monkeypatch)
        columns = {n: [LlcVector.unit(P1, n + 1, 0)] for n in range(-1, 8)}
        columns[8] = [LlcVector.zero(P1)]
        op = BandedOperator(P1, 1, {1: [[1]]}, {1: [[1]]}, columns)
        u = cofinal_chain(P1, 0)
        r = trajectory_relative_entropy(op, u)
        assert _summary(r) == (0, Status.EXACT, (1,) * 8 + (0,), 9)
        assert fills == []
        monkeypatch.setattr(entropy_module, "_grow_chain", grow_chain_full_window)
        assert _summary(trajectory_relative_entropy(op, u)) == _summary(r)

    def test_echelon_state_repeats_later_than_the_reduced_one(self, monkeypatch):
        # the packed block is an echelon basis, not a canonical one: on this
        # operator its front state first repeats at step 10, where reducing
        # every merge (the canonical state) repeats at step 7; both stops
        # give the full window's result
        import llcent.gf2rows as gf2rows

        fills = self._record_fills(monkeypatch)
        op = degenerate_endomorphism(random.Random(27), Profile.constant(F2, 2), width=3, boundary=0)
        u = cofinal_chain(op.profile, 0)
        r = trajectory_relative_entropy(op, u)
        real = gf2rows.merge

        def reduced_merge(block, rows):
            merged, added = real(block, rows)
            reduced, new = gf2rows.echelon(merged.values()), {x & -x for x in added}
            return {x & -x: x for x in reduced}, [x for x in reduced if x & -x in new]

        with monkeypatch.context() as m:
            m.setattr(gf2rows, "merge", reduced_merge)
            reduced = trajectory_relative_entropy(op, u)
        assert [stepped for stepped, _ in fills] == [10, 7]
        assert _summary(r) == _summary(reduced) == (2, Status.PLATEAU, (4, 4, 4, 3) + (2,) * 19, 23)
        monkeypatch.setattr(entropy_module, "_grow_chain", grow_chain_full_window)
        assert _summary(trajectory_relative_entropy(op, u)) == _summary(r)


class TestFrontKey:
    """Front keys hash by top - lo and the row counts, and are equal exactly
    when the states are, relative to lo: the packed block as a set of rows,
    the images in order."""

    def test_packed_keys(self):
        # d = 2 from level 0 on, a0 = 0: the bit of lo is 2 lo
        kernels = ChainRows(make_shift(Profile.constant(F2, 2), "right"), 0)
        rows, images = [0b0111, 0b1010, 0b10000], [0b1100, 0b100001]

        def state(lo, order, imgs, top_above=4):
            at = 2 * lo
            block = {r << at & -(r << at): r << at for r in order}
            return lo, FrontKey(*kernels.front(lo, lo + top_above, block, [x << at for x in imgs]))

        lo, key = state(3, rows, images)
        shifted = state(5, rows[::-1], images)  # the block's rows entered in another order
        assert shifted[0] == 5 and shifted[1] == key and hash(shifted[1]) == hash(key)
        assert {key: 1}[shifted[1]] == 1  # a dict of past keys finds it
        assert state(5, rows, images[::-1])[1] != key  # the images in another order
        assert state(5, rows[:2], images)[1] != key
        assert state(5, rows, images, top_above=5)[1] != key
        assert state(5, [rows[0], rows[1], 0b10100], images)[1] != key

    @pytest.mark.parametrize("field", [PrimeField(3), QQ])
    def test_array_keys(self, field):
        def front(lo, top, basis, rows):
            return lo, FrontKey(*entropy_module._ArrayRows.front(lo, top, basis, rows))

        basis = SubspaceBasis.span(field, field.array([[1, 2, 0, 1], [0, 0, 1, 1]]))
        other = SubspaceBasis.span(field, field.array([[1, 2, 0, 1], [0, 0, 1, 2]]))
        images = field.array([[0, 1, 1, 2, 1]])
        _, key = front(2, 6, basis, images)
        _, same = front(4, 8, SubspaceBasis.span(field, field.array([[0, 0, 1, 1], [1, 2, 0, 1]])), images.copy())
        assert same == key and hash(same) == hash(key) and {key: 1}[same] == 1
        assert front(4, 8, other, images)[1] != key
        assert front(4, 8, basis, field.array([[0, 1, 1, 2, 2]]))[1] != key
        assert front(4, 9, basis, images)[1] != key

    def test_full_parts_built_only_when_the_cheap_ones_agree(self):
        def never():
            raise AssertionError("full key built")

        assert FrontKey((3, 2, 1), never) != FrontKey((3, 2, 2), never)
        made = []
        a, b = (FrontKey((3, 2, 1), lambda v=v: made.append(v) or v) for v in ("x", "y"))
        assert a != b and made == ["x", "y"]
        assert a != b and made == ["x", "y"]  # each full key is built once


class TestEdgeStop:
    """Right of b_hi, images whose part above the chain's top carries the
    whole gain, and keeps its rank under every power of the edge map, stop
    the stepping; the full-window loop is the reference."""

    FIELDS = [F2, F3, PrimeField(5), PrimeField(2**31 - 1), QQ]

    @staticmethod
    def _record(monkeypatch):
        """(rows of every merge, steps taken before each fill, stop reasons)."""
        merges, fills, reasons = [], [], []
        real_fill, real_fixed = entropy_module._fill_repeated, entropy_module._readings_fixed

        def fill(readings, cfg, horizon, u):
            fills.append(len(readings))
            return real_fill(readings, cfg, horizon, u)

        def fixed(front, prev, edge):
            reason = real_fixed(front, prev, edge)
            if reason:
                reasons.append(reason)
            return reason

        _record_merges(monkeypatch, lambda rank, rows: merges.append(rows))
        monkeypatch.setattr(entropy_module, "_fill_repeated", fill)
        monkeypatch.setattr(entropy_module, "_readings_fixed", fixed)
        return merges, fills, reasons

    @staticmethod
    def _full_window(monkeypatch, run):
        with monkeypatch.context() as m:
            m.setattr(entropy_module, "_grow_chain", grow_chain_full_window)
            return _summary(run())

    def test_right_shift_stops_at_step_2(self, monkeypatch):
        # U_0 under e_n -> e_{n+1}: step 2 maps the new row e_1 onto e_2,
        # above the top t = 1 = b_hi, and Psi = R_1 = 1 keeps its rank; on
        # the packed loop (GF(2)) and the array loop (GF(3))
        merges, fills, reasons = self._record(monkeypatch)
        for field in (F2, F3):
            p = Profile.constant(field, 1)
            op, u = make_shift(p, "right"), cofinal_chain(p, 0)
            for seen in (merges, fills, reasons):
                seen.clear()
            r = trajectory_relative_entropy(op, u)
            assert _summary(r) == (1, Status.PLATEAU, (1,) * 8, 8)
            assert merges == [1, 1] and fills == [2] and reasons == ["a full-rank leading edge"], field
            assert self._full_window(monkeypatch, lambda: trajectory_relative_entropy(op, u)) == _summary(r)

    def test_nilpotent_leading_block_does_not_stop(self, monkeypatch):
        # e_{n,0} -> e_{n+1,0} up to b_hi = 1, right of it e_{n,0} -> e_{n+1,1}
        # and e_{n,1} -> 0: from U_0 steps 2 and 3 map one row onto a
        # one-row edge of rank 1 with t >= b_hi (conditions A and B), but
        # Psi = R_1 transposed is nilpotent, so C refuses, and rightly:
        # the chain gains nothing at step 4; on the packed loop (GF(2)) and
        # the array loop (GF(3))
        merges, fills, reasons = self._record(monkeypatch)
        for field in (F2, F3):
            profile = Profile.constant(field, 2)
            columns = {n: [LlcVector.unit(profile, n + 1, 0), LlcVector.zero(profile)] for n in range(-1, 2)}
            op = BandedOperator(profile, 1, {1: [[1, 0], [0, 0]]}, {1: [[0, 0], [1, 0]]}, columns)
            u = cofinal_chain(profile, 0)
            for seen in (merges, fills, reasons):
                seen.clear()
            r = trajectory_relative_entropy(op, u)
            assert _summary(r) == (0, Status.EXACT, (1, 1, 1, 0), 4)
            assert merges == [2, 1, 1] and fills == [] and reasons == [], field
            assert self._full_window(monkeypatch, lambda: trajectory_relative_entropy(op, u)) == _summary(r)
            # without C the edge of step 2 would have stopped the chain at gain 1
            with monkeypatch.context() as m:
                m.setattr(BandedOperator, "right_edge_power", lambda self: self.profile.field.eye(2))
                assert trajectory_relative_entropy(op, u).value == 1

    def test_edge_sits_at_its_levels(self):
        # d = 2, w = 2, right of b_hi = 2: e_{n,0} -> e_{n+2,0} and
        # e_{n,1} -> e_{n+1,0}.  Above t = 5 a one-row edge holding slot 1
        # at level 7 maps onto slot 0 at level 8, inside the next edge
        # (levels 8 and 9), and slot 0 moves up two levels for ever: C
        # holds.  The same row at level 6 maps onto level 7, and the next
        # edge gets nothing: C fails.  E must be read at its own levels.
        profile = Profile.constant(F3, 2)
        columns = {
            n: [LlcVector.unit(profile, n + 2, 0), LlcVector.unit(profile, n + 1, 0)] for n in range(-2, 3)
        }
        op = BandedOperator(profile, 2, {}, {2: [[1, 0], [0, 0]], 1: [[0, 1], [0, 0]]}, columns)
        edge = entropy_module._ArrayRows(op, 0).edge
        assert edge(F3.array([[0, 1]]), 6, 7, 5, 1)
        assert not edge(F3.array([[0, 1]]), 5, 6, 5, 1)

    @staticmethod
    def _degenerate_lead(rng, op):
        """op with its leading right block zero, of rank 1 or strictly triangular."""
        f, d, w = op.profile.field, op.profile.d_right, op.width
        kind = rng.choice(("zero", "rank one", "triangular"))
        if kind == "zero" or (kind == "rank one" and d == 1):
            lead = f.zeros(d, d)
        elif kind == "rank one":
            lead = f.normalize(f.matmul(random_matrix(rng, f, d, 1), random_matrix(rng, f, 1, d)))
        else:
            lead = op.right_blocks[w].copy()
            lead[np.tril_indices(d)] = f.zero
        return BandedOperator(op.profile, w, op.left_blocks, {**op.right_blocks, w: lead}, op.columns)

    def test_stress_against_full_window(self, monkeypatch):
        # random automorphism pairs through both engines and random
        # endomorphisms, half of all instances with a degenerate leading
        # right block, on C_0..C_2 with random caps and streaks; every
        # result must be the full window's, and both stops must fire.
        # Without condition C, 14 of these 720 runs go wrong.
        merges, fills, reasons = self._record(monkeypatch)
        runs = []
        for seed in range(120):
            rng = random.Random(seed)
            field = self.FIELDS[seed % 5]
            d = rng.randint(1, 2 if field is QQ else 3)
            if seed % 3 == 2:
                profile = Profile.constant(field, d)
                op, inv = random_automorphism(rng, profile)
                runs += [(trajectory_relative_entropy, (op,)), (trajectory_relative_entropy, (inv,))]
                runs += [(limit_free_relative_entropy, (op, inv)), (limit_free_relative_entropy, (inv, op))]
            else:
                if seed % 3:
                    dims = {-1: rng.randint(0, 2), 0: rng.randint(1, 3), 1: rng.randint(0, 2)}
                    profile = Profile.from_dims(field, dims, rng.randint(1, 2), d)
                else:
                    profile = Profile.constant(field, d)
                width = rng.randint(1, 2 if field is QQ else 3)
                # half of the GF(2) endomorphisms have degenerate right blocks,
                # on which echelon and reduced front states can repeat at
                # different steps
                make = degenerate_endomorphism if field is F2 and seed % 10 == 0 else random_endomorphism
                op = make(rng, profile, width=width, boundary=rng.randint(0, 2))
                if seed % 3 == 0 or seed % 2:
                    op = self._degenerate_lead(rng, op)
                runs.append((trajectory_relative_entropy, (op,)))
            cfg = EntropyConfig(plateau_streak=rng.randint(1, 3), max_trajectory_steps=rng.randint(6, 64))
            for m in range(3):
                u = cofinal_chain(profile, m)
                for engine, ops in runs:
                    got = _summary(engine(*ops, u, cfg))
                    want = self._full_window(monkeypatch, lambda: engine(*ops, u, cfg))
                    assert got == want, f"seed {seed}, C_{m}, {engine.__name__}"
            runs.clear()
        assert reasons.count("a full-rank leading edge") >= 100
        assert reasons.count("a repeated front state") >= 10


class TestEdgeMemo:
    """Once the rank test C of the leading-edge stop fails, the chain loop
    skips it at the next step if the gain stays g and the top moves up by
    the width w, where it cannot pass; any other step tests again."""

    # the two-speed endo_fields shapes: (seed, p, d, w) of
    # random_endomorphism(Random(seed), GF(p)^d, width=w)
    TWO_SPEED = [(0, 2, 4, 3), (2, 2**31 - 1, 4, 2)]

    @staticmethod
    def _trace(monkeypatch):
        """Per chain step, in both kernel formats: the trimmed images, the
        block's top (from the last step's `images`), the edge call's
        (t, g, result), if any, and the unpatched edge test."""
        import llcent.gf2rows as gf2rows

        steps = []
        for kernels in (entropy_module._ArrayRows, gf2rows.ChainRows):
            real_trim, real_edge, real_images = kernels.trim, kernels.edge, kernels.images

            def trim(self, rows, lo, top, real=real_trim, real_edge=real_edge):
                out = real(self, rows, lo, top)
                t = steps[-1]["next_top"] if steps and "next_top" in steps[-1] else None
                steps.append({"images": out, "top": t, "edge": partial(real_edge, self)})
                return out

            def edge(self, rows, lo, top, t, g, real=real_edge):
                out = real(self, rows, lo, top, t, g)
                steps[-1]["call"] = (t, g, out)
                return out

            def images(self, basis, added, lo, top, real=real_images):
                steps[-1]["next_top"] = top
                return real(self, basis, added, lo, top)

            monkeypatch.setattr(kernels, "trim", trim)
            monkeypatch.setattr(kernels, "edge", edge)
            monkeypatch.setattr(kernels, "images", images)
        return steps

    @staticmethod
    def _check_rule(steps, r, w):
        """Every step from the second on ran the test unless the rule allows
        the skip, and a skipped test would not have passed.  Returns the
        number of tests run."""
        gains = r.certificate  # the trajectory engine reads the gain itself
        fails, calls = None, 0
        for s, step in enumerate(steps[1:]):
            t, g = step["top"], gains[s]
            assert t is not None
            if fails == (t, g):
                assert "call" not in step, f"step {s + 2} tested again at {(t, g)}"
                assert step["edge"](*step["images"], t, g) is not True
                outcome = False
            else:
                assert step["call"][:2] == (t, g), f"step {s + 2} skipped"
                outcome, calls = step["call"][2], calls + 1
            fails = (t + w, g) if outcome is False else None
        return calls

    def test_two_speed_shapes_match_full_window(self, monkeypatch):
        # their readings settle by step 2, but the fronts never repeat and C
        # fails: the loop steps to the plateau horizon, testing C once or
        # twice per chain instead of at every step
        steps = self._trace(monkeypatch)
        for seed, p, d, w in self.TWO_SPEED:
            op = random_endomorphism(random.Random(seed), Profile.constant(PrimeField(p), d), width=w)
            for m in range(6):
                u = cofinal_chain(op.profile, m)
                steps.clear()
                r = trajectory_relative_entropy(op, u)
                calls = self._check_rule(steps, r, w)
                assert 1 <= calls <= 2 and r.iterations >= 27, (seed, m, calls, r.iterations)
                with monkeypatch.context() as patch:
                    patch.setattr(entropy_module, "_grow_chain", grow_chain_full_window)
                    assert _summary(trajectory_relative_entropy(op, u)) == _summary(r), (seed, m)
        # GF(2), C_0: C fails at t = 3 after a gain of 10, then at t = 6 after
        # the gain fell to 8; the top then rises by 3 at every step
        op = random_endomorphism(random.Random(0), Profile.constant(F2, 4), width=3)
        steps.clear()
        r = trajectory_relative_entropy(op, cofinal_chain(op.profile, 0))
        assert [step["call"] for step in steps if "call" in step] == [(3, 10, False), (6, 8, False)]
        assert r.iterations == 37

    def test_rule_holds_across_operators(self, monkeypatch):
        # generic and degenerate operators over both formats, on C_0..C_2:
        # each step runs or skips the test exactly as the rule says
        steps = self._trace(monkeypatch)
        skipped = 0
        for seed in range(40):
            rng = random.Random(seed)
            field = PrimeField(rng.choice([2, 3]))
            d, w = rng.randint(1, 3), rng.randint(1, 3)
            make = degenerate_endomorphism if seed % 2 else random_endomorphism
            op = make(rng, Profile.constant(field, d), width=w, boundary=rng.randint(0, 3))
            for m in range(3):
                steps.clear()
                r = trajectory_relative_entropy(op, cofinal_chain(op.profile, m))
                skipped += len(steps) - 1 - self._check_rule(steps, r, w)
        assert skipped >= 100

    @pytest.mark.parametrize("seed, p, m", [(138, 2, 0), (156, 3, 0)])
    def test_stalled_top_tests_again(self, monkeypatch, seed, p, m):
        # p, d = 2, the width w (2, then 3) and the boundary drawn from
        # Random(seed), as test_rule_holds_across_operators draws them: C
        # fails at step 3 with top t, and step 4 gains the same, but its top
        # stalls short of t + w.  Its edge then also holds images of rows
        # below t, the bound of the skip does not hold, and C passes there:
        # the leading edge stops the chain at step 4
        steps = self._trace(monkeypatch)
        rng = random.Random(seed)
        field = PrimeField(rng.choice([2, 3]))
        d, w = rng.randint(1, 3), rng.randint(1, 3)
        assert (field.p, d) == (p, 2)
        op = random_endomorphism(rng, Profile.constant(field, d), width=w, boundary=rng.randint(0, 3))
        u = cofinal_chain(op.profile, m)
        r = trajectory_relative_entropy(op, u)
        (t, g, failed), (t4, g4, passed) = steps[2]["call"], steps[3]["call"]
        assert failed is False and passed is True and g4 == g and t < t4 < t + w
        self._check_rule(steps, r, w)
        with monkeypatch.context() as patch:
            patch.setattr(entropy_module, "_grow_chain", grow_chain_full_window)
            assert _summary(trajectory_relative_entropy(op, u)) == _summary(r)


class TestTotalEntropy:
    def test_bernoulli_values(self):
        beta, lam = make_shift(P1, "right"), make_shift(P1, "left")
        assert total_entropy(beta, inverse=lam).value == 1
        assert total_entropy(lam, inverse=beta).value == 0

    def test_dimension_scaling(self):
        for d in (2, 3):
            p = Profile.constant(F2, d)
            assert total_entropy(make_shift(p, "right")).value == d
            assert total_entropy(make_shift(p, "left")).value == 0

    def test_identity_on_assorted_profiles(self):
        profiles = [
            P1,
            Profile.constant(F3, 2),
            Profile(F2, 1, (1, 2, 1), 2, -1, 1),
            Profile(F2, 0, (0, 1), 1, 0, 1),
            Profile(F2, 2, (2, 0), 0, 0, 1),
        ]
        for p in profiles:
            assert total_entropy(identity_operator(p)).value == 0

    def test_linearly_compact_vanishing(self):
        rng = random.Random(7)
        compact = Profile(F2, 2, (2, 1, 0), 0, -1, 1)
        for _ in range(10):
            op = random_endomorphism(rng, compact, width=rng.randint(1, 2))
            r = total_entropy(op)
            assert r.value == 0

    def test_chain_values_non_decreasing(self):
        for seed in range(10):
            rng = random.Random(seed)
            op = random_endomorphism(rng, P1, width=1)
            r = total_entropy(op)
            cert = list(r.certificate)
            assert cert == sorted(cert)

    def test_monotone_in_subspace(self):
        beta = make_shift(P1, "right")
        values = [
            trajectory_relative_entropy(beta, cofinal_chain(P1, m)).value for m in range(6)
        ]
        assert values == sorted(values)

    def test_witness_achieves_value(self):
        beta = make_shift(P1, "right")
        r = total_entropy(beta)
        assert trajectory_relative_entropy(beta, r.witness).value == r.value

    def test_lower_bound_at_cap(self):
        beta = make_shift(P1, "right")
        r = total_entropy(beta, EntropyConfig(max_chain_index=1))
        assert r.status is Status.LOWER_BOUND
        assert r.value == 1

    @pytest.mark.parametrize("bound_at", [0, 2, None], ids=["index_0", "index_2", "every_index"])
    def test_both_reads_the_limit_free_result_where_the_trajectory_is_a_bound(self, monkeypatch, bound_at):
        # a trajectory reading cut to a LowerBound (and too high) is replaced
        # by the limit-free one at that index, so the sweep stays reliable
        beta, lam = make_shift(P1, "right"), make_shift(P1, "left")
        limit_free = total_entropy(beta, inverse=lam, engine="limitfree")
        real = entropy_module.trajectory_relative_entropy

        def bounded(op, u, cfg):
            r = real(op, u, cfg)
            if bound_at is not None and u != cofinal_chain(P1, bound_at):
                return r
            return EntropyResult(r.value + 5, Status.LOWER_BOUND, r.certificate, r.witness, r.iterations)

        monkeypatch.setattr(entropy_module, "trajectory_relative_entropy", bounded)
        r = total_entropy(beta, inverse=lam, engine="both")
        assert r == limit_free  # value, status, certificate, witness and index count

    def test_unknown_engine_name_rejected(self):
        # a misspelt name must not fall back to one engine and skip the cross-check
        beta, lam = make_shift(P1, "right"), make_shift(P1, "left")
        for name in ("limit-free", "Both", "traj", ""):
            with pytest.raises(ValueError, match="unknown engine"):
                total_entropy(beta, inverse=lam, engine=name)
            with pytest.raises(ValueError, match="unknown engine"):
                total_entropy(beta, engine=name)

    @pytest.mark.parametrize("engine", ["both", "limitfree"])
    def test_bad_inverse_rejected_before_the_chain(self, engine):
        beta = make_shift(P1, "right")
        cases = [
            (NotAnInverse, beta),
            (ProfileMismatch, make_shift(Profile.constant(F2, 2), "left")),
        ]
        for error, inverse in cases:
            with pytest.raises(error):
                total_entropy(beta, inverse=inverse, engine=engine)

    @pytest.mark.parametrize("engine", ["both", "limitfree"])
    def test_inverse_pair_verified_once(self, engine, monkeypatch):
        calls = []
        real = entropy_module.verify_inverse
        monkeypatch.setattr(entropy_module, "verify_inverse", lambda f, g: calls.append(1) or real(f, g))
        r = total_entropy(make_shift(P1, "right"), inverse=make_shift(P1, "left"), engine=engine)
        assert r.value == 1 and r.iterations > 1
        assert len(calls) == 1

    def test_verified_pair_kept_across_calls(self, monkeypatch):
        calls = []
        real = entropy_module.verify_inverse
        monkeypatch.setattr(entropy_module, "verify_inverse", lambda f, g: calls.append(1) or real(f, g))
        op, inv = make_shift(P1, "right"), make_shift(P1, "left")
        u = cofinal_chain(P1, 1)
        for _ in range(2):
            relative_entropies(op, u, inverse=inv)
        assert len(calls) == 1
        # a pair that fails is not kept: it is checked and rejected on every call
        for _ in range(2):
            with pytest.raises(NotAnInverse):
                relative_entropies(op, u, inverse=op)
        assert len(calls) == 3

    def test_each_operator_validated_once(self, monkeypatch):
        # one validate call per construction, none from the engines
        calls = []
        real = operators_module.validate
        monkeypatch.setattr(operators_module, "validate", lambda op: calls.append(op) or real(op))
        op, inv = make_shift(P1, "right"), make_shift(P1, "left")
        assert calls == [op, inv]
        for engine in ENGINES:
            r = total_entropy(op, inverse=inv, engine=engine)
            assert r.value == 1 and r.iterations > 1
        assert trajectory_relative_entropy(op, cofinal_chain(P1, 0)).value == 1
        assert calls == [op, inv]

    @pytest.mark.parametrize("field", [F2, F3], ids=lambda f: f.name)
    def test_pickled_operator_keeps_its_tables(self, field, monkeypatch):
        # default slot pickling, as the benchmark worker receives operators
        op, inv = random_automorphism(random.Random(2), Profile.constant(field, 2))
        r = total_entropy(op, inverse=inv)
        assert op._inverse is inv and inv._tail_ranks
        assert bool(op._packed) == (field is F2)
        copy = pickle.loads(pickle.dumps(op))
        assert copy._packed == op._packed
        assert copy._inverse == inv and copy._inverse._tail_ranks == inv._tail_ranks
        # the boundary block comes along whole, or is rebuilt the same
        rows, kept = op._block, copy._block
        assert kept is None or (kept.dtype == rows.dtype and np.array_equal(kept, rows))
        window = (op.b_lo - 3, op.b_hi + 2, op.b_lo - 6, op.b_hi + 6)
        assert np.array_equal(_action_rows(copy, *window), _action_rows(op, *window))
        copy._block = None
        assert np.array_equal(_action_rows(copy, *window), _action_rows(op, *window))
        assert np.array_equal(copy._block, rows)
        calls = []
        monkeypatch.setattr(entropy_module, "verify_inverse", lambda f, g: calls.append(1))
        assert total_entropy(copy, inverse=copy._inverse) == r
        assert calls == []  # the pair stays verified

    def test_one_tail_constant_elimination_per_tail(self, monkeypatch):
        import llcent.linalg as linalg

        inside, eliminations = [], []
        real_rref, real_tail = linalg._rref, entropy_module._tail_constant

        def rref(field, a):
            if inside:
                eliminations.append(inside[-1])
            return real_rref(field, a)

        def tail_constant(inverse, tail, a0):
            inside.append((tail, a0))
            try:
                return real_tail(inverse, tail, a0)
            finally:
                inside.pop()

        monkeypatch.setattr(linalg, "_rref", rref)
        monkeypatch.setattr(entropy_module, "_tail_constant", tail_constant)
        p = Profile.constant(F3, 2)
        op, inv = random_automorphism(random.Random(5), p)
        r = total_entropy(op, inverse=inv)
        assert r.iterations > 1
        assert eliminations == [(0, -op.width)]
        # kept on the inverse: a second sweep eliminates nothing for c
        assert total_entropy(op, inverse=inv, engine="limitfree") == r
        assert len(eliminations) == 1
        # one more per new tail, however often it is asked for
        for _ in range(2):
            for tail in (-1, -2):
                u = CompactOpenSubspace.make(p, tail)
                lf = limit_free_relative_entropy(op, inv, u)
                assert lf.value == trajectory_relative_entropy(op, u).value
        assert eliminations == [(0, -op.width), (-1, -1 - op.width), (-2, -2 - op.width)]


class TestLatePlateau:
    """ROADMAP item 1: with degenerate right blocks H(phi, C_m) can still rise
    at m = b_hi + width, after the chain-index plateau that the default
    stop accepts (b = [-3, 3], width 3 here: the rise is at m = 6)."""

    # (seed, d, ent): degenerate_endomorphism(Random(seed), GF(3)^d, width=3, boundary=3)
    CASES = [(9, 1, 3), (10, 1, 3), (16, 1, 3), (13, 2, 5)]

    @staticmethod
    def _op(seed, d):
        return degenerate_endomorphism(random.Random(seed), Profile.constant(F3, d), width=3, boundary=3)

    @pytest.mark.parametrize("seed, d, ent", CASES)
    def test_long_sweep_rises_at_b_hi_plus_width(self, seed, d, ent):
        op = self._op(seed, d)
        m = op.b_hi + op.width
        r = total_entropy(op, EntropyConfig(plateau_streak=8, max_chain_index=20))
        assert (r.value, r.status) == (ent, Status.PLATEAU)
        assert r.certificate == (ent - 1,) * m + (ent,) * 8

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the chain-index plateau stops before m = b_hi + width")
    @pytest.mark.parametrize("seed, d, ent", CASES)
    def test_default_config_reads_the_late_value(self, seed, d, ent):
        assert total_entropy(self._op(seed, d)).value == ent

    @staticmethod
    def _generic():
        """A generic operator: p, width and d drawn from Random(80004) in
        that order, then random_endomorphism with the default boundary."""
        rng = random.Random(80004)
        p, width, d = rng.choice([2, 3, 5]), rng.randint(1, 3), rng.randint(1, 3)
        return random_endomorphism(rng, Profile.constant(PrimeField(p), d), width=width)

    def test_generic_long_sweep_rises_at_b_hi_plus_width(self):
        # GF(3), d = 2, width 3, b = [-3, 3]: no degenerate block, and the
        # rise still comes at m = 6
        op = self._generic()
        assert (op.profile.field, op.profile.d_right, op.width, op.b_lo, op.b_hi) == (F3, 2, 3, -3, 3)
        r = total_entropy(op, EntropyConfig(plateau_streak=8, max_chain_index=20))
        assert (r.value, r.status) == (6, Status.PLATEAU)
        assert r.certificate == (3, 4, 4, 5, 5, 5) + (6,) * 8

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 1: the chain-index plateau stops before m = b_hi + width, on generic operators too",
    )
    def test_generic_default_config_reads_the_late_value(self):
        assert total_entropy(self._generic()).value == 6


class TestDistantSubspace:
    """ROADMAP item 2: on a compact open subspace far left of the operator's
    boundary region the trajectory readings drop after the structural
    horizon, so the default plateau rule accepts a value they later leave."""

    @staticmethod
    def _case():
        """p, width, d and the boundary drawn from Random(303192) in that
        order, then random_endomorphism, and U = U_{-7}."""
        rng = random.Random(303192)
        p, width, d, boundary = rng.choice([2, 3]), rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, 3)
        profile = Profile.constant(PrimeField(p), d)
        op = random_endomorphism(rng, profile, width=width, boundary=boundary)
        return op, CompactOpenSubspace.make(profile, -7)

    def test_long_run_reaches_the_fixed_point(self):
        # GF(2), d = 2, width 1, b = [-2, 2]: the chain gains 1 for 13 steps,
        # past the default run's plateau, then reaches a fixed point
        op, u = self._case()
        assert (op.profile.field, op.profile.d_right, op.width, op.b_lo, op.b_hi) == (F2, 2, 1, -2, 2)
        r = trajectory_relative_entropy(op, u, EntropyConfig(plateau_streak=40, max_trajectory_steps=600))
        assert _summary(r) == (0, Status.EXACT, (1,) * 13 + (0,), 14)
        r = trajectory_relative_entropy(op, CompactOpenSubspace.make(op.profile, -6))
        assert _summary(r) == (0, Status.EXACT, (1,) * 12 + (0,), 13)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 2: the structural horizon ignores how far U lies from the boundary region",
    )
    def test_default_config_reads_the_fixed_point(self):
        op, u = self._case()
        assert trajectory_relative_entropy(op, u).value == 0


class TestClosedForms:
    def test_contract_values(self):
        assert shift_closed_form(P1, "right", 1) == 1
        assert shift_closed_form(Profile.constant(F2, 3), "right", 2) == 6
        assert shift_closed_form(Profile.constant(F2, 5), "left", 7) == 0
        assert shift_closed_form(P1, "right", 0) == 0

    def test_matches_engines(self):
        for d in (1, 2):
            p = Profile.constant(F2, d)
            for k in (0, 1, 2):
                beta_k = power(make_shift(p, "right"), k)
                lam_k = power(make_shift(p, "left"), k)
                assert total_entropy(beta_k, inverse=lam_k).value == shift_closed_form(p, "right", k)

    def test_nonconstant_rejected(self):
        ragged = Profile(F2, 1, (1, 2), 2, 0, 1)
        with pytest.raises(NonConstantProfile):
            shift_closed_form(ragged, "right", 1)


DISCRETE = Profile(F2, 0, (0,), 1, 0, 0)


def _one_sided_right_shift():
    return decompose_vc_vd(make_shift(P1, "right")).phi_dd


class TestDiscreteEngine:
    def test_one_sided_shift(self):
        dd = _one_sided_right_shift()
        f = CompactOpenSubspace.make(dd.profile, 0, [LlcVector.unit(dd.profile, 1, 0)])
        r = ent_dim_discrete(dd, f)
        assert r.value == 1
        assert r.value == trajectory_relative_entropy(dd, f).value

    def test_identity(self):
        ident = identity_operator(DISCRETE)
        f = CompactOpenSubspace.make(DISCRETE, 0, [LlcVector.unit(DISCRETE, 2, 0)])
        assert ent_dim_discrete(ident, f).value == 0

    def test_nilpotent_jordan_window(self):
        cols = {-1: [], 0: []}
        for n in range(1, 5):
            img = LlcVector.unit(DISCRETE, n + 1, 0) if n <= 2 else LlcVector.zero(DISCRETE)
            cols[n] = [img]
        jordan = BandedOperator(DISCRETE, 1, {}, {}, cols)
        f = CompactOpenSubspace.make(DISCRETE, 0, [LlcVector.unit(DISCRETE, 1, 0)])
        r = ent_dim_discrete(jordan, f)
        assert (r.value, r.status) == (0, Status.EXACT)
        # trajectory dims stabilize at 3 = the window length
        chain = trajectory_subspaces(jordan, f, 6)
        assert chain[-1].window.rank == 3

    def test_random_agreement_with_trajectory(self):
        disc = Profile(F2, 0, (0, 1, 2), 2, 0, 2)
        for seed in range(20):
            rng = random.Random(seed)
            op = random_endomorphism(rng, disc, width=rng.randint(1, 2))
            gens = []
            for _ in range(rng.randint(1, 3)):
                support = {
                    (n, i): 1
                    for n in range(1, 4)
                    for i in range(disc.dim(n))
                    if rng.random() < 0.4
                }
                gens.append(LlcVector(disc, support))
            f = CompactOpenSubspace.make(disc, 0, gens)
            a = ent_dim_discrete(op, f)
            b = trajectory_relative_entropy(op, f)
            assert a.value == b.value

    def test_rejects_non_discrete(self):
        with pytest.raises(ValueError, match="discrete profile"):
            ent_dim_discrete(make_shift(P1, "right"), cofinal_chain(P1, 0))


class TestFinitePartReduction:
    def test_window_part_carries_the_trajectory(self):
        # T_n(phi, U) = U + T_n(phi, F) for the finite part F of U:
        # window generators plus the band of tail levels just below the cut
        rng = random.Random(73)
        for seed in range(12):
            op = random_endomorphism(random.Random(seed), P1, width=rng.randint(1, 2))
            u = random_open_subspace(rng, P1)
            f_gens = list(u.window_vectors())
            for n in range(u.tail - op.width + 1, u.tail + 1):
                f_gens.append(LlcVector.unit(P1, n, 0))
            engine_chain = trajectory_subspaces(op, u, 5)
            part = list(f_gens)
            for step in range(1, 5):
                rebuilt = open_combine(
                    u, CompactOpenSubspace.make(P1, u.tail, part), "sum"
                )
                assert rebuilt == engine_chain[step - 1]
                part = part + [op.apply(g) for g in part]


class TestUnitConversion:
    def test_log2(self):
        r = total_entropy(make_shift(P1, "right"))
        unit = h_alg_value(r, F2)
        assert abs(unit.value - math.log(2)) < 1e-9
        assert unit.symbolic == "1*log(2)"
        assert unit.decimal == "0.693147"

    def test_zero_and_gf3(self):
        from llcent.entropy import EntropyResult

        zero = EntropyResult(0, Status.EXACT, ())
        assert h_alg_value(zero, F3).value == 0.0
        three = EntropyResult(3, Status.EXACT, ())
        assert abs(h_alg_value(three, F3).value - 3 * math.log(3)) < 1e-12

    def test_rationals_rejected(self):
        from llcent.entropy import EntropyResult

        with pytest.raises(InfiniteField):
            h_alg_value(EntropyResult(1, Status.EXACT, ()), QQ)


class TestConfig:
    def test_caps(self):
        with pytest.raises(ValueError, match="max_trajectory_steps must be >= 1"):
            EntropyConfig(max_trajectory_steps=0)
        with pytest.raises(ValueError, match="max_chain_index must be >= 0"):
            EntropyConfig(max_chain_index=-1)
        with pytest.raises(ValueError, match="plateau_streak must be >= 1"):
            EntropyConfig(plateau_streak=0)
        assert EntropyConfig(max_chain_index=0).max_chain_index == 0


# Forces each engine invariant to break: a fake chain merge whose rank gains
# grow (so increments and codimensions increase), one that ignores its third
# call (the re-merge at step 3 of the e_n -> e_{n-1} + e_{n+1} trajectory,
# see TestActiveBlock), a fake relative engine whose chain values fall,
# composite rows off the stationary rule (compose), vector equality that
# always says no and boundary rows from the deep tail into the discrete
# side (decompose_vc_vd), a chain restriction that returns nothing
# (check_addition), an inverse check that always fails (generators), a
# merge that loses a row at the step where the front state repeats, and one
# that loses a row at the step where the leading edge stops the chain.
# Prints the message each check raised.  The field is argv[1]: over GF(2) the
# fakes replace the packed loop's merge (gf2rows.merge), over GF(3) the array
# loop's (linalg.rref_union).
_BROKEN_INVARIANTS = """
import random
import sys
import numpy as np
import llcent.entropy as E
import llcent.generators as G
import llcent.gf2rows as R
import llcent.linalg as L
import llcent.operators as O
import llcent.theorems as T
from llcent.errors import EngineInvariant
from llcent.fields import PrimeField
from llcent.operators import make_shift
from llcent.spaces import BlockwisePattern, LlcVector, Profile, cofinal_chain

assert sys.flags.optimize == 1
try:
    assert False
except AssertionError:
    sys.exit("assert statements still run")
P = int(sys.argv[1])
profile = Profile.constant(PrimeField(P), 2)
right, left = make_shift(profile, "right"), make_shift(profile, "left")
real_union = R.merge if P == 2 else L.rref_union


def patch_union(fake):
    if P == 2:
        R.merge = fake
    else:
        L.rref_union = fake
u = cofinal_chain(profile, 0)


def widened(op):
    # the same map with band 2 and a zero leading block: no edge stop
    span = range(op.profile.n_lo - 2, op.profile.n_hi + 3)
    columns = {n: [op.column(n, i) for i in range(op.profile.dim(n))] for n in span}
    return O.BandedOperator(op.profile, 2, op.left_blocks, op.right_blocks, columns)


def growing_union(gains):
    gains = iter(gains)

    def fake(basis, rows):
        if P == 2:
            merged = {1 << i: 1 << i for i in range(len(basis) + next(gains))}
            return merged, list(merged.values())[len(basis):]
        n, k = basis.ambient_dim, basis.rank + next(gains)
        return L.SubspaceBasis.span(basis.field, np.eye(n, dtype=np.int64)[:k], ambient_dim=n)

    return fake


def fired(run):
    try:
        run()
    except EngineInvariant as exc:
        return str(exc)
    return "no error"


patch_union(growing_union([1, 2]))
print(fired(lambda: E.trajectory_relative_entropy(right, u)))
patch_union(growing_union([1, 2]))
print(fired(lambda: E.limit_free_relative_entropy(left, right, u)))
union_calls = []


def union_dropping_third(basis, rows):
    union_calls.append(rows)
    if len(union_calls) == 3:
        return (basis, []) if P == 2 else basis
    return real_union(basis, rows)


patch_union(union_dropping_third)
both = widened(O.operator_add(right, left))
print(fired(lambda: E.trajectory_relative_entropy(both, cofinal_chain(both.profile, 0))))
patch_union(real_union)
real_trajectory = E.trajectory_relative_entropy
values = iter([2, 1])
E.trajectory_relative_entropy = lambda op, c, cfg: E.EntropyResult(next(values), E.Status.EXACT, (), c, 1)
print(fired(lambda: E.total_entropy(right)))
E.trajectory_relative_entropy = real_trajectory

real_rows = O._composite_rows


def rows_off_the_left_stack(f_op, g_op):
    # a nonzero past the left stack in the row of the level below the region
    b_lo, b_hi, prod = real_rows(f_op, g_op)
    prod[0, -1] = (prod[0, -1] + 1) % P
    return b_lo, b_hi, prod


O._composite_rows = rows_off_the_left_stack
print(fired(lambda: O.compose(right, right)))
O._composite_rows = real_rows
real_eq = LlcVector.__eq__
LlcVector.__eq__ = lambda self, other: False
print(fired(lambda: O.decompose_vc_vd(right)))
LlcVector.__eq__ = real_eq
real_action = O._action_rows


def rows_from_the_deep_tail(op, *window):
    # the first boundary level, at -width, reaches the top discrete level
    rows = real_action(op, *window)
    rows[0, -1] = 1
    return rows


O._action_rows = rows_from_the_deep_tail
print(fired(lambda: O.decompose_vc_vd(right)))
O._action_rows = real_action

real_split = T.blockwise_restrict_quotient
pattern = BlockwisePattern.first_slots(profile, 1)
T.blockwise_restrict_quotient = lambda pat, u: (None, real_split(pat, u)[1])
print(fired(lambda: T.check_addition(right, pattern, inverse=left)))
T.blockwise_restrict_quotient = lambda pat, u: (real_split(pat, u)[0], None)
print(fired(lambda: T.check_addition(right, pattern, inverse=left)))
T.blockwise_restrict_quotient = real_split

G.verify_inverse = lambda f_op, g_op: False
print(fired(lambda: G.random_automorphism(random.Random(0), profile)))

# the widened right shift's front state repeats at the third merge from C_1
# (see TestFrontRepeat); that merge drops one of its two rows
repeat_calls = []


def union_halving_third(basis, rows):
    repeat_calls.append(rows)
    return real_union(basis, rows[:1] if len(repeat_calls) == 3 else rows)


patch_union(union_halving_third)
print(fired(lambda: E.trajectory_relative_entropy(widened(right), cofinal_chain(profile, 1))))
# the right shift's leading edge stops the chain at the second merge (see
# TestEdgeStop); that merge drops one of its two rows
edge_calls = []


def union_halving_second(basis, rows):
    edge_calls.append(rows)
    return real_union(basis, rows[:1] if len(edge_calls) == 2 else rows)


patch_union(union_halving_second)
print(fired(lambda: E.trajectory_relative_entropy(right, u)))
patch_union(real_union)
"""


def test_invariants_hold_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    for p in (2, 3):  # the packed loop, then the array loop
        out = subprocess.run(
            [sys.executable, "-O", "-c", _BROKEN_INVARIANTS, str(p)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "trajectory increments must be non-increasing, got [1, 2]",
            "limit-free codimensions must be non-increasing, got [-1, 0]",
            "re-merge of 2 settled rows must raise the rank by 2, raised it by 0",
            "chain entropies must be non-decreasing, got [2, 1]",
            "compose: stationary mismatch",
            "corner reassembly mismatch",
            "corner into the discrete side must kill deep tail levels",
            "chain restriction mismatch",
            "chain quotient mismatch",
            "generator produced a bad inverse pair",
            "a repeated front state must repeat the gain 2, got 1",
            "a full-rank leading edge must repeat the gain 2, got 1",
        ], f"GF({p})"


def test_engine_invariant_is_not_an_input_error():
    assert issubclass(EngineInvariant, AssertionError)
    assert not issubclass(EngineInvariant, LlcentError)
