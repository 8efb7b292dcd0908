"""Banded operator structure, composition, images and induced maps."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import llcent.operators as operators_module
from llcent.entropy import _ArrayRows, total_entropy
from llcent.errors import (
    InvalidOperator,
    InvarianceFailure,
    NonConstantProfile,
    ProfileMismatch,
)
from llcent.fields import QQ, PrimeField
from llcent.generators import (
    block_diagonal_instance,
    degenerate_endomorphism,
    group_pattern,
    levelwise_change_of_basis,
    random_automorphism,
    random_endomorphism,
    random_matrix,
    unipotent_pair,
)
from llcent.linalg import SubspaceBasis
from llcent.operators import (
    BandedOperator,
    _action_rows,
    automorphism_image,
    compose,
    decompose_vc_vd,
    direct_sum_operator,
    identity_operator,
    image_rows_mod_tail,
    induce_on_subspace_and_quotient,
    make_shift,
    operator_add,
    power,
    validate,
    verify_inverse,
    zero_operator,
)
from llcent.spaces import (
    BlockwisePattern,
    CompactOpenSubspace,
    LlcVector,
    Profile,
    cofinal_chain,
)

from _dense import image_plus_tail_bits, subspace_bits
from _oracles import (
    action_rows_by_columns,
    compose_by_columns,
    edge_map_by_blocks,
    same_operator,
    verify_inverse_by_composites,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
P1 = Profile.constant(F2, 1)
P2 = Profile.constant(F2, 2)


def unit(profile, n, i=0):
    return LlcVector.unit(profile, n, i)


def refused(profile, width, left, right, columns):
    """The violations InvalidOperator carries when the operator is built."""
    with pytest.raises(InvalidOperator) as exc:
        BandedOperator(profile, width, left, right, columns)
    return exc.value.violations


class TestValidate:
    """The constructor runs `validate`: an operator that breaks the banded
    contract is never built, and InvalidOperator carries every violation."""

    def test_shift_is_clean(self):
        assert validate(make_shift(P1, "right")) == []
        assert validate(identity_operator(P2)) == []

    def test_band_exceeded(self):
        op = make_shift(P1, "right")
        bad_cols = dict(op.columns)
        bad_cols[0] = (unit(P1, 2),)  # level 0 reaching level 2 with width 1
        violations = refused(P1, 1, op.left_blocks, op.right_blocks, bad_cols)
        assert violations == ["band exceeded: column (0,0) reaches level 2"]

    def test_block_shape_mismatch(self):
        op = identity_operator(P2)
        violations = refused(P2, 0, {0: F2.eye(1)}, {0: F2.eye(2)}, op.columns)
        assert violations == ["left block at shift 0: expected shape (2, 2), got (1, 1)"]

    def test_boundary_coverage(self):
        op = make_shift(P1, "right")
        violations = refused(P1, 1, op.left_blocks, op.right_blocks, {0: op.columns[0]})
        assert violations == ["boundary region [0,0] does not cover [-1,1]"]

    # one operator per kind of violation, with validate's exact list
    P_RAGGED = Profile.from_dims(F2, {0: 1}, 2, 2)
    P3 = Profile.constant(F3, 2)
    KINDS = {
        "negative_width": ((P1, -1, {}, {}, {}), ["negative band width"]),
        # a 1 x 2 left block where d_left = 2
        "left_block_shape": (
            (P3, 1, {1: F3.array([[1, 2]])}, {}, make_shift(P3, "right").columns),
            ["left block at shift 1: expected shape (2, 2), got (1, 2)"],
        ),
        "right_block_shape": (
            (P2, 1, {}, {1: F2.array([[1, 0]])}, make_shift(P2, "right").columns),
            ["right block at shift 1: expected shape (2, 2), got (1, 2)"],
        ),
        "block_outside_the_band": (
            (P1, 0, {0: F2.eye(1), 1: F2.eye(1)}, {-2: F2.eye(1), 0: F2.eye(1), 3: F2.eye(1)},
             identity_operator(P1).columns),
            [
                "left block at shift 1 outside the band [0,0]",
                "right block at shift -2 outside the band [0,0]",
                "right block at shift 3 outside the band [0,0]",
            ],
        ),
        # left level -1 would reach slot 1 of level 0, which has one slot
        "boundary_coverage": (
            (P_RAGGED, 1, {1: F2.array([[1, 1], [1, 1]])}, {}, {0: [LlcVector(P_RAGGED, {(0, 0): 1})]}),
            ["boundary region [0,0] does not cover [-1,1]"],
        ),
        "missing_level": (
            (P1, 0, {0: F2.eye(1)}, {0: F2.eye(1)}, {-1: [unit(P1, -1)], 1: [unit(P1, 1)]}),
            ["missing boundary columns at level 0"],
        ),
        "column_count": (
            (P_RAGGED, 0, {}, {}, {0: [unit(P_RAGGED, 0), LlcVector.zero(P_RAGGED)]}),
            ["boundary columns at level 0: expected 1, got 2"],
        ),
        "column_over_another_profile": (
            (P1, 0, {0: F2.eye(1)}, {0: F2.eye(1)}, {0: [unit(P2, 0)]}),
            ["column (0,0) over a different profile"],
        ),
        "band_exceeded": (
            (P1, 0, {0: F2.eye(1)}, {0: F2.eye(1)}, {0: [LlcVector(P1, {(0, 0): 1, (-5, 0): 1})]}),
            ["band exceeded: column (0,0) reaches level -5"],
        ),
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_violation_kind_raises_at_construction(self, kind):
        args, want = self.KINDS[kind]
        assert refused(*args) == want

    def test_violations_keep_their_order(self):
        # every kind that validate reports past the first, in its order
        p = Profile.constant(F2, 2)
        columns = {
            -1: [unit(p, -1), unit(p, -1, 1)],
            1: [unit(p, 1)],
            2: [unit(P1, 2), LlcVector(p, {(5, 0): 1})],
        }
        violations = refused(p, 1, {0: F2.eye(1), 2: F2.eye(2)}, {}, columns)
        assert violations == [
            "left block at shift 0: expected shape (2, 2), got (1, 1)",
            "left block at shift 2 outside the band [-1,1]",
            "missing boundary columns at level 0",
            "boundary columns at level 1: expected 2, got 1",
            "column (2,0) over a different profile",
            "band exceeded: column (2,1) reaches level 5",
        ]

    def test_each_operator_validated_once(self, monkeypatch):
        # one validate call per construction, none from any route
        calls = []
        real = operators_module.validate
        monkeypatch.setattr(operators_module, "validate", lambda op: calls.append(op) or real(op))
        op, inv = make_shift(P1, "right"), make_shift(P1, "left")
        assert calls == [op, inv]
        u = cofinal_chain(P1, 1)
        assert verify_inverse(op, inv)
        assert total_entropy(op, inverse=inv).value == 1
        assert image_rows_mod_tail(op, u, 0)[1] == 2
        assert automorphism_image(op, u, inv.width) == cofinal_chain(P1, 2)
        assert calls == [op, inv]
        two = compose(op, op)
        assert calls == [op, inv, two]


class TestShifts:
    def test_apply(self):
        beta = make_shift(P1, "right")
        assert beta.apply(unit(P1, 0)) == unit(P1, 1)
        assert beta.apply(unit(P1, 0).add(unit(P1, 3))) == unit(P1, 1).add(unit(P1, 4))

    def test_mutually_inverse(self):
        for d in (1, 2, 3):
            p = Profile.constant(F2, d)
            assert verify_inverse(make_shift(p, "right"), make_shift(p, "left"))
            assert not verify_inverse(make_shift(p, "right"), make_shift(p, "right"))

    def test_blocks_move_whole_levels(self):
        p3 = Profile.constant(F3, 3)
        shift = make_shift(p3, "right")
        v = LlcVector(p3, {(0, 0): 1, (0, 2): 2})
        assert shift.apply(v) == LlcVector(p3, {(1, 0): 1, (1, 2): 2})

    def test_nonconstant_rejected(self):
        ragged = Profile(F2, 1, (1, 2), 2, 0, 1)
        with pytest.raises(NonConstantProfile):
            make_shift(ragged, "right")


class TestComposePower:
    def test_shift_cancellation(self):
        assert compose(make_shift(P1, "right"), make_shift(P1, "left")) == identity_operator(P1)

    def test_identity_neutral(self):
        beta = make_shift(P1, "right")
        assert compose(beta, identity_operator(P1)) == beta
        assert compose(identity_operator(P1), beta) == beta

    def test_double_shift(self):
        two = compose(make_shift(P1, "right"), make_shift(P1, "right"))
        assert two.width == 2
        assert two.apply(unit(P1, -3)) == unit(P1, -1)

    def test_power_basics(self):
        beta = make_shift(P1, "right")
        assert power(beta, 0) == identity_operator(P1)
        assert power(beta, 3).apply(unit(P1, 0)) == unit(P1, 3)

    def test_power_starts_from_the_operator(self):
        # power(op, 1) is op itself; the composite op . identity it used to
        # build first has op's region, width, blocks and columns whenever op
        # passes validate, so every later power is the same too
        fields = (PrimeField(2), PrimeField(3), QQ)
        for seed in range(24):
            rng = random.Random(seed)
            field = fields[seed % 3]
            if seed % 2:
                profile = Profile.from_dims(field, {-1: rng.randint(0, 2), 1: rng.randint(0, 2)}, 1, 2)
                op = random_endomorphism(rng, profile, width=rng.randint(0, 2), boundary=rng.randint(0, 3))
            else:
                profile = Profile.constant(field, rng.randint(1, 2))
                op = random_automorphism(rng, profile)[0]
            assert validate(op) == []
            first = compose(op, identity_operator(profile))
            assert power(op, 1) is op
            assert (first.b_lo, first.b_hi, first.width) == (op.b_lo, op.b_hi, op.width)
            for mine, theirs in ((first.left_blocks, op.left_blocks), (first.right_blocks, op.right_blocks)):
                assert mine.keys() == theirs.keys()
                assert all(np.array_equal(mine[j], theirs[j]) for j in mine)
            assert first.columns == op.columns
            assert power(op, 3) == compose(op, compose(op, first))

    def test_nilpotent_power_vanishes(self):
        # finite-window nilpotent: e_n -> e_{n+1} only for sources 0..2
        cols = {}
        for n in range(-1, 4):
            cols[n] = [unit(P1, n + 1) if 0 <= n <= 2 else LlcVector.zero(P1)]
        nil = BandedOperator(P1, 1, {}, {}, cols)
        assert validate(nil) == []
        k = 1
        cur = nil
        zero = zero_operator(P1)
        while cur != zero:
            cur = compose(nil, cur)
            k += 1
            assert k <= 5
        # index witnessed by repeated application
        v = unit(P1, 0)
        for _ in range(k):
            v = nil.apply(v)
        assert v.is_zero()

    def test_compose_coherence_random_vectors(self):
        rng = random.Random(13)
        f_op = random_endomorphism(rng, P1, width=1)
        g_op = random_endomorphism(rng, P1, width=1)
        fg = compose(f_op, g_op)
        for _ in range(100):
            support = {
                (rng.randint(-5, 5), 0): 1 for _ in range(rng.randint(0, 4))
            }
            v = LlcVector(P1, support)
            assert fg.apply(v) == f_op.apply(g_op.apply(v))


class TestVerifyInverse:
    def test_unipotent_geometric_series(self):
        rng = random.Random(19)
        for _ in range(10):
            op, inv = unipotent_pair(rng, P1)
            assert verify_inverse(op, inv)

    def test_change_of_basis(self):
        rng = random.Random(20)
        p = Profile.constant(F3, 2)
        op, inv = levelwise_change_of_basis(rng, p)
        assert op.width == 0
        assert verify_inverse(op, inv)

    def test_profile_mismatch(self):
        with pytest.raises(ProfileMismatch):
            verify_inverse(make_shift(P1, "right"), make_shift(P2, "left"))

    CANDIDATES = ("inverse", "self", "bump_block", "bump_column", "endomorphism")

    @staticmethod
    def bumped(rng, op, where):
        """op with one stationary-block entry or one boundary-column entry raised by one."""
        p = op.profile
        f = p.field
        left = {j: b.copy() for j, b in op.left_blocks.items()}
        right = {j: b.copy() for j, b in op.right_blocks.items()}
        columns = dict(op.columns)
        if where == "bump_block":
            sides = [blocks for blocks, d in ((left, p.d_left), (right, p.d_right)) if d]
            if sides:
                block = rng.choice(sides)[rng.randint(-op.width, op.width)]
                r, c = rng.randrange(block.shape[0]), rng.randrange(block.shape[1])
                block[r, c] = f.add(block[r, c], f.one)
        else:
            entries = [
                (n, i, (m, s))
                for n, cols in columns.items()
                for i in range(len(cols))
                for m in range(n - op.width, n + op.width + 1)
                for s in range(p.dim(m))
            ]
            if entries:
                n, i, key = rng.choice(entries)
                support = dict(columns[n][i].support)
                support[key] = f.add(support.get(key, f.zero), f.one)
                columns[n] = columns[n][:i] + (LlcVector(p, support),) + columns[n][i + 1 :]
        return BandedOperator(p, op.width, left, right, columns)

    @staticmethod
    @st.composite
    def pairs(draw):
        field = draw(st.sampled_from((F2, F3, PrimeField(5), QQ)))
        if draw(st.booleans()):
            profile = Profile.constant(field, draw(st.integers(1, 2)))
        else:
            dims = draw(st.dictionaries(st.integers(-2, 2), st.integers(0, 2), max_size=3))
            profile = Profile.from_dims(field, dims, draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        op, inv = random_automorphism(rng, profile)
        kind = draw(st.sampled_from(TestVerifyInverse.CANDIDATES))
        if kind == "inverse":
            other = inv
        elif kind == "self":
            other = op
        elif kind == "endomorphism":
            other = random_endomorphism(rng, profile, width=draw(st.integers(0, 3)))
        else:
            other = TestVerifyInverse.bumped(rng, draw(st.sampled_from((op, inv))), kind)
        return (op, other) if draw(st.booleans()) else (other, op)

    @settings(max_examples=200, deadline=None)
    @given(pair=pairs())
    def test_matches_composite_oracle(self, pair):
        assert verify_inverse(*pair) == verify_inverse_by_composites(*pair)

    def test_columns_leaving_the_band(self):
        # e_0 -> e_0 + e_{-5} at width 0 is never built: validate reports the band
        def width_0(column_0):
            return (P1, 0, {0: F2.eye(1)}, {0: F2.eye(1)}, {0: [LlcVector(P1, column_0)]})

        assert refused(*width_0({(0, 0): 1, (-5, 0): 1})) == ["band exceeded: column (0,0) reaches level -5"]
        ident = BandedOperator(*width_0({(0, 0): 1}))
        assert verify_inverse(ident, ident) and verify_inverse_by_composites(ident, ident)

    def test_builds_no_composite(self, monkeypatch):
        import llcent.operators as ops

        pairs = [
            (make_shift(P2, "right"), make_shift(P2, "left"), True),
            (make_shift(P2, "right"), make_shift(P2, "right"), False),
            (*unipotent_pair(random.Random(5), P1), True),
            (*levelwise_change_of_basis(random.Random(6), Profile.constant(F3, 2)), True),
        ]

        def refuse(*args):
            raise AssertionError("verify_inverse built or compared an operator")

        for name in ("compose", "identity_operator"):
            monkeypatch.setattr(ops, name, refuse)
        for name in ("__init__", "__eq__", "apply"):
            monkeypatch.setattr(BandedOperator, name, refuse)
        for f_op, g_op, want in pairs:
            assert verify_inverse(f_op, g_op) is want
            assert verify_inverse(g_op, f_op) is want


def _outcome(fn, *args):
    """("ok", result) or (ValueError, message)."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _built(args, want):
    """The operator built from `args`, or None once building it has raised
    InvalidOperator with the violations `want`."""
    if want:
        assert refused(*args) == want
        return None
    return BandedOperator(*args)


class TestDenseRoutes:
    """_action_rows and compose against the per-column oracles.

    Besides valid operators, the draws include columns that leave their
    band and boundary regions cut short of [n_lo - w, n_hi + w]; those
    must raise InvalidOperator at construction with `validate`'s list.
    """

    FIELDS = (F2, F3, PrimeField(5), PrimeField(2**31 - 1), QQ)
    KINDS = ("valid", "band_leaving", "short_region")

    @staticmethod
    @st.composite
    def profiles(draw):
        field = draw(st.sampled_from(TestDenseRoutes.FIELDS))
        if draw(st.booleans()):
            return Profile.constant(field, draw(st.integers(0, 3)))
        dims = draw(st.dictionaries(st.integers(-3, 3), st.integers(0, 3), max_size=5))
        return Profile.from_dims(field, dims, draw(st.integers(0, 2)), draw(st.integers(0, 2)))

    @staticmethod
    @st.composite
    def operators(draw, profile):
        """(the constructor's arguments, the violations they break the contract with)."""
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        width = draw(st.integers(0, 3))
        op = random_endomorphism(rng, profile, width=width, boundary=draw(st.integers(0, 3)))
        kind = draw(st.sampled_from(TestDenseRoutes.KINDS))
        columns = {n: tuple(cols) for n, cols in op.columns.items()}
        want = []
        if kind == "band_leaving":
            # one boundary column gains an entry 1-3 levels past its band
            sources = [(n, i) for n, cols in columns.items() for i in range(len(cols))]
            n, i = draw(st.sampled_from(sources)) if sources else (0, None)
            gap = draw(st.integers(width + 1, width + 3)) * draw(st.sampled_from((-1, 1)))
            if i is not None and profile.dim(n + gap):
                support = dict(columns[n][i].support)
                support[(n + gap, draw(st.integers(0, profile.dim(n + gap) - 1)))] = profile.field.one
                columns[n] = columns[n][:i] + (LlcVector(profile, support),) + columns[n][i + 1 :]
                want = [f"band exceeded: column ({n},{i}) reaches level {n + gap}"]
        elif kind == "short_region":
            lo = draw(st.integers(op.b_lo, op.b_hi))
            hi = draw(st.integers(lo, op.b_hi))
            columns = {n: columns[n] for n in range(lo, hi + 1)}
            need_lo, need_hi = profile.n_lo - width, profile.n_hi + width
            if lo > need_lo or hi < need_hi:
                want = [f"boundary region [{lo},{hi}] does not cover [{need_lo},{need_hi}]"]
        return (profile, width, op.left_blocks, op.right_blocks, columns), want

    @staticmethod
    @st.composite
    def windows(draw, op):
        # windows across, inside, and wholly left or right of [b_lo, b_hi]
        src_lo = draw(st.integers(op.b_lo - 11, op.b_hi + 4))
        src_hi = draw(st.integers(src_lo, max(src_lo, op.b_hi) + 6))
        # dst_lo above src_lo - width cuts images off below the window
        dst_lo = draw(st.integers(src_lo - op.width - 4, max(src_hi, src_lo - op.width - 4)))
        # a window short of the reach of some image must raise
        dst_hi = max(dst_lo, src_hi + op.width + draw(st.integers(-2, 4)))
        return src_lo, src_hi, dst_lo, dst_hi

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_action_rows_match_the_columns(self, data):
        profile = data.draw(self.profiles())
        op = _built(*data.draw(self.operators(profile)))
        if op is None:
            return
        for _ in range(3):
            window = data.draw(self.windows(op))
            want = _outcome(action_rows_by_columns, op, *window)
            got = _outcome(_action_rows, op, *window)
            if want[0] != "ok":
                assert got == want
            else:
                assert got[0] == "ok" and got[1].dtype == want[1].dtype
                assert np.array_equal(got[1], want[1])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_compose_matches_the_columns(self, data):
        profile = data.draw(self.profiles())
        f_op, g_op = _built(*data.draw(self.operators(profile))), _built(*data.draw(self.operators(profile)))
        if f_op is None or g_op is None:
            return
        want = _outcome(compose_by_columns, f_op, g_op)
        got = _outcome(compose, f_op, g_op)
        if want[0] != "ok":
            assert got == want
        else:
            assert got[0] == "ok" and same_operator(got[1], want[1])

    @pytest.mark.parametrize("field, d, width", [(F2, 16, 4), (PrimeField(2**31 - 1), 4, 2), (QQ, 2, 2)], ids=str)
    def test_compose_matches_the_columns_on_wide_operators(self, field, d, width):
        # products over many levels of wide blocks, which the drawn operators do not reach
        profile = Profile.constant(field, d)
        for i in range(2):
            f_op, g_op = (random_endomorphism(random.Random(i + k), profile, width=width) for k in (0, 1))
            assert same_operator(compose(f_op, g_op), compose_by_columns(f_op, g_op))


class TestRightEdgePower:
    """right_edge_power against Psi written block by block (`edge_map_by_blocks`)."""

    @pytest.mark.parametrize("field", [F2, F3, PrimeField(2**31 - 1), QQ], ids=str)
    @pytest.mark.parametrize("d_right", range(4))
    @pytest.mark.parametrize("width", range(4))
    def test_matches_the_block_oracle(self, width, d_right, field):
        rng = random.Random(16 * width + 4 * d_right)
        for make in (random_endomorphism, degenerate_endomorphism):
            dims = {n: rng.randint(0, 3) for n in range(rng.randint(-2, 0), rng.randint(0, 2) + 1)}
            profile = Profile.from_dims(field, dims, rng.randint(0, 2), d_right)
            op = make(rng, profile, width=width, boundary=rng.randint(0, 2))
            psi = edge_map_by_blocks(op)
            n = width * d_right
            # Psi^1 .. Psi^e, e the first power of two >= n, one product at a time
            powers = [psi]
            while len(powers) < n or len(powers) & (len(powers) - 1):
                powers.append(field.matmul(powers[-1], psi))
            want = powers[-1][:, list(SubspaceBasis.span(field, powers[-1]).pivots)]
            got = op.right_edge_power()
            assert got.dtype == want.dtype and np.array_equal(got, want)
            # the image of Psi^k stops shrinking by k = n: its rank is that of Psi^n
            assert got.shape[1] == (SubspaceBasis.span(field, powers[n - 1]).rank if n else 0)


class TestImageModTail:
    def test_right_shift_of_tail(self):
        beta = make_shift(P1, "right")
        vc = cofinal_chain(P1, 0)
        img = CompactOpenSubspace.from_rows(P1, 0, *image_rows_mod_tail(beta, vc, 0))
        assert img == cofinal_chain(P1, 1)

    def test_left_shift_lands_inside(self):
        lam = make_shift(P1, "left")
        vc = cofinal_chain(P1, 0)
        img = CompactOpenSubspace.from_rows(P1, 0, *image_rows_mod_tail(lam, vc, 0))
        assert img == cofinal_chain(P1, 0)

    def test_zero_operator(self):
        rows, _ = image_rows_mod_tail(zero_operator(P1), cofinal_chain(P1, 2), 0)
        assert not np.any(rows != 0)

    def test_dense_truncation_oracle(self):
        rng = random.Random(43)
        LO, HI = -6, 6
        for _ in range(60):
            op = random_endomorphism(rng, P1, width=rng.randint(1, 2), boundary=2)
            w = _bounded_subspace(rng)
            a = rng.randint(-4, 0)
            if a - op.width < LO:
                continue
            got = CompactOpenSubspace.from_rows(P1, a, *image_rows_mod_tail(op, w, a))
            engine = subspace_bits(got, LO, HI)
            oracle = image_plus_tail_bits(op, w, a, LO, HI)
            assert engine == oracle


class TestActionTable:
    """image_rows_mod_tail on W = U_top returns the operator's dense action
    rows of (a - width, top] into (a, top + width]."""

    @pytest.mark.parametrize("field", [F2, F3, PrimeField(2**31 - 1), QQ], ids=str)
    def test_slices_match_the_stacked_route(self, field):
        rng = random.Random(17)
        for trial in range(12):
            dims = {n: rng.randint(0, 3) for n in range(rng.randint(-3, 0), rng.randint(0, 3) + 1)}
            profile = Profile.from_dims(field, dims, rng.randint(0, 2), rng.randint(1, 2))
            make = degenerate_endomorphism if trial % 2 else random_endomorphism
            op = make(rng, profile, width=rng.randint(0, 3), boundary=rng.randint(0, 3))
            assert not validate(op)
            for a in sorted({0, -op.width}):
                src = a - op.width
                for b in range(src + 1, 6):
                    u = cofinal_chain(profile, b) if b >= 0 else CompactOpenSubspace.make(profile, b)
                    rows, top = image_rows_mod_tail(op, u, a)
                    want_top = max(u.top + op.width, a)
                    want = field.matmul(u.rows_over(src, u.top), action_rows_by_columns(op, src, u.top, a, want_top))
                    assert top == want_top
                    assert rows.dtype == want.dtype and np.array_equal(rows, want)

    def test_out_of_band_column_raises(self):
        # a window short of a valid operator's images raises
        shift = make_shift(P1, "right")
        with pytest.raises(ValueError, match="action window too small"):
            _action_rows(shift, -1, 1, 0, 1)
        rows, top = image_rows_mod_tail(shift, cofinal_chain(P1, 2), 0)
        assert top == 3 and np.array_equal(rows, _action_rows(shift, -1, 2, 0, 3))

    @pytest.mark.parametrize("level, target, dst_hi", [(-1, -3, 2), (1, 3, 3)])
    def test_out_of_band_image_inside_the_window(self, level, target, dst_hi):
        # the right shift with one boundary column moved out of its band,
        # down (e_{-1} -> e_{-3}) or up (e_1 -> e_3), is never built, even
        # where the window (-4, dst_hi] would hold the image
        shift = make_shift(P1, "right")
        columns = dict(shift.columns)
        columns[level] = (unit(P1, target),)
        violations = refused(P1, 1, shift.left_blocks, shift.right_blocks, columns)
        assert violations == [f"band exceeded: column ({level},0) reaches level {target}"]


def _bounded_subspace(rng):
    tail = rng.randint(-4, 0)
    gens = []
    for _ in range(rng.randint(0, 2)):
        support = {(n, 0): 1 for n in range(tail + 1, 5) if rng.random() < 0.4}
        gens.append(LlcVector(P1, support))
    return CompactOpenSubspace.make(P1, tail, gens)


class TestAutomorphismImage:
    def test_shift_images_of_chain(self):
        beta, lam = make_shift(P1, "right"), make_shift(P1, "left")
        c2 = cofinal_chain(P1, 2)
        assert automorphism_image(beta, c2, 1) == cofinal_chain(P1, 3)
        assert automorphism_image(lam, c2, 1) == cofinal_chain(P1, 1)

    def test_image_respects_membership(self):
        rng = random.Random(51)
        for seed in range(10):
            op, inv = random_automorphism(random.Random(seed), P1)
            w = _bounded_subspace(rng)
            img = automorphism_image(op, w, inv.width)
            for v in w.window_vectors():
                assert img.member(op.apply(v))
            back = automorphism_image(inv, img, op.width)
            assert back == w


class TestContinuityCertificate:
    def test_preimage_of_tail_contains_deeper_tail(self):
        rng = random.Random(57)
        for _ in range(10):
            op = random_endomorphism(rng, P1, width=rng.randint(1, 2))
            a = -rng.randint(0, 3)
            u_a = CompactOpenSubspace.make(P1, a)
            # stationary region check is finite: one band below a - width
            for n in range(a - op.width - 2, a - op.width + 1):
                img = op.column(n, 0)
                assert u_a.member(img)


class TestInduce:
    def test_slot_split_of_shift(self):
        beta2 = make_shift(P2, "right")
        restricted, induced = induce_on_subspace_and_quotient(beta2, BlockwisePattern.first_slots(P2, 1))
        assert restricted == make_shift(restricted.profile, "right")
        assert induced == make_shift(induced.profile, "right")

    def test_full_and_zero_patterns(self):
        beta = make_shift(P1, "right")
        restricted, induced = induce_on_subspace_and_quotient(beta, BlockwisePattern.full(P1))
        assert restricted == beta
        assert induced.profile.dim(0) == 0
        restricted, induced = induce_on_subspace_and_quotient(beta, BlockwisePattern.zero(P1))
        assert restricted.profile.dim(0) == 0
        assert induced == beta

    def test_non_invariant_witness(self):
        beta2 = make_shift(P2, "right")
        lopsided = BlockwisePattern.make(
            P2,
            SubspaceBasis.full(F2, 2),
            {0: SubspaceBasis.span(F2, [[1, 0]])},
            SubspaceBasis.full(F2, 2),
        )
        with pytest.raises(InvarianceFailure) as err:
            induce_on_subspace_and_quotient(beta2, lopsided)
        # the first basis vector, in level order, whose image leaves W
        assert err.value.witness == unit(P2, -1, 1)
        assert err.value.image == unit(P2, 0, 1)
        assert str(err.value) == "image of e[-1,1] leaves the subspace"
        # with a second gap at level 2, e[1,1] fails too, after e[-1,1]
        gaps = {0: SubspaceBasis.span(F2, [[1, 0]]), 2: SubspaceBasis.span(F2, [[1, 0]])}
        with pytest.raises(InvarianceFailure) as err:
            induce_on_subspace_and_quotient(beta2, BlockwisePattern.make(P2, lopsided.left, gaps, lopsided.right))
        assert err.value.witness == unit(P2, -1, 1)

    def test_restriction_commutes_with_apply(self):
        rng = random.Random(61)
        p3 = Profile.constant(F2, 3)
        pat = BlockwisePattern.first_slots(p3, 2)
        op = direct_sum_operator(
            random_endomorphism(rng, P2, width=1), random_endomorphism(rng, P1, width=1)
        )
        restricted, induced = induce_on_subspace_and_quotient(op, pat)
        for n in range(-3, 4):
            for i in range(2):
                emb = unit(p3, n, i)
                img = op.apply(emb)
                sub_img = restricted.apply(unit(restricted.profile, n, i))
                # compare through the slot identification of first_slots
                expect = {(m, s): v for (m, s), v in img.support.items() if s < 2}
                assert sub_img.support == expect


def _embedded(pattern, v):
    """The vector of the profile with W_m-coordinates v's component at each level m."""
    f = pattern.profile.field
    support = {}
    for m in v.levels():
        comp = f.matmul(v.level_component(m).reshape(1, -1), pattern.level_basis(m).mat)[0]
        support.update({(m, i): c for i, c in enumerate(comp) if c != 0})
    return LlcVector(pattern.profile, support)


def _projected(pattern, profile, v):
    """The image of v in the quotient by the pattern, over its profile."""
    support = {}
    for m in v.levels():
        basis = pattern.level_basis(m)
        proj = basis.reduce_vector(v.level_component(m))[basis.free_columns()]
        support.update({(m, k): c for k, c in enumerate(proj) if c != 0})
    return LlcVector(profile, support)


class TestInduceProperties:
    """Block-diagonal instances, where every union of slot groups is an
    invariant pattern and a first_slots pattern may cut a group."""

    @staticmethod
    def _check_commutes(op, pattern):
        restricted, induced = induce_on_subspace_and_quotient(op, pattern)
        p, w = op.profile, op.width
        levels = range(min(op.b_lo, pattern.m_lo) - w - 1, max(op.b_hi, pattern.m_hi) + w + 2)
        for n in levels:
            # the restriction commutes with the pattern's coordinates
            for k, vec in enumerate(LlcVector.from_rows(p, n - 1, n, pattern.level_basis(n).mat)):
                img = op.apply(vec)
                assert _embedded(pattern, restricted.apply(LlcVector.unit(restricted.profile, n, k))) == img, (n, k)
            # the induced map commutes with the projection
            for i in range(p.dim(n)):
                x = LlcVector.unit(p, n, i)
                want = _projected(pattern, induced.profile, op.apply(x))
                assert induced.apply(_projected(pattern, induced.profile, x)) == want, (n, i)

    @pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), PrimeField(5), QQ], ids=lambda f: f.name)
    def test_restriction_and_quotient_commute(self, field):
        raised = 0
        for seed in range(25):
            rng = random.Random(seed)
            dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            op, _inv, groups, _ents = block_diagonal_instance(rng, field, dims)
            self._check_commutes(op, group_pattern(op.profile, groups, [g for g in groups if rng.random() < 0.5]))
            pattern = BlockwisePattern.first_slots(op.profile, rng.randint(1, sum(dims)))
            try:
                self._check_commutes(op, pattern)
            except InvarianceFailure as err:
                raised += 1
                assert pattern.member(err.witness) and not pattern.member(err.image), seed
                assert err.image == op.apply(err.witness), seed
        assert raised > 0


class TestDecompose:
    def test_right_shift_discrete_corner(self):
        dec = decompose_vc_vd(make_shift(P1, "right"))
        for n in range(1, 6):
            assert dec.phi_dd.column(n, 0) == LlcVector.unit(dec.d_profile, n + 1, 0)
        assert dec.cd_image_dim == 1  # e_0 -> e_1 crosses the splitting

    def test_left_shift_discrete_corner(self):
        dec = decompose_vc_vd(make_shift(P1, "left"))
        assert dec.phi_dd.column(1, 0).is_zero()
        for n in range(2, 6):
            assert dec.phi_dd.column(n, 0) == LlcVector.unit(dec.d_profile, n - 1, 0)
        assert dec.cd_image_dim == 0

    def test_identity_corners(self):
        dec = decompose_vc_vd(identity_operator(P2))
        assert dec.cd_image_dim == 0
        for n in range(-2, 3):
            for i in range(2):
                if n <= 0:
                    assert dec.phi_cc.column(n, i) == LlcVector.unit(dec.c_profile, n, i)
                    assert dec.phi_cd.column(n, i).is_zero()
                else:
                    assert dec.phi_dd.column(n, i) == LlcVector.unit(dec.d_profile, n, i)
                    assert dec.phi_dc.column(n, i).is_zero()

    def test_reassembly_random(self):
        rng = random.Random(67)
        for _ in range(10):
            op = random_endomorphism(rng, P2, width=rng.randint(1, 2))
            decompose_vc_vd(op)  # construction asserts the reassembly


class TestDirectSum:
    def test_profile_and_action(self):
        ds = direct_sum_operator(make_shift(P1, "right"), make_shift(P1, "left"))
        assert ds.profile.dim(0) == 2
        assert ds.apply(unit(ds.profile, 0, 0)) == unit(ds.profile, 1, 0)
        assert ds.apply(unit(ds.profile, 0, 1)) == LlcVector.unit(ds.profile, -1, 1)
        assert validate(ds) == []

    def test_sum_respects_inverses(self):
        a = direct_sum_operator(make_shift(P1, "right"), make_shift(P2, "left"))
        b = direct_sum_operator(make_shift(P1, "left"), make_shift(P2, "right"))
        assert verify_inverse(a, b)


class TestDenseConstructions:
    """The constructions built from dense action rows, against `apply` and
    `column` on seeded operators over every field and uneven profiles."""

    FIELDS = (PrimeField(2), PrimeField(3), PrimeField(2**31 - 1), QQ)

    @staticmethod
    def _profile(rng, field):
        dims = {n: rng.randint(0, 3) for n in range(rng.randint(-2, 0), rng.randint(0, 2) + 1)}
        return Profile.from_dims(field, dims, rng.randint(0, 2), rng.randint(0, 2))

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_direct_sum_acts_by_each_summand(self, field):
        for seed in range(20):
            rng = random.Random(seed)
            a = random_endomorphism(rng, self._profile(rng, field), width=rng.randint(0, 2), boundary=rng.randint(0, 2))
            b = random_endomorphism(rng, self._profile(rng, field), width=rng.randint(0, 2), boundary=rng.randint(0, 2))
            ds = direct_sum_operator(a, b)
            p = ds.profile

            def embedded(v, second):
                return LlcVector(p, {(m, s + (a.profile.dim(m) if second else 0)): c for (m, s), c in v.support.items()})

            for n in range(ds.b_lo - 2, ds.b_hi + 3):
                for op, second in ((a, False), (b, True)):
                    for i in range(op.profile.dim(n)):
                        x = LlcVector.unit(op.profile, n, i)
                        assert ds.apply(embedded(x, second)) == embedded(op.apply(x), second), (seed, n, i)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_corners_are_the_columns_on_their_side(self, field):
        for seed in range(20):
            rng = random.Random(seed)
            p = self._profile(rng, field) if seed % 2 else Profile.constant(field, rng.randint(1, 2))
            op = random_endomorphism(rng, p, width=rng.randint(0, 2), boundary=rng.randint(0, 2))
            dec = decompose_vc_vd(op)
            for n in range(op.b_lo - 2, op.b_hi + 3):
                corner, side = (dec.phi_cc, {"hi": 0}) if n <= 0 else (dec.phi_dd, {"lo": 1})
                for i in range(p.dim(n)):
                    assert corner.column(n, i).support == op.column(n, i).restrict(**side).support, (seed, n, i)


class TestOperatorAdd:
    def test_add_against_apply(self):
        rng = random.Random(71)
        f_op = random_endomorphism(rng, P1, width=1)
        g_op = random_endomorphism(rng, P1, width=2)
        total = operator_add(f_op, g_op)
        for n in range(-5, 6):
            v = unit(P1, n)
            assert total.apply(v) == f_op.apply(v).add(g_op.apply(v))
            # the stored columns hold reduced, nonzero scalars
            assert total.column(n, 0) == f_op.column(n, 0).add(g_op.column(n, 0))


class TestBandedApplication:
    """The dense action of rows that vanish below some level, on windows
    placed anywhere against the boundary region."""

    FIELDS = (PrimeField(2), PrimeField(3), PrimeField(2**31 - 1), QQ)
    # where the source window (src_lo, src_hi] sits against [b_lo, b_hi]
    PLACEMENTS = ("across", "starts_below", "ends_above", "left_of", "right_of", "inside")

    @staticmethod
    @st.composite
    def cases(draw):
        field = draw(st.sampled_from(TestBandedApplication.FIELDS))
        if draw(st.booleans()):
            profile = Profile.constant(field, draw(st.integers(0, 3)))
        else:
            dims = draw(st.dictionaries(st.integers(-3, 3), st.integers(0, 3), max_size=5))
            profile = Profile.from_dims(field, dims, draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        width = draw(st.integers(0, 2))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        op = random_endomorphism(rng, profile, width=width, boundary=draw(st.integers(0, 3)))
        b_lo, b_hi = op.b_lo, op.b_hi
        placement = draw(st.sampled_from(TestBandedApplication.PLACEMENTS))
        span = st.integers(0, 6)
        if placement == "across":
            src_lo, src_hi = b_lo - 1 - draw(st.integers(1, 6)), b_hi + draw(st.integers(1, 6))
        elif placement == "starts_below":
            src_lo, src_hi = b_lo - 1 - draw(st.integers(1, 6)), draw(st.integers(b_lo, b_hi))
        elif placement == "ends_above":
            src_lo, src_hi = draw(st.integers(b_lo - 1, b_hi - 1)), b_hi + draw(st.integers(1, 6))
        elif placement == "left_of":
            src_hi = b_lo - 1 - draw(st.integers(0, 4))
            src_lo = src_hi - draw(span)
        elif placement == "right_of":
            src_lo = b_hi + draw(st.integers(0, 4))
            src_hi = src_lo + draw(span)
        else:
            src_lo = draw(st.integers(b_lo - 1, b_hi))
            src_hi = draw(st.integers(src_lo, b_hi))
        m = draw(st.integers(0, 4))
        rows = random_matrix(rng, field, m, profile.window_dim(src_lo, src_hi))
        return op, rows, src_lo, src_hi

    @settings(max_examples=200, deadline=None)
    @given(case=cases(), data=st.data())
    def test_source_trimmed_to_first_nonzero_level(self, case, data):
        # the chain loop maps rows that vanish up to some level s from s on:
        # once trimmed, the images equal those of the whole window
        op, rows, src_lo, src_hi = case
        p, w = op.profile, op.width
        s = data.draw(st.integers(src_lo, src_hi))
        a0 = src_lo - data.draw(st.integers(0, w + 2))
        cut = p.window_dim(src_lo, s)
        rows = rows.copy()
        rows[:, :cut] = p.field.zero
        full = p.field.matmul(rows, _action_rows(op, src_lo, src_hi, max(a0, src_lo - w), src_hi + w))
        part = p.field.matmul(rows[:, cut:], _action_rows(op, s, src_hi, max(a0, s - w), src_hi + w))
        kernels = _ArrayRows(op, a0)
        full_trim = kernels.trim(full, max(a0, src_lo - w), src_hi + w)
        part_trim = kernels.trim(part, max(a0, s - w), src_hi + w)
        assert full_trim[1:] == part_trim[1:]
        assert full_trim[0].shape == part_trim[0].shape
        assert np.array_equal(full_trim[0], part_trim[0])
