"""Exact matrices and subspace arithmetic against brute-force oracles."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llcent.errors import AmbientMismatch, NotContained
from llcent.fields import PrimeField, QQ
from llcent.linalg import (
    SubspaceBasis,
    _rref,
    invert_matrix,
    quotient_dim,
    rref_union,
    subspace_combine,
)

from _oracles import rref_per_pivot

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def enumerate_span(field, rows):
    """Literal span enumeration over a small prime field."""
    vecs = {tuple(field.zeros(1, len(rows[0]) if rows else 0)[0])}
    for row in rows:
        vecs = {
            tuple(field.normalize(np.array(v) + c * np.array(row)))
            for v in vecs
            for c in range(field.p)
        }
    return frozenset(vecs)


def test_rref_equal_rows():
    basis = SubspaceBasis.span(F2, [[1, 1], [1, 1]])
    assert basis.rank == 1
    assert basis.mat.tolist() == [[1, 1]]


def test_rref_identity_fixed():
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    basis = SubspaceBasis.span(F5, ident)
    assert basis.rank == 3
    assert basis.mat.tolist() == ident


def test_rref_gf3_span_enumeration_oracle():
    # [[1,2],[2,1]] over GF(3): the second row is 2x the first, so the
    # span has 3 elements and rank 1 (frozen from the enumeration below).
    basis = SubspaceBasis.span(F3, [[1, 2], [2, 1]])
    span = enumerate_span(F3, [[1, 2], [2, 1]])
    assert len(span) == 3
    assert basis.rank == 1
    assert enumerate_span(F3, basis.mat.tolist()) == span
    assert basis.mat.tolist() == [[1, 2]]


def test_combine_contract_examples():
    full = SubspaceBasis.span(F2, [[1, 0], [0, 1]])
    diag = SubspaceBasis.span(F2, [[1, 1]])
    assert subspace_combine(full, diag, "intersect") == diag
    e1 = SubspaceBasis.span(F2, [[1, 0]])
    e2 = SubspaceBasis.span(F2, [[0, 1]])
    assert subspace_combine(e1, e2, "sum") == SubspaceBasis.full(F2, 2)
    a = SubspaceBasis.span(F2, [[1, 1, 0], [0, 1, 1]])
    b = SubspaceBasis.span(F2, [[1, 0, 1]])
    assert subspace_combine(a, b, "intersect") == b


def test_quotient_contract_examples():
    full3 = SubspaceBasis.full(F2, 3)
    assert quotient_dim(full3, full3) == 0
    assert quotient_dim(full3, SubspaceBasis.zero(F2, 3)) == 3
    full2 = SubspaceBasis.full(F2, 2)
    assert quotient_dim(full2, SubspaceBasis.span(F2, [[1, 1]])) == 1
    with pytest.raises(NotContained):
        quotient_dim(SubspaceBasis.span(F2, [[1, 0]]), SubspaceBasis.span(F2, [[0, 1]]))
    with pytest.raises(AmbientMismatch):
        quotient_dim(full3, full2)


def all_subspaces_gf2(n):
    """Every subspace of GF(2)^n by brute force (n <= 4)."""
    vectors = list(itertools.product([0, 1], repeat=n))[1:]
    seen = {}
    for r in range(0, n + 1):
        for rows in itertools.combinations(vectors, r):
            basis = SubspaceBasis.span(F2, [list(v) for v in rows], ambient_dim=n)
            key = (basis.pivots, basis.mat.tobytes())
            seen.setdefault(key, basis)
    return list(seen.values())


def gf2_span_set(basis):
    vecs = {(0,) * basis.ambient_dim}
    for row in basis.mat:
        vecs |= {tuple((np.array(v) + row) % 2) for v in vecs}
    return frozenset(vecs)


def test_combine_against_set_oracle_gf2():
    rng = random.Random(5)
    for n in (2, 3, 4):
        subs = all_subspaces_gf2(n)
        for _ in range(40):
            a, b = rng.choice(subs), rng.choice(subs)
            sa, sb = gf2_span_set(a), gf2_span_set(b)
            inter = subspace_combine(a, b, "intersect")
            assert gf2_span_set(inter) == sa & sb
            total = subspace_combine(a, b, "sum")
            union_span = gf2_span_set(SubspaceBasis.span(F2, np.concatenate([a.mat, b.mat]) if a.rank + b.rank else [], ambient_dim=n))
            assert gf2_span_set(total) == union_span
            # dimension formula
            assert a.rank + b.rank == total.rank + inter.rank


def test_dimension_formula_random_fields():
    rng = random.Random(23)
    for _ in range(80):
        field = rng.choice([F2, F3, F5, QQ])
        n = rng.randint(1, 5)

        def rand_basis():
            rows = [
                [rng.randrange(field.p) if field is not QQ else rng.randint(-2, 2) for _ in range(n)]
                for _ in range(rng.randint(0, 3))
            ]
            return SubspaceBasis.span(field, rows or [], ambient_dim=n)

        a, b = rand_basis(), rand_basis()
        total = subspace_combine(a, b, "sum")
        inter = subspace_combine(a, b, "intersect")
        assert a.rank + b.rank == total.rank + inter.rank
        assert total.contains(a) and total.contains(b)
        assert a.contains(inter) and b.contains(inter)


def test_rref_idempotent_random():
    rng = random.Random(31)
    for _ in range(60):
        field = rng.choice([F2, F3, F5])
        rows = [[rng.randrange(field.p) for _ in range(4)] for _ in range(3)]
        once = SubspaceBasis.span(field, rows)
        twice = SubspaceBasis.span(field, once.mat.tolist())
        assert once == twice


def test_membership_consistency_on_quotients():
    rng = random.Random(47)
    for _ in range(40):
        field = rng.choice([F2, F3])
        n = 4
        rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(3)]
        big = SubspaceBasis.span(field, rows, ambient_dim=n)
        small_rows = [big.mat[i] for i in range(big.rank) if rng.random() < 0.5]
        small = SubspaceBasis.span(field, np.array(small_rows) if small_rows else [], ambient_dim=n)
        assert quotient_dim(big, small) == big.rank - small.rank
        for row in small.mat:
            assert big.contains_vector(row)


def test_invert_matrix():
    m = F3.array([[1, 2], [0, 1]])
    inv = invert_matrix(F3, m)
    assert F3.matmul(m, inv).tolist() == [[1, 0], [0, 1]]
    assert invert_matrix(F3, F3.array([[1, 2], [2, 1]])) is None
    q = QQ.array([[1, 2], [3, 4]])
    inv_q = invert_matrix(QQ, q)
    assert np.array_equal(QQ.matmul(q, inv_q), QQ.eye(2))


def test_rational_elimination_stays_reduced():
    from fractions import Fraction

    basis = SubspaceBasis.span(QQ, [["1/3", "2/5"], ["1/7", "3/11"]])
    assert basis.rank == 2
    for row in basis.mat:
        for x in row:
            assert isinstance(x, (Fraction, int))


ECHELON_FIELDS = (F2, F3, PrimeField(2**31 - 1), QQ)


@st.composite
def basis_and_rows(draw):
    """A reduced basis (random, empty or full) and rows to reduce or merge.

    Some rows are drawn from the span of the basis, so they reduce to zero.
    """
    field = draw(st.sampled_from(ECHELON_FIELDS))
    n = draw(st.integers(0, 9))
    if field is QQ:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    else:
        entry = st.integers(0, field.p - 1)

    def matrix(rows, cols=n):
        cells = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
        return field.array(np.array(cells, dtype=object).reshape(rows, cols))

    kind = draw(st.sampled_from(("random", "empty", "full")))
    if kind == "empty":
        basis = SubspaceBasis.zero(field, n)
    elif kind == "full":
        basis = SubspaceBasis.full(field, n)
    else:
        basis = SubspaceBasis.span(field, matrix(draw(st.integers(0, n + 1))), ambient_dim=n)
    rows = matrix(draw(st.integers(0, 4)))
    if basis.rank and draw(st.booleans()):
        in_span = field.matmul(matrix(draw(st.integers(1, 3)), basis.rank), basis.mat)
        rows = np.concatenate([rows, in_span], axis=0)
    return field, basis, rows


class TestPivotAwareEchelon:
    """reduce_rows and rref_union against a full re-reduction of the stack."""

    @settings(max_examples=200, deadline=None)
    @given(case=basis_and_rows())
    def test_reduce_rows(self, case):
        field, basis, rows = case
        resid = basis.reduce_rows(rows)
        assert resid.shape == rows.shape
        # zero on the pivots and congruent to rows modulo the span: that pins it down
        assert not np.any(resid[:, list(basis.pivots)] != 0)
        stacked = SubspaceBasis.span(
            field, np.concatenate([basis.mat, rows], axis=0), ambient_dim=basis.ambient_dim
        )
        with_resid = SubspaceBasis.span(
            field, np.concatenate([basis.mat, resid], axis=0), ambient_dim=basis.ambient_dim
        )
        assert with_resid == stacked
        assert basis.contains_rows(field.normalize(rows - resid))
        for row, r in zip(rows, resid):
            assert np.array_equal(basis.reduce_vector(row), r)

    @settings(max_examples=200, deadline=None)
    @given(case=basis_and_rows())
    def test_rref_union(self, case):
        field, basis, rows = case
        merged = rref_union(basis, rows)
        stacked = SubspaceBasis.span(
            field, np.concatenate([basis.mat, rows], axis=0), ambient_dim=basis.ambient_dim
        )
        assert merged == stacked
        assert merged.mat.dtype == basis.mat.dtype
        assert list(merged.pivots) == sorted(merged.pivots)
        assert all(isinstance(p, int) for p in merged.pivots)


ROUTE_FIELDS = (F2, F3, PrimeField(65521), PrimeField(2**31 - 1), QQ)
# around the byte and 64-bit word edges of the packed GF(2) rows
PACKING_WIDTHS = (7, 8, 9, 63, 64, 65)


@st.composite
def rref_inputs(draw):
    """A matrix for _rref: low rank, zero columns, zero and repeated rows.

    Prime-field entries are shifted by multiples of p, negative ones
    included; some matrices are strided views rather than contiguous.
    """
    field = draw(st.sampled_from(ROUTE_FIELDS))
    m = draw(st.integers(0, 12))
    n = draw(st.one_of(st.integers(0, 10), st.sampled_from(PACKING_WIDTHS)))
    rank = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entries(rows, cols):
        if field is QQ:
            nums, dens = rng.integers(-3, 4, rows * cols), rng.integers(1, 4, rows * cols)
            cells = [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
            return np.array(cells, dtype=object).reshape(rows, cols)
        return rng.integers(0, field.p, (rows, cols))

    a = field.matmul(entries(m, rank), entries(rank, n))
    a[:, rng.random(n) < 0.2] = field.zero
    for i in range(m):
        how = draw(st.sampled_from(("keep", "keep", "zero", "repeat")))
        if how == "zero":
            a[i] = field.zero
        elif how == "repeat" and i:
            a[i] = a[draw(st.integers(0, i - 1))]
    if field is not QQ:
        a = a + field.p * rng.integers(-2, 3, (m, n))
    if draw(st.booleans()):
        wide = np.empty((m, 2 * n), dtype=a.dtype)
        wide[:, ::2] = a
        a = wide[:, ::2]
    return field, a


@settings(max_examples=400, deadline=None)
@given(case=rref_inputs())
def test_rref_routes_match_per_pivot_oracle(case):
    field, a = case
    before = a.copy()
    rows, pivots = _rref(field, a)
    want_rows, want_pivots = rref_per_pivot(field, a)
    assert np.array_equal(a, before)
    assert rows.dtype == want_rows.dtype == field.dtype
    assert rows.shape == want_rows.shape
    assert np.array_equal(rows, want_rows)
    assert pivots == want_pivots
    assert all(type(c) is int for c in pivots)

