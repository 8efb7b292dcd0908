"""Field arithmetic: exactness, axioms, errors, serialization."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llcent.errors import DivisionByZero, FieldMismatch
from llcent.fields import PrimeField, QQ, field_from_name, is_prime
from llcent.linalg import SubspaceBasis, subspace_combine


def test_contract_examples():
    F2, F5 = PrimeField(2), PrimeField(5)
    assert F2.add(F2.coerce(1), F2.coerce(1)) == 0
    # 2/3 = 4 in GF(5): verified below against the exhaustive multiplication table
    assert F5.div(F5.coerce(2), F5.coerce(3)) == 4
    assert QQ.add(QQ.coerce("1/2"), QQ.coerce("1/3")) == Fraction(5, 6)


def test_gf5_division_against_multiplication_table():
    F5 = PrimeField(5)
    table = {(a, b): (a * b) % 5 for a in range(5) for b in range(5)}
    for a in range(5):
        for b in range(1, 5):
            q = F5.div(a, b)
            assert table[(q, b)] == a


@pytest.mark.parametrize("p", [2, 3, 5])
def test_field_axioms_exhaustive(p):
    F = PrimeField(p)
    els = range(p)
    for a, b, c in itertools.product(els, repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in els:
        assert F.add(a, F.neg(a)) == 0
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17])
def test_inverses_exhaustive(p):
    F = PrimeField(p)
    for a in range(1, p):
        assert F.mul(a, F.inv(a)) == 1


def test_rationals_stay_reduced():
    x = QQ.add(QQ.coerce("2/4"), QQ.coerce("1/6"))
    assert x == Fraction(2, 3)
    assert x.denominator == 3
    assert QQ.div(QQ.coerce(3), QQ.coerce("3/7")) == Fraction(7, 1)


def test_division_by_zero():
    F3 = PrimeField(3)
    with pytest.raises(DivisionByZero):
        F3.div(F3.coerce(1), F3.coerce(3))
    with pytest.raises(DivisionByZero):
        F3.inv(F3.zero)
    with pytest.raises(DivisionByZero):
        QQ.div(QQ.coerce(1), QQ.coerce(0))
    with pytest.raises(DivisionByZero):
        QQ.inv(QQ.zero)


def test_field_mismatch():
    gf2, gf3, q = (SubspaceBasis.span(f, [[1, 0]]) for f in (PrimeField(2), PrimeField(3), QQ))
    with pytest.raises(FieldMismatch):
        gf2.contains(gf3)
    with pytest.raises(FieldMismatch):
        subspace_combine(gf3, gf2, "sum")
    with pytest.raises(FieldMismatch):
        subspace_combine(gf2, q, "intersect")


def test_primality_checked_at_construction():
    for bad in (0, 1, 4, 9, 15, 2**31 + 11):
        with pytest.raises(ValueError):
            PrimeField(bad)
    assert is_prime(2**31 - 1)  # a Mersenne prime at the cap
    PrimeField(2**31 - 1)


def test_name_round_trip():
    for field in (PrimeField(2), PrimeField(97), QQ):
        assert field_from_name(field.name) == field
    with pytest.raises(ValueError):
        field_from_name("GF(6)")
    with pytest.raises(ValueError):
        field_from_name("R")


def test_no_floats_allowed():
    with pytest.raises(TypeError):
        PrimeField(5).coerce(1.5)
    with pytest.raises(TypeError):
        QQ.coerce(0.25)


def test_wide_products_stay_exact():
    p = 2**31 - 1
    F = PrimeField(p)
    a = p - 2
    assert F.mul(a, a) == pow(a, 2, p)
    assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("inner", [1, 2, 37])
def test_large_prime_matmul_matches_python_ints(inner):
    # for p = 2^31 - 1 only one product fits in int64, so inner > 1 takes the limb route
    p = 2**31 - 1
    F = PrimeField(p)
    rng = random.Random(inner)
    a = [[p - 1] * inner] + [[rng.randrange(p) for _ in range(inner)] for _ in range(3)]
    b = [[p - 1, 0, 1] + [rng.randrange(p) for _ in range(2)] for _ in range(inner)]
    want = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
    assert F.matmul(F.array(a), F.array(b)).tolist() == want


# Shapes (rows, inner, cols) around every PrimeField.matmul route boundary:
# either side of FLOAT_MIN_MAC = 4096 multiply-adds; inner 1 and 2, the
# direct int64 limit for p = 2^31 - 1; inner either side of its 2^15 limb
# block, and 40000 (two blocks there, one long float sum for small p);
# empty operands.
KERNEL_PRIMES = (2, 3, 65521, 2**31 - 1)
KERNEL_SHAPES = [
    (16, 16, 15), (16, 16, 16), (17, 16, 16), (4, 1, 1024), (1, 4096, 1), (3, 1, 4), (3, 2, 5),
    (2, 32768, 2), (2, 32769, 2), (1, 40000, 1), (0, 5, 3), (3, 5, 0), (3, 0, 2), (0, 0, 4),
]


def _kernel_case(p, rows, inner, cols, seed, extreme, strided):
    """Operands with entries in [0, p): random, or all p - 1 (the largest sums);
    strided ones are every other row and column of a larger array."""
    rng = np.random.default_rng(seed)

    def operand(r, c):
        step = 2 if strided else 1
        shape = (r * step, c * step)
        full = np.full(shape, p - 1, dtype=np.int64) if extreme else rng.integers(0, p, shape, dtype=np.int64)
        return full[::step, ::step]

    return PrimeField(p), operand(rows, inner), operand(inner, cols)


@st.composite
def kernel_cases(draw):
    tiny = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
    shape = draw(st.sampled_from(KERNEL_SHAPES) | tiny)
    return _kernel_case(
        draw(st.sampled_from(KERNEL_PRIMES)), *shape,
        draw(st.integers(0, 2**32 - 1)), draw(st.booleans()), draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(case=kernel_cases())
@example(case=_kernel_case(2**31 - 1, 1, 40000, 1, 0, True, False))
@example(case=_kernel_case(2**31 - 1, 2, 32769, 2, 1, False, True))
@example(case=_kernel_case(2, 1, 40000, 1, 0, True, True))
@example(case=_kernel_case(65521, 17, 16, 16, 2, True, False))
def test_prime_matmul_matches_python_ints_on_every_route(case):
    field, a, b = case
    p = field.p
    want = [[sum(x * y for x, y in zip(row, col)) % p for col in b.T.tolist()] for row in a.tolist()]
    got = field.matmul(a, b)
    assert got.dtype == np.int64
    assert got.shape == (a.shape[0], b.shape[1])
    assert got.tolist() == want


@st.composite
def rational_cases(draw):
    """Q operands with entries of every kind the arrays may hold: Fractions
    with small, negative and large (up to 10^30) denominators, ints and
    np.int64; inner size 0 and all-zero columns included."""
    rows, inner, cols = draw(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)))
    den = st.integers(1, 12) | st.integers(-(10**30), 10**30).filter(bool)
    entry = st.one_of(
        st.builds(Fraction, st.integers(-(10**40), 10**40), den),
        st.integers(-(10**20), 10**20),
        st.integers(-(2**62), 2**62).map(np.int64),
        st.just(Fraction(0)),
    )

    def operand(r, c):
        a = np.empty((r, c), dtype=object)
        for i in range(r):
            for j in range(c):
                a[i, j] = draw(entry)
        if c and draw(st.booleans()):
            a[:, draw(st.integers(0, c - 1))] = Fraction(0)
        return a

    return operand(rows, inner), operand(inner, cols)


@settings(max_examples=200, deadline=None)
@given(case=rational_cases())
@example(case=(np.empty((2, 0), dtype=object), np.empty((0, 3), dtype=object)))
def test_rational_matmul_matches_fraction_dot(case):
    a, b = case
    as_fractions = np.vectorize(lambda x: Fraction(int(x)) if not isinstance(x, Fraction) else x, otypes=[object])
    fa, fb = as_fractions(a).reshape(a.shape), as_fractions(b).reshape(b.shape)
    want = np.dot(fa, fb) if a.shape[1] else np.full((a.shape[0], b.shape[1]), Fraction(0), dtype=object)
    got = QQ.matmul(a, b)
    assert got.dtype == object and got.shape == (a.shape[0], b.shape[1])
    assert all(type(x) is Fraction for x in got.flat)
    assert got.tolist() == want.tolist()
