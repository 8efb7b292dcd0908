"""Exact scalar arithmetic: prime fields GF(p) and the rational field.

Matrices elsewhere in the package store raw entries (machine integers for
GF(p), `fractions.Fraction` for the rationals) inside numpy arrays; the
field object owns reduction, inversion and coercion so that every
operation stays exact.

A GF(p) product of an (m x k) and a (k x n) matrix with entries in [0, p)
has exact sums of at most k (p-1)^2; :meth:`PrimeField.matmul` picks the
cheapest route on which that stays exact (the FFLAS approach of Dumas,
Giorgi and Pernet, ACM TOMS 35(3), 2008):

* **float64 BLAS** while k (p-1)^2 < 2^53, which float64 holds exactly
  whatever the summation order, once the product has at least
  ``FLOAT_MIN_MAC`` multiply-adds (below that numpy's int64 loop is faster
  than the BLAS call and its conversions; ``tools/matmul_cutoff.py``
  measures the crossover);
* **direct int64** while k (p-1)^2 <= 2^62, which leaves int64 headroom;
* **two 16-bit limbs** of the right operand otherwise (p near 2^31): each
  limb product stays below 2^62 while k (p-1) 2^16 <= 2^62, i.e. k <= 2^15
  for p = 2^31 - 1, and longer inner dimensions are summed in blocks of
  that size.

Every route returns int64 entries reduced into [0, p).

Over Q, :meth:`RationalField.matmul` clears denominators: each operand
becomes a matrix of Python ints over the lcm of its denominators, one
integer product over object arrays replaces the Fraction arithmetic of a
plain dot product, which takes a gcd at every multiply and every add, and
each output entry is reduced once into a `Fraction`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

from .errors import DivisionByZero

PRIME_CAP = 1 << 31

# Exactness bounds of the PrimeField.matmul routes.
FLOAT_EXACT = 1 << 53  # float64 represents every integer below this exactly
INT64_SAFE = 1 << 62  # int64 sums up to this leave headroom below 2^63
LIMB_BITS = 16
LIMB_MASK = (1 << LIMB_BITS) - 1
# Fewest multiply-adds for which the float64 route beats the int64 loop:
# the crossover measured by tools/matmul_cutoff.py.
FLOAT_MIN_MAC = 4096


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for p <= 2^31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """GF(p); elements are plain integers reduced into [0, p)."""

    __slots__ = ("p", "_float_inner", "_int64_inner", "_limb_inner")

    def __init__(self, p: int):
        if not isinstance(p, int) or not (2 <= p <= PRIME_CAP) or not is_prime(p):
            raise ValueError(f"p must be a prime in [2, 2^31], got {p!r}")
        self.p = p
        # largest inner dimension each matmul route keeps exact
        square = (p - 1) ** 2
        self._float_inner = (FLOAT_EXACT - 1) // square
        self._int64_inner = INT64_SAFE // square
        self._limb_inner = INT64_SAFE // ((p - 1) << LIMB_BITS)

    # -- identity ---------------------------------------------------------
    @property
    def name(self) -> str:
        return f"GF({self.p})"

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    # -- scalar operations ------------------------------------------------
    zero = 0
    one = 1

    def coerce(self, x) -> int:
        if isinstance(x, (bool, float)):
            raise TypeError(f"not a GF({self.p}) element: {x!r}")
        if isinstance(x, (int, np.integer)):
            return int(x) % self.p
        raise TypeError(f"not a GF({self.p}) element: {x!r}")

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a = int(a) % self.p
        if a == 0:
            raise DivisionByZero(f"0 has no inverse in GF({self.p})")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    # -- array support ------------------------------------------------------
    dtype = np.int64

    def array(self, data) -> np.ndarray:
        a = np.asarray(data, dtype=np.int64)
        return a % self.p

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def normalize(self, a: np.ndarray) -> np.ndarray:
        return a % self.p

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact a @ b over GF(p) for entries in [0, p); int64, reduced into [0, p).

        Routes, by inner dimension k (module docstring): float64 BLAS for
        k (p-1)^2 < 2^53 and at least FLOAT_MIN_MAC multiply-adds, direct
        int64 for k (p-1)^2 <= 2^62, else two 16-bit limbs of b summed in
        inner blocks of at most 2^62 / ((p-1) 2^16).
        """
        rows, inner, cols = a.shape[0], a.shape[-1], b.shape[-1]
        p = self.p
        if inner == 0:
            return np.zeros((rows, cols), dtype=np.int64)
        if inner <= self._float_inner and rows * inner * cols >= FLOAT_MIN_MAC:
            return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p
        if inner <= self._int64_inner:
            return (a @ b) % p
        # b = hi 2^16 + lo; (a @ hi) is reduced before the shift, so each
        # block sum stays below 2^62 + 2^47 + p
        hi, lo = b >> LIMB_BITS, b & LIMB_MASK
        step = self._limb_inner
        acc = 0
        for k in range(0, inner, step):
            s = slice(k, k + step)
            acc = ((((a[:, s] @ hi[s]) % p) << LIMB_BITS) + a[:, s] @ lo[s] + acc) % p
        return acc


class RationalField:
    """The field of rational numbers; elements are `Fraction` values."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return "Q"

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, bool) or isinstance(x, float):
            raise TypeError(f"not an exact rational: {x!r}")
        if isinstance(x, (int, np.integer)):
            return Fraction(int(x))
        if isinstance(x, Fraction):
            return x
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"not an exact rational: {x!r}")

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("0 has no inverse in Q")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero in Q")
        return Fraction(a) / Fraction(b)

    dtype = object

    def array(self, data) -> np.ndarray:
        a = np.empty(np.shape(data), dtype=object)
        flat = a.reshape(-1)
        src = np.asarray(data, dtype=object).reshape(-1)
        for i, x in enumerate(src):
            flat[i] = self.coerce(x)
        return a

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.full((rows, cols), Fraction(0), dtype=object)

    def eye(self, n: int) -> np.ndarray:
        a = self.zeros(n, n)
        for i in range(n):
            a[i, i] = Fraction(1)
        return a

    def normalize(self, a: np.ndarray) -> np.ndarray:
        return a

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact a @ b over Q, one `Fraction` per output entry.

        a = A / L_a and b = B / L_b with A, B Python-int matrices and L_a,
        L_b the lcm of each operand's denominators, so a @ b is the integer
        product A @ B over L_a L_b (module docstring).
        """
        rows, inner, cols = a.shape[0], a.shape[-1], b.shape[-1]
        if not (rows and inner and cols):
            return self.zeros(rows, cols)
        (num_a, den_a), (num_b, den_b) = _over_common_denominator(a), _over_common_denominator(b)
        den = den_a * den_b
        out = [Fraction(x, den) for x in np.dot(num_a, num_b).ravel().tolist()]
        return np.array(out, dtype=object).reshape(rows, cols)


def _over_common_denominator(a: np.ndarray) -> tuple:
    """(A, L): a = A / L, L the lcm of a's denominators and A an object array
    of Python ints (int and np.int64 entries are their own numerators)."""
    flat = a.ravel().tolist()
    lcm = math.lcm(*(x.denominator for x in flat))
    nums = [int(x.numerator) * (lcm // x.denominator) for x in flat]
    return np.array(nums, dtype=object).reshape(a.shape), lcm


QQ = RationalField()

_GF_RE = re.compile(r"^GF\((\d+)\)$")


def field_from_name(name: str):
    """Parse the serialized field name: ``"GF(p)"`` or ``"Q"``."""
    if name == "Q":
        return QQ
    m = _GF_RE.match(name)
    if m:
        return PrimeField(int(m.group(1)))
    raise ValueError(f"unknown field name {name!r}")
