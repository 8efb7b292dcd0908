"""Dense enumeration oracle for GF(2), constant profile d = 1.

Vectors truncated to levels [lo, hi] are bitmask integers (bit k is
level lo + k).  Subspace operations are checked against literal span
enumeration and set arithmetic, fully independent of the package's
echelon machinery.
"""

from __future__ import annotations


def level_bit(lo: int, level: int) -> int:
    return 1 << (level - lo)


def vector_bits(vec, lo: int, hi: int) -> int:
    bits = 0
    for (n, _i), v in vec.support.items():
        if not lo <= n <= hi:
            raise ValueError(f"support level {n} outside [{lo},{hi}]")
        if v % 2:
            bits |= level_bit(lo, n)
    return bits


def span_set(gens) -> frozenset:
    out = {0}
    for g in gens:
        out |= {x ^ g for x in out}
    return frozenset(out)


def subspace_bits(w, lo: int, hi: int) -> frozenset:
    """All truncated elements of a compact open subspace with tail >= lo."""
    if not (w.tail >= lo and w.top <= hi):
        raise ValueError(f"subspace tail {w.tail} and top {w.top} outside [{lo},{hi}]")
    gens = [level_bit(lo, n) for n in range(lo, w.tail + 1)]
    gens += [vector_bits(v, lo, hi) for v in w.window_vectors()]
    return span_set(gens)


def dim_of(span: frozenset) -> int:
    return len(span).bit_length() - 1


def image_plus_tail_bits(op, w, a: int, lo: int, hi: int) -> frozenset:
    """Dense span of op(W) + U_a, truncated to [lo, hi].

    Requires every relevant image to stay inside the range: the caller
    must keep op's band and the subspace windows away from the edges.
    """
    gens = [level_bit(lo, n) for n in range(lo, a + 1)]
    for n in range(lo, w.tail + 1):
        gens.append(vector_bits(op.column(n, 0).restrict(lo=a + 1), lo, hi))
    for v in w.window_vectors():
        gens.append(vector_bits(op.apply(v).restrict(lo=a + 1), lo, hi))
    return span_set(gens)
