"""Seeded random instances for property campaigns and tests.

Automorphisms are built constructively (shifts, levelwise changes of
basis, unipotent finite-window perturbations) so an exact inverse is
always available; invariant patterns for the addition checks are built
as slot subsets preserved by block-diagonal operators.  A change of
basis inverts each matrix it draws once, when it checks the draw.  A
unipotent 1 + N has N zero outside a finite window of source levels, so
N is nilpotent and (1 + N)^-1 is the finite series 1 - N + N^2 - ...,
summed as one dense matrix over the levels N touches.
"""

from __future__ import annotations

import random
from functools import partial, reduce

import numpy as np

from .errors import EngineInvariant
from .linalg import invert_matrix
from .operators import (
    BandedOperator,
    _composite_region,
    _from_rows,
    compose,
    identity_operator,
    make_shift,
    verify_inverse,
)
from .spaces import BlockwisePattern, CompactOpenSubspace, LlcVector, Profile


def random_matrix(rng: random.Random, field, rows: int, cols: int):
    if rows == 0 or cols == 0:
        return field.zeros(rows, cols)
    if hasattr(field, "p"):
        return field.array([[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)])
    return field.array([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])


def random_invertible(rng: random.Random, field, n: int):
    """(m, m^-1) for the first invertible n x n `random_matrix` drawn."""
    while True:
        m = random_matrix(rng, field, n, n)
        inv = invert_matrix(field, m)
        if inv is not None:
            return m, inv


def random_vector(rng: random.Random, profile: Profile, levels) -> LlcVector:
    support = {}
    for n in levels:
        for i in range(profile.dim(n)):
            if rng.random() < 0.5:
                v = rng.randrange(1, profile.field.p) if hasattr(profile.field, "p") else rng.randint(1, 3)
                support[(n, i)] = v
    return LlcVector(profile, support)


def random_open_subspace(
    rng: random.Random, profile: Profile, tail_lo: int = -3, top_hi: int = 3
) -> CompactOpenSubspace:
    tail = rng.randint(tail_lo, 0)
    gens = [
        random_vector(rng, profile, range(tail + 1, top_hi + 1))
        for _ in range(rng.randint(0, 3))
    ]
    return CompactOpenSubspace.make(profile, tail, gens)


def random_endomorphism(
    rng: random.Random, profile: Profile, width: int = 1, boundary: int = 2
) -> BandedOperator:
    """A random banded eventually-stationary operator (no invertibility)."""
    f = profile.field
    left = {j: random_matrix(rng, f, profile.d_left, profile.d_left) for j in range(-width, width + 1)}
    right = {j: random_matrix(rng, f, profile.d_right, profile.d_right) for j in range(-width, width + 1)}
    b_lo = min(profile.n_lo - width, -boundary)
    b_hi = max(profile.n_hi + width, boundary)
    columns = {}
    for n in range(b_lo, b_hi + 1):
        per = []
        for _i in range(profile.dim(n)):
            lo, hi = n - width, n + width
            vec = random_vector(rng, profile, range(lo, hi + 1))
            per.append(vec)
        columns[n] = per
    return BandedOperator(profile, width, left, right, columns)


def degenerate_endomorphism(
    rng: random.Random, profile: Profile, width: int = 1, boundary: int = 2
) -> BandedOperator:
    """A `random_endomorphism` with degenerate right stationary blocks.

    The right blocks at the shifts width, -width and two random shifts
    are each zeroed, replaced by a product of a random column and a random
    row (rank at most one), made strictly upper triangular, or kept.  Such
    blocks make H(phi, C_m) rise late in m, which generic blocks do not.
    """
    op = random_endomorphism(rng, profile, width=width, boundary=boundary)
    f, d = profile.field, profile.d_right
    right = dict(op.right_blocks)
    for j in sorted({width, -width, rng.randint(-width, width), rng.randint(-width, width)}):
        kind = rng.choice(("zero", "rank one", "upper", "keep"))
        if kind == "zero":
            right[j] = f.zeros(d, d)
        elif kind == "rank one":
            right[j] = f.matmul(random_matrix(rng, f, d, 1), random_matrix(rng, f, 1, d))
        elif kind == "upper":
            right[j] = f.array(np.triu(right[j], 1))
    return BandedOperator(profile, width, op.left_blocks, right, op.columns)


def levelwise_change_of_basis(
    rng: random.Random, profile: Profile, window: tuple = (-1, 1)
):
    """A width-0 automorphism acting by an invertible matrix at each level."""
    f = profile.field
    left_m, left_inv = random_invertible(rng, f, profile.d_left)
    right_m, right_inv = random_invertible(rng, f, profile.d_right)
    lo = min(window[0], profile.n_lo)
    hi = max(window[1], profile.n_hi)
    pairs = {n: random_invertible(rng, f, profile.dim(n)) for n in range(lo, hi + 1)}

    def build(which, lmat, rmat):
        columns = {}
        for n in range(lo, hi + 1):
            m = pairs[n][which]
            per = []
            for i in range(profile.dim(n)):
                support = {(n, r): m[r, i] for r in range(profile.dim(n)) if m[r, i] != 0}
                per.append(LlcVector(profile, support))
            columns[n] = per
        return BandedOperator(profile, 0, {0: lmat}, {0: rmat}, columns)

    return build(0, left_m, right_m), build(1, left_inv, right_inv)


def unipotent_pair(rng: random.Random, profile: Profile, src_window: tuple = (-2, 1)):
    """(1 + N, 1 - N + N^2 - ...) for a nilpotent N that shifts levels by one.

    N sends each basis vector of the source levels s0..s1 to a random
    vector one level up or down (one `step` for all), and every other level
    to 0, so N^k = 0 for k > s1 - s0 + 1 and the inverse is a finite sum.
    It is summed as one dense matrix over the levels s0-1..s1+1 that N
    touches, in the rows convention of `_action_rows` (row r of R^k is
    N^k of basis vector r).  Its width K is the largest k with N^k != 0,
    and its region [min(n_lo, s0) - K, max(n_hi, s1) + K] is the union of
    the regions `compose` gives N^1..N^K, so the pair equals the one built
    term by term with `compose` and `operator_add`; for N = 0 the inverse
    is the identity operator.
    """
    f = profile.field
    s0, s1 = src_window
    step = rng.choice((1, -1))
    b_lo = min(profile.n_lo, s0) - 1
    b_hi = max(profile.n_hi, s1) + 1
    window = profile.window_dim(s0 - 2, s1 + 1)  # the coordinates of the levels s0-1..s1+1
    nil = f.zeros(window, window)
    columns = {}
    for n in range(b_lo, b_hi + 1):
        per = []
        for i in range(profile.dim(n)):
            image = {(n, i): f.one}
            if s0 <= n <= s1:
                vec = random_vector(rng, profile, [n + step])
                row = profile.window_dim(s0 - 2, n - 1) + i
                for (m, j), v in vec.support.items():
                    nil[row, profile.window_dim(s0 - 2, m - 1) + j] = v
                image.update(vec.support)
            per.append(LlcVector._reduced(profile, image))
        columns[n] = per
    unit_left, unit_right = {0: f.eye(profile.d_left)}, {0: f.eye(profile.d_right)}
    op = BandedOperator(profile, 1, unit_left, unit_right, columns)

    total, term, width = f.eye(window), nil, 0
    while term.any():
        width += 1
        total = f.normalize(total - term if width % 2 else total + term)
        term = f.matmul(term, nil)
    if width == 0:
        return op, identity_operator(profile)
    # the inverse's rows on its region b_lo+1-width .. b_hi+width-1 are unit
    # rows, but for the levels s0..s1: the sum's rows over (s0-2, s1+1]
    lo, hi = b_lo - width, b_hi + width - 1
    rows = f.eye(profile.window_dim(lo, hi))
    first, last = profile.window_dim(s0 - 2, s0 - 1), profile.window_dim(s0 - 2, s1)
    at = profile.window_dim(lo, s0 - 2)
    rows[at + first : at + last, at : at + window] = total[first:last]
    return op, _from_rows(profile, width, unit_left, unit_right, lo + 1, hi, rows, lo, hi)


def random_automorphism(
    rng: random.Random, profile: Profile, max_width: int = 2, boundary: int = 3
):
    """A random banded automorphism with its exact inverse.

    Composes a few invertible factors; retries until the band width and
    boundary region fit the requested budget.  The composite's region and
    width follow from the factors' (`_composite_region`), so an attempt
    that does not fit composes nothing.
    """
    for _attempt in range(64):
        factors = []
        n_factors = rng.randint(1, 3)
        used_width = 0
        for _ in range(n_factors):
            kind = rng.choice(("shift", "cob", "unipotent"))
            if kind == "shift" and used_width < max_width and profile.is_constant():
                direction = rng.choice(("left", "right"))
                other = "left" if direction == "right" else "right"
                factors.append((make_shift(profile, direction), make_shift(profile, other)))
                used_width += 1
            elif kind == "unipotent" and used_width < max_width:
                factors.append(unipotent_pair(rng, profile, (-2, 1)))
                used_width += 1
            else:
                factors.append(levelwise_change_of_basis(rng, profile, (-1, 1)))
        regions = [(fwd.b_lo, fwd.b_hi, fwd.width) for fwd, _back in factors]
        b_lo, b_hi, width = reduce(partial(_composite_region, profile), regions)
        if width <= max_width and b_lo >= -boundary and b_hi <= boundary:
            op = factors[0][0]
            for fwd, _back in factors[1:]:
                op = compose(op, fwd)
            inv = _reverse_inverse(factors)
            if not verify_inverse(op, inv):
                raise EngineInvariant("generator produced a bad inverse pair")
            return op, inv
    raise RuntimeError("could not fit an automorphism into the requested budget")


def _reverse_inverse(factors):
    rev = factors[-1][1]
    for _fwd, back in reversed(factors[:-1]):
        rev = compose(rev, back)
    return rev


def block_diagonal_instance(rng: random.Random, field, dims: tuple):
    """A block-diagonal operator on a constant profile of total dimension sum(dims).

    Each slot group carries an independent shift-flavoured automorphism;
    any union of groups yields an invariant slot-subset pattern.  Returns
    (op, inverse, group slot index sets, group entropies by closed form).
    """
    from .entropy import shift_closed_form
    from .operators import direct_sum_operator

    parts = []
    ents = []
    for d in dims:
        sub_profile = Profile.constant(field, d)
        direction = rng.choice(("left", "right"))
        other = "left" if direction == "right" else "right"
        op, inv = make_shift(sub_profile, direction), make_shift(sub_profile, other)
        if rng.random() < 0.5:
            cob, cob_inv = levelwise_change_of_basis(rng, sub_profile, (0, 0))
            op = compose(cob, compose(op, cob_inv))
            inv = compose(cob, compose(inv, cob_inv))
        parts.append((op, inv))
        ents.append(shift_closed_form(sub_profile, direction, 1))
    op, inv = parts[0]
    groups = []
    start = 0
    for d in dims:
        groups.append(tuple(range(start, start + d)))
        start += d
    for nxt, nxt_inv in parts[1:]:
        op = direct_sum_operator(op, nxt)
        inv = direct_sum_operator(inv, nxt_inv)
    return op, inv, groups, ents


def group_pattern(profile: Profile, groups, chosen) -> BlockwisePattern:
    slots = sorted(s for g in chosen for s in g)
    return BlockwisePattern.slot_subset(profile, slots)
