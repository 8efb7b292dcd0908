"""Banded, eventually shift-stationary endomorphisms of a profile space.

An operator is given by a band width w, two stationary block families and
an explicit boundary region.  The image of the basis vector e_{n,i} is:

* for n inside the boundary region [b_lo, b_hi]: its row of the block;
* for n < b_lo: the stationary rule, whose component at level n+j is
  column i of left_blocks[j] (j in [-w, w]);
* for n > b_hi: the same with right_blocks.

Bandedness (every column supported in levels [n-w, n+w]) makes the map
well defined on the whole space, image-bounded on the product side, and
continuous: the preimage of U_a contains U_{a-w} up to finitely many
linear conditions.  The class is closed under composition, restriction
to blockwise invariant subspaces, and induced quotient maps; inverses
are verified against a caller-supplied candidate rather than computed.
A composite f.g has one banded product, of g's action rows by f's
(`_composite_rows`): `compose` reads f.g off it, and `verify_inverse`
compares it with the unit rows, one product per order of the pair.

Every operator is valid: the constructor runs `validate` and raises
InvalidOperator with its violations.  An operator stores one boundary,
its block: the images of the boundary levels b_lo..b_hi as dense rows,
over the window (b_lo - 1 - w, b_hi + w] or over the one its builder
records (`block_window`).  The constructor turns LlcVector columns into
the block once (`_columns_block`), and `_from_rows` passes rows straight
in; `columns` and `column` are views read off the block.  Dense actions
(`_action_rows`) slice the block, and the stationary levels are whole
shifted copies of a row of blocks (`_stationary_rows`), which also gives
`compose` its block convolution as one product.  `_action_rows` is the
only array action; the packed GF(2) kernels of `gf2rows` pack the same
block.  `compose`, `operator_add`, `direct_sum_operator`,
`induce_on_subspace_and_quotient`, `decompose_vc_vd` and the generators'
automorphisms read the operators they make off dense action rows and
build them with one builder, `_from_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice

import numpy as np

from .errors import (
    EngineInvariant,
    InvalidOperator,
    InvarianceFailure,
    NonConstantProfile,
    ProfileMismatch,
)
from .linalg import SubspaceBasis
from .spaces import BlockwisePattern, CompactOpenSubspace, LlcVector, Profile


class BandedOperator:
    """A continuous endomorphism in banded eventually-stationary form."""

    __slots__ = (
        "profile", "width", "left_blocks", "right_blocks", "b_lo", "b_hi", "block", "block_window",
        "_faults", "_stacks", "_edge_power", "_packed", "_inverse", "_tail_ranks",
    )

    def __init__(self, profile: Profile, width: int, left_blocks: dict, right_blocks: dict, columns: dict):
        self._store(profile, width, left_blocks, right_blocks, *_columns_block(profile, int(width), columns))

    def _store(self, profile, width, left_blocks, right_blocks, b_lo, b_hi, block, lo, hi, faults):
        """Keep the blocks and the boundary block over (lo, hi], then validate."""
        f = profile.field
        self.profile = profile
        self.width = int(width)
        self.left_blocks = self._norm_blocks(f, left_blocks, profile.d_left)
        self.right_blocks = self._norm_blocks(f, right_blocks, profile.d_right)
        self.b_lo, self.b_hi = b_lo, b_hi
        self.block, self.block_window = block, (lo, hi)
        self._faults = faults  # `_columns_block`'s, for `validate`: empty on every operator built
        self._stacks = {}  # side -> `_stationary_rows`' kept rows
        self._edge_power = None
        self._packed = {}  # the GF(2) chain loop's action tables (gf2rows)
        self._inverse = None  # a verified inverse (entropy._check_pair, generators.random_automorphism)
        self._tail_ranks = {}  # (tail, a0) -> the limit-free tail constant (entropy)
        violations = validate(self)
        if violations:
            raise InvalidOperator(violations)

    def _norm_blocks(self, f, blocks, d):
        """Every given block, and zero blocks at the other shifts in [-w, w];
        `validate` reports the shifts outside the band."""
        w = self.width
        out = {j: f.array(blocks[j]) if j in blocks else f.zeros(d, d) for j in range(-w, w + 1)}
        out.update((j, f.array(b)) for j, b in blocks.items() if j not in out)
        return out

    # -- column access: views read off the block ------------------------------
    @property
    def columns(self) -> dict:
        """{n: (column(n, 0), column(n, 1), ...)} for the boundary levels."""
        p = self.profile
        images = iter(LlcVector.from_rows(p, *self.block_window, self.block))
        return {n: tuple(islice(images, p.dim(n))) for n in range(self.b_lo, self.b_hi + 1)}

    def column(self, n: int, i: int) -> LlcVector:
        """The image of the basis vector e_{n,i}."""
        p, w = self.profile, self.width
        if self.b_lo <= n <= self.b_hi:
            lo, hi = self.block_window
            a, b = max(lo, n - 1 - w), min(hi, n + w)
            r, start = p.window_dim(self.b_lo - 1, n - 1) + i, p.window_dim(lo, a)
            return LlcVector.from_rows(p, a, b, self.block[r : r + 1, start : start + p.window_dim(a, b)])[0]
        blocks = self.left_blocks if n < self.b_lo else self.right_blocks
        stack = ((n + j, blocks[j][:, i].tolist()) for j in range(-w, w + 1))
        return LlcVector._reduced(p, {(m, r): v for m, col in stack for r, v in enumerate(col) if v})

    def right_edge_power(self) -> np.ndarray:
        """The columns of a basis of the column space of Psi^e, cached.

        Psi takes the coordinates of w consecutive right-stationary levels
        t+1..t+w to the components of their images on the next w levels
        t+w+1..t+2w, in the rows convention of `_action_rows`: block (a, b),
        from level t+1+a to level t+w+1+b, is right_blocks[w+b-a]
        transposed for b <= a and zero otherwise: the last w column blocks
        of the stationary rows of the levels t+1..t+w, which reach the
        levels t+1-w..t+2w (`_stationary_rows`).  Kernels of powers of a
        (w d_right)-square matrix stop growing by exponent w d_right, so
        Psi is squared up to the first power of two e at least that.  The
        columns kept are Psi^e's at the pivots of its reduced form: they
        have full column rank and the same row kernel, so x Psi^e = 0
        exactly when x times them is 0, and their number is the rank.
        """
        if self._edge_power is None:
            f = self.profile.field
            w, d = self.width, self.profile.d_right
            psi = _stationary_rows(self, "right", w)[:, 2 * w * d :]
            e = 1
            while e < w * d:
                psi, e = f.matmul(psi, psi), 2 * e
            self._edge_power = psi[:, list(SubspaceBasis.span(f, psi).pivots)]
        return self._edge_power

    def apply(self, v: LlcVector) -> LlcVector:
        """The image of v, summed column by column into one dict.

        The sums are reduced as they are made, and the slots are those of
        columns over this profile (`validate`), so the support is kept as
        it is.
        """
        p = self.profile
        if v.profile != p:
            raise ProfileMismatch("vector over a different profile")
        f = p.field
        add, mul, zero = f.add, f.mul, f.zero
        out = {}
        get = out.get
        for (n, i), c in v.support.items():
            for key, val in self.column(n, i).support.items():
                out[key] = add(get(key, zero), mul(val, c))
        return LlcVector._reduced(p, {key: val for key, val in out.items() if val})

    # -- equality: the same action on the union region and one level past it
    def __eq__(self, other):
        """Equal stationary blocks and boundary images: the same action rows
        on the union of the regions and on one level past it on each side,
        where both act by their stationary blocks and the rows are the
        block stacks (blocks outside the band are invalid, so zero)."""
        if not isinstance(other, BandedOperator) or self.profile != other.profile:
            return False
        w = max(self.width, other.width)
        lo, hi = min(self.b_lo, other.b_lo) - 1, max(self.b_hi, other.b_hi) + 1
        window = (lo - 1, hi, lo - 1 - w, hi + w)
        return np.array_equal(_action_rows(self, *window), _action_rows(other, *window))

    def __repr__(self):
        return (
            f"BandedOperator(width={self.width}, boundary=[{self.b_lo},{self.b_hi}], "
            f"profile levels [{self.profile.n_lo},{self.profile.n_hi}])"
        )


def validate(op: BandedOperator) -> list:
    """Structural violations of the banded eventually-stationary contract.

    The blocks and the cover of the region come first, then one violation
    per boundary column, in level order: its fault from `_columns_block`,
    or the first level outside its band that its row of the block reaches.
    """
    p = op.profile
    out = []
    if op.width < 0:
        out.append("negative band width")
        return out
    for j in range(-op.width, op.width + 1):
        if op.left_blocks[j].shape != (p.d_left, p.d_left):
            out.append(f"left block at shift {j}: expected shape {(p.d_left, p.d_left)}, got {op.left_blocks[j].shape}")
        if op.right_blocks[j].shape != (p.d_right, p.d_right):
            out.append(f"right block at shift {j}: expected shape {(p.d_right, p.d_right)}, got {op.right_blocks[j].shape}")
    for side, blocks in (("left", op.left_blocks), ("right", op.right_blocks)):
        if len(blocks) != 2 * op.width + 1:
            for j in sorted(set(blocks) - set(range(-op.width, op.width + 1))):
                out.append(f"{side} block at shift {j} outside the band [{-op.width},{op.width}]")
    if op.b_lo > p.n_lo - op.width or op.b_hi < p.n_hi + op.width:
        out.append(
            f"boundary region [{op.b_lo},{op.b_hi}] does not cover [{p.n_lo - op.width},{p.n_hi + op.width}]"
        )
    faults = dict(op._faults)
    lo, w, base = op.block_window[0], op.width, op.b_lo - 1
    band = []  # each row's band [n - w, n + w], as block columns
    for n in range(op.b_lo, op.b_hi + 1):
        band += [(p.window_dim(lo, n - 1 - w), p.window_dim(lo, n + w))] * p.dim(n)
    rows, cols = np.nonzero(op.block)
    for r, c in zip(rows.tolist(), cols.tolist()):
        if not band[r][0] <= c < band[r][1]:
            n = p.level_at(base, r)
            i = r - p.window_dim(base, n - 1)
            faults.setdefault((n, i), f"band exceeded: column ({n},{i}) reaches level {p.level_at(lo, c)}")
    out.extend(faults[key] for key in sorted(faults))
    return out


def _columns_block(p: Profile, w: int, columns: dict) -> tuple:
    """(b_lo, b_hi, block, lo, hi, faults): the LlcVector columns of the
    levels b_lo..b_hi as the rows of a boundary block over (lo, hi], the
    window (b_lo - 1 - w, b_hi + w] widened to every entry, so that
    `validate` sees each entry that leaves its band.

    A level that is missing or has the wrong number of columns is a fault
    keyed (n, -1), a column over another profile one keyed (n, i); their
    rows stay zero, and `validate` reports the faults in key order.
    """
    columns = {int(n): tuple(cols) for n, cols in columns.items()}
    b_lo, b_hi = (min(columns), max(columns)) if columns else (0, 0)
    faults, kept, r = {}, [], 0
    for n in range(b_lo, b_hi + 1):
        cols = columns.get(n)
        if cols is None:
            faults[n, -1] = f"missing boundary columns at level {n}"
        elif len(cols) != p.dim(n):
            faults[n, -1] = f"boundary columns at level {n}: expected {p.dim(n)}, got {len(cols)}"
        else:
            for i, col in enumerate(cols):
                if col.profile != p:
                    faults[n, i] = f"column ({n},{i}) over a different profile"
                else:
                    kept.append((r + i, col.support))
        r += p.dim(n)
    levels = [m for _row, support in kept for (m, _s) in support]
    lo, hi = min([b_lo - 1 - w] + [m - 1 for m in levels]), max([b_hi + w] + levels)
    offs = list(accumulate((p.dim(m) for m in range(lo + 1, hi)), initial=0))
    at, vals = ([], []), []
    for row, support in kept:
        for (m, s), v in support.items():
            at[0].append(row)
            at[1].append(offs[m - lo - 1] + s)
            vals.append(v)
    block = p.field.zeros(r, p.window_dim(lo, hi))
    block[at] = vals
    return b_lo, b_hi, block, lo, hi, faults


def identity_operator(profile: Profile) -> BandedOperator:
    f, lo, hi = profile.field, profile.n_lo, profile.n_hi
    units = {0: f.eye(profile.d_left)}, {0: f.eye(profile.d_right)}
    return _from_rows(profile, 0, *units, lo, hi, f.eye(profile.window_dim(lo - 1, hi)), lo - 1, hi)


def zero_operator(profile: Profile) -> BandedOperator:
    lo, hi = profile.n_lo, profile.n_hi
    k = profile.window_dim(lo - 1, hi)
    return _from_rows(profile, 0, {}, {}, lo, hi, profile.field.zeros(k, k), lo - 1, hi)


def make_shift(profile: Profile, direction: str) -> BandedOperator:
    """The two-sided Bernoulli shifts on a constant profile.

    right: e_{n,i} -> e_{n+1,i}; left: e_{n,i} -> e_{n-1,i}.  They are
    mutually inverse topological automorphisms.
    """
    if not profile.is_constant():
        raise NonConstantProfile("shifts need a constant dimension profile")
    if direction not in ("left", "right"):
        raise ValueError(f"unknown direction {direction!r}")
    step = 1 if direction == "right" else -1
    f = profile.field
    d = profile.d_left
    b_lo, b_hi = profile.n_lo - 1, profile.n_hi + 1
    # row r, of level b_lo + r // d, is the unit at column r + (1 + step) d of (b_lo - 2, b_hi + 1]
    k = (b_hi - b_lo + 1) * d
    rows = f.zeros(k, k + 2 * d)
    rows[:, (1 + step) * d : (1 + step) * d + k] = f.eye(k)
    return _from_rows(profile, 1, {step: f.eye(d)}, {step: f.eye(d)}, b_lo, b_hi, rows, b_lo - 2, b_hi + 1)


def compose(f_op: BandedOperator, g_op: BandedOperator) -> BandedOperator:
    """The composite f_op . g_op (apply g first), read off the rows of
    `_composite_rows` on the levels b_lo-1 .. b_hi+1 of its region.

    Its stationary blocks are the convolutions sum_{j1+j2=j} F_{j1} G_{j2},
    one product per side in the rows convention of `_action_rows`: the
    rows of one level under g, [G_-wg^T ... G_wg^T], times the rows of the
    2 wg + 1 levels they reach under f give [C_-w^T ... C_w^T]
    (`_stationary_rows`).  The stationary rule must continue the region:
    the rows of level b_lo-1 are the left stack then zeros, those of level
    b_hi+1 zeros then the right stack.  The rows in between are its columns.
    """
    if f_op.profile != g_op.profile:
        raise ProfileMismatch("composing operators over different profiles")
    p, w = f_op.profile, f_op.width + g_op.width
    b_lo, b_hi, prod = _composite_rows(f_op, g_op)
    rows, cols = prod.shape

    def convolve(side, d, edge, at):
        """One side's blocks, checked against `edge`, the rows of the level
        just past the region there, whose images start at column `at`."""
        conv = p.field.matmul(_stationary_rows(g_op, side, 1), _stationary_rows(f_op, side, 2 * g_op.width + 1))
        want = p.field.zeros(d, cols)
        want[:, at : at + conv.shape[1]] = conv
        if not np.array_equal(edge, want):
            raise EngineInvariant("compose: stationary mismatch")
        return {j: conv[:, (j + w) * d : (j + w + 1) * d].T for j in range(-w, w + 1)}

    left = convolve("left", p.d_left, prod[: p.d_left], 0)
    right = convolve("right", p.d_right, prod[rows - p.d_right :], cols - (2 * w + 1) * p.d_right)
    return _from_rows(p, w, left, right, b_lo, b_hi, prod[p.d_left : rows - p.d_right], b_lo - 2 - w, b_hi + 1 + w)


def _from_rows(p: Profile, w: int, left: dict, right: dict, b_lo: int, b_hi: int, rows: np.ndarray, lo: int, hi: int):
    """The operator whose boundary levels b_lo..b_hi map, in level order,
    to the rows of reduced scalars over the coordinates (lo, hi], kept as
    its block."""
    op = BandedOperator.__new__(BandedOperator)
    op._store(p, w, left, right, b_lo, b_hi, rows, lo, hi, {})
    return op


def operator_add(f_op: BandedOperator, g_op: BandedOperator) -> BandedOperator:
    """f_op + g_op, the sum of their action rows on the union of their
    regions, which covers the wider one's band by validity."""
    if f_op.profile != g_op.profile:
        raise ProfileMismatch("adding operators over different profiles")
    p = f_op.profile
    f = p.field
    w = max(f_op.width, g_op.width)
    left, right = (
        {j: f.normalize(mine.get(j, 0) + theirs.get(j, 0)) for j in range(-w, w + 1)}
        for mine, theirs in ((f_op.left_blocks, g_op.left_blocks), (f_op.right_blocks, g_op.right_blocks))
    )
    b_lo, b_hi = min(f_op.b_lo, g_op.b_lo), max(f_op.b_hi, g_op.b_hi)
    lo, hi = b_lo - 1 - w, b_hi + w
    rows = _action_rows(f_op, b_lo - 1, b_hi, lo, hi) + _action_rows(g_op, b_lo - 1, b_hi, lo, hi)
    return _from_rows(p, w, left, right, b_lo, b_hi, f.normalize(rows), lo, hi)


def power(op: BandedOperator, k: int) -> BandedOperator:
    """op composed with itself k times; the identity for k = 0 and op itself for k = 1."""
    if k < 0:
        raise ValueError("power expects k >= 0")
    if k == 0:
        return identity_operator(op.profile)
    out = op
    for _ in range(k - 1):
        out = compose(op, out)
    return out


def verify_inverse(f_op: BandedOperator, g_op: BandedOperator) -> bool:
    """True iff f_op and g_op compose to the identity both ways.

    Each order is the product `compose` reads f.g off (`_composite_rows`),
    with no composite built: its rows must be the unit rows at their own
    coordinates, which is `compose(f, g) == identity_operator(...)`: unit
    edge rows are the identity's convolved blocks, and the rows in between
    are the composite's columns over its region.
    """
    if f_op.profile != g_op.profile:
        raise ProfileMismatch("operators over different profiles")
    return _composes_to_identity(f_op, g_op) and _composes_to_identity(g_op, f_op)


def _composite_region(p: Profile, f_region: tuple, g_region: tuple) -> tuple:
    """(b_lo, b_hi, width) of f . g from those of f and g: below b_lo, g
    acts by its left blocks and reaches only levels where f does too, all
    below n_lo, so f.g acts there by the convolved blocks; the same holds
    past b_hi."""
    (f_lo, f_hi, wf), (g_lo, g_hi, wg) = f_region, g_region
    w = wf + wg
    return min(g_lo, f_lo - wg, p.n_lo - w), max(g_hi, f_hi + wg, p.n_hi + w), w


def _composite_rows(f_op: BandedOperator, g_op: BandedOperator):
    """(b_lo, b_hi, rows): the boundary region of f_op . g_op
    (`_composite_region`), and its rows on the levels b_lo-1 .. b_hi+1 over
    (b_lo-2-w, b_hi+1+w], w the sum of the widths, as one exact product
    of `_action_rows` windows widened by the band.
    """
    p, wg = f_op.profile, g_op.width
    b_lo, b_hi, w = _composite_region(p, (f_op.b_lo, f_op.b_hi, f_op.width), (g_op.b_lo, g_op.b_hi, g_op.width))
    lo, hi = b_lo - 2, b_hi + 1
    return b_lo, b_hi, p.field.matmul(
        _action_rows(g_op, lo, hi, lo - wg, hi + wg),
        _action_rows(f_op, lo - wg, hi + wg, lo - w, hi + w),
    )


def _composes_to_identity(f_op: BandedOperator, g_op: BandedOperator) -> bool:
    """f_op . g_op fixes each basis vector of the levels `_composite_rows` acts on."""
    p = f_op.profile
    b_lo, _b_hi, prod = _composite_rows(f_op, g_op)
    m, start = prod.shape[0], p.window_dim(b_lo - 2 - f_op.width - g_op.width, b_lo - 2)
    unit = p.field.zeros(m, prod.shape[1])
    unit[:, start : start + m] = p.field.eye(m)
    return np.array_equal(prod, unit)


def _stationary_rows(op: BandedOperator, side: str, count: int) -> np.ndarray:
    """The action rows of `count` consecutive levels that act by one side's
    stationary blocks, over the count + 2w levels they reach: row block k
    holds the stack B_-w^T ... B_w^T from column block k on.

    The rows of fewer levels are the first rows and columns of these, so
    each side keeps the rows of the most levels asked for (in `_stacks`),
    at least one and at least twice the last count kept.  They are written
    into a flat buffer in which row block k starts k (d L + d) entries in,
    L the row length, so that one write puts the stack into every row
    block.
    """
    d = op.profile.d_left if side == "left" else op.profile.d_right
    w = op.width
    kept = op._stacks.get(side)
    if kept is None or kept.shape[0] < count * d:
        size = max(count, 1) if kept is None else max(count, 2 * kept.shape[0] // d)
        length = (size + 2 * w) * d
        buf = op.profile.field.zeros(1, size * (d * length + d))
        blocks = op.left_blocks if side == "left" else op.right_blocks
        skew = buf.reshape(size, d * length + d)[:, : d * length].reshape(size, d, length)
        skew[:, :, : (2 * w + 1) * d] = np.concatenate([blocks[j].T for j in range(-w, w + 1)], axis=1)
        kept = op._stacks[side] = buf[0, : size * d * length].reshape(size * d, length)
    return kept[: count * d, : (count + 2 * w) * d]


def _place(p, mat, first: int, rows, lo: int, hi: int, dst_lo: int, dst_hi: int):
    """Copy rows over the coordinates (lo, hi] into mat over (dst_lo, dst_hi],
    from row `first` on: the columns at levels <= dst_lo are dropped, and a
    nonzero one above dst_hi raises ValueError.  Columns of rows past hi
    must be zero."""
    if hi > dst_hi and np.count_nonzero(rows[:, p.window_dim(lo, dst_hi) :]):
        raise ValueError("action window too small for the band")
    a, b = max(lo, dst_lo), min(hi, dst_hi)
    if a < b:
        start, width, at = p.window_dim(lo, a), p.window_dim(a, b), p.window_dim(dst_lo, a)
        mat[first : first + rows.shape[0], at : at + width] = rows[:, start : start + width]


def _action_rows(op: BandedOperator, src_lo: int, src_hi: int, dst_lo: int, dst_hi: int) -> np.ndarray:
    """Matrix of the operator from the source window (src_lo, src_hi] into
    the coordinates (dst_lo, dst_hi]; images below dst_lo are dropped
    (taken modulo the tail), images above dst_hi must not occur.

    The source levels fall into three runs: the levels below b_lo act by
    whole left stationary blocks, and the levels above b_hi by whole right
    ones, a slice of `_stationary_rows` each, as `validate` puts the
    levels they reach in the constant d_left / d_right regions; the
    boundary levels copy a slice of the block.  No offset table
    is built: each run finds its columns from `Profile.window_dim`.
    """
    p = op.profile
    w = op.width
    mat = p.field.zeros(p.window_dim(src_lo, src_hi), p.window_dim(dst_lo, dst_hi))
    left = min(src_hi, op.b_lo - 1)
    if left > src_lo and p.d_left:
        _place(p, mat, 0, _stationary_rows(op, "left", left - src_lo), src_lo - w, left + w, dst_lo, dst_hi)
    a, b = max(src_lo + 1, op.b_lo), min(src_hi, op.b_hi)
    if a <= b:
        # the images of the levels a..b lie in (a - 1 - w, b + w]
        base, (lo, hi) = op.b_lo - 1, op.block_window
        block = op.block[p.window_dim(base, a - 1) : p.window_dim(base, b)]
        _place(p, mat, p.window_dim(src_lo, a - 1), block, lo, min(hi, b + w), dst_lo, dst_hi)
    right = max(src_lo + 1, op.b_hi + 1)
    if right <= src_hi and p.d_right:
        stat = _stationary_rows(op, "right", src_hi - right + 1)
        _place(p, mat, p.window_dim(src_lo, right - 1), stat, right - 1 - w, src_hi + w, dst_lo, dst_hi)
    return mat


def image_rows_mod_tail(op: BandedOperator, w: CompactOpenSubspace, a: int):
    """Rows spanning op(W) mod U_a over the coordinates (a, top]; returns (rows, top).

    Only W modulo U_{a - width} is mapped (`CompactOpenSubspace.rows_over`):
    bandedness drops every deeper source into U_a.  When W = U_top with
    tail(W) >= a - width (every chain member C_m, and the U_tail of the
    limit-free tail constant), those rows are the unit rows of (a - width,
    top], so their images are the action rows themselves; any other W is
    mapped by one product with them.  The images lie in (a, top + width].
    """
    if w.profile != op.profile:
        raise ProfileMismatch("subspace over a different profile")
    if a > 0:
        raise ValueError("tail level must be <= 0")
    p = op.profile
    src_lo = a - op.width
    if w.top <= src_lo:
        # every source sits deep enough that its image stays inside U_a
        return p.field.zeros(0, 0), a
    dst_hi = max(w.top + op.width, a)
    action = _action_rows(op, src_lo, w.top, a, dst_hi)
    if src_lo <= w.tail and w.window.rank == p.window_dim(w.tail, w.top):
        return action, dst_hi
    return p.field.matmul(w.rows_over(src_lo, w.top), action), dst_hi


def automorphism_image(op: BandedOperator, x: CompactOpenSubspace, inverse_width: int) -> CompactOpenSubspace:
    """The exact image op(X) of a compact open subspace under an automorphism.

    `inverse_width` must bound the band width of op's inverse: then
    op(U_t) contains U_{t - inverse_width}, so the image is again compact
    open and is presentable over that deeper tail.
    """
    a = x.tail - inverse_width
    rows, top = image_rows_mod_tail(op, x, a)
    return CompactOpenSubspace.from_rows(op.profile, a, rows, top)


# -- restriction and quotient along a blockwise invariant pattern ----------

def _restrict_block(field, block: np.ndarray, basis: SubspaceBasis) -> np.ndarray:
    """Matrix of the block on the pattern, in the pattern's basis coordinates."""
    if basis.rank == 0:
        return field.zeros(0, 0)
    imgs = field.matmul(block, basis.mat.T)  # columns = images of basis rows
    return field.normalize(imgs[list(basis.pivots), :])


def _project_block(block: np.ndarray, basis: SubspaceBasis) -> np.ndarray:
    """Matrix induced by the block on the quotient by the pattern."""
    free = basis.free_columns()
    return basis.reduce_rows(block[:, free].T)[:, free].T


def induce_on_subspace_and_quotient(op: BandedOperator, pattern: BlockwisePattern):
    """Check op-invariance of the pattern; return (restriction, induced quotient map).

    The invariance check is finite: the images of the pattern's basis rows
    (`BlockwisePattern.rows`) on the levels lo..hi, lo = min(m_lo - w, b_lo)
    - 1 and hi = max(m_hi + w, b_hi) + 1, as one product with the action
    rows.  Level lo acts by the left stationary blocks, and it and every
    level it reaches lie below m_lo, in the left constant pattern W_L: the
    image of a basis vector x of W_L there has component B_j x at level
    lo + j, so the images at lo lie in the pattern exactly when every B_j
    keeps W_L, and then so do those of every level below, shifted copies
    of them.  Level hi tests the right blocks against W_R the same way,
    and the levels between cover the pattern window and the boundary
    region.  An image whose quotient reading is nonzero leaves the
    pattern: InvarianceFailure names the first such basis vector, in level
    order, and its image.  The restriction reads the images at the pivots,
    and the quotient map reads the action rows of the free unit vectors
    modulo the pattern.
    """
    if op.profile != pattern.profile:
        raise ProfileMismatch("pattern over a different profile")
    p = op.profile
    f = p.field
    w = op.width

    lo = min(pattern.m_lo - w, op.b_lo) - 1
    hi = max(pattern.m_hi + w, op.b_hi) + 1
    action = _action_rows(op, lo - 1, hi, lo - 1 - w, hi + w)
    basis_rows = pattern.rows(lo - 1, hi)
    images = f.matmul(basis_rows, action)
    failing = np.flatnonzero((pattern.read(images, lo - 1 - w, hi + w, quotient=True) != 0).any(axis=1))
    if failing.size:
        r = int(failing[0])
        raise InvarianceFailure(
            LlcVector.from_rows(p, lo - 1, hi, basis_rows[r : r + 1])[0],
            LlcVector.from_rows(p, lo - 1 - w, hi + w, images[r : r + 1])[0],
        )

    sub_p = pattern.sub_profile()
    quot_p = pattern.quotient_profile()
    left_r = {j: _restrict_block(f, op.left_blocks[j], pattern.left) for j in range(-w, w + 1)}
    right_r = {j: _restrict_block(f, op.right_blocks[j], pattern.right) for j in range(-w, w + 1)}
    left_q = {j: _project_block(op.left_blocks[j], pattern.left) for j in range(-w, w + 1)}
    right_q = {j: _project_block(op.right_blocks[j], pattern.right) for j in range(-w, w + 1)}

    # the sub-profile's region lies inside m_lo..m_hi, so the levels
    # b_lo..b_hi lie inside lo..hi
    b_lo, b_hi = min(op.b_lo, sub_p.n_lo - w), max(op.b_hi, sub_p.n_hi + w)
    sub_rows = images[sub_p.window_dim(lo - 1, b_lo - 1) : sub_p.window_dim(lo - 1, b_hi)]
    free = np.concatenate(
        [p.window_dim(lo - 1, n - 1) + pattern.level_basis(n).free_columns() for n in range(b_lo, b_hi + 1)]
    )
    restricted = _from_rows(
        sub_p, w, left_r, right_r, b_lo, b_hi, pattern.read(sub_rows, lo - 1 - w, hi + w), lo - 1 - w, hi + w
    )
    induced = _from_rows(
        quot_p, w, left_q, right_q, b_lo, b_hi,
        pattern.read(action[free], lo - 1 - w, hi + w, quotient=True), lo - 1 - w, hi + w,
    )
    return restricted, induced


# -- decomposition along the product/sum splitting at level 0 --------------

@dataclass(frozen=True)
class ComponentDecomposition:
    """The four corner maps of an operator relative to V = V_c (+) V_d.

    V_c is the product side (levels <= 0), V_d the discrete side
    (levels > 0).  phi_cc and phi_dd are endomorphisms of the one-sided
    profiles; phi_cd and phi_dc are kept on the full profile with the
    complementary side zeroed out.  The corner from the product side into
    the discrete side always has finite-dimensional image and open
    kernel, which is asserted at construction.
    """

    source: BandedOperator
    phi_cc: BandedOperator
    phi_cd: BandedOperator
    phi_dc: BandedOperator
    phi_dd: BandedOperator
    c_profile: Profile
    d_profile: Profile
    cd_image_dim: int


def decompose_vc_vd(op: BandedOperator) -> ComponentDecomposition:
    """Corner maps of op for the canonical splitting at level 0.

    The corners are the blocks of op's boundary action rows, split at
    level 0 on both sides; validity puts the region around level 0.  The
    four corners' own action rows recombine to those rows, a check of the
    corners as built.
    """
    p = op.profile
    f = p.field
    w = op.width
    c_profile = Profile(
        f, p.d_left,
        tuple(p.dim(n) if n <= 0 else 0 for n in range(p.n_lo, p.n_hi + 1)),
        0, p.n_lo, p.n_hi,
    )
    d_profile = Profile(
        f, 0,
        tuple(0 if n <= 0 else p.dim(n) for n in range(p.n_lo, p.n_hi + 1)),
        p.d_right, p.n_lo, p.n_hi,
    )
    b_lo, b_hi = op.b_lo, op.b_hi
    lo, hi = b_lo - 1 - w, b_hi + w
    rows = _action_rows(op, b_lo - 1, b_hi, lo, hi)
    r0, c0 = p.window_dim(b_lo - 1, 0), p.window_dim(lo, 0)

    # the product-to-discrete corner: finite image, open kernel
    if np.any(rows[: p.window_dim(b_lo - 1, -w), c0:] != 0):
        raise EngineInvariant("corner into the discrete side must kill deep tail levels")
    cd_image_dim = SubspaceBasis.span(f, rows[:r0, c0:], ambient_dim=rows.shape[1] - c0).rank

    cd_rows, dc_rows = f.zeros(*rows.shape), f.zeros(*rows.shape)
    cd_rows[:r0, c0:] = rows[:r0, c0:]
    dc_rows[r0:, :c0] = rows[r0:, :c0]
    cc = _from_rows(c_profile, w, op.left_blocks, {}, b_lo, b_hi, rows[:r0, :c0], lo, hi)
    dd = _from_rows(d_profile, w, {}, op.right_blocks, b_lo, b_hi, rows[r0:, c0:], lo, hi)
    cd = _from_rows(p, w, {}, {}, b_lo, b_hi, cd_rows, lo, hi)
    dc = _from_rows(p, w, {}, {}, b_lo, b_hi, dc_rows, lo, hi)

    # reassembly: the four corners' action rows, each at its profile's
    # coordinates, recombine to op's on the boundary region
    window = (b_lo - 1, b_hi, lo, hi)
    total = _action_rows(cd, *window) + _action_rows(dc, *window)
    total[:r0, :c0] += _action_rows(cc, *window)
    total[r0:, c0:] += _action_rows(dd, *window)
    if not np.array_equal(f.normalize(total), rows):
        raise EngineInvariant("corner reassembly mismatch")

    return ComponentDecomposition(op, cc, cd, dc, dd, c_profile, d_profile, cd_image_dim)


# -- products ---------------------------------------------------------------

def direct_sum_profile(p1: Profile, p2: Profile) -> Profile:
    if p1.field != p2.field:
        raise ProfileMismatch("direct sum needs a common field")
    lo = min(p1.n_lo, p2.n_lo)
    hi = max(p1.n_hi, p2.n_hi)
    return Profile(
        p1.field,
        p1.d_left + p2.d_left,
        tuple(p1.dim(n) + p2.dim(n) for n in range(lo, hi + 1)),
        p1.d_right + p2.d_right,
        lo,
        hi,
    )


def direct_sum_operator(op1: BandedOperator, op2: BandedOperator):
    """op1 x op2 on the levelwise concatenation of the two profiles: each
    summand's action rows sit at its slots of every level (op1's first)."""
    p1, p2 = op1.profile, op2.profile
    p = direct_sum_profile(p1, p2)
    f = p.field
    w = max(op1.width, op2.width)

    def blockdiag(b1, b2, d1, d2, j):
        out = f.zeros(d1 + d2, d1 + d2)
        if j in b1:
            out[:d1, :d1] = b1[j]
        if j in b2:
            out[d1:, d1:] = b2[j]
        return out

    left = {j: blockdiag(op1.left_blocks, op2.left_blocks, p1.d_left, p2.d_left, j) for j in range(-w, w + 1)}
    right = {j: blockdiag(op1.right_blocks, op2.right_blocks, p1.d_right, p2.d_right, j) for j in range(-w, w + 1)}

    b_lo = min(op1.b_lo, op2.b_lo, p.n_lo - w)
    b_hi = max(op1.b_hi, op2.b_hi, p.n_hi + w)
    lo, hi = b_lo - 1 - w, b_hi + w
    rows = f.zeros(p.window_dim(b_lo - 1, b_hi), p.window_dim(lo, hi))
    skip = p.window_dim(lo, b_lo - 1)  # a row is its own coordinate's column less this
    for k, op in enumerate((op1, op2)):
        q = op.profile
        slots = np.array(
            [p.window_dim(lo, n - 1) + k * p1.dim(n) + s for n in range(lo + 1, hi + 1) for s in range(q.dim(n))],
            dtype=np.intp,
        )
        own = slots[q.window_dim(lo, b_lo - 1) : q.window_dim(lo, b_hi)] - skip
        rows[np.ix_(own, slots)] = _action_rows(op, b_lo - 1, b_hi, lo, hi)
    return _from_rows(p, w, left, right, b_lo, b_hi, rows, lo, hi)
