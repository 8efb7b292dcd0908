"""Reference chain constructions the engine tests compare against.

These build the trajectory and inverse-trajectory chains member by member
as canonical subspaces, and read the discrete entropy off absolute window
ranks.  They are deliberately slower and simpler than the incremental
engines in `llcent.entropy`, which are checked against them.
`grow_chain_full_window` is the engines' chain loop with the whole chain
basis reduced over the whole window at every step; it stands in for
`llcent.entropy._grow_chain`, which keeps only an active block.
`rref_per_pivot` is one Gauss-Jordan loop for every field, each pivot a
rank-1 update of the whole matrix; both routes of `llcent.linalg._rref`
(packed GF(2) rows, and a per-pivot loop that updates only the columns
from the pivot on) must return exactly what it returns.
`action_rows_by_columns` fills the dense action matrix entry by entry from
`BandedOperator.column`, and `compose_by_columns` builds a composite column
by column with small block products; `llcent.operators._action_rows`, which
slices an operator's boundary block and stationary rows, and `compose`,
which reads the composite off one banded product, must return the same.
`verify_inverse_by_composites` builds both composites with
`compose_by_columns` and compares each with the identity operator;
`llcent.operators.verify_inverse` must give the same verdict.
`edge_map_by_blocks` writes the stationary edge map Psi block by block;
`BandedOperator.right_edge_power`, which slices it from the operator's
stationary rows, must return the columns of its power that it gives.
`unipotent_pair_by_terms` sums (1 + N)^-1 term by term with `compose` and
`operator_add` until a power of N is the zero operator;
`llcent.generators.unipotent_pair`, which sums the series as one dense
matrix, must draw the same N and return the same pair.
`random_automorphism_composing_each_attempt` composes the factors of every
attempt and lets the composite's own width and region decide;
`llcent.generators.random_automorphism`, which decides from the factors'
regions and composes only the attempt it keeps, must draw the same factors
and return the same pair.
"""

import numpy as np

from llcent.entropy import (
    DEFAULT_CONFIG,
    EntropyConfig,
    EntropyResult,
    Status,
    _plateaued,
    _structural_horizon,
)
from llcent.errors import EngineInvariant, ProfileMismatch
from llcent.generators import (
    _reverse_inverse,
    levelwise_change_of_basis,
    random_vector,
    unipotent_pair,
)
from llcent.linalg import pad_basis_columns, rref_union
from llcent.operators import (
    BandedOperator,
    automorphism_image,
    compose,
    identity_operator,
    image_rows_mod_tail,
    make_shift,
    operator_add,
    zero_operator,
)
from llcent.spaces import CompactOpenSubspace, LlcVector, open_combine


def rref_per_pivot(field, a: np.ndarray):
    """Gauss-Jordan on a copy; returns (reduced nonzero rows, pivot columns)."""
    a = field.normalize(np.array(a, copy=True))
    m, n = a.shape
    modular = a.dtype != object
    pivots = []
    r = 0
    for col in range(n):
        if r == m:
            break
        hits = np.nonzero(a[r:, col])[0]
        if hits.size == 0:
            continue
        sel = r + int(hits[0])
        if sel != r:
            a[[r, sel]] = a[[sel, r]]
        inv = field.one if a[r, col] == field.one else field.inv(a[r, col])
        if inv != field.one:
            if modular:
                a[r] *= inv
                a[r] %= field.p
            else:
                a[r] = a[r] * inv
        col_vals = np.array(a[:, col], copy=True)
        col_vals[r] = field.zero
        if np.any(col_vals != 0):
            if modular:
                a -= np.outer(col_vals, a[r])
                a %= field.p
            else:
                a = a - np.outer(col_vals, a[r])
        pivots.append(col)
        r += 1
    return a[:r], pivots


def action_rows_by_columns(op: BandedOperator, src_lo: int, src_hi: int, dst_lo: int, dst_hi: int) -> np.ndarray:
    """The dense action of op from (src_lo, src_hi] into (dst_lo, dst_hi],
    one `column()` entry at a time: images at levels <= dst_lo dropped, an
    image above dst_hi a ValueError."""
    p = op.profile
    dst_offs = {m: p.window_dim(dst_lo, m - 1) for m in range(dst_lo + 1, dst_hi + 1)}
    mat = p.field.zeros(p.window_dim(src_lo, src_hi), p.window_dim(dst_lo, dst_hi))
    for n in range(src_lo + 1, src_hi + 1):
        first = p.window_dim(src_lo, n - 1)
        for i in range(p.dim(n)):
            for (m, s), v in op.column(n, i).support.items():
                if m <= dst_lo:
                    continue
                if m > dst_hi:
                    raise ValueError("action window too small for the band")
                mat[first + i, dst_offs[m] + s] = v
    return mat


def edge_map_by_blocks(op: BandedOperator) -> np.ndarray:
    """Psi of `BandedOperator.right_edge_power`, one d_right x d_right block
    at a time: block (a, b), from level t+1+a to level t+w+1+b, is
    right_blocks[w+b-a] transposed for b <= a and zero otherwise."""
    f = op.profile.field
    w, d = op.width, op.profile.d_right
    psi = f.zeros(w * d, w * d)
    for a in range(w):
        for b in range(a + 1):
            psi[a * d : (a + 1) * d, b * d : (b + 1) * d] = op.right_blocks[w + b - a].T
    return psi


def _image_by_columns(op: BandedOperator, vec: LlcVector) -> LlcVector:
    """op(vec), summed from op's columns; the vector checks its support."""
    f = op.profile.field
    out = {}
    for (n, i), c in vec.support.items():
        for key, val in op.column(n, i).support.items():
            out[key] = f.add(out.get(key, f.zero), f.mul(val, c))
    return LlcVector(op.profile, out)


def compose_by_columns(f_op: BandedOperator, g_op: BandedOperator) -> BandedOperator:
    """f_op . g_op: each stationary block a sum of small block products, each
    column over the boundary region the image of g_op's column under f_op."""
    if f_op.profile != g_op.profile:
        raise ProfileMismatch("composing operators over different profiles")
    p = f_op.profile
    f = p.field
    w = f_op.width + g_op.width

    def convolve(fb, gb, d):
        out = {}
        for j in range(-w, w + 1):
            acc = f.zeros(d, d)
            for j2 in range(-g_op.width, g_op.width + 1):
                j1 = j - j2
                if -f_op.width <= j1 <= f_op.width:
                    acc = f.normalize(acc + f.matmul(fb[j1], gb[j2]))
            out[j] = acc
        return out

    left = convolve(f_op.left_blocks, g_op.left_blocks, p.d_left)
    right = convolve(f_op.right_blocks, g_op.right_blocks, p.d_right)
    b_lo = min(g_op.b_lo, f_op.b_lo - g_op.width, p.n_lo - w)
    b_hi = max(g_op.b_hi, f_op.b_hi + g_op.width, p.n_hi + w)
    columns = {
        n: [_image_by_columns(f_op, g_op.column(n, i)) for i in range(p.dim(n))]
        for n in range(b_lo, b_hi + 1)
    }
    out = BandedOperator(p, w, left, right, columns)
    for n in (b_lo - 1, b_hi + 1):
        for i in range(p.dim(n)):
            if out.column(n, i) != _image_by_columns(f_op, g_op.column(n, i)):
                raise EngineInvariant("compose: stationary mismatch")
    return out


def same_operator(a: BandedOperator, b: BandedOperator) -> bool:
    """a and b have the same width, blocks, boundary region and stored columns."""
    return (
        a.profile == b.profile
        and (a.width, a.b_lo, a.b_hi) == (b.width, b.b_lo, b.b_hi)
        and all(
            mine.keys() == theirs.keys()
            and all(mine[j].dtype == theirs[j].dtype and np.array_equal(mine[j], theirs[j]) for j in mine)
            for mine, theirs in ((a.left_blocks, b.left_blocks), (a.right_blocks, b.right_blocks))
        )
        and a.columns == b.columns
    )


def unipotent_pair_by_terms(rng, profile, src_window=(-2, 1)):
    """(1 + N, 1 - N + N^2 - ...), N drawn as `unipotent_pair` draws it and
    the inverse summed one power of N at a time."""
    f = profile.field
    width = 1
    step = rng.choice((1, -1))
    b_lo = min(profile.n_lo - width, src_window[0] - width)
    b_hi = max(profile.n_hi + width, src_window[1] + width)
    columns = {}
    for n in range(b_lo, b_hi + 1):
        per = []
        for _i in range(profile.dim(n)):
            if src_window[0] <= n <= src_window[1]:
                vec = random_vector(rng, profile, [n + step])
            else:
                vec = LlcVector.zero(profile)
            per.append(vec)
        columns[n] = per
    nil = BandedOperator(profile, width, {}, {}, columns)

    def negated(op):
        neg = f.neg(f.one)
        left = {j: f.normalize(b * neg) for j, b in op.left_blocks.items()}
        right = {j: f.normalize(b * neg) for j, b in op.right_blocks.items()}
        cols = {n: [col.scale(neg) for col in per] for n, per in op.columns.items()}
        return BandedOperator(profile, op.width, left, right, cols)

    ident = identity_operator(profile)
    op = operator_add(ident, nil)
    inv = ident
    term = nil
    sign = -1
    zero = zero_operator(profile)
    while not term == zero:
        inv = operator_add(inv, term if sign > 0 else negated(term))
        term = compose(nil, term)
        sign = -sign
    return op, inv


def random_automorphism_composing_each_attempt(rng, profile, max_width=2, boundary=3):
    """`random_automorphism`'s draws, each attempt composed before its budget check."""
    for _attempt in range(64):
        factors = []
        used_width = 0
        for _ in range(rng.randint(1, 3)):
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
        op = factors[0][0]
        for fwd, _back in factors[1:]:
            op = compose(op, fwd)
        inv = _reverse_inverse(factors)
        if op.width <= max_width and op.b_lo >= -boundary and op.b_hi <= boundary:
            return op, inv
    raise RuntimeError("could not fit an automorphism into the requested budget")


def verify_inverse_by_composites(f_op: BandedOperator, g_op: BandedOperator) -> bool:
    """True iff both composites, built by `compose_by_columns`, equal the identity operator."""
    if f_op.profile != g_op.profile:
        raise ProfileMismatch("operators over different profiles")
    ident = identity_operator(f_op.profile)
    return compose_by_columns(f_op, g_op) == ident and compose_by_columns(g_op, f_op) == ident


def _trajectory_step(op, u, t):
    """One chain step U + op(T) mod the tail of U, in a single elimination.

    Reference implementation over canonical subspaces; the engines grow
    their chains incrementally, and are tested against this.
    """
    rows, top = image_rows_mod_tail(op, t, u.tail)
    b = max(top, u.top, u.tail)
    f = op.profile.field
    total = op.profile.window_dim(u.tail, b)
    img_wide = f.zeros(rows.shape[0], total)
    if rows.shape[0]:
        img_wide[:, : rows.shape[1]] = rows
    stacked = np.concatenate([u.rows_over(u.tail, b), img_wide], axis=0)
    return CompactOpenSubspace.from_rows(op.profile, u.tail, stacked, b)


def trajectory_subspaces(op: BandedOperator, u: CompactOpenSubspace, count: int):
    """The partial trajectory chain T_1 = U, ..., T_count as subspaces."""
    chain = [u]
    for _ in range(count - 1):
        chain.append(_trajectory_step(op, u, chain[-1]))
    return chain


def inverse_trajectory_subspaces(
    op: BandedOperator, inverse: BandedOperator, u: CompactOpenSubspace, count: int
):
    """The chain U^(0) = U, U^(m+1) = U + phi^{-1} U^(m), for automorphisms."""
    chain = [u]
    for _ in range(count):
        img = automorphism_image(inverse, chain[-1], op.width)
        chain.append(open_combine(u, img, "sum"))
    return chain


def ent_dim_discrete(
    op: BandedOperator, f: CompactOpenSubspace, cfg: EntropyConfig = DEFAULT_CONFIG
) -> EntropyResult:
    """Entropy on a discrete space via absolute trajectory dimensions.

    On a profile that vanishes at levels <= 0 every tail is the zero
    space, so dim T_n is just the window rank and the increments can be
    read off absolutely; this is an independent route that must agree
    with the quotient-based trajectory engine on the same inputs.
    """
    if not op.profile.is_discrete():
        raise ValueError("ent_dim needs a discrete profile (levels <= 0 empty)")
    if f.profile != op.profile:
        raise ProfileMismatch("subspace over a different profile")
    t = f
    horizon = _structural_horizon(op, f)
    increments: list = []
    for step in range(1, cfg.max_trajectory_steps + 1):
        t_next = _trajectory_step(op, f, t)
        alpha = t_next.window.rank - t.window.rank
        if increments and alpha > increments[-1]:
            raise EngineInvariant(
                f"dimension increments must be non-increasing, got {increments + [alpha]}"
            )
        increments.append(alpha)
        if t_next == t:
            return EntropyResult(0, Status.EXACT, tuple(increments), f, step)
        if _plateaued(increments, cfg.plateau_streak, horizon):
            return EntropyResult(alpha, Status.PLATEAU, tuple(increments), f, step)
        t = t_next
    return EntropyResult(increments[-1], Status.LOWER_BOUND, tuple(increments), f, cfg.max_trajectory_steps)


def _trim_trailing(profile, rows, a, top):
    """Drop trailing all-zero levels of a row block over (a, top]."""
    while top > a:
        d = profile.dim(top)
        if d == 0:
            top -= 1
            continue
        if rows.shape[0] and bool(np.any(rows[:, rows.shape[1] - d :] != 0)):
            break
        rows = rows[:, : rows.shape[1] - d]
        top -= 1
    return rows, top


def grow_chain_full_window(img_op, u, a0, offset, cfg, horizon, noun):
    """The chain loop of `llcent.entropy._grow_chain` over the whole window.

    The chain is one reduced basis over (a0, top], starting from U modulo
    U_{a0} (`expand_window`); every step pads the images to the whole
    window, merges them into the whole basis, and maps the new rows over
    the whole window again.  Every image is a product with the dense
    action that `action_rows_by_columns` fills from the operator's columns,
    the first one of U modulo U_{a0 - width}, so the loop shares no action
    code with the engine.  Same signature and result as `_grow_chain`.
    """
    p = img_op.profile
    f = p.field
    top = u.top
    basis = u.expand_window(a0, top)
    src_lo = a0 - img_op.width
    if top > src_lo:
        delta_top = max(top + img_op.width, a0)
        delta = f.matmul(u.rows_over(src_lo, top), action_rows_by_columns(img_op, src_lo, top, a0, delta_top))
    else:
        delta, delta_top = f.zeros(0, 0), a0
    readings: list = []
    for step in range(1, cfg.max_trajectory_steps + 1):
        delta, delta_top = _trim_trailing(p, delta, a0, delta_top)
        b = max(top, delta_top)
        if b > top:
            basis = pad_basis_columns(basis, 0, p.window_dim(top, b))
            top = b
        if delta.shape[0] and delta_top < b:
            delta = np.concatenate([delta, f.zeros(delta.shape[0], p.window_dim(delta_top, b))], axis=1)
        old_rank, old_piv = basis.rank, set(basis.pivots)
        basis = rref_union(basis, delta) if delta.shape[0] else basis
        gain = basis.rank - old_rank
        d = gain + offset
        if readings and d > readings[-1]:
            raise EngineInvariant(f"{noun} must be non-increasing, got {readings + [d]}")
        readings.append(d)
        if gain == 0:
            return EntropyResult(d, Status.EXACT, tuple(readings), u, step)
        if _plateaued(readings, cfg.plateau_streak, horizon):
            return EntropyResult(d, Status.PLATEAU, tuple(readings), u, step)
        new_rows = basis.mat[[i for i, piv in enumerate(basis.pivots) if piv not in old_piv]]
        delta_top = top + img_op.width
        delta = f.matmul(new_rows, action_rows_by_columns(img_op, a0, top, a0, delta_top))
    return EntropyResult(readings[-1], Status.LOWER_BOUND, tuple(readings), u, cfg.max_trajectory_steps)
