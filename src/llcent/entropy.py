"""The two algebraic-entropy engines and their derived quantities.

Relative entropy H(phi, U) is the eventual value of the non-increasing
increment sequence dim(T_{n+1}/T_n) of the partial trajectory chain
T_1 = U, T_{n+1} = U + phi(T_n).  The trajectory engine iterates that
chain directly.  For topological automorphisms the limit-free engine
instead grows U^(0) = U, U^(m+1) = U + phi^{-1} U^(m) and reads the
single codimension d_m = dim(U^(m+1) / phi^{-1} U^(m)), which equals
H(phi, U) once the chain stabilizes.

Both chains are grown by one loop over a fixed tail.  The trajectory
chain lives over tail(U).  With w the band width of phi, U_{tail - w}
lies in phi^{-1} U_tail, so every U^(m) contains U_{a0} for
a0 = tail(U) - w and the limit-free chain lives over (a0, top].  With
t = dim(U_tail / U_{a0}) and c = dim(phi^{-1} U_tail / U_{a0}), the
codimension is d_m = gain + t - c, where gain is the rank the step
added; both chains are at a fixed point exactly when the gain is 0.

A step only touches the front of the chain.  The loop keeps an active
block: an echelon basis of the chain member's part supported above a
level lo, over (lo, top], with lo one level below the lowest level the
step's new images reach; a row's pivot is its first nonzero coordinate.
The rows of the member's basis whose pivots lie at or below lo are set
aside on a stack.  The images vanish up to lo, where every nonzero sum
of set-aside rows has its pivot, so the rank they add is the same
against the block as against the whole member.  Images that reach below
lo first bring the set-aside rows above the new lo back into the
block.  Right of the operator's boundary region a step commutes
with the level shift, so once the front state repeats one shift later the
loop fills in the repeated reading instead of stepping on; it does the
same once the images' part above the chain's top carries the whole gain
and keeps its rank under every power of the stationary edge map.

The loop is written once, over a small set of kernels per row format that
the field picks, as it picks `linalg._rref`'s routes: `trim`, `edge`,
`set_aside`, `bring_back`, `widen`, `union`, `front` and `images`.  Over
GF(2) the chain's rows stay Python ints from the first step to the last
(`gf2rows.ChainRows`): bit k is coordinate k of the window over the tail,
so widening the window moves no bit; the block is one pivot map for the
whole chain, into which a merge enters each new row in place, XOR-ing it
with the block rows at its pivots and leaving those rows as they are;
and the stationary action right of the boundary region is a few masked
shifts of all of a step's rows at once.  Over any other field they are
arrays (`_ArrayRows`), merged into the reduced form by
`linalg.rref_union` and mapped by one product with the dense action
matrix of `operators._action_rows`.

The costly set-up of an engine depends only on the operator it maps
with and the chain's tail, so it is kept on that operator: the
limit-free tail constant c (`_tail_constant`, per tail and a0), and the
stationary rows that every dense action slices along with the block the
operator stores from construction (`operators._action_rows`); the images
of a chain member U_top are the action rows themselves
(`operators.image_rows_mod_tail`).  The kernels (`_chain_rows`) are
cheap, and built for each chain.

Stationarity is guaranteed but without an effective bound, so results
carry a status:

* ``EXACT``       - a genuine chain fixed point (or a closed form);
* ``PLATEAU``     - the last `plateau_streak` increments agreed;
* ``LOWER_BOUND`` - an iteration cap was hit first.

Total entropy is the supremum of H(phi, C_m) over the cofinal chain
C_m of the profile; the sequence is non-decreasing in m, and the engine
stops on a plateau past the structural horizon n_hi + width.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import (
    EngineDisagreement,
    EngineInvariant,
    InfiniteField,
    NonConstantProfile,
    NotAnInverse,
    ProfileMismatch,
)
from . import gf2rows, linalg
from .fields import PrimeField
from .linalg import SubspaceBasis
from .operators import (
    BandedOperator,
    _action_rows,
    image_rows_mod_tail,
    verify_inverse,
)
from .spaces import CompactOpenSubspace, Profile, cofinal_chain


class Status(enum.Enum):
    EXACT = "Exact"
    PLATEAU = "PlateauDetected"
    LOWER_BOUND = "LowerBound"


@dataclass(frozen=True)
class EntropyConfig:
    plateau_streak: int = 3
    max_trajectory_steps: int = 64
    max_chain_index: int = 24
    strict: bool = False

    def __post_init__(self):
        if self.plateau_streak < 1:
            raise ValueError("plateau_streak must be >= 1")
        if self.max_trajectory_steps < 1:
            raise ValueError("max_trajectory_steps must be >= 1")
        if self.max_chain_index < 0:
            raise ValueError("max_chain_index must be >= 0")


DEFAULT_CONFIG = EntropyConfig()
ENGINES = ("trajectory", "limitfree", "both")


@dataclass(frozen=True)
class EntropyResult:
    value: int
    status: Status
    certificate: tuple
    witness: object = None
    iterations: int = 0

    def reliable(self) -> bool:
        return self.status is not Status.LOWER_BOUND


def _check_pair(op: BandedOperator, inverse: BandedOperator):
    """The two operators inverse to each other, as the limit-free engine needs."""
    # a verified pair is kept on op and recognized by identity; a pair that
    # fails is not kept, so it is rejected on every call
    if op._inverse is inverse:
        return
    if not verify_inverse(op, inverse):
        raise NotAnInverse("limit-free engine needs a verified inverse pair")
    op._inverse = inverse


def _plateaued(seq, streak, horizon: int = 0) -> bool:
    """Last `streak` entries equal, with the window starting past `horizon`."""
    if len(seq) < streak or len(seq) - streak + 1 < horizon:
        return False
    return len(set(seq[-streak:])) == 1


def _structural_horizon(op: BandedOperator, u: CompactOpenSubspace) -> int:
    """Minimum step count before an increment plateau is trusted.

    There is no proven bound on when the increment sequence goes
    stationary, but transients are driven by the operator's explicit
    boundary region, the subspace window, and the per-step dimension
    budget d*(2w+1) of the band.  Empirically (randomized calibration
    against long-run ground truth over the supported instance class)
    late drops occur within the sum of these three spans; plateaus that
    start earlier are not accepted.  The status system keeps this honest:
    PlateauDetected never claims to be a proof.
    """
    p = op.profile
    d_max = max([p.d_left, p.d_right, *p.boundary])
    span_u = u.top - u.tail
    span_b = op.b_hi - op.b_lo + 1
    return span_u + span_b + d_max * (2 * op.width + 1)


class FrontKey:
    """The key of a chain's front state (`_front_repeats`), built lazily
    from the parts a kernel's `front` returns.

    `cheap` holds top - lo and the row counts, and `full()` the stored rows
    relative to lo, made by `make` on first use.  Two keys are equal when
    both parts are, and the full parts are compared only when the cheap
    ones agree, so a chain whose fronts keep widening never builds one.
    Keys hash by their cheap part, so equal keys hash alike and a dict of
    past keys can hold them.
    """

    __slots__ = ("cheap", "_make", "_full")

    def __init__(self, cheap: tuple, make):
        self.cheap, self._make, self._full = cheap, make, None

    def full(self):
        if self._make is not None:
            self._full, self._make = self._make(), None
        return self._full

    def __hash__(self):
        return hash(self.cheap)

    def __eq__(self, other):
        if not isinstance(other, FrontKey):
            return NotImplemented
        return self.cheap == other.cheap and self.full() == other.full()


def _front_repeats(front, prev) -> bool:
    """True when a front state (lo, key) repeats the previous step's one
    level shift s > 0 later.

    The key (`FrontKey`) is hashable and relative to lo, so equal keys
    mean the same stored rows shifted by s; None marks a step taken below
    b_hi.  `_grow_chain` makes the key right before the merge from the
    parts each kernel's `front` returns, built from top - lo, the block
    and the images: the array format's full key holds the pivots and each
    matrix's shape and entries, the packed one's the block's rows as a set
    and the images in order, shifted down to lo.  The key hashes and first
    compares by top - lo and the row counts, and builds its rows only when
    those agree.  Equal states step alike (see `_grow_chain`), whether or
    not the basis is canonical: the packed block is an echelon basis.
    """
    return front is not None and prev is not None and front[0] > prev[0] and front[1] == prev[1]


def _readings_fixed(front, prev, edge):
    """Why every later reading equals this step's, or None.

    `edge` is the leading-edge test (the kernels' `edge`) taken before the merge;
    the front states are compared by _front_repeats.  The reason also
    names the invariant a gain that moved would break.
    """
    if edge:
        return "a full-rank leading edge"
    if _front_repeats(front, prev):
        return "a repeated front state"
    return None


def _fill_repeated(readings, cfg, horizon, u):
    """Repeat the last reading until the plateau rule or the step cap stops."""
    d = readings[-1]
    while len(readings) < cfg.max_trajectory_steps:
        readings.append(d)
        if _plateaued(readings, cfg.plateau_streak, horizon):
            return EntropyResult(d, Status.PLATEAU, tuple(readings), u, len(readings))
    return EntropyResult(d, Status.LOWER_BOUND, tuple(readings), u, cfg.max_trajectory_steps)


def _grow_chain(img_op, u, a0, offset, cfg, horizon, noun):
    """Grow X_1 = U, X_{n+1} = U + img_op(X_n) modulo U_{a0}; read gain + offset.

    a0 must be a tail that every chain member contains, and at most
    tail(U); the chain starts from U modulo U_{a0} over (a0, u.top]
    (`CompactOpenSubspace.expand_window`).  The first step maps all of U,
    tail included (`image_rows_mod_tail`, img_op's dense action rows when
    U is a chain member), so later steps only map the rows the last step
    added.  A step's gain is the rank it adds, a codimension because
    the members nest over the common tail a0.  The readings must be non-increasing
    (EngineInvariant otherwise); a zero gain is a chain fixed point, hence
    EXACT.

    Step one of a full-window U, whose window has rank window_dim(tail,
    top) so that U = U_top (every chain member C_m), is decided from the
    first images before any kernel is built.  With a0 <= tail, U modulo
    U_{a0} is every coordinate over (a0, top], so an image lies in U
    exactly when its part above top is zero, and the step-one gain is the
    rank of that part.  When that part is zero the chain is at a fixed
    point at step one, and the loop returns the one EXACT reading the
    step would give, with nothing packed or merged.

    The steps run on the kernels of `_chain_rows`, which hold the rows
    as packed ints over GF(2) (`gf2rows.ChainRows`) and as arrays
    otherwise (`_ArrayRows`); each kernel returns in its own format what
    the other returns in its, so everything below holds for both.  In the
    packed format a row is an int over the window (a0, infinity), bit k
    its coordinate k in column order, so the lowest set bit is the pivot
    and padding to a wider window is no work; the block is one pivot map
    (a dict from pivot to row) for the whole chain, which merges enter
    rows into and `set_aside` pops rows from, in place; the settled stack
    is one pivot-sorted list, split by bisection; and a step's images are, right
    of b_hi, the XOR over the shifts s of (x & M_s) << s, M_s holding the
    slots whose stationary entries move by s bits
    (`gf2rows.ChainRows.act`).  That is exact because `validate` gives
    b_hi >= n_hi + w, so those sources and their images lie in the
    constant d_right region, where a level moves by d_right bits.

    The chain X is held as an active block, an echelon basis of X
    intersected with the coordinates above a level lo, over (lo, top],
    plus a stack of settled rows, the rows of X's basis whose pivots (first
    nonzero coordinates) lie at or below lo, left as they were when set
    aside (`set_aside`).  Each step moves lo to one level below the first
    nonzero level of the new images (`trim`).  The images vanish up to lo,
    and a nonzero sum of settled rows does not (its pivot lies there); so
    the rank they add to the block is the rank they add to X.  The packed
    merge (`gf2rows.merge`) enters echelon rows into the block's pivot map
    in place and keeps the rows it has, the array merge
    (`linalg.rref_union`) returns the reduced form; each
    `union` also returns which rows it added, the rows the next step maps
    (`images`).  They represent X_{n+1}/X_n either way, and the images of other
    representatives differ by images of X_n, inside X_{n+1}, so the gains
    do not depend on the basis.  When the images reach below lo, the
    settled rows above the new lo return to the block (`bring_back`)
    through the merge, which must raise the rank by exactly their number
    (EngineInvariant otherwise); the gain is read after that merge.

    The loop stops stepping once the front repeats.  While lo >= b_hi of
    img_op, each step takes a front state right before its merge: top -
    lo, the block's pivots, its matrix and the padded images, all
    relative to lo (packed: the block's rows as a set and the images in
    order, shifted down to lo).
    When it equals the previous step's state with lo moved up by s > 0,
    every later step is that step shifted by s levels, so every later
    reading repeats, and the loop appends the reading until the plateau
    rule or the step cap stops it; the result is the one full stepping
    gives.  The argument:

    * At that point the block spans X intersected with the coordinates
      above lo, and the images are the rows to merge.  The merge, the
      rows it adds, their images and the next lo and top are a function
      of the block's rows and the images in their order, so no canonical
      form is needed; the same spaces in another basis only stop later.
      The order in which the pivot map holds the block's rows does not
      enter: each image row meets the block row at its current lowest
      bit, and `set_aside` and `bring_back` move rows by pivot.
    * A step reads rows below lo only through `bring_back`.  With s > 0
      the last step went no lower than its own lo, so it was a function
      of its front state alone, and the next step from the shifted state
      is the shifted step, provided the operator commutes with the shift
      on everything the step touches.
    * It does: the mapped rows live over (src_lo, top] with src_lo >= lo
      >= b_hi, so every source level acts by the right stationary blocks.
      `validate` gives b_hi >= n_hi + w, and n_hi >= 0 >= tail(U) >= a0,
      so every image lies above src_lo - w >= n_hi, in the constant
      d_right region, and above a0: nothing is cut at the tail.
    * By induction each later front state is the repeated one shifted by
      a further s with lo >= b_hi, and each later gain equals the
      repeated one.

    The loop also stops once the leading edge carries the gain.  At a step
    k >= 2 let t be the block's top before the merge, g the previous gain
    (the number of rows of the images, which map the g rows the last step
    added), w the width and d = d_right.  The edge E is the images' part
    over (t, t + w].  Psi is the edge map of
    BandedOperator.right_edge_power, block (a, b) from level t+1+a to
    level t+w+1+b being right_blocks[w+b-a] transposed for b <= a.  The
    stop needs (A) t >= b_hi, (B) rank E = g and (C) rank(E Psi^(wd)) = g,
    which the kernels' `edge` tests:

    * X_k vanishes above t, so the next gain, the rank the images add to
      X_k, is at least rank E = g; only g rows were mapped, so it is g.
    * X_{k+1} restricted to (t, t + w] is the span of E.  By (A) and
      `validate`'s b_hi >= n_hi + w every source level above t lies in
      the constant d_right region and acts by the right blocks, so the
      next images over (t + w, t + 2w] are exactly E Psi; nothing lower
      reaches them, by the band.
    * By induction each later edge is E Psi^i.  (C) says E meets the
      kernel of Psi^(wd) only in 0, and kernels of powers stop growing by
      exponent wd, so every E Psi^i has rank g and every later gain is g.

    A failed test C carries forward, so the loop does not run it again
    while it cannot pass (`fails`).  Let C fail at step k, top t >= b_hi
    and previous gain g: rank(E Psi^e) < g, e = wd (a Psi^e with fewer
    than g columns fails it for any E).  If step k gains g again, the next
    test checks g rows too, and if the next step's top is t + w:

    * The rows step k adds, restricted to (t, t + w], span what X_{k+1}
      restricted there spans, the span of E: X_k vanishes above t.
    * The next images over (t + w, t + 2w], the next edge E', come from
      those parts alone, by the band, through Psi, as t >= b_hi.  So E'
      spans inside the span of E Psi, and rank(E' Psi^e) <=
      rank(E Psi^(e+1)) <= rank(E Psi^e) < g: C fails there too, at top
      t + w >= b_hi.
    * By induction it fails at every later step while the gain stays g and
      the top moves up by w, so the loop skips those tests.  Any other
      step tests again: were the top to stall, the next edge would also
      hold images of rows below t, and the bound would not hold.

    Either stop ends by appending the reading until the plateau rule or
    the step cap stops it (_fill_repeated), so the result is the one full
    stepping gives.  The stopping step still merges, and a gain that
    differs from the previous step's raises EngineInvariant.
    """
    lo, top = a0, u.top
    p = img_op.profile
    delta, delta_top = image_rows_mod_tail(img_op, u, a0)
    if u.window.rank == p.window_dim(u.tail, top) and not np.count_nonzero(delta[:, p.window_dim(a0, top) :]):
        return EntropyResult(offset, Status.EXACT, (offset,), u, 1)
    k = _chain_rows(img_op, a0)
    settled: list = []
    basis, delta = k.start(u.expand_window(a0, top), delta)
    delta_lo = a0
    readings: list = []
    front = None  # the last step's front state, taken while lo >= b_hi
    fails = None  # (top, previous gain) of a step whose test C must fail
    for step in range(1, cfg.max_trajectory_steps + 1):
        delta, delta_lo, delta_top = k.trim(delta, delta_lo, delta_top)
        edge = None
        if readings:
            g = readings[-1] - offset
            edge = False if fails == (top, g) else k.edge(delta, delta_lo, delta_top, top, g)
            fails = (top + img_op.width, g) if edge is False else None
        gain, prev, front = 0, front, None
        if delta_lo < delta_top:  # some image is nonzero
            if delta_lo > lo:
                basis = k.set_aside(basis, lo, delta_lo, settled)
            new_top = max(top, delta_top)
            back = k.bring_back(settled, delta_lo, new_top) if delta_lo < lo else None
            basis, delta = k.widen(basis, delta, lo, top, delta_lo, new_top, delta_top)
            lo, top = delta_lo, new_top
            if back is not None:
                rank = k.rank(basis)
                basis, _ = k.union(basis, back)
                if k.rank(basis) != rank + len(back):
                    raise EngineInvariant(
                        f"re-merge of {len(back)} settled rows must raise the rank by "
                        f"{len(back)}, raised it by {k.rank(basis) - rank}"
                    )
            if lo >= img_op.b_hi:
                front = lo, FrontKey(*k.front(lo, top, basis, delta))
            rank = k.rank(basis)
            basis, added = k.union(basis, delta)
            gain = k.rank(basis) - rank
        d = gain + offset
        if readings and d > readings[-1]:
            raise EngineInvariant(f"{noun} must be non-increasing, got {readings + [d]}")
        fixed = _readings_fixed(front, prev, edge)
        if fixed and d != readings[-1]:
            raise EngineInvariant(f"{fixed} must repeat the gain {readings[-1] - offset}, got {gain}")
        readings.append(d)
        if gain == 0:
            return EntropyResult(d, Status.EXACT, tuple(readings), u, step)
        if _plateaued(readings, cfg.plateau_streak, horizon):
            return EntropyResult(d, Status.PLATEAU, tuple(readings), u, step)
        if fixed:
            return _fill_repeated(readings, cfg, horizon, u)
        delta, delta_lo, delta_top = k.images(basis, added, lo, top)
    return EntropyResult(readings[-1], Status.LOWER_BOUND, tuple(readings), u, cfg.max_trajectory_steps)


def _chain_rows(img_op, a0):
    """The chain loop's kernels for the field over the tail a0, new for each
    chain: packed rows over GF(2), arrays otherwise."""
    f = img_op.profile.field
    packed = f.dtype is not object and f.p == 2
    return (gf2rows.ChainRows if packed else _ArrayRows)(img_op, a0)


class _ArrayRows:
    """The kernels of _grow_chain on arrays: a block is a SubspaceBasis over
    (lo, top], the settled stack holds (lo, rows, pivots) batches, and a
    step's images are a matrix over (delta_lo, delta_top].  The merge and
    the padding are looked up in linalg at call time, so a patched module
    is seen here too."""

    def __init__(self, op, a0):
        self.op, self.p, self.a0 = op, op.profile, a0

    def start(self, basis, rows):
        return basis, rows

    def trim(self, rows, lo, top):
        """Drop the leading and trailing all-zero levels of a row block over (lo, top].

        Returns (rows, lo, top) for the levels from the first nonzero one to
        the last, lo sitting one level below the first.  A block with no
        nonzero entry comes back with no columns.
        """
        p = self.p
        nonzero = np.flatnonzero(np.any(rows != 0, axis=0))
        if not nonzero.size:
            return rows[:, :0], top, top
        first, last = p.level_at(lo, int(nonzero[0])), p.level_at(lo, int(nonzero[-1]))
        return rows[:, p.window_dim(lo, first - 1) : p.window_dim(lo, last)], first - 1, last

    def edge(self, rows, lo, top, t, g):
        """Conditions A-C of the leading-edge stop in _grow_chain.

        rows holds a step's images over (lo, top], t is the block's top
        before they merge and g the previous gain.  The edge E is rows over
        (t, t + w]; rank(E Psi^e) = g also gives rank E = g (B), and needs
        g <= rank Psi^e, the column count of right_edge_power.  Returns
        whether the rank test C holds, or None when it does not run: t
        below b_hi, not g rows, or fewer than g columns over (t, top].
        Too few columns of Psi^e fail the test, for any g rows.
        """
        op = self.op
        d = self.p.d_right
        start = max(lo, t)  # E is zero on (t, start]
        cols = (top - start) * d
        if t < op.b_hi or rows.shape[0] != g or cols < g:
            return None
        power = op.right_edge_power()
        if power.shape[1] < g:
            return False
        f = self.p.field
        off = (start - t) * d
        image = f.matmul(rows[:, rows.shape[1] - cols :], power[off : off + cols])
        return len(linalg._rref(f, image)[1]) == g

    def set_aside(self, basis, lo, new_lo, settled):
        """Raise the bottom of the active block from lo to new_lo.

        The rows whose pivots lie at or below new_lo go onto the settled stack
        as one batch (lo, rows over (lo, top], pivots); the rest vanish on the
        levels (lo, new_lo], and without those columns they are the reduced
        basis of the block over (new_lo, top].
        """
        cut = self.p.window_dim(lo, new_lo)
        k = bisect_left(basis.pivots, cut)
        if k:
            settled.append((lo, basis.mat[:k].copy(), basis.pivots[:k]))
        pivots = tuple(c - cut for c in basis.pivots[k:])
        return SubspaceBasis(basis.field, basis.ambient_dim - cut, basis.mat[k:, cut:], pivots)

    def bring_back(self, settled, new_lo, top):
        """Pop the settled rows whose pivots lie above new_lo, as rows over (new_lo, top].

        The stack holds its batches in pivot order, so they come off the top;
        a batch that straddles new_lo is split, and the part below stays.
        """
        p = self.p
        pieces = []
        while settled:
            s_lo, rows, pivots = settled[-1]
            cut = p.window_dim(s_lo, new_lo)  # 0 when the batch starts at or above new_lo
            k = bisect_left(pivots, cut)
            if k == len(pivots):
                break
            settled.pop()
            if k:
                settled.append((s_lo, rows[:k], pivots[:k]))
            pieces.append((max(s_lo, new_lo), rows[k:, cut:]))
        out = p.field.zeros(sum(rows.shape[0] for _, rows in pieces), p.window_dim(new_lo, top))
        i = 0
        for s_lo, rows in pieces:
            c = p.window_dim(new_lo, s_lo)
            out[i : i + rows.shape[0], c : c + rows.shape[1]] = rows
            i += rows.shape[0]
        return out

    def widen(self, basis, rows, lo, top, new_lo, new_top, rows_top):
        """The block padded to (new_lo, new_top], the images to new_top."""
        p = self.p
        basis = linalg.pad_basis_columns(basis, p.window_dim(new_lo, lo), p.window_dim(top, new_top))
        if rows_top < new_top:
            rows = np.concatenate([rows, p.field.zeros(rows.shape[0], p.window_dim(rows_top, new_top))], axis=1)
        return basis, rows

    @staticmethod
    def rank(basis):
        return basis.rank

    @staticmethod
    def union(basis, rows):
        """(The merged basis, the indices of its rows whose pivots `basis` lacks)."""
        merged = linalg.rref_union(basis, rows)
        old = set(basis.pivots)
        return merged, [i for i, piv in enumerate(merged.pivots) if piv not in old]

    @staticmethod
    def front(lo, top, basis, rows):
        """The parts of the front key (`FrontKey`): top - lo and the row
        counts, and a maker of the pivots and each matrix's shape and
        entries, as bytes for int64 and listed over Q, whose bytes would
        be object pointers; no kernel writes to a block or image array
        once made."""
        mat = basis.mat

        def entries(a):
            return a.tobytes() if a.dtype != object else tuple(a.ravel().tolist())

        return (top - lo, basis.rank, rows.shape[0]), lambda: (
            basis.pivots,
            mat.shape,
            entries(mat),
            rows.shape,
            entries(rows),
        )

    def images(self, basis, new, lo, top):
        """The images of the rows of `basis` the last merge added, by index."""
        p, w = self.p, self.op.width
        # the new rows vanish left of their first pivot: map them from the
        # level below the one holding it
        src_lo = p.level_at(lo, basis.pivots[new[0]]) - 1
        delta_lo, delta_top = max(self.a0, src_lo - w), top + w
        action = _action_rows(self.op, src_lo, top, delta_lo, delta_top)
        return p.field.matmul(basis.mat[new, p.window_dim(lo, src_lo) :], action), delta_lo, delta_top


def trajectory_relative_entropy(
    op: BandedOperator, u: CompactOpenSubspace, cfg: EntropyConfig = DEFAULT_CONFIG
) -> EntropyResult:
    """H(phi, U) by direct trajectory iteration.

    The recorded increments dim(T_{n+1}/T_n) must be non-increasing; a
    violation is an engine bug and raises EngineInvariant.  A chain fixed
    point forces every later increment to vanish, hence status EXACT with
    value 0; otherwise the plateau (or cap) rules decide.
    """
    if u.profile != op.profile:
        raise ProfileMismatch("subspace over a different profile")
    return _grow_chain(op, u, u.tail, 0, cfg, _structural_horizon(op, u), "trajectory increments")


def limit_free_relative_entropy(
    op: BandedOperator,
    inverse: BandedOperator,
    u: CompactOpenSubspace,
    cfg: EntropyConfig = DEFAULT_CONFIG,
) -> EntropyResult:
    """H(phi, U) via the limit-free codimension, for verified automorphisms.

    Tracks d_m = dim(U^(m+1) / phi^{-1} U^(m)) over the pinned tail
    a0 = tail(U) - width(phi), as d_m = gain + t - c with the constants
    t = dim(U_tail / U_{a0}) and c = dim(phi^{-1} U_tail / U_{a0}).  At a
    chain fixed point U^(m+1) = U^(m) (gain 0) the subspace is inversely
    invariant and d_m = t - c is the exact entropy value.
    """
    _check_pair(op, inverse)
    if u.profile != op.profile:
        raise ProfileMismatch("subspace over a different profile")
    a0 = u.tail - op.width
    t = op.profile.window_dim(a0, u.tail)
    horizon = max(_structural_horizon(op, u), _structural_horizon(inverse, u))
    c = _tail_constant(inverse, u.tail, a0)
    return _grow_chain(inverse, u, a0, t - c, cfg, horizon, "limit-free codimensions")


def _tail_constant(inverse: BandedOperator, tail: int, a0: int) -> int:
    """c = dim(inverse(U_tail) / U_{a0}), kept on the inverse per (tail, a0)."""
    c = inverse._tail_ranks.get((tail, a0))
    if c is None:
        p = inverse.profile
        # U_tail itself: an empty window needs no elimination
        u_tail = CompactOpenSubspace(p, tail, tail, SubspaceBasis.zero(p.field, 0))
        rows, top = image_rows_mod_tail(inverse, u_tail, a0)
        c = SubspaceBasis.span(p.field, rows, ambient_dim=p.window_dim(a0, top)).rank
        inverse._tail_ranks[(tail, a0)] = c
    return c


def choose_engine(engine, inverse) -> str:
    """The engine a run uses: `engine` when given, else "both" with an
    inverse and "trajectory" without.

    ValueError for a name outside ENGINES; NotAnInverse when the engine
    needs the inverse ("limitfree", "both") and there is none.
    """
    if engine is None:
        engine = "both" if inverse is not None else "trajectory"
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if engine != "trajectory" and inverse is None:
        raise NotAnInverse("limit-free engine requires a verified inverse")
    return engine


def relative_entropies(op, u, cfg=DEFAULT_CONFIG, inverse=None, engine=None) -> dict:
    """H(phi, U) by the engines `engine` names (see `choose_engine`).

    Returns {"trajectory": r, "limitfree": r} with the engines that ran, in
    that order.  With both, EngineDisagreement when both results are
    reliable and their values differ.
    """
    engine = choose_engine(engine, inverse)
    runs = {}
    if engine != "limitfree":
        runs["trajectory"] = trajectory_relative_entropy(op, u, cfg)
    if engine != "trajectory":
        runs["limitfree"] = limit_free_relative_entropy(op, inverse, u, cfg)
    if len(runs) == 2:
        r_traj, r_lf = runs.values()
        if r_traj.reliable() and r_lf.reliable() and r_traj.value != r_lf.value:
            raise EngineDisagreement(f"trajectory {r_traj.value} vs limit-free {r_lf.value} on {u!r}")
    return runs


def total_entropy(
    op: BandedOperator,
    cfg: EntropyConfig = DEFAULT_CONFIG,
    inverse: BandedOperator = None,
    engine: str = None,
) -> EntropyResult:
    """ent(phi) = sup over the cofinal chain of H(phi, C_m).

    The H values are non-decreasing in m; the run stops once they plateau
    for `plateau_streak` indices starting past the structural horizon
    n_hi + width, or reports a lower bound at the chain cap.  Each H comes
    from `relative_entropies` with the same engine: with both (the default
    when an inverse is supplied), the trajectory result unless it is a
    lower bound, then the limit-free one.  The inverse pair is verified
    once, before the chain loop.
    """
    engine = choose_engine(engine, inverse)
    if engine != "trajectory":
        _check_pair(op, inverse)
    profile = op.profile
    horizon = profile.n_hi + op.width
    values: list = []
    unreliable = False
    prev = None
    for m in range(cfg.max_chain_index + 1):
        cm = cofinal_chain(profile, m)
        runs = list(relative_entropies(op, cm, cfg, inverse, engine).values())
        r = runs[0] if runs[0].reliable() else runs[-1]
        if prev is not None and prev.reliable() and r.reliable() and r.value < prev.value:
            raise EngineInvariant(
                f"chain entropies must be non-decreasing, got {values + [r.value]}"
            )
        values.append(r.value)
        unreliable = unreliable or not r.reliable()
        prev = r
        # the plateau starts at an index >= horizon: indices count from 0, steps from 1
        if not unreliable and _plateaued(values, cfg.plateau_streak, horizon + 1):
            first = values.index(values[-1])
            return EntropyResult(
                values[-1], Status.PLATEAU, tuple(values), cofinal_chain(profile, first), m + 1
            )
    best = max(values)
    first = values.index(best)
    return EntropyResult(
        best, Status.LOWER_BOUND, tuple(values), cofinal_chain(profile, first), len(values)
    )


def shift_closed_form(profile: Profile, direction: str, k: int) -> int:
    """ent of the k-th power of a Bernoulli shift: k * d for right, 0 for left."""
    if not profile.is_constant():
        raise NonConstantProfile("closed forms need a constant profile")
    if direction not in ("left", "right"):
        raise ValueError(f"unknown direction {direction!r}")
    if k < 0:
        raise ValueError("k must be >= 0")
    if direction == "left" or k == 0:
        return 0
    return k * profile.d_left


@dataclass(frozen=True)
class UnitEntropy:
    """ent scaled by log |GF(p)|: the exact pair and its float value."""

    ent: int
    p: int
    status: Status

    @property
    def value(self) -> float:
        return self.ent * math.log(self.p)

    @property
    def symbolic(self) -> str:
        return f"{self.ent}*log({self.p})"

    @property
    def decimal(self) -> str:
        return f"{self.value:.6f}"


def h_alg_value(r: EntropyResult, field) -> UnitEntropy:
    """Convert a dimension-counted entropy to group entropy over GF(p)."""
    if not isinstance(field, PrimeField):
        raise InfiniteField("unit conversion needs a finite field")
    return UnitEntropy(r.value, field.p, r.status)
