"""GF(2) rows packed into Python ints, and the GF(2) kernels of the chain loop.

A row over GF(2) is one Python int whose bit k is coordinate k; adding two
rows is one XOR.  An echelon basis is a list of such rows sorted by pivot,
the pivot of a row being its lowest set bit, no two rows sharing one; it
is reduced when every row is also zero at every other row's pivot.  The
eliminations the engines make are about 10 x 40 bits, so a handful of
integer operations per row and pivot replaces a numpy call per pivot
(packed elimination in the spirit of Albrecht, Bard and Hart, *Algorithm
898*, TOMS 37(1), 2010, at word size).

`linalg._rref` reduces its GF(2) inputs through `pack`, `echelon` and
`unpack`.  `ChainRows` holds the kernels `entropy._grow_chain` runs on a
GF(2) chain: the chain's rows stay packed from the first step to the
last, bit k being coordinate k of the window over (a0, infinity), levels
ascending and slots within a level.  So the bits are absolute: widening
the window moves no bit, and the lowest set bit of a row is its pivot in
the window.  The chain's active block is one pivot map, a dict from each
row's lowest set bit to the row, kept for the whole chain: a merge enters
the new rows into it in place (`merge`), and raising the block's bottom
pops the rows below it.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from operator import or_

import numpy as np


def pack(a: np.ndarray) -> list:
    """The rows of a 0/1 matrix as ints, bit j = column j."""
    m, n = a.shape
    width = (n + 7) // 8
    packed = np.packbits(a & 1, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[i * width : (i + 1) * width], "little") for i in range(m)]


def unpack(rows: list, n: int) -> np.ndarray:
    """The int64 0/1 matrix of packed rows over n columns."""
    if not rows:
        return np.zeros((0, n), dtype=np.int64)
    width = (n + 7) // 8
    buf = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), dtype=np.uint8)
    return np.unpackbits(buf.reshape(len(rows), width), axis=1, count=n, bitorder="little").astype(np.int64)


def _low(row: int) -> int:
    return row & -row


def _enter(pivots: dict, rows) -> list:
    """Enter the rows into the echelon basis `pivots` maps from its lowest
    bits; returns the pivots of the rows kept.

    Each row is reduced by the basis row whose pivot is its current lowest
    bit, until it vanishes or its lowest bit is no pivot yet; it is then
    kept with that pivot.  No row already in the basis changes.
    """
    kept = []
    for x in rows:
        while x:
            low = x & -x
            row = pivots.get(low)
            if row is None:
                pivots[low] = x
                kept.append(low)
                break
            x ^= row
    return kept


def merge(block: dict, rows) -> tuple:
    """(block, the rows it kept, sorted by pivot): the rows entered into
    the echelon basis `block` in place.

    `block` maps each row's pivot (its lowest set bit) to the row.  The new
    rows are entered by `_enter`, so the block's rows stay as they are and
    the kept ones join them; the pivots are those of `linalg.rref_union`
    on the unpacked rows, and the rows are not reduced (`echelon` is).
    The kept rows are the ones the chain loop maps next
    (`ChainRows.images`).
    """
    kept = _enter(block, rows)
    return block, [block[low] for low in sorted(kept)]


def echelon(rows) -> list:
    """The reduced row echelon basis of span(rows), sorted by pivot.

    Back-substitution from the highest pivot of an echelon basis (`_enter`)
    down clears, in each row, the pivots of the rows above it, each
    already final; a final row vanishes on every other pivot above its
    own, so XOR-ing it in changes no other pivot bit.
    """
    kept, mask = {}, 0
    _enter(kept, rows)
    for low in sorted(kept, reverse=True):
        x = kept[low]
        hits = x & mask
        while hits:
            bit = hits & -hits
            x ^= kept[bit]
            hits ^= bit
        kept[low], mask = x, mask | low
    return [kept[low] for low in sorted(kept)]


def _slices(blocks: dict, d: int, levels: int) -> tuple:
    """The bit-sliced action of stationary blocks on `levels` levels of width d.

    A source coordinate (n, i) sits at bit n d + i counted from the first
    level, and the image of e_{n,i} has the entry R_j[r, i] at (n + j, r):
    bit n d + i moves by s = j d + r - i.  Grouping the entries by s, the
    image of a packed x is the XOR over s of (x & M_s) shifted by s, M_s
    holding slot i of every level for each entry with that shift; slot i of
    every level is the repunit of `levels` blocks of d bits, shifted by i.
    Given s and i, (j, r) is unique, so no coordinate counts twice.
    Returns the (mask, s) terms for s >= 0 and the (mask, -s) ones for s < 0.
    """
    if not d:
        return (), ()
    unit = ((1 << (levels * d)) - 1) // ((1 << d) - 1)
    masks: dict = {}
    for j, block in blocks.items():
        for r, i in zip(*np.nonzero(block)):
            s = j * d + int(r) - int(i)
            masks[s] = masks.get(s, 0) | unit << int(i)
    return (
        tuple((m, s) for s, m in masks.items() if s >= 0),
        tuple((m, -s) for s, m in masks.items() if s < 0),
    )


def _cached(op, key, build):
    """The operator's packed-action table `key`, built on first use.

    These tables do not depend on the chain's tail a0, so every chain of
    the operator shares them, as every dense action shares the operator's
    stationary rows (`operators._stationary_rows`).
    """
    table = op._packed.get(key)
    if table is None:
        table = op._packed[key] = build()
    return table


def _side(op, side: str, levels: int):
    """`_slices` of one side's stationary blocks on at least `levels` levels.

    The count is rounded up to a power of two, so an operator keeps a few
    tables; a longer repunit is harmless where the rows are shorter.
    """
    count = 1 << max(levels - 1, 0).bit_length()
    if side == "left":
        return _cached(op, ("left", count), lambda: _slices(op.left_blocks, op.profile.d_left, count))
    return _cached(op, ("right", count), lambda: _slices(op.right_blocks, op.profile.d_right, count))


def _boundary_columns(op) -> tuple:
    """(ref, cols): the images of the boundary coordinates, levels
    b_lo..b_hi in window order, as ints over the window (ref, infinity),
    ref = b_lo - 1 - w below every image: the rows of the operator's
    boundary block, packed (`operators._boundary_block`)."""
    from .operators import _boundary_block  # operators imports linalg, which imports this module

    return op.b_lo - 1 - op.width, pack(_boundary_block(op))


class ChainRows:
    """The kernels of `entropy._grow_chain` for one GF(2) chain over the tail a0.

    The block is one pivot map for the whole chain, a dict from each row's
    pivot (lowest set bit) to the row, which `union` enters new rows into
    in place (`merge`) and `set_aside` pops the rows below the new bottom
    from; its rank is its length.  The settled stack is one pivot-sorted
    list, and a step's images one list with an int per mapped row, zero
    rows included, all in the absolute bits of the window over
    (a0, infinity).  The array kernels of `entropy` take the same arguments
    and return the same things in their own format.  `entropy._chain_rows`
    builds one per chain, from the operator's tables (`_cached`) and the
    profile's `window_dim` and `level_at`.
    """

    def __init__(self, op, a0: int):
        p = op.profile
        self.op, self.p, self.a0, self.w = op, p, a0, op.width
        d = self.d = p.d_right
        # right of b_hi: the sources of a row x are the bits from
        # window_dim(a0, b_hi) on, cut at a whole level and taken to a slot
        # of their own, w d bits up so that no image falls below it (`act`)
        self._right_at = p.window_dim(a0, op.b_hi)
        self._near_mask = (1 << self._right_at) - 1
        self._right_wd = op.width * d
        # left of b_lo: the bits below window_dim(a0, b_lo - 1); images at
        # levels <= a0 fall below bit 0 and drop off
        left = op.b_lo - 1 - a0
        self._left_mask = (1 << p.window_dim(a0, op.b_lo - 1)) - 1 if left > 0 else 0
        self._left = _side(op, "left", left) if left > 0 else ((), ())
        # the boundary levels above a0, through the operator's column ints
        lb = max(a0, op.b_lo - 1)
        ref, cols = _cached(op, "columns", lambda: _boundary_columns(op))
        self._cols = cols[p.window_dim(op.b_lo - 1, lb) :]
        self._cols_at = p.window_dim(a0, lb)
        self._cols_mask = (1 << max(self._right_at - self._cols_at, 0)) - 1
        self._cols_shift = p.window_dim(a0, ref) if ref >= a0 else -p.window_dim(ref, a0)
        self._power = None

    def at(self, level: int) -> int:
        """The bit of the first coordinate above `level` (level >= a0)."""
        return self.p.window_dim(self.a0, level)

    # -- the kernels ---------------------------------------------------------
    def start(self, basis, rows):
        """The packed chain block and first images (given over (a0, ...]).

        A full-rank basis in reduced form is the identity, bit k in row k."""
        if basis.rank == basis.ambient_dim:
            return {1 << k: 1 << k for k in range(basis.rank)}, pack(rows)
        return {r & -r: r for r in pack(basis.mat)}, pack(rows)

    def trim(self, rows, lo, top):
        """(rows, lo, top) with lo one level below the lowest nonzero level
        and top the highest; (rows, top, top) when every row is zero."""
        bits = reduce(or_, rows, 0)
        if not bits:
            return rows, top, top
        level = self.p.level_at
        return rows, level(self.a0, _low(bits).bit_length() - 1) - 1, level(self.a0, bits.bit_length() - 1)

    def edge(self, rows, lo, top, t, g):
        """Conditions A-C of the leading-edge stop: True, False or None as
        `entropy._ArrayRows.edge` returns them."""
        op = self.op
        if t < op.b_hi or len(rows) != g or (top - max(lo, t)) * self.d < g:
            return None
        power = op.right_edge_power()
        if power.shape[1] < g:
            return False
        if self._power is None or self._power[0] is not power:
            self._power = (power, pack(power))
        psi = self._power[1]
        at = self.at(t)
        image = []
        for x in rows:
            e, y = x >> at, 0  # E: the bits over (t, t + w]
            while e:
                low = e & -e
                y ^= psi[low.bit_length() - 1]
                e ^= low
            image.append(y)
        return len(echelon(image)) == g

    def set_aside(self, block, lo, new_lo, settled):
        """Pop the rows with pivots at or below new_lo onto the settled
        stack, in pivot order, above every row already there."""
        cut = 1 << self.at(new_lo)
        below = [low for low in block if low < cut]
        if below:
            below.sort()
            settled.extend(map(block.pop, below))
        return block

    def bring_back(self, settled, new_lo, top):
        k = bisect_left(settled, 1 << self.at(new_lo), key=_low)
        back = settled[k:]
        del settled[k:]
        return back

    def widen(self, block, rows, lo, top, new_lo, new_top, rows_top):
        return block, rows  # the bits are absolute

    rank = staticmethod(len)

    def union(self, block, rows):
        """(The block with the rows entered, the rows it kept), by the
        module's merge, looked up at call time."""
        return merge(block, rows)

    def front(self, lo, top, block, rows):
        """The parts of the front key (`entropy.FrontKey`): top - lo and
        the row counts, and a maker of the block's rows as a set and the
        images in order, shifted down to the bit of lo.  The block changes
        in place, so the maker holds its rows as they are now."""
        at, held = self.at(lo), tuple(block.values())
        return (top - lo, len(held), len(rows)), lambda: (
            frozenset(x >> at for x in held),
            tuple(x >> at for x in rows),
        )

    def images(self, block, kept, lo, top):
        """The images of the rows the last merge kept."""
        return self.act(kept), self.a0, top + self.w

    def act(self, rows) -> list:
        """The images of packed rows under the operator, levels <= a0 dropped.

        Left-stationary and boundary sources go row by row, through the
        bit-sliced left blocks and the boundary column ints.  The sources
        right of b_hi go through the bit-sliced right blocks, every row at
        once: each row's part from the first level right of b_hi that
        holds a source bit of any row takes a slot of its own in one int,
        w d bits above the slot's start and with room for the largest shift
        above, in slots whose length is a multiple of d, so that slot i of
        a level stays slot i.  This is exact because `validate` gives
        b_hi >= n_hi + w: those sources and their images lie in the
        constant d_right region, where the level of a bit moves by whole
        blocks.
        """
        at, wd, d = self._right_at, self._right_wd, self.d
        near, bits = self._near_mask, reduce(or_, rows, 0)
        out = [self._near(x) if x & near else 0 for x in rows] if bits & near else [0] * len(rows)
        src = bits >> at
        if not src:
            return out
        # the first whole level right of b_hi that holds a source bit
        skip = (_low(src).bit_length() - 1) // d * d
        width = (src >> skip).bit_length()
        cut = at + skip
        stride = -(-(width + 2 * wd + d) // d) * d
        up, down = _side(self.op, "right", len(rows) * stride // d)
        big = 0
        for k, x in enumerate(rows):
            big |= (x >> cut) << (k * stride + wd)
        y = 0
        for m, s in up:
            y ^= (big & m) << s
        for m, s in down:
            y ^= (big & m) >> s
        keep, back = (1 << stride) - 1, cut - wd
        return [o ^ ((y >> (k * stride)) & keep) << back for k, o in enumerate(out)]

    def _near(self, x: int) -> int:
        """The image of x's bits left of b_lo and in the boundary region."""
        y = 0
        b = (x >> self._cols_at) & self._cols_mask
        if b:
            cols = self._cols
            while b:
                low = b & -b
                y ^= cols[low.bit_length() - 1]
                b ^= low
            s = self._cols_shift
            y = y << s if s >= 0 else y >> -s
        left = x & self._left_mask
        if left:
            up, down = self._left
            for m, s in up:
                y ^= (left & m) << s
            for m, s in down:
                y ^= (left & m) >> s
        return y
