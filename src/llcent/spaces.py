"""Locally linearly compact spaces presented by dimension profiles.

The ambient space is V = prod_{n<=0} K^{d(n)}  (+)  sum_{n>0} K^{d(n)},
where d is an eventually constant dimension profile over the integer
levels.  Levels <= 0 carry the full product (the linearly compact side),
levels > 0 the direct sum (the discrete side).  Writing U_a for the set
of all coordinates at levels <= a, the family {U_a : a <= 0} is a
neighborhood basis at 0 of linearly compact open subspaces.

Every linearly compact open subspace W admits a canonical finite
presentation (tail cut, window basis), and this module is built on that
fact.  Sketch: W is open, so it contains some U_a.  The quotient W/U_a
is discrete (U_a is open) and linearly compact (continuous image of W),
hence finite-dimensional, and finite-dimensional subspaces of
V/U_a = sum_{n>a} K^{d(n)} are supported on finitely many levels.  So
W = U_a (+) S for a finite window subspace S; taking the largest
admissible a <= 0 and the unique reduced echelon basis of S over the
flattened window coordinates (level ascending, slot ascending) makes the
presentation canonical: two subspaces are equal iff their presentations
are identical.

Sums, quotients, operator images and the entropy chains all read W
modulo some U_a, as rows over the window of levels (a, b], written once
in `CompactOpenSubspace.rows_over`; only `Profile.window_dim` (where a
level starts) and `Profile.level_at` (which level holds a column) know
that flattened layout.  A blockwise pattern reads such rows level by
level with one reader, `BlockwisePattern.read`: at its pivots into the
sub-profile's coordinates, or modulo W_n at its free columns into the
quotient profile's.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import NotContained, ProfileMismatch
from .linalg import SubspaceBasis, subspace_combine


@dataclass(frozen=True)
class Profile:
    """Eventually constant dimension function d: levels -> naturals."""

    field: object
    d_left: int
    boundary: tuple
    d_right: int
    n_lo: int
    n_hi: int

    def __post_init__(self):
        if self.n_lo > 0 or self.n_hi < 0:
            raise ValueError("profile boundary must satisfy n_lo <= 0 <= n_hi")
        if len(self.boundary) != self.n_hi - self.n_lo + 1:
            raise ValueError("boundary list must cover levels n_lo..n_hi")
        if self.d_left < 0 or self.d_right < 0 or any(d < 0 for d in self.boundary):
            raise ValueError("dimensions must be non-negative")
        self._new_sums()

    def _new_sums(self):
        # the window layout's constants, kept per instance so that no lookup
        # compares profiles; prefix[j] is the dimension of the first j
        # boundary levels
        prefix = (0, *accumulate(self.boundary))
        object.__setattr__(self, "_sums", (self.n_lo - 1, len(self.boundary), prefix, self.d_left, self.d_right))

    # Operators and subspaces compare their profiles on every check, so
    # identity decides first and the hash is computed once.
    def _key(self):
        return (self.field, self.d_left, self.boundary, self.d_right, self.n_lo, self.n_hi)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        # the field's hash hashes a string, which differs between processes;
        # the sums are rebuilt
        state = dict(self.__dict__)
        for name in ("_hash", "_sums"):
            state.pop(name, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._new_sums()

    @classmethod
    def constant(cls, field, d: int) -> "Profile":
        return cls(field, d, (d,), d, 0, 0)

    @classmethod
    def from_dims(cls, field, dims_by_level: dict, d_left: int, d_right: int) -> "Profile":
        lo = min(min(dims_by_level, default=0), 0)
        hi = max(max(dims_by_level, default=0), 0)
        boundary = tuple(
            dims_by_level.get(n, d_left if n < lo else d_right) for n in range(lo, hi + 1)
        )
        return cls(field, d_left, boundary, d_right, lo, hi)

    def dim(self, n: int) -> int:
        if n < self.n_lo:
            return self.d_left
        if n > self.n_hi:
            return self.d_right
        return self.boundary[n - self.n_lo]

    def is_constant(self) -> bool:
        return all(d == self.d_left for d in self.boundary) and self.d_right == self.d_left

    def is_discrete(self) -> bool:
        """All levels <= 0 are zero-dimensional (V is a discrete space)."""
        return self.d_left == 0 and all(
            self.boundary[n - self.n_lo] == 0 for n in range(self.n_lo, 1)
        )

    def is_linearly_compact(self) -> bool:
        """All levels > 0 are zero-dimensional (V is linearly compact)."""
        return self.d_right == 0 and all(
            self.boundary[n - self.n_lo] == 0 for n in range(1, self.n_hi + 1)
        )

    # -- window flattening: coordinates of levels in (a, b] ----------------
    def window_dim(self, a: int, b: int) -> int:
        """The dimension of the levels (a, b], 0 when b <= a.

        It runs on every engine step, so it takes no table.  With S(n) the
        dimension of the levels (n_lo - 1, n], negative below n_lo - 1, it
        is S(b) - S(a): prefix sums over the boundary levels, and d_left or
        d_right per level outside them.  Coordinate i of level n is column
        window_dim(a, n - 1) + i of the window over (a, b]; `level_at`
        inverts that.
        """
        if b <= a:
            return 0
        base, last, prefix, d_left, d_right = self._sums
        i, j = a - base, b - base  # S(n) = prefix[n - base] for 0 <= n - base <= last
        if j > last:
            s_b = prefix[last] + (j - last) * d_right
        elif j >= 0:
            s_b = prefix[j]
        else:
            return (j - i) * d_left
        if i > last:
            return (j - i) * d_right
        if i >= 0:
            return s_b - prefix[i]
        return s_b - i * d_left

    def level_at(self, a: int, col: int) -> int:
        """The level of column col >= 0 of the window over (a, ...): the least
        n with window_dim(a, n) > col.

        With S as in `window_dim` it is the least n with S(n) > S(a) + col:
        a division on either side of the boundary levels, a bisection over
        their prefix sums inside them.  ValueError when no level holds the
        column (zero-dimensional levels from there on).
        """
        base, last, prefix, d_left, d_right = self._sums
        s = col + (self.window_dim(base, a) if a >= base else -self.window_dim(a, base))  # S(a) + col
        if s < 0:  # left of the boundary levels, where d_left > 0
            return base + s // d_left + 1
        if s < prefix[last]:
            return base + bisect_right(prefix, s)
        if not d_right:
            raise ValueError(f"no level holds column {col} of the window over ({a}, ...)")
        return base + last + (s - prefix[last]) // d_right + 1


class LlcVector:
    """A finitely supported element of V: a map (level, slot) -> nonzero scalar."""

    __slots__ = ("profile", "support")

    def __init__(self, profile: Profile, support: dict):
        self.profile = profile
        clean = {}
        for (n, i), v in support.items():
            v = profile.field.coerce(v)
            if v == profile.field.zero:
                continue
            if not (0 <= i < profile.dim(n)):
                raise ValueError(f"slot {i} out of range at level {n}")
            clean[(n, int(i))] = v
        self.support = clean

    @classmethod
    def _reduced(cls, profile: Profile, support: dict) -> "LlcVector":
        """A vector on a support whose scalars are already reduced and nonzero
        and whose slots are in range, kept without another check."""
        vec = cls.__new__(cls)
        vec.profile, vec.support = profile, support
        return vec

    @classmethod
    def zero(cls, profile: Profile) -> "LlcVector":
        return cls(profile, {})

    @classmethod
    def unit(cls, profile: Profile, level: int, slot: int) -> "LlcVector":
        return cls(profile, {(level, slot): profile.field.one})

    def is_zero(self) -> bool:
        return not self.support

    def levels(self):
        return sorted({n for (n, _i) in self.support})

    def add(self, other: "LlcVector") -> "LlcVector":
        self._check(other)
        f = self.profile.field
        out = dict(self.support)
        for key, v in other.support.items():
            out[key] = f.add(out.get(key, f.zero), v)
        return LlcVector(self.profile, out)

    def scale(self, c) -> "LlcVector":
        f = self.profile.field
        c = f.coerce(c)
        return LlcVector(self.profile, {k: f.mul(v, c) for k, v in self.support.items()})

    def restrict(self, lo=None, hi=None) -> "LlcVector":
        """Keep only coordinates with lo <= level <= hi (either bound optional)."""
        keep = {
            k: v
            for k, v in self.support.items()
            if (lo is None or k[0] >= lo) and (hi is None or k[0] <= hi)
        }
        return LlcVector(self.profile, keep)

    def level_component(self, n: int) -> np.ndarray:
        f = self.profile.field
        comp = f.zeros(1, self.profile.dim(n))[0]
        for (m, i), v in self.support.items():
            if m == n:
                comp[i] = v
        return comp

    def to_window(self, a: int, b: int, clip_low: bool = False) -> np.ndarray:
        """Flatten over the coordinates of levels (a, b]."""
        p = self.profile
        arr = p.field.zeros(1, p.window_dim(a, b))[0]
        for (n, i), v in self.support.items():
            if n <= a:
                if clip_low:
                    continue
                raise ValueError(f"support at level {n} below window cut {a}")
            if n > b:
                raise ValueError(f"support at level {n} above window top {b}")
            arr[p.window_dim(a, n - 1) + i] = v
        return arr

    @classmethod
    def from_rows(cls, profile: Profile, a: int, b: int, rows: np.ndarray) -> list:
        """Each row of reduced scalars over the coordinates (a, b] as a vector."""
        keys = [(n, i) for n in range(a + 1, b + 1) for i in range(profile.dim(n))]
        supports = [{} for _ in range(rows.shape[0])]
        at = np.nonzero(rows)
        for r, c, v in zip(at[0].tolist(), at[1].tolist(), rows[at].tolist()):
            supports[r][keys[c]] = v
        return [cls._reduced(profile, support) for support in supports]

    def _check(self, other):
        if self.profile != other.profile:
            raise ProfileMismatch("vectors over different profiles")

    def __eq__(self, other):
        return (
            isinstance(other, LlcVector)
            and self.profile == other.profile
            and self.support == other.support
        )

    def __repr__(self):
        if not self.support:
            return "0"
        terms = []
        for (n, i) in sorted(self.support):
            v = self.support[(n, i)]
            coeff = "" if v == self.profile.field.one else f"{v}*"
            terms.append(f"{coeff}e[{n},{i}]")
        return " + ".join(terms)


class CompactOpenSubspace:
    """A linearly compact open subspace W = U_tail (+) span(window).

    Instances are always canonical: the tail cut is the largest a <= 0
    with U_a <= W, the window basis is in RREF over the flattened
    coordinates of levels (tail, top], and top is minimal.  Construct via
    :meth:`make` (from generators) or :func:`cofinal_chain`.
    """

    __slots__ = ("profile", "tail", "top", "window")

    def __init__(self, profile, tail, top, window):
        self.profile = profile
        self.tail = tail
        self.top = top
        self.window = window

    @classmethod
    def make(cls, profile: Profile, tail: int, gens=()) -> "CompactOpenSubspace":
        """Canonical subspace U_tail + span(gens); gens are LlcVectors.

        Generator coordinates at levels <= tail are absorbed by the tail.
        """
        gens = list(gens)
        top = tail
        for g in gens:
            if g.profile != profile:
                raise ProfileMismatch("generator over a different profile")
            if g.support:
                top = max(top, max(n for (n, _i) in g.support))
        rows = [g.to_window(tail, top, clip_low=True) for g in gens]
        return cls.from_rows(profile, tail, np.array(rows) if rows else [], top)

    @classmethod
    def from_rows(cls, profile: Profile, tail: int, rows: np.ndarray, top: int) -> "CompactOpenSubspace":
        """Canonical subspace from raw window rows over the levels (tail, top]."""
        if tail > 0:
            raise ValueError("tail cut must be <= 0")
        window = SubspaceBasis.span(profile.field, rows, ambient_dim=profile.window_dim(tail, top))
        return cls._canonicalize(profile, tail, top, window)

    @classmethod
    def _canonicalize(cls, profile, tail, top, window):
        """The canonical presentation of U_tail + span(window rows).

        The window is reduced, so the presentation is read off it rather
        than eliminated again.  U_{tail+1} lies in W exactly when the first
        d(tail+1) rows are the unit vectors of that level (their pivots are
        its columns and they vanish elsewhere); absorbing the level drops
        those rows and columns.  A top level on which every row vanishes
        is dropped as zero columns.  Neither slice leaves reduced form.
        """
        mat, pivots = window.mat, window.pivots
        while tail < 0:
            d1 = profile.dim(tail + 1)
            if d1:
                if pivots[:d1] != tuple(range(d1)) or np.any(mat[:d1, d1:] != 0):
                    break
                mat = mat[d1:, d1:]
                pivots = tuple(c - d1 for c in pivots[d1:])
            tail += 1
        while top > tail:
            dtop = profile.dim(top)
            if dtop:
                cut = mat.shape[1] - dtop
                if np.any(mat[:, cut:] != 0):
                    break
                mat = mat[:, :cut]
            top -= 1
        if mat is not window.mat:
            window = SubspaceBasis(profile.field, mat.shape[1], mat.copy(), pivots)
        return cls(profile, tail, top, window)

    @property
    def field(self):
        return self.profile.field

    def window_vectors(self):
        """The window basis rows as LlcVectors."""
        return LlcVector.from_rows(self.profile, self.tail, self.top, self.window.mat)

    def member(self, v: LlcVector) -> bool:
        if v.profile != self.profile:
            raise ProfileMismatch("vector over a different profile")
        high = {k for k in v.support if k[0] > self.top}
        if high:
            return False
        arr = v.to_window(self.tail, self.top, clip_low=True)
        return self.window.contains_vector(arr)

    def rows_over(self, a: int, b: int) -> np.ndarray:
        """Rows spanning W modulo U_a over the flattened coordinates of (a, b].

        First the unit rows of the levels (a, tail], then the window basis;
        when a lies above the tail, the window's columns at levels <= a are
        dropped, as U_a absorbs them.  Requires b >= top.
        """
        if b < self.top:
            raise ValueError("row window must reach the presentation top")
        p = self.profile
        f = p.field
        # an empty range of levels has dimension 0: no unit rows when a >= tail,
        # no dropped columns when a <= tail
        n_tail = p.window_dim(a, self.tail)
        kept = self.window.mat[:, p.window_dim(self.tail, a) :]
        mat = f.zeros(n_tail + kept.shape[0], p.window_dim(a, b))
        for i in range(n_tail):
            mat[i, i] = f.one
        mat[n_tail:, n_tail : n_tail + kept.shape[1]] = kept
        return mat

    def expand_window(self, a: int, b: int) -> SubspaceBasis:
        """This subspace seen inside the flattened coordinates of (a, b].

        Requires a <= tail and b >= top: `rows_over(a, b)`, the unit rows
        of the levels (a, tail] and then the shifted window basis, is then
        already in reduced echelon form, so it is returned with its pivots
        without another elimination pass.  Over (tail, top] that is the
        window basis itself.
        """
        if a > self.tail or b < self.top:
            raise ValueError("expansion window must contain the presentation window")
        if a == self.tail and b == self.top:
            return self.window
        shift = self.profile.window_dim(a, self.tail)
        pivots = tuple(range(shift)) + tuple(c + shift for c in self.window.pivots)
        return SubspaceBasis(self.profile.field, self.profile.window_dim(a, b), self.rows_over(a, b), pivots)

    def __eq__(self, other):
        return (
            isinstance(other, CompactOpenSubspace)
            and self.profile == other.profile
            and self.tail == other.tail
            and self.top == other.top
            and self.window == other.window
        )

    def __repr__(self):
        gens = ", ".join(repr(v) for v in self.window_vectors())
        return f"U_{self.tail} + <{gens}>"


def open_combine(x: CompactOpenSubspace, y: CompactOpenSubspace, mode: str) -> CompactOpenSubspace:
    """Sum or intersection inside the lattice of compact open subspaces."""
    if x.profile != y.profile:
        raise ProfileMismatch("subspaces over different profiles")
    profile = x.profile
    if mode == "sum":
        a = max(x.tail, y.tail)
        b = max(x.top, y.top, a)
        rows = np.concatenate([x.rows_over(a, b), y.rows_over(a, b)], axis=0)
        return CompactOpenSubspace.from_rows(profile, a, rows, b)
    if mode == "intersect":
        a = min(x.tail, y.tail)
        b = max(x.top, y.top)
        inter = subspace_combine(x.expand_window(a, b), y.expand_window(a, b), "intersect")
        return CompactOpenSubspace._canonicalize(profile, a, b, inter)
    raise ValueError(f"unknown mode {mode!r}")


def open_quotient_dim(big: CompactOpenSubspace, small: CompactOpenSubspace) -> int:
    """Codimension of small in big; raises NotContained when not nested."""
    if big.profile != small.profile:
        raise ProfileMismatch("subspaces over different profiles")
    if small.tail > big.tail:
        # canonical tails are maximal, so U_{small.tail} cannot fit in big
        raise NotContained("tail of the small subspace exceeds the big one")
    b = max(big.top, small.top)
    big_exp = big.expand_window(small.tail, b)
    if not big_exp.contains_rows(small.rows_over(small.tail, b)):
        raise NotContained("a window generator of small is not in the big subspace")
    return big_exp.rank - small.window.rank


def open_contains(big: CompactOpenSubspace, small: CompactOpenSubspace) -> bool:
    try:
        open_quotient_dim(big, small)
        return True
    except NotContained:
        return False


def cofinal_chain(profile: Profile, m: int) -> CompactOpenSubspace:
    """C_m = all coordinates at levels <= m (tail V_c plus m discrete levels).

    The family {C_m} is a chain cofinal in the lattice of compact open
    subspaces: every canonical subspace is contained in C_{top}.
    """
    if m < 0:
        raise ValueError("chain index must be >= 0")
    window = SubspaceBasis.full(profile.field, profile.window_dim(0, m))
    return CompactOpenSubspace._canonicalize(profile, 0, m, window)


@dataclass(frozen=True)
class BlockwisePattern:
    """A closed blockwise subspace W = prod/sum of per-level patterns W_n.

    W_n is constant P_L for n < m_lo and constant P_R for n > m_hi.  Used
    for the closed invariant subspaces of restriction/quotient checks.
    """

    profile: Profile
    left: SubspaceBasis
    middle: tuple
    right: SubspaceBasis
    m_lo: int
    m_hi: int

    @classmethod
    def make(cls, profile, left, middle_by_level: dict, right) -> "BlockwisePattern":
        m_lo = min(min(middle_by_level, default=0), profile.n_lo)
        m_hi = max(max(middle_by_level, default=0), profile.n_hi)
        mids = []
        for n in range(m_lo, m_hi + 1):
            if n in middle_by_level:
                basis = middle_by_level[n]
            else:
                template = left if n < profile.n_lo else right if n > profile.n_hi else None
                if template is None:
                    raise ValueError(f"pattern must specify level {n}")
                basis = template
            if basis.ambient_dim != profile.dim(n):
                raise ValueError(f"pattern ambient at level {n} does not match the profile")
            mids.append(basis)
        if left.ambient_dim != profile.d_left or right.ambient_dim != profile.d_right:
            raise ValueError("stationary pattern ambients do not match the profile")
        return cls(profile, left, tuple(mids), right, m_lo, m_hi)

    @classmethod
    def full(cls, profile) -> "BlockwisePattern":
        f = profile.field
        mids = {n: SubspaceBasis.full(f, profile.dim(n)) for n in range(profile.n_lo, profile.n_hi + 1)}
        return cls.make(
            profile, SubspaceBasis.full(f, profile.d_left), mids, SubspaceBasis.full(f, profile.d_right)
        )

    @classmethod
    def zero(cls, profile) -> "BlockwisePattern":
        f = profile.field
        mids = {n: SubspaceBasis.zero(f, profile.dim(n)) for n in range(profile.n_lo, profile.n_hi + 1)}
        return cls.make(
            profile, SubspaceBasis.zero(f, profile.d_left), mids, SubspaceBasis.zero(f, profile.d_right)
        )

    @classmethod
    def first_slots(cls, profile, k: int) -> "BlockwisePattern":
        """The pattern spanned by the first min(k, d(n)) slots at every level."""
        f = profile.field

        def slots(d):
            m = f.zeros(min(k, d), d)
            for i in range(min(k, d)):
                m[i, i] = f.one
            return SubspaceBasis.span(f, m, ambient_dim=d)

        mids = {n: slots(profile.dim(n)) for n in range(profile.n_lo, profile.n_hi + 1)}
        return cls.make(profile, slots(profile.d_left), mids, slots(profile.d_right))

    @classmethod
    def slot_subset(cls, profile, slots) -> "BlockwisePattern":
        """Constant pattern spanned by a fixed subset of slots at every level.

        Requires a constant profile so the subset makes sense everywhere.
        """
        f = profile.field
        d = profile.d_left

        def basis():
            m = f.zeros(len(slots), d)
            for r, s in enumerate(sorted(slots)):
                m[r, s] = f.one
            return SubspaceBasis.span(f, m, ambient_dim=d)

        b = basis()
        mids = {n: b for n in range(profile.n_lo, profile.n_hi + 1)}
        return cls.make(profile, b, mids, b)

    def level_basis(self, n: int) -> SubspaceBasis:
        if n < self.m_lo:
            return self.left
        if n > self.m_hi:
            return self.right
        return self.middle[n - self.m_lo]

    def sub_profile(self) -> Profile:
        return Profile(
            self.profile.field,
            self.left.rank,
            tuple(b.rank for b in self.middle),
            self.right.rank,
            self.m_lo,
            self.m_hi,
        )

    def quotient_profile(self) -> Profile:
        return Profile(
            self.profile.field,
            self.profile.d_left - self.left.rank,
            tuple(
                self.profile.dim(self.m_lo + k) - b.rank for k, b in enumerate(self.middle)
            ),
            self.profile.d_right - self.right.rank,
            self.m_lo,
            self.m_hi,
        )

    def member(self, v: LlcVector) -> bool:
        if v.profile != self.profile:
            raise ProfileMismatch("vector over a different profile")
        for n in v.levels():
            if not self.level_basis(n).contains_vector(v.level_component(n)):
                return False
        return True

    def rows(self, a: int, b: int) -> np.ndarray:
        """The basis rows of each W_n over the coordinates (a, b], level by level."""
        p = self.profile
        bases = [self.level_basis(n).mat for n in range(a + 1, b + 1)]
        out = p.field.zeros(sum(m.shape[0] for m in bases), p.window_dim(a, b))
        r = c = 0
        for m in bases:
            out[r : r + m.shape[0], c : c + m.shape[1]] = m
            r, c = r + m.shape[0], c + m.shape[1]
        return out

    def read(self, rows: np.ndarray, a: int, b: int, quotient: bool = False) -> np.ndarray:
        """Rows over the coordinates (a, b], read level by level.

        Each level's part is read at the pivots of W_n, which gives the
        coordinates of a member row over the sub-profile, or with quotient
        reduced mod W_n and read at its free columns, which gives the
        coordinates of any row over the quotient profile.
        """
        p = self.profile
        parts = []
        for n in range(a + 1, b + 1):
            basis = self.level_basis(n)
            part = rows[:, p.window_dim(a, n - 1) : p.window_dim(a, n)]
            if quotient:
                parts.append(basis.reduce_rows(part)[:, basis.free_columns()])
            else:
                parts.append(part[:, list(basis.pivots)])
        return np.concatenate(parts, axis=1) if parts else p.field.zeros(rows.shape[0], 0)


def blockwise_restrict_quotient(pattern: BlockwisePattern, u: CompactOpenSubspace):
    """Present U inside W and inside V/W, in their intrinsic coordinates.

    Returns (u_in_w, u_in_quotient): U /\\ W over the sub-profile and
    (U + W)/W over the quotient profile, both canonical.
    """
    if pattern.profile != u.profile:
        raise ProfileMismatch("pattern and subspace over different profiles")
    f = pattern.profile.field
    a, b = u.tail, u.top
    w_window = SubspaceBasis.span(f, pattern.rows(a, b), ambient_dim=pattern.profile.window_dim(a, b))
    inter = subspace_combine(u.window, w_window, "intersect") if w_window.ambient_dim else w_window
    u_in_w = CompactOpenSubspace.from_rows(pattern.sub_profile(), a, pattern.read(inter.mat, a, b), b)
    quotient = pattern.read(u.window.mat, a, b, quotient=True)
    return u_in_w, CompactOpenSubspace.from_rows(pattern.quotient_profile(), a, quotient, b)
