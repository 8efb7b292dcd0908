"""Dense exact matrices and finite-dimensional subspace arithmetic.

Subspaces of K^n are identified with their reduced row echelon form
(RREF): no zero rows, each pivot is 1 with zeros above and below, pivot
columns strictly increasing.  RREF is a canonical form, so two
`SubspaceBasis` values describe the same subspace exactly when they
compare equal.  Intersections use the Zassenhaus block construction;
everything else is a single echelon pass.

A reduced basis is the identity on its pivot columns, so reducing rows
against it and merging new rows into it only touch the other ("free")
columns: the residual vanishes on the old pivots, the new rows are
eliminated over the free columns alone, and the back-substitution into
the old rows clears their new pivot columns and updates only the columns
that are pivots of neither.  The chain bases of the entropy engines are
nearly full rank, so the free columns are a small share of the window.

The eliminations the engines make are small (about 10 x 38 over GF(2)
and 8 x 9 over GF(2^31 - 1) in the median), so their cost is per numpy
call rather than per multiply-add.  `_rref` therefore takes one of two
routes, chosen from the field:

* **GF(2)** packs each row into a Python int (bit j = column j) and
  eliminates with XOR, a handful of integer operations per row and
  pivot (`gf2rows`); the rows are unpacked once at the end;
* **every other field** (GF(p) for odd p, Q on `Fraction` object arrays)
  eliminates one pivot at a time, in place, updating only the columns
  from the pivot column on: over GF(p) every row, reduced mod p in place;
  over Q the rows from the first to the last that is nonzero there.

Both routes return the same canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2rows
from .errors import AmbientMismatch, FieldMismatch, NotContained


def _rref(field, a: np.ndarray):
    """Gauss-Jordan on a copy; returns (reduced nonzero rows, pivot columns).

    Two routes (module docstring): GF(2) rows packed into Python ints and
    reduced by XOR, every other field one pivot at a time.  Both leave `a`
    untouched and return the unique reduced row echelon form: the nonzero
    rows in pivot order and their pivot columns as ints.

    The pivot row vanishes left of its pivot column, so each elimination
    updates only the columns from the pivot on, in place.  Over GF(p) it
    updates every row and reduces mod p, so the entries stay in [0, p) and
    the products below p^2 <= 2^62, with one `np.remainder` into the block
    per pivot; on the small int64 matrices the engines make, finding the
    rows to skip costs more numpy calls than it saves.
    Over Q, where each entry is a Fraction operation, it updates only the
    rows from the first to the last that is nonzero in the pivot column
    (one slice; the rows between with a zero there, the pivot row among
    them, keep their values).
    """
    p = getattr(field, "p", None)
    if p == 2:
        rows = gf2rows.echelon(gf2rows.pack(a))
        return gf2rows.unpack(rows, a.shape[1]), [(r & -r).bit_length() - 1 for r in rows]
    a = field.normalize(np.array(a, copy=True))
    m, n = a.shape
    pivots = []
    r = 0
    for col in range(n):
        if r == m:
            break
        column = a[:, col]
        hits = column[r:].nonzero()[0]
        if not hits.size:
            continue
        sel = r + int(hits[0])
        if sel != r:
            a[[r, sel]] = a[[sel, r]]
        row = a[r, col:]
        c = column.copy()
        c[r] = field.zero
        if row[0] != field.one:
            if p:
                np.remainder(row * field.inv(row[0]), p, out=row)
            else:
                row *= field.inv(row[0])
        if p:
            block = a[:, col:]
            np.remainder(block - c[:, None] * row, p, out=block)
        else:
            hit = np.flatnonzero(c)
            if hit.size:
                rows = slice(hit[0], hit[-1] + 1)
                a[rows, col:] -= c[rows, None] * row
        pivots.append(col)
        r += 1
    return a[:r], pivots


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace of K^n held in canonical RREF."""

    field: object
    ambient_dim: int
    mat: np.ndarray
    pivots: tuple

    @classmethod
    def span(cls, field, rows, ambient_dim=None) -> "SubspaceBasis":
        """Canonicalize a list of spanning rows (any redundancy allowed)."""
        a = np.asarray(rows)
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if a.size == 0 and ambient_dim is not None:
            a = a.reshape(0, ambient_dim)
        a = field.array(a)
        red, piv = _rref(field, a)
        return cls(field, a.shape[1], red, tuple(piv))

    @classmethod
    def zero(cls, field, ambient_dim: int) -> "SubspaceBasis":
        return cls(field, ambient_dim, field.zeros(0, ambient_dim), ())

    @classmethod
    def full(cls, field, ambient_dim: int) -> "SubspaceBasis":
        return cls(field, ambient_dim, field.eye(ambient_dim), tuple(range(ambient_dim)))

    @property
    def rank(self) -> int:
        return self.mat.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and bool(np.array_equal(self.mat, other.mat))
        )

    def free_columns(self) -> np.ndarray:
        """Indices of the non-pivot columns, ascending."""
        keep = np.ones(self.ambient_dim, dtype=bool)
        keep[list(self.pivots)] = False
        return np.flatnonzero(keep)

    def _free_residual(self, rows: np.ndarray, free: np.ndarray) -> np.ndarray:
        """The residuals of rows (see reduce_rows) on the free columns only."""
        f = self.field
        if self.rank == 0:
            return f.normalize(rows[:, free])
        coeffs = rows[:, list(self.pivots)]
        return f.normalize(rows[:, free] - f.matmul(coeffs, self.mat[:, free]))

    def reduce_vector(self, v: np.ndarray) -> np.ndarray:
        """Residual of v after eliminating this basis; zero iff v is a member."""
        v = self.field.array(v).reshape(-1)
        if v.shape[0] != self.ambient_dim:
            raise AmbientMismatch(
                f"vector of length {v.shape[0]} in ambient {self.ambient_dim}"
            )
        return self.reduce_rows(v.reshape(1, -1))[0]

    def reduce_rows(self, rows: np.ndarray) -> np.ndarray:
        """Residuals of many rows at once: the unique representatives of
        rows modulo the span that vanish on every pivot column.

        Since the basis is the identity on its pivots, only the free
        columns are computed (one product of the pivot coordinates with
        the basis restricted to the free columns); the pivot columns of
        the residual are exactly zero.
        """
        f = self.field
        if rows.shape[0] == 0 or self.rank == 0:
            return f.normalize(np.array(rows, copy=True))
        free = self.free_columns()
        resid = f.zeros(rows.shape[0], self.ambient_dim)
        resid[:, free] = self._free_residual(rows, free)
        return resid

    def contains_vector(self, v) -> bool:
        return not bool(np.any(self.reduce_vector(v) != 0))

    def contains_rows(self, rows: np.ndarray) -> bool:
        return not bool(np.any(self.reduce_rows(rows) != 0))

    def contains(self, other: "SubspaceBasis") -> bool:
        self._check_compatible(other)
        return self.contains_rows(other.mat)

    def _check_compatible(self, other: "SubspaceBasis"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(f"{self.ambient_dim} vs {other.ambient_dim}")


def rref_union(basis: SubspaceBasis, rows: np.ndarray) -> SubspaceBasis:
    """Canonical basis of span(basis) + span(rows), updating incrementally.

    Reduces the new rows against the existing basis (their residuals
    vanish on the old pivots), eliminates among the survivors over the
    free columns only, then back-substitutes into the old rows: their new
    pivot columns become zero and only the columns that are pivots of
    neither side change.  The result is the same canonical RREF that
    re-reducing the whole stack gives, at a cost that scales with the
    number of free columns rather than the ambient dimension.
    """
    field = basis.field
    if rows.shape[0] == 0:
        return basis
    free = basis.free_columns()
    red, free_piv = _rref(field, basis._free_residual(field.array(rows), free))
    if not free_piv:
        return basis
    new_piv = free[free_piv]
    new_mat = field.zeros(len(free_piv), basis.ambient_dim)
    new_mat[:, free] = red
    if basis.rank == 0:
        return SubspaceBasis(field, basis.ambient_dim, new_mat, tuple(new_piv.tolist()))
    # red is the identity on its pivots, so over the free columns this one
    # product clears the old rows' new pivot columns and updates the rest;
    # their old pivot columns stay as they are
    old = basis.mat
    stacked = np.concatenate([old, new_mat], axis=0)
    stacked[: basis.rank, free] = field.normalize(old[:, free] - field.matmul(old[:, new_piv], red))
    # merge by pivot: one gather puts every row in its place
    pivots = np.concatenate([basis.pivots, new_piv])
    order = np.argsort(pivots)
    return SubspaceBasis(field, basis.ambient_dim, stacked[order], tuple(pivots[order].tolist()))


def pad_basis_columns(basis: SubspaceBasis, before: int, after: int) -> SubspaceBasis:
    """Embed a reduced basis into a wider ambient by padding zero columns.

    Appending columns keeps the form reduced; prepending shifts pivots.
    """
    if before == 0 and after == 0:
        return basis
    field = basis.field
    total = before + basis.ambient_dim + after
    mat = field.zeros(basis.rank, total)
    if basis.rank:
        mat[:, before : before + basis.ambient_dim] = basis.mat
    pivots = tuple(p + before for p in basis.pivots) if before else basis.pivots
    return SubspaceBasis(field, total, mat, pivots)


def subspace_combine(a: SubspaceBasis, b: SubspaceBasis, mode: str) -> SubspaceBasis:
    """Sum or intersection of two subspaces of the same ambient space.

    Intersections use the Zassenhaus construction: row reduce the block
    matrix [[A A], [B 0]]; rows whose left half vanished carry the reduced
    basis of the intersection in their right half.
    """
    a._check_compatible(b)
    field, n = a.field, a.ambient_dim
    if mode == "sum":
        stacked = np.concatenate([a.mat, b.mat], axis=0)
        return SubspaceBasis.span(field, stacked, ambient_dim=n)
    if mode == "intersect":
        top = np.concatenate([a.mat, a.mat], axis=1)
        bot = np.concatenate([b.mat, field.zeros(b.rank, n)], axis=1)
        red, piv = _rref(field, np.concatenate([top, bot], axis=0))
        # the rows with pivots at n or later vanish on the left half and
        # are already reduced on the right one
        k = sum(c < n for c in piv)
        return SubspaceBasis(field, n, red[k:, n:].copy(), tuple(c - n for c in piv[k:]))
    raise ValueError(f"unknown mode {mode!r}")


def quotient_dim(big: SubspaceBasis, small: SubspaceBasis) -> int:
    """dim(big / small); requires small <= big."""
    big._check_compatible(small)
    if not big.contains(small):
        raise NotContained("small is not contained in big")
    return big.rank - small.rank


def invert_matrix(field, m: np.ndarray):
    """Inverse of a square matrix, or None when singular."""
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("only square matrices can be inverted")
    if n == 0:
        return field.zeros(0, 0)
    aug = np.concatenate([field.array(m), field.eye(n)], axis=1)
    red, piv = _rref(field, aug)
    if list(piv) != list(range(n)):
        return None
    return red[:, n:]
