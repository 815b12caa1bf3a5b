"""Exact dense linear algebra over the rationals.

Deliberately small and dependency-free.  Matrices carry their shape
explicitly (zero-dimensional components are everywhere in the module
machinery, so shapes must never be inferred from row data), entries are
`fractions.Fraction`s, and no function mutates its input.
`adjugate` is the one integer-only routine: it inverts a square integer
matrix without leaving Z, as an adjugate over a determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


# Fraction is immutable, so every matrix may share these two
ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Mat:
    """Immutable matrix with explicit shape; rows is a tuple of row tuples."""

    nrows: int
    ncols: int
    rows: tuple

    @staticmethod
    def from_rows(rows, ncols):
        rows = tuple(tuple(r) for r in rows)
        for r in rows:
            assert len(r) == ncols
        return Mat(len(rows), ncols, rows)

    @staticmethod
    def from_int_rows(rows, ncols):
        return Mat.from_rows([[Fraction(v) for v in r] for r in rows], ncols)

    @staticmethod
    def zeros(nrows, ncols):
        # rows may share one tuple: neither it nor its entries ever change
        row = (ZERO,) * ncols
        return Mat(nrows, ncols, (row,) * nrows)

    @staticmethod
    def identity(k):
        return Mat(k, k, tuple(tuple(ONE if i == j else ZERO for j in range(k)) for i in range(k)))

    def mul(self, other: "Mat") -> "Mat":
        assert self.ncols == other.nrows
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                s = ZERO
                for k in range(self.ncols):
                    s = s + self.rows[i][k] * other.rows[k][j]
                row.append(s)
            out.append(tuple(row))
        return Mat(self.nrows, other.ncols, tuple(out))

    def mul_vec(self, vec):
        assert len(vec) == self.ncols
        out = []
        for i in range(self.nrows):
            s = ZERO
            for k in range(self.ncols):
                s = s + self.rows[i][k] * vec[k]
            out.append(s)
        return tuple(out)

    def column(self, j):
        return tuple(self.rows[i][j] for i in range(self.nrows))

    def hstack(self, other: "Mat") -> "Mat":
        assert self.nrows == other.nrows
        return Mat(
            self.nrows,
            self.ncols + other.ncols,
            tuple(a + b for a, b in zip(self.rows, other.rows)),
        )

    def is_zero(self) -> bool:
        return all(not v for row in self.rows for v in row)


def rref(m: Mat):
    """Reduced row echelon form; returns (Mat, pivot column tuple)."""
    rows = [list(r) for r in m.rows]
    pivots = []
    pr = 0
    for pc in range(m.ncols):
        pivot_row = None
        for r in range(pr, m.nrows):
            if rows[r][pc]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        piv = rows[pr][pc]
        rows[pr] = [v / piv for v in rows[pr]]
        for r in range(m.nrows):
            if r != pr and rows[r][pc]:
                factor = rows[r][pc]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == m.nrows:
            break
    return Mat(m.nrows, m.ncols, tuple(tuple(r) for r in rows)), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Mat):
    """Basis of the right null space, one vector per free column, in column order."""
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [ZERO] * m.ncols
        vec[f] = ONE
        for i, p in enumerate(pivots):
            vec[p] = -reduced.rows[i][f]
        basis.append(tuple(vec))
    return basis


def solve_many(a: Mat, b: Mat):
    """Solve a X = b columnwise; free variables are set to zero.

    Returns the solution Mat, or None if any column is inconsistent.
    """
    assert a.nrows == b.nrows
    reduced, pivots = rref(a.hstack(b))
    if any(p >= a.ncols for p in pivots):
        return None
    cols = []
    for j in range(b.ncols):
        vec = [ZERO] * a.ncols
        for i, p in enumerate(pivots):
            vec[p] = reduced.rows[i][a.ncols + j]
        cols.append(vec)
    return Mat(
        a.ncols, b.ncols, tuple(tuple(cols[j][i] for j in range(b.ncols)) for i in range(a.ncols))
    )


def inverse(m: Mat):
    """Inverse of a square matrix, or None if singular.

    Singularity falls out of solve_many: the identity block has full rank,
    so a rank-deficient m forces a pivot into the augmented part.
    """
    assert m.nrows == m.ncols
    return solve_many(m, Mat.identity(m.nrows))


def adjugate(rows):
    """Fraction-free inverse of a square integer matrix, or None if singular.

    Returns (adj, det): the adjugate as a tuple of int row tuples and the
    determinant, so the inverse is adj / det entry for entry.  Bareiss
    elimination in Gauss-Jordan form on [A | I] keeps every entry an
    integer minor of [A | I], so each division by the previous pivot is
    exact; it ends at [c I | R] with A R = c I and c = +-det A, the sign
    counting the row swaps.
    """
    k = len(rows)
    m = [list(r) + [1 if j == i else 0 for j in range(k)] for i, r in enumerate(rows)]
    prev, sign = 1, 1
    for c in range(k):
        p = next((r for r in range(c, k) if m[r][c]), None)
        if p is None:
            return None
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        pivot_row = m[c]
        piv = pivot_row[c]
        for r in range(k):
            if r != c:
                row = m[r]
                f = row[c]
                m[r] = [(piv * a - f * b) // prev for a, b in zip(row, pivot_row)]
        prev = piv
    return tuple(tuple(sign * v for v in row[k:]) for row in m), sign * prev
