"""Exact linear algebra over the integers.

Deliberately small and dependency-free: one fraction-free elimination
and the three things read off it.  Matrices are sequences of int rows,
dense, but an update with equal pivots touches only the pivot row's
nonzero entries, so sparse rows are cheap to eliminate;
where a matrix may have no rows, its column count is passed explicitly
(zero-dimensional components are everywhere in the module machinery,
so shapes are never inferred from row data there).  No function
mutates its input.
"""

from __future__ import annotations

from math import gcd


def eliminate(rows, ncols):
    """Fraction-free (Bareiss) Gauss-Jordan elimination with column skipping.

    Returns (reduced, pivots, last, sign): the reduced rows, the pivot
    columns in order, the last pivot and the parity of the row swaps as
    +-1.  A row that elimination changed is a new list; the others are
    the input rows themselves, which are never written.  Every entry
    stays an integer minor of the input, so each division by the
    previous pivot is exact; a column with no nonzero entry below the
    pivot rows is skipped.  At the end every
    pivot row holds `last` at its own pivot column and zero at the
    others, and the rows below the pivot rows are zero.

    A row with f in the pivot column becomes (piv a - f b) / prev at
    each column, a its entry and b the pivot row's.  When piv equals
    prev, as most pivots of a Cartan square do, that is a - f b / prev,
    and f b / prev is an integer: prev a - f b is prev times an entry
    of the new row, an integer minor, and prev divides prev a, so it
    divides f b.  Such a row then moves only where b is nonzero, and a
    row with f = 0 not at all; every other pivot rewrites every row.
    """
    m = list(rows)
    pivots, prev, sign = [], 1, 1
    for c in range(ncols):
        top = len(pivots)
        if top == len(m):
            break
        for p in range(top, len(m)):
            if m[p][c]:
                break
        else:
            continue
        if p != top:
            m[top], m[p] = m[p], m[top]
            sign = -sign
        pivot_row = m[top]
        piv = pivot_row[c]
        if piv == prev:
            # (piv a - f b) / prev is a - f b / prev: only the pivot row's
            # nonzero entries move a row, and a row with f = 0 stays
            support = [(j, b) for j, b in enumerate(pivot_row) if b]
            for r, row in enumerate(m):
                f = row[c]
                if f and r != top:
                    row = m[r] = list(row)
                    for j, b in support:
                        row[j] -= f * b // prev
        else:
            for r, row in enumerate(m):
                if r != top:
                    f = row[c]
                    m[r] = [(piv * a - f * b) // prev for a, b in zip(row, pivot_row)]
        pivots.append(c)
        prev = piv
    return m, pivots, prev, sign


def rank(rows) -> int:
    return len(eliminate(rows, len(rows[0]) if rows else 0)[1])


def kernel(rows, ncols):
    """Primitive integer basis of the right null space, one vector per
    free column, in column order.

    With last pivot D, the vector of free column f is D at f and
    -reduced[i][f] at the i-th pivot column, divided by its gcd and
    signed to be positive at f.
    """
    if ncols == 1:
        # one column: (1,) when it is zero, as the elimination gives it
        return [] if any(map(any, rows)) else [(1,)]
    reduced, pivots, last, _ = eliminate(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [0] * ncols
        vec[f] = last
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        g = gcd(*vec) if last > 0 else -gcd(*vec)
        basis.append(tuple([v // g for v in vec]))
    return basis


def adjugate(rows):
    """Fraction-free inverse of a square integer matrix, or None if singular.

    Returns (adj, det): the adjugate as a tuple of int row tuples and the
    determinant, so the inverse is adj / det entry for entry.  The
    elimination of [A | I] ends at [c I | R] with A R = c I and
    c = +-det A, the sign counting the row swaps; a pivot past the A
    block means A is singular.
    """
    k = len(rows)
    m = [list(r) + [1 if j == i else 0 for j in range(k)] for i, r in enumerate(rows)]
    reduced, pivots, last, sign = eliminate(m, 2 * k)
    if pivots and pivots[-1] >= k:
        return None
    return tuple(tuple(sign * v for v in row[k:]) for row in reduced), sign * last
