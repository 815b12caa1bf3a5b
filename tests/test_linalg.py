"""The integer elimination against the Fraction oracle and sympy.

`higher_cluster.linalg` is one fraction-free elimination with the rank,
the kernel and the adjugate read off it.  The Fraction matrices of
`tests/oracles.py` are the reference it is compared with, and they are
themselves checked against sympy here.
"""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from higher_cluster.hom import calculator_for
from higher_cluster.linalg import adjugate, eliminate, kernel, rank
from higher_cluster.model import ModelParams
from higher_cluster.tilting import enumerate_tilting

from oracles import Mat, inverse, kernel_basis, rref, solve_many
from oracles import rank as fraction_rank


def random_int_mat(rng, nrows, ncols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def to_sympy(rows, ncols):
    return sympy.Matrix(rows) if rows else sympy.zeros(0, ncols)


@st.composite
def int_matrices(draw, max_rows=6, max_cols=7, square=False):
    """Integer matrices of every shape down to zero rows or zero columns.

    Some columns are then zeroed and some replaced by integer combinations
    of earlier ones, so the elimination has columns to skip, and some rows
    by combinations of earlier rows, so the rank drops.
    """
    nrows = draw(st.integers(0, max_rows))
    ncols = nrows if square else draw(st.integers(0, max_cols))
    entries = st.integers(-3, 3)
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    for c in range(ncols):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "combine")))
        if kind == "zero":
            for row in rows:
                row[c] = 0
        elif kind == "combine" and c:
            a, b = draw(st.integers(0, c - 1)), draw(st.integers(0, c - 1))
            f, g = draw(entries), draw(entries)
            for row in rows:
                row[c] = f * row[a] + g * row[b]
    for r in range(1, nrows):
        if draw(st.booleans()):
            a, f = draw(st.integers(0, r - 1)), draw(entries)
            rows[r] = [f * v for v in rows[a]]
    return rows, ncols


@st.composite
def cartan_matrices(draw, max_size=7):
    """Sparse 0/+-1 squares with a unit diagonal, the shape of a Cartan
    square, whose pivots mostly equal the one before; some get one
    diagonal entry of 0, 2 or 3 partway through, which forces a row swap
    or a pivot that differs from the one before it, and some get extra
    columns that combine two earlier ones, so the kernel is not zero."""
    k = draw(st.integers(0, max_size))
    entries = st.sampled_from((0, 0, 0, 1, -1))
    rows = [[1 if i == j else draw(entries) for j in range(k)] for i in range(k)]
    if k > 1 and draw(st.booleans()):
        p = draw(st.integers(1, k - 1))
        rows[p][p] = draw(st.sampled_from((0, 2, 3)))
    for _ in range(draw(st.integers(0, 2)) if k else 0):
        a, b = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        f = draw(st.sampled_from((1, -1)))
        for row in rows:
            row.append(row[a] + f * row[b])
    return rows, len(rows[0]) if rows else 0


def _check_elimination(rows, ncols):
    reduced, pivots, last, _ = eliminate(rows, ncols)
    oracle_reduced, oracle_pivots = rref(Mat.from_int_rows(rows, ncols))
    assert tuple(pivots) == oracle_pivots
    assert rank(rows) == len(pivots) == fraction_rank(Mat.from_int_rows(rows, ncols))
    assert len(pivots) == to_sympy(rows, ncols).rank()
    # every pivot row is the last pivot times the reduced Fraction row
    # (so each pivot row holds last at its own pivot column and zero at
    # the others); every row below the pivot rows is zero
    for i, row in enumerate(reduced):
        if i < len(pivots):
            assert [Fraction(v, last) for v in row] == list(oracle_reduced.rows[i])
        else:
            assert not any(row)


@given(int_matrices())
@settings(max_examples=300, deadline=None)
def test_elimination_matches_fraction_oracle_and_sympy(case):
    _check_elimination(*case)


def _check_kernel(rows, ncols):
    basis = kernel(rows, ncols)
    oracle = kernel_basis(Mat.from_int_rows(rows, ncols))
    nullspace = to_sympy(rows, ncols).nullspace()
    assert len(basis) == len(oracle) == len(nullspace)
    pivots = set(rref(Mat.from_int_rows(rows, ncols))[1])
    free = [c for c in range(ncols) if c not in pivots]
    for f, vec, ref in zip(free, basis, oracle):
        assert all(type(v) is int for v in vec)
        assert gcd(*vec) == 1
        assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in rows)
        # one vector per free column: a positive multiple of the Fraction one
        assert ref[f] == 1 and vec[f] > 0
        assert [vec[f] * v for v in ref] == list(vec)
    if basis:
        # the same space as sympy's null space: stacking adds no rank
        both = sympy.Matrix([list(v) for v in basis] + [list(v) for v in nullspace])
        assert both.rank() == len(basis)


@given(int_matrices())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_fraction_oracle_and_sympy(case):
    _check_kernel(*case)


@given(cartan_matrices())
@settings(max_examples=300, deadline=None)
def test_cartan_shapes_match_fraction_oracle_and_sympy(case):
    # the equal-pivot update, which moves only the pivot row's nonzero
    # columns, through eliminate, kernel and adjugate
    rows, ncols = case
    _check_elimination(rows, ncols)
    _check_kernel(rows, ncols)
    _check_adjugate([row[:len(rows)] for row in rows])


def test_a_non_unit_pivot_partway_through():
    # the leading minors are 1, 2, 2, 2, so the pivots are too: the first
    # update is sparse, the second dense, and the last two sparse again
    # with a division by the previous pivot 2
    rows = [[1, -1, -1, 0], [-1, 3, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    reduced, pivots, last, _ = eliminate(rows, 4)
    assert pivots == [0, 1, 2, 3] and last == 2 == sympy.Matrix(rows).det()
    _check_elimination(rows, 4)
    assert _check_adjugate(rows) == 2
    wide = [row + [row[0] - row[2]] for row in rows]
    _check_elimination(wide, 5)
    _check_kernel(wide, 5)


@given(st.one_of(int_matrices(), cartan_matrices()))
@settings(max_examples=200, deadline=None)
def test_eliminate_never_writes_an_input_row(case):
    # list rows keep their entries and the outer list its rows; tuple
    # rows give the same result as list rows
    rows, ncols = case
    snapshot = [list(row) for row in rows]
    outer = list(rows)
    reduced, pivots, last, sign = eliminate(rows, ncols)
    assert rows == snapshot and all(a is b for a, b in zip(rows, outer))
    as_tuples = eliminate([tuple(row) for row in rows], ncols)
    assert [list(row) for row in as_tuples[0]] == [list(row) for row in reduced]
    assert as_tuples[1:] == (pivots, last, sign)


@pytest.mark.parametrize("nrows", range(4))
def test_a_one_column_kernel_is_the_one_elimination_gives(nrows):
    # kernel reads a matrix of one column off the column, with no
    # elimination: (1,) when it is zero, as the free column gives it
    for column in product(range(-2, 3), repeat=nrows):
        rows = [(v,) for v in column]
        reduced, pivots, last, _ = eliminate(rows, 1)
        by_elimination = [] if pivots else [(1,)]
        assert kernel(rows, 1) == by_elimination == [
            tuple(int(v) for v in vec) for vec in kernel_basis(Mat.from_int_rows(rows, 1))
        ]


def test_kernel_of_shapes_without_rows_or_columns():
    assert kernel([], 0) == []
    assert kernel([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert kernel([(), ()], 0) == []
    assert kernel([[0, 0, 0]], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert kernel([[2, 4, 6]], 3) == [(-2, 1, 0), (-3, 0, 1)]
    assert kernel([[0, 2, 3]], 3) == [(1, 0, 0), (0, -3, 2)]
    assert rank([]) == 0
    assert rank([(), ()]) == 0


def test_mat_constructors_and_shape():
    m = Mat.from_int_rows([[1, 2], [3, 4]], 2)
    assert m.nrows == 2 and m.ncols == 2
    z = Mat.zeros(0, 3)
    assert z.nrows == 0 and z.ncols == 3 and z.is_zero()
    i = Mat.identity(3)
    assert i.mul(i) == i


def test_mat_mul_against_sympy():
    rng = random.Random(11)
    for _ in range(25):
        r, k, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a_rows, b_rows = random_int_mat(rng, r, k), random_int_mat(rng, k, c)
        got = Mat.from_int_rows(a_rows, k).mul(Mat.from_int_rows(b_rows, c))
        expected = sympy.Matrix(a_rows) * sympy.Matrix(b_rows)
        assert [[int(v) for v in row] for row in got.rows] == expected.tolist()


def test_rank_against_sympy():
    rng = random.Random(7)
    for _ in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_int_mat(rng, r, c)
        expected = sympy.Matrix(rows).rank()
        assert rank(rows) == expected
        assert fraction_rank(Mat.from_int_rows(rows, c)) == expected


def test_rref_is_reduced():
    rng = random.Random(3)
    for _ in range(20):
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        m = Mat.from_int_rows(random_int_mat(rng, r, c), c)
        reduced, pivots = rref(m)
        for i, p in enumerate(pivots):
            assert reduced.rows[i][p] == Fraction(1)
            for i2 in range(r):
                if i2 != i:
                    assert reduced.rows[i2][p] == Fraction(0)


def test_kernel_basis_against_sympy():
    rng = random.Random(19)
    for _ in range(30):
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        rows = random_int_mat(rng, r, c)
        m = Mat.from_int_rows(rows, c)
        basis = kernel_basis(m)
        assert len(basis) == c - sympy.Matrix(rows).rank()
        for vec in basis:
            assert m.mul(Mat.from_rows([[v] for v in vec], 1)).is_zero()


def test_solve_many_consistent_and_inconsistent():
    a = Mat.from_int_rows([[1, 0], [0, 1], [1, 1]], 2)
    b = Mat.from_int_rows([[1], [2], [3]], 1)
    sol = solve_many(a, b)
    assert sol is not None
    assert a.mul(sol) == b
    bad = Mat.from_int_rows([[1], [2], [4]], 1)
    assert solve_many(a, bad) is None


def test_inverse_against_sympy_and_singular():
    rng = random.Random(23)
    checked = 0
    while checked < 20:
        k = rng.randint(1, 5)
        rows = random_int_mat(rng, k, k)
        s = sympy.Matrix(rows)
        m = Mat.from_int_rows(rows, k)
        if s.det() == 0:
            assert inverse(m) is None
            continue
        inv = inverse(m)
        assert inv is not None
        assert m.mul(inv) == Mat.identity(k)
        assert [[Fraction(v.p, v.q) for v in row] for row in s.inv().tolist()] == [
            list(row) for row in inv.rows
        ]
        checked += 1


def test_hstack_and_column():
    a = Mat.from_int_rows([[1, 2], [3, 4]], 2)
    b = Mat.from_int_rows([[5], [6]], 1)
    stacked = a.hstack(b)
    assert stacked.ncols == 3
    assert stacked.column(2) == (Fraction(5), Fraction(6))


def _check_adjugate(rows, with_sympy=True):
    """adjugate against the Fraction inverse and sympy; returns det."""
    k = len(rows)
    fraction_inv = inverse(Mat.from_int_rows(rows, k))
    got = adjugate(rows)
    if fraction_inv is None:
        assert got is None
        return 0
    adj, det = got
    assert [[Fraction(v, det) for v in row] for row in adj] == [
        list(row) for row in fraction_inv.rows
    ]
    if with_sympy:
        s = to_sympy(rows, k)
        assert det == s.det()
        assert [list(row) for row in adj] == (det * s.inv()).tolist()
    return det


def test_adjugate_against_fraction_inverse_and_sympy():
    rng = random.Random(41)
    seen = {"singular": 0, "negative": 0, "swap": 0, "non-integral": 0}
    for _ in range(200):
        k = rng.randint(1, 6)
        rows = random_int_mat(rng, k, k, lo=-3, hi=3)
        if k > 1 and rng.random() < 0.3:
            rows[0][0] = 0  # forces a row swap unless the column is zero
        if k > 1 and rng.random() < 0.15:
            rows[-1] = [-2 * v for v in rows[0]]  # singular
        det = _check_adjugate(rows)
        assert (det == 0) == (sympy.Matrix(rows).det() == 0)
        seen["singular"] += det == 0
        seen["negative"] += det < 0
        seen["swap"] += det != 0 and rows[0][0] == 0
        seen["non-integral"] += abs(det) > 1
    assert all(count >= 10 for count in seen.values()), seen


@given(int_matrices(square=True))
@settings(max_examples=200, deadline=None)
def test_adjugate_on_generated_squares(case):
    rows, _ = case
    _check_adjugate(rows)


def test_adjugate_fixed_cases():
    assert adjugate([]) == ((), 1)
    assert adjugate([[0]]) is None
    assert adjugate([[0, 1], [1, 0]]) == (((0, -1), (-1, 0)), -1)
    assert adjugate([[2, 1], [4, 2]]) is None
    assert _check_adjugate([[0, 2, 1], [3, 0, 1], [1, 1, 0]]) == 5


@pytest.mark.parametrize("n,d", [(3, 1), (2, 3), (3, 3)])
def test_adjugate_on_every_cartan_square(n, d):
    # the square subsystem of the index system route: rows are the
    # summands x, columns dim Hom(t_j, x); the Fraction inverse is the
    # oracle here, sympy would take half a minute over (3, 3)
    params = ModelParams(n, d)
    calc = calculator_for(params)
    for tilting in enumerate_tilting(params):
        ts = tilting.ids
        rows = [[calc.hom(t, x) for t in ts] for x in ts]
        assert _check_adjugate(rows, with_sympy=False) != 0
