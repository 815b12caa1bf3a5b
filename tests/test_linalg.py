import random
from fractions import Fraction

import pytest
import sympy

from higher_cluster.hom import calculator_for
from higher_cluster.linalg import (
    Mat,
    adjugate,
    inverse,
    kernel_basis,
    rank,
    rref,
    solve_many,
)
from higher_cluster.model import ModelParams
from higher_cluster.tilting import enumerate_tilting


def random_int_mat(rng, nrows, ncols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def to_sympy(rows):
    return sympy.Matrix(rows)


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
        expected = to_sympy(a_rows) * to_sympy(b_rows)
        assert [[int(v) for v in row] for row in got.rows] == expected.tolist()


def test_rank_against_sympy():
    rng = random.Random(7)
    for _ in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_int_mat(rng, r, c)
        assert rank(Mat.from_int_rows(rows, c)) == to_sympy(rows).rank()


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
        assert len(basis) == c - to_sympy(rows).rank()
        for vec in basis:
            assert all(v == Fraction(0) for v in m.mul_vec(list(vec)))


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
        s = to_sympy(rows)
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
        s = to_sympy(rows)
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
        assert (det == 0) == (to_sympy(rows).det() == 0)
        seen["singular"] += det == 0
        seen["negative"] += det < 0
        seen["swap"] += det != 0 and rows[0][0] == 0
        seen["non-integral"] += abs(det) > 1
    assert all(count >= 10 for count in seen.values()), seen


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
        ts = tilting.summands
        rows = [[calc.hom_dim(t, x) for t in ts] for x in ts]
        assert _check_adjugate(rows, with_sympy=False) != 0
