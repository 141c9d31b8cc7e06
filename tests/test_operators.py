import math
from fractions import Fraction

import numpy as np
import pytest

from blochjac.exactmath import I as IMAG
from blochjac.exactmath import RatPoly, det_poly, mat_transpose
from blochjac.fixtures import (
    example1_diag,
    free_operator,
    random_operator,
    scalar_operator,
)
from blochjac.numerics import hermitian_eigs
from blochjac.operators import (
    MatrixPoly,
    PeriodicOperator,
    charpoly,
    floquet_matrix,
    floquet_matrix_exact,
    modified_monodromy,
    monodromy,
    symplectic_defect,
    trace_powers,
    transfer_matrix,
    validate,
)

Z = RatPoly([0, 1])


def test_validate_free_ok():
    assert validate(free_operator(2, 2)) == []


def test_validate_reports_asymmetric_b():
    op = PeriodicOperator([[[1, 0], [0, 1]]], [[[0, 1], [2, 0]]])
    assert validate(op) == ["b not symmetric at n=1"]


def test_validate_reports_singular_a():
    op = PeriodicOperator([[[1, 0], [0, 0]]], [[[0, 0], [0, 0]]])
    assert validate(op) == ["det a_1 = 0"]


def test_transfer_matrix_p1_m1_free():
    T = transfer_matrix(free_operator(1, 1), 1)
    assert T == MatrixPoly([[0, 1], [-1, Z]])


def test_transfer_matrix_p1_m1_scaled():
    op = scalar_operator([2], [1])
    T = transfer_matrix(op, 1)
    # a^{-1} a^T = 1 even with a = 2; a^{-1}(z - b) = (z-1)/2
    assert T == MatrixPoly([[0, 1], [-1, RatPoly([Fraction(-1, 2), Fraction(1, 2)])]])


def test_transfer_matrix_m2_diagonal():
    op = PeriodicOperator([[[1, 0], [0, 1]]], [[[2, 0], [0, 3]]])
    T = transfer_matrix(op, 1)
    assert T.rows[2][2] == RatPoly([-2, 1])
    assert T.rows[3][3] == RatPoly([-3, 1])
    assert T.rows[2][3].is_zero() and T.rows[3][2].is_zero()
    assert T.rows[2][0] == RatPoly([-1])


def test_monodromy_free_p1():
    assert monodromy(free_operator(1, 1)) == MatrixPoly([[0, 1], [-1, Z]])


def test_monodromy_free_p2():
    M = monodromy(free_operator(2, 1))
    assert M == MatrixPoly([[-1, Z], [-Z, RatPoly([-1, 0, 1])]])
    # leading z^2 block: bottom-right entry 1 = A_2
    assert [[M.rows[i][j].coeff(2) for j in range(2)] for i in range(2)] == [[0, 0], [0, 1]]


@pytest.mark.parametrize("seed,p,m", [(1, 2, 2), (2, 3, 2), (3, 2, 3), (4, 1, 2)])
def test_monodromy_degree_and_leading_block(seed, p, m):
    op = random_operator(seed, p, m)
    M = monodromy(op)
    Ap = op.a_product_inverse()
    for i in range(2 * m):
        for j in range(2 * m):
            assert M.rows[i][j].degree <= p
            want = Ap[i - m][j - m] if (i >= m and j >= m) else 0
            assert M.rows[i][j].coeff(p) == want


def test_modified_monodromy_symplectic_exact():
    op = scalar_operator([2], [0])
    assert symplectic_defect(modified_monodromy(op, monodromy(op))).is_zero()


@pytest.mark.parametrize("seed,p,m", [(5, 2, 2), (6, 3, 3), (7, 1, 3)])
def test_modified_monodromy_symplectic_and_det(seed, p, m):
    op = random_operator(seed, p, m)
    M = modified_monodromy(op, monodromy(op))
    assert symplectic_defect(M).is_zero()
    assert det_poly(M.rows) == RatPoly([1])


def test_trace_powers_match_direct():
    op = random_operator(8, 2, 2)
    M = monodromy(op)
    t1, t2 = trace_powers(M, 2)
    assert t1 == M.trace()
    assert t2 == (M @ M).trace()


def test_floquet_free_p2_m1():
    L = floquet_matrix(free_operator(2, 1), 1)
    assert np.allclose(L, [[0, 2], [2, 0]])


def test_floquet_free_p3_m1():
    L = floquet_matrix(free_operator(3, 1), 1)
    assert np.allclose(L, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def test_floquet_p1():
    op = scalar_operator([1], [0])
    x = 0.9
    L = floquet_matrix(op, complex(math.cos(x), math.sin(x)))
    assert np.allclose(L, [[2 * math.cos(x)]])


def test_floquet_rejects_off_circle():
    with pytest.raises(ValueError):
        floquet_matrix(free_operator(2, 1), 1.5)


def test_floquet_diagonal_decouples():
    op = example1_diag((1, 0, -1, 2))
    x = 1.3
    tau = complex(math.cos(x), math.sin(x))
    eigs = hermitian_eigs(floquet_matrix(op, tau))
    s1 = hermitian_eigs(floquet_matrix(scalar_operator([1, 1], [1, -1]), tau))
    s2 = hermitian_eigs(floquet_matrix(scalar_operator([1, 1], [0, 2]), tau))
    assert np.allclose(eigs, sorted(s1 + s2), atol=1e-9)


def test_floquet_exact_matches_float():
    op = random_operator(9, 3, 2)
    Lx = floquet_matrix_exact(op, 1)
    Lf = floquet_matrix(op, 1)
    assert np.allclose(np.array([[complex(v) for v in row] for row in Lx]), Lf)


def test_floquet_exact_gaussian_tau():
    op = random_operator(10, 2, 2)
    Lx = floquet_matrix_exact(op, IMAG)
    Lf = floquet_matrix(op, 1j)
    assert np.allclose(np.array([[complex(v) for v in row] for row in Lx]), Lf)


def test_charpoly_2x2():
    A = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(3)]]
    assert charpoly(A) == RatPoly([6, -5, 1])


def test_charpoly_matches_eigs():
    op = random_operator(12, 2, 2)
    L = floquet_matrix_exact(op, -1)
    cp = charpoly(L)
    eigs = hermitian_eigs(floquet_matrix(op, -1))
    vals = sorted(np.roots(list(reversed(cp.complex_coeffs()))).real)
    assert np.allclose(vals, eigs, atol=1e-8)
