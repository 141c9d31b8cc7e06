import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from blochjac.exactmath import I as IMAG
from blochjac.exactmath import CRational, RatPoly, det_field, det_poly, mat_inv, mat_mul
from blochjac.fixtures import (
    example1_diag,
    free_operator,
    random_operator,
    scalar_operator,
)
from blochjac.numerics import hermitian_eigs
from blochjac.operators import (
    PeriodicOperator,
    charpoly,
    floquet_matrix,
    floquet_matrix_exact,
    is_symplectic,
    modified_monodromy,
    monodromy,
    trace_powers,
    transfer_matrix,
)

Z = RatPoly([0, 1])


def test_validate_free_ok():
    # a_n need not be symmetric, only invertible
    op = PeriodicOperator([[[1, 2], [0, 1]]], [[[0, 1], [1, 0]]])
    assert op.a == (((1, 2), (0, 1)),)


def test_validate_reports_asymmetric_b():
    with pytest.raises(ValueError, match=r"^invalid operator: b not symmetric at n=1$"):
        PeriodicOperator([[[1, 0], [0, 1]]], [[[0, 1], [2, 0]]])


def test_validate_reports_singular_a():
    with pytest.raises(ValueError, match=r"^invalid operator: det a_1 = 0$"):
        PeriodicOperator([[[1, 0], [0, 0]]], [[[0, 0], [0, 0]]])


def test_validate_reports_every_violation():
    ident, sing = [[1, 0], [0, 1]], [[1, 2], [2, 4]]
    asym, zero = [[0, 3], [0, 0]], [[0, 0], [0, 0]]
    with pytest.raises(ValueError) as ei:
        PeriodicOperator([ident, sing, sing], [zero, asym, asym])
    assert str(ei.value) == (
        "invalid operator: b not symmetric at n=2; b not symmetric at n=3; det a_2 = 0; det a_3 = 0"
    )


def test_transfer_matrix_p1_m1_free():
    T = transfer_matrix(free_operator(1, 1), 1)
    assert T == [[0, 1], [-1, Z]]


def test_transfer_matrix_p1_m1_scaled():
    op = scalar_operator([2], [1])
    T = transfer_matrix(op, 1)
    # a^{-1} a^T = 1 even with a = 2; a^{-1}(z - b) = (z-1)/2
    assert T == [[0, 1], [-1, RatPoly([Fraction(-1, 2), Fraction(1, 2)])]]


def test_transfer_matrix_m2_diagonal():
    op = PeriodicOperator([[[1, 0], [0, 1]]], [[[2, 0], [0, 3]]])
    T = transfer_matrix(op, 1)
    assert T[2][2] == RatPoly([-2, 1])
    assert T[3][3] == RatPoly([-3, 1])
    assert T[2][3].is_zero() and T[3][2].is_zero()
    assert T[2][0] == RatPoly([-1])


def test_monodromy_free_p1():
    assert monodromy(free_operator(1, 1)) == [[0, 1], [-1, Z]]


def test_monodromy_free_p2():
    M = monodromy(free_operator(2, 1))
    assert M == [[-1, Z], [-Z, RatPoly([-1, 0, 1])]]
    # leading z^2 block: bottom-right entry 1 = A_2
    assert [[M[i][j].coeff(2) for j in range(2)] for i in range(2)] == [[0, 0], [0, 1]]


@pytest.mark.parametrize("seed,p,m", [(1, 2, 2), (2, 3, 2), (3, 2, 3), (4, 1, 2)])
def test_monodromy_degree_and_leading_block(seed, p, m):
    op = random_operator(seed, p, m)
    M = monodromy(op)
    Ap = mat_inv(functools.reduce(mat_mul, op.a))
    for i in range(2 * m):
        for j in range(2 * m):
            assert M[i][j].degree <= p
            want = Ap[i - m][j - m] if (i >= m and j >= m) else 0
            assert M[i][j].coeff(p) == want
    assert op.leading_constant() == (-1) ** m * det_field(Ap)


def test_modified_monodromy_symplectic_exact():
    op = scalar_operator([2], [0])
    assert is_symplectic(modified_monodromy(op, monodromy(op)))
    assert not is_symplectic([[2, 0], [0, 1]])


@pytest.mark.parametrize("seed,p,m", [(5, 2, 2), (6, 3, 3), (7, 1, 3)])
def test_modified_monodromy_symplectic_and_det(seed, p, m):
    op = random_operator(seed, p, m)
    M = modified_monodromy(op, monodromy(op))
    assert is_symplectic(M)
    assert det_poly(M) == RatPoly([1])


def test_trace_powers_match_direct():
    op = random_operator(8, 2, 2)
    M = monodromy(op)
    t1, t2 = trace_powers(M, 2)
    M2 = mat_mul(M, M)
    assert t1 == sum((M[i][i] for i in range(4)), RatPoly.zero())
    assert t2 == sum((M2[i][i] for i in range(4)), RatPoly.zero())


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


@pytest.mark.parametrize("seed,p,m", [(9, 1, 2), (9, 2, 2), (9, 3, 2), (11, 4, 1)])
@pytest.mark.parametrize("tau", [Fraction(1), CRational(Fraction(3, 5), Fraction(4, 5))], ids=["1", "3+4i_5"])
def test_floquet_exact_matches_float(seed, p, m, tau):
    # p = 1 puts tau and 1/tau into one block; at p = 2 the corners overlap
    # the off-diagonal blocks
    op = random_operator(seed, p, m)
    Lx = floquet_matrix_exact(op, tau)
    Lf = floquet_matrix(op, complex(tau))
    assert np.allclose(np.array([[complex(v) for v in row] for row in Lx]), Lf, rtol=0, atol=1e-12)


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
