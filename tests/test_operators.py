import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from testops import random_operator, scalar_operator

from blochjac.exactmath import (
    _primes,
    charpoly,
    det_inv,
    interpolate,
    mat_mul,
)
from blochjac.fixtures import (
    example1_diag,
    free_operator,
)
from blochjac.operators import (
    PeriodicOperator,
    _floquet_layout,
    floquet_eigs,
    monodromy_at,
    transfer_parts,
)
from blochjac.spectral import _route_two

Z = (0, 1)  # the polynomial z, as an ascending tuple
P, I_P = next(_primes())  # I_P * I_P = -1 modulo P


def poly(cs):
    """cs as a polynomial: an ascending tuple of Fractions without trailing zeros."""
    cs = [Fraction(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def coeff(f, k):
    """The z^k coefficient of a polynomial f."""
    return f[k] if k < len(f) else 0


def transfer_matrix(op, n):
    """T_n(z) with polynomial entries, read back from the scaled transfer parts."""
    parts = transfer_parts(op)
    m = op.m
    d, K, S, R = parts.steps[n - 1]
    top = [[()] * m + [poly([i == j]) for j in range(m)] for i in range(m)]
    return top + [[poly([Fraction(k, d)]) for k in K[i]]
                  + [poly([Fraction(-r, d), Fraction(s, d)]) for s, r in zip(S[i], R[i])]
                  for i in range(m)]


def monodromy(op):
    """M_p(z) entrywise, interpolated from monodromy_at at p + 2 points, one past its degree bound."""
    parts = transfer_parts(op)
    xs = range(op.p + 2)
    scale = parts.scale
    values = [monodromy_at(parts, x) for x in xs]
    n = 2 * op.m
    return [[poly(interpolate(xs, [Fraction(v[i][j], scale) for v in values])) for j in range(n)]
            for i in range(n)]


def symplectic_j(m):
    """J = (0 I; -I 0) of size 2m."""
    return [[(j == i + m) - (i == j + m) for j in range(2 * m)] for i in range(2 * m)]


def is_symplectic(M, W):
    """M^T W M == W, on exact scalar matrices."""
    return mat_mul([list(col) for col in zip(*M)], mat_mul(W, M)) == W


def modified_monodromy_at(op, x):
    """The normalized M = P0 M_p P0^-1 at a point x, over Q, with P0 = a_p^T (+) I_m."""
    parts = transfer_parts(op)
    Mp = [[Fraction(v, parts.scale) for v in row] for row in monodromy_at(parts, x)]
    m = op.m
    P0 = [list(col) + [Fraction(0)] * m for col in zip(*op.a_at(0))]
    P0 += [[Fraction(0)] * m + [Fraction(i == j) for j in range(m)] for i in range(m)]
    return mat_mul(mat_mul(P0, Mp), det_inv(P0)[1])


def det_charpoly(A):
    """det(zI - A) of an exact scalar matrix, interpolated from det_inv at len(A) + 1 points."""
    n = len(A)
    xs = range(n + 1)
    dets = [det_inv([[Fraction(x * (i == j)) - e for j, e in enumerate(row)] for i, row in enumerate(A)])[0]
            for x in xs]
    return poly(interpolate(xs, dets))


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
    assert T == [[(), (1,)], [(-1,), Z]]


def test_transfer_matrix_p1_m1_scaled():
    op = scalar_operator([2], [1])
    T = transfer_matrix(op, 1)
    # a^{-1} a^T = 1 even with a = 2; a^{-1}(z - b) = (z-1)/2
    assert T == [[(), (1,)], [(-1,), (Fraction(-1, 2), Fraction(1, 2))]]


def test_transfer_matrix_m2_diagonal():
    op = PeriodicOperator([[[1, 0], [0, 1]]], [[[2, 0], [0, 3]]])
    T = transfer_matrix(op, 1)
    assert T[2][2] == (-2, 1)
    assert T[3][3] == (-3, 1)
    assert T[2][3] == T[3][2] == ()
    assert T[2][0] == (-1,)


def test_monodromy_free_p1():
    assert monodromy(free_operator(1, 1)) == [[(), (1,)], [(-1,), Z]]


def test_monodromy_free_p2():
    M = monodromy(free_operator(2, 1))
    assert M == [[(-1,), Z], [(0, -1), (-1, 0, 1)]]
    # leading z^2 block: bottom-right entry 1 = A_2
    assert [[coeff(M[i][j], 2) for j in range(2)] for i in range(2)] == [[0, 0], [0, 1]]


@pytest.mark.parametrize("seed,p,m", [(1, 2, 2), (2, 3, 2), (3, 2, 3), (4, 1, 2)])
def test_monodromy_degree_and_leading_block(seed, p, m):
    op = random_operator(seed, p, m)
    M = monodromy(op)
    Ap = det_inv(functools.reduce(mat_mul, op.a))[1]
    for i in range(2 * m):
        for j in range(2 * m):
            assert len(M[i][j]) <= p + 1
            want = Ap[i - m][j - m] if (i >= m and j >= m) else 0
            assert coeff(M[i][j], p) == want
    assert op.leading_constant() == (-1) ** m * det_inv(Ap)[0]


def test_modified_monodromy_symplectic_exact():
    op = scalar_operator([2], [0])
    J = symplectic_j(1)
    assert all(is_symplectic(modified_monodromy_at(op, Fraction(x, 3)), J) for x in range(-4, 5))
    assert not is_symplectic([[2, 0], [0, 1]], J)


@pytest.mark.parametrize("seed,p,m", [(5, 2, 2), (6, 3, 3), (7, 1, 3)])
def test_modified_monodromy_symplectic_and_det(seed, p, m):
    op = random_operator(seed, p, m)
    for x in (Fraction(-7, 3), 0, 1, Fraction(5, 2)):
        M = modified_monodromy_at(op, x)
        assert is_symplectic(M, symplectic_j(m))
        assert det_inv(M)[0] == 1


def test_trace_powers_match_direct():
    # route two's traces of powers, N^h against N^(s-h), give the Newton
    # coefficients of the directly computed powers, modulo a prime
    for seed, p, m in ((8, 2, 2), (8, 1, 5), (9, 2, 4)):
        parts = transfer_parts(random_operator(seed, p, m))
        for x in (-2, 0, 3):
            N = [[v % P for v in row] for row in monodromy_at(parts, x)]
            power, traces = N, []
            for s in range(1, m + 1):
                traces.append(sum(power[i][i] for i in range(2 * m)) % P)
                power = mat_mul(power, N, P)
            xi = [1]
            for s in range(1, m + 1):
                xi.append(-sum(traces[s - j - 1] * xi[j] for j in range(s)) * pow(s, -1, P) % P)
            assert _route_two(parts, N, P) == xi


def test_scale_is_the_product_of_the_per_step_denominators():
    # the step denominators 4, 6 and 9 have lcm 36, so one common
    # denominator would scale M_p by 36^3 = 46656 in place of 216
    op = scalar_operator([1, 1, 1], [Fraction(1, 4), Fraction(1, 6), Fraction(1, 9)])
    parts = transfer_parts(op)
    assert [step[0] for step in parts.steps] == [4, 6, 9]
    assert parts.scale == 216
    x = Fraction(1, 3)
    want = [[1, 0], [0, 1]]
    for (bn,), in op.b:
        want = mat_mul([[0, 1], [-1, x - bn]], want)  # T_n(x) with a_n = 1
    assert [[Fraction(v, parts.scale) for v in row] for row in monodromy_at(parts, x)] == want


def float_form(op, tau):
    """L(tau) summed from the float form (base, W) that floquet_eigs builds and keeps on op."""
    floquet_eigs(op, tau)
    base, W = op._float
    t = complex(tau)
    return base + t * W + t.conjugate() * W.T


def test_floquet_free_p2_m1():
    op = free_operator(2, 1)
    assert np.allclose(float_form(op, 1), [[0, 2], [2, 0]])
    assert np.allclose(floquet_eigs(op, 1), [-2, 2])


def test_floquet_free_p3_m1():
    op = free_operator(3, 1)
    assert np.allclose(float_form(op, 1), [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert np.allclose(floquet_eigs(op, 1), [-1, -1, 2])


def test_floquet_p1():
    op = scalar_operator([1], [0])
    x = 0.9
    tau = complex(math.cos(x), math.sin(x))
    assert np.allclose(float_form(op, tau), [[2 * math.cos(x)]])
    assert np.allclose(floquet_eigs(op, tau), [2 * math.cos(x)])


def test_floquet_rejects_off_circle():
    with pytest.raises(ValueError):
        floquet_eigs(free_operator(2, 1), 1.5)


def floquet_reference(op, tau):
    """L(tau) rebuilt exactly Hermitian, as once solved: float entries into one
    list layout per call, the strict upper triangle the conjugate of the strict
    lower one, and the diagonal real."""
    t = complex(tau)
    a, b = ([[[float(x) for x in row] for row in mat] for mat in grp] for grp in (op.a, op.b))
    L = np.array(_floquet_layout(a, b, t, t.conjugate()), dtype=complex)
    lower = np.tril(L, -1)
    return lower + lower.conj().T + np.diag(L.diagonal().real)


def assert_reference_eigs(op, tau):
    # eigvalsh reads the lower triangle and the real diagonal alone, so the
    # rounding that sets L[i][j] and conj(L[j][i]) apart where blocks overlap
    # (p <= 2) leaves every eigenvalue as the rebuild's
    assert floquet_eigs(op, tau) == np.linalg.eigvalsh(floquet_reference(op, tau)).tolist()


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("seed,m", [(1, 1), (1, 2), (5, 2), (3, 3)])
def test_floquet_matrix_from_the_float_form_is_bit_for_bit_the_reference(p, seed, m):
    # p = 1 puts tau and 1/tau into one block; at p = 2 the corners overlap
    # the off-diagonal blocks
    op = random_operator(seed, p, m)
    phases = [2 * math.pi * k / 16 for k in range(17)] + [0.9, math.pi / 2, math.pi]
    for tau in [1, -1, 1j, -1j] + [complex(math.cos(x), math.sin(x)) for x in phases]:
        assert_reference_eigs(op, tau)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32), st.floats(0, 2 * math.pi))
def test_floquet_eigs_of_large_entries_are_bit_for_bit_the_reference(p, m, seed, x):
    # entries of size up to about 1e6; where blocks overlap (p = 1) the float sums
    # alone round L[i][j] and conj(L[j][i]) apart
    rng = random.Random(seed)

    def block(symmetric):
        mat = [[Fraction(rng.randint(-10**5, 10**5), rng.randint(1, 9)) for _ in range(m)] for _ in range(m)]
        if symmetric:
            mat = [[mat[min(i, j)][max(i, j)] for j in range(m)] for i in range(m)]
        else:
            for i in range(m):
                mat[i][i] += 10**6  # diagonally dominant, so invertible
        return mat

    op = PeriodicOperator([block(False) for _ in range(p)], [block(True) for _ in range(p)])
    assert_reference_eigs(op, complex(math.cos(x), math.sin(x)))


def test_floquet_diagonal_decouples():
    op = example1_diag((1, 0, -1, 2))
    x = 1.3
    tau = complex(math.cos(x), math.sin(x))
    eigs = floquet_eigs(op, tau)
    s1 = floquet_eigs(scalar_operator([1, 1], [1, -1]), tau)
    s2 = floquet_eigs(scalar_operator([1, 1], [0, 2]), tau)
    assert np.allclose(eigs, sorted(s1 + s2), atol=1e-9)


@pytest.mark.parametrize("seed,p,m", [(9, 1, 2), (9, 2, 2), (9, 3, 2), (11, 4, 1)])
@pytest.mark.parametrize("tau", [Fraction(1), sympy.Rational(3, 5) + sympy.I * sympy.Rational(4, 5)], ids=["1", "3+4i_5"])
def test_floquet_exact_matches_float(seed, p, m, tau):
    # p = 1 puts tau and 1/tau into one block; at p = 2 the corners overlap
    # the off-diagonal blocks
    op = random_operator(seed, p, m)
    Lx = _floquet_layout(op.a, op.b, tau, 1 / tau)
    Lf = float_form(op, complex(tau))
    assert np.allclose(np.array([[complex(v) for v in row] for row in Lx]), Lf, rtol=0, atol=1e-12)


def test_floquet_exact_gaussian_tau():
    op = random_operator(10, 2, 2)
    Lx = _floquet_layout(op.a, op.b, sympy.I, -sympy.I)
    Lf = float_form(op, 1j)
    assert np.allclose(np.array([[complex(v) for v in row] for row in Lx]), Lf)


def test_charpoly_2x2():
    A = [[2, 1], [0, 3]]
    assert det_charpoly(A) == (6, -5, 1)
    assert charpoly(A, P) == [6, P - 5, 1]
    # det(t I - (i 1; -1 i)) = t^2 - 2i t, with i mapped to I_P
    assert charpoly([[I_P, 1], [-1, I_P]], P) == [0, -2 * I_P % P, 1]


def test_charpoly_matches_eigs():
    op = random_operator(12, 2, 2)
    L = _floquet_layout(op.a, op.b, -1, -1)
    cp = det_charpoly(L)
    eigs = floquet_eigs(op, -1)
    vals = sorted(np.roots([complex(c) for c in reversed(cp)]).real)
    assert np.allclose(vals, eigs, atol=1e-8)
    # the Hessenberg charpoly over GF(P) reduces the exact one
    red = [[x.numerator * pow(x.denominator, -1, P) % P for x in map(Fraction, row)] for row in L]
    assert charpoly(red, P) == [c.numerator * pow(c.denominator, -1, P) % P for c in cp]
