"""Periodic block Jacobi operators and their derived matrices.

Houses the coefficient data (p, m, a_n, b_n), transfer matrices, the
monodromy product, the symplectically-normalized monodromy, and the
quasi-periodic block matrix L(tau), in both exact and Hermitian-float form.
Matrices are nested lists; polynomial matrices hold RatPoly entries in z.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .exactmath import (
    CRational,
    RatPoly,
    det_field,
    det_poly,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_transpose,
)


class PeriodicOperator:
    """Coefficients of (J y)_n = a_n y_{n+1} + b_n y_n + a_{n-1}^T y_{n-1}.

    a and b are p-long lists of m x m matrices with exact rational entries;
    index 0 stores a_1/b_1 and a_0 means a_p (periodic wrap). Construction
    checks the shapes and the hypotheses (every b_n symmetric, every a_n
    invertible) and raises ValueError when one fails, so every operator
    that exists satisfies them.
    """

    __slots__ = ("p", "m", "a", "b", "_prod_det_a")

    def __init__(self, a, b):
        p = len(a)
        if p == 0 or len(b) != p:
            raise ValueError("a and b must be nonempty lists of equal length p")
        m = len(a[0])
        def conv(mat, what, n):
            if len(mat) != m or any(len(row) != m for row in mat):
                raise ValueError(f"{what}_{n+1} is not {m}x{m}")
            return tuple(tuple(Fraction(x) for x in row) for row in mat)
        a = tuple(conv(mat, "a", n) for n, mat in enumerate(a))
        b = tuple(conv(mat, "b", n) for n, mat in enumerate(b))
        violations = [f"b not symmetric at n={n}" for n, bn in enumerate(b, 1)
                      if bn != tuple(zip(*bn))]
        dets = [det_field(an) for an in a]
        violations += [f"det a_{n} = 0" for n, d in enumerate(dets, 1) if d == 0]
        if violations:
            raise ValueError("invalid operator: " + "; ".join(violations))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_prod_det_a", math.prod(dets))

    def __setattr__(self, name, value):
        raise AttributeError("PeriodicOperator is immutable")

    def a_at(self, n):
        """a_n with periodic wrap; n = 0 means a_p."""
        return self.a[(n - 1) % self.p]

    def b_at(self, n):
        return self.b[(n - 1) % self.p]

    def leading_constant(self):
        """c = (-1)^m det A_p = (-1)^m / prod_n det a_n, A_p = (a_1 a_2 ... a_p)^(-1)."""
        return (-1) ** self.m / self._prod_det_a

    def norm_infty(self):
        """Max entry magnitude over all a_n and b_n."""
        return max(abs(x) for grp in (self.a, self.b) for mat in grp for row in mat for x in row)

    def __eq__(self, other):
        if not isinstance(other, PeriodicOperator):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __repr__(self):
        return f"PeriodicOperator(p={self.p}, m={self.m})"


def transfer_matrix(op: PeriodicOperator, n: int) -> list:
    """T_n = (0 I; -a_n^{-1} a_{n-1}^T  a_n^{-1}(z - b_n)), indices wrapping mod p."""
    m = op.m
    inv = mat_inv(op.a_at(n))
    bl = mat_mul(inv, mat_transpose(op.a_at(n - 1)))
    inv_b = mat_mul(inv, op.b_at(n))
    z, o = RatPoly.zero(), RatPoly.one()
    rows = [[z] * m + [o if j == i else z for j in range(m)] for i in range(m)]
    for i in range(m):
        left = [RatPoly((-bl[i][j],)) for j in range(m)]
        right = [RatPoly((-inv_b[i][j], inv[i][j])) for j in range(m)]
        rows.append(left + right)
    return rows


def monodromy(op: PeriodicOperator) -> list:
    """M_p(z) = T_p ... T_1 (left multiplication order)."""
    out = transfer_matrix(op, 1)
    for n in range(2, op.p + 1):
        out = mat_mul(transfer_matrix(op, n), out)
    return out


def modified_monodromy(op: PeriodicOperator, Mp: list) -> list:
    """Symplectic normalization M = P0 M_p P0^{-1} with P0 = a_0^T (+) I_m.

    Mp is the raw monodromy(op). M satisfies M^T J M = J and det M = 1
    exactly, and shares its characteristic polynomial with Mp.
    """
    m = op.m
    a0t = mat_transpose(op.a_at(0))
    a0t_inv = mat_inv(a0t)
    P0 = mat_identity(2 * m)
    P0_inv = mat_identity(2 * m)
    for i in range(m):
        for j in range(m):
            P0[i][j] = a0t[i][j]
            P0_inv[i][j] = a0t_inv[i][j]
    return mat_mul(mat_mul(P0, Mp), P0_inv)


def trace_powers(M: list, count: int):
    """T_n = Tr M(z)^n for n = 1..count, as exact polynomials."""
    out = []
    power = M
    for n in range(1, count + 1):
        out.append(sum((power[i][i] for i in range(len(M))), RatPoly.zero()))
        if n < count:
            power = mat_mul(power, M)
    return out


def is_symplectic(M: list) -> bool:
    """M^T J M == J for J = (0 I; -I 0)."""
    m = len(M) // 2
    JM = M[m:] + [[-e for e in row] for row in M[:m]]
    J = [[(j == i + m) - (i == j + m) for j in range(2 * m)] for i in range(2 * m)]
    return mat_mul(mat_transpose(M), JM) == J


def _floquet_layout(a, b, t, tinv) -> list:
    """L(tau) from the blocks a_n, b_n, with t standing for tau and tinv for 1/tau.

    Block layout: diagonal b_1..b_p, superdiagonal a_1..a_{p-1} with their
    transposes below, corners (p,1) = tau a_p and (1,p) = tau^{-1} a_p^T.
    For p = 2 the corners overlap the off-diagonal blocks; for p = 1 the
    single block is b_1 + tau a_1 + tau^{-1} a_1^T.
    """
    p, m = len(a), len(a[0])
    L = [[0] * (p * m) for _ in range(p * m)]

    def add_block(r, s, mat, factor=1):
        for i in range(m):
            row = L[r * m + i]
            for j in range(m):
                row[s * m + j] += factor * mat[i][j]

    for r in range(p):
        add_block(r, r, b[r])
    for r in range(p - 1):
        add_block(r, r + 1, a[r])
        add_block(r + 1, r, mat_transpose(a[r]))
    add_block(p - 1, 0, a[p - 1], t)
    add_block(0, p - 1, mat_transpose(a[p - 1]), tinv)
    return L


def floquet_matrix(op: PeriodicOperator, tau: complex) -> np.ndarray:
    """L(tau) as a Hermitian complex matrix; requires |tau| = 1 within 1e-12.

    Built on float copies of the entries, with conj(tau) as 1/tau.
    """
    t = complex(tau)
    if abs(abs(t) - 1) > 1e-12:
        raise ValueError(f"|tau| = {abs(t)!r} is off the unit circle")
    a, b = ([[[float(x) for x in row] for row in mat] for mat in grp] for grp in (op.a, op.b))
    return np.array(_floquet_layout(a, b, t, t.conjugate()), dtype=complex)


def floquet_matrix_exact(op: PeriodicOperator, tau):
    """L(tau) over exact scalars for any nonzero rational or Gaussian-rational tau.

    Not Hermitian off the unit circle; used for determinant identities.
    """
    if isinstance(tau, CRational):
        t = tau
        tinv = tau.inverse()
    else:
        t = Fraction(tau)
        if t == 0:
            raise ZeroDivisionError("tau must be nonzero")
        tinv = 1 / t
    return _floquet_layout(op.a, op.b, t, tinv)


def charpoly(A) -> RatPoly:
    """det(zI - A) for an exact scalar matrix."""
    n = len(A)
    return det_poly([[RatPoly((-A[i][j], 1) if i == j else (-A[i][j],)) for j in range(n)]
                     for i in range(n)])
