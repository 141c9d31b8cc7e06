"""Periodic block Jacobi operators and their derived matrices.

Houses the coefficient data (p, m, a_n, b_n), transfer matrices, the
monodromy product, the symplectically-normalized monodromy, and the
quasi-periodic block matrix L(tau), in both exact and Hermitian-float form.
"""

from __future__ import annotations

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
    index 0 stores a_1/b_1 and a_0 means a_p (periodic wrap). Structural
    shape errors raise here; the mathematical hypotheses (symmetric b,
    invertible a) are checked by validate().
    """

    __slots__ = ("p", "m", "a", "b")

    def __init__(self, a, b):
        p = len(a)
        if p == 0 or len(b) != p:
            raise ValueError("a and b must be nonempty lists of equal length p")
        m = len(a[0])
        def conv(mat, what, n):
            if len(mat) != m or any(len(row) != m for row in mat):
                raise ValueError(f"{what}_{n+1} is not {m}x{m}")
            return tuple(tuple(Fraction(x) for x in row) for row in mat)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "a", tuple(conv(mat, "a", n) for n, mat in enumerate(a)))
        object.__setattr__(self, "b", tuple(conv(mat, "b", n) for n, mat in enumerate(b)))

    def __setattr__(self, name, value):
        raise AttributeError("PeriodicOperator is immutable")

    def a_at(self, n):
        """a_n with periodic wrap; n = 0 means a_p."""
        return self.a[(n - 1) % self.p]

    def b_at(self, n):
        return self.b[(n - 1) % self.p]

    def a_product_inverse(self):
        """A_p = (a_1 a_2 ... a_p)^(-1) as an exact matrix."""
        prod = mat_identity(self.m)
        for an in self.a:
            prod = mat_mul(prod, [list(r) for r in an])
        return mat_inv(prod)

    def leading_constant(self):
        """c = (-1)^m det A_p."""
        d = det_field(self.a_product_inverse())
        return -d if self.m % 2 else d

    def norm_infty(self):
        """Max entry magnitude over all a_n and b_n."""
        return max(abs(x) for grp in (self.a, self.b) for mat in grp for row in mat for x in row)

    def __eq__(self, other):
        if not isinstance(other, PeriodicOperator):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __repr__(self):
        return f"PeriodicOperator(p={self.p}, m={self.m})"


def validate(op: PeriodicOperator):
    """Check the operator hypotheses; returns a list of violations (empty = ok)."""
    out = []
    for n in range(1, op.p + 1):
        bn = op.b[n - 1]
        for i in range(op.m):
            for j in range(i + 1, op.m):
                if bn[i][j] != bn[j][i]:
                    out.append(f"b not symmetric at n={n}")
                    break
            else:
                continue
            break
    for n in range(1, op.p + 1):
        if det_field([list(r) for r in op.a[n - 1]]) == 0:
            out.append(f"det a_{n} = 0")
    return out


def require_valid(op: PeriodicOperator):
    violations = validate(op)
    if violations:
        raise ValueError("invalid operator: " + "; ".join(violations))


class MatrixPoly:
    """Matrix with RatPoly-in-z entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        conv = []
        for row in rows:
            conv.append(tuple(e if isinstance(e, RatPoly) else RatPoly((e,), "z") for e in row))
        object.__setattr__(self, "rows", tuple(conv))

    def __setattr__(self, name, value):
        raise AttributeError("MatrixPoly is immutable")

    @classmethod
    def from_scalar(cls, mat):
        return cls([[RatPoly((x,), "z") for x in row] for row in mat])

    @property
    def n(self):
        return len(self.rows)

    def __matmul__(self, other):
        return MatrixPoly(mat_mul(self.rows, other.rows))

    def __sub__(self, other):
        return MatrixPoly([[x - y for x, y in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def transpose(self):
        return MatrixPoly(mat_transpose(self.rows))

    def trace(self):
        t = RatPoly.zero()
        for i in range(self.n):
            t = t + self.rows[i][i]
        return t

    def is_zero(self):
        return all(e.is_zero() for row in self.rows for e in row)

    def __eq__(self, other):
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.rows)
        return f"MatrixPoly[{body}]"


def symplectic_form(m):
    """J = (0 I; -I 0) as a constant MatrixPoly."""
    z, o = RatPoly.zero(), RatPoly.one()
    rows = [[z] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        rows[i][m + i] = o
        rows[m + i][i] = -o
    return MatrixPoly(rows)


def transfer_matrix(op: PeriodicOperator, n: int) -> MatrixPoly:
    """T_n = (0 I; -a_n^{-1} a_{n-1}^T  a_n^{-1}(z - b_n)), indices wrapping mod p."""
    require_valid(op)
    m = op.m
    an = [list(r) for r in op.a_at(n)]
    aprev_t = mat_transpose(op.a_at(n - 1))
    inv = mat_inv(an)
    bl = mat_mul(inv, aprev_t)
    inv_b = mat_mul(inv, [list(r) for r in op.b_at(n)])
    rows = []
    z, o = RatPoly.zero(), RatPoly.one()
    for i in range(m):
        rows.append([z] * m + [o if j == i else z for j in range(m)])
    for i in range(m):
        left = [RatPoly((-bl[i][j],)) for j in range(m)]
        right = [RatPoly((-inv_b[i][j], inv[i][j])) for j in range(m)]
        rows.append(left + right)
    return MatrixPoly(rows)


def monodromy(op: PeriodicOperator) -> MatrixPoly:
    """M_p(z) = T_p ... T_1 (left multiplication order)."""
    out = transfer_matrix(op, 1)
    for n in range(2, op.p + 1):
        out = transfer_matrix(op, n) @ out
    return out


def modified_monodromy(op: PeriodicOperator, Mp: MatrixPoly) -> MatrixPoly:
    """Symplectic normalization M = P0 M_p P0^{-1} with P0 = a_0^T (+) I_m.

    Mp is the raw monodromy(op). M satisfies M^T J M = J and det M = 1
    exactly, and shares its characteristic polynomial with Mp.
    """
    m = op.m
    a0t = mat_transpose(op.a_at(0))
    a0t_inv = mat_inv(a0t)
    big = mat_identity(2 * m)
    big_inv = mat_identity(2 * m)
    for i in range(m):
        for j in range(m):
            big[i][j] = a0t[i][j]
            big_inv[i][j] = a0t_inv[i][j]
    P0 = MatrixPoly.from_scalar(big)
    P0_inv = MatrixPoly.from_scalar(big_inv)
    return P0 @ Mp @ P0_inv


def trace_powers(M: MatrixPoly, count: int):
    """T_n = Tr M(z)^n for n = 1..count, as exact polynomials."""
    out = []
    power = M
    for n in range(1, count + 1):
        out.append(power.trace())
        if n < count:
            power = power @ M
    return out


def symplectic_defect(M: MatrixPoly) -> MatrixPoly:
    """M^T J M - J, which vanishes exactly when M is symplectic."""
    J = symplectic_form(M.n // 2)
    return (M.transpose() @ J @ M) - J


def floquet_matrix(op: PeriodicOperator, tau: complex) -> np.ndarray:
    """L(tau) as a Hermitian complex matrix; requires |tau| = 1 within 1e-12.

    Block layout: diagonal b_1..b_p, superdiagonal a_1..a_{p-1}, corner
    (1,p) = tau^{-1} a_p^T; the lower triangle is the conjugate transpose.
    For p = 2 the corner overlaps the superdiagonal; for p = 1 the single
    block is b_1 + tau a_1 + tau^{-1} a_1^T.
    """
    t = complex(tau)
    if abs(abs(t) - 1) > 1e-12:
        raise ValueError(f"|tau| = {abs(t)!r} is off the unit circle")
    require_valid(op)
    p, m = op.p, op.m
    L = np.zeros((p * m, p * m), dtype=complex)
    a = [np.array(mat, dtype=float) for mat in op.a]
    b = [np.array(mat, dtype=float) for mat in op.b]
    tinv = t.conjugate()  # 1/tau on the unit circle
    if p == 1:
        blk = b[0] + t * a[0] + tinv * a[0].T
        L[:, :] = blk
        return L
    for r in range(p):
        L[r * m:(r + 1) * m, r * m:(r + 1) * m] = b[r]
    upper = {}
    for r in range(p - 1):
        upper[(r, r + 1)] = a[r].astype(complex)
    key = (0, p - 1)
    upper[key] = upper.get(key, np.zeros((m, m), dtype=complex)) + tinv * a[p - 1].T
    for (r, s), blk in upper.items():
        L[r * m:(r + 1) * m, s * m:(s + 1) * m] = blk
        L[s * m:(s + 1) * m, r * m:(r + 1) * m] = blk.conj().T
    return L


def floquet_matrix_exact(op: PeriodicOperator, tau):
    """L(tau) over exact scalars for any nonzero rational or Gaussian-rational tau.

    Not Hermitian off the unit circle; used for determinant identities.
    """
    require_valid(op)
    if isinstance(tau, CRational):
        t = tau
        tinv = tau.inverse()
    else:
        t = Fraction(tau)
        if t == 0:
            raise ZeroDivisionError("tau must be nonzero")
        tinv = 1 / t
    p, m = op.p, op.m
    n = p * m
    L = [[Fraction(0)] * n for _ in range(n)]

    def add_block(r, s, mat, factor=None):
        for i in range(m):
            for j in range(m):
                v = mat[i][j] if factor is None else factor * mat[i][j]
                L[r * m + i][s * m + j] = L[r * m + i][s * m + j] + v

    if p == 1:
        add_block(0, 0, op.b[0])
        add_block(0, 0, op.a[0], t)
        add_block(0, 0, mat_transpose(op.a[0]), tinv)
        return L
    for r in range(p):
        add_block(r, r, op.b[r])
    for r in range(p - 1):
        add_block(r, r + 1, op.a[r])
        add_block(r + 1, r, mat_transpose(op.a[r]))
    add_block(0, p - 1, mat_transpose(op.a[p - 1]), tinv)
    add_block(p - 1, 0, op.a[p - 1], t)
    return L


def charpoly(A) -> RatPoly:
    """det(zI - A) for an exact scalar matrix."""
    n = len(A)
    return det_poly([[RatPoly((-A[i][j], 1) if i == j else (-A[i][j],)) for j in range(n)]
                     for i in range(n)])
