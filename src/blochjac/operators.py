"""Periodic block Jacobi operators and their derived matrices.

Houses the coefficient data (p, m, a_n, b_n), the z-free parts of the
transfer matrices, the exact integer monodromy product at a point, and the
quasi-periodic block matrix L(tau): one block layout over any scalars, and
the eigenvalues of its float form. Matrices are nested lists of scalars.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .exactmath import det_inv, mat_mul, mat_transpose


class PeriodicOperator:
    """Coefficients of (J y)_n = a_n y_{n+1} + b_n y_n + a_{n-1}^T y_{n-1}.

    a and b are p-long lists of m x m matrices with exact rational entries;
    index 0 stores a_1/b_1 and a_0 means a_p (periodic wrap). Construction
    checks the shapes and the hypotheses (every b_n symmetric, every a_n
    invertible) and raises ValueError when one fails, so every operator
    that exists satisfies them. The one elimination of each a_n that checks
    it also keeps its inverse, in a_inv with the layout of a. The float form
    of L(tau) that floquet_eigs solves and the transfer parts are built on
    first use and kept.
    """

    __slots__ = ("p", "m", "a", "b", "a_inv", "_prod_det_a", "_float", "_parts")

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
        dets, invs = zip(*map(det_inv, a))
        violations += [f"det a_{n} = 0" for n, d in enumerate(dets, 1) if d == 0]
        if violations:
            raise ValueError("invalid operator: " + "; ".join(violations))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a_inv", tuple(tuple(map(tuple, inv)) for inv in invs))
        object.__setattr__(self, "_prod_det_a", math.prod(dets))
        object.__setattr__(self, "_float", None)
        object.__setattr__(self, "_parts", None)

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

    def __repr__(self):
        return f"PeriodicOperator(p={self.p}, m={self.m})"


class TransferParts(NamedTuple):
    """The z-free parts of the transfer matrices, each step over its own denominator.

    d_n T_n(z) = (0, d_n I; K_n, z S_n - R_n) with the integer m x m
    matrices K_n = -d_n a_n^-1 a_(n-1)^T, S_n = d_n a_n^-1 and
    R_n = d_n a_n^-1 b_n, where d_n is the least common denominator of
    step n's unscaled entries; steps[n - 1] = (d_n, K_n, S_n, R_n) and
    scale = d_1 ... d_p, so scale * M_p(z) has integer polynomial entries.
    """

    scale: int
    steps: tuple

    @property
    def m(self):
        return len(self.steps[0][1])


def transfer_parts(op: PeriodicOperator) -> TransferParts:
    """The exact per-operator setup of every monodromy evaluation, built on first use and kept on op."""
    if op._parts is None:
        steps = []
        for n in range(1, op.p + 1):
            inv = op.a_inv[n - 1]
            minus_prev_t = [[-x for x in col] for col in zip(*op.a_at(n - 1))]
            raw = (mat_mul(inv, minus_prev_t), inv, mat_mul(inv, op.b_at(n)))
            d = math.lcm(*(x.denominator for mat in raw for row in mat for x in row))
            steps.append((d,) + tuple(tuple(tuple(int(x * d) for x in row) for row in mat) for mat in raw))
        object.__setattr__(op, "_parts", TransferParts(math.prod(step[0] for step in steps), tuple(steps)))
    return op._parts


def monodromy_at(parts: TransferParts, x) -> list:
    """scale * M_p(x) = (d_p T_p(x)) ... (d_1 T_1(x)), exactly, at an int or Fraction x.

    With M = (U; V) in m-row halves, d_n T_n M = (d_n V; W (U; V)) for
    W = (K_n | x S_n - R_n).
    """
    m = parts.m
    upper = [[int(i == j) for j in range(2 * m)] for i in range(m)]
    lower = [[int(i + m == j) for j in range(2 * m)] for i in range(m)]
    for d, K, S, R in parts.steps:
        W = [list(Ki) + [x * s - r for s, r in zip(Si, Ri)] for Ki, Si, Ri in zip(K, S, R)]
        upper, lower = [[d * v for v in row] for row in lower], mat_mul(W, upper + lower)
    return upper + lower


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


def floquet_eigs(op: PeriodicOperator, tau: complex) -> list:
    """The ascending eigenvalues of L(tau), in float; requires |tau| = 1 within 1e-12.

    L = base + tau W + conj(tau) W^T, in the order of the block layout, on
    float arrays built once per operator. eigvalsh reads the lower triangle
    and the real part of the diagonal alone, so the rounding that sets
    L[i][j] and conj(L[j][i]) apart where blocks overlap (p <= 2) is never
    seen. Accurate to EIG_ACCURACY ||L(tau)||, eps ||L(tau)|| in practice
    (eigvalsh is backward stable); an entry beyond the float range raises
    ValueError naming L(tau).
    """
    import numpy as np

    t = complex(tau)
    if abs(abs(t) - 1) > 1e-12:
        raise ValueError(f"|tau| = {abs(t)!r} is off the unit circle")
    if op._float is None:
        try:
            a, b = ([[[float(x) for x in row] for row in mat] for mat in grp] for grp in (op.a, op.b))
        except OverflowError:
            raise ValueError("L(tau) has an entry beyond the float range") from None
        zero = [[0.0] * op.m] * op.m
        # factors 0.0 leave every sum in base unchanged; W is the corner a_p alone
        base = _floquet_layout(a, b, 0.0, 0.0)
        W = _floquet_layout([zero] * (op.p - 1) + a[-1:], [zero] * op.p, 1.0, 0.0)
        object.__setattr__(op, "_float", (np.array(base), np.array(W)))
    base, W = op._float
    with np.errstate(over="ignore", invalid="ignore"):
        L = base + t * W + t.conjugate() * W.T
    if not np.isfinite(L).all():
        raise ValueError("L(tau) has an entry beyond the float range")
    return np.linalg.eigvalsh(L).tolist()
