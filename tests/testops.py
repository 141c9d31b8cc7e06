"""Operator constructors that only the tests use, kept out of the package.

blochjac.fixtures keeps what `blochjac example` builds; these are the seeded
random operators and the small families the tests and the acceptance suite
name directly. bench/corpus.py has its own random_operator, so the bench
does not depend on this file.
"""

import random
from fractions import Fraction

from blochjac.operators import PeriodicOperator


def scalar_operator(a_values, b_values) -> PeriodicOperator:
    """m = 1 operator from plain scalar lists."""
    return PeriodicOperator([[[Fraction(x)]] for x in a_values],
                            [[[Fraction(x)]] for x in b_values])


def rotation_operator(p: int) -> PeriodicOperator:
    """m = 2, b = 0, every a_n the rational rotation ((3/5, -4/5), (4/5, 3/5)).

    Satisfies a_n a_n^T = I with det a_n = 1: an equality case of the trace
    lower bound.
    """
    rot = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
    zero = [[Fraction(0)] * 2 for _ in range(2)]
    return PeriodicOperator([rot] * p, [zero] * p)


def _rand_fraction(rng, num=4, dens=(2, 3, 4)):
    return Fraction(rng.randint(-num, num), rng.choice(dens))


def random_operator(seed: int, p: int, m: int) -> PeriodicOperator:
    """Seeded random operator with symmetric b and exactly-invertible a.

    b entries live in [-2, 2]; each a_n is a product of unit triangular
    matrices (so its determinant is 1), except a_1 which gets one row scaled
    by a nonzero rational to exercise nontrivial leading constants.
    """
    rng = random.Random(seed)
    a_list, b_list = [], []
    for n in range(p):
        bmat = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            bmat[i][i] = _rand_fraction(rng)
            for j in range(i + 1, m):
                v = _rand_fraction(rng)
                bmat[i][j] = v
                bmat[j][i] = v
        lo = [[Fraction(i == j) for j in range(m)] for i in range(m)]
        up = [[Fraction(i == j) for j in range(m)] for i in range(m)]
        for i in range(m):
            for j in range(i):
                lo[i][j] = _rand_fraction(rng, 2)
            for j in range(i + 1, m):
                up[i][j] = _rand_fraction(rng, 2)
        amat = [[sum(lo[i][k] * up[k][j] for k in range(m)) for j in range(m)]
                for i in range(m)]
        if n == 0:
            s = rng.choice([Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(-1),
                            Fraction(1, 3), Fraction(1)])
            amat[0] = [s * x for x in amat[0]]
        a_list.append(amat)
        b_list.append(bmat)
    return PeriodicOperator(a_list, b_list)



def realified_charpoly(L) -> tuple:
    """det(z I - R) ascending, for R = [[A, -B], [B, A]] the realification of L = A + B i.

    The entries of L are anything sympy reads as Gaussian rationals. For a
    Hermitian L, R is real symmetric and det(z I - R) = det(z I - L)^2, so
    a Gaussian-rational L is checked exactly over Q, by sympy.
    """
    import sympy

    parts = [[sympy.sympify(v).as_real_imag() for v in row] for row in L]
    A, B = ([[v[k] for v in row] for row in parts] for k in (0, 1))
    R = sympy.Matrix([ra + [-x for x in rb] for ra, rb in zip(A, B)] + [rb + ra for ra, rb in zip(A, B)])
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(R.charpoly().all_coeffs()))
