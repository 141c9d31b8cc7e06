"""The built-in operators that `blochjac example` emits; the tests build them too."""

from fractions import Fraction

from .operators import PeriodicOperator


def free_operator(p: int, m: int) -> PeriodicOperator:
    """a_n = I, b_n = 0: the flat operator whose bands are 2cos((x+2*pi*n)/p)."""
    ident = [[Fraction(i == j) for j in range(m)] for i in range(m)]
    zero = [[Fraction(0)] * m for _ in range(m)]
    return PeriodicOperator([ident] * p, [zero] * p)


def period4_block_operator(alphas, betas) -> PeriodicOperator:
    """The p = 2, m = 2 family: period-4 scalars (alpha_0..alpha_3, beta_0..beta_3)
    packed as b_1 = ((a0, b0), (b0, a1)), b_2 = ((a2, b2), (b2, a3)),
    a_1 = ((1, b1), (0, 1)), a_2 = ((1, b3), (0, 1))."""
    a0, a1, a2, a3 = (Fraction(x) for x in alphas)
    b0, b1, b2, b3 = (Fraction(x) for x in betas)
    return PeriodicOperator([[[1, b1], [0, 1]], [[1, b3], [0, 1]]], [[[a0, b0], [b0, a1]], [[a2, b2], [b2, a3]]])


def example1_diag(alphas=(1, 0, -1, 2)) -> PeriodicOperator:
    """Diagonal member of the period-4 block family (all beta = 0): two decoupled
    scalar period-2 operators with potentials (alpha_0, alpha_2) and (alpha_1, alpha_3)."""
    return period4_block_operator(alphas, (0, 0, 0, 0))


def example2_const(beta) -> PeriodicOperator:
    """alpha = 0 and constant beta: resonance example with exact eigenvalue formulas."""
    return period4_block_operator((0, 0, 0, 0), (beta, beta, beta, beta))


def example3(t) -> PeriodicOperator:
    """alpha = (1, 0, -1, 0), beta = (t, 0, 0, 0)."""
    return period4_block_operator((1, 0, -1, 0), (t, 0, 0, 0))


def example4(t) -> PeriodicOperator:
    """alpha = (0, 1, 0, 1), beta = (t, 0, 0, 0)."""
    return period4_block_operator((0, 1, 0, 1), (t, 0, 0, 0))
