"""An independent polynomial reference for the tests: sympy expressions in z.

blochjac keeps an exact polynomial as an ascending tuple of Fractions
without trailing zeros, () for zero. coeffs turns a sympy expression into
that layout and expr turns it back, so a test states the polynomial it
expects in sympy and compares tuples. A polynomial with Gaussian
coefficients reaches blochjac only as integer triples, which triples builds.
"""

import math
from fractions import Fraction

import sympy

Z = sympy.Symbol("z")


def _fraction(q):
    return Fraction(int(q.p), int(q.q))


def coeffs(e, var=Z) -> tuple:
    """The polynomial e in var, whose coefficients are rational, as an ascending tuple of Fractions."""
    out = [_fraction(sympy.Rational(c)) for c in reversed(sympy.Poly(e, var).all_coeffs())]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def triples(e, var=Z) -> list:
    """The polynomial e in var as integer triples (a, b, s), s > 0, one per coefficient (a + b i) / s, ascending."""
    out = []
    for c in reversed(sympy.Poly(e, var).all_coeffs()):
        re, im = (_fraction(sympy.Rational(v)) for v in sympy.sympify(c).as_real_imag())
        s = math.lcm(re.denominator, im.denominator)
        out.append((int(re * s), int(im * s), s))
    return out


def expr(f, var=Z):
    """An ascending sequence of int, Fraction or complex coefficients, taken exactly, as a sympy expression in var."""
    def exact(c):
        if isinstance(c, complex):
            return sympy.Rational(c.real) + sympy.I * sympy.Rational(c.imag)
        return sympy.Rational(c)

    return sympy.expand(sum((exact(c) * var**k for k, c in enumerate(f)), sympy.Integer(0)))
