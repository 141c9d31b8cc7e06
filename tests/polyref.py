"""An independent polynomial reference for the tests: sympy expressions in z.

blochjac keeps an exact polynomial as an ascending tuple of Fractions (or of
CRationals over Q(i)) without trailing zeros, () for zero. coeffs turns a
sympy expression into that layout and expr turns it back, so a test states
the polynomial it expects in sympy and compares tuples.
"""

from fractions import Fraction

import sympy

from blochjac.exactmath import CRational

Z = sympy.Symbol("z")


def _fraction(q):
    return Fraction(int(q.p), int(q.q))


def coeffs(e, var=Z) -> tuple:
    """The polynomial e in var as an ascending tuple, CRational where a coefficient is not real."""
    out = []
    for c in reversed(sympy.Poly(e, var).all_coeffs()):
        re, im = (_fraction(sympy.Rational(v)) for v in sympy.sympify(c).as_real_imag())
        out.append(CRational(re, im) if im else re)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def expr(f, var=Z):
    """An ascending coefficient sequence of ints, Fractions or CRationals as a sympy expression in var."""
    def number(c):
        if isinstance(c, CRational):
            return sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)
        return sympy.Rational(c)
    return sympy.expand(sum((number(c) * var**k for k, c in enumerate(f)), sympy.Integer(0)))
