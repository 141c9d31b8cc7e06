"""Exact arithmetic underneath the spectral pipeline.

Everything in this module is exact: univariate polynomials over Q as
ascending coefficient tuples with a few kernels on them, and a small GF(P)
layer over one list of 61-bit primes with Chinese remaindering. Each job has
one algorithm: one Euclidean remainder loop, euclid, gives gcds, resultants
and discriminants over Q and GF(P) and Sturm sequences over Q; one
Hessenberg characteristic polynomial over GF(P) and one Newton interpolation
let a polynomial-valued quantity be computed at sample points modulo primes,
lifted modulo their product and interpolated once; and one Gauss-Jordan
elimination, det_inv, gives a determinant with its inverse. Gaussian values
reach this module only as integer triples, which the squarefree certificate
reduces modulo primes. Floating point is confined to the numerics module;
coefficients here are ints or Fractions, never floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, islice
from operator import mul

# Polynomials are ascending coefficient tuples, index = degree, with no
# trailing zeros; () is the zero polynomial. Coefficients are Fractions.


def lincomb(*terms) -> tuple:
    """sum of c f over pairs (c, f) of a scalar and a coefficient sequence, as a polynomial.

    The sum starts from Fraction(0), so int coefficients come out as
    Fractions; lincomb((1, f)) normalizes a list f.
    """
    out = [Fraction(0)] * max((len(f) for _, f in terms), default=0)
    for c, f in terms:
        for k, v in enumerate(f):
            out[k] += c * v
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def derivative(f) -> tuple:
    return tuple(k * c for k, c in enumerate(f) if k)


def monic(f) -> tuple:
    """f / lc(f)."""
    if not f:
        raise ValueError("zero polynomial cannot be made monic")
    return tuple(f) if f[-1] == 1 else tuple(c / f[-1] for c in f)


def exact_div(f, g) -> tuple:
    """f / g when g divides f, by long division; ValueError when it does not."""
    rem, quot = list(f), []
    inv = Fraction(1) / g[-1]
    while len(rem) >= len(g):
        quot.append(rem.pop() * inv)
        off = len(rem) - len(g) + 1
        rem[off:] = [x - quot[-1] * y for x, y in zip(rem[off:], g)]
    if any(rem):
        raise ValueError("division is not exact")
    return tuple(reversed(quot))


def horner(f, x):
    """f(x) by acc * x + c from the top: exact at an exact x, complex at a complex x and Fraction f."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _is_prime(n):
    """Miller-Rabin on the first twelve prime bases, deterministic below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for b in bases:
        x = pow(b, d, n)
        if x != 1 and all(pow(x, 1 << k, n) != n - 1 for k in range(s)):
            return False
    return True


def _sqrt_minus_one(P):
    c = 2
    while pow(c, (P - 1) // 2, P) != P - 1:  # Euler's criterion: stop at a non-residue
        c += 1
    return pow(c, (P - 1) // 4, P)


# Primes P = 1 (mod 4) below 2^61, descending, each with a square root of -1
# modulo P, so that reduction modulo P maps Gaussian integers to GF(P) as
# well as integers. _primes extends the list as far as a caller reads it.
_PRIMES = []


def _primes():
    """Yield (P, sqrt(-1) mod P) from _PRIMES in order, without end."""
    for k in count():
        if k == len(_PRIMES):
            n = _PRIMES[-1][0] - 4 if _PRIMES else 2**61 - 3
            while not _is_prime(n):
                n -= 4
            _PRIMES.append((n, _sqrt_minus_one(n)))
        yield _PRIMES[k]


_CERTIFICATE = tuple(islice(_primes(), 3))


def _crt(residues, primes):
    """Integers in (-N/2, N/2], N = prod primes, congruent to residues[k][i] modulo primes[k]."""
    N = math.prod(primes)
    basis = [N // P * pow(N // P, -1, P) for P in primes]
    out = [sum(map(mul, column, basis)) % N for column in zip(*residues)]
    return [x - N if 2 * x > N else x for x in out]


def _gaussian_parts(c):
    """Integers (a, b, s), s > 0, with c = (a + b i) / s, for an int, Fraction, float or complex c."""
    (a, r), (b, t) = (x.as_integer_ratio() for x in (c.real, c.imag))
    s = math.lcm(r, t)
    return a * (s // r), b * (s // t), s


def _squarefree_certificate(parts):
    """A prime P that proves f squarefree over Q(i), or None when no listed prime does.

    f is given by its coefficients as _gaussian_parts triples. With the
    denominators cleared once, f has Gaussian-integer coefficients, and i
    maps to a square root of -1 modulo P. When P does not divide
    n * lc(f), f mod P keeps its degree and f' mod P its degree n - 1, so
    Res(f mod P, f' mod P) is Res(f, f') mod P. Where euclid finds it
    nonzero, Res(f, f') and with it disc(f) are nonzero (Brown, J. ACM 18,
    1971).
    """
    n = len(parts) - 1
    s = math.lcm(*(d for _, _, d in parts))
    ints = [(a * (s // d), b * (s // d)) for a, b, d in parts]
    for P, i in _CERTIFICATE:
        fp = [(a + b * i) % P for a, b in ints]
        if n * fp[-1] % P == 0:
            continue
        dfp = [k * c % P for k, c in enumerate(fp)][1:]
        if euclid(fp, dfp, P)[1]:
            return P
    return None


def _exact_form(parts) -> tuple:
    """The polynomial over Q of _gaussian_parts triples; ValueError where one is not real."""
    if any(b for _, b, _ in parts):
        raise ValueError("no prime proves a Gaussian polynomial squarefree and Yun's algorithm runs over Q only")
    return tuple(Fraction(a, s) for a, _, s in parts)


def squarefree_decomposition(parts) -> list:
    """Monic, pairwise coprime g_k with f = prod g_k^k for a monic f, all as lists of _gaussian_parts triples.

    Returns [(g_k, k)] for the factors of degree >= 1, ascending in k.  Root
    multiplicities come out exactly, so callers never have to guess them from
    clustered float approximations.  A squarefree f, the usual case, is
    proved so modulo a prime (see _squarefree_certificate) and returned as
    [(parts, 1)], with no exact polynomial formed; else _yun splits
    _exact_form(parts), so a Gaussian f that no prime proves squarefree
    raises ValueError.
    """
    if not parts:
        raise ValueError("squarefree decomposition of zero polynomial")
    if len(parts) < 2:
        return []
    if len(parts) == 2 or _squarefree_certificate(parts) is not None:
        return [(parts, 1)]
    return [([_gaussian_parts(c) for c in g], k) for g, k in _yun(_exact_form(parts))]


def _yun(f) -> list:
    """squarefree_decomposition of a monic f of degree >= 2, by Yun's algorithm with Euclid over Q."""
    df = derivative(f)
    a = gcd(f, df)
    b = exact_div(f, a)
    d = lincomb((1, exact_div(df, a)), (-1, derivative(b)))
    out = []
    k = 1
    while len(b) > 1:
        g = gcd(b, d)
        if len(g) > 1:
            out.append((g, k))
        b = exact_div(b, g)
        d = lincomb((1, exact_div(d, g)), (-1, derivative(b)))
        k += 1
    return out


_cheb_cache = [(Fraction(1),), (Fraction(0), Fraction(1))]


def chebyshev(n: int) -> tuple:
    """Chebyshev polynomial T_n, T_n((t+1/t)/2) = (t^n+t^-n)/2, by T_(k+1) = 2 nu T_k - T_(k-1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_cheb_cache) <= n:
        _cheb_cache.append(lincomb((2, (0,) + _cheb_cache[-1]), (-1, _cheb_cache[-2])))
    return _cheb_cache[n]


def _reducer(P):
    """Identity on a list of ring elements, or reduction modulo P when P is given."""
    return (lambda vals: vals) if P is None else (lambda vals: [v % P for v in vals])


def charpoly(A, P):
    """Ascending coefficients of det(t I - A) over GF(P), for a square list A of ints.

    Pivoted elimination brings A to upper Hessenberg form H by similarity;
    the charpoly p_k of the leading k x k block of H then follows from
    p_(k+1) = t p_k - sum_(i<=k) h_ik h_(i+1,i) ... h_(k,k-1) p_i
    (Cohen, GTM 138, Algorithm 2.2.9).
    """
    n = len(A)
    H = [[v % P for v in row] for row in A]
    for k in range(1, n - 1):
        piv = next((i for i in range(k, n) if H[i][k - 1]), None)
        if piv is None:
            continue
        H[k], H[piv] = H[piv], H[k]
        for row in H:
            row[k], row[piv] = row[piv], row[k]
        inv = pow(H[k][k - 1], -1, P)
        # row i -= u_i row k for every i > k, then column k += sum_i u_i column i
        us = [H[i][k - 1] * inv % P for i in range(k + 1, n)]
        for i, u in enumerate(us, k + 1):
            if u:
                H[i] = [(a - u * b) % P for a, b in zip(H[i], H[k])]
        for row in H:
            row[k] = (row[k] + sum(map(mul, us, row[k + 1:]))) % P
    polys = [[1]]
    for k in range(n):
        new, prod = [0] + polys[k], 1
        for i in range(k, -1, -1):
            c = H[i][k] * prod
            for idx, v in enumerate(polys[i]):
                new[idx] -= c * v
            prod = prod * H[i][i - 1] % P  # unused after i = 0
        polys.append([v % P for v in new])
    return polys[n]


def interpolate(xs, ys, P=None):
    """Ascending coefficients of the polynomial of degree < len(xs) with the value ys[k] at xs[k].

    Newton divided differences, then Horner on the Newton form. Exact over
    Q on int or Fraction values at distinct rational points; modulo P on
    ints when P, a prime or a product of primes, is given, at integer points
    whose every difference is invertible modulo P.
    """
    red = _reducer(P)
    n = len(ys)
    dd = red(list(ys))
    inverses = {}  # 1 / (x_k - x_(k-j)), shared by equal differences
    for j in range(1, n):
        for k in range(n - 1, j - 1, -1):
            d = xs[k] - xs[k - j]
            if d not in inverses:
                inverses[d] = Fraction(1) / d if P is None else pow(d, -1, P)
            dd[k] = (dd[k] - dd[k - 1]) * inverses[d]
        dd = red(dd)
    out = dd[-1:]
    for x, c in zip(reversed(xs[:n - 1]), reversed(dd[:-1])):  # out (z - x) + c
        out = red([c - x * out[0]] + [a - x * b for a, b in zip(out, out[1:])] + out[-1:])
    return out


def euclid(a, b, P=None):
    """(rems, r): the nonzero remainders of Euclid's algorithm on a and b, from a and b to the gcd, and Res(a, b).

    a and b are ascending coefficient lists with len(a) >= len(b) and
    nonzero last entries (modulo P when P is given); an empty b, the zero
    polynomial, gives rems = [a], and r = 0 when deg a >= 1. Exact over Q on
    int or Fraction entries; over GF(P) on ints when P is given. Each
    division step a = q b + c carries the resultant along by
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg c) Res(b, c),
    down to Res(a, b_0) = b_0^(deg a) for a constant b (Cohen, GTM 138,
    section 3.3).
    """
    red = _reducer(P)
    a, b = red(list(a)), red(list(b))
    rems = [a]
    r = Fraction(1) if P is None else 1
    while len(b) > 1:
        rems.append(b)
        inv = Fraction(1) / b[-1] if P is None else pow(b[-1], -1, P)
        c = list(a)
        while len(c) >= len(b):
            q, = red([c.pop() * inv])
            off = len(c) - len(b) + 1
            c[off:] = red([x - q * y for x, y in zip(c[off:], b)])
            while c and not c[-1]:
                c.pop()
        if (len(a) - 1) * (len(b) - 1) % 2:
            r = -r
        r, = red([r * b[-1] ** (len(a) - len(c))])
        a, b = b, c
    r, = red([r * (b[0] if b else 0) ** (len(a) - 1)])
    return rems + [b] * bool(b), r


def gcd(f, g) -> tuple:
    """Monic gcd of univariate polynomials, the last nonzero remainder of euclid."""
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    return monic(euclid(*sorted((f, g), key=len, reverse=True))[0][-1])


def root_counts(f, a, b) -> tuple:
    """(#roots < a, #roots in [a, b], #roots > b): the real roots of a squarefree f over Q, a <= b rational.

    Sturm's sequence is euclid's remainders of f and f' signed +, +, -, -,
    +, +, ... (Basu, Pollack and Roy, Algorithms in Real Algebraic Geometry,
    section 2.2); with V(x) its sign changes at x, zeros dropped, f has
    V(-inf) - V(x) roots in (-inf, x], as V at a root is V just right of it.
    """
    chain = [c if k % 4 < 2 else [-v for v in c] for k, c in enumerate(euclid(f, derivative(f))[0])]

    def changes(values):
        signs = [v > 0 for v in values if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    at_b = changes([horner(c, b) for c in chain])
    low = changes([c[-1] * (-1) ** (len(c) - 1) for c in chain])  # V(-inf)
    below_a = low - changes([horner(c, a) for c in chain]) - (horner(f, a) == 0)
    return below_a, low - at_b - below_a, at_b - changes([c[-1] for c in chain])


def discriminant(f):
    """(-1)^(n(n-1)/2) * Res(f, f') / lc(f); product of squared root differences."""
    n = len(f) - 1
    if n < 1:
        raise ValueError("discriminant requires degree >= 1")
    r = euclid(f, derivative(f))[1] / f[-1]
    return -r if (n * (n - 1) // 2) % 2 else r


def mat_mul(A, B, P=None):
    """A B over any ring of Python scalars; over GF(P) on ints when P is given."""
    cols = list(zip(*B))
    if P is None:
        return [[sum(map(mul, row, col)) for col in cols] for row in A]
    return [[sum(map(mul, row, col)) % P for col in cols] for row in A]


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def det_inv(mat):
    """(det mat, mat^-1) by Gauss-Jordan elimination over Q; the inverse is None when det mat = 0."""
    n = len(mat)
    a = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(mat)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0), None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col]
        inv = Fraction(1) / a[col][col]
        pivot_row = a[col] = [x * inv for x in a[col]]
        for r, row in enumerate(a):
            f = row[col]
            if f and r != col:
                a[r] = [x - f * y for x, y in zip(row, pivot_row)]
    return det, [row[n:] for row in a]
