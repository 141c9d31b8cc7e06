"""Exact arithmetic underneath the spectral pipeline.

Everything in this module is exact: Gaussian rationals and univariate
polynomials with a variable tag, and a small GF(P) layer over one list of
61-bit primes with Chinese remaindering. Each job has one algorithm: one
Euclidean remainder loop, euclid, gives gcds, resultants and
discriminants over Q(i) and GF(P); one Hessenberg characteristic
polynomial over GF(P) and one Newton interpolation let a
polynomial-valued quantity be computed at sample points modulo primes and
interpolated; and one Gauss-Jordan elimination, det_inv, gives a
determinant with its inverse. Floating point is confined to the numerics
module; coefficients here are ints, Fractions, or CRationals, never floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, islice
from operator import mul

_HASH_IM = 1000003


def _is_real_scalar(x):
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


class CRational:
    """Gaussian rational re + im*i with exact Fraction parts.

    Supports mixed arithmetic with int and Fraction; equal-to-Fraction
    values hash consistently with the Fraction they equal.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("CRational is immutable")

    @staticmethod
    def _coerce(x):
        if isinstance(x, CRational):
            return x
        if _is_real_scalar(x):
            return CRational(x, 0)
        return None

    def demote(self):
        """Return the plain Fraction when the imaginary part vanishes."""
        return self.re if self.im == 0 else self

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def inverse(self):
        d = self.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero CRational")
        return CRational(self.re / d, -self.im / d)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CRational(self.re * o.re - self.im * o.im,
                         self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return CRational(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash(self.re) + _HASH_IM * hash(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"CRational({self.re!r}, {self.im!r})"



def _norm_coeff(c):
    if isinstance(c, bool):
        raise TypeError("bool is not a polynomial coefficient")
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, Fraction):
        return c
    if isinstance(c, CRational):
        return c.demote()
    raise TypeError(f"exact coefficients only (int, Fraction, CRational), got {type(c).__name__}")


class RatPoly:
    """Univariate polynomial with exact coefficients and a variable tag.

    coeffs are stored ascending (index = monomial degree) with no trailing
    zeros; the zero polynomial has an empty tuple and degree -inf.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs=(), var="z"):
        cs = [_norm_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    @classmethod
    def zero(cls, var="z"):
        return cls((), var)

    @classmethod
    def one(cls, var="z"):
        return cls((1,), var)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def _join_var(self, other):
        if self.var == other.var or other.is_constant():
            return self.var
        if self.is_constant():
            return other.var
        raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def _lift(self, other):
        if isinstance(other, RatPoly):
            return other
        try:
            c = _norm_coeff(other)
        except TypeError:
            return None
        return RatPoly((c,), self.var)

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        var = self._join_var(o)
        n = max(len(self.coeffs), len(o.coeffs))
        return RatPoly([self.coeff(k) + o.coeff(k) for k in range(n)], var)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return RatPoly([-c for c in self.coeffs], self.var)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        var = self._join_var(o)
        if not self.coeffs or not o.coeffs:
            return RatPoly.zero(var)
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return RatPoly(out, var)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = _norm_coeff(scalar)
        if not c:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return RatPoly([a / c for a in self.coeffs], self.var)

    def __divmod__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        var = self._join_var(o)
        rem = list(self.coeffs)
        dq = len(rem) - len(o.coeffs)
        if dq < 0:
            return RatPoly.zero(var), self
        quot = [Fraction(0)] * (dq + 1)
        dlc = o.lc()
        for k in range(dq, -1, -1):
            top = rem[k + len(o.coeffs) - 1]
            if top:
                f = top / dlc
                quot[k] = f
                for j, b in enumerate(o.coeffs):
                    rem[k + j] = rem[k + j] - f * b
        return RatPoly(quot, var), RatPoly(rem, var)

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def derivative(self):
        return RatPoly([k * c for k, c in enumerate(self.coeffs) if k > 0], self.var)

    def monic(self):
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        lc = self.lc()
        return self if lc == 1 else self / lc

    def __call__(self, x):
        if isinstance(x, (float, complex)):
            acc = 0j
            for c in reversed(self.coeffs):
                acc = acc * x + complex(c)
            return acc
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        if isinstance(acc, CRational):
            acc = acc.demote()
        return acc

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.coeffs != o.coeffs:
            return False
        return self.is_constant() or o.is_constant() or self.var == o.var

    def __hash__(self):
        return hash((self.coeffs, self.var if len(self.coeffs) > 1 else None))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"RatPoly({list(self.coeffs)!r}, var={self.var!r})"


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
    """Integers (a, b, s), s > 0, with c = (a + b i) / s, for an exact, float or complex c."""
    pair = (c.re, c.im) if isinstance(c, CRational) else (c.real, c.imag)
    (a, r), (b, t) = (x.as_integer_ratio() for x in pair)
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


def squarefree_decomposition(f: RatPoly) -> list[tuple[RatPoly, int]]:
    """Monic, pairwise coprime g_k with f = lc(f) * prod g_k^k.

    Returns [(g_k, k)] for the factors of degree >= 1, ascending in k.  Root
    multiplicities come out exactly, so callers never have to guess them from
    clustered float approximations.  A squarefree f, the usual case, is
    proved so modulo a prime (see _squarefree_certificate) and returned as
    [(f.monic(), 1)]; when no prime gives the proof, Yun's algorithm with
    Euclid over Q splits f.
    """
    if f.is_zero():
        raise ValueError("squarefree decomposition of zero polynomial")
    f = f.monic()
    if f.degree < 1:
        return []
    if f.degree == 1 or _squarefree_certificate(list(map(_gaussian_parts, f.coeffs))) is not None:
        return [(f, 1)]
    df = f.derivative()
    a = gcd(f, df)
    b = f.exact_div(a)
    d = df.exact_div(a) - b.derivative()
    out: list[tuple[RatPoly, int]] = []
    k = 1
    while b.degree > 0:
        g = gcd(b, d)
        if g.degree > 0:
            out.append((g, k))
        b = b.exact_div(g)
        d = d.exact_div(g) - b.derivative()
        k += 1
    return out


_cheb_cache = [RatPoly((1,), "nu"), RatPoly((0, 1), "nu")]


def chebyshev(n: int) -> RatPoly:
    """Chebyshev polynomial T_n in the variable nu, T_n((t+1/t)/2) = (t^n+t^-n)/2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    two_nu = RatPoly((0, 2), "nu")
    while len(_cheb_cache) <= n:
        _cheb_cache.append(two_nu * _cheb_cache[-1] - _cheb_cache[-2])
    return _cheb_cache[n]


def _reducer(P):
    """Identity on a list of field elements, or reduction modulo P when P is given."""
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
    Q(i) on int, Fraction or CRational values at distinct rational points;
    over GF(P) on ints when P is given, at integer points distinct modulo P.
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
    """(g, r): the last nonzero remainder of Euclid's algorithm on a and b, and Res(a, b).

    a and b are ascending coefficient lists with len(a) >= len(b) and
    nonzero last entries (modulo P when P is given); an empty b, the zero
    polynomial, gives g = a, and r = 0 when deg a >= 1. Exact over Q(i) on int,
    Fraction or CRational entries; over GF(P) on ints when P is given. Each
    division step a = q b + c carries the resultant along by
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg c) Res(b, c),
    down to Res(a, b_0) = b_0^(deg a) for a constant b (Cohen, GTM 138,
    section 3.3). Powers are repeated products, since CRational has none.
    """
    red = _reducer(P)
    a, b = red(list(a)), red(list(b))
    r = Fraction(1) if P is None else 1
    while len(b) > 1:
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
        for _ in range(len(a) - len(c)):
            r = r * b[-1]
        r, = red([r])
        a, b = b, c
    for _ in range(len(a) - 1):
        r = r * (b[0] if b else 0)
    r, = red([r])
    return b or a, r.demote() if isinstance(r, CRational) else r


def gcd(f: RatPoly, g: RatPoly) -> RatPoly:
    """Monic gcd of univariate polynomials, the last nonzero remainder of euclid."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    a, b = sorted((f.coeffs, g.coeffs), key=len, reverse=True)
    return RatPoly(euclid(a, b)[0], f._join_var(g)).monic()


def discriminant(f: RatPoly):
    """(-1)^(n(n-1)/2) * Res(f, f') / lc(f); product of squared root differences."""
    n = f.degree
    if not isinstance(n, int) or n < 1:
        raise ValueError("discriminant requires degree >= 1")
    r = euclid(f.coeffs, f.derivative().coeffs)[1] / f.lc()
    if (n * (n - 1) // 2) % 2:
        r = -r
    return r.demote() if isinstance(r, CRational) else r


def mat_mul(A, B, P=None):
    """A B over any ring of Python scalars; over GF(P) on ints when P is given."""
    cols = list(zip(*B))
    if P is None:
        return [[sum(map(mul, row, col)) for col in cols] for row in A]
    return [[sum(map(mul, row, col)) % P for col in cols] for row in A]


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def det_inv(mat):
    """(det mat, mat^-1) by Gauss-Jordan elimination over a field; the inverse is None when det mat = 0.

    Exact on int, Fraction or CRational entries; a CRational determinant is
    demoted.
    """
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
    return det.demote() if isinstance(det, CRational) else det, [row[n:] for row in a]
