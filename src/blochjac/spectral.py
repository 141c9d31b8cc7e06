"""Spectral analysis of periodic block Jacobi operators.

Everything here is driven by the characteristic determinant
D(z, tau) = det(M(z) - tau*I) of the normalized monodromy matrix:
the surface polynomial in the Chebyshev variable nu = (tau + 1/tau)/2,
Lyapunov branches, resonances (branch points), the band structure with
multiplicities, gap classification, and a battery of identity checks.
"""

import cmath
import math
from fractions import Fraction
from functools import reduce
from itertools import accumulate, groupby
from operator import mul
from typing import NamedTuple

from .exactmath import (
    _CERTIFICATE,
    _crt,
    _exact_form,
    _gaussian_parts,
    _primes,
    chebyshev,
    charpoly,
    discriminant,
    euclid,
    horner,
    interpolate,
    lincomb,
    mat_mul,
    mat_transpose,
    monic,
    root_counts,
    squarefree_decomposition,
)
from .numerics import EIG_ACCURACY, _bracket, _refine, _scaled_value, certified_roots, roots_all
from .operators import (
    PeriodicOperator,
    TransferParts,
    _floquet_layout,
    floquet_eigs,
    monodromy_at,
    transfer_parts,
)

REAL_TOL = 1e-9
DEFAULT_GRID = 257


class InternalConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagreed."""


class CharDeterminant(NamedTuple):
    """D(z, tau) = det(M(z) - tau*I) by its coefficients, its normalized form, and Phi.

    xi[j] is the coefficient of tau^(2m-j) in D, a polynomial in z (an
    ascending tuple of Fractions, as every exact polynomial). They are
    palindromic, xi[j] == xi[2m-j], so xi also lists D's coefficients
    ascending in tau. c is the leading constant. q[j] = xi[m-j] / c, so
    that D / (c tau^m) = q[0] + sum_j q[j] (tau^j + tau^-j), monic of
    degree pm in z. p and m are the periods. op is the operator that
    char_determinant computed D from, None where D was rebuilt from data.

    phi is D written in the Chebyshev variable: the surface polynomial
    Phi(z, nu) = D / (2 tau)^m = sum phi_j(z) nu^(m-j) under
    nu = (tau + 1/tau)/2, monic in nu (phi_0 = 1). factors is its squarefree
    factorization Phi = prod F_k^k in nu over Q[z] (_squarefree_factors),
    pairs (F, k) ascending in k, one (F, 1) where Phi is squarefree; F holds
    (d, the integer coefficients of d * f_j) per coefficient f_j of the
    monic F_k, ascending in nu, so that each F_k(z, .) reaches the squarefree
    split and the root finder as integer triples by Horner over ints (phi_at).
    """

    xi: tuple
    c: Fraction
    q: tuple
    p: int
    m: int
    phi: tuple
    factors: tuple
    op: PeriodicOperator | None = None

    def section(self, nu0) -> tuple:
        """q(z, tau0) = q[0] + sum_j 2 T_j(nu0) q[j] for nu0 = (tau0 + 1/tau0)/2, exactly.

        tau0 = 1, -1 and i give nu0 = 1, -1 and 0.
        """
        return lincomb(*((2 * horner(chebyshev(j), nu0) if j else 1, f) for j, f in enumerate(self.q)))

    def phi_at(self, z) -> list:
        """[(F_k(z, .), k)] over factors at a Fraction, float or complex z, each as integer triples (_at)."""
        return [(_at(F, z), k) for F, k in self.factors]


def _integer_form(poly) -> tuple:
    """(d, the integer coefficients of d * f) per coefficient f of poly, a sequence of polynomials in z."""
    out = []
    for f in poly:
        d = math.lcm(*(v.denominator for v in f))
        out.append((d, tuple(v.numerator * (d // v.denominator) for v in f)))
    return tuple(out)


def _at(F, z) -> list:
    """The polynomial of _integer_form F at a Fraction, float or complex z, as integer triples.

    With z = (a + b i) / s, homogeneous Horner over ints gives
    s^deg * d * f(z) = re + im i, and the triple is (re, im, d s^deg),
    the layout of _gaussian_parts, which squarefree_decomposition takes.
    """
    a, b, s = _gaussian_parts(z)
    out = []
    for d, coeffs in F:
        re = im = 0
        pw = 1  # s^k at step k
        for k, c in enumerate(reversed(coeffs)):
            if k:
                pw *= s
            re, im = re * a - im * b + c * pw, re * b + im * a
        out.append((re, im, d * pw))
    return out


class LyapunovBranch(NamedTuple):
    """A branch value, its real flag, and whether multipliers_at puts its pair on the unit circle."""

    value: complex
    real: bool
    on_circle: bool


class _Rho(tuple):
    """rho, an ascending tuple of Fractions that also answers rho.coeffs and rho.degree.

    bench/tracer.py reads those two; this carrier goes away when the bench
    reads rho as a plain tuple (ROADMAP item 1).
    """

    coeffs = property(tuple)
    degree = property(lambda self: len(self) - 1)


class ResonanceSet(NamedTuple):
    """The zeros of rho, flagged real where proved real, their clusters with multiplicity, and rho itself."""

    values: tuple
    real: tuple
    clusters: tuple
    degenerate: bool
    rho: _Rho
    proved: tuple  # (x, k, ints) per zero proved real, as _eigs_at_tau gives a root


class Segment(NamedTuple):
    lo: float
    hi: float
    multiplicity: int


class Edge(NamedTuple):
    value: float
    kind: str
    branches: tuple


class BandStructure(NamedTuple):
    segments: tuple
    edges: tuple
    branch_bands: tuple


class Gap(NamedTuple):
    lo: float
    hi: float
    multiplicity: int
    kind: str
    lo_kinds: tuple
    hi_kinds: tuple


class IdentityCheck(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "n/a"
    residual: float
    detail: str


def _check(name, ok, residual=0.0, detail=""):
    return IdentityCheck(name, "pass" if ok else "fail", residual, detail)


def _na(name, detail):
    return IdentityCheck(name, "n/a", 0.0, detail)


def build_char_determinant(xi: tuple, p: int, m: int) -> CharDeterminant:
    """Validate candidate coefficients xi of D and package them with c, q and Phi.

    xi[j] is the coefficient of tau^(2m-j). Checks the palindrome, the
    degree bounds, and the leading structure of xi_m; any violation is an
    internal error because these are structural facts, not data-dependent
    ones. Phi follows from the palindrome: D / tau^m = xi_m +
    sum_{k>=1} xi_{m-k} (tau^k + tau^-k), and tau^k + tau^-k = 2 T_k(nu).
    """
    if len(xi) != 2 * m + 1:
        raise InternalConsistencyError(f"determinant has tau-degree {len(xi) - 1}, expected {2*m}")
    if xi[0] != (1,):
        raise InternalConsistencyError("xi_0 != 1")
    for j in range(2 * m + 1):
        if xi[j] != xi[2 * m - j]:
            raise InternalConsistencyError(f"xi_{j} != xi_{2*m-j}: palindrome broken")
        if len(xi[j]) - 1 > p * j:
            raise InternalConsistencyError(f"deg xi_{j} = {len(xi[j]) - 1} exceeds {p*j}")
    if len(xi[m]) - 1 != p * m:
        raise InternalConsistencyError(f"deg xi_m = {len(xi[m]) - 1 if xi[m] else -math.inf}, expected {p*m}")
    c = xi[m][-1]
    q = tuple(tuple(v / c for v in xi[m - j]) for j in range(m + 1))
    by_nu = [[] for _ in range(m + 1)]  # the terms (scalar, xi_(m-k)) of the nu^i coefficient of Phi
    for k in range(m + 1):
        for i, t in enumerate(chebyshev(k)):
            by_nu[i].append((Fraction(2 if k else 1, 2**m) * t, xi[m - k]))
    phi = tuple(lincomb(*terms) for terms in reversed(by_nu))
    return CharDeterminant(xi=xi, c=c, q=q, p=p, m=m, phi=phi, factors=_squarefree_factors(phi))


def _samples(phi):
    """(xs, w): n = w m (m - 1) + 1 centred integers xs, where phi_j has z-degree at most w j."""
    m = len(phi) - 1
    w = max((-(-(len(f) - 1) // j) for j, f in enumerate(phi) if j and f), default=0)
    n = w * m * (m - 1) + 1
    return range(-(n // 2), n - n // 2), w


def _squarefree_factors(phi) -> tuple:
    """Phi = prod F_k^k in nu over Q[z], as ((_integer_form of the monic F_k, k), ...) ascending in k.

    Phi is monic in nu, so by Gauss's lemma each monic F_k has coefficients
    in Q[z]; the branches grow like |z|^w, so the coefficient of
    nu^(d_k - j) in F_k has z-degree at most w j. Phi(x, .) is split at the
    _samples points x in turn. The first split [(Phi(x, .), 1)] proves Phi
    squarefree, the usual case, with one certificate. Else Yun runs at each
    point until w d + 1 points show the split pattern of the largest total
    degree d seen so far, the number of distinct roots; each coefficient is
    interpolated from them, and the factors are returned once
    _factorization_holds proves prod F_k^k == Phi. That proves them the
    squarefree factors: the radical of Phi, whose degree no point's d
    exceeds, divides prod F_k, of degree d, so prod F_k is squarefree. The
    generic pattern, where the interpolation is exact, shows at all but the
    zeros of disc(prod F_k), at most w d (d - 1) of the n points; as d < m,
    n - w d (d - 1) >= w d + 1 points remain.
    """
    whole = _integer_form(reversed(phi))
    xs, w = _samples(phi)
    seen = {}  # split pattern, ((deg g, k), ...), -> [(x, split)]
    for x in xs:
        split = _split(_at(whole, x), lambda: f"Phi(z, nu) at z = {x}")
        if [k for _, k in split] == [1]:
            return ((whole, 1),)
        pattern = tuple((len(g) - 1, k) for g, k in split)
        group = seen.setdefault(pattern, [])
        group.append((x, split))
        d = sum(deg for deg, _ in pattern)
        if len(group) == w * d + 1 and d == max(sum(deg for deg, _ in other) for other in seen):
            pts = [x for x, _ in group]
            factors = []
            for i, (_, k) in enumerate(pattern):
                # the coefficients of F_k(x, .) at each point, then one column per power of nu
                values = [[Fraction(a, s) for a, _, s in split[i][0]] for _, split in group]
                factors.append((_integer_form([lincomb((1, interpolate(pts, col))) for col in zip(*values)]), k))
            if _factorization_holds(phi, factors):
                return tuple(factors)
    raise InternalConsistencyError("no split pattern of Phi(x, .) at the sample points interpolates to its factors")


def _times(f, g) -> tuple:
    """f g, for polynomials f and g over Q."""
    return lincomb(*((c, (0,) * i + g) for i, c in enumerate(f)))


def _factorization_holds(phi, factors) -> bool:
    """Whether prod F_k^k == Phi exactly, for factors as _squarefree_factors lists them.

    At an integer x both sides are polynomials in nu over Q. Each of their
    coefficients is a polynomial in z of degree below e, the larger of the
    most coefficients of a phi_j and 1 + sum_k k (the largest z-degree in
    F_k), so equality at the e integers 0..e - 1 proves the identity.
    """
    e = max(max(map(len, phi)), 1 + sum(k * max(len(c) - 1 for _, c in F) for F, k in factors))
    return all(tuple(horner(f, x) for f in reversed(phi))
               == reduce(_times, (_exact_form(_at(F, x)) for F, k in factors for _ in range(k)))
               for x in range(e))


def _route_one(parts: TransferParts, N: list, P: int) -> list:
    """scale^min(j, 2m-j) xi_j(x) mod P for j = 0..2m, from the charpoly of N = scale * M_p(x) mod P.

    M_p is similar to the normalized M, so the two share D. The charpoly of
    scale * M_p gives scale^j xi_j; past the middle the palindrome
    xi_j = xi_(2m-j) makes scale^(2m-j) xi_j the integral one.
    """
    m = parts.m
    # det(M - tau I) = det(tau I - M) at even size, so xi_j is the t^(2m-j) coefficient
    out = charpoly(N, P)[::-1]
    back = pow(parts.scale, -2, P)
    return out[:m + 1] + [v * pow(back, j, P) % P for j, v in enumerate(out[m + 1:], 1)]


def _route_two(parts: TransferParts, N: list, P: int) -> list:
    """scale^j xi_j(x) mod P for j = 0..m, by the Newton recursion on Tr N^s, N = scale * M_p(x) mod P.

    Powers are formed up to h = ceil(m/2); Tr N^(h+r) is the sum of the
    entrywise product of N^h with the transpose of N^r.
    """
    m = parts.m
    powers = [N]
    while 2 * len(powers) < m:
        powers.append(mat_mul(powers[-1], N, P))
    traces = [sum(pw[i][i] for i in range(2 * m)) for pw in powers]
    top = [v for row in powers[-1] for v in row]
    for pw in powers[:m - len(powers)]:
        traces.append(sum(map(mul, top, (v for col in zip(*pw) for v in col))))
    xi = [1]
    for s in range(1, m + 1):
        acc = sum(traces[s - j - 1] * xi[j] for j in range(s))
        xi.append(-acc * pow(s, -1, P) % P)
    return xi


def _row_sum_bound(sums, top: int) -> int:
    """max over k <= top of C(n, k) times the product of the k largest of the n row sums.

    When sums bound the absolute row sums of A, this bounds the coefficients
    of t^n .. t^(n-top) in det(t I - A): each is up to sign a sum of C(n, k)
    principal k x k minors, each at most the product of its rows' sums.
    """
    sums = sorted(sums, reverse=True)
    return max(math.comb(len(sums), k) * math.prod(sums[:k]) for k in range(top + 1))


def _enough_primes(primes, bound: int) -> list:
    """(P, sqrt(-1) mod P) pairs from primes until the product of their P exceeds 2 * bound."""
    used = []
    while math.prod(P for P, _ in used) <= 2 * bound:
        used.append(next(primes))
    return used


def _coefficient_bound(parts: TransferParts) -> int:
    """B >= |every z-coefficient of scale^j xi_j|, j = 0..m, by _row_sum_bound.

    scale^j xi_j is up to sign the j-th charpoly coefficient of scale * M_p,
    and |scale * M_p| <= R = |d_p T_p| ... |d_1 T_1|, where |.| sums the
    absolute values of a polynomial's coefficients, taken entrywise.
    """
    m = parts.m
    R = [[int(i == j) for j in range(2 * m)] for i in range(2 * m)]
    for d, K, S, Rn in parts.steps:
        T = [[0] * m + [d * (i == j) for j in range(m)] for i in range(m)]
        T += [[abs(k) for k in Ki] + [abs(s) + abs(r) for s, r in zip(Si, Ri)]
              for Ki, Si, Ri in zip(K, S, Rn)]
        R = mat_mul(T, R)
    return _row_sum_bound([sum(row) for row in R], m)


def _reconstruct(route, primes, parts: TransferParts, xs, bound: int) -> tuple:
    """The xi_j that route computes pointwise, over Q.

    Primes come from primes until their product K exceeds 2 * bound. At each
    point of xs, monodromy_at runs once and route reads its reduction modulo
    each prime, so one exact matrix is alive at a time. One Chinese remainder
    step lifts all the values modulo K, and each xi_j is interpolated once
    modulo K, in symmetric range, divided by scale^min(j, 2m-j).
    """
    used = [P for P, _ in _enough_primes(primes, bound)]
    Ns = (monodromy_at(parts, x) for x in xs)
    values = [[route(parts, [[v % P for v in row] for row in N], P) for P in used] for N in Ns]
    K, m, width = math.prod(used), parts.m, len(values[0][0])
    lifted = _crt([[c for ys in vals for c in ys] for vals in zip(*values)], used)  # xi_0 .. xi_(width-1) per point
    cs = [[v - K if 2 * v > K else v for v in interpolate(xs, lifted[j::width], K)] for j in range(width)]
    return tuple(lincomb((Fraction(1, parts.scale ** min(j, 2 * m - j)), c)) for j, c in enumerate(cs))


def char_determinant(op: PeriodicOperator) -> CharDeterminant:
    """D(z, tau) computed two independent ways, which must agree exactly.

    Each route evaluates scale * M_p exactly from the transfer parts, once at
    each of its pm + 1 integer points, and reduces it modulo 61-bit primes.
    One Chinese remainder step lifts the values modulo K, the product of the
    primes, and every tau-coefficient is interpolated in z once modulo K (its
    degree is at most pm, which build_char_determinant enforces; points differ
    by less than any prime). Route one takes the charpoly of M_p at the
    centred points; route two the Newton recursion
    xi_s = -(1/s) * sum_{j<s} T_{s-j} xi_j on the traces T_n = Tr M_p^n at
    the next pm + 1 integers, mirrored across the palindrome. Each takes as
    many primes as the proven coefficient bound needs (Brown, J. ACM 18,
    1971), disjoint from the other's, and skips a prime that divides scale.
    With disjoint points as well, a fault in reduction, interpolation or
    lifting shows as a disagreement.
    """
    m = op.m
    pm = op.p * m
    parts = transfer_parts(op)
    xs = range(-(pm // 2), pm - pm // 2 + 1)
    bound = _coefficient_bound(parts)
    primes = (pair for pair in _primes() if parts.scale % pair[0])
    by_tau = _reconstruct(_route_one, primes, parts, xs, bound)
    xi = list(_reconstruct(_route_two, primes, parts, range(xs.stop, xs.stop + pm + 1), bound))
    # palindromic by construction, so it also reads ascending in tau
    mirrored = tuple(xi + xi[m - 1::-1])

    if by_tau != mirrored:
        raise InternalConsistencyError(
            "determinant route and trace route disagree on D(z, tau)"
        )
    cd = build_char_determinant(by_tau, op.p, m)._replace(op=op)
    if cd.c != op.leading_constant():
        raise InternalConsistencyError(
            f"leading constant {cd.c} != (-1)^m det A_p = {op.leading_constant()}"
        )
    return cd


def _split(parts, what) -> list:
    """squarefree_decomposition(parts); what() names the polynomial where that refuses it.

    Yun's algorithm runs over Q only, so only a Gaussian polynomial that no
    prime proves squarefree is refused: of those this module splits, only
    some F_k(z, .) at a non-real zero z of rho.
    """
    try:
        return squarefree_decomposition(parts)
    except ValueError as exc:
        raise ValueError(f"{what()} is not split into squarefree factors: z is a non-real zero of rho, "
                         f"where {exc}") from None


def _roots(parts, what, aberth=True) -> list:
    """[(g, Aberth's roots of g, or None if not aberth, k)] over _split(parts, what).

    Only where Aberth runs is g rounded, each coefficient once, a / s; what()
    names the polynomial where one, or Aberth's iteration on it, leaves the
    float range.
    """
    out = []
    for g, k in _split(parts, what):
        if not aberth:
            out.append((g, None, k))
            continue
        try:
            cs = [complex(a / s, b / s) for a, b, s in g]
        except OverflowError:
            raise ValueError(f"{what()} has a coefficient beyond the float range") from None
        try:
            out.append((g, roots_all(cs), k))
        except OverflowError:
            raise ValueError(f"{what()} has roots that Aberth's iteration cannot reach in the float range") from None
    return out


def _certified(g, seeds, eigensolver: bool) -> tuple:
    """(ints, certified_roots of ints): g, a squarefree factor as (a, b, s) triples, with its denominators cleared."""
    d = math.lcm(*(s for _, _, s in g))
    ints = [a * (d // s) for a, _, s in g]
    return ints, certified_roots(ints, seeds, eigensolver)


def branch_values(cd: CharDeterminant, z) -> list:
    """The m branch values of nu at a Fraction, float or complex z, sorted by (re, im).

    Each squarefree factor F_k(z, .) of Phi is evaluated over the integers
    (phi_at), and _roots splits off its repeated roots exactly, which it has
    only at a zero of rho: Aberth splits a j-fold root into a cloud of
    diameter eps^(1/j), which would fake a conjugate pair. A root of a
    j-fold factor of F_k(z, .) is a k j-fold branch. At a real z, Phi(z, .)
    is real: near-real values are snapped to the axis and conjugate values
    share one real part, so the order of a conjugate pair does not rest on
    rounding.
    """
    def what():
        zc = complex(z)
        return f"Phi(z, nu) at z = {repr(zc.real) if not zc.imag else repr(zc)}"

    vals = [r for parts, k in cd.phi_at(z) for _, rs, j in _roots(parts, what) for r in rs for _ in range(k * j)]
    if not (isinstance(z, complex) and z.imag):
        vals = _conjugate_symmetrize(vals)
    return sorted(vals, key=lambda w: (w.real, w.imag))


def lyapunov_at(cd: CharDeterminant, z) -> list:
    """branch_values at z with real and on_circle flags.

    on_circle marks a real branch in [-1, 1] at a real z only: a self-adjoint
    operator has no multiplier on the unit circle at a non-real z.
    """
    real_z = not complex(z).imag
    out = []
    for v in branch_values(cd, z):
        real = abs(v.imag) <= REAL_TOL
        out.append(LyapunovBranch(v, real, real_z and real and -1 <= v.real <= 1))
    return out


def multipliers_at(branches) -> list:
    """2m multiplier values as m pairs (tau_j, 1/tau_j) for the branches at z.

    branches is what lyapunov_at returned at z; each pair solves
    tau^2 - 2 nu_j tau + 1 = 0 for a Lyapunov branch nu_j, in the same
    order, and the pair product is 1 by construction. z lies in the
    spectrum exactly when some |tau_j| = 1.

    For a branch on_circle the pair is nu -/+ i sqrt(1 - nu^2) on the
    unit circle, negative imaginary part first; its real parts agree
    exactly, so sorting would leave the order to rounding. Other pairs are
    sorted by (re, im).
    """
    pairs = []
    for b in branches:
        nu = b.value
        if b.on_circle:
            s = cmath.sqrt(1 - nu * nu)
            pairs.append((nu - 1j * s, nu + 1j * s))
            continue
        sq = nu * nu
        # nu sqrt(1 - nu^-2) where nu^2 overflows; the pair ~ (2 nu, 1/(2 nu)) is finite
        s = cmath.sqrt(sq - 1) if cmath.isfinite(sq) else nu * cmath.sqrt(1 - (1 / nu) ** 2)
        t = nu + s if abs(nu + s) >= abs(nu - s) else nu - s
        pair = sorted((t, 1 / t), key=lambda w: (w.real, w.imag))
        pairs.append(tuple(pair))
    return pairs


def resonance_poly(cd: CharDeterminant):
    """(rho, degenerate): the discriminant in nu of F = prod F_k, and whether some k > 1.

    rho = prod_{i<j} (Delta_i - Delta_j)^2 over the distinct branches, up
    to the usual discriminant normalization; Phi itself has discriminant 0
    where it has permanently repeated branches (any free operator with
    m >= 2), and then the flag is set. F is monic in nu of degree d <= m,
    and its coefficient of nu^(d-j) has z-degree at most w j, so its
    discriminant, isobaric of weight d (d - 1), has z-degree below the
    n = w m (m - 1) + 1 of _samples: rho is interpolated from disc F(x, .)
    at those points.
    """
    xs = _samples(cd.phi)[0]
    values = [discriminant(reduce(_times, (_exact_form(parts) for parts, _ in cd.phi_at(x)))) for x in xs]
    return _Rho(lincomb((1, interpolate(xs, values)))), any(k > 1 for _, k in cd.factors)


def resonances(cd: CharDeterminant) -> ResonanceSet:
    """All zeros of rho, conjugate-paired, with exact multiplicities.

    The real ones are the certified_roots of each squarefree factor g of rho,
    seeded by the real parts of Aberth's roots of g: each is the double
    nearest to a root of g, proved real by an exact sign change, and only
    these are flagged real. For each, the Aberth root nearest to it is
    dropped, and the rest are conjugate-paired (_conjugate_symmetrize).
    """
    rho, degenerate = resonance_poly(cd)
    if len(rho) <= 1:
        return ResonanceSet((), (), (), degenerate, rho, ())
    clusters = []  # (value, multiplicity, proved real)
    proved = []
    for g, rs, k in _roots([_gaussian_parts(c) for c in monic(rho)], lambda: "rho(z)"):
        ints, real = _certified(g, [r.real for r in rs], False)
        for x in real:
            rs.remove(min(rs, key=lambda r: abs(r - x)))
        clusters += [(complex(x, 0.0), k, True) for x in real] + [(r, k, False) for r in _conjugate_symmetrize(rs)]
        proved += [(x, k, ints) for x in real]
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    vals = tuple(v for v, k, _ in clusters for _ in range(k))
    flags = tuple(real for _, k, real in clusters for _ in range(k))
    return ResonanceSet(vals, flags, tuple((v, k) for v, k, _ in clusters), degenerate, rho, tuple(sorted(proved)))


def _conjugate_symmetrize(roots):
    """Snap near-real roots to the axis and average conjugate partners."""
    real = [complex(r.real, 0.0) for r in roots if abs(r.imag) <= REAL_TOL]
    upper = sorted((r for r in roots if r.imag > REAL_TOL), key=lambda w: (w.real, w.imag))
    lower = sorted((r for r in roots if r.imag < -REAL_TOL), key=lambda w: (w.real, -w.imag))
    if len(upper) != len(lower):
        return list(roots)  # leave asymmetric output untouched; clustering still works
    out = list(real)
    for u, v in zip(upper, lower):
        w = (u + v.conjugate()) / 2
        out.extend((w, w.conjugate()))
    return out


def _eigs_at_tau(cd: CharDeterminant, tau0) -> list:
    """The roots of q(., tau0), tau0 = 1 or -1, as (nearest double, multiplicity, ints), ascending.

    ints are the integer coefficients of the root's squarefree factor. The
    roots are the eigenvalues of the Hermitian L(tau0): certified_roots proves
    each squarefree factor's, seeded by floquet_eigs(cd.op, tau0) where D
    carries its operator (cd.op), else by Aberth's roots of the factor.
    """
    f = cd.section(tau0)  # nu0 = tau0 at tau0 = 1 and -1
    factors = _roots([_gaussian_parts(c) for c in f], lambda: f"q(z, {tau0})", aberth=cd.op is None)
    eigs = None if cd.op is None else floquet_eigs(cd.op, tau0)
    out = []
    for g, rs, k in factors:
        ints, found = _certified(g, eigs or [r.real for r in rs], eigs is not None)
        if len(found) != len(g) - 1:
            raise InternalConsistencyError(f"q(., {tau0}) has a squarefree factor of degree {len(g) - 1} with "
                                           f"{len(found)} certified real roots; a self-adjoint operator's are real")
        out.extend((v, k, ints) for v in found)
    return sorted(out)


def _counts(cd: CharDeterminant, x: Fraction) -> tuple:
    """(below, inside, real): the branches at the rational x real below -1, in [-1, 1], and real, exactly.

    root_counts takes each squarefree factor g of each F_k(x, .) by Sturm's
    theorem; a root of a j-fold g is k j branches.
    """
    out = [0, 0, 0]
    for parts, k in cd.phi_at(x):
        for g, j in _split(parts, lambda: f"Phi(z, nu) at z = {x}"):
            out = [t + k * j * c for t, c in zip(out, root_counts(_exact_form(g), -1, 1))]
    return out[0], out[1], sum(out)


def _between(v: float, factors) -> list:
    """Rationals between the consecutive distinct roots near the double v of the integer polynomials factors.

    Each factor has one root in v's rounding interval [lo, hi], between the midpoints of v and its
    neighbours. One that shares it with an earlier factor is dropped: no prime proves the two coprime
    by a nonzero resultant (euclid modulo a _CERTIFICATE prime), and their gcd over Q has a root in
    [lo, hi]. Brackets of the distinct roots left start as certified_roots' do (_bracket) and are
    refined (_refine) until none overlaps another.
    """
    lo, hi = [(Fraction(math.nextafter(v, side)) + Fraction(v)) / 2 for side in (-math.inf, math.inf)]

    def shared(f, g):
        f, g = sorted((f, g), key=len, reverse=True)
        coprime = any(f[-1] % P and g[-1] % P and euclid(f, g, P)[1] for P, _ in _CERTIFICATE)
        return not coprime and horner(h := euclid(f, g)[0][-1], lo) * horner(h, hi) <= 0

    e = max(lo.denominator, hi.denominator).bit_length() - 1
    a, b = int(lo * (1 << e)), int(hi * (1 << e))
    brackets = [(f, _bracket(a, b, e, _scaled_value(f, a, e), _scaled_value(f, b, e)))  # one per distinct root
                for i, f in enumerate(factors) if not any(shared(f, g) for g in factors[:i])]
    while True:
        ends = sorted(((Fraction(t[0], 1 << t[2]), Fraction(t[1], 1 << t[2])), k) for k, (_, t) in enumerate(brackets))
        close = {k for (x, i), (y, j) in zip(ends, ends[1:]) if x[1] >= y[0] for k in (i, j)}
        if not close:
            return [(x[1] + y[0]) / 2 for (x, _), (y, _) in zip(ends, ends[1:])]
        brackets = [(f, _refine(f, t) if k in close and t[0] < t[1] else t) for k, (f, t) in enumerate(brackets)]


def _relabel(order: list, before: int, after: int, values: list, crossing: int):
    """Reorder order, the branch at each rank, across a real zero of rho of multiplicity crossing.

    before and after branches are real on either side; the closest adjacent
    pair of values, branch_values at the zero, meets there above r real
    values. With as many real after and crossing 2 mod 4 the pair swaps; a
    pair turning non-real goes to the front of the non-real ranks, and one
    turning real comes from there, lower number first.
    """
    i = min(range(len(values) - 1), key=lambda i: abs(values[i + 1] - values[i]))
    r = sum(abs(w.imag) <= REAL_TOL for w in values[:i])
    if after == before and crossing % 4 == 2 and r + 1 < before:
        order[r:r + 2] = order[r + 1], order[r]
    elif after == before - 2 and r + 1 < before:
        order[r:before] = order[r + 2:before] + sorted(order[r:r + 2])
    elif after == before + 2 and before + 2 <= len(order) and r <= before:
        order[r:before + 2] = sorted(order[before:before + 2]) + order[r:before]


def band_structure(cd: CharDeterminant) -> BandStructure:
    """Bands with multiplicity, edge provenance, and per-branch intervals.

    Candidate edges, the real roots of q(., 1), q(., -1) (_eigs_at_tau) and
    of rho (resonances), are the doubles nearest to exact roots whatever the
    seeds, merged only when equal. Each interval between two has the exact
    count at its rational midpoint (_counts); where a candidate v holds two
    or more distinct exact roots, a shared one counted once, the largest
    positive count between them (_between) is a band [v, v] thinner than
    one double. Real branches rank by value, non-real ones after, so ranks
    below .. below + inside - 1 are inside; a branch keeps its rank but at a
    real zero of rho, where _relabel follows the sheets. The bands are read
    off D(z, tau), so a determinant recovered from spectral data takes the
    same path; where D carries its operator, cross_validate checks them
    against its Floquet eigenvalues.
    """
    m = cd.m
    exact = {}  # (kind, multiplicity, the integer coefficients of its squarefree factor) per exact root
    for tau0, kind in ((Fraction(1), "periodic"), (Fraction(-1), "antiperiodic")):
        for v, k, ints in _eigs_at_tau(cd, tau0):
            exact.setdefault(v, []).append((kind, k, ints))
    for v, k, ints in resonances(cd).proved:
        exact.setdefault(v, []).append(("resonance", k, ints))
    cands = sorted(exact.items())  # (v, the exact roots whose nearest double is v)
    counts = [_counts(cd, (Fraction(a) + Fraction(b)) / 2) for (a, _), (b, _) in zip(cands, cands[1:])]
    order = list(range(m))  # the branch at each rank

    def flags(below, inside):
        return tuple(j in order[below:below + inside] for j in range(m))

    pieces = []  # (lo, hi, a flag per branch), contiguous and ascending
    for i, (v, roots) in enumerate(cands):
        crossing = sum(k for kind, k, _ in roots if kind == "resonance")
        if crossing and 0 < i < len(counts):
            _relabel(order, counts[i - 1][2], counts[i][2], branch_values(cd, v), crossing)
        if len(roots) > 1:
            thin = max((_counts(cd, x) for x in _between(v, [ints for _, _, ints in roots])),
                       key=lambda c: c[1], default=(0, 0))
            if thin[1]:
                pieces.append((v, v, flags(*thin[:2])))
        if i < len(counts):
            pieces.append((v, cands[i + 1][0], flags(*counts[i][:2])))

    def runs(key):  # (lo, hi, value of key) per run of consecutive, so contiguous, pieces
        return [(run[0][0], run[-1][1], value) for value, run in ((v, list(g)) for v, g in groupby(pieces, key))]

    positive = tuple(Segment(*run) for run in runs(lambda piece: sum(piece[2])) if run[2])
    branch_bands = [tuple((lo, hi) for lo, hi, inside in runs(lambda piece: piece[2][j]) if inside) for j in range(m)]
    # band ends are taken from values, which are distinct doubles, so a
    # branch touches an edge exactly when one of its band ends is that value
    edges = []
    for value, roots in cands:
        touching = tuple(j for j in range(m) if any(value in band for band in branch_bands[j]))
        edges += [Edge(value, kind, touching) for kind in sorted({kind for kind, _, _ in roots}) if touching]
    bs = BandStructure(positive, tuple(edges), tuple(branch_bands))
    if cd.op is not None:
        cross_validate(cd.op, bs, [(lo, hi, sum(fl)) for lo, hi, fl in pieces])
    return bs


def cross_validate(op: PeriodicOperator, bs: BandStructure, pieces):
    """Check bs against the Floquet eigenvalues of op at DEFAULT_GRID phases, from both sides.

    Every eigenvalue must lie within twice floquet_eigs' accuracy,
    2 EIG_ACCURACY ||L(tau)||, of a band of bs, with ||L(tau)|| the largest
    |lam| at that phase, so the bound scales with the operator. The grid is
    odd, so pi is a phase. Distances max(lo - lam, lam - hi, 0) are taken
    on numpy arrays; the first miss by phase, then ascending lam, raises,
    and a NaN edge misses. pieces are (lo, hi, multiplicity) between
    consecutive candidate edges: at the midpoint x of one, each branch in
    (-1, 1) is cos(theta) at one theta in (0, pi), where x is a Floquet
    eigenvalue and #{lam < x} steps by 1. Two opposite steps within one
    phase step cancel, so over the phases in [0, pi] the steps seen must be
    at most the multiplicity and of its parity. A piece no wider than twice
    floquet_eigs' accuracy, with the largest ||L(tau)|| of all phases, is
    skipped.
    """
    import numpy as np

    segs = bs.segments
    if not segs:
        raise InternalConsistencyError("band computation found no band "
                                       "(candidate edges merge only when they are the same double)")
    lo, hi = np.array([(s.lo, s.hi) for s in segs]).T
    mids = np.array([(a + b) / 2 for a, b, _ in pieces])
    below, norm = [], 0.0  # #{lam < x} per piece at each phase in [0, pi], and max |lam|
    for x in np.linspace(0, 2 * math.pi, DEFAULT_GRID).tolist():
        tau = complex(math.cos(x), math.sin(x))
        lams = floquet_eigs(op, tau)
        col = np.array(lams)[:, None]
        dist = np.maximum(np.maximum(lo - col, col - hi), 0.0).min(axis=1)
        size = max(abs(lams[0]), abs(lams[-1]))
        miss = np.flatnonzero(~(dist <= 2 * EIG_ACCURACY * size))
        if miss.size:
            raise InternalConsistencyError(
                f"Floquet eigenvalue {lams[miss[0]]} at x={x} misses every band by {float(dist[miss[0]])}"
            )
        norm = max(norm, size)
        if len(below) <= DEFAULT_GRID // 2:
            below.append((col < mids).sum(axis=0))
    for (a, b, mult), seen in zip(pieces, np.abs(np.diff(below, axis=0)).sum(axis=0).tolist()):
        if (seen > mult or (mult - seen) % 2) and b - a > 2 * EIG_ACCURACY * norm:
            raise InternalConsistencyError(f"interval [{a}, {b}] has multiplicity {mult}, but the Floquet "
                                           f"eigenvalues at the phases in [0, pi] cross its midpoint {seen} times")


def classify_gaps(bs: BandStructure) -> list:
    """Maximal intervals where some branch leaves [-1, 1], with endpoint kinds.

    Both true spectral gaps (multiplicity 0 between bands) and interior
    stretches of reduced multiplicity are reported. Kind is "stable" when
    both endpoints are periodic or antiperiodic eigenvalues, "resonance"
    when both are branch points only, "mixed" otherwise.
    """
    kind_at = {}
    for e in bs.edges:
        kind_at.setdefault(e.value, set()).add(e.kind)
    segs = bs.segments
    intervals = sorted([s for s in segs if s.multiplicity < len(bs.branch_bands)]
                       + [(a.hi, b.lo, 0) for a, b in zip(segs, segs[1:]) if a.hi < b.lo])
    out = []
    for lo, hi, mult in intervals:
        ends = [tuple(sorted(kind_at.get(t, ()))) for t in (lo, hi)]
        sides = {bool({"periodic", "antiperiodic"} & set(kinds)) for kinds in ends}
        kind = "mixed" if len(sides) == 2 else "stable" if True in sides else "resonance"
        out.append(Gap(lo, hi, mult, kind, *ends))
    return out


def _trace_of(mat):
    return sum(mat[i][i] for i in range(len(mat)))


def _frobenius_sq(mat):
    return sum(x * x for row in mat for x in row)


def _floquet_determinant_holds(op: PeriodicOperator, section: tuple, re: int, im: int) -> bool:
    """Whether det(z I - L(tau0)) == section exactly, for tau0 = re + im i in {1, -1, i}.

    With d the lcm of the denominators of a and b, the identity says that
    det(t I - d L(tau0)) has the coefficients c_k = d^(n-k) section_k, n = pm.
    d L(tau0) is Hermitian with Gaussian-integer entries, so the c_k are
    integers, and reduction modulo (P, i - i_P), i_P^2 = -1 mod P, is
    reduction modulo P on them: the charpoly modulo P of the layout with
    tau0 and 1/tau0 = conj(tau0) mapped to re +- im i_P gives c_k mod P.
    The layout of |d a|, |d b| at tau = 1 bounds the absolute row sums of
    d L(tau0), so over primes whose product exceeds twice _row_sum_bound,
    _crt lifts c_k itself (Brown, J. ACM 18, 1971): a proof, not a sample.
    """
    d = math.lcm(*(x.denominator for grp in (op.a, op.b) for mat in grp for row in mat for x in row))
    a, b = ([[[int(x * d) for x in row] for row in mat] for mat in grp] for grp in (op.a, op.b))
    abs_a, abs_b = ([[list(map(abs, row)) for row in mat] for mat in grp] for grp in (a, b))
    n = op.p * op.m
    used = _enough_primes(_primes(), _row_sum_bound(map(sum, _floquet_layout(abs_a, abs_b, 1, 1)), n))
    residues = [charpoly(_floquet_layout(a, b, (re + im * i) % P, (re - im * i) % P), P) for P, i in used]
    return _crt(residues, [P for P, _ in used]) == [c * d ** (n - k) for k, c in enumerate(section)]


def _log10(x: Fraction) -> float:
    """log10 of a positive Fraction of any size."""
    return math.log10(x.numerator) - math.log10(x.denominator)


def verify_identities(op: PeriodicOperator) -> list:
    """Run every executable identity for one operator; returns IdentityChecks.

    Exact checks: the symplectic normalization (at 2p + 1 points), the
    palindrome and dual routes (implicit in char_determinant), the Floquet
    determinant match q(z, tau0) = det(z I - L(tau0)) for tau0 in {1, -1, i}
    (modulo primes under a proven bound), the first two eigenvalue-moment
    identities read off q's top coefficients, the trace identity
    Tr M^n = 2 sum_j T_n(Delta_j), n = 1, 2, 3, on Phi's squarefree factors
    (at 3p + 1 points), Phi == prod F_k^k for those factors
    (_factorization_holds), and the second-moment lower bound. Float
    checks: the norm sandwich from band extremes, within floquet_eigs'
    relative accuracy.

    The moment identities compare Tr L(tau)^s with coefficient data; for
    p = 1 the wrap-around couples tau into every diagonal block and for
    p = 2 the first power of tau survives in Tr L^2, so those cases are
    reported as not applicable exactly where the cancellation fails.
    """
    p, m = op.p, op.m
    pm = p * m
    try:
        cd, dual = char_determinant(op), _check("palindrome-and-dual-route", True)
    except InternalConsistencyError as exc:
        cd, dual = None, _check("palindrome-and-dual-route", False, detail=str(exc))
    parts = transfer_parts(op)
    # the integer N = scale * M_p at -p..2p, the points of the trace identity
    monodromies = {x: monodromy_at(parts, x) for x in range(-p, 2 * p + 1)}
    # M = P0 M_p P0^-1 with P0 = a_p^T (+) I_m has M^T J M = J exactly when
    # M_p^T W M_p = W for W = P0^T J P0 = (0 a_p; -a_p^T 0), that is when
    # N^T W N = scale^2 W; M_p has z-degree at most p, so 2p + 1 points prove it
    ap = op.a_at(0)
    W = [[0] * m + list(row) for row in ap] + [[-x for x in col] + [0] * m for col in zip(*ap)]
    target = [[parts.scale**2 * v for v in row] for row in W]
    symplectic = all(mat_mul(mat_transpose(N), mat_mul(W, N)) == target for x, N in monodromies.items() if x <= p)
    report = [_check("symplectic-normalization", symplectic), dual]
    if cd is None:
        return report

    sections = {}
    # tau0 = re + im i, and nu0 = (tau0 + 1/tau0)/2 = re on the unit circle
    for re, im, label in ((1, 0, "1"), (-1, 0, "-1"), (0, 1, "i")):
        sections[label] = cd.section(re)
        ok = _floquet_determinant_holds(op, sections[label], re, im)
        report.append(_check(f"floquet-determinant-tau={label}", ok))

    trace_b = sum(map(_trace_of, op.b))
    if p >= 2:
        # q[j] has z-degree at most p(m - j) < pm - 1 for j >= 1, so every
        # section has the z^(pm-1) coefficient of q[0]
        ok = sections["1"][pm - 1] == -trace_b
        report.append(_check("moment-1-coefficient", ok))
    else:
        report.append(_na("moment-1-coefficient", "period 1 couples tau into Tr L"))

    # Tr(b^2) = |b|_F^2 for symmetric b and Tr(a a^T) = |a|_F^2, so the
    # second-moment target is a plain sum of squared entries.
    target2 = sum(_frobenius_sq(bn) + 2 * _frobenius_sq(an) for an, bn in zip(op.a, op.b))

    def moment2_at(label):
        f = sections[label]
        e1 = f[pm - 1]
        e2 = f[pm - 2]
        return e1 * e1 - 2 * e2

    if p >= 3:
        report.append(_check("moment-2-tau=1", moment2_at("1") == target2))
    else:
        report.append(_na("moment-2-tau=1", "survives only for period >= 3"))
    if p >= 2:
        report.append(_check("moment-2-tau=i", moment2_at("i") == target2))
    else:
        report.append(_na("moment-2-tau=i", "period 1 couples tau into Tr L^2"))

    if p >= 2:
        # c = (-1)^m / prod det a_n, and sum >= 2pm (det^2)^(1/pm) is decided
        # exactly in its pm-th power
        det_sq = op.leading_constant() ** -2
        ok = (target2 / (2 * pm)) ** pm >= det_sq
        try:
            sum2 = float(target2)
            rhs = 2 * pm * float(det_sq) ** (1.0 / pm)
            residual, detail = sum2 - rhs, f"sum {sum2} vs bound {rhs}"
        except OverflowError:
            log_sum = _log10(target2)
            log_rhs = math.log10(2 * pm) + _log10(det_sq) / pm
            residual = 0.0
            detail = f"beyond the float range: log10 sum {log_sum:.6f} vs log10 bound {log_rhs:.6f}"
        report.append(_check("moment-2-lower-bound", ok, residual=residual, detail=detail))
    else:
        report.append(_na("moment-2-lower-bound", "stated for period >= 2"))

    bands = band_structure(cd)
    norm_inf = float(op.norm_infty())
    lo = bands.segments[0].lo
    hi = bands.segments[-1].hi
    norm_j = max(abs(lo), abs(hi))
    # the bounds allow the eigensolver's relative accuracy, which the bands' cross-validation grants
    slack = 1 + 2 * EIG_ACCURACY
    ok = norm_inf <= norm_j * slack and norm_j <= (4 * m - 1) * norm_inf * slack
    report.append(
        _check("norm-sandwich", ok, detail=f"|J|_inf={norm_inf}, |J|={norm_j}")
    )
    if trace_b == 0:
        half_width = (hi - lo) / 2
        center = abs(hi + lo) / 2
        ok = (
            norm_inf + center <= half_width * slack
            and half_width <= (4 * m - 1) * norm_inf * slack
        )
        report.append(_check("norm-sandwich-traceless", ok))
    else:
        report.append(_na("norm-sandwich-traceless", "requires sum Tr b_n = 0"))

    def chebyshev_sums(x):
        # sum_j T_n(Delta_j), n = 1, 2, 3, at x: Newton's identities give the power sums of the roots
        # of each monic F_k(x, .) = nu^d + f1 nu^(d-1) + ... (f_j = 0 past d), k branches per root
        s = [0, 0, 0]
        for g, k in cd.phi_at(x):
            f1, f2, f3 = (_exact_form(g)[-2::-1] + (0, 0))[:3]
            t1 = -f1
            t2 = -f1 * t1 - 2 * f2
            s = [a + k * b for a, b in zip(s, (t1, t2, -f1 * t2 - f2 * t1 - 3 * f3))]
        return [s[0], 2 * s[1] - m, 4 * s[2] - 3 * s[0]]  # T_2 = 2 nu^2 - 1, T_3 = 4 nu^3 - 3 nu

    # Tr M^n = Tr N^n / scale^n = 2 sum_j T_n(Delta_j) for n = 1, 2, 3. Where each
    # F_k's coefficient of nu^(d-j) has z-degree at most p j, both sides have
    # z-degree at most 3p, so the 3p + 1 points prove it
    bounded = all(len(c) - 1 <= p * j for F, _ in cd.factors for j, (_, c) in enumerate(reversed(F)))
    ok = bounded and all(_trace_of(P) == 2 * parts.scale**n * s for x, N in monodromies.items()
                         for n, P, s in zip((1, 2, 3), accumulate([N] * 3, mat_mul), chebyshev_sums(x)))
    report.append(_check("trace-chebyshev-sampling", ok))
    report.append(_check("phi-squarefree-factors", _factorization_holds(cd.phi, cd.factors)))
    return report

