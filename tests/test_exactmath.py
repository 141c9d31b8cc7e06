import math
from fractions import Fraction
from itertools import islice

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from polyref import Z, coeffs, expr, triples
from testops import random_operator

from blochjac import exactmath
from blochjac.exactmath import (
    chebyshev,
    derivative,
    det_inv,
    discriminant,
    euclid,
    exact_div,
    gcd,
    horner,
    interpolate,
    lincomb,
    mat_mul,
    monic,
    root_counts,
    squarefree_decomposition,
)
from blochjac.fixtures import free_operator
from blochjac.spectral import build_char_determinant, char_determinant, resonance_poly

NU = sympy.Symbol("nu")


def rationals(max_num=4, dens=(1, 2, 3)):
    return st.builds(Fraction, st.integers(-max_num, max_num), st.sampled_from(dens))


def det_charpoly(A):
    """det(t I - A) interpolated exactly from det_inv at len(A) + 1 points."""
    xs = range(len(A) + 1)
    return interpolate(xs, [det_inv([[Fraction(x * (i == j)) - e for j, e in enumerate(row)]
                                     for i, row in enumerate(A)])[0] for x in xs])


@settings(max_examples=80, deadline=None)
@given(st.lists(rationals(), max_size=5), st.lists(rationals(), max_size=4), rationals(), rationals())
def test_polynomial_kernels_match_sympy(fc, gc, a, x):
    # every kernel against sympy's arithmetic on the same polynomials
    F, G = expr(fc), expr(gc)
    f, g = lincomb((1, fc)), lincomb((1, gc))
    assert f == coeffs(F) and g == coeffs(G)
    assert all(isinstance(c, Fraction) for c in f)
    assert lincomb((a, f), (x, g)) == coeffs(expr([a]) * F + expr([x]) * G)
    assert derivative(f) == coeffs(sympy.diff(F, Z))
    assert expr([horner(f, x)]) == sympy.expand(F.subs(Z, expr([x])))
    assert horner(f, complex(x)) == pytest.approx(complex(F.subs(Z, expr([x]))), abs=1e-9)
    if g:
        assert monic(g) == coeffs(sympy.Poly(G, Z, domain="QQ").monic().as_expr())
        assert exact_div(coeffs(F * G), g) == f
        if len(g) > 1 and sympy.rem(sympy.Poly(F + 1, Z, domain="QQ"), sympy.Poly(G, Z, domain="QQ")):
            with pytest.raises(ValueError, match="not exact"):
                exact_div(coeffs(F + 1), g)


def test_chebyshev_small():
    assert chebyshev(0) == (1,)
    assert chebyshev(2) == (-1, 0, 2)
    assert chebyshev(3) == (0, -3, 0, 4)
    assert chebyshev(9) == coeffs(sympy.chebyshevt(9, Z))


def test_chebyshev_cosine():
    for k in range(1, 8):
        theta = 0.37 * k
        for n in (1, 2, 5, 9):
            assert abs(horner(chebyshev(n), complex(math.cos(theta))).real - math.cos(n * theta)) < 1e-12
    for n in range(9):
        assert horner(chebyshev(n), Fraction(1)) == 1


def resultant(f, g):
    """Res(f, g) from euclid, which takes the longer list first: Res(f, g) = (-1)^(deg f deg g) Res(g, f)."""
    if len(f) >= len(g):
        return euclid(f, g)[1]
    return (-1) ** ((len(f) - 1) * (len(g) - 1)) * euclid(g, f)[1]


def _to_sympy(f):
    return sympy.Poly(expr(f), Z, domain="QQ")


def test_resultant_examples():
    assert resultant((-1, 0, 1), (-1, 1)) == 0
    assert resultant((-2, 1), (-3, 1)) == -1


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals(), min_size=1, max_size=6), st.lists(rationals(), min_size=1, max_size=6))
def test_euclid_matches_sympy_resultant_and_gcd(fc, gc):
    f, g = sorted((lincomb((1, fc)), lincomb((1, gc))), key=len, reverse=True)
    if not g:
        return
    F, G = _to_sympy(f), _to_sympy(g)
    assert euclid(f, g)[1] == Fraction(int(F.resultant(G).p), int(F.resultant(G).q))
    assert gcd(f, g) == coeffs(F.gcd(G).monic().as_expr())


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5), st.lists(st.integers(-9, 9), min_size=1, max_size=3),
       st.integers(0, 2), st.integers(0, 2), st.integers(1, 3))
def test_root_counts_match_sympy_count_roots(hc, gc, at_minus, at_plus, power):
    # f = (z + 1)^at_minus (z - 1)^at_plus g h^power has roots exactly at -1
    # and 1 and repeated factors; each squarefree factor g_k of f is counted
    # by Sturm and checked against sympy, and k times its counts add up to
    # f's real roots on each side of [-1, 1] with multiplicity
    F = sympy.expand((Z + 1) ** at_minus * (Z - 1) ** at_plus * expr(gc) * expr(hc) ** power)
    if F.is_number:
        return
    f = monic(coeffs(F))
    weighted = [0, 0, 0]
    for g, k in squarefree_decomposition([(c.numerator, 0, c.denominator) for c in f]):
        counts = root_counts([Fraction(a, d) for a, _, d in g], -1, 1)
        G = sympy.Poly(expr([Fraction(a, d) for a, _, d in g]), Z)
        assert counts == (G.count_roots(None, -1) - G.count_roots(-1, -1), G.count_roots(-1, 1),
                          G.count_roots(1, None) - G.count_roots(1, 1))
        weighted = [w + k * c for w, c in zip(weighted, counts)]
    roots = sympy.Poly(F, Z).real_roots()
    assert weighted == [len([r for r in roots if r < -1]), len([r for r in roots if -1 <= r <= 1]),
                        len([r for r in roots if r > 1])]


def _mod(c, P):
    return c.numerator * pow(c.denominator, -1, P) % P


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=3),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.integers(0, 2),
)
def test_euclid_mod_p_reduces_the_exact_euclid(hc, uc, vc, k):
    # f = h u and g = h v share h; every leading coefficient is a nonzero
    # integer far below the 61-bit P, so P divides none of them
    P = exactmath._CERTIFICATE[k][0]
    H, U, V = map(expr, (hc, uc, vc))
    if 0 in (H, U, V):
        return
    f, g = sorted((coeffs(H * U), coeffs(H * V)), key=len, reverse=True)
    rems, rp = euclid([int(c) for c in f], [int(c) for c in g], P)
    gp = rems[-1]
    r = euclid(f, g)[1]
    assert rp == _mod(r, P)
    # with d = gcd(f, g), gcd(f mod P, g mod P) = d mod P unless P divides
    # Res(f / d, g / d), which sympy decides independently
    d = gcd(f, g)
    cofactors = _to_sympy(f).exquo(_to_sympy(d)).resultant(_to_sympy(g).exquo(_to_sympy(d)))
    if int(cofactors.p) % P:
        lc_inv = pow(gp[-1], -1, P)
        assert [c * lc_inv % P for c in gp] == [_mod(c, P) for c in d]


def test_discriminant_examples():
    b, c = Fraction(5, 2), Fraction(-3)
    assert discriminant((c, b, Fraction(1))) == b * b - 4 * c
    assert discriminant(coeffs(Z**2 - 1)) == 4
    assert discriminant(coeffs((Z - 1) * (Z - 2) * (Z - 3))) == 4


def test_discriminant_degree_zero_rejected():
    with pytest.raises(ValueError):
        discriminant((Fraction(3),))


def test_gcd_examples():
    assert gcd(coeffs(Z**2 - 1), coeffs(Z - 1)) == coeffs(Z - 1)
    assert gcd(coeffs((Z - 1) ** 2), coeffs(Z**2 - 1)) == coeffs(Z - 1)


def squarefree(f):
    """squarefree_decomposition of monic(f) through its triples, the factors read back exactly."""
    return [(exactmath._exact_form(g), k)
            for g, k in squarefree_decomposition([exactmath._gaussian_parts(c) for c in (monic(f) if f else f)])]


def big_rationals():
    return st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**20))


@settings(max_examples=80, deadline=None)
@given(st.lists(big_rationals(), max_size=6), st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                                                        max_size=3))
def test_exact_form_inverts_gaussian_parts_and_rounds_once(f, zs):
    # each rational triple (a, 0, s) gives back its coefficient exactly, and
    # a / s, b / s are the correctly rounded parts, so the root finder sees
    # complex(c); a triple with b != 0 has no form over Q
    f = tuple(f)
    assert exactmath._exact_form([exactmath._gaussian_parts(c) for c in f]) == f
    for c in f + tuple(zs):
        a, b, s = exactmath._gaussian_parts(c)
        assert complex(a / s, b / s) == complex(c)
    if any(z.imag for z in zs):
        with pytest.raises(ValueError, match="runs over Q only"):
            exactmath._exact_form([exactmath._gaussian_parts(z) for z in zs])


def test_squarefree_decomposition():
    f = coeffs(7 * (Z - 1) ** 2 * (Z + 2))
    assert squarefree(f) == [(coeffs(Z + 2), 1), (coeffs(Z - 1), 2)]
    assert squarefree(coeffs(Z**3)) == [(coeffs(Z), 3)]
    assert squarefree(coeffs((Z - 3) ** 2 * (Z + 1) ** 2)) == [(coeffs((Z - 3) * (Z + 1)), 2)]
    assert squarefree((Fraction(5),)) == []
    with pytest.raises(ValueError):
        squarefree(())


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals(), min_size=1, max_size=3), st.integers(min_value=1, max_value=3))
def test_squarefree_decomposition_rebuilds(roots, extra_mult):
    f = coeffs(math.prod((Z - sympy.Rational(r) for r in roots), start=(Z - 99) ** extra_mult))
    rebuilt = math.prod((expr(g) ** k for g, k in squarefree(f)), start=sympy.Integer(1))
    assert coeffs(rebuilt) == f


def _monic_sqf_list(f):
    """sympy's squarefree factorization of f as [(monic ascending coefficients, k)]."""
    _, factors = _to_sympy(f).sqf_list()
    return sorted((list(coeffs(g.monic().as_expr())), k) for g, k in factors)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=2, max_size=4),
    st.lists(st.integers(-4, 4), min_size=2, max_size=3),
    st.integers(min_value=1, max_value=3),
)
def test_squarefree_decomposition_matches_sympy(gc, hc, k):
    G, H = expr(gc), expr(hc)
    if sympy.degree(G, Z) < 1 or sympy.degree(H, Z) < 1:
        return
    f = coeffs(G * H**k)
    got = sorted((list(part), mult) for part, mult in squarefree(f))
    assert got == _monic_sqf_list(f)


def _is_prime(n):
    """Deterministic Miller-Rabin: the first twelve prime bases decide every n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_certificate_primes_are_primes_with_a_square_root_of_minus_one():
    assert _is_prime(2**61 - 1) and not _is_prime(2**61 + 1) and not _is_prime(561)
    assert len(exactmath._CERTIFICATE) >= 2
    for P, i in exactmath._CERTIFICATE:
        assert _is_prime(P) and P % 4 == 1
        assert i * i % P == P - 1


def certificate(f):
    """The certificate prime of a polynomial, from its coefficients as (a, b, s) triples."""
    return exactmath._squarefree_certificate(list(map(exactmath._gaussian_parts, f)))


def test_certificate_skips_an_unlucky_first_prime():
    (P0, _), (P1, _) = exactmath._CERTIFICATE[:2]
    # disc(z^2 - P0) = 4 P0: z^2 - P0 = z^2 mod P0, so only a later prime proves it
    f = coeffs(Z**2 - P0)
    assert certificate(f) == P1
    assert squarefree(f) == [(f, 1)]
    # P0 divides the cleared leading coefficient: P0 is skipped, not asked
    f = coeffs(P0 * Z**2 + Z + 1)
    g = coeffs(Z**2 + (Z + 1) / sympy.Integer(P0))
    assert certificate(g) == P1
    assert squarefree(f) == [(g, 1)]


def test_certificate_without_a_lucky_prime_falls_back_to_yun():
    f = coeffs(Z**2 - math.prod(P for P, _ in exactmath._CERTIFICATE))
    assert certificate(f) is None
    assert squarefree(f) == [(f, 1)]
    assert certificate(coeffs((Z - 1) ** 2 * (Z + 2))) is None


def test_certificate_maps_i_to_a_square_root_of_minus_one():
    f = triples((Z - sympy.I) * (Z + 2 * sympy.I) * (Z - 1))
    assert exactmath._squarefree_certificate(f) is not None
    assert squarefree_decomposition(f) == [(f, 1)]
    # (z - i)^2 (z + 3) would look squarefree if i were mapped to anything
    # else; Yun's algorithm runs over Q only, so its split is refused
    f = triples((Z - sympy.I) ** 2 * (Z + 3))
    assert exactmath._squarefree_certificate(f) is None
    with pytest.raises(ValueError, match="no prime proves a Gaussian polynomial squarefree"):
        squarefree_decomposition(f)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(rationals(), min_size=2, max_size=4),
    st.lists(rationals(), min_size=2, max_size=4),
)
def test_resultant_vanishes_iff_common_factor(fc, gc):
    f, g = lincomb((1, fc)), lincomb((1, gc))
    if len(f) < 2 or len(g) < 2:
        return
    shares = len(gcd(f, g)) >= 2
    assert (resultant(f, g) == 0) == shares


@settings(max_examples=30, deadline=None)
@given(
    st.lists(rationals(2), min_size=1, max_size=3),
    st.lists(rationals(2), min_size=1, max_size=3),
)
def test_discriminant_multiplicative(fc, gc):
    f = tuple(fc) + (Fraction(1),)
    g = tuple(gc) + (Fraction(1),)
    lhs = discriminant(coeffs(expr(f) * expr(g)))
    rhs = discriminant(f) * discriminant(g) * resultant(f, g) * resultant(f, g)
    assert lhs == rhs


@pytest.mark.parametrize("shape", [(3, 3), (2, 4)])
def test_resonance_poly_is_sympys_discriminant_of_phi(shape):
    cd = char_determinant(random_operator(1, *shape))
    phi = sum(expr(f) * NU ** (cd.m - j) for j, f in enumerate(cd.phi))
    rho, degenerate = resonance_poly(cd)
    assert not degenerate
    assert rho == coeffs(sympy.discriminant(phi, NU))


def test_bipoly_eval_examples():
    D = ((1,), (0, -1), (1,))  # tau^2 - z*tau + 1 by its tau-coefficients

    def at(tau0):  # D(z, tau0)
        return coeffs(sum(expr(c) * tau0**k for k, c in enumerate(D)))

    assert at(1) == (2, -1)
    assert at(-1) == (2, 1)
    # i^2 + 1 = 0 leaves -i*z
    assert sympy.expand(sum(expr(c) * sympy.I**k for k, c in enumerate(D))) == -sympy.I * Z
    assert [horner(c, 0) for c in D] == [1, 0, 1]


def test_bipoly_arithmetic_and_subs():
    # free(2, 2) has Phi = (nu - b)^2 with b = z^2/2 - 1: its nu-coefficients
    # expand the square, its one squarefree factor is F_2 = nu - b, and
    # substituting z = x gives nu - b(x) exactly
    branch = Z**2 / 2 - 1
    cd = char_determinant(free_operator(2, 2))
    assert cd.phi == ((1,), coeffs(-2 * branch), coeffs(branch**2))
    for x in (Fraction(-3), Fraction(1, 2), Fraction(5, 3)):
        ((parts, k),) = cd.phi_at(x)
        assert k == 2
        assert exactmath._exact_form(parts) == coeffs(NU - branch.subs(Z, sympy.Rational(x)), NU)
    # off the real axis the triples are Gaussian: -b(1/2 + i/4) = 29/32 - i/8
    ((parts, _),) = cd.phi_at(complex(0.5, 0.25))
    a, b, s = parts[0]
    assert (Fraction(a, s), Fraction(b, s)) == (Fraction(29, 32), Fraction(-1, 8))


def test_laurent_bipoly_round_trip():
    # D / (c tau) = q[0] + q[1] (tau + 1/tau), and D comes back from q
    xi = ((1,), (0, -1), (1,))
    cd = build_char_determinant(xi, 1, 1)
    assert cd.c == -1
    assert cd.q == ((0, 1), (-1,))
    assert tuple(tuple(v * cd.c for v in cd.q[abs(i - 1)]) for i in range(3)) == xi
    assert cd.section(0) == (0, 1)  # tau = i: i + 1/i = 0, so only z survives


def test_bipoly_resultant_discriminant():
    # Phi = nu^2 - z^2 = (nu - z)(nu + z), from D = (2 tau)^2 Phi: discriminant 4z^2
    xi = ((1,), (), coeffs(2 - 4 * Z**2), (), (1,))
    assert resonance_poly(build_char_determinant(xi, 1, 2)) == ((0, 0, 4), False)
    # repeated branch Phi = (nu - z)^2: the discriminant vanishes identically,
    # and the squarefree part nu - z has no branch points
    xi = ((1,), coeffs(-4 * Z), coeffs(2 + 4 * Z**2), coeffs(-4 * Z), (1,))
    assert resonance_poly(build_char_determinant(xi, 1, 2)) == ((1,), True)


def test_det_helpers():
    m = [[Fraction(2), Fraction(1)], [Fraction(7), Fraction(4)]]
    det, inv = det_inv(m)
    assert det == 1
    assert mat_mul(m, inv) == [[1, 0], [0, 1]]
    P = exactmath._CERTIFICATE[0][0]
    assert mat_mul([[P - 1, 2]], [[3], [P - 5]], P) == [[P - 13]]


def test_prime_list_is_every_prime_1_mod_4_below_2_61_in_order():
    listed = [P for (P, _), _ in zip(exactmath._primes(), range(12))]
    assert [P for P, _ in exactmath._CERTIFICATE] == listed[:3]
    assert listed[0] == 2**61 - 31 and listed == sorted(listed, reverse=True)
    for hi, lo in zip([2**61 + 3] + listed, listed):
        assert _is_prime(lo) and lo % 4 == 1
        assert not any(_is_prime(n) for n in range(lo + 4, hi, 4))
    assert all(exactmath._is_prime(n) == _is_prime(n) for n in range(2**61 - 400, 2**61))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-10**20, 10**20), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_charpoly_mod_reduces_the_exact_charpoly(rows):
    exact = det_charpoly(rows)
    for P, _ in exactmath._CERTIFICATE[:2]:
        red = [[e % P for e in row] for row in rows]
        assert exactmath.charpoly(red, P) == [int(c) % P for c in exact]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.tuples(rationals(9), rationals(9)), st.just((0, 0))), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_charpoly_over_q_and_qi_matches_gauss_jordan(rows):
    # zeros exercise the pivot search of the Hessenberg reduction; reduction
    # modulo (P, i - i_P) maps Q(i) with denominators prime to P onto GF(P).
    # Entries (re, im) are Gaussian rationals; the real parts alone go through
    # det_charpoly, the Gaussian matrix through sympy's charpoly
    real = [[re for re, _ in row] for row in rows]
    gaussian = sympy.Matrix([[sympy.Rational(re) + sympy.I * sympy.Rational(im) for re, im in row] for row in rows])
    for P, i in exactmath._CERTIFICATE[:2]:
        def red(x):
            ((a, b, s),) = triples(x)
            return (a + b * i) * pow(s, -1, P) % P

        assert exactmath.charpoly([[red(x) for x in row] for row in real], P) == [red(c) for c in det_charpoly(real)]
        want = [red(c) for c in reversed(gaussian.charpoly().all_coeffs())]
        assert exactmath.charpoly([[red(x) for x in row] for row in gaussian.tolist()], P) == want


LIFT_PRIMES = [P for P, _ in islice(exactmath._primes(), 8)]
LIFT_K = math.prod(LIFT_PRIMES)
LIFT_HALF = (LIFT_K - 1) // 2  # LIFT_K is odd, so (-K/2, K/2] is [-LIFT_HALF, LIFT_HALF]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-LIFT_HALF, LIFT_HALF), min_size=1, max_size=9))
@example([LIFT_HALF])
@example([-LIFT_HALF] * 9)
@example([LIFT_HALF, -LIFT_HALF] * 4 + [LIFT_HALF])
def test_interpolation_and_crt_recover_integer_coefficients(ints):
    # eight 61-bit primes hold every integer in (-K/2, K/2], K their product;
    # interpolating modulo each prime and then lifting, or lifting the point
    # values and then interpolating once modulo K, both give the coefficients
    xs = range(-(len(ints) // 2), len(ints) - len(ints) // 2)
    values = [horner(ints, x) for x in xs]
    per_prime = [interpolate(xs, [v % P for v in values], P) for P in LIFT_PRIMES]
    assert exactmath._crt(per_prime, LIFT_PRIMES) == ints
    lifted = exactmath._crt([[v % P for v in values] for P in LIFT_PRIMES], LIFT_PRIMES)
    assert [c - LIFT_K if 2 * c > LIFT_K else c for c in interpolate(xs, lifted, LIFT_K)] == ints


@settings(max_examples=40, deadline=None)
@given(
    st.lists(rationals(5), max_size=7),
    st.integers(-3, 3),
)
def test_interpolate_round_trip(cs, start):
    xs = [Fraction(start + k, 2) for k in range(len(cs) + 1)]
    g = interpolate(xs, [horner(cs, x) for x in xs])
    assert len(g) == len(xs) and coeffs(expr(g)) == coeffs(expr(cs))


def test_det_inv_singular():
    assert det_inv([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == (0, None)
