import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from blochjac import exactmath
from blochjac.exactmath import (
    CRational,
    RatPoly,
    chebyshev,
    det_inv,
    discriminant,
    euclid,
    gcd,
    interpolate,
    mat_mul,
    squarefree_decomposition,
)
from blochjac.fixtures import free_operator, random_operator
from blochjac.spectral import build_char_determinant, char_determinant, resonance_poly

I = CRational(0, 1)


def rationals(max_num=4, dens=(1, 2, 3)):
    return st.builds(Fraction, st.integers(-max_num, max_num), st.sampled_from(dens))


def gaussian_rationals(max_num=4):
    return st.builds(CRational, rationals(max_num), rationals(max_num))


def det_charpoly(A):
    """det(t I - A) interpolated exactly from det_inv at len(A) + 1 points."""
    xs = range(len(A) + 1)
    return RatPoly(interpolate(xs, [det_inv([[Fraction(x * (i == j)) - e for j, e in enumerate(row)]
                                               for i, row in enumerate(A)])[0] for x in xs]), "z")


def test_crational_arithmetic():
    a = CRational(1, 2)
    b = CRational(3, -1)
    assert a * b == CRational(5, 5)
    assert a + b == CRational(4, 1)
    assert (a / a) == 1
    assert a * CRational(a.re, -a.im) == a.abs2() == Fraction(5)
    assert I * I == -1
    assert I * I * I == CRational(0, -1)
    assert 1 / I == CRational(0, -1)
    assert CRational(Fraction(1, 2), 0) == Fraction(1, 2)
    assert hash(CRational(Fraction(1, 2), 0)) == hash(Fraction(1, 2))
    assert complex(a) == 1 + 2j


def test_crational_demote_in_poly():
    p = RatPoly([CRational(1, 0), CRational(0, 1)], var="z")
    assert isinstance(p.coeffs[0], Fraction)
    assert isinstance(p.coeffs[1], CRational)


def test_ratpoly_basics():
    p = RatPoly([-1, 0, 1])
    assert p.degree == 2
    assert p(Fraction(3)) == 8
    assert p(2.0) == 3.0
    assert RatPoly.zero().degree == -math.inf
    q, r = divmod(p, RatPoly([-1, 1]))
    assert q == RatPoly([1, 1]) and r.is_zero()
    assert RatPoly([1, 1]) * RatPoly([1, 1]) == RatPoly([1, 2, 1])
    assert p.derivative() == RatPoly([0, 2])


def test_ratpoly_var_mismatch():
    with pytest.raises(ValueError):
        RatPoly([0, 1], "z") + RatPoly([0, 1], "nu")
    # constants cross variable tags freely
    assert RatPoly([5], "z") + RatPoly([0, 1], "nu") == RatPoly([5, 1], "nu")


def test_ratpoly_rejects_floats():
    with pytest.raises(TypeError):
        RatPoly([0.5])


def test_chebyshev_small():
    assert chebyshev(0) == RatPoly([1], "nu")
    assert chebyshev(2) == RatPoly([-1, 0, 2], "nu")
    assert chebyshev(3) == RatPoly([0, -3, 0, 4], "nu")


def test_chebyshev_cosine():
    for k in range(1, 8):
        theta = 0.37 * k
        for n in (1, 2, 5, 9):
            assert abs(chebyshev(n)(complex(math.cos(theta))).real - math.cos(n * theta)) < 1e-12
    for n in range(9):
        assert chebyshev(n)(Fraction(1)) == 1


def resultant(f: RatPoly, g: RatPoly):
    """Res(f, g) from euclid, which takes the longer list first: Res(f, g) = (-1)^(deg f deg g) Res(g, f)."""
    if len(f.coeffs) >= len(g.coeffs):
        return euclid(f.coeffs, g.coeffs)[1]
    return (-1) ** (f.degree * g.degree) * euclid(g.coeffs, f.coeffs)[1]


def _to_sympy(f: RatPoly, x):
    return sympy.Poly(list(reversed(f.coeffs)) or [0], x, domain="QQ")


def _from_sympy(F):
    """Ascending Fraction coefficients of a sympy Poly over QQ."""
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(F.all_coeffs())]
    return coeffs if any(coeffs) else []


def test_resultant_examples():
    assert resultant(RatPoly([-1, 0, 1], "tau"), RatPoly([-1, 1], "tau")) == 0
    assert resultant(RatPoly([-2, 1], "tau"), RatPoly([-3, 1], "tau")) == -1


def test_euclid_never_raises_a_gaussian_rational_to_a_power():
    # f = 1 + i nu has f' = i, so Res(f, f') = i and disc f = i / i = 1
    d = discriminant(RatPoly([1, I], "nu"))
    assert d == Fraction(1) and isinstance(d, Fraction)
    assert euclid([1, 0, 1], [I])[1] == -1


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals(), min_size=1, max_size=6), st.lists(rationals(), min_size=1, max_size=6))
def test_euclid_matches_sympy_resultant_and_gcd(fc, gc):
    f, g = sorted((RatPoly(fc), RatPoly(gc)), key=lambda h: len(h.coeffs), reverse=True)
    if g.is_zero():
        return
    x = sympy.Symbol("x")
    F, G = _to_sympy(f, x), _to_sympy(g, x)
    assert euclid(f.coeffs, g.coeffs)[1] == Fraction(int(F.resultant(G).p), int(F.resultant(G).q))
    assert list(gcd(f, g).coeffs) == _from_sympy(F.gcd(G).monic())


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
    h, u, v = RatPoly(hc), RatPoly(uc), RatPoly(vc)
    if h.is_zero() or u.is_zero() or v.is_zero():
        return
    f, g = sorted((h * u, h * v), key=lambda w: len(w.coeffs), reverse=True)
    gp, rp = euclid([int(c) for c in f.coeffs], [int(c) for c in g.coeffs], P)
    r = euclid(f.coeffs, g.coeffs)[1]
    assert rp == _mod(r, P)
    # with d = gcd(f, g), gcd(f mod P, g mod P) = d mod P unless P divides
    # Res(f / d, g / d), which sympy decides independently
    d = gcd(f, g)
    x = sympy.Symbol("x")
    cofactors = _to_sympy(f.exact_div(d), x).resultant(_to_sympy(g.exact_div(d), x))
    if int(cofactors.p) % P:
        lc_inv = pow(gp[-1], -1, P)
        assert [c * lc_inv % P for c in gp] == [_mod(c, P) for c in d.coeffs]


def test_discriminant_examples():
    b, c = Fraction(5, 2), Fraction(-3)
    assert discriminant(RatPoly([c, b, 1], "nu")) == b * b - 4 * c
    assert discriminant(RatPoly([-1, 0, 1], "nu")) == 4
    cubic = RatPoly([-6, 11, -6, 1], "nu")  # (nu - 1)(nu - 2)(nu - 3)
    assert discriminant(cubic) == 4


def test_discriminant_degree_zero_rejected():
    with pytest.raises(ValueError):
        discriminant(RatPoly([3], "nu"))


def test_gcd_examples():
    assert gcd(RatPoly([-1, 0, 1], "nu"), RatPoly([-1, 1], "nu")) == RatPoly([-1, 1], "nu")
    assert gcd(RatPoly([1, -2, 1], "nu"), RatPoly([-1, 0, 1], "nu")) == RatPoly([-1, 1], "nu")


def test_squarefree_decomposition():
    z = RatPoly([0, 1], "z")
    f = (z - 1) * (z - 1) * (z + 2) * RatPoly([7], "z")
    assert squarefree_decomposition(f) == [(z + 2, 1), (z - 1, 2)]
    assert squarefree_decomposition(z * z * z) == [(z, 3)]
    assert squarefree_decomposition((z - 3) * (z - 3) * (z + 1) * (z + 1)) == [((z - 3) * (z + 1), 2)]
    assert squarefree_decomposition(RatPoly([5], "z")) == []
    with pytest.raises(ValueError):
        squarefree_decomposition(RatPoly.zero("z"))


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals(), min_size=1, max_size=3), st.integers(min_value=1, max_value=3))
def test_squarefree_decomposition_rebuilds(roots, extra_mult):
    z = RatPoly([0, 1], "z")
    f = RatPoly.one("z")
    for r in roots:
        f = f * (z - r)
    f = math.prod([z - Fraction(99)] * extra_mult, start=f)
    rebuilt = RatPoly.one("z")
    for g, k in squarefree_decomposition(f):
        rebuilt = math.prod([g] * k, start=rebuilt)
    assert rebuilt == f.monic()


def _monic_sqf_list(f: RatPoly):
    """sympy's squarefree factorization of f as [(monic ascending coefficients, k)]."""
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(f.coeffs)), x, domain="QQ").sqf_list()
    return sorted(([Fraction(int(c.p), int(c.q)) for c in reversed(g.monic().all_coeffs())], k)
                  for g, k in factors)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=2, max_size=4),
    st.lists(st.integers(-4, 4), min_size=2, max_size=3),
    st.integers(min_value=1, max_value=3),
)
def test_squarefree_decomposition_matches_sympy(gc, hc, k):
    g, h = RatPoly(gc), RatPoly(hc)
    if g.degree < 1 or h.degree < 1:
        return
    f = math.prod([h] * k, start=g)
    got = sorted((list(part.coeffs), mult) for part, mult in squarefree_decomposition(f))
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
    """The certificate prime of a RatPoly, from its coefficients as (a, b, s) triples."""
    return exactmath._squarefree_certificate(list(map(exactmath._gaussian_parts, f.coeffs)))


def test_certificate_skips_an_unlucky_first_prime():
    z = RatPoly([0, 1], "z")
    (P0, _), (P1, _) = exactmath._CERTIFICATE[:2]
    # disc(z^2 - P0) = 4 P0: z^2 - P0 = z^2 mod P0, so only a later prime proves it
    f = z * z - P0
    assert certificate(f) == P1
    assert squarefree_decomposition(f) == [(f, 1)]
    # P0 divides the cleared leading coefficient: P0 is skipped, not asked
    f = P0 * z * z + z + 1
    assert certificate(f.monic()) == P1
    assert squarefree_decomposition(f) == [(f.monic(), 1)]


def test_certificate_without_a_lucky_prime_falls_back_to_yun():
    z = RatPoly([0, 1], "z")
    f = z * z - math.prod(P for P, _ in exactmath._CERTIFICATE)
    assert certificate(f) is None
    assert squarefree_decomposition(f) == [(f, 1)]
    assert certificate((z - 1) * (z - 1) * (z + 2)) is None


def test_certificate_maps_i_to_a_square_root_of_minus_one():
    z = RatPoly([0, 1], "z")
    f = (z - I) * (z + 2 * I) * (z - 1)
    assert certificate(f) is not None
    assert squarefree_decomposition(f) == [(f, 1)]
    # (z - i)^2 (z + 3) would look squarefree if i were mapped to anything else
    f = (z - I) * (z - I) * (z + 3)
    assert certificate(f) is None
    assert squarefree_decomposition(f) == [(z + 3, 1), (z - I, 2)]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(rationals(), min_size=2, max_size=4),
    st.lists(rationals(), min_size=2, max_size=4),
)
def test_resultant_vanishes_iff_common_factor(fc, gc):
    f, g = RatPoly(fc, "nu"), RatPoly(gc, "nu")
    if f.is_zero() or g.is_zero() or f.degree < 1 or g.degree < 1:
        return
    shares = gcd(f, g).degree >= 1
    assert (resultant(f, g) == 0) == shares


@settings(max_examples=30, deadline=None)
@given(
    st.lists(rationals(2), min_size=1, max_size=3),
    st.lists(rationals(2), min_size=1, max_size=3),
)
def test_discriminant_multiplicative(fc, gc):
    f = RatPoly(list(fc) + [1], "nu")
    g = RatPoly(list(gc) + [1], "nu")
    lhs = discriminant(f * g)
    rhs = discriminant(f) * discriminant(g) * resultant(f, g) * resultant(f, g)
    assert lhs == rhs


@pytest.mark.parametrize("shape", [(3, 3), (2, 4)])
def test_resonance_poly_is_sympys_discriminant_of_phi(shape):
    cd = char_determinant(random_operator(1, *shape))
    z, nu = sympy.symbols("z nu")
    phi = sum(_to_sympy(f, z).as_expr() * nu ** (cd.m - j) for j, f in enumerate(cd.phi))
    rho, degenerate = resonance_poly(cd)
    assert not degenerate
    assert list(rho.coeffs) == _from_sympy(sympy.Poly(sympy.discriminant(phi, nu), z, domain="QQ"))


def test_bipoly_eval_examples():
    D = (RatPoly([1]), RatPoly([0, -1]), RatPoly([1]))  # tau^2 - z*tau + 1 by its tau-coefficients

    def at(tau0):  # D(z, tau0), Horner in tau
        out = RatPoly.zero()
        for c in reversed(D):
            out = out * tau0 + c
        return out

    assert at(1) == RatPoly([2, -1])
    assert at(-1) == RatPoly([2, 1])
    assert at(I) == RatPoly([0, CRational(0, -1)])  # i^2 + 1 = 0 leaves -i*z
    assert [c(0) for c in D] == [1, 0, 1]


def test_bipoly_arithmetic_and_subs():
    # free(2, 2) has Phi = (nu - b)^2 with b = z^2/2 - 1: its nu-coefficients
    # expand the square, and substituting z = x gives (nu - b(x))^2 exactly
    branch = RatPoly([-1, 0, Fraction(1, 2)])
    cd = char_determinant(free_operator(2, 2))
    assert cd.phi == (RatPoly([1]), branch * -2, branch * branch)
    for x in (Fraction(-3), Fraction(1, 2), Fraction(5, 3)):
        factor = RatPoly([-branch(x), 1], "nu")
        assert cd.nu_poly_at(x) == factor * factor


def test_laurent_bipoly_round_trip():
    # D / (c tau) = q[0] + q[1] (tau + 1/tau), and D comes back from q
    xi = (RatPoly([1]), RatPoly([0, -1]), RatPoly([1]))
    cd = build_char_determinant(xi, 1, 1, None)
    assert cd.c == -1
    assert cd.q == (RatPoly([0, 1]), RatPoly([-1]))
    assert tuple(cd.q[abs(i - 1)] * cd.c for i in range(3)) == xi
    assert cd.section(0) == RatPoly([0, 1])  # tau = i: i + 1/i = 0, so only z survives


def test_bipoly_resultant_discriminant():
    z = RatPoly([0, 1], "z")
    # Phi = nu^2 - z^2 = (nu - z)(nu + z), from D = (2 tau)^2 Phi: discriminant 4z^2
    xi = (RatPoly([1]), RatPoly.zero("z"), 2 - 4 * z * z, RatPoly.zero("z"), RatPoly([1]))
    assert resonance_poly(build_char_determinant(xi, 1, 2, None)) == (
        RatPoly([0, 0, 4]), False)
    # repeated branch Phi = (nu - z)^2: the discriminant vanishes identically,
    # and the squarefree part nu - z has no branch points
    xi = (RatPoly([1]), -4 * z, 2 + 4 * z * z, -4 * z, RatPoly([1]))
    assert resonance_poly(build_char_determinant(xi, 1, 2, None)) == (
        RatPoly([1]), True)


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
    n = len(rows)
    exact = det_charpoly(rows)
    for P, _ in exactmath._CERTIFICATE[:2]:
        red = [[e % P for e in row] for row in rows]
        assert exactmath.charpoly(red, P) == [int(c) % P for c in exact.coeffs] + [0] * (n + 1 - len(exact.coeffs))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.one_of(rationals(9), gaussian_rationals(9), st.just(Fraction(0))), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_charpoly_over_q_and_qi_matches_gauss_jordan(rows):
    # zeros exercise the pivot search of the Hessenberg reduction; reduction
    # modulo (P, i - i_P) maps Q(i) with denominators prime to P onto GF(P)
    exact = det_charpoly(rows).coeffs
    for P, i in exactmath._CERTIFICATE[:2]:
        def red(x):
            a, b, s = exactmath._gaussian_parts(x)
            return (a + b * i) * pow(s, -1, P) % P

        want = [red(c) for c in exact] + [0] * (len(rows) + 1 - len(exact))
        assert exactmath.charpoly([[red(x) for x in row] for row in rows], P) == want


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=9))
def test_interpolation_and_crt_recover_integer_coefficients(coeffs):
    # three 61-bit primes hold every integer of at most 182 bits in symmetric range
    primes = [P for P, _ in exactmath._CERTIFICATE]
    xs = range(-(len(coeffs) // 2), len(coeffs) - len(coeffs) // 2)
    f = RatPoly(coeffs)
    residues = [interpolate(xs, [int(f(x)) % P for x in xs], P) for P in primes]
    assert exactmath._crt(residues, primes) == coeffs


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.lists(rationals(5), max_size=7),
        st.lists(gaussian_rationals(), max_size=7),
    ),
    st.integers(-3, 3),
)
def test_interpolate_round_trip(coeffs, start):
    f = RatPoly(coeffs, "w")
    xs = [Fraction(start + k, 2) for k in range(len(coeffs) + 1)]
    g = interpolate(xs, [f(x) for x in xs])
    assert len(g) == len(xs) and RatPoly(g, "w") == f


def test_det_inv_singular_and_complex():
    assert det_inv([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == (0, None)
    d, inv = det_inv([[I, CRational(1)], [CRational(-1), I]])
    assert d == Fraction(0) and inv is None
    d2, inv2 = det_inv([[I, CRational(0)], [CRational(0), I]])
    assert d2 == -1 and isinstance(d2, Fraction)
    assert inv2 == [[-I, 0], [0, -I]]
