import functools
import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from polyref import Z, coeffs, expr, triples
from testops import random_operator, realified_charpoly, rotation_operator, scalar_operator

import blochjac.exactmath as exactmath
import blochjac.numerics as numerics_mod
import blochjac.spectral as spectral_mod
from blochjac.exactmath import (
    _primes,
    derivative,
    det_inv,
    discriminant,
    exact_div,
    gcd,
    horner,
    interpolate,
    mat_mul,
    squarefree_decomposition,
)
from blochjac.fixtures import (
    example2_const,
    example3,
    example4,
    free_operator,
)
from blochjac.numerics import certified_roots, roots_all
from blochjac.operators import (
    PeriodicOperator,
    _floquet_layout,
    floquet_eigs,
    monodromy_at,
    transfer_parts,
)
from blochjac.spectral import (
    BandStructure,
    InternalConsistencyError,
    Segment,
    _conjugate_symmetrize,
    _eigs_at_tau,
    band_structure,
    branch_values,
    build_char_determinant,
    char_determinant,
    classify_gaps,
    cross_validate,
    lyapunov_at,
    multipliers_at,
    resonance_poly,
    resonances,
    verify_identities,
)


def zpoly(*cs):
    """The polynomial with ascending coefficients cs, as a sympy expression in z."""
    return expr(cs)


def coeff(f, k):
    """The z^k coefficient of a polynomial f."""
    return f[k] if k < len(f) else 0


def free_block(p, tau0):
    """tau0^2 + 1 - 2 tau0 T_p(z/2), the single-band building block at tau = tau0."""
    tau0 = sympy.Rational(tau0)
    return sympy.chebyshevt(p, Z / 2) * (-2 * tau0) + (tau0 * tau0 + 1)


def charpoly(A):
    """det(zI - A) of an exact scalar matrix, interpolated from det_inv at len(A) + 1 points."""
    n = len(A)
    xs = range(n + 1)
    dets = [det_inv([[Fraction(x * (i == j)) - e for j, e in enumerate(row)] for i, row in enumerate(A)])[0]
            for x in xs]
    return coeffs(expr(interpolate(xs, dets)))


def monodromy_oracle(op, x):
    """M_p(x) as the exact Fraction product T_p(x) ... T_1(x), built from the blocks alone.

    T_n(x) = (0, I; -a_n^-1 a_(n-1)^T, a_n^-1 (x - b_n)), indices wrapping mod p.
    """
    m = op.m
    out = [[Fraction(i == j) for j in range(2 * m)] for i in range(2 * m)]
    for n in range(1, op.p + 1):
        inv = det_inv(op.a_at(n))[1]
        left = mat_mul(inv, [list(col) for col in zip(*op.a_at(n - 1))])
        shifted = [[x * (i == j) - op.b_at(n)[i][j] for j in range(m)] for i in range(m)]
        right = mat_mul(inv, shifted)
        T = [[Fraction(i + m == j) for j in range(2 * m)] for i in range(m)]
        T += [[-v for v in left[i]] + right[i] for i in range(m)]
        out = mat_mul(T, out)
    return out


def d_at(cd, tau0):
    """D(z, tau0), as a sympy expression: xi[j] is the coefficient of tau^(2m-j)."""
    n = len(cd.xi) - 1
    return sympy.expand(sum(expr(f) * sympy.Rational(tau0) ** (n - j) for j, f in enumerate(cd.xi)))


def test_char_determinant_minimal_free():
    cd = char_determinant(free_operator(1, 1))
    assert cd.xi == ((1,), (0, -1), (1,))
    assert cd.c == -1


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_char_determinant_free_formula(p, m):
    cd = char_determinant(free_operator(p, m))
    # both sides have tau-degree 2m, so 2m + 1 values of tau decide equality
    for k in range(2 * m + 1):
        tau0 = Fraction(2 * k - 1, 3)
        assert coeffs(d_at(cd, tau0)) == coeffs(free_block(p, tau0) ** m)
    assert cd.c == (-1) ** m


@pytest.mark.parametrize(
    "op,first_trace",
    [
        (example3(1), zpoly(-5, 0, 2)),
        (example3(Fraction(7, 3)), zpoly(-5, 0, 2)),
        (example4(0), zpoly(-3, -2, 2)),
        (example4(Fraction(1, 2)), zpoly(-3, -2, 2)),
        (example2_const(1), zpoly(1, 4, 2)),
    ],
)
def test_first_trace_coefficient(op, first_trace):
    # xi_1 = -Tr M_p, and the palindrome repeats it at xi_{2m-1}.
    cd = char_determinant(op)
    assert cd.xi[1] == coeffs(-first_trace)
    assert cd.xi[3] == coeffs(-first_trace)
    assert cd.c == 1


def test_free_q_is_laurent_symmetric():
    cd = char_determinant(free_operator(2, 1))
    assert cd.c == -1
    assert cd.q == ((-2, 0, 1), (-1,))
    # D / (c tau) has equal tau^1 and tau^-1 coefficients
    assert coeffs(expr(cd.xi[0]) / cd.c) == coeffs(expr(cd.xi[2]) / cd.c) == cd.q[1]


def test_example2_floquet_sections_factor():
    cd = char_determinant(example2_const(1))
    assert cd.section(1) == coeffs((Z + 2) ** 2 * ((Z - 2) ** 2 - 4))
    assert cd.section(-1) == coeffs((Z**2 - 2) ** 2)


def test_phi_free():
    cd = char_determinant(free_operator(3, 1))
    assert cd.phi == ((1,), coeffs(-sympy.chebyshevt(3, Z / 2)))
    cd2 = char_determinant(free_operator(2, 2))
    body = Z**2 / 2 - 1
    assert cd2.phi == ((1,), coeffs(body * (-2)), coeffs(body * body))


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 50),
    st.integers(1, 3),
    st.integers(1, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
)
def test_phi_identity(seed, p, m, tau):
    # (2 tau)^m Phi(z, (tau + 1/tau)/2) == D(z, tau), exactly, as polynomials in z
    cd = char_determinant(random_operator(seed, p, m))
    nu = sympy.Rational((tau + 1 / tau) / 2)
    phi_at = sum(expr(f) * nu ** (m - j) for j, f in enumerate(cd.phi))
    assert coeffs(phi_at * sympy.Rational(2 * tau) ** m) == coeffs(d_at(cd, tau))


def test_phi_example3_branch_product():
    cd = char_determinant(example3(1))
    d1 = zpoly(Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2))
    d2 = zpoly(-1, Fraction(1, 2), Fraction(1, 2))
    assert cd.phi == ((1,), coeffs(-(d1 + d2)), coeffs(d1 * d2))


def test_lyapunov_point_samples():
    cd = char_determinant(free_operator(2, 1))
    (b,) = lyapunov_at(cd, 0)
    assert b.real and abs(b.value - (-1)) < 1e-12
    (b,) = lyapunov_at(cd, 10)
    assert b.real and abs(b.value - 49) < 1e-9

    cd4 = char_determinant(example4(0))
    vals = [b.value for b in lyapunov_at(cd4, 0)]
    assert all(b.real for b in lyapunov_at(cd4, 0))
    assert abs(vals[0] - (-1)) < 1e-12 and abs(vals[1] - (-0.5)) < 1e-12


def test_lyapunov_is_exact_where_float_horner_is_not():
    # float Horner put phi_1 here off by 1.6e-5 relative
    cd = char_determinant(random_operator(2, 32, 1))
    z = 1.9044522261130563
    exact = float(-horner(cd.phi[1], Fraction(z)))
    (b,) = lyapunov_at(cd, complex(z, 0))
    assert b.real and abs(b.value - exact) <= 1e-12 * abs(exact)


def test_lyapunov_on_a_degenerate_surface_is_real_and_on_the_circle():
    # free(2, 2) has Phi = (nu - T_2(z/2))^2: every branch is double
    cd = char_determinant(free_operator(2, 2))
    for z in (-1.0, 0.0, 1.0, complex(1.0, 0.0)):
        branches = lyapunov_at(cd, z)
        assert all(b.real for b in branches)
        for pair in multipliers_at(branches):
            assert all(abs(abs(t) - 1) <= 1e-9 for t in pair)


def test_lyapunov_double_point_example3():
    # At a real zero of rho the two branches collide.
    cd = char_determinant(example3(2))
    z0 = (-1 + math.sqrt(3) / 2) / 2
    a, b = lyapunov_at(cd, z0)
    assert abs(a.value - b.value) < 1e-6
    # z0 carries float error, so the collision only pins the values up to
    # a sqrt(eps)-sized split; realness of each is not decidable here.
    assert abs(a.value.imag) < 1e-6 and abs(b.value.imag) < 1e-6


def exact_route_branch_values(cd, z):
    """branch_values by a route apart from D's factors: Phi(z, .) over Q(i) in sympy, its squarefree split, Aberth."""
    nu = sympy.Symbol("nu")
    zc = z if isinstance(z, Fraction) else complex(z)
    x = sympy.Rational(Fraction(zc.real)) + sympy.I * sympy.Rational(Fraction(zc.imag))
    phi = sympy.Poly(sum(expr(f).subs(Z, x) * nu ** (cd.m - j) for j, f in enumerate(cd.phi)), nu, domain="QQ_I")
    vals = []
    for g, k in phi.sqf_list()[1]:
        for r in roots_all([complex(a / s, b / s) for a, b, s in triples(g.monic().as_expr(), nu)]):
            vals.extend([r] * k)
    if not (isinstance(z, complex) and z.imag):
        vals = _conjugate_symmetrize(vals)
    return sorted(vals, key=lambda w: (w.real, w.imag))


@pytest.mark.parametrize("seed,p,m", [(1, 1, 2), (2, 2, 2), (3, 3, 2), (4, 1, 3), (5, 2, 3), (1, 3, 3), (7, 5, 1)])
def test_integer_branch_values_equal_the_exact_route(seed, p, m):
    cd = char_determinant(random_operator(seed, p, m))
    rng = random.Random(seed)
    points = [Fraction(rng.randint(-300, 300), rng.randint(1, 97)) for _ in range(4)]
    points += [rng.uniform(-3, 3) for _ in range(4)] + [complex(rng.uniform(-3, 3), 0.0)]
    points += [complex(rng.uniform(-3, 3), rng.uniform(-1, 1)) for _ in range(4)]
    for z in points:
        assert branch_values(cd, z) == exact_route_branch_values(cd, z)


def test_branch_values_on_a_double_branch_run_neither_yun_nor_a_certificate(monkeypatch):
    # free(2, 2) has Phi = (nu - T_2(z/2))^2, split once with D into F_2 = nu - T_2(z/2),
    # so each point evaluates a linear factor, which needs no proof
    cd = char_determinant(free_operator(2, 2))
    assert [k for _, k in cd.factors] == [2]
    points = [Fraction(1, 3), 0.5, complex(0.5, 0.25)] + [-3 + 6 * k / 49 for k in range(50)]
    want = [exact_route_branch_values(cd, z) for z in points]
    calls = []
    for name in ("_yun", "_squarefree_certificate"):
        real = getattr(exactmath, name)
        monkeypatch.setattr(exactmath, name, lambda f, real=real: calls.append(f) or real(f))
    for z, exact in zip(points, want):
        a, b = branch_values(cd, z)
        assert a == b
        assert [a, b] == exact
    assert calls == []


def crossing_operator():
    # p = 1, a_1 = diag(1, 2), b_1 = 0: the branches z/2 and z/4 make Phi
    # squarefree, a single factor F_1 of degree 2 with rho = z^2/16, and
    # meet at z = 0 only
    return PeriodicOperator([[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]], [[[Fraction(0)] * 2] * 2])


def count_calls(monkeypatch, *names):
    calls = {name: 0 for name in names}
    for name in names:
        real = getattr(exactmath, name)

        def counted(f, name=name, real=real):
            calls[name] += 1
            return real(f)

        monkeypatch.setattr(exactmath, name, counted)
    return calls


def test_integer_branch_values_fall_back_to_yun_on_a_double_branch(monkeypatch):
    # F_1(0, .) = nu^2 has a double root, so no prime proves it squarefree
    # (the exact route runs sympy, so it is taken before the count starts)
    cd = char_determinant(crossing_operator())
    assert [k for _, k in cd.factors] == [1]
    points = (Fraction(0), 0.0, complex(0.0, 0.0))
    want = [exact_route_branch_values(cd, z) for z in points]
    calls = count_calls(monkeypatch, "_yun")
    for z, exact in zip(points, want):
        a, b = branch_values(cd, z)
        assert a == b
        assert branch_values(cd, z) == exact
    assert calls["_yun"] == 6


def test_branch_values_runs_one_certificate_per_point_before_yun(monkeypatch):
    # F_1(x, .) is squarefree at each of 50 points off z = 0, so each is proved
    # by one certificate and none reaches Yun; at z = 0 the certificate fails
    # once and Yun splits the double branch
    cd = char_determinant(crossing_operator())
    calls = count_calls(monkeypatch, "_squarefree_certificate", "_yun")
    for k in range(50):
        branch_values(cd, -3 + 6 * k / 49)
    assert calls == {"_squarefree_certificate": 50, "_yun": 0}
    assert branch_values(cd, Fraction(0)) == [0j, 0j]
    assert calls == {"_squarefree_certificate": 51, "_yun": 1}


@pytest.mark.parametrize("m", [1, 2])
def test_integer_branch_values_name_a_coefficient_beyond_the_float_range(m):
    # distinct diagonal entries, so that Phi(0, .) is squarefree and the integer path runs
    big = [[Fraction(10**400) * (i + 1) * (i == j) for j in range(m)] for i in range(m)]
    ident = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    cd = char_determinant(PeriodicOperator([ident], [big]))
    with pytest.raises(ValueError, match=re.escape("Phi(z, nu) at z = 0.0 has a coefficient beyond the float range")):
        branch_values(cd, Fraction(0))


def test_multipliers_free():
    cd = char_determinant(free_operator(2, 1))
    ((t1, t2),) = multipliers_at(lyapunov_at(cd, 0))
    assert abs(t1 - (-1)) < 1e-9 and abs(t2 - (-1)) < 1e-9
    ((t1, t2),) = multipliers_at(lyapunov_at(cd, 3))
    assert abs(t1 * t2 - 1) < 1e-12
    assert abs(t2 - (3.5 + math.sqrt(11.25))) < 1e-9
    ((t1, t2),) = multipliers_at(lyapunov_at(cd, 1))  # inside the band
    assert abs(abs(t1) - 1) < 1e-12 and abs(abs(t2) - 1) < 1e-12


def test_resonance_poly_exact_families():
    rho, deg = resonance_poly(char_determinant(example3(1)))
    assert (rho, deg) == ((Fraction(1, 4), 1, 1), False)
    rho, deg = resonance_poly(char_determinant(example4(0)))
    assert (rho, deg) == ((Fraction(1, 4), -1, 1), False)
    # (2z+1)^2 (4z+9) / 4 for unit off-diagonal constant coefficients
    rho, deg = resonance_poly(char_determinant(example2_const(1)))
    assert (rho, deg) == (coeffs((2 * Z + 1) ** 2 * (4 * Z + 9) / 4), False)
    rho, deg = resonance_poly(char_determinant(free_operator(2, 1)))
    assert (rho, deg) == ((1,), False)


def test_resonance_poly_degenerate_free():
    rho, deg = resonance_poly(char_determinant(free_operator(2, 2)))
    assert deg is True
    assert rho == (1,)
    rs = resonances(char_determinant(free_operator(2, 2)))
    assert rs.values == () and rs.degenerate


def test_resonances_real_pair():
    rs = resonances(char_determinant(example3(2)))
    lo, hi = (-1 - math.sqrt(3) / 2) / 2, (-1 + math.sqrt(3) / 2) / 2
    assert len(rs.values) == 2 and all(rs.real)
    assert abs(rs.values[0] - lo) < 1e-12 and abs(rs.values[1] - hi) < 1e-12
    assert [k for _, k in rs.clusters] == [1, 1]


def test_resonances_complex_pair():
    rs = resonances(char_determinant(example3(Fraction(1, 2))))
    assert len(rs.values) == 2 and not any(rs.real)
    want = complex(-0.5, math.sqrt(3) / 2)
    assert abs(rs.values[0] - want.conjugate()) < 1e-12
    assert abs(rs.values[1] - want) < 1e-12
    assert rs.values[0] == rs.values[1].conjugate()


def test_resonances_double_point_example4():
    rs = resonances(char_determinant(example4(0)))
    assert rs.clusters == (((0.5 + 0j), 2),)
    assert rs.values == (0.5, 0.5) and all(rs.real)


def test_periodic_antiperiodic_free():
    cd = char_determinant(free_operator(2, 1))
    per = _eigs_at_tau(cd, 1)
    assert [m for _, m, _ in per] == [1, 1]
    assert abs(per[0][0] + 2) < 1e-12 and abs(per[1][0] - 2) < 1e-12
    assert [(v, k) for v, k, _ in _eigs_at_tau(cd, -1)] == [(0.0, 2)]


def test_periodic_antiperiodic_example2():
    cd = char_determinant(example2_const(1))
    per = _eigs_at_tau(cd, 1)
    assert [(round(v, 9), k) for v, k, _ in per] == [(-2.0, 2), (0.0, 1), (4.0, 1)]
    anti = _eigs_at_tau(cd, -1)
    r2 = math.sqrt(2)
    assert [k for _, k, _ in anti] == [2, 2]
    assert abs(anti[0][0] + r2) < 1e-12 and abs(anti[1][0] - r2) < 1e-12

    # beta = 2 merges the double periodic eigenvalue with a simple one.
    per = _eigs_at_tau(char_determinant(example2_const(2)), 1)
    assert [(round(v, 9), k) for v, k, _ in per] == [(-2.0, 3), (6.0, 1)]


def _signs_half_an_ulp_around(f, v):
    """The exact signs of the polynomial f at the midpoints between the double v and its two neighbours."""
    out = []
    for side in (-math.inf, math.inf):
        y = horner(f, (Fraction(v) + Fraction(math.nextafter(v, side))) / 2)
        out.append((y > 0) - (y < 0))
    return out


EDGE_SHAPES = [(p, m) for p in (1, 2, 3) for m in (1, 2, 3)] + [(2, 4), (16, 1), (32, 1)]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 50), st.sampled_from(EDGE_SHAPES))
def test_periodic_and_antiperiodic_edges_are_the_doubles_nearest_the_roots(seed, shape):
    # the edge theorem in doubles: each root of q(., +-1) comes out as the
    # double nearest to it, so the squarefree part of q(., +-1) changes sign,
    # or vanishes, between the half-ulp points around it; the multiplicities
    # add up to pm, so every root is found
    op = random_operator(seed, *shape)
    cd = char_determinant(op)
    edges = band_structure(cd).edges
    for tau0, kind in ((1, "periodic"), (-1, "antiperiodic")):
        f = cd.section(Fraction(tau0))
        g = exact_div(f, gcd(f, derivative(f)))
        roots = _eigs_at_tau(cd, tau0)
        assert sum(k for _, k, _ in roots) == op.p * op.m
        for v, _, _ in roots:
            below, above = _signs_half_an_ulp_around(g, v)
            assert below * above <= 0, (kind, v)
        assert {e.value for e in edges if e.kind == kind} <= {v for v, _, _ in roots}


@pytest.mark.parametrize("make", [
    lambda: random_operator(1, 3, 3), lambda: random_operator(1, 2, 4), lambda: random_operator(1, 32, 1),
    lambda: random_operator(2, 32, 1), lambda: free_operator(3, 2), lambda: example2_const(2),
])
def test_band_structure_does_not_depend_on_the_edge_seeds(make):
    # eigenvalues of the L(+-1) that D carries, or Aberth's roots where D
    # carries no operator, seed the same certified doubles
    cd = char_determinant(make())
    assert band_structure(cd) == band_structure(cd._replace(op=None))


def validated_bands(op):
    """band_structure of op's D, which cross-validates it against op's Floquet eigenvalues."""
    return band_structure(char_determinant(op))


def test_library_bands_of_a_long_block_operator_pass_cross_validation():
    # q(., 1) has degree 56 here, and Aberth's roots as seeds certify only 55
    # of its real roots; the D of an operator carries it, so the eigenvalues
    # of L(+-1) seed the edges on the library path as on the command line
    assert len(validated_bands(random_operator(1, 28, 2)).segments) == 56


def test_band_structure_free_single_band():
    bs = validated_bands(free_operator(2, 1))
    assert len(bs.segments) == 1
    seg = bs.segments[0]
    assert abs(seg.lo + 2) < 1e-9 and abs(seg.hi - 2) < 1e-9 and seg.multiplicity == 1
    assert len(bs.branch_bands) == 1 and len(bs.branch_bands[0]) == 1
    assert {(e.kind, round(e.value)) for e in bs.edges} == {("periodic", -2), ("periodic", 2)}


def _assert_segments(bs, expected, tol=1e-9):
    assert len(bs.segments) == len(expected)
    for seg, (lo, hi, mult) in zip(bs.segments, expected):
        assert abs(seg.lo - lo) < tol and abs(seg.hi - hi) < tol
        assert seg.multiplicity == mult
    for a, b in zip(bs.segments, bs.segments[1:]):
        assert a.hi <= b.lo + 1e-12


def test_band_structure_example4_t0():
    bs = validated_bands(example4(0))
    _assert_segments(bs, [(-2, -1, 1), (-1, 2, 2), (2, 3, 1)])
    bands = sorted(bs.branch_bands, key=lambda bands: bands[0][0])
    assert len(bands[0]) == 1 and len(bands[1]) == 1
    assert abs(bands[0][0][0] + 2) < 1e-9 and abs(bands[0][0][1] - 2) < 1e-9
    assert abs(bands[1][0][0] + 1) < 1e-9 and abs(bands[1][0][1] - 3) < 1e-9


def test_band_structure_example3_t1():
    s5, s17, s21 = math.sqrt(5), math.sqrt(17), math.sqrt(21)
    bs = validated_bands(example3(1))
    _assert_segments(
        bs,
        [
            (-(1 + s17) / 2, (1 - s21) / 2, 1),
            ((1 - s21) / 2, -1, 2),
            (-1, (1 - s5) / 2, 1),
            (0, (s17 - 1) / 2, 1),
            ((1 + s5) / 2, (1 + s21) / 2, 1),
        ],
    )
    bands = sorted(bs.branch_bands, key=lambda bands: bands[0][0])
    flat = [e for band in bands[0] for e in band], [e for band in bands[1] for e in band]
    want0 = [-(1 + s17) / 2, -1, 0, (s17 - 1) / 2]
    want1 = [(1 - s21) / 2, (1 - s5) / 2, (1 + s5) / 2, (1 + s21) / 2]
    assert all(abs(a - b) < 1e-9 for a, b in zip(flat[0], want0))
    assert all(abs(a - b) < 1e-9 for a, b in zip(flat[1], want1))


def test_classify_gaps_free_trivial():
    assert classify_gaps(validated_bands(free_operator(2, 1))) == []


def test_classify_gaps_example3_stable():
    op = example3(1)
    gaps = classify_gaps(validated_bands(op))
    s5 = math.sqrt(5)
    true_gaps = [g for g in gaps if g.multiplicity == 0]
    assert len(true_gaps) == 2
    g = true_gaps[0]
    assert abs(g.lo - (1 - s5) / 2) < 1e-9 and abs(g.hi - 0) < 1e-9
    assert g.kind == "stable"
    assert g.lo_kinds == ("antiperiodic",) and g.hi_kinds == ("antiperiodic",)
    assert true_gaps[1].kind == "stable"
    # every multiplicity-1 stretch is also reported for m = 2
    assert len(gaps) == 2 + sum(1 for s in validated_bands(op).segments if s.multiplicity == 1)


def test_classify_gaps_example4_resonance_gap():
    gaps = classify_gaps(validated_bands(example4(Fraction(1, 2))))
    shift = 0.5 / (2 * math.sqrt(1.25))
    res = [g for g in gaps if g.kind == "resonance"]
    assert len(res) == 1
    g = res[0]
    assert g.multiplicity == 0
    assert abs(g.lo - (0.5 - shift)) < 1e-9 and abs(g.hi - (0.5 + shift)) < 1e-9
    assert g.lo_kinds == ("resonance",) and g.hi_kinds == ("resonance",)


def test_branches_monotone_between_candidates():
    for op in (example4(0), example3(1)):
        cd = char_determinant(op)
        cands = sorted(
            [v for v, _, _ in _eigs_at_tau(cd, 1)]
            + [v for v, _, _ in _eigs_at_tau(cd, -1)]
            + [c.real for c, _ in resonances(cd).clusters if abs(c.imag) < 1e-9]
        )
        for left, right in zip(cands, cands[1:]):
            if right - left < 1e-8:
                continue
            xs = np.linspace(left, right, 67)[1:-1]
            rows = [sorted(b.value.real for b in lyapunov_at(cd, x) if b.real) for x in xs]
            if len({len(r) for r in rows}) != 1:
                continue
            for slot in range(len(rows[0])):
                track = [r[slot] for r in rows]
                if max(abs(v) for v in track) >= 1:
                    continue
                diffs = [b - a for a, b in zip(track, track[1:])]
                assert all(d > 0 for d in diffs) or all(d < 0 for d in diffs)


def test_band_edges_are_attained():
    op = example4(0)
    bs = validated_bands(op)
    samples = []
    for x in np.linspace(0.0, 2 * math.pi, 257):
        tau = complex(math.cos(x), math.sin(x))
        samples.extend(floquet_eigs(op, tau))
    for lo, hi, _ in bs.segments:
        inside = [s for s in samples if lo - 1e-9 <= s <= hi + 1e-9]
        width = hi - lo
        assert inside
        assert min(inside) <= lo + 0.05 * width
        assert max(inside) >= hi - 0.05 * width


def test_band_structure_deterministic():
    op = example4(Fraction(1, 2))
    assert validated_bands(op) == validated_bands(op)


@settings(max_examples=20, deadline=None)
@given(
    st.one_of(
        st.builds(
            random_operator,
            st.integers(0, 50),
            st.integers(1, 3),
            st.integers(1, 3),
        ),
        st.builds(free_operator, st.just(2), st.just(3)),
    )
)
def test_branch_bands_count_the_multiplicity_and_name_the_edges(op):
    bs = validated_bands(op)
    for seg in bs.segments:
        x = (seg.lo + seg.hi) / 2
        covering = sum(lo <= x <= hi for bands in bs.branch_bands for lo, hi in bands)
        assert covering == seg.multiplicity
    for edge in bs.edges:
        ends = tuple(
            j for j, bands in enumerate(bs.branch_bands)
            if any(edge.value in (lo, hi) for lo, hi in bands)
        )
        assert edge.branches == ends


def test_branch_bands_follow_the_sheets_through_a_crossing():
    # the branches z/2 and z/4 cross at z = 0, the double zero of rho, inside
    # [-1, 1]: by value alone the lower branch would change sheets there
    bs = validated_bands(crossing_operator())
    assert bs.segments == (Segment(-4.0, -2.0, 1), Segment(-2.0, 2.0, 2), Segment(2.0, 4.0, 1))
    assert bs.branch_bands == (((-2.0, 2.0),), ((-4.0, 4.0),))


@pytest.mark.parametrize("make,calls", [
    (crossing_operator, 1), (lambda: example3(1), 1), (lambda: random_operator(1, 3, 3), None),
    (lambda: random_operator(1, 16, 1), 0),
])
def test_band_structure_reads_branch_values_only_at_real_resonances(monkeypatch, make, calls):
    # membership is counted exactly; float branch values are read once at a
    # real zero of rho between two intervals, to follow the sheets, and never
    # at m = 1, where rho has no zero
    cd = char_determinant(make())
    edges = {x for x, _, _ in resonances(cd).proved}
    seen = []
    real = spectral_mod.branch_values
    monkeypatch.setattr(spectral_mod, "branch_values", lambda cd, z: seen.append(z) or real(cd, z))
    band_structure(cd)
    assert len(seen) == len(set(seen)) and set(seen) <= edges
    assert (len(seen) == calls) if calls is not None else seen


def separation_evaluations(monkeypatch):
    """A one-item list that counts the exact evaluations (_scaled_value) made inside spectral._between."""
    count, inside = [0], [False]
    real_value, real_between = numerics_mod._scaled_value, spectral_mod._between

    def value(*args):
        count[0] += inside[0]
        return real_value(*args)

    def between(v, factors):
        inside[0] = True
        try:
            return real_between(v, factors)
        finally:
            inside[0] = False

    for module in (numerics_mod, spectral_mod):
        monkeypatch.setattr(module, "_scaled_value", value)
    monkeypatch.setattr(spectral_mod, "_between", between)
    return count


@pytest.mark.parametrize("k", [60, 150, 400, 2100])
def test_between_separates_two_roots_2_to_the_minus_k_apart(monkeypatch, k):
    # sqrt(2) and sqrt(2 + 2^-k) round to one double; halving every bracket
    # one bit a round took 704 evaluations at k = 400, and at k = 2100 its
    # cap of 2048 rounds took the two roots as one and returned no separator
    count = separation_evaluations(monkeypatch)
    (r,) = spectral_mod._between(math.sqrt(2), [[-2, 0, 1], [-(2**(k + 1) + 1), 0, 2**k]])
    assert 2 < r * r < 2 + Fraction(1, 2**k)
    assert count[0] <= 60


def test_between_orders_the_separators_of_three_roots_at_one_double():
    # z^2 = 2 + 2^-81, 2 and 2 + 2^-80, listed out of order
    r, s = spectral_mod._between(math.sqrt(2), [[-(2**82 + 1), 0, 2**81], [-2, 0, 1], [-(2**81 + 1), 0, 2**80]])
    assert 2 < r * r < 2 + Fraction(1, 2**81) < s * s < 2 + Fraction(1, 2**80)


def test_between_separates_a_root_on_the_end_of_the_rounding_interval():
    # 1 + 2^-53 is the midpoint of 1.0 and the next double, and rounds to 1.0
    assert certified_roots([-(2**53 + 1), 2**53], [1.0], False) == [1.0]
    (r,) = spectral_mod._between(1.0, [[-(2**53 + 1), 2**53], [-1, 1]])
    assert 1 < r < 1 + Fraction(1, 2**53)


@pytest.mark.parametrize("factors", [[[-2, 0, 1], [-2, 0, 1]], [[-2, 0, 1], [6, -2, -3, 1]],
                                     [[6, -2, -3, 1], [-2, 0, 1], [-2, 0, 1]]])
def test_between_counts_a_shared_root_once(monkeypatch, factors):
    # z^2 - 2 and (z^2 - 2)(z - 3) share sqrt(2) exactly; no prime proves them
    # coprime, and their gcd changes sign across the rounding interval, so no
    # bracket is refined; the halvings used to run to the cap of 2048
    count = separation_evaluations(monkeypatch)
    assert spectral_mod._between(math.sqrt(2), factors) == []
    assert count[0] <= 2


def test_bands_of_two_sheets_sharing_an_irrational_edge(monkeypatch):
    # two decoupled sheets: at the roots of z^2 - z - 1 one is periodic and
    # the other antiperiodic, so the factors of q(., 1) and q(., -1) share the
    # roots -0.618... and 1.618...; each is one edge of both kinds, and its
    # separation used to run all 2048 halvings
    half, one, two, zero = Fraction(1, 2), Fraction(1), Fraction(2), Fraction(0)
    op = PeriodicOperator([[[half, zero], [zero, one]], [[half, zero], [zero, two]]],
                          [[[zero, zero], [zero, zero]], [[one, zero], [zero, one]]])
    count = separation_evaluations(monkeypatch)
    bs = validated_bands(op)
    assert bs.segments == (Segment(-2.5413812651491097, 0.0, 1), Segment(1.0, 3.5413812651491097, 1))
    for v in (-0.6180339887498949, 1.618033988749895):
        assert sorted(e.kind for e in bs.edges if e.value == v) == ["antiperiodic", "periodic"]
    assert count[0] <= 20


def test_band_structure_at_period_128_separates_every_thin_band(monkeypatch):
    # 49 of the 128 bands are thinner than one double; one bit a round took
    # 4338 evaluations to separate their edges
    count = separation_evaluations(monkeypatch)
    segments = validated_bands(random_operator(1, 128, 1)).segments
    assert len(segments) == 128 and sum(s.lo == s.hi for s in segments) == 49
    assert count[0] <= 1500


def test_cross_validation_refuses_one_band_of_multiplicity_3_over_every_band():
    # the segment holds every Floquet eigenvalue of (1; 3,3), so only the
    # count of the branches at its midpoint can refuse it
    op = random_operator(1, 3, 3)
    segs = validated_bands(op).segments
    lo, hi = segs[0].lo, segs[-1].hi
    fake = BandStructure((Segment(lo, hi, 3),), (), ())
    cross_validate(op, fake, [])
    with pytest.raises(InternalConsistencyError, match=re.escape(f"interval [{lo}, {hi}] has multiplicity 3, but ")):
        cross_validate(op, fake, [(lo, hi, 3)])


def test_cross_validation_refuses_a_single_wrong_multiplicity(monkeypatch):
    # one gap of (1; 3,3) counted as one branch inside makes a spurious band:
    # every Floquet eigenvalue still lies in a band, and the count refuses it
    cd = char_determinant(random_operator(1, 3, 3))
    real = spectral_mod._counts
    intervals = []
    monkeypatch.setattr(spectral_mod, "_counts", lambda cd, x: intervals.append((x, real(cd, x))) or intervals[-1][1])
    band_structure(cd)
    gap = next(x for x, (_, inside, _) in intervals if not inside)

    def one_more(cd, x):
        below, inside, n = real(cd, x)
        return below, inside + (x == gap), n

    monkeypatch.setattr(spectral_mod, "_counts", one_more)
    cross_validate(cd.op, band_structure(cd._replace(op=None)), [])
    with pytest.raises(InternalConsistencyError, match=r"has multiplicity 1, but .* cross its midpoint 0 times"):
        band_structure(cd)


def test_cross_validation_allows_opposite_steps_within_one_phase_step():
    # at (17; 2,3) both branches on the interval [0.976705466788988,
    # 0.9767054879802972] are cos(theta) with theta below the first phase
    # step, one rising and one falling, so #{lam < x} at its midpoint steps
    # up and down between the phases 0 and pi/128 and is seen to change 0
    # times against a multiplicity of 2
    assert len(validated_bands(random_operator(17, 2, 3)).segments) == 11


def test_cross_validation_guard():
    op = free_operator(2, 1)
    fake = BandStructure((Segment(-0.5, 0.5, 1),), (), ((-0.5, 0.5),))
    # the first miss in (phase, ascending eigenvalue) order is named
    with pytest.raises(InternalConsistencyError) as exc:
        cross_validate(op, fake, [])
    assert str(exc.value) == "Floquet eigenvalue -2.0 at x=0.0 misses every band by 1.5"


@pytest.mark.parametrize("grid", [257])
def test_cross_validation_visits_the_linspace_phases(monkeypatch, grid):
    # the grid is odd, so pi is one of its phases
    op = free_operator(2, 1)
    bands = band_structure(char_determinant(op))
    taus = []
    real = spectral_mod.floquet_eigs
    monkeypatch.setattr(spectral_mod, "floquet_eigs", lambda op, tau: taus.append(tau) or real(op, tau))
    cross_validate(op, bands, [])
    assert taus == [complex(math.cos(x), math.sin(x)) for x in np.linspace(0.0, 2 * math.pi, grid)]
    assert taus[grid // 2] == complex(math.cos(math.pi), math.sin(math.pi))


@pytest.mark.parametrize("lo,hi", [(-3.0, math.nan), (math.nan, 3.0), (math.nan, math.nan)])
def test_cross_validation_fails_a_band_with_a_nan_edge(lo, hi):
    # (-3, 3) holds every Floquet eigenvalue of free(2, 1); a NaN edge must not pass
    op = free_operator(2, 1)
    fake = BandStructure((Segment(lo, hi, 1),), (), ((lo, hi),))
    with pytest.raises(InternalConsistencyError, match="misses every band by nan"):
        cross_validate(op, fake, [])


def _times_two_to(op, k):
    """2^k L: every entry of a and b multiplied by 2^k."""
    scale = Fraction(2) ** k
    return PeriodicOperator(*([[[x * scale for x in row] for row in mat] for mat in grp] for grp in (op.a, op.b)))


@functools.cache
def _answers_times_two_to(shape, k):
    """The bands, gaps and verify statuses of 2^k L, L = random_operator(*shape)."""
    op = _times_two_to(random_operator(*shape), k)
    bs = band_structure(char_determinant(op))
    return bs, classify_gaps(bs), [c.status for c in verify_identities(op)]


def _item_15(cause):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item 15: {cause}")


SCALE_SHAPES = [(1, 3, 3), (1, 16, 1), (1, 2, 3), (1, 4, 2)]


@pytest.mark.parametrize("shape,k", [(shape, k) for shape in SCALE_SHAPES for k in (-30, -10, 10, 30)]
                         + [(shape, k) for shape in [(1, 16, 1), (1, 4, 2)] for k in (60, 100)]
                         + [((1, 16, 1), -40)]
                         + [pytest.param(shape, -40, marks=_item_15("Aberth's stagnation test is absolute near 0, "
                                                                    "so rho's roots miss the residual contract"))
                            for shape in SCALE_SHAPES if shape[2] >= 2]
                         + [pytest.param((1, 3, 3), 60, marks=_item_15("rho has a coefficient beyond the float "
                                                                       "range: it is rounded in z, not balanced"))])
def test_two_to_the_k_times_the_operator_has_two_to_the_k_times_the_bands(shape, k):
    # every exact edge scales by 2^k, and each printed edge is the double
    # nearest to one, so it scales exactly; the Floquet oracle's bound is
    # relative, so it passes the same bands at every scale
    bs, gaps, statuses = _answers_times_two_to(shape, 0)
    f = 2.0 ** k
    got_bs, got_gaps, got_statuses = _answers_times_two_to(shape, k)
    assert got_bs.segments == tuple(s._replace(lo=s.lo * f, hi=s.hi * f) for s in bs.segments)
    assert got_bs.edges == tuple(e._replace(value=e.value * f) for e in bs.edges)
    assert got_bs.branch_bands == tuple(tuple((lo * f, hi * f) for lo, hi in bands) for bands in bs.branch_bands)
    assert got_gaps == [g._replace(lo=g.lo * f, hi=g.hi * f) for g in gaps]
    assert got_statuses == statuses


@pytest.mark.parametrize("shape", [(1, 2, 3), (1, 4, 2)])
def test_d_is_exactly_scale_covariant_through_huge_lifts(shape):
    # 2^k L - z = 2^k (L - z / 2^k), so xi_j of 2^k L is xi_j of L at z / 2^k
    # and its z^i coefficient is divided by 2^(k i); at |k| = 997 each route
    # lifts its point values over 100 (2,3) or 132 (4,2) primes
    op = random_operator(*shape)
    xi = char_determinant(op).xi
    for k in (-997, -300, 300, 997):
        want = tuple(tuple(c / Fraction(2) ** (k * i) for i, c in enumerate(f)) for f in xi)
        assert char_determinant(_times_two_to(op, k)).xi == want


def test_dual_route_tamper_detected(monkeypatch):
    # one wrong residue, at one point modulo one prime, in either route; a
    # route call's point is the x of the monodromy_at call just before it
    seen, used, points = [], {}, {}
    real_monodromy = spectral_mod.monodromy_at

    def recording_monodromy(parts, x):
        seen.append(x)
        return real_monodromy(parts, x)

    monkeypatch.setattr(spectral_mod, "monodromy_at", recording_monodromy)
    for name in ("_route_one", "_route_two"):
        used[name], points[name] = set(), set()

        def recording(parts, N, P, _real=getattr(spectral_mod, name), _name=name):
            used[_name].add(P)
            points[_name].add(seen[-1])
            return _real(parts, N, P)

        monkeypatch.setattr(spectral_mod, name, recording)
    char_determinant(random_operator(1, 2, 2))
    assert used["_route_one"] and used["_route_two"]
    assert not used["_route_one"] & used["_route_two"]
    assert len(points["_route_one"]) == len(points["_route_two"]) == 5
    assert not points["_route_one"] & points["_route_two"]

    for name in ("_route_one", "_route_two"):
        real = getattr(spectral_mod, name)
        for op in (free_operator(2, 1), random_operator(1, 2, 2)):
            calls = []

            def tampered(parts, N, P):
                out = real(parts, N, P)
                calls.append(P)
                if len(calls) == 2:
                    out[1] = (out[1] + 1) % P
                return out

            with monkeypatch.context() as patch:
                patch.setattr(spectral_mod, name, tampered)
                with pytest.raises(InternalConsistencyError, match="disagree"):
                    char_determinant(op)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (16, 1)])
def test_a_fault_in_the_shared_interpolation_is_detected(monkeypatch, shape):
    # an interpolation that takes its points to be 0, 1, ... returns D(z + s)
    # for the route's first point s, which the routes' disjoint points tell apart
    real = spectral_mod.interpolate

    def from_zero(xs, ys, P=None):
        return real(range(len(ys)), ys, P)

    monkeypatch.setattr(spectral_mod, "interpolate", from_zero)
    with pytest.raises(InternalConsistencyError, match="disagree"):
        char_determinant(random_operator(1, *shape))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 50),
    st.sampled_from([(p, m) for p in (1, 2, 3) for m in (1, 2, 3)] + [(2, 4), (4, 1), (8, 1)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
    st.integers(-3, 3),
)
def test_d_matches_the_pointwise_transfer_product(seed, shape, x, tau):
    # sum_j xi_j(x) tau^(2m-j) against det(M_p(x) - tau I), exact at a rational x
    op = random_operator(seed, *shape)
    cd = char_determinant(op)
    M = monodromy_oracle(op, x)
    want = det_inv([[v - tau * (i == j) for j, v in enumerate(row)] for i, row in enumerate(M)])[0]
    assert sum(horner(f, x) * tau ** (2 * op.m - j) for j, f in enumerate(cd.xi)) == want


def test_d_skips_a_prime_that_divides_a_denominator(monkeypatch):
    P = next(_primes())[0]
    half = Fraction(1, 2)
    op = PeriodicOperator([[[1, half], [0, 3]], [[2, 0], [1, 1]]],
                          [[[Fraction(1, P), 0], [0, -1]], [[0, half], [half, 1]]])
    assert transfer_parts(op).scale % P == 0
    moduli = set()
    for name in ("_route_one", "_route_two"):
        def recording(parts, N, Q, _real=getattr(spectral_mod, name)):
            moduli.add(Q)
            return _real(parts, N, Q)

        monkeypatch.setattr(spectral_mod, name, recording)
    cd = char_determinant(op)
    assert moduli and P not in moduli
    for x in (Fraction(-1, 3), Fraction(2), Fraction(7, 5)):
        M = monodromy_oracle(op, x)
        for tau in (-2, 1, 3):
            want = det_inv([[v - tau * (i == j) for j, v in enumerate(row)] for i, row in enumerate(M)])[0]
            assert sum(horner(f, x) * tau ** (4 - j) for j, f in enumerate(cd.xi)) == want


def distinct_60_bit_operator():
    """p = 16, m = 1, a_n = 1, b_n = 1 / q_n for 16 distinct 60-bit q_n, so step n has denominator q_n."""
    return scalar_operator([1] * 16, [Fraction(1, 2**59 + 2 * n + 1) for n in range(16)])


@pytest.mark.parametrize("make", [lambda: random_operator(1, 64, 1), lambda: random_operator(1, 4, 5),
                                  distinct_60_bit_operator], ids=["64,1", "4,5", "16,1 with 60-bit denominators"])
def test_d_matches_the_pointwise_transfer_product_past_small_shapes(make):
    op = make()
    cd = char_determinant(op)
    x, tau = Fraction(-5, 7), 3
    M = monodromy_oracle(op, x)
    assert monodromy_at(transfer_parts(op), x) == [[transfer_parts(op).scale * v for v in row] for row in M]
    want = det_inv([[v - tau * (i == j) for j, v in enumerate(row)] for i, row in enumerate(M)])[0]
    assert sum(horner(f, x) * tau ** (2 * op.m - j) for j, f in enumerate(cd.xi)) == want


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 50),
    st.sampled_from([(p, m) for p in (1, 2, 3) for m in (1, 2, 3)] + [(2, 4)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(lambda x: x.denominator > 1),
)
def test_resonance_poly_is_the_pointwise_discriminant(seed, shape, x):
    # rho is interpolated from integer points, so non-integer x checks its degree bound
    cd = char_determinant(random_operator(seed, *shape))
    rho, degenerate = resonance_poly(cd)
    assert not degenerate
    # Phi(x, .) ascending in nu, from D's coefficients rather than its factors
    assert horner(rho, x) == discriminant(tuple(horner(f, x) for f in reversed(cd.phi)))


def partially_degenerate_operator():
    """p = 2, m = 3, a = I, b_1 = diag(0, 0, 2), b_2 = 0: two free channels and one shifted."""
    ident = [[Fraction(i == j) for j in range(3)] for i in range(3)]
    b1 = [[Fraction(0)] * 3 for _ in range(3)]
    b1[2][2] = Fraction(2)
    return PeriodicOperator([ident, ident], [b1, [[Fraction(0)] * 3 for _ in range(3)]])


def test_resonance_poly_partial_degeneracy_skips_unlucky_points():
    # Phi = (nu - D0)^2 (nu - D2) with D0 = (z^2 - 2)/2 and D2 = (z^2 - 2z - 2)/2,
    # so F_1 = nu - D2, F_2 = nu - D0 and rho = disc(F_1 F_2) = (D0 - D2)^2 = z^2.
    # At the centre sample z = 0 all three branches meet, so that point must
    # not set the pattern of the factors
    cd = char_determinant(partially_degenerate_operator())
    ((_, k),) = squarefree_decomposition([exactmath._gaussian_parts(horner(f, 0)) for f in reversed(cd.phi)])
    assert k == 3
    # at z = 1, F_1 = nu - D2(1) = nu + 3/2 and F_2 = nu - D0(1) = nu + 1/2
    assert [(exactmath._exact_form(parts), k) for parts, k in cd.phi_at(Fraction(1))] == [
        ((Fraction(3, 2), 1), 1), ((Fraction(1, 2), 1), 2)]
    assert resonance_poly(cd) == ((0, 0, 1), True)


def test_phi_factors_skip_points_where_two_factors_share_a_root():
    # Phi = F_1 F_2^2 with F_1 = nu^2 - z^4 and F_2 = nu - z^2 - 24z, as D = (2 tau)^4
    # Phi((tau + 1/tau)/2) of period 2. The first of the 25 sample points,
    # z = -12, splits into two factors, (nu - 144) (nu + 144)^3, as the
    # generic points do, but with other degrees, and z = 0 into nu^4; neither
    # may enter the interpolation of F_1 and F_2
    nu, tau = sympy.symbols("nu tau")
    f1, f2 = nu**2 - Z**4, nu - Z**2 - 24 * Z
    phi = sympy.Poly(f1 * f2**2, nu).all_coeffs()
    D = sympy.Poly(sympy.expand(sum(c * (2 * tau) ** j * (tau**2 + 1) ** (4 - j) for j, c in enumerate(phi))), tau)
    cd = build_char_determinant(tuple(coeffs(D.coeff_monomial(tau ** (8 - j))) for j in range(9)), 2, 4)
    for x in (-12, 0, 3):
        want = [(coeffs(f.subs(Z, x), nu), k) for f, k in ((f1, 1), (f2, 2))]
        assert [(exactmath._exact_form(parts), k) for parts, k in cd.phi_at(Fraction(x))] == want
    assert resonance_poly(cd) == (coeffs(sympy.discriminant(f1 * f2, nu)), True)


def test_free_operator_2_8_resonance_poly_is_degenerate_one():
    rho, degenerate = resonance_poly(char_determinant(free_operator(2, 8)))
    assert rho == (1,) and degenerate


def test_char_determinant_4_4_floquet_identity():
    op = random_operator(7, 4, 4)
    cd = char_determinant(op)
    assert [coeff(q, 16) for q in cd.q] == [1, 0, 0, 0, 0]
    assert cd.section(1) == charpoly(_floquet_layout(op.a, op.b, Fraction(1), Fraction(1)))
    # tau0 = i, nu0 = 0: L(i) = A + B i is checked through its realification over Q
    assert coeffs(expr(cd.section(0)) ** 2) == realified_charpoly(_floquet_layout(op.a, op.b, sympy.I, -sympy.I))


def test_floquet_determinant_check_passes_at_every_tau_at_64_1():
    op = random_operator(1, 64, 1)
    cd = char_determinant(op)
    for re, im in ((1, 0), (-1, 0), (0, 1)):
        assert spectral_mod._floquet_determinant_holds(op, cd.section(re), re, im)


def test_floquet_determinant_check_takes_every_prime_its_bound_needs():
    # two scaled coefficients of det(t I - d L(1)) lie beyond half the first
    # prime P, so the bound needs a second prime; moving each by exactly P to
    # its symmetric residue gives a section that a check modulo P alone accepts
    op = random_operator(1, 16, 1)
    section = char_determinant(op).section(1)
    d = math.lcm(*(x.denominator for grp in (op.a, op.b) for mat in grp for row in mat for x in row))
    P = next(_primes())[0]
    scaled = [c * d ** (16 - k) for k, c in enumerate(section)]
    moved = [c - P if c > P / 2 else c + P if c < -P / 2 else c for c in scaled]
    assert sum(c != v for c, v in zip(scaled, moved)) == 2 and all(abs(v) < P / 2 for v in moved)
    assert spectral_mod._floquet_determinant_holds(op, section, 1, 0)
    off = tuple(Fraction(v, d ** (16 - k)) for k, v in enumerate(moved))
    assert not spectral_mod._floquet_determinant_holds(op, off, 1, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_row_sum_bound_dominates_every_charpoly_coefficient(rows):
    # char_determinant bounds the coefficients of t^n .. t^(n-m) only, the
    # Floquet check all of them; both rest on this bound
    n = len(rows)
    cp = charpoly(rows)
    sums = [sum(map(abs, row)) for row in rows]
    for top in range(n + 1):
        bound = spectral_mod._row_sum_bound(sums, top)
        assert all(abs(cp[n - k]) <= bound for k in range(top + 1))


def _sympy_real_root_count(f) -> int:
    return len(sympy.Poly(expr(f), Z, domain="QQ").intervals())


def test_resonances_3_4_are_finite_with_the_exact_real_count():
    # rho has degree 36 and coefficients up to 293 bits; a start circle of
    # radius 1 + max|c_k/c_n| = 2.3e15 overflows in its 36th power
    rs = resonances(char_determinant(random_operator(1, 3, 4)))
    assert len(rs.rho) - 1 == 36 and len(rs.values) == 36
    assert all(math.isfinite(v.real) and math.isfinite(v.imag) for v in rs.values)
    assert sum(rs.real) == _sympy_real_root_count(rs.rho) == 16


def test_resonances_4_4_complete():
    # Aberth puts some real roots of this rho off the axis, unpaired, with
    # imaginary parts up to 8e-5; their real parts still seed certified zeros
    rs = resonances(char_determinant(random_operator(7, 4, 4)))
    assert len(rs.values) == len(rs.rho) - 1 == 48
    assert all(math.isfinite(v.real) and math.isfinite(v.imag) for v in rs.values)
    assert sum(rs.real) == _sympy_real_root_count(rs.rho) == 18
    assert sum(v.imag > 0 for v in rs.values) == sum(v.imag < 0 for v in rs.values) == 15


RESONANCE_SHAPES = [(p, m) for p in (1, 2, 3) for m in (2, 3)] + [(2, 4), (4, 3)]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 50), st.sampled_from(RESONANCE_SHAPES))
def test_real_resonances_are_counted_exactly_and_are_the_nearest_doubles(seed, shape):
    # the real zeros of rho are certified like the roots of q(., +-1): as
    # many are flagged real as sympy isolates, the others pair up, and each
    # resonance edge of the bands is the double nearest to a root of rho's
    # squarefree part, whose sign changes between the half-ulp points
    op = random_operator(seed, *shape)
    cd = char_determinant(op)
    rs = resonances(cd)
    want = sum(k for _, k in sympy.Poly(expr(rs.rho), Z, domain="QQ").intervals())
    assert sum(rs.real) == want
    assert sum(v.imag > 0 for v in rs.values) == sum(v.imag < 0 for v in rs.values)
    g = exact_div(rs.rho, gcd(rs.rho, derivative(rs.rho))) if len(rs.rho) > 1 else rs.rho
    for e in band_structure(cd).edges:
        if e.kind == "resonance":
            below, above = _signs_half_an_ulp_around(g, e.value)
            assert below * above <= 0, e.value


def test_build_char_determinant_rejects_bad_shapes():
    one = (Fraction(1),)
    with pytest.raises(InternalConsistencyError, match="tau-degree 1"):
        build_char_determinant((one, (0, -1)), 1, 1)
    with pytest.raises(InternalConsistencyError, match="palindrome"):
        build_char_determinant((one, (0, -1), (2,)), 1, 1)
    with pytest.raises(InternalConsistencyError, match="exceeds"):
        build_char_determinant((one, (0, 0, -1), one), 1, 1)
    with pytest.raises(InternalConsistencyError, match="deg xi_m"):
        build_char_determinant((one, (), one), 1, 1)


def _status(report, name):
    (row,) = [c for c in report if c.name == name]
    return row.status


def test_verify_symplectic_check_fails_on_a_non_symplectic_monodromy(monkeypatch):
    # doubling a row doubles det M_p, and M^T W M = W forces det M = +-1
    real = spectral_mod.monodromy_at

    def doubled_row(parts, x):
        M = real(parts, x)
        M[0] = [2 * v for v in M[0]]
        return M

    op = random_operator(1, 2, 2)
    assert _status(verify_identities(op), "symplectic-normalization") == "pass"
    monkeypatch.setattr(spectral_mod, "monodromy_at", doubled_row)
    assert _status(verify_identities(op), "symplectic-normalization") == "fail"


@pytest.mark.parametrize("make,j", [(lambda: random_operator(1, 16, 1), 1), (lambda: random_operator(1, 3, 3), 2),
                                    (lambda: random_operator(1, 2, 4), 3), (lambda: free_operator(2, 6), 1)])
def test_verify_trace_check_fails_on_a_changed_factor_coefficient(monkeypatch, make, j):
    # Tr M^n = 2 sum T_n(Delta_j) reads f_1, f_2 and f_3 of each monic F_k;
    # adding 1/d to f_j's constant term in z breaks it at every point
    op = make()
    cd = char_determinant(op)
    assert _status(verify_identities(op), "trace-chebyshev-sampling") == "pass"
    (F, k), *rest = cd.factors
    d, c = F[-1 - j]
    changed = F[:-1 - j] + ((d, (c[0] + 1,) + c[1:] if c else (1,)),) + F[len(F) - j:]
    monkeypatch.setattr(spectral_mod, "char_determinant", lambda _: cd._replace(factors=((changed, k), *rest)))
    assert _status(verify_identities(op), "trace-chebyshev-sampling") == "fail"


def test_verify_trace_check_fails_on_a_factor_past_its_degree_bound(monkeypatch):
    # adding prod (z - x) over the 3p + 1 points x to f_1 leaves both sides
    # at every point as they were, so only the bound deg f_j <= p j makes the
    # points a proof; the bands are those of the true D
    op = random_operator(1, 3, 3)
    cd = char_determinant(op)
    (F, k), *rest = cd.factors
    d, c = F[-2]
    vanishing = sympy.Poly(sympy.prod([Z - x for x in range(-op.p, 2 * op.p + 1)]), Z).all_coeffs()[::-1]
    c = tuple(a + d * int(b) for a, b in itertools.zip_longest(c, vanishing, fillvalue=0))
    changed = cd._replace(factors=((F[:-2] + ((d, c),) + F[-1:], k), *rest))
    monkeypatch.setattr(spectral_mod, "band_structure", lambda _, bands=band_structure(cd): bands)
    monkeypatch.setattr(spectral_mod, "char_determinant", lambda _: changed)
    assert all(changed.phi_at(x) == cd.phi_at(x) for x in range(-op.p, 2 * op.p + 1))
    assert _status(verify_identities(op), "trace-chebyshev-sampling") == "fail"


def test_verify_identities_statuses():
    report = verify_identities(free_operator(3, 2))
    assert all(c.status != "fail" for c in report)
    assert _status(report, "moment-2-tau=1") == "pass"
    assert _status(report, "norm-sandwich-traceless") == "pass"

    report = verify_identities(example3(1))
    assert all(c.status != "fail" for c in report)
    assert _status(report, "moment-2-tau=1") == "n/a"
    assert _status(report, "moment-2-tau=i") == "pass"
    assert _status(report, "moment-1-coefficient") == "pass"

    report = verify_identities(free_operator(1, 2))
    assert all(c.status != "fail" for c in report)
    assert _status(report, "moment-1-coefficient") == "n/a"

    report = verify_identities(random_operator(11, 3, 2))
    assert all(c.status != "fail" for c in report)


def test_moment_bound_equality_cases():
    for op in (free_operator(2, 1), rotation_operator(3)):
        report = verify_identities(op)
        (row,) = [c for c in report if c.name == "moment-2-lower-bound"]
        assert row.status == "pass"
        assert abs(row.residual) < 1e-9


def _asymptotes(op, z0=1000.0):
    """(branch ratios, branch targets, rho ratio, rho target or None) at z = z0.

    With A_p = (a_1 ... a_p)^-1, the branches grow like nu_j(z) ~ z^p eig_j(A_p / 2)
    and rho(z) ~ disc(charpoly(A_p / 2)) z^(pm(m-1)); the rho target is None
    when the leading eigenvalues repeat and the asymptote says nothing.
    """
    p, m = op.p, op.m
    cd = char_determinant(op)
    scaled = sorted((b.value / z0**p for b in lyapunov_at(cd, z0)), key=lambda w: (w.real, w.imag))
    ap = det_inv(functools.reduce(mat_mul, op.a))[1]
    targets = sorted(np.linalg.eigvals(np.array([[float(x) / 2 for x in row] for row in ap])),
                     key=lambda w: (w.real, w.imag))
    rho, degenerate = resonance_poly(cd)
    dis = discriminant(charpoly([[Fraction(x) / 2 for x in row] for row in ap]))
    rho_ratio = complex(horner(rho, z0)) / z0 ** (p * m * (m - 1))
    return scaled, targets, rho_ratio, None if degenerate or dis == 0 else float(dis)


def _assert_branch_asymptote(scaled, targets):
    assert len(scaled) == len(targets)
    assert all(abs(s - t) <= 0.1 * abs(t) for s, t in zip(scaled, targets))


def test_leading_asymptotics_free():
    op = free_operator(2, 2)
    cd = char_determinant(op)
    pm = op.p * op.m
    assert [coeff(q, pm) for q in cd.q] == [1] + [0] * op.m
    assert coeff(cd.xi[op.m], pm) == cd.c
    assert all(len(cd.xi[j]) - 1 <= op.p * j for j in range(2 * op.m + 1))
    scaled, targets, _, rho_target = _asymptotes(op)
    _assert_branch_asymptote(scaled, targets)
    assert rho_target is None


def test_leading_asymptotics_scalar_and_block_family():
    for op in (scalar_operator([2], [0]), random_operator(11, 3, 2)):
        scaled, targets, rho_ratio, rho_target = _asymptotes(op)
        _assert_branch_asymptote(scaled, targets)
        assert abs(rho_ratio - rho_target) <= 0.1 * abs(rho_target)

    # example3 has repeated leading eigenvalues, so only the branches say anything
    scaled, targets, _, rho_target = _asymptotes(example3(1))
    _assert_branch_asymptote(scaled, targets)
    assert rho_target is None


def test_readme_library_example_runs(monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("Typical library use:", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    calls = []
    real = spectral_mod.char_determinant

    def counted(op):
        calls.append(op)
        return real(op)

    monkeypatch.setattr(spectral_mod, "char_determinant", counted)
    namespace = {}
    exec(block, namespace)
    assert namespace["gaps"] == []
    assert len(calls) == 1  # D is built once, and the bands reuse it
    assert namespace["cd"].op is namespace["op"]  # so L(+-1) seeds the edges
