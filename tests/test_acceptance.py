"""Acceptance battery: each test prints one PASS/FAIL line for its criterion.

Run with `pytest tests/test_acceptance.py -v` to get the per-criterion
verdicts both as pytest lines and as printed summaries.
"""

import cmath
import functools
import math
import random
from fractions import Fraction

import pytest
import sympy
from polyref import Z, coeffs, expr
from testops import random_operator, realified_charpoly, rotation_operator

from blochjac.exactmath import det_inv, horner, mat_mul
from blochjac.fixtures import (
    example1_diag,
    example2_const,
    example3,
    example4,
    free_operator,
)
from blochjac.inverse import (
    InconsistentDataError,
    forward_spectral_data,
    recover_determinant,
    snap_to_rational,
)
from blochjac.numerics import roots_all
from blochjac.operators import (
    _floquet_layout,
    floquet_eigs,
    monodromy_at,
    transfer_parts,
)
from blochjac.spectral import (
    _eigs_at_tau,
    band_structure,
    build_char_determinant,
    char_determinant,
    classify_gaps,
    lyapunov_at,
    resonances,
    verify_identities,
)

KAPPAS = (0.0, math.pi, math.pi / 2, math.pi / 3)
SHAPES = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)]


def coeff(f, k):
    """The z^k coefficient of a polynomial f."""
    return f[k] if k < len(f) else 0


def is_symplectic(M, J):
    """M^T J M == J, on exact scalar matrices."""
    return mat_mul([list(col) for col in zip(*M)], mat_mul(J, M)) == J


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL  {label}")
                raise
            print(f"criterion {num}: PASS  {label}")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def battery():
    """25 seeded rational operators with cached determinants and reports."""
    out = []
    for seed in range(25):
        p, m = SHAPES[seed % len(SHAPES)]
        op = random_operator(seed, p, m)
        out.append((op, char_determinant(op), verify_identities(op)))
    return out


def check_status(report, name):
    got = [c for c in report if c.name == name]
    assert got, f"no check named {name}"
    return got[0]


def interval_matches(bands, expected, tol=1e-9):
    """True when some branch's interval list equals expected within tol."""
    for intervals in bands:
        if len(intervals) != len(expected):
            continue
        if all(
            abs(lo - elo) <= tol and abs(hi - ehi) <= tol
            for (lo, hi), (elo, ehi) in zip(intervals, expected)
        ):
            return True
    return False


@criterion(1, "exact identity suite on 25 seeded operators")
def test_criterion_1_exact_identities(battery):
    for op, cd, _ in battery:
        p, m = op.p, op.m
        parts = transfer_parts(op)
        # the normalized M = P0 M_p P0^-1 with P0 = a_p^T (+) I_m
        zero = [Fraction(0)] * m
        P0 = [list(col) + zero for col in zip(*op.a_at(0))]
        P0 += [zero + [Fraction(i == j) for j in range(m)] for i in range(m)]
        J = [[(j == i + m) - (i == j + m) for j in range(2 * m)] for i in range(2 * m)]
        # 2pm + 1 points exceed the z-degrees of M^T J M and of every xi_s
        for x in (Fraction(2 * k - p * m, 3) for k in range(2 * p * m + 1)):
            Mp = [[Fraction(v) / parts.scale for v in row] for row in monodromy_at(parts, x)]
            assert is_symplectic(mat_mul(mat_mul(P0, Mp), det_inv(P0)[1]), J)
            # trace route, recomputed here from exact traces of M_p(x)
            power, traces = Mp, []
            for s in range(m):
                traces.append(sum(power[i][i] for i in range(2 * m)))
                power = mat_mul(power, Mp)
            xi = [Fraction(1)]
            for s in range(1, m + 1):
                xi.append(-sum(traces[s - j - 1] * xi[j] for j in range(s)) / s)
            assert [horner(cd.xi[s], x) for s in range(m + 1)] == xi
        for j in range(2 * m + 1):
            assert cd.xi[j] == cd.xi[2 * m - j]  # tau^2m D(z, 1/tau) = D(z, tau)
        for j in range(m + 1):
            assert len(cd.xi[j]) - 1 <= p * j


@criterion(2, "Floquet/monodromy equivalence, exact at 32 rational points of the circle")
def test_criterion_2_floquet_equivalence(battery):
    for _, _, report in battery:
        for label in ("1", "-1", "i"):
            assert check_status(report, f"floquet-determinant-tau={label}").status == "pass"
    rng = random.Random(2025)
    for k in range(32):
        op, cd, _ = battery[k % len(battery)]
        # ((u^2 - v^2) + 2uv i) / (u^2 + v^2) lies exactly on the unit circle
        u = rng.randint(1, 30)
        v = rng.choice([-1, 1]) * rng.randint(1, 30)
        norm = u * u + v * v
        re, im = sympy.Rational(u * u - v * v, norm), sympy.Rational(2 * u * v, norm)
        section = cd.section(Fraction(int(re.p), int(re.q)))  # nu = (tau + 1/tau)/2 = Re tau on the unit circle
        # 1/tau = conj(tau); L(tau) = A + B i is checked through its realification over Q
        layout = _floquet_layout(op.a, op.b, re + im * sympy.I, re - im * sympy.I)
        assert coeffs(expr(section) ** 2) == realified_charpoly(layout)
        eigs = floquet_eigs(op, complex(re + im * sympy.I))
        roots = roots_all(list(map(complex, section)))
        assert all(abs(r.imag) <= 1e-7 for r in roots)
        reals = sorted(r.real for r in roots)
        assert len(reals) == len(eigs)
        for a, b in zip(eigs, reals):
            assert abs(a - b) <= 1e-7


@criterion(3, "example3 t=1: traces, resonance polynomial, branches, band endpoints")
def test_criterion_3_example3_t1():
    op = example3(1)
    cd = char_determinant(op)
    assert cd.xi[1] == coeffs(-(2 * Z * Z - 5))  # first trace T1 = 2z^2 - 5
    rho = resonances(cd).rho
    assert coeffs(4 * expr(rho)) == coeffs(4 * Z * Z + 4 * Z + 1)
    d1 = (Z * Z - Z - 3) / 2
    d2 = (Z * Z + Z - 2) / 2
    assert cd.phi == ((1,), coeffs(-(d1 + d2)), coeffs(d1 * d2))  # Phi = (nu - d1)(nu - d2)
    bs = band_structure(cd)
    s5, s17, s21 = math.sqrt(5), math.sqrt(17), math.sqrt(21)
    branch1 = [((1 - s21) / 2, (1 - s5) / 2), ((1 + s5) / 2, (1 + s21) / 2)]
    branch2 = [(-(1 + s17) / 2, -1), (0, (s17 - 1) / 2)]
    assert interval_matches(bs.branch_bands, branch1)
    assert interval_matches(bs.branch_bands, branch2)


@criterion(4, "example4: t=0 bands [-1,3], [-2,2]; t=1/2 resonance gap")
def test_criterion_4_example4_bands_and_gap():
    op = example4(0)
    bs = band_structure(char_determinant(op))
    assert interval_matches(bs.branch_bands, [(-2, 2)])
    assert interval_matches(bs.branch_bands, [(-1, 3)])

    op = example4(Fraction(1, 2))
    bs = band_structure(char_determinant(op))
    gaps = classify_gaps(bs)
    t = 0.5
    lo = 0.5 - t / (2 * math.sqrt(t * t + 1))
    hi = 0.5 + t / (2 * math.sqrt(t * t + 1))
    matches = [
        g for g in gaps
        if g.kind == "resonance" and abs(g.lo - lo) <= 1e-9 and abs(g.hi - hi) <= 1e-9
    ]
    assert len(matches) == 1
    assert matches[0].multiplicity == 0  # a true spectral gap, not just a deficit


@criterion(5, "example2: beta=1 periodic/antiperiodic eigenvalues, beta=2 triple")
def test_criterion_5_example2_eigenvalues():
    cd = char_determinant(example2_const(1))
    per = [(v, k) for v, k, _ in _eigs_at_tau(cd, 1)]
    expected = [(-2, 2), (0, 1), (4, 1)]
    assert len(per) == len(expected)
    for (v, k), (ev, ek) in zip(per, expected):
        assert abs(v - ev) <= 1e-9 and k == ek
    anti = _eigs_at_tau(cd, -1)
    s2 = math.sqrt(2)
    assert len(anti) == 2
    for (v, k, _), ev in zip(anti, (-s2, s2)):
        assert abs(v - ev) <= 1e-9 and k == 2

    cd2 = char_determinant(example2_const(2))
    triple = [(v, k) for v, k, _ in _eigs_at_tau(cd2, 1) if abs(v + 2) <= 1e-9]
    assert triple and triple[0][1] == 3


@criterion(6, "moment identities, lower-bound equality cases, norm sandwich")
def test_criterion_6_trace_estimates(battery):
    moment_names = ("moment-1-coefficient", "moment-2-tau=1", "moment-2-tau=i")
    seen_pass = {name: 0 for name in moment_names}
    for op, _, report in battery:
        for name in moment_names:
            status = check_status(report, name).status
            assert status in ("pass", "n/a")
            seen_pass[name] += status == "pass"
        bound = check_status(report, "moment-2-lower-bound").status
        assert bound == "pass" if op.p >= 2 else bound == "n/a"
        assert check_status(report, "norm-sandwich").status == "pass"
    assert all(count >= 5 for count in seen_pass.values())

    # equality holds for b = 0 with a a^T a scalar multiple of the identity
    for op in (free_operator(2, 1), free_operator(3, 2), rotation_operator(3)):
        report = verify_identities(op)
        bound = check_status(report, "moment-2-lower-bound")
        assert bound.status == "pass" and bound.residual <= 1e-9
        assert check_status(report, "norm-sandwich-traceless").status == "pass"


@criterion(7, "free operator: determinant formula and 2cos((kappa+2 pi n)/p) spectrum")
def test_criterion_7_free_operator():
    for p in (2, 3, 4):
        for m in (1, 2):
            op = free_operator(p, m)
            cd = char_determinant(op)
            # D and block^m have tau-degree 2m, so 2m + 1 values of tau decide equality
            for tau0 in range(1, 2 * m + 2):
                block = tau0 * tau0 + 1 - sympy.chebyshevt(p, Z / 2) * (2 * tau0)
                # xi[j] is the coefficient of tau^(2m-j)
                d_at = sum(expr(f) * tau0 ** (2 * m - j) for j, f in enumerate(cd.xi))
                assert coeffs(d_at) == coeffs(block**m)
            for kappa in (0.0, math.pi / 3, math.pi / 2):
                eigs = floquet_eigs(op, cmath.exp(1j * kappa))
                expected = sorted(
                    2 * math.cos((kappa + 2 * math.pi * n) / p) for n in range(p)
                ) * m
                for a, b in zip(eigs, sorted(expected)):
                    assert abs(a - b) <= 1e-9


def _lift_to_exact(rec, p, m):
    xi = tuple(
        coeffs(expr([Fraction(v.real).limit_denominator(10**12) for v in rec.D[2 * m - j]]))
        for j in range(2 * m + 1)
    )
    return build_char_determinant(xi, p, m)


@criterion(8, "inverse round trip: 20 operators, 3 subset rules, bands to 1e-6")
def test_criterion_8_inverse_round_trip():
    for seed in range(40, 60):
        p = 2 + seed % 2
        m = 1 + seed % 3
        op = random_operator(seed, p, m)
        direct = char_determinant(op)
        kappas = KAPPAS[: m + 1]
        rec = None
        for rule in ("ascending", "descending", "random"):
            rec = recover_determinant(forward_spectral_data(op, kappas, subset_rule=rule, seed=seed))
            for j in range(m + 1):
                for n in range(p * m + 1):
                    want = complex(coeff(direct.q[j], n))
                    got = rec.q[j][n]
                    assert abs(got - want) <= 1e-6 * max(1.0, abs(want))
        try:
            recovered = snap_to_rational(rec)
        except InconsistentDataError:
            recovered = _lift_to_exact(rec, p, m)
        bands_direct = band_structure(direct)
        bands_rec = band_structure(recovered)
        assert len(bands_rec.segments) == len(bands_direct.segments)
        for a, b in zip(bands_rec.segments, bands_direct.segments):
            assert abs(a.lo - b.lo) <= 1e-6
            assert abs(a.hi - b.hi) <= 1e-6
            assert a.multiplicity == b.multiplicity


def _scalar_lyapunov(potentials, z):
    """Independent oracle: half-trace of the 2x2 scalar period-2 monodromy."""
    m = [[1.0, 0.0], [0.0, 1.0]]
    for v in potentials:
        t = [[0.0, 1.0], [-1.0, z - v]]
        m = [
            [t[0][0] * m[0][0] + t[0][1] * m[1][0], t[0][0] * m[0][1] + t[0][1] * m[1][1]],
            [t[1][0] * m[0][0] + t[1][1] * m[1][0], t[1][0] * m[0][1] + t[1][1] * m[1][1]],
        ]
    return (m[0][0] + m[1][1]) / 2


@criterion(9, "diagonal example matches scalar oracle; free m=2 sets degeneracy flag")
def test_criterion_9_degeneracy():
    op = example1_diag()  # potentials (1, -1) and (0, 2) on the two channels
    cd = char_determinant(op)
    for k in range(21):
        z = -3 + 0.3 * k
        expected = sorted((_scalar_lyapunov((1, -1), z), _scalar_lyapunov((0, 2), z)))
        got = lyapunov_at(cd, Fraction(z).limit_denominator(10))
        assert all(b.real for b in got)
        for b, e in zip(got, expected):
            assert abs(b.value.real - e) <= 1e-9

    free = resonances(char_determinant(free_operator(2, 2)))
    assert free.degenerate is True
