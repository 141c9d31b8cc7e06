import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from polyref import Z, coeffs

from blochjac.fixtures import free_operator
from blochjac.numerics import (
    DEFAULT_REL_TOL,
    RootFindingError,
    certified_roots,
    roots_all,
)
from blochjac.operators import floquet_eigs


def test_roots_quadratic():
    rs = roots_all([-4, 0, 1])
    assert abs(rs[0] - (-2)) < 1e-10 and abs(rs[1] - 2) < 1e-10


def test_roots_multiplier_equation():
    # tau^2 - z*tau + 1 at z = 3
    rs = roots_all([1, -3, 1])
    golden = (3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2
    assert abs(rs[0] - golden[0]) < 1e-10
    assert abs(rs[1] - golden[1]) < 1e-10


def test_roots_double_root_clusters():
    # 4z^2 + 4z + 1 has the double root -1/2
    rs = roots_all([1, 4, 4])
    assert len(rs) == 2
    assert all(abs(r - (-0.5)) < 1e-7 for r in rs)


def test_roots_zero_roots_factored():
    rs = roots_all([0, 0, -1, 1])  # z^2 (z - 1)
    assert sum(1 for r in rs if r == 0) == 2
    assert abs(rs[-1] - 1) < 1e-10


def test_roots_deterministic():
    cs = [3, -2, 0, 1, 5]
    assert roots_all(cs) == roots_all(cs)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=8),
                min_size=1, max_size=8, unique=True))
def test_roots_recover_rational_roots(roots):
    f = coeffs(math.prod(Z - r for r in roots))
    got = roots_all(list(map(complex, f)))
    assert len(got) == len(roots)
    for g, w in zip(got, sorted(roots)):
        # rounding the coefficients c_k to doubles alone moves the simple
        # root w by up to about eps * sum |c_k| |w|^k / |f'(w)|
        scale = sum(abs(c) * abs(w) ** k for k, c in enumerate(f))
        slope = sum(k * c * w ** (k - 1) for k, c in enumerate(f) if k)
        assert abs(g - float(w)) < max(1e-9, 4 * sys.float_info.epsilon * float(scale / abs(slope)))


def test_roots_error_carries_best_iterate():
    # Wilkinson's polynomial of degree 80, its coefficients rounded to
    # doubles: the iterates stay finite but miss the residual contract
    f = coeffs(math.prod(Z - j for j in range(1, 81)))
    with pytest.raises(RootFindingError) as ei:
        roots_all(list(map(float, f)))
    # the message names the size of the miss against the contract
    found = re.fullmatch(r"root refinement did not meet the residual contract \(rel_tol=1e-12\): "
                         r"worst scaled residual (\S+)", str(ei.value))
    assert found and DEFAULT_REL_TOL < float(found[1]) < math.inf


def test_roots_nan_iterates_fail_the_contract():
    # the start radius 2 * 6e10 raised to the 36th power overflows, so the
    # iterates leave the float range; the first one that is not finite ends
    # the iteration, so NaN never reaches the residual check
    with pytest.raises(OverflowError, match="float range"):
        roots_all([1.0] + [6e10] * 35 + [1.0])


def test_roots_refuse_a_start_radius_beyond_the_float_range():
    # the one root, -1e308, is a float, but the start radius 2e308 is not
    with pytest.raises(OverflowError, match="float range"):
        roots_all([1e308, 1.0])


def test_roots_wilkinson_20_within_the_contract():
    # a start radius of 1 + max|c_k/c_n| = 1 + 20! overflows in its 20th power
    f = coeffs(math.prod(Z - j for j in range(1, 21)))
    rs = roots_all(list(map(complex, f)))
    assert len(rs) == 20
    # float coefficients move these roots by up to about 1e-2 (Wilkinson)
    assert all(abs(r - j) < 0.05 for r, j in zip(rs, range(1, 21)))


def test_roots_start_radius_scales_with_the_roots():
    # four roots of modulus 1e40; 1 + max|c_k/c_n| = 1e160 overflows in its 4th power
    cs = [1.0, 0.0, 0.0, 0.0, 1e-160]
    rs = roots_all(cs)
    assert all(abs(abs(r) - 1e40) <= 1e-12 * 1e40 for r in rs)


def test_roots_rejects_constants():
    with pytest.raises(ValueError):
        roots_all([5])


def test_hermitian_eigs_free_floquet_cosines():
    # L(tau) of free(2, 1) is [[0, 1 + conj(tau)], [1 + tau, 0]]
    for x in (0.3, 1.1, 2.9):
        eigs = floquet_eigs(free_operator(2, 1), complex(math.cos(x), math.sin(x)))
        want = sorted(2 * math.cos((x + 2 * math.pi * n) / 2) for n in range(2))
        assert all(abs(e - w) <= 1e-9 for e, w in zip(eigs, want, strict=True))


@pytest.mark.parametrize("root", [Fraction(0), Fraction(-7, 3), Fraction(2 * 10**100),
                                  1 + Fraction(3, 2**54), 1 + Fraction(1, 2**53), Fraction(1, 10**300),
                                  -Fraction(1, 2**1076), -Fraction(1, 2**1075), Fraction(-3, 8)])
def test_certified_roots_are_the_nearest_doubles(root):
    # 1 + 3/2^54 lies nearer to 1 + 2^-52 than to 1; 1 + 2^-53 is a tie,
    # which float rounds to even, 1; a root at or near 0 gets an absolute
    # bracket, and one that rounds to zero, the tie -2^-1075 included, is +0.0;
    # two eigenvalues one ulp apart count a root once, one at a double (0, -3/8) too
    g = [-root.numerator, root.denominator]
    x = float(root)
    nearest = x or 0.0
    for seed in (x, x + 1e-15 * max(1.0, abs(x))):
        for found in (certified_roots(g, [seed, 4.0], True), certified_roots(g, [seed], False)):
            assert found == [nearest] and math.copysign(1.0, found[0]) == math.copysign(1.0, nearest)
    assert certified_roots(g, [x, math.nextafter(x, math.inf)], True) == [nearest]


def test_certified_roots_count_only_real_roots():
    # z^2 + 1 has no real root; two Aberth seeds share the real part 0
    assert certified_roots([1, 0, 1], [0.0, 0.0], False) == []
