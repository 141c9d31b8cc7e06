import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from blochjac.fixtures import (
    example2_const,
    example3,
    example4,
    free_operator,
    random_operator,
)
from blochjac.inverse import (
    InconsistentDataError,
    SpectralData,
    coefficient_blocks,
    constrained_poly,
    cosine_matrix,
    forward_spectral_data,
    half_degree,
    recover_determinant,
    snap_to_rational,
    _cosine_sum,
    _max_root_distance,
)
from blochjac.spectral import (
    band_structure,
    band_structure_from_char,
    char_determinant,
    resonances,
    surface_poly,
)

KAPPAS = (0.0, math.pi, math.pi / 2, math.pi / 3)


def data_for(op, m, subset_rule="ascending", seed=0):
    return forward_spectral_data(op, KAPPAS[: m + 1], subset_rule=subset_rule, seed=seed)


def test_half_degree_values():
    # p=2, m=2: s drops by one every p degrees, n=0 is the special top row
    assert [half_degree(2, 2, n) for n in range(5)] == [2, 1, 1, 0, 0]
    assert half_degree(3, 1, 0) == 1
    assert half_degree(3, 1, 2) == 0


def test_half_degree_rejects_out_of_range():
    with pytest.raises(ValueError):
        half_degree(2, 2, 5)
    with pytest.raises(ValueError):
        half_degree(2, 2, -1)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 2), (2, 3), (1, 1)])
def test_coefficient_blocks_tile(p, m):
    blocks = coefficient_blocks(p, m)
    assert len(blocks) == m + 1
    seen = [n for block in blocks for n in block]
    assert sorted(seen) == list(range(p * m + 1))
    for s, block in enumerate(blocks):
        assert all(half_degree(p, m, n) == s for n in block)


def _columns(solve, n):
    """W, the inverse of the matrix whose k-th column is solve(e_k)."""
    inverse = np.array([solve([float(i == k) for i in range(n)]) for k in range(n)]).T
    return np.linalg.inv(inverse)


def test_cosine_matrix_two_frequencies():
    solve = cosine_matrix((0.0, math.pi))
    assert np.allclose(_columns(solve, 2), [[1, 1], [1, -1]])
    assert solve([3, 1]) == [pytest.approx(2), pytest.approx(1)]


def test_cosine_matrix_three_frequencies():
    solve = cosine_matrix((0.0, math.pi, math.pi / 2))
    assert np.allclose(_columns(solve, 3), [[1, 1, 1], [1, -1, 1], [1, 0, -1]], atol=1e-15)


def test_cosine_matrix_close_but_distinct():
    solve = cosine_matrix((0.0, 0.1))
    got = solve([2.0, 1.0 + math.cos(0.1)])
    assert got == [pytest.approx(1), pytest.approx(1)]


def test_cosine_matrix_rejects_equal_cosines():
    with pytest.raises(ValueError, match="too close"):
        cosine_matrix((0.0, 2 * math.pi))


def test_constrained_poly_single_root():
    assert constrained_poly([0], [1]) == [0j, 1 + 0j]


def test_constrained_poly_forced_factor():
    # prescribe z^3 and z^2 coefficients over roots {1, -1}: g = z is forced
    got = constrained_poly([1, -1], [0, 1])
    assert got == [0j, -1 + 0j, 0j, 1 + 0j]


def test_constrained_poly_double_root():
    assert constrained_poly([0, 0], [1]) == [0j, 0j, 1 + 0j]


def test_constrained_poly_block_taller_than_root_factor():
    # one root but four prescribed coefficients: the solve reaches below the
    # root factor's degree and must not wrap around the coefficient list
    got = constrained_poly([2], [1, 2, 3, 1])
    assert got[1:] == [1 + 0j, 2 + 0j, 3 + 0j, 1 + 0j]
    val = sum(c * 2**i for i, c in enumerate(got))
    assert abs(val) < 1e-12


def test_constrained_poly_random_consistency():
    rng = random.Random(11)
    for _ in range(40):
        k = rng.randint(1, 4)
        s = rng.randint(0, 3)
        roots = [complex(rng.uniform(-2, 2), rng.uniform(-1, 1)) for _ in range(k)]
        tops = [complex(rng.uniform(-2, 2)) for _ in range(s)] + [complex(rng.uniform(0.5, 2))]
        r = constrained_poly(roots, tops)
        assert len(r) == k + s + 1
        assert r[k:] == pytest.approx(tops)
        for root in roots:
            val = sum(c * root**i for i, c in enumerate(r))
            assert abs(val) < 1e-9 * (1 + max(abs(c) for c in r))


def recovered_section(rec, kappa):
    """Ascending z-coefficients of the recovered q(., e^{i kappa}), summed as recovery sums them."""
    m = len(rec.q) - 1
    p = (len(rec.q[0]) - 1) // m
    return [_cosine_sum([rec.q[j][n] for j in range(half_degree(p, m, n) + 1)], kappa)
            for n in range(p * m + 1)]


def test_eta_table_free_rows():
    rec = recover_determinant(data_for(free_operator(2, 1), 1))
    # z^n coefficient rows: n = 0 has a tau term, the others are constant in tau
    assert [[rec.q[j][n] for j in range(2)] for n in range(3)] == [
        pytest.approx(r) for r in ([-2, -1], [0, 0], [1, 0])
    ]
    assert recovered_section(rec, 0.0) == pytest.approx([-4, 0, 1])


def test_eta_table_top_row_is_monic():
    rec = recover_determinant(data_for(example3(1), 2))
    assert [rec.q[j][4] for j in range(3)] == pytest.approx([1, 0, 0])
    assert rec.q[2][0] == pytest.approx(1)  # 1/c and c = 1 here


def test_forward_free_scalar():
    sd = data_for(free_operator(2, 1), 1)
    assert sd.lambda_sets[0] == pytest.approx((-2, 2))
    assert sd.lambda_sets[1] == pytest.approx((0,))


def test_forward_free_block_sizes_and_values():
    sd = data_for(free_operator(2, 2), 2)
    assert [len(s) for s in sd.lambda_sets] == [4, 3, 1]
    assert sd.lambda_sets[0] == pytest.approx((-2, -2, 2, 2))
    assert sd.lambda_sets[2] == pytest.approx((-math.sqrt(2),))


def test_forward_data_does_not_build_the_determinant(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("forward data must come from the Floquet matrix")

    for name in ("char_determinant", "squarefree_decomposition"):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "blochjac" and name in vars(mod):
                monkeypatch.setattr(mod, name, refuse)
    root2 = math.sqrt(2)
    # free(2, 2) at kappa = 0, pi, pi/2: every eigenvalue is at least double
    asc = data_for(free_operator(2, 2), 2, "ascending")
    desc = data_for(free_operator(2, 2), 2, "descending")
    assert asc.lambda_sets[0] == pytest.approx((-2, -2, 2, 2), abs=1e-12)
    assert asc.lambda_sets[1] == pytest.approx((0, 0, 0), abs=1e-12)
    assert asc.lambda_sets[2] == pytest.approx((-root2,), abs=1e-12)
    assert desc.lambda_sets[1] == pytest.approx((0, 0, 0), abs=1e-12)
    assert desc.lambda_sets[2] == pytest.approx((root2,), abs=1e-12)


def test_forward_subset_rules_differ():
    op = example3(1)
    asc = data_for(op, 2, "ascending")
    desc = data_for(op, 2, "descending")
    assert asc.lambda_sets[0] == pytest.approx(desc.lambda_sets[0])
    assert asc.lambda_sets[1] != pytest.approx(desc.lambda_sets[1])
    # both are sub-multisets of the same antiperiodic spectrum
    golden = (1 + math.sqrt(5)) / 2
    assert asc.lambda_sets[1] == pytest.approx((-1, 1 - golden, 0))
    assert desc.lambda_sets[1] == pytest.approx((1 - golden, 0, golden))


def test_forward_random_rule_is_seeded():
    op = example3(1)
    one = data_for(op, 2, "random", seed=3)
    two = data_for(op, 2, "random", seed=3)
    other = data_for(op, 2, "random", seed=4)
    assert one == two
    assert one != other


def test_forward_rejects_unknown_rule():
    with pytest.raises(ValueError, match="subset rule"):
        forward_spectral_data(free_operator(2, 1), (0.0, math.pi), subset_rule="middle")


def test_forward_rejects_wrong_frequency_count():
    with pytest.raises(ValueError, match="frequencies"):
        forward_spectral_data(free_operator(2, 1), (0.0, math.pi, 1.0))


def test_recover_free_scalar_by_hand():
    sd = SpectralData(p=2, m=1, kappas=(0.0, math.pi), lambda_sets=((-2, 2), (0,)))
    rec = recover_determinant(sd)
    assert rec.c == pytest.approx(-1)
    assert rec.q[0] == pytest.approx((-2, 0, 1))
    assert rec.q[1] == pytest.approx((-1, 0, 0))
    snapped = snap_to_rational(rec)
    assert snapped.xi == char_determinant(free_operator(2, 1)).xi


@pytest.mark.parametrize("rule", ["ascending", "descending", "random"])
@pytest.mark.parametrize(
    "op,m",
    [
        (example3(1), 2),
        (example4(Fraction(1, 2)), 2),
        (example2_const(2), 2),
        (free_operator(3, 2), 2),
    ],
    ids=["example3", "example4", "const-beta2", "free32"],
)
def test_round_trip_exact_after_snap(op, m, rule):
    direct = char_determinant(op)
    rec = recover_determinant(data_for(op, m, rule, seed=7))
    assert snap_to_rational(rec).xi == direct.xi


@pytest.mark.parametrize("seed,p,m", [(21, 2, 2), (33, 3, 1), (5, 2, 3)])
def test_round_trip_float_coefficients(seed, p, m):
    op = random_operator(seed, p, m)
    direct = char_determinant(op)
    for rule in ("ascending", "descending", "random"):
        rec = recover_determinant(data_for(op, m, rule, seed=seed))
        for j in range(m + 1):
            exact = [complex(direct.q[j].coeff(n)) for n in range(p * m + 1)]
            for got, want in zip(rec.q[j], exact):
                assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def test_recovery_is_order_independent():
    op = random_operator(13, 2, 2)
    sd = data_for(op, 2)
    base = recover_determinant(sd)
    rng = random.Random(99)
    shuffled = []
    for lam in sd.lambda_sets:
        mixed = list(lam)
        rng.shuffle(mixed)
        shuffled.append(tuple(mixed))
    rec = recover_determinant(sd._replace(lambda_sets=tuple(shuffled)))
    for j in range(3):
        for a, b in zip(rec.q[j], base.q[j]):
            assert abs(a - b) <= 1e-9


def test_recovered_sections_reproduce_inputs():
    op = random_operator(17, 3, 2)
    sd = data_for(op, 2)
    rec = recover_determinant(sd)
    distances = [_max_root_distance(recovered_section(rec, k), lam)
                 for k, lam in zip(sd.kappas, sd.lambda_sets)]
    assert max(distances) <= 1e-7
    assert rec.residuals == tuple(distances)


def test_wrong_cardinality_rejected():
    sd = data_for(example3(1), 2)
    short = list(sd.lambda_sets)
    short[1] = short[1][:-1]
    with pytest.raises(InconsistentDataError, match="lambda set 1"):
        recover_determinant(sd._replace(lambda_sets=tuple(short)))


def test_duplicate_cosines_rejected():
    sd = data_for(example3(1), 2)
    with pytest.raises(InconsistentDataError, match="coincide"):
        recover_determinant(sd._replace(kappas=(0.0, math.pi, 2 * math.pi)))


def test_corrupted_eigenvalue_yields_different_determinant():
    # a moved eigenvalue keeps the data formally interpolable (every solve
    # stays square), so recovery succeeds but lands on a different q; the
    # residual guard is about numerical breakdown, not realizability
    sd = data_for(example3(1), 2)
    bad = [list(lam) for lam in sd.lambda_sets]
    bad[1][0] += 0.3
    rec = recover_determinant(sd._replace(lambda_sets=tuple(tuple(l) for l in bad)))
    assert abs(rec.c - 1) > 0.1


def test_max_root_distance_measures_corruption():
    clean = data_for(example3(1), 2)
    section = recovered_section(recover_determinant(clean), math.pi)
    assert _max_root_distance(section, clean.lambda_sets[1]) <= 1e-9
    corrupted = [clean.lambda_sets[1][0] + 0.25] + list(clean.lambda_sets[1][1:])
    assert _max_root_distance(section, corrupted) > 0.05


def test_snap_rejects_complex_dirt():
    rec = recover_determinant(data_for(example3(1), 2))
    dirty = dict(rec.D)
    dirty[1] = tuple(v + 1e-4j for v in dirty[1])
    with pytest.raises(InconsistentDataError, match="not near a small rational"):
        snap_to_rational(rec._replace(D=dirty))


def test_downstream_bands_and_resonances_match():
    op = example4(Fraction(1, 2))
    direct = char_determinant(op)
    recovered = snap_to_rational(recover_determinant(data_for(op, 2)))
    bands_direct = band_structure(op)
    bands_rec = band_structure_from_char(recovered, surface_poly(recovered))
    assert len(bands_rec.segments) == len(bands_direct.segments)
    for sa, sb in zip(bands_rec.segments, bands_direct.segments):
        assert sa.lo == pytest.approx(sb.lo, abs=1e-6)
        assert sa.hi == pytest.approx(sb.hi, abs=1e-6)
        assert sa.multiplicity == sb.multiplicity
    res_direct = resonances(surface_poly(direct))
    res_rec = resonances(surface_poly(recovered))
    assert len(res_rec.values) == len(res_direct.values)
    for a, b in zip(res_rec.values, res_direct.values):
        assert abs(a - b) <= 1e-6
