import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from testops import random_operator

from blochjac import inverse
from blochjac.fixtures import (
    example2_const,
    example3,
    example4,
    free_operator,
)
from blochjac.inverse import (
    InconsistentDataError,
    SpectralData,
    forward_spectral_data,
    recover_determinant,
    require_spectral_data,
    snap_to_rational,
    _max_root_distance,
    _solve,
)
from blochjac.spectral import (
    band_structure,
    char_determinant,
    resonances,
)

KAPPAS = (0.0, math.pi, math.pi / 2, math.pi / 3)


def data_for(op, m, subset_rule="ascending", seed=0):
    return forward_spectral_data(op, KAPPAS[: m + 1], subset_rule=subset_rule, seed=seed)


def recovered_section(rec, kappa):
    """Ascending z-coefficients of the recovered q(., e^{i kappa}) = q_0 + sum_j 2 cos(j kappa) q_j."""
    weight = [1.0] + [2 * math.cos(j * kappa) for j in range(1, len(rec.q))]
    return [sum(w * v for w, v in zip(weight, column)) for column in zip(*rec.q.values())]


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
            exact = [complex(c) for c in direct.q[j]] + [0j] * (p * m + 1 - len(direct.q[j]))
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


def test_nearly_coincident_cosines_rejected():
    # pairwise 1e-7 apart, above the 1e-9 coincidence test, but the 3 x 3
    # cosine matrix cos(j kappa_r) has condition number above 1e12
    kappas = (0.1, 0.1 + 1e-6, 0.1 + 2e-6)
    sd = forward_spectral_data(example3(1), kappas)
    with pytest.raises(InconsistentDataError, match="kappa values too close"):
        recover_determinant(sd)


def test_close_but_distinct_cosines_recover_and_snap():
    # cos 0 - cos 0.1 = 5e-3 is small, but the system stays well conditioned
    op = random_operator(1, 2, 1)
    rec = recover_determinant(forward_spectral_data(op, (0.0, 0.1)))
    assert snap_to_rational(rec).xi == char_determinant(op).xi


def test_recovery_is_one_linear_solve(monkeypatch):
    solves = []
    original = inverse._solve

    def counted(A, b):
        solves.append((A, b))
        return original(A, b)

    monkeypatch.setattr(inverse, "_solve", counted)
    recover_determinant(data_for(random_operator(5, 2, 3), 3))
    # the other calls invert the small cosine matrices of the guard
    full = [(A, b) for A, b in solves if len(A) > 4]
    assert len(full) == 1
    A, rhs = full[0]
    # q_j has p(m - j) + 1 coefficients: 7 + 5 + 3 + 1 unknowns for p = 2, m = 3
    assert len(A) == 16 and all(len(row) == 16 for row in A) and len(rhs) == 16


@pytest.mark.parametrize("n", [1, 2, 5, 22, 91, 153])
def test_solve_matches_lapack_with_small_backward_error(n):
    rng = np.random.default_rng(n)
    for _ in range(2):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = np.array(_solve(A.tolist(), b.tolist()))
        want = np.linalg.solve(A, b)
        assert np.linalg.norm(x - want) <= 1e-14 * np.linalg.cond(A) * np.linalg.norm(want)
        backward = np.linalg.norm(A @ x - b, np.inf) / (np.linalg.norm(A, np.inf) * np.linalg.norm(x, np.inf))
        assert backward < 1e-15


def test_solve_returns_none_on_a_singular_matrix():
    assert _solve([[1, 2], [2, 4]], [1, 0]) is None
    assert _solve([[1, 0, 2], [3, 0, 1], [2, 0, 5]], [1, 1, 1]) is None  # an all-zero column
    assert _solve([[0j]], [1]) is None


def test_solve_survives_parts_near_the_float_limit():
    big = 1.7e308
    x = _solve([[big + big * 1j, 1], [1, big - big * 1j]], [big, 1j])
    assert len(x) == 2  # no OverflowError from abs() of a complex, no ZeroDivisionError
    assert _solve([[big, big], [big, big]], [1, 1]) is None


def test_singular_recovery_system_is_refused(monkeypatch):
    # z^1 mod h dropped from every set: the columns of the q_j z^1 are all zero
    original = inverse._remainders

    def drop_z1(h, top):
        out = original(h, top)
        out[1] = [0j] * len(out[1])
        return out

    monkeypatch.setattr(inverse, "_remainders", drop_z1)
    with pytest.raises(InconsistentDataError, match="the recovery system is singular"):
        recover_determinant(data_for(example3(1), 2))


def _cosine_matrix(kappas, s):
    return np.array([[math.cos(j * k) for j in range(s + 1)] for k in kappas[: s + 1]])


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=3),
    base=st.floats(min_value=-0.99, max_value=0.99),
    gaps=st.lists(st.floats(min_value=-9, max_value=-2), min_size=3, max_size=3),
    signs=st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=3),
)
def test_cosine_guard_refuses_whatever_the_2_norm_guard_refused(m, base, gaps, signs):
    # cosines base + sum of steps 10^g, g in [-9, -2]: nearly coincident
    cosines = [base]
    for g, sign in zip(gaps[:m], signs):
        cosines.append(cosines[-1] + sign * 10.0**g)
    kappas = tuple(math.acos(max(-1.0, min(1.0, c))) for c in cosines)
    sets = tuple((0.5,) * (m if j == 0 else m - j + 1) for j in range(m + 1))
    sd = SpectralData(p=1, m=m, kappas=kappas, lambda_sets=sets)
    try:
        require_spectral_data(sd)
    except InconsistentDataError:
        return  # coincident cosines, refused before any condition number
    if any(np.linalg.cond(_cosine_matrix(kappas, s)) > 1e12 for s in range(1, m + 1)):
        with pytest.raises(InconsistentDataError, match="kappa values too close"):
            recover_determinant(sd)


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


def test_snap_refuses_coefficients_without_a_common_small_denominator():
    # each coefficient of the ascending recovery sits near some small
    # rational, but together they need a common denominator beyond 10^6;
    # the descending recovery of the same operator snaps to its exact D
    op = random_operator(1, 3, 2)
    with pytest.raises(InconsistentDataError, match="common denominator of at least .*, above 1000000"):
        snap_to_rational(recover_determinant(data_for(op, 2, "ascending")))
    assert snap_to_rational(recover_determinant(data_for(op, 2, "descending"))).xi == char_determinant(op).xi


def test_downstream_bands_and_resonances_match():
    op = example4(Fraction(1, 2))
    direct = char_determinant(op)
    recovered = snap_to_rational(recover_determinant(data_for(op, 2)))
    bands_direct = band_structure(direct)
    bands_rec = band_structure(recovered)
    assert len(bands_rec.segments) == len(bands_direct.segments)
    for sa, sb in zip(bands_rec.segments, bands_direct.segments):
        assert sa.lo == pytest.approx(sb.lo, abs=1e-6)
        assert sa.hi == pytest.approx(sb.hi, abs=1e-6)
        assert sa.multiplicity == sb.multiplicity
    res_direct = resonances(direct)
    res_rec = resonances(recovered)
    assert len(res_rec.values) == len(res_direct.values)
    for a, b in zip(res_rec.values, res_direct.values):
        assert abs(a - b) <= 1e-6
