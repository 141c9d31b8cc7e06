"""Recovery of the characteristic determinant from finite spectral data.

Given the full Floquet spectrum at one frequency and progressively smaller
eigenvalue subsets at m further frequencies (with pairwise distinct cosines),
the coefficients of q(z, tau) are determined by a sequence of exactly square
linear solves: the z^n coefficient of q is a combination of tau^j + tau^-j
for j up to a half-degree s(n) that depends only on which index block K_s
the degree n falls in, so s(n) + 1 sample values pin it down through a
cosine system.

Recovery runs in float arithmetic (the frequencies enter as e^{i kappa});
snap_to_rational is the optional post-pass that reconstructs exact rational
coefficients when the data came from a rational operator.
"""

import cmath
import math
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exactmath import RatPoly
from .numerics import hermitian_eigs, roots_all
from .operators import PeriodicOperator, floquet_matrix
from .spectral import CharDeterminant, InternalConsistencyError, build_char_determinant

SNAP_DENOMINATOR = 10**6
SNAP_TOL = 1e-7
RESIDUAL_TOL = 1e-7


class InconsistentDataError(ValueError):
    """Spectral data that no determinant of the declared shape interpolates."""


class SpectralData(NamedTuple):
    p: int
    m: int
    kappas: tuple
    lambda_sets: tuple  # lambda_sets[j] has (m-j)*p + 1 values for j >= 1, p*m for j = 0


def half_degree(p: int, m: int, n: int) -> int:
    """s(n): the largest j for which q[j] can have a z^n term."""
    if not 0 <= n <= p * m:
        raise ValueError(f"coefficient index {n} outside 0..{p * m}")
    if n == 0:
        return m
    return m - ((n + p - 1) // p)


def coefficient_blocks(p: int, m: int) -> tuple:
    """K_0..K_m: z-degree indices grouped by half-degree; they tile 0..pm."""
    return tuple(tuple(n for n in range(p * m + 1) if half_degree(p, m, n) == s)
                 for s in range(m + 1))


def _cosine_sum(row, kappa: float) -> complex:
    """row[0] + sum_j 2 cos(j kappa) row[j]: one z-coefficient of q at tau = e^{i kappa}."""
    return complex(sum((2 * math.cos(j * kappa) if j else 1) * complex(v) for j, v in enumerate(row)))


class Recovery(NamedTuple):
    q: dict  # j = 0..m -> ascending z coefficients of CharDeterminant.q[j] (complex floats)
    D: dict  # tau-power i = 0..2m -> ascending z coefficients (complex floats)
    c: complex
    residuals: tuple  # per kappa_j: how far the input eigenvalues sit from the recovered roots


def cosine_matrix(kappas):
    """solve(rhs) = W^-1 rhs with W[r][j] = cos(j kappa_r) over a prefix of frequencies.

    solve insists on a small residual; a condition number above 1e12 means
    two cosines nearly coincide and the system cannot separate the basis
    elements.
    """
    ks = [float(k) for k in kappas]
    n = len(ks)
    W = np.array([[math.cos(j * k) for j in range(n)] for k in ks])
    if np.linalg.cond(W) > 1e12:
        raise ValueError("kappa values too close")

    def solve(rhs):
        vec = np.asarray(rhs, dtype=complex)
        x = np.linalg.solve(W, vec)
        residual = float(np.linalg.norm(W @ x - vec))
        if residual > 1e-9 * max(1.0, float(np.linalg.norm(vec))):
            raise ValueError("kappa values too close")
        return [complex(v) for v in x]

    return solve


def _poly_from_roots(roots) -> list:
    """Ascending complex coefficients of prod(z - root)."""
    coeffs = [complex(1)]
    for r in roots:
        nxt = [complex(0)] * (len(coeffs) + 1)
        for i, v in enumerate(coeffs):
            nxt[i + 1] += v
            nxt[i] -= complex(r) * v
        coeffs = nxt
    return coeffs


def constrained_poly(roots, top_coeffs) -> list:
    """The unique r = g * prod(z - root) with prescribed top coefficients.

    top_coeffs[i] is the coefficient of z^(k+i) in r, k = len(roots), so
    top_coeffs[-1] is the leading one; deg r = k + len(top_coeffs) - 1.  The
    factor h = prod(z - root) is monic, which makes the system for g's
    coefficients triangular from the top down.  Returns ascending coefficients.
    """
    if not roots:
        raise ValueError("need at least one root")
    if not top_coeffs:
        raise ValueError("need at least one prescribed coefficient")
    h = _poly_from_roots(roots)
    k = len(roots)
    s = len(top_coeffs) - 1
    g = [complex(0)] * (s + 1)
    for i in range(s, -1, -1):
        acc = complex(top_coeffs[i])
        for b in range(i + 1, min(s, k + i) + 1):
            acc -= h[k + i - b] * g[b]
        g[i] = acc
    out = [complex(0)] * (k + s + 1)
    for i, hv in enumerate(h):
        for b, gv in enumerate(g):
            out[i + b] += hv * gv
    return out


def require_spectral_data(sd: SpectralData):
    """Raise InconsistentDataError unless the shape invariants hold."""
    problems = []
    if sd.p < 1 or sd.m < 1:
        problems.append(f"p = {sd.p}, m = {sd.m} must be positive")
    else:
        if len(sd.kappas) != sd.m + 1:
            problems.append(f"need {sd.m + 1} frequencies, got {len(sd.kappas)}")
        if len(sd.lambda_sets) != sd.m + 1:
            problems.append(f"need {sd.m + 1} eigenvalue sets, got {len(sd.lambda_sets)}")
        else:
            for j, lam in enumerate(sd.lambda_sets):
                want = sd.p * sd.m if j == 0 else (sd.m - j) * sd.p + 1
                if len(lam) != want:
                    problems.append(f"lambda set {j} has {len(lam)} values, needs {want}")
        cosines = [math.cos(float(k)) for k in sd.kappas]
        for i in range(len(cosines)):
            for j in range(i + 1, len(cosines)):
                if abs(cosines[i] - cosines[j]) <= 1e-9:
                    problems.append(f"cos kappa_{i} and cos kappa_{j} coincide")
    if problems:
        raise InconsistentDataError("inconsistent spectral data: " + "; ".join(problems))


def forward_spectral_data(op: PeriodicOperator, kappas, subset_rule: str = "ascending", seed: int = 0) -> SpectralData:
    """Generate recovery input from an operator: full spectrum at kappa_0, subsets after.

    The roots of q(., e^{i kappa}) are the eigenvalues of the Hermitian
    Floquet matrix L(e^{i kappa}), so each set is read off that matrix in
    ascending order, repeated eigenvalues included, without building q.
    subset_rule picks which (m-j)p + 1 of the pm eigenvalues at kappa_j
    enter Lambda_j: "ascending" keeps the smallest, "descending" the
    largest, "random" a seeded sample.  Recovery must not care, which is
    exactly what the round-trip tests exercise.
    """
    if subset_rule not in ("ascending", "descending", "random"):
        raise ValueError(f"unknown subset rule {subset_rule!r}")
    p, m = op.p, op.m
    pm = p * m
    if len(kappas) != m + 1:
        raise ValueError(f"need {m + 1} frequencies, got {len(kappas)}")
    rng = random.Random(seed)
    sets = []
    for j, kappa in enumerate(kappas):
        eigs = hermitian_eigs(floquet_matrix(op, cmath.exp(1j * float(kappa))))
        if j == 0:
            sets.append(tuple(eigs))
            continue
        size = (m - j) * p + 1
        if subset_rule == "ascending":
            chosen = eigs[:size]
        elif subset_rule == "descending":
            chosen = eigs[-size:]
        else:
            chosen = [eigs[i] for i in sorted(rng.sample(range(pm), size))]
        sets.append(tuple(chosen))
    return SpectralData(p=p, m=m, kappas=tuple(float(k) for k in kappas), lambda_sets=tuple(sets))


def _max_root_distance(section, lambdas) -> float:
    """How far the given values sit from actual roots of a recovered section."""
    roots = roots_all(section)
    worst = 0.0
    for lam in lambdas:
        d = min(abs(complex(lam) - r) for r in roots)
        worst = max(worst, d / max(1.0, abs(complex(lam))))
    return worst


def _section_residual(section, lambdas) -> float:
    """Largest scaled |section(lam)| over the given values.

    Root distance blows up at a k-fold root, where even honest data splits
    by eps^(1/k); the evaluation residual stays near machine precision
    there, so the consistency guard accepts whichever measure is happy.
    """
    worst = 0.0
    for lam in lambdas:
        z = complex(lam)
        val = 0j
        scale = 0.0
        power = 1 + 0j
        grow = max(1.0, abs(z))
        bound = 1.0
        for c in section:
            val += c * power
            scale += abs(c) * bound
            power *= z
            bound *= grow
        worst = max(worst, abs(val) / max(scale, 1e-300))
    return worst


def recover_determinant(sd: SpectralData) -> Recovery:
    """Rebuild (q, D, c) from eigenvalue sets at m+1 frequencies.

    Step 0 multiplies out q(., e^{i kappa_0}) from the full set Lambda_0 and
    reads off the constant-in-tau coefficients (block K_0).  Step s completes
    q(., e^{i kappa_s}) from the partial set Lambda_s with constrained_poly
    (the top ps coefficients are already known), then solves the cosine
    system on block K_s.  After step m every q[j] is known; c = 1/q[m](0)
    and D = c tau^m q.  The recovered sections must reproduce every input value
    as a root, else the data is declared inconsistent.
    """
    require_spectral_data(sd)
    p, m = sd.p, sd.m
    pm = p * m
    kappas = [float(k) for k in sd.kappas]
    blocks = coefficient_blocks(p, m)

    sections = [_poly_from_roots(sd.lambda_sets[0])]
    # rows[n][j]: the z^n coefficient of q_j, for j <= s(n); the degree bound
    # deg q_j <= p(m - j) makes the entries beyond s(n) vanish
    rows = [None] * (pm + 1)
    for n in blocks[0]:
        rows[n] = (sections[0][n],)

    try:
        for s in range(1, m + 1):
            tops = [_cosine_sum(rows[n], kappas[s]) for n in range(p * (m - s) + 1, pm + 1)]
            sections.append(constrained_poly(sd.lambda_sets[s], tops))
            solve = cosine_matrix(kappas[: s + 1])
            for n in blocks[s]:
                rhs = [sections[r][n] / 2 for r in range(s + 1)]
                sol = solve(rhs)
                rows[n] = tuple([2 * sol[0]] + sol[1:])
    except ValueError as exc:
        raise InconsistentDataError(f"inconsistent spectral data: {exc}") from exc

    qm0 = rows[0][m]
    if abs(qm0) < 1e-300:
        raise InconsistentDataError("inconsistent spectral data: vanishing leading constant")
    c = 1 / qm0

    q = {}
    for j in range(m + 1):
        q[j] = tuple(rows[n][j] if j < len(rows[n]) else complex(0) for n in range(pm + 1))
    D = {}
    for i in range(2 * m + 1):
        D[i] = tuple(c * v for v in q[abs(m - i)])

    residuals = []
    for j, kappa in enumerate(kappas):
        section = [_cosine_sum(row, kappa) for row in rows]
        worst = _max_root_distance(section, sd.lambda_sets[j])
        if worst > RESIDUAL_TOL and _section_residual(section, sd.lambda_sets[j]) > RESIDUAL_TOL:
            raise InconsistentDataError(
                f"inconsistent spectral data: recovered section at kappa_{j} "
                f"misses an input eigenvalue by {worst:.3e}"
            )
        residuals.append(worst)
    return Recovery(q=q, D=D, c=c, residuals=tuple(residuals))


def _snap_value(v: complex):
    if abs(v.imag) > SNAP_TOL:
        return None
    x = v.real
    if abs(x) <= 1e-9:
        return Fraction(0)
    f = Fraction(x).limit_denominator(SNAP_DENOMINATOR)
    return f if abs(float(f) - x) <= SNAP_TOL else None


def snap_to_rational(rec: Recovery) -> CharDeterminant:
    """Round the recovered determinant to exact rational coefficients.

    Every coefficient must sit within 1e-7 of a rational with denominator
    at most 10^6 (and have negligible imaginary part), or the data is not
    a clean snapshot of a rational operator and the whole pass refuses.
    """
    m = len(rec.q) - 1
    p = (len(rec.q[0]) - 1) // m
    cols = []
    for i in range(2 * m + 1):
        snapped = []
        for n, v in enumerate(rec.D[i]):
            f = _snap_value(v)
            if f is None:
                raise InconsistentDataError(
                    f"inconsistent spectral data: D coefficient tau^{i} z^{n} = {v} "
                    "is not near a small rational"
                )
            snapped.append(f)
        cols.append(RatPoly(snapped, "z"))
    try:
        # cols ascend in tau, and xi[j] is the coefficient of tau^(2m-j)
        return build_char_determinant(tuple(reversed(cols)), p, m, None)
    except InternalConsistencyError as exc:
        raise InconsistentDataError(f"inconsistent spectral data: {exc}") from exc
