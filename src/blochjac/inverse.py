"""Recovery of the characteristic determinant from finite spectral data.

q(z, tau) = q_0 + sum_j q_j (tau^j + tau^-j), j = 1..m, with q_0 monic of
degree pm and deg q_j <= p(m - j).  At tau = e^{i kappa_s} the section
q_0 + sum_j 2 cos(j kappa_s) q_j is divisible by h_s = prod (z - lambda)
over the eigenvalue set Lambda_s, repeated values included, so its
remainder modulo h_s vanishes: |Lambda_s| linear equations in the
coefficients of the q_j.  With pm values at kappa_0, (m - s)p + 1 at each
further kappa_s and the monic leading coefficient of q_0 there are exactly
as many equations as unknowns, and recovery is one square linear solve.

Group the unknowns by the index blocks K_0..K_m of the proof (K_s holds
the z-degrees whose coefficient involves q_0..q_s and no later q_j).  As
z^n mod h_s = z^n below deg h_s, the equations of degree n in K_s, one per
kappa_r with r <= s, fix cos(j kappa_r)-combinations of that block's
unknowns against earlier blocks.  The system is block triangular with the
cosine matrices cos(j kappa_r), r, j <= s, on its diagonal, so it is
nonsingular exactly when the cos kappa_s are distinct.  Remainders, unlike
one evaluation q(lambda) = 0 per value, do not repeat an equation at a
repeated eigenvalue.

Recovery runs in float arithmetic (the frequencies enter as e^{i kappa}),
with one pure-Python Gaussian elimination with partial pivoting, _solve;
snap_to_rational is the optional post-pass that reconstructs exact rational
coefficients when the data came from a rational operator.
"""

import cmath
import math
import random
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

from .exactmath import lincomb, poly_mul
from .numerics import RootFindingError, roots_all
from .operators import PeriodicOperator, floquet_eigs
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


class Recovery(NamedTuple):
    q: dict  # j = 0..m -> ascending z coefficients of CharDeterminant.q[j] (complex floats)
    D: dict  # tau-power i = 0..2m -> ascending z coefficients (complex floats)
    c: complex
    residuals: tuple  # per kappa_j: how far the input eigenvalues sit from the recovered roots


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
        eigs = floquet_eigs(op, cmath.exp(1j * float(kappa)))
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


def _remainders(h, top: int) -> list:
    """Ascending coefficients of z^n mod h for n = 0..top; h is monic of degree >= 1."""
    k = len(h) - 1
    r = [complex(1)] + [complex(0)] * (k - 1)
    out = [r]
    for _ in range(top):
        # z * r, with z^k replaced by -(h[0] + ... + h[k-1] z^(k-1))
        r = [(r[i - 1] if i else 0j) - r[-1] * h[i] for i in range(k)]
        out.append(r)
    return out


def _solve(A, b):
    """x with A x = b by Gaussian elimination with partial pivoting; None at an exactly zero pivot.

    The pivot is the entry of largest |re| + |im|, as LAPACK's izamax picks
    it: unlike abs(), that sum cannot overflow.  A and b are not modified.
    """
    n = len(A)
    M = [[complex(v) for v in row] + [complex(rhs)] for row, rhs in zip(A, b)]
    for k in range(n):
        top = max(range(k, n), key=lambda i: abs(M[i][k].real) + abs(M[i][k].imag))
        M[k], M[top] = M[top], M[k]
        pivot = M[k][k]
        if pivot == 0:
            return None
        tail = M[k][k + 1:]
        for row in M[k + 1:]:
            f = row[k] / pivot
            if f:
                row[k + 1:] = [v - f * t for v, t in zip(row[k + 1:], tail)]
    x = [0j] * n
    for k in reversed(range(n)):
        row = M[k]
        x[k] = (row[n] - sum(row[j] * x[j] for j in range(k + 1, n))) / row[k]
    return x


def _cond_1(W) -> float:
    """The 1-norm condition number of a square matrix, from its inverse; inf when singular."""
    inverse = [_solve(W, [float(i == k) for i in range(len(W))]) for k in range(len(W))]  # by columns
    if None in inverse:
        return math.inf
    return max(sum(map(abs, col)) for col in zip(*W)) * max(sum(map(abs, col)) for col in inverse)


def recover_determinant(sd: SpectralData) -> Recovery:
    """Rebuild (q, D, c) from eigenvalue sets at m+1 frequencies.

    One square system (see the module docstring): for each Lambda_s the
    coefficients of q(., e^{i kappa_s}) mod prod (z - lambda), and a row
    making q_0 monic; it is solved once, by _solve, with every column
    scaled to unit size.  A cosine matrix cos(j kappa_r), r, j <= s, with
    cond_1 above 1e12 / (s + 1) means two cosines nearly coincide, and the
    data is refused; as cond_2 <= (s + 1) cond_1, this refuses every matrix
    with cond_2 above 1e12.  Then c = 1/q_m(0) and D = c tau^m q.  The
    recovered sections must reproduce every input value as a root, else
    the data is declared inconsistent.
    """
    require_spectral_data(sd)
    p, m = sd.p, sd.m
    pm = p * m
    kappas = [float(k) for k in sd.kappas]
    for s in range(1, m + 1):
        W = [[math.cos(j * k) for j in range(s + 1)] for k in kappas[: s + 1]]
        if not _cond_1(W) <= 1e12 / (s + 1):
            raise InconsistentDataError("inconsistent spectral data: kappa values too close")

    unknowns = [(j, n) for j in range(m + 1) for n in range(p * (m - j) + 1)]
    weights = [[1.0] + [2 * math.cos(j * kappa) for j in range(1, m + 1)] for kappa in kappas]
    rows = []
    for s, (weight, lam) in enumerate(zip(weights, sd.lambda_sets)):
        rem = _remainders(reduce(poly_mul, [(-complex(v), 1) for v in lam], (complex(1),)), pm)
        block = [[weight[j] * rem[n][i] for j, n in unknowns] for i in range(len(lam))]
        if not all(cmath.isfinite(v) for row in block for v in row):
            raise ValueError(f"z^n modulo prod(z - lambda) over lambda set {s} overflows a float")
        rows += block
    rows.append([float(u == (0, pm)) for u in unknowns])
    # the largest real or imaginary part, which unlike |.| cannot overflow;
    # an all-zero column keeps scale 1 and makes _solve report a singular system
    scale = [max(max(abs(v.real), abs(v.imag)) for v in col) or 1.0 for col in zip(*rows)]
    y = _solve([[v / sc for v, sc in zip(row, scale)] for row in rows], [0j] * (len(rows) - 1) + [1])
    if y is None:
        raise InconsistentDataError("inconsistent spectral data: the recovery system is singular")
    coeffs = [[complex(0)] * (pm + 1) for _ in range(m + 1)]
    for (j, n), v, sc in zip(unknowns, y, scale):
        coeffs[j][n] = v / sc

    qm0 = coeffs[m][0]
    if abs(qm0) < 1e-300:
        raise InconsistentDataError("inconsistent spectral data: vanishing leading constant")
    c = 1 / qm0

    q = {j: tuple(coeffs[j]) for j in range(m + 1)}
    D = {i: tuple(c * v for v in q[abs(m - i)]) for i in range(2 * m + 1)}

    residuals = []
    for j, weight in enumerate(weights):
        # q(., e^{i kappa_j}) = q_0 + sum_k 2 cos(k kappa_j) q_k, with the weights of the rows
        section = [sum(w * qk[n] for w, qk in zip(weight, coeffs)) for n in range(pm + 1)]
        try:
            worst = _max_root_distance(section, sd.lambda_sets[j])
        except (RootFindingError, OverflowError):
            # a limit of the input, such as coefficients 200 orders of magnitude apart
            raise ValueError(
                f"recovered section at kappa_{j} has coefficients beyond the float root finder"
            ) from None
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
    f = Fraction(x).limit_denominator(SNAP_DENOMINATOR)
    return f if abs(float(f) - x) <= SNAP_TOL else None


def snap_to_rational(rec: Recovery) -> CharDeterminant:
    """Round the recovered determinant to exact rational coefficients.

    Every coefficient must sit within 1e-7 of a rational with denominator
    at most 10^6 (and have negligible imaginary part), and all of D must
    share one such denominator, or the data is not a clean snapshot of a
    rational operator and the whole pass refuses.
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
        cols.append(lincomb((1, snapped)))
    den = 1  # the lcm so far, which stops just past the bound, so the message stays short
    for f in (f for col in cols for f in col):
        if (den := math.lcm(den, f.denominator)) > SNAP_DENOMINATOR:
            raise InconsistentDataError(f"inconsistent spectral data: the snapped D coefficients need a common "
                                        f"denominator of at least {den}, above {SNAP_DENOMINATOR}")
    try:
        # cols ascend in tau, and xi[j] is the coefficient of tau^(2m-j)
        return build_char_determinant(tuple(reversed(cols)), p, m)
    except InternalConsistencyError as exc:
        raise InconsistentDataError(f"inconsistent spectral data: {exc}") from exc
