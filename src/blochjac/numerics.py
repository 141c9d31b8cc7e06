"""Floating-point layer: polynomial roots, and the certification of real ones.

Everything upstream is exact; this module is where roots become floats,
with explicit tolerances at every boundary, and where an exact sign change
proves each real root. The Floquet eigenvalues are taken in float by
operators.floquet_eigs, within EIG_ACCURACY.
"""

from __future__ import annotations

import cmath
import math

DEFAULT_REL_TOL = 1e-12
MAX_ITER = 500
STAGNATION = 1e-14
EIG_ACCURACY = 1e-10  # floquet_eigs' contract, relative to ||L(tau)||


class RootFindingError(RuntimeError):
    """Raised when the simultaneous iteration fails its residual contract; the message names the worst miss."""


def _as_complex_coeffs(f):
    cs = [complex(c) for c in f]
    for c in cs:
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("non-finite coefficient")
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_and_deriv(cs, x):
    p = 0j
    dp = 0j
    for c in reversed(cs):
        dp = dp * x + p
        p = p * x + c
    return p, dp


def _residual_scale(cs, x):
    ax = abs(x)
    s = 0.0
    t = 1.0
    for c in cs:
        s += abs(c) * t
        t *= ax
    return max(s, 1e-300)


def roots_all(f):
    """All complex roots of f, a sequence of ascending coefficients.

    Aberth-Ehrlich simultaneous iteration started on a circle of the
    Fujiwara radius 2 max_k |c_k/c_n|^(1/(n-k)), which encloses every root
    and scales with them, so its n-th power stays in range where the
    roots' own powers do (Bini, Numer. Algorithms 13, 1996); a linear f
    starts at its root -c0/c1, where the first sweep stops. At most
    MAX_ITER sweeps; stops when every point stagnates, then enforces
    |f(r)| <= DEFAULT_REL_TOL * sum|c_k||r|^k. Exact zero roots are factored
    out first. An infinite radius, or an iterate that is not finite (no later
    sweep recovers from it), raises OverflowError. Sorted by (re, im).
    """
    cs = _as_complex_coeffs(f)
    if len(cs) < 2:
        raise ValueError("degree >= 1 required")
    zeros = []
    while cs and cs[0] == 0:
        zeros.append(0j)
        cs = cs[1:]
    n = len(cs) - 1
    if n == 0:
        return sorted(zeros, key=lambda r: (r.real, r.imag))
    lead = cs[-1]
    mon = [c / lead for c in cs]
    radius = 2 * max(abs(c) ** (1.0 / (n - k)) for k, c in enumerate(mon[:-1]))
    if not math.isfinite(radius):  # every iterate would be NaN
        raise OverflowError("the Fujiwara root bound is beyond the float range")
    pts = [-mon[0]] if n == 1 else [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    locked = [False] * n
    for _ in range(MAX_ITER):
        moved = False
        for j in range(n):
            if locked[j]:
                continue
            z = pts[j]
            p, dp = _poly_and_deriv(mon, z)
            if p == 0:
                locked[j] = True
                continue
            if dp == 0:
                w = p / max(abs(p), 1e-300) * 1e-6
            else:
                w = p / dp
            s = 0j
            for k in range(n):
                if k != j:
                    d = z - pts[k]
                    if d == 0:
                        d = 1e-12 * (1 + abs(z))
                    s += 1 / d
            denom = 1 - w * s
            step = w if denom == 0 else w / denom
            pts[j] = z - step
            if not cmath.isfinite(pts[j]):
                raise OverflowError("an Aberth iterate left the float range")
            if abs(step) <= STAGNATION * (1 + abs(pts[j])):
                locked[j] = True
            else:
                moved = True
        if not moved:
            break
    residuals = [(abs(_poly_and_deriv(cs, r)[0]), _residual_scale(cs, r)) for r in pts]
    # written so that a NaN residual fails the contract, and is the one named
    if not all(res <= DEFAULT_REL_TOL * scale for res, scale in residuals):
        worst = max((res / scale for res, scale in residuals), key=lambda x: math.inf if math.isnan(x) else x)
        raise RootFindingError(f"root refinement did not meet the residual contract (rel_tol={DEFAULT_REL_TOL}): "
                               f"worst scaled residual {worst:.3e}")
    out = zeros + pts
    return sorted(out, key=lambda r: (r.real, r.imag))


def _scaled_value(ints, a: int, e: int) -> int:
    """2^(e deg g) g(a / 2^e) for g = sum_k ints[k] z^k, exactly: Horner in a, each power of 2^e a shift."""
    acc = 0
    for k, c in enumerate(reversed(ints)):
        acc = acc * a + (c << (e * k))
    return acc


def _bracket(a: int, b: int, e: int, at_a: int, at_b: int, n: int = 4):
    """The _refine bracket of [a, b] / 2^e from the values at its ends (_scaled_value), or None.

    None where the values share a sign; a zero end becomes the point bracket (x, x, e, 0, 0, n).
    """
    if not (at_a and at_b) or (at_a > 0) != (at_b > 0):
        return (a, b, e, at_a, at_b, n) if at_a and at_b else (b, b, e, 0, 0, n) if at_a else (a, a, e, 0, 0, n)


def _refine(ints, bracket) -> tuple:
    """One quadratic interval refinement step (Abbott, 2006) on bracket = (a, b, e, at_a, at_b, n).

    The root of ints is in [a, b] / 2^e, where its scaled values at_a and at_b
    (_scaled_value) have opposite signs; n is a power of two. The secant
    through the ends picks one of n equal parts: where it brackets the sign
    change it is the new bracket and n squares, else [a, b] is halved and n
    falls to its square root, at least 4. A zero at x returns (x, x, e, 0, 0, n).
    """
    a, b, e, at_a, at_b, n = bracket
    s, d, w = n.bit_length() - 1, len(ints) - 1, b - a
    j = n * at_a // (at_a - at_b)  # 0 <= j < n, as at_a / (at_a - at_b) is in (0, 1)
    x, y = (a << s) + j * w, (a << s) + (j + 1) * w
    at_x, at_y = (_scaled_value(ints, t, e + s) for t in (x, y))
    if found := _bracket(x, y, e + s, at_x, at_y, n * n):
        return found
    at_m, n = _scaled_value(ints, a + b, e + 1), max(4, math.isqrt(n))
    return _bracket(2 * a, a + b, e + 1, at_a << d, at_m, n) or _bracket(a + b, 2 * b, e + 1, at_m, at_b << d, n)


def certified_roots(ints, seeds, eigensolver: bool) -> list:
    """The real roots of the squarefree g = sum_k ints[k] z^k, each as the double nearest to it.

    Around each seed x, g must change sign exactly (_scaled_value) across
    [x - w, x] or [x, x + w], with x and w on one dyadic grid 2^-e. w starts
    at 4 ulps of max(|x|, max |seeds|), absolute so that a root at 0 gets a
    bracket too, and doubles up to EIG_ACCURACY max |seeds| for eigenvalues
    (floquet_eigs' contract), or half the gap to the next seed for Aberth's
    roots of g. _refine narrows the bracket, from the values the search took,
    until both ends round to one double, which is the root's (a root that
    rounds to zero is +0.0); a dyadic root, a tie included, is met exactly on
    the way. Distinct doubles are distinct roots, so deg g of them prove
    every root real.
    """
    norm = max(map(abs, seeds), default=0.0)
    found = set()
    for n, x in enumerate(seeds):
        w = 4 * math.ulp(max(abs(x), norm))
        # a lone Aberth seed is the root of a linear g, which is real
        gap = min((abs(x - y) for k, y in enumerate(seeds) if k != n), default=math.inf)
        limit = EIG_ACCURACY * norm if eigensolver else gap / 2
        (p, q), (r, t) = x.as_integer_ratio(), w.as_integer_ratio()
        e = max(q, t).bit_length() - 1  # q and t are powers of two
        a, u = (p << e) // q, (r << e) // t
        at_a = _scaled_value(ints, a, e)
        while not (bracket := _bracket(a - u, a, e, _scaled_value(ints, a - u, e), at_a)
                   or _bracket(a, a + u, e, at_a, _scaled_value(ints, a + u, e))) and w < limit:
            w, u = 2 * w, 2 * u
        if bracket is None:
            continue
        while (v := bracket[0] / (1 << bracket[2])) != bracket[1] / (1 << bracket[2]):
            bracket = _refine(ints, bracket)
        found.add(v or 0.0)
    return sorted(found)
