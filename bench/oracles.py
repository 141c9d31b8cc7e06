"""Output checks for each blochjac subcommand, independent of blochjac.

check(command, stdout) returns None when the output is right, or a one-line
reason.  As a script, it checks a batch and prints the verdicts as JSON:

    python3 bench/oracles.py REQUEST.json   # [{"command": ..., "stdout": path}]

The exact references come from corpus.py; the bands check builds its own
Floquet matrices with numpy.
"""

import json
import math
import sys
from fractions import Fraction

import numpy as np

import corpus

# The reference spectrum samples the Floquet phase theta on [0, pi] (the
# spectrum at -theta is the same) on a grid that includes 0 and pi.
REF_PHASES = 1025
GOLDEN_STEPS = 60
# Band edges must be right to a tenth of the thinnest band in the corpus
# (about 1e-9 at p = 24), so that no band can go missing unseen.
BAND_TOL = 1e-10
# Multipliers must be right to about six digits (see check_lyapunov).
MULTIPLIER_TOL = 1e-6


def _operator(command):
    with open(command["operator"]) as fh:
        return corpus.operator_from_document(json.load(fh))


def _branches(A, B, thetas):
    """Sorted Floquet eigenvalues at each phase, shape (len(thetas), p m)."""
    return np.linalg.eigvalsh(corpus.floquet_matrices(A, B, np.exp(1j * np.asarray(thetas))))


def _branch_minima(A, B, thetas, values):
    """min over theta of each sorted eigenvalue branch lambda_j(theta).

    Starts from the grid minimum and refines it by golden-section search on
    the two grid cells beside it, all branches at once.  The sorted branches
    are continuous, so their ranges make up the spectrum; an extreme inside
    (0, pi) is where two multipliers meet on the unit circle.
    """
    j = np.arange(values.shape[1])
    k = np.argmin(values, axis=0)
    lo = thetas[np.maximum(k - 1, 0)]
    hi = thetas[np.minimum(k + 1, len(thetas) - 1)]
    g = (math.sqrt(5) - 1) / 2
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = _branches(A, B, x1)[j, j], _branches(A, B, x2)[j, j]
    for _ in range(GOLDEN_STEPS):
        left = f1 < f2  # the minimum lies in [lo, x2]
        hi, lo = np.where(left, x2, hi), np.where(left, lo, x1)
        x1, x2, f1, f2 = (np.where(left, hi - g * (hi - lo), x2), np.where(left, x1, lo + g * (hi - lo)),
                          np.where(left, 0.0, f2), np.where(left, f1, 0.0))
        new = np.where(left, x1, x2)
        fnew = _branches(A, B, new)[j, j]
        f1, f2 = np.where(left, fnew, f1), np.where(left, f2, fnew)
    return np.minimum(values[k, j], np.minimum(f1, f2))


def reference_spectrum(A, B):
    """The spectrum as sorted disjoint intervals: the union over j of the
    range of lambda_j(theta), theta in [0, pi]."""
    thetas = np.linspace(0.0, math.pi, REF_PHASES)
    values = _branches(A, B, thetas)
    lows = _branch_minima(A, B, thetas, values)
    highs = -_branch_minima([-a for a in A], [-b for b in B], thetas, -values[:, ::-1])[::-1]
    return _union(zip(lows, highs))


def _union(intervals):
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


def _minus(xs, ys):
    """The parts of the disjoint sorted intervals xs outside those of ys."""
    out = []
    for lo, hi in xs:
        for ylo, yhi in ys:
            if yhi <= lo or ylo >= hi:
                continue
            if ylo > lo:
                out.append((lo, ylo))
            lo = max(lo, yhi)
            if lo >= hi:
                break
        if lo < hi:
            out.append((lo, hi))
    return out


def check_bands(command, payload):
    """The union of the reported segments is the spectrum, up to pieces no
    longer than BAND_TOL: no band too wide or missing, no gap missing or
    spurious.  The reference comes from numpy Floquet matrices alone."""
    ref = reference_spectrum(*corpus.float_blocks(*_operator(command)))
    got = _union((lo, hi) for lo, hi, mult in payload["segments"] if mult > 0)
    for lo, hi in _minus(got, ref):
        if hi - lo > BAND_TOL:
            return f"reported bands cover [{lo:.12g}, {hi:.12g}], outside the spectrum"
    for lo, hi in _minus(ref, got):
        if hi - lo > BAND_TOL:
            return f"spectrum [{lo:.12g}, {hi:.12g}] is in no reported band"
    return None


def check_resonances(command, payload):
    ref = command["ref"]
    rho = [Fraction(c) for c in payload["rho"]]
    want = [Fraction(c) for c in ref["rho"]]
    if payload["degenerate"] != ref["degenerate"]:
        return f"degenerate is {payload['degenerate']}, expected {ref['degenerate']}"
    if ref["degenerate"]:
        # the squarefree part is defined up to a constant, so rho is too
        ratio = rho[-1] / want[-1] if len(rho) == len(want) and want[-1] else None
        if ratio is None or any(r != ratio * w for r, w in zip(rho, want)):
            return "rho is not a multiple of the reference"
    elif rho != want:
        return f"rho differs from the reference (degree {len(rho) - 1} vs {len(want) - 1})"
    real = sum(1 for flag in payload["real"] if flag)
    if real != ref["real_zeros"]:
        return f"{real} real zeros reported, exact count is {ref['real_zeros']}"
    return None


def check_verify(command, payload):
    return None if payload["all_pass"] is True else "all_pass is not true"


def _exact_values(coeffs, xs):
    """Each rational polynomial (ascending coefficients) at each float x,
    exact and then rounded once: integer Horner on x = n / d, d a power of 2."""
    coeffs = [Fraction(c) for c in coeffs]
    deg = len(coeffs) - 1
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    out = []
    for x in xs:
        n, d = float(x).as_integer_ratio()
        acc, dpow = ints[deg], 1
        for c in reversed(ints[:deg]):
            dpow *= d
            acc = acc * n + c * dpow
        out.append(acc / (scale * dpow))
    return out


def check_lyapunov(command, payload):
    """The points are the requested grid, and the 2m multipliers at each z
    are the roots of the exact D(z, tau) = sum_k d_k(z) tau^k (monic).

    The coefficients of prod_i (tau - tau_i) must match the d_k(z), each
    within MULTIPLIER_TOL times the same coefficient of prod_i (tau + |tau_i|):
    the componentwise backward error of the reported set.  It needs no
    coordinates of the operator, and to first order it is the relative error
    of each multiplier, however large or small; where two multipliers meet
    (band edges) it is looser, as the problem is.
    """
    lo, hi, n = next(a for a in command["args"] if a.startswith("--z-grid=")).split("=")[1].split(":")
    points = payload["points"]
    zs = np.array([complex(*pt["z"]) for pt in points])
    if len(zs) != int(n) or np.max(np.abs(zs - np.linspace(float(lo), float(hi), int(n)))) > 1e-12:
        return "the points are not the requested z grid"
    D = command["ref"]["D"]
    degree = len(D) - 1
    taus = np.array([[complex(*t) for pair in pt["multipliers"] for t in pair["pair"]] for pt in points])
    if taus.shape != (len(points), degree):
        return f"a point does not carry {degree} multipliers"
    want = np.array([_exact_values(d, zs.real) for d in D]).T
    got = np.zeros((len(points), degree + 1), dtype=complex)
    scale = np.zeros((len(points), degree + 1))
    got[:, 0] = scale[:, 0] = 1.0
    for i in range(degree):  # multiply by (tau - tau_i), and the scale by (tau + |tau_i|)
        t = taus[:, i:i + 1]
        got = np.concatenate([np.zeros((len(points), 1)), got[:, :-1]], axis=1) - t * got
        scale = np.concatenate([np.zeros((len(points), 1)), scale[:, :-1]], axis=1) + np.abs(t) * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.abs(got - want) / scale
    err[np.isnan(err)] = np.inf
    worst = np.unravel_index(np.argmax(err), err.shape)
    if not err[worst] <= MULTIPLIER_TOL:
        i, k = worst
        return (f"multipliers at z = {zs[i].real:.6g} (largest |tau| {np.max(np.abs(taus[i])):.3g}) "
                f"miss the tau^{k} coefficient of D by {err[worst]:.3g} relative")
    return None


def check_recover(command, payload):
    exact = payload["exact"]
    if exact is None:
        return None  # refusing to snap is allowed
    ref = command["ref"]
    if Fraction(exact["c"]) != Fraction(ref["c"]):
        return f"exact c = {exact['c']}, expected {ref['c']}"
    if [[Fraction(x) for x in row] for row in exact["q"]] != [[Fraction(x) for x in row] for row in ref["q"]]:
        return "exact q differs from the generating operator's q"
    return None


CHECKS = {
    "bands": check_bands,
    "resonances": check_resonances,
    "verify": check_verify,
    "lyapunov": check_lyapunov,
    "recover": check_recover,
}


def check(command, stdout):
    try:
        doc = json.loads(stdout)
        payload = doc["payload"]
        if doc["command"] != command["sub"]:
            return f"output is for command {doc['command']!r}"
        return CHECKS[command["sub"]](command, payload)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {exc!r}"


def main():
    with open(sys.argv[1]) as fh:
        request = json.load(fh)
    verdicts = []
    for item in request:
        with open(item["stdout"], "rb") as fh:
            verdicts.append(check(item["command"], fh.read()))
    print(json.dumps(verdicts))


if __name__ == "__main__":
    main()
