"""Seeded input corpus for the blochjac benchmark, with reference answers.

Every document and every reference answer is made here, without importing
blochjac: the program under test receives only the generated files, and a
change to the program cannot change the inputs or the answers it is
checked against.

Each workload is a fixed list of base operators (random_operator with a
fixed base seed, or the free operator).  The run seed picks, per operator,
the coordinates it is written in: a unitarily equivalent operator with the
same D(z, tau), rho, bands and Floquet spectra (see equivalent()).  So every
seed poses the same problems, including the ones the program fails today,
in documents that differ from seed to seed; the failures do not come and go
with the seed, and the run-to-run spread is the measurement's own.

References are exact.  D(z, tau) = det(M(z) - tau I) is intrinsic (monic
and palindromic in tau, its roots are the Floquet multipliers), so it is
computed pointwise from the transfer-matrix monodromy at integer z and
interpolated.  The resonance polynomial rho is the nu-discriminant of
Phi(z, nu) = D / (2 tau)^m, nu = (tau + 1/tau) / 2, again pointwise and
interpolated; its real zeros are counted once by exact root isolation.

Write (or find) the corpus of one workload and seed under ROOT; prints the
command list as JSON:

    python3 bench/corpus.py --workload blocks --seed 1 --root /tmp/corpus
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
from fractions import Fraction

import numpy as np

# (operator family, base seed, p, m, commands run on it).  The comments say
# what each entry is for; the shapes that fail today stay in the grid on
# purpose.  The base operator is random_operator(base seed, p, m); the run
# seed only picks the coordinates it is written in (see equivalent()).
WORKLOADS = {
    "blocks": [
        # both D routes, rho of degree 18, verify's charpoly, the lyapunov grid
        ("random", 1, 3, 3, ("bands", "resonances", "verify", "lyapunov")),
        # Yun's squarefree decomposition over Q on rho of degree 24
        ("random", 1, 2, 4, ("resonances",)),
        ("random", 1, 4, 3, ("resonances",)),
        # long period with blocks: degree-20 monodromy, 20x20 Floquet solves
        ("random", 1, 10, 2, ("bands", "resonances")),
        # rho vanishes identically: the bivariate squarefree-part path
        ("free", 0, 2, 6, ("resonances",)),
        # degree-36 rho: Aberth overflows, and the command runs past the budget
        ("random", 1, 3, 4, ("resonances",)),
    ],
    "scalar_long": [
        # m = 1: rho is 1, so no discriminant work at all.  Two base operators
        # per shape.  bands fails on thin bands at (24, 1) base 1 and at both
        # (32, 1); lyapunov's multipliers are off by 3e-6 and 2e-5 at (32, 1).
        ("random", 1, 16, 1, ("bands", "verify", "lyapunov")),
        ("random", 2, 16, 1, ("bands", "verify", "lyapunov")),
        ("random", 1, 24, 1, ("bands", "lyapunov")),
        ("random", 2, 24, 1, ("bands", "lyapunov")),
        ("random", 1, 32, 1, ("bands", "lyapunov")),
        ("random", 2, 32, 1, ("bands", "lyapunov")),
    ],
    "inverse": [
        # each with the three subset rules; snapping goes wrong from (3, 2) up
        ("random", 1, 2, 1, ("recover",)),
        ("random", 1, 8, 1, ("recover",)),
        ("random", 1, 3, 2, ("recover",)),
        ("random", 1, 6, 2, ("recover",)),
        ("random", 1, 2, 3, ("recover",)),
        ("random", 1, 3, 3, ("recover",)),
    ],
}

LYAPUNOV_GRID = "-3:3:2000"
KAPPAS = (0.0, math.pi, math.pi / 2, math.pi / 3)
SUBSET_RULES = ("ascending", "descending", "random")


# ---------------------------------------------------------------- operators

def _rand_fraction(rng, num=4, dens=(2, 3, 4)):
    return Fraction(rng.randint(-num, num), rng.choice(dens))


def random_operator(seed, p, m):
    """(a, b) lists of exact matrices: symmetric b with entries in [-2, 2],
    each a a product of unit triangular matrices, a_0 with one row scaled."""
    rng = random.Random(seed)
    a_list, b_list = [], []
    for n in range(p):
        bmat = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            bmat[i][i] = _rand_fraction(rng)
            for j in range(i + 1, m):
                bmat[i][j] = bmat[j][i] = _rand_fraction(rng)
        lo = [[Fraction(i == j) for j in range(m)] for i in range(m)]
        up = [[Fraction(i == j) for j in range(m)] for i in range(m)]
        for i in range(m):
            for j in range(i):
                lo[i][j] = _rand_fraction(rng, 2)
            for j in range(i + 1, m):
                up[i][j] = _rand_fraction(rng, 2)
        amat = [[sum(lo[i][k] * up[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
        if n == 0:
            s = rng.choice([Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(-1),
                            Fraction(1, 3), Fraction(1)])
            amat[0] = [s * x for x in amat[0]]
        a_list.append(amat)
        b_list.append(bmat)
    return a_list, b_list


def free_operator(p, m):
    ident = [[Fraction(i == j) for j in range(m)] for i in range(m)]
    zero = [[Fraction(0)] * m for _ in range(m)]
    return [ident] * p, [zero] * p


def equivalent(a, b, rng):
    """A unitarily equivalent operator in coordinates drawn from rng.

    Shifts the period by k, conjugates every block by one signed permutation
    P and flips signs by a periodic gauge s_n = +-1:
    a'_n = s_n s_{n+1} P a_{n+k} P^T, b'_n = P b_{n+k} P^T.  D(z, tau), rho,
    the bands and the Floquet spectra are unchanged; the documents, and the
    intermediate exact arithmetic, are not.
    """
    p, m = len(a), len(a[0])
    k = rng.randrange(p)
    perm = rng.sample(range(m), m)
    sign = [rng.choice((-1, 1)) for _ in range(m)]
    gauge = [rng.choice((-1, 1)) for _ in range(p)]

    def conj(mat):
        return [[sign[i] * sign[j] * mat[perm[i]][perm[j]] for j in range(m)] for i in range(m)]

    a2 = [[[gauge[n] * gauge[(n + 1) % p] * x for x in row] for row in conj(a[(n + k) % p])]
          for n in range(p)]
    b2 = [conj(b[(n + k) % p]) for n in range(p)]
    return a2, b2


def operator_document(a, b):
    return {
        "schema": "blochjac/1",
        "p": len(a),
        "m": len(a[0]),
        "a": [[[str(x) for x in row] for row in mat] for mat in a],
        "b": [[[str(x) for x in row] for row in mat] for mat in b],
    }


def operator_from_document(doc):
    a = [[[Fraction(x) for x in row] for row in mat] for mat in doc["a"]]
    b = [[[Fraction(x) for x in row] for row in mat] for mat in doc["b"]]
    return a, b


# ------------------------------------------------------------ exact algebra

def _mat_mul(A, B):
    Bt = list(zip(*B))
    return [[sum(x * y for x, y in zip(row, col)) for col in Bt] for row in A]


def _mat_inv(A):
    n = len(A)
    aug = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(A)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def transfer_parts(a, b):
    """Per-step (a_n^-1, a_n^-1 b_n, a_n^-1 a_{n-1}^T), so that
    T_n(z) = ((z a_n^-1 - a_n^-1 b_n, -a_n^-1 a_{n-1}^T), (I, 0))."""
    parts = []
    for n in range(len(a)):
        inv = _mat_inv(a[n])
        parts.append((inv, _mat_mul(inv, b[n]), _mat_mul(inv, [list(r) for r in zip(*a[n - 1])])))
    return parts


def monodromy_at(parts, z):
    """M(z) = T_{p-1} ... T_0 acting on (y_n, y_{n-1}), exact at rational z."""
    m = len(parts[0][0])
    M = None
    for inv, inv_b, bl in parts:
        T = [[z * x - y for x, y in zip(r1, r2)] + [-x for x in r3]
             for r1, r2, r3 in zip(inv, inv_b, bl)]
        T += [[Fraction(i == j) for j in range(m)] + [Fraction(0)] * m for i in range(m)]
        M = T if M is None else _mat_mul(T, M)
    return M


def charpoly(A):
    """Ascending coefficients of det(t I - A) by Faddeev-LeVerrier (exact over Q)."""
    n = len(A)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    Mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        AM = _mat_mul(A, Mk)
        Mk = [[AM[i][j] + (coeffs[n - k + 1] if i == j else 0) for j in range(n)] for i in range(n)]
        AMk = _mat_mul(A, Mk)
        coeffs[n - k] = -sum(AMk[i][i] for i in range(n)) / k
    return coeffs


def _chebyshev(k):
    """Ascending integer coefficients of T_k."""
    t0, t1 = [1], [0, 1]
    if k == 0:
        return t0
    for _ in range(k - 1):
        nxt = [0] + [2 * c for c in t1]
        for i, c in enumerate(t0):
            nxt[i] -= c
        t0, t1 = t1, nxt
    return t1


def surface_at(d, m):
    """Phi(nu) from the palindromic tau-coefficients d_0..d_2m of D(z0, tau)."""
    phi = [Fraction(0)] * (m + 1)
    phi[0] = d[m]
    for k in range(1, m + 1):
        for i, c in enumerate(_chebyshev(k)):
            phi[i] += 2 * c * d[m + k]
    return [c / 2**m for c in phi]


def interpolate(xs, ys):
    """Ascending coefficients of the polynomial through (xs, ys), exact."""
    coef = list(ys)
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    out = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        # out = out * (x - xs[i]) + coef[i]
        shifted = [Fraction(0)] + out[:-1]
        out = [s - xs[i] * o for s, o in zip(shifted, out)]
        out[0] += coef[i]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_eval(cs, x):
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def exact_references(a, b):
    """Exact D (the ascending z-coefficients of each power of tau), q, c,
    rho, degenerate flag and real-zero count for one operator."""
    import sympy

    p, m = len(a), len(a[0])
    pm = p * m
    nrho = p * m * (m - 1)  # deg_z disc_nu Phi <= p m (m - 1) by weights
    points = [Fraction(k - (max(pm, nrho) + 3) // 2) for k in range(max(pm, nrho) + 3)]
    parts = transfer_parts(a, b)
    samples = []
    for z0 in points[:pm + 3]:
        d = charpoly(monodromy_at(parts, z0))
        if d[0] != 1 or any(d[k] != d[2 * m - k] for k in range(2 * m + 1)):
            raise ArithmeticError("monodromy characteristic polynomial is not palindromic")
        samples.append(d)
    D = [interpolate(points[:pm + 1], [d[k] for d in samples[:pm + 1]]) for k in range(2 * m + 1)]
    for z0, d in zip(points[pm + 1:], samples[pm + 1:]):
        if any(poly_eval(D[k], z0) != d[k] for k in range(2 * m + 1)):
            raise ArithmeticError("D(z, tau) interpolation does not reproduce a sample")
    Ds = [[poly_eval(D[k], z0) for k in range(2 * m + 1)] for z0 in points]
    c = D[m][pm]
    q = [[x / c for x in D[m + j]] + [Fraction(0)] * (pm + 1 - len(D[m + j])) for j in range(m + 1)]

    nu = sympy.Symbol("nu")
    degenerate = False
    rho = [Fraction(1)]
    if m > 1:
        phis = [sympy.Poly([sympy.Rational(x.numerator, x.denominator) for x in reversed(surface_at(d, m))],
                           nu, domain="QQ") for d in Ds]
        discs = [f.discriminant() for f in phis]
        if all(v == 0 for v in discs):
            degenerate = True
            squarefree = [f.sqf_part() for f in phis]
            discs = [f.discriminant() if f.degree() > 1 else sympy.Integer(1) for f in squarefree]
        vals = [Fraction(int(v.p), int(v.q)) for v in map(sympy.Rational, discs)]
        rho = interpolate(points[:nrho + 1], vals[:nrho + 1])
        for z0, v in zip(points[nrho + 1:], vals[nrho + 1:]):
            if poly_eval(rho, z0) != v:
                raise ArithmeticError("rho interpolation does not reproduce a sample")
    real = 0
    if len(rho) > 1:
        x = sympy.Symbol("x")
        poly = sympy.Poly([sympy.Rational(r.numerator, r.denominator) for r in reversed(rho)], x, domain="QQ")
        for g, k in poly.sqf_list()[1]:
            real += k * len(sympy.Poly(g, x).intervals())
    return {
        "D": [[str(x) for x in row] for row in D],
        "c": str(c),
        "q": [[str(x) for x in row] for row in q],
        "rho": [str(x) for x in rho],
        "degenerate": degenerate,
        "real_zeros": real,
    }


# ---------------------------------------------------------- spectral data

def float_blocks(a, b):
    return [np.array(x, dtype=float) for x in a], [np.array(x, dtype=float) for x in b]


def floquet_matrices(A, B, taus):
    """Floquet matrices L(tau) (y_{n+p} = tau y_n), one p m x p m matrix per
    tau, from float blocks A, B; Hermitian when |tau| = 1."""
    p, m = len(A), len(A[0])
    taus = np.asarray(taus, dtype=complex)
    base = np.zeros((p * m, p * m))
    for n in range(p):
        base[n * m:(n + 1) * m, n * m:(n + 1) * m] += B[n]
        if n < p - 1:
            base[n * m:(n + 1) * m, (n + 1) * m:(n + 2) * m] += A[n]
            base[(n + 1) * m:(n + 2) * m, n * m:(n + 1) * m] += A[n].T
    wrap = np.zeros((p * m, p * m))  # the a_{p-1} block that closes the period
    wrap[(p - 1) * m:, :m] = A[p - 1]
    return base + taus[:, None, None] * wrap + wrap.T / taus[:, None, None]


def spectral_document(a, b, rule, seed):
    """Recovery input: the whole Floquet spectrum at kappa_0 and shrinking
    subsets, chosen by rule, at kappa_1..kappa_m."""
    p, m = len(a), len(a[0])
    A, B = float_blocks(a, b)
    rng = random.Random(seed)
    kappas = KAPPAS[:m + 1]
    sets = []
    taus = [complex(math.cos(kappa), math.sin(kappa)) for kappa in kappas]
    for j, L in enumerate(floquet_matrices(A, B, taus)):
        eigs = sorted(float(v) for v in np.linalg.eigvalsh(L))
        if j:
            size = (m - j) * p + 1
            if rule == "ascending":
                eigs = eigs[:size]
            elif rule == "descending":
                eigs = eigs[-size:]
            else:
                eigs = [eigs[i] for i in sorted(rng.sample(range(p * m), size))]
        sets.append(eigs)
    return {"schema": "blochjac/1", "p": p, "m": m, "kappas": list(kappas), "lambda_sets": sets}


# ------------------------------------------------------------------ corpus

def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


def _cached_references(name, a, b, ref_dir):
    """exact_references of a base operator, kept on disk under its name.

    The seed only changes coordinates, which leave every reference as it
    is, so one computation serves every seed."""
    path = os.path.join(ref_dir, name + ".json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    refs = exact_references(a, b)
    os.makedirs(ref_dir, exist_ok=True)
    _write_json(path + ".tmp", refs)
    os.replace(path + ".tmp", path)
    return refs


def build(entries, seed, out_dir, ref_dir):
    """Write the documents for entries (as in WORKLOADS) and return the command list.

    Each command is a dict with an id, the subcommand, its arguments after
    the subcommand, the operator document it came from, and what the oracle
    compares against.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(seed)
    commands = []
    for family, base, p, m, subs in entries:
        base_op = random_operator(base, p, m) if family == "random" else free_operator(p, m)
        a, b = equivalent(*base_op, rng)
        name = f"{family}{base}_{p}_{m}"
        op_path = os.path.join(out_dir, f"{name}.json")
        _write_json(op_path, operator_document(a, b))
        refs = {}
        if {"resonances", "recover", "lyapunov"} & set(subs):
            refs = _cached_references(name, *base_op, ref_dir)
        for sub in subs:
            if sub == "recover":
                for i, rule in enumerate(SUBSET_RULES):
                    path = os.path.join(out_dir, f"{name}_{rule}.json")
                    # from the base operator, so the same for every seed: recover's
                    # snapping flips under rounding-level changes of its input
                    _write_json(path, spectral_document(*base_op, rule, base * 1000 + i))
                    commands.append({"id": f"recover {name} {rule}", "sub": sub, "args": [path],
                                     "operator": op_path, "ref": {k: refs[k] for k in ("c", "q")}})
                continue
            args = [op_path] + (["--z-grid=" + LYAPUNOV_GRID] if sub == "lyapunov" else [])
            ref = ({k: refs[k] for k in ("rho", "degenerate", "real_zeros")} if sub == "resonances"
                   else {"D": refs["D"]} if sub == "lyapunov" else {})
            commands.append({"id": f"{sub} {name}", "sub": sub, "args": args, "operator": op_path, "ref": ref})
    return commands


def load_or_build(workload, seed, root):
    """The corpus of (workload, seed) under root, built once and then reused.

    The cache key covers this file, so a change to the generator rebuilds.
    """
    with open(__file__, "rb") as fh:
        tag = hashlib.sha256(fh.read()).hexdigest()[:12]
    out_dir = os.path.join(root, f"{workload}-{seed}-{tag}")
    index = os.path.join(out_dir, "commands.json")
    if not os.path.exists(index):
        tmp = out_dir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        commands = build(WORKLOADS[workload], seed, tmp, os.path.join(root, f"references-{tag}"))
        for c in commands:
            c["args"] = [x.replace(tmp, out_dir) for x in c["args"]]
            c["operator"] = c["operator"].replace(tmp, out_dir)
        _write_json(os.path.join(tmp, "commands.json"), commands)
        shutil.rmtree(out_dir, ignore_errors=True)
        os.replace(tmp, out_dir)
    with open(index) as fh:
        return json.load(fh)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args()
    print(json.dumps(load_or_build(args.workload, args.seed, args.root)))


if __name__ == "__main__":
    main()
