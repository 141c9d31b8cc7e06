"""Command line front end: JSON documents in, JSON documents out.

Operator documents carry exact rational entries as strings ("3", "-1/2",
"0.25"), so nothing is forced through binary floating point on the way in.
Every command prints a single deterministic JSON document to stdout; human
diagnostics go to stderr. Exit codes: 0 ok, 2 invalid input, 3 internal
consistency failure, 4 inconsistent spectral data, 5 verification failure.
"""

import argparse
import decimal
import json
import math
import sys
from fractions import Fraction

try:
    # hashlib maps OpenSSL's libcrypto for one digest; CPython's own modules do not
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .fixtures import (
    example1_diag,
    example2_const,
    example3,
    example4,
    free_operator,
)
from .inverse import (
    InconsistentDataError,
    SpectralData,
    recover_determinant,
    snap_to_rational,
)
from .numerics import RootFindingError
from .operators import PeriodicOperator
from .spectral import (
    InternalConsistencyError,
    band_structure,
    char_determinant,
    classify_gaps,
    lyapunov_at,
    multipliers_at,
    resonances,
    verify_identities,
)

SCHEMA = "blochjac/1"
MAX_DIGITS = 4300  # Python's default limit on the digits of an int written as a string

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_INTERNAL = 3
EXIT_INCONSISTENT_DATA = 4
EXIT_VERIFY_FAILED = 5


class InputError(Exception):
    """Anything wrong with a document or flag value; maps to exit code 2."""


def _read_bytes(path):
    if path in (None, "-"):
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _digest(data: bytes) -> str:
    return "sha256:" + sha256(data).hexdigest()


def _parse_json(data: bytes):
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from exc


def _rational(value, where):
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"{where}: exact entries must be strings, not {type(value).__name__}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # the digits value writes plus its decimal exponent bound the digits of
        # the numerator and denominator, so they are checked before Fraction builds them
        mantissa, _, exp = value.lower().replace("_", "").partition("e")
        exp = exp.strip().lstrip("+-").lstrip("0")
        exp = exp if exp.isdecimal() else "0"  # none, or one that Fraction refuses
        digits = max(sum(map(str.isdecimal, part)) for part in mantissa.split("/"))
        if len(exp) > 5 or digits + int(exp) > MAX_DIGITS:
            raise InputError(f"{where}: its numerator or denominator would have more than {MAX_DIGITS} digits")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{where}: cannot parse {value!r} as a rational") from exc
    raise InputError(f"{where}: expected a string, got {type(value).__name__}")


def _json_int(doc, key) -> int:
    """doc[key] when it is a JSON integer; true, 1.5 and "2" are refused, not coerced."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{key} must be a JSON integer, got {json.dumps(value)}")
    return value


def _finite_number(value, where) -> float:
    """value as a float when it is a finite JSON number; "inf", false and NaN are refused."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        x = float(value) if number else math.nan
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise InputError(f"{where} must be a finite JSON number, got {json.dumps(value)}")
    return x


def _header(doc, kind: str, needs: str, keys) -> tuple:
    """(p, m, doc[key] for each key) of a kind document, refusing a bad object, schema, p or m."""
    if not isinstance(doc, dict):
        raise InputError(f"{kind} document must be a JSON object")
    if doc.get("schema") not in (None, SCHEMA):
        raise InputError(f"unsupported schema {doc.get('schema')!r}")
    try:
        p, m = _json_int(doc, "p"), _json_int(doc, "m")
        values = tuple(doc[key] for key in keys)
    except KeyError as exc:
        raise InputError(f"{needs} ({exc})") from exc
    if p < 1 or m < 1:
        raise InputError(f"p = {p} and m = {m} must be at least 1")
    return (p, m) + values


def operator_from_document(doc) -> PeriodicOperator:
    p, m, a_raw, b_raw = _header(doc, "operator", "operator document needs integer p, m and lists a, b",
                                 ("a", "b"))
    for name, mats in (("a", a_raw), ("b", b_raw)):
        if not isinstance(mats, list) or len(mats) != p:
            raise InputError(f"{name} must be a list of {p} matrices")
        for n, mat in enumerate(mats):
            if not isinstance(mat, list) or len(mat) != m or any(
                not isinstance(row, list) or len(row) != m for row in mat
            ):
                raise InputError(f"{name}[{n}] is not an {m}x{m} matrix")
    a = [[[_rational(x, f"a[{n}][{i}][{j}]") for j, x in enumerate(row)]
          for i, row in enumerate(mat)] for n, mat in enumerate(a_raw)]
    b = [[[_rational(x, f"b[{n}][{i}][{j}]") for j, x in enumerate(row)]
          for i, row in enumerate(mat)] for n, mat in enumerate(b_raw)]
    return PeriodicOperator(a, b)


def operator_to_document(op: PeriodicOperator) -> dict:
    return {
        "schema": SCHEMA,
        "p": op.p,
        "m": op.m,
        "a": [[[_exact(x) for x in row] for row in mat] for mat in op.a],
        "b": [[[_exact(x) for x in row] for row in mat] for mat in op.b],
    }


def _cnum(v) -> list:
    z = complex(v)
    # adding 0.0 turns -0.0 into +0.0, keeping documents canonical
    return [z.real + 0.0, z.imag + 0.0]


_FULL_DIGITS = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)


def _exact(x: Fraction) -> str:
    """str(x) in full: str of an int refuses more than 4300 digits, and decimal has no such limit."""
    num, den = (format(_FULL_DIGITS.create_decimal(v), "f") for v in (x.numerator, x.denominator))
    return num if den == "1" else f"{num}/{den}"


def _result(command: str, digest: str, payload) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "input": digest,
        "version": __version__,
        "payload": payload,
    }


def _emit(doc) -> None:
    # allow_nan=False: a float that overflowed is refused (exit 2), not printed as Infinity
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n")


def _load_operator(args):
    data = _read_bytes(args.input)
    return operator_from_document(_parse_json(data)), _digest(data)


def cmd_example(args) -> int:
    # argparse strips a value of "--", as in --t=--, and hands over an empty list
    t, beta = ("--" if value == [] else value for value in (args.t, args.beta))
    if args.name == "free":
        if args.p * args.m**2 > 10**4:  # entries of a_1, ..., a_p, and as many of b
            raise InputError(f"--p * --m^2 must be at most {10**4}, got {args.p * args.m**2}")
        op = free_operator(args.p, args.m)
    elif args.name == "example1-diag":
        op = example1_diag()
    elif args.name == "example2-const":
        op = example2_const(_rational(beta, "--beta"))
    elif args.name == "example3":
        op = example3(_rational(t, "--t"))
    else:
        op = example4(_rational(t, "--t"))
    _emit(operator_to_document(op))
    return EXIT_OK


def _band_payload(bs, gaps) -> dict:
    return {
        "segments": [[s.lo, s.hi, s.multiplicity] for s in bs.segments],
        "edges": [[e.value, e.kind, list(e.branches)] for e in bs.edges],
        "branch_bands": [[[lo, hi] for lo, hi in bands] for bands in bs.branch_bands],
        "gaps": [g._asdict() for g in gaps],  # classify_gaps sorts lo_kinds and hi_kinds
    }


def cmd_bands(args) -> int:
    op, digest = _load_operator(args)
    bs = band_structure(char_determinant(op))
    _emit(_result("bands", digest, _band_payload(bs, classify_gaps(bs))))
    return EXIT_OK


def cmd_resonances(args) -> int:
    op, digest = _load_operator(args)
    rs = resonances(char_determinant(op))
    payload = {
        "rho": [_exact(c) for c in rs.rho],
        "zeros": [_cnum(v) for v in rs.values],
        "real": list(rs.real),
        "clusters": [[_cnum(v), k] for v, k in rs.clusters],
        "degenerate": rs.degenerate,
    }
    _emit(_result("resonances", digest, payload))
    return EXIT_OK


def _int_in(low, high, flag):
    """argparse type for an int flag that must lie in [low, high].

    Every size flag has a ceiling, listed in the README, so that no value
    can allocate or run without bound. It raises InputError, which argparse
    lets through, so main reports the flag like any other bad input.
    """
    def parse(text: str):
        try:
            value = int(text)
        except ValueError as exc:
            raise InputError(f"{flag}: {exc}") from exc
        if value < low:
            raise InputError(f"{flag} must be at least {low}, got {text}")
        if value > high:
            raise InputError(f"{flag} must be at most {high}, got {text}")
        return value
    return parse


def _parse_z(text: str) -> complex:
    parts = text.split(",")
    if len(parts) > 2:
        raise InputError(f"--z wants re or re,im, got {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError as exc:
        raise InputError(f"--z: {exc}") from exc
    if not (math.isfinite(re) and math.isfinite(im)):
        raise InputError(f"--z must be finite, got {text!r}")
    return complex(re, im)


def _parse_grid(text: str) -> list:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"--z-grid wants lo:hi:N, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError(f"--z-grid: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
        raise InputError(f"--z-grid needs finite lo, hi and hi - lo, got {text!r}")
    if n < 2 or hi <= lo:
        raise InputError("--z-grid needs hi > lo and N >= 2")
    if n > 10**5:
        raise InputError(f"--z-grid N must be at most {10**5}, got {n}")
    step = (hi - lo) / (n - 1)
    return [complex(lo + k * step, 0.0) for k in range(n)]


def cmd_lyapunov(args) -> int:
    op, digest = _load_operator(args)
    points = [args.z] if args.z is not None else args.z_grid
    cd = char_determinant(op)
    out = []
    for z in points:
        branches = lyapunov_at(cd, z)
        out.append(
            {
                "z": _cnum(z),
                "branches": [{"value": _cnum(b.value), "real": b.real} for b in branches],
                "multipliers": [
                    {
                        "pair": [_cnum(t) for t in pair],
                        "abs": [abs(t) for t in pair],
                        "on_circle": [b.on_circle] * 2,
                    }
                    for b, pair in zip(branches, multipliers_at(branches))
                ],
            }
        )
    _emit(_result("lyapunov", digest, {"points": out}))
    return EXIT_OK


def _complex_from_doc(value, where) -> complex:
    if not isinstance(value, list):
        return complex(_finite_number(value, where))
    if len(value) != 2:
        raise InputError(f"{where}: eigenvalues are numbers or [re, im] pairs")
    return complex(_finite_number(value[0], f"{where}[0]"), _finite_number(value[1], f"{where}[1]"))


def spectral_data_from_document(doc) -> SpectralData:
    p, m, raw_kappas, raw_sets = _header(doc, "spectral data", "spectral data needs p, m, kappas, lambda_sets",
                                         ("kappas", "lambda_sets"))
    if not isinstance(raw_kappas, list):
        raise InputError("kappas must be a list of numbers")
    kappas = tuple(_finite_number(k, f"kappas[{i}]") for i, k in enumerate(raw_kappas))
    if not isinstance(raw_sets, list):
        raise InputError("lambda_sets must be a list of lists")
    sets = []
    for j, lam in enumerate(raw_sets):
        if not isinstance(lam, list):
            raise InputError(f"lambda_sets[{j}] must be a list")
        sets.append(tuple(_complex_from_doc(v, f"lambda_sets[{j}][{i}]") for i, v in enumerate(lam)))
    return SpectralData(p=p, m=m, kappas=kappas, lambda_sets=tuple(sets))


def cmd_recover(args) -> int:
    data = _read_bytes(args.input)
    sd = spectral_data_from_document(_parse_json(data))
    rec = recover_determinant(sd)
    payload = {
        "c": _cnum(rec.c),
        "q": [[_cnum(v) for v in rec.q[j]] for j in range(sd.m + 1)],
        "D": [[_cnum(v) for v in rec.D[i]] for i in range(2 * sd.m + 1)],
        "residuals": list(rec.residuals),
    }
    try:
        snapped = snap_to_rational(rec)
    except InconsistentDataError as exc:
        payload["exact"] = None
        payload["bands"] = None
        payload["snap_error"] = str(exc)
    else:
        payload["exact"] = {
            "c": _exact(snapped.c),
            "q": [[_exact(c) for c in q + (0,) * (sd.p * sd.m + 1 - len(q))] for q in snapped.q],
        }
        try:
            bs = band_structure(snapped)
        except InternalConsistencyError as exc:
            # the snapped D is exact: no self-adjoint operator has it
            raise InconsistentDataError(
                f"inconsistent spectral data: bands of the snapped determinant: {exc}"
            ) from exc
        payload["bands"] = _band_payload(bs, classify_gaps(bs))
    _emit(_result("recover", _digest(data), payload))
    return EXIT_OK


def cmd_verify(args) -> int:
    op, digest = _load_operator(args)
    checks = verify_identities(op)
    failed = [c.name for c in checks if c.status == "fail"]
    payload = {
        "checks": [c._asdict() for c in checks],
        "all_pass": not failed,
    }
    _emit(_result("verify", digest, payload))
    if failed:
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochjac",
        description="Spectral toolkit for periodic block Jacobi operators.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(sp):
        sp.add_argument("input", nargs="?", default="-",
                        help="operator document path, or - for stdin (default)")

    sp = sub.add_parser("bands", help="spectral bands, edges, and gap classification")
    add_input(sp)
    sp.set_defaults(func=cmd_bands)

    sp = sub.add_parser("resonances", help="resonance polynomial and its zeros")
    add_input(sp)
    sp.set_defaults(func=cmd_resonances)

    sp = sub.add_parser("lyapunov", help="Lyapunov branch values and multipliers")
    add_input(sp)
    where = sp.add_mutually_exclusive_group(required=True)
    where.add_argument("--z", type=_parse_z, help="evaluation point, re or re,im")
    where.add_argument("--z-grid", type=_parse_grid,
                       help="real evaluation grid lo:hi:N, N from 2 to 100000")
    sp.set_defaults(func=cmd_lyapunov)

    sp = sub.add_parser("recover", help="recover the determinant from spectral data")
    add_input(sp)
    sp.set_defaults(func=cmd_recover)

    sp = sub.add_parser("verify", help="run the identity battery on an operator")
    add_input(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("example", help="emit a built-in operator document")
    sp.add_argument("name", choices=["example1-diag", "example2-const", "example3", "example4", "free"])
    sp.add_argument("--t", default="0", help="parameter t for example3/example4 (rational, default 0)")
    sp.add_argument("--beta", default="1", help="parameter beta for example2-const (rational, default 1)")
    sp.add_argument("--p", type=_int_in(1, 10**4, "--p"), default=2,
                    help="period for free (default 2); p * m^2 at most 10000")
    sp.add_argument("--m", type=_int_in(1, 100, "--m"), default=1,
                    help="block size for free (default 1); p * m^2 at most 10000")
    sp.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except InconsistentDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT_DATA
    except (InternalConsistencyError, RootFindingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    # an input the exact layer accepts can still overflow a float or
    # underflow to zero further on; that is a limit of the input, not a bug
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
