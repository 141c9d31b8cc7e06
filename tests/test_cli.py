import contextlib
import io
import json
import math
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from testops import random_operator

from blochjac import cli, exactmath, operators, spectral
from blochjac.fixtures import example3, example4
from blochjac.spectral import IdentityCheck


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def strict_loads(text):
    """json.loads that refuses Infinity, -Infinity and NaN, which JSON does not have."""
    return json.loads(text, parse_constant=_not_json)


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    assert code == 0
    return strict_loads(out)


def run_error_line(capsys, argv):
    """Exit code and stderr line of a run that must fail with one `error:` line and no output."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return code, lines[0]


def run_error(capsys, argv):
    return run_error_line(capsys, argv)[0]


def write_json(tmp_path, doc, name):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def write_doc(tmp_path, capsys, argv, name="op.json"):
    code, out = run_cli(capsys, argv)
    assert code == 0
    path = tmp_path / name
    path.write_text(out)
    return str(path)


def test_example_emits_parseable_exact_document(capsys):
    doc = run_json(capsys, ["example", "example3", "--t", "1"])
    assert doc["schema"] == "blochjac/1"
    op = cli.operator_from_document(doc)
    want = example3(1)
    assert (op.p, op.m, op.a, op.b) == (want.p, want.m, want.a, want.b)


def test_example_fractional_parameter(capsys):
    doc = run_json(capsys, ["example", "example4", "--t", "1/2"])
    op = cli.operator_from_document(doc)
    want = example4("1/2")
    assert op.b == want.b


@pytest.mark.parametrize("flag", ["--t", "--beta"])
@pytest.mark.parametrize("value", ["1e5000", "1e-4300", "9" * 5000, "1/" + "7" * 4301])
def test_example_refuses_a_parameter_past_the_int_string_limit(capsys, flag, value):
    name = "example3" if flag == "--t" else "example2-const"
    code, line = run_error_line(capsys, ["example", name, f"{flag}={value}"])
    assert code == 2
    assert line == f"error: {flag}: its numerator or denominator would have more than 4300 digits"


@pytest.mark.parametrize("name,flag", [("example3", "--t"), ("example4", "--t"), ("example2-const", "--beta")])
def test_example_names_the_flag_and_value_when_the_value_is_a_double_dash(capsys, name, flag):
    # argparse strips the "--" of --t=-- before the value reaches the parser of rationals
    code, line = run_error_line(capsys, ["example", name, f"{flag}=--"])
    assert code == 2
    assert line == f"error: {flag}: cannot parse '--' as a rational"


def test_document_entry_past_the_int_string_limit_is_refused_before_it_is_built(tmp_path, capsys):
    # Fraction("1e10000000") alone builds a ten-million-digit power of ten
    doc = {"p": 1, "m": 1, "a": [[["1"]]], "b": [[["1e10000000"]]]}
    code, line = run_error_line(capsys, ["bands", write_json(tmp_path, doc, "big.json")])
    assert code == 2
    assert line == "error: b[0][0][0]: its numerator or denominator would have more than 4300 digits"


@pytest.mark.parametrize("entry", ["1e100", "1e160", "1e300", "1e400", "1e-300", "1e4299", "-1e4299", "1e-4299"])
def test_document_entries_up_to_the_int_string_limit_are_read(entry):
    doc = {"p": 1, "m": 1, "a": [[["1"]]], "b": [[[entry]]]}
    assert cli.operator_from_document(doc).b == ((((Fraction(entry),),),))


def test_bands_on_emitted_example(tmp_path, capsys):
    path = write_doc(tmp_path, capsys, ["example", "example4", "--t", "0"])
    doc = run_json(capsys, ["bands", path])
    segments = doc["payload"]["segments"]
    assert [s[2] for s in segments] == [1, 2, 1]
    flat = [x for s in segments for x in s[:2]]
    assert flat == pytest.approx([-2, -1, -1, 2, 2, 3], abs=1e-9)
    bands = doc["payload"]["branch_bands"]
    assert bands[0][0] == pytest.approx([-2, 2], abs=1e-9)
    assert bands[1][0] == pytest.approx([-1, 3], abs=1e-9)


def test_bands_output_is_byte_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path, capsys, ["example", "example3", "--t", "1"])
    _, first = run_cli(capsys, ["bands", path])
    _, second = run_cli(capsys, ["bands", path])
    assert first == second


def test_bands_follows_seven_branches(tmp_path, capsys):
    # branch matching is polynomial in m, so seven branches take seconds
    path = write_json(tmp_path, cli.operator_to_document(random_operator(1, 1, 7)), "m7.json")
    payload = run_json(capsys, ["bands", path])["payload"]
    assert len(payload["branch_bands"]) == 7
    for lo, hi, mult in payload["segments"]:
        x = (lo + hi) / 2
        assert mult == sum(a <= x <= b for bands in payload["branch_bands"] for a, b in bands)


def test_bands_rejects_invalid_operator(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "p": 1, "m": 2,
        "a": [[["1", "0"], ["0", "1"]]],
        "b": [[["0", "1"], ["2", "0"]]],
    }))
    code, _ = run_cli(capsys, ["bands", str(path)])
    assert code == 2


def test_bands_reads_json_integer_entries_as_their_string_form(tmp_path, capsys):
    ints = {"p": 1, "m": 1, "a": [[[1]]], "b": [[[0]]]}
    strings = {"p": 1, "m": 1, "a": [[["1"]]], "b": [[["0"]]]}
    assert (run_json(capsys, ["bands", write_json(tmp_path, ints, "int.json")])["payload"]
            == run_json(capsys, ["bands", write_json(tmp_path, strings, "str.json")])["payload"])


def test_bands_rejects_float_entries(tmp_path, capsys):
    path = tmp_path / "float.json"
    path.write_text(json.dumps({"p": 1, "m": 1, "a": [[[1.5]]], "b": [[[0]]]}))
    code, _ = run_cli(capsys, ["bands", str(path)])
    assert code == 2


def test_bands_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "nope.json"
    path.write_text("{truncated")
    code, _ = run_cli(capsys, ["bands", str(path)])
    assert code == 2


def test_resonances_complex_pair(tmp_path, capsys):
    path = write_doc(tmp_path, capsys, ["example", "example3", "--t", "1/2"])
    payload = run_json(capsys, ["resonances", path])["payload"]
    assert payload["degenerate"] is False
    assert payload["real"] == [False, False]
    a, b = payload["zeros"]
    assert a[0] == pytest.approx(b[0])
    assert a[1] == pytest.approx(-b[1])


def test_resonances_real_pair_outside_unit_t(tmp_path, capsys):
    path = write_doc(tmp_path, capsys, ["example", "example3", "--t", "2"])
    payload = run_json(capsys, ["resonances", path])["payload"]
    assert payload["real"] == [True, True]
    assert payload["zeros"][0][0] < payload["zeros"][1][0]


def test_resonances_degenerate_free_block(tmp_path, capsys):
    path = write_doc(tmp_path, capsys, ["example", "free", "--p", "2", "--m", "2"])
    payload = run_json(capsys, ["resonances", path])["payload"]
    assert payload["degenerate"] is True
    assert payload["zeros"] == []


def test_resonances_exact_coefficients(tmp_path, capsys):
    path = write_doc(tmp_path, capsys, ["example", "example3", "--t", "1"])
    payload = run_json(capsys, ["resonances", path])["payload"]
    assert payload["rho"] == ["1/4", "1", "1"]


def test_lyapunov_single_point(tmp_path, capsys):
    path = write_doc(tmp_path, capsys, ["example", "free", "--p", "3", "--m", "1"])
    point = run_json(capsys, ["lyapunov", path, "--z", "0"])["payload"]["points"][0]
    assert point["branches"] == [{"real": True, "value": [0.0, 0.0]}]
    mult = point["multipliers"][0]
    assert mult["on_circle"] == [True, True]
    assert mult["abs"] == pytest.approx([1, 1])


@pytest.mark.parametrize("z,on_circle", [("2", True), ("2.0000001", False), ("2,1e-12", False)])
def test_lyapunov_on_circle_is_a_real_branch_in_minus_one_one(tmp_path, capsys, z, on_circle):
    # z = 2 is a band edge of the free operator: its one branch is real at
    # nu = 1, and the pair is (1, 1); just past the edge the branch is real
    # past 1, and the pair is real and apart; at a non-real z no multiplier
    # of a self-adjoint operator is unimodular, though the branch 1 + 2e-12 i
    # is flagged real
    path = write_doc(tmp_path, capsys, ["example", "free", "--p", "2", "--m", "1"])
    (point,) = run_json(capsys, ["lyapunov", path, "--z", z])["payload"]["points"]
    (mult,) = point["multipliers"]
    assert mult["on_circle"] == [on_circle] * 2
    if on_circle:
        assert point["branches"] == [{"real": True, "value": [1.0, 0.0]}]
        assert mult["pair"] == [[1.0, 0.0], [1.0, 0.0]]
    else:
        assert mult["pair"][0][0] < 1 < mult["pair"][1][0]


def test_lyapunov_grid_sweep(tmp_path, capsys):
    path = write_doc(tmp_path, capsys, ["example", "free", "--p", "2", "--m", "1"])
    points = run_json(capsys, ["lyapunov", path, "--z-grid=-3:3:7"])["payload"]["points"]
    assert [p["z"][0] for p in points] == pytest.approx([-3, -2, -1, 0, 1, 2, 3])
    for p in points:
        x = p["z"][0]
        nu = p["branches"][0]["value"][0]
        assert nu == pytest.approx(x * x / 2 - 1, abs=1e-9)


def test_lyapunov_complex_point(tmp_path, capsys):
    path = write_doc(tmp_path, capsys, ["example", "free", "--p", "2", "--m", "1"])
    point = run_json(capsys, ["lyapunov", path, "--z", "1,1"])["payload"]["points"][0]
    assert point["branches"][0]["real"] is False
    # nu = z^2/2 - 1 at z = 1 + i
    assert point["branches"][0]["value"] == pytest.approx([-1, 1])


def test_lyapunov_rejects_bad_grid(tmp_path, capsys):
    path = write_doc(tmp_path, capsys, ["example", "free"])
    code, _ = run_cli(capsys, ["lyapunov", path, "--z-grid", "3:-3:7"])
    assert code == 2


def test_recover_free_scalar_document(tmp_path, capsys):
    data = {
        "schema": "blochjac/1",
        "p": 2,
        "m": 1,
        "kappas": [0.0, math.pi],
        "lambda_sets": [[-2, 2], [0]],
    }
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    payload = run_json(capsys, ["recover", str(path)])["payload"]
    assert payload["c"] == pytest.approx([-1, 0])
    assert payload["residuals"] == pytest.approx([0, 0], abs=1e-9)
    assert payload["exact"]["c"] == "-1"
    assert payload["exact"]["q"] == [["-2", "0", "1"], ["-1", "0", "0"]]
    assert payload["bands"]["segments"] == [[pytest.approx(-2), pytest.approx(2), 1]]


def test_recover_accepts_re_im_pairs(tmp_path, capsys):
    data = {
        "p": 2,
        "m": 1,
        "kappas": [0.0, math.pi],
        "lambda_sets": [[[-2, 0], [2, 0]], [[0, 0]]],
    }
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(data))
    payload = run_json(capsys, ["recover", str(path)])["payload"]
    assert payload["exact"]["c"] == "-1"


def test_recover_wrong_cardinality_exits_4(tmp_path, capsys):
    data = {"p": 2, "m": 1, "kappas": [0.0, math.pi], "lambda_sets": [[-2, 2], [0, 1]]}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(data))
    code, _ = run_cli(capsys, ["recover", str(path)])
    assert code == 4


def test_recover_data_of_no_self_adjoint_operator_exits_4(tmp_path, capsys):
    # recovery snaps to a D whose q(z, -1) = z^2 + 7/2 has no real root
    data = {"p": 2, "m": 1, "kappas": [0.0, math.pi / 2], "lambda_sets": [[-2, 2], [0.5]]}
    code, line = run_error_line(capsys, ["recover", write_json(tmp_path, data, "data.json")])
    assert code == 4 and "bands of the snapped determinant" in line and "q(., -1)" in line


@pytest.mark.parametrize("p,m", [(0, 1), (1, 0), (-1, 2)])
def test_recover_refuses_sizes_below_one(tmp_path, capsys, p, m):
    data = {"p": p, "m": m, "kappas": [0.0, 3.14], "lambda_sets": [[], [0]]}
    code, line = run_error_line(capsys, ["recover", write_json(tmp_path, data, "data.json")])
    assert code == 2 and "must be at least 1" in line


def test_recover_huge_eigenvalue_prints_one_error_line(tmp_path):
    # a separate process, so that a numpy warning would reach the real stderr
    data = {"p": 2, "m": 1, "kappas": [0.0, math.pi], "lambda_sets": [[1e200, 0.5], [-1.0]]}
    done = subprocess.run(
        [sys.executable, "-m", "blochjac.cli", "recover", write_json(tmp_path, data, "huge.json")],
        capture_output=True,
    )
    lines = done.stderr.decode().splitlines()
    assert done.returncode in (2, 3, 4)
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
    assert done.stdout == b""


def test_recover_snap_names_a_vanishing_middle_coefficient(tmp_path, capsys):
    # a = 1e10 makes c = -1e-10, so the tau^m coefficient c q_0 snaps to zero
    doc = {"p": 1, "m": 1, "kappas": [0.0, math.pi], "lambda_sets": [[2e10], [-2e10]]}
    payload = run_json(capsys, ["recover", write_json(tmp_path, doc, "data.json")])["payload"]
    assert payload["exact"] is None
    assert payload["snap_error"] == "inconsistent spectral data: deg xi_m = -inf, expected 1"


def test_recover_section_beyond_the_root_finder_exits_2(tmp_path, capsys):
    # the recovered q is finite, but its section at kappa_0 spans 200 orders of magnitude
    data = {"p": 2, "m": 1, "kappas": [0.0, math.pi], "lambda_sets": [[1e200, 0.5], [-1.0]]}
    code, line = run_error_line(capsys, ["recover", write_json(tmp_path, data, "huge.json")])
    assert code == 2
    assert line == "error: recovered section at kappa_0 has coefficients beyond the float root finder"


def run_captured(argv):
    """Exit code, stdout and stderr of an in-process run; a Python warning counts as stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    shown = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), err.getvalue() + shown


# phases with coincident (0, 2 pi) and near-coincident (0.1, 0.1 + 1e-8) cosines
FUZZ_KAPPAS = (0.0, math.pi, math.pi / 2, math.pi / 3, 2 * math.pi, 0.1, 0.1 + 1e-8, 1.0)
FUZZ_REALS = st.one_of(
    st.sampled_from([0.0, 0.5, -1.0, 2.0, 1e-300, 1e200, 1e300, -1e300]),
    st.floats(min_value=-3, max_value=3),
)
FUZZ_EIGENVALUES = st.one_of(FUZZ_REALS, st.lists(FUZZ_REALS, min_size=2, max_size=2))


@st.composite
def spectral_documents(draw):
    p = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=3))
    kappas = draw(st.lists(st.sampled_from(FUZZ_KAPPAS), min_size=m + 1, max_size=m + 1))
    sets = []
    for j in range(m + 1):
        size = p * m if j == 0 else (m - j) * p + 1
        # now and then one value too many or too few
        size += draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1]))
        sets.append(draw(st.lists(FUZZ_EIGENVALUES, min_size=size, max_size=size)))
    return {"p": p, "m": m, "kappas": kappas, "lambda_sets": sets}


@settings(max_examples=150, deadline=None)
@given(spectral_documents())
def test_recover_fuzz_ends_in_a_documented_exit(tmp_path_factory, doc):
    path = write_json(tmp_path_factory.mktemp("fuzz"), doc, "data.json")
    code, out, err = run_captured(["recover", path])
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == ""
        strict_loads(out)
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert out == ""
    assert run_captured(["recover", path])[1] == out


FUZZ_ENTRIES = ("0", "1", "-1", "2", "1/2", "1/3", "-7/3", "0.25", "2.5", "123456789/7",
                "1e-9", "1e-300", "1e160", "1e300", "4e308")


@st.composite
def operator_documents(draw):
    p = draw(st.sampled_from([1, 2, 3]))
    m = draw(st.sampled_from([1, 2]))
    entry = st.sampled_from(FUZZ_ENTRIES)
    a = [[[draw(entry) for _ in range(m)] for _ in range(m)] for _ in range(p)]
    b = []
    for _ in range(p):
        # b_n mostly symmetric, so most documents pass the operator checks
        upper = {(i, j): draw(entry) for i in range(m) for j in range(i, m)}
        b_n = [[upper[min(i, j), max(i, j)] for j in range(m)] for i in range(m)]
        if m > 1 and draw(st.booleans()):
            b_n[1][0] = draw(entry)
        b.append(b_n)
    return {"p": p, "m": m, "a": a, "b": b}


@settings(max_examples=12, deadline=None)
@given(operator_documents())
def test_operator_fuzz_ends_in_a_documented_exit(tmp_path_factory, doc):
    path = write_json(tmp_path_factory.mktemp("fuzz"), doc, "op.json")
    for argv in (["bands", path], ["resonances", path], ["verify", path], ["lyapunov", path, "--z=0.5"],
                 ["lyapunov", path, "--z=0.3,0.2"], ["lyapunov", path, "--z-grid=-3:3:7"]):
        code, out, err = run_captured(argv)
        assert code in (0, 2, 3, 4, 5), (argv, err)
        assert "Traceback" not in err
        lines = err.splitlines()
        if code in (2, 3, 4):
            assert len(lines) == 1 and lines[0].startswith("error: "), err
            assert out == ""
        else:
            assert lines == [] if code == 0 else len(lines) == 1 and lines[0].startswith("failed checks: "), err
            strict_loads(out)
        assert run_captured(argv)[1] == out


def test_resonances_prints_coefficients_past_the_int_string_limit(tmp_path, capsys):
    # rho has a coefficient of 8803 characters, past Python's 4300-digit str(int)
    doc = {"p": 1, "m": 2, "a": [[["1", "0"], ["1", "1"]]], "b": [[["1e-2200", "1"], ["1", "2"]]]}
    payload = run_json(capsys, ["resonances", write_json(tmp_path, doc, "op.json")])["payload"]
    assert max(len(c) for c in payload["rho"]) == 8803
    with_limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        assert [Fraction(c) for c in payload["rho"]] == list(spectral.resonances(
            spectral.char_determinant(cli.operator_from_document(doc))).rho)
    finally:
        sys.set_int_max_str_digits(with_limit)


@pytest.mark.parametrize("doc", [
    {"p": 2, "m": 1, "a": [[["1"]], [["1"]]], "b": [[["1e160"]], [["0"]]]},
    {"p": 2, "m": 1, "a": [[["1e-300"]], [["1"]]], "b": [[["0"]], [["0"]]]},
])
def test_lyapunov_multipliers_stay_finite_where_nu_squared_overflows(tmp_path, capsys, doc):
    # the branch at z = 0.5 is -2.5e159 and -3.75e299, so nu^2 overflows,
    # while the pair, about 2 nu and 1 / (2 nu), is finite
    (point,) = run_json(capsys, ["lyapunov", write_json(tmp_path, doc, "op.json"), "--z", "0.5"])["payload"]["points"]
    (multipliers,) = point["multipliers"]
    t1, t2 = (complex(*v) for v in multipliers["pair"])
    assert all(math.isfinite(abs(t)) for t in (t1, t2))
    assert abs(t1 * t2 - 1) <= 1e-12


def test_a_float_past_the_range_exits_2_instead_of_printing_infinity(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, capsys, ["example", "free"])
    monkeypatch.setattr(cli, "multipliers_at", lambda branches: [(complex(math.inf, 0.0), 0j)])
    code, line = run_error_line(capsys, ["lyapunov", path, "--z", "0.5"])
    assert code == 2 and "JSON" in line


def _readme_json(section):
    """The json code blocks of a README '### section', parsed, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    body = readme.split(f"\n### {section}\n", 1)[1].split("\n#", 1)[0]
    return [json.loads(block.split("```", 1)[0]) for block in body.split("```json\n")[1:]]


@pytest.mark.parametrize(
    "section,example,argv",
    [
        ("bands", ["free", "--p", "2", "--m", "1"], ["bands"]),
        ("resonances", ["example4", "--t", "1/2"], ["resonances"]),
        ("lyapunov", ["free", "--p", "3", "--m", "1"], ["lyapunov", "--z", "0"]),
        ("recover", None, ["recover"]),
        ("verify", ["free", "--p", "2", "--m", "1"], ["verify"]),
    ],
)
def test_readme_samples_match_the_output(tmp_path, capsys, section, example, argv):
    blocks = _readme_json(section)
    if example is None:  # the section's first block is the input document
        path = write_json(tmp_path, blocks[0], "spectral.json")
    else:
        path = write_doc(tmp_path, capsys, ["example"] + example)
    payload = run_json(capsys, [argv[0], path] + argv[1:])["payload"]
    sample = blocks[-1]
    if section == "verify":  # the sample is abridged
        assert sample["all_pass"] == payload["all_pass"]
        assert all(check in payload["checks"] for check in sample["checks"])
    else:
        assert payload == sample


def test_verify_passes_on_free_operator(tmp_path, capsys):
    path = write_doc(tmp_path, capsys, ["example", "free", "--p", "3", "--m", "2"])
    code, out = run_cli(capsys, ["verify", path])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["all_pass"] is True
    assert all(c["status"] != "fail" for c in payload["checks"])


def test_verify_failure_exits_5(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, capsys, ["example", "free"])
    monkeypatch.setattr(
        cli, "verify_identities",
        lambda op: [IdentityCheck("rigged", "fail", 1.0, "forced for the exit-code test")],
    )
    code, out = run_cli(capsys, ["verify", path])
    assert code == 5
    assert json.loads(out)["payload"]["all_pass"] is False


def test_verify_invalid_operator_exits_2(tmp_path, capsys):
    path = tmp_path / "asym.json"
    path.write_text(json.dumps({
        "p": 1, "m": 2,
        "a": [[["1", "0"], ["0", "1"]]],
        "b": [[["0", "3"], ["0", "0"]]],
    }))
    code, _ = run_cli(capsys, ["verify", str(path)])
    assert code == 2


def test_documents_carry_schema_and_digest(tmp_path, capsys):
    path = write_doc(tmp_path, capsys, ["example", "free"])
    doc = run_json(capsys, ["bands", path])
    assert doc["schema"] == "blochjac/1"
    assert doc["command"] == "bands"
    assert doc["input"].startswith("sha256:")
    assert doc["version"]


def test_cli_pipe_round_trip():
    emit = subprocess.run(
        [sys.executable, "-m", "blochjac.cli", "example", "free", "--p", "2", "--m", "1"],
        capture_output=True, check=True,
    )
    bands = subprocess.run(
        [sys.executable, "-m", "blochjac.cli", "bands"],
        input=emit.stdout, capture_output=True, check=True,
    )
    payload = json.loads(bands.stdout)["payload"]
    assert payload["segments"] == [[pytest.approx(-2), pytest.approx(2), 1]]


@pytest.mark.parametrize("flag", ["--p", "--m"])
def test_example_free_rejects_zero_sizes(capsys, flag):
    assert run_error(capsys, ["example", "free", flag, "0"]) == 2


@pytest.mark.parametrize("flag", ["--p", "--m"])
def test_int_flags_refuse_values_past_sys_maxsize(capsys, flag):
    # no list can be indexed that far; the flag is named either way
    code, line = run_error_line(capsys, ["example", "free", flag, "1" + "0" * 400])
    assert code == 2 and line.startswith(f"error: {flag} must be at most ")
    assert line.endswith(", got 1" + "0" * 400)


def _refuse_before_work(monkeypatch):
    def fail(*args):
        raise AssertionError("a refused size flag reached the computation")
    monkeypatch.setattr(cli, "_read_bytes", fail)
    monkeypatch.setattr(cli, "free_operator", fail)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["example", "free", "--p", "10000", "--m", "2"], "--p * --m^2 must be at most 10000, got 40000"),
        (["lyapunov", "--z-grid=-3:3:" + "1" + "0" * 30], "--z-grid N must be at most 100000, got 1" + "0" * 30),
        (["lyapunov", "--z-grid=-3:3:100001"], "--z-grid N must be at most 100000, got 100001"),
        (["lyapunov", "--z-grid=-3:3:10000000000"], "--z-grid N must be at most 100000, got 10000000000"),
        (["example", "free", "--p", "10001"], "--p must be at most 10000, got 10001"),
        (["example", "free", "--p", "1000000000000"], "--p must be at most 10000, got 1000000000000"),
        (["example", "free", "--m", "101"], "--m must be at most 100, got 101"),
        (["example", "free", "--m", "1000000000"], "--m must be at most 100, got 1000000000"),
        (["example", "free", "--p", "2", "--m", "100"], "--p * --m^2 must be at most 10000, got 20000"),
    ],
)
def test_size_flags_refuse_values_past_their_ceiling(capsys, monkeypatch, argv, message):
    _refuse_before_work(monkeypatch)
    assert run_error_line(capsys, argv) == (2, f"error: {message}")


def test_size_flags_accept_their_ceiling(capsys):
    parser = cli._build_parser()
    assert len(parser.parse_args(["lyapunov", "--z-grid=-3:3:100000"]).z_grid) == 100000
    args = parser.parse_args(["example", "free", "--p", "10000"])
    assert (args.p, args.m) == (10000, 1)
    doc = run_json(capsys, ["example", "free", "--p", "1", "--m", "100"])
    assert (doc["p"], doc["m"]) == (1, 100)


def test_operator_document_rejects_empty_blocks(tmp_path, capsys):
    path = write_json(tmp_path, {"p": 2, "m": 0, "a": [[], []], "b": [[], []]}, "m0.json")
    assert run_error(capsys, ["bands", path]) == 2


def test_bands_has_no_grid_flag():
    # the bands of an operator are always cross-validated at the DEFAULT_GRID phases
    with pytest.raises(SystemExit) as exc:
        cli.main(["bands", "-", "--grid", str(spectral.DEFAULT_GRID)])
    assert exc.value.code == 2


@pytest.mark.parametrize("grid", ["nan:1:3", "-inf:0:3", "0:inf:3", "-1e308:1e308:3"])
def test_lyapunov_rejects_non_finite_grid(tmp_path, capsys, grid):
    # in the last grid hi - lo overflows to inf
    path = write_doc(tmp_path, capsys, ["example", "free"])
    code, line = run_error_line(capsys, ["lyapunov", path, f"--z-grid={grid}"])
    assert code == 2 and "--z-grid" in line and grid in line


@pytest.mark.parametrize("z", ["nan", "inf,0"])
def test_lyapunov_rejects_non_finite_z(tmp_path, capsys, z):
    path = write_doc(tmp_path, capsys, ["example", "free"])
    assert run_error(capsys, ["lyapunov", path, "--z", z]) == 2


def test_lyapunov_rejects_z_that_overflows(tmp_path, capsys):
    path = write_doc(tmp_path, capsys, ["example", "free"])
    code, line = run_error_line(capsys, ["lyapunov", path, "--z", "1e300"])
    assert code == 2 and "Phi(z, nu) at z = 1e+300" in line


# b = 1e400 rounds to no double; a = 1e308 does, but L(1) = b + 2a does not
BIG_ENTRY = {"p": 1, "m": 1, "a": [[["1"]]], "b": [[["1e400"]]]}
BIG_SUM = {"p": 1, "m": 1, "a": [[["1e308"]]], "b": [[["0"]]]}


@pytest.mark.parametrize("argv", [["bands"], ["verify"], ["lyapunov", "--z", "0"]])
def test_entry_beyond_float_range_exits_2(tmp_path, capsys, argv):
    # bands and verify round the entries first where they build L(tau);
    # lyapunov evaluates Phi exactly, so a sum beyond the float range is no
    # error there
    stage = {"bands": "L(tau)", "verify": "L(tau)", "lyapunov": "Phi(z, nu) at z = 0.0"}[argv[0]]
    for doc in [BIG_ENTRY] + [BIG_SUM] * (argv[0] != "lyapunov"):
        code, line = run_error_line(capsys, [argv[0], write_json(tmp_path, doc, "big.json")] + argv[1:])
        assert code == 2 and stage in line


@pytest.mark.parametrize("command", ["bands", "verify"])
def test_floquet_sum_beyond_float_range_prints_one_error_line(tmp_path, command):
    # a separate process, so that a numpy overflow warning would reach the real stderr
    done = subprocess.run(
        [sys.executable, "-m", "blochjac.cli", command, write_json(tmp_path, BIG_SUM, "big.json")],
        capture_output=True, text=True,
    )
    assert done.returncode == 2
    assert done.stderr == "error: L(tau) has an entry beyond the float range\n"
    assert done.stdout == ""


BIG_B = {"p": 2, "m": 1, "a": [[["1"]], [["1"]]], "b": [[["4e308"]], [["0"]]]}


@pytest.mark.parametrize("z,where", [("0.5", "0.5"), ("0.5,0.25", "(0.5+0.25j)")])
def test_lyapunov_root_bound_beyond_float_range_exits_2(tmp_path, capsys, z, where):
    # Phi(0.5, .) = nu + 1e308 + 7/8 has finite coefficients, but the root
    # finder's bound on its roots, 2e308, is not
    code, line = run_error_line(capsys, ["lyapunov", write_json(tmp_path, BIG_B, "big.json"), "--z", z])
    assert code == 2 and f"Phi(z, nu) at z = {where}" in line


def test_lyapunov_solves_a_linear_phi_whose_aberth_iterate_overflowed(tmp_path, capsys):
    # at 0.3 + 0.2i the root bound is finite, and Aberth's first Horner step
    # from it overflowed, so this exited 2; a linear Phi(z, .) = nu - nu0 is
    # solved as nu0 with no sweep
    path = write_json(tmp_path, BIG_B, "big.json")
    (point,) = run_json(capsys, ["lyapunov", path, "--z", "0.3,0.2"])["payload"]["points"]
    assert point["branches"] == [{"real": False, "value": [-6e307, -4.0000000000000004e307]}]
    assert point["multipliers"][0]["on_circle"] == [False, False]


def test_recover_eigenvalue_beyond_float_range_exits_2(tmp_path, capsys):
    data = {"p": 2, "m": 1, "kappas": [0.0, math.pi], "lambda_sets": [[-2, 1e308], [0]]}
    assert run_error(capsys, ["recover", write_json(tmp_path, data, "big.json")]) == 2


@pytest.mark.parametrize("field,value", [("p", 1.5), ("p", True), ("p", "2"), ("m", 1.0), ("m", True)])
def test_operator_document_refuses_non_integer_sizes(tmp_path, capsys, field, value):
    # int() would coerce each value into a size that fits the matrices
    n = int(value) if field == "p" else 2
    doc = {"p": n, "m": 1, "a": [[["1"]]] * n, "b": [[["0"]]] * n}
    doc[field] = value
    code, line = run_error_line(capsys, ["bands", write_json(tmp_path, doc, "sizes.json")])
    assert code == 2 and line.startswith(f"error: {field} must be a JSON integer")


@pytest.mark.parametrize("where,value", [
    ("p", 2.0), ("m", True),
    ("kappas[0]", "inf"), ("kappas[0]", "nan"), ("kappas[0]", False), ("kappas[1]", math.inf),
    ("lambda_sets[0][1]", "2"), ("lambda_sets[0][1]", math.nan), pytest.param("lambda_sets[0][1]", 10**400, id="lambda_sets[0][1]-10**400"),
    ("lambda_sets[1][0][1]", -math.inf),
])
def test_recover_refuses_coerced_or_non_finite_numbers(tmp_path, capsys, where, value):
    data = {"p": 2, "m": 1, "kappas": [0.0, math.pi], "lambda_sets": [[-2, 2], [[0, 0]]]}
    key, *indices = where.replace("]", "").split("[")
    if indices:
        target = data[key]
        for i in indices[:-1]:
            target = target[int(i)]
        target[int(indices[-1])] = value
    else:
        data[key] = value
    code, line = run_error_line(capsys, ["recover", write_json(tmp_path, data, "numbers.json")])
    assert code == 2 and line.startswith(f"error: {where} must be a")


def count_calls(monkeypatch, *names):
    """Count calls of spectral, operators or exactmath functions through every blochjac module that binds them."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = next(vars(mod)[name] for mod in (spectral, operators, exactmath) if name in vars(mod))

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "blochjac" and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


@pytest.mark.parametrize("argv", [["bands"], ["verify"], ["lyapunov", "--z-grid=-3:3:50"], ["resonances"]])
def test_each_command_builds_d_and_phi_once(tmp_path, capsys, monkeypatch, argv):
    # build_char_determinant computes Phi with D, so one call builds both
    path = write_doc(tmp_path, capsys, ["example", "example3", "--t", "1/2"])
    counts = count_calls(monkeypatch, "char_determinant", "build_char_determinant")
    code, _ = run_cli(capsys, [argv[0], path] + argv[1:])
    assert code == 0
    assert counts == {"char_determinant": 1, "build_char_determinant": 1}


def test_recover_builds_phi_at_most_once(tmp_path, capsys, monkeypatch):
    data = {"p": 2, "m": 1, "kappas": [0.0, math.pi], "lambda_sets": [[-2, 2], [0]]}
    path = write_json(tmp_path, data, "data.json")
    counts = count_calls(monkeypatch, "char_determinant", "build_char_determinant")
    payload = run_json(capsys, ["recover", path])["payload"]
    assert payload["bands"] is not None
    assert counts == {"char_determinant": 0, "build_char_determinant": 1}


@pytest.mark.parametrize("command", ["bands", "verify"])
def test_cross_validation_runs_once_per_command(tmp_path, capsys, monkeypatch, command):
    path = write_doc(tmp_path, capsys, ["example", "example3", "--t", "1/2"])
    counts = count_calls(monkeypatch, "cross_validate")
    code, _ = run_cli(capsys, [command, path])
    assert code == 0
    assert counts == {"cross_validate": 1}


def test_band_structure_alone_builds_no_floquet_matrix(monkeypatch):
    # a D that carries no operator, as a recovered one, seeds its edges with
    # Aberth's roots and is not cross-validated; a D computed from an
    # operator solves its L(1) and L(-1), and L(tau) at every phase of the grid
    cd = spectral.char_determinant(random_operator(1, 3, 3))
    counts = count_calls(monkeypatch, "floquet_eigs")
    spectral.band_structure(cd._replace(op=None))
    assert counts == {"floquet_eigs": 0}
    spectral.band_structure(cd)
    assert counts == {"floquet_eigs": 2 + spectral.DEFAULT_GRID}


def test_band_structure_raises_when_its_operator_misses_the_bands():
    # at p = 1, an antisymmetric K added to a leaves L(1) = b + a + a^T and
    # L(-1) unchanged, so the edges of D certify from the other operator's
    # eigenvalues, but L(i) = b + i (a - a^T) is not, and its Floquet
    # eigenvalues miss the bands read off D
    op = random_operator(1, 1, 3)
    K = [[0, 10, 0], [-10, 0, 0], [0, 0, 0]]
    other = operators.PeriodicOperator([[[x + k for x, k in zip(row, krow)] for row, krow in zip(op.a[0], K)]], op.b)
    cd = spectral.char_determinant(op)
    with pytest.raises(spectral.InternalConsistencyError, match="misses every band"):
        spectral.band_structure(cd._replace(op=other))


@pytest.mark.parametrize("command", ["bands", "resonances", "verify", "lyapunov"])
def test_each_command_builds_the_transfer_parts_once(tmp_path, capsys, monkeypatch, command):
    # the exact per-operator setup that every monodromy evaluation reads
    path = write_doc(tmp_path, capsys, ["example", "example4", "--t", "1/2"])
    # they are built on first use and kept on the operator, so count the builds
    builds = []
    real = operators.transfer_parts

    def counted(op):
        builds.append(op._parts is None)
        return real(op)

    for mod in (operators, spectral):
        monkeypatch.setattr(mod, "transfer_parts", counted)
    argv = [command, path] + (["--z", "0.5"] if command == "lyapunov" else [])
    code, _ = run_cli(capsys, argv)
    assert code == 0
    assert builds.count(True) == 1


def test_d_evaluates_the_monodromy_once_per_point(monkeypatch):
    # each route reads pm + 1 points, and every prime reduces the same matrix
    counts = count_calls(monkeypatch, "monodromy_at")
    spectral.char_determinant(random_operator(1, 3, 3))
    assert counts == {"monodromy_at": 2 * (3 * 3 + 1)}


def test_d_interpolates_each_coefficient_once(monkeypatch):
    # each route lifts all its point values by one CRT and interpolates each
    # of its 2m + 1 and m + 1 coefficients once, modulo the product of its
    # primes, however many primes the coefficient bound asks for
    counts = count_calls(monkeypatch, "interpolate", "monodromy_at", "_crt")
    spectral.char_determinant(random_operator(1, 3, 3))
    assert counts == {"interpolate": 3 * 3 + 2, "monodromy_at": 2 * (3 * 3 + 1), "_crt": 2}
    # 2^997 L takes 100 primes per route, where L takes 3
    op = random_operator(1, 2, 3)
    a, b = ([[[x * 2**997 for x in row] for row in mat] for mat in grp] for grp in (op.a, op.b))
    counts.update(dict.fromkeys(counts, 0))
    spectral.char_determinant(operators.PeriodicOperator(a, b))
    assert counts == {"interpolate": 3 * 3 + 2, "monodromy_at": 2 * (2 * 3 + 1), "_crt": 2}


def test_lyapunov_proves_phi_squarefree_without_an_exact_polynomial(tmp_path, capsys, monkeypatch):
    # Phi(x, .) is squarefree at every grid point, which the integer certificate proves
    path = write_json(tmp_path, cli.operator_to_document(random_operator(1, 3, 3)), "op.json")
    counts = count_calls(monkeypatch, "_exact_form", "_yun")
    code, _ = run_cli(capsys, ["lyapunov", path, "--z-grid=-3:3:50"])
    assert code == 0
    assert counts == {"_exact_form": 0, "_yun": 0}


def test_bands_builds_the_float_form_once_and_solves_every_phase(tmp_path, capsys, monkeypatch):
    # one eigensolve of L(tau) per phase of the default grid, plus one each
    # at tau = 1 and -1 that seed the band edges, on the float form of the
    # operator, whose two block layouts (base and corner) are built once
    path = write_doc(tmp_path, capsys, ["example", "example3", "--t", "1/2"])
    counts = count_calls(monkeypatch, "floquet_eigs", "_floquet_layout")
    code, _ = run_cli(capsys, ["bands", path])
    assert code == 0
    assert counts == {"floquet_eigs": 259, "_floquet_layout": 2}


@pytest.mark.parametrize("argv", [["--version"], ["resonances", "OP"], ["lyapunov", "OP", "--z", "0"],
                                  ["recover", "DATA"], ["example", "example3", "--t", "1/2"]])
def test_commands_without_floquet_solves_never_import_numpy(tmp_path, capsys, argv):
    # recover certifies its band edges from Aberth's roots, with no L(+-1) to
    # solve, so it stays without numpy, and with it the inverse workload's memory
    path = write_doc(tmp_path, capsys, ["example", "example3", "--t", "1/2"])
    data = write_json(tmp_path, _readme_json("recover")[0], "spectral.json")
    script = (
        "import sys\n"
        "from blochjac import cli\n"
        "try:\n"
        "    code = cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "sys.stdout.write('numpy loaded' if 'numpy' in sys.modules else '')\n"
        "sys.exit(code)\n"
    )
    files = {"OP": path, "DATA": data}
    done = subprocess.run([sys.executable, "-c", script] + [files.get(a, a) for a in argv],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert not done.stdout.endswith("numpy loaded")
    if argv[0] == "recover":
        assert '"bands":{' in done.stdout


@pytest.mark.parametrize("command", ["bands", "resonances", "verify", "lyapunov"])
def test_each_command_checks_the_operator_hypotheses_once(tmp_path, capsys, monkeypatch, command):
    # a check of the hypotheses eliminates every a_n once, for det a_n and
    # a_n^-1 together, so the eliminations of a_1 taken in operators count
    # the checks, and one per command also shows transfer_parts inverts none
    op = random_operator(1, 3, 3)
    path = write_json(tmp_path, cli.operator_to_document(op), "op.json")
    a1 = [list(row) for row in op.a[0]]
    original = operators.det_inv
    checks = []

    def counted(mat):
        if [list(row) for row in mat] == a1:
            checks.append(mat)
        return original(mat)

    monkeypatch.setattr(operators, "det_inv", counted)
    argv = [command, path] + (["--z", "0.5"] if command == "lyapunov" else [])
    code, _ = run_cli(capsys, argv)
    assert code == 0
    assert len(checks) == 1


def test_band_structure_runs_no_yun_on_squarefree_inputs(monkeypatch):
    # the sections, rho and every sampled Phi(x, .) are squarefree here, and
    # the modular certificate proves it without a gcd over Q; Sturm's
    # sequences take euclid's remainders, not a gcd
    cd = spectral.char_determinant(random_operator(1, 3, 3))
    counts = count_calls(monkeypatch, "gcd")
    spectral.band_structure(cd)
    assert counts == {"gcd": 0}


def test_lyapunov_runs_no_euclid_over_q_on_squarefree_inputs(monkeypatch):
    cd = spectral.char_determinant(random_operator(1, 3, 3))
    counts = count_calls(monkeypatch, "gcd")
    for k in range(50):
        spectral.lyapunov_at(cd, complex(-3 + 6 * k / 49, 0.0))
    assert counts == {"gcd": 0}


@pytest.mark.parametrize("shape", [(1, 16, 1), (1, 3, 3)])
def test_lyapunov_order_within_pairs_does_not_rest_on_rounding(tmp_path, capsys, shape):
    path = write_json(tmp_path, cli.operator_to_document(random_operator(*shape)), "op.json")
    points = run_json(capsys, ["lyapunov", path, "--z-grid=-3:3:2000"])["payload"]["points"]
    on_circle = 0
    for point in points:
        for mult in point["multipliers"]:
            if any(mult["on_circle"]):
                on_circle += 1
                (_, first), (_, second) = mult["pair"]
                assert first <= 0 <= second
        # z is real: a conjugate pair of branches shares one real part and
        # lists its negative imaginary member first
        values = [complex(*b["value"]) for b in point["branches"]]
        upper = [v for v in values if v.imag > 0]
        assert all(v.conjugate() in values for v in upper)
        assert all(values.index(v.conjugate()) + 1 == values.index(v) for v in upper)
    assert on_circle >= 100


def test_period_one_operator_with_large_entries_passes_bands_and_verify(tmp_path, capsys):
    # p = 1 adds b, tau a and conj(tau) a^T into one block; the float sums
    # used to round L[i][j] and conj(L[j][i]) apart by 1.8e-12
    doc = {"p": 1, "m": 2, "a": [[["41813/9", "24873/7"], ["22509", "-13068"]]],
           "b": [[["7143/7", "-4752"], ["-4752", "-129"]]]}
    path = write_json(tmp_path, doc, "p1.json")
    for command in ("bands", "verify"):
        code, _ = run_cli(capsys, [command, path])
        assert code == 0, command


def test_bands_thinner_than_the_merge_tolerance_name_the_stage(tmp_path, capsys):
    # at m = 2 both branches have one band about 4e-300 wide round 1: its
    # periodic and antiperiodic edges are one double, and the exact roots,
    # separated, hold both branches between them; it used to vanish,
    # and bands and verify exited 3 with "found no band"; the trace identity
    # is proved exactly however large Tr M^n grows
    doc = {"p": 1, "m": 2, "a": [[["1e-300", "0"], ["0", "1e-300"]]], "b": [[["1", "0"], ["0", "1"]]]}
    path = write_json(tmp_path, doc, "thin.json")
    payload = run_json(capsys, ["bands", path])["payload"]
    assert payload["segments"] == [[1.0, 1.0, 2]]
    assert payload["branch_bands"] == [[[1.0, 1.0]], [[1.0, 1.0]]]
    payload = run_json(capsys, ["verify", path])["payload"]
    assert payload["all_pass"] and len(payload["checks"]) == 13
    assert [c["status"] for c in payload["checks"]] == ["pass"] * 5 + ["n/a"] * 4 + ["pass", "n/a", "pass", "pass"]


@pytest.mark.parametrize("seed", [5, 6])
def test_bands_keep_a_band_thinner_than_one_double_at_period_32(tmp_path, capsys, seed):
    # one extreme band's periodic and antiperiodic edges round to one double;
    # that band used to vanish, and cross-validation exited 3
    path = write_json(tmp_path, cli.operator_to_document(random_operator(seed, 32, 1)), "op.json")
    payload = run_json(capsys, ["bands", path])["payload"]
    assert len(payload["segments"]) == 32
    zero_width = [s for s in payload["segments"] if s[0] == s[1]]
    assert zero_width in ([payload["segments"][0]], [payload["segments"][-1]])


def test_bands_and_verify_on_bands_thinner_than_one_double(tmp_path, capsys):
    # both bands are about 1e-300 wide, so each is one double, and the trace
    # identity's Tr M^n / scale^n is beyond the float range, where it is
    # proved exactly all the same
    doc = {"p": 2, "m": 1, "a": [[["1e-300"]], [["1"]]], "b": [[["0"]], [["0"]]]}
    path = write_json(tmp_path, doc, "thin.json")
    assert run_json(capsys, ["bands", path])["payload"]["segments"] == [[-1.0, -1.0, 1], [1.0, 1.0, 1]]
    payload = run_json(capsys, ["verify", path])["payload"]
    assert len(payload["checks"]) == 13 and payload["all_pass"]
    (trace,) = [c for c in payload["checks"] if c["name"] == "trace-chebyshev-sampling"]
    assert trace == {"name": "trace-chebyshev-sampling", "status": "pass", "residual": 0.0, "detail": ""}


@pytest.mark.parametrize("shape,thinnest", [((1, 24, 1), 1e-9), ((1, 32, 1), 1e-12), ((2, 32, 1), 1e-10),
                                             ((1, 16, 3), None)])
def test_bands_keeps_bands_thinner_than_the_merge_tolerance(tmp_path, capsys, shape, thinnest):
    # the periodic and antiperiodic edges are certified doubles and merge only
    # when equal, so bands of width 4.8e-10, 5.4e-13 and 8.7e-12 stay; at
    # (1; 16,3) the edges used to miss a Floquet eigenvalue by 1.3e-7
    path = write_json(tmp_path, cli.operator_to_document(random_operator(*shape)), "op.json")
    segments = run_json(capsys, ["bands", path])["payload"]["segments"]
    if thinnest is not None:
        assert min(hi - lo for lo, hi, _ in segments) < thinnest


def test_bands_at_period_one_runs_aberth_only_on_linear_polynomials(tmp_path, capsys, monkeypatch):
    # q(., +-1) is certified from the eigenvalues of L(+-1), and each interval
    # is counted by Sturm's theorem, so bands runs no root finder at all
    degrees = []
    real = spectral.roots_all

    def recorded(cs):
        degrees.append(len(cs) - 1)
        return real(cs)

    monkeypatch.setattr(spectral, "roots_all", recorded)
    path = write_json(tmp_path, cli.operator_to_document(random_operator(1, 16, 1)), "op.json")
    code, _ = run_cli(capsys, ["bands", path])
    assert code == 0
    assert degrees == []


@pytest.mark.parametrize("shape", [(7, 4, 4), (1, 2, 6)])
def test_bands_with_every_real_resonance_certified_exit_0(tmp_path, capsys, shape):
    # rho has 18 real zeros at (7; 4,4); when 6 of them came out as Aberth
    # roots off the axis, bands lacked their edges and cross-validation exited 3
    path = write_json(tmp_path, cli.operator_to_document(random_operator(*shape)), "op.json")
    assert run_json(capsys, ["bands", path])["payload"]["segments"]


@pytest.mark.parametrize("shape", [(1, 48, 1), (1, 64, 1), (1, 32, 2)])
def test_bands_on_edges_a_few_ulps_apart_ends_in_a_documented_exit(tmp_path, capsys, shape):
    # at (1; 48,1) a root of q(., 1) and one of q(., -1) lie 4.4e-16 apart,
    # and a band narrower than one double is kept as [v, v, 1]; an interval
    # that thin is counted exactly, and is too thin for the Floquet
    # eigenvalues to count
    path = write_json(tmp_path, cli.operator_to_document(random_operator(*shape)), "op.json")
    assert cli.main(["bands", path]) == 0


@pytest.mark.parametrize("command", ["bands", "verify"])
def test_edges_past_the_float_range_of_phi_exit_2_naming_the_stage(tmp_path, capsys, command):
    # the certified edges of q(z, 1) reach 1e160, and Phi(z, .) at the exact
    # midpoint of the interval between 0 and 1e160 has a coefficient beyond
    # the float range; both commands used to exit 2 there, and the interval
    # is now counted exactly: the band round 1e160 is about 1e-160 wide, so
    # one double
    doc = {"p": 2, "m": 1, "a": [[["1"]], [["1"]]], "b": [[["1e160"]], [["0"]]]}
    payload = run_json(capsys, [command, write_json(tmp_path, doc, "big.json")])["payload"]
    if command == "bands":
        assert payload["segments"] == [[-4e-160, 0.0, 1], [1e160, 1e160, 1]]
    else:
        assert payload["all_pass"] and len(payload["checks"]) == 13
        assert [c["status"] for c in payload["checks"]] == ["pass"] * 6 + ["n/a"] + ["pass"] * 3 + ["n/a"] + ["pass"] * 2


def test_verify_exits_5_when_one_floquet_entry_changes(tmp_path, capsys, monkeypatch):
    # the Floquet check builds every L(tau) it reduces from this one block layout
    real = spectral._floquet_layout

    def changed(a, b, t, tinv):
        L = real(a, b, t, tinv)
        L[0][0] += 1
        return L

    path = write_json(tmp_path, cli.operator_to_document(random_operator(1, 2, 2)), "op.json")
    monkeypatch.setattr(spectral, "_floquet_layout", changed)
    assert cli.main(["verify", path]) == 5
    failed = {c["name"] for c in json.loads(capsys.readouterr().out)["payload"]["checks"]
              if c["status"] == "fail"}
    assert failed == {"floquet-determinant-tau=1", "floquet-determinant-tau=-1", "floquet-determinant-tau=i"}


def test_verify_exits_5_when_a_low_coefficient_of_a_factor_of_phi_changes(tmp_path, capsys, monkeypatch):
    # at (1; 2,4) Phi is squarefree, its one factor is Phi itself, and the
    # trace identity reads only its top three coefficients; adding 1/d to
    # the constant term of its nu^0 coefficient breaks prod F_k^k == Phi
    op = random_operator(1, 2, 4)
    cd = spectral.char_determinant(op)
    ((F, k),) = cd.factors
    d, c = F[0]
    changed = cd._replace(factors=((((d, (c[0] + 1,) + c[1:]),) + F[1:], k),))
    monkeypatch.setattr(spectral, "char_determinant", lambda _: changed)
    assert cli.main(["verify", write_json(tmp_path, cli.operator_to_document(op), "op.json")]) == 5
    captured = capsys.readouterr()
    failed = [c["name"] for c in json.loads(captured.out)["payload"]["checks"] if c["status"] == "fail"]
    assert failed == ["phi-squarefree-factors"]
    assert captured.err == "failed checks: phi-squarefree-factors\n"


def test_bands_and_verify_pass_on_a_band_at_1e300(tmp_path, capsys):
    # the band round 1e300 is one double wide, and the Floquet eigenvalue
    # there is one ulp, 1.5e284, off it: within the eigensolver's relative
    # accuracy, which the oracle grants at every scale
    doc = {"p": 2, "m": 1, "a": [[["1"]], [["1"]]], "b": [[["1e300"]], [["0"]]]}
    path = write_json(tmp_path, doc, "big.json")
    assert run_json(capsys, ["bands", path])["payload"]["segments"] == [[-4e-300, 0.0, 1], [1e300, 1e300, 1]]
    assert run_json(capsys, ["verify", path])["payload"]["all_pass"] is True


def test_huge_couplings_pass_bands_and_verify(tmp_path, capsys):
    # det(a_1 a_2)^2 = 1e400 is beyond the float range, and the second-moment
    # bound holds with equality; bands needs roots of modulus 2e100
    doc = {"p": 2, "m": 1, "a": [[["1e100"]], [["1e100"]]], "b": [[["0"]], [["0"]]]}
    path = write_json(tmp_path, doc, "huge.json")
    segments = run_json(capsys, ["bands", path])["payload"]["segments"]
    assert segments == [[-2e100, 2e100, 1]]
    payload = run_json(capsys, ["verify", path])["payload"]
    assert payload["all_pass"] is True
    (bound,) = [c for c in payload["checks"] if c["name"] == "moment-2-lower-bound"]
    assert bound["status"] == "pass" and "beyond the float range" in bound["detail"]


OP_1_1 = {"p": 1, "m": 1, "a": [[["1"]]], "b": [[["0"]]]}
DATA_1_1 = {"p": 1, "m": 1, "kappas": [0.0, math.pi], "lambda_sets": [[2.0], [-2.0]]}


@pytest.mark.parametrize("argv,doc,code,message", [
    (["bands", "DOC"], [], 2, "operator document must be a JSON object"),
    (["bands", "DOC"], dict(OP_1_1, schema="blochjac/0"), 2, "unsupported schema 'blochjac/0'"),
    (["bands", "DOC"], {"p": 1, "m": 1, "a": []}, 2, r"operator document needs integer p, m and lists a, b \('b'\)"),
    (["bands", "DOC"], dict(OP_1_1, p=0), 2, "p = 0 and m = 1 must be at least 1"),
    (["bands", "DOC"], dict(OP_1_1, a="1"), 2, "a must be a list of 1 matrices"),
    (["bands", "DOC"], dict(OP_1_1, b=[[["0", "0"]]]), 2, r"b\[0\] is not an 1x1 matrix"),
    (["recover", "DOC"], [], 2, "spectral data document must be a JSON object"),
    (["recover", "DOC"], dict(DATA_1_1, schema="x"), 2, "unsupported schema 'x'"),
    (["recover", "DOC"], {"p": 1, "m": 1, "kappas": []}, 2,
     r"spectral data needs p, m, kappas, lambda_sets \('lambda_sets'\)"),
    (["recover", "DOC"], dict(DATA_1_1, kappas=0.0), 2, "kappas must be a list of numbers"),
    (["recover", "DOC"], dict(DATA_1_1, lambda_sets={}), 2, "lambda_sets must be a list of lists"),
    (["recover", "DOC"], dict(DATA_1_1, lambda_sets=[[2.0], -2.0]), 2, r"lambda_sets\[1\] must be a list"),
    (["recover", "DOC"], dict(DATA_1_1, lambda_sets=[[2.0], [[-2.0, 0.0, 1.0]]]), 2,
     r"lambda_sets\[1\]\[0\]: eigenvalues are numbers or \[re, im\] pairs"),
    (["recover", "DOC"], dict(DATA_1_1, kappas=[0.0]), 4, "inconsistent spectral data: need 2 frequencies, got 1"),
    (["recover", "DOC"], dict(DATA_1_1, lambda_sets=[[2.0]]), 4,
     "inconsistent spectral data: need 2 eigenvalue sets, got 1"),
    (["lyapunov", "DOC", "--z", "1,2,3"], OP_1_1, 2, "--z wants re or re,im, got '1,2,3'"),
    (["lyapunov", "DOC", "--z", "one"], OP_1_1, 2, "--z: could not convert string to float: 'one'"),
    (["lyapunov", "DOC", "--z", "0,inf"], OP_1_1, 2, "--z must be finite, got '0,inf'"),
    (["lyapunov", "DOC", "--z-grid", "0:1"], OP_1_1, 2, "--z-grid wants lo:hi:N, got '0:1'"),
    (["lyapunov", "DOC", "--z-grid", "0:1:2.5"], OP_1_1, 2, "--z-grid: invalid literal for int"),
    (["lyapunov", "DOC", "--z-grid", "0:inf:5"], OP_1_1, 2, "--z-grid needs finite lo, hi and hi - lo"),
    (["bands", "MISSING"], None, 2, "cannot read .*missing.json: "),
    (["bands", "DOC"], dict(OP_1_1, a=[[[None]]]), 2, r"a\[0\]\[0\]\[0\]: expected a string, got NoneType$"),
    (["example", "free", "--p", "x"], None, 2, r"--p: invalid literal for int\(\) with base 10: 'x'$"),
])
def test_malformed_input_ends_in_one_error_line_and_its_exit(tmp_path, capsys, argv, doc, code, message):
    files = {"DOC": write_json(tmp_path, doc, "doc.json"), "MISSING": str(tmp_path / "missing.json")}
    got, line = run_error_line(capsys, [files.get(a, a) for a in argv])
    assert got == code
    assert re.match("error: " + message, line), line


def test_example1_diag_emits_a_document_that_reads_back(capsys):
    doc = run_json(capsys, ["example", "example1-diag"])
    assert (doc["p"], doc["m"]) == (2, 2)
    assert cli.operator_to_document(cli.operator_from_document(doc)) == doc


def rational_yun_calls(monkeypatch):
    """The polynomials exactmath._yun receives from here on, and whether each came while D was built."""
    calls = []
    building = []
    real_yun, real_build = exactmath._yun, spectral.build_char_determinant

    def build(*args):
        building.append(True)
        try:
            return real_build(*args)
        finally:
            building.pop()

    monkeypatch.setattr(exactmath, "_yun", lambda f: calls.append((f, bool(building))) or real_yun(f))
    for mod in (spectral, sys.modules["blochjac.inverse"]):
        monkeypatch.setattr(mod, "build_char_determinant", build)
    return calls


def test_yun_receives_rational_coefficients_only(tmp_path, capsys, monkeypatch):
    # free(2, 2) splits Phi = (nu - T_2(z/2))^2 by Yun at the first 3 of its 5
    # sample points while D is built, and then reads nu - T_2(z/2) at any z, real or not;
    # example3 at t = 1 has a double branch at the real zero z = -1/2 of rho,
    # which Yun splits exactly at the point
    calls = rational_yun_calls(monkeypatch)
    free = write_doc(tmp_path, capsys, ["example", "free", "--p", "2", "--m", "2"], "free.json")
    for argv in (["--z", "0.5,0.25"], ["--z-grid=-3:3:50"]):
        run_json(capsys, ["lyapunov", free] + argv)
    assert len(calls) == 6 and all(during for _, during in calls)
    ex3 = write_doc(tmp_path, capsys, ["example", "example3", "--t", "1"], "ex3.json")
    (point,) = run_json(capsys, ["lyapunov", ex3, "--z=-0.5"])["payload"]["points"]
    assert point["branches"][0] == point["branches"][1] == {"real": True, "value": [-1.125, 0.0]}
    assert [during for _, during in calls[6:]] == [False]
    assert all(type(c) is Fraction for f, _ in calls for c in f)


def test_free_2_6_grid_runs_yun_only_while_d_is_built(tmp_path, capsys, monkeypatch):
    # Phi = (nu - T_2(z/2))^6 is split while D is built, at the first w d + 1 = 3
    # of its n = p m (m - 1) + 1 = 61 sample points, where F_1 = nu - T_2(z/2)
    # is interpolated and F_1^6 == Phi proves it; never at the 2000 grid points
    calls = rational_yun_calls(monkeypatch)
    path = write_doc(tmp_path, capsys, ["example", "free", "--p", "2", "--m", "6"])
    points = run_json(capsys, ["lyapunov", path, "--z-grid=-3:3:2000"])["payload"]["points"]
    assert len(points) == 2000
    assert len(calls) == 3 and all(during for _, during in calls)


def test_lyapunov_at_a_non_real_zero_of_rho_exits_2_naming_z(tmp_path, capsys):
    # example3 at t = 4/5 has rho = 1/4 + 16/25 z + 16/25 z^2, with the zeros
    # -1/2 +- 3/8 i, each a double branch of a Gaussian Phi(z, .) that Yun
    # over Q cannot split
    path = write_doc(tmp_path, capsys, ["example", "example3", "--t", "4/5"])
    payload = run_json(capsys, ["resonances", path])["payload"]
    assert payload["rho"] == ["1/4", "16/25", "16/25"]
    assert payload["zeros"] == [[-0.5, -0.375], [-0.5, 0.375]]
    code, line = run_error_line(capsys, ["lyapunov", path, "--z=-0.5,0.375"])
    assert code == 2
    assert line.startswith("error: Phi(z, nu) at z = (-0.5+0.375j) is not split into squarefree factors: "
                           "z is a non-real zero of rho")
