"""Smoke test of the benchmark: every command, every oracle and the tracer,
at the smallest shapes, in a few seconds.

    python3 -m pytest bench/test_bench_smoke.py
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corpus  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402

SMOKE = [
    ("random", 5, 2, 1, ("bands", "verify", "lyapunov", "recover")),
    ("random", 5, 2, 2, ("resonances",)),
    ("free", 0, 1, 2, ("resonances",)),
]


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return corpus.build(SMOKE, 3, str(root / "docs"), str(root / "refs"))


@pytest.fixture(scope="module")
def passes(commands, tmp_path_factory):
    scratch = str(tmp_path_factory.mktemp("scratch"))
    ledger = run.OutputLedger(os.path.join(scratch, "digests.json"), run.source_digest())
    plain = run.run_pass(commands, scratch, ledger)
    traced = run.run_pass(commands, scratch, ledger, traced=True)
    return plain, traced


def test_every_command_passes_its_oracle(passes):
    plain, traced = passes
    assert {r["sub"] for r in plain} == set(oracles.CHECKS)
    for row in plain + traced:
        assert row["outcome"] == "ok", row
        assert row["deterministic"], row


def test_oracles_reject_wrong_answers(commands):
    by_sub = {}
    for c in commands:
        by_sub.setdefault(c["sub"], c)
    outputs = {}
    for sub, c in by_sub.items():
        out = subprocess.run(run.cli_argv([sub] + c["args"]), capture_output=True,
                             env=run.child_env(), check=True).stdout
        doc = json.loads(out)
        assert oracles.check(c, out) is None
        outputs[sub] = doc

    def wrong(sub, edit):
        doc = json.loads(json.dumps(outputs[sub]))
        edit(doc["payload"])
        return oracles.check(by_sub[sub], json.dumps(doc).encode())

    assert len(outputs["bands"]["payload"]["segments"]) >= 2
    assert wrong("bands", lambda p: p["segments"].pop())
    assert wrong("bands", lambda p: p["segments"][0].__setitem__(1, p["segments"][0][1] + 1e-6))  # too wide
    assert wrong("bands", lambda p: p["segments"][0].__setitem__(0, p["segments"][0][0] + 1e-6))  # too narrow
    assert wrong("bands", lambda p: p.__setitem__("segments", [[p["segments"][0][0], p["segments"][-1][1], 1]]))
    assert wrong("resonances", lambda p: p["rho"].__setitem__(0, "12345/7"))
    assert wrong("resonances", lambda p: p["real"].__setitem__(0, not p["real"][0]))
    assert wrong("verify", lambda p: p.__setitem__("all_pass", False))
    assert wrong("lyapunov", lambda p: p["points"][3]["multipliers"][0]["pair"].__setitem__(0, [0.5, 0.0]))
    # one multiplier twice, its partner missing
    assert wrong("lyapunov", lambda p: p["points"][0]["multipliers"][0]["pair"].__setitem__(
        1, p["points"][0]["multipliers"][0]["pair"][0]))
    assert wrong("lyapunov", lambda p: p["points"].pop())
    assert wrong("recover", lambda p: p["exact"]["q"][0].__setitem__(0, "1/999"))
    assert oracles.check(by_sub["verify"], b"not json")


def _largest_multiplier(payload):
    """(point, index in its first pair) of the multiplier of largest modulus."""
    point = max(payload["points"], key=lambda pt: max(abs(complex(*t)) for t in pt["multipliers"][0]["pair"]))
    pair = point["multipliers"][0]["pair"]
    return point, max(range(2), key=lambda i: abs(complex(*pair[i])))


def test_lyapunov_oracle_stays_strict_for_large_multipliers(tmp_path):
    # weak coupling, so that |tau| reaches about 1e10 on the grid
    a = [[[Fraction(1, 10)]]] * 8
    b = [[[Fraction(k - 4, 3)]] for k in range(8)]
    path = str(tmp_path / "weak.json")
    with open(path, "w") as fh:
        json.dump(corpus.operator_document(a, b), fh)
    command = {"sub": "lyapunov", "args": [path, "--z-grid=" + corpus.LYAPUNOV_GRID], "operator": path,
               "ref": {"D": corpus.exact_references(a, b)["D"]}}
    out = subprocess.run(run.cli_argv(["lyapunov"] + command["args"]), capture_output=True,
                         env=run.child_env(), check=True).stdout
    assert oracles.check(command, out) is None
    for which in (0, 1):  # the large multiplier, then its small partner
        doc = json.loads(out)
        point, big = _largest_multiplier(doc["payload"])
        pair = point["multipliers"][0]["pair"]
        assert abs(complex(*pair[big])) > 1e9
        i = big if which == 0 else 1 - big
        pair[i] = [x * (1 + 1e-5) for x in pair[i]]
        assert oracles.check(command, json.dumps(doc).encode())


def test_references_do_not_depend_on_coordinates():
    base = corpus.random_operator(5, 2, 2)
    moved = corpus.equivalent(*base, random.Random(7))
    assert moved != base
    assert corpus.exact_references(*moved) == corpus.exact_references(*base)


def test_traced_run_reports_every_layer_metric(passes):
    plain, traced = passes
    metrics = run.per_layer(plain, traced, "inverse")
    assert metrics["inverse.recover_determinant.calls"][0] == sum(r["sub"] == "recover" for r in traced)
    assert metrics["spectral.resonance_poly.calls"][0] >= 2
    assert metrics["exactmath.rho_degree"][0] >= 1
    assert metrics["cli.main.calls"][0] == len(traced)
    assert metrics["cli.exit.0"][0] == len(plain) + len(traced)
    assert metrics["failed_share"][0] == 0


def test_hot_function_without_calls_stops_the_trace(passes):
    plain, traced = passes
    with pytest.raises(run.BenchError, match="operators.charpoly"):
        run.per_layer(plain, [dict(r, spans={"functions": {"operators.charpoly": {"calls": 0, "self_s": 0.0}},
                                             "sizes": {}}) for r in traced], "blocks")


def test_budget_stops_a_command(tmp_path):
    wall, code, _ = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                                  str(tmp_path / "o"), str(tmp_path / "e"), budget=0.5)
    assert code is None and wall < 5


def test_refuses_to_run_without_program_source(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in ("run.py", "corpus.py", "oracles.py", "tracer.py"):
        (bench / name).write_bytes(open(os.path.join(here, name), "rb").read())
    done = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "blocks", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == b""
