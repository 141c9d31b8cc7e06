"""End-to-end benchmark of the blochjac command line.

    python3 bench/run.py --workload blocks --seed 1 --seconds 30 --trace 0

Runs the CLI the way its users do: one fresh interpreter per command, on
documents that bench/corpus.py generates from the seed before any timing.
A single generator process runs one child at a time, so at most one child
is alive; children get one BLAS/OpenMP thread.  Every command has the same
time budget, BUDGET_S; a command over budget is stopped and fails.

Timing (--trace 0).  After set-up every command runs once, in order: a run
is one pass of the fixed command list, 25-35 s long, which BENCHMARK.json
records as run_seconds.  --seconds is part of the calling convention and
does not change the work.  Reported:

  setup_s      median wall time of a cold ``blochjac --version``, which
               every call pays (interpreter start and package import);
  wall_s       the sum of command wall times, without charges;
  total_s      PAR-2 time of the command list: the sum of command times,
               where a command that exits non-zero, runs over budget or
               fails its oracle is charged 2 * BUDGET_S, so that turning a
               fast failure into a correct answer lowers the figure;
  peak_rss_mb  the largest max-RSS of any child.

Tracing (--trace 1).  One untimed pass, then the same pass through
bench/tracer.py, which times the public functions of each blochjac layer.
Reported: calls and self time per layer function, the PAR-2 time and
failure share per subcommand, exit-code counts, and the tracing overhead.

Outputs are checked by bench/oracles.py.  A wrong answer, a non-zero exit
and a timeout all count in ``failed`` (and in total_s); ``correct`` is
false only when the same command printed different bytes in two runs.
The last line of stdout is the JSON result; the full record, with one row
per command, goes to .bench_build/blochjac/results/.

Compare two traced result sets, layer by layer:

    python3 bench/compare.py OLD_DIR_OR_FILE NEW_DIR_OR_FILE
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "blochjac")

BUDGET_S = 12.0
STOP_GRACE_S = 2.0
SETUP_REPEATS = 11
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SUBCOMMANDS = ("bands", "resonances", "verify", "lyapunov", "recover")
EXIT_CODES = (0, 2, 3, 4, 5)

# A layer function that must record calls on a workload.  Zero calls while
# the function still exists means the wrappers missed it: the traced run
# stops rather than report a silent zero.
HOT = {
    "blocks": ("exactmath.discriminant", "exactmath.squarefree_decomposition",
               "exactmath.bipoly_squarefree_part", "exactmath.det_ring",
               "operators.trace_powers", "operators.charpoly", "spectral.char_determinant",
               "spectral.surface_poly", "spectral.multipliers_at", "spectral.resonance_poly",
               "operators.floquet_matrix", "numerics.roots_all"),
    "scalar_long": ("operators.floquet_matrix", "numerics.hermitian_eigs", "operators.charpoly",
                    "spectral.surface_poly", "spectral.multipliers_at", "numerics.roots_all",
                    "spectral.char_determinant"),
    "inverse": ("inverse.recover_determinant", "inverse.constrained_poly",
                "inverse.snap_to_rational", "spectral.band_structure_from_char"),
}

# Layer functions whose calls and self time the traced run reports.
LAYER_FUNCTIONS = (
    "exactmath.squarefree_decomposition", "exactmath.gcd", "exactmath.discriminant",
    "exactmath.resultant", "exactmath.bipoly_squarefree_part", "exactmath.det_ring",
    "operators.trace_powers", "operators.modified_monodromy", "operators.charpoly",
    "operators.floquet_matrix", "numerics.hermitian_eigs", "numerics.roots_all",
    "spectral.char_determinant", "spectral.surface_poly", "spectral.multipliers_at",
    "spectral.resonance_poly", "spectral.band_structure_from_char",
    "spectral.verify_identities", "inverse.recover_determinant", "inverse.constrained_poly",
    "inverse.snap_to_rational", "cli.main",
)
SIZE_METRICS = {
    "exactmath.rho_degree": "count",
    "exactmath.rho_coeff_bits": "bits",
    "numerics.roots_all.max_degree": "count",
    "numerics.roots_all.nonfinite": "count",
}


class BenchError(Exception):
    """The benchmark itself cannot run or measure; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv, out_path, err_path, budget):
    """Run argv to completion or budget.

    Returns (wall s, exit code or None when stopped, max RSS MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        reaped = threading.Event()
        expired = []

        def stop():
            expired.append(True)
            proc.send_signal(signal.SIGTERM)
            if not reaped.wait(STOP_GRACE_S):
                proc.kill()

        timer = threading.Timer(budget, stop)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, (None if expired else proc.returncode), usage.ru_maxrss / 1024.0


def cli_argv(args, spans=None):
    if spans is None:
        return [sys.executable, "-m", "blochjac.cli"] + args
    return [sys.executable, os.path.join(BENCH, "tracer.py"), spans] + args


def measure_setup(scratch):
    """Median of SETUP_REPEATS cold ``blochjac --version`` calls, after one
    call that writes the bytecode cache."""
    out, err = os.path.join(scratch, "version.out"), os.path.join(scratch, "version.err")
    times = []
    for i in range(SETUP_REPEATS + 1):
        wall, code, _ = run_child(cli_argv(["--version"]), out, err, BUDGET_S)
        if code != 0:
            raise BenchError(f"blochjac --version exited with {code}")
        if i:
            times.append(wall)
    return statistics.median(times), times


def source_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "blochjac")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


class OutputLedger:
    """sha256 of every command's stdout, kept across runs in one checkout and
    keyed by program source, subcommand, flags and input bytes: the same
    program on the same input must print the same bytes."""

    def __init__(self, path, program):
        self.path = path
        self.program = program
        self.seen = {}
        if os.path.exists(path):
            with open(path) as fh:
                self.seen = json.load(fh)

    def key(self, command):
        h = hashlib.sha256(self.program.encode())
        h.update(json.dumps([command["sub"]] + command["args"][1:]).encode())
        with open(command["args"][0], "rb") as fh:
            h.update(fh.read())
        return h.hexdigest()

    def record(self, command, stdout):
        """False when this input printed other bytes before."""
        key = self.key(command)
        digest = hashlib.sha256(stdout).hexdigest()
        return self.seen.setdefault(key, digest) == digest

    def save(self):
        with open(self.path + ".tmp", "w") as fh:
            json.dump(self.seen, fh)
        os.replace(self.path + ".tmp", self.path)


def run_helper(script, args):
    """Run a benchmark helper script to completion; returns its JSON stdout.

    Corpus generation and output checks run in their own processes, so the
    generator stays small: a child's max-RSS also counts the memory of the
    process it was started from."""
    done = subprocess.run([sys.executable, os.path.join(BENCH, script)] + args,
                          capture_output=True, cwd=ROOT)
    if done.returncode != 0:
        raise BenchError(f"{script} failed: {done.stderr.decode(errors='replace').strip()}")
    return json.loads(done.stdout)


def run_pass(commands, scratch, ledger, traced=False):
    """Run every command once, then check the outputs; one row per command."""
    rows = []
    for i, command in enumerate(commands):
        out, err = os.path.join(scratch, f"{i}.out"), os.path.join(scratch, f"{i}.err")
        spans = os.path.join(scratch, f"{i}.spans.json") if traced else None
        if spans and os.path.exists(spans):
            os.remove(spans)
        argv = cli_argv([command["sub"]] + command["args"], spans)
        wall, code, rss = run_child(argv, out, err, BUDGET_S)
        row = {"id": command["id"], "sub": command["sub"], "wall_s": wall, "exit": code,
               "rss_mb": rss, "deterministic": True, "wrong": None, "stdout": out,
               "outcome": "timeout" if code is None else f"exit {code}"}
        if code is not None:
            with open(out, "rb") as fh:
                row["deterministic"] = ledger.record(command, fh.read())
        if spans and os.path.exists(spans):
            with open(spans) as fh:
                row["spans"] = json.load(fh)
        elif spans and code is None:
            row["spans"] = {"functions": {}, "sizes": {}}  # stopped before it could write them
        elif spans:
            raise BenchError(f"traced child wrote no spans for {command['id']}")
        rows.append(row)
    request = os.path.join(scratch, "check.json")
    checked = [(c, r) for c, r in zip(commands, rows) if r["exit"] == 0]
    with open(request, "w") as fh:
        json.dump([{"command": c, "stdout": r["stdout"]} for c, r in checked], fh)
    for (_, row), verdict in zip(checked, run_helper("oracles.py", [request])):
        row["wrong"] = verdict
        row["outcome"] = "wrong" if verdict else "ok"
    return rows


def charge(row):
    return row["wall_s"] if row["outcome"] == "ok" else 2 * BUDGET_S


def end_to_end(rows, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "total_s": (sum(charge(r) for r in rows), "s"),
        "wall_s": (sum(r["wall_s"] for r in rows), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in rows), "MB"),
    }


def per_layer(plain, traced, workload):
    metrics = {}
    for sub in SUBCOMMANDS:
        metrics[f"{sub}_s"] = (sum(charge(r) for r in plain if r["sub"] == sub), "s")
    rows = plain + traced
    metrics["failed_share"] = (sum(r["outcome"] != "ok" for r in rows) / len(rows), "ratio")
    for code in EXIT_CODES:
        metrics[f"cli.exit.{code}"] = (sum(r["exit"] == code for r in rows), "count")
    metrics["cli.exit.other"] = (sum(r["exit"] not in EXIT_CODES + (None,) for r in rows), "count")
    metrics["cli.timeout"] = (sum(r["exit"] is None for r in rows), "count")
    metrics["cli.oracle_wrong"] = (sum(r["outcome"] == "wrong" for r in rows), "count")

    functions, sizes = {}, {}
    for row in traced:
        for name, stat in row["spans"]["functions"].items():
            acc = functions.setdefault(name, [0, 0.0])
            acc[0] += stat["calls"]
            acc[1] += stat["self_s"]
        for name, value in row["spans"]["sizes"].items():
            if name.endswith(".nonfinite"):
                sizes[name] = sizes.get(name, 0) + value
            else:
                sizes[name] = max(sizes.get(name, 0), value)
    missed = [name for name in HOT[workload] if name in functions and functions[name][0] == 0]
    if missed:
        raise BenchError(f"hot layer functions recorded no calls on {workload}: {', '.join(missed)}")
    for name in LAYER_FUNCTIONS:
        calls, self_s = functions.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for name, unit in SIZE_METRICS.items():
        metrics[name] = (sizes.get(name, 0), unit)
    plain_s = sum(r["wall_s"] for r in plain)
    traced_s = sum(r["wall_s"] for r in traced)
    metrics["trace.overhead_share"] = (traced_s / plain_s - 1.0, "ratio")
    return metrics


def machine_info():
    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "threads": {var: "1" for var in THREAD_VARS},
        "budget_s": BUDGET_S,
    }


def print_rows(rows):
    for row in rows:
        why = f"  ({row['wrong']})" if row["wrong"] else ""
        print(f"{row['id']:32s} {row['outcome']:8s} {row['wall_s']:7.3f}{why}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="blochjac CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="accepted; a run is one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "blochjac", "cli.py")):
        raise BenchError(f"no blochjac source under {SRC}")
    scratch = os.path.join(WORK, "scratch", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    commands = run_helper("corpus.py", ["--workload", args.workload, "--seed", str(args.seed),
                                        "--root", os.path.join(WORK, "corpus")])
    setup_s, setup_samples = measure_setup(scratch)
    ledger = OutputLedger(os.path.join(WORK, "stdout-digests.json"), source_digest())

    plain = run_pass(commands, scratch, ledger)
    if args.trace:
        traced = run_pass(commands, scratch, ledger, traced=True)
        metrics = per_layer(plain, traced, args.workload)
        rows = plain + traced
    else:
        metrics = end_to_end(plain, setup_s)
        rows = plain
    ledger.save()

    shutil.rmtree(scratch, ignore_errors=True)
    deterministic = all(r["deterministic"] for r in rows)
    result = {
        "correct": deterministic,
        "attempted": len(rows),
        "failed": sum(r["outcome"] != "ok" for r in rows),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  setup_samples=setup_samples, machine=machine_info(),
                  rows=[{k: v for k, v in r.items() if k not in ("spans", "stdout")} for r in rows])
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print_rows(plain)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
