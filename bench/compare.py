"""Per-layer deltas between two sets of benchmark results, for information.

    python3 bench/compare.py OLD NEW

OLD and NEW are result records written by bench/run.py (under
.bench_build/blochjac/results/) or directories of them.  Records are
grouped by workload and trace flag; each metric is reduced to its median
over the records of a group, and every metric present on both sides is
printed with its relative change; a rise of more than 20 % is marked with
"<<".  Nothing is judged: the exit code is 0 whatever the deltas are.
"""

import argparse
import json
import os
import statistics

FLAG_RISE = 0.20


def load(path):
    """{(workload, trace): {metric: [values]}} from a file or a directory."""
    files = [path] if os.path.isfile(path) else sorted(
        os.path.join(path, name) for name in os.listdir(path) if name.endswith(".json"))
    groups = {}
    for name in files:
        with open(name) as fh:
            record = json.load(fh)
        group = groups.setdefault((record["workload"], record["trace"]), {})
        for metric, entry in record["metrics"].items():
            group.setdefault(metric, []).append(entry["value"])
    return groups


def delta(old, new):
    if old == new:
        return "    0.0%"
    if old == 0:
        return "     new"
    return f"{100.0 * (new - old) / abs(old):+7.1f}%"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    old, new = load(args.old), load(args.new)
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        print(f"== {workload} (trace {trace}): {len(next(iter(old[key].values())))} old, "
              f"{len(next(iter(new[key].values())))} new records")
        for metric in sorted(set(old[key]) & set(new[key])):
            a = statistics.median(old[key][metric])
            b = statistics.median(new[key][metric])
            flag = "  <<" if b > a and (a == 0 or (b - a) / abs(a) > FLAG_RISE) else ""
            print(f"  {metric:44s} {a:14.6g} {b:14.6g} {delta(a, b)}{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
