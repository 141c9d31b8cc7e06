"""Run one blochjac command in this process with its layers timed.

    python3 bench/tracer.py SPANS.json <blochjac arguments>

Before the command runs, every public function of the modules in LAYERS is
replaced by a timing wrapper, in every blochjac module namespace that bound
it (spectral, inverse and cli import with ``from .x import f``, so patching
only the defining module would miss most calls).  Per function the wrapper
counts calls and accumulates self time: the span minus the part covered by
wrapped callees.  The totals stay in memory and are written to SPANS.json
when the command ends, also when it ends by SIGTERM.  Stdout and the exit
code are those of the untraced command.
"""

import functools
import importlib
import inspect
import json
import math
import signal
import sys
import time

LAYERS = ("operators", "exactmath", "spectral", "numerics", "inverse", "cli")


class Recorder:
    """Per-function [calls, self seconds] and a few size observations."""

    def __init__(self):
        self.stats = {}
        self.sizes = {}
        self._child_time = [0.0]  # one slot per open span; [0] is the root

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        observe = OBSERVERS.get(name)
        child_time = self._child_time

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                inner = child_time.pop()
                child_time[-1] += span
                stats[0] += 1
                stats[1] += span - inner
            if observe is not None:
                observe(self.sizes, result)
            return result

        return timed

    def dump(self, path):
        doc = {"functions": {k: {"calls": c, "self_s": s} for k, (c, s) in self.stats.items()},
               "sizes": self.sizes}
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)


def _observe_rho(sizes, result):
    rho = result[0]
    bits = max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in rho.coeffs), default=0)
    sizes["exactmath.rho_degree"] = max(sizes.get("exactmath.rho_degree", 0), rho.degree)
    sizes["exactmath.rho_coeff_bits"] = max(sizes.get("exactmath.rho_coeff_bits", 0), bits)


def _observe_roots(sizes, result):
    sizes["numerics.roots_all.max_degree"] = max(sizes.get("numerics.roots_all.max_degree", 0), len(result))
    bad = sum(1 for r in result if not (math.isfinite(r.real) and math.isfinite(r.imag)))
    sizes["numerics.roots_all.nonfinite"] = sizes.get("numerics.roots_all.nonfinite", 0) + bad


OBSERVERS = {
    "spectral.resonance_poly": _observe_rho,
    "numerics.roots_all": _observe_roots,
}


def install(recorder):
    """Wrap the public functions of LAYERS everywhere they are bound."""
    modules = {short: importlib.import_module(f"blochjac.{short}") for short in LAYERS}
    wrapped = {}
    for short, mod in modules.items():
        for attr, fn in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrapped[fn] = recorder.wrap(f"{short}.{attr}", fn)
    for name, mod in list(sys.modules.items()):
        if name == "blochjac" or name.startswith("blochjac."):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
    return modules["cli"]


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    cli = install(recorder)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        code = cli.main(argv)
    finally:
        recorder.dump(spans_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
