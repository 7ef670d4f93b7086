"""Benchmark of the ncresidue library: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload trace-n3 --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics, with
times scaled to a reference machine speed (see ``speed.py``);
``--trace 1`` runs a fixed number of rounds of the same workload and seed
under ``cProfile`` and prints the per-layer metrics, aggregated per module
of ``src/ncresidue`` from the profile.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run (Python version, nproc,
seed, check details, unscaled figures).  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Standard-library modules the package imports; loaded before any timing so
# every set-up repeat measures the same thing: the package's own import.
for _name in ("argparse", "cmath", "dataclasses", "fractions", "functools", "json", "math",
              "random", "re", "typing"):
    importlib.import_module(_name)

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402

SETUP_REPEATS = 7
LIB_MODULES = ("terms", "scalars", "cyclotomic", "symbols", "calculus", "nctorus", "dsl", "cli")

END_TO_END = [
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]

# Per-layer metrics: (name, unit, what).  ``what`` is ("self", module),
# ("calls", module, qualified name) or ("cum", module, qualified name);
# module "fractions" is the standard library's.
PER_LAYER = [
    ("fractions.self_s", "s", ("self", "fractions")),
    ("fractions.Fraction.created", "count", ("calls", "fractions", "Fraction.__new__")),
    ("scalars.self_s", "s", ("self", "scalars")),
    ("scalars.ComplexRational.created", "count", ("calls", "scalars", "ComplexRational.__init__")),
    ("cyclotomic.self_s", "s", ("self", "cyclotomic")),
    ("cyclotomic.CyclotomicScalar.created", "count",
     ("calls", "cyclotomic", "CyclotomicScalar.__init__")),
    ("terms.self_s", "s", ("self", "terms")),
    ("terms.bag_add.calls", "count", ("calls", "terms", "bag_add")),
    ("terms.partial_xi_terms.calls", "count", ("calls", "terms", "partial_xi_terms")),
    ("terms.partial_xi_terms.cum_s", "s", ("cum", "terms", "partial_xi_terms")),
    ("terms.canonical_terms.calls", "count", ("calls", "terms", "canonical_terms")),
    ("terms.canonical_terms.cum_s", "s", ("cum", "terms", "canonical_terms")),
    ("terms.mul_terms.calls", "count", ("calls", "terms", "mul_terms")),
    ("terms.mul_terms.cum_s", "s", ("cum", "terms", "mul_terms")),
    ("terms.compose_components.calls", "count", ("calls", "terms", "compose_components")),
    ("terms.compose_components.cum_s", "s", ("cum", "terms", "compose_components")),
    ("symbols.self_s", "s", ("self", "symbols")),
    ("calculus.self_s", "s", ("self", "calculus")),
    ("calculus.residue.cum_s", "s", ("cum", "calculus", "residue")),
    ("nctorus.self_s", "s", ("self", "nctorus")),
    ("nctorus.nc_residue.cum_s", "s", ("cum", "nctorus", "nc_residue")),
    ("dsl.self_s", "s", ("self", "dsl")),
    ("dsl.parse_symbol.cum_s", "s", ("cum", "dsl", "parse_symbol")),
    ("dsl.format_symbol.cum_s", "s", ("cum", "dsl", "format_symbol")),
    ("dsl.symbol_from_json.cum_s", "s", ("cum", "dsl", "symbol_from_json")),
    ("dsl.symbol_to_json.cum_s", "s", ("cum", "dsl", "symbol_to_json")),
    ("cli.self_s", "s", ("self", "cli")),
    ("cli.main.cum_s", "s", ("cum", "cli", "main")),
]


class Lib:
    """The package modules of one import, handed to the workloads."""

    def __init__(self):
        for name in LIB_MODULES:
            setattr(self, name, importlib.import_module(f"ncresidue.{name}"))


def import_library() -> Lib:
    """Import ``ncresidue`` afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "ncresidue" or m.startswith("ncresidue.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("ncresidue")
    lib = Lib()
    origin = os.path.realpath(lib.terms.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"ncresidue was imported from {origin}, not from this checkout")
    return lib


def set_up(workload, seed: int, workdir: str):
    lib = import_library()
    return workload.setup(lib, seed, workdir)


def run_rounds(workload, inputs, *, seconds=None, count=None, profiler=None, probe=None):
    """Repeat the workload's round whole until the time or count is reached.

    Only the rounds themselves count towards ``seconds``.  After the first
    round its results are checked and dropped, so memory does not grow with
    the number of rounds; a ``profiler`` is paused meanwhile.  A ``probe``
    times its reference kernel between ops when due.  Returns a list of
    (start, seconds, failed) per op, the rounds run and whether every check
    passed.
    """
    clock = time.perf_counter
    ops = []
    done = 0
    timed = 0.0
    correct = True
    while True:
        outcomes = []
        for op in inputs["round"]:
            if probe is not None:
                probe.maybe_measure()
            t0 = clock()
            try:
                result = op.fn()
            except Exception as exc:  # a fault escaping the library is an outcome to count
                result = exc
            dt = clock() - t0
            timed += dt
            outcomes.append((op, result, t0, dt))
        ops.extend((t0, dt, workload.failed(op, result)) for op, result, t0, dt in outcomes)
        if done == 0:
            if profiler is not None:
                profiler.disable()
            correct = workload.check(inputs, {op.key: result for op, result, _t, _dt in outcomes})
            if profiler is not None:
                profiler.enable()
        del outcomes
        done += 1
        if (seconds is not None and timed >= seconds) or (count is not None and done >= count):
            return ops, done, correct


def summarize(ops, scale) -> dict:
    """Throughput and latency quantiles, each op's time multiplied by ``scale(start)``.

    A failed op counts as infinitely slow in the quantiles.
    """
    spent = 0.0
    latencies = []
    for t0, dt, bad in ops:
        dt *= scale(t0)
        spent += dt
        latencies.append(float("inf") if bad else dt)
    succeeded = sum(not bad for _t, _dt, bad in ops)
    return {
        "ops_per_s": succeeded / spent,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
    }


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seed: int, seconds: float, workdir: str):
    probe = SpeedProbe()
    setups = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None  # let the previous repeat's inputs go before building new ones
        if os.path.isdir(workdir):
            shutil.rmtree(workdir)
        os.makedirs(workdir)
        probe.measure()
        t0 = time.perf_counter()
        inputs = set_up(workload, seed, workdir)
        setups.append((t0, time.perf_counter() - t0))
    probe.measure()
    workload.arrange(inputs)
    ops, rounds, correct = run_rounds(workload, inputs, seconds=seconds, probe=probe)
    probe.measure()
    rss = peak_rss_mib()
    finished, details = workload.finish(inputs)
    correct &= finished
    metrics = summarize(ops, probe.factor)
    metrics["setup_s"] = statistics.median(dt * probe.factor(t0) for t0, dt in setups)
    metrics["peak_rss_mib"] = rss
    unscaled = summarize(ops, lambda _t: 1.0)
    unscaled["setup_s"] = statistics.median(dt for _t, dt in setups)
    details.update(
        rounds=rounds,
        timed_s=sum(dt for _t, dt, _bad in ops),
        unscaled=unscaled,
        reference_ms={
            "median": statistics.median(probe.seconds) * 1e3,
            "min": min(probe.seconds) * 1e3,
            "max": max(probe.seconds) * 1e3,
            "samples": len(probe.seconds),
        },
    )
    return correct, len(ops), sum(bad for _t, _dt, bad in ops), metrics, details


def run_traced(workload, seed: int, workdir: str):
    import cProfile
    import pstats

    os.makedirs(workdir)
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    inputs = set_up(workload, seed, workdir)
    profiler.disable()
    workload.arrange(inputs)
    profiler.enable()
    ops, rounds, correct = run_rounds(
        workload, inputs, count=workload.trace_rounds, profiler=profiler
    )
    profiler.disable()
    total = time.perf_counter() - t0
    finished, details = workload.finish(inputs)
    correct &= finished
    metrics = layer_metrics(pstats.Stats(profiler).stats, inputs["lib"])
    details.update(
        rounds=rounds, traced_ops_s=sum(dt for _t, dt, _bad in ops), traced_total_s=total
    )
    return correct, len(ops), sum(bad for _t, _dt, bad in ops), metrics, details


def layer_metrics(stats: dict, lib: Lib) -> dict:
    """Sum the profile per module of the package, and read the named functions."""
    import fractions

    files = {name: os.path.realpath(getattr(lib, name).__file__) for name in LIB_MODULES}
    files["fractions"] = os.path.realpath(fractions.__file__)
    self_s = dict.fromkeys(files, 0.0)
    by_code = {}
    module_of = {path: name for name, path in files.items()}
    for (path, line, func), (_cc, nc, tt, ct, _callers) in stats.items():
        module = module_of.get(os.path.realpath(path)) if not path.startswith("~") else None
        if module is not None:
            self_s[module] += tt
        by_code[(os.path.realpath(path), line, func)] = (nc, ct)
    out = {}
    for name, unit, what in PER_LAYER:
        if what[0] == "self":
            value = self_s[what[1]]
        else:
            calls = cum = 0
            for code in _codes(lib, what[1], what[2]):
                nc, ct = by_code.get(
                    (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name), (0, 0.0)
                )
                calls += nc
                cum += ct
            value = calls if what[0] == "calls" else cum
        out[name] = {"value": value, "unit": unit}
    return out


def _codes(lib: Lib, module: str, qualname: str):
    """Code objects behind a named function; Fraction also counts its 3.12+ fast constructor."""
    if module == "fractions":
        import fractions

        owner = fractions
    else:
        owner = getattr(lib, module)
    obj = owner
    for part in qualname.split("."):
        obj = getattr(obj, part)
    funcs = [obj]
    if qualname == "Fraction.__new__" and hasattr(owner.Fraction, "_from_coprime_ints"):
        funcs.append(owner.Fraction._from_coprime_ints)
    for f in funcs:
        f = getattr(f, "__func__", f)
        yield f.__code__


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed seconds of an untraced run; a traced run runs fixed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ncresidue", "__init__.py")):
        print(f"no ncresidue package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    try:
        if args.trace:
            outcome = run_traced(workload, args.seed, workdir)
        else:
            outcome = run_untraced(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    correct, attempted, failed, metrics, details = outcome
    if not args.trace:
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        **details,
    }
    print(json.dumps(record))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
