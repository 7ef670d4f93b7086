"""Time the named stages of ``ncresidue.terms`` inside one benchmark round.

    python3 tools/stage_times.py CHECKOUT --workload W --seed S

CHECKOUT is the root of a checkout.  The tool imports that checkout's own
``bench/run.py`` and ``bench/workloads.py``, unchanged, and the package
from its ``src``; it sets the workload up for seed S in a temporary
directory outside the checkout and arranges its round, as ``bench/run.py``
does.  After one warm-up round it times ``ROUNDS`` bare rounds and as
many rounds with each stage of ``STAGES`` wrapped by a timer,
alternating, so drift reaches both alike.  A stage is a function of ``ncresidue.terms`` (``_plan``) or a
method of one of its classes (``PackedGaussians.lower``); the wrappers are
put in place before each timed round and taken out after it, and the
engine reaches every stage through the module or the class, so each call
is timed.

It prints the median bare and wrapped round, their difference (the
wrappers' overhead), and for each stage its calls per round and its median
milliseconds per round, with its share of the median bare round.  Times
are inclusive: a stage that runs inside another (the chain kernel inside
``_pairing_pass``) counts in both, so the shares do not sum to one.  A
stage the checkout lacks is printed as absent.  Only the standard library
is used, and nothing under ``bench/`` is touched.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time

ROUNDS = 7

STAGES = (
    "_set_up",
    "_plan",
    "_walks",
    "_compose_walks",
    "_direction",
    "RationalSystem.numerator_map",
    "CyclotomicSystem.numerator_map",
    "_pairing_pass",
    "_chain",
    "sphere_integral",
    "canonical_terms",
    "PackedGaussians.lower",
)


def load(checkout: str, workload: str, seed: int, workdir: str):
    """(the checkout's ``ncresidue.terms``, the arranged round of ops), set
    up by the checkout's ``bench/run.py`` for ``seed`` in ``workdir``."""
    sys.path[:0] = [os.path.join(checkout, "bench"), os.path.join(checkout, "src")]
    import run  # the checkout's bench/run.py, which imports its workloads.py

    chosen = run.workloads.WORKLOADS[workload]
    inputs = run.set_up(chosen, seed, workdir)
    chosen.arrange(inputs)
    return inputs["lib"].terms, [op.fn for op in inputs["round"]]


def _owner(module, stage: str):
    """(the object holding ``stage``, its attribute name), or None when absent."""
    *path, name = stage.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, name) if name in vars(owner) else None


def wrap(module, stages, totals: dict):
    """Put a timer around each present stage, adding its seconds and calls
    to ``totals[stage]``, a [seconds, calls] list; returns the undo."""
    clock, undo = time.perf_counter, []
    for stage in stages:
        found = _owner(module, stage)
        if found is None:
            continue
        owner, name = found
        raw = vars(owner)[name]
        static = isinstance(raw, staticmethod)
        func = raw.__func__ if static else raw
        total = totals.setdefault(stage, [0.0, 0])

        def timed(*args, _func=func, _total=total, **kwargs):
            t0 = clock()
            try:
                return _func(*args, **kwargs)
            finally:
                _total[0] += clock() - t0
                _total[1] += 1

        setattr(owner, name, staticmethod(timed) if static else timed)
        undo.append((owner, name, raw))
    return lambda: [setattr(owner, name, raw) for owner, name, raw in undo]


def time_round(ops) -> float:
    clock = time.perf_counter
    t0 = clock()
    for fn in ops:
        try:
            fn()
        except Exception:  # a failing op is part of the round, as in bench/run.py
            pass
    return clock() - t0


def measure(module, ops) -> dict:
    """Bare and wrapped round times and each stage's per-round seconds and
    calls over ``ROUNDS`` rounds of each, after one warm-up round; absent
    stages are listed apart."""
    stages = STAGES
    time_round(ops)
    bare, wrapped, per_stage = [], [], {}
    for _ in range(ROUNDS):
        bare.append(time_round(ops))
        totals: dict = {}
        undo = wrap(module, stages, totals)
        try:
            wrapped.append(time_round(ops))
        finally:
            undo()
        for stage, (seconds, calls) in totals.items():
            per_stage.setdefault(stage, []).append((seconds, calls))
    absent = [stage for stage in stages if _owner(module, stage) is None]
    return {"bare": bare, "wrapped": wrapped, "stages": per_stage, "absent": absent,
            "order": list(stages)}


def report(result: dict, title: str) -> str:
    """The lines ``main`` prints for ``measure``'s result."""
    bare, wrapped = statistics.median(result["bare"]), statistics.median(result["wrapped"])
    lines = [title,
             f"bare round: median {1e3 * bare:.3f} ms over {len(result['bare'])} rounds",
             f"wrapped round: median {1e3 * wrapped:.3f} ms, wrapper overhead "
             f"{1e3 * (wrapped - bare):.3f} ms ({(wrapped - bare) / bare:.1%} of the bare round)",
             "stage: calls per round, median ms per round, share of the bare round "
             "(inclusive, so shares overlap)"]
    for stage in result["order"]:
        if stage in result["absent"]:
            lines.append(f"  {stage:32s} absent")
            continue
        runs = result["stages"].get(stage, [])
        seconds = statistics.median(s for s, _c in runs) if runs else 0.0
        calls = statistics.median(c for _s, c in runs) if runs else 0
        lines.append(f"  {stage:32s} {calls:8.0f} {1e3 * seconds:10.3f} ms "
                     f"{seconds / bare:7.1%}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", metavar="CHECKOUT")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    with tempfile.TemporaryDirectory() as workdir:
        module, ops = load(checkout, args.workload, args.seed, workdir)
        result = measure(module, ops)
    print(report(result, f"{args.workload} seed {args.seed}, {len(ops)} ops per round, "
                         f"{checkout}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
